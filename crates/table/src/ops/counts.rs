//! Parallel single-column value counting — the degree-distribution /
//! activity-histogram primitive of the workflow, faster than a general
//! group-by because each worker counts its chunk into a private open-
//! addressing table and the partials merge at the end.

use crate::{ColumnData, ColumnType, Result, Schema, StringPool, Table, TableError};
use ringo_concurrent::{parallel_map, Grain, IntHashTable};

impl Table {
    /// Counts occurrences of each distinct value in an int or str column,
    /// returning a table `(value, count)` sorted by descending count
    /// (ties by ascending value).
    pub fn value_counts(&self, col: &str) -> Result<Table> {
        let i = self.schema.index_of(col)?;
        match &self.cols[i] {
            ColumnData::Int(v) => {
                let parts: Vec<IntHashTable<u64>> =
                    parallel_map(v.len(), self.threads, Grain::PerThread, |_, range| {
                        let mut m: IntHashTable<u64> = IntHashTable::new();
                        for row in range {
                            *m.get_or_insert_with(v[row], || 0) += 1;
                        }
                        m
                    });
                let mut merged: IntHashTable<u64> = IntHashTable::new();
                for part in parts {
                    for (k, &c) in part.iter() {
                        *merged.get_or_insert_with(k, || 0) += c;
                    }
                }
                let mut pairs: Vec<(i64, u64)> = merged.iter().map(|(k, &c)| (k, c)).collect();
                pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let schema = Schema::new([
                    (col.to_string(), ColumnType::Int),
                    ("count".to_string(), ColumnType::Int),
                ]);
                let mut out = Table::from_parts(
                    schema,
                    vec![
                        ColumnData::Int(pairs.iter().map(|p| p.0).collect()),
                        ColumnData::Int(pairs.iter().map(|p| p.1 as i64).collect()),
                    ],
                    StringPool::new(),
                )?;
                out.threads = self.threads;
                Ok(out)
            }
            ColumnData::Str(v) => {
                // Symbols are dense enough to count by symbol, resolving
                // to text only for the output.
                let parts: Vec<IntHashTable<u64>> =
                    parallel_map(v.len(), self.threads, Grain::PerThread, |_, range| {
                        let mut m: IntHashTable<u64> = IntHashTable::new();
                        for row in range {
                            *m.get_or_insert_with(i64::from(v[row]), || 0) += 1;
                        }
                        m
                    });
                let mut merged: IntHashTable<u64> = IntHashTable::new();
                for part in parts {
                    for (k, &c) in part.iter() {
                        *merged.get_or_insert_with(k, || 0) += c;
                    }
                }
                let mut pairs: Vec<(&str, u64)> = merged
                    .iter()
                    .map(|(sym, &c)| (self.pool.get(sym as u32), c))
                    .collect();
                pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                let mut pool = StringPool::new();
                let syms: Vec<u32> = pairs.iter().map(|(s, _)| pool.intern(s)).collect();
                let schema = Schema::new([
                    (col.to_string(), ColumnType::Str),
                    ("count".to_string(), ColumnType::Int),
                ]);
                let mut out = Table::from_parts(
                    schema,
                    vec![
                        ColumnData::Str(syms),
                        ColumnData::Int(pairs.iter().map(|p| p.1 as i64).collect()),
                    ],
                    pool,
                )?;
                out.threads = self.threads;
                Ok(out)
            }
            ColumnData::Float(_) => Err(TableError::TypeMismatch {
                column: col.to_string(),
                expected: "int or str",
                actual: "float",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggOp, Value};

    #[test]
    fn int_counts_sorted_by_frequency() {
        let mut t = Table::from_int_column("x", vec![5, 3, 5, 5, 3, 9]);
        t.set_threads(3);
        let c = t.value_counts("x").unwrap();
        assert_eq!(c.int_col("x").unwrap(), &[5, 3, 9]);
        assert_eq!(c.int_col("count").unwrap(), &[3, 2, 1]);
    }

    #[test]
    fn str_counts_resolve_text() {
        let schema = Schema::new([("tag", ColumnType::Str)]);
        let mut t = Table::new(schema);
        for s in ["java", "rust", "java", "go", "java", "rust"] {
            t.push_row(&[s.into()]).unwrap();
        }
        let c = t.value_counts("tag").unwrap();
        assert_eq!(c.get(0, "tag").unwrap(), Value::Str("java".into()));
        assert_eq!(c.int_col("count").unwrap(), &[3, 2, 1]);
    }

    #[test]
    fn matches_group_by_count() {
        let vals: Vec<i64> = (0..5_000).map(|i| (i * 37) % 100).collect();
        let mut t = Table::from_int_column("x", vals);
        t.set_threads(4);
        let fast = t.value_counts("x").unwrap();
        let slow = t.group_by(&["x"], None, AggOp::Count, "count").unwrap();
        assert_eq!(fast.n_rows(), slow.n_rows());
        let total_fast: i64 = fast.int_col("count").unwrap().iter().sum();
        let total_slow: i64 = slow.int_col("count").unwrap().iter().sum();
        assert_eq!(total_fast, total_slow);
        assert_eq!(total_fast, 5_000);
    }

    #[test]
    fn float_column_rejected_and_empty_ok() {
        let schema = Schema::new([("f", ColumnType::Float)]);
        let t = Table::new(schema);
        assert!(t.value_counts("f").is_err());
        let t = Table::from_int_column("x", vec![]);
        assert_eq!(t.value_counts("x").unwrap().n_rows(), 0);
    }

    #[test]
    fn ties_break_by_ascending_value() {
        let t = Table::from_int_column("x", vec![7, 2, 7, 2, 1]);
        let c = t.value_counts("x").unwrap();
        assert_eq!(c.int_col("x").unwrap(), &[2, 7, 1]);
    }
}
