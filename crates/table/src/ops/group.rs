//! Group & aggregate, and distinct rows.
//!
//! Grouping hashes row keys over the grouping columns; Ringo's persistent
//! row ids make "in-place grouping" (paper §2.3) possible by tagging each
//! row with its group id instead of materializing per-group tables.

use crate::ops::rowkey::RowKey;
use crate::{ColumnData, ColumnType, Result, Schema, Table, TableError};
use ringo_concurrent::{parallel_map_timed, MorselStats};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Aggregation functions for [`Table::group_by`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Number of rows in the group (no aggregate column required).
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Minimum of a numeric column.
    Min,
    /// Maximum of a numeric column.
    Max,
    /// Arithmetic mean of a numeric column (always a float result).
    Mean,
    /// Population variance of a numeric column (float result).
    Var,
    /// Population standard deviation of a numeric column (float result).
    Std,
}

impl Table {
    /// Assigns each row a dense group id (`0..n_groups`) over the given
    /// grouping columns, in first-appearance order. This is the "in-place
    /// grouping" primitive: callers may attach the ids as a column via
    /// [`Table::add_int_column`] without copying the table.
    pub fn group_ids(&self, cols: &[&str]) -> Result<(Vec<i64>, usize)> {
        let idx = self.col_indices(cols)?;
        let mut groups: HashMap<RowKey, i64> = HashMap::new();
        let mut ids = Vec::with_capacity(self.n_rows());
        for row in 0..self.n_rows() {
            let key = self.row_key(row, &idx);
            let next = groups.len() as i64;
            let id = *groups.entry(key).or_insert(next);
            ids.push(id);
        }
        Ok((ids, groups.len()))
    }

    /// Groups by `group_cols` and aggregates `agg_col` with `op`, producing
    /// one row per group: the grouping columns followed by a result column
    /// named `out_name`. For [`AggOp::Count`], `agg_col` may be `None`.
    pub fn group_by(
        &self,
        group_cols: &[&str],
        agg_col: Option<&str>,
        op: AggOp,
        out_name: &str,
    ) -> Result<Table> {
        let mut sp = ringo_trace::span!("table.group");
        sp.rows_in(self.n_rows());
        let (out, _) = self.group_by_sel(group_cols, agg_col, op, out_name, None)?;
        sp.rows_out(out.n_rows());
        Ok(out)
    }

    /// Group-and-aggregate kernel shared by the eager verb and the lazy
    /// executor: like [`Table::group_by`] but restricted to the rows of the
    /// optional selection vector, hashing keys in `sel` order (so group ids
    /// keep first-appearance order, exactly as if the selection had been
    /// materialized first).
    ///
    /// Morsel-driven: each fixed-size row-range morsel builds a private
    /// `key → accumulator` map, and the per-morsel partials are merged
    /// sequentially in morsel order at the barrier. Because the morsel
    /// partition depends only on the row count (never the thread count) and
    /// every accumulator merge is associative in morsel order, the output
    /// is bit-identical at every thread count.
    ///
    /// Accumulator representation (the correctness contract):
    /// - Int `Sum`/`Min`/`Max`/`Mean` accumulate in `i64` — exact beyond
    ///   2^53 where an `f64` accumulator silently rounds. Overflow policy:
    ///   sums saturate at `i64::MIN`/`i64::MAX` rather than wrapping or
    ///   panicking (documented, deterministic, and order-independent).
    /// - `Var`/`Std` use Welford's online algorithm per morsel and Chan's
    ///   parallel merge across morsels — no catastrophic cancellation for
    ///   large-mean/small-spread data, unlike the naive `E[x²] − E[x]²`.
    pub(crate) fn group_by_sel(
        &self,
        group_cols: &[&str],
        agg_col: Option<&str>,
        op: AggOp,
        out_name: &str,
        sel: Option<&[u32]>,
    ) -> Result<(Table, MorselStats)> {
        let gidx = self.col_indices(group_cols)?;
        let n = sel.map_or(self.n_rows(), <[u32]>::len);
        let row_at = |i: usize| -> usize {
            match sel {
                Some(s) => s[i] as usize,
                None => i,
            }
        };

        #[derive(Clone, Copy)]
        enum Src<'a> {
            None,
            Int(&'a [i64]),
            Float(&'a [f64]),
        }
        let src = match (agg_col, op) {
            (None, AggOp::Count) => Src::None,
            (None, _) => {
                return Err(TableError::InvalidArgument(
                    "aggregate column required for non-count aggregates".into(),
                ))
            }
            (Some(name), _) => {
                let i = self.schema.index_of(name)?;
                match &self.cols[i] {
                    ColumnData::Int(v) => Src::Int(v),
                    ColumnData::Float(v) => Src::Float(v),
                    ColumnData::Str(_) => {
                        return Err(TableError::TypeMismatch {
                            column: name.to_string(),
                            expected: "int or float",
                            actual: "str",
                        })
                    }
                }
            }
        };

        /// Per-group accumulator: which fields are live depends on
        /// `(op, src)` — `i` for Int sum/min/max/mean, `f` for Float
        /// sum/min/max/mean, `mean`/`m2` for Welford Var/Std.
        #[derive(Clone, Copy, Default)]
        struct Acc {
            i: i64,
            f: f64,
            mean: f64,
            m2: f64,
        }

        // Initialize a group's accumulator from its first value.
        let init = |row: usize| -> Acc {
            let mut a = Acc::default();
            match (src, op) {
                (Src::None, _) | (_, AggOp::Count) => {}
                (Src::Int(v), AggOp::Sum | AggOp::Mean | AggOp::Min | AggOp::Max) => {
                    a.i = v[row];
                }
                (Src::Float(v), AggOp::Sum | AggOp::Mean | AggOp::Min | AggOp::Max) => {
                    a.f = v[row];
                }
                (Src::Int(v), AggOp::Var | AggOp::Std) => a.mean = v[row] as f64,
                (Src::Float(v), AggOp::Var | AggOp::Std) => a.mean = v[row],
            }
            a
        };
        // Fold one more value into an existing group; `count` is the
        // group's row count *including* this row.
        let fold = |a: &mut Acc, count: i64, row: usize| {
            match (src, op) {
                (Src::None, _) | (_, AggOp::Count) => {}
                (Src::Int(v), AggOp::Sum | AggOp::Mean) => a.i = a.i.saturating_add(v[row]),
                (Src::Float(v), AggOp::Sum | AggOp::Mean) => a.f += v[row],
                (Src::Int(v), AggOp::Min) => a.i = a.i.min(v[row]),
                (Src::Int(v), AggOp::Max) => a.i = a.i.max(v[row]),
                // Keep-first NaN semantics: only replace on a strict
                // comparison win, like the sequential kernel always did.
                (Src::Float(v), AggOp::Min) => {
                    if v[row] < a.f {
                        a.f = v[row];
                    }
                }
                (Src::Float(v), AggOp::Max) => {
                    if v[row] > a.f {
                        a.f = v[row];
                    }
                }
                (Src::Int(v), AggOp::Var | AggOp::Std) => {
                    let x = v[row] as f64;
                    let delta = x - a.mean;
                    a.mean += delta / count as f64;
                    a.m2 += delta * (x - a.mean);
                }
                (Src::Float(v), AggOp::Var | AggOp::Std) => {
                    let x = v[row];
                    let delta = x - a.mean;
                    a.mean += delta / count as f64;
                    a.m2 += delta * (x - a.mean);
                }
            }
        };
        // Merge morsel-local group `b` (count `nb`) into global group `a`
        // (count `na`, *before* the merge). Associative in morsel order.
        let merge = |a: &mut Acc, na: i64, b: Acc, nb: i64| match op {
            AggOp::Count => {}
            AggOp::Sum | AggOp::Mean => match src {
                Src::Int(_) => a.i = a.i.saturating_add(b.i),
                _ => a.f += b.f,
            },
            AggOp::Min => match src {
                Src::Int(_) => a.i = a.i.min(b.i),
                _ => {
                    if b.f < a.f {
                        a.f = b.f;
                    }
                }
            },
            AggOp::Max => match src {
                Src::Int(_) => a.i = a.i.max(b.i),
                _ => {
                    if b.f > a.f {
                        a.f = b.f;
                    }
                }
            },
            // Chan's parallel variance combine.
            AggOp::Var | AggOp::Std => {
                let (na, nb) = (na as f64, nb as f64);
                let tot = na + nb;
                let delta = b.mean - a.mean;
                a.mean += delta * (nb / tot);
                a.m2 += b.m2 + delta * delta * (na * nb / tot);
            }
        };

        /// One morsel's aggregation state, keys in first-appearance order.
        struct Partial {
            keys: Vec<RowKey>,
            first_row: Vec<u32>,
            count: Vec<i64>,
            acc: Vec<Acc>,
        }
        let (partials, stats) =
            parallel_map_timed(Some("plan.morsel.group"), n, self.threads, |_, range| {
                let mut map: HashMap<RowKey, u32> = HashMap::new();
                let mut first_row: Vec<u32> = Vec::new();
                let mut count: Vec<i64> = Vec::new();
                let mut acc: Vec<Acc> = Vec::new();
                for i in range {
                    let row = row_at(i);
                    match map.entry(self.row_key(row, &gidx)) {
                        Entry::Occupied(e) => {
                            let g = *e.get() as usize;
                            count[g] += 1;
                            fold(&mut acc[g], count[g], row);
                        }
                        Entry::Vacant(e) => {
                            e.insert(first_row.len() as u32);
                            first_row.push(row as u32);
                            count.push(1);
                            acc.push(init(row));
                        }
                    }
                }
                // Recover first-appearance key order from the map (the key
                // itself lives in the map; local ids index the vectors, and
                // every id in `0..first_row.len()` has exactly one key).
                let mut keys: Vec<RowKey> = (0..first_row.len()).map(|_| RowKey::new()).collect();
                for (k, id) in map {
                    keys[id as usize] = k;
                }
                Partial {
                    keys,
                    first_row,
                    count,
                    acc,
                }
            });

        // Merge partials sequentially in morsel order: global group ids
        // come out in first-appearance order over `sel`, exactly as a
        // sequential scan would assign them.
        let mut gmap: HashMap<RowKey, u32> = HashMap::new();
        let mut rep: Vec<u32> = Vec::new();
        let mut counts: Vec<i64> = Vec::new();
        let mut accs: Vec<Acc> = Vec::new();
        for p in partials {
            for (local, key) in p.keys.into_iter().enumerate() {
                match gmap.entry(key) {
                    Entry::Vacant(e) => {
                        e.insert(rep.len() as u32);
                        rep.push(p.first_row[local]);
                        counts.push(p.count[local]);
                        accs.push(p.acc[local]);
                    }
                    Entry::Occupied(e) => {
                        let g = *e.get() as usize;
                        merge(&mut accs[g], counts[g], p.acc[local], p.count[local]);
                        counts[g] += p.count[local];
                    }
                }
            }
        }
        let n_groups = rep.len();

        let mut schema = Schema::default();
        let mut cols: Vec<ColumnData> = Vec::new();
        for &i in &gidx {
            schema.push_unique(self.schema.name(i), self.schema.column_type(i));
            cols.push(self.cols[i].gather_sel(&rep));
        }
        let float_result = !matches!(op, AggOp::Count)
            && (matches!(op, AggOp::Mean | AggOp::Var | AggOp::Std)
                || matches!(src, Src::Float(_)));
        if !float_result {
            let data: Vec<i64> = (0..n_groups)
                .map(|g| match op {
                    AggOp::Count => counts[g],
                    _ => accs[g].i,
                })
                .collect();
            schema.push_unique(out_name, ColumnType::Int);
            cols.push(ColumnData::Int(data));
        } else {
            let data: Vec<f64> = (0..n_groups)
                .map(|g| {
                    let nf = counts[g] as f64;
                    match op {
                        AggOp::Mean => match src {
                            // Exact i64 sum, one rounding at the divide.
                            Src::Int(_) => accs[g].i as f64 / nf,
                            _ => accs[g].f / nf,
                        },
                        AggOp::Var | AggOp::Std => {
                            // m2 is a sum of products of same-signed terms;
                            // clamp only defends against float round-off.
                            let var = (accs[g].m2 / nf).max(0.0);
                            if op == AggOp::Std {
                                var.sqrt()
                            } else {
                                var
                            }
                        }
                        _ => accs[g].f,
                    }
                })
                .collect();
            schema.push_unique(out_name, ColumnType::Float);
            cols.push(ColumnData::Float(data));
        }

        let mut out = Table::from_parts(schema, cols, self.pool.clone())?;
        out.threads = self.threads;
        Ok((out, stats))
    }

    /// Returns a table keeping the first row of each distinct combination
    /// of the given columns (row ids preserved).
    pub fn unique(&self, cols: &[&str]) -> Result<Table> {
        let idx = self.col_indices(cols)?;
        let mut seen: HashMap<RowKey, ()> = HashMap::new();
        let mut keep = Vec::new();
        for row in 0..self.n_rows() {
            let key = self.row_key(row, &idx);
            if seen.insert(key, ()).is_none() {
                keep.push(row);
            }
        }
        Ok(self.gather_rows(&keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn sales() -> Table {
        let schema = Schema::new([
            ("region", ColumnType::Str),
            ("amount", ColumnType::Int),
            ("rate", ColumnType::Float),
        ]);
        let mut t = Table::new(schema);
        for (r, a, f) in [
            ("east", 10i64, 1.0),
            ("west", 20, 2.0),
            ("east", 30, 3.0),
            ("west", 5, 0.5),
            ("east", 2, 4.0),
        ] {
            t.push_row(&[r.into(), Value::Int(a), Value::Float(f)])
                .unwrap();
        }
        t
    }

    #[test]
    fn group_ids_dense_first_appearance() {
        let t = sales();
        let (ids, n) = t.group_ids(&["region"]).unwrap();
        assert_eq!(n, 2);
        assert_eq!(ids, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn count_per_group() {
        let t = sales();
        let g = t.group_by(&["region"], None, AggOp::Count, "n").unwrap();
        assert_eq!(g.n_rows(), 2);
        assert_eq!(g.get(0, "region").unwrap(), Value::Str("east".into()));
        assert_eq!(g.int_col("n").unwrap(), &[3, 2]);
    }

    #[test]
    fn sum_min_max_int_stay_int() {
        let t = sales();
        let s = t
            .group_by(&["region"], Some("amount"), AggOp::Sum, "s")
            .unwrap();
        assert_eq!(s.int_col("s").unwrap(), &[42, 25]);
        let m = t
            .group_by(&["region"], Some("amount"), AggOp::Min, "m")
            .unwrap();
        assert_eq!(m.int_col("m").unwrap(), &[2, 5]);
        let x = t
            .group_by(&["region"], Some("amount"), AggOp::Max, "x")
            .unwrap();
        assert_eq!(x.int_col("x").unwrap(), &[30, 20]);
    }

    #[test]
    fn mean_is_float() {
        let t = sales();
        let g = t
            .group_by(&["region"], Some("amount"), AggOp::Mean, "avg")
            .unwrap();
        assert_eq!(g.float_col("avg").unwrap(), &[14.0, 12.5]);
    }

    #[test]
    fn float_aggregates() {
        let t = sales();
        let g = t
            .group_by(&["region"], Some("rate"), AggOp::Max, "mx")
            .unwrap();
        assert_eq!(g.float_col("mx").unwrap(), &[4.0, 2.0]);
    }

    #[test]
    fn variance_and_std() {
        let t = sales();
        // east amounts: 10, 30, 2 — mean 14, var ((16+256+144)/3)... compute:
        // deviations -4, 16, -12 → squares 16, 256, 144 → var 416/3.
        let v = t
            .group_by(&["region"], Some("amount"), AggOp::Var, "v")
            .unwrap();
        let vals = v.float_col("v").unwrap();
        assert!((vals[0] - 416.0 / 3.0).abs() < 1e-9);
        // west amounts: 20, 5 — mean 12.5, var 56.25.
        assert!((vals[1] - 56.25).abs() < 1e-9);
        let s = t
            .group_by(&["region"], Some("amount"), AggOp::Std, "s")
            .unwrap();
        assert!((s.float_col("s").unwrap()[1] - 7.5).abs() < 1e-9);
    }

    #[test]
    fn variance_exact_for_large_mean_small_spread() {
        // mean ≈ 1e9, spread ≈ 1: the retired naive `E[x²] − E[x]²`
        // formula cancels catastrophically here (f64 ulp at 1e18 is 128,
        // five orders of magnitude above the true variance) — Welford
        // keeps every significant bit.
        let mut t = Table::from_int_column("g", vec![0, 0, 0]);
        t.add_float_column("x", vec![1e9, 1e9 + 1.0, 1e9 + 2.0])
            .unwrap();
        let v = t.group_by(&["g"], Some("x"), AggOp::Var, "v").unwrap();
        let got = v.float_col("v").unwrap()[0];
        assert!((got - 2.0 / 3.0).abs() < 1e-12, "var = {got}");
        let s = t.group_by(&["g"], Some("x"), AggOp::Std, "s").unwrap();
        let got = s.float_col("s").unwrap()[0];
        assert!((got - (2.0f64 / 3.0).sqrt()).abs() < 1e-12, "std = {got}");
    }

    #[test]
    fn int_aggregates_exact_beyond_2_pow_53() {
        // 2^53 + 1 is not representable in f64; the retired f64
        // accumulator rounded it to 2^53 on the way in, so sum, min and
        // max all came back wrong.
        let big = (1i64 << 53) + 1;
        let mut t = Table::from_int_column("g", vec![0, 0]);
        t.add_int_column("x", vec![big, big]).unwrap();
        let s = t.group_by(&["g"], Some("x"), AggOp::Sum, "s").unwrap();
        assert_eq!(s.int_col("s").unwrap(), &[2 * big]);
        let m = t.group_by(&["g"], Some("x"), AggOp::Min, "m").unwrap();
        assert_eq!(m.int_col("m").unwrap(), &[big]);
        let x = t.group_by(&["g"], Some("x"), AggOp::Max, "x2").unwrap();
        assert_eq!(x.int_col("x2").unwrap(), &[big]);
    }

    #[test]
    fn int_sum_saturates_on_overflow() {
        // Documented overflow policy: integer sums saturate rather than
        // wrap or panic.
        let mut t = Table::from_int_column("g", vec![0, 0, 0]);
        t.add_int_column("x", vec![i64::MAX, i64::MAX, 1]).unwrap();
        let s = t.group_by(&["g"], Some("x"), AggOp::Sum, "s").unwrap();
        assert_eq!(s.int_col("s").unwrap(), &[i64::MAX]);
    }

    #[test]
    fn empty_table_groups_to_zero_rows_with_schema() {
        let t = Table::from_int_column("g", Vec::new());
        let g = t.group_by(&["g"], None, AggOp::Count, "n").unwrap();
        assert_eq!(g.n_rows(), 0);
        assert_eq!(g.n_cols(), 2, "key column and aggregate column");
        assert_eq!(g.schema().name(0), "g");
        assert_eq!(g.schema().name(1), "n");
        let (ids, n) = t.group_ids(&["g"]).unwrap();
        assert!(ids.is_empty());
        assert_eq!(n, 0, "no phantom group on empty input");
    }

    #[test]
    fn multi_column_grouping() {
        let t = sales();
        let (_, n) = t.group_ids(&["region", "amount"]).unwrap();
        assert_eq!(n, 5, "all rows distinct over both columns");
    }

    #[test]
    fn errors_on_bad_arguments() {
        let t = sales();
        assert!(t.group_by(&["region"], None, AggOp::Sum, "s").is_err());
        assert!(t
            .group_by(&["region"], Some("region"), AggOp::Sum, "s")
            .is_err());
        assert!(t.group_by(&["nope"], None, AggOp::Count, "n").is_err());
    }

    #[test]
    fn unique_keeps_first_occurrence() {
        let t = sales();
        let u = t.unique(&["region"]).unwrap();
        assert_eq!(u.n_rows(), 2);
        assert_eq!(u.row_ids(), &[0, 1]);
        let all = t.unique(&["region", "amount", "rate"]).unwrap();
        assert_eq!(all.n_rows(), 5);
    }
}
