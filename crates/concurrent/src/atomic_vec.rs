//! Fixed-capacity vector with atomic-claim insertion.
//!
//! The paper (§2.5): "Concurrent insertions to a vector are implemented by
//! using an atomic increment instruction to claim an index of a cell to
//! which a new value is inserted." [`ConcurrentVec`] is that structure: the
//! capacity is fixed at construction, `push` claims `len.fetch_add(1)` and
//! writes the value into the claimed cell without any locking.

use crate::sync::VAtomicUsize;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;

/// Error returned by [`ConcurrentVec::push`] when the vector is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError;

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConcurrentVec capacity exhausted")
    }
}

impl std::error::Error for CapacityError {}

/// A fixed-capacity vector supporting lock-free concurrent `push`.
///
/// Reads through [`ConcurrentVec::get`] or iteration are only valid for
/// indices below the observed length; because `push` publishes the length
/// with a release increment *after* writing the cell, readers that observe
/// an index as in-bounds... — note the subtlety: the claim happens *before*
/// the write, so concurrent readers could observe `len` past a cell still
/// being written. To keep the API safe, reads are therefore only offered on
/// `&mut self` or after consuming the vector with
/// [`ConcurrentVec::into_vec`]; during the parallel phase the structure is
/// write-only, exactly how Ringo uses it.
pub struct ConcurrentVec<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    len: VAtomicUsize,
}

// SAFETY: all concurrent access is mediated by atomic index claiming; cells
// are written at most once and read only with exclusive access.
unsafe impl<T: Send> Sync for ConcurrentVec<T> {}
// SAFETY: owning the vector owns the cells; sending it sends the `T`s.
unsafe impl<T: Send> Send for ConcurrentVec<T> {}

impl<T> ConcurrentVec<T> {
    /// Creates a vector able to hold exactly `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Self {
            buf,
            len: VAtomicUsize::new(0),
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of elements pushed so far. With concurrent pushers in flight
    /// this is a lower bound on the eventually visible count.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire).min(self.buf.len())
    }

    /// True when no elements have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `value`, returning the index it was stored at.
    ///
    /// Lock-free: claims a cell with one `fetch_add`. Returns
    /// `Err(CapacityError)` when full (the over-claim is rolled back so
    /// repeated failures cannot overflow the counter).
    pub fn push(&self, value: T) -> Result<usize, CapacityError> {
        let idx = self.len.fetch_add(1, Ordering::AcqRel);
        if idx >= self.buf.len() {
            self.len.fetch_sub(1, Ordering::AcqRel);
            return Err(CapacityError);
        }
        // SAFETY: `idx` was claimed exclusively by this thread's fetch_add;
        // no other thread will touch this cell until exclusive access.
        unsafe {
            (*self.buf[idx].get()).write(value);
        }
        Ok(idx)
    }

    /// Reads the element at `i`. Requires `&mut self`, guaranteeing all
    /// pushes have completed (no thread can hold `&self` concurrently).
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i < self.len() {
            // SAFETY: i < len means the cell was fully written, and &mut
            // self means no concurrent writer exists.
            Some(unsafe { (*self.buf[i].get()).assume_init_mut() })
        } else {
            None
        }
    }

    /// Consumes the vector, returning the pushed elements in claim order.
    pub fn into_vec(self) -> Vec<T> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            // SAFETY: cells [0, n) are initialized; we take ownership and
            // mark the source empty so Drop does not double-free.
            unsafe {
                out.push((*self.buf[i].get()).assume_init_read());
            }
        }
        self.len.store(0, Ordering::Release);
        out
    }
}

impl<T> Drop for ConcurrentVec<T> {
    fn drop(&mut self) {
        let n = self.len();
        for i in 0..n {
            // SAFETY: cells [0, n) are initialized and owned by us.
            unsafe {
                (*self.buf[i].get()).assume_init_drop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{parallel_for, Grain};

    #[test]
    fn push_and_into_vec_sequential() {
        let v = ConcurrentVec::with_capacity(10);
        for i in 0..10 {
            assert_eq!(v.push(i), Ok(i));
        }
        assert_eq!(v.push(99), Err(CapacityError));
        assert_eq!(v.len(), 10);
        assert_eq!(v.into_vec(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_pushes_land_exactly_once() {
        let n = 50_000usize;
        let v = ConcurrentVec::with_capacity(n);
        parallel_for(n, 8, Grain::PerThread, |_, range| {
            for i in range {
                v.push(i).expect("capacity sized exactly");
            }
        });
        assert_eq!(v.len(), n);
        let mut out = v.into_vec();
        out.sort_unstable();
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_is_reported_not_ub() {
        let n = 1000usize;
        let v = ConcurrentVec::with_capacity(n / 2);
        let mut failures = 0usize;
        for i in 0..n {
            if v.push(i).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, n / 2);
        assert_eq!(v.len(), n / 2);
    }

    #[test]
    fn drop_runs_for_owned_values() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let v = ConcurrentVec::with_capacity(8);
            for _ in 0..5 {
                v.push(Counted).unwrap();
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn get_mut_respects_length() {
        let mut v = ConcurrentVec::with_capacity(4);
        v.push(7i64).unwrap();
        assert_eq!(v.get_mut(0), Some(&mut 7));
        assert_eq!(v.get_mut(1), None);
    }

    #[test]
    fn zero_capacity_push_fails() {
        let v: ConcurrentVec<i32> = ConcurrentVec::with_capacity(0);
        assert_eq!(v.push(1), Err(CapacityError));
        assert!(v.is_empty());
    }

    /// Stress the capacity-rollback path under real contention: many
    /// workers keep pushing well past capacity, so failing pushes
    /// (fetch_add then fetch_sub) race with succeeding ones the whole
    /// time. Afterwards `len` must equal capacity exactly — the transient
    /// over-claims must all have been rolled back — and the stored
    /// elements must be precisely the set of values whose push reported
    /// success: nothing lost, nothing duplicated.
    #[test]
    fn contended_overflow_rolls_back_and_loses_nothing() {
        use std::sync::atomic::AtomicBool;

        let capacity = 4_096usize;
        let attempts = 64 * 1024usize; // 16x oversubscribed
        for round in 0..8 {
            let v: ConcurrentVec<usize> = ConcurrentVec::with_capacity(capacity);
            let succeeded: Vec<AtomicBool> =
                (0..attempts).map(|_| AtomicBool::new(false)).collect();
            parallel_for(attempts, 16, Grain::PerThread, |_, range| {
                for i in range {
                    if v.push(i).is_ok() {
                        succeeded[i].store(true, Ordering::Relaxed);
                    }
                }
            });
            assert_eq!(v.len(), capacity, "round {round}: len != capacity");
            let mut stored = v.into_vec();
            assert_eq!(stored.len(), capacity, "round {round}");
            stored.sort_unstable();
            let mut expected: Vec<usize> = (0..attempts)
                .filter(|&i| succeeded[i].load(Ordering::Relaxed))
                .collect();
            expected.sort_unstable();
            assert_eq!(stored, expected, "round {round}: lost or duplicated");
        }
    }
}
