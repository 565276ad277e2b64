//! The closed-loop analyst: issues one verb, waits for its answer, checks
//! it, then issues the next. Every verb is timed from outside the library
//! and wrapped in a span of the benchmark's own, so a traced session can
//! split its wall time by crate (see `layers`).

use ringo_core::mem;
use ringo_core::Ringo;
use std::collections::BTreeMap;
use std::time::Instant;

/// One verb call as the analyst saw it.
#[derive(Clone, Debug)]
pub struct Call {
    /// Span the benchmark recorded around the call (`core.<verb>` when the
    /// library records spans inside the verb, else the layer doing the work).
    pub span: &'static str,
    /// Wall time from issuing the call to holding its answer.
    pub wall_s: f64,
    /// Rows or edges the call handled, for rates (set by [`Session::items`]).
    pub items: f64,
    /// Heap the call needed beyond what was live when it started.
    pub peak_extra_bytes: f64,
    /// Allocator calls (including reallocations) made during the call.
    pub allocs: f64,
    /// Returned `Err`, or its answer failed an output check.
    pub failed: bool,
}

/// One session's calls plus the figures the workload derived from them.
pub struct Session<'r> {
    pub ringo: &'r Ringo,
    pub calls: Vec<Call>,
    /// Workload-specific per-session figures (graph bytes, triangle count,
    /// edit-to-answer time, ...).
    pub extra: BTreeMap<&'static str, f64>,
    /// Human-readable description of every failed check, for stderr.
    pub failures: Vec<String>,
}

impl<'r> Session<'r> {
    pub fn new(ringo: &'r Ringo) -> Self {
        Session {
            ringo,
            calls: Vec::new(),
            extra: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    /// Issues one verb and waits for its answer.
    pub fn call<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> T {
        mem::reset_peak();
        let live = mem::current_bytes();
        let allocs = mem::alloc_count();
        let start = Instant::now();
        let out = {
            let _sp = ringo_core::trace::span!(span);
            std::hint::black_box(f())
        };
        let wall_s = start.elapsed().as_secs_f64();
        self.calls.push(Call {
            span,
            wall_s,
            items: 0.0,
            peak_extra_bytes: mem::peak_bytes().saturating_sub(live) as f64,
            allocs: mem::alloc_count().saturating_sub(allocs) as f64,
            failed: false,
        });
        out
    }

    /// Issues a fallible verb. An `Err` counts as a failed call and ends
    /// the session (`None`).
    pub fn try_call<T, E: std::fmt::Display>(
        &mut self,
        span: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        match self.call(span, f) {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{span} returned Err: {e}"));
                None
            }
        }
    }

    /// Sets the item count (rows or edges) of the last call.
    pub fn items(&mut self, n: usize) {
        if let Some(c) = self.calls.last_mut() {
            c.items = n as f64;
        }
    }

    /// Checks the last call's answer; a mismatch marks that call failed.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.fail(format!("check `{what}` failed: {}", detail()));
        }
    }

    /// Checks that the last call returned exactly `expected`.
    pub fn check_eq(&mut self, what: &str, got: u64, expected: u64) {
        self.check(what, got == expected, || {
            format!("got {got}, expected {expected}")
        });
    }

    fn fail(&mut self, msg: String) {
        let span = self.calls.last().map_or("(no call)", |c| c.span);
        self.failures.push(format!("{span}: {msg}"));
        if let Some(c) = self.calls.last_mut() {
            c.failed = true;
        }
    }

    /// Index of the next call, to time a run of calls with [`Self::wall_since`].
    pub fn mark(&self) -> usize {
        self.calls.len()
    }

    /// Summed wall time of the calls issued since `mark`.
    pub fn wall_since(&self, mark: usize) -> f64 {
        self.calls[mark..].iter().map(|c| c.wall_s).sum()
    }

    /// Summed wall time of every call: the analyst's waiting time.
    pub fn wall(&self) -> f64 {
        self.calls.iter().map(|c| c.wall_s).sum()
    }

    /// Calls whose span is one of `spans`.
    pub fn calls_of<'a>(&'a self, spans: &'a [&str]) -> impl Iterator<Item = &'a Call> + 'a {
        self.calls.iter().filter(move |c| spans.contains(&c.span))
    }

    pub fn failed_calls(&self) -> usize {
        self.calls.iter().filter(|c| c.failed).count()
    }
}
