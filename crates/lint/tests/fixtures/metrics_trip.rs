//! Trip fixture: malformed metric names (a span, and the span name of a
//! timed parallel region) and a name registered from two call sites with
//! no shared-name allowlist entry. (The CI dead-assert arm of the lint
//! trips via the synthetic ci.yml the test supplies.)

pub fn scan(xs: &[u32]) -> u64 {
    let _sp = ringo_trace::span!("BadName");
    ringo_trace::counter("fixture.dup").add(1);
    xs.iter().map(|&x| u64::from(x)).sum()
}

pub fn scan_morsels(xs: &[u32]) -> u64 {
    let (parts, _) = parallel_map_timed(Some("BadMorsel"), xs.len(), 4, |_, r| {
        xs[r].iter().map(|&x| u64::from(x)).sum::<u64>()
    });
    parts.into_iter().sum()
}

pub fn rescan(xs: &[u32]) -> u64 {
    ringo_trace::counter("fixture.dup").add(1);
    xs.iter().map(|&x| u64::from(x)).sum()
}
