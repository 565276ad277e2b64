//! Pass control: dotted names, one call site each, matching what the
//! synthetic ci.yml asserts (exact and prefix forms).

pub fn scan(xs: &[u32]) -> u64 {
    let _sp = ringo_trace::span!("fixture.scan");
    ringo_trace::counter("fixture.scan.rows").add(xs.len() as u64);
    xs.iter().map(|&x| u64::from(x)).sum()
}

pub fn scan_morsels(xs: &[u32]) -> u64 {
    let (parts, _) = parallel_map_timed(Some("fixture.scan.morsel"), xs.len(), 4, |_, r| {
        xs[r].iter().map(|&x| u64::from(x)).sum::<u64>()
    });
    parts.into_iter().sum()
}
