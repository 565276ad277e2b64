//! Paper-session benchmark for the Ringo facade.
//!
//! One analyst, closed loop: each verb is issued only after the previous
//! answer returned, on a context with no more worker threads than cores.
//!
//! ```text
//! paperbench --workload <so_pipeline|lj_kernels|tw_edit_loop> --seed <n>
//!            --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`). The line before it records the run:
//! git rev, threads, nproc, seed and scale. A failed output check prints
//! the result with `"correct": false` and exits with code 1.

mod layers;
mod metrics;
mod oracle;
mod session;
mod workloads;

use metrics::{median, Figures, END_TO_END, PER_LAYER};
use ringo_core::mem::TrackingAllocator;
use ringo_core::trace::json::write_escaped;
use ringo_core::Ringo;
use session::Session;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Unmeasured sessions run this long, or `--seconds` if shorter, and at
/// least one runs.
const WARMUP: Duration = Duration::from_secs(3);
/// How far the layer self times of a traced session may stray from its
/// wall time.
const COVERAGE_TOLERANCE: f64 = 0.03;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) = (None, None, None, None, 1.0);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad(&"expected 0 or 1")),
            },
            "--scale" => scale = value.parse::<f64>().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("paperbench-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| run(&args, work.clone()));
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only when no other run is using the directory.
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("paperbench: {e}");
            std::process::exit(2);
        }
    }
}

/// One run; returns whether every output check passed.
fn run(args: &Args, work: PathBuf) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ringo_core::concurrent::num_threads().min(nproc);
    let ringo = Ringo::with_threads(threads);
    let mut wl = workloads::by_name(&args.workload, args.seed, args.scale, work)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;

    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        wl.setup(&ringo)?;
        setup.push(start.elapsed().as_secs_f64());
    }
    wl.expect();

    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut trace_ok = true;
    let mut untraced = Figures::default();
    let mut traced = Figures::default();
    // Warm-up sessions fill the pool, the allocator's free lists and the
    // page tables; they are checked but not measured.
    let warm_until = Instant::now() + WARMUP.min(Duration::from_secs_f64(args.seconds));
    let mut measure_until = None::<Instant>;
    for i in 0usize.. {
        let trace_this = args.trace && measure_until.is_some() && i % 2 == 0;
        if let Some(end) = measure_until {
            let enough = untraced.sessions() > 0 && (!args.trace || traced.sessions() > 0);
            if Instant::now() >= end && enough {
                break;
            }
        } else if i > 0 && Instant::now() >= warm_until {
            measure_until = Some(Instant::now() + Duration::from_secs_f64(args.seconds));
            continue;
        }
        if trace_this {
            ringo_core::trace::reset();
            ringo_core::trace::set_enabled(true);
        }
        let mut s = Session::new(&ringo);
        let completed = wl.session(&mut s).is_some();
        ringo_core::trace::set_enabled(false);
        attempted += s.calls.len();
        failed += s.failed_calls();
        for f in &s.failures {
            eprintln!("paperbench: session {i}: {f}");
        }
        if !completed || !s.failures.is_empty() {
            break;
        }
        if trace_this {
            let mut layer = layers::analyze(&s, threads);
            let dropped = layer["trace.events.dropped"];
            let coverage = layer["trace.coverage"];
            if dropped > 0.0 || (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
                eprintln!(
                    "paperbench: session {i}: the recorder dropped {dropped} events and the \
                     layer self times cover {coverage:.4} of the session's wall time"
                );
                trace_ok = false;
            }
            layer.insert("session_s", s.wall());
            traced.add(layer);
        } else if measure_until.is_some() {
            untraced.add(metrics::session_figures(&s));
        }
    }

    let mut out = if args.trace {
        metrics::per_layer(&untraced, &traced, attempted, failed)
    } else {
        metrics::end_to_end(&untraced, median(&setup))
    };
    let correct = failed == 0
        && trace_ok
        && untraced.sessions() > 0
        && (!args.trace || traced.sessions() > 0);

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut line = String::from("{\"correct\": ");
    line += if correct { "true" } else { "false" };
    line += &format!(", \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = out.remove(name).filter(|v| v.is_finite()).unwrap_or(0.0);
        if i > 0 {
            line += ", ";
        }
        line += &format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    line += "}}";

    println!(
        "{}",
        record(args, threads, nproc, wl.scale(), &untraced, &traced)
    );
    println!("{line}");
    Ok(correct)
}

/// The run record printed before the result: what produced the numbers.
fn record(
    args: &Args,
    threads: usize,
    nproc: usize,
    scale: String,
    untraced: &Figures,
    traced: &Figures,
) -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let (tail_pct, tail_s) = untraced.tail("session_s");
    let mut out = String::from("{\"record\": {\"rev\": ");
    write_escaped(&mut out, &rev);
    out += &format!(
        ", \"threads\": {threads}, \"nproc\": {nproc}, \"seed\": {}, \"workload\": ",
        args.seed
    );
    write_escaped(&mut out, &args.workload);
    out += ", \"scale\": ";
    write_escaped(&mut out, &format!("{scale} (x{})", args.scale));
    out += &format!(
        ", \"seconds\": {}, \"trace\": {}, \"sessions\": {}, \"traced_sessions\": {}, \
         \"session_s_median\": {}, \"session_s_tail\": {{\"pct\": {tail_pct}, \"value\": {tail_s}}}, \
         \"paper_shapes\": {{\"triangles_over_pagerank\": 2.2, \"export_over_build\": 3.5, \"graph_bytes_per_edge\": 20}}}}}}",
        args.seconds,
        args.trace,
        untraced.sessions(),
        traced.sessions(),
        untraced.median("session_s").unwrap_or(0.0),
    );
    out
}
