//! `ravel-perfbench` — the repository benchmark.
//!
//! ```text
//! ravel-perfbench --workload <paper-grid|fault-soak|long-call> --seed N
//!                 --seconds S --trace <0|1> [--spans-out PATH]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports per-layer costs.
//! Either way the last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Outputs are checked on every pass: the digest of the timing-free
//! per-cell outputs must not change between passes, between batch
//! modes, or between one worker and all of them.

mod measure;
mod replay;
mod spans;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ravel_harness::{default_jobs, BatchMode};

use measure::{median, peak_rss_mb, probe_host, quantile, tail_quantile, PROBE_REF_MS};
use spans::Spans;
use workload::{prefix_digest, run_pass, Kind, Pass, Workload};

/// Minimum timed passes of each kind, whatever `--seconds` says.
const MIN_PASSES: usize = 4;
/// Per-cell times are grouped into blocks of at least this many samples;
/// the p50 and tail are taken per block and their medians reported.
const BLOCK_SAMPLES: usize = 100;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Worker threads: every core.
    pub jobs: usize,
    /// Where a traced run writes its spans.
    pub spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut spans_out = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)? as f64),
            "--trace" => trace = Some(num(&value)? != 0),
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        jobs: default_jobs(),
        spans_out,
    })
}

/// One named metric value with its unit.
pub type Metric = (String, f64, &'static str);

/// Renders the result line. A metric that is not a finite number is an
/// error: JSON cannot carry it, and no substitute would be a measurement.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// Times one set-up of the workload.
pub fn timed_setup(kind: Kind, seed: u64, spans: &mut Spans) -> (Workload, f64) {
    let t = Instant::now();
    let (w, unique) = spans.span("expand", |_| Workload::set_up(kind, seed));
    let secs = t.elapsed().as_secs_f64();
    assert!(unique > 0, "set-up produced no cells");
    (w, secs)
}

/// Checks the output digest at one worker against all of them on a
/// short prefix. Returns whether they agree.
pub fn cross_width_check(w: &Workload, jobs: usize) -> bool {
    let n = match w.kind {
        Kind::PaperGrid => 24,
        Kind::FaultSoak => 16,
        Kind::LongCall => 2,
    };
    let serial = prefix_digest(w, n, 1);
    let parallel = prefix_digest(w, n, jobs);
    println!("prefix_digest n={n} jobs=1 {serial:016x} jobs={jobs} {parallel:016x}");
    serial == parallel
}

/// Per-cell p50 and tail over blocks of at least [`BLOCK_SAMPLES`].
/// Returns (p50 median, tail median, tail quantile, block size).
fn cell_stats(passes: &[&Pass]) -> (f64, f64, f64, usize) {
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new()];
    for p in passes {
        let block = blocks.last_mut().expect("one block");
        block.extend(&p.cell_ms);
        if block.len() >= BLOCK_SAMPLES {
            blocks.push(Vec::new());
        }
    }
    let full: Vec<&Vec<f64>> = blocks.iter().filter(|b| b.len() >= BLOCK_SAMPLES).collect();
    let blocks = if full.is_empty() {
        vec![&blocks[0]]
    } else {
        full
    };
    let n = blocks.iter().map(|b| b.len()).min().expect("one block");
    let q = tail_quantile(n);
    let p50: Vec<f64> = blocks.iter().map(|b| median(b)).collect();
    let tail: Vec<f64> = blocks.iter().map(|b| quantile(&b[..n], q)).collect();
    (median(&p50), median(&tail), q, n)
}

fn run_untraced(args: &Args) -> Result<String, String> {
    let mut spans = Spans::new(false);
    let (w, first_setup) = timed_setup(args.kind, args.seed, &mut spans);
    // Each pass runs on a set-up of its own, so the set-up median spans
    // the whole run rather than one burst of host speed.
    let mut setups = vec![first_setup];
    let main_opts = args.kind.pool_options();
    let mut cell_opts = main_opts;
    cell_opts.batch = BatchMode::Fixed(1);
    // One untimed warm-up pass: first-touch allocation and cold caches.
    let warm = run_pass(&w, args.jobs, main_opts, &mut spans, false);
    let digest = warm.digest;
    // Peak memory of a process that has set up and run the workload
    // once, as a user's run does. Read before the further passes, whose
    // peaks depend on how the allocator reuses the previous pass's
    // freed memory rather than on the program.
    let peak_rss = peak_rss_mb();
    let mut correct = cross_width_check(&w, args.jobs);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut main_passes: Vec<Pass> = Vec::new();
    // The grid alternates its default (batched) passes with one kernel
    // call per cell passes, the only ones whose cell walls are measured;
    // the other workloads already run one call per cell.
    let alternate = main_opts.batch != BatchMode::Fixed(1);
    let mut per_cell_passes: Vec<Pass> = Vec::new();
    let samples = |passes: &[Pass]| passes.iter().map(|p| p.cell_ms.len()).sum::<usize>();
    // The host probe runs after every pass (pair), so its median spans
    // the same stretch of host load as the passes' medians.
    let mut probes: Vec<f64> = Vec::new();
    while started.elapsed() < budget
        || main_passes.len() < MIN_PASSES
        || samples(if alternate {
            &per_cell_passes
        } else {
            &main_passes
        }) < BLOCK_SAMPLES
    {
        let (w, setup) = timed_setup(args.kind, args.seed, &mut spans);
        setups.push(setup);
        main_passes.push(run_pass(&w, args.jobs, main_opts, &mut spans, false));
        if alternate {
            per_cell_passes.push(run_pass(&w, args.jobs, cell_opts, &mut spans, false));
        }
        probes.push(probe_host(args.jobs));
    }
    let cell_passes = if alternate {
        &per_cell_passes
    } else {
        &main_passes
    };
    let all: Vec<&Pass> = main_passes.iter().chain(&per_cell_passes).collect();
    let mismatched = all.iter().filter(|p| p.digest != digest).count();
    if mismatched > 0 {
        println!(
            "DIGEST MISMATCH: {mismatched} of {} passes differ from {digest:016x}",
            all.len()
        );
        correct = false;
    }
    // The operations are the cells of one pass. Every timed pass repeats
    // them and the digest check proves each repeat has the same outcome,
    // so the counts depend on the seed alone, not on how many passes the
    // host's speed fitted in.
    let (attempted, failed) = (warm.cells, warm.failed);
    let walls: Vec<f64> = main_passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let rates: Vec<f64> = main_passes
        .iter()
        .map(|p| p.sim_executed / p.cpu.as_secs_f64().max(1e-9))
        .collect();
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.5}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("setup_s {}", fmt(&setups));
    println!("pass_wall_s {}", fmt(&walls));
    println!("pass_sim_s_per_cpu_s {}", fmt(&rates));
    let cell_refs: Vec<&Pass> = cell_passes.iter().collect();
    let (p50, tail, q, n) = cell_stats(&cell_refs);
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!(
        "workload {} seed {} jobs {} passes {}+{} digest {digest:016x} cells/pass {} failed/pass {}",
        args.kind.name(),
        args.seed,
        args.jobs,
        main_passes.len(),
        per_cell_passes.len(),
        warm.cells,
        warm.failed
    );
    println!(
        "wall_s quartiles {:.4} {:.4} {:.4}; cell_ms_tail is p{:.2} over blocks of {n} samples; failed_cell_share {failed_share:.6}",
        quantile(&walls, 0.25),
        median(&walls),
        quantile(&walls, 0.75),
        q * 100.0
    );
    // How much slower than the reference host this host ran during the
    // run. Every time is divided by it and every rate multiplied, so the
    // metrics read as at reference speed whatever the other tenants of a
    // shared host were doing; the unscaled medians are printed above.
    let host = median(&probes) / PROBE_REF_MS;
    println!(
        "host probe median {:.3} ms, factor {host:.4}; unscaled setup_s {:.7} wall_s {:.5} \
         sim_s_per_cpu_s {:.1} cell_ms_p50 {p50:.4} cell_ms_tail {tail:.4}",
        median(&probes),
        median(&setups),
        median(&walls),
        median(&rates),
    );
    let metrics: Vec<Metric> = vec![
        ("setup_s".into(), median(&setups) / host, "s"),
        ("wall_s".into(), median(&walls) / host, "s"),
        (
            "sim_s_per_cpu_s".into(),
            median(&rates) * host,
            "sim_s/cpu_s",
        ),
        ("cell_ms_p50".into(), p50 / host, "ms"),
        ("cell_ms_tail".into(), tail / host, "ms"),
        ("peak_rss_mb".into(), peak_rss, "MiB"),
        ("ok_cell_share".into(), 1.0 - failed_share, "fraction"),
    ];
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    result_line(correct, attempted, failed, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ravel-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = if args.trace {
        traced::run(&args)
    } else {
        run_untraced(&args)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ravel-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
