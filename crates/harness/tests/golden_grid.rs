//! Golden snapshot of the full experiment registry's assembled output.
//!
//! `tests/golden/grid.tables` holds exactly the bytes
//! `ravel-harness --no-json` prints to stdout for `experiments::all()`
//! (one `=== id: title ===` header plus the rendered table or CSV per
//! experiment), followed by one line: the FNV-1a digest of the
//! timing-free JSON report, built with `jobs: 0` the way the benchmark
//! in `perfbench/` builds it. Every EXPERIMENTS.md number comes
//! from these tables, so any change to a grid's cells, order or
//! formatting shows up here.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ravel-harness --test golden_grid
//! ```

mod common;

use std::fmt::Write as _;
use std::time::Duration;

use ravel_harness::{
    default_jobs, experiments, render_json, run_suite_opts, PoolOptions, RunReport,
};
use ravel_metrics::{FrameOutcomeKind, FrameRecord};
use ravel_sim::{Dur, Time};

/// 64-bit FNV-1a over `s`'s bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn full_registry_output_matches_its_golden_tables() {
    let (runs, stats) = run_suite_opts(&experiments::all(), default_jobs(), PoolOptions::default());
    let mut out = String::new();
    for run in &runs {
        writeln!(out, "=== {}: {} ===", run.id, run.title).unwrap();
        writeln!(out, "{}", run.output.render()).unwrap();
    }
    let report = RunReport {
        jobs: 0,
        total_wall: Duration::ZERO,
        stats,
        experiments: runs,
    };
    writeln!(
        out,
        "timing-free json fnv1a {:016x}",
        fnv1a(&render_json(&report, false))
    )
    .unwrap();
    common::check_golden("grid.tables", &out);
}

/// Every reader of a finished result shares one whole-session summary,
/// memoized in its `LatencyRecorder`: the memo must equal a fresh
/// computation on the same records, and a later `push` must drop it.
#[test]
fn memoized_summaries_equal_fresh_ones_across_the_registry() {
    let (runs, _) = run_suite_opts(&experiments::all(), default_jobs(), PoolOptions::default());
    for cell in runs.iter().flat_map(|run| &run.cells) {
        let recorder = &cell.result.recorder;
        // Assembly has read most of these already; from here on every
        // call returns the memo.
        let memo = recorder.summarize_all();
        let mut fresh = recorder.clone();
        let after = fresh
            .records()
            .last()
            .map_or(Time::ZERO, |r| r.pts + Dur::MICRO);
        fresh.push(FrameRecord {
            pts: after,
            outcome: FrameOutcomeKind::Frozen,
            latency: None,
            ssim: 0.5,
            psnr_db: None,
        });
        assert_eq!(
            format!("{:?}", fresh.summarize(Time::ZERO, after)),
            format!("{memo:?}"),
            "{}",
            cell.label
        );
        assert_eq!(
            fresh.summarize_all().frames,
            memo.frames + 1,
            "{}",
            cell.label
        );
    }
}
