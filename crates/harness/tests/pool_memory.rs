//! The pool holds each cell result once. A counting global allocator
//! tracks live and peak heap bytes; while the pool runs, the peak may
//! exceed what the returned runs hold by no more than the in-flight
//! sessions' working memory. A pool that also kept every result in a
//! memo until the pass ended would peak near twice what it returns.
//!
//! This file holds a single test, so no other test's allocations land
//! in the counters of its allocator (`heap/mod.rs`).

mod heap;

use ravel_harness::{run_cells_opts, Cell, ObsMode, PoolOptions, TraceSpec};
use ravel_pipeline::{CcKind, Scheme, SessionConfig};
use ravel_sim::Dur;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// One 90 s LTE-like call per arena controller, recorded in full: the
/// obs log, the frame records and the four series make up each result,
/// about 0.43 MB. (At 10 s the compact obs log no longer outweighs a
/// running session's working memory, and the ratio below would measure
/// that instead of the pool. At 90 s one finishing session's working
/// memory, the worker's event queue included, is about 0.39 MB, under a
/// quarter of the 1.70 MB the pool returns: jobs=1 reads 1.23, and
/// jobs=2, where two sessions may finish together, reads 1.23 to 1.46,
/// at most about 1.46.)
fn recorded_calls() -> Vec<Cell> {
    [CcKind::Gcc, CcKind::Nada, CcKind::Bbr, CcKind::LossEma]
        .into_iter()
        .enumerate()
        .map(|(i, cc)| {
            let mut cfg = SessionConfig::default_with(Scheme::cc_adaptive(cc));
            cfg.duration = Dur::secs(90);
            cfg.record_series = true;
            cfg.seed = 11 + i as u64;
            Cell {
                label: format!("call/{}", cc.cc_name()),
                trace: TraceSpec::LteLike {
                    seed: 23 + i as u64,
                    len: Dur::secs(90),
                },
                cfg,
                contracts: None,
            }
        })
        .collect()
}

/// Runs `cells` and returns (peak heap during the run, heap the
/// returned runs hold), both above the live heap before the run.
fn measure(cells: &[Cell], jobs: usize) -> (usize, usize) {
    let opts = PoolOptions {
        obs: ObsMode::Full,
        ..PoolOptions::default()
    };
    let before = heap::reset_peak();
    let (runs, stats) = run_cells_opts(cells, jobs, opts);
    let held = heap::live() - before;
    let peak = heap::peak() - before;
    assert_eq!(stats.executed, stats.unique_cells);
    assert!(runs.iter().all(|r| r.ok() && r.result.obs.retained() > 0));
    drop(runs);
    (peak, held)
}

#[test]
fn pool_peak_heap_stays_near_the_results_it_returns() {
    let unique = recorded_calls();
    let mut duplicated = unique.clone();
    duplicated.extend(unique.iter().map(|c| Cell {
        label: format!("dup-{}", c.label),
        ..c.clone()
    }));
    for (name, cells) in [("unique", &unique), ("duplicated", &duplicated)] {
        for jobs in [1, 2] {
            let (peak, held) = measure(cells, jobs);
            let ratio = peak as f64 / held as f64;
            assert!(
                ratio < 1.5,
                "{name} grid at jobs={jobs}: peak {peak} B is {ratio:.2}x the {held} B returned"
            );
        }
    }
}
