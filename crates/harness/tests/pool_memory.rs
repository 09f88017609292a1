//! The pool holds each cell result once. A counting global allocator
//! tracks live and peak heap bytes; while the pool runs, the peak may
//! exceed what the returned runs hold by no more than the in-flight
//! sessions' working memory. A pool that also kept every result in a
//! memo until the pass ended would peak near twice what it returns.
//!
//! This file holds a single test, so no other test's allocations land
//! in the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ravel_harness::{run_cells_opts, Cell, ObsMode, PoolOptions, TraceSpec};
use ravel_pipeline::{CcKind, Scheme, SessionConfig};
use ravel_sim::Dur;

/// Live heap bytes.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` seen since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grow(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(by: usize) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; the counters only observe
// the sizes involved.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Counting::grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Counting::grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Counting::shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                Counting::grow(new_size - layout.size());
            } else {
                Counting::shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// One ~10 s LTE-like call per arena controller, recorded in full: the
/// obs log and the per-frame series dominate each result.
fn recorded_calls() -> Vec<Cell> {
    [CcKind::Gcc, CcKind::Nada, CcKind::Bbr, CcKind::LossEma]
        .into_iter()
        .enumerate()
        .map(|(i, cc)| {
            let mut cfg = SessionConfig::default_with(Scheme::cc_adaptive(cc));
            cfg.duration = Dur::secs(10);
            cfg.record_series = true;
            cfg.seed = 11 + i as u64;
            Cell {
                label: format!("call/{}", cc.cc_name()),
                trace: TraceSpec::LteLike {
                    seed: 23 + i as u64,
                    len: Dur::secs(10),
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
    let before = reset_peak();
    let (runs, stats) = run_cells_opts(cells, jobs, opts);
    let held = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(stats.executed, stats.unique_cells);
    assert!(runs
        .iter()
        .all(|r| r.ok() && !r.result.obs.events().is_empty()));
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
