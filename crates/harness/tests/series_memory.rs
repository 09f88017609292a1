//! A session's recorded series hold each point in a few bytes of their
//! byte stores. A counting global allocator measures the heap one
//! recorded call's series hold, per point; `(Time, f64)` pairs would
//! hold 16 bytes each.
//!
//! This file holds a single test, so no other test's allocations land
//! in the counters of its allocator (`heap/mod.rs`).

mod heap;

use ravel_harness::{run_cells_opts, Cell, PoolOptions, TraceSpec};
use ravel_pipeline::{CcKind, Scheme, SessionConfig};
use ravel_sim::Dur;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Heap bytes the series may hold per point: a recorded call's four
/// series read about 5.51.
const BYTES_PER_POINT: f64 = 5.6;

#[test]
fn recorded_series_hold_under_six_bytes_per_point() {
    let mut cfg = SessionConfig::default_with(Scheme::cc_adaptive(CcKind::Gcc));
    cfg.duration = Dur::secs(60);
    cfg.record_series = true;
    cfg.seed = 7;
    let cell = Cell {
        label: "call/gcc".to_string(),
        trace: TraceSpec::LteLike {
            seed: 31,
            len: Dur::secs(60),
        },
        cfg,
        contracts: None,
    };
    let (mut runs, _) = run_cells_opts(&[cell], 1, PoolOptions::default());
    assert!(runs[0].ok());
    let result = std::sync::Arc::get_mut(&mut runs[0].result).expect("a lone cell owns its result");
    let series = std::mem::take(&mut result.series);
    let points: usize = series.iter().map(|(_, s)| s.len()).sum();
    assert_eq!(series.iter().count(), 4, "every series recorded");
    assert!(points > 5_000, "only {points} points in a 60 s call");
    let before = heap::live();
    drop(series);
    let held = before - heap::live();
    let per_point = held as f64 / points as f64;
    assert!(
        per_point < BYTES_PER_POINT,
        "the series hold {held} B for {points} points: {per_point:.2} B each"
    );
}
