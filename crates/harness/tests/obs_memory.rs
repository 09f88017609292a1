//! A `Full` obs log stores its records compactly. A counting global
//! allocator measures the heap one recorded call's log holds, per
//! retained record; a log of plain `ObsRecord`s (48 bytes each, plus
//! `Vec` growth slack) would hold four times the bound.
//!
//! This file holds a single test, so no other test's allocations land
//! in the counters of its allocator (`heap/mod.rs`).

mod heap;

use ravel_harness::{run_cells_opts, Cell, ObsMode, PoolOptions, TraceSpec};
use ravel_pipeline::{CcKind, Scheme, SessionConfig};
use ravel_sim::Dur;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Heap bytes a `Full` log may hold per retained record.
const BYTES_PER_RECORD: f64 = 12.0;

#[test]
fn full_obs_log_holds_under_twelve_bytes_per_record() {
    let mut cfg = SessionConfig::default_with(Scheme::cc_adaptive(CcKind::Gcc));
    cfg.duration = Dur::secs(60);
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
    let opts = PoolOptions {
        obs: ObsMode::Full,
        ..PoolOptions::default()
    };
    let (mut runs, _) = run_cells_opts(&[cell], 1, opts);
    assert!(runs[0].ok());
    let result = std::sync::Arc::get_mut(&mut runs[0].result).expect("a lone cell owns its result");
    let obs = std::mem::take(&mut result.obs);
    let retained = obs.retained();
    assert_eq!(retained, obs.recorded());
    assert!(retained > 10_000, "only {retained} records retained");
    let before = heap::live();
    drop(obs);
    let held = before - heap::live();
    let per_record = held as f64 / retained as f64;
    assert!(
        per_record < BYTES_PER_RECORD,
        "the log holds {held} B for {retained} records: {per_record:.2} B each"
    );
}
