//! A `Full` obs log stores its records compactly. A counting global
//! allocator measures the heap one recorded call's log holds, per
//! retained record; a log of plain `ObsRecord`s (48 bytes each, plus
//! `Vec` growth slack) would hold over six times the bound. The
//! session trims its log's last chunk when it ends, so the bound sees
//! the encoding and the slack at the other chunks' ends.
//!
//! This file holds a single test, so no other test's allocations land
//! in the counters of its allocator (`heap/mod.rs`).

mod heap;

use ravel_harness::{run_cells_opts, Cell, ObsMode, PoolOptions, TraceSpec};
use ravel_pipeline::{CcKind, Scheme, SessionConfig};
use ravel_sim::Dur;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Heap bytes a `Full` log may hold per retained record: a recorded
/// call reads about 6.8 (7.2 before its last chunk was trimmed when the
/// session ends), where storing each packet seq whole read 8.4.
const BYTES_PER_RECORD: f64 = 7.5;

#[test]
fn full_obs_log_holds_under_7_5_bytes_per_record() {
    let mut cfg = SessionConfig::default_with(Scheme::cc_adaptive(CcKind::Gcc));
    cfg.duration = Dur::secs(300);
    cfg.seed = 7;
    let cell = Cell {
        label: "call/gcc".to_string(),
        trace: TraceSpec::LteLike {
            seed: 31,
            len: Dur::secs(300),
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
