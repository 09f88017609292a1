//! A session's latency recorder holds each frame slot in at most 20
//! bytes of its byte store (about 17.6 on a typical call, the slack at
//! its chunks' ends included). A counting
//! global allocator measures the heap one call's recorder holds, per
//! slot; the 32-byte fixed records it replaced would hold 1.6 times the
//! bound, and unpacked `FrameRecord`s (56 bytes each) 2.8 times.
//!
//! This file holds a single test, so no other test's allocations land
//! in the counters of its allocator (`heap/mod.rs`).

mod heap;

use ravel_harness::{run_cells_opts, Cell, PoolOptions, TraceSpec};
use ravel_pipeline::{CcKind, Scheme, SessionConfig};
use ravel_sim::Dur;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Heap bytes the recorder may hold per frame slot.
const BYTES_PER_SLOT: usize = 20;

#[test]
fn latency_recorder_holds_at_most_20_bytes_per_frame_slot() {
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
    let (mut runs, _) = run_cells_opts(&[cell], 1, PoolOptions::default());
    assert!(runs[0].ok());
    let result = std::sync::Arc::get_mut(&mut runs[0].result).expect("a lone cell owns its result");
    let recorder = std::mem::take(&mut result.recorder);
    let slots = recorder.records().len();
    assert_eq!(slots as u64, runs[0].result.frames_captured);
    assert!(slots >= 1_800, "only {slots} frame slots in a 60 s call");
    let before = heap::live();
    drop(recorder);
    let held = before - heap::live();
    assert!(
        held <= slots * BYTES_PER_SLOT,
        "the recorder holds {held} B for {slots} slots: {:.2} B each",
        held as f64 / slots as f64
    );
}
