//! # ravel-harness — the parallel deterministic experiment harness
//!
//! The E1–E22 evaluation grid (DESIGN.md §5, plus the chaos and
//! corruption grids) is embarrassingly parallel:
//! every `(scheme, content, drop severity, seed)` cell is an independent,
//! seed-deterministic session. This crate exploits that:
//!
//! * [`Cell`] / [`TraceSpec`] — one grid cell: a full session config
//!   plus a `Send`-able trace description.
//! * [`run_cells`] — a std-only work-stealing pool (`std::thread::scope`
//!   plus one atomic job counter) that runs cells on `--jobs N` workers
//!   and returns results in *cell order*, so aggregated output is
//!   byte-identical at any thread count. Workers claim cells in
//!   *batches* (`--batch`, default auto) and drive each batch as one
//!   interleaved session population through the shared-queue kernel
//!   — same bytes out, fewer kernel setups. The pool memoizes by content
//!   address ([`Cell::canonical_key`]): every *unique* cell simulates
//!   exactly once per run, and grid positions that repeat it (E1 and E2
//!   share their entire grid) are served from the in-process cache.
//!   `--no-cache` / [`PoolOptions`] restores cold execution.
//! * [`experiments`] — E1–E22 ported to expansion + assembly form, plus
//!   the [`experiments::select`] registry the CLI uses and the
//!   [`experiments::chaos_sweep`] / [`experiments::corrupt_sweep`]
//!   generators behind `--faults chaos:N@S` and `--faults corrupt:N@S`.
//!   Cells may carry a declarative recovery contract
//!   ([`ravel_pipeline::ContractSpec`]);
//!   verdicts are evaluated per cell and failed clauses fail the run.
//!   The pool is also the fault-isolation boundary: each simulation
//!   runs under panic quarantine, the kernel's runaway guard, and an
//!   optional wall-clock deadline, so one bad cell reports a
//!   [`CellStatus`] failure instead of taking the grid down.
//! * [`shrink`] — greedy failing-schedule minimization on either fault
//!   plane: when a chaos or corruption cell violates a session
//!   invariant, breaks its recovery contract, or panics, the harness
//!   re-runs the seeded session against smaller schedules until only
//!   the faults that still trigger the failure remain, then prints the
//!   minimal reproducer.
//! * [`soak`] — `--soak <secs> --soak-seed S`: an endless deterministic
//!   stream of randomized chaos × impairment × content cells pumped
//!   through the fault-isolated pool until the wall budget expires,
//!   with status and violation tallies merged in cell-index order.
//! * [`report`] — the `BENCH_harness.json` perf/quality report
//!   (per-cell wall-clock, simulated-seconds/sec throughput, p50/p95
//!   latency, SSIM), serialized with the workspace's hand-rolled JSON.
//! * [`timeline`] — the `--obs full` JSONL timeline exporter: one
//!   deterministic, wall-clock-free JSON object per recorded
//!   observability event, diffable across pool widths.
//!
//! The binary (`cargo run --release -p ravel-harness -- --jobs 8`) is
//! the one entry point for every experiment table and fault sweep. It
//! prints the deterministic tables to stdout, timing to stderr, and the
//! JSON report to `BENCH_harness.json`.

#![warn(missing_docs)]

pub mod cell;
pub mod experiments;
pub mod pool;
pub mod report;
pub mod shrink;
pub mod soak;
pub mod timeline;

pub use cell::{Cell, TraceSpec};
pub use experiments::{
    run_suite, run_suite_opts, Experiment, ExperimentRun, Output, FIXTURE_FAULT_AT,
};
pub use pool::{
    run_cells, run_cells_opts, BatchMode, CellFailure, CellRun, CellStatus, PoolOptions, PoolStats,
};
pub use ravel_obs::ObsMode;
pub use report::{render_json, RunReport};
pub use shrink::{shrink_cell, shrink_schedule, violating_timeline, FaultPlane, MIN_SEGMENT};
pub use soak::{run_soak, soak_cell, SoakFailure, SoakOptions, SoakOutcome, SOAK_SESSION_LEN};
pub use timeline::{record_json, render_timeline};

/// A sensible default worker count: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
