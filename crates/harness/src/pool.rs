//! The work-stealing cell pool, with content-addressed memoization and
//! fault isolation.
//!
//! Cells are independent and seed-deterministic, so the pool can hand
//! them to any worker in any order: workers claim the next unclaimed
//! job from a shared atomic counter (work stealing degenerates to work
//! sharing because every job is sizeable), and results are written
//! back into their cell's slot. The returned vector is therefore in
//! *cell order*, not completion order — aggregated output is
//! byte-identical whether the grid ran on 1 thread or 64.
//!
//! **One cell per claim.** A worker claims one job at a time and runs
//! it as one kernel call ([`run_spec`]) on its own [`KernelWorkspace`],
//! whose queue stays warm from cell to cell. Each cell's wall clock is
//! its own measurement.
//!
//! **Memoization.** Many experiments share cells — E1 and E2 expand the
//! identical drop grid, and the canonical `talking-head/4→1 Mbps/gcc`
//! cell recurs across most of E1–E17. Every cell has a content address
//! ([`Cell::canonical_key`]). Before any worker starts, the pool plans
//! its jobs: each unique address is one job, owned by the first grid
//! position that carries it, so each *unique* cell simulates exactly
//! once per run no matter how many positions reference it. The owner's
//! run takes the session result by move; once every job has finished,
//! each later (duplicate) position becomes a clone of its owner's run
//! under its own label. So a result is held once while the grid runs,
//! and only duplicates ever copy it. Results come back in cell order
//! with per-cell labels intact, so tables and JSON stay byte-identical
//! to an uncached serial run (timing fields aside).
//!
//! **Fault isolation.** One bad cell must not take down a
//! thousand-cell sweep. Each simulation runs inside [`catch_unwind`],
//! and a panicked computation becomes its owner's quarantined failure,
//! which every duplicate position of the address *echoes*
//! deterministically. No worker ever waits on another, and the
//! `thread::scope` never aborts.
//! The kernel-level runaway guard (event budget + sim-time horizon, see
//! `ravel_pipeline::SessionGuard`) surfaces here as
//! [`CellStatus::Runaway`]; a wall-clock deadline
//! ([`PoolOptions::deadline`]) is enforced by a supervisor thread that
//! flags overdue workers' sessions for cooperative cancellation,
//! surfacing as [`CellStatus::TimedOut`]. Panic and runaway failures
//! are fully deterministic (same status and failure digest at any
//! worker count and on cache hits); whether a timeout *fires* depends
//! on the host's speed, but its reported detail is still
//! deterministic.
//!
//! std-only by design: `std::thread::scope` plus one `AtomicUsize` and
//! one `Mutex`ed slot vector; no registry dependencies.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ravel_obs::ObsMode;
use ravel_pipeline::{
    evaluate, run_spec, ContractVerdict, Invariant, KernelWorkspace, RunSpec, SessionResult,
};

use crate::cell::Cell;

/// How one cell's computation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The session ran to completion (it may still have non-runaway
    /// invariant violations — those are the *session's* verdict, not
    /// the executor's).
    Ok,
    /// The simulation panicked; the cell was quarantined and the rest
    /// of the grid completed normally.
    Panicked,
    /// The supervisor's wall-clock deadline cancelled the session
    /// before it finished.
    TimedOut,
    /// The kernel's runaway guard (event budget / sim-time horizon)
    /// terminated the session.
    Runaway,
}

impl CellStatus {
    /// Stable, report-friendly name.
    pub fn name(&self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Panicked => "panicked",
            CellStatus::TimedOut => "timed_out",
            CellStatus::Runaway => "runaway",
        }
    }

    /// True for [`CellStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, CellStatus::Ok)
    }

    /// True when the cell carries real (possibly truncated) session
    /// measurements: a runaway session still produced a deterministic
    /// prefix, while panicked and timed-out cells report an empty
    /// stand-in result.
    pub fn has_metrics(&self) -> bool {
        matches!(self, CellStatus::Ok | CellStatus::Runaway)
    }
}

/// A quarantined cell failure: what happened plus a deterministic,
/// human-readable detail (panic message, runaway violation detail, or
/// deadline description — all free of wall-clock content).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The failure class (never [`CellStatus::Ok`]).
    pub status: CellStatus,
    /// Deterministic description of the failure.
    pub detail: String,
}

impl CellFailure {
    /// A failure record for `status` with `detail`.
    pub fn new(status: CellStatus, detail: String) -> CellFailure {
        CellFailure { status, detail }
    }

    /// A 64-bit FNV-1a digest of `status|detail`, rendered as 16 hex
    /// digits — the compact identity CI artifacts and the failure
    /// summary table key on. Deterministic across worker counts and
    /// cache hits because its inputs are.
    pub fn digest(&self) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in self
            .status
            .name()
            .bytes()
            .chain(std::iter::once(b'|'))
            .chain(self.detail.bytes())
        {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        format!("{hash:016x}")
    }
}

/// One finished cell: its measurements plus wall-clock accounting for
/// the perf report. Everything except `wall` is deterministic.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's label, copied for report assembly.
    pub label: String,
    /// Simulated session length in seconds (capture phase).
    pub sim_secs: f64,
    /// Host wall-clock of the cell's *first* execution. Cache hits echo
    /// the computing run's wall, so every grid position of one unique
    /// cell reports the same number — by construction, not by luck
    /// (nondeterministic; excluded from byte-compared output).
    pub wall: Duration,
    /// Whether this grid position was served from the cell cache rather
    /// than executing the simulation. Deterministic: false exactly at
    /// the first position of each content address in cell order (and
    /// everywhere under `--no-cache`). Still excluded from byte-compared
    /// output, because it depends on whether the cache is on.
    pub cache_hit: bool,
    /// The arena controller behind this cell (schema ≥ 8 `controller`
    /// field), from [`CcKind::arena_name`](ravel_pipeline::CcKind):
    /// `Some` for the E22 arena kinds, `None` for the pre-arena kinds
    /// so e1–e21 report bytes are unchanged.
    pub controller: Option<&'static str>,
    /// How the computation ended.
    pub status: CellStatus,
    /// The failure record when `status` is not [`CellStatus::Ok`].
    pub failure: Option<CellFailure>,
    /// The full session measurements ([`SessionResult::default`] for
    /// panicked and timed-out cells, a truncated prefix for runaways).
    pub result: SessionResult,
    /// Recovery-contract verdicts, evaluated from `result` when the
    /// cell declares a [`ravel_pipeline::ContractSpec`] and the status
    /// carries real metrics. Empty otherwise. Pure derivation: cache
    /// hits evaluate their own contracts on the owner's result and land
    /// on identical verdicts at any worker count.
    pub contracts: Vec<ContractVerdict>,
}

impl CellRun {
    /// True when the cell completed normally.
    pub fn ok(&self) -> bool {
        self.status.is_ok()
    }

    /// The contract verdicts that failed (empty when the cell declares
    /// no contract or every clause held).
    pub fn failed_contracts(&self) -> Vec<&ContractVerdict> {
        self.contracts.iter().filter(|v| !v.pass).collect()
    }
}

/// Accepted and ignored: the pool always runs one cell per kernel
/// call, whatever the value. The type stays only because the
/// benchmark's driver (`perfbench/src/main.rs` and
/// `perfbench/src/workload.rs`) sets and compares it, and the
/// benchmark is changed on its own; it goes with the next change to
/// the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// The default.
    #[default]
    Auto,
    /// A claim size, ignored like [`BatchMode::Auto`].
    Fixed(usize),
}

/// Pool behaviour switches.
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    /// Memoize by content address (the default). Disable (`--no-cache`)
    /// to force every grid position to simulate, e.g. for cold-run
    /// benchmarking or cache-vs-recompute equivalence tests.
    pub use_cache: bool,
    /// Observability mode applied to every cell (`--obs`). Uniform per
    /// run and deliberately outside the cell content address:
    /// observation never changes a simulation's outputs, so a cached
    /// result (with its obs log) serves any grid position of the run.
    pub obs: ObsMode,
    /// Per-cell wall-clock deadline (`--deadline`). When set, a
    /// supervisor thread watches every in-flight simulation and flags
    /// overdue ones for cooperative cancellation; the session's event
    /// loop polls the flag and returns a truncated result, reported as
    /// [`CellStatus::TimedOut`]. `None` (the default) spawns no
    /// supervisor.
    pub deadline: Option<Duration>,
    /// Accepted and ignored; see [`BatchMode`] for why it stays.
    pub batch: BatchMode,
}

impl Default for PoolOptions {
    fn default() -> PoolOptions {
        PoolOptions {
            use_cache: true,
            obs: ObsMode::Off,
            deadline: None,
            batch: BatchMode::Auto,
        }
    }
}

/// Pool-level accounting for one `run_cells_opts` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Grid positions requested.
    pub total_cells: usize,
    /// Distinct content addresses in the grid — deterministic for a
    /// given grid, independent of `jobs` and of whether the cache is on.
    pub unique_cells: usize,
    /// Simulations actually executed (`== unique_cells` with the cache
    /// on, `== total_cells` with it off). Quarantined computations
    /// count: a panicked cell *executed*, it just failed.
    pub executed: usize,
    /// Grid positions served from the cache (`total_cells - executed`).
    pub cache_hits: usize,
    /// Sum of per-worker busy time: each worker accumulates the wall
    /// clock of the simulations *it* executed on a monotonic clock, and
    /// the pool sums those totals. Unlike the run's end-to-end wall,
    /// this excludes planning, claim contention and the cloning of
    /// duplicate positions after the workers finish, so
    /// `busy / executed` approximates true per-cell cost. It equals the
    /// sum of the executed cells' walls exactly.
    pub busy: Duration,
    /// Always 0. The field stays only because the benchmark's traced
    /// run (`perfbench/src/traced.rs`) reads it as
    /// `harness.allocs_avoided`, and the benchmark is changed on its
    /// own; both go together with the next change to the benchmark.
    pub allocs_avoided: u64,
}

/// What one computation produced: the session result, or the
/// quarantined failure that replaced it.
type CellOutcome = Result<SessionResult, CellFailure>;

/// One worker's in-flight registration for the supervisor: when it
/// started its current simulation and the flag that cancels it.
#[derive(Default)]
struct WatchSlot(Mutex<Option<(Instant, Arc<AtomicBool>)>>);

impl WatchSlot {
    fn arm(&self, flag: Arc<AtomicBool>) {
        *self.0.lock().expect("watch slot poisoned") = Some((Instant::now(), flag));
    }

    fn disarm(&self) {
        *self.0.lock().expect("watch slot poisoned") = None;
    }

    /// Sets the cancel flag if the registered simulation is overdue.
    fn flag_if_overdue(&self, deadline: Duration) {
        if let Some((started, flag)) = self.0.lock().expect("watch slot poisoned").as_ref() {
            if started.elapsed() >= deadline {
                flag.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Renders a caught panic payload (the `&str`/`String` message of a
/// `panic!`/`assert!`, which is deterministic for a deterministic
/// simulation).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one cell under panic quarantine, with the runaway guard and
/// (when a deadline is set) supervisor cancellation armed: a fresh
/// cancel flag is registered with the worker's watch slot for the
/// length of the run.
fn execute_cell(
    cell: &Cell,
    opts: PoolOptions,
    slot: &WatchSlot,
    ws: &mut KernelWorkspace,
) -> (CellOutcome, Duration) {
    let mut spec = RunSpec {
        obs: opts.obs,
        ..cell.spec()
    };
    if opts.deadline.is_some() {
        let flag = Arc::new(AtomicBool::new(false));
        slot.arm(flag.clone());
        spec.guard.cancel = Some(flag);
    }
    let started = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| run_spec(spec, ws)));
    let wall = started.elapsed();
    if opts.deadline.is_some() {
        slot.disarm();
    }
    let outcome = match caught {
        Err(payload) => Err(CellFailure::new(
            CellStatus::Panicked,
            panic_message(payload.as_ref()),
        )),
        // A session the supervisor cancelled is a timeout.
        Ok(result) if result.cancelled => Err(CellFailure::new(
            CellStatus::TimedOut,
            format!(
                "wall-clock deadline {:.3}s exceeded; session cancelled by the pool supervisor",
                opts.deadline.unwrap_or_default().as_secs_f64()
            ),
        )),
        Ok(result) => Ok(result),
    };
    (outcome, wall)
}

/// Materializes an owner position's [`CellRun`] from its outcome, which
/// it takes by move: the run holds the only copy of the session result.
/// Derivation is pure, so the status, failure and digest depend on the
/// outcome alone.
fn make_run(cell: &Cell, wall: Duration, outcome: CellOutcome) -> CellRun {
    let (status, failure, result) = match outcome {
        Ok(result) => {
            let runaway = result
                .violations
                .iter()
                .find(|v| v.invariant == Invariant::RunawayTermination)
                .map(|v| CellFailure::new(CellStatus::Runaway, v.detail.clone()));
            let status = runaway.as_ref().map_or(CellStatus::Ok, |f| f.status);
            (status, runaway, result)
        }
        Err(failure) => (failure.status, Some(failure), SessionResult::default()),
    };
    CellRun {
        label: cell.label.clone(),
        sim_secs: cell.cfg.duration.as_secs_f64(),
        wall,
        cache_hit: false,
        controller: cell.cfg.scheme.cc.arena_name(),
        status,
        failure,
        contracts: contracts_for(cell, status, &result),
        result,
    }
}

/// A duplicate position's run: a clone of its owner's under the cell's
/// own label, marked as a cache hit. Status, failure and wall echo the
/// owner's; contracts sit outside the content address, so the cell's
/// own are evaluated on the owner's result.
fn echo_run(cell: &Cell, owner: &CellRun) -> CellRun {
    CellRun {
        label: cell.label.clone(),
        cache_hit: true,
        failure: owner.failure.clone(),
        contracts: contracts_for(cell, owner.status, &owner.result),
        result: owner.result.clone(),
        ..*owner
    }
}

/// The cell's recovery-contract verdicts on `result`, or none when the
/// cell declares no contract or `status` carries no metrics.
fn contracts_for(cell: &Cell, status: CellStatus, result: &SessionResult) -> Vec<ContractVerdict> {
    match &cell.contracts {
        Some(spec) if status.has_metrics() => evaluate(spec, result),
        _ => Vec::new(),
    }
}

/// Runs every cell on `jobs` worker threads and returns results in cell
/// order plus pool accounting. `jobs` is clamped to `[1, executed]`;
/// `jobs = 1` runs the grid serially on one spawned worker, which is
/// the determinism reference the tests compare against.
///
/// The work is planned before any worker starts. With
/// `opts.use_cache`, each unique content address is one job, owned by
/// its first grid position: the owner's run takes the result by move,
/// and after the workers finish every later position with the same
/// address is cloned from its owner — quarantined failures included,
/// which echo identically at every position. Without the cache every
/// position is its own job.
pub fn run_cells_opts(cells: &[Cell], jobs: usize, opts: PoolOptions) -> (Vec<CellRun>, PoolStats) {
    let keys: Vec<String> = cells.iter().map(Cell::canonical_key).collect();
    // Each position's owner: the first position with its address, or
    // the position itself when the cache is off.
    let mut first: HashMap<&str, usize> = HashMap::new();
    let owner: Vec<usize> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let first_position = *first.entry(key.as_str()).or_insert(i);
            if opts.use_cache {
                first_position
            } else {
                i
            }
        })
        .collect();
    // The jobs to execute: the owner positions, in cell order.
    let planned: Vec<usize> = (0..cells.len()).filter(|&i| owner[i] == i).collect();
    let stats = |busy| PoolStats {
        total_cells: cells.len(),
        unique_cells: first.len(),
        executed: planned.len(),
        cache_hits: cells.len() - planned.len(),
        busy,
        allocs_avoided: 0,
    };
    if cells.is_empty() {
        return (Vec::new(), stats(Duration::ZERO));
    }
    let jobs = jobs.clamp(1, planned.len());
    let next = AtomicUsize::new(0);
    let workers_done = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellRun>>> = Mutex::new((0..cells.len()).map(|_| None).collect());
    let busy_total: Mutex<Duration> = Mutex::new(Duration::ZERO);
    let watch: Vec<WatchSlot> = (0..jobs).map(|_| WatchSlot::default()).collect();
    std::thread::scope(|scope| {
        for slot in &watch {
            let next = &next;
            let workers_done = &workers_done;
            let slots = &slots;
            let busy_total = &busy_total;
            let planned = &planned;
            scope.spawn(move || {
                let mut busy = Duration::ZERO;
                // Per-worker kernel scratch, reused across cells so the
                // queue's bucket Vecs stay warm.
                let mut ws = KernelWorkspace::new();
                while let Some(&i) = planned.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let (outcome, wall) = execute_cell(&cells[i], opts, slot, &mut ws);
                    busy += wall;
                    let run = make_run(&cells[i], wall, outcome);
                    slots.lock().expect("pool slots poisoned")[i] = Some(run);
                }
                *busy_total.lock().expect("busy total poisoned") += busy;
                workers_done.fetch_add(1, Ordering::Release);
            });
        }
        if let Some(deadline) = opts.deadline {
            let watch = &watch;
            let workers_done = &workers_done;
            scope.spawn(move || {
                let poll =
                    (deadline / 8).clamp(Duration::from_millis(5), Duration::from_millis(100));
                while workers_done.load(Ordering::Acquire) < jobs {
                    for slot in watch {
                        slot.flag_if_overdue(deadline);
                    }
                    std::thread::sleep(poll);
                }
            });
        }
    });
    let mut slots = slots.into_inner().expect("pool slots poisoned");
    // Owners precede their duplicates, so every owner slot is filled by
    // the time a duplicate reads it.
    for (i, &o) in owner.iter().enumerate() {
        if o != i {
            let run = echo_run(
                &cells[i],
                slots[o].as_ref().expect("owner ran before duplicate"),
            );
            slots[i] = Some(run);
        }
    }
    let runs = slots
        .into_iter()
        .map(|slot| slot.expect("every planned job ran"))
        .collect();
    (
        runs,
        stats(busy_total.into_inner().expect("busy total poisoned")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::TraceSpec;
    use ravel_pipeline::{InjectedFault, Scheme, SessionConfig};
    use ravel_sim::{Dur, Time};

    fn tiny_grid() -> Vec<Cell> {
        let mut cells = Vec::new();
        for (i, scheme) in [Scheme::baseline(), Scheme::adaptive()]
            .into_iter()
            .enumerate()
        {
            for (j, rate) in [2e6, 3e6].into_iter().enumerate() {
                let mut cfg = SessionConfig::default_with(scheme);
                cfg.duration = Dur::secs(4);
                cells.push(Cell {
                    label: format!("{}/{}", i, j),
                    trace: TraceSpec::Constant(rate),
                    cfg,
                    contracts: None,
                });
            }
        }
        cells
    }

    /// The tiny grid, duplicated with fresh labels — every cell in the
    /// second half content-addresses to one in the first half.
    fn duplicated_grid() -> Vec<Cell> {
        let mut cells = tiny_grid();
        let dupes: Vec<Cell> = cells
            .iter()
            .map(|c| Cell {
                label: format!("dup-{}", c.label),
                ..c.clone()
            })
            .collect();
        cells.extend(dupes);
        cells
    }

    fn fixture_cell(label: &str, inject: InjectedFault) -> Cell {
        let mut cfg = SessionConfig::default_with(Scheme::baseline());
        cfg.duration = Dur::secs(4);
        cfg.inject = inject;
        Cell {
            label: label.into(),
            trace: TraceSpec::Constant(3e6),
            cfg,
            contracts: None,
        }
    }

    #[test]
    fn results_come_back_in_cell_order_regardless_of_jobs() {
        let cells = tiny_grid();
        let serial = run_cells_opts(&cells, 1, PoolOptions::default()).0;
        for jobs in [2, 8] {
            let parallel = run_cells_opts(&cells, jobs, PoolOptions::default()).0;
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.result.recorder.records(), b.result.recorder.records());
                assert_eq!(a.result.frames_captured, b.result.frames_captured);
            }
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let (runs, stats) = run_cells_opts(&[], 4, PoolOptions::default());
        assert!(runs.is_empty());
        assert_eq!(stats.total_cells, 0);
        assert_eq!(stats.executed, 0);
    }

    #[test]
    fn oversubscribed_jobs_are_clamped() {
        let cells = tiny_grid();
        let runs = run_cells_opts(&cells[..1], 64, PoolOptions::default()).0;
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "0/0");
        assert!(runs[0].sim_secs > 0.0);
    }

    #[test]
    fn duplicates_simulate_once_and_match_recompute_exactly() {
        let cells = duplicated_grid();
        // Reference: cache disabled, serial — every position simulated.
        let (cold, cold_stats) = run_cells_opts(
            &cells,
            1,
            PoolOptions {
                use_cache: false,
                ..PoolOptions::default()
            },
        );
        assert_eq!(cold_stats.executed, cells.len());
        assert_eq!(cold_stats.cache_hits, 0);
        assert_eq!(cold_stats.unique_cells, cells.len() / 2);
        for jobs in [1, 2, 8] {
            let (warm, stats) = run_cells_opts(&cells, jobs, PoolOptions::default());
            // Exactly one execution per unique address, at any jobs count.
            assert_eq!(stats.executed, stats.unique_cells, "jobs={jobs}");
            assert_eq!(stats.unique_cells, cells.len() / 2);
            assert_eq!(stats.cache_hits, cells.len() - stats.executed);
            assert_eq!(warm.len(), cold.len());
            for (w, c) in warm.iter().zip(&cold) {
                // Cached results are byte-identical to forced recompute.
                assert_eq!(w.label, c.label);
                assert_eq!(w.result.recorder.records(), c.result.recorder.records());
                assert_eq!(w.result.events_processed, c.result.events_processed);
                assert_eq!(w.result.packets_delivered, c.result.packets_delivered);
                assert_eq!(w.result.frames_encoded, c.result.frames_encoded);
            }
        }
    }

    #[test]
    fn cache_hits_echo_the_first_runs_wall_clock() {
        let cells = duplicated_grid();
        let half = cells.len() / 2;
        for jobs in [1, 2, 8] {
            let (runs, _) = run_cells_opts(&cells, jobs, PoolOptions::default());
            for (first, dup) in runs[..half].iter().zip(&runs[half..]) {
                assert_eq!(dup.label, format!("dup-{}", first.label));
                // Identical content address -> identical reported wall.
                assert_eq!(first.wall, dup.wall);
            }
            // The first position of each address computed, at any
            // worker count; every later one hit.
            let hits: Vec<bool> = runs.iter().map(|r| r.cache_hit).collect();
            let expected: Vec<bool> = (0..cells.len()).map(|i| i >= half).collect();
            assert_eq!(hits, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn busy_time_counts_only_executions() {
        let cells = duplicated_grid();
        let (runs, stats) = run_cells_opts(&cells, 1, PoolOptions::default());
        // Serial: busy is the sum of the computing positions' walls.
        let computed: Duration = runs.iter().filter(|r| !r.cache_hit).map(|r| r.wall).sum();
        assert_eq!(stats.busy, computed);
        assert!(stats.busy > Duration::ZERO);
    }

    #[test]
    fn panicking_cell_is_quarantined_and_the_rest_survive() {
        let mut cells = tiny_grid();
        cells.insert(
            2,
            fixture_cell(
                "boom",
                InjectedFault::Panic {
                    at: Time::from_secs(1),
                },
            ),
        );
        let clean = run_cells_opts(&tiny_grid(), 1, PoolOptions::default()).0;
        let mut reference_digest: Option<String> = None;
        for jobs in [1, 2, 8] {
            let (runs, stats) = run_cells_opts(&cells, jobs, PoolOptions::default());
            assert_eq!(runs.len(), 5);
            assert_eq!(stats.executed, 5, "jobs={jobs}");
            let boom = &runs[2];
            assert_eq!(boom.status, CellStatus::Panicked);
            let failure = boom.failure.as_ref().expect("failure recorded");
            assert_eq!(failure.detail, "injected panic fixture at 1.000000");
            // The digest is stable across worker counts.
            let digest = failure.digest();
            if let Some(reference) = &reference_digest {
                assert_eq!(&digest, reference, "jobs={jobs}");
            }
            reference_digest = Some(digest);
            assert_eq!(boom.result.frames_captured, 0);
            // Every survivor is byte-identical to the clean run.
            let survivors: Vec<&CellRun> = runs.iter().filter(|r| r.label != "boom").collect();
            for (s, c) in survivors.iter().zip(&clean) {
                assert_eq!(s.label, c.label);
                assert_eq!(s.status, CellStatus::Ok);
                assert_eq!(s.result.recorder.records(), c.result.recorder.records());
                assert_eq!(s.result.events_processed, c.result.events_processed);
            }
        }
    }

    #[test]
    fn panicked_cell_echoes_from_the_cache_without_deadlock() {
        let mut cells = vec![
            fixture_cell(
                "boom-a",
                InjectedFault::Panic {
                    at: Time::from_secs(1),
                },
            ),
            fixture_cell(
                "boom-b",
                InjectedFault::Panic {
                    at: Time::from_secs(1),
                },
            ),
        ];
        cells.extend(tiny_grid());
        for jobs in [1, 2, 8] {
            let (runs, stats) = run_cells_opts(&cells, jobs, PoolOptions::default());
            // One computation for the two identical fixture positions.
            assert_eq!(stats.executed, cells.len() - 1, "jobs={jobs}");
            let (a, b) = (&runs[0], &runs[1]);
            assert_eq!(a.status, CellStatus::Panicked);
            assert_eq!(b.status, CellStatus::Panicked);
            assert_eq!(
                a.failure.as_ref().map(CellFailure::digest),
                b.failure.as_ref().map(CellFailure::digest)
            );
            // The first position executed; the second echoed it.
            assert!(!a.cache_hit, "jobs={jobs}");
            assert!(b.cache_hit, "jobs={jobs}");
            assert_eq!(a.wall, b.wall);
        }
    }

    #[test]
    fn runaway_cell_reports_runaway_status() {
        let mut cells = tiny_grid();
        cells.push(fixture_cell(
            "spin",
            InjectedFault::Runaway {
                at: Time::from_secs(1),
            },
        ));
        for jobs in [1, 4] {
            let (runs, _) = run_cells_opts(&cells, jobs, PoolOptions::default());
            let spin = runs.last().expect("fixture present");
            assert_eq!(spin.status, CellStatus::Runaway);
            let failure = spin.failure.as_ref().expect("failure recorded");
            assert!(
                failure.detail.contains("event budget"),
                "{}",
                failure.detail
            );
            // Runaways keep their (deterministic) truncated result.
            assert!(spin.result.frames_captured > 0);
            assert!(!spin.result.violations.is_empty());
            for run in &runs[..runs.len() - 1] {
                assert_eq!(run.status, CellStatus::Ok);
            }
        }
    }

    #[test]
    fn deadline_cancels_a_slow_cell_as_timed_out() {
        // One deliberately huge cell (hours of simulated time) with a
        // tight wall deadline: the supervisor must cancel it; its grid
        // neighbours finish normally.
        let mut slow_cfg = SessionConfig::default_with(Scheme::baseline());
        slow_cfg.duration = Dur::secs(4 * 3600);
        slow_cfg.enable_audio = true;
        let mut cells = tiny_grid();
        cells.push(Cell {
            label: "slow".into(),
            trace: TraceSpec::Constant(3e6),
            cfg: slow_cfg,
            contracts: None,
        });
        let (runs, _) = run_cells_opts(
            &cells,
            2,
            PoolOptions {
                deadline: Some(Duration::from_millis(250)),
                ..PoolOptions::default()
            },
        );
        let slow = runs.last().expect("slow cell present");
        assert_eq!(slow.status, CellStatus::TimedOut);
        let failure = slow.failure.as_ref().expect("failure recorded");
        assert!(
            failure.detail.contains("wall-clock deadline 0.250s"),
            "{}",
            failure.detail
        );
        for run in &runs[..runs.len() - 1] {
            assert_eq!(run.status, CellStatus::Ok, "{}", run.label);
        }
    }
}
