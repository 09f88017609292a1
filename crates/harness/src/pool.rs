//! The work-stealing cell pool, with content-addressed memoization and
//! fault isolation.
//!
//! Cells are independent and seed-deterministic, so the pool can hand
//! them to any worker in any order: workers claim the next unclaimed
//! index from a shared atomic counter (work stealing degenerates to
//! work sharing because every job is sizeable), and results are written
//! back into their cell's slot. The returned vector is therefore in
//! *cell order*, not completion order — aggregated output is
//! byte-identical whether the grid ran on 1 thread or 64.
//!
//! **Batching.** Workers claim *ranges* of grid positions
//! ([`PoolOptions::batch`], default [`BatchMode::Auto`]), group each
//! range into same-sim-horizon sub-batches, and drive every sub-batch
//! as one session population through the kernel ([`run_sessions`]):
//! one shared calendar queue per worker, reused batch after batch.
//! Every claim takes this one path — a claim of one
//! (`BatchMode::Fixed(1)`, the differential oracle) is a population of
//! one — and every batch size yields byte-identical deterministic
//! output.
//!
//! **Memoization.** Many experiments share cells — E1 and E2 expand the
//! identical drop grid, and the canonical `talking-head/4→1 Mbps/gcc`
//! cell recurs across most of E1–E17. Every cell has a content address
//! ([`Cell::canonical_key`]); the pool keeps one in-process map from
//! address to a [`Memo`] slot, so each *unique* cell simulates exactly
//! once per run no matter how many grid positions reference it. The
//! first claimant reserves the address (possibly computing it inside a
//! kernel batch); duplicates block on the memo and then clone the
//! finished result. Results still come back in cell order with
//! per-cell labels intact, so tables and JSON stay byte-identical to an
//! uncached serial run (timing fields aside).
//!
//! **Fault isolation.** One bad cell must not take down a
//! thousand-cell sweep. Each simulation runs inside
//! [`catch_unwind`](std::panic::catch_unwind), and the cache stores a
//! `Result` per content address: a panicked computation is recorded
//! once and *echoed* deterministically at every grid position that
//! addresses it — waiters on the `OnceLock` see the stored failure
//! instead of deadlocking, and the `thread::scope` never aborts. The
//! kernel-level runaway guard (event budget + sim-time horizon, see
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
//! std-only by design: `std::thread::scope` plus one `AtomicUsize`, one
//! `Mutex`ed slot vector and one `Mutex`ed cache map; no registry
//! dependencies.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ravel_obs::ObsMode;
use ravel_pipeline::{
    evaluate, run_sessions, ContractVerdict, Invariant, KernelWorkspace, RunSpec, SessionResult,
};
use ravel_trace::BandwidthTrace;

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
/// the perf report. Everything except `wall` and `cache_hit` is
/// deterministic.
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
    /// than executing the simulation (schedule-dependent; excluded from
    /// byte-compared output).
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
    /// The full session measurements ([`SessionResult::empty`] for
    /// panicked and timed-out cells, a truncated prefix for runaways).
    pub result: SessionResult,
    /// Recovery-contract verdicts, evaluated from `result` when the
    /// cell declares a [`ravel_pipeline::ContractSpec`] and the status
    /// carries real metrics. Empty otherwise. Pure derivation: cache
    /// hits re-evaluate from the cached result and land on identical
    /// verdicts at any worker count.
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

/// How many grid positions a worker claims (and runs as one
/// interleaved session population) per pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Size batches from the grid: `ceil(total / (jobs * 4))` clamped
    /// to `[1, 2]`. The upper clamp is the measured locality knee:
    /// pairing cells amortizes workspace reuse (warm queue buckets),
    /// but interleaving more sessions through one shared queue
    /// round-robins across that many live session states and the
    /// cache misses outweigh the amortization — the
    /// E18 batch sweep shows per-event cost rising monotonically from
    /// population 4 upward. Explicit [`BatchMode::Fixed`] sizes are
    /// honoured as given for anyone who wants the trade.
    #[default]
    Auto,
    /// Exactly `n` positions per claim (`n >= 1`). `Fixed(1)` runs
    /// every cell as a population of one — one kernel call per cell —
    /// and is the differential oracle batched runs are byte-compared
    /// against.
    Fixed(usize),
}

impl BatchMode {
    /// The concrete claim size for a grid. A wall-clock deadline forces
    /// 1: supervisor cancellation is per-cell, and a shared batch wall
    /// clock cannot honour a per-cell deadline.
    fn effective(self, total: usize, jobs: usize, deadline: Option<Duration>) -> usize {
        if deadline.is_some() {
            return 1;
        }
        match self {
            BatchMode::Fixed(n) => n.max(1),
            BatchMode::Auto => total.div_ceil(jobs.max(1) * 4).clamp(1, 2),
        }
    }
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
    /// Batch size for worker claims (`--batch`). See [`BatchMode`];
    /// ignored (forced to 1) while `deadline` is set.
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
    /// this excludes claim contention and result cloning, so
    /// `busy / executed` approximates true per-cell cost. Batched
    /// executions attribute their shared batch wall to cells in
    /// proportion to kernel-reported per-session event counts, so the
    /// sum of executed cells' walls still equals busy exactly.
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

/// One memoized computation: the finished outcome (success *or*
/// quarantined failure) plus its first-run wall clock (echoed into
/// every duplicate's [`CellRun::wall`]). Storing the `Result` is what
/// makes failure echo deterministic: waiters blocked on the [`Memo`]
/// wake to the recorded failure instead of deadlocking on a
/// never-fulfilled slot.
type CachedCell = (CellOutcome, Duration);

/// One content address's memoization slot. This replaces the former
/// `OnceLock`: a batch worker must *reserve* an address up front, run
/// it inside a kernel batch, and fulfill it afterwards — a
/// reserve-then-fill shape `OnceLock::get_or_init`'s closure cannot
/// express. [`Memo::claim`] returns true exactly once per address;
/// the claimant is obligated to [`Memo::fulfill`] (even when the
/// computation is a quarantined failure, and even when a batch attempt
/// panics and falls back to per-cell execution), or waiters would
/// block forever.
#[derive(Default)]
struct Memo {
    claimed: AtomicBool,
    slot: Mutex<Option<CachedCell>>,
    ready: Condvar,
}

impl Memo {
    /// Reserves the address; true for the first caller only.
    fn claim(&self) -> bool {
        !self.claimed.swap(true, Ordering::AcqRel)
    }

    /// Publishes the finished computation and wakes every waiter.
    fn fulfill(&self, value: CachedCell) {
        *self.slot.lock().expect("memo slot poisoned") = Some(value);
        self.ready.notify_all();
    }

    /// Blocks until the claimant fulfills, then clones the outcome.
    fn wait(&self) -> CachedCell {
        let mut slot = self.slot.lock().expect("memo slot poisoned");
        loop {
            if let Some(cached) = slot.as_ref() {
                return cached.clone();
            }
            slot = self.ready.wait(slot).expect("memo slot poisoned");
        }
    }
}

/// Splits a batch's shared wall clock across its sessions in
/// proportion to the events each processed — the kernel's per-session
/// event counts are the only deterministic measure of how much of the
/// batch each cell was. (Even split when the batch processed no events
/// at all.) The shares sum back to (within rounding of) the batch
/// wall, so `PoolStats::busy` keeps its meaning, and per-cell
/// `events_per_sec` derived from the share reflects the batch's actual
/// aggregate throughput instead of crediting one cell with its batch-
/// mates' wall time.
fn attribute_walls(wall: Duration, results: &[SessionResult]) -> Vec<Duration> {
    let total: u64 = results.iter().map(|r| r.events_processed).sum();
    if total == 0 {
        let share = wall / results.len().max(1) as u32;
        return vec![share; results.len()];
    }
    results
        .iter()
        .map(|r| wall.mul_f64(r.events_processed as f64 / total as f64))
        .collect()
}

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

/// `cell`'s run under the pool's options: its observability mode, and
/// the supervisor's cancel flag when a deadline is set.
fn pool_spec(
    cell: &Cell,
    opts: PoolOptions,
    cancel: &Option<Arc<AtomicBool>>,
) -> RunSpec<Box<dyn BandwidthTrace>> {
    let mut spec = RunSpec {
        obs: opts.obs,
        ..cell.spec()
    };
    spec.guard.cancel = cancel.clone();
    spec
}

/// A fresh cancel flag registered with the worker's watch slot when a
/// deadline is set; `None` (and no supervisor registration) otherwise.
fn arm(opts: PoolOptions, slot: &WatchSlot) -> Option<Arc<AtomicBool>> {
    let cancel = opts.deadline.map(|_| Arc::new(AtomicBool::new(false)));
    if let Some(flag) = &cancel {
        slot.arm(flag.clone());
    }
    cancel
}

/// A finished session's outcome: a session the supervisor cancelled is
/// a timeout, anything else is the session's own result.
fn finished(result: SessionResult, opts: PoolOptions) -> CellOutcome {
    if result.cancelled {
        return Err(CellFailure::new(
            CellStatus::TimedOut,
            format!(
                "wall-clock deadline {:.3}s exceeded; session cancelled by the pool supervisor",
                opts.deadline.unwrap_or_default().as_secs_f64()
            ),
        ));
    }
    Ok(result)
}

/// Re-runs one cell alone under panic quarantine — the fallback after
/// a batch attempt panicked — with the runaway guard and (when a
/// deadline is set) supervisor cancellation still armed.
fn execute_cell(
    cell: &Cell,
    opts: PoolOptions,
    slot: &WatchSlot,
    ws: &mut KernelWorkspace,
) -> CachedCell {
    let cancel = arm(opts, slot);
    let started = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let spec = pool_spec(cell, opts, &cancel);
        run_sessions(vec![spec], ws).remove(0)
    }));
    let wall = started.elapsed();
    if cancel.is_some() {
        slot.disarm();
    }
    let outcome = match caught {
        Err(payload) => Err(CellFailure::new(
            CellStatus::Panicked,
            panic_message(payload.as_ref()),
        )),
        Ok(result) => finished(result, opts),
    };
    (outcome, wall)
}

/// Materializes one grid position's [`CellRun`] from a (possibly
/// cached) outcome. Derivation is pure, so every position of one
/// content address reports the identical status, failure, and digest.
fn make_run(cell: &Cell, wall: Duration, cache_hit: bool, outcome: &CellOutcome) -> CellRun {
    let (status, failure, result) = match outcome {
        Ok(result) => {
            let runaway = result
                .violations
                .iter()
                .find(|v| v.invariant == Invariant::RunawayTermination);
            match runaway {
                Some(v) => (
                    CellStatus::Runaway,
                    Some(CellFailure::new(CellStatus::Runaway, v.detail.clone())),
                    result.clone(),
                ),
                None => (CellStatus::Ok, None, result.clone()),
            }
        }
        Err(failure) => (
            failure.status,
            Some(failure.clone()),
            SessionResult::empty(),
        ),
    };
    let contracts = match &cell.contracts {
        Some(spec) if status.has_metrics() => evaluate(spec, &result),
        _ => Vec::new(),
    };
    CellRun {
        label: cell.label.clone(),
        sim_secs: cell.cfg.duration.as_secs_f64(),
        wall,
        cache_hit,
        controller: cell.cfg.scheme.cc.arena_name(),
        status,
        failure,
        result,
        contracts,
    }
}

/// Runs every cell on `jobs` worker threads with memoization on and
/// returns results in cell order. See [`run_cells_opts`] for the form
/// with pool statistics and cache control.
pub fn run_cells(cells: &[Cell], jobs: usize) -> Vec<CellRun> {
    run_cells_opts(cells, jobs, PoolOptions::default()).0
}

/// Runs every cell on `jobs` worker threads and returns results in cell
/// order plus pool accounting. `jobs` is clamped to `[1, cells.len()]`;
/// `jobs = 1` runs the grid serially on one spawned worker, which is
/// the determinism reference the tests compare against.
///
/// With `opts.use_cache`, each unique content address simulates exactly
/// once: the first worker to claim an address computes it and fulfills
/// its per-address memo; later claimants (and concurrent claimants,
/// which block on the same memo) clone the finished outcome — including
/// quarantined failures, which echo identically at every position.
pub fn run_cells_opts(cells: &[Cell], jobs: usize, opts: PoolOptions) -> (Vec<CellRun>, PoolStats) {
    let keys: Vec<String> = cells.iter().map(Cell::canonical_key).collect();
    let unique_cells = keys.iter().collect::<HashSet<_>>().len();
    if cells.is_empty() {
        return (
            Vec::new(),
            PoolStats {
                total_cells: 0,
                unique_cells: 0,
                executed: 0,
                cache_hits: 0,
                busy: Duration::ZERO,
                allocs_avoided: 0,
            },
        );
    }
    let jobs = jobs.clamp(1, cells.len());
    let batch = opts.batch.effective(cells.len(), jobs, opts.deadline);
    let next = AtomicUsize::new(0);
    let executed = AtomicUsize::new(0);
    let workers_done = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellRun>>> = Mutex::new((0..cells.len()).map(|_| None).collect());
    let busy_total: Mutex<Duration> = Mutex::new(Duration::ZERO);
    let cache: Mutex<HashMap<&str, Arc<Memo>>> = Mutex::new(HashMap::new());
    let watch: Vec<WatchSlot> = (0..jobs).map(|_| WatchSlot::default()).collect();
    std::thread::scope(|scope| {
        for slot in &watch {
            let next = &next;
            let executed = &executed;
            let workers_done = &workers_done;
            let slots = &slots;
            let busy_total = &busy_total;
            let cache = &cache;
            let keys = &keys;
            scope.spawn(move || {
                let mut busy = Duration::ZERO;
                // Per-worker kernel scratch, reused across batches so
                // the queue's bucket Vecs stay warm.
                let mut ws = KernelWorkspace::new();
                loop {
                    let start = next.fetch_add(batch, Ordering::Relaxed);
                    if start >= cells.len() {
                        break;
                    }
                    let end = (start + batch).min(cells.len());
                    run_batch(
                        cells,
                        keys,
                        start..end,
                        opts,
                        cache,
                        &mut ws,
                        slot,
                        slots,
                        &mut busy,
                        executed,
                    );
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
    let executed = executed.into_inner();
    let stats = PoolStats {
        total_cells: cells.len(),
        unique_cells,
        executed,
        cache_hits: cells.len() - executed,
        busy: busy_total.into_inner().expect("busy total poisoned"),
        allocs_avoided: 0,
    };
    let runs = slots
        .into_inner()
        .expect("pool slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every cell index was claimed"))
        .collect();
    (runs, stats)
}

/// Runs one claimed index range as kernel batches: groups the range
/// into same-duration sub-batches (the "sim horizon class" — sessions
/// of one class finish together, so interleaving them wastes no queue
/// sweeps on a long straggler), reserves cache addresses, drives the
/// computing positions as one session population through the worker's
/// [`KernelWorkspace`], then de-interleaves results back into their
/// grid slots. Cache-hit positions resolve *after* the batch runs, so
/// a worker never waits on a memo while holding unfulfilled claims.
///
/// The per-cell wall clock covers the batch's trace builds, schedule
/// generation and sessions, split across cells by event count. With a
/// deadline set, claims are single cells, so the supervisor's cancel
/// flag is per cell.
///
/// If anything in the batch panics, the whole attempt is discarded and
/// every claimed position re-runs through the per-cell quarantine path
/// ([`execute_cell`]): the panicking cell records exactly the failure
/// it would have solo, batch-mates recompute cleanly, and every claim
/// is still fulfilled. The re-runs reuse the worker's workspace: the
/// kernel resets its queue on entry, discarding the aborted batch's
/// leftovers.
#[allow(clippy::too_many_arguments)]
fn run_batch<'g>(
    cells: &'g [Cell],
    keys: &'g [String],
    range: Range<usize>,
    opts: PoolOptions,
    cache: &Mutex<HashMap<&'g str, Arc<Memo>>>,
    ws: &mut KernelWorkspace,
    slot: &WatchSlot,
    slots: &Mutex<Vec<Option<CellRun>>>,
    busy: &mut Duration,
    executed: &AtomicUsize,
) {
    // Same-horizon grouping, order-preserving: first-seen duration
    // order across groups, ascending index order within each group.
    let mut groups: Vec<(f64, Vec<usize>)> = Vec::new();
    for i in range {
        let horizon = cells[i].cfg.duration.as_secs_f64();
        match groups.iter_mut().find(|(h, _)| *h == horizon) {
            Some((_, members)) => members.push(i),
            None => groups.push((horizon, vec![i])),
        }
    }
    for (_, group) in groups {
        // Reserve addresses: the first claimant of each unique address
        // (across the whole run, including within this batch) computes
        // it; the rest wait. With the cache off every position is its
        // own session, duplicates included.
        let mut computing: Vec<(usize, Option<Arc<Memo>>)> = Vec::new();
        let mut waiting: Vec<(usize, Arc<Memo>)> = Vec::new();
        for &i in &group {
            if opts.use_cache {
                let memo = cache
                    .lock()
                    .expect("cell cache poisoned")
                    .entry(keys[i].as_str())
                    .or_default()
                    .clone();
                if memo.claim() {
                    computing.push((i, Some(memo)));
                } else {
                    waiting.push((i, memo));
                }
            } else {
                computing.push((i, None));
            }
        }
        if !computing.is_empty() {
            let cancel = arm(opts, slot);
            let started = Instant::now();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let specs = computing
                    .iter()
                    .map(|&(i, _)| pool_spec(&cells[i], opts, &cancel))
                    .collect();
                run_sessions(specs, ws)
            }));
            let wall = started.elapsed();
            if cancel.is_some() {
                slot.disarm();
            }
            let outcomes: Vec<CachedCell> = match attempt {
                Ok(results) => {
                    let walls = attribute_walls(wall, &results);
                    results
                        .into_iter()
                        .zip(walls)
                        .map(|(result, wall_i)| (finished(result, opts), wall_i))
                        .collect()
                }
                Err(_) => computing
                    .iter()
                    .map(|&(i, _)| execute_cell(&cells[i], opts, slot, ws))
                    .collect(),
            };
            for ((i, memo), (outcome, wall_i)) in computing.into_iter().zip(outcomes) {
                *busy += wall_i;
                executed.fetch_add(1, Ordering::Relaxed);
                let run = make_run(&cells[i], wall_i, false, &outcome);
                slots.lock().expect("pool slots poisoned")[i] = Some(run);
                if let Some(memo) = memo {
                    memo.fulfill((outcome, wall_i));
                }
            }
        }
        for (i, memo) in waiting {
            let (outcome, wall) = memo.wait();
            let run = make_run(&cells[i], wall, true, &outcome);
            slots.lock().expect("pool slots poisoned")[i] = Some(run);
        }
    }
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
        let serial = run_cells(&cells, 1);
        for jobs in [2, 8] {
            let parallel = run_cells(&cells, jobs);
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
        let runs = run_cells(&cells[..1], 64);
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
        let (runs, _) = run_cells_opts(&cells, 2, PoolOptions::default());
        let half = cells.len() / 2;
        for (first, dup) in runs[..half].iter().zip(&runs[half..]) {
            assert_eq!(dup.label, format!("dup-{}", first.label));
            // Identical content address -> identical reported wall.
            assert_eq!(first.wall, dup.wall);
        }
        // Exactly one position per address computed, the rest hit.
        let hits = runs.iter().filter(|r| r.cache_hit).count();
        assert_eq!(hits, half);
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
        let clean = run_cells(&tiny_grid(), 1);
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
            // Exactly one of the two positions was the cache hit.
            assert_eq!([a, b].iter().filter(|r| r.cache_hit).count(), 1);
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
