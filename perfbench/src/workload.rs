//! The three workloads: how each is generated from a seed, set up, run
//! for one pass through the public harness API, and digested.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ravel_harness::experiments::{self, Experiment, ExperimentRun, Output};
use ravel_harness::{
    render_json, run_cells_opts, soak_cell, BatchMode, Cell, CellRun, ObsMode, PoolOptions,
    PoolStats, RunReport, TraceSpec,
};
use ravel_pipeline::{CcKind, Scheme, SessionConfig};
use ravel_sim::Dur;
use ravel_video::Resolution;

use crate::measure::{cpu_time, Fnv};
use crate::spans::Spans;

/// Soak cells per pass: about one second of wall time on two cores.
pub const SOAK_CELLS: u64 = 400;

/// Long-call session length.
pub const LONG_CALL_LEN: Dur = Dur::secs(600);

/// Long-call controllers, one session each per pass.
pub const LONG_CALL_CONTROLLERS: [CcKind; 4] =
    [CcKind::Gcc, CcKind::Nada, CcKind::Bbr, CcKind::LossEma];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The E1–E22 registry behind every EXPERIMENTS.md number.
    PaperGrid,
    /// The seeded randomized fault-cell stream.
    FaultSoak,
    /// A few long recorded sessions, one per arena controller.
    LongCall,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper-grid" => Some(Kind::PaperGrid),
            "fault-soak" => Some(Kind::FaultSoak),
            "long-call" => Some(Kind::LongCall),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper-grid",
            Kind::FaultSoak => "fault-soak",
            Kind::LongCall => "long-call",
        }
    }

    /// The observability mode the workload runs with.
    pub fn obs(self) -> ObsMode {
        match self {
            Kind::LongCall => ObsMode::Full,
            Kind::PaperGrid | Kind::FaultSoak => ObsMode::Off,
        }
    }

    /// The pool options of the workload's timed passes: the harness
    /// defaults for the grid, one kernel call per cell otherwise.
    pub fn pool_options(self) -> PoolOptions {
        let mut opts = PoolOptions {
            obs: self.obs(),
            ..PoolOptions::default()
        };
        if self != Kind::PaperGrid {
            opts.batch = BatchMode::Fixed(1);
        }
        opts
    }
}

/// Remaps a registry seed under run seed `run`: the identity for run
/// seed 0, a fixed SplitMix64 mix otherwise. Equal inputs stay equal,
/// so duplicate grid positions stay duplicates.
pub fn mix(run: u64, x: u64) -> u64 {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    if run == 0 {
        x
    } else {
        splitmix(x ^ splitmix(run))
    }
}

fn remap_cell(cell: &mut Cell, run: u64) {
    cell.cfg.seed = mix(run, cell.cfg.seed);
    if let TraceSpec::LteLike { seed, .. } = &mut cell.trace {
        *seed = mix(run, *seed);
    }
    if let Some(chaos) = cell.cfg.chaos.as_mut() {
        chaos.seed = mix(run, chaos.seed);
    }
    if let Some(corrupt) = cell.cfg.corrupt.as_mut() {
        corrupt.seed = mix(run, corrupt.seed);
    }
}

fn long_call_cell(seed: u64, i: u64, cc: CcKind) -> Cell {
    let mut cfg = SessionConfig::default_with(Scheme::cc_adaptive(cc));
    cfg.duration = LONG_CALL_LEN;
    cfg.resolution = Resolution::P720;
    cfg.record_series = true;
    cfg.seed = mix(seed.wrapping_add(1), 2 * i);
    Cell {
        label: format!("long-call/s{seed}/{}", cc.cc_name()),
        trace: TraceSpec::LteLike {
            seed: mix(seed.wrapping_add(1), 2 * i + 1),
            len: LONG_CALL_LEN,
        },
        cfg,
        contracts: None,
    }
}

/// A generated workload: experiments (the grid) or one flat cell list.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The grid's experiments (empty for the flat workloads).
    pub experiments: Vec<Experiment>,
    /// The flat workloads' cells (empty for the grid).
    pub cells: Vec<Cell>,
}

impl Workload {
    /// Generates the workload's cells from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let mut w = Workload {
            kind,
            experiments: Vec::new(),
            cells: Vec::new(),
        };
        match kind {
            Kind::PaperGrid => {
                w.experiments = experiments::all();
                for cell in w.experiments.iter_mut().flat_map(|e| e.cells.iter_mut()) {
                    remap_cell(cell, seed);
                }
            }
            Kind::FaultSoak => w.cells = (0..SOAK_CELLS).map(|i| soak_cell(seed, i)).collect(),
            Kind::LongCall => {
                w.cells = LONG_CALL_CONTROLLERS
                    .iter()
                    .enumerate()
                    .map(|(i, &cc)| long_call_cell(seed, i as u64, cc))
                    .collect()
            }
        }
        w
    }

    /// Every grid position, in order.
    pub fn positions(&self) -> Vec<&Cell> {
        match self.kind {
            Kind::PaperGrid => self.experiments.iter().flat_map(|e| &e.cells).collect(),
            _ => self.cells.iter().collect(),
        }
    }

    /// One set-up: what the program does before its first simulation
    /// is dispatched — generation (and the grid's seed remap), the flat
    /// cell list `run_suite_opts` clones, and the content-address pass
    /// `run_cells_opts` makes over it. Traces and fault schedules are
    /// not built here: the kernel builds them inside each cell's run,
    /// where `wall_s` and the per-cell times count them. Returns the
    /// workload and the number of unique cells (so the work cannot be
    /// optimised away).
    pub fn set_up(kind: Kind, seed: u64) -> (Workload, usize) {
        let w = Workload::generate(kind, seed);
        let flat = match kind {
            Kind::PaperGrid => w.flat_cells(),
            Kind::FaultSoak | Kind::LongCall => Vec::new(),
        };
        let cells = if flat.is_empty() { &w.cells } else { &flat };
        let keys: Vec<String> = cells.iter().map(Cell::canonical_key).collect();
        let unique = keys.iter().collect::<HashSet<_>>().len();
        (w, unique)
    }

    /// The flat cell list handed to a pool (the grid's positions in
    /// order, cloned).
    pub fn flat_cells(&self) -> Vec<Cell> {
        self.positions().into_iter().cloned().collect()
    }
}

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the pass (pool call, plus assembly and rendering on
    /// the grid).
    pub wall: Duration,
    /// Process CPU time over the same interval.
    pub cpu: Duration,
    /// Simulated seconds of the cells actually executed.
    pub sim_executed: f64,
    /// Pool accounting.
    pub stats: PoolStats,
    /// Host time of each executed cell, ms — only when the pass ran one
    /// kernel call per cell, so every wall is a real measurement.
    pub cell_ms: Vec<f64>,
    /// Grid positions run.
    pub cells: usize,
    /// Positions whose status is not ok, that violated an invariant, or
    /// that failed a contract clause.
    pub failed: usize,
    /// Digest of the timing-free outputs.
    pub digest: u64,
    /// Time `Experiment::assemble` takes over the pass's results (grid
    /// only, and only when spans record).
    pub assemble: Duration,
    /// Time spent in `render_json`.
    pub render: Duration,
    /// The per-cell results (kept only when asked for).
    pub runs: Vec<CellRun>,
}

/// True when `run` counts as a failed operation.
pub fn failed(run: &CellRun) -> bool {
    !run.ok() || !run.result.violations.is_empty() || run.contracts.iter().any(|v| !v.pass)
}

/// Digests one cell's timing-free outputs: status, failure detail,
/// violations, contract verdicts and the simulated statistics (at full
/// precision).
fn digest_cell(h: &mut Fnv, run: &CellRun) {
    let r = &run.result;
    let s = r.recorder.summarize_all();
    let _ = write!(
        h,
        "{}|{}|{:?}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|",
        run.label,
        run.status.name(),
        run.failure.as_ref().map(|f| &f.detail),
        r.frames_captured,
        r.frames_skipped,
        r.frames_encoded,
        r.events_processed,
        r.packets_delivered,
        r.queue_drops,
        r.random_losses,
        r.drops_handled,
        r.retransmissions,
        r.fec_recovered,
        r.rejected_reports,
        r.watchdog_timeouts,
        r.plis_sent,
        r.chain_breaks,
    );
    let _ = write!(h, "{s:?}|");
    for v in &r.violations {
        let _ = write!(h, "{v}|");
    }
    for v in &run.contracts {
        let _ = write!(h, "{v:?}|");
    }
}

/// Wraps flat results in a one-experiment report for `render_json`.
fn flat_report(kind: Kind, runs: Vec<CellRun>, stats: PoolStats) -> RunReport {
    RunReport {
        jobs: 0,
        total_wall: Duration::ZERO,
        stats,
        experiments: vec![ExperimentRun {
            id: "workload",
            title: kind.name(),
            output: Output::Text(String::new()),
            cells: runs,
        }],
    }
}

/// Runs one pass of `w` on `jobs` workers with `opts`: on the grid,
/// `run_suite_opts` (pool plus assembly) and `render_json`, all inside
/// the timed wall; on the flat workloads, `run_cells_opts`, with the
/// report rendered after the wall is taken (timed as the JSON layer,
/// digested as output). When `spans` records, the grid's assembly is
/// timed again on the returned results for `harness.assemble_ms`
/// (assembly is pure, so the re-run costs what the suite's did). With
/// `keep`, the per-cell results are returned too.
pub fn run_pass(
    w: &Workload,
    jobs: usize,
    opts: PoolOptions,
    spans: &mut Spans,
    keep: bool,
) -> Pass {
    let cpu0 = cpu_time();
    let t0 = Instant::now();
    let (report, tables) = match w.kind {
        Kind::PaperGrid => {
            let (finished, stats) = spans.span("pool", |_| {
                experiments::run_suite_opts(&w.experiments, jobs, opts)
            });
            let tables: Vec<String> = finished.iter().map(|e| e.output.render()).collect();
            let report = RunReport {
                jobs: 0,
                total_wall: Duration::ZERO,
                stats,
                experiments: finished,
            };
            (report, tables)
        }
        Kind::FaultSoak | Kind::LongCall => {
            let (runs, stats) = spans.span("pool", |_| run_cells_opts(&w.cells, jobs, opts));
            (flat_report(w.kind, runs, stats), Vec::new())
        }
    };
    let mut wall = t0.elapsed();
    let mut cpu = cpu_time().saturating_sub(cpu0);
    let t = Instant::now();
    let rendered = spans.span("render_json", |_| render_json(&report, false));
    let render = t.elapsed();
    if w.kind == Kind::PaperGrid {
        wall = t0.elapsed();
        cpu = cpu_time().saturating_sub(cpu0);
    }
    let mut assemble = Duration::ZERO;
    if w.kind == Kind::PaperGrid && spans.enabled() {
        let t = Instant::now();
        spans.span("assemble", |_| {
            for (e, run) in w.experiments.iter().zip(&report.experiments) {
                std::hint::black_box(e.assemble(&run.cells));
            }
        });
        assemble = t.elapsed();
    }
    let mut h = Fnv::default();
    let _ = write!(h, "{rendered}|{}|", tables.join("\n"));
    let stats = report.stats;
    let runs: Vec<CellRun> = report
        .experiments
        .into_iter()
        .flat_map(|e| e.cells)
        .collect();
    for run in &runs {
        digest_cell(&mut h, run);
    }
    let executed: Vec<&CellRun> = runs.iter().filter(|r| !r.cache_hit).collect();
    Pass {
        wall,
        cpu,
        sim_executed: executed.iter().map(|r| r.sim_secs).sum(),
        stats,
        cell_ms: if opts.batch == BatchMode::Fixed(1) {
            executed
                .iter()
                .map(|r| r.wall.as_secs_f64() * 1e3)
                .collect()
        } else {
            Vec::new()
        },
        cells: runs.len(),
        failed: runs.iter().filter(|r| failed(r)).count(),
        digest: h.0,
        assemble,
        render,
        runs: if keep { runs } else { Vec::new() },
    }
}

/// The output digest of the first `n` positions run at `jobs` workers
/// with one kernel call per cell (the cross-width output check).
pub fn prefix_digest(w: &Workload, n: usize, jobs: usize) -> u64 {
    let cells: Vec<Cell> = w.flat_cells().into_iter().take(n).collect();
    let opts = PoolOptions {
        obs: w.kind.obs(),
        batch: BatchMode::Fixed(1),
        ..PoolOptions::default()
    };
    let (runs, _) = run_cells_opts(&cells, jobs, opts);
    let mut h = Fnv::default();
    for run in &runs {
        digest_cell(&mut h, run);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_committed_registry() {
        let w = Workload::generate(Kind::PaperGrid, 0);
        let reg = experiments::all();
        let a: Vec<String> = w.positions().iter().map(|c| c.canonical_key()).collect();
        let b: Vec<String> = reg
            .iter()
            .flat_map(|e| &e.cells)
            .map(Cell::canonical_key)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn remapping_keeps_duplicates_duplicate() {
        let unique = |w: &Workload| {
            let mut keys: Vec<String> = w.positions().iter().map(|c| c.canonical_key()).collect();
            keys.sort();
            keys.dedup();
            keys.len()
        };
        let base = Workload::generate(Kind::PaperGrid, 0);
        let moved = Workload::generate(Kind::PaperGrid, 5);
        assert_eq!(unique(&base), unique(&moved));
        assert_ne!(
            base.positions()[0].canonical_key(),
            moved.positions()[0].canonical_key()
        );
    }

    #[test]
    fn workloads_are_pure_functions_of_the_seed() {
        for kind in [Kind::FaultSoak, Kind::LongCall] {
            let a = Workload::generate(kind, 3);
            let b = Workload::generate(kind, 3);
            let keys = |w: &Workload| -> Vec<String> {
                w.positions().iter().map(|c| c.canonical_key()).collect()
            };
            assert_eq!(keys(&a), keys(&b));
            assert_ne!(keys(&a), keys(&Workload::generate(kind, 4)));
        }
    }
}
