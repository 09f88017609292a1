//! Seeded soak mode: randomized cells streamed through the
//! fault-isolated pool until a wall-clock budget expires.
//!
//! `--soak <secs> --soak-seed S` generates an endless deterministic
//! stream of chaos × impairment × content cells — cell `i` of seed `S`
//! is a pure function of `(S, i)`, independent of batch size, worker
//! count, or how far the previous batch got — and pumps them through
//! [`run_cells_opts`] in batches of `jobs × 4` until the budget runs
//! out. How *many* cells run depends on the host's speed; *which* cell
//! each index denotes, and every per-cell verdict, does not. Status and
//! violation tallies are merged in cell-index order, and every failing
//! cell (panicked / timed out / runaway / invariant-violating) is
//! reported with its deterministic failure digest and, when the cell
//! carries a chaos schedule, a shrunk minimal reproducer.
//!
//! Soak cells reuse the chaos calibration: 30 s adaptive sessions
//! (faults confined to the first 60 %, so the post-fault recovery
//! invariants stay checkable) over randomized traces, content classes,
//! reverse-path impairments, watchdog settings, and feedback-corruption
//! schedules (the control-plane fault axis). Failing cells that carry a
//! corruption schedule get a shrunk corruption reproducer alongside the
//! chaos one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ravel_core::WatchdogConfig;
use ravel_net::{ChaosSpec, CorruptKind, CorruptSpec, FaultKind, ReversePathConfig, Schedule};
use ravel_pipeline::{Scheme, SessionConfig};
use ravel_sim::{Dur, Rng, Time};
use ravel_video::ContentClass;

use crate::cell::{Cell, TraceSpec};
use crate::pool::{run_cells_opts, CellRun, CellStatus, PoolOptions, PoolStats};
use crate::shrink::{shrink_cell, FaultPlane};

/// RNG substream tag for soak cell generation (distinct from the chaos
/// schedule's `0xC4A0` and the session substreams).
const SOAK_STREAM: u64 = 0x50AC;

/// Soak session length: the chaos-calibrated 30 s at which the
/// post-fault recovery invariants are checkable.
pub const SOAK_SESSION_LEN: Dur = Dur::secs(30);

/// How a soak run is driven.
#[derive(Debug, Clone, Copy)]
pub struct SoakOptions {
    /// Wall-clock budget; the stream stops at the first batch boundary
    /// past it.
    pub budget: Duration,
    /// Seed naming the cell stream ([`soak_cell`]'s first argument).
    pub seed: u64,
    /// Worker threads per batch.
    pub jobs: usize,
    /// Optional per-cell wall-clock deadline (the pool supervisor).
    pub deadline: Option<Duration>,
    /// Optional hard cap on the number of cells: the stream stops at
    /// `max_cells` even with budget left, making coverage independent
    /// of host speed (CI runs the exact same cell range everywhere).
    pub max_cells: Option<u64>,
}

/// One failing soak cell, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct SoakFailure {
    /// Global cell index: `soak_cell(seed, index)` rebuilds the cell.
    pub index: u64,
    /// The cell's label.
    pub label: String,
    /// How the cell ended.
    pub status: CellStatus,
    /// Failure digest (for non-`ok` cells) or empty.
    pub digest: String,
    /// Deterministic failure / violation details, one per line.
    pub detail: String,
    /// Minimal reproducer — chaos schedule, then the `corrupt:`-headed
    /// corruption schedule — for each fault plane the cell carries on
    /// which the failure still reproduces under re-run.
    pub reproducer: Option<String>,
}

/// Merged result of a soak run. All verdict fields are deterministic
/// per `(seed, cells)`; only `wall`, `batches` and the cell *count*
/// depend on host speed.
#[derive(Debug, Clone, Default)]
pub struct SoakOutcome {
    /// The stream seed.
    pub seed: u64,
    /// Batches completed.
    pub batches: u64,
    /// Total grid positions run.
    pub cells: u64,
    /// Simulations actually executed (soak cells are unique by
    /// construction, so normally `== cells`).
    pub executed: u64,
    /// Positions served from the per-batch cell cache.
    pub cache_hits: u64,
    /// Simulated seconds covered.
    pub sim_seconds: f64,
    /// End-to-end wall clock.
    pub wall: Duration,
    /// Cells per terminal status, keyed by [`CellStatus::name`].
    pub status_tally: BTreeMap<&'static str, u64>,
    /// Violated-invariant counts, keyed by invariant name.
    pub violation_tally: BTreeMap<String, u64>,
    /// Every failing cell, in cell-index order.
    pub failures: Vec<SoakFailure>,
}

impl SoakOutcome {
    /// True when every cell completed `ok` with zero violations.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Cells with the given terminal status.
    pub fn status_count(&self, status: CellStatus) -> u64 {
        self.status_tally.get(status.name()).copied().unwrap_or(0)
    }

    /// The deterministic soak summary: status and violation tallies
    /// plus per-failure reports. Timing (wall, batches, throughput)
    /// stays on stderr, not here.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== soak: seed {} / {} cells ===",
            self.seed, self.cells
        );
        for (status, n) in &self.status_tally {
            let _ = writeln!(out, "  {status:<9} {n}");
        }
        if self.violation_tally.is_empty() {
            let _ = writeln!(out, "  violations: none");
        } else {
            let _ = writeln!(out, "  violations:");
            for (name, n) in &self.violation_tally {
                let _ = writeln!(out, "    {name:<20} {n}");
            }
        }
        for f in &self.failures {
            let _ = writeln!(
                out,
                "FAILURE cell #{} {} [{}] digest={}",
                f.index,
                f.label,
                f.status.name(),
                f.digest
            );
            for line in f.detail.lines() {
                let _ = writeln!(out, "  {line}");
            }
            if let Some(repro) = &f.reproducer {
                let _ = writeln!(out, "  minimal reproducer:");
                let _ = write!(out, "{repro}");
            }
        }
        out
    }
}

/// Generates soak cell `index` of stream `soak_seed`.
///
/// Pure and index-independent: each cell draws from its own RNG
/// substream, so batch boundaries (a function of wall clock and
/// `--jobs`) can never shift which cell a given index denotes.
pub fn soak_cell(soak_seed: u64, index: u64) -> Cell {
    let mut rng = Rng::substream(
        soak_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        SOAK_STREAM,
    );
    let content = match rng.below(4) {
        0 => ContentClass::TalkingHead,
        1 => ContentClass::ScreenShare,
        2 => ContentClass::Gaming,
        _ => ContentClass::Sports,
    };
    let trace = match rng.below(4) {
        0 => TraceSpec::Constant(rng.uniform_in(2.5e6, 5e6)),
        1 => TraceSpec::SuddenDrop {
            pre_bps: rng.uniform_in(3e6, 5e6),
            after_bps: rng.uniform_in(0.8e6, 1.6e6),
            at: Time::ZERO + Dur::from_secs_f64(rng.uniform_in(8.0, 12.0)),
        },
        2 => {
            let at = rng.uniform_in(8.0, 12.0);
            TraceSpec::DropRecover {
                pre_bps: rng.uniform_in(3e6, 5e6),
                after_bps: rng.uniform_in(0.8e6, 1.6e6),
                at: Time::ZERO + Dur::from_secs_f64(at),
                recover_at: Time::ZERO + Dur::from_secs_f64(at + rng.uniform_in(4.0, 8.0)),
            }
        }
        _ => TraceSpec::LteLike {
            seed: rng.next_u64(),
            len: SOAK_SESSION_LEN,
        },
    };
    let mut cfg = SessionConfig::default_with(Scheme::adaptive());
    cfg.duration = SOAK_SESSION_LEN;
    cfg.content = content;
    cfg.seed = rng.next_u64();
    if rng.chance(0.75) {
        cfg.chaos = Some(ChaosSpec::new(
            rng.next_u64() >> 32,
            rng.uniform_in(0.1, 1.0),
        ));
    }
    if rng.chance(0.5) {
        let mut rp = ReversePathConfig::with_loss(rng.uniform_in(0.0, 0.3));
        rp.jitter_std = Dur::from_secs_f64(rng.uniform_in(0.0, 0.02));
        cfg.reverse_path = rp;
    }
    if rng.chance(0.5) {
        cfg.watchdog = Some(WatchdogConfig::for_timing(
            cfg.feedback_interval,
            cfg.reverse_delay * 2,
        ));
    }
    // The corruption axis draws LAST so adding it left every
    // pre-existing soak cell's trace/chaos/impairment draws untouched.
    if rng.chance(0.35) {
        cfg.corrupt = Some(CorruptSpec::new(
            rng.next_u64() >> 32,
            rng.uniform_in(0.1, 1.0),
        ));
    }
    Cell {
        label: format!("soak/s{soak_seed}/c{index}"),
        trace,
        cfg,
        contracts: None,
    }
}

/// Folds one batch of results into the outcome, in cell-index order.
fn absorb(outcome: &mut SoakOutcome, first_index: u64, cells: &[Cell], runs: &[CellRun]) {
    for (offset, (cell, run)) in cells.iter().zip(runs).enumerate() {
        let index = first_index + offset as u64;
        *outcome.status_tally.entry(run.status.name()).or_insert(0) += 1;
        for v in &run.result.violations {
            *outcome
                .violation_tally
                .entry(v.invariant.name().to_string())
                .or_insert(0) += 1;
        }
        if run.ok() && run.result.violations.is_empty() {
            continue;
        }
        let digest = run
            .failure
            .as_ref()
            .map(crate::pool::CellFailure::digest)
            .unwrap_or_default();
        let mut detail = String::new();
        if let Some(f) = &run.failure {
            detail.push_str(&f.detail);
            detail.push('\n');
        }
        for v in &run.result.violations {
            let _ = writeln!(detail, "{v}");
        }
        let reproducer: String = [
            minimal_reproducer::<FaultKind>(cell, ""),
            minimal_reproducer::<CorruptKind>(cell, "corrupt:\n"),
        ]
        .into_iter()
        .flatten()
        .collect();
        outcome.failures.push(SoakFailure {
            index,
            label: run.label.clone(),
            status: run.status,
            digest,
            detail,
            reproducer: (!reproducer.is_empty()).then_some(reproducer),
        });
    }
}

/// The minimal reproducer of `cell`'s failure on plane `K`, headed by
/// `heading`: `None` when the cell carries no schedule on that plane or
/// the failure does not reproduce under re-run.
fn minimal_reproducer<K: FaultPlane>(cell: &Cell, heading: &str) -> Option<String> {
    let schedule = Schedule::<K>::generate(K::spec_of(&cell.cfg)?, cell.cfg.duration);
    shrink_cell(cell, &schedule).map(|min| format!("{heading}{}", min.reproducer()))
}

/// Runs the soak: batches of `jobs × 4` cells until `opts.budget`
/// expires (the batch in flight when it does still completes) or
/// `opts.max_cells` is reached, whichever comes first.
pub fn run_soak(opts: SoakOptions) -> SoakOutcome {
    let started = Instant::now();
    let batch = opts.jobs.max(1) * 4;
    let pool_opts = PoolOptions {
        deadline: opts.deadline,
        ..PoolOptions::default()
    };
    let mut outcome = SoakOutcome {
        seed: opts.seed,
        ..SoakOutcome::default()
    };
    let mut next_index = 0u64;
    while outcome.batches == 0 || started.elapsed() < opts.budget {
        let remaining = opts
            .max_cells
            .map(|cap| cap.saturating_sub(next_index))
            .unwrap_or(batch as u64);
        if remaining == 0 {
            break;
        }
        let batch = (batch as u64).min(remaining) as usize;
        let cells: Vec<Cell> = (0..batch)
            .map(|i| soak_cell(opts.seed, next_index + i as u64))
            .collect();
        let (runs, stats) = run_cells_opts(&cells, opts.jobs, pool_opts);
        absorb(&mut outcome, next_index, &cells, &runs);
        accumulate_stats(&mut outcome, &stats, &runs);
        next_index += batch as u64;
        outcome.batches += 1;
    }
    outcome.wall = started.elapsed();
    outcome
}

fn accumulate_stats(outcome: &mut SoakOutcome, stats: &PoolStats, runs: &[CellRun]) {
    outcome.cells += stats.total_cells as u64;
    outcome.executed += stats.executed as u64;
    outcome.cache_hits += stats.cache_hits as u64;
    outcome.sim_seconds += runs.iter().map(|r| r.sim_secs).sum::<f64>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_cells_are_pure_functions_of_seed_and_index() {
        for index in [0, 1, 17, 1_000_003] {
            let a = soak_cell(42, index);
            let b = soak_cell(42, index);
            assert_eq!(a.canonical_key(), b.canonical_key());
            assert_eq!(a.label, b.label);
        }
        assert_ne!(
            soak_cell(42, 0).canonical_key(),
            soak_cell(43, 0).canonical_key(),
            "different seeds must generate different cells"
        );
        assert_ne!(
            soak_cell(42, 0).canonical_key(),
            soak_cell(42, 1).canonical_key(),
            "different indices must generate different cells"
        );
    }

    #[test]
    fn e20_storm_cell_completes_within_a_sane_event_budget() {
        // Regression for the E20 no-chaos event storm: soak/s1/c5263
        // used to schedule a duplicate PacerTick on every pacer
        // interaction under sustained backlog, snowballing to ~132k
        // events per simulated second until the runaway budget cut the
        // session short (masking the bug as a "runaway" failure). With
        // pacer ticks deduped the cell completes normally at ~1.3k
        // events per simulated second.
        let cell = soak_cell(1, 5263);
        let result = ravel_pipeline::run_session(cell.trace.build(), cell.cfg);
        assert!(
            result.violations.is_empty(),
            "cell must complete without tripping the runaway backstop: {:?}",
            result.violations
        );
        assert!(
            result.events_processed < 200_000,
            "event volume regressed: {} events for this soak cell (expected ~38k)",
            result.events_processed
        );
    }

    #[test]
    fn soak_stream_covers_the_randomization_axes() {
        // 64 cells should exercise every trace shape and content class,
        // and mix chaos / impairment / watchdog on and off.
        let cells: Vec<Cell> = (0..64).map(|i| soak_cell(7, i)).collect();
        assert!(cells
            .iter()
            .any(|c| matches!(c.trace, TraceSpec::Constant(_))));
        assert!(cells
            .iter()
            .any(|c| matches!(c.trace, TraceSpec::SuddenDrop { .. })));
        assert!(cells
            .iter()
            .any(|c| matches!(c.trace, TraceSpec::DropRecover { .. })));
        assert!(cells
            .iter()
            .any(|c| matches!(c.trace, TraceSpec::LteLike { .. })));
        assert!(cells.iter().any(|c| c.cfg.chaos.is_some()));
        assert!(cells.iter().any(|c| c.cfg.chaos.is_none()));
        assert!(cells.iter().any(|c| c.cfg.corrupt.is_some()));
        assert!(cells.iter().any(|c| c.cfg.corrupt.is_none()));
        assert!(cells.iter().any(|c| c.cfg.watchdog.is_some()));
        assert!(cells.iter().any(|c| c.cfg.watchdog.is_none()));
        assert!(cells.iter().any(|c| c.cfg.reverse_path.loss > 0.0));
        for content in [
            ContentClass::TalkingHead,
            ContentClass::ScreenShare,
            ContentClass::Gaming,
            ContentClass::Sports,
        ] {
            assert!(cells.iter().any(|c| c.cfg.content == content));
        }
    }

    #[test]
    fn one_batch_soak_merges_deterministic_tallies() {
        // A zero budget still runs exactly one batch; two runs over the
        // same seed produce identical verdicts.
        let opts = SoakOptions {
            budget: Duration::ZERO,
            seed: 11,
            jobs: 2,
            deadline: None,
            max_cells: None,
        };
        let a = run_soak(opts);
        let b = run_soak(opts);
        assert_eq!(a.batches, 1);
        assert_eq!(a.cells, 8);
        assert_eq!(a.status_tally, b.status_tally);
        assert_eq!(a.violation_tally, b.violation_tally);
        assert_eq!(a.failures.len(), b.failures.len());
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.status_count(CellStatus::Ok), 8, "{}", a.summary());
        assert!(a.clean(), "{}", a.summary());
    }

    #[test]
    fn cell_cap_bounds_coverage_regardless_of_budget() {
        // A generous budget with a cap stops at exactly `max_cells`,
        // truncating the final batch — so CI coverage is host-independent.
        let opts = SoakOptions {
            budget: Duration::from_secs(3600),
            seed: 11,
            jobs: 2,
            deadline: None,
            max_cells: Some(10),
        };
        let capped = run_soak(opts);
        assert_eq!(capped.cells, 10);
        assert_eq!(
            capped.batches, 2,
            "8-cell batch plus a truncated 2-cell batch"
        );
        // The capped run's verdicts are a prefix-consistent superset of
        // the single-batch run over the same seed.
        let one = run_soak(SoakOptions {
            budget: Duration::ZERO,
            max_cells: None,
            ..opts
        });
        assert!(capped.status_count(CellStatus::Ok) >= one.status_count(CellStatus::Ok));
    }
}
