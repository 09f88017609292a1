//! Golden-timeline snapshot tests.
//!
//! Eight representative cells — the first grid position of E1 (sudden
//! drop), E3 (scheme comparison), E17 (feedback impairment + watchdog),
//! E18 (data-plane chaos), E21 (control-plane feedback corruption),
//! the NADA and BBR adaptive drop cells of the E22 controller arena,
//! and E9's adaptive LTE-like cell under blackouts and capacity
//! collapses — run with `--obs full` over a shortened
//! 12 s session, and their timeline digests are compared byte-for-byte
//! against checked-in snapshots in `tests/golden/`. The digests must
//! also be byte-identical at any pool width and when served from the
//! cell cache, which is the observability layer's determinism bar.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ravel-harness --test golden_timeline
//! ```

mod common;

use ravel_harness::{
    experiments, run_suite_opts, BatchMode, Cell, Experiment, ObsMode, Output, PoolOptions,
    TraceSpec,
};
use ravel_net::{ChaosSchedule, ChaosSpec, FaultKind};
use ravel_sim::Dur;

/// Session length for the golden cells: long enough to cross the E1/E3
/// drop at t=10 s (and several chaos segments for E18), short enough to
/// keep the snapshots readable and the test fast.
const GOLDEN_LEN: Dur = Dur::secs(12);

const GOLDEN: [&str; 8] = [
    "e1",
    "e3",
    "e17",
    "e18",
    "e21",
    "e22-nada",
    "e22-bbr",
    "e9-lte-chaos",
];

/// The capacity faults laid over the E9 LTE-like golden cell. Over the
/// 12 s golden window this schedule holds two blackouts and two
/// capacity collapses, one of each overlapping, so the link serializes
/// across zero-rate spans and collapse edges of a stochastic trace.
fn lte_chaos() -> ChaosSpec {
    ChaosSpec::new(8, 1.0)
}

fn golden_cells() -> Vec<Cell> {
    let shorten = |mut cell: Cell| {
        cell.cfg.duration = GOLDEN_LEN;
        cell
    };
    vec![
        shorten(experiments::e1().cells[0].clone()),
        shorten(experiments::e3().cells[0].clone()),
        shorten(experiments::e17().cells[0].clone()),
        shorten(experiments::e18().cells[0].clone()),
        // Shortening regenerates the corruption schedule for the 12 s
        // window (CorruptSchedule::generate windows segments to a
        // fraction of the session length), so corruption still lands
        // inside the snapshot.
        shorten(experiments::e21().cells[0].clone()),
        // The arena's two RFC-shaped controllers, each on the adaptive
        // canonical-drop cell (per-controller order within E22 is
        // drop/base, drop/adpt, chaos/..., corrupt/...; NADA is the
        // second controller block, BBR the third).
        shorten(experiments::e22().cells[7].clone()),
        shorten(experiments::e22().cells[13].clone()),
        // E9's adaptive cell on the seed-0 LTE-like trace, with capacity
        // faults on top.
        {
            let mut cell = shorten(experiments::e9(1).cells[1].clone());
            cell.cfg.chaos = Some(lte_chaos());
            cell
        },
    ]
}

#[test]
fn golden_arena_cells_are_the_intended_grid_positions() {
    // Guard the hard-coded indices above against E22 grid reordering.
    let e22 = experiments::e22();
    assert_eq!(e22.cells[7].label, "arena/nada/drop/adpt");
    assert_eq!(e22.cells[13].label, "arena/bbr/drop/adpt");
}

#[test]
fn golden_lte_chaos_cell_has_blackouts_and_collapses() {
    let e9 = experiments::e9(1);
    assert_eq!(e9.cells[1].label, "seed0/adpt");
    let cell = golden_cells().pop().unwrap();
    assert!(matches!(cell.trace, TraceSpec::LteLike { .. }));
    assert_eq!(cell.cfg.chaos, Some(lte_chaos()));
    let schedule = ChaosSchedule::generate(lte_chaos(), GOLDEN_LEN);
    let segments = |want: fn(&FaultKind) -> bool| {
        schedule
            .segments
            .iter()
            .filter(|s| want(&s.kind))
            .collect::<Vec<_>>()
    };
    let blackouts = segments(|k| matches!(k, FaultKind::Blackout));
    let collapses = segments(|k| matches!(k, FaultKind::CapacityCollapse { .. }));
    assert!(!blackouts.is_empty() && !collapses.is_empty());
    assert!(
        blackouts.iter().any(|b| collapses
            .iter()
            .any(|c| b.from < c.until && c.from < b.until)),
        "no blackout overlaps a capacity collapse:\n{}",
        schedule.reproducer()
    );
}

/// Runs the golden cells and returns each cell's digest, in grid order.
fn digests(cells: Vec<Cell>, jobs: usize, use_cache: bool) -> Vec<String> {
    digests_batched(cells, jobs, use_cache, BatchMode::Auto)
}

fn digests_batched(
    cells: Vec<Cell>,
    jobs: usize,
    use_cache: bool,
    batch: BatchMode,
) -> Vec<String> {
    let exps = [Experiment::new(
        "golden",
        "golden timeline cells",
        cells,
        |_| Output::Text(String::new()),
    )];
    let opts = PoolOptions {
        use_cache,
        obs: ObsMode::Full,
        batch,
        ..PoolOptions::default()
    };
    let (runs, _) = run_suite_opts(&exps, jobs, opts);
    runs[0]
        .cells
        .iter()
        .map(|c| c.result.obs.digest(&c.label))
        .collect()
}

#[test]
fn digests_match_checked_in_snapshots() {
    let got = digests(golden_cells(), 1, true);
    for (name, digest) in GOLDEN.iter().zip(&got) {
        common::check_golden(&format!("{name}.digest"), digest);
    }
}

#[test]
fn digests_are_byte_identical_across_job_counts() {
    let at_1 = digests(golden_cells(), 1, true);
    for jobs in [2, 8] {
        let at_n = digests(golden_cells(), jobs, true);
        assert_eq!(
            at_1, at_n,
            "digests diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn digests_are_byte_identical_across_batch_modes() {
    // `BatchMode` is ignored: full-observability digests under every
    // mode must match the `Fixed(1)` digests byte-for-byte.
    let oracle = digests_batched(golden_cells(), 1, false, BatchMode::Fixed(1));
    for jobs in [1, 4] {
        for batch in [BatchMode::Fixed(8), BatchMode::Auto] {
            let got = digests_batched(golden_cells(), jobs, false, batch);
            assert_eq!(
                oracle, got,
                "digests diverged from Fixed(1) (jobs={jobs}, batch={batch:?})"
            );
        }
    }
}

#[test]
fn cached_digests_match_the_no_cache_serial_reference() {
    // Double the grid so the second half of the positions are cache
    // hits: a memoized SessionResult carries its obs log, so a hit must
    // reproduce the computing run's digest byte-for-byte — and both
    // must match a cold serial run.
    let base = golden_cells();
    let mut doubled = base.clone();
    doubled.extend(base.iter().cloned());

    let cold = digests(base, 1, false);
    let warm = digests(doubled, 4, true);
    assert_eq!(warm.len(), 2 * cold.len());
    for (i, name) in GOLDEN.iter().enumerate() {
        assert_eq!(
            warm[i],
            warm[i + GOLDEN.len()],
            "{name}: cache hit produced a different digest than the computing run"
        );
        assert_eq!(
            warm[i], cold[i],
            "{name}: cached digest diverged from the no-cache serial reference"
        );
    }
}
