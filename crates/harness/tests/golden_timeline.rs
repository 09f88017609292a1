//! Golden-timeline snapshot tests.
//!
//! Seven representative cells — the first grid position of E1 (sudden
//! drop), E3 (scheme comparison), E17 (feedback impairment + watchdog),
//! E18 (data-plane chaos), E21 (control-plane feedback corruption),
//! plus the NADA and BBR adaptive drop cells of the E22 controller
//! arena — run with `--obs full` over a shortened
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

use std::fs;
use std::path::PathBuf;

use ravel_harness::{
    experiments, run_suite_opts, BatchMode, Cell, CellRun, Experiment, ObsMode, Output, PoolOptions,
};
use ravel_sim::Dur;

/// Session length for the golden cells: long enough to cross the E1/E3
/// drop at t=10 s (and several chaos segments for E18), short enough to
/// keep the snapshots readable and the test fast.
const GOLDEN_LEN: Dur = Dur::secs(12);

const GOLDEN: [&str; 7] = ["e1", "e3", "e17", "e18", "e21", "e22-nada", "e22-bbr"];

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
    ]
}

#[test]
fn golden_arena_cells_are_the_intended_grid_positions() {
    // Guard the hard-coded indices above against E22 grid reordering.
    let e22 = experiments::e22();
    assert_eq!(e22.cells[7].label, "arena/nada/drop/adpt");
    assert_eq!(e22.cells[13].label, "arena/bbr/drop/adpt");
}

fn assemble(_: &Experiment, _: &[CellRun]) -> Output {
    Output::Text(String::new())
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
        assemble,
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

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.digest"))
}

#[test]
fn digests_match_checked_in_snapshots() {
    let got = digests(golden_cells(), 1, true);
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for (name, digest) in GOLDEN.iter().zip(&got) {
        let path = golden_path(name);
        if update {
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, digest).unwrap();
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {path:?} ({e}); \
                 regenerate with UPDATE_GOLDEN=1"
            )
        });
        assert_eq!(
            digest, &want,
            "{name} timeline digest diverged from {path:?}; \
             if the change is intentional, regenerate with UPDATE_GOLDEN=1"
        );
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
    // The golden cells share one duration class, so `Fixed(8)` drives
    // all four through a single interleaved kernel population.
    // Full-observability digests must match the per-cell oracle
    // byte-for-byte.
    let oracle = digests_batched(golden_cells(), 1, false, BatchMode::Fixed(1));
    for jobs in [1, 4] {
        for batch in [BatchMode::Fixed(8), BatchMode::Auto] {
            let got = digests_batched(golden_cells(), jobs, false, batch);
            assert_eq!(
                oracle, got,
                "digests diverged from --batch 1 (jobs={jobs}, batch={batch:?})"
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
