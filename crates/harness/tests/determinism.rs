//! The harness determinism gate: the same grid must produce
//! byte-identical tables and JSON at any `--jobs` count.

use std::time::Duration;

use ravel_harness::{
    experiments, render_json, run_suite, run_suite_opts, BatchMode, Cell, Experiment,
    ExperimentRun, Output, PoolOptions, RunReport, TraceSpec,
};
use ravel_metrics::Table;
use ravel_pipeline::{Scheme, SessionConfig};
use ravel_sim::{Dur, Time};

/// A small but non-trivial grid: 2 schemes × 2 drop severities over a
/// short session, exercising the same expansion/assembly machinery as
/// the full suite while staying fast enough for `cargo test`.
fn smoke_grid() -> Experiment {
    let mut cells = Vec::new();
    for after_bps in [2e6, 1e6] {
        for scheme in [Scheme::baseline(), Scheme::adaptive()] {
            let mut cfg = SessionConfig::default_with(scheme);
            cfg.duration = Dur::secs(8);
            cells.push(Cell {
                label: format!("4->{:.0}M/{}", after_bps / 1e6, scheme.name()),
                trace: TraceSpec::SuddenDrop {
                    pre_bps: 4e6,
                    after_bps,
                    at: Time::from_secs(3),
                },
                cfg,
                contracts: None,
            });
        }
    }
    fn assemble(runs: &[ravel_harness::CellRun]) -> Output {
        let mut t = Table::new(&["cell", "mean_ms", "p95_ms", "ssim", "frames"]);
        for run in runs {
            let s = run.result.recorder.summarize_all();
            t.row_owned(vec![
                run.label.clone(),
                format!("{:.2}", s.mean_latency_ms),
                format!("{:.2}", s.p95_latency_ms),
                format!("{:.4}", s.mean_ssim),
                run.result.frames_captured.to_string(),
            ]);
        }
        Output::Table(t)
    }
    Experiment::new("smoke", "determinism smoke grid", cells, assemble)
}

fn run_at(jobs: usize) -> (String, String) {
    run_at_opts(jobs, PoolOptions::default())
}

fn run_at_opts(jobs: usize, opts: PoolOptions) -> (String, String) {
    let exps = [smoke_grid()];
    let (runs, stats): (Vec<ExperimentRun>, _) = run_suite_opts(&exps, jobs, opts);
    let rendered: String = runs
        .iter()
        .map(|r| format!("=== {} ===\n{}", r.id, r.output.render()))
        .collect();
    let report = RunReport {
        jobs,
        total_wall: Duration::ZERO,
        stats,
        experiments: runs,
    };
    (rendered, render_json(&report, false))
}

#[test]
fn output_is_byte_identical_across_job_counts() {
    let (table_1, _) = run_at(1);
    assert!(table_1.contains("4->1M/gcc+adaptive"), "{table_1}");
    for jobs in [2, 8] {
        let (table_n, _) = run_at(jobs);
        assert_eq!(
            table_1, table_n,
            "tables diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn timing_free_json_is_byte_identical_across_job_counts() {
    // `jobs` is part of the report header, so compare the grids at equal
    // jobs after exercising different pool widths — plus cross-width
    // with the header stripped.
    let (_, json_1) = run_at(1);
    let (_, json_8) = run_at(8);
    let strip = |s: &str| {
        s.replacen("\"jobs\":1,", "", 1)
            .replacen("\"jobs\":8,", "", 1)
    };
    assert_eq!(strip(&json_1), strip(&json_8));

    let (_, json_1_again) = run_at(1);
    assert_eq!(json_1, json_1_again);
}

#[test]
fn cached_output_matches_no_cache_serial_reference_exactly() {
    // The acceptance bar for the cell cache: tables AND timing-free
    // JSON from a cached run at any pool width are byte-identical to a
    // --no-cache serial run. The smoke grid is doubled so half the
    // positions are guaranteed cache hits.
    let base = smoke_grid();
    let mut cells = base.cells.clone();
    cells.extend(base.cells.iter().map(|c| Cell {
        label: c.label.clone(),
        ..c.clone()
    }));
    fn assemble(runs: &[ravel_harness::CellRun]) -> Output {
        let mut out = String::new();
        for run in runs {
            let s = run.result.recorder.summarize_all();
            out.push_str(&format!(
                "{} mean={:.3} p95={:.3} events={}\n",
                run.label, s.mean_latency_ms, s.p95_latency_ms, run.result.events_processed
            ));
        }
        Output::Text(out)
    }
    let mk = || {
        [Experiment::new(
            "dup",
            "doubled smoke grid",
            cells.clone(),
            assemble,
        )]
    };

    let run_with = |jobs, use_cache| {
        let opts = PoolOptions {
            use_cache,
            ..PoolOptions::default()
        };
        let (runs, stats) = run_suite_opts(&mk(), jobs, opts);
        let rendered = runs[0].output.render();
        let report = RunReport {
            jobs: 1, // pin the header so JSON compares across widths
            total_wall: Duration::ZERO,
            stats,
            experiments: runs,
        };
        (rendered, render_json(&report, false), stats)
    };

    let (ref_table, ref_json, cold) = run_with(1, false);
    assert_eq!(cold.executed, cells.len(), "--no-cache must run everything");
    for jobs in [1, 2, 8] {
        let (table, json, stats) = run_with(jobs, true);
        assert_eq!(
            stats.executed, stats.unique_cells,
            "jobs={jobs}: each unique cell must execute exactly once"
        );
        assert_eq!(stats.unique_cells * 2, stats.total_cells);
        assert_eq!(table, ref_table, "jobs={jobs}: cached table diverged");
        assert_eq!(json, ref_json, "jobs={jobs}: cached JSON diverged");
    }
}

#[test]
fn batched_output_matches_batch_1_oracle_exactly() {
    // The pool runs one cell per kernel call whatever `BatchMode` says;
    // the benchmark relies on every mode giving the `Fixed(1)` bytes.
    // Every mode must reproduce the `Fixed(1)` tables and timing-free
    // JSON byte-for-byte — at any pool width, with the cache on or off.
    // The grid is doubled so the cached runs exercise memo waits.
    let base = smoke_grid();
    let mut cells = base.cells.clone();
    cells.extend(base.cells.iter().cloned());
    let mk = || {
        [Experiment::new(
            "batched",
            "doubled smoke grid",
            cells.clone(),
            smoke_assemble,
        )]
    };

    let run_with = |jobs, batch, use_cache| {
        let opts = PoolOptions {
            use_cache,
            batch,
            ..PoolOptions::default()
        };
        let (runs, stats) = run_suite_opts(&mk(), jobs, opts);
        let rendered = runs[0].output.render();
        let report = RunReport {
            jobs: 1, // pin the header so JSON compares across widths
            total_wall: Duration::ZERO,
            stats,
            experiments: runs,
        };
        (rendered, render_json(&report, false), stats)
    };

    for use_cache in [false, true] {
        let (ref_table, ref_json, _) = run_with(1, BatchMode::Fixed(1), use_cache);
        for jobs in [1, 2, 8] {
            for batch in [BatchMode::Fixed(1), BatchMode::Fixed(8), BatchMode::Auto] {
                let (table, json, stats) = run_with(jobs, batch, use_cache);
                assert_eq!(
                    table, ref_table,
                    "table diverged from the Fixed(1) oracle \
                     (jobs={jobs}, batch={batch:?}, cache={use_cache})"
                );
                assert_eq!(
                    json, ref_json,
                    "timing-free JSON diverged from the Fixed(1) oracle \
                     (jobs={jobs}, batch={batch:?}, cache={use_cache})"
                );
                if use_cache {
                    assert_eq!(
                        stats.executed, stats.unique_cells,
                        "jobs={jobs}, batch={batch:?}: each unique cell \
                         must execute exactly once"
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_duration_grid_batches_without_divergence() {
    // A grid that interleaves 6 s and 8 s cells must give the
    // `Fixed(1)` bytes under every `BatchMode`.
    let mut cells = Vec::new();
    for (i, secs) in [8u64, 6, 8, 6, 6, 8, 8, 6, 6, 8].iter().enumerate() {
        let scheme = if i % 2 == 0 {
            Scheme::baseline()
        } else {
            Scheme::adaptive()
        };
        let mut cfg = SessionConfig::default_with(scheme);
        cfg.duration = Dur::secs(*secs);
        cells.push(Cell {
            label: format!("mix{i}/{secs}s/{}", scheme.name()),
            trace: TraceSpec::SuddenDrop {
                pre_bps: 4e6,
                after_bps: 1.2e6,
                at: Time::from_secs(2),
            },
            cfg,
            contracts: None,
        });
    }
    let mk = || {
        [Experiment::new(
            "mixed",
            "mixed-duration grid",
            cells.clone(),
            smoke_assemble,
        )]
    };
    let run_with = |jobs, batch| {
        let opts = PoolOptions {
            batch,
            ..PoolOptions::default()
        };
        let (runs, stats) = run_suite_opts(&mk(), jobs, opts);
        let rendered = runs[0].output.render();
        let report = RunReport {
            jobs: 1,
            total_wall: Duration::ZERO,
            stats,
            experiments: runs,
        };
        (rendered, render_json(&report, false))
    };
    let reference = run_with(1, BatchMode::Fixed(1));
    for jobs in [1, 2, 8] {
        for batch in [BatchMode::Fixed(4), BatchMode::Fixed(8), BatchMode::Auto] {
            assert_eq!(
                run_with(jobs, batch),
                reference,
                "mixed-duration grid diverged (jobs={jobs}, batch={batch:?})"
            );
        }
    }
}

fn smoke_assemble(runs: &[ravel_harness::CellRun]) -> Output {
    let mut out = String::new();
    for run in runs {
        let s = run.result.recorder.summarize_all();
        out.push_str(&format!(
            "{} mean={:.3} p95={:.3} events={}\n",
            run.label, s.mean_latency_ms, s.p95_latency_ms, run.result.events_processed
        ));
    }
    Output::Text(out)
}

#[test]
fn chaos_sweep_is_byte_identical_across_job_counts() {
    // The chaos grid must meet the same determinism bar as the
    // experiment grid: same (seed0, n) sweep → byte-identical table and
    // timing-free JSON at any pool width, and the canonical sweep runs
    // violation-free.
    let run_at = |jobs: usize| {
        let exps = [experiments::chaos_sweep(6, 7)];
        let (runs, stats) = run_suite_opts(&exps, jobs, PoolOptions::default());
        let rendered = runs[0].output.render();
        let report = RunReport {
            jobs,
            total_wall: Duration::ZERO,
            stats,
            experiments: runs,
        };
        (rendered, render_json(&report, false))
    };
    let (table_1, json_1) = run_at(1);
    assert!(table_1.contains("chaos/seed7/i0.25"), "{table_1}");
    assert!(table_1.contains("0 violating cells"), "{table_1}");
    assert!(json_1.contains("\"violations\":[]"), "{json_1}");
    for jobs in [2, 8] {
        let (table_n, json_n) = run_at(jobs);
        assert_eq!(table_1, table_n, "chaos tables diverged at jobs={jobs}");
        let strip = |s: &str| {
            s.replacen("\"jobs\":1,", "", 1)
                .replacen(&format!("\"jobs\":{jobs},"), "", 1)
        };
        assert_eq!(
            strip(&json_1),
            strip(&json_n),
            "chaos JSON diverged at jobs={jobs}"
        );
    }
}

#[test]
fn fingerprints_are_injective_on_the_full_registry_grid() {
    // Property: over every cell of every registered experiment, equal
    // fingerprints imply equal canonical keys (no FNV collisions on the
    // real grid), and distinct canonical keys imply the specs really
    // differ. This is the map the cache relies on.
    use std::collections::HashMap;
    let exps = experiments::select("all").expect("registry");
    let mut by_fp: HashMap<u64, String> = HashMap::new();
    let mut cells_seen = 0usize;
    for e in &exps {
        for cell in &e.cells {
            cells_seen += 1;
            let key = cell.canonical_key();
            match by_fp.get(&cell.fingerprint()) {
                None => {
                    by_fp.insert(cell.fingerprint(), key);
                }
                Some(existing) => assert_eq!(
                    existing, &key,
                    "fingerprint collision between distinct cells in {}",
                    e.id
                ),
            }
        }
    }
    assert!(
        cells_seen > 100,
        "registry unexpectedly small: {cells_seen}"
    );
    // The registry is known to contain duplicates (E1 and E2 share
    // their entire grid): the address space must be strictly smaller
    // than the position count, or the cache would be pointless.
    assert!(
        by_fp.len() < cells_seen,
        "expected duplicate cells across the registry ({} unique of {})",
        by_fp.len(),
        cells_seen
    );
}

#[test]
fn full_registry_assembles_from_out_of_order_pool() {
    // E5 is one of the cheaper real grids that still has config tweaks
    // per cell (RTT sweep); it must survive a wide pool byte-for-byte.
    let exps = [experiments::e5()];
    let serial = run_suite(&exps, 1);
    let parallel = run_suite(&exps, 8);
    assert_eq!(serial[0].output.render(), parallel[0].output.render());
}
