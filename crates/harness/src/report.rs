//! The structured perf/quality report (`BENCH_harness.json`).
//!
//! Serialized with the workspace's hand-rolled JSON module
//! ([`ravel_trace::json`]) so offline builds never need serde. Schema
//! (version 8 — see [`SCHEMA_VERSION`] for what each version added):
//!
//! ```json
//! {
//!   "schema": 8,
//!   "jobs": 8,
//!   "total_wall_ms": 12345.678,          // omitted when timing is off
//!   "total_cells": 189,
//!   "unique_cells": 161,                 // distinct content addresses
//!   "executed": 161,                     // omitted when timing is off
//!   "cache_hits": 28,                    // omitted when timing is off
//!   "busy_ms": 10234.5,                  // omitted when timing is off
//!   "sim_seconds": 7560.0,
//!   "sim_seconds_per_second": 612.3,     // omitted when timing is off
//!   "events_total": 123456789,
//!   "events_per_second": 1.0e7,          // omitted when timing is off
//!   "experiments": [
//!     {
//!       "id": "e1",
//!       "title": "...",
//!       "events": 1234567,               // aggregate over the cells
//!       "events_per_sec": 5.6e6,          // omitted when timing is off
//!       "cells": [
//!         {
//!           "label": "talking-head/4->2.00M/gcc",
//!           "sim_secs": 40.0,
//!           "status": "ok",              // ok | panicked | timed_out | runaway
//!           "failure": "...",            // only when status != ok
//!           "failure_digest": "9f2c...", // only when status != ok (16 hex)
//!           "wall_ms": 812.402,           // omitted when timing is off
//!           "cache_hit": false,           // omitted when timing is off
//!           "events": 654321,            // simulation events processed
//!           "events_per_sec": 805412.0,   // omitted when timing is off
//!           "controller": "nada",        // E22 arena cells only
//!           "mean_ms": 123.4,            // session-wide mean G2G latency
//!           "p50_ms": 98.7,
//!           "p95_ms": 310.0,
//!           "ssim": 0.9312,
//!           "rejected": 2,               // non-finite samples rejected
//!                                        // by the metrics collectors;
//!                                        // omitted when zero
//!           "rejected_reports": 14,      // feedback reports the sender's
//!                                        // validator refused; omitted
//!                                        // when zero
//!           "rejected_by_reason": {      // per-reason breakdown, fixed
//!             "seq-warp": 9,             // order; omitted when empty
//!             "non-monotone-time": 5
//!           },
//!           "feedback_corrupted": 17,    // reports mutated in flight;
//!                                        // omitted when zero
//!           "plis_suppressed": 1,        // PLIs rendered unparseable;
//!                                        // omitted when zero
//!           "contracts": [               // recovery-contract verdicts;
//!             {"name": "recover-rate",   // omitted when the cell
//!              "pass": true,             // declares no contract
//!              "detail": "..."}
//!           ],
//!           "violations": []             // broken session invariants
//!         }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! **Timing and cache fields are host- or schedule-dependent** — which
//! grid position computes versus hits the cache depends on worker
//! scheduling, and `executed`/`cache_hits`/`busy_ms` change with
//! `--no-cache` — so [`render_json`] can omit them all
//! (`with_timing = false`). Everything that remains (`total_cells`,
//! `unique_cells`, per-cell `events`, every quality metric) is
//! byte-identical for a given grid regardless of `--jobs` *and*
//! regardless of whether the cache is on, which is what the determinism
//! tests and the CI gate compare.
//!
//! Per-cell `wall_ms` semantics: the wall clock of the cell's *first*
//! execution. Duplicated grid positions echo the computing run's wall,
//! so identical cells always report identical `wall_ms` instead of the
//! near-zero cost of sharing a result — and a cell's number no longer
//! wobbles with which experiment happened to claim it first.

use std::time::Duration;

use ravel_trace::json::Json;

use crate::experiments::ExperimentRun;
use crate::pool::{CellRun, PoolStats};

/// Report schema version. Version 3 added the per-cell `violations`
/// array (session-invariant breaches, deterministic strings). Version 4
/// added the per-cell `status` plus, on failing cells, the `failure`
/// detail and its deterministic `failure_digest` — all inside the
/// timing-free byte-identity contract, since panic and runaway
/// failures carry only simulation-derived content. Version 5 added the
/// per-experiment aggregate `events` count (timing-free, deterministic)
/// and the timing-gated `events_per_sec` aggregate throughput, so the
/// multi-session kernel's event volume can be gated per experiment
/// without summing cells by hand. Version 6 added the timing-gated
/// `allocs_avoided` / `arena_high_water` counters of the event-payload
/// arena; the arena and both fields are gone, and since they never
/// appeared in the timing-free rendering the version was not bumped
/// for their removal. Version 7 added the control-plane corruption
/// block — per-cell `rejected_reports`, `rejected_by_reason`,
/// `feedback_corrupted`, `plis_suppressed` (each omitted when
/// zero/empty, so clean grids keep their old byte layout) — and the
/// per-cell `contracts` verdict array for cells that declare a recovery
/// contract. All of it is deterministic simulation fact, inside the
/// timing-free byte-identity contract. Version 8 added the per-cell
/// `controller` field naming the E22 arena controller (`nada`, `bbr`,
/// `loss-ema`); it is omitted for the pre-arena kinds (GCC, fixed,
/// naive-aimd), so every e1–e21 cell keeps its version-7 byte layout.
pub const SCHEMA_VERSION: f64 = 8.0;

/// A whole harness invocation: every experiment that ran, plus pool
/// accounting.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Worker thread count the grid ran with.
    pub jobs: usize,
    /// Wall-clock of the whole suite (pool start to last assembly).
    pub total_wall: Duration,
    /// Shared-pool accounting: unique/executed/hit counts and summed
    /// worker busy time.
    pub stats: PoolStats,
    /// Finished experiments in canonical order.
    pub experiments: Vec<ExperimentRun>,
}

impl RunReport {
    /// Total simulated seconds across every cell.
    pub fn sim_seconds(&self) -> f64 {
        self.experiments
            .iter()
            .flat_map(|e| &e.cells)
            .map(|c| c.sim_secs)
            .sum()
    }

    /// Simulated-seconds-per-wall-second throughput of the whole run.
    pub fn sim_rate(&self) -> f64 {
        let wall = self.total_wall.as_secs_f64();
        if wall > 0.0 {
            self.sim_seconds() / wall
        } else {
            0.0
        }
    }

    /// Total simulation events across every grid position (duplicated
    /// cells count every time — this is the grid's event volume, not
    /// the executed volume).
    pub fn events_total(&self) -> u64 {
        self.experiments
            .iter()
            .flat_map(|e| &e.cells)
            .map(|c| c.result.events_processed)
            .sum()
    }

    /// Events-per-wall-second throughput of the whole run.
    pub fn events_rate(&self) -> f64 {
        let wall = self.total_wall.as_secs_f64();
        if wall > 0.0 {
            self.events_total() as f64 / wall
        } else {
            0.0
        }
    }
}

/// Rounds to 3 decimals so JSON numbers stay short and stable.
fn r3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn cell_json(cell: &CellRun, with_timing: bool) -> Json {
    let mut fields = vec![
        ("label".to_string(), Json::Str(cell.label.clone())),
        ("sim_secs".to_string(), Json::Num(r3(cell.sim_secs))),
        (
            "status".to_string(),
            Json::Str(cell.status.name().to_string()),
        ),
    ];
    // Schema 8: the arena controller, present only for the E22 kinds so
    // e1–e21 cells keep their version-7 byte layout.
    if let Some(controller) = cell.controller {
        fields.push(("controller".to_string(), Json::Str(controller.to_string())));
    }
    // The failure detail and its digest are deterministic (panic
    // messages and runaway details carry only simulation values), so
    // they live inside the timing-free contract alongside `status`.
    if let Some(failure) = &cell.failure {
        fields.push(("failure".to_string(), Json::Str(failure.detail.clone())));
        fields.push(("failure_digest".to_string(), Json::Str(failure.digest())));
    }
    if with_timing {
        fields.push((
            "wall_ms".to_string(),
            Json::Num(r3(cell.wall.as_secs_f64() * 1e3)),
        ));
        fields.push(("cache_hit".to_string(), Json::Bool(cell.cache_hit)));
    }
    // Panicked and timed-out cells produced no measurements — their
    // stand-in result is all zeros — so the metric fields are omitted
    // rather than rendered as meaningless NaN/0 values. Runaway cells
    // keep theirs: the truncated prefix is real, deterministic data.
    if cell.status.has_metrics() {
        let all = cell.result.recorder.summarize_all();
        fields.push((
            "events".to_string(),
            Json::Num(cell.result.events_processed as f64),
        ));
        if with_timing {
            let wall = cell.wall.as_secs_f64();
            let rate = if wall > 0.0 {
                cell.result.events_processed as f64 / wall
            } else {
                0.0
            };
            fields.push(("events_per_sec".to_string(), Json::Num(r3(rate))));
        }
        fields.extend([
            ("mean_ms".to_string(), Json::Num(r3(all.mean_latency_ms))),
            ("p50_ms".to_string(), Json::Num(r3(all.p50_latency_ms))),
            ("p95_ms".to_string(), Json::Num(r3(all.p95_latency_ms))),
            ("ssim".to_string(), Json::Num(r3(all.mean_ssim))),
        ]);
        // Non-finite samples the metrics collectors rejected. These used to
        // be counted inside `RunningStats`/`Percentiles` and then silently
        // dropped on the floor here, so a NaN-emitting session produced a
        // clean-looking report. Emitted only when nonzero: healthy grids
        // stay byte-identical to earlier reports.
        if all.rejected > 0 {
            fields.push(("rejected".to_string(), Json::Num(all.rejected as f64)));
        }
        // Schema 7: the control-plane corruption block. Every field is
        // omitted when zero/empty so grids without corruption keep the
        // exact byte layout they had before the schema existed.
        let r = &cell.result;
        if r.rejected_reports > 0 {
            fields.push((
                "rejected_reports".to_string(),
                Json::Num(r.rejected_reports as f64),
            ));
        }
        if !r.rejected_by_reason.is_empty() {
            fields.push((
                "rejected_by_reason".to_string(),
                Json::Obj(
                    r.rejected_by_reason
                        .iter()
                        .map(|&(reason, n)| (reason.to_string(), Json::Num(n as f64)))
                        .collect(),
                ),
            ));
        }
        if r.feedback_corrupted > 0 {
            fields.push((
                "feedback_corrupted".to_string(),
                Json::Num(r.feedback_corrupted as f64),
            ));
        }
        if r.plis_suppressed > 0 {
            fields.push((
                "plis_suppressed".to_string(),
                Json::Num(r.plis_suppressed as f64),
            ));
        }
    }
    // Schema 7: recovery-contract verdicts, present only for cells that
    // declare a contract. Pure derivation from the session result, so
    // fully deterministic and timing-free.
    if !cell.contracts.is_empty() {
        fields.push((
            "contracts".to_string(),
            Json::Arr(
                cell.contracts
                    .iter()
                    .map(|v| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(v.name.to_string())),
                            ("pass".to_string(), Json::Bool(v.pass)),
                            ("detail".to_string(), Json::Str(v.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    // Invariant violations are pure simulation facts (deterministic
    // detail strings, no wall-clock content), so they belong in the
    // timing-free rendering too — the CI chaos gate greps for them.
    fields.push((
        "violations".to_string(),
        Json::Arr(
            cell.result
                .violations
                .iter()
                .map(|v| Json::Str(v.to_string()))
                .collect(),
        ),
    ));
    Json::Obj(fields)
}

/// Serializes the report. With `with_timing = false` every wall-clock
/// field is omitted and the result is deterministic for a given grid.
pub fn render_json(report: &RunReport, with_timing: bool) -> String {
    let mut fields = vec![
        ("schema".to_string(), Json::Num(SCHEMA_VERSION)),
        ("jobs".to_string(), Json::Num(report.jobs as f64)),
    ];
    if with_timing {
        fields.push((
            "total_wall_ms".to_string(),
            Json::Num(r3(report.total_wall.as_secs_f64() * 1e3)),
        ));
    }
    fields.push((
        "total_cells".to_string(),
        Json::Num(report.stats.total_cells as f64),
    ));
    fields.push((
        "unique_cells".to_string(),
        Json::Num(report.stats.unique_cells as f64),
    ));
    if with_timing {
        fields.push((
            "executed".to_string(),
            Json::Num(report.stats.executed as f64),
        ));
        fields.push((
            "cache_hits".to_string(),
            Json::Num(report.stats.cache_hits as f64),
        ));
        fields.push((
            "busy_ms".to_string(),
            Json::Num(r3(report.stats.busy.as_secs_f64() * 1e3)),
        ));
    }
    fields.push((
        "sim_seconds".to_string(),
        Json::Num(r3(report.sim_seconds())),
    ));
    if with_timing {
        fields.push((
            "sim_seconds_per_second".to_string(),
            Json::Num(r3(report.sim_rate())),
        ));
    }
    fields.push((
        "events_total".to_string(),
        Json::Num(report.events_total() as f64),
    ));
    if with_timing {
        fields.push((
            "events_per_second".to_string(),
            Json::Num(r3(report.events_rate())),
        ));
    }
    let experiments = report
        .experiments
        .iter()
        .map(|e| {
            let mut exp_fields = vec![
                ("id".to_string(), Json::Str(e.id.to_string())),
                ("title".to_string(), Json::Str(e.title.to_string())),
            ];
            // Schema 5: the experiment's aggregate event volume, the
            // sum over its grid positions. Deterministic (simulation
            // counts only), so it lives in the timing-free contract.
            let events: u64 = e.cells.iter().map(|c| c.result.events_processed).sum();
            exp_fields.push(("events".to_string(), Json::Num(events as f64)));
            if with_timing {
                // Aggregate throughput against summed per-cell wall —
                // the single-worker-equivalent rate, independent of
                // `--jobs` overlap.
                let wall: f64 = e.cells.iter().map(|c| c.wall.as_secs_f64()).sum();
                let rate = if wall > 0.0 {
                    events as f64 / wall
                } else {
                    0.0
                };
                exp_fields.push(("events_per_sec".to_string(), Json::Num(r3(rate))));
            }
            exp_fields.push((
                "cells".to_string(),
                Json::Arr(e.cells.iter().map(|c| cell_json(c, with_timing)).collect()),
            ));
            Json::Obj(exp_fields)
        })
        .collect();
    fields.push(("experiments".to_string(), Json::Arr(experiments)));
    let mut out = Json::Obj(fields).render();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{e16, run_suite_opts};
    use crate::pool::PoolOptions;
    use ravel_trace::json::parse;

    #[test]
    fn report_parses_and_has_per_cell_metrics() {
        let exps = [e16()];
        let (runs, stats) = run_suite_opts(&exps, 4, PoolOptions::default());
        let report = RunReport {
            jobs: 4,
            total_wall: Duration::from_millis(500),
            stats,
            experiments: runs,
        };
        let timed = render_json(&report, true);
        let doc = parse(&timed).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_f64), Some(8.0));
        assert_eq!(doc.get("total_cells").and_then(Json::as_f64), Some(3.0));
        assert!(doc.get("unique_cells").and_then(Json::as_f64).is_some());
        assert!(doc.get("executed").and_then(Json::as_f64).is_some());
        assert!(doc.get("cache_hits").and_then(Json::as_f64).is_some());
        assert!(doc.get("busy_ms").is_some());
        assert!(doc.get("events_total").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(doc.get("events_per_second").is_some());
        let exps_json = doc.get("experiments").and_then(Json::as_array).unwrap();
        assert_eq!(exps_json.len(), 1);
        // Schema 5: per-experiment aggregate events + throughput.
        let exp_events = exps_json[0].get("events").and_then(Json::as_f64).unwrap();
        assert!(exp_events > 0.0);
        assert!(exps_json[0].get("events_per_sec").is_some());
        let cells = exps_json[0].get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells.len(), 3);
        assert!(cells[0].get("wall_ms").is_some());
        assert!(cells[0].get("cache_hit").is_some());
        assert!(cells[0].get("events").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(cells[0].get("events_per_sec").is_some());
        assert!(cells[0].get("p95_ms").and_then(Json::as_f64).is_some());
        assert_eq!(cells[0].get("sim_secs").and_then(Json::as_f64), Some(45.0));
        // Clean cells report ok status with no failure fields (schema 4).
        assert_eq!(
            cells[0].get("status").and_then(Json::as_str),
            Some("ok"),
            "{timed}"
        );
        assert!(cells[0].get("failure").is_none());
        assert!(cells[0].get("failure_digest").is_none());
        // Schema 8: pre-arena (GCC) cells omit the controller field.
        assert!(cells[0].get("controller").is_none());
        // Clean cells carry an empty violations array (schema 3).
        let v = cells[0].get("violations").and_then(Json::as_array).unwrap();
        assert!(v.is_empty());

        // Timing-free rendering drops every wall-clock, schedule- or
        // cache-dependent field; deterministic fields survive.
        let bare = render_json(&report, false);
        let doc = parse(&bare).unwrap();
        assert!(doc.get("total_wall_ms").is_none());
        assert!(doc.get("sim_seconds_per_second").is_none());
        assert!(doc.get("executed").is_none());
        assert!(doc.get("cache_hits").is_none());
        assert!(doc.get("busy_ms").is_none());
        assert!(doc.get("allocs_avoided").is_none());
        assert!(doc.get("arena_high_water").is_none());
        assert!(doc.get("events_per_second").is_none());
        assert!(doc.get("unique_cells").is_some());
        assert!(doc.get("events_total").is_some());
        let exp = &doc.get("experiments").and_then(Json::as_array).unwrap()[0];
        // The experiment aggregate survives timing-free (deterministic
        // count) and equals the sum of its per-cell events; only the
        // throughput field drops.
        assert!(exp.get("events_per_sec").is_none());
        let cells = exp.get("cells").and_then(Json::as_array).unwrap();
        let cell_sum: f64 = cells
            .iter()
            .map(|c| c.get("events").and_then(Json::as_f64).unwrap())
            .sum();
        assert_eq!(exp.get("events").and_then(Json::as_f64), Some(cell_sum));
        assert!(cells[0].get("wall_ms").is_none());
        assert!(cells[0].get("cache_hit").is_none());
        assert!(cells[0].get("events_per_sec").is_none());
        assert!(cells[0].get("events").is_some());
        assert!(cells[0].get("violations").is_some());
        // Healthy cells reject nothing, so the field stays omitted and
        // clean reports keep their pre-schema-addition byte layout.
        assert!(cells[0].get("rejected").is_none());
    }

    #[test]
    fn failing_cells_render_status_failure_and_digest() {
        use crate::cell::{Cell, TraceSpec};
        use crate::pool::{run_cells_opts, CellStatus};
        use ravel_pipeline::{InjectedFault, Scheme, SessionConfig};
        use ravel_sim::{Dur, Time};

        let mk = |label: &str, inject| {
            let mut cfg = SessionConfig::default_with(Scheme::baseline());
            cfg.duration = Dur::secs(4);
            cfg.inject = inject;
            Cell {
                label: label.into(),
                trace: TraceSpec::Constant(3e6),
                cfg,
                contracts: None,
            }
        };
        let cells = vec![
            mk("ok", InjectedFault::None),
            mk(
                "boom",
                InjectedFault::Panic {
                    at: Time::from_secs(1),
                },
            ),
            mk(
                "spin",
                InjectedFault::Runaway {
                    at: Time::from_secs(1),
                },
            ),
        ];
        let (runs, stats) = run_cells_opts(&cells, 2, PoolOptions::default());
        assert_eq!(runs[1].status, CellStatus::Panicked);
        assert_eq!(runs[2].status, CellStatus::Runaway);
        let report = RunReport {
            jobs: 2,
            total_wall: Duration::ZERO,
            stats,
            experiments: vec![crate::experiments::ExperimentRun {
                id: "fx",
                title: "fixtures",
                output: crate::experiments::Output::Text(String::new()),
                cells: runs,
            }],
        };
        let rendered = render_json(&report, false);
        let doc = parse(&rendered).unwrap();
        let cells = doc.get("experiments").and_then(Json::as_array).unwrap()[0]
            .get("cells")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(cells[0].get("status").and_then(Json::as_str), Some("ok"));
        let boom = &cells[1];
        assert_eq!(boom.get("status").and_then(Json::as_str), Some("panicked"));
        assert_eq!(
            boom.get("failure").and_then(Json::as_str),
            Some("injected panic fixture at 1.000000")
        );
        let digest = boom.get("failure_digest").and_then(Json::as_str).unwrap();
        assert_eq!(digest.len(), 16);
        // Panicked cells carry no metric fields.
        assert!(boom.get("mean_ms").is_none());
        assert!(boom.get("events").is_none());
        // Runaway cells keep their truncated (deterministic) metrics
        // and surface the guard's violation.
        let spin = &cells[2];
        assert_eq!(spin.get("status").and_then(Json::as_str), Some("runaway"));
        assert!(spin.get("events").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(spin
            .get("violations")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .any(|v| v.as_str().unwrap().starts_with("runaway-termination")));
        // The timing-free rendering of a failing grid is reproducible.
        assert_eq!(rendered, render_json(&report, false));
    }

    #[test]
    fn corruption_block_and_contracts_render_in_schema_8() {
        use crate::experiments::e21;

        let exps = [e21()];
        let (runs, stats) = run_suite_opts(&exps, 4, PoolOptions::default());
        let report = RunReport {
            jobs: 4,
            total_wall: Duration::ZERO,
            stats,
            experiments: runs,
        };
        let rendered = render_json(&report, false);
        let doc = parse(&rendered).unwrap();
        let cells = doc.get("experiments").and_then(Json::as_array).unwrap()[0]
            .get("cells")
            .and_then(Json::as_array)
            .unwrap();
        // Every E21 cell declares the contract, so all four verdicts
        // render per cell.
        for cell in cells {
            let contracts = cell.get("contracts").and_then(Json::as_array).unwrap();
            assert_eq!(contracts.len(), 4);
            for v in contracts {
                assert!(v.get("name").and_then(Json::as_str).is_some());
                assert!(v.get("pass").is_some());
                assert!(v.get("detail").and_then(Json::as_str).is_some());
            }
        }
        // The validator's work is visible: across the grid at least one
        // cell reports rejections with a per-reason breakdown.
        let any_rejected = cells.iter().any(|c| {
            c.get("rejected_reports")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                > 0.0
                && c.get("rejected_by_reason").is_some()
        });
        assert!(any_rejected, "{rendered}");
        let any_corrupted = cells.iter().any(|c| {
            c.get("feedback_corrupted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                > 0.0
        });
        assert!(any_corrupted, "{rendered}");
        // Deterministic timing-free rendering.
        assert_eq!(rendered, render_json(&report, false));
    }

    #[test]
    fn rejected_counter_reaches_the_per_cell_report() {
        // Regression: `RunningStats`/`Percentiles` counted rejected
        // non-finite samples, but the per-cell JSON dropped the
        // count — a NaN-emitting session rendered indistinguishable from
        // a clean one.
        use ravel_metrics::{FrameOutcomeKind, FrameRecord, LatencyRecorder};
        use ravel_sim::{Dur, Time};

        let exps = [e16()];
        let (mut runs, stats) = run_suite_opts(&exps, 1, PoolOptions::default());
        let mut poisoned = LatencyRecorder::new();
        poisoned.push(FrameRecord {
            pts: Time::ZERO,
            outcome: FrameOutcomeKind::Displayed,
            latency: Some(Dur::millis(40)),
            ssim: f64::NAN,
            psnr_db: Some(f64::NEG_INFINITY),
        });
        std::sync::Arc::make_mut(&mut runs[0].cells[0].result).recorder = poisoned;
        let report = RunReport {
            jobs: 1,
            total_wall: Duration::ZERO,
            stats,
            experiments: runs,
        };
        let doc = parse(&render_json(&report, false)).unwrap();
        let cells = doc.get("experiments").and_then(Json::as_array).unwrap()[0]
            .get("cells")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(cells[0].get("rejected").and_then(Json::as_f64), Some(2.0));
        assert!(cells[1].get("rejected").is_none());
    }
}
