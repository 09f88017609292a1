//! E1–E22 (DESIGN.md §5, plus the chaos, corruption and arena grids) expressed as harness
//! grids.
//!
//! Every experiment is a flat `Vec<Cell>` covering its full
//! cross-product plus one assembly closure that folds the per-cell
//! results, in cell order, back into the paper-style table or CSV.
//! Each builder walks its loop nest once: a table grid pushes every row
//! together with the cells it reads and a formatter that captures that
//! iteration's loop values, so expansion order and table layout cannot
//! drift apart. Formatters read results, never cells: the values a
//! row prints come from the loop that built it.
//!
//! Because cells are independent and assembly only sees results in cell
//! order, the rendered output is byte-identical at any `--jobs` count.
//! (E10, the per-call cost of the controller, encoder and GCC, is not a
//! session grid: `python3 perfbench/run.py --trace 1` reports it as the
//! `core.on_feedback_ns`, `core.on_frame_ns`, `codec.encode_ns` and
//! `cc.gcc.on_feedback_ns` layer metrics.)

use std::ops::Range;

use ravel_core::{AdaptiveConfig, WatchdogConfig};
use ravel_metrics::{LatencySummary, Table};
use ravel_net::{ChaosSchedule, ChaosSpec, CorruptSpec, ReversePathConfig};
use ravel_pipeline::{CcKind, ContractSpec, InjectedFault, Scheme, SessionConfig, SessionResult};
use ravel_sim::{Dur, Time};
use ravel_video::ContentClass;

use crate::cell::{Cell, TraceSpec};
use crate::pool::{run_cells_opts, CellRun, PoolOptions, PoolStats};

/// The canonical drop instant: 10 s into the session, after GCC has
/// converged.
pub const DROP_AT: Time = Time::from_secs(10);

/// The post-drop measurement window length.
pub const POST_WINDOW: Dur = Dur::secs(8);

/// The canonical pre-drop rate.
pub const PRE_RATE: f64 = 4e6;

/// Canonical session length for drop experiments.
pub const SESSION_LEN: Dur = Dur::secs(40);

/// The drop severities of the headline table: 4 Mbps falling to 2, 1.5
/// and 1 Mbps (2×, 2.7× and 4×) — the conditions whose measured
/// reductions bracket the paper's 28.66%–78.87% band.
const E1_AFTER_BPS: [f64; 3] = [2e6, 1.5e6, 1e6];

/// The `[DROP_AT, DROP_AT + POST_WINDOW)` measurement window.
pub fn window_after(result: &SessionResult) -> LatencySummary {
    result.recorder.summarize(DROP_AT, DROP_AT + POST_WINDOW)
}

/// Percent change from `base` to `new`, negative = improvement
/// (reduction).
pub fn pct_change(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

/// Formats a reduction (positive percentage = reduced by that much).
pub fn fmt_reduction(base: f64, new: f64) -> String {
    format!("{:.2}%", -pct_change(base, new))
}

/// What an experiment's assembly produces.
#[derive(Debug, Clone)]
pub enum Output {
    /// A paper-style table.
    Table(Table),
    /// Raw CSV text (the E3 figure series).
    Text(String),
}

impl Output {
    /// Renders for terminal display.
    pub fn render(&self) -> String {
        match self {
            Output::Table(t) => t.render(),
            Output::Text(s) => s.clone(),
        }
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        match self {
            Output::Table(t) => t.to_csv(),
            Output::Text(s) => s.clone(),
        }
    }

    /// The table, if this output is one.
    pub fn table(&self) -> Option<&Table> {
        match self {
            Output::Table(t) => Some(t),
            Output::Text(_) => None,
        }
    }
}

/// Folds per-cell results (in cell order) into an experiment's output.
type Assemble = Box<dyn Fn(&[CellRun]) -> Output + Send + Sync>;

/// One experiment: an id, a cell grid, and the assembly that folds the
/// grid's results back into its output.
pub struct Experiment {
    /// Short id, e.g. `"e1"`.
    pub id: &'static str,
    /// One-line description for `--list` and report headers.
    pub title: &'static str,
    /// The flat cell grid, in deterministic expansion order.
    pub cells: Vec<Cell>,
    assemble: Assemble,
}

impl Experiment {
    /// Builds a custom experiment from a cell grid and a function that
    /// folds the grid's results, in cell order, into its output.
    pub fn new(
        id: &'static str,
        title: &'static str,
        cells: Vec<Cell>,
        assemble: impl Fn(&[CellRun]) -> Output + Send + Sync + 'static,
    ) -> Experiment {
        Experiment {
            id,
            title,
            cells,
            assemble: Box::new(assemble),
        }
    }

    /// Folds per-cell results (in cell order) into the experiment's
    /// output.
    pub fn assemble(&self, runs: &[CellRun]) -> Output {
        assert_eq!(
            runs.len(),
            self.cells.len(),
            "{}: expected {} cell results, got {}",
            self.id,
            self.cells.len(),
            runs.len()
        );
        (self.assemble)(runs)
    }
}

/// A finished experiment: its output plus per-cell accounting.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Short id, e.g. `"e1"`.
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The assembled table/CSV.
    pub output: Output,
    /// Per-cell results in cell order.
    pub cells: Vec<CellRun>,
}

/// Runs several experiments through ONE shared pool (cells from all
/// experiments interleave freely across workers), then assembles each
/// experiment from its own slice of the results. Memoization is on;
/// see [`run_suite_opts`] for cache control and pool statistics.
pub fn run_suite(experiments: &[Experiment], jobs: usize) -> Vec<ExperimentRun> {
    run_suite_opts(experiments, jobs, PoolOptions::default()).0
}

/// [`run_suite`] with pool options, also returning the shared pool's
/// accounting. Because all experiments share one pool (and one cell
/// cache), a cell repeated across experiments — E1 and E2 expand the
/// identical grid — simulates once for the whole suite.
pub fn run_suite_opts(
    experiments: &[Experiment],
    jobs: usize,
    opts: PoolOptions,
) -> (Vec<ExperimentRun>, PoolStats) {
    let all: Vec<Cell> = experiments
        .iter()
        .flat_map(|e| e.cells.iter().cloned())
        .collect();
    let (runs, stats) = run_cells_opts(&all, jobs, opts);
    let mut runs = runs.into_iter();
    let assembled = experiments
        .iter()
        .map(|e| {
            let cells: Vec<CellRun> = runs.by_ref().take(e.cells.len()).collect();
            ExperimentRun {
                id: e.id,
                title: e.title,
                output: e.assemble(&cells),
                cells,
            }
        })
        .collect();
    (assembled, stats)
}

/// Formats one table row from the results of the cells it covers.
type RowFn = Box<dyn Fn(&[CellRun]) -> Vec<String> + Send + Sync>;

/// A table experiment under construction. Each row is pushed together
/// with its own cells and a formatter over their results; the
/// formatter captures the loop values that built the cells, so one
/// walk of the loop nest both expands the grid and lays out its table.
struct Grid {
    header: &'static [&'static str],
    cells: Vec<Cell>,
    /// Each row's span of `cells` and its formatter.
    rows: Vec<(Range<usize>, RowFn)>,
}

impl Grid {
    fn new(header: &'static [&'static str]) -> Grid {
        Grid {
            header,
            cells: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Appends `cells` and a row formatted from their results.
    fn row<const N: usize>(
        &mut self,
        cells: [Cell; N],
        fmt: impl Fn(&[CellRun; N]) -> Vec<String> + Send + Sync + 'static,
    ) {
        let start = self.cells.len();
        self.cells.extend(cells);
        self.rows.push((
            start..self.cells.len(),
            Box::new(move |runs: &[CellRun]| {
                fmt(runs.try_into().expect("one result per row cell"))
            }),
        ));
    }

    /// Appends a row formatted from the results of every cell pushed so
    /// far (an aggregate such as E9's MEAN row).
    fn summary(&mut self, fmt: impl Fn(&[CellRun]) -> Vec<String> + Send + Sync + 'static) {
        self.rows.push((0..self.cells.len(), Box::new(fmt)));
    }

    fn build(self, id: &'static str, title: &'static str) -> Experiment {
        let Grid {
            header,
            cells,
            rows,
        } = self;
        Experiment::new(id, title, cells, move |runs| {
            let mut t = Table::new(header);
            for (span, fmt) in &rows {
                t.row_owned(fmt(&runs[span.clone()]));
            }
            Output::Table(t)
        })
    }
}

/// The two schemes a paired grid compares, with their label tags, in
/// grid order: baseline first.
fn schemes() -> [(&'static str, Scheme); 2] {
    [("base", Scheme::baseline()), ("adpt", Scheme::adaptive())]
}

/// A canonical-drop cell: `PRE_RATE → after_bps` at [`DROP_AT`].
fn drop_cell(scheme: Scheme, content: ContentClass, after_bps: f64) -> Cell {
    let mut cfg = SessionConfig::default_with(scheme);
    cfg.content = content;
    cfg.duration = SESSION_LEN;
    Cell {
        label: format!("{content}/4->{:.2}M/{}", after_bps / 1e6, scheme.name()),
        trace: TraceSpec::SuddenDrop {
            pre_bps: PRE_RATE,
            after_bps,
            at: DROP_AT,
        },
        cfg,
        contracts: None,
    }
}

/// A cell over an arbitrary trace with config tweaks applied by
/// `adjust`.
fn cell_with(
    label: String,
    scheme: Scheme,
    trace: TraceSpec,
    adjust: impl FnOnce(&mut SessionConfig),
) -> Cell {
    let mut cfg = SessionConfig::default_with(scheme);
    cfg.duration = SESSION_LEN;
    adjust(&mut cfg);
    Cell {
        label,
        trace,
        cfg,
        contracts: None,
    }
}

fn canonical_drop() -> TraceSpec {
    TraceSpec::SuddenDrop {
        pre_bps: PRE_RATE,
        after_bps: 1e6,
        at: DROP_AT,
    }
}

/// The E1/E2 grid: both headline content classes × [`E1_AFTER_BPS`],
/// one baseline/adaptive pair per row, laid out by `fmt`.
fn headline(
    id: &'static str,
    title: &'static str,
    header: &'static [&'static str],
    fmt: fn(ContentClass, f64, &SessionResult, &SessionResult) -> Vec<String>,
) -> Experiment {
    let mut g = Grid::new(header);
    for content in [ContentClass::TalkingHead, ContentClass::Gaming] {
        for after in E1_AFTER_BPS {
            g.row(
                schemes().map(|(_, scheme)| drop_cell(scheme, content, after)),
                move |[b, a]| fmt(content, after, &b.result, &a.result),
            );
        }
    }
    g.build(id, title)
}

/// E1 — headline latency: per-frame G2G latency in the post-drop
/// window, baseline vs. adaptive, across drop severities and two
/// content classes.
pub fn e1() -> Experiment {
    headline(
        "e1",
        "headline post-drop G2G latency, baseline vs adaptive",
        &[
            "content",
            "drop",
            "base_mean_ms",
            "adpt_mean_ms",
            "mean_reduction",
            "base_p95_ms",
            "adpt_p95_ms",
            "p95_reduction",
        ],
        |content, after, b, a| {
            let (b, a) = (window_after(b), window_after(a));
            vec![
                content.to_string(),
                format!("4->{:.1}Mbps", after / 1e6),
                format!("{:.1}", b.mean_latency_ms),
                format!("{:.1}", a.mean_latency_ms),
                fmt_reduction(b.mean_latency_ms, a.mean_latency_ms),
                format!("{:.1}", b.p95_latency_ms),
                format!("{:.1}", a.p95_latency_ms),
                fmt_reduction(b.p95_latency_ms, a.p95_latency_ms),
            ]
        },
    )
}

/// E2 — headline quality: session-wide mean SSIM (and PSNR of displayed
/// frames), baseline vs. adaptive, same grid as E1.
pub fn e2() -> Experiment {
    headline(
        "e2",
        "headline session quality (SSIM/PSNR/freezes)",
        &[
            "content",
            "drop",
            "base_ssim",
            "adpt_ssim",
            "ssim_delta",
            "base_psnr_db",
            "adpt_psnr_db",
            "freeze_base",
            "freeze_adpt",
        ],
        |content, after, b, a| {
            let (b, a) = (b.recorder.summarize_all(), a.recorder.summarize_all());
            vec![
                content.to_string(),
                format!("4->{:.1}Mbps", after / 1e6),
                format!("{:.4}", b.mean_ssim),
                format!("{:.4}", a.mean_ssim),
                format!("{:+.2}%", pct_change(b.mean_ssim, a.mean_ssim)),
                format!("{:.1}", b.mean_psnr_db),
                format!("{:.1}", a.mean_psnr_db),
                format!("{:.1}%", b.freeze_ratio() * 100.0),
                format!("{:.1}%", a.freeze_ratio() * 100.0),
            ]
        },
    )
}

/// E3 — the motivating time-series figure: capacity, encoder target,
/// send rate, bottleneck queue and frame latency around the drop, for
/// both schemes, as CSV (one block per scheme).
///
/// The measurement window is derived from [`DROP_AT`]
/// (`DROP_AT − 2 s .. DROP_AT + 10 s` in 100 ms steps) rather than
/// hardcoded, so moving the canonical drop instant moves the figure
/// with it.
pub fn e3() -> Experiment {
    let schemes = schemes().map(|(_, scheme)| scheme);
    let cells = schemes
        .iter()
        .map(|&scheme| {
            cell_with(scheme.name(), scheme, canonical_drop(), |cfg| {
                cfg.record_series = true;
            })
        })
        .collect();
    Experiment::new(
        "e3",
        "time series around the drop (motivating figure)",
        cells,
        move |runs| {
            let mut out = String::new();
            let window_start = DROP_AT - Dur::secs(2);
            for (scheme, run) in schemes.iter().zip(runs) {
                out.push_str(&format!("# scheme={}\n", scheme.name()));
                out.push_str("time_s,capacity_mbps,target_mbps,send_mbps,queue_ms,latency_ms\n");
                let get = |name: &str| run.result.series.get(name).expect("series recorded");
                let (cap, tgt, snd, q, lat) = (
                    get("capacity_bps"),
                    get("target_bps"),
                    get("send_rate_bps"),
                    get("link_queue_ms"),
                    get("frame_latency_ms"),
                );
                for step in 0..120u64 {
                    let t = window_start + Dur::millis(step * 100);
                    let w = window_start + Dur::millis((step + 1) * 100);
                    out.push_str(&format!(
                        "{:.1},{:.3},{:.3},{:.3},{:.1},{:.1}\n",
                        t.as_secs_f64(),
                        cap.mean_in(t, w) / 1e6,
                        tgt.mean_in(t, w) / 1e6,
                        snd.mean_in(t, w) / 1e6,
                        q.mean_in(t, w),
                        lat.mean_in(t, w),
                    ));
                }
                out.push('\n');
            }
            Output::Text(out)
        },
    )
}

/// E4 — latency reduction vs. drop magnitude (figure series): ratios
/// from 1.25× to 8×.
pub fn e4() -> Experiment {
    let mut g = Grid::new(&[
        "drop_ratio",
        "after_mbps",
        "base_mean_ms",
        "adpt_mean_ms",
        "mean_reduction",
        "p95_reduction",
    ]);
    for ratio in [1.25, 1.6, 2.0, 2.7, 4.0, 8.0] {
        let after = PRE_RATE / ratio;
        g.row(
            schemes().map(|(_, scheme)| drop_cell(scheme, ContentClass::TalkingHead, after)),
            move |[b, a]| {
                let (b, a) = (window_after(&b.result), window_after(&a.result));
                vec![
                    format!("{ratio:.2}x"),
                    format!("{:.2}", after / 1e6),
                    format!("{:.1}", b.mean_latency_ms),
                    format!("{:.1}", a.mean_latency_ms),
                    fmt_reduction(b.mean_latency_ms, a.mean_latency_ms),
                    fmt_reduction(b.p95_latency_ms, a.p95_latency_ms),
                ]
            },
        );
    }
    g.build("e4", "latency reduction vs drop magnitude")
}

/// E5 — adaptation benefit vs. feedback RTT (figure series).
pub fn e5() -> Experiment {
    let mut g = Grid::new(&[
        "rtt_ms",
        "base_mean_ms",
        "adpt_mean_ms",
        "mean_reduction",
        "adpt_p95_ms",
    ]);
    for rtt_ms in [10u64, 20, 40, 80, 160] {
        let cells = schemes().map(|(tag, scheme)| {
            cell_with(
                format!("rtt{rtt_ms}ms/{tag}"),
                scheme,
                canonical_drop(),
                |cfg| {
                    cfg.link.propagation = Dur::millis(rtt_ms / 2);
                    cfg.reverse_delay = Dur::millis(rtt_ms / 2);
                },
            )
        });
        g.row(cells, move |[b, a]| {
            let (b, a) = (window_after(&b.result), window_after(&a.result));
            vec![
                rtt_ms.to_string(),
                format!("{:.1}", b.mean_latency_ms),
                format!("{:.1}", a.mean_latency_ms),
                fmt_reduction(b.mean_latency_ms, a.mean_latency_ms),
                format!("{:.1}", a.p95_latency_ms),
            ]
        });
    }
    g.build("e5", "adaptation benefit vs feedback RTT")
}

/// E6 — content sensitivity: all four content classes through the
/// canonical 4→1 Mbps drop.
pub fn e6() -> Experiment {
    let mut g = Grid::new(&[
        "content",
        "base_mean_ms",
        "adpt_mean_ms",
        "mean_reduction",
        "base_ssim",
        "adpt_ssim",
        "ssim_delta",
    ]);
    for content in ContentClass::ALL {
        g.row(
            schemes().map(|(_, scheme)| drop_cell(scheme, content, 1e6)),
            move |[b, a]| {
                let (bw, aw) = (window_after(&b.result), window_after(&a.result));
                let ball = b.result.recorder.summarize_all();
                let aall = a.result.recorder.summarize_all();
                vec![
                    content.to_string(),
                    format!("{:.1}", bw.mean_latency_ms),
                    format!("{:.1}", aw.mean_latency_ms),
                    fmt_reduction(bw.mean_latency_ms, aw.mean_latency_ms),
                    format!("{:.4}", ball.mean_ssim),
                    format!("{:.4}", aall.mean_ssim),
                    format!("{:+.2}%", pct_change(ball.mean_ssim, aall.mean_ssim)),
                ]
            },
        );
    }
    g.build("e6", "content-class sensitivity (4->1 Mbps)")
}

/// E7 — mechanism ablation on moderate (4→1) and deep (4→0.5) drops.
pub fn e7() -> Experiment {
    let mut g = Grid::new(&[
        "mechanisms",
        "drop",
        "mean_ms",
        "p95_ms",
        "sess_ssim",
        "skips",
    ]);
    for after in [1e6, 0.5e6] {
        for (name, scheme) in [
            ("baseline", Scheme::baseline()),
            (
                "fast-qp",
                Scheme::adaptive_with(AdaptiveConfig::fast_qp_only()),
            ),
            (
                "+vbv",
                Scheme::adaptive_with(AdaptiveConfig::fast_qp_and_vbv()),
            ),
            (
                "+skip",
                Scheme::adaptive_with(AdaptiveConfig::without_ladder()),
            ),
            ("full", Scheme::adaptive_with(AdaptiveConfig::default())),
        ] {
            let mut cell = drop_cell(scheme, ContentClass::TalkingHead, after);
            cell.label = format!("{name}/4->{:.1}M", after / 1e6);
            g.row([cell], move |[run]| {
                let w = window_after(&run.result);
                let all = run.result.recorder.summarize_all();
                vec![
                    name.to_string(),
                    format!("4->{:.1}Mbps", after / 1e6),
                    format!("{:.1}", w.mean_latency_ms),
                    format!("{:.1}", w.p95_latency_ms),
                    format!("{:.4}", all.mean_ssim),
                    run.result.frames_skipped.to_string(),
                ]
            });
        }
    }
    g.build("e7", "mechanism ablation (fast-QP, VBV, skip, ladder)")
}

/// E8 — congestion-controller comparison: the adaptive controller on
/// top of GCC vs. GCC alone vs. the loss-only and fixed-rate strawmen.
pub fn e8() -> Experiment {
    let mut g = Grid::new(&[
        "scheme",
        "mean_ms",
        "p95_ms",
        "sess_ssim",
        "freeze_%",
        "queue_drops",
    ]);
    for scheme in [
        Scheme::baseline(),
        Scheme::adaptive(),
        Scheme {
            cc: CcKind::NaiveAimd,
            adaptive: None,
        },
        Scheme {
            cc: CcKind::NaiveAimd,
            adaptive: Some(AdaptiveConfig::default()),
        },
        Scheme {
            cc: CcKind::Fixed,
            adaptive: None,
        },
    ] {
        g.row(
            [drop_cell(scheme, ContentClass::TalkingHead, 1e6)],
            move |[run]| {
                let w = window_after(&run.result);
                let all = run.result.recorder.summarize_all();
                vec![
                    scheme.name(),
                    format!("{:.1}", w.mean_latency_ms),
                    format!("{:.1}", w.p95_latency_ms),
                    format!("{:.4}", all.mean_ssim),
                    format!("{:.1}%", all.freeze_ratio() * 100.0),
                    run.result.queue_drops.to_string(),
                ]
            },
        );
    }
    g.build("e8", "congestion-controller comparison")
}

/// E9 — robustness across seeded stochastic LTE-like traces: per-seed
/// mean latency plus an aggregate MEAN row.
pub fn e9(seeds: u64) -> Experiment {
    let mut g = Grid::new(&[
        "seed",
        "base_mean_ms",
        "adpt_mean_ms",
        "base_p95_ms",
        "adpt_p95_ms",
        "drops_handled",
    ]);
    for seed in 0..seeds {
        let cells = schemes().map(|(tag, scheme)| {
            cell_with(
                format!("seed{seed}/{tag}"),
                scheme,
                TraceSpec::LteLike {
                    seed,
                    len: SESSION_LEN,
                },
                |cfg| {
                    cfg.seed = seed;
                },
            )
        });
        g.row(cells, move |[b, a]| {
            let (bs, as_) = (
                b.result.recorder.summarize_all(),
                a.result.recorder.summarize_all(),
            );
            vec![
                seed.to_string(),
                format!("{:.1}", bs.mean_latency_ms),
                format!("{:.1}", as_.mean_latency_ms),
                format!("{:.1}", bs.p95_latency_ms),
                format!("{:.1}", as_.p95_latency_ms),
                a.result.drops_handled.to_string(),
            ]
        });
    }
    g.summary(move |runs| {
        // Runs alternate baseline, adaptive; average each scheme's
        // session means over the seeds.
        let mean = |first: usize| {
            let sum: f64 = runs
                .iter()
                .skip(first)
                .step_by(2)
                .map(|run| run.result.recorder.summarize_all().mean_latency_ms)
                .fold(0.0, |sum, ms| sum + ms);
            sum / seeds as f64
        };
        vec![
            "MEAN".to_string(),
            format!("{:.1}", mean(0)),
            format!("{:.1}", mean(1)),
            String::new(),
            String::new(),
            String::new(),
        ]
    });
    g.build("e9", "robustness across seeded LTE-like traces")
}

/// E11 — lossy-link robustness: random wireless loss on top of the
/// canonical drop, with NACK/RTX on and off.
pub fn e11() -> Experiment {
    let mut g = Grid::new(&[
        "loss",
        "rtx",
        "scheme",
        "mean_ms",
        "sess_ssim",
        "freeze_%",
        "retransmissions",
    ]);
    for loss in [0.0, 0.01, 0.03, 0.05] {
        for rtx in [true, false] {
            let on_off = if rtx { "on" } else { "off" };
            for (tag, scheme) in schemes() {
                let cell = cell_with(
                    format!("loss{:.0}%/rtx-{on_off}/{tag}", loss * 100.0),
                    scheme,
                    canonical_drop(),
                    |cfg| {
                        cfg.link.random_loss = loss;
                        cfg.enable_rtx = rtx;
                    },
                );
                g.row([cell], move |[run]| {
                    let w = window_after(&run.result);
                    let all = run.result.recorder.summarize_all();
                    vec![
                        format!("{:.0}%", loss * 100.0),
                        on_off.to_string(),
                        scheme.name(),
                        format!("{:.1}", w.mean_latency_ms),
                        format!("{:.4}", all.mean_ssim),
                        format!("{:.1}%", all.freeze_ratio() * 100.0),
                        run.result.retransmissions.to_string(),
                    ]
                });
            }
        }
    }
    g.build("e11", "lossy links with NACK/RTX on/off")
}

/// E12 — temporal-scalability extension: hierarchical-P (2 layers) vs
/// plain IPPP under the canonical and deep drops.
pub fn e12() -> Experiment {
    let mut g = Grid::new(&[
        "layers",
        "scheme",
        "drop",
        "mean_ms",
        "p95_ms",
        "sess_ssim",
        "skips",
    ]);
    for after in [1e6, 0.5e6] {
        for layers in [1u8, 2] {
            for (tag, scheme) in schemes() {
                let cell = cell_with(
                    format!("4->{:.1}M/L{layers}/{tag}", after / 1e6),
                    scheme,
                    TraceSpec::SuddenDrop {
                        pre_bps: PRE_RATE,
                        after_bps: after,
                        at: DROP_AT,
                    },
                    |cfg| cfg.temporal_layers = layers,
                );
                g.row([cell], move |[run]| {
                    let w = window_after(&run.result);
                    let all = run.result.recorder.summarize_all();
                    vec![
                        layers.to_string(),
                        scheme.name(),
                        format!("4->{:.1}Mbps", after / 1e6),
                        format!("{:.1}", w.mean_latency_ms),
                        format!("{:.1}", w.p95_latency_ms),
                        format!("{:.4}", all.mean_ssim),
                        run.result.frames_skipped.to_string(),
                    ]
                });
            }
        }
    }
    g.build("e12", "temporal scalability (1 vs 2 layers)")
}

/// E13 — audio protection: an Opus-style 32 kbps audio flow shares the
/// bottleneck; post-drop per-packet audio latency shows how video
/// overshoot collateral-damages audio.
pub fn e13() -> Experiment {
    let mut g = Grid::new(&[
        "drop",
        "scheme",
        "audio_delivered",
        "audio_mean_ms",
        "audio_p95_ms",
        "video_mean_ms",
    ]);
    for after in E1_AFTER_BPS {
        for (tag, scheme) in schemes() {
            let cell = cell_with(
                format!("4->{:.1}M/{tag}", after / 1e6),
                scheme,
                TraceSpec::SuddenDrop {
                    pre_bps: PRE_RATE,
                    after_bps: after,
                    at: DROP_AT,
                },
                |cfg| cfg.enable_audio = true,
            );
            g.row([cell], move |[run]| {
                let mut lat: Vec<f64> = run
                    .result
                    .audio_latencies
                    .iter()
                    .filter(|&&(at, _)| at >= DROP_AT && at < DROP_AT + POST_WINDOW)
                    .map(|&(_, l)| l.as_millis_f64())
                    .collect();
                lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
                let p95 = lat
                    .get(((lat.len() as f64) * 0.95) as usize)
                    .copied()
                    .unwrap_or(0.0);
                // One audio packet every 20 ms was *sent* in the window;
                // delivery below 100% means the bottleneck queue (full of
                // video) drop-tailed the rest.
                let sent = POST_WINDOW.as_millis() / 20;
                let delivered_pct = lat.len() as f64 / sent as f64 * 100.0;
                let video = window_after(&run.result);
                vec![
                    format!("4->{:.1}Mbps", after / 1e6),
                    scheme.name(),
                    format!("{delivered_pct:.1}%"),
                    format!("{mean:.1}"),
                    format!("{p95:.1}"),
                    format!("{:.1}", video.mean_latency_ms),
                ]
            });
        }
    }
    g.build("e13", "audio protection under video overshoot")
}

/// E14 — loss-recovery strategies compared: RTX, FEC, both, or neither,
/// on a lossy link through the canonical drop (adaptive scheme).
pub fn e14() -> Experiment {
    let mut g = Grid::new(&[
        "loss",
        "recovery",
        "mean_ms",
        "sess_ssim",
        "freeze_%",
        "rtx",
        "fec_recovered",
    ]);
    for loss in [0.02, 0.05] {
        for (name, rtx, fec) in [
            ("none", false, false),
            ("rtx", true, false),
            ("fec", false, true),
            ("rtx+fec", true, true),
        ] {
            let cell = cell_with(
                format!("loss{:.0}%/{name}", loss * 100.0),
                Scheme::adaptive(),
                canonical_drop(),
                |cfg| {
                    cfg.link.random_loss = loss;
                    cfg.enable_rtx = rtx;
                    cfg.enable_fec = fec;
                },
            );
            g.row([cell], move |[run]| {
                let w = window_after(&run.result);
                let all = run.result.recorder.summarize_all();
                vec![
                    format!("{:.0}%", loss * 100.0),
                    name.to_string(),
                    format!("{:.1}", w.mean_latency_ms),
                    format!("{:.4}", all.mean_ssim),
                    format!("{:.1}%", all.freeze_ratio() * 100.0),
                    run.result.retransmissions.to_string(),
                    run.result.fec_recovered.to_string(),
                ]
            });
        }
    }
    g.build("e14", "loss-recovery strategies (RTX/FEC)")
}

/// E15 — control-architecture comparison: the paper's drop-triggered
/// state machine vs. Salsify-flavoured continuous per-frame control vs.
/// baseline, across a clean drop, a stochastic trace, and a steady
/// link.
pub fn e15() -> Experiment {
    let mut g = Grid::new(&["scenario", "scheme", "mean_ms", "p95_ms", "sess_ssim"]);
    for (scenario, trace) in [
        ("clean-drop", canonical_drop()),
        (
            "lte-trace",
            TraceSpec::LteLike {
                seed: 7,
                len: SESSION_LEN,
            },
        ),
        ("steady-link", TraceSpec::Constant(4.5e6)),
    ] {
        for (name, scheme) in [
            ("baseline", Scheme::baseline()),
            ("drop-triggered", Scheme::adaptive()),
            (
                "continuous",
                Scheme::adaptive_with(AdaptiveConfig::continuous()),
            ),
        ] {
            let cell = cell_with(format!("{scenario}/{name}"), scheme, trace, |_| {});
            g.row([cell], move |[run]| {
                let all = run.result.recorder.summarize_all();
                // The clean drop is summarized in the post-drop window;
                // the trace/steady scenarios session-wide.
                let s = if scenario == "clean-drop" {
                    window_after(&run.result)
                } else {
                    all
                };
                vec![
                    scenario.into(),
                    name.into(),
                    format!("{:.1}", s.mean_latency_ms),
                    format!("{:.1}", s.p95_latency_ms),
                    format!("{:.4}", all.mean_ssim),
                ]
            });
        }
    }
    g.build(
        "e15",
        "control architectures (drop-triggered vs continuous)",
    )
}

/// E16's recovery instant.
const E16_RECOVER_AT: Time = Time::from_secs(18);

/// E16 — recovery speed: after the capacity comes back, how fast does
/// each scheme climb back to the pre-drop rate?
pub fn e16() -> Experiment {
    let mut g = Grid::new(&[
        "scheme",
        "rate@+2s",
        "rate@+6s",
        "rate@+12s",
        "t90_s",
        "sess_ssim",
    ]);
    for (name, scheme) in [
        ("baseline", Scheme::baseline()),
        ("adaptive", Scheme::adaptive()),
        (
            "adaptive+probing",
            Scheme::adaptive_with(AdaptiveConfig::with_probing()),
        ),
    ] {
        let cell = cell_with(
            name.to_string(),
            scheme,
            TraceSpec::DropRecover {
                pre_bps: PRE_RATE,
                after_bps: 1e6,
                at: DROP_AT,
                recover_at: E16_RECOVER_AT,
            },
            |cfg| {
                cfg.record_series = true;
                cfg.duration = Dur::secs(45);
            },
        );
        g.row([cell], move |[run]| {
            let send = run.result.series.get("send_rate_bps").expect("series");
            // Mean send rate over the 2 s starting `offset_s` after
            // the recovery instant, in bits/second.
            let rate_at = |offset_s: u64| {
                send.mean_in(
                    E16_RECOVER_AT + Dur::secs(offset_s),
                    E16_RECOVER_AT + Dur::secs(offset_s + 2),
                )
            };
            // Time until the 2s-smoothed send rate first reaches 90% of
            // the pre-drop 4 Mbps (capped at the session tail).
            let t90 = (0..25u64).find(|&s| rate_at(s) >= 0.9 * PRE_RATE);
            let all = run.result.recorder.summarize_all();
            vec![
                name.to_string(),
                format!("{:.2}M", rate_at(2) / 1e6),
                format!("{:.2}M", rate_at(6) / 1e6),
                format!("{:.2}M", rate_at(12) / 1e6),
                t90.map_or(">25".to_string(), |s| s.to_string()),
                format!("{:.4}", all.mean_ssim),
            ]
        });
    }
    g.build("e16", "recovery speed after the drop clears")
}

/// E17 — control-plane robustness: the canonical drop with the
/// *reverse* path impaired at the same time (i.i.d. feedback loss ×
/// blackout at the drop instant), baseline vs. adaptive, each with and
/// without the feedback watchdog.
pub fn e17() -> Experiment {
    let mut g = Grid::new(&[
        "fb_loss",
        "blackout_s",
        "scheme",
        "watchdog",
        "p50_ms",
        "p95_ms",
        "sess_ssim",
        "wd_steps",
        "discarded",
        "rev_lost",
    ]);
    for loss in [0.0, 0.1, 0.3, 0.5] {
        for blackout_s in [0u64, 1, 3] {
            for (name, scheme) in [
                ("baseline", Scheme::baseline()),
                ("adaptive", Scheme::adaptive()),
            ] {
                for wd_on in [false, true] {
                    let wd = if wd_on { "on" } else { "off" };
                    let cell = cell_with(
                        format!("fb{:.0}%/bo{blackout_s}s/{name}/wd-{wd}", loss * 100.0),
                        scheme,
                        canonical_drop(),
                        |cfg| {
                            let mut rp = ReversePathConfig::with_loss(loss);
                            if blackout_s > 0 {
                                rp = rp.add_blackout(DROP_AT, DROP_AT + Dur::secs(blackout_s));
                            }
                            cfg.reverse_path = rp;
                            if wd_on {
                                cfg.watchdog = Some(WatchdogConfig::for_timing(
                                    cfg.feedback_interval,
                                    cfg.reverse_delay * 2,
                                ));
                            }
                        },
                    );
                    g.row([cell], move |[run]| {
                        let w = window_after(&run.result);
                        vec![
                            format!("{:.0}%", loss * 100.0),
                            blackout_s.to_string(),
                            name.to_string(),
                            wd.to_string(),
                            format!("{:.1}", w.p50_latency_ms),
                            format!("{:.1}", w.p95_latency_ms),
                            format!("{:.4}", run.result.recorder.summarize_all().mean_ssim),
                            run.result.watchdog_timeouts.to_string(),
                            run.result.reports_discarded.to_string(),
                            run.result.reverse_lost.to_string(),
                        ]
                    });
                }
            }
        }
    }
    g.build("e17", "control-plane robustness under feedback impairment")
}

/// E18 fault intensities (the `(seed, intensity)` grid's severity axis).
pub const E18_INTENSITIES: [f64; 3] = [0.25, 0.5, 1.0];

/// E18 chaos seeds.
pub const E18_SEEDS: [u64; 4] = [1, 7, 23, 42];

/// Chaos sessions run 30 s: long enough that every generated fault
/// window (confined to the first 60 % of the session) clears with room
/// for the recovery-bound invariants to be checkable.
pub const CHAOS_SESSION_LEN: Dur = Dur::secs(30);

/// One chaos cell: adaptive scheme over a constant [`PRE_RATE`] link
/// with a `(seed, intensity)`-derived multi-fault schedule on the
/// forward path. The chaos seed doubles as the session seed so the
/// whole cell is reproducible from the label alone.
fn chaos_cell(seed: u64, intensity: f64) -> Cell {
    let mut cfg = SessionConfig::default_with(Scheme::adaptive());
    cfg.duration = CHAOS_SESSION_LEN;
    cfg.seed = seed;
    cfg.chaos = Some(ChaosSpec::new(seed, intensity));
    Cell {
        label: format!("chaos/seed{seed}/i{intensity:.2}"),
        trace: TraceSpec::Constant(PRE_RATE),
        cfg,
        contracts: None,
    }
}

/// E18 — data-plane chaos: randomized multi-fault timelines (burst
/// loss, blackouts, capacity collapses, reordering, duplication, MTU
/// shrink) on the forward link, with the session invariant checker
/// reporting any broken law per cell. A healthy pipeline shows `0`
/// in the violations column for every `(intensity, seed)` cell.
pub fn e18() -> Experiment {
    let mut g = Grid::new(&[
        "intensity",
        "seed",
        "faults",
        "chaos_lost",
        "dups",
        "chain_breaks",
        "plis",
        "p95_ms",
        "sess_ssim",
        "violations",
    ]);
    for intensity in E18_INTENSITIES {
        for seed in E18_SEEDS {
            g.row([chaos_cell(seed, intensity)], move |[run]| {
                let result = &run.result;
                // The schedule is a pure function of (seed, intensity);
                // regenerate it for the fault count column.
                let sched =
                    ChaosSchedule::generate(ChaosSpec::new(seed, intensity), CHAOS_SESSION_LEN);
                let all = result.recorder.summarize_all();
                vec![
                    format!("{intensity:.2}"),
                    seed.to_string(),
                    sched.segments.len().to_string(),
                    result.chaos_lost.to_string(),
                    result.chaos_duplicates.to_string(),
                    result.chain_breaks.to_string(),
                    result.plis_sent.to_string(),
                    format!("{:.1}", all.p95_latency_ms),
                    format!("{:.4}", all.mean_ssim),
                    result.violations.len().to_string(),
                ]
            });
        }
    }
    g.build("e18", "data-plane chaos with session invariant checking")
}

/// The `--faults chaos:N@S` sweep: `n` seeded chaos cells starting at
/// `seed0`, intensity cycling through [`E18_INTENSITIES`] plus 0.75 so
/// every fourth cell differs in severity. Cell i uses seed `seed0 + i`,
/// so `seed0 + n - 1` must fit in a u64 (the CLI rejects ranges that
/// do not). Used by the chaos-smoke CI gate; every cell is
/// content-addressed like any other grid cell, so the sweep memoizes
/// and parallelizes identically.
pub fn chaos_sweep(n: u64, seed0: u64) -> Experiment {
    const SWEEP_INTENSITIES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
    let cells = (0..n)
        .map(|i| chaos_cell(seed0 + i, SWEEP_INTENSITIES[(i % 4) as usize]))
        .collect();
    Experiment::new(
        "chaos",
        "seeded chaos sweep with invariant checking",
        cells,
        |runs| {
            let mut t = Table::new(&[
                "cell",
                "chaos_lost",
                "dups",
                "chain_breaks",
                "p95_ms",
                "violations",
            ]);
            let mut violating = 0usize;
            for run in runs {
                let all = run.result.recorder.summarize_all();
                if !run.result.violations.is_empty() {
                    violating += 1;
                }
                t.row_owned(vec![
                    run.label.clone(),
                    run.result.chaos_lost.to_string(),
                    run.result.chaos_duplicates.to_string(),
                    run.result.chain_breaks.to_string(),
                    format!("{:.1}", all.p95_latency_ms),
                    run.result.violations.len().to_string(),
                ]);
            }
            t.row_owned(vec![
                "TOTAL".to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                format!("{violating} violating cells"),
            ]);
            Output::Table(t)
        },
    )
}

/// E21 corruption intensities — the control-plane analogue of E18's
/// severity axis.
pub const E21_INTENSITIES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// The fixed corruption seed of the E21 grid (a corrupt-plane sweep
/// varies seeds; E21 varies intensity and scheme under one seed so the
/// table is comparable row to row).
pub const E21_SEED: u64 = 7;

/// The recovery contract every corruption cell is held to, expressed
/// against the canonical 4 → 1 Mbps drop. The recovery deadline is
/// generous (25 s) by design: corruption windows land anywhere in the
/// first 60 % of the session, and a blind watchdog episode legitimately
/// *suspends* recovery until honest feedback resumes — the contract
/// asserts the sender gets back up once the garbage stops, not that
/// garbage is free.
pub fn corruption_contract() -> ContractSpec {
    ContractSpec::for_drop(DROP_AT, 1e6).with_recover_within(Dur::secs(25))
}

/// One corruption cell: the canonical drop with a seeded field-level
/// corruption schedule on the reverse path, the feedback watchdog
/// armed, series recording on (contracts need the target trajectory),
/// and [`corruption_contract`] attached.
fn corrupt_cell(label: String, seed: u64, intensity: f64, scheme: Scheme) -> Cell {
    let mut cell = cell_with(label, scheme, canonical_drop(), |cfg| {
        cfg.seed = seed;
        cfg.record_series = true;
        cfg.corrupt = Some(CorruptSpec::new(seed, intensity));
        cfg.watchdog = Some(WatchdogConfig::for_timing(
            cfg.feedback_interval,
            cfg.reverse_delay * 2,
        ));
    });
    cell.contracts = Some(corruption_contract());
    cell
}

/// Renders contract verdicts for a table cell: `"4/4"` when everything
/// held, otherwise the failing clause names.
fn contracts_cell(run: &CellRun) -> String {
    let failed = run.failed_contracts();
    if failed.is_empty() {
        format!("{}/{}", run.contracts.len(), run.contracts.len())
    } else {
        format!(
            "FAIL:{}",
            failed.iter().map(|v| v.name).collect::<Vec<_>>().join("+")
        )
    }
}

/// E21 — control-plane corruption: seeded field-level mutation of
/// in-flight feedback reports (sequence replay/warp, time warps,
/// impossible timestamps, absurd sizes, truncation, forgery) across
/// intensities and both schemes, with the sender-side validator
/// counting rejections by reason and the machine-checked recovery
/// contract judging every cell. CI gates on zero failed clauses.
pub fn e21() -> Experiment {
    let mut g = Grid::new(&[
        "intensity",
        "scheme",
        "corrupted",
        "rejected",
        "reasons",
        "pli_supp",
        "wd_eps",
        "p95_ms",
        "violations",
        "contracts",
    ]);
    for intensity in E21_INTENSITIES {
        for (tag, scheme) in schemes() {
            let cell = corrupt_cell(
                format!("corrupt/i{intensity:.2}/{}", scheme.name()),
                E21_SEED,
                intensity,
                scheme,
            );
            g.row([cell], move |[run]| {
                let result = &run.result;
                let reasons = result
                    .rejected_by_reason
                    .iter()
                    .map(|(reason, n)| format!("{reason}:{n}"))
                    .collect::<Vec<_>>()
                    .join(",");
                vec![
                    format!("{intensity:.2}"),
                    tag.to_string(),
                    result.feedback_corrupted.to_string(),
                    result.rejected_reports.to_string(),
                    if reasons.is_empty() {
                        "-".to_string()
                    } else {
                        reasons
                    },
                    result.plis_suppressed.to_string(),
                    result.watchdog_episodes.to_string(),
                    format!("{:.1}", window_after(result).p95_latency_ms),
                    result.violations.len().to_string(),
                    contracts_cell(run),
                ]
            });
        }
    }
    g.build("e21", "control-plane corruption with recovery contracts")
}

/// The `--faults corrupt:N@S` sweep: `n` seeded corruption cells
/// starting at `seed0`, intensity cycling through [`E21_INTENSITIES`],
/// adaptive scheme over the canonical drop. Cell i uses seed
/// `seed0 + i`, which must fit in a u64 (the CLI rejects ranges that
/// do not); the corruption seed doubles as the session seed, so every
/// cell reproduces from its label alone. Used by the corrupt-smoke CI
/// gate; failed contracts and invariant violations both fail the run.
pub fn corrupt_sweep(n: u64, seed0: u64) -> Experiment {
    let cells = (0..n)
        .map(|i| {
            let seed = seed0 + i;
            let intensity = E21_INTENSITIES[(i % 4) as usize];
            corrupt_cell(
                format!("corrupt/seed{seed}/i{intensity:.2}"),
                seed,
                intensity,
                Scheme::adaptive(),
            )
        })
        .collect();
    Experiment::new(
        "corrupt",
        "seeded feedback-corruption sweep with recovery contracts",
        cells,
        |runs| {
            let mut t = Table::new(&[
                "cell",
                "corrupted",
                "rejected",
                "pli_supp",
                "wd_eps",
                "violations",
                "contracts",
            ]);
            let mut violating = 0usize;
            let mut failed_contracts = 0usize;
            for run in runs {
                if !run.result.violations.is_empty() {
                    violating += 1;
                }
                failed_contracts += run.failed_contracts().len();
                t.row_owned(vec![
                    run.label.clone(),
                    run.result.feedback_corrupted.to_string(),
                    run.result.rejected_reports.to_string(),
                    run.result.plis_suppressed.to_string(),
                    run.result.watchdog_episodes.to_string(),
                    run.result.violations.len().to_string(),
                    contracts_cell(run),
                ]);
            }
            t.row_owned(vec![
                "TOTAL".to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                format!("{violating} violating cells"),
                format!("{failed_contracts} failed clauses"),
            ]);
            Output::Table(t)
        },
    )
}

/// The E22 arena controllers, in grid order. GCC rides along as the
/// reference point the paper's numbers were established on.
pub const E22_CONTROLLERS: [CcKind; 4] = [CcKind::Gcc, CcKind::Nada, CcKind::Bbr, CcKind::LossEma];

/// The E22 scenario axis: the canonical 4 → 1 Mbps drop, the seeded
/// data-plane chaos timeline, and the seeded control-plane corruption
/// schedule.
pub const E22_SCENARIOS: [&str; 3] = ["drop", "chaos", "corrupt"];

/// Seed shared by E22's chaos and corruption scenarios (one seed so the
/// fault timeline is identical under every controller — the controller
/// is the only variable per scenario row).
pub const E22_SEED: u64 = 7;

/// Fault intensity of E22's chaos and corruption scenarios.
pub const E22_INTENSITY: f64 = 0.5;

/// One E22 cell: `controller × scenario × (base|adpt)`.
///
/// The corruption scenario arms the watchdog like E21 but attaches no
/// recovery contract: [`corruption_contract`]'s deadlines are
/// calibrated against GCC's convergence behaviour, and E22's question
/// is *whether adaptation helps under each controller*, not whether
/// every controller meets GCC's recovery bar. Invariant checking (the
/// `violations` column) still applies to every cell.
fn e22_cell(cc: CcKind, scenario: &'static str, adaptive: bool) -> Cell {
    let scheme = if adaptive {
        Scheme::cc_adaptive(cc)
    } else {
        Scheme::cc_baseline(cc)
    };
    let mode = if adaptive { "adpt" } else { "base" };
    let label = format!("arena/{}/{scenario}/{mode}", cc.cc_name());
    match scenario {
        "drop" => cell_with(label, scheme, canonical_drop(), |_| {}),
        "chaos" => {
            let mut cfg = SessionConfig::default_with(scheme);
            cfg.duration = CHAOS_SESSION_LEN;
            cfg.seed = E22_SEED;
            cfg.chaos = Some(ChaosSpec::new(E22_SEED, E22_INTENSITY));
            Cell {
                label,
                trace: TraceSpec::Constant(PRE_RATE),
                cfg,
                contracts: None,
            }
        }
        "corrupt" => cell_with(label, scheme, canonical_drop(), |cfg| {
            cfg.seed = E22_SEED;
            cfg.corrupt = Some(CorruptSpec::new(E22_SEED, E22_INTENSITY));
            cfg.watchdog = Some(WatchdogConfig::for_timing(
                cfg.feedback_interval,
                cfg.reverse_delay * 2,
            ));
        }),
        other => unreachable!("unknown E22 scenario {other}"),
    }
}

/// E22 over an arbitrary controller subset, in canonical grid order:
/// one row per `(controller, scenario)`, so a filtered grid (CLI
/// `--controller`) renders exactly the surviving rows.
fn e22_with(kinds: &[CcKind]) -> Experiment {
    let mut g = Grid::new(&[
        "controller",
        "scenario",
        "base_p95_ms",
        "adpt_p95_ms",
        "p95_reduction",
        "base_ssim",
        "adpt_ssim",
        "ssim_delta",
        "violations",
    ]);
    for &cc in kinds {
        for scenario in E22_SCENARIOS {
            let cells = [false, true].map(|adaptive| e22_cell(cc, scenario, adaptive));
            g.row(cells, move |[base, adpt]| {
                // "Post-drop" is the drop/corrupt measurement window; the
                // chaos scenario has no drop instant, so it is judged over
                // the whole session.
                let summarize = |run: &CellRun| {
                    if scenario == "chaos" {
                        run.result.recorder.summarize_all()
                    } else {
                        window_after(&run.result)
                    }
                };
                let (b, a) = (summarize(base), summarize(adpt));
                let violations = base.result.violations.len() + adpt.result.violations.len();
                vec![
                    cc.cc_name().to_string(),
                    scenario.to_string(),
                    format!("{:.1}", b.p95_latency_ms),
                    format!("{:.1}", a.p95_latency_ms),
                    fmt_reduction(b.p95_latency_ms, a.p95_latency_ms),
                    format!("{:.4}", b.mean_ssim),
                    format!("{:.4}", a.mean_ssim),
                    format!("{:+.4}", a.mean_ssim - b.mean_ssim),
                    violations.to_string(),
                ]
            });
        }
    }
    g.build(
        "e22",
        "congestion-controller arena: adaptation benefit per controller",
    )
}

/// E22 — the congestion-controller arena: every controller
/// ([`E22_CONTROLLERS`]) × every scenario ([`E22_SCENARIOS`]) ×
/// (baseline | adaptive), reporting whether one-frame encoder
/// adaptation improves post-drop p95 latency and SSIM under *each*
/// controller — the generalization check behind ROADMAP item 1.
pub fn e22() -> Experiment {
    e22_with(&E22_CONTROLLERS)
}

/// E22 restricted to a comma-separated controller list (the CLI's
/// `--controller` flag). Unknown names are an error; the scenario and
/// scheme axes always stay full.
pub fn e22_subset(controllers: &str) -> Result<Experiment, String> {
    let wanted: Vec<&str> = controllers
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if wanted.is_empty() {
        return Err("no controllers given".into());
    }
    let mut picked = Vec::new();
    for name in wanted {
        match E22_CONTROLLERS
            .iter()
            .find(|k| k.cc_name().eq_ignore_ascii_case(name))
        {
            Some(&k) => {
                if !picked.contains(&k) {
                    picked.push(k);
                }
            }
            None => {
                return Err(format!(
                    "unknown controller '{name}' (valid: {})",
                    E22_CONTROLLERS.map(CcKind::cc_name).join(",")
                ))
            }
        }
    }
    // Canonical grid order, independent of request order.
    let kinds: Vec<CcKind> = E22_CONTROLLERS
        .iter()
        .copied()
        .filter(|k| picked.contains(k))
        .collect();
    Ok(e22_with(&kinds))
}

/// Simulation instant the `--fixture` injected faults fire at.
pub const FIXTURE_FAULT_AT: Time = Time::from_secs(2);

/// The `--fixture panic|runaway` grid: four healthy cells surrounding
/// one injected-fault cell at grid position 2. CI's soak-smoke job runs
/// it to prove the quarantine — the faulty cell must be the only
/// non-`ok` cell, every neighbour must finish normally with
/// byte-identical output to a clean run, and the process must exit
/// nonzero with the failure summary and digest.
pub fn fixture(fault: InjectedFault) -> Experiment {
    let mk = |label: String, seed: u64, inject: InjectedFault| {
        let mut cfg = SessionConfig::default_with(Scheme::adaptive());
        cfg.duration = Dur::secs(6);
        cfg.seed = seed;
        cfg.inject = inject;
        Cell {
            label,
            trace: TraceSpec::Constant(PRE_RATE),
            cfg,
            contracts: None,
        }
    };
    let name = match fault {
        InjectedFault::Panic { .. } => "panic",
        InjectedFault::Runaway { .. } => "runaway",
        InjectedFault::None => "none",
    };
    let cells = (0..5u64)
        .map(|i| {
            if i == 2 {
                mk(format!("fx/{name}"), i, fault)
            } else {
                mk(format!("fx/ok{i}"), i, InjectedFault::None)
            }
        })
        .collect();
    Experiment::new(
        "fixture",
        "injected-fault isolation fixture",
        cells,
        |runs| {
            let mut t = Table::new(&[
                "cell",
                "status",
                "events",
                "frames",
                "violations",
                "failure_digest",
            ]);
            for run in runs {
                t.row_owned(vec![
                    run.label.clone(),
                    run.status.name().to_string(),
                    run.result.events_processed.to_string(),
                    run.result.frames_captured.to_string(),
                    run.result.violations.len().to_string(),
                    run.failure
                        .as_ref()
                        .map(crate::pool::CellFailure::digest)
                        .unwrap_or_default(),
                ]);
            }
            Output::Table(t)
        },
    )
}

/// Seeds E9 runs with when invoked through the full-suite registry.
pub const E9_DEFAULT_SEEDS: u64 = 10;

/// The full registry, in canonical order. E10 (per-call costs timed by
/// perfbench's `--trace 1` layer metrics, not a session grid) is
/// intentionally absent.
pub fn all() -> Vec<Experiment> {
    vec![
        e1(),
        e2(),
        e3(),
        e4(),
        e5(),
        e6(),
        e7(),
        e8(),
        e9(E9_DEFAULT_SEEDS),
        e11(),
        e12(),
        e13(),
        e14(),
        e15(),
        e16(),
        e17(),
        e18(),
        e21(),
        e22(),
    ]
}

/// Resolves a comma-separated id list (`"e1,e4,e17"`, or `"all"`) to
/// experiments in canonical order.
pub fn select(ids: &str) -> Result<Vec<Experiment>, String> {
    if ids.trim().eq_ignore_ascii_case("all") {
        return Ok(all());
    }
    let wanted: Vec<&str> = ids
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if wanted.is_empty() {
        return Err("no experiment ids given".into());
    }
    let registry = all();
    let mut out = Vec::new();
    for id in &wanted {
        if id.eq_ignore_ascii_case("e10") {
            return Err(
                "e10 is not a harness grid: its per-call costs are perfbench layer metrics \
                 (python3 perfbench/run.py --trace 1 reports core.on_feedback_ns, \
                 core.on_frame_ns, codec.encode_ns and cc.gcc.on_feedback_ns)"
                    .into(),
            );
        }
        match registry.iter().position(|e| e.id.eq_ignore_ascii_case(id)) {
            Some(i) => {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
            None => {
                return Err(format!(
                    "unknown experiment '{id}' (valid: {}, or 'all')",
                    registry.iter().map(|e| e.id).collect::<Vec<_>>().join(",")
                ))
            }
        }
    }
    out.sort_unstable();
    let mut registry: Vec<Option<Experiment>> = registry.into_iter().map(Some).collect();
    Ok(out
        .into_iter()
        .map(|i| registry[i].take().expect("dedup above"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn pct_change_signs() {
        assert!((pct_change(100.0, 50.0) + 50.0).abs() < 1e-12);
        assert!((pct_change(100.0, 150.0) - 50.0).abs() < 1e-12);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
    }

    #[test]
    fn fmt_reduction_reads_positively_for_improvements() {
        assert_eq!(fmt_reduction(100.0, 25.0), "75.00%");
        assert_eq!(fmt_reduction(100.0, 125.0), "-25.00%");
    }

    #[test]
    fn expansions_cover_the_full_cross_product_without_duplicates() {
        let expected: [(&str, usize); 19] = [
            ("e1", 2 * 3 * 2),
            ("e2", 2 * 3 * 2),
            ("e3", 2),
            ("e4", 6 * 2),
            ("e5", 5 * 2),
            ("e6", 4 * 2),
            ("e7", 2 * 5),
            ("e8", 5),
            ("e9", E9_DEFAULT_SEEDS as usize * 2),
            ("e11", 4 * 2 * 2),
            ("e12", 2 * 2 * 2),
            ("e13", 3 * 2),
            ("e14", 2 * 4),
            ("e15", 3 * 3),
            ("e16", 3),
            ("e17", 4 * 3 * 2 * 2),
            ("e18", 3 * 4),
            ("e21", 4 * 2),
            ("e22", 4 * 3 * 2),
        ];
        let registry = all();
        assert_eq!(registry.len(), expected.len());
        for (exp, (id, cells)) in registry.iter().zip(expected) {
            assert_eq!(exp.id, id, "registry order");
            assert_eq!(exp.cells.len(), cells, "{id}: cell count");
            let labels: HashSet<&str> = exp.cells.iter().map(|c| c.label.as_str()).collect();
            assert_eq!(labels.len(), exp.cells.len(), "{id}: duplicate labels");
        }
    }

    #[test]
    fn e1_grid_covers_both_schemes_per_condition() {
        let exp = e1();
        // Every (content, severity) pair must contribute exactly one
        // baseline and one adaptive cell, in that order.
        for pair in exp.cells.chunks(2) {
            assert!(pair[0].cfg.scheme.adaptive.is_none());
            assert!(pair[1].cfg.scheme.adaptive.is_some());
            assert_eq!(pair[0].cfg.content, pair[1].cfg.content);
            assert_eq!(pair[0].trace, pair[1].trace);
        }
    }

    #[test]
    fn select_parses_ids_and_rejects_unknowns() {
        let picked = select("e4, e1").unwrap();
        // Canonical order, independent of request order.
        assert_eq!(picked[0].id, "e1");
        assert_eq!(picked[1].id, "e4");
        assert_eq!(select("all").unwrap().len(), 19);
        let e10 = select("e10").err().expect("e10 is not a grid");
        assert!(e10.contains("perfbench"), "{e10}");
        assert!(select("e99").is_err());
        assert!(select("").is_err());
    }

    #[test]
    fn e22_grid_pairs_base_and_adpt_per_condition() {
        let exp = e22();
        assert_eq!(exp.cells.len(), 24);
        for pair in exp.cells.chunks(2) {
            assert!(pair[0].cfg.scheme.adaptive.is_none());
            assert!(pair[1].cfg.scheme.adaptive.is_some());
            assert_eq!(pair[0].cfg.scheme.cc, pair[1].cfg.scheme.cc);
            assert_eq!(pair[0].trace, pair[1].trace);
            assert!(pair[0].label.ends_with("/base"));
            assert!(pair[1].label.ends_with("/adpt"));
        }
        // Chaos and corruption scenarios share one seed across every
        // controller so the fault timeline is the constant.
        for cell in &exp.cells {
            if cell.cfg.chaos.is_some() || cell.cfg.corrupt.is_some() {
                assert_eq!(cell.cfg.seed, E22_SEED, "{}", cell.label);
            }
            assert!(cell.contracts.is_none(), "{}", cell.label);
        }
    }

    #[test]
    fn e22_subset_filters_controllers_in_canonical_order() {
        let sub = e22_subset("bbr, nada").unwrap();
        assert_eq!(sub.cells.len(), 12);
        // Canonical controller order (nada before bbr), not request
        // order; scenario × scheme axes stay full.
        assert!(sub.cells[0].label.starts_with("arena/nada/"));
        assert!(sub.cells[6].label.starts_with("arena/bbr/"));
        assert!(e22_subset("nada,quic").is_err());
        assert!(e22_subset("").is_err());
        // The full subset reproduces the registry grid.
        let full = e22_subset("gcc,nada,bbr,loss-ema").unwrap();
        let labels: Vec<_> = full.cells.iter().map(|c| c.label.clone()).collect();
        let canon: Vec<_> = e22().cells.iter().map(|c| c.label.clone()).collect();
        assert_eq!(labels, canon);
    }

    #[test]
    fn rows_print_their_loop_values_not_the_cells() {
        // The benchmark rewrites cell seeds after building the registry;
        // a row must still print the values its grid was declared with.
        let mut exp = e9(1);
        for cell in &mut exp.cells {
            cell.cfg.seed = 99;
            if let TraceSpec::LteLike { seed, .. } = &mut cell.trace {
                *seed = 99;
            }
        }
        let csv = run_suite(&[exp], 2)[0].output.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 2, "{csv}");
        assert!(rows[0].starts_with("0,"), "{csv}");
        assert!(rows[1].starts_with("MEAN,"), "{csv}");
    }

    #[test]
    fn assemble_rejects_wrong_result_count() {
        let exp = e16();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.assemble(&[])));
        assert!(err.is_err());
    }

    // Paper-direction claims on the assembled tables. Every grid these
    // checks read runs through ONE suite, so cells shared across
    // experiments (E1 and E2 expand the identical grid) simulate once.

    fn paper_table(id: &str) -> &'static Output {
        static SUITE: std::sync::OnceLock<Vec<ExperimentRun>> = std::sync::OnceLock::new();
        let suite = SUITE.get_or_init(|| {
            let grids = [
                e1(),
                e2(),
                e3(),
                e4(),
                e5(),
                e7(),
                e9(3),
                e11(),
                e12(),
                e14(),
                e15(),
                e16(),
            ];
            run_suite(&grids, crate::default_jobs())
        });
        &suite
            .iter()
            .find(|run| run.id == id)
            .unwrap_or_else(|| panic!("{id} is not in the paper-table suite"))
            .output
    }

    fn rows(id: &str) -> usize {
        paper_table(id).table().expect("tabular output").len()
    }

    fn reduction_of(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse::<f64>().expect("pct cell")
    }

    /// Column `col` of the first CSV row of `id` starting with `prefix`.
    fn column(id: &str, prefix: &str, col: usize) -> String {
        paper_table(id)
            .to_csv()
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("{id}: row {prefix} missing"))
            .split(',')
            .nth(col)
            .unwrap()
            .to_string()
    }

    fn number(id: &str, prefix: &str, col: usize) -> f64 {
        column(id, prefix, col).parse().unwrap()
    }

    #[test]
    fn e1_adaptive_always_reduces_latency() {
        for line in paper_table("e1").to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let mean_red = reduction_of(cells[4]);
            assert!(
                mean_red > 0.0,
                "adaptive failed to reduce mean latency: {line}"
            );
        }
    }

    #[test]
    fn e1_reduction_grows_with_severity() {
        let talking: Vec<f64> = paper_table("e1")
            .to_csv()
            .lines()
            .skip(1)
            .filter(|l| l.starts_with("talking-head"))
            .map(|l| reduction_of(l.split(',').nth(4).unwrap()))
            .collect();
        assert_eq!(talking.len(), 3);
        assert!(
            talking[0] < talking[2],
            "reduction not monotone-ish in severity: {talking:?}"
        );
    }

    #[test]
    fn e2_adaptive_quality_gains_in_band_for_moderate_drops() {
        // The 4->2 Mbps talking-head row is the paper's mild condition:
        // quality delta must be positive.
        let delta: f64 = column("e2", "talking-head,4->2.0", 4)
            .trim_start_matches('+')
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(delta > 0.0, "no quality gain: {delta}");
        assert!(delta < 10.0, "implausible quality gain: {delta}");
    }

    #[test]
    fn e4_has_six_ratios() {
        assert_eq!(rows("e4"), 6);
    }

    #[test]
    fn e5_reports_all_rtts() {
        assert_eq!(rows("e5"), 5);
        // Adaptive must beat baseline at the canonical 40 ms RTT.
        assert!(reduction_of(&column("e5", "40,", 3)) > 0.0);
    }

    #[test]
    fn e7_full_beats_baseline() {
        let base = number("e7", "baseline,4->1.0", 2);
        let full = number("e7", "full,4->1.0", 2);
        assert!(
            full < base,
            "full ablation level not better: {full} vs {base}"
        );
    }

    #[test]
    fn e3_emits_both_blocks() {
        let csv = paper_table("e3").to_csv();
        assert!(csv.contains("# scheme=gcc\n"));
        assert!(csv.contains("# scheme=gcc+adaptive\n"));
        // 2 blocks x 120 samples.
        assert!(csv.lines().filter(|l| l.starts_with("1")).count() >= 200);
    }

    #[test]
    fn e11_rtx_recovers_quality_under_loss() {
        // At 3% loss, RTX must recover most of the quality the raw-loss
        // configuration gives up (adaptive rows).
        let with_rtx = number("e11", "3%,on,gcc+adaptive", 4);
        let without = number("e11", "3%,off,gcc+adaptive", 4);
        assert!(
            with_rtx > without,
            "RTX did not help: {with_rtx} vs {without}"
        );
    }

    #[test]
    fn e12_layers_never_hurt_latency_for_adaptive() {
        let one = number("e12", "1,gcc+adaptive,4->0.5", 3);
        let two = number("e12", "2,gcc+adaptive,4->0.5", 3);
        assert!(
            two < one * 1.5,
            "two layers should not blow up latency: {two} vs {one}"
        );
    }

    #[test]
    fn e14_recovery_beats_none() {
        let ssim_of = |prefix: &str| number("e14", prefix, 3);
        assert!(ssim_of("5%,rtx,") > ssim_of("5%,none,"));
        assert!(ssim_of("5%,rtx+fec,") >= ssim_of("5%,none,"));
    }

    #[test]
    fn e15_both_adaptive_architectures_beat_baseline_on_drop() {
        let mean_of = |prefix: &str| number("e15", prefix, 2);
        let base = mean_of("clean-drop,baseline");
        assert!(mean_of("clean-drop,drop-triggered") < base);
        assert!(mean_of("clean-drop,continuous") < base);
    }

    #[test]
    fn e16_probing_recovers_faster() {
        let rate6_of = |prefix: &str| -> f64 {
            column("e16", prefix, 2)
                .trim_end_matches('M')
                .parse()
                .unwrap()
        };
        assert!(
            rate6_of("adaptive+probing") >= rate6_of("adaptive"),
            "probing did not speed recovery: {}",
            paper_table("e16").to_csv()
        );
    }

    #[test]
    fn e9_small_run_completes() {
        assert_eq!(rows("e9"), 4); // 3 seeds + MEAN row
    }
}
