//! The traced run: per-layer costs of one workload.
//!
//! Harness costs come from the benchmark's spans (set-up, pool calls,
//! assembly, rendering) and `PoolStats`. Work counts come from the
//! `SessionResult`s and `ObsCounters` of passes run in
//! `ObsMode::Counters` (long-call keeps its `Full`). Per-call costs of
//! every other layer come from the layer-replay driver over a sample of
//! the workload's own executed cells. The estimated share of a layer is
//! its real call count × replayed ns per call ÷ pool busy time; what the
//! layers do not explain is the kernel's own dispatch and glue.

use std::time::{Duration, Instant};

use ravel_harness::{CellRun, ObsMode, PoolOptions};

use crate::measure::median;
use crate::replay::{replay, Layer, ARENA};
use crate::spans::Spans;
use crate::workload::{run_pass, Pass};
use crate::{cross_width_check, result_line, timed_setup, Args, Metric};

/// Simulated seconds the replay covers at most (cells are sampled
/// evenly across the executed ones to stay within it).
const REPLAY_SIM_BUDGET: f64 = 3000.0;
/// Set-ups timed for `harness.expand_ms`.
const SETUP_REPS: usize = 9;
/// Timed passes of each kind at least.
const MIN_PASSES: usize = 3;
/// Replayed packets per real packet must fall in this band. The replay
/// sends no retransmissions, FEC parity or audio, and its controller
/// sees no PLI or watchdog, so it cannot match exactly; measured ratios
/// lie within 0.97–1.03 over seeds 0–10 of every workload.
const PACKET_RATIO_BAND: (f64, f64) = (0.9, 1.1);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Real-run work counts gathered from the kept results.
#[derive(Debug, Default)]
struct Counts {
    events: u64,
    sim_secs: f64,
    frames_captured: u64,
    frames_encoded: u64,
    adaptive_frames: u64,
    adaptive_reports: u64,
    packets_sent: u64,
    packets_delivered: u64,
    packets_dropped: u64,
    reports_checked: u64,
    reports_rejected: u64,
    reports_accepted: u64,
    /// Accepted reports per arena controller, in [`ARENA`] order.
    arena_reports: [u64; 4],
    obs_records: u64,
    retransmissions: u64,
    fec_recovered: u64,
    drops_handled: u64,
}

fn count(executed: &[(&ravel_harness::Cell, &CellRun)]) -> Counts {
    let mut c = Counts::default();
    for (cell, run) in executed {
        let r = &run.result;
        let o = &r.obs.counters;
        let adaptive = cell.cfg.scheme.adaptive.is_some();
        c.events += r.events_processed;
        c.sim_secs += run.sim_secs;
        c.frames_captured += o.frames_captured;
        c.frames_encoded += o.frames_encoded;
        c.adaptive_frames += if adaptive { o.frames_captured } else { 0 };
        c.adaptive_reports += if adaptive { o.feedback_received } else { 0 };
        c.packets_sent += o.packets_sent;
        c.packets_delivered += o.packets_delivered;
        c.packets_dropped += o.packets_dropped;
        c.reports_checked += o.feedback_received + o.feedback_rejected;
        c.reports_rejected += o.feedback_rejected;
        c.reports_accepted += o.feedback_received;
        if let Some(i) = ARENA.iter().position(|(k, _)| *k == cell.cfg.scheme.cc) {
            c.arena_reports[i] += o.feedback_received;
        }
        c.obs_records += o.total();
        c.retransmissions += r.retransmissions;
        c.fec_recovered += r.fec_recovered;
        c.drops_handled += r.drops_handled;
    }
    c
}

/// Runs the traced measurement and renders its result line.
pub fn run(args: &Args) -> Result<String, String> {
    let mut spans = Spans::new(true);
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| timed_setup(args.kind, args.seed, &mut spans).1 * 1e3)
        .collect();
    let (w, _) = timed_setup(args.kind, args.seed, &mut spans);
    let mut correct = cross_width_check(&w, args.jobs);

    let untraced_opts = PoolOptions {
        obs: ObsMode::Off,
        ..args.kind.pool_options()
    };
    let traced_opts = PoolOptions {
        obs: if args.kind.obs() == ObsMode::Full {
            ObsMode::Full
        } else {
            ObsMode::Counters
        },
        ..args.kind.pool_options()
    };
    let mut quiet = Spans::new(false);
    let warm = run_pass(&w, args.jobs, untraced_opts, &mut quiet, false);
    let first = spans.span("pass", |s| run_pass(&w, args.jobs, traced_opts, s, true));
    let mut traced: Vec<Pass> = Vec::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds || traced.len() < MIN_PASSES {
        untraced.push(run_pass(&w, args.jobs, untraced_opts, &mut quiet, false));
        traced.push(spans.span("pass", |s| run_pass(&w, args.jobs, traced_opts, s, false)));
    }
    let all: Vec<&Pass> = std::iter::once(&first)
        .chain(&traced)
        .chain(&untraced)
        .collect();
    let bad = all.iter().filter(|p| p.digest != warm.digest).count();
    if bad > 0 {
        println!(
            "DIGEST MISMATCH: {bad} of {} passes differ from {:016x}",
            all.len(),
            warm.digest
        );
        correct = false;
    }
    // One pass's cells, as in the untraced run.
    let (attempted, failed) = (warm.cells, warm.failed);

    // Work counts from the first traced pass's executed cells.
    let positions = w.positions();
    let executed: Vec<(&ravel_harness::Cell, &CellRun)> = positions
        .iter()
        .copied()
        .zip(&first.runs)
        .filter(|(_, run)| !run.cache_hit)
        .collect();
    let counts = count(&executed);

    // Replay an even sample of the executed cells.
    let total_sim: f64 = executed.iter().map(|(_, r)| r.sim_secs).sum();
    let stride = (total_sim / REPLAY_SIM_BUDGET).ceil().max(1.0) as usize;
    let sample: Vec<(&ravel_harness::Cell, &CellRun)> =
        executed.iter().copied().step_by(stride).collect();
    let sample_cells: Vec<&ravel_harness::Cell> = sample.iter().map(|(c, _)| *c).collect();
    let costs = spans.span("replay", |_| replay(&sample_cells));
    let real = count(&sample);
    let packet_ratio = costs.packets_sent as f64 / real.packets_sent.max(1) as f64;
    let frames_match = costs.frames_captured == real.frames_captured;
    println!(
        "replay: {} of {} executed cells, {:.0} sim-s; frames captured {} vs real {}; \
         frames encoded {} vs {}; packets sent {} vs {} (ratio {packet_ratio:.3}); \
         events {} vs {}; reports checked {} vs {}, rejected {} vs {}",
        costs.cells,
        executed.len(),
        costs.sim_secs,
        costs.frames_captured,
        real.frames_captured,
        costs.frames_encoded,
        real.frames_encoded,
        costs.packets_sent,
        real.packets_sent,
        costs.events,
        real.events,
        costs.reports_checked,
        real.reports_checked,
        costs.reports_rejected,
        real.reports_rejected
    );
    if !frames_match || !(PACKET_RATIO_BAND.0..=PACKET_RATIO_BAND.1).contains(&packet_ratio) {
        println!("REPLAY DISAGREES with the real run's counters");
        correct = false;
    }

    // metrics: LatencyRecorder::summarize_all over the real results.
    let mut summarize = Vec::new();
    for (_, run) in &executed {
        let t = Instant::now();
        std::hint::black_box(run.result.recorder.summarize_all());
        summarize.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let busy_ns = first.stats.busy.as_nanos() as f64;
    let own_obs = match args.kind.obs() {
        ObsMode::Full => Layer::ObsFull,
        ObsMode::Counters => Layer::ObsCounters,
        ObsMode::Off => Layer::ObsOff,
    };
    let ns = |l: Layer| costs.ns_per_call(l);
    let per_packet = |l: Layer| costs.calls(l) as f64 / costs.packets_sent.max(1) as f64;
    let arena_ns: f64 = ARENA
        .iter()
        .zip(counts.arena_reports)
        .map(|((_, layer), n)| n as f64 * ns(*layer))
        .sum();
    let shares: Vec<(&str, f64)> = vec![
        ("sim.queue", counts.events as f64 * costs.push_pop_ns()),
        (
            "video.next_frame",
            counts.frames_captured as f64 * ns(Layer::NextFrame),
        ),
        (
            "codec.encode",
            counts.frames_encoded as f64 * ns(Layer::Encode),
        ),
        (
            "core.on_frame",
            counts.adaptive_frames as f64 * ns(Layer::CoreOnFrame),
        ),
        (
            "core.on_feedback",
            counts.adaptive_reports as f64 * ns(Layer::CoreOnFeedback),
        ),
        (
            "net.packetize",
            counts.frames_encoded as f64 * ns(Layer::Packetize),
        ),
        (
            "net.pacer.release",
            counts.packets_sent as f64 * per_packet(Layer::PacerRelease) * ns(Layer::PacerRelease),
        ),
        (
            "net.link.send",
            counts.packets_sent as f64 * ns(Layer::LinkSend),
        ),
        (
            "net.feedback.on_packet",
            counts.packets_delivered as f64 * ns(Layer::FeedbackOnPacket),
        ),
        (
            "net.feedback.flush",
            costs.calls_per_sim_s(Layer::FeedbackFlush)
                * counts.sim_secs
                * ns(Layer::FeedbackFlush),
        ),
        (
            "net.assembler.push",
            counts.packets_delivered as f64 * ns(Layer::AssemblerPush),
        ),
        (
            "net.validator",
            counts.reports_checked as f64 * ns(Layer::ValidatorCheck),
        ),
        ("cc", arena_ns),
        (
            "metrics.recorder",
            counts.frames_captured as f64 * ns(Layer::RecorderPush),
        ),
        ("obs.record", counts.obs_records as f64 * ns(own_obs)),
    ];
    let explained: f64 = shares.iter().map(|(_, v)| v).sum();
    for (name, v) in &shares {
        println!("layer share {name:<24} {:.4}", v / busy_ns.max(1.0));
    }

    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall.as_secs_f64()).collect();
    let untraced_walls: Vec<f64> = untraced.iter().map(|p| p.wall.as_secs_f64()).collect();
    // The grid's pool span is a `run_suite_opts` call, which assembles
    // after the pool; the re-timed assembly stands in for that tail.
    let pool_wall = spans
        .total("pool")
        .saturating_sub(spans.total("assemble"))
        .as_secs_f64();
    let pool_busy: f64 = std::iter::once(&first)
        .chain(&traced)
        .map(|p| p.stats.busy.as_secs_f64())
        .sum();
    let jobs = args.jobs.min(first.cells).max(1) as f64;
    let traced_refs: Vec<&Pass> = std::iter::once(&first).chain(&traced).collect();
    let med =
        |f: &dyn Fn(&Pass) -> f64| median(&traced_refs.iter().map(|p| f(p)).collect::<Vec<_>>());
    let gen_us = |l: Layer| ns(l) / 1e3;

    let mut metrics: Vec<Metric> = vec![
        ("harness.expand_ms".into(), median(&setups), "ms"),
        (
            "harness.pool_busy_ms".into(),
            med(&|p| ms(p.stats.busy)),
            "ms",
        ),
        (
            "harness.pool_idle_frac".into(),
            1.0 - pool_busy / (pool_wall * jobs).max(1e-12),
            "fraction",
        ),
        (
            "harness.cache_hit_ratio".into(),
            first.stats.cache_hits as f64 / first.stats.total_cells.max(1) as f64,
            "fraction",
        ),
        (
            "harness.executed".into(),
            first.stats.executed as f64,
            "count",
        ),
        ("harness.assemble_ms".into(), med(&|p| ms(p.assemble)), "ms"),
        (
            "harness.render_json_ms".into(),
            med(&|p| ms(p.render)),
            "ms",
        ),
        (
            "harness.allocs_avoided".into(),
            first.stats.allocs_avoided as f64,
            "count",
        ),
        (
            "pipeline.events_per_sim_s".into(),
            counts.events as f64 / counts.sim_secs.max(1e-9),
            "events/sim_s",
        ),
        (
            "pipeline.ns_per_event".into(),
            busy_ns / counts.events.max(1) as f64,
            "ns",
        ),
        (
            "pipeline.step_residual_share".into(),
            (busy_ns - explained) / busy_ns.max(1.0),
            "fraction",
        ),
        ("sim.queue.push_pop_ns".into(), costs.push_pop_ns(), "ns"),
        ("video.next_frame_ns".into(), ns(Layer::NextFrame), "ns"),
        ("codec.encode_ns".into(), ns(Layer::Encode), "ns"),
        (
            "codec.frames_encoded".into(),
            counts.frames_encoded as f64,
            "count",
        ),
        ("core.on_frame_ns".into(), ns(Layer::CoreOnFrame), "ns"),
        (
            "core.on_feedback_ns".into(),
            ns(Layer::CoreOnFeedback),
            "ns",
        ),
        (
            "core.drops_handled".into(),
            counts.drops_handled as f64,
            "count",
        ),
        ("net.packetize_ns".into(), ns(Layer::Packetize), "ns"),
        ("net.pacer.release_ns".into(), ns(Layer::PacerRelease), "ns"),
        ("net.link.send_ns".into(), ns(Layer::LinkSend), "ns"),
        (
            "net.feedback.on_packet_ns".into(),
            ns(Layer::FeedbackOnPacket),
            "ns",
        ),
        (
            "net.feedback.flush_ns".into(),
            ns(Layer::FeedbackFlush),
            "ns",
        ),
        (
            "net.assembler.push_ns".into(),
            ns(Layer::AssemblerPush),
            "ns",
        ),
        (
            "net.packets_sent".into(),
            counts.packets_sent as f64,
            "count",
        ),
        (
            "net.packets_dropped".into(),
            counts.packets_dropped as f64,
            "count",
        ),
        (
            "net.retransmissions".into(),
            counts.retransmissions as f64,
            "count",
        ),
        (
            "net.fec_recovered".into(),
            counts.fec_recovered as f64,
            "count",
        ),
        (
            "net.validator.check_ns".into(),
            ns(Layer::ValidatorCheck),
            "ns",
        ),
        (
            "net.validator.reject_ratio".into(),
            counts.reports_rejected as f64 / counts.reports_checked.max(1) as f64,
            "fraction",
        ),
        (
            "net.chaos.generate_us".into(),
            gen_us(Layer::ChaosGenerate),
            "us",
        ),
        (
            "net.corrupt.generate_us".into(),
            gen_us(Layer::CorruptGenerate),
            "us",
        ),
    ];
    for (kind, layer) in ARENA {
        let name = kind.arena_name().unwrap_or(kind.cc_name());
        metrics.push((format!("cc.{name}.on_feedback_ns"), ns(layer), "ns"));
    }
    metrics.extend([
        (
            "cc.feedback_reports".to_string(),
            counts.reports_accepted as f64,
            "count",
        ),
        (
            "metrics.recorder.push_ns".into(),
            ns(Layer::RecorderPush),
            "ns",
        ),
        ("metrics.summarize_us".into(), median(&summarize), "us"),
        ("obs.record_ns.off".into(), ns(Layer::ObsOff), "ns"),
        (
            "obs.record_ns.counters".into(),
            ns(Layer::ObsCounters),
            "ns",
        ),
        ("obs.record_ns.full".into(), ns(Layer::ObsFull), "ns"),
        (
            "obs.overhead_frac".into(),
            median(&traced_walls) / median(&untraced_walls) - 1.0,
            "fraction",
        ),
        ("trace.rate_bps_ns".into(), ns(Layer::RateBps), "ns"),
    ]);
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    if let Some(path) = &args.spans_out {
        std::fs::write(path, spans.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans written to {path}");
    }
    result_line(correct, attempted, failed, &metrics)
}
