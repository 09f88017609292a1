//! Golden digest of everything a recorded session stores.
//!
//! One long-call-shaped session per arena controller (120 s over an
//! LTE-like trace at 720p, `--obs full` plus `record_series`) is run,
//! and an FNV-1a digest is taken over every obs record, every series
//! point's bits and every frame record. The timeline digests and the
//! grid tables only see summaries of these; this snapshot pins the
//! recorded data itself, so a speed-up of the recording path must
//! leave it byte-identical.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ravel-harness --test golden_recording
//! ```

mod common;

use std::fmt::Write as _;

use ravel_harness::{run_cells_opts, Cell, ObsMode, PoolOptions, TraceSpec};
use ravel_pipeline::{CcKind, Scheme, SessionConfig, SessionResult};
use ravel_sim::Dur;
use ravel_video::Resolution;

/// Session length: long enough to cross many LTE-like capacity swings.
const LEN: Dur = Dur::secs(120);

const CONTROLLERS: [CcKind; 4] = [CcKind::Gcc, CcKind::Nada, CcKind::Bbr, CcKind::LossEma];

/// 64-bit FNV-1a, fed through `fmt::Write`.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn cell(i: u64, cc: CcKind) -> Cell {
    let mut cfg = SessionConfig::default_with(Scheme::cc_adaptive(cc));
    cfg.duration = LEN;
    cfg.resolution = Resolution::P720;
    cfg.record_series = true;
    cfg.seed = 11 + i;
    Cell {
        label: format!("recording/{}", cc.cc_name()),
        trace: TraceSpec::LteLike {
            seed: 31 + i,
            len: LEN,
        },
        cfg,
        contracts: None,
    }
}

/// One line: the counts of each record kind and the digest over all
/// of them.
fn digest_line(label: &str, r: &SessionResult) -> String {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut obs = 0;
    for rec in r.obs.events() {
        let _ = write!(h, "{}|{:?}|", rec.at.as_micros(), rec.event);
        obs += 1;
    }
    let mut points = 0;
    for (kind, series) in r.series.iter() {
        let _ = write!(h, "{}:", kind.name());
        for (at, v) in series.points() {
            let _ = write!(h, "{},{:x};", at.as_micros(), v.to_bits());
            points += 1;
        }
    }
    for f in r.recorder.records() {
        let _ = write!(
            h,
            "{}|{:?}|{:?}|{:x}|{:?}|",
            f.pts.as_micros(),
            f.outcome,
            f.latency.map(Dur::as_micros),
            f.ssim.to_bits(),
            f.psnr_db.map(f64::to_bits),
        );
    }
    format!(
        "{label} obs={obs} series_points={points} frames={} fnv1a={:016x}",
        r.recorder.records().len(),
        h.0
    )
}

#[test]
fn recorded_sessions_match_their_golden_digest() {
    let cells: Vec<Cell> = (0..).zip(CONTROLLERS).map(|(i, cc)| cell(i, cc)).collect();
    let opts = PoolOptions {
        obs: ObsMode::Full,
        ..PoolOptions::default()
    };
    let (runs, _) = run_cells_opts(&cells, 2, opts);
    let mut out = String::new();
    for run in &runs {
        assert!(run.ok(), "{} did not complete", run.label);
        writeln!(out, "{}", digest_line(&run.label, &run.result)).unwrap();
    }
    common::check_golden("recording.digest", &out);
}
