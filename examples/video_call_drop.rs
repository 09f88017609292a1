//! A video call riding through a cellular-style bandwidth drop, with a
//! time-series dump suitable for plotting (the poster's motivating
//! "latency spike" picture).
//!
//! Prints CSV: one block per scheme with capacity, encoder target, send
//! rate, bottleneck queue delay and per-frame latency around the drop.
//!
//! ```text
//! cargo run --release --example video_call_drop > drop_series.csv
//! ```

use ravel::pipeline::{run_session, Scheme, SessionConfig};
use ravel::sim::{window_means, Dur, Series, Time};
use ravel::trace::StepTrace;
use ravel::video::ContentClass;

fn main() {
    let drop_at = Time::from_secs(10);

    for scheme in [Scheme::baseline(), Scheme::adaptive()] {
        let mut cfg = SessionConfig::default_with(scheme);
        cfg.content = ContentClass::TalkingHead;
        cfg.duration = Dur::secs(25);
        cfg.record_series = true;
        let result = run_session(StepTrace::sudden_drop(4e6, 1e6, drop_at), cfg);

        println!("# scheme={}", scheme.name());
        println!("time_s,capacity_mbps,target_mbps,send_mbps,queue_ms,latency_ms");
        // Sample every 100 ms from 8 s to 18 s.
        let windows = (0..100u64).map(|step| {
            let at = |k| Time::from_millis(8_000 + k * 100);
            (at(step), at(step + 1))
        });
        let means = |s| {
            let series = result.series.get(s).expect("series recorded");
            window_means(series.points(), windows.clone())
        };
        let (cap, tgt, snd, q) = (
            means(Series::CapacityBps),
            means(Series::TargetBps),
            means(Series::SendRateBps),
            means(Series::LinkQueueMs),
        );
        let lat = window_means(result.recorder.latencies_ms(), windows.clone());
        for (i, (t, _)) in windows.clone().enumerate() {
            println!(
                "{:.1},{:.3},{:.3},{:.3},{:.1},{:.1}",
                t.as_secs_f64(),
                cap[i] / 1e6,
                tgt[i] / 1e6,
                snd[i] / 1e6,
                q[i],
                lat[i],
            );
        }
        let s = result.recorder.summarize(drop_at, drop_at + Dur::secs(8));
        println!(
            "# post-drop: mean={:.1}ms p95={:.1}ms ssim={:.4} freezes={}",
            s.mean_latency_ms, s.p95_latency_ms, s.mean_ssim, s.frozen
        );
        println!();
    }
}
