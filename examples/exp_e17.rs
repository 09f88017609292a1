//! E17 acceptance harness: control-plane robustness under feedback
//! impairment.
//!
//! Runs the headline E17 condition — a 4→1 Mbps capacity drop at t=10 s
//! with the *reverse* path simultaneously impaired (30% i.i.d. feedback
//! loss plus a 1 s feedback blackout starting at the drop) — for the
//! adaptive scheme with and without the feedback watchdog, plus the
//! unimpaired control run, all three concurrently on the harness pool.
//! Prints post-drop latency, the blind-period send-rate decay, and
//! reverse-path accounting, then re-runs the watchdog session with the
//! same seed to demonstrate byte-identical determinism under fault
//! injection.
//!
//! ```text
//! cargo run --release --example exp_e17 [jobs]
//! ```

use ravel::core::WatchdogConfig;
use ravel::harness::{default_jobs, run_cells, Cell, TraceSpec};
use ravel::metrics::Table;
use ravel::net::ReversePathConfig;
use ravel::pipeline::{run_session, Scheme, SessionConfig};
use ravel::sim::{Dur, Time};

const DROP_AT: Time = Time::from_secs(10);

fn cell(name: &str, impaired: bool, watchdog: bool) -> Cell {
    let mut cfg = SessionConfig::default_with(Scheme::adaptive());
    cfg.duration = Dur::secs(30);
    cfg.record_series = true;
    if impaired {
        cfg.reverse_path =
            ReversePathConfig::with_loss(0.3).add_blackout(DROP_AT, DROP_AT + Dur::secs(1));
    }
    if watchdog {
        cfg.watchdog = Some(WatchdogConfig::for_timing(
            cfg.feedback_interval,
            cfg.reverse_delay * 2,
        ));
    }
    Cell {
        label: name.to_string(),
        trace: TraceSpec::SuddenDrop {
            pre_bps: 4e6,
            after_bps: 1e6,
            at: DROP_AT,
        },
        cfg,
        contracts: None,
    }
}

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(default_jobs);

    println!("\n=== E17: 4->1 Mbps drop + 30% feedback loss + 1 s blackout ===\n");

    let cells = vec![
        cell("clean reverse path", false, false),
        cell("impaired, no watchdog", true, false),
        cell("impaired + watchdog", true, true),
    ];
    let runs = run_cells(&cells, jobs);

    let mut t = Table::new(&[
        "run",
        "p50_ms",
        "p95_ms",
        "sess_ssim",
        "wd_steps",
        "discarded",
        "rev_lost",
        "plis",
    ]);
    let mut p95 = Vec::new();
    for run in &runs {
        let r = &run.result;
        let w = r.recorder.summarize(DROP_AT, DROP_AT + Dur::secs(8));
        p95.push((run.label.clone(), w.p95_latency_ms));
        t.row_owned(vec![
            run.label.clone(),
            format!("{:.1}", w.p50_latency_ms),
            format!("{:.1}", w.p95_latency_ms),
            format!("{:.4}", r.recorder.summarize_all().mean_ssim),
            r.watchdog_timeouts.to_string(),
            r.reports_discarded.to_string(),
            r.reverse_lost.to_string(),
            r.plis_sent.to_string(),
        ]);
    }
    println!("{}", t.render());

    // Blind-period decay: the commanded target in successive 250 ms
    // windows through the blackout, watchdog on (the pool's third cell).
    let r = &runs[2].result;
    let target = r.series.get("target_bps").expect("series recorded");
    println!("target_bps through the 1 s blackout (watchdog on):");
    for i in 0..6u64 {
        let from = DROP_AT + Dur::millis(250 * i);
        let to = DROP_AT + Dur::millis(250 * (i + 1));
        println!(
            "  t+{:>4} ms  {:>7.0} kbps",
            250 * (i + 1),
            target.mean_in(from, to) / 1e3
        );
    }

    // Determinism: identical seed + fault schedule => byte-identical
    // run, even though the first copy ran on a pool worker.
    let r2 = run_session(cells[2].trace.build(), cells[2].cfg);
    assert_eq!(r.recorder.records(), r2.recorder.records());
    assert_eq!(r.watchdog_timeouts, r2.watchdog_timeouts);
    assert_eq!(r.reports_discarded, r2.reports_discarded);
    assert_eq!(r.reverse_lost, r2.reverse_lost);
    println!("\ndeterminism: replayed run is byte-identical ✓");

    let no_wd = p95
        .iter()
        .find(|(n, _)| n == "impaired, no watchdog")
        .unwrap()
        .1;
    let with_wd = p95
        .iter()
        .find(|(n, _)| n == "impaired + watchdog")
        .unwrap()
        .1;
    println!("p95 during blind window: {no_wd:.1} ms (no watchdog) -> {with_wd:.1} ms (watchdog)");
}
