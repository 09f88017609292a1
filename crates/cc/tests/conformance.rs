//! The shared controller conformance suite.
//!
//! One parameterized battery, run against every [`CongestionController`]
//! in the arena (GCC, NADA, BBR-style, loss-EMA AIMD). A controller that
//! joins the arena gets these correctness checks for free:
//!
//! 1. **Finite and bounded** — targets stay finite and inside
//!    `[min_rate, max_rate]` under arbitrary feedback (property test).
//! 2. **Ramp-up** — on a clean, uncongested link the target grows; the
//!    running maximum is non-decreasing and dips below it are bounded
//!    by the probe headroom (BBR legitimately retreats from a probe).
//! 3. **Convergence** — closed-loop against a fixed-capacity link, the
//!    late-session mean target lands within a tolerance band of
//!    capacity.
//! 4. **Step-drop reaction** — after a 4 → 1 Mbps capacity drop the
//!    target falls under 2 × the new capacity within a bounded number
//!    of feedback reports.
//! 5. **Blackout recovery** — after a 1 s total outage the target climbs
//!    back above 40 % of capacity within a generous deadline (the
//!    loss-EMA controller's smoothing makes it the slowest, by design).
//! 6. **Determinism** — the same feedback stream produces a bit-identical
//!    target sequence.
//!
//! The closed-loop tests drive a miniature fluid-queue link model: the
//! sender emits packets at the controller's target, a FIFO queue drains
//! at link capacity, queuing delay is queue/capacity, and packets whose
//! queuing delay would exceed the buffer bound are dropped. It is the
//! simplest plant that produces the three signals real controllers feed
//! on — delay gradients, loss, and delivery rate.

use ravel_cc::{Bbr, CongestionController, Gcc, LossEma, Nada, MAX_BPS, MIN_BPS};
use ravel_net::{FeedbackReport, PacketResult};
use ravel_sim::Time;

/// Shared starting rate.
const START_BPS: f64 = 1e6;

type Factory = fn() -> Box<dyn CongestionController>;

/// Every controller in the arena, by factory so tests can instantiate
/// fresh (or duplicate) instances.
fn arena() -> Vec<(&'static str, Factory)> {
    vec![
        ("gcc", || Box::new(Gcc::new(START_BPS))),
        ("nada", || Box::new(Nada::new(START_BPS))),
        ("bbr", || Box::new(Bbr::new(START_BPS))),
        ("loss-ema", || Box::new(LossEma::new(START_BPS))),
    ]
}

/// Miniature closed-loop link: fluid FIFO queue draining at
/// `capacity_bps`, fixed propagation delay, tail drop beyond
/// `queue_cap_ms` of standing delay. One `round` is 100 ms of sending
/// at the controller's current target, folded into one feedback report.
struct TestLink {
    capacity_bps: f64,
    base_owd_ms: f64,
    queue_cap_ms: f64,
    queue_bits: f64,
    seq: u64,
    report_seq: u64,
    now_ms: f64,
}

const ROUND_MS: f64 = 100.0;
const PKT_BYTES: u64 = 1250;

impl TestLink {
    fn new(capacity_bps: f64) -> TestLink {
        TestLink {
            capacity_bps,
            base_owd_ms: 20.0,
            queue_cap_ms: 400.0,
            queue_bits: 0.0,
            seq: 0,
            report_seq: 0,
            now_ms: 0.0,
        }
    }

    fn t(ms: f64) -> Time {
        Time::from_micros((ms * 1000.0) as u64)
    }

    /// Runs one 100 ms round of sending at `rate_bps`; returns the
    /// receiver's feedback report. `blackout` loses every packet.
    fn round(&mut self, rate_bps: f64, blackout: bool) -> FeedbackReport {
        let pkt_bits = (PKT_BYTES * 8) as f64;
        let n = ((rate_bps * ROUND_MS / 1000.0 / pkt_bits).round() as u64).clamp(1, 200);
        let gap_ms = ROUND_MS / n as f64;
        let mut packets = Vec::with_capacity(n as usize);
        for i in 0..n {
            let send_ms = self.now_ms + i as f64 * gap_ms;
            // Drain since the previous send, then enqueue this packet.
            self.queue_bits = (self.queue_bits - self.capacity_bps * gap_ms / 1000.0).max(0.0);
            self.queue_bits += pkt_bits;
            let qdelay_ms = self.queue_bits / self.capacity_bps * 1000.0;
            let dropped = blackout || qdelay_ms > self.queue_cap_ms;
            if dropped {
                // Tail drop: the packet never occupies the queue.
                self.queue_bits -= pkt_bits;
            }
            packets.push(PacketResult {
                seq: self.seq,
                send_time: TestLink::t(send_ms),
                arrival: (!dropped).then(|| TestLink::t(send_ms + self.base_owd_ms + qdelay_ms)),
                size_bytes: if dropped { 0 } else { PKT_BYTES },
            });
            self.seq += 1;
        }
        self.now_ms += ROUND_MS;
        self.report_seq += 1;
        FeedbackReport {
            report_seq: self.report_seq,
            generated_at: TestLink::t(self.now_ms + self.base_owd_ms + self.queue_cap_ms),
            packets,
        }
    }

    /// Drives `cc` for `rounds` feedback rounds; returns the target
    /// after each round.
    fn drive(&mut self, cc: &mut dyn CongestionController, rounds: usize) -> Vec<f64> {
        let mut targets = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let report = self.round(cc.target_bps(), false);
            let now = TestLink::t(self.now_ms);
            targets.push(cc.on_feedback(&report, now));
        }
        targets
    }

    /// Like [`TestLink::drive`], but every packet is lost.
    fn drive_blackout(&mut self, cc: &mut dyn CongestionController, rounds: usize) -> Vec<f64> {
        let mut targets = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let report = self.round(cc.target_bps(), true);
            let now = TestLink::t(self.now_ms);
            targets.push(cc.on_feedback(&report, now));
        }
        targets
    }
}

fn assert_bounded(name: &str, target: f64) {
    assert!(target.is_finite(), "{name}: non-finite target {target}");
    assert!(
        (MIN_BPS..=MAX_BPS).contains(&target),
        "{name}: target {target} outside [{MIN_BPS}, {MAX_BPS}]"
    );
}

// ---------------------------------------------------------------------
// 1. Finite and bounded under arbitrary feedback.
// ---------------------------------------------------------------------

/// Builds one feedback report from a fuzzed round descriptor while
/// keeping sequence numbers and send times monotone across reports.
fn fuzz_report(
    seq: &mut u64,
    t_ms: &mut u64,
    n: u64,
    gap_ms: u64,
    owd_ms: u64,
    lost_every: u64,
    size: u64,
) -> FeedbackReport {
    let packets = (0..n)
        .map(|i| {
            let send = Time::from_millis(*t_ms + i * gap_ms);
            let lost = lost_every > 0 && i % lost_every == 0;
            PacketResult {
                seq: *seq + i,
                send_time: send,
                arrival: (!lost).then(|| send + ravel_sim::Dur::millis(owd_ms)),
                size_bytes: if lost { 0 } else { size },
            }
        })
        .collect();
    *seq += n;
    *t_ms += n.max(1) * gap_ms;
    FeedbackReport {
        report_seq: *seq,
        generated_at: Time::from_millis(*t_ms + owd_ms),
        packets,
    }
}

proptest::proptest! {
    /// Under any feedback stream — including empty reports, 100 % loss,
    /// wild delay swings and absurd packet sizes — every controller's
    /// target stays finite and inside `[MIN_BPS, MAX_BPS]`.
    #[test]
    fn targets_stay_finite_and_bounded_under_arbitrary_feedback(
        rounds in proptest::collection::vec(
            ((0u64..25, 1u64..40), (0u64..400, 0u64..6), 1u64..30_000),
            1..40,
        )
    ) {
        for (name, make) in arena() {
            let mut cc = make();
            let (mut seq, mut t_ms) = (0u64, 0u64);
            for &((n, gap_ms), (owd_ms, lost_every), size) in &rounds {
                let report = fuzz_report(
                    &mut seq, &mut t_ms, n, gap_ms, owd_ms, lost_every, size,
                );
                let now = Time::from_millis(t_ms + owd_ms + 1);
                let target = cc.on_feedback(&report, now);
                proptest::prop_assert!(
                    target.is_finite() && (MIN_BPS..=MAX_BPS).contains(&target),
                    "{name}: target {target} out of bounds"
                );
                proptest::prop_assert_eq!(target, cc.target_bps());
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Ramp-up on a clean link.
// ---------------------------------------------------------------------

/// Dips below the running maximum are bounded by the probe headroom:
/// a BBR-style controller legitimately retreats from a 1.25× probe to
/// cruise (1/1.25 = 0.8 of the peak); anything deeper on a clean link
/// is a regression. Monotone controllers never dip at all.
const RAMP_DIP_FLOOR: f64 = 0.74;

#[test]
fn ramp_up_grows_on_a_clean_link() {
    for (name, make) in arena() {
        let mut cc = make();
        // Capacity above MAX_BPS: the link never pushes back, so every
        // decrease would be self-inflicted.
        let mut link = TestLink::new(12e6);
        let targets = link.drive(cc.as_mut(), 200);
        let mut running_max = START_BPS;
        for (i, &t) in targets.iter().enumerate() {
            assert_bounded(name, t);
            assert!(
                t >= RAMP_DIP_FLOOR * running_max,
                "{name}: round {i} target {t} fell below {RAMP_DIP_FLOOR} of peak {running_max}"
            );
            running_max = running_max.max(t);
        }
        let last = *targets.last().unwrap();
        assert!(
            last >= 3.0 * START_BPS,
            "{name}: no meaningful ramp-up in 20 s (ended at {last})"
        );
    }
}

// ---------------------------------------------------------------------
// 3. Convergence to a tolerance band of link capacity.
// ---------------------------------------------------------------------

#[test]
fn converges_to_a_band_around_capacity() {
    const CAPACITY: f64 = 3e6;
    for (name, make) in arena() {
        let mut cc = make();
        let mut link = TestLink::new(CAPACITY);
        let targets = link.drive(cc.as_mut(), 300);
        let tail = &targets[250..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (0.5 * CAPACITY..=1.5 * CAPACITY).contains(&mean),
            "{name}: late-session mean target {mean} outside [{}, {}]",
            0.5 * CAPACITY,
            1.5 * CAPACITY
        );
    }
}

// ---------------------------------------------------------------------
// 4. Reaction to a step drop.
// ---------------------------------------------------------------------

#[test]
fn reacts_to_a_step_drop_within_bounded_reports() {
    const PRE: f64 = 4e6;
    const POST: f64 = 1e6;
    // GCC's overuse staircase and loss-EMA's per-second intervals are
    // the slow end; 80 reports (8 s) bounds both with margin.
    const DEADLINE_ROUNDS: usize = 80;
    for (name, make) in arena() {
        let mut cc = make();
        let mut link = TestLink::new(PRE);
        link.drive(cc.as_mut(), 100);
        link.capacity_bps = POST;
        let targets = link.drive(cc.as_mut(), DEADLINE_ROUNDS);
        let reacted = targets.iter().position(|&t| t <= 2.0 * POST);
        assert!(
            reacted.is_some(),
            "{name}: target never fell under {} within {DEADLINE_ROUNDS} reports of a {}→{} drop \
             (ended at {})",
            2.0 * POST,
            PRE,
            POST,
            targets.last().unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// 5. Recovery after a blackout.
// ---------------------------------------------------------------------

#[test]
fn recovers_after_a_blackout() {
    const CAPACITY: f64 = 1e6;
    // Generous by design: the loss-EMA controller must first decay its
    // smoothed estimate below the probe threshold (~10 s) and then
    // compound 10 %/s increases from wherever the backoffs left it.
    const RECOVERY_ROUNDS: usize = 300;
    for (name, make) in arena() {
        let mut cc = make();
        let mut link = TestLink::new(CAPACITY);
        link.drive(cc.as_mut(), 100);
        // 1 s total outage.
        let during = link.drive_blackout(cc.as_mut(), 10);
        for &t in &during {
            assert_bounded(name, t);
        }
        let after = link.drive(cc.as_mut(), RECOVERY_ROUNDS);
        let recovered = after.iter().position(|&t| t >= 0.4 * CAPACITY);
        assert!(
            recovered.is_some(),
            "{name}: target never recovered to {} within {RECOVERY_ROUNDS} reports after a \
             blackout (ended at {})",
            0.4 * CAPACITY,
            after.last().unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// 6. Determinism: same feedback stream ⇒ bit-identical targets.
// ---------------------------------------------------------------------

#[test]
fn same_feedback_stream_is_bit_identical() {
    for (name, make) in arena() {
        let run = |mut cc: Box<dyn CongestionController>| -> Vec<u64> {
            let mut link = TestLink::new(2.5e6);
            let mut bits = Vec::new();
            // A deliberately eventful closed-loop stream: converge,
            // blackout, recover, then a capacity drop.
            bits.extend(link.drive(cc.as_mut(), 80).iter().map(|t| t.to_bits()));
            bits.extend(
                link.drive_blackout(cc.as_mut(), 5)
                    .iter()
                    .map(|t| t.to_bits()),
            );
            bits.extend(link.drive(cc.as_mut(), 80).iter().map(|t| t.to_bits()));
            link.capacity_bps = 800_000.0;
            bits.extend(link.drive(cc.as_mut(), 80).iter().map(|t| t.to_bits()));
            bits
        };
        let (a, b) = (run(make()), run(make()));
        assert_eq!(a, b, "{name}: target sequence not bit-identical");
    }
}

// ---------------------------------------------------------------------
// Arena hygiene: names and decision reasons.
// ---------------------------------------------------------------------

#[test]
fn names_and_decision_reasons_are_stable() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, make) in arena() {
        let cc = make();
        assert_eq!(cc.name(), name, "factory/controller name mismatch");
        assert!(seen.insert(cc.name()), "duplicate controller name {name}");
        assert!(!cc.decision_reason().is_empty());
    }
}
