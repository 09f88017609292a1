//! The bottleneck link: drop-tail queue + time-varying serializer.
//!
//! The link is the stage where encoder overshoot becomes latency. Its
//! model is a single FIFO serializer whose rate follows a
//! [`BandwidthTrace`], fronted by a byte-bounded drop-tail queue, followed
//! by fixed propagation delay, optional seeded jitter, and Bernoulli
//! loss.
//!
//! Delivery times are computed *analytically at send time*: each packet's
//! serialization start is `max(now, link_free_at)` and its transmission
//! time integrates the capacity trace in ≤1 ms slices (exact for the
//! piecewise-constant traces in `ravel-trace` down to that grain). This
//! keeps the simulation event count at one event per packet while
//! producing the same queueing dynamics as a byte-level model.
//!
//! The rate is looked up once per constant span of the trace
//! ([`BandwidthTrace::rate_span`]), not once per slice: the link keeps
//! the current span across slices and across sends, since both only
//! move forward in time, so most packets need no trace lookup at all.
//! A zero-rate span (a blackout, a dead link) is crossed in one step.

use std::collections::VecDeque;

use ravel_sim::{Dur, Rng, Time};
use ravel_trace::BandwidthTrace;

use crate::packet::Packet;

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub propagation: Dur,
    /// Drop-tail queue bound in bytes (including the packet in service).
    /// Typical last-mile buffers hold ~100–300 ms at the nominal rate.
    pub queue_capacity_bytes: u64,
    /// Standard deviation of per-packet delivery jitter (0 disables).
    /// Jitter never reorders packets.
    pub jitter_std: Dur,
    /// Independent per-packet loss probability after the queue
    /// (wireless-style loss, not congestion loss).
    pub random_loss: f64,
}

impl LinkConfig {
    /// A typical last-mile path: 20 ms propagation (40 ms RTT), 250 KB
    /// buffer (≈500 ms at 4 Mbps), no jitter, no random loss.
    pub fn typical() -> LinkConfig {
        LinkConfig {
            propagation: Dur::millis(20),
            queue_capacity_bytes: 250_000,
            jitter_std: Dur::ZERO,
            random_loss: 0.0,
        }
    }
}

/// The outcome of offering one packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The packet will arrive at the far end at this instant.
    At(Time),
    /// The queue was full; the packet was dropped at the tail.
    QueueDrop,
    /// The packet was lost in flight (random loss).
    Lost,
}

impl Delivery {
    /// The arrival time, if the packet survives.
    pub fn arrival(self) -> Option<Time> {
        match self {
            Delivery::At(t) => Some(t),
            _ => None,
        }
    }
}

/// A bottleneck link over a capacity trace.
#[derive(Debug, Clone)]
pub struct Link<T> {
    trace: T,
    cfg: LinkConfig,
    rng: Rng,
    /// When the serializer finishes its current backlog.
    free_at: Time,
    /// Scheduled (serialization-finish, wire bytes) of queued packets,
    /// used to measure the live backlog for drop-tail.
    scheduled: VecDeque<(Time, u64)>,
    /// Running sum of `scheduled` bytes, so the per-send drop-tail check
    /// is O(drained) instead of re-summing the whole queue.
    backlog: u64,
    /// Monotonic delivery floor so jitter cannot reorder.
    last_arrival: Time,
    /// The trace's rate over `[from, until)`, from the last lookup.
    span: Span,
    /// Lifetime counters.
    delivered: u64,
    queue_drops: u64,
    random_losses: u64,
}

impl<T: BandwidthTrace> Link<T> {
    /// Creates a link over `trace` with the given config; `seed` drives
    /// jitter and loss.
    pub fn new(trace: T, cfg: LinkConfig, seed: u64) -> Link<T> {
        assert!(
            (0.0..1.0).contains(&cfg.random_loss),
            "Link: loss probability {} out of range",
            cfg.random_loss
        );
        assert!(cfg.queue_capacity_bytes > 0, "Link: zero queue capacity");
        Link {
            trace,
            cfg,
            rng: Rng::substream(seed, 0x11F0),
            free_at: Time::ZERO,
            scheduled: VecDeque::with_capacity(128),
            backlog: 0,
            last_arrival: Time::ZERO,
            span: Span {
                from: Time::ZERO,
                until: Time::ZERO,
                rate: 0.0,
            },
            delivered: 0,
            queue_drops: 0,
            random_losses: 0,
        }
    }

    /// The capacity trace.
    pub fn trace(&self) -> &T {
        &self.trace
    }

    /// The trace's rate at `t`, equal to `trace().rate_bps(t)` bit for
    /// bit, read from the cached constant span when `t` falls inside it.
    pub fn rate_bps(&mut self, t: Time) -> f64 {
        self.rate_span(t).0
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped at the queue tail so far.
    pub fn queue_drops(&self) -> u64 {
        self.queue_drops
    }

    /// Packets lost to random loss so far.
    pub fn random_losses(&self) -> u64 {
        self.random_losses
    }

    /// Bytes currently queued ahead of a packet arriving at `now`
    /// (including any packet in service).
    pub fn backlog_bytes(&mut self, now: Time) -> u64 {
        while let Some(&(finish, bytes)) = self.scheduled.front() {
            if finish <= now {
                self.scheduled.pop_front();
                self.backlog -= bytes;
            } else {
                break;
            }
        }
        self.backlog
    }

    /// The queueing delay a packet sent at `now` would currently inherit.
    pub fn queue_delay(&self, now: Time) -> Dur {
        self.free_at.saturating_since(now)
    }

    /// Offers one packet to the link at time `now`; `now` must be
    /// non-decreasing across calls.
    pub fn send(&mut self, packet: &Packet, now: Time) -> Delivery {
        // Drop-tail check against the live backlog.
        let backlog = self.backlog_bytes(now);
        if backlog + packet.size_bytes > self.cfg.queue_capacity_bytes {
            self.queue_drops += 1;
            return Delivery::QueueDrop;
        }

        // Serialize after the existing backlog.
        let start = self.free_at.max(now);
        let finish = self.serialize(start, packet.size_bits());
        self.free_at = finish;
        self.scheduled.push_back((finish, packet.size_bytes));
        self.backlog += packet.size_bytes;

        // Random (wireless) loss still occupies the serializer.
        if self.cfg.random_loss > 0.0 && self.rng.chance(self.cfg.random_loss) {
            self.random_losses += 1;
            return Delivery::Lost;
        }

        let mut arrival = finish + self.cfg.propagation;
        if !self.cfg.jitter_std.is_zero() {
            let jitter = self.rng.normal().abs() * self.cfg.jitter_std.as_secs_f64();
            arrival += Dur::from_secs_f64(jitter);
        }
        // Enforce FIFO delivery despite jitter.
        arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        self.delivered += 1;
        Delivery::At(arrival)
    }

    /// The trace's rate at `t` and the end of its constant span, looked
    /// up only when `t` leaves the cached span.
    fn rate_span(&mut self, t: Time) -> (f64, Time) {
        if !(self.span.from <= t && t < self.span.until) {
            let (rate, until) = self.trace.rate_span(t);
            self.span = Span {
                from: t,
                until,
                rate,
            };
        }
        (self.span.rate, self.span.until)
    }

    /// Integrates the capacity trace from `start` until `bits` have been
    /// transmitted, in ≤1 ms slices. The rate comes from the cached
    /// constant span, so a lookup happens only at a span edge; a
    /// zero-rate span is crossed in one step, to the first slice
    /// boundary at or past its end (or the deadline). The slice
    /// arithmetic is the same as with a lookup per slice, so the finish
    /// time is too.
    fn serialize(&mut self, start: Time, bits: u64) -> Time {
        const SLICE: Dur = Dur::MILLI;
        let mut t = start;
        let mut remaining = bits as f64;
        // Hard ceiling to avoid spinning on a dead link: 60 s per packet.
        let deadline = start + Dur::secs(60);
        while remaining > 0.0 && t < deadline {
            let (rate, until) = self.rate_span(t);
            if rate <= 0.0 {
                let gap = until.min(deadline).since(t);
                t += SLICE * gap.as_micros().div_ceil(SLICE.as_micros());
                continue;
            }
            let slice_bits = rate * SLICE.as_secs_f64();
            if slice_bits >= remaining {
                t += Dur::from_secs_f64(remaining / rate);
                remaining = 0.0;
            } else {
                remaining -= slice_bits;
                t += SLICE;
            }
        }
        t
    }
}

/// A stretch of constant capacity: `rate` over `[from, until)`.
#[derive(Debug, Clone, Copy)]
struct Span {
    from: Time,
    until: Time,
    rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MediaKind;
    use ravel_trace::{CellularProfile, ConstantTrace, StepTrace, StochasticTrace};

    fn pkt(seq: u64, size_bytes: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: 0,
            fragment: 0,
            num_fragments: 1,
            size_bytes,
            pts: Time::ZERO,
            send_time: Time::ZERO,
            is_keyframe: false,
        }
    }

    fn quiet_cfg() -> LinkConfig {
        LinkConfig {
            propagation: Dur::millis(20),
            queue_capacity_bytes: 250_000,
            jitter_std: Dur::ZERO,
            random_loss: 0.0,
        }
    }

    #[test]
    fn single_packet_delay_is_serialization_plus_propagation() {
        let mut link = Link::new(ConstantTrace::new(1e6), quiet_cfg(), 0);
        // 1250 bytes at 1 Mbps = 10 ms; +20 ms propagation = 30 ms.
        let d = link.send(&pkt(0, 1250), Time::ZERO);
        assert_eq!(d, Delivery::At(Time::from_millis(30)));
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut link = Link::new(ConstantTrace::new(1e6), quiet_cfg(), 0);
        let d0 = link.send(&pkt(0, 1250), Time::ZERO).arrival().unwrap();
        let d1 = link.send(&pkt(1, 1250), Time::ZERO).arrival().unwrap();
        assert_eq!(d0, Time::from_millis(30));
        assert_eq!(d1, Time::from_millis(40)); // 10 ms behind
    }

    #[test]
    fn queue_drains_between_sends() {
        let mut link = Link::new(ConstantTrace::new(1e6), quiet_cfg(), 0);
        link.send(&pkt(0, 1250), Time::ZERO);
        // 20 ms later the first packet has fully serialized: no backlog.
        assert_eq!(link.queue_delay(Time::from_millis(20)), Dur::ZERO);
        let d = link.send(&pkt(1, 1250), Time::from_millis(20));
        assert_eq!(d, Delivery::At(Time::from_millis(50)));
        // After the send, the in-service packet *is* the queue delay.
        assert_eq!(link.queue_delay(Time::from_millis(20)), Dur::millis(10));
    }

    #[test]
    fn drop_tail_when_queue_full() {
        let mut cfg = quiet_cfg();
        cfg.queue_capacity_bytes = 3000;
        let mut link = Link::new(ConstantTrace::new(1e6), cfg, 0);
        assert!(link.send(&pkt(0, 1250), Time::ZERO).arrival().is_some());
        assert!(link.send(&pkt(1, 1250), Time::ZERO).arrival().is_some());
        // 2500 bytes backlogged; a third 1250 B packet exceeds 3000.
        assert_eq!(link.send(&pkt(2, 1250), Time::ZERO), Delivery::QueueDrop);
        assert_eq!(link.queue_drops(), 1);
        // After the backlog drains, sends succeed again.
        assert!(link
            .send(&pkt(3, 1250), Time::from_millis(25))
            .arrival()
            .is_some());
    }

    #[test]
    fn capacity_drop_slows_serialization() {
        let trace = StepTrace::sudden_drop(1e6, 0.5e6, Time::from_millis(10));
        let mut link = Link::new(trace, quiet_cfg(), 0);
        // 2500 bytes = 20 kbit: 10 ms at 1 Mbps covers 10 kbit, the rest
        // at 0.5 Mbps takes 20 ms. Finish = 30 ms (+20 propagation).
        let d = link.send(&pkt(0, 2500), Time::ZERO).arrival().unwrap();
        assert_eq!(d, Time::from_millis(50));
    }

    #[test]
    fn step_drop_queueing_matches_the_fluid_model() {
        // An independent reference for the serializer. Arrivals at a
        // constant rate λ into a capacity that steps from C1 > λ down to
        // C2 < λ at t_d: the fluid queue is empty before the drop and
        // holds ∫(λ − C2) dt = (λ − C2)(t − t_d) bits after it, so a bit
        // arriving at t waits (λ − C2)(t − t_d)/C2. Every packet's
        // sojourn (queueing plus its own service) must stay within one
        // packet's serialization time at C2 of that closed form.
        const BYTES: u64 = 1200;
        let (c1, c2, lambda) = (4e6, 1e6, 2e6);
        let drop_at = 1.0;
        let bits = (BYTES * 8) as f64;
        let cfg = LinkConfig {
            // Deep enough that nothing drops over the 3 s of growth.
            queue_capacity_bytes: 10_000_000,
            ..quiet_cfg()
        };
        let trace = StepTrace::sudden_drop(c1, c2, Time::from_secs(1));
        let mut link = Link::new(trace, cfg, 0);
        let gap = bits / lambda;
        let mut worst: f64 = 0.0;
        let mut last_fluid = 0.0;
        for k in 0..(4.0 / gap) as u64 {
            let sent = k as f64 * gap;
            let now = Time::ZERO + Dur::from_secs_f64(sent);
            let arrival = link.send(&pkt(k, BYTES), now).arrival().expect("no drop");
            let sojourn = (arrival.saturating_since(now) - cfg.propagation).as_secs_f64();
            last_fluid = (lambda - c2) * (sent - drop_at).max(0.0) / c2;
            worst = worst.max((sojourn - last_fluid).abs());
        }
        assert!(last_fluid > 2.9, "the fluid queue grew to {last_fluid} s");
        assert!(
            worst <= bits / c2,
            "sojourn strayed {worst} s from the fluid delay (bound {} s)",
            bits / c2
        );
        assert_eq!(link.queue_drops(), 0);
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut link = Link::new(ConstantTrace::new(1e6), quiet_cfg(), 0);
        for i in 0..8 {
            link.send(&pkt(i, 1250), Time::ZERO);
        }
        // 8 × 10 ms of serialization queued.
        assert_eq!(link.queue_delay(Time::ZERO), Dur::millis(80));
        assert_eq!(link.backlog_bytes(Time::ZERO), 10_000);
        // Half drained at t = 40 ms.
        assert_eq!(link.backlog_bytes(Time::from_millis(40)), 5_000);
    }

    #[test]
    fn random_loss_statistics() {
        let mut cfg = quiet_cfg();
        cfg.random_loss = 0.1;
        let mut link = Link::new(ConstantTrace::new(100e6), cfg, 42);
        let mut lost = 0;
        for i in 0..10_000u64 {
            let t = Time::from_micros(i * 200);
            if link.send(&pkt(i, 1250), t) == Delivery::Lost {
                lost += 1;
            }
        }
        assert!((800..1200).contains(&lost), "lost {lost}/10000");
        assert_eq!(link.random_losses(), lost);
    }

    #[test]
    fn jitter_never_reorders() {
        let mut cfg = quiet_cfg();
        cfg.jitter_std = Dur::millis(5);
        let mut link = Link::new(ConstantTrace::new(10e6), cfg, 7);
        let mut last = Time::ZERO;
        for i in 0..1000u64 {
            let t = Time::from_micros(i * 1000);
            if let Some(a) = link.send(&pkt(i, 1250), t).arrival() {
                assert!(a >= last, "reordered at seq {i}");
                last = a;
            }
        }
    }

    #[test]
    fn dead_link_does_not_hang() {
        let mut link = Link::new(ConstantTrace::new(0.0), quiet_cfg(), 0);
        let d = link.send(&pkt(0, 1250), Time::ZERO);
        // Packet "arrives" only after the 60 s safety ceiling (plus
        // propagation); the important property is that send() returns.
        assert_eq!(d, Delivery::At(Time::from_millis(60_020)));
    }

    /// A trace that implements only `rate_bps`, so it keeps the default
    /// one-microsecond span: a link over it looks the rate up on every
    /// slice and steps a zero rate one slice at a time.
    #[derive(Clone)]
    struct PerSlice<T>(T);

    impl<T: BandwidthTrace> BandwidthTrace for PerSlice<T> {
        fn rate_bps(&self, at: Time) -> f64 {
            self.0.rate_bps(at)
        }
    }

    /// Offers the same packets at the same instants to a link over
    /// `trace` and to one over its per-slice wrapper: every delivery,
    /// queue delay and backlog must agree.
    fn same_as_per_slice<T: BandwidthTrace + Clone>(
        trace: T,
        cfg: LinkConfig,
        sends: &[(u64, u64)],
    ) -> Result<(), proptest::TestCaseError> {
        let mut spans = Link::new(trace.clone(), cfg, 9);
        let mut slices = Link::new(PerSlice(trace), cfg, 9);
        let mut now = Time::ZERO;
        for (seq, &(gap_us, size)) in sends.iter().enumerate() {
            now += Dur::micros(gap_us);
            let p = pkt(seq as u64, size);
            proptest::prop_assert_eq!(spans.send(&p, now), slices.send(&p, now), "seq {}", seq);
            proptest::prop_assert_eq!(spans.queue_delay(now), slices.queue_delay(now));
            proptest::prop_assert_eq!(spans.backlog_bytes(now), slices.backlog_bytes(now));
            // A rate read between sends moves the span cache back to
            // `now`; it must read the trace exactly and leave the next
            // send unchanged.
            let rate = spans.rate_bps(now);
            proptest::prop_assert_eq!(rate.to_bits(), slices.trace().rate_bps(now).to_bits());
        }
        Ok(())
    }

    proptest::proptest! {
        /// The span-cached serializer is a pure speed-up: over step,
        /// LTE-like and chaos-wrapped traces (blackouts inside capacity
        /// collapses), and a dead link, it gives the per-slice lookup's
        /// deliveries, queue delays and backlogs exactly — with a small
        /// drop-tail queue, jitter and random loss in play.
        #[test]
        fn span_cache_matches_per_slice_lookups(
            sends in proptest::collection::vec((0u64..40_000, 60u64..1_500), 1..120),
            seed in 0u64..1_000,
            fault_ms in 0u64..1_500,
        ) {
            use crate::chaos::{ChaosSchedule, ChaosTrace, FaultKind, FaultSegment};
            let lossy = LinkConfig {
                queue_capacity_bytes: 40_000,
                jitter_std: Dur::millis(2),
                random_loss: 0.05,
                ..quiet_cfg()
            };
            let step = StepTrace::new(vec![
                (Time::ZERO, 4e6),
                (Time::from_millis(300 + fault_ms), 0.0),
                (Time::from_millis(900 + fault_ms), 0.5e6),
                (Time::from_millis(1_700 + fault_ms), 2e6),
            ]);
            let lte = StochasticTrace::generate(&CellularProfile::lte_like(), Dur::secs(10), seed);
            let at = |ms: u64| Time::from_millis(ms + fault_ms);
            let fault = |from, until, kind| FaultSegment { from: at(from), until: at(until), kind };
            let schedule = ChaosSchedule::from_segments(vec![
                fault(200, 1_400, FaultKind::CapacityCollapse { factor: 0.05 }),
                fault(500, 900, FaultKind::Blackout),
                fault(1_300, 1_350, FaultKind::Blackout),
            ]);
            let chaos = ChaosTrace::new(lte.clone(), schedule);
            for cfg in [quiet_cfg(), lossy] {
                same_as_per_slice(step.clone(), cfg, &sends)?;
                same_as_per_slice(lte.clone(), cfg, &sends)?;
                same_as_per_slice(chaos.clone(), cfg, &sends)?;
                // Each dead-link packet walks 60 000 slices per-slice.
                let dead = &sends[..sends.len().min(3)];
                same_as_per_slice(ConstantTrace::new(0.0), cfg, dead)?;
            }
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_bad_loss() {
        Link::new(
            ConstantTrace::new(1e6),
            LinkConfig {
                random_loss: 1.5,
                ..quiet_cfg()
            },
            0,
        );
    }

    proptest::proptest! {
        /// Deliveries are always at least propagation after send, and
        /// monotone across a burst.
        #[test]
        fn delivery_sane(sizes in proptest::collection::vec(100u64..1500, 1..40)) {
            let mut link = Link::new(ConstantTrace::new(2e6), quiet_cfg(), 1);
            let mut last = Time::ZERO;
            for (i, size) in sizes.into_iter().enumerate() {
                let now = Time::from_micros(i as u64 * 500);
                if let Some(a) = link.send(&pkt(i as u64, size), now).arrival() {
                    proptest::prop_assert!(a >= now + Dur::millis(20));
                    proptest::prop_assert!(a >= last);
                    last = a;
                }
            }
        }
    }
}
