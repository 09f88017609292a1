//! Forward-path chaos injection: seeded multi-fault timelines.
//!
//! PR 1 impaired the *reverse* path; this module attacks the forward
//! data path — the one the paper's bandwidth drops actually live on.
//! A [`ChaosSchedule`] — the shared [`Schedule`] over this module's
//! [`FaultKind`] — is a reproducible timeline of fault segments
//! generated from `(seed, intensity)`:
//!
//! * **Burst loss** — a Gilbert–Elliott channel applied per packet while
//!   the segment is active (reuses [`GilbertElliott`]).
//! * **Blackout** — link capacity collapses to exactly zero.
//! * **Capacity collapse** — capacity multiplied by a near-zero factor.
//! * **Reorder** — half-normal extra delay added *after* the link's FIFO
//!   serializer, so packets genuinely reorder.
//! * **Duplicate** — a second copy of a delivered packet arrives shortly
//!   after the first.
//! * **MTU shrink** — the packetizer's payload MTU drops, multiplying
//!   the per-frame fragment count mid-session.
//!
//! The same passthrough discipline as [`impair`](crate::impair) applies:
//! an empty schedule consumes **zero** RNG draws and multiplies capacity
//! by exactly `1.0`, so sessions without chaos stay byte-identical.
//! Capacity faults are applied by wrapping the bandwidth trace in a
//! [`ChaosTrace`]; per-packet faults by routing every delivery decision
//! through [`ForwardChaos::transit`] at the session's send boundary.

use ravel_sim::{Dur, Rng, Time};
use ravel_trace::BandwidthTrace;

use crate::impair::GilbertElliott;
use crate::schedule::{draw_span, field, num, Schedule, Segment, SegmentKind};

/// RNG substream tag for forward-path chaos (distinct from the forward
/// link's `0x11F0` and the reverse path's `0x2EF0`).
const CHAOS_STREAM: u64 = 0xC4A0;

/// Everything needed to reproduce a chaos run: the schedule seed, an
/// overall severity knob, and the recovery bounds the invariant checker
/// holds the session to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Seed of the schedule's RNG substream.
    pub seed: u64,
    /// Severity in `(0, 1]`: scales segment count, duration, and fault
    /// parameters.
    pub intensity: f64,
    /// After the last fault clears, the encoder target must recover to
    /// `recovery_fraction` of the available rate within this long.
    pub recovery_within: Dur,
    /// Fraction of `min(start rate, post-fault capacity)` the target
    /// must reach to count as recovered.
    pub recovery_fraction: f64,
}

impl ChaosSpec {
    /// A spec with default recovery bounds (10 s to reach 5% of the
    /// post-fault capacity floor — calibrated against both schemes'
    /// worst-case post-blackout ramps so the invariant flags stalls,
    /// not slow-but-healthy congestion-controller recovery).
    pub fn new(seed: u64, intensity: f64) -> ChaosSpec {
        assert!(
            intensity > 0.0 && intensity <= 1.0,
            "ChaosSpec: intensity must be in (0, 1], got {intensity}"
        );
        ChaosSpec {
            seed,
            intensity,
            recovery_within: Dur::secs(10),
            recovery_fraction: 0.05,
        }
    }
}

/// One kind of forward-path fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Gilbert–Elliott burst loss applied per delivered packet.
    BurstLoss(GilbertElliott),
    /// Link capacity is exactly zero for the segment.
    Blackout,
    /// Link capacity is multiplied by `factor` (near zero).
    CapacityCollapse {
        /// Multiplier in `(0, 1)` applied to the base trace.
        factor: f64,
    },
    /// Half-normal extra delay past the link's FIFO output, reordering
    /// packets.
    Reorder {
        /// Standard deviation of the extra delay.
        jitter_std: Dur,
    },
    /// Delivered packets are duplicated with probability `prob`.
    Duplicate {
        /// Per-packet duplication probability.
        prob: f64,
    },
    /// The packetizer's payload MTU shrinks to `payload_mtu` bytes.
    MtuShrink {
        /// Replacement payload MTU in bytes.
        payload_mtu: u64,
    },
}

impl SegmentKind for FaultKind {
    type Spec = ChaosSpec;

    const STREAM: u64 = CHAOS_STREAM;

    fn seed_intensity(spec: &ChaosSpec) -> (u64, f64) {
        (spec.seed, spec.intensity)
    }

    /// One forward fault: the kind (and its parameter draws), then the
    /// span. Hard outages are kept shorter than loss/reorder spells so
    /// compound schedules don't starve the whole fault window.
    fn draw(rng: &mut Rng, intensity: f64, window: (f64, f64)) -> FaultSegment {
        let kind = match rng.below(6) {
            0 => FaultKind::BurstLoss(GilbertElliott {
                p_good_to_bad: 0.08 + 0.12 * intensity,
                p_bad_to_good: 0.25,
                bad_loss: 0.6 + 0.4 * intensity,
            }),
            1 => FaultKind::Blackout,
            2 => FaultKind::CapacityCollapse {
                factor: 0.02 + 0.08 * rng.uniform(),
            },
            3 => FaultKind::Reorder {
                jitter_std: Dur::from_secs_f64(0.003 + 0.027 * intensity * rng.uniform()),
            },
            4 => FaultKind::Duplicate {
                prob: 0.05 + 0.25 * intensity,
            },
            _ => FaultKind::MtuShrink {
                payload_mtu: 300 * (1 + rng.below(3)),
            },
        };
        let (start, mut dur) = draw_span(rng, intensity, window);
        if matches!(kind, FaultKind::Blackout) {
            dur = dur.min(1.2);
        }
        Segment::spanning(start, dur, kind)
    }

    /// Stable fault name, used in reproducer specs and the
    /// observability layer's `ChaosSegmentEntered` events.
    fn name(&self) -> &'static str {
        match self {
            FaultKind::BurstLoss(_) => "burst-loss",
            FaultKind::Blackout => "blackout",
            FaultKind::CapacityCollapse { .. } => "capacity-collapse",
            FaultKind::Reorder { .. } => "reorder",
            FaultKind::Duplicate { .. } => "duplicate",
            FaultKind::MtuShrink { .. } => "mtu-shrink",
        }
    }

    fn detail(&self) -> String {
        match *self {
            FaultKind::BurstLoss(ge) => format!(
                " p_g2b={} p_b2g={} bad_loss={}",
                ge.p_good_to_bad, ge.p_bad_to_good, ge.bad_loss
            ),
            FaultKind::CapacityCollapse { factor } => format!(" factor={factor}"),
            FaultKind::Reorder { jitter_std } => format!(" jitter_std={jitter_std}"),
            FaultKind::Duplicate { prob } => format!(" prob={prob}"),
            FaultKind::MtuShrink { payload_mtu } => format!(" payload_mtu={payload_mtu}"),
            FaultKind::Blackout => String::new(),
        }
    }

    fn parse(name: &str, detail: &str) -> Result<FaultKind, String> {
        match name {
            "blackout" => Ok(FaultKind::Blackout),
            "burst-loss" => Ok(FaultKind::BurstLoss(GilbertElliott {
                p_good_to_bad: num(detail, "p_g2b")?,
                p_bad_to_good: num(detail, "p_b2g")?,
                bad_loss: num(detail, "bad_loss")?,
            })),
            "capacity-collapse" => Ok(FaultKind::CapacityCollapse {
                factor: num(detail, "factor")?,
            }),
            "reorder" => Ok(FaultKind::Reorder {
                jitter_std: parse_span(field(detail, "jitter_std")?)?,
            }),
            "duplicate" => Ok(FaultKind::Duplicate {
                prob: num(detail, "prob")?,
            }),
            "mtu-shrink" => Ok(FaultKind::MtuShrink {
                payload_mtu: num(detail, "payload_mtu")?,
            }),
            other => Err(format!("unknown fault kind '{other}'")),
        }
    }
}

/// A forward-path fault active over `[from, until)`.
pub type FaultSegment = Segment<FaultKind>;

/// A reproducible timeline of forward-path faults.
pub type ChaosSchedule = Schedule<FaultKind>;

impl ChaosSchedule {
    /// Capacity multiplier at `at`: `0.0` inside a blackout, the
    /// smallest active collapse factor otherwise, else exactly `1.0`.
    pub fn capacity_factor(&self, at: Time) -> f64 {
        let mut factor = 1.0f64;
        for seg in &self.segments {
            if !seg.active(at) {
                continue;
            }
            match seg.kind {
                FaultKind::Blackout => return 0.0,
                FaultKind::CapacityCollapse { factor: f } => factor = factor.min(f),
                _ => {}
            }
        }
        factor
    }

    /// The first start or end of a blackout or capacity collapse after
    /// `at` ([`Time::FAR_FUTURE`] if none): [`capacity_factor`] is
    /// constant from `at` up to it.
    ///
    /// [`capacity_factor`]: ChaosSchedule::capacity_factor
    fn next_capacity_edge(&self, at: Time) -> Time {
        self.segments
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    FaultKind::Blackout | FaultKind::CapacityCollapse { .. }
                )
            })
            .flat_map(|s| [s.from, s.until])
            .filter(|&edge| edge > at)
            .min()
            .unwrap_or(Time::FAR_FUTURE)
    }

    /// The smallest active shrunken payload MTU at `at`, if any.
    pub fn payload_mtu(&self, at: Time) -> Option<u64> {
        self.segments
            .iter()
            .filter(|s| s.active(at))
            .filter_map(|s| match s.kind {
                FaultKind::MtuShrink { payload_mtu } => Some(payload_mtu),
                _ => None,
            })
            .min()
    }

    fn active_burst(&self, at: Time) -> Option<GilbertElliott> {
        self.segments.iter().find_map(|s| match s.kind {
            FaultKind::BurstLoss(ge) if s.active(at) => Some(ge),
            _ => None,
        })
    }

    fn active_reorder(&self, at: Time) -> Option<Dur> {
        self.segments.iter().find_map(|s| match s.kind {
            FaultKind::Reorder { jitter_std } if s.active(at) => Some(jitter_std),
            _ => None,
        })
    }

    fn active_duplicate(&self, at: Time) -> Option<f64> {
        self.segments.iter().find_map(|s| match s.kind {
            FaultKind::Duplicate { prob } if s.active(at) => Some(prob),
            _ => None,
        })
    }
}

/// Parses `Dur`'s tiered display form (`1.500s`, `12.345ms`, `800us`).
fn parse_span(s: &str) -> Result<Dur, String> {
    let bad = || format!("malformed duration '{s}'");
    if let Some(us) = s.strip_suffix("us") {
        return Ok(Dur::micros(us.parse().map_err(|_| bad())?));
    }
    if let Some(ms) = s.strip_suffix("ms") {
        let v: f64 = ms.parse().map_err(|_| bad())?;
        return Ok(Dur::from_secs_f64(v * 1e-3));
    }
    if let Some(secs) = s.strip_suffix('s') {
        let v: f64 = secs.parse().map_err(|_| bad())?;
        return Ok(Dur::from_secs_f64(v));
    }
    Err(bad())
}

/// Wraps a bandwidth trace, applying the schedule's capacity faults.
///
/// Outside every capacity fault the multiplier is exactly `1.0`, so a
/// wrapped trace with an empty schedule is bit-identical to the inner
/// trace.
#[derive(Debug, Clone)]
pub struct ChaosTrace<T> {
    inner: T,
    schedule: ChaosSchedule,
}

impl<T> ChaosTrace<T> {
    /// Wraps `inner` with the capacity faults of `schedule`.
    pub fn new(inner: T, schedule: ChaosSchedule) -> ChaosTrace<T> {
        ChaosTrace { inner, schedule }
    }
}

impl<T: BandwidthTrace> BandwidthTrace for ChaosTrace<T> {
    fn rate_bps(&self, at: Time) -> f64 {
        self.inner.rate_bps(at) * self.schedule.capacity_factor(at)
    }

    /// The inner span, cut at the next blackout or collapse edge.
    fn rate_span(&self, at: Time) -> (f64, Time) {
        let (rate, until) = self.inner.rate_span(at);
        (
            rate * self.schedule.capacity_factor(at),
            until.min(self.schedule.next_capacity_edge(at)),
        )
    }
}

/// What chaos decided for one delivered packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketFate {
    /// Adjusted arrival time, or `None` if chaos ate the packet.
    pub arrival: Option<Time>,
    /// Arrival time of a duplicate copy, if one was injected.
    pub duplicate: Option<Time>,
}

/// Per-packet chaos applied after the link's delivery decision.
///
/// RNG draws are only consumed while a relevant segment is active, so
/// the clean head and tail of a chaotic session — and all of a session
/// with an empty schedule — consume zero draws.
#[derive(Debug, Clone)]
pub struct ForwardChaos {
    schedule: ChaosSchedule,
    rng: Rng,
    ge_bad: bool,
    lost: u64,
    duplicated: u64,
    jittered: u64,
}

impl ForwardChaos {
    /// Creates the per-packet stage for `schedule`, seeded from the
    /// session seed on the chaos substream.
    pub fn new(schedule: ChaosSchedule, seed: u64) -> ForwardChaos {
        ForwardChaos {
            schedule,
            rng: Rng::substream(seed, CHAOS_STREAM),
            ge_bad: false,
            lost: 0,
            duplicated: 0,
            jittered: 0,
        }
    }

    /// Packets dropped by burst loss.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Duplicate copies injected.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Packets whose arrival was jittered by a reorder segment.
    pub fn jittered(&self) -> u64 {
        self.jittered
    }

    /// Decides the fate of a packet the link would deliver at `arrival`,
    /// given it was sent at `now`.
    pub fn transit(&mut self, now: Time, arrival: Time) -> PacketFate {
        if let Some(ge) = self.schedule.active_burst(now) {
            if self.ge_bad {
                if self.rng.chance(ge.p_bad_to_good) {
                    self.ge_bad = false;
                }
            } else if self.rng.chance(ge.p_good_to_bad) {
                self.ge_bad = true;
            }
            if self.ge_bad && self.rng.chance(ge.bad_loss) {
                self.lost += 1;
                return PacketFate {
                    arrival: None,
                    duplicate: None,
                };
            }
        }
        let mut arrival = arrival;
        if let Some(std) = self.schedule.active_reorder(now) {
            let extra = self.rng.normal().abs() * std.as_secs_f64();
            arrival += Dur::from_secs_f64(extra);
            self.jittered += 1;
        }
        let mut duplicate = None;
        if let Some(prob) = self.schedule.active_duplicate(now) {
            if self.rng.chance(prob) {
                duplicate = Some(arrival + Dur::from_secs_f64(self.rng.uniform_in(0.0005, 0.01)));
                self.duplicated += 1;
            }
        }
        PacketFate {
            arrival: Some(arrival),
            duplicate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_capacity_identity() {
        let s = ChaosSchedule::empty();
        for ms in [0u64, 500, 10_000] {
            assert_eq!(s.capacity_factor(Time::from_millis(ms)), 1.0);
        }
        assert_eq!(s.payload_mtu(Time::ZERO), None);
        assert_eq!(s.last_end(), None);
    }

    #[test]
    fn blackout_zeroes_and_collapse_scales_capacity() {
        let s = ChaosSchedule::from_segments(vec![
            FaultSegment {
                from: Time::from_secs(1),
                until: Time::from_secs(2),
                kind: FaultKind::Blackout,
            },
            FaultSegment {
                from: Time::from_secs(1),
                until: Time::from_secs(4),
                kind: FaultKind::CapacityCollapse { factor: 0.05 },
            },
        ]);
        assert_eq!(s.capacity_factor(Time::from_millis(1_500)), 0.0);
        assert_eq!(s.capacity_factor(Time::from_secs(3)), 0.05);
        assert_eq!(s.capacity_factor(Time::from_secs(5)), 1.0);
    }

    #[test]
    fn forward_chaos_is_passthrough_outside_segments() {
        let s = ChaosSchedule::from_segments(vec![FaultSegment {
            from: Time::from_secs(10),
            until: Time::from_secs(11),
            kind: FaultKind::Duplicate { prob: 1.0 },
        }]);
        let mut fc = ForwardChaos::new(s, 7);
        let fate = fc.transit(Time::from_secs(1), Time::from_millis(1_020));
        assert_eq!(
            fate,
            PacketFate {
                arrival: Some(Time::from_millis(1_020)),
                duplicate: None
            }
        );
        assert_eq!(fc.lost() + fc.duplicated() + fc.jittered(), 0);
    }

    #[test]
    fn full_burst_loss_drops_everything_in_segment() {
        let s = ChaosSchedule::from_segments(vec![FaultSegment {
            from: Time::ZERO,
            until: Time::from_secs(100),
            kind: FaultKind::BurstLoss(GilbertElliott {
                p_good_to_bad: 1.0,
                p_bad_to_good: 0.0,
                bad_loss: 1.0,
            }),
        }]);
        let mut fc = ForwardChaos::new(s, 7);
        for i in 0..100 {
            let at = Time::from_millis(i * 10);
            assert_eq!(fc.transit(at, at).arrival, None);
        }
        assert_eq!(fc.lost(), 100);
    }

    #[test]
    fn duplicate_copies_arrive_after_the_original() {
        let s = ChaosSchedule::from_segments(vec![FaultSegment {
            from: Time::ZERO,
            until: Time::from_secs(100),
            kind: FaultKind::Duplicate { prob: 1.0 },
        }]);
        let mut fc = ForwardChaos::new(s, 7);
        let at = Time::from_secs(1);
        let fate = fc.transit(at, at);
        let arrival = fate.arrival.expect("delivered");
        let dup = fate.duplicate.expect("duplicated");
        assert!(dup > arrival);
        assert_eq!(fc.duplicated(), 1);
    }

    #[test]
    fn chaos_trace_identity_outside_faults() {
        struct Flat;
        impl BandwidthTrace for Flat {
            fn rate_bps(&self, _at: Time) -> f64 {
                4e6
            }
        }
        let sched = ChaosSchedule::from_segments(vec![FaultSegment {
            from: Time::from_secs(2),
            until: Time::from_secs(3),
            kind: FaultKind::Blackout,
        }]);
        let t = ChaosTrace::new(Flat, sched);
        assert_eq!(t.rate_bps(Time::from_secs(1)), 4e6);
        assert_eq!(t.rate_bps(Time::from_millis(2_500)), 0.0);
        assert_eq!(t.rate_bps(Time::from_secs(3)), 4e6);
    }

    /// Overlapping blackouts and collapses (plus faults that leave
    /// capacity alone), placed from `seed` inside the first 20 s.
    fn capacity_schedule(seed: u64) -> ChaosSchedule {
        let mut rng = Rng::seed_from_u64(seed);
        let mut segments: Vec<FaultSegment> = (0..6)
            .map(|i| {
                let from = Time::from_micros(rng.below(15_000_000));
                let kind = match i % 3 {
                    0 => FaultKind::Blackout,
                    1 => FaultKind::CapacityCollapse {
                        factor: 0.02 + 0.08 * rng.uniform(),
                    },
                    _ => FaultKind::Duplicate { prob: 0.5 },
                };
                FaultSegment {
                    from,
                    until: from + Dur::micros(1 + rng.below(4_000_000)),
                    kind,
                }
            })
            .collect();
        // One blackout always sits inside a collapse.
        segments.push(FaultSegment {
            from: Time::from_secs(2),
            until: Time::from_secs(6),
            kind: FaultKind::CapacityCollapse { factor: 0.05 },
        });
        segments.push(FaultSegment {
            from: Time::from_secs(3),
            until: Time::from_secs(4),
            kind: FaultKind::Blackout,
        });
        segments.sort_by_key(|seg| (seg.from, seg.until));
        ChaosSchedule::from_segments(segments)
    }

    proptest::proptest! {
        /// `ChaosTrace::rate_span` keeps the trace span contract: walking
        /// span by span from a random instant past every fault, each span
        /// is non-empty, starts at `rate_bps` bit for bit, and holds that
        /// rate through `until − 1 µs`.
        #[test]
        fn chaos_trace_keeps_the_span_contract(
            at_us in 0u64..16_000_000,
            seed in 0u64..1_000,
        ) {
            let schedule = capacity_schedule(seed);
            let lte = ravel_trace::StochasticTrace::generate(
                &ravel_trace::CellularProfile::lte_like(),
                Dur::secs(30),
                seed,
            );
            let traces: [(&str, Box<dyn BandwidthTrace>); 3] = [
                ("constant", Box::new(ravel_trace::ConstantTrace::new(2e6))),
                (
                    "step",
                    Box::new(ravel_trace::StepTrace::drop_and_recover(
                        4e6,
                        1e6,
                        Time::from_millis(2_500),
                        Time::from_millis(9_000),
                    )),
                ),
                ("lte", Box::new(lte)),
            ];
            for (name, inner) in traces {
                let trace = ChaosTrace::new(inner, schedule.clone());
                let mut at = Time::from_micros(at_us);
                while at < Time::from_secs(25) {
                    let (rate, until) = trace.rate_span(at);
                    proptest::prop_assert!(until > at, "{name}: empty span at {at:?}");
                    let last = until.min(Time::from_secs(40)) - Dur::MICRO;
                    for s in [at, at + (last - at) / 2, last] {
                        proptest::prop_assert_eq!(
                            trace.rate_bps(s).to_bits(),
                            rate.to_bits(),
                            "{}: span [{:?}, {:?}) at {:?}",
                            name,
                            at,
                            until,
                            s
                        );
                    }
                    at = until;
                }
            }
        }
    }

    #[test]
    fn reproducer_lists_every_segment() {
        let s = ChaosSchedule::generate(ChaosSpec::new(9, 1.0), Dur::secs(30));
        let repro = s.reproducer();
        assert_eq!(repro.lines().count(), s.segments.len());
    }

    #[test]
    fn explicit_segments_of_every_kind_roundtrip() {
        let s = ChaosSchedule::from_segments(vec![
            FaultSegment {
                from: Time::from_micros(1_234_567),
                until: Time::from_micros(2_000_001),
                kind: FaultKind::BurstLoss(GilbertElliott {
                    p_good_to_bad: 0.125,
                    p_bad_to_good: 0.25,
                    bad_loss: 0.875,
                }),
            },
            FaultSegment {
                from: Time::from_secs(3),
                until: Time::from_secs(4),
                kind: FaultKind::Blackout,
            },
            FaultSegment {
                from: Time::from_secs(5),
                until: Time::from_secs(6),
                kind: FaultKind::CapacityCollapse { factor: 0.0625 },
            },
            FaultSegment {
                from: Time::from_secs(7),
                until: Time::from_secs(8),
                kind: FaultKind::Reorder {
                    jitter_std: Dur::micros(12_345),
                },
            },
            FaultSegment {
                from: Time::from_secs(9),
                until: Time::from_secs(10),
                kind: FaultKind::Duplicate { prob: 0.3125 },
            },
            FaultSegment {
                from: Time::from_secs(11),
                until: Time::from_secs(12),
                kind: FaultKind::MtuShrink { payload_mtu: 600 },
            },
        ]);
        assert_eq!(ChaosSchedule::parse_reproducer(&s.reproducer()), Ok(s));
    }

    #[test]
    fn malformed_reproducers_are_rejected_with_context() {
        let cases = [
            ("blackout 1.000000 .. 2.000000", "malformed segment line"),
            ("blackout [1.000000 .. 2.000000", "unterminated time span"),
            ("blackout [1.000000 - 2.000000]", "malformed time span"),
            ("blackout [1.5 .. 2.000000]", "malformed instant"),
            (
                "warp-core-breach [1.000000 .. 2.000000]",
                "unknown fault kind",
            ),
            ("duplicate [1.000000 .. 2.000000]", "missing field 'prob'"),
            (
                "duplicate [1.000000 .. 2.000000] prob=often",
                "malformed field 'prob'",
            ),
            (
                "reorder [1.000000 .. 2.000000] jitter_std=12.3",
                "malformed duration",
            ),
        ];
        for (line, want) in cases {
            let err = ChaosSchedule::parse_reproducer(line).unwrap_err();
            assert!(err.contains(want), "'{line}' gave '{err}', want '{want}'");
        }
    }
}
