//! A deterministic event queue.
//!
//! Discrete-event simulation revolves around a priority queue keyed by
//! firing time. Two properties matter here: *stability* — equal-time
//! events must pop in insertion (FIFO) order, or simulations become
//! irreproducible — and *throughput*, because the kernel pops tens of
//! millions of events per wall-second across a grid.
//!
//! [`EventQueue`] is a calendar (bucket) queue tuned for the
//! near-monotonic schedules simulations generate. Time is divided into
//! fixed-width buckets (2^`BUCKET_SHIFT` µs each) arranged in a ring of
//! `NUM_BUCKETS` slots; an event lands in the bucket for its firing
//! time, and a cursor sweeps the ring in time order. Pushes and pops are
//! O(1) amortized when events fall within the ring horizon
//! (≈ `NUM_BUCKETS` · 2^`BUCKET_SHIFT` µs ≈ 1 simulated second ahead
//! of the clock); rarer far-future events spill into a small binary-heap
//! overflow and migrate into the ring as the cursor approaches them.
//!
//! Stability is preserved exactly: every pushed event is tagged with a
//! monotonically increasing sequence number, each bucket is lazily
//! sorted by `(at, seq)` when the cursor reaches it, and pushes into the
//! bucket currently being drained are inserted at their sorted position
//! (a fresh event always carries the largest sequence number, so FIFO
//! order among simultaneous events is maintained). The pop sequence is
//! the stable sort of the pushed schedule — identical to the previous
//! `BinaryHeap`-with-tiebreak implementation, as pinned by the property
//! tests below.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// log2 of the bucket width in microseconds (1024 µs ≈ 1 ms — the natural
/// grain of RTC events: frame intervals, pacer slots, network jitter).
const BUCKET_SHIFT: u32 = 10;

/// Number of ring slots; must be a power of two. 1024 slots of 1024 µs
/// give a ≈1.07 s horizon, comfortably past typical feedback RTTs and
/// deep-queue deliveries; anything further spills to the overflow heap.
const NUM_BUCKETS: usize = 1024;

/// Occupancy bitmap words (one bit per ring slot).
const BITMAP_WORDS: usize = NUM_BUCKETS / 64;

/// An event that has been scheduled: the instant it fires plus its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: Time,
    /// Insertion order; unique per queue, used for deterministic ties.
    pub seq: u64,
    /// The caller's payload.
    pub event: E,
}

/// Overflow-heap entry ordered as a *min*-heap on `(at, seq)`.
struct Entry<E>(Scheduled<E>);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) pops the earliest
        // (time, seq) pair first.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// A deterministic min-priority queue of timed events.
///
/// The queue also tracks the latest time it has handed out, and panics if
/// an event is scheduled in the past relative to an already-popped event —
/// causality violations are always bugs in the model layer above.
///
/// ```
/// use ravel_sim::{EventQueue, Time, Dur};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_millis(5), "b");
/// q.push(Time::from_millis(1), "a");
/// q.push(Time::from_millis(5), "c"); // same instant as "b": FIFO order
///
/// assert_eq!(q.pop().unwrap().event, "a");
/// assert_eq!(q.pop().unwrap().event, "b");
/// assert_eq!(q.pop().unwrap().event, "c");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Ring of buckets; slot = (at_us >> BUCKET_SHIFT) & (NUM_BUCKETS-1).
    /// Each bucket holds events of exactly one "day" (at_us >> shift) at a
    /// time; Vec capacities are retained across drains, so steady-state
    /// operation performs no allocation.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// One bit per slot: set iff that bucket is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Events more than a full ring ahead of the cursor.
    overflow: BinaryHeap<Entry<E>>,
    /// The bucket day the cursor is draining (at_us >> BUCKET_SHIFT).
    cursor_day: u64,
    /// Whether the cursor's current bucket has been sorted for draining.
    /// Buckets are stored sorted *descending* by `(at, seq)` so pops take
    /// from the Vec tail in ascending order.
    cur_sorted: bool,
    /// Total pending events across ring and overflow.
    len: usize,
    next_seq: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn day_of(at: Time) -> u64 {
    at.as_micros() >> BUCKET_SHIFT
}

#[inline]
fn slot_of(day: u64) -> usize {
    (day as usize) & (NUM_BUCKETS - 1)
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            overflow: BinaryHeap::new(),
            cursor_day: 0,
            cur_sorted: false,
            len: 0,
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mark(&mut self, slot: usize) {
        self.occupied[slot >> 6] |= 1u64 << (slot & 63);
    }

    #[inline]
    fn unmark(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Distance (in days) from the cursor to the nearest occupied ring
    /// slot, or `None` if the ring is empty. O(NUM_BUCKETS/64).
    fn next_occupied_distance(&self) -> Option<u64> {
        let start = slot_of(self.cursor_day);
        let word0 = start >> 6;
        let bit0 = start & 63;
        // First word: mask off bits below the cursor slot.
        let masked = self.occupied[word0] & (!0u64 << bit0);
        if masked != 0 {
            return Some((masked.trailing_zeros() as u64 + (word0 << 6) as u64) - start as u64);
        }
        for i in 1..=BITMAP_WORDS {
            let w = (word0 + i) % BITMAP_WORDS;
            let bits = if i == BITMAP_WORDS {
                // Wrapped fully around: only bits below the cursor remain.
                self.occupied[w] & !(!0u64 << bit0)
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                let slot = (w << 6) + bits.trailing_zeros() as usize;
                let dist = (slot + NUM_BUCKETS - start) % NUM_BUCKETS;
                return Some(dist as u64);
            }
        }
        None
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock; scheduling into
    /// the past would silently reorder causality.
    pub fn push(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "event scheduled at {at:?} but clock already at {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let day = day_of(at);
        if day >= self.cursor_day + NUM_BUCKETS as u64 {
            self.overflow.push(Entry(Scheduled { at, seq, event }));
            return;
        }
        let slot = slot_of(day);
        let bucket = &mut self.buckets[slot];
        if day == self.cursor_day && self.cur_sorted {
            // The cursor is mid-drain in this bucket: keep it sorted
            // (descending by (at, seq), popped from the tail). The new
            // event has the largest seq, so among equal timestamps it
            // lands closest to the front — popped last, preserving FIFO.
            let idx = bucket.partition_point(|e| (e.at, e.seq) > (at, seq));
            bucket.insert(idx, Scheduled { at, seq, event });
        } else {
            bucket.push(Scheduled { at, seq, event });
        }
        self.mark(slot);
    }

    /// Drains overflow events that have come within the ring horizon of
    /// the (possibly just advanced) cursor into their ring buckets.
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor_day + NUM_BUCKETS as u64;
        while let Some(top) = self.overflow.peek() {
            if day_of(top.0.at) >= horizon {
                break;
            }
            let s = self.overflow.pop().expect("peeked").0;
            let day = day_of(s.at);
            let slot = slot_of(day);
            self.buckets[slot].push(s);
            self.mark(slot);
            if day == self.cursor_day {
                // Migrated into the bucket being drained: re-sort lazily.
                self.cur_sorted = false;
            }
        }
    }

    /// Pops the earliest event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        loop {
            if !self.overflow.is_empty() {
                self.migrate_overflow();
            }
            let slot = slot_of(self.cursor_day);
            if !self.buckets[slot].is_empty() {
                if !self.cur_sorted {
                    self.buckets[slot].sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                    self.cur_sorted = true;
                }
                let s = self.buckets[slot].pop().expect("non-empty bucket");
                if self.buckets[slot].is_empty() {
                    self.unmark(slot);
                }
                self.len -= 1;
                self.now = s.at;
                return Some(s);
            }
            // Current bucket exhausted: advance the cursor to the next
            // occupied slot, or jump to the overflow frontier if the ring
            // has gone quiet.
            self.cur_sorted = false;
            match self.next_occupied_distance() {
                Some(0) => unreachable!("current slot checked above"),
                Some(d) => self.cursor_day += d,
                None => {
                    let top = self
                        .overflow
                        .peek()
                        .expect("len > 0 with empty ring implies overflow");
                    self.cursor_day = day_of(top.0.at);
                }
            }
        }
    }

    /// Drops all pending events and rewinds the queue to a fresh state
    /// while retaining bucket `Vec` capacities, so a worker can run many
    /// simulations back to back without re-growing the ring each time.
    /// The clock returns to [`Time::ZERO`] and sequence numbers restart.
    pub fn reset(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied = [0; BITMAP_WORDS];
        self.overflow.clear();
        self.cur_sorted = false;
        self.len = 0;
        self.cursor_day = 0;
        self.next_seq = 0;
        self.now = Time::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(30), 3);
        q.push(Time::from_millis(10), 1);
        q.push(Time::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_millis(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(5), ());
        q.push(Time::from_millis(9), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_millis(5));
        q.pop();
        assert_eq!(q.now(), Time::from_millis(9));
    }

    #[test]
    #[should_panic(expected = "scheduled at")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(10), ());
        q.pop();
        q.push(Time::from_millis(5), ());
    }

    #[test]
    fn interleaved_push_pop_stays_deterministic() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(1), "a");
        let a = q.pop().unwrap();
        assert_eq!(a.event, "a");
        // Push two events at the same future instant after a pop: FIFO holds.
        let t = q.now() + Dur::millis(4);
        q.push(t, "b");
        q.push(t, "c");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
    }

    #[test]
    fn far_future_events_route_through_overflow() {
        let mut q = EventQueue::new();
        // Far beyond the ring horizon (~1.07 s): lands in the overflow
        // heap and must still pop in global (at, seq) order.
        q.push(Time::from_secs(30), "late");
        q.push(Time::from_secs(90), "later");
        q.push(Time::from_millis(1), "soon");
        q.push(Time::from_secs(30), "late2"); // tie with "late": FIFO
        assert_eq!(q.pop().unwrap().event, "soon");
        assert_eq!(q.pop().unwrap().event, "late");
        assert_eq!(q.pop().unwrap().event, "late2");
        assert_eq!(q.now(), Time::from_secs(30));
        // Pushing near-now after a long jump still works.
        q.push(Time::from_secs(31), "mid");
        assert_eq!(q.pop().unwrap().event, "mid");
        assert_eq!(q.pop().unwrap().event, "later");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn push_into_draining_bucket_keeps_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(3);
        q.push(t, 0);
        q.push(t + Dur::micros(5), 2);
        assert_eq!(q.pop().unwrap().event, 0);
        // Same bucket (same 1024 µs window), pushed mid-drain: one
        // strictly between, one tying the pending event (FIFO => after).
        q.push(t + Dur::micros(2), 1);
        q.push(t + Dur::micros(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    proptest::proptest! {
        /// Pops always come out in non-decreasing time order, and
        /// equal-time events preserve insertion order, for any schedule.
        #[test]
        fn pop_order_total(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Time::from_millis(t), i);
            }
            let mut last: Option<(Time, usize)> = None;
            while let Some(s) = q.pop() {
                if let Some((lt, lseq)) = last {
                    proptest::prop_assert!(s.at >= lt);
                    if s.at == lt {
                        proptest::prop_assert!(s.event > lseq, "FIFO violated");
                    }
                }
                last = Some((s.at, s.event));
            }
        }

        /// Stronger than pairwise FIFO: the full pop sequence equals the
        /// *stable sort* of the pushed schedule by timestamp. The time
        /// domain is deliberately tiny (0..8 ms for up to 300 events) so
        /// most timestamps collide — the regime where an unstable heap
        /// would scramble equal-time events.
        #[test]
        fn pop_sequence_is_the_stable_sort_of_the_schedule(
            times in proptest::collection::vec(0u64..8, 1..300)
        ) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Time::from_millis(t), i);
            }
            let mut expect: Vec<(Time, usize)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (Time::from_millis(t), i))
                .collect();
            // `sort_by_key` is stable: ties keep insertion order.
            expect.sort_by_key(|&(t, _)| t);
            let mut got = Vec::with_capacity(times.len());
            while let Some(s) = q.pop() {
                got.push((s.at, s.event));
            }
            proptest::prop_assert_eq!(got, expect);
        }

        /// The calendar queue against a binary-heap reference model:
        /// interleaved pushes and pops with timestamps spanning in-bucket
        /// ties (offset 0), cross-bucket spreads, and overflow-horizon
        /// jumps, asserting the two pop *sequences* are identical. This is
        /// the contract the old BinaryHeap implementation satisfied; the
        /// reference model keeps satisfying it by construction (explicit
        /// (at, seq) min-heap key).
        ///
        /// Each op is a (selector, value) pair: selector 0..4 pushes with
        /// a 0..4 µs offset (heavy equal-timestamp ties inside one
        /// bucket), 4..7 pushes up to 8 ms ahead (cross-bucket), 7 pushes
        /// 1–5 s ahead (past the ring horizon, exercising overflow), and
        /// 8..12 pops.
        #[test]
        fn matches_binary_heap_reference_model(
            ops in proptest::collection::vec((0u64..12, 0u64..8_000), 1..400)
        ) {
            use std::cmp::Reverse;

            let mut q = EventQueue::new();
            // Reference: min-heap on (at, seq) — seq breaks ties FIFO.
            let mut reference: std::collections::BinaryHeap<Reverse<(Time, u64, usize)>> =
                std::collections::BinaryHeap::new();
            let mut ref_now = Time::ZERO;
            let mut next_seq = 0u64;

            for (i, (sel, value)) in ops.into_iter().enumerate() {
                let offset_us = match sel {
                    0..=3 => Some(value % 4),
                    4..=6 => Some(value),
                    7 => Some(1_000_000 + value * 500),
                    _ => None, // pop
                };
                match offset_us {
                    Some(offset_us) => {
                        let at = ref_now + Dur::micros(offset_us);
                        q.push(at, i);
                        reference.push(Reverse((at, next_seq, i)));
                        next_seq += 1;
                    }
                    None => {
                        let got = q.pop().map(|s| (s.at, s.event));
                        let want = reference.pop().map(|Reverse((at, _, id))| (at, id));
                        proptest::prop_assert_eq!(got, want);
                        if let Some((at, _)) = got {
                            ref_now = at;
                        }
                    }
                }
            }
            // Drain the remainder: sequences must stay identical.
            loop {
                let got = q.pop().map(|s| (s.at, s.event));
                let want = reference.pop().map(|Reverse((at, _, id))| (at, id));
                proptest::prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(1), ());
        q.push(Time::from_millis(2), ());
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn reset_behaves_like_a_fresh_queue() {
        let mut used = EventQueue::new();
        // Dirty the queue thoroughly: advance the clock, cross bucket
        // boundaries, touch the overflow heap, leave events pending.
        used.push(Time::from_millis(3), "x");
        used.push(Time::from_secs(30), "y");
        used.pop();
        used.push(Time::from_millis(700), "z");
        assert!(used.now() > Time::ZERO);
        used.reset();
        assert!(used.is_empty());
        assert_eq!(used.now(), Time::ZERO);

        // A reset queue must produce the same pop sequence as a new one,
        // including seq-based FIFO tie-breaks starting from zero again.
        let mut fresh = EventQueue::new();
        let schedule = [(5u64, "b"), (1, "a"), (5, "c"), (1_200, "over")];
        for &(ms, tag) in &schedule {
            used.push(Time::from_millis(ms), tag);
            fresh.push(Time::from_millis(ms), tag);
        }
        loop {
            let u = used.pop().map(|s| (s.at, s.seq, s.event));
            let f = fresh.pop().map(|s| (s.at, s.seq, s.event));
            assert_eq!(u, f);
            if u.is_none() {
                break;
            }
        }
    }
}
