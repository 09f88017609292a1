//! The session's event queue and the payloads its events point into.
//!
//! An [`Event`] is `Copy` and at most 16 bytes, so every calendar-queue
//! bucket slot stays small. The three events that carry data — a
//! packet, a feedback report or a NACK batch in transit — hold a `u32`
//! slot into one of the [`Queue`]'s payload slabs instead of the data
//! itself; their handlers take the payload out when the event pops.

use ravel_net::{FeedbackReport, NackBatch, Packet};
use ravel_sim::{EventQueue, Scheduled, Time};

/// Events in the session's queue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// Capture the next frame.
    Capture,
    /// The frame with this capture index finished encoding and is ready
    /// to packetize. The sender holds the frame until then.
    EncodeDone(u64),
    /// The pacer may have packets due.
    PacerTick,
    /// A packet reached the receiver: a slot in [`Queue::packets`].
    Arrival(u32),
    /// The receiver flushes feedback.
    FeedbackFlush,
    /// A feedback report reached the sender: a slot in
    /// [`Queue::reports`].
    FeedbackArrive(u32),
    /// The receiver checks for NACK-able gaps / due retries.
    NackPoll,
    /// The audio encoder emits its next 20 ms frame.
    AudioTick,
    /// A NACK batch reached the sender: a slot in [`Queue::nacks`].
    NackArrive(u32),
    /// A receiver PLI reached the sender.
    PliArrive,
    /// The feedback watchdog checks its deadline.
    WatchdogTick,
    /// The [`InjectedFault::Runaway`](crate::InjectedFault::Runaway)
    /// fixture's self-renewing event.
    RunawayTick,
}

const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// Payloads of queued events, each addressed by the `u32` slot its
/// event carries. A slot is taken exactly once, when its event pops,
/// and is then reused by the next insert.
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value` and returns its slot.
    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("over 2^32 payloads in flight");
                self.slots.push(Some(value));
                slot
            }
        }
    }

    /// Removes and returns the payload in `slot`, freeing the slot.
    pub(crate) fn take(&mut self, slot: u32) -> T {
        let value = self.slots[slot as usize]
            .take()
            .expect("an event's payload is taken once");
        self.free.push(slot);
        value
    }

    /// Payloads stored and not yet taken.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Drops every payload, keeping both allocations.
    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// The session's event queue with the slabs its payload events point
/// into. Resetting it keeps the bucket and slab capacity.
#[derive(Default)]
pub(crate) struct Queue {
    events: EventQueue<Event>,
    /// Packets of queued [`Event::Arrival`]s.
    pub(crate) packets: Slab<Packet>,
    /// Reports of queued [`Event::FeedbackArrive`]s.
    pub(crate) reports: Slab<FeedbackReport>,
    /// Batches of queued [`Event::NackArrive`]s.
    pub(crate) nacks: Slab<NackBatch>,
}

impl Queue {
    /// Schedules `event` at `at`. A payload event's slot must come from
    /// the matching `push_*` method.
    pub(crate) fn push(&mut self, at: Time, event: Event) {
        self.events.push(at, event);
    }

    /// Schedules `packet`'s arrival at the receiver.
    pub(crate) fn push_arrival(&mut self, at: Time, packet: Packet) {
        let slot = self.packets.insert(packet);
        self.events.push(at, Event::Arrival(slot));
    }

    /// Schedules `report`'s arrival at the sender.
    pub(crate) fn push_feedback(&mut self, at: Time, report: FeedbackReport) {
        let slot = self.reports.insert(report);
        self.events.push(at, Event::FeedbackArrive(slot));
    }

    /// Schedules `batch`'s arrival at the sender.
    pub(crate) fn push_nack(&mut self, at: Time, batch: NackBatch) {
        let slot = self.nacks.insert(batch);
        self.events.push(at, Event::NackArrive(slot));
    }

    /// Pops the earliest event (FIFO among equal instants).
    pub(crate) fn pop(&mut self) -> Option<Scheduled<Event>> {
        self.events.pop()
    }

    /// True when no event is queued.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Empties the queue and the slabs, keeping their capacity.
    pub(crate) fn reset(&mut self) {
        self.events.reset();
        self.packets.clear();
        self.reports.clear();
        self.nacks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ravel_net::MediaKind;

    fn packet(seq: u64) -> Packet {
        Packet {
            kind: MediaKind::Video,
            seq,
            frame_index: 0,
            fragment: 0,
            num_fragments: 1,
            size_bytes: 1200,
            pts: Time::ZERO,
            send_time: Time::ZERO,
            is_keyframe: false,
        }
    }

    #[test]
    fn payloads_come_back_with_their_events_and_slots_are_reused() {
        let mut queue = Queue::default();
        queue.push_arrival(Time::from_millis(2), packet(1));
        queue.push_arrival(Time::from_millis(1), packet(2));
        queue.push(Time::from_millis(3), Event::PacerTick);
        let mut seqs = Vec::new();
        while let Some(s) = queue.pop() {
            if let Event::Arrival(slot) = s.event {
                seqs.push(queue.packets.take(slot).seq);
            }
        }
        assert_eq!(seqs, [2, 1]);
        assert_eq!(queue.packets.live(), 0);
        // Both slots are free again: new payloads reuse them.
        queue.push_arrival(Time::from_millis(4), packet(3));
        queue.push_arrival(Time::from_millis(5), packet(4));
        assert_eq!(queue.packets.slots.len(), 2);
    }

    #[test]
    fn reset_drops_payloads_and_keeps_capacity() {
        let mut queue = Queue::default();
        for seq in 0..8 {
            queue.push_arrival(Time::from_millis(seq), packet(seq));
        }
        let capacity = queue.packets.slots.capacity();
        queue.reset();
        assert!(queue.is_empty());
        assert_eq!(queue.packets.live(), 0);
        assert_eq!(queue.packets.slots.capacity(), capacity);
        queue.push_arrival(Time::ZERO, packet(9));
        let slot = match queue.pop().map(|s| s.event) {
            Some(Event::Arrival(slot)) => slot,
            other => panic!("expected an arrival, got {other:?}"),
        };
        assert_eq!(queue.packets.take(slot).seq, 9);
    }
}
