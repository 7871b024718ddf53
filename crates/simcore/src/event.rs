//! The event calendar: a time-ordered queue of simulation events.
//!
//! Two properties matter for reproducibility:
//!
//! 1. **Total order.** Events are keyed by `(SimTime, sequence)` where the
//!    sequence number is assigned at push time, so ties at the same instant
//!    pop in insertion order (FIFO). A simulation run is then a pure function
//!    of its inputs.
//! 2. **Cheap cancellation.** The flow network reschedules its completion
//!    event every time a flow joins or leaves. Instead of removing entries
//!    from the heap, callers stamp events with a *generation* and ignore
//!    stale pops (see [`crate::flownet`]).

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// `E` is the simulation-specific event payload; the engine that owns the
/// queue pops `(time, payload)` pairs and dispatches on the payload.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

/// An event drained via [`EventQueue::pop_entry`], carrying its position in
/// the queue's `(time, seq)` total order so it can be restored unperturbed.
#[derive(Debug)]
pub struct QueuedEvent<E> {
    /// Scheduled timestamp.
    pub time: SimTime,
    /// Push-order sequence number (the FIFO tie-break key). Private so a
    /// caller cannot forge an order position; [`EventQueue::unpop`] restores
    /// the original.
    seq: u64,
    /// The event payload.
    pub payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far (a cheap progress/debug counter).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past; scheduling into the past would silently
    /// corrupt causality, so it is a programming error.
    pub fn push(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let entry = Entry {
            time: at,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.heap.push(Reverse(entry));
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap yielded an out-of-order event");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Remove the next event *without* advancing the clock or the popped
    /// counter, exposing its position in the queue's total order.
    ///
    /// This is the speculative half of the windowed-replay protocol: a
    /// conservative parallel executor drains a window of entries, decides
    /// which prefix it can safely process, then either [`commit_entry`]s an
    /// entry (observing it exactly as [`pop`] would have) or [`unpop`]s it
    /// back untouched. Draining via `pop_entry` alone leaves the queue's
    /// observable state (`now`, `events_processed`) unchanged.
    ///
    /// [`commit_entry`]: EventQueue::commit_entry
    /// [`unpop`]: EventQueue::unpop
    /// [`pop`]: EventQueue::pop
    pub fn pop_entry(&mut self) -> Option<QueuedEvent<E>> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap yielded an out-of-order event");
        Some(QueuedEvent {
            time: entry.time,
            seq: entry.seq,
            payload: entry.payload,
        })
    }

    /// Account a drained entry as processed: advances the clock and the
    /// popped counter exactly as if [`EventQueue::pop`] had returned it.
    /// Entries must be committed in the order `pop_entry` yielded them.
    ///
    /// # Panics
    /// Panics if the entry's timestamp is before the current clock — that
    /// would mean entries are being committed out of drain order.
    pub fn commit_entry(&mut self, entry: &QueuedEvent<E>) {
        assert!(
            entry.time >= self.now,
            "window entry committed out of order: at={:?} now={:?}",
            entry.time,
            self.now
        );
        self.now = entry.time;
        self.popped += 1;
    }

    /// Return a drained entry to the queue in its original total-order
    /// position (the sequence number captured at [`EventQueue::pop_entry`]
    /// is preserved, so FIFO tie-breaking is unaffected).
    pub fn unpop(&mut self, entry: QueuedEvent<E>) {
        self.heap.push(Reverse(Entry {
            time: entry.time,
            seq: entry.seq,
            payload: entry.payload,
        }));
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), ());
        q.pop();
        q.push(SimTime::from_secs(9), ());
    }

    #[test]
    fn push_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 1);
        q.pop();
        q.push(q.now(), 2);
        q.push(q.now() + SimDuration::ZERO, 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
    }

    #[test]
    fn pop_entry_unpop_preserves_order_and_clock() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.push(t, i);
        }
        // Drain a window speculatively, then put everything back.
        let drained: Vec<_> = (0..4).map(|_| q.pop_entry().unwrap()).collect();
        assert_eq!(
            q.now(),
            SimTime::ZERO,
            "draining must not advance the clock"
        );
        assert_eq!(q.events_processed(), 0);
        for e in drained.into_iter().rev() {
            q.unpop(e);
        }
        // FIFO tie-break order is intact after the round trip.
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn commit_entry_matches_pop_accounting() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let e = q.pop_entry().unwrap();
        assert_eq!(e.payload, "a");
        q.commit_entry(&e);
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert_eq!(q.events_processed(), 1);
        // A normal pop continues from where the committed entry left off.
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "committed out of order")]
    fn commit_entry_rejects_time_regression() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        let first = q.pop_entry().unwrap();
        let second = q.pop_entry().unwrap();
        q.commit_entry(&second);
        q.commit_entry(&first);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
