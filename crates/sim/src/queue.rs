//! The event queue at the heart of the discrete-event kernel.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// Opaque handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

struct Scheduled<E> {
    at: Nanos,
    seq: u64,
    id: EventId,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    // Reverse ordering: BinaryHeap is a max-heap, we want earliest-first.
    // Ties broken by insertion sequence for full determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events of type `E` are scheduled at absolute virtual times and popped
/// in time order; ties are broken by insertion order, so two runs with
/// the same schedule sequence produce the same execution. The queue owns
/// the current clock: popping an event advances [`EventQueue::now`].
///
/// # Examples
///
/// ```
/// use menos_sim::{EventQueue, Nanos};
///
/// let mut q = EventQueue::new();
/// q.schedule_after(Nanos::from_secs(2), "second");
/// q.schedule_after(Nanos::from_secs(1), "first");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
/// assert_eq!(q.now(), Nanos::from_secs(1));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: Nanos,
    seq: u64,
    next_id: u64,
    cancelled: Vec<EventId>,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at the epoch.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: Nanos::ZERO,
            seq: 0,
            next_id: 0,
            cancelled: Vec::new(),
            popped: 0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of pending events (including cancelled ones not yet
    /// reaped).
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — scheduling into
    /// the past is always a logic error in a DES.
    pub fn schedule_at(&mut self, at: Nanos, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} < now={}",
            self.now
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            id,
            event,
        });
        self.seq += 1;
        id
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: Nanos, event: E) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, event)
    }

    /// Schedules `event` to run at the current time, after all events
    /// already scheduled for the current time.
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.schedule_at(self.now, event)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Cancellation is lazy: the entry stays in the heap and is skipped
    /// when popped. Returns `true` if the id had not already been
    /// cancelled (popped events are not tracked and return `true` too —
    /// cancelling an already-delivered event is a harmless no-op skip).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.cancelled.contains(&id) {
            false
        } else {
            self.cancelled.push(id);
            true
        }
    }

    /// Pops the earliest live event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        while let Some(s) = self.heap.pop() {
            if let Some(pos) = self.cancelled.iter().position(|c| *c == s.id) {
                self.cancelled.swap_remove(pos);
                continue;
            }
            debug_assert!(s.at >= self.now, "event queue time went backwards");
            self.now = s.at;
            self.popped += 1;
            return Some((s.at, s.event));
        }
        None
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("processed", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos::from_secs(3), 3);
        q.schedule_at(Nanos::from_secs(1), 1);
        q.schedule_at(Nanos::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Nanos::from_secs(1);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule_after(Nanos::from_secs(5), ());
        q.schedule_after(Nanos::from_secs(1), ());
        assert_eq!(q.now(), Nanos::ZERO);
        q.pop();
        assert_eq!(q.now(), Nanos::from_secs(1));
        q.pop();
        assert_eq!(q.now(), Nanos::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos::from_secs(2), ());
        q.pop();
        q.schedule_at(Nanos::from_secs(1), ());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Nanos::from_secs(1), "a");
        q.schedule_at(Nanos::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_now_runs_after_existing_same_time_events() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos::ZERO, 1);
        q.schedule_now(2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }
}
