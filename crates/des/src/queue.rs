//! The future event set: a deterministic priority queue of scheduled events.
//!
//! Ordering follows OMNeT++ semantics: events are delivered in order of
//! `(time, priority, insertion sequence)`. Two events scheduled for the same
//! instant with the same priority are delivered in the order they were
//! scheduled, which makes runs reproducible regardless of heap internals.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Delivery priority for events that share a timestamp.
///
/// Lower values are delivered first (OMNeT++ convention). The default is 0.
pub type EventPriority = i16;

#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    priority: EventPriority,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then(self.priority.cmp(&other.priority))
            .then(self.seq.cmp(&other.seq))
    }
}

/// A future event set (FES) over an arbitrary event payload type `E`.
///
/// This is the kernel data structure of the simulator: everything that
/// happens later — traffic steps, MAC timers, frame arrivals — is an entry
/// here. A scheduled event is always delivered: a component that no longer
/// wants one ignores it on delivery (the MAC retires its timers by token).
///
/// When `E: Clone` the whole queue is `Clone`: a clone is an exact snapshot
/// (same pending events, same counters), so a run
/// resumed from the clone delivers the identical event sequence.
///
/// # Examples
///
/// ```
/// use comfase_des::queue::EventQueue;
/// use comfase_des::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_secs(1), "sooner"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    // Also the insertion sequence number of the next scheduled event.
    scheduled_total: u64,
    delivered_total: u64,
    // Sim-sanitizer state: timestamp of the last delivered event, so debug
    // builds catch any non-monotone delivery at the queue boundary.
    last_popped: Option<SimTime>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            scheduled_total: 0,
            delivered_total: 0,
            last_popped: None,
        }
    }

    /// Schedules `payload` for delivery at `time` with default priority.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        self.schedule_with_priority(time, 0, payload)
    }

    /// Schedules `payload` for delivery at `time` with an explicit priority
    /// (lower priorities are delivered first among same-time events).
    pub fn schedule_with_priority(&mut self, time: SimTime, priority: EventPriority, payload: E) {
        let seq = self.scheduled_total;
        self.scheduled_total += 1;
        self.heap.push(Reverse(Scheduled {
            time,
            priority,
            seq,
            payload,
        }));
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.time)
    }

    /// Removes and returns the next event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.delivered_total += 1;
        debug_assert!(
            self.last_popped.is_none_or(|last| s.time >= last),
            "future event set delivered out of order: {} after {}",
            s.time,
            self.last_popped.unwrap_or(SimTime::ZERO),
        );
        self.last_popped = Some(s.time);
        Some((s.time, s.payload))
    }

    /// Removes and returns the next event if it is due at or before `limit`.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events delivered via `pop`.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), 'c');
        q.schedule(t(1), 'a');
        q.schedule(t(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_time_fifo_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn priority_breaks_time_ties() {
        let mut q = EventQueue::new();
        q.schedule_with_priority(t(5), 1, "low");
        q.schedule_with_priority(t(5), -1, "high");
        q.schedule_with_priority(t(5), 0, "mid");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["high", "mid", "low"]);
    }

    #[test]
    fn pop_at_or_before_respects_limit() {
        let mut q = EventQueue::new();
        q.schedule(t(1), "a");
        q.schedule(t(3), "b");
        assert_eq!(q.pop_at_or_before(t(2)), Some((t(1), "a")));
        assert_eq!(q.pop_at_or_before(t(2)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.delivered_total(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        q.schedule(now + SimDuration::from_millis(10), 0u32);
        let mut seen = Vec::new();
        while let Some((time, k)) = q.pop() {
            assert!(time >= now, "time must be monotone");
            now = time;
            seen.push(k);
            if k < 5 {
                // schedule two children, one sooner one later
                q.schedule(time + SimDuration::from_millis(5), k + 10);
                q.schedule(time + SimDuration::from_millis(1), k + 1);
            }
        }
        assert!(seen.len() > 5);
    }
}
