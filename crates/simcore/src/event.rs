//! The discrete-event core: a time-ordered event queue.
//!
//! The engine is deliberately minimal. Components in the other crates are
//! written as *passive* models (given a request and the current state, they
//! compute a service time); integration crates drive them by scheduling
//! events of their own enum type `E` on an [`EventQueue`] and popping them
//! in their own loop.
//!
//! Two events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO tie-breaking via a sequence number), which keeps runs
//! bit-reproducible.
//!
//! Beside its heap the queue keeps FIFO *timer lanes*
//! ([`EventQueue::schedule_in_lane`]): a family of events whose times never
//! decrease (a fixed timeout after "now", say) is already sorted, so it can
//! wait in a `VecDeque` instead of being sifted through the heap. Lanes
//! change where an event waits, never when it is delivered. The queue
//! remembers the key of its next event and where that event waits, so
//! asking when the next event is due never searches.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// An event queued for delivery at a specific simulated instant.
#[derive(Debug, Clone, Copy)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// Total order: earliest time first, FIFO (sequence number) on ties.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A flat-array 4-ary min-heap.
///
/// The event queue is the hottest structure in the simulator: every RPC
/// and disk completion passes through it (timers that arrive already
/// sorted wait in [`EventQueue`]'s lanes instead). A 4-ary heap halves the
/// tree depth of a binary heap, so `pop` does half the sift-down levels,
/// and the four children of a node share one or two cache lines instead
/// of being spread across levels. Ordering is by `(at, seq)` — identical
/// to the previous `BinaryHeap<Scheduled>` semantics, pinned by property
/// tests in `tests/heap_properties.rs`.
///
/// A pop sifts the last item down by moving a hole rather than swapping
/// at every level: the item is held aside, each displaced child is copied
/// once into the hole, and the held item is written once where the hole
/// stops. That makes the same comparisons as swapping, so the heap's
/// layout is unchanged, but it needs `E: Copy` to stay free of `unsafe`.
#[derive(Debug, Clone)]
struct QuadHeap<E> {
    items: Vec<Scheduled<E>>,
}

impl<E: Copy> QuadHeap<E> {
    const ARITY: usize = 4;

    fn new() -> Self {
        QuadHeap { items: Vec::new() }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn peek(&self) -> Option<&Scheduled<E>> {
        self.items.first()
    }

    fn clear(&mut self) {
        self.items.clear();
    }

    fn push(&mut self, s: Scheduled<E>) {
        self.items.push(s);
        self.sift_up(self.items.len() - 1);
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        let last = self.items.pop()?;
        if self.items.is_empty() {
            return Some(last);
        }
        let top = self.items[0];
        self.sift_down(last);
        Some(top)
    }

    /// Moves the item at `i` up to its place. A push seldom climbs more
    /// than a level, so swapping beats holding the item aside here.
    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.items[i].key() < self.items[parent].key() {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Places `item` by walking a hole down from the root.
    #[inline]
    fn sift_down(&mut self, item: Scheduled<E>) {
        let key = item.key();
        let len = self.items.len();
        let mut i = 0;
        loop {
            let first_child = i * Self::ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + Self::ARITY).min(len);
            let mut min = first_child;
            let mut min_key = self.items[first_child].key();
            for c in first_child + 1..last_child {
                let k = self.items[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key < key {
                self.items[i] = self.items[min];
                i = min;
            } else {
                break;
            }
        }
        self.items[i] = item;
    }
}

/// The next event's key and where it waits: the heap (`lane: None`) or
/// a timer lane.
#[derive(Debug, Clone, Copy)]
struct Next {
    at: SimTime,
    seq: u64,
    lane: Option<usize>,
}

impl Next {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A deterministic time-ordered event queue.
///
/// Events wait either in a 4-ary min-heap ([`EventQueue::schedule_at`]) or
/// in a timer lane ([`EventQueue::schedule_in_lane`]). A lane holds its
/// events in `(at, seq)` order: a push earlier than the lane's tail goes to
/// the heap instead, so the invariant never depends on the caller. `pop`
/// takes the smallest `(at, seq)` among the heap top and the lane fronts —
/// the same total order a single heap gives, so where an event waited never
/// changes when, or in which order, it is delivered.
///
/// The queue remembers that smallest key and where it waits. A schedule
/// updates it with one comparison and a pop looks for the next one once,
/// so [`EventQueue::peek_time`] and a refused [`EventQueue::pop_if`] read
/// it without looking at the heap or the lanes. Payloads are `Copy`
/// (see the heap's sifting).
///
/// # Examples
///
/// ```
/// use simcore::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_at(SimTime::from_nanos(20), "late");
/// q.schedule_at(SimTime::from_nanos(10), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), e), (10, "early"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: QuadHeap<E>,
    /// Timer lanes, each sorted by `(at, seq)`; created on first use.
    lanes: Vec<VecDeque<Scheduled<E>>>,
    /// The least pending key, or `None` when nothing is pending.
    next: Option<Next>,
    now: SimTime,
    next_seq: u64,
    delivered: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: QuadHeap::new(),
            lanes: Vec::new(),
            next: None,
            now: SimTime::ZERO,
            next_seq: 0,
            delivered: 0,
        }
    }

    /// Returns the current simulated time (the timestamp of the most
    /// recently popped event, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of pending events, in the heap and the lanes.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.next.is_none()
    }

    /// Returns the total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Schedules `payload` for delivery at absolute time `at`.
    ///
    /// Scheduling into the past is a logic error and clamps to `now`; the
    /// event will be delivered immediately after any events already pending
    /// at `now`.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        let s = self.stamp(at, payload);
        self.offer(&s, None);
        self.heap.push(s);
    }

    /// Schedules `payload` at absolute time `at` in timer lane `lane`.
    ///
    /// Delivery is exactly as if it had been scheduled with
    /// [`EventQueue::schedule_at`]; the lane only saves the heap's sifting.
    /// It pays off for a family of events whose times never decrease,
    /// such as a fixed timeout after each popped event. A push earlier
    /// than the lane's last event goes to the heap instead. Lanes are
    /// numbered from zero and created on first use.
    pub fn schedule_in_lane(&mut self, lane: usize, at: SimTime, payload: E) {
        let s = self.stamp(at, payload);
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        if self.lanes[lane].back().is_some_and(|b| s.at < b.at) {
            self.offer(&s, None);
            self.heap.push(s);
        } else {
            self.offer(&s, Some(lane));
            self.lanes[lane].push_back(s);
        }
    }

    /// Clamps `at` to now and assigns the next sequence number.
    #[inline]
    fn stamp(&mut self, at: SimTime, payload: E) -> Scheduled<E> {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        Scheduled { at, seq, payload }
    }

    /// Makes `s`, about to wait in `lane` (`None`: the heap), the next
    /// event if it comes before the current one.
    #[inline]
    fn offer(&mut self, s: &Scheduled<E>, lane: Option<usize>) {
        if self.next.is_none_or(|n| s.key() < n.key()) {
            self.next = Some(Next {
                at: s.at,
                seq: s.seq,
                lane,
            });
        }
    }

    /// Schedules `payload` for delivery `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Returns the timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next.map(|n| n.at)
    }

    /// The least key among the heap top and the lane fronts, found afresh.
    #[inline]
    fn find_next(&self) -> Option<Next> {
        let mut best = self.heap.peek().map(|s| Next {
            at: s.at,
            seq: s.seq,
            lane: None,
        });
        for (i, q) in self.lanes.iter().enumerate() {
            if let Some(f) = q.front() {
                if best.is_none_or(|b| f.key() < b.key()) {
                    best = Some(Next {
                        at: f.at,
                        seq: f.seq,
                        lane: Some(i),
                    });
                }
            }
        }
        best
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if(|_| true)
    }

    /// Pops the next event if `due` accepts its timestamp, advancing the
    /// clock to it. A refusal costs one read of the remembered next key.
    #[inline]
    pub fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        let next = self.next?;
        if !due(next.at) {
            return None;
        }
        let s = match next.lane {
            None => self.heap.pop().expect("the next event is in the heap"),
            Some(i) => self.lanes[i]
                .pop_front()
                .expect("the next event is at the lane's front"),
        };
        debug_assert_eq!(s.key(), next.key(), "the remembered next key was stale");
        debug_assert!(s.at >= self.now, "event queue time went backwards");
        self.next = self.find_next();
        self.now = s.at;
        self.delivered += 1;
        Some((s.at, s.payload))
    }

    /// Removes all pending events and resets the delivered counter, keeping
    /// the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lanes.iter_mut().for_each(VecDeque::clear);
        self.next = None;
        self.delivered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pop_if_tests_only_the_next_event() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(20), "heap");
        q.schedule_in_lane(0, SimTime::from_nanos(10), "lane");
        assert_eq!(q.pop_if(|t| t < SimTime::from_nanos(10)), None);
        assert_eq!(
            (q.len(), q.now()),
            (2, SimTime::ZERO),
            "a refusal pops nothing"
        );
        let due = |t| t <= SimTime::from_nanos(10);
        assert_eq!(q.pop_if(due), Some((SimTime::from_nanos(10), "lane")));
        assert_eq!(q.pop_if(due), None);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "heap")));
        assert_eq!(q.pop_if(|_| true), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_millis(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(5_000_000));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), "a");
        q.pop();
        q.schedule_at(SimTime::from_nanos(10), "late");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "late");
        assert_eq!(t, SimTime::from_nanos(100));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1_000), ());
        q.pop();
        q.schedule_after(SimDuration::from_nanos(500), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1_500)));
    }

    #[test]
    fn delivered_counts_and_clear() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_at(SimTime::from_nanos(i), i);
        }
        q.pop();
        q.pop();
        assert_eq!(q.delivered(), 2);
        assert_eq!(q.len(), 8);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.delivered(), 0);
    }

    #[test]
    fn len_is_empty_and_clear_count_lane_events() {
        let mut q = EventQueue::new();
        q.schedule_in_lane(1, SimTime::from_nanos(50), 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(50)));
        q.schedule_at(SimTime::from_nanos(70), 1);
        q.schedule_in_lane(0, SimTime::from_nanos(60), 2);
        // Earlier than lane 1's tail: falls back to the heap.
        q.schedule_in_lane(1, SimTime::from_nanos(40), 3);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(40), 3)));
        assert_eq!(q.len(), 3);
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }
}
