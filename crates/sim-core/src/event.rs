//! A stable, deterministic event queue.
//!
//! Discrete-event simulators live or die by the determinism of their event
//! ordering. [`EventQueue`] orders events first by timestamp and breaks
//! ties by insertion sequence number, so two events scheduled for the same
//! cycle always pop in the order they were pushed, regardless of storage
//! internals.
//!
//! # Causality contract
//!
//! The queue tracks a *watermark*: the timestamp of the most recently
//! popped event, i.e. how far simulated time has provably advanced. Every
//! [`EventQueue::push`] must satisfy `time >= watermark` — scheduling
//! behind the watermark would mean an event fires in the caller's past,
//! and the queue panics rather than silently reordering history.
//! Scheduling *at* the watermark is always legal (the new event pops
//! after anything already pending at that cycle, FIFO). Callers reacting
//! to the event being processed right now should use
//! [`EventQueue::schedule_now`], which pins the timestamp to the
//! watermark and therefore can never violate the contract; callers
//! computing a future timestamp from per-CPU clocks that may trail the
//! queue (the machine's CPUs run ahead of and behind device time) must
//! clamp with `at.max(queue.now().cycles())` before pushing.
//!
//! # Storage: a hierarchical calendar
//!
//! Events are kept in a two-level calendar instead of one binary heap: a
//! ring of per-cycle FIFO buckets covers the *near future* (`SPAN`
//! cycles past the watermark), and an overflow [`BinaryHeap`] holds
//! everything beyond it. Near-future scheduling — "continue this work
//! now" events pinned at or just past the watermark, which dominate a
//! busy simulation — becomes a bucket append instead of a heap
//! percolation; far-future events (wire and RTT delays, timers) pay
//! exactly the old heap cost.
//!
//! The queue adds a third store beside the calendar: a FIFO *timer run*
//! ([`EventQueue::push_timer`]). A timer armed a fixed delay past a
//! non-decreasing clock — a retransmission timeout `watermark + RTO` —
//! is never earlier than the previous one, so it is a deque append and
//! later a deque pop instead of a far-heap push and pop.
//!
//! ## Ordering-contract proof sketch
//!
//! The pop order is the total order `(time, seq)`; the calendar preserves
//! it exactly:
//!
//! * **Routing.** A push at `time < watermark + SPAN` goes to bucket
//!   `time % SPAN`; later pushes go to the far heap. Every ring event
//!   therefore satisfies `time < watermark_at_push + SPAN`.
//! * **No bucket collisions.** Every pending ring event also satisfies
//!   `time >= watermark` (an event below the watermark would have been
//!   the global minimum earlier and popped before the watermark advanced
//!   past it, because pops always take the global minimum). Pending ring
//!   times thus live in one window of length `SPAN`, so two events in
//!   the same bucket are at the *same* cycle — a bucket is a
//!   single-cycle FIFO, and appending in push order is exactly seq
//!   order, because seq is monotonic.
//! * **Merge.** A pop compares the earliest ring event (the cached head
//!   bucket's front) with the far heap's top by `(time, seq)` and takes
//!   the smaller — so the far heap never migrates into the ring: a far
//!   event simply wins the comparison once everything earlier has
//!   drained. Ties across the two stores are broken by `seq` like
//!   everywhere else, so the merged sequence is the same total order the
//!   old single heap produced.
//!
//! The timer run is covered by the same argument:
//!
//! * **Append only at or after the tail.** `push_timer` appends only when
//!   `time >= tail.time`, and the new seq exceeds every earlier one, so
//!   the run stays sorted by `(time, seq)` and its front is its minimum.
//!   A timer earlier than the tail is an ordinary calendar push instead,
//!   so the run is exact for any input, not only for fixed delays.
//! * **Merge by the contract key.** A pop takes the run's front when its
//!   `(time, seq)` beats the calendar's earliest event, exactly like the
//!   ring/far merge. Comparing time alone would misorder same-cycle ties
//!   between a timer and a calendar event.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::SimTime;

/// An event with its scheduled time and tie-breaking sequence number.
#[derive(Debug, Clone)]
struct ScheduledEvent<E> {
    /// When the event fires.
    time: SimTime,
    /// Monotonic insertion index; earlier pushes pop first on time ties.
    seq: u64,
    /// The caller-defined payload.
    event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Cycles of near future covered by the calendar ring (one bucket per
/// cycle). Power of two so the bucket index is a mask, sized to cover the
/// dense short-delay band (interrupt latencies, context switches,
/// bottom-half continuations) while long wire/RTT delays overflow to the
/// far heap.
const SPAN: usize = 2048;
/// Bit width of one occupancy word.
const WORD_BITS: usize = 64;

/// A deterministic event queue: a near-future calendar ring, a far
/// overflow heap and a FIFO timer run, merged by `(time, seq)` on every
/// pop (see the module docs for the ordering proof).
///
/// Fixed-delay timers pushed with [`EventQueue::push_timer`] ride the
/// timer run beside the calendar: appending and popping there is O(1).
/// The calendar's earliest `(time, seq)` is cached, so a timer pop and
/// `peek_time` touch neither the ring nor the far heap.
///
/// # Example
///
/// ```
/// use sim_core::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_cycles(5), 'b');
/// q.push(SimTime::from_cycles(5), 'c'); // same cycle, later seq
/// q.push(SimTime::from_cycles(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `ring[time % SPAN]`: the FIFO of events for one near cycle.
    ring: Vec<VecDeque<(u64, E)>>,
    /// Occupancy bit per bucket, for finding the next head bucket.
    occupied: Vec<u64>,
    /// Cycle of the earliest ring event: the head bucket's index.
    ring_head: Option<u64>,
    /// Pending events in the ring.
    ring_len: usize,
    /// Far future: everything at or past `watermark + SPAN` when pushed.
    far: BinaryHeap<ScheduledEvent<E>>,
    /// Timer run: events sorted by `(time, seq)`, appended only at or
    /// after the tail's time.
    run: VecDeque<ScheduledEvent<E>>,
    /// `(time, seq)` of the calendar's earliest event, ring or far,
    /// cached across pushes and timer-run pops.
    cal_head: Option<(SimTime, u64)>,
    next_seq: u64,
    watermark: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` far-future events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            ring: (0..SPAN).map(|_| VecDeque::new()).collect(),
            occupied: vec![0; SPAN / WORD_BITS],
            ring_head: None,
            ring_len: 0,
            far: BinaryHeap::with_capacity(capacity),
            run: VecDeque::new(),
            cal_head: None,
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the timestamp of the most
    /// recently popped event: scheduling into the past would violate
    /// causality and indicates a bug in the caller.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq(time);
        let t = time.cycles();
        if t - self.watermark.cycles() < SPAN as u64 {
            let b = t as usize & (SPAN - 1);
            self.ring[b].push_back((seq, event));
            self.occupied[b / WORD_BITS] |= 1 << (b % WORD_BITS);
            self.ring_len += 1;
            if self.ring_head.is_none_or(|head| t < head) {
                self.ring_head = Some(t);
            }
        } else {
            self.far.push(ScheduledEvent { time, seq, event });
        }
        if self.cal_head.is_none_or(|key| (time, seq) < key) {
            self.cal_head = Some((time, seq));
        }
    }

    /// Schedules a timer: `event` at `time`, appended to the timer run
    /// when `time` is at or after the run's tail, otherwise pushed as by
    /// [`EventQueue::push`]. Either way the pop order is the same
    /// `(time, seq)` order; the run only pays off for fixed-delay timers
    /// armed from a non-decreasing clock (such as the watermark), which
    /// always append.
    ///
    /// # Panics
    ///
    /// As for [`EventQueue::push`].
    pub fn push_timer(&mut self, time: SimTime, event: E) {
        if self.run.back().is_some_and(|tail| time < tail.time) {
            self.push(time, event);
            return;
        }
        let seq = self.take_seq(time);
        self.run.push_back(ScheduledEvent { time, seq, event });
    }

    /// Checks the causality contract for a push at `time` and hands out
    /// its sequence number.
    fn take_seq(&mut self, time: SimTime) -> u64 {
        assert!(
            time >= self.watermark,
            "event scheduled at {time} but simulation already advanced to {}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at the current watermark (cannot violate
    /// causality).
    pub fn schedule_now(&mut self, event: E) {
        let now = self.watermark;
        self.push(now, event);
    }

    /// `(time, seq)` of the calendar's earliest event.
    fn calendar_head(&self) -> Option<(SimTime, u64)> {
        let ring = self.ring_head.map(|t| {
            let front = self.ring[t as usize & (SPAN - 1)]
                .front()
                .expect("head bucket non-empty");
            (SimTime::from_cycles(t), front.0)
        });
        let far = self.far.peek().map(|ev| (ev.time, ev.seq));
        match (ring, far) {
            (Some(r), Some(f)) => Some(r.min(f)),
            (r, f) => r.or(f),
        }
    }

    /// Removes and returns the earliest event, advancing the causality
    /// watermark to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(front) = self.run.front() {
            if self
                .cal_head
                .is_none_or(|key| (front.time, front.seq) < key)
            {
                let ev = self.run.pop_front().expect("run front exists");
                self.watermark = ev.time;
                return Some((ev.time, ev.event));
            }
        }
        let (time, seq) = self.cal_head?;
        self.watermark = time;
        // Seqs are unique, so the far heap holds the head iff its top
        // carries the head's seq.
        let event = if self.far.peek().is_some_and(|ev| ev.seq == seq) {
            self.far.pop().expect("head exists").event
        } else {
            let t = time.cycles();
            let bi = t as usize & (SPAN - 1);
            let (_, event) = self.ring[bi].pop_front().expect("head bucket non-empty");
            self.ring_len -= 1;
            if self.ring[bi].is_empty() {
                self.occupied[bi / WORD_BITS] &= !(1 << (bi % WORD_BITS));
                self.ring_head = (self.ring_len != 0).then(|| self.next_occupied_cycle(t));
            }
            event
        };
        self.cal_head = self.calendar_head();
        Some((time, event))
    }

    /// Smallest occupied cycle strictly after `from`. Pending ring cycles
    /// all lie in `(from, from + SPAN]` when this is called (the head at
    /// `from` just drained), so the wrapped bitmap distance from `from +
    /// 1` recovers the cycle. Caller guarantees `ring_len > 0`.
    fn next_occupied_cycle(&self, from: u64) -> u64 {
        let words = SPAN / WORD_BITS;
        let start = (from as usize + 1) & (SPAN - 1);
        let mut word = start / WORD_BITS;
        // Mask off bits below `start` in its word.
        let mut bits = self.occupied[word] & (!0u64 << (start % WORD_BITS));
        let mut scanned = 0;
        loop {
            if bits != 0 {
                let b = word * WORD_BITS + bits.trailing_zeros() as usize;
                let dist = (b + SPAN - start) & (SPAN - 1);
                return from + 1 + dist as u64;
            }
            scanned += 1;
            assert!(scanned <= words, "occupancy bitmap empty with ring_len > 0");
            word = (word + 1) % words;
            bits = self.occupied[word];
        }
    }

    /// Timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let cal = self.cal_head.map(|(t, _)| t);
        match (cal, self.run.front()) {
            (Some(t), Some(ev)) => Some(t.min(ev.time)),
            (cal, run) => cal.or(run.map(|ev| ev.time)),
        }
    }

    /// Total pending events in the calendar and the timer run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len() + self.run.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timestamp of the most recently popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Drops every pending event, keeping the watermark.
    pub fn clear(&mut self) {
        if self.ring_len != 0 {
            for b in &mut self.ring {
                b.clear();
            }
            self.occupied.fill(0);
            self.ring_len = 0;
            self.ring_head = None;
        }
        self.far.clear();
        self.run.clear();
        self.cal_head = None;
    }
}

/// The event queue under its former per-lane name, for callers that still
/// name a lane: every method ignores it.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct ShardedEventQueue<E>(EventQueue<E>);

#[doc(hidden)]
impl<E> ShardedEventQueue<E> {
    #[must_use]
    pub fn with_capacity(_lanes: usize, capacity: usize) -> Self {
        ShardedEventQueue(EventQueue::with_capacity(capacity))
    }

    pub fn push(&mut self, _lane: usize, time: SimTime, event: E) {
        self.0.push(time, event);
    }

    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.0.pop()
    }

    #[must_use]
    pub fn now(&self) -> SimTime {
        self.0.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(30), 3);
        q.push(SimTime::from_cycles(10), 1);
        q.push(SimTime::from_cycles(20), 2);
        let seq: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(seq, [1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_cycles(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let seq: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(seq, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn watermark_tracks_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_cycles(5));
    }

    #[test]
    #[should_panic(expected = "already advanced")]
    fn rejects_scheduling_in_the_past() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(10), ());
        q.pop();
        q.push(SimTime::from_cycles(9), ());
    }

    #[test]
    #[should_panic(expected = "already advanced")]
    fn rejects_timers_in_the_past() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(10), ());
        q.pop();
        q.push_timer(SimTime::from_cycles(9), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(10), 1);
        q.pop();
        q.push(SimTime::from_cycles(10), 2); // same cycle as "now": fine
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn schedule_now_lands_on_the_watermark() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(10), 1);
        q.pop();
        q.schedule_now(2); // at the watermark: legal, pops next
        assert_eq!(q.peek_time(), Some(SimTime::from_cycles(10)));
        assert_eq!(q.pop(), Some((SimTime::from_cycles(10), 2)));
        // On a fresh queue the watermark is time zero.
        let mut fresh = EventQueue::new();
        fresh.schedule_now('a');
        assert_eq!(fresh.pop(), Some((SimTime::ZERO, 'a')));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(3), 'x');
        assert_eq!(q.peek_time(), Some(SimTime::from_cycles(3)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_every_store_and_keeps_the_watermark() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(10), 1);
        q.pop();
        q.push(SimTime::from_cycles(20), 2); // ring
        q.push(SimTime::from_cycles(10 + 5 * SPAN as u64), 3); // far heap
        q.push_timer(SimTime::from_cycles(30), 4); // timer run
        assert_eq!(q.len(), 3);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::from_cycles(10));
    }

    #[test]
    fn far_future_events_cross_the_ring_boundary() {
        let mut q = EventQueue::new();
        // One event far beyond the ring span, one inside it.
        q.push(SimTime::from_cycles(1_000_000), 'f');
        q.push(SimTime::from_cycles(3), 'n');
        assert_eq!(q.peek_time(), Some(SimTime::from_cycles(3)));
        assert_eq!(q.pop(), Some((SimTime::from_cycles(3), 'n')));
        // After the near event drains, the far event surfaces.
        assert_eq!(q.peek_time(), Some(SimTime::from_cycles(1_000_000)));
        // An event that is near *relative to the new watermark* but maps
        // to the same bucket as an old cycle must still order correctly.
        q.push(SimTime::from_cycles(3 + SPAN as u64), 'w');
        assert_eq!(q.pop(), Some((SimTime::from_cycles(3 + SPAN as u64), 'w')));
        assert_eq!(q.pop(), Some((SimTime::from_cycles(1_000_000), 'f')));
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_ties_across_ring_and_far_break_by_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_cycles(SPAN as u64 + 100);
        // First push: beyond watermark + SPAN, lands in the far heap.
        q.push(t, 'f');
        // Advance the watermark into range so the same cycle now maps to
        // the ring.
        q.push(SimTime::from_cycles(200), 'x');
        q.pop();
        q.push(t, 'r'); // near now: same cycle in the ring, later seq
        assert_eq!(q.pop(), Some((t, 'f')));
        assert_eq!(q.pop(), Some((t, 'r')));
    }
}
