//! A stable, deterministic event queue.
//!
//! Discrete-event simulators live or die by the determinism of their event
//! ordering. [`ShardedEventQueue`] orders events first by timestamp and
//! breaks ties by insertion sequence number, so two events scheduled for the same
//! cycle always pop in the order they were pushed, regardless of storage
//! internals.
//!
//! # Causality contract
//!
//! The queue tracks a *watermark*: the timestamp of the most recently
//! popped event, i.e. how far simulated time has provably advanced. Every
//! [`ShardedEventQueue::push`] must satisfy `time >= watermark` — scheduling
//! behind the watermark would mean an event fires in the caller's past,
//! and the queue panics rather than silently reordering history.
//! Scheduling *at* the watermark is always legal (the new event pops
//! after anything already pending at that cycle, FIFO). Callers reacting
//! to the event being processed right now should use
//! [`ShardedEventQueue::schedule_now`], which pins the timestamp to the
//! watermark and therefore can never violate the contract; callers
//! computing a future timestamp from per-CPU clocks that may trail the
//! queue (the machine's CPUs run ahead of and behind device time) must
//! clamp with `at.max(queue.now().cycles())` before pushing.
//!
//! # Storage: a hierarchical calendar
//!
//! Events are kept in a two-level calendar ([`Calendar`]) instead of one
//! binary heap: a ring of per-cycle FIFO buckets covers the *near future*
//! (`SPAN` cycles past the watermark), and an overflow [`BinaryHeap`]
//! holds everything beyond it. Near-future scheduling — "continue this
//! work now" events pinned at or just past the watermark, which dominate
//! a busy simulation — becomes a bucket append instead of a heap
//! percolation; far-future events (wire and RTT delays, timers) pay
//! exactly the old heap cost.
//!
//! The queue adds a third store beside its lanes' calendars: a FIFO
//! *timer run* ([`ShardedEventQueue::push_timer`]). A timer armed a
//! fixed delay past a non-decreasing clock — a retransmission timeout
//! `watermark + RTO` — is never earlier than the previous one, so it is
//! a deque append and later a deque pop instead of a far-heap push and
//! pop.
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
//! * **Merge.** [`Calendar::peek`] compares the earliest ring event (the
//!   cached head bucket's front) with the far heap's top by `(time,
//!   seq)`, and [`Calendar::pop`] takes the smaller — so the far heap
//!   never migrates into the ring: a far event simply wins the
//!   comparison once everything earlier has drained. Ties across the two
//!   stores are broken by `seq` like everywhere else, so the merged
//!   sequence is the same total order the old single heap produced.
//!
//! The queue extends the same argument across per-CPU lanes:
//! the lanes share one sequence counter and one watermark, and every pop
//! takes the `(time, seq)`-minimum across lanes, so *which* lane stores
//! an event is pure storage layout and cannot affect pop order.
//!
//! The timer run is covered by the same argument:
//!
//! * **Append only at or after the tail.** `push_timer` appends only when
//!   `time >= tail.time`, and the new seq exceeds every earlier one, so
//!   the run stays sorted by `(time, seq)` and its front is its minimum.
//!   A timer earlier than the tail is an ordinary lane push instead, so
//!   the run is exact for any input, not only for fixed delays.
//! * **Merge by the contract key.** A pop compares the run's front with
//!   the cached lane head by `(time, seq)` and takes the smaller, exactly
//!   like the ring/far merge inside a calendar. Comparing time alone
//!   would misorder same-cycle ties between a timer and a lane event.

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

/// Two-level deterministic calendar: near-future per-cycle ring + far
/// overflow heap. Sequence numbers and the causality watermark live in
/// [`ShardedEventQueue`] so its lanes' calendars share one sequence
/// space. See the module docs for the
/// ordering proof.
#[derive(Debug, Clone)]
struct Calendar<E> {
    /// `ring[time % SPAN]`: the FIFO of events for one near cycle.
    ring: Vec<VecDeque<(u64, E)>>,
    /// Occupancy bit per bucket, for finding the next head bucket.
    occupied: Vec<u64>,
    /// Cycle of the earliest ring event, cached for O(1) peeks.
    ring_head: Option<u64>,
    /// Pending events in the ring.
    ring_len: usize,
    /// Far future: everything at or past `watermark + SPAN` when pushed.
    far: BinaryHeap<ScheduledEvent<E>>,
}

impl<E> Calendar<E> {
    fn with_capacity(capacity: usize) -> Self {
        Calendar {
            ring: (0..SPAN).map(|_| VecDeque::new()).collect(),
            occupied: vec![0; SPAN / WORD_BITS],
            ring_head: None,
            ring_len: 0,
            far: BinaryHeap::with_capacity(capacity),
        }
    }

    fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// Stores an event. `watermark` decides near/far routing; the caller
    /// has already enforced `time >= watermark`.
    #[inline]
    fn push(&mut self, watermark: SimTime, time: SimTime, seq: u64, event: E) {
        let t = time.cycles();
        if t - watermark.cycles() < SPAN as u64 {
            let b = t as usize & (SPAN - 1);
            self.ring[b].push_back((seq, event));
            self.occupied[b / WORD_BITS] |= 1 << (b % WORD_BITS);
            self.ring_len += 1;
            if self.ring_head.is_none() || Some(t) < self.ring_head {
                self.ring_head = Some(t);
            }
        } else {
            self.far.push(ScheduledEvent { time, seq, event });
        }
    }

    /// `(time, seq)` of the earliest stored event, if any.
    #[inline]
    fn peek(&self) -> Option<(SimTime, u64)> {
        let ring = self.ring_head.map(|t| {
            let front = self.ring[t as usize & (SPAN - 1)]
                .front()
                .expect("head bucket non-empty");
            (SimTime::from_cycles(t), front.0)
        });
        match (ring, self.far.peek()) {
            (Some(r), Some(f)) => {
                let f = (f.time, f.seq);
                Some(if r <= f { r } else { f })
            }
            (r, f) => r.or_else(|| f.map(|ev| (ev.time, ev.seq))),
        }
    }

    /// Removes and returns the earliest stored event.
    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        let take_far = match (self.ring_head, self.far.peek()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(t), Some(f)) => {
                let seq = self.ring[t as usize & (SPAN - 1)]
                    .front()
                    .expect("head bucket non-empty")
                    .0;
                (f.time.cycles(), f.seq) < (t, seq)
            }
        };
        if take_far {
            let ev = self.far.pop().expect("checked non-empty");
            return Some((ev.time, ev.seq, ev.event));
        }
        let t = self.ring_head.expect("checked non-empty");
        let bi = t as usize & (SPAN - 1);
        let (seq, event) = self.ring[bi].pop_front().expect("head bucket non-empty");
        self.ring_len -= 1;
        if self.ring[bi].is_empty() {
            self.occupied[bi / WORD_BITS] &= !(1 << (bi % WORD_BITS));
            self.ring_head = if self.ring_len == 0 {
                None
            } else {
                Some(self.next_occupied_cycle(t))
            };
        }
        Some((SimTime::from_cycles(t), seq, event))
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

    /// Drops every stored event.
    fn clear(&mut self) {
        if self.ring_len != 0 {
            for b in &mut self.ring {
                b.clear();
            }
            self.occupied.fill(0);
            self.ring_len = 0;
            self.ring_head = None;
        }
        self.far.clear();
    }
}

/// A deterministic event queue sharded into per-lane calendars.
///
/// Lanes let a caller keep (say) CPU-local events in CPU-local storage:
/// pushes name a lane, and pops take the `(time, seq)`-minimum across all
/// lanes. Because every lane shares one sequence counter and one
/// causality watermark, the merged pop order is *identical* to pushing
/// everything through a single lane — lane assignment is pure storage
/// layout (see the module docs). The per-lane `(time, seq)` heads
/// are cached, so `peek_time` is O(1) and only a lane pop pays the
/// O(lanes) argmin rescan.
///
/// Fixed-delay timers pushed with [`ShardedEventQueue::push_timer`] ride
/// a FIFO run beside the lanes: appending and popping there is O(1) and
/// never rescans the lane heads.
///
/// # Example
///
/// ```
/// use sim_core::{ShardedEventQueue, SimTime};
///
/// let mut q = ShardedEventQueue::new(2);
/// q.push(0, SimTime::from_cycles(5), 'b');
/// q.push(1, SimTime::from_cycles(5), 'c'); // same cycle, later seq
/// q.push(1, SimTime::from_cycles(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedEventQueue<E> {
    lanes: Vec<Calendar<E>>,
    /// `(time, seq, lane)` of the earliest lane event, cached across peeks.
    head: Option<(SimTime, u64, usize)>,
    /// Timer run: events sorted by `(time, seq)`, appended only at or
    /// after the tail's time.
    run: VecDeque<ScheduledEvent<E>>,
    next_seq: u64,
    watermark: SimTime,
}

impl<E> ShardedEventQueue<E> {
    /// Creates a queue with `lanes` empty lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        Self::with_capacity(lanes, 0)
    }

    /// Creates a queue with `lanes` lanes, each with room for `capacity`
    /// far-future events.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[must_use]
    pub fn with_capacity(lanes: usize, capacity: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        ShardedEventQueue {
            lanes: (0..lanes)
                .map(|_| Calendar::with_capacity(capacity))
                .collect(),
            head: None,
            run: VecDeque::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Schedules `event` to fire at `time`, stored in `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range, or if `time` is earlier than the
    /// timestamp of the most recently popped event: scheduling into the
    /// past would violate causality and indicates a bug in the caller.
    pub fn push(&mut self, lane: usize, time: SimTime, event: E) {
        let seq = self.take_seq(time);
        self.lanes[lane].push(self.watermark, time, seq, event);
        if self.head.is_none() || (time, seq) < (self.head.unwrap().0, self.head.unwrap().1) {
            self.head = Some((time, seq, lane));
        }
    }

    /// Schedules a timer: `event` at `time`, appended to the timer run
    /// when `time` is at or after the run's tail, otherwise pushed on
    /// `lane` as by [`ShardedEventQueue::push`]. Either way the pop order
    /// is the same `(time, seq)` order; the run only pays off for
    /// fixed-delay timers armed from a non-decreasing clock (such as the
    /// watermark), which always append.
    ///
    /// # Panics
    ///
    /// As for [`ShardedEventQueue::push`].
    pub fn push_timer(&mut self, lane: usize, time: SimTime, event: E) {
        if self.run.back().is_some_and(|tail| time < tail.time) {
            self.push(lane, time, event);
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

    /// Schedules `event` on `lane` at the current watermark (cannot
    /// violate causality).
    pub fn schedule_now(&mut self, lane: usize, event: E) {
        let now = self.watermark;
        self.push(lane, now, event);
    }

    /// Removes and returns the globally earliest event, advancing the
    /// causality watermark to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(front) = self.run.front() {
            if self
                .head
                .is_none_or(|(t, seq, _)| (front.time, front.seq) < (t, seq))
            {
                let ev = self.run.pop_front().expect("run front exists");
                self.watermark = ev.time;
                return Some((ev.time, ev.event));
            }
        }
        let (time, _, lane) = self.head?;
        let (t, _seq, event) = self.lanes[lane].pop().expect("cached head exists");
        debug_assert_eq!(t, time);
        self.watermark = t;
        self.head = self.rescan_head();
        Some((t, event))
    }

    /// `(time, seq, lane)` minimum across lane heads.
    fn rescan_head(&self) -> Option<(SimTime, u64, usize)> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some((t, s)) = lane.peek() {
                if best.is_none() || (t, s) < (best.unwrap().0, best.unwrap().1) {
                    best = Some((t, s, i));
                }
            }
        }
        best
    }

    /// Timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.head.map(|(t, _, _)| t);
        match (lane, self.run.front()) {
            (Some(t), Some(ev)) => Some(t.min(ev.time)),
            (lane, run) => lane.or(run.map(|ev| ev.time)),
        }
    }

    /// Total pending events across lanes and the timer run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.iter().map(Calendar::len).sum::<usize>() + self.run.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head.is_none() && self.run.is_empty()
    }

    /// Timestamp of the most recently popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Drops every pending event, keeping the watermark.
    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.head = None;
        self.run.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = ShardedEventQueue::new(1);
        q.push(0, SimTime::from_cycles(30), 3);
        q.push(0, SimTime::from_cycles(10), 1);
        q.push(0, SimTime::from_cycles(20), 2);
        let seq: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(seq, [1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = ShardedEventQueue::new(1);
        let t = SimTime::from_cycles(7);
        for i in 0..100 {
            q.push(0, t, i);
        }
        let seq: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(seq, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn watermark_tracks_now() {
        let mut q = ShardedEventQueue::new(1);
        q.push(0, SimTime::from_cycles(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_cycles(5));
    }

    #[test]
    #[should_panic(expected = "already advanced")]
    fn rejects_scheduling_in_the_past() {
        let mut q = ShardedEventQueue::new(1);
        q.push(0, SimTime::from_cycles(10), ());
        q.pop();
        q.push(0, SimTime::from_cycles(9), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = ShardedEventQueue::new(1);
        q.push(0, SimTime::from_cycles(10), 1);
        q.pop();
        q.push(0, SimTime::from_cycles(10), 2); // same cycle as "now": fine
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn schedule_now_lands_on_the_watermark() {
        let mut q = ShardedEventQueue::new(1);
        q.push(0, SimTime::from_cycles(10), 1);
        q.pop();
        q.schedule_now(0, 2); // at the watermark: legal, pops next
        assert_eq!(q.pop(), Some((SimTime::from_cycles(10), 2)));
        // On a fresh queue the watermark is time zero.
        let mut fresh = ShardedEventQueue::new(1);
        fresh.schedule_now(0, 'a');
        assert_eq!(fresh.pop(), Some((SimTime::ZERO, 'a')));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = ShardedEventQueue::new(1);
        q.push(0, SimTime::from_cycles(3), 'x');
        assert_eq!(q.peek_time(), Some(SimTime::from_cycles(3)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_keeps_watermark() {
        let mut q = ShardedEventQueue::new(1);
        q.push(0, SimTime::from_cycles(10), ());
        q.pop();
        q.push(0, SimTime::from_cycles(20), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_cycles(10));
    }

    #[test]
    fn far_future_events_cross_the_ring_boundary() {
        let mut q = ShardedEventQueue::new(1);
        // One event far beyond the ring span, one inside it.
        q.push(0, SimTime::from_cycles(1_000_000), 'f');
        q.push(0, SimTime::from_cycles(3), 'n');
        assert_eq!(q.peek_time(), Some(SimTime::from_cycles(3)));
        assert_eq!(q.pop(), Some((SimTime::from_cycles(3), 'n')));
        // After the near event drains, the far event surfaces.
        assert_eq!(q.peek_time(), Some(SimTime::from_cycles(1_000_000)));
        // An event that is near *relative to the new watermark* but maps
        // to the same bucket as an old cycle must still order correctly.
        q.push(0, SimTime::from_cycles(3 + SPAN as u64), 'w');
        assert_eq!(q.pop(), Some((SimTime::from_cycles(3 + SPAN as u64), 'w')));
        assert_eq!(q.pop(), Some((SimTime::from_cycles(1_000_000), 'f')));
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_ties_across_ring_and_far_break_by_seq() {
        let mut q = ShardedEventQueue::new(1);
        let t = SimTime::from_cycles(SPAN as u64 + 100);
        // First push: beyond watermark + SPAN, lands in the far heap.
        q.push(0, t, 'f');
        // Advance the watermark into range so the same cycle now maps to
        // the ring.
        q.push(0, SimTime::from_cycles(200), 'x');
        q.pop();
        q.push(0, t, 'r'); // near now: same cycle in the ring, later seq
        assert_eq!(q.pop(), Some((t, 'f')));
        assert_eq!(q.pop(), Some((t, 'r')));
    }

    #[test]
    fn sharded_merge_matches_single_queue() {
        // Same pushes, lane-striped vs one lane: identical pop order.
        // Every third push is a timer: times 1 and 5 append to the run
        // (5 ties with two earlier lane events), 2 falls behind the
        // run's tail and lands on a lane.
        let mut sharded = ShardedEventQueue::new(3);
        let mut single = ShardedEventQueue::new(1);
        let times = [5u64, 5, 1, 9000, 7, 5, 12000, 2, 2, 9000];
        for (i, &t) in times.iter().enumerate() {
            if i % 3 == 2 {
                sharded.push_timer(i % 3, SimTime::from_cycles(t), i);
            } else {
                sharded.push(i % 3, SimTime::from_cycles(t), i);
            }
            single.push(0, SimTime::from_cycles(t), i);
        }
        assert_eq!(sharded.len(), single.len());
        loop {
            let a = sharded.pop();
            let b = single.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
            assert_eq!(sharded.now(), single.now());
            assert_eq!(sharded.peek_time(), single.peek_time());
        }
    }

    #[test]
    #[should_panic(expected = "already advanced")]
    fn sharded_rejects_scheduling_in_the_past() {
        let mut q = ShardedEventQueue::new(2);
        q.push(1, SimTime::from_cycles(10), ());
        q.pop();
        q.push(0, SimTime::from_cycles(9), ());
    }

    #[test]
    fn sharded_schedule_now_and_clear() {
        let mut q = ShardedEventQueue::new(2);
        q.push(0, SimTime::from_cycles(10), 1);
        q.pop();
        q.schedule_now(1, 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_cycles(10)));
        assert_eq!(q.pop(), Some((SimTime::from_cycles(10), 2)));
        q.push(0, SimTime::from_cycles(20), 3);
        q.push_timer(1, SimTime::from_cycles(30), 4);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::from_cycles(10));
    }
}
