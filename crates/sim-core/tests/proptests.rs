//! Property-based tests for the simulation engine's invariants.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use sim_core::{EventQueue, SimRng, SimTime};

/// Reference model of the pre-calendar event queue: one binary heap
/// ordered by `(time, seq)`, with the same causality watermark. The
/// calendar-backed [`EventQueue`] must be observationally
/// identical to this on every interleaving.
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    next_seq: u64,
    watermark: u64,
}

impl ModelQueue {
    fn push(&mut self, time: u64, payload: usize) {
        assert!(time >= self.watermark, "model: push into the past");
        self.heap.push(Reverse((time, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let Reverse((time, _seq, payload)) = self.heap.pop()?;
        self.watermark = time;
        Some((time, payload))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((t, _, _))| t)
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, and equal-time
    /// events pop in insertion order.
    #[test]
    fn event_queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_cycles(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated for equal times");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Popping never yields more or fewer events than were pushed.
    #[test]
    fn event_queue_conserves_events(times in prop::collection::vec(0u64..100, 0..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.push(SimTime::from_cycles(t), ());
        }
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// `next_below(b)` is always `< b`, for any seed and bound.
    #[test]
    fn rng_next_below_in_bounds(seed: u64, bound in 1u64..u64::MAX) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// `range(lo, hi)` stays inside the half-open interval.
    #[test]
    fn rng_range_in_bounds(seed: u64, lo in 0u64..1000, width in 1u64..1000) {
        let mut rng = SimRng::new(seed);
        let hi = lo + width;
        for _ in 0..20 {
            let x = rng.range(lo, hi);
            prop_assert!((lo..hi).contains(&x));
        }
    }

    /// Identical seeds give identical streams; shuffles are permutations.
    #[test]
    fn rng_shuffle_is_permutation(seed: u64, n in 0usize..64) {
        let mut rng = SimRng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// The calendar-backed queue matches the old binary-heap queue on
    /// random push/pop/schedule_now interleavings: identical pop order,
    /// watermarks, peeks, and lengths. Offsets span both the near ring
    /// and the far heap so the merge between the two stores is
    /// exercised.
    ///
    /// Timer pushes go to the queue's FIFO timer run (and are plain
    /// pushes for the model): fixed-delay ones at `watermark
    /// + delay`, with `delay` drawn once per case on either side of the
    /// ring span, and arbitrary ones that may fall behind the run's tail
    /// and take the calendar fallback. Calendar pushes at the same
    /// `watermark + delay` put same-cycle ties between the run and the
    /// calendar in both seq orders, so a merge that compared time
    /// without seq fails here.
    #[test]
    fn calendar_queue_matches_binary_heap_model(
        ops in prop::collection::vec((0u8..7, 0u64..40_000), 1..300),
        delay in 0u64..6000,
    ) {
        let mut model = ModelQueue::default();
        let mut q = EventQueue::new();
        for (i, &(op, offset)) in ops.iter().enumerate() {
            match op {
                // Near push: lands in the calendar ring.
                0 => {
                    let t = model.watermark + (offset % 1500);
                    model.push(t, i);
                    q.push(SimTime::from_cycles(t), i);
                }
                // Far push: overflows past the ring span.
                1 => {
                    let t = model.watermark + offset;
                    model.push(t, i);
                    q.push(SimTime::from_cycles(t), i);
                }
                2 => {
                    model.push(model.watermark, i);
                    q.schedule_now(i);
                }
                // Fixed-delay timer: appends to the run.
                3 => {
                    let t = model.watermark + delay;
                    model.push(t, i);
                    q.push_timer(SimTime::from_cycles(t), i);
                }
                // Arbitrary timer: behind the run's tail it falls back to
                // the calendar.
                4 => {
                    let t = model.watermark + offset;
                    model.push(t, i);
                    q.push_timer(SimTime::from_cycles(t), i);
                }
                // Calendar push on the fixed-delay timers' cycle: a
                // same-cycle tie with the run.
                5 => {
                    let t = model.watermark + delay;
                    model.push(t, i);
                    q.push(SimTime::from_cycles(t), i);
                }
                _ => {
                    let want = model.pop();
                    let got = q.pop().map(|(t, p)| (t.cycles(), p));
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(q.peek_time().map(SimTime::cycles), model.peek_time());
            prop_assert_eq!(q.len(), model.heap.len());
            prop_assert_eq!(q.is_empty(), model.heap.is_empty());
            prop_assert_eq!(q.now().cycles(), model.watermark);
        }
        // Drain: the full remaining order must agree.
        loop {
            let want = model.pop();
            let got = q.pop().map(|(t, p)| (t.cycles(), p));
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    /// The calendar queue panics on a push into the past exactly when the
    /// heap model would (time below the watermark), with the same
    /// causality message.
    #[test]
    fn calendar_queue_watermark_panics_match_model(
        warm in prop::collection::vec(0u64..5000, 1..20),
        t in 0u64..6000,
    ) {
        let mut q = EventQueue::new();
        for (i, &w) in warm.iter().enumerate() {
            q.push(SimTime::from_cycles(w), i);
        }
        // Pop half to advance the watermark.
        for _ in 0..warm.len().div_ceil(2) {
            q.pop();
        }
        let watermark = q.now().cycles();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.push(SimTime::from_cycles(t), usize::MAX);
        }));
        if t < watermark {
            let payload = result.expect_err("push into the past must panic");
            let msg = payload.downcast_ref::<String>().expect("panic message");
            prop_assert!(
                msg.contains("already advanced"),
                "unexpected panic message: {}", msg
            );
        } else {
            prop_assert!(result.is_ok(), "push at/after the watermark must not panic");
        }
    }
}
