//! Property-based tests for the simulation kernel's core invariants.

use proptest::prelude::*;
use ree_sim::{EventHandle, EventQueue, SimDuration, SimRng, SimTime};

proptest! {
    /// Popping the queue always yields non-decreasing times, regardless of
    /// the insertion order.
    #[test]
    fn queue_pops_monotonically(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Cancelled events never surface; everything else does, exactly once.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (i, q.schedule(SimTime::from_micros(*t), i)))
            .collect();
        let mut expected: std::collections::HashSet<usize> =
            (0..times.len()).collect();
        for (i, h) in &handles {
            if *cancel_mask.get(*i % cancel_mask.len()).unwrap_or(&false) {
                q.cancel(*h);
                expected.remove(i);
            }
        }
        let mut seen = std::collections::HashSet::new();
        while let Some((_, _, id)) = q.pop() {
            prop_assert!(seen.insert(id), "event {} delivered twice", id);
        }
        prop_assert_eq!(seen, expected);
    }

    /// Model-based check of the queue: a random
    /// schedule/cancel/pop/pop_ready interleaving behaves exactly like a
    /// sorted-vec reference model — identical pop order (including
    /// `(time, seq)` tie-breaks), identical `len`, identical `cancel`
    /// return values, and `peek_time` always equal to the model's head.
    #[test]
    fn queue_matches_sorted_vec_model(
        ops in proptest::collection::vec((0u8..10, 0u64..500, any::<u64>()), 1..300),
    ) {
        // Reference model: Vec of (time, seq, id) kept sorted; seq is the
        // global scheduling order.
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut handles: Vec<(EventHandle, u64)> = Vec::new(); // (handle, seq)
        let mut next_seq: u64 = 0;
        let mut next_id: u64 = 0;
        for (op, time, pick) in ops {
            match op {
                // Weight scheduling highest so interleavings stay deep.
                0..=4 => {
                    let h = q.schedule(SimTime::from_micros(time), next_id);
                    model.push((time, next_seq, next_id));
                    model.sort_unstable();
                    handles.push((h, next_seq));
                    next_seq += 1;
                    next_id += 1;
                }
                5 | 6 => {
                    // Cancel a handle (possibly already fired/cancelled).
                    if !handles.is_empty() {
                        let i = (pick as usize) % handles.len();
                        let (h, seq) = handles[i];
                        let in_model = model.iter().any(|(_, s, _)| *s == seq);
                        prop_assert_eq!(q.cancel(h), in_model, "cancel truthfulness");
                        model.retain(|(_, s, _)| *s != seq);
                    }
                }
                7 | 8 => {
                    let popped = q.pop();
                    match (popped, model.is_empty()) {
                        (Some((t, _, id)), false) => {
                            let (mt, _, mid) = model.remove(0);
                            prop_assert_eq!(t, SimTime::from_micros(mt), "pop time");
                            prop_assert_eq!(id, mid, "pop order");
                        }
                        (None, true) => {}
                        (got, _) => prop_assert!(false, "pop mismatch: {:?} vs model {:?}", got, model.first()),
                    }
                }
                _ => {
                    // Fire ready event `i`, or find nothing one past the
                    // ready set: the model's head entries of one instant.
                    let head = model.first().map(|(t, _, _)| *t);
                    let ready = model.iter().take_while(|(t, _, _)| Some(*t) == head).count();
                    let i = (pick as usize) % (ready + 1);
                    let want = (i < ready).then(|| model.remove(i));
                    let want = want.map(|(t, _, id)| (SimTime::from_micros(t), id));
                    prop_assert_eq!(q.pop_ready(i), want, "pop_ready");
                }
            }
            prop_assert_eq!(q.len(), model.len(), "len agrees with model");
            prop_assert_eq!(
                q.peek_time(),
                model.first().map(|(t, _, _)| SimTime::from_micros(*t)),
                "peek agrees with model head"
            );
        }
        // Drain: the tail must come out in exact model order.
        while let Some((t, _, id)) = q.pop() {
            let (mt, _, mid) = model.remove(0);
            prop_assert_eq!(t, SimTime::from_micros(mt));
            prop_assert_eq!(id, mid);
        }
        prop_assert!(model.is_empty());
    }

    /// Identical seeds produce identical streams across all helper
    /// distributions (replay determinism).
    #[test]
    fn rng_replay_determinism(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
            prop_assert_eq!(a.below(97), b.below(97));
            prop_assert!((a.f64() - b.f64()).abs() == 0.0);
            prop_assert_eq!(a.exp_duration(1.5), b.exp_duration(1.5));
        }
    }

    /// `below(n)` is always strictly less than `n`.
    #[test]
    fn below_upper_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..20 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Uniform durations stay inside their half-open interval.
    #[test]
    fn uniform_duration_in_range(seed in any::<u64>(), lo in 0u64..1000, width in 1u64..1000) {
        let mut rng = SimRng::new(seed);
        let lo_d = SimDuration::from_micros(lo);
        let hi_d = SimDuration::from_micros(lo + width);
        for _ in 0..20 {
            let d = rng.uniform_duration(lo_d, hi_d);
            prop_assert!(d >= lo_d && d < hi_d);
        }
    }

    /// Time arithmetic: (t + d) - t == d for all representable pairs.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur) - time, dur);
    }
}
