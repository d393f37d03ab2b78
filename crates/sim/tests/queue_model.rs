//! `EventQueue` against a reference model, in the shape of the traffic.
//!
//! The reference keeps pending events as a plain unordered
//! `Vec<(time, seq, id)>` and answers every question by `min`, filter and
//! sort, so it shares no ordering logic with the queue. The random test
//! drives every public operation — including a mid-stream `clone` whose
//! two sides are both driven on — and compares after every step; the two
//! deterministic tests replay the population a simulated run holds
//! (`cargo run --release --example event_census`) and one far above it.

use proptest::prelude::*;
use ree_sim::{EventHandle, EventQueue, SimTime};
use std::collections::HashSet;

fn micros(t: u64) -> SimTime {
    SimTime::from_micros(t)
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One queue and its reference.
struct Pair {
    q: EventQueue<u64>,
    /// Pending `(time, seq, id)`, in no particular order.
    model: Vec<(u64, u64, u64)>,
    /// Every handle this queue is known to have minted, with its seq;
    /// the handle is live exactly while the model holds that seq.
    minted: Vec<(EventHandle, u64)>,
    next_seq: u64,
    /// Time of the last fired event: what schedule offsets are relative to.
    now: u64,
    /// Keeps payload ids distinct across the sides of a clone.
    tag: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            q: EventQueue::new(),
            model: Vec::new(),
            minted: Vec::new(),
            next_seq: 0,
            now: 0,
            tag: 0,
        }
    }

    /// Clones queue and reference. Pending events and the seq counter
    /// carry over; the handle history does not (pre-clone handles belong
    /// to the original alone).
    fn fork(&self, tag: u64) -> Self {
        Pair {
            q: self.q.clone(),
            model: self.model.clone(),
            minted: Vec::new(),
            next_seq: self.next_seq,
            now: self.now,
            tag,
        }
    }

    fn entry(&self, seq: u64) -> Option<(u64, u64, u64)> {
        self.model.iter().copied().find(|e| e.1 == seq)
    }

    fn forget(&mut self, seq: u64) {
        self.model.retain(|e| e.1 != seq);
    }

    /// The model's earliest-instant entries in `seq` order.
    fn ready(&self) -> Vec<(u64, u64, u64)> {
        let Some(t) = self.model.iter().map(|e| e.0).min() else { return Vec::new() };
        let mut ready: Vec<_> = self.model.iter().copied().filter(|e| e.0 == t).collect();
        ready.sort_unstable_by_key(|e| e.1);
        ready
    }

    fn schedule(&mut self, time: u64) {
        let (seq, id) = (self.next_seq, self.tag << 32 | self.next_seq);
        self.next_seq += 1;
        let h = self.q.schedule(micros(time), id);
        self.model.push((time, seq, id));
        self.minted.push((h, seq));
    }

    fn pop(&mut self) {
        let want = self.model.iter().copied().min();
        let got = self.q.pop();
        assert_eq!(got.map(|(t, _, id)| (t, id)), want.map(|(t, _, id)| (micros(t), id)), "pop");
        if let (Some((_, h, _)), Some((t, seq, _))) = (got, want) {
            self.forget(seq);
            self.now = t;
            self.minted.push((h, seq));
            assert!(!self.q.cancel(h), "a fired event's handle is stale");
        }
    }

    /// `pop_ready` at a position picked from the ready set and the two
    /// past it, which must leave the queue as it was.
    fn pop_ready(&mut self, pick: usize) {
        let n = self.q.ready_count();
        let i = pick % (n + 2);
        if i >= n {
            assert_eq!(self.q.peek_ready(i), None, "peek_ready past the ready set");
            assert_eq!(self.q.pop_ready(i), None, "pop_ready past the ready set");
            return;
        }
        let (t, seq, id) = self.ready()[i];
        assert_eq!(self.q.peek_ready(i), Some(&id), "peek_ready");
        assert_eq!(self.q.pop_ready(i), Some((micros(t), id)), "pop_ready");
        if n > 1 {
            assert_eq!(self.q.pop_ready(n - 1), None, "the ready set shrank by one");
        }
        self.forget(seq);
        self.now = t;
    }

    /// Cancels the `pick`-th handle of `candidates`, live or stale.
    fn cancel(&mut self, candidates: &[(EventHandle, u64)], pick: usize) {
        if candidates.is_empty() {
            return;
        }
        let (h, seq) = candidates[pick % candidates.len()];
        let want = self.entry(seq);
        assert_eq!(self.q.cancel(h), want.is_some(), "cancel truthfulness");
        self.forget(seq);
    }

    /// Minted handles that are live but not of the earliest instant.
    fn non_ready(&self) -> Vec<(EventHandle, u64)> {
        let earliest = self.model.iter().map(|e| e.0).min();
        let later: HashSet<u64> =
            self.model.iter().filter(|e| Some(e.0) > earliest).map(|e| e.1).collect();
        self.minted.iter().copied().filter(|(_, seq)| later.contains(seq)).collect()
    }

    /// Every read-only answer agrees with the reference.
    fn check(&self) {
        assert_eq!(self.q.len(), self.model.len(), "len");
        assert_eq!(self.q.is_empty(), self.model.is_empty());
        let mut sorted = self.model.clone();
        sorted.sort_unstable();
        assert_eq!(self.q.peek_time(), sorted.first().map(|e| micros(e.0)), "peek_time");
        let pending: Vec<_> = self.q.iter_pending().map(|(t, id)| (t, *id)).collect();
        let firing_order: Vec<_> = sorted.iter().map(|e| (micros(e.0), e.2)).collect();
        assert_eq!(pending, firing_order, "iter_pending");
        let n = self.q.ready_count();
        let ready: Vec<_> = (0..=n).map(|i| self.q.peek_ready(i).copied()).collect();
        let want: Vec<_> = self.ready().iter().map(|e| Some(e.2)).chain([None]).collect();
        assert_eq!(ready, want, "peek_ready over the ready set and one past it");
    }

    /// A handle minted by another queue addresses nothing here.
    fn rejects(&mut self, foreign: EventHandle) {
        assert!(!self.q.cancel(foreign));
    }

    fn drain(&mut self) {
        while !self.model.is_empty() {
            self.pop();
        }
        assert!(self.q.pop().is_none());
        assert_eq!(self.q.ready_count(), 0);
    }
}

proptest! {
    /// Random interleavings of every operation on up to three queues
    /// related by `clone`, compared with the reference after every step.
    #[test]
    fn queue_matches_the_model_under_random_traffic(
        ops in proptest::collection::vec((0u8..16, 0u64..2_000, any::<u64>()), 1..400),
    ) {
        let mut pairs = vec![Pair::new()];
        for (op, dt, pick) in ops {
            let n = pairs.len();
            let target = (pick >> 32) as usize % n;
            let p = &mut pairs[target];
            let pick = pick as u32 as usize;
            match op {
                0..=2 => p.schedule(p.now + dt),
                3 => p.schedule(p.now),
                4 => p.schedule(p.now.saturating_sub(dt)),
                5 => {
                    // A burst at one instant, possibly one already populated.
                    let t = p.now + dt % 4 * 500;
                    for _ in 0..2 + pick % 4 {
                        p.schedule(t);
                    }
                }
                6..=8 => p.pop(),
                9 => p.pop_ready(pick),
                10 => p.cancel(&p.non_ready(), pick),
                11 => p.cancel(&p.minted.clone(), pick),
                13 if n < 3 => {
                    let fork = p.fork(n as u64);
                    pairs.push(fork);
                }
                _ => {}
            }
            for p in &pairs {
                p.check();
            }
            // Identity, not seq, is what a handle is checked against:
            // the other side of a clone mints the very same seqs.
            let other = (target + 1) % pairs.len();
            if other != target {
                if let Some(&(foreign, _)) = pairs[other].minted.get(pick % pairs[other].minted.len().max(1)) {
                    pairs[target].rejects(foreign);
                    pairs[target].check();
                }
            }
        }
        for p in &mut pairs {
            p.drain();
        }
    }
}

/// The measured mix: 21 to 44 events pending, each fired event scheduling
/// zero to two successors — two in three a 500 ms tick, one a 100 µs hop —
/// so successors of one handler, and ticks of one period, tie.
#[test]
fn measured_mix_holds_order_for_ten_thousand_steps() {
    const TICK: u64 = 500_000;
    const HOP: u64 = 100;
    let mut p = Pair::new();
    for i in 0..21 {
        p.schedule(i % 7 * HOP);
    }
    let mut x = 0x9E37_79B9_7F4A_7C15;
    let (mut low, mut high) = (usize::MAX, 0);
    for _ in 0..10_000 {
        x = xorshift(x);
        p.pop();
        let len = p.model.len() as u64;
        let successors = (x % 3).clamp(21u64.saturating_sub(len), 44 - len);
        for k in 0..successors {
            let dt = if (x >> (8 * (k + 1))) % 3 == 0 { HOP } else { TICK };
            p.schedule(p.now + dt);
        }
        p.check();
        low = low.min(p.model.len());
        high = high.max(p.model.len());
    }
    assert_eq!((low, high), (21, 44), "the walk covers the measured population");
    p.drain();
}

/// Order holds when insertion and removal are far from either end.
#[test]
fn order_holds_at_population_4096() {
    let mut p = Pair::new();
    let mut x = 0x2545_F491_4F6C_DD1D;
    for _ in 0..4096 {
        x = xorshift(x);
        p.schedule(x % 1024);
    }
    p.check();
    for step in 0..2048 {
        x = xorshift(x);
        let pick = (x >> 20) as usize;
        match x % 4 {
            0 => p.pop(),
            1 => p.cancel(&p.minted.clone(), pick),
            2 => p.cancel(&p.non_ready(), pick),
            _ => p.pop_ready(pick),
        }
        p.schedule(p.now + (x >> 8) % 1024);
        if step % 64 == 0 {
            p.check();
        }
    }
    p.check();
    p.drain();
}
