//! The pending-event set: a time-ordered queue with deterministic
//! tie-breaking, sized to the calls the simulator makes.
//!
//! A `Vec` of `(time, seq, slot)` entries kept sorted **descending** by
//! `(time, seq)` — the next event to fire is the last element — over a
//! payload slab (`slots`, recycled through a free list). `pop` is
//! `Vec::pop`; `schedule` binary-searches on `time` alone (a new entry's
//! `seq` exceeds every pending one, so it goes below every entry with
//! `time <=` its own) and inserts, which is **O(n)** in the entries that
//! fire before it. That is the right trade for the n there is: an
//! injected run holds 21 pending events on average and 44 at most
//! (`docs/bench/PR-21.md`, "Event traffic, measured";
//! `cargo run --release --example event_census` for the fault-free run),
//! so an insert moves at most a kilobyte, which costs less than a binary
//! heap's cold sift between two handlers did. `seq` is the scheduling
//! counter: it breaks ties on `time` (same-instant events fire in
//! scheduling order, which keeps runs bit-for-bit reproducible) and,
//! never being reused, it is also what an [`EventHandle`] names.
//!
//! The **ready set** is every event of the earliest pending instant, and
//! ready event `i` (0 fires first) is `pending[len - 1 - i]`: a model
//! checker names a same-instant choice by that position, which costs no
//! lookup and no allocation. The queue keeps **no index** from handle to
//! position: `cancel` scans from the firing end for the `seq`, because
//! nothing on the event path calls it. Call sites in `ree-os`
//! (`git grep -n 'queue\.' crates/os/src/cluster.rs`):
//!
//! | operation                  | callers in `cluster.rs`                | reached by            |
//! |----------------------------|----------------------------------------|-----------------------|
//! | `schedule`                 | 8 (spawn, signal, timer, work, send …) | every event           |
//! | `pop`                      | 1 (`step`)                             | every event           |
//! | `peek_time`                | 3 (`run_until`, `…_pred`, `next_event_time`) | every event     |
//! | `ready_count`              | 1 (`ready_count`)                      | model checker, every explored event |
//! | `pop_ready`                | 2 (`step_ready`, `discard_ready`)      | model checker, at branch nodes |
//! | `peek_ready`               | 1 (`ready_label`)                      | model checker, under `plant`; `event_census` example |
//! | `iter_pending`             | 1 (`write_state_digest`)               | model checker         |
//! | `len`                      | 2 (`write_state_digest`, `pending_events`) | model checker, `event_census` example |
//! | `cancel`                   | 0                                      | nobody                |
//!
//! Timers are cancelled lazily: `ProcCtx::cancel_timer` drops the id from
//! its owner's live set and dispatch discards a fired timer that is not
//! live.

use crate::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide queue-identity counter: every queue, clones included,
/// gets a fresh identity. Only uniqueness matters, never the value, so
/// the allocation order of concurrent forks cannot perturb a run.
static NEXT_QUEUE_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_queue_id() -> u64 {
    NEXT_QUEUE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Handle to a scheduled event: the identity of the queue that minted
/// it plus the event's sequence number. Sequence numbers are never
/// reused, so a handle whose event fired (or was cancelled, or cleared)
/// matches nothing; a clone continues the original's sequence, so the
/// queue identity is what rejects a handle presented to another queue.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventHandle {
    queue: u64,
    seq: u64,
}

/// One pending entry: the ordering key plus the payload's slot. The key
/// lives here (not in the slab) so ordering never chases the slab.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    /// Scheduling order; ties on `time` fire in `seq` order.
    seq: u64,
    slot: u32,
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant fire in the order they were
/// scheduled. Removal by handle is physical, so `len` is exact.
///
/// # Examples
///
/// ```
/// use ree_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop().unwrap().2, "sooner");
/// ```
pub struct EventQueue<E> {
    /// This queue's identity; embedded in every handle it mints.
    id: u64,
    /// Payload slab; `None` marks a vacant slot (listed in `free`).
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    /// Sorted descending by `(time, seq)`: the last entry fires next.
    pending: Vec<Entry>,
    next_seq: u64,
}

/// Cloning a queue clones every pending event (warm-boot snapshot
/// forking) under a **fresh queue identity**: both sides continue the
/// same sequence, so a pre-fork handle would otherwise address an
/// unrelated event on the other side. Capacity is preserved: the
/// snapshot's vectors sit at their boot-time high-water mark and every
/// forked run schedules past the current length at once, so a
/// `len`-sized clone would re-grow on every run.
impl<E: Clone> Clone for EventQueue<E> {
    fn clone(&self) -> Self {
        fn presized<T: Clone>(v: &[T], capacity: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(capacity);
            out.extend_from_slice(v);
            out
        }
        EventQueue {
            id: fresh_queue_id(),
            slots: presized(&self.slots, self.slots.capacity()),
            free: presized(&self.free, self.free.capacity()),
            pending: presized(&self.pending, self.pending.capacity()),
            next_seq: self.next_seq,
        }
    }
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
            id: fresh_queue_id(),
            slots: Vec::new(),
            free: Vec::new(),
            pending: Vec::new(),
            next_seq: 0,
        }
    }

    /// Vacates `slot` and returns its payload.
    fn release(&mut self, slot: u32) -> E {
        let ev = self.slots[slot as usize].take().expect("occupied slot");
        self.free.push(slot);
        ev
    }

    /// The live entry `handle` names, or `None` if it is stale or foreign.
    /// A scan from the firing end: the module doc says why there is no index.
    fn position(&self, handle: EventHandle) -> Option<usize> {
        if handle.queue != self.id {
            return None;
        }
        self.pending.iter().rposition(|entry| entry.seq == handle.seq)
    }

    /// The entry of ready event `i`, or `None` past the ready set. The
    /// entries between it and the last are sorted, so one time compare
    /// decides.
    fn ready_position(&self, i: usize) -> Option<usize> {
        let pos = self.pending.len().checked_sub(i.checked_add(1)?)?;
        (self.pending[pos].time == self.pending.last()?.time).then_some(pos)
    }

    /// Schedules `event` to fire at `time`; returns a handle to it.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            u32::try_from(self.slots.len() - 1).expect("event queue slot overflow")
        });
        self.slots[slot as usize] = Some(event);
        // The newest `seq` fires after every pending entry of the same instant.
        let pos = self.pending.partition_point(|entry| entry.time > time);
        self.pending.insert(pos, Entry { time, seq, slot });
        EventHandle { queue: self.id, seq }
    }

    /// Cancels a scheduled event. Returns `true` only if it was still
    /// pending: a handle whose event fired or was cancelled, or one minted
    /// by a different queue (e.g. a clone's original), is a no-op `false`.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(pos) = self.position(handle) else { return false };
        let entry = self.pending.remove(pos);
        self.release(entry.slot);
        true
    }

    /// Removes and returns the earliest live event as `(time, handle, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventHandle, E)> {
        let entry = self.pending.pop()?;
        let handle = EventHandle { queue: self.id, seq: entry.seq };
        Some((entry.time, handle, self.release(entry.slot)))
    }

    /// Removes and returns ready event `i` as `(time, event)` — the
    /// choice-point primitive: a model checker fires one of several
    /// same-instant events instead of the `(time, seq)` minimum, which is
    /// `pop_ready(0)`. `None` for `i >= ready_count()`; the queue is
    /// untouched in that case.
    pub fn pop_ready(&mut self, i: usize) -> Option<(SimTime, E)> {
        let entry = self.pending.remove(self.ready_position(i)?);
        Some((entry.time, self.release(entry.slot)))
    }

    /// Borrows ready event `i`, or `None` for `i >= ready_count()`.
    pub fn peek_ready(&self, i: usize) -> Option<&E> {
        let pos = self.ready_position(i)?;
        self.slots[self.pending[pos].slot as usize].as_ref()
    }

    /// Time of the earliest live event without removing it — O(1), and
    /// borrows the queue immutably.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.last().map(|entry| entry.time)
    }

    /// How many events are scheduled for the earliest pending instant:
    /// the events [`EventQueue::pop`] could legally fire next under a
    /// relaxed same-instant ordering. Zero exactly when the queue is empty.
    pub fn ready_count(&self) -> usize {
        let Some(t) = self.peek_time() else { return 0 };
        self.pending.iter().rev().take_while(|e| e.time == t).count()
    }

    /// Iterates over every pending event as `(time, event)`, in
    /// `(time, seq)` firing order.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.pending.iter().rev().map(|entry| {
            let ev = self.slots[entry.slot as usize].as_ref().expect("occupied slot");
            (entry.time, ev)
        })
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.pending.len())
            .field("slots", &self.slots.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ties_survive_slot_reuse() {
        // Slot indices get recycled out of order; the (time, seq) key —
        // not the slot index — must decide simultaneous events.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        let h0 = q.schedule(t, 100);
        let h1 = q.schedule(t, 101);
        assert!(q.cancel(h1));
        assert!(q.cancel(h0));
        for i in 0..6 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().2, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_is_immutable_and_exact() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(5), "b");
        q.cancel(h);
        let q_ref: &EventQueue<&str> = &q;
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn interleaved_cancel_peek_pop_never_sees_cancelled() {
        // Deterministic pseudo-random interleaving of all four ops; the
        // popped stream must never contain a cancelled payload and peek
        // must always agree with the next pop.
        let mut q = EventQueue::new();
        let mut live: Vec<(EventHandle, u64)> = Vec::new();
        let mut cancelled: Vec<u64> = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next_id: u64 = 0;
        for step in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 4 {
                0 | 1 => {
                    let h = q.schedule(SimTime::from_micros(x % 1000), next_id);
                    live.push((h, next_id));
                    next_id += 1;
                }
                2 => {
                    if !live.is_empty() {
                        let (h, id) = live.swap_remove((x / 7) as usize % live.len());
                        assert!(q.cancel(h), "live handle must cancel (step {step})");
                        assert!(!q.cancel(h), "second cancel must fail");
                        cancelled.push(id);
                    }
                }
                _ => {
                    let peeked = q.peek_time();
                    match q.pop() {
                        Some((t, h, id)) => {
                            assert_eq!(peeked, Some(t), "peek/pop disagree (step {step})");
                            assert!(
                                !cancelled.contains(&id),
                                "cancelled event {id} surfaced (step {step})"
                            );
                            assert!(!q.cancel(h), "cancel after fire must fail");
                            live.retain(|(_, l)| *l != id);
                        }
                        None => {
                            assert_eq!(peeked, None);
                            assert!(live.is_empty());
                        }
                    }
                }
            }
            assert_eq!(q.len(), live.len(), "len drift at step {step}");
        }
    }

    #[test]
    fn cancel_after_fire_reports_false_and_keeps_len_honest() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_secs(1), "a");
        let h2 = q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().unwrap().2, "a");
        // The event already fired: cancel must be a truthful no-op.
        assert!(!q.cancel(h1), "cancel after fire must report false");
        assert_eq!(q.len(), 1, "len must not be decremented by a stale cancel");
        assert!(!q.is_empty());
        assert_eq!(q.pop().unwrap().2, "b");
        assert!(!q.cancel(h2), "cancel after fire must report false");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        // Nothing leaks: a fresh schedule still behaves normally.
        let h3 = q.schedule(SimTime::from_secs(3), "c");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(h3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn stale_handle_cannot_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().2, "a");
        // "b" reuses the freed slot; the stale handle must not kill it.
        q.schedule(SimTime::from_secs(2), "b");
        assert!(!q.cancel(h1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().2, "b");
    }

    #[test]
    fn cross_clone_handles_are_rejected() {
        // Regression: before handles carried a queue identity, a handle
        // minted by the original could address the *same slot index* in
        // a clone. Once both sides independently recycle that slot the
        // generations can re-align, and the foreign handle would cancel
        // an unrelated event.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "b");
        let mut q2 = q.clone();
        // Both queues now mint slot 1 with the same generation.
        let hc = q.schedule(SimTime::from_secs(2), "c");
        let hd = q2.schedule(SimTime::from_secs(2), "d");
        assert!(!q2.cancel(hc), "foreign handle must not cancel in the clone");
        assert_eq!(q2.len(), 2, "clone's own event must survive the foreign cancel");
        assert!(!q.cancel(hd), "foreign handle must not cancel in the original");
        assert!(q.cancel(hc), "handle stays valid against its minting queue");
        assert!(q2.cancel(hd), "handle stays valid against its minting queue");
        assert_eq!(q2.pop().unwrap().2, "b");
    }

    #[test]
    fn ready_positions_cover_the_earliest_instant_in_pop_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(SimTime::from_secs(5), 99);
        let h0 = q.schedule(t, 0);
        q.schedule(t, 1);
        q.schedule(t, 2);
        assert_eq!(q.ready_count(), 3);
        let ready = |q: &EventQueue<i32>| -> Vec<i32> {
            (0..q.ready_count()).map(|i| *q.peek_ready(i).unwrap()).collect()
        };
        assert_eq!(ready(&q), [0, 1, 2]);
        assert_eq!(q.peek_ready(3), None, "a later instant is not ready");
        // Cancelling the seq-minimum re-elects the next in seq order.
        assert!(q.cancel(h0));
        assert_eq!(ready(&q), [1, 2]);
        // pop_ready can fire a non-minimum ready event out of seq order.
        assert_eq!(q.pop_ready(1), Some((t, 2)));
        assert_eq!(ready(&q), [1]);
        assert_eq!(q.pop_ready(1), None, "past the ready set");
        assert_eq!(q.pop().unwrap().2, 1);
        assert_eq!(ready(&q), [99], "later instant becomes ready");
        assert_eq!(q.pop().unwrap().2, 99);
        assert_eq!(q.ready_count(), 0);
        assert_eq!(q.peek_ready(0), None);
        assert_eq!(q.pop_ready(0), None);
    }

    #[test]
    fn pop_ready_zero_matches_pop_and_leaves_the_queue_alone_past_the_ready_set() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.peek_ready(0), Some(&"a"));
        assert_eq!(q.pop_ready(1), None, "the 2 s event is not ready");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_ready(0), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.peek_ready(0), Some(&"b"));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().2, "b");
    }

    #[test]
    fn iter_pending_enumerates_all_live_events() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_secs(2), "dead");
        q.schedule(SimTime::from_secs(1), "x");
        q.schedule(SimTime::from_secs(3), "y");
        q.cancel(h);
        let seen: Vec<(SimTime, &str)> = q.iter_pending().map(|(t, e)| (t, *e)).collect();
        assert_eq!(seen, vec![(SimTime::from_secs(1), "x"), (SimTime::from_secs(3), "y")]);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(h);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }
}
