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
//! The queue deliberately keeps **no index** from handle to position:
//! by-handle operations scan from the firing end for the `seq`, because
//! nothing on the event path calls them and every caller there is holds
//! a handle of the earliest instant. Call sites in `ree-os`
//! (`git grep -n 'queue\.' crates/os/src/cluster.rs`):
//!
//! | operation                  | callers in `cluster.rs`                | reached by            |
//! |----------------------------|----------------------------------------|-----------------------|
//! | `schedule`                 | 8 (spawn, signal, timer, work, send …) | every event           |
//! | `pop`                      | 3 (`step`, `run_until`, `…_pred`)      | every event           |
//! | `peek_time`                | 4                                      | every event           |
//! | `iter_pending`             | 1 (`write_state_digest`)               | model checker         |
//! | `ready_count`              | 1 (`step_choice_count`)                | model checker, every explored event |
//! | `ready_handles`            | 1 (`step_choices`)                     | model checker, at branch nodes (every event under `plant`) |
//! | `time_of`, `get`, `pop_at` | 4 (`step_with`, `event_label`, `discard_event`) | model checker, on handles fresh from `ready_handles` |
//! | `len`                      | 2 (`write_state_digest`, `pending_events`) | model checker, `event_census` example |
//! | `cancel`                   | 0                                      | nobody                |
//!
//! The explorer reads the ready-set size once per event it steps, so
//! that count allocates nothing; the handles themselves are collected
//! only where it branches (or, with the planted bug on, where it looks
//! for a wake-up to drop).
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

    fn handle(&self, entry: &Entry) -> EventHandle {
        EventHandle { queue: self.id, seq: entry.seq }
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
        self.pop_at(handle).is_some()
    }

    /// Removes and returns the earliest live event as `(time, handle, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventHandle, E)> {
        let entry = self.pending.pop()?;
        Some((entry.time, self.handle(&entry), self.release(entry.slot)))
    }

    /// Removes and returns a *specific* live event as `(time, event)` —
    /// the choice-point primitive: a model checker fires one of several
    /// same-instant events instead of the `(time, seq)` minimum. `None`
    /// for stale or foreign handles; the queue is untouched in that case.
    pub fn pop_at(&mut self, handle: EventHandle) -> Option<(SimTime, E)> {
        let entry = self.pending.remove(self.position(handle)?);
        Some((entry.time, self.release(entry.slot)))
    }

    /// Time of the earliest live event without removing it — O(1), and
    /// borrows the queue immutably.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.last().map(|entry| entry.time)
    }

    /// Scheduled time of a specific live event, or `None` for stale or
    /// foreign handles.
    pub fn time_of(&self, handle: EventHandle) -> Option<SimTime> {
        self.position(handle).map(|pos| self.pending[pos].time)
    }

    /// Borrows a specific live event, or `None` for stale/foreign handles.
    pub fn get(&self, handle: EventHandle) -> Option<&E> {
        let pos = self.position(handle)?;
        self.slots[self.pending[pos].slot as usize].as_ref()
    }

    /// Handles of every event scheduled for the earliest pending
    /// instant, in `(time, seq)` pop order — the events
    /// [`EventQueue::pop`] could legally fire next under a relaxed
    /// same-instant ordering. Empty exactly when the queue is.
    pub fn ready_handles(&self) -> Vec<EventHandle> {
        let Some(t) = self.peek_time() else { return Vec::new() };
        self.pending.iter().rev().take_while(|e| e.time == t).map(|e| self.handle(e)).collect()
    }

    /// `ready_handles().len()` without collecting the handles: how many
    /// events are scheduled for the earliest pending instant.
    pub fn ready_count(&self) -> usize {
        let Some(t) = self.peek_time() else { return 0 };
        self.pending.iter().rev().take_while(|e| e.time == t).count()
    }

    /// Iterates over every pending event as `(time, seq, event)`, in
    /// `(time, seq)` firing order; `seq` values mean something only
    /// relative to each other.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.pending.iter().rev().map(|entry| {
            let ev = self.slots[entry.slot as usize].as_ref().expect("occupied slot");
            (entry.time, entry.seq, ev)
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

    /// Drops every pending event (handles to them become stale).
    pub fn clear(&mut self) {
        while let Some(entry) = self.pending.pop() {
            self.release(entry.slot);
        }
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
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(!q.cancel(h), "handles go stale on clear");
        // The queue remains fully usable after clear.
        q.schedule(SimTime::from_secs(3), ());
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
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
        // Lookups are gated the same way as cancellation.
        let he = q.schedule(SimTime::from_secs(3), "e");
        assert!(q2.get(he).is_none());
        assert!(q2.time_of(he).is_none());
        assert!(q2.pop_at(he).is_none());
    }

    #[test]
    fn ready_handles_cover_the_earliest_instant_in_pop_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(SimTime::from_secs(5), 99);
        let h0 = q.schedule(t, 0);
        let h1 = q.schedule(t, 1);
        let h2 = q.schedule(t, 2);
        assert_eq!(q.ready_handles(), vec![h0, h1, h2]);
        assert_eq!(q.ready_count(), 3);
        // Cancelling the seq-minimum re-elects the next in seq order.
        assert!(q.cancel(h0));
        assert_eq!(q.ready_handles(), vec![h1, h2]);
        // pop_at can fire a non-minimum ready event out of seq order.
        assert_eq!(q.pop_at(h2), Some((t, 2)));
        assert_eq!(q.ready_handles(), vec![h1]);
        assert_eq!(q.pop().unwrap().2, 1);
        assert_eq!(q.ready_handles().len(), 1, "later instant becomes ready");
        assert_eq!(q.ready_count(), 1);
        assert_eq!(q.pop().unwrap().2, 99);
        assert!(q.ready_handles().is_empty());
        assert_eq!(q.ready_count(), 0);
    }

    #[test]
    fn pop_at_matches_pop_for_the_minimum_and_rejects_stale() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.get(h), Some(&"a"));
        assert_eq!(q.time_of(h), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop_at(h), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop_at(h), None, "second pop_at of same handle fails");
        assert!(q.get(h).is_none());
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
        let mut seen: Vec<(SimTime, u64, &str)> =
            q.iter_pending().map(|(t, s, e)| (t, s, *e)).collect();
        seen.sort_unstable_by_key(|&(t, s, _)| (t, s));
        assert_eq!(seen, vec![(SimTime::from_secs(1), 1, "x"), (SimTime::from_secs(3), 2, "y")]);
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
