//! The process table: a generational slab indexed directly by [`Pid`].
//!
//! The simulation inner loop resolves a pid on every event dispatch, so
//! lookups must not hash. Entries live in a slab (`slots`, recycled via
//! a free list) and a dense `by_pid` vector maps pid serial → slot in
//! O(1). Pids are never reused (a documented property of the OS model:
//! stale references must be detectable), so the pid serial itself acts
//! as the slot generation — a freed slot's next occupant holds a higher
//! pid, and the `by_pid` entry for a dead pid is tombstoned, making
//! every stale lookup miss deterministically.
//!
//! Queries by node or by name ([`ProcTable::procs_on_node`],
//! [`ProcTable::find_by_name`], [`ProcTable::all_pids`]) walk `by_pid`
//! in ascending pid order: they run a handful of times per run, never
//! per event, and the walk gives sorted results and **lowest-pid-wins**
//! on duplicate names for free.

use crate::process::Pid;
use ree_net::NodeId;
use std::sync::Arc;

/// `by_pid` tombstone: pid not (or no longer) in the table.
const NONE: u32 = u32::MAX;

#[derive(Clone)]
struct Slot<T> {
    node: NodeId,
    name: Arc<str>,
    entry: T,
}

/// Generational-slab process table.
pub(crate) struct ProcTable<T> {
    slots: Vec<Option<Slot<T>>>,
    free: Vec<u32>,
    /// pid serial → slot index ([`NONE`] when dead/unknown).
    by_pid: Vec<u32>,
    next_pid: u64,
    len: usize,
}

/// Cloning clones every entry (warm-boot snapshot forking) while
/// preserving the slab vectors' capacity: the snapshot's table sits at
/// its boot-time high-water mark and forked runs spawn recovery
/// processes past the current length, so a `len`-sized clone would
/// re-grow on every run.
impl<T: Clone> Clone for ProcTable<T> {
    fn clone(&self) -> Self {
        fn presized<T: Clone>(v: &[T], capacity: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(capacity);
            out.extend_from_slice(v);
            out
        }
        ProcTable {
            slots: presized(&self.slots, self.slots.capacity()),
            free: presized(&self.free, self.free.capacity()),
            by_pid: presized(&self.by_pid, self.by_pid.capacity()),
            next_pid: self.next_pid,
            len: self.len,
        }
    }
}

impl<T> ProcTable<T> {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        ProcTable {
            slots: Vec::new(),
            free: Vec::new(),
            by_pid: vec![NONE], // Pid(0) is never issued.
            next_pid: 1,
            len: 0,
        }
    }

    /// Number of live processes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts a new process, assigning it the next pid serial.
    pub(crate) fn insert(&mut self, node: NodeId, name: Arc<str>, entry: T) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let slot_entry = Slot { node, name, entry };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(slot_entry);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("process table slot overflow");
                self.slots.push(Some(slot_entry));
                i
            }
        };
        debug_assert_eq!(self.by_pid.len() as u64, pid.0);
        self.by_pid.push(slot);
        self.len += 1;
        pid
    }

    #[inline]
    fn slot_of(&self, pid: Pid) -> Option<u32> {
        match self.by_pid.get(pid.0 as usize) {
            Some(&s) if s != NONE => Some(s),
            _ => None,
        }
    }

    /// True if the pid is live.
    pub(crate) fn contains(&self, pid: Pid) -> bool {
        self.slot_of(pid).is_some()
    }

    /// Immutable entry access — O(1), no hashing.
    #[inline]
    pub(crate) fn get(&self, pid: Pid) -> Option<&T> {
        let slot = self.slot_of(pid)?;
        Some(&self.slots[slot as usize].as_ref().expect("indexed slot occupied").entry)
    }

    /// Mutable entry access — O(1), no hashing.
    #[inline]
    pub(crate) fn get_mut(&mut self, pid: Pid) -> Option<&mut T> {
        let slot = self.slot_of(pid)?;
        Some(&mut self.slots[slot as usize].as_mut().expect("indexed slot occupied").entry)
    }

    /// Node a live pid runs on — O(1).
    pub(crate) fn node_of(&self, pid: Pid) -> Option<NodeId> {
        let slot = self.slot_of(pid)?;
        Some(self.slots[slot as usize].as_ref().expect("indexed slot occupied").node)
    }

    /// Interned instance name of a live pid — O(1).
    pub(crate) fn name_of(&self, pid: Pid) -> Option<&Arc<str>> {
        let slot = self.slot_of(pid)?;
        Some(&self.slots[slot as usize].as_ref().expect("indexed slot occupied").name)
    }

    /// Removes a process, returning `(node, name, entry)` — callers that
    /// need the identity after death (exit traces) take it from here so
    /// the entry type does not have to duplicate it.
    pub(crate) fn remove_full(&mut self, pid: Pid) -> Option<(NodeId, Arc<str>, T)> {
        let slot = self.slot_of(pid)?;
        self.by_pid[pid.0 as usize] = NONE;
        let Slot { node, name, entry } =
            self.slots[slot as usize].take().expect("indexed slot occupied");
        self.free.push(slot);
        self.len -= 1;
        Some((node, name, entry))
    }

    /// Live `(pid, slot)` pairs in ascending pid order.
    fn live(&self) -> impl Iterator<Item = (Pid, &Slot<T>)> {
        self.by_pid.iter().enumerate().filter(|(_, &slot)| slot != NONE).map(|(serial, &slot)| {
            (Pid(serial as u64), self.slots[slot as usize].as_ref().expect("indexed slot occupied"))
        })
    }

    /// Lowest live pid carrying `name` (deterministic under duplicate
    /// names; respawns always rank after survivors).
    pub(crate) fn find_by_name(&self, name: &str) -> Option<Pid> {
        self.live().find(|(_, slot)| &*slot.name == name).map(|(pid, _)| pid)
    }

    /// Live pids on `node`, ascending.
    pub(crate) fn procs_on_node(&self, node: NodeId) -> Vec<Pid> {
        self.live().filter(|(_, slot)| slot.node == node).map(|(pid, _)| pid).collect()
    }

    /// All live pids, ascending.
    pub(crate) fn all_pids(&self) -> Vec<Pid> {
        self.live().map(|(pid, _)| pid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ProcTable<&'static str> {
        ProcTable::new()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = table();
        let a = t.insert(NodeId(0), "a".into(), "A");
        let b = t.insert(NodeId(1), "b".into(), "B");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a), Some(&"A"));
        assert_eq!(t.get_mut(b), Some(&mut "B"));
        let (node, name, entry) = t.remove_full(a).expect("live entry removed");
        assert_eq!((node, &*name, entry), (NodeId(0), "a", "A"));
        assert_eq!(t.get(a), None);
        assert!(!t.contains(a));
        assert!(t.remove_full(a).is_none(), "double remove");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pids_never_reused_even_when_slots_are() {
        let mut t = table();
        let a = t.insert(NodeId(0), "a".into(), "A");
        t.remove_full(a);
        // Reuses a's slot but must not reuse its pid.
        let b = t.insert(NodeId(0), "b".into(), "B");
        assert!(b > a);
        assert_eq!(t.get(a), None, "stale pid must miss the recycled slot");
        assert_eq!(t.get(b), Some(&"B"));
    }

    #[test]
    fn find_by_name_is_lowest_pid_wins() {
        let mut t = table();
        let first = t.insert(NodeId(0), "ftm".into(), "first");
        let second = t.insert(NodeId(1), "ftm".into(), "second");
        assert_eq!(t.find_by_name("ftm"), Some(first), "duplicate names resolve to lowest pid");
        t.remove_full(first);
        assert_eq!(t.find_by_name("ftm"), Some(second));
        t.remove_full(second);
        assert_eq!(t.find_by_name("ftm"), None);
    }

    #[test]
    fn node_index_stays_sorted_through_churn() {
        let mut t = table();
        let a = t.insert(NodeId(0), "a".into(), "A");
        let b = t.insert(NodeId(0), "b".into(), "B");
        let c = t.insert(NodeId(1), "c".into(), "C");
        assert_eq!(t.procs_on_node(NodeId(0)), vec![a, b]);
        assert_eq!(t.procs_on_node(NodeId(1)), vec![c]);
        t.remove_full(a);
        let d = t.insert(NodeId(0), "d".into(), "D");
        assert_eq!(t.procs_on_node(NodeId(0)), vec![b, d]);
        assert_eq!(t.procs_on_node(NodeId(7)), Vec::<Pid>::new(), "unknown node is empty");
        assert_eq!(t.all_pids(), vec![b, c, d]);
    }
}
