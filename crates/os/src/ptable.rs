//! The process table: one slot per pid ever issued, indexed directly by
//! [`Pid`].
//!
//! The simulation inner loop resolves a pid on every event dispatch, so
//! lookups must not hash. Slot `i` is `Pid(i + 1)`: it holds the live
//! process until the pid exits, then its exit record. Pids are never
//! reused (a documented property of the OS model: stale references must
//! be detectable), so a stale pid finds its own exit record, never
//! another process.
//!
//! Queries by node or by name walk [`ProcTable::live`] in ascending pid
//! order: they run a handful of times per run, never per event, and the
//! walk gives sorted results and **lowest-pid-wins** on duplicate names
//! for free.

use crate::process::{ExitStatus, Pid};
use ree_net::NodeId;
use ree_sim::SimTime;
use std::sync::Arc;

/// What one pid's slot holds.
#[derive(Clone)]
pub(crate) enum Slot<T> {
    /// The process is alive.
    Live { node: NodeId, name: Arc<str>, entry: T },
    /// The process exited at that instant with that status.
    Exited((SimTime, ExitStatus)),
}

/// One slot per pid issued.
pub(crate) struct ProcTable<T> {
    slots: Vec<Slot<T>>,
}

/// Cloning clones every slot (warm-boot snapshot forking) while
/// preserving the vector's capacity: the snapshot's table sits at its
/// boot-time length and forked runs spawn recovery processes past it, so
/// a `len`-sized clone would re-grow on every run.
impl<T: Clone> Clone for ProcTable<T> {
    fn clone(&self) -> Self {
        let mut slots = Vec::with_capacity(self.slots.capacity());
        slots.extend_from_slice(&self.slots);
        ProcTable { slots }
    }
}

impl<T> ProcTable<T> {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        ProcTable { slots: Vec::new() }
    }

    /// Inserts a new process under the next pid.
    pub(crate) fn insert(&mut self, node: NodeId, name: Arc<str>, entry: T) -> Pid {
        self.slots.push(Slot::Live { node, name, entry });
        Pid(self.slots.len() as u64)
    }

    /// The slot of `pid`, or `None` if it was never issued.
    #[inline]
    pub(crate) fn slot(&self, pid: Pid) -> Option<&Slot<T>> {
        self.slots.get(index(pid))
    }

    /// The entry of a live pid — O(1), no hashing.
    #[inline]
    pub(crate) fn get(&self, pid: Pid) -> Option<&T> {
        match self.slot(pid)? {
            Slot::Live { entry, .. } => Some(entry),
            Slot::Exited(_) => None,
        }
    }

    /// Mutable entry of a live pid — O(1), no hashing.
    #[inline]
    pub(crate) fn get_mut(&mut self, pid: Pid) -> Option<&mut T> {
        match self.slots.get_mut(index(pid))? {
            Slot::Live { entry, .. } => Some(entry),
            Slot::Exited(_) => None,
        }
    }

    /// Replaces a live pid's process by its exit `record`, returning the
    /// process's name and entry; `None` (and the first record kept) if
    /// the pid is not live.
    pub(crate) fn exit(
        &mut self,
        pid: Pid,
        record: (SimTime, ExitStatus),
    ) -> Option<(Arc<str>, T)> {
        let slot = self.slots.get_mut(index(pid))?;
        match std::mem::replace(slot, Slot::Exited(record)) {
            Slot::Live { name, entry, .. } => Some((name, entry)),
            exited => {
                *slot = exited;
                None
            }
        }
    }

    /// Every slot, in ascending pid order.
    pub(crate) fn slots(&self) -> impl ExactSizeIterator<Item = (Pid, &Slot<T>)> {
        self.slots.iter().enumerate().map(|(i, slot)| (Pid(i as u64 + 1), slot))
    }

    /// Live `(pid, node, name)`, in ascending pid order.
    pub(crate) fn live(&self) -> impl Iterator<Item = (Pid, NodeId, &str)> {
        self.slots().filter_map(|(pid, slot)| match slot {
            Slot::Live { node, name, .. } => Some((pid, *node, &**name)),
            Slot::Exited(_) => None,
        })
    }
}

/// Slot index of `pid`; `Pid(0)`, never issued, maps past every slot.
#[inline]
fn index(pid: Pid) -> usize {
    (pid.0 as usize).wrapping_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Signal;

    fn table() -> ProcTable<&'static str> {
        ProcTable::new()
    }

    fn killed(secs: u64) -> (SimTime, ExitStatus) {
        (SimTime::from_secs(secs), ExitStatus::Killed(Signal::Kill))
    }

    fn exit_record(t: &ProcTable<&'static str>, pid: Pid) -> Option<(SimTime, ExitStatus)> {
        match t.slot(pid)? {
            Slot::Exited(record) => Some(record.clone()),
            Slot::Live { .. } => None,
        }
    }

    fn find_by_name(t: &ProcTable<&'static str>, name: &str) -> Option<Pid> {
        t.live().find(|(_, _, n)| *n == name).map(|(pid, ..)| pid)
    }

    fn on_node(t: &ProcTable<&'static str>, node: NodeId) -> Vec<Pid> {
        t.live().filter(|(_, n, ..)| *n == node).map(|(pid, ..)| pid).collect()
    }

    #[test]
    fn insert_get_exit_roundtrip() {
        let mut t = table();
        let a = t.insert(NodeId(0), "a".into(), "A");
        let b = t.insert(NodeId(1), "b".into(), "B");
        assert_eq!(t.live().count(), 2);
        assert_eq!(t.get(a), Some(&"A"));
        assert_eq!(t.get_mut(b), Some(&mut "B"));
        let (name, entry) = t.exit(a, killed(1)).expect("live entry exits");
        assert_eq!((&*name, entry), ("a", "A"));
        assert_eq!(t.get(a), None);
        assert_eq!(t.get_mut(a), None);
        assert!(t.exit(a, killed(2)).is_none(), "double exit");
        assert_eq!(exit_record(&t, a), Some(killed(1)), "a double exit keeps the first record");
        assert_eq!(t.live().count(), 1);
        assert!(t.slot(Pid(0)).is_none() && t.slot(Pid(3)).is_none(), "never issued");
    }

    #[test]
    fn a_stale_pid_finds_its_exit_record_not_a_new_process() {
        let mut t = table();
        let a = t.insert(NodeId(0), "a".into(), "A");
        t.exit(a, killed(1));
        let b = t.insert(NodeId(0), "b".into(), "B");
        assert!(b > a);
        assert_eq!(t.get(a), None, "stale pid must miss the newer process");
        assert_eq!(exit_record(&t, a), Some(killed(1)));
        assert_eq!(t.get(b), Some(&"B"));
    }

    #[test]
    fn find_by_name_is_lowest_pid_wins() {
        let mut t = table();
        let first = t.insert(NodeId(0), "ftm".into(), "first");
        let second = t.insert(NodeId(1), "ftm".into(), "second");
        assert_eq!(find_by_name(&t, "ftm"), Some(first), "duplicate names resolve to lowest pid");
        t.exit(first, killed(1));
        assert_eq!(find_by_name(&t, "ftm"), Some(second));
        t.exit(second, killed(1));
        assert_eq!(find_by_name(&t, "ftm"), None);
    }

    #[test]
    fn node_index_stays_sorted_through_churn() {
        let mut t = table();
        let a = t.insert(NodeId(0), "a".into(), "A");
        let b = t.insert(NodeId(0), "b".into(), "B");
        let c = t.insert(NodeId(1), "c".into(), "C");
        assert_eq!(on_node(&t, NodeId(0)), vec![a, b]);
        assert_eq!(on_node(&t, NodeId(1)), vec![c]);
        t.exit(a, killed(1));
        let d = t.insert(NodeId(0), "d".into(), "D");
        assert_eq!(on_node(&t, NodeId(0)), vec![b, d]);
        assert_eq!(on_node(&t, NodeId(7)), Vec::<Pid>::new(), "unknown node is empty");
        assert_eq!(t.live().map(|(pid, ..)| pid).collect::<Vec<_>>(), vec![b, c, d]);
        assert_eq!(t.slots().map(|(pid, _)| pid).collect::<Vec<_>>(), vec![a, b, c, d]);
    }
}
