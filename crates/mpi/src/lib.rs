//! # ree-mpi — miniature MPI substrate for the simulated REE cluster
//!
//! The paper's applications are MPI programs \[23\] run by MPICH-style
//! launch: "the MPI process with rank 0 — per the MPI implementation's
//! protocol — remotely launches the remaining MPI processes on the other
//! nodes" (Table 1 step 5). This crate provides the messaging half the
//! applications need:
//!
//! * tagged point-to-point sends between ranks ([`MpiEndpoint::send`]);
//! * buffered receives with explicit matching ([`MpiEndpoint::try_recv`])
//!   — applications are event-driven state machines, so a "blocking"
//!   receive is simply a state that waits until the matching message
//!   arrives (the tight coupling that propagates stalls between ranks,
//!   §5.2);
//! * the init-barrier bookkeeping rank 0 uses while gathering peer
//!   hellos, including the startup timeout whose expiry aborts the whole
//!   application (the Figure 8 correlated-failure mechanism).
//!
//! Process *launch* itself is ordinary [`ree_os`] spawning done by the
//! applications (rank 0 holds the factory in its launch descriptor).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use ree_os::{Message, Pid, ProcCtx};
use std::collections::VecDeque;

/// Payload of an MPI message.
#[derive(Clone, Debug, PartialEq)]
pub enum MpiPayload {
    /// A vector of doubles (feature vectors, image rows).
    F64s(Vec<f64>),
    /// Raw bytes (compressed products).
    Bytes(Vec<u8>),
    /// Small control strings (hellos, phase barriers).
    Text(String),
    /// Empty payload.
    Unit,
}

impl MpiPayload {
    /// Approximate serialized size in bytes (drives the network model).
    fn wire_size(&self) -> u64 {
        match self {
            MpiPayload::F64s(v) => 16 + 8 * v.len() as u64,
            MpiPayload::Bytes(b) => 16 + b.len() as u64,
            MpiPayload::Text(s) => 16 + s.len() as u64,
            MpiPayload::Unit => 16,
        }
    }

    /// Extracts doubles, if that is what this payload is.
    pub fn into_f64s(self) -> Option<Vec<f64>> {
        match self {
            MpiPayload::F64s(v) => Some(v),
            _ => None,
        }
    }
}

/// One tagged message between ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct MpiMsg {
    /// Sending rank.
    pub from_rank: u32,
    /// Application-defined tag.
    pub tag: u32,
    /// The data.
    pub payload: MpiPayload,
}

/// Per-process MPI state: peer pids, receive buffer, init bookkeeping.
#[derive(Debug, Clone)]
pub struct MpiEndpoint {
    rank: u32,
    peers: Vec<Option<Pid>>,
    inbox: VecDeque<MpiMsg>,
}

impl MpiEndpoint {
    /// Creates the endpoint for `rank` of `size`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= size` or `size == 0`.
    pub fn new(rank: u32, size: u32) -> Self {
        assert!(size > 0 && rank < size, "rank {rank} out of range for size {size}");
        MpiEndpoint { rank, peers: vec![None; size as usize], inbox: VecDeque::new() }
    }

    /// Registers a peer's pid (learned during launch).
    pub fn set_peer(&mut self, rank: u32, pid: Pid) {
        if let Some(slot) = self.peers.get_mut(rank as usize) {
            *slot = Some(pid);
        }
    }

    /// A peer's pid, if known.
    fn peer(&self, rank: u32) -> Option<Pid> {
        self.peers.get(rank as usize).copied().flatten()
    }

    /// Sends `payload` to `to_rank` with `tag`. Silently dropped if the
    /// peer is unknown or dead (MPI-level faults surface as stalls, which
    /// the SIFT hang detection owns).
    pub fn send(&mut self, os: &mut ProcCtx<'_>, to_rank: u32, tag: u32, payload: MpiPayload) {
        let Some(pid) = self.peer(to_rank) else {
            os.trace(format!("mpi: rank {} send to unknown rank {to_rank}", self.rank));
            return;
        };
        let size = payload.wire_size();
        os.send(pid, "mpi", size, MpiMsg { from_rank: self.rank, tag, payload });
    }

    /// Feeds an OS message; returns `true` if it was an MPI message (now
    /// buffered).
    pub fn on_message(&mut self, msg: &Message) -> bool {
        if msg.label != "mpi" {
            return false;
        }
        if let Some(m) = msg.peek::<MpiMsg>() {
            self.inbox.push_back(m.clone());
            true
        } else {
            false
        }
    }

    /// Removes and returns the first buffered message matching `from`
    /// (or any rank if `None`) and `tag`.
    pub fn try_recv(&mut self, from: Option<u32>, tag: u32) -> Option<MpiMsg> {
        let idx = self
            .inbox
            .iter()
            .position(|m| m.tag == tag && from.map(|f| f == m.from_rank).unwrap_or(true))?;
        self.inbox.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MpiPayload {
        /// Extracts bytes, if that is what this payload is.
        fn into_bytes(self) -> Option<Vec<u8>> {
            match self {
                MpiPayload::Bytes(b) => Some(b),
                _ => None,
            }
        }
    }

    impl MpiEndpoint {
        /// Number of buffered (unmatched) messages.
        fn backlog(&self) -> usize {
            self.inbox.len()
        }

        /// True once every peer rank is known (rank-0 init barrier).
        fn all_peers_known(&self) -> bool {
            let me = self.rank as usize;
            self.peers.iter().enumerate().all(|(r, p)| r == me || p.is_some())
        }
    }

    #[test]
    fn payload_sizes_scale() {
        assert!(MpiPayload::F64s(vec![0.0; 100]).wire_size() > MpiPayload::Unit.wire_size());
        assert_eq!(MpiPayload::Bytes(vec![0; 10]).wire_size(), 26);
        assert_eq!(MpiPayload::Text("abc".into()).wire_size(), 19);
    }

    #[test]
    fn endpoint_peer_bookkeeping() {
        let mut ep = MpiEndpoint::new(0, 3);
        assert!(!ep.all_peers_known());
        ep.set_peer(1, Pid(11));
        ep.set_peer(2, Pid(12));
        assert!(ep.all_peers_known());
        assert_eq!(ep.peer(1), Some(Pid(11)));
        assert_eq!(ep.peer(9), None);
    }

    #[test]
    fn recv_matches_tag_and_source() {
        let mut ep = MpiEndpoint::new(1, 2);
        ep.inbox.push_back(MpiMsg { from_rank: 0, tag: 7, payload: MpiPayload::Unit });
        ep.inbox.push_back(MpiMsg { from_rank: 0, tag: 8, payload: MpiPayload::Text("x".into()) });
        assert!(ep.try_recv(Some(0), 9).is_none());
        let m = ep.try_recv(Some(0), 8).unwrap();
        assert_eq!(m.payload, MpiPayload::Text("x".into()));
        assert_eq!(ep.backlog(), 1);
        // Any-source receive.
        assert!(ep.try_recv(None, 7).is_some());
        assert_eq!(ep.backlog(), 0);
    }

    /// A rank that sends to a rank it never learned, at start.
    #[derive(Clone)]
    struct LoneRank(MpiEndpoint);

    impl ree_os::Process for LoneRank {
        fn kind(&self) -> &'static str {
            "lone-rank"
        }
        fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
            self.0.send(ctx, 2, 7, MpiPayload::Unit);
        }
        fn on_message(&mut self, _msg: Message, _ctx: &mut ProcCtx<'_>) {}
    }

    #[test]
    fn send_to_an_unknown_rank_is_traced_and_dropped() {
        use ree_os::{Cluster, ClusterConfig, NodeId, SpawnSpec, TraceKind};
        let mut cluster = Cluster::new(ClusterConfig::ree_testbed(1));
        let rank = Box::new(LoneRank(MpiEndpoint::new(1, 3)));
        let pid = cluster.spawn(SpawnSpec::new("lone", NodeId(0), rank));
        while cluster.step().is_some() {}
        let r = cluster.trace().find("mpi:").expect("the drop is logged");
        assert_eq!((r.pid, r.kind), (Some(pid), TraceKind::App));
        assert_eq!(r.detail.to_string(), "mpi: rank 1 send to unknown rank 2");
    }

    #[test]
    fn payload_extractors() {
        assert_eq!(MpiPayload::F64s(vec![1.0]).into_f64s(), Some(vec![1.0]));
        assert_eq!(MpiPayload::Unit.into_f64s(), None);
        assert_eq!(MpiPayload::Bytes(vec![1]).into_bytes(), Some(vec![1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rank_panics() {
        let _ = MpiEndpoint::new(3, 3);
    }
}
