//! Core interconnect vocabulary: node identity and the verdict a send
//! produces.

use ree_sim::SimTime;

/// Identifies a node (board/processor) in the simulated cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u16);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Outcome of handing a packet to the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendVerdict {
    /// The packet will arrive at the destination at the given instant.
    Delivered(SimTime),
    /// The packet was lost (random drop).
    Dropped,
    /// No usable route: endpoints partitioned, a link on the static
    /// route is down, or an endpoint's links are administratively down.
    Partitioned,
}

impl SendVerdict {
    /// The delivery instant, if the packet will arrive.
    pub fn delivery_time(self) -> Option<SimTime> {
        match self {
            SendVerdict::Delivered(t) => Some(t),
            _ => None,
        }
    }
}
