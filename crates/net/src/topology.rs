//! Interconnect topology: nodes, switches, and the directed links
//! between them.
//!
//! A [`Topology`] is immutable once built; the mutable per-link state
//! (transmit occupancy) lives in [`crate::Network`]. Links
//! are always created in twin pairs — one per direction — so routes can
//! be mirrored exactly ([`LinkSpec::peer`]).

use crate::link::{LinkId, LinkParams};
use crate::model::NodeId;
use ree_sim::SimDuration;

/// Identifies a switch (non-endpoint forwarding element) in a topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SwitchId(pub u16);

impl std::fmt::Display for SwitchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "switch{}", self.0)
    }
}

/// An attachment point of a link: a node port or a switch port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Port {
    /// An endpoint node.
    Node(NodeId),
    /// A forwarding switch.
    Switch(SwitchId),
}

/// One directed link of the topology.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// Transmitting side.
    pub from: Port,
    /// Receiving side.
    pub to: Port,
    /// Static link parameters.
    pub params: LinkParams,
    /// The twin link carrying the reverse direction.
    pub peer: LinkId,
}

/// Why a set of parts does not form a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// A link end names a node the topology does not have.
    NodeOutOfRange(NodeId),
    /// A link end names a switch the topology does not have.
    SwitchOutOfRange(SwitchId),
    /// A link's twin is not one of the topology's links.
    PeerOutOfRange(LinkId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NodeOutOfRange(n) => write!(f, "{n} out of range"),
            TopologyError::SwitchOutOfRange(s) => write!(f, "{s} out of range"),
            TopologyError::PeerOutOfRange(l) => write!(f, "peer link {} out of range", l.0),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An immutable interconnect graph of nodes, switches, and directed
/// links, plus the loopback latency for node-local sends.
#[derive(Clone, Debug)]
pub struct Topology {
    nodes: u16,
    switches: u16,
    loopback_latency: SimDuration,
    links: Vec<LinkSpec>,
}

impl Topology {
    /// Starts building a topology over `nodes` endpoint nodes, with a
    /// 30 µs node-local loopback latency.
    pub fn builder(nodes: u16) -> TopologyBuilder {
        TopologyBuilder {
            topology: Topology {
                nodes,
                switches: 0,
                loopback_latency: SimDuration::from_micros(30),
                links: Vec::new(),
            },
        }
    }

    /// The flat interconnect: every node hangs off a single ideal switch.
    /// The uplink (node → switch) carries `uplink`'s bandwidth, latency,
    /// jitter, and loss; the downlink (switch → node) forwards instantly.
    /// A node-to-node send therefore costs exactly one serialisation on
    /// the sender's uplink plus the uplink latency — byte-for-byte the
    /// historical flat model.
    pub fn single_switch(nodes: u16, uplink: LinkParams) -> Topology {
        let mut b = Topology::builder(nodes);
        let sw = b.add_switch();
        for n in 0..nodes {
            b.connect(Port::Node(NodeId(n)), Port::Switch(sw), uplink, LinkParams::instant());
        }
        b.build()
    }

    /// Reassembles a topology from its constituent parts — the inverse
    /// of reading it back through [`Topology::nodes`],
    /// [`Topology::switches`], [`Topology::loopback_latency`], and
    /// [`Topology::links`]. Intended for decoders that ship a topology
    /// across a process boundary, so it rejects (rather than panics on)
    /// any link that references a node, switch, or peer link out of
    /// range. `links` must already be twin-paired the way
    /// [`TopologyBuilder::connect`] lays them out.
    pub fn from_parts(
        nodes: u16,
        switches: u16,
        loopback_latency: SimDuration,
        links: Vec<LinkSpec>,
    ) -> Result<Topology, TopologyError> {
        let topology = Topology { nodes, switches, loopback_latency, links };
        for link in &topology.links {
            topology.check(link.from)?;
            topology.check(link.to)?;
            if link.peer.0 as usize >= topology.links.len() {
                return Err(TopologyError::PeerOutOfRange(link.peer));
            }
        }
        Ok(topology)
    }

    fn check(&self, port: Port) -> Result<(), TopologyError> {
        match port {
            Port::Node(n) if n.0 >= self.nodes => Err(TopologyError::NodeOutOfRange(n)),
            Port::Switch(s) if s.0 >= self.switches => Err(TopologyError::SwitchOutOfRange(s)),
            _ => Ok(()),
        }
    }

    /// Number of endpoint nodes.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// Number of switches.
    pub fn switches(&self) -> u16 {
        self.switches
    }

    /// Latency for a node's sends to itself.
    pub fn loopback_latency(&self) -> SimDuration {
        self.loopback_latency
    }

    /// All directed links, indexed by [`LinkId`].
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Total vertex count (nodes then switches) for routing.
    pub(crate) fn vertices(&self) -> usize {
        self.nodes as usize + self.switches as usize
    }

    /// Dense vertex index of a port (nodes first, then switches).
    pub(crate) fn vertex(&self, port: Port) -> usize {
        match port {
            Port::Node(NodeId(n)) => n as usize,
            Port::Switch(SwitchId(s)) => self.nodes as usize + s as usize,
        }
    }
}

/// Incrementally assembles a [`Topology`].
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    topology: Topology,
}

impl TopologyBuilder {
    /// Adds a switch and returns its id.
    pub fn add_switch(&mut self) -> SwitchId {
        let id = SwitchId(self.topology.switches);
        self.topology.switches += 1;
        id
    }

    /// Connects two ports with a twin pair of directed links: `forward`
    /// parameterises `a → b`, `backward` parameterises `b → a`.
    ///
    /// # Panics
    ///
    /// Panics if either port references a node or switch out of range.
    pub fn connect(&mut self, a: Port, b: Port, forward: LinkParams, backward: LinkParams) {
        self.check(a);
        self.check(b);
        let fwd = LinkId(self.topology.links.len() as u32);
        let bwd = LinkId(fwd.0 + 1);
        self.topology.links.push(LinkSpec { from: a, to: b, params: forward, peer: bwd });
        self.topology.links.push(LinkSpec { from: b, to: a, params: backward, peer: fwd });
    }

    /// Connects two ports symmetrically (same parameters both ways).
    pub fn connect_symmetric(&mut self, a: Port, b: Port, params: LinkParams) {
        self.connect(a, b, params, params);
    }

    fn check(&self, port: Port) {
        if let Err(e) = self.topology.check(port) {
            panic!("{e}");
        }
    }

    /// Finalises the topology.
    pub fn build(self) -> Topology {
        self.topology
    }
}
