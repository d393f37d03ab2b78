//! # ree-net — simulated cluster interconnect
//!
//! Models the interconnect of the REE testbed (paper §2, Figure 2) as a
//! **topology** of nodes, switches, and directed links: per-link
//! latency/jitter/bandwidth, static shortest-path routing computed
//! at build time (`src/routing.rs`), store-and-forward serialisation on every
//! bandwidth-bearing hop (concurrent flows on a link queue behind each
//! other). Partitions are administrative blocks on endpoint nodes and
//! node pairs; load is a network-wide transient window. The paper
//! attributes the only actual-execution-time overhead
//! of FTM recovery to "network contention during the FTM's recovery,
//! which lasts for only 0.6–0.7 s" (§5.2); [`Network::inject_load`]
//! reproduces exactly that effect.
//!
//! The historical flat model survives as the degenerate case:
//! [`Topology::single_switch`] reproduces the flat model's delivery
//! times byte-for-byte (see `tests/equivalence.rs` and
//! `docs/NETWORK.md`).
//!
//! The crate is payload-agnostic: [`Network::send`] computes *when* a
//! packet arrives; the OS layer owns the event queue and the payload.
//!
//! ## Example
//!
//! ```
//! use ree_net::{LinkParams, Network, NodeId, Topology};
//! use ree_sim::{SimRng, SimTime};
//!
//! let topology = Topology::single_switch(4, LinkParams::ethernet_100mbps());
//! let mut net = Network::new(topology, SimRng::new(7));
//! let at = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 1500).expect("link is up");
//! assert!(at > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod link;
mod model;
mod routing;
mod topology;

pub use link::{LinkId, LinkParams};
pub use model::NodeId;
pub use topology::{LinkSpec, Port, SwitchId, Topology, TopologyBuilder, TopologyError};

use link::LinkState;
use ree_sim::{SimDuration, SimRng, SimTime, Sink};
use routing::RouteTable;
use std::collections::HashSet;
use std::sync::Arc;

/// The immutable half of a network, shared by all forks of a run.
#[derive(Debug)]
struct Statics {
    topology: Topology,
    routes: RouteTable,
}

/// The simulated interconnect.
///
/// Owns the mutable runtime state over an immutable [`Topology`]:
/// per-link transmit occupancy (so concurrent flows on a link serialise
/// behind each other), administrative endpoint blocks, and network-wide
/// transient load windows that model recovery-traffic contention.
#[derive(Debug, Clone)]
pub struct Network {
    statics: Arc<Statics>,
    rng: SimRng,
    link_state: Vec<LinkState>,
    down_links: HashSet<(NodeId, NodeId)>,
    down_nodes: HashSet<NodeId>,
    /// (ends_at, slowdown_factor) windows of extra contention.
    load_windows: Vec<(SimTime, f64)>,
    packets_sent: u64,
    bytes_sent: u64,
}

impl Network {
    /// Creates a network over `topology`; `rng` draws its jitter.
    pub fn new(topology: Topology, rng: SimRng) -> Self {
        let routes = RouteTable::build(&topology);
        let link_state = vec![LinkState { busy_until: SimTime::ZERO }; topology.links().len()];
        Network {
            statics: Arc::new(Statics { topology, routes }),
            rng,
            link_state,
            down_links: HashSet::new(),
            down_nodes: HashSet::new(),
            load_windows: Vec::new(),
            packets_sent: 0,
            bytes_sent: 0,
        }
    }

    /// The topology this network runs over.
    pub fn topology(&self) -> &Topology {
        &self.statics.topology
    }

    /// The static route between two nodes, if they are connected.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<&[LinkId]> {
        self.statics.routes.route(from, to)
    }

    /// Replaces the jitter random stream and zeroes the traffic
    /// counters (warm-boot forking: each forked run re-seeds the network
    /// stream so per-run draws are a function of the run seed, and
    /// per-run traffic stats must not include boot traffic — the cold
    /// path reseeds at the same instant, so warm ≡ cold is preserved).
    /// Link state and transmit occupancy are kept.
    pub fn reseed(&mut self, rng: SimRng) {
        self.rng = rng;
        self.packets_sent = 0;
        self.bytes_sent = 0;
    }

    /// Computes the delivery time of a `size_bytes` packet sent at `now`
    /// from `from` to `to`, or `None` if the pair is partitioned: an
    /// endpoint's links are administratively down, the pair is blocked,
    /// or there is no route. A packet that is not partitioned arrives.
    ///
    /// The packet store-and-forwards along the precomputed static route:
    /// on every bandwidth-bearing hop it queues behind that link's
    /// previous transmissions (shared-bandwidth serialisation), then
    /// crosses with the link's latency. One jitter draw covers the
    /// route's combined jitter bound, so RNG consumption is
    /// route-independent.
    pub fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        size_bytes: u64,
    ) -> Option<SimTime> {
        if from == to {
            // Loopback is node-local IPC: it never touches a link and is
            // never partitioned, even while the node's links are down.
            self.packets_sent += 1;
            self.bytes_sent += size_bytes;
            return Some(now + self.statics.topology.loopback_latency());
        }
        if self.is_partitioned(from, to) {
            return None;
        }
        let statics = Arc::clone(&self.statics);
        self.packets_sent += 1;
        self.bytes_sent += size_bytes;

        // Serialisation: store-and-forward across the route; concurrent
        // flows on a link queue behind each other.
        let route = statics.routes.route(from, to).expect("checked by is_partitioned");
        let mut arrival = now;
        let mut wire_total = SimDuration::ZERO;
        for l in route {
            let spec = &statics.topology.links()[l.0 as usize];
            if let Some(bw) = spec.params.bandwidth_bytes_per_sec {
                let state = &mut self.link_state[l.0 as usize];
                let wire = SimDuration::from_secs_f64(size_bytes as f64 / bw as f64);
                let start = if state.busy_until > arrival { state.busy_until } else { arrival };
                let done = start + wire;
                state.busy_until = done;
                wire_total += wire;
                arrival = done;
            }
            arrival += spec.params.latency;
        }

        let jitter_bound = statics.routes.jitter(from, to);
        let jitter = if jitter_bound.is_zero() {
            SimDuration::ZERO
        } else {
            self.rng.uniform_duration(SimDuration::ZERO, jitter_bound)
        };
        let contention =
            self.contention_penalty(now, wire_total + statics.routes.latency(from, to));
        Some(arrival + jitter + contention)
    }

    fn contention_penalty(&mut self, now: SimTime, nominal: SimDuration) -> SimDuration {
        self.load_windows.retain(|(end, _)| *end > now);
        let factor: f64 = self.load_windows.iter().map(|(_, f)| f).sum();
        if factor > 0.0 {
            nominal.mul_f64(factor.min(8.0))
        } else {
            SimDuration::ZERO
        }
    }

    /// Registers transient network-wide contention: for `window`, every
    /// packet's latency is inflated by `slowdown` × its nominal transfer
    /// time.
    ///
    /// Used to model recovery traffic (checkpoint restore, process-image
    /// copies) competing with application MPI messages.
    pub fn inject_load(&mut self, now: SimTime, window: SimDuration, slowdown: f64) {
        self.load_windows.push((now + window, slowdown));
    }

    /// Takes all of a node's incident links down (packets to/from it are
    /// partitioned; loopback is unaffected). Restoring the node brings
    /// back only this administrative block — pairs severed with
    /// [`Network::set_link_down`] stay severed.
    pub fn set_node_down(&mut self, node: NodeId, down: bool) {
        if down {
            self.down_nodes.insert(node);
        } else {
            self.down_nodes.remove(&node);
        }
    }

    /// Severs or restores the (bidirectional) path between two endpoint
    /// nodes, regardless of topology — the administrative pair block
    /// partition faults are built from.
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId, down: bool) {
        let key = if a <= b { (a, b) } else { (b, a) };
        if down {
            self.down_links.insert(key);
        } else {
            self.down_links.remove(&key);
        }
    }

    /// True if traffic between the two nodes cannot flow: an endpoint's
    /// links are administratively down, the pair is blocked, or there is
    /// no route. Loopback (`a == b`) is node-local and never partitioned.
    fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        if self.down_nodes.contains(&a) || self.down_nodes.contains(&b) {
            return true;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if self.down_links.contains(&key) {
            return true;
        }
        self.statics.routes.route(a, b).is_none()
    }

    /// Total packets accepted for delivery since the last reseed.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Total payload bytes accepted for delivery since the last reseed.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Packets lost since the last reseed: always 0, since a packet
    /// either arrives or is partitioned. Kept for the benchmark's
    /// `net.dropped_per_run` count.
    pub fn packets_dropped(&self) -> u64 {
        0
    }

    /// Writes every piece of mutable network state into `h`, in a
    /// canonical order (set-valued state is sorted first, so two
    /// networks that behave identically encode identically regardless of
    /// insertion history). Includes the jitter RNG position: two
    /// states that look alike but will draw different futures must not
    /// collide in a model checker's convergence-prune set. The immutable
    /// topology/route statics are excluded — all forks of one run share
    /// them by construction.
    pub fn write_state_digest<S: Sink + ?Sized>(&self, h: &mut S) {
        self.rng.state().iter().for_each(|&word| h.put_u64(word));
        for state in &self.link_state {
            h.put_u64(state.busy_until.as_micros());
        }
        let mut links: Vec<(NodeId, NodeId)> = self.down_links.iter().copied().collect();
        links.sort_unstable();
        h.put_u64(links.len() as u64);
        for (a, b) in links {
            h.put_u16(a.0);
            h.put_u16(b.0);
        }
        let mut nodes: Vec<NodeId> = self.down_nodes.iter().copied().collect();
        nodes.sort_unstable();
        h.put_u64(nodes.len() as u64);
        nodes.iter().for_each(|node| h.put_u16(node.0));
        h.put_u64(self.load_windows.len() as u64);
        for (end, slow) in &self.load_windows {
            h.put_u64(end.as_micros());
            h.put_u64(slow.to_bits());
        }
        h.put_u64(self.packets_sent);
        h.put_u64(self.bytes_sent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An 8-node single-switch network whose uplinks are `uplink`.
    fn flat(uplink: LinkParams, seed: u64) -> Network {
        Network::new(Topology::single_switch(8, uplink), SimRng::new(seed))
    }

    fn quiet_net() -> Network {
        flat(LinkParams { jitter: SimDuration::ZERO, ..LinkParams::ethernet_100mbps() }, 1)
    }

    #[test]
    fn delivery_includes_latency_and_serialisation() {
        let mut net = quiet_net();
        let t = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 12_500_000).unwrap();
        // 1 s of wire time + 200 us latency.
        assert_eq!(t, SimTime::from_micros(1_000_000 + 200));
    }

    #[test]
    fn senders_serialise_on_their_uplink() {
        let mut net = quiet_net();
        let first = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_250_000).unwrap();
        let second = net.send(SimTime::ZERO, NodeId(0), NodeId(2), 1_250_000).unwrap();
        assert!(second > first, "second packet queues behind the first");
        // Different source does not queue.
        let other = net.send(SimTime::ZERO, NodeId(3), NodeId(1), 1_250_000).unwrap();
        assert_eq!(other, first);
    }

    #[test]
    fn loopback_is_fast_and_never_partitioned() {
        let mut net = quiet_net();
        let t = net.send(SimTime::ZERO, NodeId(0), NodeId(0), 1_000_000).unwrap();
        assert_eq!(t, SimTime::from_micros(30));
        assert!(!net.is_partitioned(NodeId(0), NodeId(0)));
    }

    #[test]
    fn downed_node_is_never_partitioned_from_itself() {
        // Pinned semantics: loopback is node-local IPC, so taking a
        // node's links down must not cut the node off from itself.
        let mut net = quiet_net();
        net.set_node_down(NodeId(2), true);
        assert!(!net.is_partitioned(NodeId(2), NodeId(2)));
        let t = net.send(SimTime::ZERO, NodeId(2), NodeId(2), 64);
        assert_eq!(t, Some(SimTime::from_micros(30)));
        // Non-loopback traffic is still cut.
        assert!(net.is_partitioned(NodeId(2), NodeId(3)));
    }

    #[test]
    fn node_down_partitions_all_traffic() {
        let mut net = quiet_net();
        net.set_node_down(NodeId(1), true);
        assert_eq!(net.send(SimTime::ZERO, NodeId(0), NodeId(1), 100), None);
        assert_eq!(net.send(SimTime::ZERO, NodeId(1), NodeId(0), 100), None);
        net.set_node_down(NodeId(1), false);
        assert!(net.send(SimTime::ZERO, NodeId(0), NodeId(1), 100).is_some());
    }

    #[test]
    fn link_down_is_bidirectional_and_specific() {
        let mut net = quiet_net();
        net.set_link_down(NodeId(0), NodeId(1), true);
        assert!(net.is_partitioned(NodeId(0), NodeId(1)));
        assert!(net.is_partitioned(NodeId(1), NodeId(0)));
        assert!(!net.is_partitioned(NodeId(0), NodeId(2)));
        net.set_link_down(NodeId(1), NodeId(0), false);
        assert!(!net.is_partitioned(NodeId(0), NodeId(1)));
    }

    #[test]
    fn load_window_inflates_latency_then_expires() {
        let mut net = quiet_net();
        let nominal = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 125_000).unwrap();
        let mut net2 = quiet_net();
        net2.inject_load(SimTime::ZERO, SimDuration::from_secs(1), 2.0);
        let loaded = net2.send(SimTime::ZERO, NodeId(0), NodeId(1), 125_000).unwrap();
        assert!(loaded > nominal, "contention adds delay");
        // After the window expires the penalty disappears.
        let after = net2.send(SimTime::from_secs(2), NodeId(0), NodeId(1), 125_000).unwrap();
        assert_eq!(after - SimTime::from_secs(2), nominal - SimTime::ZERO);
    }

    #[test]
    fn counters_track_traffic() {
        let mut net = quiet_net();
        net.send(SimTime::ZERO, NodeId(0), NodeId(1), 100);
        net.send(SimTime::ZERO, NodeId(0), NodeId(1), 200);
        assert_eq!(net.packets_sent(), 2);
        assert_eq!(net.bytes_sent(), 300);
    }

    #[test]
    fn reseed_resets_counters_and_keeps_link_state() {
        // Regression: counters used to survive reseed, so per-run
        // traffic stats included boot traffic.
        let mut net = quiet_net();
        for _ in 0..50 {
            net.send(SimTime::ZERO, NodeId(0), NodeId(1), 1000);
        }
        net.set_link_down(NodeId(0), NodeId(3), true);
        assert_eq!(net.packets_sent(), 50);
        assert_eq!(net.bytes_sent(), 50_000);
        net.reseed(SimRng::new(99));
        assert_eq!(net.packets_sent(), 0);
        assert_eq!(net.bytes_sent(), 0);
        // Link state survives the reseed: the pair stays severed, and
        // the uplink is still busy with the 50 queued packets.
        assert!(net.is_partitioned(NodeId(0), NodeId(3)));
        let queued = net.send(SimTime::ZERO, NodeId(0), NodeId(2), 1000).unwrap();
        assert!(queued > SimTime::from_micros(50 * 80), "{queued:?}");
    }

    /// Two islands joined by a slow trunk: nodes 0–1 on switch A,
    /// nodes 2–3 on switch B.
    fn dumbbell() -> Topology {
        let mut b = Topology::builder(4);
        let sa = b.add_switch();
        let sb = b.add_switch();
        let uplink = LinkParams::wire(12_500_000, SimDuration::from_micros(100));
        for n in 0..2 {
            b.connect(Port::Node(NodeId(n)), Port::Switch(sa), uplink, LinkParams::instant());
        }
        for n in 2..4 {
            b.connect(Port::Node(NodeId(n)), Port::Switch(sb), uplink, LinkParams::instant());
        }
        b.connect_symmetric(
            Port::Switch(sa),
            Port::Switch(sb),
            LinkParams::wire(1_250_000, SimDuration::from_micros(500)),
        );
        b.build()
    }

    #[test]
    fn routes_cross_switches_and_accumulate_latency() {
        let mut net = Network::new(dumbbell(), SimRng::new(1));
        // Same island: one serialising uplink (100 µs latency).
        let local = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 12_500).unwrap();
        assert_eq!(local, SimTime::from_micros(1000 + 100));
        // Cross island (from the other node, whose uplink is idle):
        // uplink (1 ms wire) + trunk (10 ms wire at a tenth the
        // bandwidth) + 100 µs + 500 µs latency.
        let far = net.send(SimTime::ZERO, NodeId(1), NodeId(2), 12_500).unwrap();
        assert_eq!(far, SimTime::from_micros(1000 + 10_000 + 100 + 500));
    }

    #[test]
    fn trunk_bandwidth_is_shared_by_flows_from_different_nodes() {
        let mut net = Network::new(dumbbell(), SimRng::new(1));
        let first = net.send(SimTime::ZERO, NodeId(0), NodeId(2), 12_500).unwrap();
        // A different sender still queues behind the first flow on the
        // shared trunk — the generalisation of per-node tx_busy_until.
        let second = net.send(SimTime::ZERO, NodeId(1), NodeId(3), 12_500).unwrap();
        assert!(second > first, "trunk serialises concurrent flows");
        assert_eq!(second - first, SimDuration::from_micros(10_000));
    }
}
