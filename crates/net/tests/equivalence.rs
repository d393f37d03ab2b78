//! The degenerate single-switch topology must reproduce the historical
//! flat interconnect model **byte-for-byte** — same delivery instants,
//! same partitions, same RNG draw order — for every traffic pattern the
//! flat model could express. This is the contract that lets every
//! pre-topology trace fixture pass un-rebaselined.
//!
//! The flat model is replicated inline below exactly as it existed
//! before the refactor: one transmit-occupancy frontier per sender, the
//! configured base latency on every packet, one jitter draw (when
//! jittery) per delivered packet, administrative
//! node/pair blocks, and network-wide contention windows inflating the
//! nominal transfer time.

use ree_net::{LinkParams, Network, NodeId, Topology};
use ree_sim::{SimDuration, SimRng, SimTime};
use std::collections::HashSet;

/// The flat model's parameters, as its configuration held them.
#[derive(Clone, Copy)]
struct FlatParams {
    base_latency: SimDuration,
    jitter: SimDuration,
    bandwidth_bytes_per_sec: u64,
    loopback_latency: SimDuration,
}

impl FlatParams {
    /// The REE testbed's 100 Mbps Ethernet.
    const ETHERNET: FlatParams = FlatParams {
        base_latency: SimDuration::from_micros(200),
        jitter: SimDuration::from_micros(150),
        bandwidth_bytes_per_sec: 12_500_000,
        loopback_latency: SimDuration::from_micros(30),
    };

    /// The single-switch topology these parameters describe. Its
    /// loopback is the topology builder's default, which the flat
    /// parameters must match.
    fn topology(self, nodes: u16) -> Topology {
        let uplink = LinkParams {
            latency: self.base_latency,
            jitter: self.jitter,
            bandwidth_bytes_per_sec: Some(self.bandwidth_bytes_per_sec),
        };
        let topology = Topology::single_switch(nodes, uplink);
        assert_eq!(topology.loopback_latency(), self.loopback_latency);
        topology
    }
}

/// The pre-topology flat model, replicated verbatim.
struct FlatModel {
    config: FlatParams,
    rng: SimRng,
    tx_busy_until: Vec<SimTime>,
    down_links: HashSet<(NodeId, NodeId)>,
    down_nodes: HashSet<NodeId>,
    load_windows: Vec<(SimTime, f64)>,
}

impl FlatModel {
    fn new(config: FlatParams, nodes: u16, rng: SimRng) -> Self {
        FlatModel {
            config,
            rng,
            tx_busy_until: vec![SimTime::ZERO; nodes as usize],
            down_links: HashSet::new(),
            down_nodes: HashSet::new(),
            load_windows: Vec::new(),
        }
    }

    fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        if self.down_nodes.contains(&a) || self.down_nodes.contains(&b) {
            return true;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        self.down_links.contains(&key)
    }

    fn set_link_down(&mut self, a: NodeId, b: NodeId, down: bool) {
        let key = if a <= b { (a, b) } else { (b, a) };
        if down {
            self.down_links.insert(key);
        } else {
            self.down_links.remove(&key);
        }
    }

    fn set_node_down(&mut self, node: NodeId, down: bool) {
        if down {
            self.down_nodes.insert(node);
        } else {
            self.down_nodes.remove(&node);
        }
    }

    fn inject_load(&mut self, now: SimTime, window: SimDuration, slowdown: f64) {
        self.load_windows.push((now + window, slowdown));
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

    fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, size_bytes: u64) -> Option<SimTime> {
        if from == to {
            return Some(now + self.config.loopback_latency);
        }
        if self.is_partitioned(from, to) {
            return None;
        }
        let wire = SimDuration::from_secs_f64(
            size_bytes as f64 / self.config.bandwidth_bytes_per_sec as f64,
        );
        let busy = &mut self.tx_busy_until[from.0 as usize];
        let start = if *busy > now { *busy } else { now };
        let done = start + wire;
        *busy = done;
        let arrival = done + self.config.base_latency;
        let jitter = if self.config.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            self.rng.uniform_duration(SimDuration::ZERO, self.config.jitter)
        };
        let contention = self.contention_penalty(now, wire + self.config.base_latency);
        Some(arrival + jitter + contention)
    }
}

/// Drives the flat replica and the degenerate topology through the same
/// seeded traffic (sends, blocks, node failures, load windows) and
/// demands identical delivery instants at every step.
fn drive_equivalence(config: FlatParams, seed: u64, steps: u32) {
    const NODES: u16 = 6;
    let mut flat = FlatModel::new(config, NODES, SimRng::new(seed));
    let mut topo = Network::new(config.topology(NODES), SimRng::new(seed));
    let mut traffic = SimRng::new(seed ^ 0xC0FFEE);
    let mut now = SimTime::ZERO;
    for step in 0..steps {
        now += SimDuration::from_micros(traffic.range_u64(0, 50_000));
        let a = NodeId(traffic.below(NODES as u64) as u16);
        let b = NodeId(traffic.below(NODES as u64) as u16);
        match traffic.below(10) {
            0 => {
                let down = traffic.chance(0.5);
                flat.set_link_down(a, b, down);
                topo.set_link_down(a, b, down);
            }
            1 => {
                let down = traffic.chance(0.4);
                flat.set_node_down(a, down);
                topo.set_node_down(a, down);
            }
            2 => {
                let window = SimDuration::from_micros(traffic.range_u64(1_000, 2_000_000));
                let slowdown = traffic.f64() * 3.0;
                flat.inject_load(now, window, slowdown);
                topo.inject_load(now, window, slowdown);
            }
            _ => {
                let size = traffic.range_u64(1, 2_000_000);
                let f = flat.send(now, a, b, size);
                let t = topo.send(now, a, b, size);
                assert_eq!(f, t, "step {step}: {a}->{b} size {size} at {now:?}");
            }
        }
    }
}

#[test]
fn the_testbed_uplink_is_the_flat_ethernet() {
    // Clusters without an explicit topology run over this uplink.
    let (uplink, flat) = (LinkParams::ethernet_100mbps(), FlatParams::ETHERNET);
    assert_eq!(uplink.latency, flat.base_latency);
    assert_eq!(uplink.jitter, flat.jitter);
    assert_eq!(uplink.bandwidth_bytes_per_sec, Some(flat.bandwidth_bytes_per_sec));
}

#[test]
fn degenerate_topology_matches_flat_model_quiet() {
    let quiet = FlatParams { jitter: SimDuration::ZERO, ..FlatParams::ETHERNET };
    for seed in 0..8 {
        drive_equivalence(quiet, seed, 400);
    }
}

#[test]
fn degenerate_topology_matches_flat_model_with_jitter() {
    // Jittery sends exercise RNG draw *order*: one jitter draw per
    // delivered packet, none for partitioned ones.
    for seed in 0..8 {
        drive_equivalence(FlatParams::ETHERNET, seed, 400);
    }
}
