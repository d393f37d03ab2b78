//! Property-based checks of the routing model over randomly generated
//! chain topologies (a line of switches, nodes hung off arbitrary
//! switches): delivery time is monotone in packet size, and reverse
//! routes mirror forward routes via link twins.

use proptest::prelude::*;
use ree_net::{LinkParams, Network, NodeId, Port, SwitchId, Topology};
use ree_sim::{SimDuration, SimRng, SimTime};

/// A line of `switches` switches with a serialising trunk between each
/// consecutive pair; node `n` hangs off switch `assign[n] % switches`.
/// Always connected.
fn chain_topology(assign: &[u16], switches: u16, trunk_latency_us: u64) -> Topology {
    let mut b = Topology::builder(assign.len() as u16);
    let sws: Vec<SwitchId> = (0..switches).map(|_| b.add_switch()).collect();
    let uplink = LinkParams::wire(12_500_000, SimDuration::from_micros(100));
    for (n, &s) in assign.iter().enumerate() {
        b.connect(
            Port::Node(NodeId(n as u16)),
            Port::Switch(sws[(s % switches) as usize]),
            uplink,
            LinkParams::instant(),
        );
    }
    let trunk = LinkParams::wire(1_250_000, SimDuration::from_micros(trunk_latency_us));
    for w in sws.windows(2) {
        b.connect_symmetric(Port::Switch(w[0]), Port::Switch(w[1]), trunk);
    }
    b.build()
}

proptest! {
    /// With zero jitter, a bigger packet never arrives before a smaller
    /// one sent from the same fresh network state: every hop's wire time
    /// is non-decreasing in size and latency is size-independent.
    #[test]
    fn delivery_time_is_monotone_in_size(
        assign in proptest::collection::vec(0u16..4, 2..8),
        switches in 1u16..4,
        trunk_latency_us in 1u64..2_000,
        from in 0u16..8, to in 0u16..8,
        small in 1u64..1_000_000,
        extra in 0u64..1_000_000,
    ) {
        let n = assign.len() as u16;
        let (from, to) = (NodeId(from % n), NodeId(to % n));
        let topology = chain_topology(&assign, switches, trunk_latency_us);
        let fresh = Network::new(topology, SimRng::new(1));
        let t_small = fresh.clone().send(SimTime::ZERO, from, to, small).delivery_time();
        let t_large = fresh.clone().send(SimTime::ZERO, from, to, small + extra).delivery_time();
        let (t_small, t_large) = (t_small.unwrap(), t_large.unwrap());
        prop_assert!(
            t_large >= t_small,
            "size {} delivered at {:?} but size {} at {:?}",
            small, t_small, small + extra, t_large,
        );
    }

    /// The reverse route of every connected pair walks the same vertices
    /// back through each link's twin, in reverse order.
    #[test]
    fn routes_are_symmetric_via_twins(
        assign in proptest::collection::vec(0u16..4, 2..8),
        switches in 1u16..4,
        trunk_latency_us in 1u64..2_000,
    ) {
        let topology = chain_topology(&assign, switches, trunk_latency_us);
        let net = Network::new(topology.clone(), SimRng::new(1));
        let n = assign.len() as u16;
        for a in 0..n {
            for b in (a + 1)..n {
                let forward = net.route(NodeId(a), NodeId(b))
                    .expect("chain topologies are connected");
                let backward = net.route(NodeId(b), NodeId(a))
                    .expect("reverse pair is connected too");
                let mirrored: Vec<_> = forward
                    .iter()
                    .rev()
                    .map(|l| topology.links()[l.0 as usize].peer)
                    .collect();
                prop_assert_eq!(
                    backward, &mirrored[..],
                    "route {}->{} is not the twin mirror of {}->{}", b, a, a, b,
                );
            }
        }
    }
}

/// A topology's parts rebuild it, and parts that name a node, switch or
/// peer link the topology does not have are a typed error — the decoder
/// that ships topologies between processes relies on both.
#[test]
fn from_parts_round_trips_and_rejects_out_of_range_links() {
    use ree_net::{LinkId, TopologyError};
    let t = chain_topology(&[0, 1, 1], 2, 50);
    let parts = |t: &Topology| (t.nodes(), t.switches(), t.loopback_latency(), t.links().to_vec());
    let (nodes, switches, loopback, links) = parts(&t);
    let back = Topology::from_parts(nodes, switches, loopback, links.clone()).expect("well-formed");
    assert_eq!(format!("{t:?}"), format!("{back:?}"));

    let rebuilt = |nodes, switches, links| Topology::from_parts(nodes, switches, loopback, links);
    assert_eq!(
        rebuilt(nodes - 1, switches, links.clone()).unwrap_err(),
        TopologyError::NodeOutOfRange(NodeId(nodes - 1))
    );
    assert_eq!(
        rebuilt(nodes, switches - 1, links.clone()).unwrap_err(),
        TopologyError::SwitchOutOfRange(SwitchId(switches - 1))
    );
    let mut dangling = links;
    let beyond = LinkId(dangling.len() as u32);
    dangling[0].peer = beyond;
    assert_eq!(
        rebuilt(nodes, switches, dangling).unwrap_err(),
        TopologyError::PeerOutOfRange(beyond)
    );
}
