//! Static shortest-path routing, computed once at network construction.
//!
//! Routes are precomputed per ordered node pair into a flattened arena,
//! so the send path does one table lookup (O(1)) and walks the route's
//! few links — no per-send graph search. Routing is *static*: a send
//! whose route crosses a downed link is partitioned rather than
//! rerouted (spacecraft buses do not converge around failures within a
//! packet's lifetime).
//!
//! Symmetry is guaranteed by construction: the path for `a → b` (`a <
//! b`) comes from a deterministic Dijkstra over link latency (ties
//! broken by hop count, then first-found in link-index order), and the
//! reverse pair reuses the same vertices via each link's twin.

use crate::link::LinkId;
use crate::model::NodeId;
use crate::topology::Topology;
use ree_sim::SimDuration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-pair precomputed route metadata.
#[derive(Clone, Debug, Default)]
struct PairInfo {
    offset: u32,
    len: u16,
    latency: SimDuration,
    jitter: SimDuration,
}

/// Precomputed next-hop tables for every node pair.
#[derive(Clone, Debug)]
pub(crate) struct RouteTable {
    nodes: usize,
    arena: Vec<LinkId>,
    pairs: Vec<PairInfo>,
}

impl RouteTable {
    pub(crate) fn build(topology: &Topology) -> RouteTable {
        let n = topology.nodes() as usize;
        let vertices = topology.vertices();
        // Adjacency: outgoing link ids per vertex, in link-index order.
        let mut adj: Vec<Vec<LinkId>> = vec![Vec::new(); vertices];
        for (i, link) in topology.links().iter().enumerate() {
            adj[topology.vertex(link.from)].push(LinkId(i as u32));
        }

        let mut table =
            RouteTable { nodes: n, arena: Vec::new(), pairs: vec![PairInfo::default(); n * n] };
        for a in 0..n {
            let (dist, prev) = dijkstra(topology, &adj, a);
            for (b, d) in dist.iter().enumerate().take(n).skip(a + 1) {
                if d.is_none() {
                    continue; // unreachable: len stays 0
                }
                // Reconstruct a → b from the prev-link chain.
                let mut forward = Vec::new();
                let mut v = b;
                while v != a {
                    let l = prev[v].expect("reachable vertex has a prev link");
                    forward.push(l);
                    v = topology.vertex(topology.links()[l.0 as usize].from);
                }
                forward.reverse();
                // The reverse pair mirrors the same vertices via twins.
                let backward: Vec<LinkId> =
                    forward.iter().rev().map(|l| topology.links()[l.0 as usize].peer).collect();
                table.insert(topology, a, b, forward);
                table.insert(topology, b, a, backward);
            }
        }
        table
    }

    fn insert(&mut self, topology: &Topology, from: usize, to: usize, route: Vec<LinkId>) {
        let offset = self.arena.len() as u32;
        let len = route.len() as u16;
        let mut latency = SimDuration::ZERO;
        let mut jitter = SimDuration::ZERO;
        for l in &route {
            let params = &topology.links()[l.0 as usize].params;
            latency += params.latency;
            jitter += params.jitter;
        }
        self.arena.extend(route);
        self.pairs[from * self.nodes + to] = PairInfo { offset, len, latency, jitter };
    }

    fn pair(&self, from: NodeId, to: NodeId) -> Option<&PairInfo> {
        let (f, t) = (from.0 as usize, to.0 as usize);
        if f >= self.nodes || t >= self.nodes {
            return None;
        }
        let info = &self.pairs[f * self.nodes + t];
        if info.len == 0 {
            None
        } else {
            Some(info)
        }
    }

    /// The static route, if the pair is connected.
    pub(crate) fn route(&self, from: NodeId, to: NodeId) -> Option<&[LinkId]> {
        self.pair(from, to)
            .map(|p| &self.arena[p.offset as usize..p.offset as usize + p.len as usize])
    }

    /// Sum of link latencies along the route.
    pub(crate) fn latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.pair(from, to).map(|p| p.latency).unwrap_or(SimDuration::ZERO)
    }

    /// Sum of link jitter bounds along the route.
    pub(crate) fn jitter(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.pair(from, to).map(|p| p.jitter).unwrap_or(SimDuration::ZERO)
    }
}

/// Deterministic Dijkstra from `source` over link latency (µs), ties
/// broken by hop count; among equal (cost, hops) the first relaxation in
/// link-index order wins and later equal candidates never replace it.
#[allow(clippy::type_complexity)]
fn dijkstra(
    topology: &Topology,
    adj: &[Vec<LinkId>],
    source: usize,
) -> (Vec<Option<(u64, u32)>>, Vec<Option<LinkId>>) {
    let vertices = topology.vertices();
    let mut dist: Vec<Option<(u64, u32)>> = vec![None; vertices];
    let mut prev: Vec<Option<LinkId>> = vec![None; vertices];
    let mut heap: BinaryHeap<Reverse<(u64, u32, usize)>> = BinaryHeap::new();
    dist[source] = Some((0, 0));
    heap.push(Reverse((0, 0, source)));
    while let Some(Reverse((cost, hops, v))) = heap.pop() {
        if dist[v] != Some((cost, hops)) {
            continue; // stale entry
        }
        for &l in &adj[v] {
            let link = &topology.links()[l.0 as usize];
            let to = topology.vertex(link.to);
            let cand = (cost + link.params.latency.as_micros(), hops + 1);
            if dist[to].map(|d| cand < d).unwrap_or(true) {
                dist[to] = Some(cand);
                prev[to] = Some(l);
                heap.push(Reverse((cand.0, cand.1, to)));
            }
        }
    }
    (dist, prev)
}
