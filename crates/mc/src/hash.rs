//! Canonical state digests for convergence pruning.
//!
//! Two explored branches that reach byte-identical cluster states have
//! identical futures, so the DFS only needs to continue from one of
//! them. The digest feeds [`ree_os::Cluster::write_state_digest`] — the
//! canonical serialisation of everything behaviour-relevant (clock, rng
//! stream positions, process table, storage, network, pending events
//! with rank-renumbered sequence numbers) — through the fixed FNV-1a
//! hasher [`Fnv64`], so a digest is the same in every process and every
//! build *for one target* (the std `DefaultHasher` does not promise even
//! that). It is not stable across targets: `write_state_digest` feeds
//! the hasher through `std::hash::Hash`, whose `usize` length prefixes
//! and native-endian integer writes follow the host's word size and
//! byte order. Nothing needs more today — no state digest is persisted
//! or compared across hosts, the DFS only tests two of them for
//! equality within one process. An explicit byte order arrives with the
//! `Sink` encoding of ROADMAP item 2.

use ree_os::Cluster;
use std::hash::Hasher;

pub use ree_sim::Fnv64;

/// Digest of a cluster's canonical state, as pruned on by the DFS.
pub fn state_digest(cluster: &Cluster) -> u64 {
    let mut h = Fnv64::default();
    cluster.write_state_digest(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors.
        let digest = |s: &str| {
            let mut h = Fnv64::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }
}
