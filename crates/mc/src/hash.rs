//! Canonical state digests for convergence pruning.
//!
//! Two explored branches that reach byte-identical cluster states have
//! identical futures, so the DFS only continues from one of them. The
//! digest writes [`ree_os::Cluster::write_state_digest`] — one `Sink`
//! encoding with an explicit byte order, the same bytes on every target
//! — into [`DigestHasher`], a word at a time. Not [`Fnv64`]: byte-serial
//! FNV-1a cost ≈ 23 µs per ≈ 15 KB state (`docs/bench/PR-25.md`,
//! "Model-checker overhead, measured"), and a state digest is pinned
//! nowhere; the DFS only compares two within one exploration.

use ree_os::Cluster;
use ree_sim::DigestHasher;

pub use ree_sim::Fnv64;

/// Digest of a cluster's canonical state, as pruned on by the DFS.
pub fn state_digest(cluster: &Cluster) -> u64 {
    let mut h = DigestHasher::default();
    cluster.write_state_digest(&mut h);
    h.finish()
}
