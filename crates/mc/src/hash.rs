//! Canonical state digests for convergence pruning.
//!
//! Two explored branches that reach byte-identical cluster states have
//! identical futures, so the DFS only needs to continue from one of
//! them. The digest feeds [`ree_os::Cluster::write_state_digest`] — the
//! canonical serialisation of everything behaviour-relevant (clock, rng
//! stream positions, process table, storage, network, pending events
//! with rank-renumbered sequence numbers) — through `DigestHasher`, a
//! hasher private to this crate that exists for this one stream.
//!
//! Why not [`Fnv64`], the fixed hash every other digest in the workspace
//! folds through: FNV-1a is byte-serial, one dependent multiply per
//! byte, and a two-node state is ≈ 15.4 KB in ≈ 330 writes, so it cost
//! ≈ 23 µs per digest and 12.9 % of an `mc_fork` pass, against ≈ 5 µs
//! here (`docs/PERFORMANCE.md`, "Model-checker overhead, measured";
//! `cargo run --release --example mc_census`). Its values are pinned —
//! `perfbench/pins.json`, the wire and trace snapshots — so it cannot
//! change, and it stays exactly as it is for them. A state digest is
//! pinned nowhere: no digest is persisted, printed or compared across
//! processes; the DFS only tests two of them for equality within one
//! exploration. So `DigestHasher` promises only that: equal streams give
//! equal values within a build. It takes one folded 64×64→128-bit
//! multiply per 8-byte word, and `write_u8`…`write_usize` are one each.
//!
//! Neither hash is stable across targets: `write_state_digest` feeds the
//! hasher through `std::hash::Hash`, whose `usize` length prefixes and
//! native-endian integer writes follow the host's word size and byte
//! order. An explicit byte order arrives with the `Sink` encoding of
//! ROADMAP item 2.

use ree_os::Cluster;
use std::hash::Hasher;

pub use ree_sim::Fnv64;

/// Digest of a cluster's canonical state, as pruned on by the DFS.
pub fn state_digest(cluster: &Cluster) -> u64 {
    let mut h = DigestHasher::default();
    cluster.write_state_digest(&mut h);
    h.finish()
}

/// Initial state: the first fractional digits of π.
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// An odd multiplier with well-spread bits (wyhash's first prime).
const MULTIPLIER: u64 = 0xa076_1d64_78bd_642f;

/// The state digest's hasher: each word is xored into the state, which
/// is then replaced by the xor of the two halves of its 128-bit product
/// with [`MULTIPLIER`].
///
/// `write(bytes)` mixes every whole little-endian word, then one more
/// word holding the zero-padded tail (0–7 bytes) with the tail's length
/// in its top byte. That last word is always mixed, so the split of a
/// byte run across writes and an empty write both change the value.
struct DigestHasher(u64);

impl Default for DigestHasher {
    fn default() -> Self {
        DigestHasher(SEED)
    }
}

impl DigestHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        last[7] = tail.len() as u8;
        self.mix(u64::from_le_bytes(last));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
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

    fn digest_of(writes: &[&[u8]]) -> u64 {
        let mut h = DigestHasher::default();
        for w in writes {
            h.write(w);
        }
        h.finish()
    }

    #[test]
    fn the_split_across_writes_is_part_of_the_input() {
        assert_ne!(digest_of(&[b"ab", b"c"]), digest_of(&[b"a", b"bc"]));
        assert_ne!(digest_of(&[b"abc"]), digest_of(&[b"ab", b"c"]));
        // Across a word boundary too.
        assert_ne!(digest_of(&[b"01234567", b"8"]), digest_of(&[b"0123456", b"78"]));
    }

    #[test]
    fn an_empty_write_is_not_a_no_op() {
        assert_ne!(digest_of(&[]), digest_of(&[b""]));
        assert_ne!(digest_of(&[b"abc"]), digest_of(&[b"abc", b""]));
        assert_ne!(digest_of(&[b"", b""]), digest_of(&[b""]));
        // An 8-byte write whose last byte equals a 7-byte tail's length
        // tag mixes the same first word as that 7-byte write, then one
        // more (the empty tail).
        assert_ne!(digest_of(&[b"0123456\x07"]), digest_of(&[b"0123456"]));
    }

    #[test]
    fn every_single_bit_flip_of_a_64_byte_input_changes_the_digest() {
        let input: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let base = digest_of(&[&input]);
        for bit in 0..input.len() * 8 {
            let mut flipped = input.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(digest_of(&[&flipped]), base, "bit {bit}");
        }
        // And on an all-zero input, where a product is most likely to fold to zero.
        let zeros = [0u8; 64];
        let base = digest_of(&[&zeros]);
        for bit in 0..zeros.len() * 8 {
            let mut flipped = zeros;
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(digest_of(&[&flipped]), base, "bit {bit} of zeros");
        }
    }

    #[test]
    fn integer_writes_are_one_word_each() {
        let mut a = DigestHasher::default();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = DigestHasher::default();
        b.mix(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), b.finish());
    }
}
