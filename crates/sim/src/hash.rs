//! [`DigestHasher`], the word-at-a-time hash of state-digest streams.

use crate::Sink;

/// Initial state: the first fractional digits of π.
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// An odd multiplier with well-spread bits (wyhash's first prime).
const MULTIPLIER: u64 = 0xa076_1d64_78bd_642f;

/// The model checker's state-digest hash: each word is xored into the
/// state, which is then replaced by the xor of the two halves of its
/// 128-bit product with `MULTIPLIER`.
///
/// `put_u8` and `put_u64` mix one word each. `put_bytes` mixes every
/// whole little-endian word, then one more word holding the zero-padded
/// tail (0–7 bytes) with the tail's length in its top byte, so the split
/// of a byte run across writes and an empty write both change the value.
///
/// It promises only that equal streams give equal values within a build;
/// pinned digests use [`crate::Fnv64`].
#[derive(Debug)]
pub struct DigestHasher(u64);

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

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Sink for DigestHasher {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(writes: &[&[u8]]) -> u64 {
        let mut h = DigestHasher::default();
        for w in writes {
            h.put_bytes(w);
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
        a.put_u64(0x0102_0304_0506_0708);
        let mut b = DigestHasher::default();
        b.mix(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), b.finish());
        let mut a = DigestHasher::default();
        a.put_u8(0x7F);
        let mut b = DigestHasher::default();
        b.mix(0x7F);
        assert_eq!(a.finish(), b.finish());
    }
}
