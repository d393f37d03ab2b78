//! [`Sink`]: where an encoder writes a value's bytes.

/// Destination of a canonical byte encoding: a `Vec<u8>` or a
/// [`crate::DigestHasher`]. Integers are big-endian. Object-safe, so an
/// encoder generic over `S: Sink + ?Sized` also takes a `&mut dyn Sink`.
pub trait Sink {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u64`, big-endian.
    fn put_u64(&mut self, v: u64);
    /// Appends a byte run as is (no length prefix).
    fn put_bytes(&mut self, bytes: &[u8]);

    /// Appends a `u16`, big-endian.
    fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// Appends a `u32`, big-endian.
    fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_be_bytes());
    }
}

impl Sink for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_byte_buffer_receives_big_endian_integers_and_raw_runs() {
        let mut buf = Vec::new();
        buf.put_u8(0xAB);
        buf.put_u16(0x0102);
        buf.put_u32(0x0304_0506);
        buf.put_u64(0x0708_090A_0B0C_0D0E);
        buf.put_bytes(b"xy");
        let mut expected = vec![0xAB];
        expected.extend_from_slice(&0x0102u16.to_be_bytes());
        expected.extend_from_slice(&0x0304_0506u32.to_be_bytes());
        expected.extend_from_slice(&0x0708_090A_0B0C_0D0Eu64.to_be_bytes());
        expected.extend_from_slice(b"xy");
        assert_eq!(buf, expected);
        // Through the trait object, too.
        let sink: &mut dyn Sink = &mut buf;
        sink.put_u32(u32::MAX);
        assert_eq!(buf[buf.len() - 4..], [0xFF; 4]);
    }
}
