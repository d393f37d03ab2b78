//! The length-prefixed, CRC-checked frame layer.
//!
//! Every message between supervisor and worker travels as one frame:
//!
//! ```text
//! +-------+-----------+----------------+-----------+
//! | MAGIC | len (u32) | crc32(payload) |  payload  |
//! | 4 B   | BE        | u32 BE         | len bytes |
//! +-------+-----------+----------------+-----------+
//! ```
//!
//! The decoder is incremental (feed it arbitrary read chunks) and
//! **self-resynchronising**: a corrupted frame — bad magic, an absurd
//! length, a CRC mismatch — yields a typed [`FrameError`], never a
//! panic, and the scan resumes at the next magic sequence so one
//! mangled frame cannot poison the rest of the stream. The supervisor
//! treats any frame error as a worker failure (kill, re-queue,
//! respawn); resynchronisation is what keeps the *diagnosis* clean.

use crate::crc::crc32;
use ree_sim::Sink;

/// Frame preamble: `REE` + protocol generation.
pub const MAGIC: [u8; 4] = *b"REE\x01";

/// Frame header size: magic + length + CRC.
const HEADER_LEN: usize = 12;

/// Upper bound on a payload. Large enough for any batch of results
/// (a `RunResult` encodes in ~200 bytes; batches are tens of runs),
/// small enough that a corrupted length field is rejected instead of
/// stalling the stream waiting for gigabytes that will never arrive.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// A corrupted frame, detected and skipped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream did not start with [`MAGIC`]; `skipped` bytes were
    /// discarded hunting for the next magic sequence.
    BadMagic {
        /// Bytes discarded before the scan re-anchored (or buffered).
        skipped: usize,
    },
    /// The length field exceeds [`MAX_PAYLOAD`] — a corrupted header.
    Oversize {
        /// The absurd length the header claimed.
        len: u32,
    },
    /// The payload arrived but its CRC does not match the header's.
    BadCrc {
        /// CRC the header carried.
        expected: u32,
        /// CRC of the payload as received.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { skipped } => {
                write!(f, "bad frame magic ({skipped} bytes skipped)")
            }
            FrameError::Oversize { len } => write!(f, "frame length {len} exceeds maximum"),
            FrameError::BadCrc { expected, actual } => {
                write!(f, "frame CRC mismatch (header {expected:#010x}, payload {actual:#010x})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame around `payload`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — encoders build
/// payloads from bounded batches, so an oversize payload is a
/// programming error on the *sending* side, not a wire condition.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "frame payload exceeds maximum");
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.put_bytes(&MAGIC);
    buf.put_u32(payload.len() as u32);
    buf.put_u32(crc32(payload));
    buf.put_bytes(payload);
    buf
}

/// Incremental frame decoder with resynchronisation.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    head: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        // Compact lazily so the buffer does not grow with the stream.
        if self.head > 4096 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Tries to decode the next frame.
    ///
    /// - `Ok(Some(payload))` — one complete, CRC-clean frame.
    /// - `Ok(None)` — need more bytes.
    /// - `Err(_)` — a corrupted frame was detected *and skipped*; call
    ///   again to continue decoding from the resynchronisation point.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = self.buf.len() - self.head;
        // Anchor on the magic before trusting anything else.
        let prefix_len = avail.min(MAGIC.len());
        if self.buf[self.head..self.head + prefix_len] != MAGIC[..prefix_len] {
            return Err(self.resync());
        }
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let at = |off: usize| -> u32 {
            u32::from_be_bytes(self.buf[self.head + off..self.head + off + 4].try_into().unwrap())
        };
        let len = at(4);
        if len as usize > MAX_PAYLOAD {
            // Skip the corrupt header's magic so the rescan moves on.
            self.head += MAGIC.len();
            return Err(FrameError::Oversize { len });
        }
        if avail < HEADER_LEN + len as usize {
            return Ok(None);
        }
        let expected = at(8);
        let start = self.head + HEADER_LEN;
        let payload = &self.buf[start..start + len as usize];
        let actual = crc32(payload);
        if actual != expected {
            // The "payload" may really be a truncated frame spliced
            // against the next frame's header; drop only the magic and
            // let the rescan find the next genuine frame boundary.
            self.head += MAGIC.len();
            return Err(FrameError::BadCrc { expected, actual });
        }
        let payload = payload.to_vec();
        self.head = start + len as usize;
        Ok(Some(payload))
    }

    /// Discards bytes up to the next occurrence of [`MAGIC`] (or keeps
    /// a partial magic suffix / empty buffer waiting for more input).
    fn resync(&mut self) -> FrameError {
        let start = self.head;
        let buf = &self.buf[self.head..];
        let next_magic = (1..buf.len()).find(|&i| {
            let end = (i + MAGIC.len()).min(buf.len());
            buf[i..end] == MAGIC[..end - i]
        });
        self.head += next_magic.unwrap_or(buf.len());
        FrameError::BadMagic { skipped: self.head - start }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(stream: &[u8]) -> (Vec<Vec<u8>>, Vec<FrameError>) {
        let mut d = Decoder::new();
        d.feed(stream);
        let mut frames = Vec::new();
        let mut errors = Vec::new();
        loop {
            match d.next_frame() {
                Ok(Some(p)) => frames.push(p),
                Ok(None) => break,
                Err(e) => errors.push(e),
            }
        }
        (frames, errors)
    }

    #[test]
    fn roundtrip_two_frames_byte_at_a_time() {
        let a = encode_frame(b"hello");
        let b = encode_frame(&[0u8; 100]);
        let mut d = Decoder::new();
        let mut got = Vec::new();
        for &byte in a.iter().chain(b.iter()) {
            d.feed(&[byte]);
            while let Ok(Some(p)) = d.next_frame() {
                got.push(p);
            }
        }
        assert_eq!(got, vec![b"hello".to_vec(), vec![0u8; 100]]);
    }

    #[test]
    fn resyncs_after_garbage() {
        let mut stream = b"garbage!".to_vec();
        stream.extend_from_slice(&encode_frame(b"clean"));
        let (frames, errors) = decode_all(&stream);
        assert_eq!(frames, vec![b"clean".to_vec()]);
        assert_eq!(errors, vec![FrameError::BadMagic { skipped: 8 }]);
    }

    #[test]
    fn oversize_length_is_rejected_and_skipped() {
        let mut stream = MAGIC.to_vec();
        stream.extend_from_slice(&u32::MAX.to_be_bytes());
        stream.extend_from_slice(&[0; 4]);
        stream.extend_from_slice(&encode_frame(b"after"));
        let (frames, errors) = decode_all(&stream);
        assert_eq!(frames, vec![b"after".to_vec()]);
        assert!(matches!(errors[0], FrameError::Oversize { len: u32::MAX }));
    }

    #[test]
    fn bad_crc_is_detected_and_stream_recovers() {
        let mut bad = encode_frame(b"payload");
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        bad.extend_from_slice(&encode_frame(b"good"));
        let (frames, errors) = decode_all(&bad);
        assert_eq!(frames, vec![b"good".to_vec()]);
        assert!(matches!(errors[0], FrameError::BadCrc { .. }), "{errors:?}");
    }

    #[test]
    fn truncated_frame_then_next_frame_recovers() {
        let full = encode_frame(b"it was cut short");
        let mut stream = full[..full.len() - 6].to_vec();
        stream.extend_from_slice(&encode_frame(b"next"));
        let (frames, errors) = decode_all(&stream);
        assert_eq!(frames, vec![b"next".to_vec()]);
        assert!(!errors.is_empty());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (frames, errors) = decode_all(&encode_frame(b""));
        assert_eq!(frames, vec![Vec::<u8>::new()]);
        assert!(errors.is_empty());
    }
}
