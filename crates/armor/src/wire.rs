//! Wire/checkpoint encoding of element state.
//!
//! Checkpoints are committed as bytes to the node RAM disk (§3.4); the
//! encoding is explicit and versioned so a restore can *fail detectably*
//! (truncated or structurally invalid images fall back to cold start)
//! while a semantically corrupted-but-well-formed image restores
//! "successfully" into a bad state — exactly the failure mode behind the
//! paper's checkpoint-corruption system failures (§6.1).

use crate::value::{Fields, Value};
use ree_sim::Sink;

const TAG_BOOL: u8 = 1;
const TAG_U64: u8 = 2;
// Tags 3 and 4 (signed and float values) are retired and never reused:
// an image holding one decodes to `BadTag`, a cold start.
const TAG_STR: u8 = 5;
const TAG_PTR: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_MAP: u8 = 8;

/// Error decoding a checkpoint or wire image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes mid-structure.
    Truncated,
    /// Unknown type tag.
    BadTag(u8),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// Structure nesting exceeded sanity bounds.
    TooDeep,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "image truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown value tag {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string value"),
            DecodeError::TooDeep => write!(f, "structure nested too deeply"),
        }
    }
}

impl std::error::Error for DecodeError {}

const MAX_DEPTH: usize = 32;

fn encode_value<S: Sink + ?Sized>(value: &Value, buf: &mut S) {
    match value {
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::U64(v) => {
            buf.put_u8(TAG_U64);
            buf.put_u64(*v);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_run(buf, s.as_bytes());
        }
        Value::Ptr(v) => {
            buf.put_u8(TAG_PTR);
            buf.put_u64(*v);
        }
        Value::List(items) => {
            buf.put_u8(TAG_LIST);
            buf.put_u32(items.len() as u32);
            for item in items {
                encode_value(item, buf);
            }
        }
        Value::Map(map) => {
            buf.put_u8(TAG_MAP);
            buf.put_u32(map.len() as u32);
            for (k, v) in map {
                put_run(buf, k.as_bytes());
                encode_value(v, buf);
            }
        }
    }
}

/// Writes a byte run behind its `u32` length.
pub(crate) fn put_run<S: Sink + ?Sized>(buf: &mut S, run: &[u8]) {
    buf.put_u32(run.len() as u32);
    buf.put_bytes(run);
}

/// Takes `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf.split_first_chunk().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

pub(crate) fn take_u32(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    take(buf).map(u32::from_be_bytes)
}

/// Takes a length-prefixed byte run off the front of `buf` (borrowed
/// from the image, not copied).
pub(crate) fn take_run<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
    let len = take_u32(buf)? as usize;
    let (run, rest) = buf.split_at_checked(len).ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(run)
}

pub(crate) fn take_string(buf: &mut &[u8]) -> Result<String, DecodeError> {
    let run = take_run(buf)?;
    std::str::from_utf8(run).map(str::to_owned).map_err(|_| DecodeError::BadUtf8)
}

fn decode_value(buf: &mut &[u8], depth: usize) -> Result<Value, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    let [tag] = take(buf)?;
    match tag {
        TAG_BOOL => take(buf).map(|[b]| Value::Bool(b != 0)),
        TAG_U64 => take(buf).map(|b| Value::U64(u64::from_be_bytes(b))),
        TAG_STR => Ok(Value::Str(take_string(buf)?)),
        TAG_PTR => take(buf).map(|b| Value::Ptr(u64::from_be_bytes(b))),
        TAG_LIST => {
            let n = take_u32(buf)? as usize;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_value(buf, depth + 1)?);
            }
            Ok(Value::List(items))
        }
        TAG_MAP => {
            let n = take_u32(buf)? as usize;
            let mut map = std::collections::BTreeMap::new();
            for _ in 0..n {
                let k = take_string(buf)?;
                let v = decode_value(buf, depth + 1)?;
                map.insert(k, v);
            }
            Ok(Value::Map(map))
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

/// Serialises element state to a checkpoint image.
pub fn encode_fields(fields: &Fields) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    encode_fields_into(fields, &mut buf);
    buf
}

/// [`encode_fields`] appended to any [`Sink`]: the reused per-event
/// microcheckpoint scratch, or a digest.
pub(crate) fn encode_fields_into<S: Sink + ?Sized>(fields: &Fields, buf: &mut S) {
    buf.put_u32(fields.len() as u32);
    for (name, value) in fields.iter() {
        put_run(buf, name.as_bytes());
        encode_value(value, buf);
    }
}

/// Deserialises a checkpoint image back into element state.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated, malformed, or over-nested
/// images; callers treat that as an unusable checkpoint (cold start).
pub fn decode_fields(bytes: &[u8]) -> Result<Fields, DecodeError> {
    let mut buf = bytes;
    let n = take_u32(&mut buf)? as usize;
    let mut fields = Fields::new();
    for _ in 0..n {
        let name = take_string(&mut buf)?;
        let value = decode_value(&mut buf, 0)?;
        fields.set(name, value);
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample() -> Fields {
        let mut f = Fields::new();
        f.set("flag", Value::Bool(true));
        f.set("count", Value::U64(42));
        f.set("host", Value::Str("node2".into()));
        f.set("link", Value::Ptr(0xbeef));
        f.set(
            "list",
            Value::List(vec![Value::U64(1), Value::Str("two".into()), Value::Bool(false)]),
        );
        let mut m = BTreeMap::new();
        m.insert("inner".to_owned(), Value::List(vec![Value::Ptr(0x40)]));
        f.set("map", Value::Map(m));
        f
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let f = sample();
        let bytes = encode_fields(&f);
        let back = decode_fields(&bytes).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn the_encoder_writes_the_same_bytes_through_a_trait_object() {
        let f = sample();
        let mut bytes = Vec::new();
        encode_fields_into(&f, &mut bytes as &mut dyn Sink);
        assert_eq!(bytes, encode_fields(&f));
    }

    #[test]
    fn empty_fields_roundtrip() {
        let f = Fields::new();
        let back = decode_fields(&encode_fields(&f)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_image_is_detected() {
        let bytes = encode_fields(&sample());
        for cut in [0usize, 3, 10, bytes.len() - 1] {
            let res = decode_fields(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn bad_tag_is_detected() {
        let mut f = Fields::new();
        f.set("x", Value::U64(1));
        let mut bytes = encode_fields(&f);
        // Corrupt the value tag byte (after count + name length + name).
        let tag_pos = 4 + 4 + 1;
        bytes[tag_pos] = 0xEE;
        assert_eq!(decode_fields(&bytes), Err(DecodeError::BadTag(0xEE)));
    }

    #[test]
    fn retired_signed_and_float_tags_decode_to_bad_tag() {
        // Tags 3 and 4 once carried signed and float values. An image
        // holding one is unusable, so the restore falls back to a cold
        // start; the eight payload bytes are well-formed.
        for tag in [3u8, 4] {
            let mut bytes = vec![0, 0, 0, 1, 0, 0, 0, 1, b'x', tag];
            bytes.extend_from_slice(&(-7i64).to_be_bytes());
            assert_eq!(decode_fields(&bytes), Err(DecodeError::BadTag(tag)));
        }
    }

    #[test]
    fn semantically_corrupt_but_wellformed_image_decodes() {
        // Flip a bit inside an integer payload: decode succeeds, value is
        // wrong — the checkpoint-corruption mechanism of §6.1.
        let mut f = Fields::new();
        f.set("count", Value::U64(42));
        let mut bytes = encode_fields(&f);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let back = decode_fields(&bytes).unwrap();
        assert_eq!(back.u64("count"), Some(43));
    }

    #[test]
    fn decode_error_display() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadTag(9).to_string().contains('9'));
    }
}
