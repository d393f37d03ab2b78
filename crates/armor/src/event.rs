//! ARMOR events and messages.
//!
//! "A message consists of sequential events that trigger element actions.
//! Elements subscribe to events that they are designed to process, and an
//! element's state can only be modified while processing message events"
//! (§3.1). Events carry [`Fields`] payloads — the same corruptible
//! representation as element state, so a corrupted sender produces
//! *poisoned* events whose bad data flows to receivers (the §6.1
//! propagation scenarios).

use crate::value::{Fields, Value};
use std::sync::Arc;

/// Unique ARMOR identity — "each ARMOR is addressed by a unique
/// identification number, allowing messages to be sent to an ARMOR without
/// prior knowledge of the ARMOR's physical location" (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArmorId(pub u32);

impl std::fmt::Display for ArmorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "armor{}", self.0)
    }
}

/// One event within an ARMOR message.
#[derive(Clone, Debug, PartialEq)]
pub struct ArmorEvent {
    /// Event tag; elements subscribe by tag.
    pub tag: &'static str,
    /// Payload fields.
    pub fields: Fields,
}

impl ArmorEvent {
    /// Creates an event with empty payload.
    pub fn new(tag: &'static str) -> Self {
        ArmorEvent { tag, fields: Fields::new() }
    }

    /// Builder-style field attachment.
    pub fn with(mut self, name: &str, value: Value) -> Self {
        self.fields.set(name, value);
        self
    }

    /// Reads an unsigned field.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.fields.u64(name)
    }

    /// Reads a string field.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.fields.get(name).and_then(Value::as_str)
    }

    /// Reads an [`ArmorId`] field (stored as `U64`).
    pub fn armor_id(&self, name: &str) -> Option<ArmorId> {
        self.fields.u64(name).map(|v| ArmorId(v as u32))
    }
}

/// A message between ARMORs: addressed by [`ArmorId`], carried by the
/// daemon gateways, acknowledged end-to-end.
///
/// The events are an immutable shared slice: the sender's retransmission
/// copy, every in-flight packet, every hop through a daemon and every
/// snapshot fork hold the same allocation, so cloning a message is a
/// refcount bump. Nothing mutates events after the message is built
/// (outgoing poison is applied to the `Vec` before it is wrapped).
#[derive(Clone, Debug)]
pub struct ArmorMessage {
    /// Sender identity.
    pub src: ArmorId,
    /// Destination identity.
    pub dst: ArmorId,
    /// Per-sender sequence number (set by the comm layer).
    pub seq: u64,
    events: Arc<[ArmorEvent]>,
    /// Computed once at construction; every hop asks for it.
    wire_size: u64,
}

impl ArmorMessage {
    /// Builds a message, freezing `events` into a shared slice.
    pub fn new(src: ArmorId, dst: ArmorId, seq: u64, events: Vec<ArmorEvent>) -> Self {
        let payload: usize =
            events.iter().map(|e| e.tag.len() + 16 + e.fields.leaf_count() * 24).sum();
        ArmorMessage { src, dst, seq, events: events.into(), wire_size: 64 + payload as u64 }
    }

    /// The events to deliver, in order.
    pub fn events(&self) -> &[ArmorEvent] {
        &self.events
    }

    /// Approximate wire size (for the network model).
    pub(crate) fn wire_size(&self) -> u64 {
        self.wire_size
    }
}

/// A wire packet exchanged through daemons: data or ack.
#[derive(Clone, Debug)]
pub enum WirePacket {
    /// Data message.
    Data(ArmorMessage),
    /// Ack for (src→dst, seq).
    Ack {
        /// Original sender being acknowledged.
        src: ArmorId,
        /// Acknowledging receiver.
        dst: ArmorId,
        /// Sequence number acknowledged.
        seq: u64,
    },
}

impl WirePacket {
    /// The destination ARMOR that should receive this packet.
    pub(crate) fn destination(&self) -> ArmorId {
        match self {
            WirePacket::Data(m) => m.dst,
            WirePacket::Ack { src, .. } => *src,
        }
    }

    /// Approximate wire size in bytes.
    pub(crate) fn wire_size(&self) -> u64 {
        match self {
            WirePacket::Data(m) => m.wire_size(),
            WirePacket::Ack { .. } => 48,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ArmorId {
        /// The reserved "null" identity. The paper's `node_mgmt` element
        /// returns daemon ID **zero** when a hostname translation fails — the
        /// unchecked default behind several Table 8 system failures.
        const NULL: ArmorId = ArmorId(0);
    }

    #[test]
    fn event_builder_and_accessors() {
        let ev = ArmorEvent::new("app-terminated")
            .with("rank", Value::U64(0))
            .with("app", Value::Str("texture".into()))
            .with("exec_armor", Value::U64(17));
        assert_eq!(ev.u64("rank"), Some(0));
        assert_eq!(ev.str("app"), Some("texture"));
        assert_eq!(ev.armor_id("exec_armor"), Some(ArmorId(17)));
        assert_eq!(ev.u64("missing"), None);
    }

    #[test]
    fn wire_packet_destination() {
        let msg = ArmorMessage::new(ArmorId(1), ArmorId(2), 5, vec![ArmorEvent::new("x")]);
        assert_eq!(WirePacket::Data(msg).destination(), ArmorId(2));
        // Acks travel back to the original sender.
        let ack = WirePacket::Ack { src: ArmorId(1), dst: ArmorId(2), seq: 5 };
        assert_eq!(ack.destination(), ArmorId(1));
    }

    #[test]
    fn wire_size_grows_with_payload() {
        let small = ArmorMessage::new(ArmorId(1), ArmorId(2), 0, vec![ArmorEvent::new("a")]);
        let big = ArmorMessage::new(
            ArmorId(1),
            ArmorId(2),
            0,
            vec![ArmorEvent::new("a").with("x", Value::U64(1)).with("y", Value::Str("zzz".into()))],
        );
        assert_eq!(small.wire_size(), 64 + 1 + 16);
        assert_eq!(big.wire_size(), 64 + 1 + 16 + 2 * 24);
    }

    #[test]
    fn null_armor_id_is_zero() {
        assert_eq!(ArmorId::NULL, ArmorId(0));
    }
}
