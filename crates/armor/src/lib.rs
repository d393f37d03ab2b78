//! # ree-armor — the ARMOR architecture (Chameleon \[19\])
//!
//! Adaptive Reconfigurable Mobile Objects of Reliability: self-checking
//! processes "internally structured around objects called elements that
//! contain their own private data and provide elementary functions or
//! services" (§3.1). This crate provides the generic machinery; the SIFT
//! environment (`ree-sift`) composes concrete ARMORs from it:
//!
//! * [`Element`] — the unit of composition: an immutable behaviour
//!   (subscriptions, handler, internal assertions) over private
//!   [`Fields`] state that "can only be modified while processing message
//!   events" (§3.1) because the runtime owns it and lends it to the
//!   handler alone;
//! * [`ArmorProcess`] — the runtime hosting elements on the simulated OS:
//!   event-driven message processing, reliable point-to-point messaging
//!   ([`ReliableComm`]), daemon-gateway routing, and timers. Its mutable
//!   state is one `Fields` per element plus `ArmorCore`; the behaviours
//!   are shared by every fork;
//! * [`CheckpointBuffer`] — microcheckpointing (§3.4): per-element
//!   regions updated after each event delivery, committed to stable
//!   storage on every message transmission;
//! * heap-injection support: element state is built from corruptible
//!   [`Value`]s, so NFTAPE-style bit flips land in real protocol data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod comm;
mod element;
mod event;
mod microcheckpoint;
mod runtime;
mod value;
mod wire;

pub use comm::{Inbound, ReliableComm};
pub use element::{assertions, Element, ElementOutcome};
pub use event::{ArmorEvent, ArmorId, ArmorMessage, WirePacket};
pub use microcheckpoint::CheckpointBuffer;
pub use runtime::{valid_ptr, ArmorProcess, ControlOp, ElementCtx, Gateway, RestorePolicy};
pub use value::{Fields, Value};
pub use wire::{decode_fields, encode_fields, DecodeError};
