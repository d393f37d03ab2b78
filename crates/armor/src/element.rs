//! The element abstraction (§3.1).
//!
//! "An ARMOR is a multithreaded process internally structured around
//! objects called elements that contain their own private data and
//! provide elementary functions or services. … Elements subscribe to
//! events that they are designed to process, and an element's state can
//! only be modified while processing message events."
//!
//! The code splits that object in two. An [`Element`] is the immutable
//! *behaviour*: a name, the event tags it subscribes to, and the handler
//! and assertions over its private data. The private data itself is a
//! [`Fields`] map the ARMOR runtime owns — it asks the behaviour for the
//! initial value once, lends it to [`Element::handle`] for the length of
//! one event and to nobody else, so "only modified while processing
//! message events" is a borrow, not a convention. Microcheckpointing,
//! heap injection and restore act on that one map; forks of an ARMOR
//! share the behaviours and clone only the maps. [`Element::check`]
//! implements the paper's internal assertions: "range checks, validity
//! checks on data (e.g., a valid ARMOR ID), and data structure integrity
//! checks" (§3.3).

use crate::event::ArmorEvent;
use crate::runtime::ElementCtx;
use crate::value::Fields;

/// Result of delivering one event to one element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElementOutcome {
    /// Event processed; state may have changed (it will be
    /// microcheckpointed).
    Ok,
    /// The element dereferenced garbage or otherwise faulted: the whole
    /// ARMOR process crashes (SIGSEGV-equivalent) *without* acking the
    /// in-flight message.
    Crash(String),
    /// The message-handling thread aborted (Figure 10): the event is
    /// dropped, the message counts as seen, but **no ack is sent**.
    AbortThread(String),
}

/// A pluggable unit of ARMOR functionality: behaviour and configuration,
/// never written after construction.
///
/// `Send + Sync` because one boxed behaviour serves every fork of its
/// ARMOR, on whichever campaign worker thread the fork runs.
pub trait Element: Send + Sync {
    /// Stable element name; also names its checkpoint-buffer region and
    /// heap-injection target (Table 8 uses `mgr_armor_info`,
    /// `exec_armor_info`, `app_param`, `mgr_app_detect`, `node_mgmt`).
    fn name(&self) -> &'static str;

    /// Event tags this element processes.
    fn subscriptions(&self) -> &'static [&'static str];

    /// The private state a freshly built ARMOR gives this element.
    fn initial_state(&self) -> Fields;

    /// Processes one event, possibly mutating `state` and emitting
    /// actions through `ctx`.
    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome;

    /// Internal assertions over private state. Returning `Err` makes the
    /// ARMOR kill itself ("in order to limit error propagation, the ARMOR
    /// kills itself when an internal check detects an error", §3.3).
    fn check(&self, _state: &Fields) -> Result<(), String> {
        Ok(())
    }
}

/// Common assertion helpers used by element implementations.
pub mod assertions {
    use crate::value::{Fields, Value};

    /// Asserts a `U64` field exists and lies within `[lo, hi]`.
    pub fn range_check(fields: &Fields, name: &str, lo: u64, hi: u64) -> Result<(), String> {
        match fields.u64(name) {
            Some(v) if (lo..=hi).contains(&v) => Ok(()),
            Some(v) => Err(format!("{name}={v} outside [{lo},{hi}]")),
            None => Err(format!("{name} missing or mistyped")),
        }
    }

    /// Structure-integrity check: every value in a map field satisfies
    /// `pred`.
    pub fn map_integrity<F: Fn(&Value) -> bool>(
        fields: &Fields,
        name: &str,
        pred: F,
    ) -> Result<(), String> {
        let Some(Value::Map(map)) = fields.get(name) else {
            return Err(format!("{name} missing or not a map"));
        };
        for (k, v) in map {
            if !pred(v) {
                return Err(format!("{name}[{k}] fails integrity check"));
            }
        }
        Ok(())
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// Asserts a stored ARMOR id is plausible: nonzero and below `max`.
        fn valid_armor_id(fields: &Fields, name: &str, max: u64) -> Result<(), String> {
            match fields.u64(name) {
                Some(0) => Err(format!("{name} is the null ARMOR id")),
                Some(v) if v < max => Ok(()),
                Some(v) => Err(format!("{name}={v} exceeds ARMOR id space")),
                None => Err(format!("{name} missing or mistyped")),
            }
        }

        #[test]
        fn range_check_accepts_and_rejects() {
            let mut f = Fields::new();
            f.set("n", Value::U64(5));
            assert!(range_check(&f, "n", 0, 10).is_ok());
            assert!(range_check(&f, "n", 6, 10).is_err());
            assert!(range_check(&f, "missing", 0, 10).is_err());
            f.set("s", Value::Str("x".into()));
            assert!(range_check(&f, "s", 0, 10).is_err());
        }

        #[test]
        fn armor_id_validity() {
            let mut f = Fields::new();
            f.set("id", Value::U64(3));
            assert!(valid_armor_id(&f, "id", 1000).is_ok());
            f.set("id", Value::U64(0));
            assert!(valid_armor_id(&f, "id", 1000).is_err());
            f.set("id", Value::U64(99999));
            assert!(valid_armor_id(&f, "id", 1000).is_err());
        }

        #[test]
        fn map_integrity_checks_all_entries() {
            let mut f = Fields::new();
            let mut m = std::collections::BTreeMap::new();
            m.insert("a".into(), Value::U64(1));
            m.insert("b".into(), Value::U64(2));
            f.set("tbl", Value::Map(m));
            assert!(map_integrity(&f, "tbl", |v| v.as_u64().is_some()).is_ok());
            assert!(map_integrity(&f, "tbl", |v| v.as_u64() == Some(1)).is_err());
            assert!(map_integrity(&f, "nope", |_| true).is_err());
        }
    }
}
