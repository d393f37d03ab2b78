//! Elements in the basic set shared by all ARMORs (§3.1): liveness-probe
//! response and configuration intake.

use crate::config::tags;
use ree_armor::{ArmorEvent, Element, ElementCtx, ElementOutcome, Fields, Value};

/// Responds to "Are-you-alive?" probes from the local daemon — core
/// capability (3) of every ARMOR (§3.1). A hung (stopped) ARMOR never
/// replies, which is exactly how daemons detect hang failures.
pub(crate) struct ProbeResponder;

impl Element for ProbeResponder {
    fn name(&self) -> &'static str {
        "probe_responder"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[tags::ARE_YOU_ALIVE]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("probes_answered", Value::U64(0));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        let Some(from) = ev.armor_id("daemon") else {
            return ElementOutcome::AbortThread("are-you-alive without daemon id".into());
        };
        state.bump("probes_answered");
        let seq = ev.u64("seq").unwrap_or(0);
        ctx.send_unreliable(
            from,
            vec![ArmorEvent::new(tags::ALIVE_ACK)
                .with("armor", Value::U64(ctx.armor_id().0 as u64))
                .with("seq", Value::U64(seq))],
        );
        ElementOutcome::Ok
    }
}

/// Stores `sift-configure` fields into element state so compositions can
/// be parameterised after spawn (HB ARMOR learns the FTM's daemon, Exec
/// ARMORs learn their slot/rank, everyone learns the SCC pid).
pub(crate) struct Configurator;

impl Element for Configurator {
    fn name(&self) -> &'static str {
        "configurator"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &["sift-configure"]
    }

    fn initial_state(&self) -> Fields {
        Fields::new()
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        _ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        for (name, value) in ev.fields.iter() {
            state.set(name, value.clone());
        }
        ElementOutcome::Ok
    }
}
