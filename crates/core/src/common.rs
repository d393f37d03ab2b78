//! Elements in the basic set shared by all ARMORs (§3.1): liveness-probe
//! response and configuration intake.

use crate::config::tags;
use ree_armor::{ArmorEvent, Element, ElementCtx, ElementOutcome, Fields, Value};

/// Responds to "Are-you-alive?" probes from the local daemon — core
/// capability (3) of every ARMOR (§3.1). A hung (stopped) ARMOR never
/// replies, which is exactly how daemons detect hang failures.
#[derive(Clone, Debug, Default)]
pub struct ProbeResponder {
    state: Fields,
}

impl ProbeResponder {
    /// Creates the responder.
    pub fn new() -> Self {
        let mut state = Fields::new();
        state.set("probes_answered", Value::U64(0));
        ProbeResponder { state }
    }
}

impl Element for ProbeResponder {
    fn name(&self) -> &'static str {
        "probe_responder"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[tags::ARE_YOU_ALIVE]
    }

    fn handle(&mut self, ev: &ArmorEvent, ctx: &mut ElementCtx<'_, '_>) -> ElementOutcome {
        let Some(from) = ev.armor_id("daemon") else {
            return ElementOutcome::AbortThread("are-you-alive without daemon id".into());
        };
        self.state.bump("probes_answered");
        let seq = ev.u64("seq").unwrap_or(0);
        ctx.send_unreliable(
            from,
            vec![ArmorEvent::new(tags::ALIVE_ACK)
                .with("armor", Value::U64(ctx.armor_id().0 as u64))
                .with("seq", Value::U64(seq))],
        );
        ElementOutcome::Ok
    }

    fn state(&self) -> &Fields {
        &self.state
    }

    fn state_mut(&mut self) -> &mut Fields {
        &mut self.state
    }
}

/// Stores `sift-configure` fields into element state so compositions can
/// be parameterised after spawn (HB ARMOR learns the FTM's daemon, Exec
/// ARMORs learn their slot/rank, everyone learns the SCC pid).
#[derive(Clone, Debug, Default)]
pub struct Configurator {
    state: Fields,
}

impl Configurator {
    /// Creates an empty configurator.
    pub fn new() -> Self {
        Configurator { state: Fields::new() }
    }
}

impl Element for Configurator {
    fn name(&self) -> &'static str {
        "configurator"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &["sift-configure"]
    }

    fn handle(&mut self, ev: &ArmorEvent, _ctx: &mut ElementCtx<'_, '_>) -> ElementOutcome {
        for (name, value) in ev.fields.iter() {
            self.state.set(name, value.clone());
        }
        ElementOutcome::Ok
    }

    fn state(&self) -> &Fields {
        &self.state
    }

    fn state_mut(&mut self) -> &mut Fields {
        &mut self.state
    }
}
