//! The Heartbeat ARMOR (§3.1): "executes on a node separate from the FTM.
//! Its sole responsibility is to detect and recover from failures in the
//! FTM through the periodic polling for liveness. This functionality is
//! implemented in a single element."

use crate::config::{ids, tags};
use ree_armor::{ArmorEvent, ArmorId, Element, ElementCtx, ElementOutcome, Fields, Value};
use ree_os::TraceEvent;
use ree_sim::SimDuration;

/// Number of consecutive missed heartbeat rounds before the FTM is
/// declared failed (one full round of silence, per §3.3).
const MISS_THRESHOLD: u64 = 2;

/// The single FTM-watching element of the Heartbeat ARMOR.
pub(crate) struct HbWatch {
    /// Heartbeat period.
    pub(crate) period: SimDuration,
}

impl HbWatch {
    fn initiate_ftm_recovery(state: &mut Fields, ctx: &mut ElementCtx<'_, '_>) {
        let daemon = state.u64("ftm_daemon").unwrap_or(0);
        state.set("recovering", Value::Bool(true));
        state.bump("recoveries");
        ctx.os.trace_recovery_event(
            TraceEvent::FtmFailureDetected,
            "detect ftm failure (heartbeat timeout)",
        );
        // Step one of the two-step recovery (§6.1): reinstall via the
        // FTM's daemon. Step two (state restore) happens only after the
        // REINSTALL_ACK arrives — a receive-omitting Heartbeat ARMOR
        // never sends it, leaving the FTM unrecovered.
        ctx.send(
            ArmorId(daemon as u32),
            vec![ArmorEvent::new(tags::REINSTALL_ARMOR)
                .with("armor", Value::U64(ids::FTM.0 as u64))
                .with("kind", Value::Str("ftm".into()))
                .with("requester", Value::U64(ctx.armor_id().0 as u64))],
        );
    }
}

impl Element for HbWatch {
    fn name(&self) -> &'static str {
        "hb_watch"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            tags::ARMOR_START,
            "armor-restored",
            "hb-cycle",
            tags::FTM_HB_ACK,
            tags::REINSTALL_ACK,
            "sift-configure",
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("misses", Value::U64(0));
        state.set("awaiting", Value::Bool(false));
        state.set("recovering", Value::Bool(false));
        state.set("pings_sent", Value::U64(0));
        state.set("recoveries", Value::U64(0));
        // The FTM's daemon (set by sift-configure at install time).
        state.set("ftm_daemon", Value::U64(0));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        match ev.tag {
            "sift-configure" => {
                if let Some(fd) = ev.u64("ftm_daemon") {
                    state.set("ftm_daemon", Value::U64(fd));
                }
            }
            tags::ARMOR_START => {
                ctx.set_timer_event(self.period, ArmorEvent::new("hb-cycle"));
            }
            "armor-restored" => {
                // In-flight liveness state died with the predecessor.
                state.set("awaiting", Value::Bool(false));
                state.set("misses", Value::U64(0));
                state.set("recovering", Value::Bool(false));
                state.set("recover_wait", Value::U64(0));
            }
            "hb-cycle" => {
                let recovering = state.get("recovering").and_then(Value::as_bool).unwrap_or(false);
                if recovering {
                    // Waiting for the reinstall ack; give it one cycle,
                    // then retry the whole recovery.
                    let stuck = state.bump("recover_wait").unwrap_or(0);
                    if stuck >= 3 {
                        state.set("recover_wait", Value::U64(0));
                        Self::initiate_ftm_recovery(state, ctx);
                    }
                } else if state.get("awaiting").and_then(Value::as_bool).unwrap_or(false) {
                    let misses = state.bump("misses").unwrap_or(0);
                    if misses >= MISS_THRESHOLD {
                        state.set("misses", Value::U64(0));
                        state.set("awaiting", Value::Bool(false));
                        Self::initiate_ftm_recovery(state, ctx);
                    }
                } else {
                    state.set("awaiting", Value::Bool(true));
                }
                if !state.get("recovering").and_then(Value::as_bool).unwrap_or(false) {
                    state.bump("pings_sent");
                    ctx.send_unreliable(
                        ids::FTM,
                        vec![ArmorEvent::new(tags::FTM_HB_PING)
                            .with("seq", Value::U64(state.u64("pings_sent").unwrap_or(0)))],
                    );
                }
                ctx.set_timer_event(self.period, ArmorEvent::new("hb-cycle"));
            }
            tags::FTM_HB_ACK => {
                state.set("awaiting", Value::Bool(false));
                state.set("misses", Value::U64(0));
            }
            tags::REINSTALL_ACK if ev.u64("armor") == Some(ids::FTM.0 as u64) => {
                state.set("recovering", Value::Bool(false));
                state.set("recover_wait", Value::U64(0));
                state.set("awaiting", Value::Bool(false));
                state.set("misses", Value::U64(0));
                // Step two: instruct the recovered FTM to restore its
                // state from the checkpoint.
                ctx.send(ids::FTM, vec![ArmorEvent::new("__restore-state")]);
                ctx.os.trace_recovery("ftm reinstalled; restore instructed");
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        ree_armor::assertions::range_check(state, "misses", 0, 100)?;
        ree_armor::assertions::range_check(state, "ftm_daemon", 0, 99)
    }
}
