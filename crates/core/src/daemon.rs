//! The daemon ARMOR (§3.1): one per node, gateway for ARMOR-to-ARMOR
//! communication, installer of other ARMORs, and detector of local ARMOR
//! crash (via `waitpid`) and hang (via "Are-you-alive?" probes) failures.

use crate::blueprint::Blueprint;
use crate::config::{ids, tags};
use crate::util::{rec_str, rec_u64, record, table_get, table_keys, table_remove, table_set};
use ree_armor::{
    ArmorEvent, ArmorId, ControlOp, Element, ElementCtx, ElementOutcome, Fields, Value,
};
use ree_os::{NodeId, Pid, Signal, SpawnSpec, TextSource, TraceEvent};
use ree_sim::SimDuration;
use std::sync::Arc;

/// Number of fork-image recoveries of the same ARMOR before the daemon
/// reloads a pristine image from disk (paper §3.4 footnote: "if the ARMOR
/// repeatedly fails after being recovered in this manner, then the error
/// may reside in the daemon's text segment, requiring that the ARMOR's
/// image be reloaded from disk").
const IMAGE_RELOAD_THRESHOLD: u64 = 3;

/// Gateway duties: heartbeat replies to the FTM, route updates, and
/// registration with the FTM.
pub(crate) struct DaemonGateway {
    /// The node this daemon serves.
    pub(crate) node: NodeId,
}

impl Element for DaemonGateway {
    fn name(&self) -> &'static str {
        "gateway"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[tags::DAEMON_HB_PING, "register-with-ftm", tags::ROUTE_UPDATE, "sift-configure"]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("node", Value::U64(self.node.0 as u64));
        state.set("hb_acks_sent", Value::U64(0));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        match ev.tag {
            tags::DAEMON_HB_PING => {
                state.bump("hb_acks_sent");
                let node = state.u64("node").unwrap_or(0);
                ctx.send_unreliable(
                    ids::FTM,
                    vec![ArmorEvent::new(tags::DAEMON_HB_ACK)
                        .with("node", Value::U64(node))
                        .with("daemon", Value::U64(ctx.armor_id().0 as u64))
                        .with("seq", Value::U64(ev.u64("seq").unwrap_or(0)))],
                );
            }
            "register-with-ftm" => {
                let node = state.u64("node").unwrap_or(0);
                ctx.trace_event(
                    TraceEvent::DaemonRegistered,
                    format!("daemon on node{node} registering with FTM"),
                );
                ctx.send(
                    ids::FTM,
                    vec![ArmorEvent::new(tags::DAEMON_REGISTER)
                        .with("daemon", Value::U64(ctx.armor_id().0 as u64))
                        .with("node", Value::U64(node))],
                );
            }
            tags::ROUTE_UPDATE => {
                if let (Some(armor), Some(pid)) = (ev.u64("armor"), ev.u64("pid")) {
                    ctx.install_route(ArmorId(armor as u32), Pid(pid));
                }
            }
            "sift-configure" => {
                for (name, value) in ev.fields.iter() {
                    state.set(name, value.clone());
                }
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        match state.u64("node") {
            Some(n) if n < 64 => Ok(()),
            Some(n) => Err(format!("gateway node {n} out of range")),
            None => Err("gateway node missing".into()),
        }
    }
}

/// Installs, reinstalls, and uninstalls ARMOR processes on this node, and
/// detects their failures through `waitpid`.
pub(crate) struct DaemonInstaller {
    /// The node this daemon serves.
    pub(crate) node: NodeId,
    /// Recipes for the ARMORs it installs.
    pub(crate) blueprint: Arc<Blueprint>,
}

impl DaemonInstaller {
    fn peer_daemons(state: &Fields) -> Vec<ArmorId> {
        state
            .get("peers")
            .and_then(Value::as_list)
            .map(|l| l.iter().filter_map(|v| v.as_u64()).map(|v| ArmorId(v as u32)).collect())
            .unwrap_or_default()
    }

    /// Spawns one ARMOR process and performs the bookkeeping shared by
    /// install and reinstall: local table entry, route install, route
    /// broadcast to peer daemons, SCC notification.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::fn_params_excessive_bools)]
    fn spawn_armor(
        &self,
        state: &mut Fields,
        ctx: &mut ElementCtx<'_, '_>,
        armor: ArmorId,
        kind: &str,
        slot: u64,
        rank: u64,
        pristine: bool,
        initial: bool,
        extra_config: Vec<(&str, Value)>,
    ) -> Pid {
        let node = NodeId(state.u64("node").unwrap_or(0) as u16);
        let my_pid = ctx.os.pid();
        let behavior = self.blueprint.make_armor(kind, armor, my_pid, slot as u32, rank as u32);
        let name = self.blueprint.armor_instance_name(kind, slot as u32, rank as u32);
        let text = if pristine {
            // Reloading the executable from disk: slower, and the
            // transfer contends with application traffic.
            ctx.os.net_load(SimDuration::from_millis(700), 1.5);
            TextSource::Pristine
        } else {
            // fork()-style copy of the daemon's own image (§3.4) — this
            // propagates daemon text corruption into the recovered ARMOR.
            TextSource::CopyFrom(my_pid)
        };
        let latency = if pristine {
            Some(SimDuration::from_millis(400))
        } else if initial {
            // First-time installation does one-time configuration work
            // (part of the perceived-vs-actual gap of Table 3/Figure 5).
            Some(SimDuration::from_millis(450))
        } else {
            None
        };
        let mut spec = SpawnSpec::new(name, node, behavior).with_parent(my_pid).with_text(text);
        if let Some(l) = latency {
            spec = spec.with_latency(l);
        }
        let pid = ctx.os.spawn(spec);
        table_set(
            state,
            "local",
            &armor.0.to_string(),
            record(vec![
                ("pid", Value::U64(pid.0)),
                ("kind", Value::Str(kind.to_owned())),
                ("slot", Value::U64(slot)),
                ("rank", Value::U64(rank)),
            ]),
        );
        state.bump("installs");
        ctx.install_route(armor, pid);
        // Post-configuration of the new ARMOR.
        let mut cfg = ArmorEvent::new("sift-configure")
            .with("slot", Value::U64(slot))
            .with("rank", Value::U64(rank))
            .with("node", Value::U64(node.0 as u64));
        for (k, v) in extra_config {
            cfg = cfg.with(k, v);
        }
        ctx.os.send(pid, "armor-control", 96, ControlOp::Raise(cfg));
        // Route propagation to every peer daemon (and the SCC).
        for peer in Self::peer_daemons(state) {
            if peer != ctx.armor_id() {
                ctx.send_unreliable(
                    peer,
                    vec![ArmorEvent::new(tags::ROUTE_UPDATE)
                        .with("armor", Value::U64(armor.0 as u64))
                        .with("pid", Value::U64(pid.0))],
                );
            }
        }
        if let Some(scc) = state.u64("scc_pid").map(Pid) {
            ctx.os.send(
                scc,
                "armor-installed",
                64,
                crate::report::ArmorInstalled { armor, pid, kind: kind.to_owned() },
            );
        }
        // Tell the prober to start watching.
        ctx.raise(ArmorEvent::new("local-armor-added").with("armor", Value::U64(armor.0 as u64)));
        let event = if kind == "exec" {
            TraceEvent::ExecArmorInstalled
        } else {
            TraceEvent::ArmorInstalled
        };
        ctx.trace_event(event, format!("installed {kind} as armor{} ({pid}) on {node}", armor.0));
        pid
    }
}

impl Element for DaemonInstaller {
    fn name(&self) -> &'static str {
        "installer"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            tags::INSTALL_ARMOR,
            tags::REINSTALL_ARMOR,
            tags::UNINSTALL_ARMOR,
            "os-child-exit",
            "armor-hung",
            "sift-configure",
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("node", Value::U64(self.node.0 as u64));
        state.set("local", Value::Map(Default::default()));
        state.set("installs", Value::U64(0));
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
                for (name, value) in ev.fields.iter() {
                    state.set(name, value.clone());
                }
            }
            tags::INSTALL_ARMOR => {
                let Some(kind) = ev.str("kind") else {
                    return ElementOutcome::AbortThread("install without kind".into());
                };
                let kind = kind.to_owned();
                let armor = match kind.as_str() {
                    "ftm" => ids::FTM,
                    "heartbeat" => ids::HEARTBEAT,
                    _ => match ev.u64("armor") {
                        Some(a) => ArmorId(a as u32),
                        None => {
                            return ElementOutcome::AbortThread("exec install without id".into())
                        }
                    },
                };
                let slot = ev.u64("slot").unwrap_or(0);
                let rank = ev.u64("rank").unwrap_or(0);
                // A resubmission may re-install over a live ARMOR.
                if let Some(rec) = table_get(state, "local", &armor.0.to_string()) {
                    if let Some(old) = rec_u64(rec, "pid") {
                        if ctx.os.process_alive(Pid(old)) {
                            ctx.os.kill(Pid(old), Signal::Kill);
                        }
                    }
                }
                let mut extra = Vec::new();
                if let Some(fd) = ev.u64("ftm_daemon") {
                    extra.push(("ftm_daemon", Value::U64(fd)));
                }
                if let Some(scc) = state.u64("scc_pid") {
                    extra.push(("scc_pid", Value::U64(scc)));
                }
                let pid =
                    self.spawn_armor(state, ctx, armor, &kind, slot, rank, false, true, extra);
                // Confirm to whoever asked (the FTM for exec/heartbeat
                // ARMORs; the SCC learns through armor-installed).
                if ev.u64("requester").is_some() {
                    ctx.send(
                        ids::FTM,
                        vec![ArmorEvent::new(tags::INSTALL_ACK)
                            .with("armor", Value::U64(armor.0 as u64))
                            .with("pid", Value::U64(pid.0))
                            .with("node", Value::U64(state.u64("node").unwrap_or(0)))
                            .with("slot", Value::U64(slot))
                            .with("rank", Value::U64(rank))
                            .with("kind", Value::Str(kind))],
                    );
                }
            }
            tags::REINSTALL_ARMOR => {
                let Some(armor) = ev.u64("armor").map(|a| ArmorId(a as u32)) else {
                    return ElementOutcome::AbortThread("reinstall without armor id".into());
                };
                let key = armor.0.to_string();
                // Kill the old incarnation if it is somehow still alive.
                if let Some(rec) = table_get(state, "local", &key) {
                    if let Some(old_pid) = rec_u64(rec, "pid") {
                        if ctx.os.process_alive(Pid(old_pid)) {
                            ctx.os.kill(Pid(old_pid), Signal::Kill);
                        }
                    }
                }
                let (kind, slot, rank) = match table_get(state, "local", &key) {
                    Some(rec) => (
                        rec_str(rec, "kind").unwrap_or("exec").to_owned(),
                        rec_u64(rec, "slot").unwrap_or(0),
                        rec_u64(rec, "rank").unwrap_or(0),
                    ),
                    None => (
                        ev.str("kind").unwrap_or("exec").to_owned(),
                        ev.u64("slot").unwrap_or(0),
                        ev.u64("rank").unwrap_or(0),
                    ),
                };
                let restarts_key = format!("restarts_{}", armor.0);
                let restarts = state.bump(&restarts_key).unwrap_or(1);
                let pristine = restarts >= IMAGE_RELOAD_THRESHOLD;
                if pristine {
                    ctx.trace(format!(
                        "armor{} failed {restarts} times; reloading image from disk",
                        armor.0
                    ));
                }
                let mut extra = Vec::new();
                if let Some(fd) = ev.u64("ftm_daemon") {
                    extra.push(("ftm_daemon", Value::U64(fd)));
                }
                if let Some(scc) = state.u64("scc_pid") {
                    extra.push(("scc_pid", Value::U64(scc)));
                }
                // Recovery traffic competes with the application (§5.2).
                ctx.os.net_load(SimDuration::from_millis(650), 0.8);
                let pid =
                    self.spawn_armor(state, ctx, armor, &kind, slot, rank, pristine, false, extra);
                if let Some(requester) = ev.u64("requester").map(|r| ArmorId(r as u32)) {
                    ctx.send(
                        requester,
                        vec![ArmorEvent::new(tags::REINSTALL_ACK)
                            .with("armor", Value::U64(armor.0 as u64))
                            .with("pid", Value::U64(pid.0))
                            .with("node", Value::U64(state.u64("node").unwrap_or(0)))],
                    );
                }
            }
            tags::UNINSTALL_ARMOR => {
                let Some(armor) = ev.u64("armor") else { return ElementOutcome::Ok };
                // Remove before killing so the child-exit is not treated
                // as a failure.
                if let Some(rec) = table_remove(state, "local", &armor.to_string()) {
                    if let Some(pid) = rec_u64(&rec, "pid") {
                        if ctx.os.process_alive(Pid(pid)) {
                            ctx.os.kill(Pid(pid), Signal::Kill);
                        }
                    }
                    ctx.raise(
                        ArmorEvent::new("local-armor-removed").with("armor", Value::U64(armor)),
                    );
                    ctx.trace_event(
                        TraceEvent::ArmorUninstalled,
                        format!("uninstalled armor{armor}"),
                    );
                }
            }
            "armor-hung" => {
                // The prober found a local ARMOR unresponsive: kill it so
                // the crash path (waitpid) takes over (§3.3).
                let Some(armor) = ev.u64("armor") else { return ElementOutcome::Ok };
                if let Some(rec) = table_get(state, "local", &armor.to_string()) {
                    if let Some(pid) = rec_u64(rec, "pid") {
                        ctx.os.trace_recovery_event(
                            TraceEvent::HangDetected,
                            format!("detect hang armor{armor}"),
                        );
                        ctx.os.kill(Pid(pid), Signal::Kill);
                    }
                }
            }
            "os-child-exit" => {
                let Some(child) = ev.u64("child") else { return ElementOutcome::Ok };
                // Which local ARMOR was this?
                let mut failed: Option<u64> = None;
                if let Some(Value::Map(local)) = state.get("local") {
                    for (key, rec) in local {
                        if rec_u64(rec, "pid") == Some(child) {
                            failed = key.parse::<u64>().ok();
                            break;
                        }
                    }
                }
                let Some(armor) = failed else { return ElementOutcome::Ok };
                ctx.raise(ArmorEvent::new("local-armor-removed").with("armor", Value::U64(armor)));
                if ArmorId(armor as u32) == ids::FTM {
                    // FTM recovery is the Heartbeat ARMOR's job (§3.1);
                    // the daemon only observes.
                    ctx.trace("local FTM died; awaiting Heartbeat ARMOR recovery");
                } else {
                    ctx.os.trace_recovery_event(
                        TraceEvent::CrashDetected,
                        format!("detect crash armor{armor}"),
                    );
                    ctx.send(
                        ids::FTM,
                        vec![ArmorEvent::new(tags::ARMOR_FAILED)
                            .with("armor", Value::U64(armor))
                            .with("node", Value::U64(state.u64("node").unwrap_or(0)))],
                    );
                }
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        ree_armor::assertions::map_integrity(state, "local", |rec| {
            rec_u64(rec, "pid").map(|p| p > 0 && p < 1_000_000).unwrap_or(false)
        })
    }
}

/// Sends "Are-you-alive?" probes to local ARMORs every probe period and
/// raises `armor-hung` when one stops answering (§3.3).
pub(crate) struct LocalProber {
    /// Probe period.
    pub(crate) period: SimDuration,
}

impl Element for LocalProber {
    fn name(&self) -> &'static str {
        "prober"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            tags::ARMOR_START,
            "armor-restored",
            "probe-cycle",
            tags::ALIVE_ACK,
            "local-armor-added",
            "local-armor-removed",
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("watch", Value::Map(Default::default()));
        state.set("probes_sent", Value::U64(0));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        match ev.tag {
            tags::ARMOR_START => {
                ctx.set_timer_event(self.period, ArmorEvent::new("probe-cycle"));
            }
            "armor-restored" => {
                // Probes the predecessor sent are not pending for us.
                for key in table_keys(state, "watch") {
                    table_set(state, "watch", &key, Value::Bool(false));
                }
            }
            "probe-cycle" => {
                let watched: Vec<(String, bool)> = state
                    .get("watch")
                    .and_then(Value::as_map)
                    .map(|m| {
                        m.iter().map(|(k, v)| (k.clone(), v.as_bool().unwrap_or(false))).collect()
                    })
                    .unwrap_or_default();
                for (key, awaiting) in watched {
                    let armor: u64 = key.parse().unwrap_or(0);
                    if awaiting {
                        // No reply since the previous round: hung.
                        ctx.raise(ArmorEvent::new("armor-hung").with("armor", Value::U64(armor)));
                        table_set(state, "watch", &key, Value::Bool(false));
                    } else {
                        state.bump("probes_sent");
                        ctx.send_unreliable(
                            ArmorId(armor as u32),
                            vec![ArmorEvent::new(tags::ARE_YOU_ALIVE)
                                .with("daemon", Value::U64(ctx.armor_id().0 as u64))
                                .with("seq", Value::U64(state.u64("probes_sent").unwrap_or(0)))],
                        );
                        table_set(state, "watch", &key, Value::Bool(true));
                    }
                }
                ctx.set_timer_event(self.period, ArmorEvent::new("probe-cycle"));
            }
            tags::ALIVE_ACK => {
                if let Some(armor) = ev.u64("armor") {
                    table_set(state, "watch", &armor.to_string(), Value::Bool(false));
                }
            }
            "local-armor-added" => {
                if let Some(armor) = ev.u64("armor") {
                    table_set(state, "watch", &armor.to_string(), Value::Bool(false));
                }
            }
            "local-armor-removed" => {
                if let Some(armor) = ev.u64("armor") {
                    table_remove(state, "watch", &armor.to_string());
                }
            }
            _ => {}
        }
        ElementOutcome::Ok
    }
}
