//! The daemon ARMOR (§3.1): one per node, gateway for ARMOR-to-ARMOR
//! communication, installer of other ARMORs, and detector of local ARMOR
//! crash (via `waitpid`) and hang (via "Are-you-alive?" probes) failures.

use crate::blueprint::Blueprint;
use crate::config::{ids, tags};
use crate::util::{rec_str, rec_u64, table_get, table_remove, table_set};
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
pub const IMAGE_RELOAD_THRESHOLD: u64 = 3;

/// Gateway duties: heartbeat replies to the FTM, route updates, and
/// registration with the FTM.
#[derive(Clone)]
pub struct DaemonGateway {
    state: Fields,
}

impl DaemonGateway {
    /// Creates the gateway element for a daemon on `node`.
    pub fn new(node: NodeId) -> Self {
        let mut state = Fields::new();
        state.set("node", Value::U64(node.0 as u64));
        state.set("hb_acks_sent", Value::U64(0));
        DaemonGateway { state }
    }
}

impl Element for DaemonGateway {
    fn name(&self) -> &'static str {
        "gateway"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[tags::DAEMON_HB_PING, "register-with-ftm", tags::ROUTE_UPDATE, "sift-configure"]
    }

    fn handle(&mut self, ev: &ArmorEvent, ctx: &mut ElementCtx<'_, '_>) -> ElementOutcome {
        match ev.tag {
            tags::DAEMON_HB_PING => {
                self.state.bump("hb_acks_sent");
                let node = self.state.u64("node").unwrap_or(0);
                ctx.send_unreliable(
                    ids::FTM,
                    vec![ArmorEvent::new(tags::DAEMON_HB_ACK)
                        .with("node", Value::U64(node))
                        .with("daemon", Value::U64(ctx.armor_id().0 as u64))
                        .with("seq", Value::U64(ev.u64("seq").unwrap_or(0)))],
                );
            }
            "register-with-ftm" => {
                let node = self.state.u64("node").unwrap_or(0);
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
                    self.state.set(name, value.clone());
                }
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn state(&self) -> &Fields {
        &self.state
    }

    fn state_mut(&mut self) -> &mut Fields {
        &mut self.state
    }

    fn check(&self) -> Result<(), String> {
        match self.state.u64("node") {
            Some(n) if n < 64 => Ok(()),
            Some(n) => Err(format!("gateway node {n} out of range")),
            None => Err("gateway node missing".into()),
        }
    }
}

/// Installs, reinstalls, and uninstalls ARMOR processes on this node, and
/// detects their failures through `waitpid`.
#[derive(Clone)]
pub struct DaemonInstaller {
    state: Fields,
    blueprint: Arc<Blueprint>,
}

impl DaemonInstaller {
    /// Creates the installer element.
    pub fn new(node: NodeId, blueprint: Arc<Blueprint>) -> Self {
        let mut state = Fields::new();
        state.set("node", Value::U64(node.0 as u64));
        state.set("local", Value::Map(Default::default()));
        state.set("installs", Value::U64(0));
        DaemonInstaller { state, blueprint }
    }

    fn node(&self) -> NodeId {
        NodeId(self.state.u64("node").unwrap_or(0) as u16)
    }

    fn scc_pid(&self) -> Option<Pid> {
        self.state.u64("scc_pid").map(Pid)
    }

    fn peer_daemons(&self) -> Vec<ArmorId> {
        self.state
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
        &mut self,
        ctx: &mut ElementCtx<'_, '_>,
        armor: ArmorId,
        kind: &str,
        slot: u64,
        rank: u64,
        pristine: bool,
        initial: bool,
        extra_config: Vec<(&str, Value)>,
    ) -> Pid {
        let node = self.node();
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
            &mut self.state,
            "local",
            &armor.0.to_string(),
            crate::util::record(vec![
                ("pid", Value::U64(pid.0)),
                ("kind", Value::Str(kind.to_owned())),
                ("slot", Value::U64(slot)),
                ("rank", Value::U64(rank)),
            ]),
        );
        self.state.bump("installs");
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
        for peer in self.peer_daemons() {
            if peer != ctx.armor_id() {
                ctx.send_unreliable(
                    peer,
                    vec![ArmorEvent::new(tags::ROUTE_UPDATE)
                        .with("armor", Value::U64(armor.0 as u64))
                        .with("pid", Value::U64(pid.0))],
                );
            }
        }
        if let Some(scc) = self.scc_pid() {
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

    fn handle(&mut self, ev: &ArmorEvent, ctx: &mut ElementCtx<'_, '_>) -> ElementOutcome {
        match ev.tag {
            "sift-configure" => {
                for (name, value) in ev.fields.iter() {
                    self.state.set(name, value.clone());
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
                if let Some(rec) = table_get(&self.state, "local", &armor.0.to_string()) {
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
                if let Some(scc) = self.state.u64("scc_pid") {
                    extra.push(("scc_pid", Value::U64(scc)));
                }
                let pid = self.spawn_armor(ctx, armor, &kind, slot, rank, false, true, extra);
                // Confirm to whoever asked (the FTM for exec/heartbeat
                // ARMORs; the SCC learns through armor-installed).
                if ev.u64("requester").is_some() {
                    ctx.send(
                        ids::FTM,
                        vec![ArmorEvent::new(tags::INSTALL_ACK)
                            .with("armor", Value::U64(armor.0 as u64))
                            .with("pid", Value::U64(pid.0))
                            .with("node", Value::U64(self.state.u64("node").unwrap_or(0)))
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
                if let Some(rec) = table_get(&self.state, "local", &key) {
                    if let Some(old_pid) = rec_u64(rec, "pid") {
                        if ctx.os.process_alive(Pid(old_pid)) {
                            ctx.os.kill(Pid(old_pid), Signal::Kill);
                        }
                    }
                }
                let (kind, slot, rank) = match table_get(&self.state, "local", &key) {
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
                let restarts = self.state.bump(&restarts_key).unwrap_or(1);
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
                if let Some(scc) = self.state.u64("scc_pid") {
                    extra.push(("scc_pid", Value::U64(scc)));
                }
                // Recovery traffic competes with the application (§5.2).
                ctx.os.net_load(SimDuration::from_millis(650), 0.8);
                let pid = self.spawn_armor(ctx, armor, &kind, slot, rank, pristine, false, extra);
                if let Some(requester) = ev.u64("requester").map(|r| ArmorId(r as u32)) {
                    ctx.send(
                        requester,
                        vec![ArmorEvent::new(tags::REINSTALL_ACK)
                            .with("armor", Value::U64(armor.0 as u64))
                            .with("pid", Value::U64(pid.0))
                            .with("node", Value::U64(self.state.u64("node").unwrap_or(0)))],
                    );
                }
            }
            tags::UNINSTALL_ARMOR => {
                let Some(armor) = ev.u64("armor") else { return ElementOutcome::Ok };
                // Remove before killing so the child-exit is not treated
                // as a failure.
                if let Some(rec) = table_remove(&mut self.state, "local", &armor.to_string()) {
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
                if let Some(rec) = table_get(&self.state, "local", &armor.to_string()) {
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
                if let Some(Value::Map(local)) = self.state.get("local") {
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
                            .with("node", Value::U64(self.state.u64("node").unwrap_or(0)))],
                    );
                }
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn state(&self) -> &Fields {
        &self.state
    }

    fn state_mut(&mut self) -> &mut Fields {
        &mut self.state
    }

    fn check(&self) -> Result<(), String> {
        ree_armor::assertions::map_integrity(&self.state, "local", |rec| {
            rec_u64(rec, "pid").map(|p| p > 0 && p < 1_000_000).unwrap_or(false)
        })
    }
}

fn table_keys_local(fields: &Fields, table: &str) -> Vec<String> {
    crate::util::table_keys(fields, table)
}

/// Sends "Are-you-alive?" probes to local ARMORs every probe period and
/// raises `armor-hung` when one stops answering (§3.3).
#[derive(Clone)]
pub struct LocalProber {
    state: Fields,
    period: SimDuration,
}

impl LocalProber {
    /// Creates the prober with the configured probe period.
    pub fn new(period: SimDuration) -> Self {
        let mut state = Fields::new();
        state.set("watch", Value::Map(Default::default()));
        state.set("probes_sent", Value::U64(0));
        LocalProber { state, period }
    }
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

    fn handle(&mut self, ev: &ArmorEvent, ctx: &mut ElementCtx<'_, '_>) -> ElementOutcome {
        match ev.tag {
            tags::ARMOR_START => {
                ctx.set_timer_event(self.period, ArmorEvent::new("probe-cycle"));
            }
            "armor-restored" => {
                // Probes the predecessor sent are not pending for us.
                for key in table_keys_local(&self.state, "watch") {
                    table_set(&mut self.state, "watch", &key, Value::Bool(false));
                }
            }
            "probe-cycle" => {
                let watched: Vec<(String, bool)> = self
                    .state
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
                        table_set(&mut self.state, "watch", &key, Value::Bool(false));
                    } else {
                        self.state.bump("probes_sent");
                        ctx.send_unreliable(
                            ArmorId(armor as u32),
                            vec![ArmorEvent::new(tags::ARE_YOU_ALIVE)
                                .with("daemon", Value::U64(ctx.armor_id().0 as u64))
                                .with(
                                    "seq",
                                    Value::U64(self.state.u64("probes_sent").unwrap_or(0)),
                                )],
                        );
                        table_set(&mut self.state, "watch", &key, Value::Bool(true));
                    }
                }
                ctx.set_timer_event(self.period, ArmorEvent::new("probe-cycle"));
            }
            tags::ALIVE_ACK => {
                if let Some(armor) = ev.u64("armor") {
                    table_set(&mut self.state, "watch", &armor.to_string(), Value::Bool(false));
                }
            }
            "local-armor-added" => {
                if let Some(armor) = ev.u64("armor") {
                    table_set(&mut self.state, "watch", &armor.to_string(), Value::Bool(false));
                }
            }
            "local-armor-removed" => {
                if let Some(armor) = ev.u64("armor") {
                    table_remove(&mut self.state, "watch", &armor.to_string());
                }
            }
            _ => {}
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
