//! The Fault Tolerance Manager (§3.1): interfaces with the SCC, tracks
//! nodes and subordinate ARMORs, installs Execution ARMORs, and recovers
//! from ARMOR, node, and application failures.
//!
//! The element split follows Table 8 exactly: `mgr_armor_info`,
//! `exec_armor_info`, `app_param`, `mgr_app_detect`, and `node_mgmt` are
//! separate elements with their own private state, checkpoint regions,
//! and assertions — they are the targets of the §7.2 heap-injection
//! campaign.

use crate::config::{ids, tags};
use crate::report::SccReport;
use crate::util::{
    rec_bool, rec_set, rec_str, rec_u64, record, table_get, table_keys, table_remove, table_set,
};
use ree_armor::{
    valid_ptr, ArmorEvent, ArmorId, Element, ElementCtx, ElementOutcome, Fields, Value,
};
use ree_os::{Pid, TraceEvent};
use ree_sim::SimDuration;

/// Most MPI ranks one application slot may have: the size of the
/// Execution-ARMOR table a slot's ranks index into. `app_param` asserts
/// it, and a walk over a slot's ranks never goes past it.
const MAX_RANKS: u64 = 16;

/// Answers the Heartbeat ARMOR's liveness polls.
pub(crate) struct FtmHbResponder;

impl Element for FtmHbResponder {
    fn name(&self) -> &'static str {
        "hb_responder"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[tags::FTM_HB_PING]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("acks_sent", Value::U64(0));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        state.bump("acks_sent");
        ctx.send_unreliable(
            ids::HEARTBEAT,
            vec![ArmorEvent::new(tags::FTM_HB_ACK)
                .with("seq", Value::U64(ev.u64("seq").unwrap_or(0)))],
        );
        ElementOutcome::Ok
    }
}

/// The SCC interface element: accepts submissions, reports status back
/// (FTM responsibilities 1 and 8 in §3.1).
pub(crate) struct SccIface;

impl SccIface {
    fn scc(state: &Fields) -> Option<Pid> {
        match state.u64("scc_pid") {
            Some(0) | None => None,
            Some(p) => Some(Pid(p)),
        }
    }
}

impl Element for SccIface {
    fn name(&self) -> &'static str {
        "scc_iface"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            "armor-restored",
            tags::SUBMIT_APP,
            "app-started-info",
            tags::APP_COMPLETE,
            "report-complete",
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("jobs", Value::Map(Default::default()));
        state.set("scc_pid", Value::U64(0));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        match ev.tag {
            "armor-restored" => {
                // After a recovery, in-flight timers died with the old
                // process; re-derive pending takedown reports from the
                // restored state.
                for key in table_keys(state, "jobs") {
                    let completing = table_get(state, "jobs", &key)
                        .and_then(|r| rec_str(r, "phase").map(|p| p == "completing"))
                        .unwrap_or(false);
                    if completing {
                        let slot: u64 = key.parse().unwrap_or(0);
                        ctx.set_timer_event(
                            SimDuration::from_millis(900),
                            ArmorEvent::new("report-complete").with("slot", Value::U64(slot)),
                        );
                    }
                }
            }
            tags::SUBMIT_APP => {
                let Some(app) = ev.str("app") else {
                    return ElementOutcome::AbortThread("submission without app".into());
                };
                let slot = ev.u64("slot").unwrap_or(0);
                if let Some(scc) = ev.u64("scc_pid") {
                    state.set("scc_pid", Value::U64(scc));
                }
                table_set(
                    state,
                    "jobs",
                    &slot.to_string(),
                    record(vec![
                        ("app", Value::Str(app.to_owned())),
                        ("started", Value::Bool(false)),
                        ("phase", Value::Str("accepted".into())),
                    ]),
                );
                ctx.trace_event(
                    TraceEvent::SubmissionAccepted,
                    format!("FTM accepted submission of {app} (slot {slot})"),
                );
                // Fan the submission out to the bookkeeping elements.
                let mut accepted = ArmorEvent::new("app-submit-accepted");
                accepted.fields = ev.fields.clone();
                ctx.raise(accepted);
            }
            "app-started-info" => {
                let slot = ev.u64("slot").unwrap_or(0);
                let attempt = ev.u64("attempt").unwrap_or(0);
                let key = slot.to_string();
                let already = table_get(state, "jobs", &key)
                    .and_then(|r| rec_bool(r, "started"))
                    .unwrap_or(false);
                rec_set(state, "jobs", &key, "started", Value::Bool(true));
                if !already {
                    if let Some(scc) = Self::scc(state) {
                        ctx.os.send(scc, "scc-report", 64, SccReport::Started { slot, attempt });
                    }
                } else if attempt > 0 {
                    if let Some(scc) = Self::scc(state) {
                        ctx.os.send(scc, "scc-report", 64, SccReport::Restarted { slot, attempt });
                    }
                }
            }
            tags::APP_COMPLETE => {
                let slot = ev.u64("slot").unwrap_or(0);
                rec_set(state, "jobs", &slot.to_string(), "phase", Value::Str("completing".into()));
                if let Some(scc) = Self::scc(state) {
                    let end_us = ev.u64("end_us").unwrap_or(0);
                    ctx.os.send(scc, "scc-report", 64, SccReport::Ended { slot, end_us });
                }
                // Table 1 step 13: uninstall the Execution ARMORs first,
                // then report to the SCC once takedown settles.
                ctx.set_timer_event(
                    SimDuration::from_millis(900),
                    ArmorEvent::new("report-complete").with("slot", Value::U64(slot)),
                );
            }
            "report-complete" => {
                let slot = ev.u64("slot").unwrap_or(0);
                table_remove(state, "jobs", &slot.to_string());
                ctx.trace(format!("FTM reports slot {slot} complete to SCC"));
                if let Some(scc) = Self::scc(state) {
                    ctx.os.send(scc, "scc-report", 64, SccReport::Completed { slot });
                }
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        ree_armor::assertions::range_check(state, "scc_pid", 0, 1_000_000)
    }
}

/// `mgr_armor_info` (Table 8): "stores information about subordinate
/// ARMORs such as location and element composition". Owns subordinate
/// recovery (FTM responsibilities 4–6).
pub(crate) struct MgrArmorInfo;

impl MgrArmorInfo {
    #[allow(clippy::too_many_arguments)]
    fn register(
        state: &mut Fields,
        armor: u64,
        kind: &str,
        node: u64,
        pid: u64,
        slot: u64,
        rank: u64,
        status: &str,
    ) {
        table_set(
            state,
            "armors",
            &armor.to_string(),
            record(vec![
                ("kind", Value::Str(kind.to_owned())),
                ("node", Value::U64(node)),
                ("pid", Value::U64(pid)),
                ("slot", Value::U64(slot)),
                ("rank", Value::U64(rank)),
                ("status", Value::Str(status.to_owned())),
            ]),
        );
    }
}

impl Element for MgrArmorInfo {
    fn name(&self) -> &'static str {
        "mgr_armor_info"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            "app-submit-accepted",
            tags::INSTALL_ACK,
            tags::REINSTALL_ACK,
            tags::ARMOR_FAILED,
            tags::APP_COMPLETE,
            tags::NODE_FAILED,
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("armors", Value::Map(Default::default()));
        state.set("link", valid_ptr(5));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        match ev.tag {
            "app-submit-accepted" => {
                let slot = ev.u64("slot").unwrap_or(0);
                let nodes: Vec<u64> = ev
                    .fields
                    .get("nodes")
                    .and_then(Value::as_list)
                    .map(|l| l.iter().filter_map(|v| v.as_u64()).collect())
                    .unwrap_or_default();
                for (rank, node) in nodes.iter().enumerate() {
                    let armor = ids::exec(slot as u32, rank as u32);
                    // Figure 10 fix: add the Execution ARMOR to the table
                    // *before* instructing the daemon.
                    Self::register(
                        state,
                        armor.0 as u64,
                        "exec",
                        *node,
                        0,
                        slot,
                        rank as u64,
                        "installing",
                    );
                    ctx.raise(
                        ArmorEvent::new("need-install")
                            .with("armor", Value::U64(armor.0 as u64))
                            .with("kind", Value::Str("exec".into()))
                            .with("node", Value::U64(*node))
                            .with("slot", Value::U64(slot))
                            .with("rank", Value::U64(rank as u64)),
                    );
                }
            }
            tags::INSTALL_ACK => {
                let armor = ev.u64("armor").unwrap_or(0);
                let kind = ev.str("kind").unwrap_or("exec").to_owned();
                let node = ev.u64("node").unwrap_or(0);
                let pid = ev.u64("pid").unwrap_or(0);
                let slot = ev.u64("slot").unwrap_or(0);
                let rank = ev.u64("rank").unwrap_or(0);
                Self::register(state, armor, &kind, node, pid, slot, rank, "up");
                if kind == "exec" {
                    ctx.raise(
                        ArmorEvent::new("exec-installed")
                            .with("slot", Value::U64(slot))
                            .with("rank", Value::U64(rank))
                            .with("armor", Value::U64(armor))
                            .with("pid", Value::U64(pid)),
                    );
                }
            }
            tags::REINSTALL_ACK => {
                let armor = ev.u64("armor").unwrap_or(0);
                let key = armor.to_string();
                if let Some(rec) = table_get(state, "armors", &key) {
                    let kind = rec_str(rec, "kind").unwrap_or("").to_owned();
                    let slot = rec_u64(rec, "slot").unwrap_or(0);
                    let rank = rec_u64(rec, "rank").unwrap_or(0);
                    let pid = ev.u64("pid").unwrap_or(0);
                    rec_set(state, "armors", &key, "pid", Value::U64(pid));
                    rec_set(state, "armors", &key, "status", Value::Str("up".into()));
                    if kind == "exec" {
                        // Keep exec_armor_info's pid table fresh so a
                        // later relaunch hands the application live SIFT
                        // endpoints.
                        ctx.raise(
                            ArmorEvent::new("exec-installed")
                                .with("slot", Value::U64(slot))
                                .with("rank", Value::U64(rank))
                                .with("armor", Value::U64(armor))
                                .with("pid", Value::U64(pid)),
                        );
                    }
                }
            }
            tags::ARMOR_FAILED => {
                let armor = ev.u64("armor").unwrap_or(0);
                let key = armor.to_string();
                let Some(rec) = table_get(state, "armors", &key) else {
                    // An ARMOR the table does not know (Figure 10's race,
                    // which registering before the install closes, or a
                    // corrupted table): the handling thread aborts and
                    // the ARMOR is never recovered.
                    return ElementOutcome::AbortThread(format!(
                        "armor-failed for unknown armor{armor}"
                    ));
                };
                let kind = rec_str(rec, "kind").unwrap_or("exec").to_owned();
                let node = rec_u64(rec, "node").unwrap_or(0);
                let slot = rec_u64(rec, "slot").unwrap_or(0);
                let rank = rec_u64(rec, "rank").unwrap_or(0);
                rec_set(state, "armors", &key, "status", Value::Str("recovering".into()));
                ctx.raise(
                    ArmorEvent::new("need-reinstall")
                        .with("armor", Value::U64(armor))
                        .with("kind", Value::Str(kind))
                        .with("node", Value::U64(node))
                        .with("slot", Value::U64(slot))
                        .with("rank", Value::U64(rank)),
                );
            }
            tags::APP_COMPLETE => {
                let slot = ev.u64("slot").unwrap_or(0);
                // Uninstall the slot's Execution ARMORs (Table 1 step 13).
                for key in table_keys(state, "armors") {
                    let Some(rec) = table_get(state, "armors", &key) else { continue };
                    if rec_str(rec, "kind") == Some("exec") && rec_u64(rec, "slot") == Some(slot) {
                        let armor = key.parse::<u64>().unwrap_or(0);
                        let node = rec_u64(rec, "node").unwrap_or(0);
                        ctx.raise(
                            ArmorEvent::new("need-uninstall")
                                .with("armor", Value::U64(armor))
                                .with("node", Value::U64(node)),
                        );
                        table_remove(state, "armors", &key);
                    }
                }
            }
            tags::NODE_FAILED => {
                let node = ev.u64("node").unwrap_or(0);
                let alive: Vec<u64> = ev
                    .fields
                    .get("alive_nodes")
                    .and_then(Value::as_list)
                    .map(|l| l.iter().filter_map(|v| v.as_u64()).collect())
                    .unwrap_or_default();
                // Migrate subordinate ARMORs off the dead node (§3.4).
                for key in table_keys(state, "armors") {
                    let Some(rec) = table_get(state, "armors", &key) else { continue };
                    if rec_u64(rec, "node") != Some(node) {
                        continue;
                    }
                    let armor = key.parse::<u64>().unwrap_or(0);
                    let kind = rec_str(rec, "kind").unwrap_or("exec").to_owned();
                    let slot = rec_u64(rec, "slot").unwrap_or(0);
                    let rank = rec_u64(rec, "rank").unwrap_or(0);
                    let Some(new_node) = alive.first().copied() else { continue };
                    rec_set(state, "armors", &key, "node", Value::U64(new_node));
                    ctx.os.trace_recovery(format!(
                        "migrating armor{armor} ({kind}) to node{new_node}"
                    ));
                    ctx.raise(
                        ArmorEvent::new("need-reinstall")
                            .with("armor", Value::U64(armor))
                            .with("kind", Value::Str(kind))
                            .with("node", Value::U64(new_node))
                            .with("slot", Value::U64(slot))
                            .with("rank", Value::U64(rank)),
                    );
                }
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        ree_armor::assertions::map_integrity(state, "armors", |rec| {
            rec_u64(rec, "node").map(|n| n < 64).unwrap_or(false)
                && rec_u64(rec, "pid").map(|p| p < 1_000_000).unwrap_or(false)
                && matches!(rec_str(rec, "kind"), Some("exec") | Some("heartbeat") | Some("ftm"))
                && matches!(
                    rec_str(rec, "status"),
                    Some("installing") | Some("up") | Some("recovering")
                )
        })
    }
}

/// `exec_armor_info` (Table 8): "stores information about each Execution
/// ARMOR such as status of subordinate application".
pub(crate) struct ExecArmorInfo;

impl ExecArmorInfo {
    fn slot_table(state: &Fields, slot: u64) -> Vec<(u64, u64, u64)> {
        // (rank, armor, pid) triples, sorted by rank.
        let mut out = Vec::new();
        if let Some(Value::Map(slots)) = state.get("slots") {
            if let Some(Value::Map(ranks)) = slots.get(&slot.to_string()) {
                for (rank, rec) in ranks {
                    let rank: u64 = rank.parse().unwrap_or(0);
                    let armor = rec_u64(rec, "armor").unwrap_or(0);
                    let pid = rec_u64(rec, "pid").unwrap_or(0);
                    out.push((rank, armor, pid));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn set_rank(state: &mut Fields, slot: u64, rank: u64, armor: u64, pid: u64) {
        let slot_key = slot.to_string();
        // Ensure the nested map exists.
        if table_get(state, "slots", &slot_key).is_none() {
            table_set(state, "slots", &slot_key, Value::Map(Default::default()));
        }
        if let Some(Value::Map(slots)) = state.get_mut("slots") {
            if let Some(Value::Map(ranks)) = slots.get_mut(&slot_key) {
                ranks.insert(
                    rank.to_string(),
                    record(vec![("armor", Value::U64(armor)), ("pid", Value::U64(pid))]),
                );
            }
        }
    }

    fn maybe_slot_ready(state: &Fields, slot: u64, ctx: &mut ElementCtx<'_, '_>) {
        let expected =
            table_get(state, "expected", &slot.to_string()).and_then(Value::as_u64).unwrap_or(0);
        let table = Self::slot_table(state, slot);
        if expected > 0 && table.len() as u64 == expected && table.iter().all(|(_, _, p)| *p > 0) {
            let exec_pids: Vec<Value> = table.iter().map(|(_, _, p)| Value::U64(*p)).collect();
            let exec_armors: Vec<Value> = table.iter().map(|(_, a, _)| Value::U64(*a)).collect();
            ctx.raise(
                ArmorEvent::new("slot-ready")
                    .with("slot", Value::U64(slot))
                    .with("exec_pids", Value::List(exec_pids))
                    .with("exec_armors", Value::List(exec_armors)),
            );
        }
    }
}

impl Element for ExecArmorInfo {
    fn name(&self) -> &'static str {
        "exec_armor_info"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            "app-submit-accepted",
            "exec-installed",
            tags::APP_STARTED,
            tags::RANK_PID,
            tags::APP_COMPLETE,
            "app-relaunching",
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("slots", Value::Map(Default::default()));
        state.set("expected", Value::Map(Default::default()));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        match ev.tag {
            "app-submit-accepted" => {
                let slot = ev.u64("slot").unwrap_or(0);
                let ranks = ev.u64("ranks").unwrap_or(1);
                table_set(state, "expected", &slot.to_string(), Value::U64(ranks));
            }
            "exec-installed" => {
                let slot = ev.u64("slot").unwrap_or(0);
                let rank = ev.u64("rank").unwrap_or(0);
                let armor = ev.u64("armor").unwrap_or(0);
                let pid = ev.u64("pid").unwrap_or(0);
                Self::set_rank(state, slot, rank, armor, pid);
                Self::maybe_slot_ready(state, slot, ctx);
            }
            tags::APP_STARTED => {
                let slot = ev.u64("slot").unwrap_or(0);
                let attempt = ev.u64("attempt").unwrap_or(0);
                ctx.raise(
                    ArmorEvent::new("app-started-info")
                        .with("slot", Value::U64(slot))
                        .with("attempt", Value::U64(attempt)),
                );
            }
            tags::RANK_PID => {
                // Forward the pid to the owning Execution ARMOR (Table 1
                // step 6 → 7).
                let slot = ev.u64("slot").unwrap_or(0);
                let rank = ev.u64("rank").unwrap_or(0);
                let pid = ev.u64("pid").unwrap_or(0);
                let table = Self::slot_table(state, slot);
                if let Some((_, armor, _)) = table.iter().find(|(r, _, _)| *r == rank) {
                    ctx.send(
                        ArmorId(*armor as u32),
                        vec![ArmorEvent::new(tags::YOUR_RANK_PID).with("pid", Value::U64(pid))],
                    );
                }
            }
            tags::APP_COMPLETE => {
                let slot = ev.u64("slot").unwrap_or(0);
                table_remove(state, "slots", &slot.to_string());
                table_remove(state, "expected", &slot.to_string());
            }
            "app-relaunching" => {
                let slot = ev.u64("slot").unwrap_or(0);
                Self::maybe_slot_ready(state, slot, ctx);
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        ree_armor::assertions::map_integrity(state, "expected", |v| {
            v.as_u64().map(|n| (1..=16).contains(&n)).unwrap_or(false)
        })
    }
}

/// `app_param` (Table 8): "stores information about application such as
/// executable name, command-line arguments, and number of times
/// application restarted". Read-mostly after submission — which is why
/// the paper found it insensitive to error propagation.
pub(crate) struct AppParam;

impl Element for AppParam {
    fn name(&self) -> &'static str {
        "app_param"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            "armor-restored",
            "app-submit-accepted",
            "slot-ready",
            "app-restart-needed",
            "relaunch-timer",
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("apps", Value::Map(Default::default()));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        match ev.tag {
            "armor-restored" => {
                // Recovery: a relaunch that was pending when the old FTM
                // died must be re-armed from the restored state.
                for key in table_keys(state, "apps") {
                    let pending = table_get(state, "apps", &key)
                        .and_then(|r| rec_bool(r, "pending_relaunch"))
                        .unwrap_or(false);
                    if pending {
                        let slot: u64 = key.parse().unwrap_or(0);
                        ctx.set_timer_event(
                            SimDuration::from_millis(600),
                            ArmorEvent::new("relaunch-timer").with("slot", Value::U64(slot)),
                        );
                    }
                }
            }
            "app-submit-accepted" => {
                let slot = ev.u64("slot").unwrap_or(0);
                let app = ev.str("app").unwrap_or("unknown").to_owned();
                let ranks = ev.u64("ranks").unwrap_or(1);
                let nodes = ev.fields.get("nodes").cloned().unwrap_or(Value::List(vec![]));
                table_set(
                    state,
                    "apps",
                    &slot.to_string(),
                    record(vec![
                        ("app", Value::Str(app.clone())),
                        ("exe", Value::Str(format!("/rfs/bin/{app}"))),
                        ("args", Value::Str(format!("--input /rfs/images/{app}.img"))),
                        ("ranks", Value::U64(ranks)),
                        ("nodes", nodes),
                        ("restart_count", Value::U64(0)),
                        ("pending_relaunch", Value::Bool(false)),
                        ("awaiting_launch", Value::Bool(true)),
                    ]),
                );
            }
            "slot-ready" => {
                // All Execution ARMORs are up: launch the MPI application
                // through the rank-0 ARMOR (Table 1 step 4). Guarded so a
                // mid-run Execution-ARMOR reinstall (which refreshes the
                // pid table and re-derives slot-ready) cannot double-launch.
                let slot = ev.u64("slot").unwrap_or(0);
                let key = slot.to_string();
                let Some(rec) = table_get(state, "apps", &key) else {
                    return ElementOutcome::AbortThread(format!(
                        "slot-ready for unknown slot {slot}"
                    ));
                };
                if !rec_bool(rec, "awaiting_launch").unwrap_or(true) {
                    return ElementOutcome::Ok;
                }
                let app = rec_str(rec, "app").unwrap_or("unknown").to_owned();
                let ranks = rec_u64(rec, "ranks").unwrap_or(1);
                let attempt = rec_u64(rec, "restart_count").unwrap_or(0);
                let nodes = rec
                    .as_map()
                    .and_then(|m| m.get("nodes"))
                    .cloned()
                    .unwrap_or(Value::List(vec![]));
                let exec_pids = ev.fields.get("exec_pids").cloned().unwrap_or(Value::List(vec![]));
                rec_set(state, "apps", &key, "pending_relaunch", Value::Bool(false));
                rec_set(state, "apps", &key, "awaiting_launch", Value::Bool(false));
                let target = ids::exec(slot as u32, 0);
                ctx.send(
                    target,
                    vec![ArmorEvent::new(tags::LAUNCH_APP)
                        .with("app", Value::Str(app))
                        .with("ranks", Value::U64(ranks))
                        .with("attempt", Value::U64(attempt))
                        .with("nodes", nodes)
                        .with("exec_pids", exec_pids)],
                );
            }
            "app-restart-needed" => {
                let slot = ev.u64("slot").unwrap_or(0);
                let key = slot.to_string();
                let Some(rec) = table_get(state, "apps", &key) else {
                    return ElementOutcome::Ok;
                };
                let ranks = rec_u64(rec, "ranks").unwrap_or(1);
                if ranks > MAX_RANKS {
                    // A corrupted count walks off the Execution-ARMOR
                    // table: the §7.2 corrupted-pointer segfault, here
                    // and not after `ranks` stop messages (the
                    // post-handle assertion runs too late to bound one
                    // handler).
                    return ElementOutcome::Crash(format!(
                        "slot {slot}: rank walk past the exec-ARMOR table (ranks={ranks})"
                    ));
                }
                let restart = rec_u64(rec, "restart_count").unwrap_or(0) + 1;
                rec_set(state, "apps", &key, "restart_count", Value::U64(restart));
                rec_set(state, "apps", &key, "pending_relaunch", Value::Bool(true));
                ctx.trace(format!("FTM restarting app slot {slot} (restart #{restart})"));
                // Stop every rank, then relaunch after a short settle.
                for rank in 0..ranks {
                    ctx.send(
                        ids::exec(slot as u32, rank as u32),
                        vec![ArmorEvent::new(tags::STOP_APP).with("slot", Value::U64(slot))],
                    );
                }
                ctx.set_timer_event(
                    SimDuration::from_millis(400),
                    ArmorEvent::new("relaunch-timer").with("slot", Value::U64(slot)),
                );
            }
            "relaunch-timer" => {
                let slot = ev.u64("slot").unwrap_or(0);
                rec_set(state, "apps", &slot.to_string(), "awaiting_launch", Value::Bool(true));
                // Reset the completion bookkeeping, then re-derive
                // slot-ready from exec_armor_info.
                ctx.raise(ArmorEvent::new("app-relaunching").with("slot", Value::U64(slot)));
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        ree_armor::assertions::map_integrity(state, "apps", |rec| {
            rec_u64(rec, "ranks").map(|r| (1..=MAX_RANKS).contains(&r)).unwrap_or(false)
                && rec_u64(rec, "restart_count").map(|r| r < 50).unwrap_or(false)
        })
    }
}

/// `mgr_app_detect` (Table 8): "used to detect that all processes for MPI
/// application have terminated and to initiate recovery if necessary".
pub(crate) struct MgrAppDetect;

impl Element for MgrAppDetect {
    fn name(&self) -> &'static str {
        "mgr_app_detect"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            "app-submit-accepted",
            tags::APP_TERMINATED,
            tags::APP_FAILED,
            "app-relaunching",
            tags::NODE_FAILED,
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("slots", Value::Map(Default::default()));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        match ev.tag {
            "app-submit-accepted" => {
                let slot = ev.u64("slot").unwrap_or(0);
                let ranks = ev.u64("ranks").unwrap_or(1);
                table_set(
                    state,
                    "slots",
                    &slot.to_string(),
                    record(vec![
                        ("expected", Value::U64(ranks)),
                        ("done_mask", Value::U64(0)),
                        ("last_end_us", Value::U64(0)),
                        ("restarting", Value::Bool(false)),
                    ]),
                );
            }
            tags::APP_TERMINATED => {
                let slot = ev.u64("slot").unwrap_or(0);
                let rank = ev.u64("rank").unwrap_or(0);
                let key = slot.to_string();
                let Some(rec) = table_get(state, "slots", &key) else {
                    return ElementOutcome::Ok;
                };
                if rec_bool(rec, "restarting").unwrap_or(false) {
                    return ElementOutcome::Ok;
                }
                let expected = rec_u64(rec, "expected").unwrap_or(1);
                let mask = rec_u64(rec, "done_mask").unwrap_or(0) | (1u64 << rank.min(63));
                let end =
                    rec_u64(rec, "last_end_us").unwrap_or(0).max(ev.u64("at_us").unwrap_or(0));
                rec_set(state, "slots", &key, "done_mask", Value::U64(mask));
                rec_set(state, "slots", &key, "last_end_us", Value::U64(end));
                if mask.count_ones() as u64 >= expected {
                    table_remove(state, "slots", &key);
                    ctx.raise(
                        ArmorEvent::new(tags::APP_COMPLETE)
                            .with("slot", Value::U64(slot))
                            .with("end_us", Value::U64(end)),
                    );
                }
            }
            tags::APP_FAILED => {
                let slot = ev.u64("slot").unwrap_or(0);
                let key = slot.to_string();
                let Some(rec) = table_get(state, "slots", &key) else {
                    return ElementOutcome::Ok;
                };
                if rec_bool(rec, "restarting").unwrap_or(false) {
                    return ElementOutcome::Ok;
                }
                rec_set(state, "slots", &key, "restarting", Value::Bool(true));
                rec_set(state, "slots", &key, "done_mask", Value::U64(0));
                ctx.raise(ArmorEvent::new("app-restart-needed").with("slot", Value::U64(slot)));
            }
            "app-relaunching" => {
                let slot = ev.u64("slot").unwrap_or(0);
                let key = slot.to_string();
                rec_set(state, "slots", &key, "restarting", Value::Bool(false));
                rec_set(state, "slots", &key, "done_mask", Value::U64(0));
            }
            tags::NODE_FAILED => {
                // Any application with a rank on the failed node must be
                // restarted (its process and Execution ARMOR are gone).
                for key in table_keys(state, "slots") {
                    let Some(rec) = table_get(state, "slots", &key) else { continue };
                    if rec_bool(rec, "restarting").unwrap_or(false) {
                        continue;
                    }
                    rec_set(state, "slots", &key, "restarting", Value::Bool(true));
                    let slot: u64 = key.parse().unwrap_or(0);
                    ctx.raise(ArmorEvent::new("app-restart-needed").with("slot", Value::U64(slot)));
                }
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        ree_armor::assertions::map_integrity(state, "slots", |rec| {
            let expected = rec_u64(rec, "expected");
            let mask = rec_u64(rec, "done_mask");
            let restarting = rec_bool_or(rec, "restarting", false);
            match (expected, mask) {
                (Some(e), Some(m)) if (1..=16).contains(&e) => {
                    // Structure integrity: the done mask can only contain
                    // expected ranks, and a restarting slot has no
                    // terminations recorded yet.
                    m < (1u64 << e) && (!restarting || m == 0)
                }
                _ => false,
            }
        })
    }
}

/// `node_mgmt` (Table 8): "stores information about the nodes, including
/// the resident daemon and hostname". Translates hostnames to daemon IDs
/// for every install/reinstall/uninstall — returning the **default daemon
/// ID of zero** when translation fails, which the FTM does not validate
/// (the paper's §7.2 propagation bug, kept deliberately).
pub(crate) struct NodeMgmt;

impl NodeMgmt {
    /// Hostname → daemon-ID translation with the paper's unchecked
    /// default of 0 on failure. The table stores hostname *strings* (as
    /// the real element did); a bit flip inside a hostname makes the
    /// lookup miss and the translation silently return daemon 0 — the
    /// exact §7.2 mechanism behind "unable to install Execution ARMORs".
    fn translate(state: &Fields, node: u64) -> u64 {
        let want = format!("node{node}");
        if let Some(Value::Map(hosts)) = state.get("hosts") {
            for rec in hosts.values() {
                if rec_str(rec, "host") == Some(want.as_str()) {
                    return rec_u64(rec, "daemon").unwrap_or(0);
                }
            }
        }
        0
    }
}

fn rec_bool_or(rec: &Value, field: &str, default: bool) -> bool {
    rec_bool(rec, field).unwrap_or(default)
}

impl Element for NodeMgmt {
    fn name(&self) -> &'static str {
        "node_mgmt"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            "sift-configure",
            tags::DAEMON_REGISTER,
            "need-install",
            "need-reinstall",
            "need-uninstall",
            tags::NODE_FAILED,
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("hosts", Value::Map(Default::default()));
        state.set("daemons", Value::Map(Default::default()));
        state.set("hb_installed", Value::Bool(false));
        state.set("ftm_node", Value::U64(0));
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
                if let Some(node) = ev.u64("node") {
                    state.set("ftm_node", Value::U64(node));
                }
            }
            tags::DAEMON_REGISTER => {
                let daemon = ev.u64("daemon").unwrap_or(0);
                let node = ev.u64("node").unwrap_or(0);
                table_set(
                    state,
                    "hosts",
                    &node.to_string(),
                    record(vec![
                        ("host", Value::Str(format!("node{node}"))),
                        ("daemon", Value::U64(daemon)),
                    ]),
                );
                table_set(
                    state,
                    "daemons",
                    &daemon.to_string(),
                    record(vec![("node", Value::U64(node)), ("alive", Value::Bool(true))]),
                );
                ctx.raise(
                    ArmorEvent::new("daemon-registered")
                        .with("daemon", Value::U64(daemon))
                        .with("node", Value::U64(node)),
                );
                // Table 1 step 1c: install the Heartbeat ARMOR via the
                // first registered daemon on a node other than the FTM's.
                let hb_done = state.get("hb_installed").and_then(Value::as_bool).unwrap_or(false);
                let ftm_node = state.u64("ftm_node").unwrap_or(0);
                if !hb_done && node != ftm_node {
                    state.set("hb_installed", Value::Bool(true));
                    let ftm_daemon = Self::translate(state, ftm_node);
                    ctx.send(
                        ArmorId(daemon as u32),
                        vec![ArmorEvent::new(tags::INSTALL_ARMOR)
                            .with("kind", Value::Str("heartbeat".into()))
                            .with("requester", Value::U64(ids::FTM.0 as u64))
                            .with("ftm_daemon", Value::U64(ftm_daemon))],
                    );
                }
            }
            "need-install" | "need-reinstall" | "need-uninstall" => {
                let node = ev.u64("node").unwrap_or(0);
                // THE unchecked translation: a corrupted host table sends
                // this instruction to ArmorId(0), detected only by the
                // daemon layer "too late" (§7.2).
                let daemon = Self::translate(state, node);
                let (tag, extra_requester) = match ev.tag {
                    "need-install" => (tags::INSTALL_ARMOR, true),
                    "need-reinstall" => (tags::REINSTALL_ARMOR, true),
                    _ => (tags::UNINSTALL_ARMOR, false),
                };
                let mut out = ArmorEvent::new(tag);
                out.fields = ev.fields.clone();
                if extra_requester {
                    out.fields.set("requester", Value::U64(ids::FTM.0 as u64));
                }
                if ev.tag == "need-reinstall" {
                    let ftm_daemon = Self::translate(state, state.u64("ftm_node").unwrap_or(0));
                    out.fields.set("ftm_daemon", Value::U64(ftm_daemon));
                }
                ctx.send(ArmorId(daemon as u32), vec![out]);
            }
            tags::NODE_FAILED => {
                let node = ev.u64("node").unwrap_or(0);
                let daemon = Self::translate(state, node);
                if daemon != 0 {
                    rec_set(state, "daemons", &daemon.to_string(), "alive", Value::Bool(false));
                }
                table_remove(state, "hosts", &node.to_string());
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        // Deliberately weaker than the other elements (the paper found 14
        // of 17 fired assertions here detected the error too late): only
        // gross structural damage is caught — a flipped-but-plausible
        // daemon ID or a corrupted hostname string passes.
        ree_armor::assertions::map_integrity(state, "hosts", |rec| {
            rec_u64(rec, "daemon").map(|d| d < 1_000).unwrap_or(false)
        })
    }
}

/// Heartbeats every registered daemon to detect node failures (FTM
/// responsibility 3; §3.3 "the FTM periodically exchanges heartbeat
/// messages with each daemon").
pub(crate) struct DaemonHb {
    /// Heartbeat period.
    pub(crate) period: SimDuration,
}

impl Element for DaemonHb {
    fn name(&self) -> &'static str {
        "daemon_hb"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            tags::ARMOR_START,
            "armor-restored",
            "daemon-hb-cycle",
            tags::DAEMON_HB_ACK,
            "daemon-registered",
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("watch", Value::Map(Default::default()));
        state.set("pings", Value::U64(0));
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
                ctx.set_timer_event(self.period, ArmorEvent::new("daemon-hb-cycle"));
            }
            "armor-restored" => {
                // "Awaiting ack" is in-flight state: a restored FTM must
                // not treat pings its dead predecessor sent as pending,
                // or it would mass-declare node failures on its first
                // cycle.
                for key in table_keys(state, "watch") {
                    rec_set(state, "watch", &key, "awaiting", Value::Bool(false));
                }
            }
            "daemon-registered" => {
                let daemon = ev.u64("daemon").unwrap_or(0);
                let node = ev.u64("node").unwrap_or(0);
                table_set(
                    state,
                    "watch",
                    &daemon.to_string(),
                    record(vec![("node", Value::U64(node)), ("awaiting", Value::Bool(false))]),
                );
            }
            "daemon-hb-cycle" => {
                let entries: Vec<(String, u64, bool)> = state
                    .get("watch")
                    .and_then(Value::as_map)
                    .map(|m| {
                        m.iter()
                            .map(|(k, rec)| {
                                (
                                    k.clone(),
                                    rec_u64(rec, "node").unwrap_or(0),
                                    rec_bool_or(rec, "awaiting", false),
                                )
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                for (key, node, awaiting) in entries {
                    if awaiting {
                        // "If the FTM does not receive a response by the
                        // next heartbeat round, it assumes that the node
                        // has failed" (§3.3).
                        table_remove(state, "watch", &key);
                        ctx.os.trace_recovery_event(
                            TraceEvent::NodeFailureDetected,
                            format!("detect node{node} failure (daemon silent)"),
                        );
                        // Collect alive nodes for migration targets.
                        let alive: Vec<Value> = state
                            .get("watch")
                            .and_then(Value::as_map)
                            .map(|m| {
                                m.values()
                                    .filter_map(|r| rec_u64(r, "node"))
                                    .filter(|n| *n != node)
                                    .map(Value::U64)
                                    .collect()
                            })
                            .unwrap_or_default();
                        ctx.raise(
                            ArmorEvent::new(tags::NODE_FAILED)
                                .with("node", Value::U64(node))
                                .with("alive_nodes", Value::List(alive)),
                        );
                    } else {
                        state.bump("pings");
                        rec_set(state, "watch", &key, "awaiting", Value::Bool(true));
                        let daemon: u64 = key.parse().unwrap_or(0);
                        ctx.send_unreliable(
                            ArmorId(daemon as u32),
                            vec![ArmorEvent::new(tags::DAEMON_HB_PING)
                                .with("seq", Value::U64(state.u64("pings").unwrap_or(0)))],
                        );
                    }
                }
                ctx.set_timer_event(self.period, ArmorEvent::new("daemon-hb-cycle"));
            }
            tags::DAEMON_HB_ACK => {
                if let Some(daemon) = ev.u64("daemon") {
                    rec_set(state, "watch", &daemon.to_string(), "awaiting", Value::Bool(false));
                }
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        ree_armor::assertions::map_integrity(state, "watch", |rec| {
            rec_u64(rec, "node").map(|n| n < 64).unwrap_or(false)
        })
    }
}
