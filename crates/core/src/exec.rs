//! The Execution ARMOR (§3.1): oversees one MPI application process —
//! launches it (rank 0), detects crashes via `waitpid` / process-table
//! polling, watches progress indicators for hangs, and notifies the FTM.

use crate::blueprint::{AppLaunch, Blueprint};
use crate::config::{ids, tags, PI_CHECK_PERIOD};
use ree_armor::{valid_ptr, ArmorEvent, Element, ElementCtx, ElementOutcome, Fields, Value};
use ree_os::{Pid, Signal, SpawnSpec, TraceEvent};
use ree_sim::SimDuration;
use std::sync::Arc;

/// How often an Execution ARMOR polls the OS process table for MPI ranks
/// it did not spawn (§3.3).
const PROC_POLL_PERIOD: SimDuration = SimDuration::from_secs(2);

/// Launches and monitors the local MPI application process.
pub(crate) struct AppMonitor {
    /// Application registry.
    pub(crate) blueprint: Arc<Blueprint>,
}

impl AppMonitor {
    fn app_pid(state: &Fields) -> Option<Pid> {
        match state.u64("app_pid") {
            Some(0) | None => None,
            Some(p) => Some(Pid(p)),
        }
    }

    fn status(state: &Fields) -> &str {
        state.get("app_status").and_then(Value::as_str).unwrap_or("idle")
    }

    fn set_status(state: &mut Fields, s: &str) {
        state.set("app_status", Value::Str(s.to_owned()));
    }

    fn report_failure(state: &mut Fields, ctx: &mut ElementCtx<'_, '_>, reason: &'static str) {
        if Self::status(state) == "failed" {
            return;
        }
        Self::set_status(state, "failed");
        let slot = state.u64("slot").unwrap_or(0);
        let rank = state.u64("rank").unwrap_or(0);
        ctx.trace(format!("exec armor reports app failure: slot{slot} rank{rank} ({reason})"));
        ctx.send(
            ids::FTM,
            vec![ArmorEvent::new(tags::APP_FAILED)
                .with("slot", Value::U64(slot))
                .with("rank", Value::U64(rank))
                .with("reason", Value::Str(reason.to_owned()))],
        );
    }
}

impl Element for AppMonitor {
    fn name(&self) -> &'static str {
        "app_monitor"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[
            "sift-configure",
            tags::ARMOR_START,
            tags::LAUNCH_APP,
            tags::YOUR_RANK_PID,
            tags::APP_ATTACH,
            tags::RANK_PID,
            tags::APP_EXITING,
            tags::STOP_APP,
            "os-child-exit",
            "proc-poll",
            "pi-hang-detected",
        ]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("slot", Value::U64(0));
        state.set("rank", Value::U64(0));
        state.set("app", Value::Str(String::new()));
        state.set("app_pid", Value::U64(0));
        state.set("app_status", Value::Str("idle".into()));
        state.set("attempt", Value::U64(0));
        state.set("clean_exit", Value::Bool(false));
        // Structural pointer to the (simulated) status block shared with
        // the SIFT interface; a corrupted pointer here crashes the ARMOR
        // on its next event — the dominant §7 crash mechanism.
        state.set("status_block", valid_ptr(3));
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
                for key in ["slot", "rank", "scc_pid", "node"] {
                    if let Some(v) = ev.u64(key) {
                        state.set(key, Value::U64(v));
                    }
                }
            }
            tags::ARMOR_START => {
                ctx.set_timer_event(PROC_POLL_PERIOD, ArmorEvent::new("proc-poll"));
                // After a recovery, re-advertise the channel endpoint to
                // the application so blocked SIFT-interface calls resume.
                if let Some(pid) = Self::app_pid(state) {
                    if ctx.os.process_alive(pid) {
                        let me = ctx.os.pid();
                        ctx.os.send(pid, "sift-rebind", 48, me);
                    }
                }
            }
            tags::LAUNCH_APP => {
                // Only the rank-0 Execution ARMOR receives this (Table 1
                // step 4); the MPI process becomes its child.
                let Some(app) = ev.str("app") else {
                    return ElementOutcome::AbortThread("launch without app name".into());
                };
                let app = app.to_owned();
                let slot = state.u64("slot").unwrap_or(0);
                let rank = state.u64("rank").unwrap_or(0);
                let attempt = ev.u64("attempt").unwrap_or(0);
                let nodes: Vec<u16> = ev
                    .fields
                    .get("nodes")
                    .and_then(Value::as_list)
                    .map(|l| l.iter().filter_map(|v| v.as_u64()).map(|v| v as u16).collect())
                    .unwrap_or_default();
                let exec_pids: Vec<u64> = ev
                    .fields
                    .get("exec_pids")
                    .and_then(Value::as_list)
                    .map(|l| l.iter().filter_map(|v| v.as_u64()).collect())
                    .unwrap_or_default();
                let Some(factory) = self.blueprint.app_factory(&app) else {
                    return ElementOutcome::AbortThread(format!("unknown application {app}"));
                };
                let launch = AppLaunch {
                    app: app.clone(),
                    slot: slot as u32,
                    rank: rank as u32,
                    size: ev.u64("ranks").unwrap_or(1) as u32,
                    nodes: nodes.clone(),
                    exec_pids: exec_pids.iter().map(|p| Pid(*p)).collect(),
                    attempt: attempt as u32,
                    sift_enabled: true,
                    rank0_pid: None,
                    factory: factory.clone(),
                };
                // A stale incarnation may still be running if the
                // stop-app instruction was lost in a recovery.
                if let Some(old) = Self::app_pid(state) {
                    if ctx.os.process_alive(old) {
                        ctx.os.kill(old, Signal::Kill);
                    }
                }
                let me = ctx.os.pid();
                let node = ctx.os.node();
                let pid = ctx.os.spawn(
                    SpawnSpec::new(format!("{app}-r{rank}-a{attempt}"), node, factory(&launch))
                        .with_parent(me),
                );
                if attempt > 0 {
                    ctx.os.trace_recovery_event(
                        TraceEvent::RecoveryCompleted,
                        format!("recovered application slot{slot} (attempt {attempt})"),
                    );
                }
                state.set("app", Value::Str(app));
                state.set("app_pid", Value::U64(pid.0));
                state.set("attempt", Value::U64(attempt));
                state.set("clean_exit", Value::Bool(false));
                Self::set_status(state, "running");
                ctx.raise(ArmorEvent::new("pi-reset"));
                ctx.send(
                    ids::FTM,
                    vec![ArmorEvent::new(tags::APP_STARTED)
                        .with("slot", Value::U64(slot))
                        .with("attempt", Value::U64(attempt))],
                );
            }
            tags::YOUR_RANK_PID => {
                // Table 1 step 7: establish the channel with our MPI rank.
                if let Some(pid) = ev.u64("pid") {
                    state.set("app_pid", Value::U64(pid));
                    state.set("clean_exit", Value::Bool(false));
                    Self::set_status(state, "running");
                    ctx.raise(ArmorEvent::new("pi-reset"));
                }
            }
            tags::APP_ATTACH => {
                let Some(pid) = ev.u64("pid") else { return ElementOutcome::Ok };
                let rank = state.u64("rank").unwrap_or(0);
                // Rank 0 is our child, attach immediately. Ranks 1..n may
                // only attach once the FTM forwarded their pid (Figure 8:
                // the slave blocks when the FTM is unavailable).
                let known = state.u64("app_pid").unwrap_or(0);
                if rank == 0 || known == pid {
                    if known == 0 {
                        state.set("app_pid", Value::U64(pid));
                    }
                    Self::set_status(state, "running");
                    ctx.os.send(Pid(pid), "sift-ack", 32, tags::APP_ATTACH);
                }
                // Otherwise: no ack; the client keeps retrying.
            }
            tags::RANK_PID => {
                // Rank 0's client reports peer pids; forward to the FTM
                // (Table 1 step 6).
                let slot = state.u64("slot").unwrap_or(0);
                let rank = ev.u64("rank").unwrap_or(0);
                let pid = ev.u64("pid").unwrap_or(0);
                ctx.send(
                    ids::FTM,
                    vec![ArmorEvent::new(tags::RANK_PID)
                        .with("slot", Value::U64(slot))
                        .with("rank", Value::U64(rank))
                        .with("pid", Value::U64(pid))],
                );
            }
            tags::APP_EXITING => {
                // Clean termination notice (§3.3): do not treat the
                // upcoming exit as a crash.
                state.set("clean_exit", Value::Bool(true));
                Self::set_status(state, "exiting");
                if let Some(pid) = ev.u64("pid") {
                    ctx.os.send(Pid(pid), "sift-ack", 32, tags::APP_EXITING);
                }
                let slot = state.u64("slot").unwrap_or(0);
                let rank = state.u64("rank").unwrap_or(0);
                let at_us = ctx.now().as_micros();
                ctx.os.trace_event(
                    TraceEvent::AppTerminated,
                    format!("app-terminated slot{slot} rank{rank}"),
                );
                ctx.send(
                    ids::FTM,
                    vec![ArmorEvent::new(tags::APP_TERMINATED)
                        .with("slot", Value::U64(slot))
                        .with("rank", Value::U64(rank))
                        .with("at_us", Value::U64(at_us))
                        .with("ok", Value::Bool(true))],
                );
            }
            tags::STOP_APP => {
                if let Some(pid) = Self::app_pid(state) {
                    if ctx.os.process_alive(pid) {
                        ctx.os.kill(pid, Signal::Kill);
                    }
                }
                state.set("app_pid", Value::U64(0));
                state.set("clean_exit", Value::Bool(false));
                Self::set_status(state, "idle");
                ctx.raise(ArmorEvent::new("pi-reset"));
            }
            "os-child-exit" => {
                // waitpid on the rank-0 child (§3.3 "crash failures in the
                // MPI process with rank 0 can be detected ... through
                // operating system calls").
                let child = ev.u64("child").unwrap_or(0);
                if Some(Pid(child)) == Self::app_pid(state) && Self::status(state) == "running" {
                    let clean = state.get("clean_exit").and_then(Value::as_bool).unwrap_or(false);
                    if !clean {
                        ctx.os.trace_recovery_event(
                            TraceEvent::AppCrashDetected,
                            format!("detect app crash rank{}", state.u64("rank").unwrap_or(0)),
                        );
                        Self::report_failure(state, ctx, "crash");
                    }
                }
            }
            "proc-poll" => {
                // Ranks 1..n are not children: poll the process table
                // (§3.3).
                if Self::status(state) == "running" {
                    if let Some(pid) = Self::app_pid(state) {
                        let clean =
                            state.get("clean_exit").and_then(Value::as_bool).unwrap_or(false);
                        if !ctx.os.process_alive(pid) && !clean {
                            ctx.os.trace_recovery_event(
                                TraceEvent::AppCrashDetected,
                                format!("detect app crash rank{}", state.u64("rank").unwrap_or(0)),
                            );
                            Self::report_failure(state, ctx, "crash");
                        }
                    }
                }
                ctx.set_timer_event(PROC_POLL_PERIOD, ArmorEvent::new("proc-poll"));
            }
            "pi-hang-detected" if Self::status(state) == "running" => {
                ctx.os.trace_recovery_event(
                    TraceEvent::AppHangDetected,
                    format!("detect app hang rank{}", state.u64("rank").unwrap_or(0)),
                );
                if let Some(pid) = Self::app_pid(state) {
                    if ctx.os.process_alive(pid) {
                        ctx.os.kill(pid, Signal::Kill);
                    }
                }
                Self::report_failure(state, ctx, "hang");
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        ree_armor::assertions::range_check(state, "rank", 0, 63)?;
        ree_armor::assertions::range_check(state, "slot", 0, 15)?;
        let status = state.get("app_status").and_then(Value::as_str).unwrap_or("");
        match status {
            "idle" | "running" | "exiting" | "failed" => Ok(()),
            other => Err(format!("app_status '{other}' invalid")),
        }
    }
}

/// Watches progress indicators for application hangs (§3.3, Figure 6).
///
/// In the evaluated (polling) design, a checking thread wakes every
/// [`PI_CHECK_PERIOD`] and compares the counter against the previous
/// reading — detection latency is up to **twice** the period. The
/// interrupt-driven variant (§5.1 discussion) re-arms a deadline on
/// every update, detecting within one period.
pub(crate) struct ProgressWatch {
    /// Re-arm a deadline on every update instead of polling.
    pub(crate) interrupt_driven: bool,
}

impl ProgressWatch {
    fn effective_period(&self, state: &Fields) -> SimDuration {
        let declared = SimDuration::from_micros(state.u64("period_us").unwrap_or(0));
        // "The Execution ARMOR should not check the counter faster than
        // the rate at which the application sends updates" (§5.1).
        if declared > PI_CHECK_PERIOD {
            declared
        } else {
            PI_CHECK_PERIOD
        }
    }
}

impl Element for ProgressWatch {
    fn name(&self) -> &'static str {
        "progress_watch"
    }

    fn subscriptions(&self) -> &'static [&'static str] {
        &[tags::PI_CREATE, tags::PI_UPDATE, "pi-check", "pi-deadline", "pi-reset"]
    }

    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("enabled", Value::Bool(false));
        state.set("counter", Value::U64(0));
        state.set("last_seen", Value::U64(0));
        state.set("fresh", Value::Bool(true));
        state.set("generation", Value::U64(0));
        state.set("period_us", Value::U64(0));
        state
    }

    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        match ev.tag {
            tags::PI_CREATE => {
                // "Before any progress indicators are sent, the
                // application must tell the Execution ARMOR at what
                // frequency to check for progress indicator updates."
                state.set("period_us", Value::U64(ev.u64("period_us").unwrap_or(0)));
                state.set("enabled", Value::Bool(true));
                state.set("fresh", Value::Bool(true));
                state.set("counter", Value::U64(0));
                state.set("last_seen", Value::U64(0));
                let gen = state.bump("generation").unwrap_or(0);
                if let Some(pid) = ev.u64("pid") {
                    ctx.os.send(Pid(pid), "sift-ack", 32, tags::PI_CREATE);
                }
                if !self.interrupt_driven {
                    ctx.set_timer_event(
                        self.effective_period(state),
                        ArmorEvent::new("pi-check").with("gen", Value::U64(gen)),
                    );
                }
            }
            tags::PI_UPDATE => {
                if let Some(c) = ev.u64("counter") {
                    state.set("counter", Value::U64(c));
                    state.set("fresh", Value::Bool(false));
                }
                if let Some(pid) = ev.u64("pid") {
                    ctx.os.send(Pid(pid), "sift-ack", 32, tags::PI_UPDATE);
                }
                if self.interrupt_driven
                    && state.get("enabled").and_then(Value::as_bool).unwrap_or(false)
                {
                    // Re-arm the watchdog: detect within one period of the
                    // last update.
                    let gen = state.bump("generation").unwrap_or(0);
                    ctx.set_timer_event(
                        self.effective_period(state),
                        ArmorEvent::new("pi-deadline").with("gen", Value::U64(gen)),
                    );
                }
            }
            "pi-check" => {
                if !state.get("enabled").and_then(Value::as_bool).unwrap_or(false) {
                    return ElementOutcome::Ok;
                }
                if ev.u64("gen") != state.u64("generation") {
                    return ElementOutcome::Ok;
                }
                let counter = state.u64("counter").unwrap_or(0);
                let last = state.u64("last_seen").unwrap_or(0);
                let fresh = state.get("fresh").and_then(Value::as_bool).unwrap_or(true);
                if !fresh && counter == last {
                    state.set("enabled", Value::Bool(false));
                    ctx.raise(ArmorEvent::new("pi-hang-detected"));
                } else {
                    state.set("last_seen", Value::U64(counter));
                    let gen = state.u64("generation").unwrap_or(0);
                    ctx.set_timer_event(
                        self.effective_period(state),
                        ArmorEvent::new("pi-check").with("gen", Value::U64(gen)),
                    );
                }
            }
            "pi-deadline" => {
                if !self.interrupt_driven {
                    return ElementOutcome::Ok;
                }
                if ev.u64("gen") == state.u64("generation")
                    && state.get("enabled").and_then(Value::as_bool).unwrap_or(false)
                {
                    state.set("enabled", Value::Bool(false));
                    ctx.raise(ArmorEvent::new("pi-hang-detected"));
                }
            }
            "pi-reset" => {
                state.set("enabled", Value::Bool(false));
                state.set("fresh", Value::Bool(true));
                state.set("counter", Value::U64(0));
                state.set("last_seen", Value::U64(0));
                state.bump("generation");
            }
            _ => {}
        }
        ElementOutcome::Ok
    }

    fn check(&self, state: &Fields) -> Result<(), String> {
        ree_armor::assertions::range_check(state, "generation", 0, 1_000_000)
    }
}
