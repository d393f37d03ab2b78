//! The Spacecraft Control Computer driver.
//!
//! The SCC is the trusted, rad-hard computer outside the SIFT
//! environment's fault model (§2, Figure 1 — "the system does not include
//! the rad-hard SCC"). It performs the one-time installation of Table 1
//! step 1, submits applications, receives status reports, and persists
//! job timing records for the experiment harness. It is never an
//! injection target.

use crate::blueprint::Blueprint;
use crate::config::{ids, tags};
use crate::report::{ArmorInstalled, JobTimes, SccReport};
use ree_armor::{ArmorEvent, ControlOp, Value};
use ree_os::{Message, NodeId, Pid, ProcCtx, Process, SpawnSpec};
use ree_sim::SimDuration;
use std::sync::Arc;

/// One job the SCC will submit.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Application name (must be registered in the blueprint).
    pub app: String,
    /// Number of MPI ranks.
    pub ranks: u32,
    /// Node per rank.
    pub nodes: Vec<u16>,
    /// Virtual time at which the SCC submits the job.
    pub submit_at: SimDuration,
}

const TIMER_INSTALL_FTM: u64 = 1;
const TIMER_REGISTER: u64 = 2;
const TIMER_SUBMIT_BASE: u64 = 100;
const TIMER_VERIFY_BASE: u64 = 200;
const MAX_SUBMIT_ATTEMPTS: u32 = 5;

/// The SCC driver process.
#[derive(Clone)]
pub struct Scc {
    blueprint: Arc<Blueprint>,
    jobs: Vec<JobSpec>,
    cluster_nodes: u16,
    daemon_pids: Vec<Pid>,
    ftm_pid: Option<Pid>,
    job_times: Vec<JobTimes>,
    submit_attempts: Vec<u32>,
    registered: bool,
}

impl Scc {
    /// Creates the driver for a cluster of `cluster_nodes` nodes running
    /// the given jobs.
    pub fn new(blueprint: Arc<Blueprint>, cluster_nodes: u16, jobs: Vec<JobSpec>) -> Self {
        let job_times = jobs.iter().map(|_| JobTimes::default()).collect();
        let submit_attempts = jobs.iter().map(|_| 0).collect();
        Scc {
            blueprint,
            jobs,
            cluster_nodes,
            daemon_pids: Vec::new(),
            ftm_pid: None,
            job_times,
            submit_attempts,
            registered: false,
        }
    }

    fn persist(&self, slot: usize, ctx: &mut ProcCtx<'_>) {
        let record = self.job_times[slot].encode();
        ctx.remote_fs().write(&JobTimes::path(slot as u64), record);
        if self.job_times.iter().all(|t| t.completed.is_some()) {
            ctx.remote_fs().write("scc/alldone", b"1".to_vec());
        }
    }
}

impl Process for Scc {
    fn kind(&self) -> &'static str {
        "scc"
    }

    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.trace("SCC initializing the SIFT environment");
        // Table 1 step 1a: install daemon processes on each node.
        for node in 0..self.cluster_nodes {
            let behavior = self.blueprint.make_daemon(NodeId(node));
            let pid = ctx.spawn(SpawnSpec::new(
                crate::config::names::daemon(node),
                NodeId(node),
                behavior,
            ));
            self.daemon_pids.push(pid);
        }
        // Seed every daemon's routing table with all daemons, tell them
        // who their peers and the SCC are.
        let me = ctx.pid();
        let peers: Vec<Value> =
            (0..self.cluster_nodes).map(|n| Value::U64(ids::daemon(n).0 as u64)).collect();
        for (node, pid) in self.daemon_pids.clone().into_iter().enumerate() {
            for (other_node, other_pid) in self.daemon_pids.clone().into_iter().enumerate() {
                let _ = other_node;
                let other_id = ids::daemon(
                    self.daemon_pids.iter().position(|p| *p == other_pid).unwrap_or(0) as u16,
                );
                ctx.send(pid, "armor-control", 48, ControlOp::AddRoute(other_id, other_pid));
            }
            let cfg = ArmorEvent::new("sift-configure")
                .with("peers", Value::List(peers.clone()))
                .with("scc_pid", Value::U64(me.0))
                .with("node", Value::U64(node as u64));
            ctx.send(pid, "armor-control", 96, ControlOp::Raise(cfg));
        }
        // Step 1b after the daemons are up.
        ctx.set_timer(SimDuration::from_millis(800), TIMER_INSTALL_FTM);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut ProcCtx<'_>) {
        match tag {
            TIMER_INSTALL_FTM => {
                // Table 1 step 1b: install the FTM through the daemon on
                // node 0.
                if let Some(daemon0) = self.daemon_pids.first().copied() {
                    ctx.trace("SCC instructs daemon0 to install the FTM");
                    ctx.send(
                        daemon0,
                        "armor-control",
                        96,
                        ControlOp::Raise(
                            ArmorEvent::new(tags::INSTALL_ARMOR)
                                .with("kind", Value::Str("ftm".into())),
                        ),
                    );
                }
            }
            TIMER_REGISTER => {
                // Table 1 step 1c: register all daemons with the FTM.
                ctx.trace("SCC registers daemons with the FTM");
                for pid in self.daemon_pids.clone() {
                    ctx.send(
                        pid,
                        "armor-control",
                        64,
                        ControlOp::Raise(ArmorEvent::new("register-with-ftm")),
                    );
                }
                // Schedule job submissions.
                for (slot, job) in self.jobs.clone().into_iter().enumerate() {
                    ctx.set_timer(job.submit_at, TIMER_SUBMIT_BASE + slot as u64);
                }
            }
            verify if (TIMER_VERIFY_BASE..TIMER_VERIFY_BASE + 64).contains(&verify) => {
                // Submission watchdog: if the FTM never reported the
                // application started (the submission may have reached a
                // dead FTM), resubmit.
                let slot = (verify - TIMER_VERIFY_BASE) as usize;
                let started = self.job_times.get(slot).map(|t| t.started.is_some()).unwrap_or(true);
                if !started
                    && self.submit_attempts.get(slot).copied().unwrap_or(0) < MAX_SUBMIT_ATTEMPTS
                {
                    ctx.trace(format!("SCC resubmitting slot {slot} (no start report)"));
                    ctx.set_timer(SimDuration::from_micros(1), TIMER_SUBMIT_BASE + slot as u64);
                }
            }
            submit if (TIMER_SUBMIT_BASE..TIMER_SUBMIT_BASE + 64).contains(&submit) => {
                let slot = (submit - TIMER_SUBMIT_BASE) as usize;
                let Some(job) = self.jobs.get(slot).cloned() else { return };
                let Some(ftm) = self.ftm_pid else {
                    // FTM not up yet; retry shortly.
                    ctx.set_timer(SimDuration::from_secs(1), submit);
                    return;
                };
                ctx.trace(format!("SCC submits {} (slot {slot})", job.app));
                if self.job_times[slot].submitted.is_none() {
                    self.job_times[slot].submitted = Some(ctx.now());
                }
                self.submit_attempts[slot] += 1;
                ctx.set_timer(SimDuration::from_secs(45), TIMER_VERIFY_BASE + slot as u64);
                let me = ctx.pid();
                let nodes: Vec<Value> = job.nodes.iter().map(|n| Value::U64(*n as u64)).collect();
                ctx.send(
                    ftm,
                    "armor-control",
                    128,
                    ControlOp::Raise(
                        ArmorEvent::new(tags::SUBMIT_APP)
                            .with("app", Value::Str(job.app.clone()))
                            .with("ranks", Value::U64(job.ranks as u64))
                            .with("nodes", Value::List(nodes))
                            .with("scc_pid", Value::U64(me.0))
                            .with("slot", Value::U64(slot as u64)),
                    ),
                );
                self.persist(slot, ctx);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, msg: Message, ctx: &mut ProcCtx<'_>) {
        match msg.label {
            "armor-installed" => {
                if let Some(installed) = msg.peek::<ArmorInstalled>() {
                    if installed.armor == ids::FTM {
                        let first = self.ftm_pid.is_none();
                        self.ftm_pid = Some(installed.pid);
                        if first && !self.registered {
                            self.registered = true;
                            ctx.set_timer(SimDuration::from_millis(600), TIMER_REGISTER);
                        }
                    }
                }
            }
            "scc-report" => {
                if let Some(report) = msg.peek::<SccReport>().cloned() {
                    let slot = match report {
                        SccReport::Started { slot, .. }
                        | SccReport::Restarted { slot, .. }
                        | SccReport::Ended { slot, .. }
                        | SccReport::Completed { slot } => slot as usize,
                    };
                    let Some(times) = self.job_times.get_mut(slot) else { return };
                    match report {
                        SccReport::Started { .. } => {
                            if times.started.is_none() {
                                times.started = Some(ctx.now());
                            }
                        }
                        SccReport::Restarted { .. } => times.restarts += 1,
                        SccReport::Ended { end_us, .. } => {
                            // The FTM reports the instant the last rank
                            // exited; fall back to report-arrival time.
                            times.ended = Some(if end_us > 0 {
                                ree_sim::SimTime::from_micros(end_us)
                            } else {
                                ctx.now()
                            });
                        }
                        SccReport::Completed { .. } => {
                            if times.completed.is_none() {
                                times.completed = Some(ctx.now());
                            }
                        }
                    }
                    ctx.trace(format!("SCC received {report:?}"));
                    self.persist(slot, ctx);
                }
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for Scc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scc")
            .field("jobs", &self.jobs.len())
            .field("ftm_pid", &self.ftm_pid)
            .finish()
    }
}
