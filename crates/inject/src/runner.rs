//! Single-run execution: set up the environment, inject per the error
//! model's protocol, observe, classify. The NFTAPE division of labour
//! (§4): control/monitor/collect here, the actual corruption in the
//! `ree-os` injection surface.

use crate::branch::candidate_targets;
use crate::error::{panic_message, CampaignError};
use crate::model::{ErrorModel, FailureClass, SystemFailure, Target};
use crate::netfault::{NetFault, NetFaultDriver};
use ree_apps::verify::Verdict;
use ree_apps::{AppKind, BootSnapshot, Running, Scenario};
use ree_os::{ExitStatus, HeapHit, Pid, Signal, TraceEvent};
use ree_sim::{SimDuration, SimRng, SimTime};

/// Everything one injection run needs.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Environment + workload.
    pub scenario: Scenario,
    /// Which process class to inject into.
    pub target: Target,
    /// The Table 2 error model.
    pub model: ErrorModel,
    /// System-failure timeout ("a failure occurs when the application
    /// cannot complete within a predefined timeout", §4.2).
    pub timeout: SimTime,
    /// Partitions imposed during the run's first recovery, alongside the
    /// process-level error model. Empty for the paper's original
    /// campaigns.
    pub net_faults: Vec<NetFault>,
}

/// Campaign-invariant run geometry, derived from a [`RunPlan`] once per
/// campaign instead of re-derived from identical inputs on every run.
/// The per-run path only draws the seed-dependent injection instant
/// inside the precomputed window.
#[derive(Clone, Debug)]
pub struct RunGeometry {
    /// First job's submission instant.
    pub submit: SimDuration,
    /// Nominal fault-free duration of the first job's science.
    pub nominal: SimDuration,
    /// Injection-window start (exposure start for the plan's target).
    pub window_start: SimTime,
    /// Injection-window end (covers setup, execution, takedown).
    pub window_end: SimTime,
    /// Warm-boot snapshot instant: the window start, clamped to the
    /// timeout so a snapshot never simulates past a short plan's end.
    /// Before this instant a clean boot is identical for every run of
    /// the campaign; at it, per-run streams are re-seeded.
    pub snapshot_at: SimTime,
}

impl RunPlan {
    /// Derives the campaign-invariant geometry of this plan's runs.
    pub fn geometry(&self) -> RunGeometry {
        let submit =
            self.scenario.jobs.first().map(|j| j.submit_at).unwrap_or(SimDuration::from_secs(5));
        let nominal = self.scenario.nominal();
        let window_start = SimTime::ZERO + exposure_start(&self.target, submit);
        let window_end = SimTime::ZERO + submit + nominal + SimDuration::from_secs(12);
        RunGeometry {
            submit,
            nominal,
            window_start,
            window_end,
            snapshot_at: window_start.min(self.timeout),
        }
    }

    /// Boots this plan's scenario once, frozen at the snapshot instant.
    pub fn boot_snapshot(&self) -> BootSnapshot {
        self.scenario.boot_snapshot(self.geometry().snapshot_at)
    }

    /// Everything a scheduler does once per plan before its first run:
    /// warms the shared synthetic-input cache (so worker threads never
    /// race to synthesise the same image), derives the geometry, and
    /// boots the snapshot. Every run of the plan forks the returned pair
    /// ([`execute_warm`]).
    pub fn boot(&self) -> (RunGeometry, BootSnapshot) {
        self.scenario.warm_inputs();
        let geometry = self.geometry();
        let snapshot = self.scenario.boot_snapshot(geometry.snapshot_at);
        (geometry, snapshot)
    }

    /// Checks the structural invariants a plan must satisfy before any
    /// run of it can execute: a positive timeout, jobs that name a known
    /// application and whose rank count matches their node list with
    /// every node inside the cluster, and partitions of at least two
    /// groups that name each node of the cluster at most once.
    /// Supervisors call this at the trust boundary — a plan decoded off
    /// the wire is rejected with a typed [`CampaignError`] instead of
    /// panicking deep inside the simulator.
    pub fn validate(&self) -> Result<(), CampaignError> {
        let bad = |why: String| Err(CampaignError::InvalidPlan(why));
        if self.timeout <= SimTime::ZERO {
            return bad("timeout must be positive".into());
        }
        let nodes = self.scenario.nodes;
        for (slot, job) in self.scenario.jobs.iter().enumerate() {
            if AppKind::from_name(&job.app).is_none() {
                return bad(format!("job {slot} names unknown application {:?}", job.app));
            }
            if job.ranks == 0 {
                return bad(format!("job {slot} ({}) has zero ranks", job.app));
            }
            if job.nodes.len() != job.ranks as usize {
                return bad(format!(
                    "job {slot} ({}) maps {} ranks onto {} nodes",
                    job.app,
                    job.ranks,
                    job.nodes.len()
                ));
            }
            if let Some(&n) = job.nodes.iter().find(|&&n| (n as usize) >= nodes) {
                return bad(format!(
                    "job {slot} ({}) places a rank on node{n}, but the cluster has {nodes} nodes",
                    job.app
                ));
            }
        }
        if let Some(topology) = &self.scenario.topology {
            if topology.nodes() as usize != nodes {
                return bad(format!(
                    "topology has {} nodes but the scenario declares {nodes}",
                    topology.nodes()
                ));
            }
        }
        for (i, fault) in self.net_faults.iter().enumerate() {
            if fault.groups.len() < 2 {
                return bad(format!("net fault {i}: a partition needs at least 2 groups"));
            }
            let mut listed: Vec<u16> = fault.groups.concat();
            if let Some(&n) = listed.iter().find(|&&n| (n as usize) >= nodes) {
                return bad(format!(
                    "net fault {i} references node{n}, but the cluster has {nodes} nodes"
                ));
            }
            listed.sort_unstable();
            if let Some(pair) = listed.windows(2).find(|pair| pair[0] == pair[1]) {
                return bad(format!("net fault {i} lists node{} twice", pair[0]));
            }
        }
        Ok(())
    }
}

/// Everything one run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// The seed used.
    pub seed: u64,
    /// Number of bit flips / signals injected.
    pub injections: u32,
    /// First failure induced in the target, if any.
    pub induced: Option<FailureClass>,
    /// Did every job complete (SIFT reported completion)?
    pub completed: bool,
    /// System-failure phase when not completed.
    pub system_failure: Option<SystemFailure>,
    /// Application output verdict.
    pub output: Verdict,
    /// Perceived execution time of slot 0, seconds.
    pub perceived: Option<f64>,
    /// Actual execution time of slot 0, seconds.
    pub actual: Option<f64>,
    /// Per-slot perceived times (two-app experiments).
    pub perceived_all: Vec<Option<f64>>,
    /// Per-slot actual times.
    pub actual_all: Vec<Option<f64>>,
    /// Application restarts across slots.
    pub restarts: u64,
    /// SIFT-process recovery durations observed, seconds.
    pub recovery_times: Vec<f64>,
    /// Did a SIFT-process failure induce an application restart
    /// (correlated failure, §5.2)?
    pub correlated: bool,
    /// Did any ARMOR assertion fire during the run?
    pub assertion_fired: bool,
    /// What the heap injection hit (single-flip campaigns).
    pub heap_hit: Option<HeapHit>,
    /// Network faults that reached their activation instant.
    pub net_faults_applied: u32,
}

impl RunResult {
    /// True if an error was injected *and* the system handled it without
    /// a system failure.
    pub fn recovered(&self) -> bool {
        self.injections > 0 && self.completed && self.output != Verdict::Incorrect
    }
}

/// Executes one injection run (cold: boots its own cluster).
pub fn execute(plan: &RunPlan, seed: u64) -> RunResult {
    execute_full(plan, seed).0
}

/// Executes one injection run and also returns the finished environment
/// (trace inspection, debugging, extension experiments).
///
/// This is the **cold** path: it boots a fresh cluster to the snapshot
/// instant, re-seeds the streams from `seed`, and runs — exactly what a
/// warm run does from a shared [`BootSnapshot`], minus the clone, so
/// warm and cold results are byte-identical for the same seed.
pub fn execute_full(plan: &RunPlan, seed: u64) -> (RunResult, Running) {
    let (geometry, snapshot) = plan.boot();
    run_seeded(plan, &geometry, snapshot.into_running(seed), seed)
}

/// Executes one injection run from a shared warm-boot snapshot: clones
/// the booted cluster, re-seeds it from `seed`, and runs.
pub fn execute_warm(
    plan: &RunPlan,
    geometry: &RunGeometry,
    snapshot: &BootSnapshot,
    seed: u64,
) -> RunResult {
    execute_warm_full(plan, geometry, snapshot, seed).0
}

/// [`execute_warm`] with the panic boundary a supervisor needs: a run
/// that panics inside the simulator is caught and reported as
/// [`CampaignError::RunPanicked`] instead of unwinding through (and
/// killing) the calling worker. Execution is deterministic, so the
/// error carries the seed for in-process reproduction.
pub fn execute_warm_checked(
    plan: &RunPlan,
    geometry: &RunGeometry,
    snapshot: &BootSnapshot,
    seed: u64,
) -> Result<RunResult, CampaignError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_warm(plan, geometry, snapshot, seed)
    }))
    .map_err(|payload| CampaignError::RunPanicked { seed, message: panic_message(payload) })
}

/// [`execute_warm`] variant that also returns the finished environment.
pub fn execute_warm_full(
    plan: &RunPlan,
    geometry: &RunGeometry,
    snapshot: &BootSnapshot,
    seed: u64,
) -> (RunResult, Running) {
    run_seeded(plan, geometry, snapshot.fork(seed), seed)
}

/// Classifies and packages a run the caller drove manually — the
/// `ree-mc` interleaving explorer's terminal. Runs the remaining events
/// deterministically out to completion or `plan.timeout`, then applies
/// exactly the classification pipeline [`execute`] uses: Table 6 target
/// state for `watched`, output verification, system-failure attribution,
/// timing extraction. The plan must carry no network faults —
/// interleaved exploration composes with the process-level models only.
pub fn conclude_run(
    plan: &RunPlan,
    seed: u64,
    running: Running,
    injections: u32,
    watched: Option<Pid>,
) -> (RunResult, Running) {
    assert!(plan.net_faults.is_empty(), "manually-driven runs do not support network fault plans");
    let net_driver = NetFaultDriver::new(&plan.net_faults);
    let observed =
        Observed { running, injections, induced: None, heap_hit: None, watched, net_driver };
    finish_run(plan, seed, observed)
}

/// The seed-dependent part of a run: everything after the (seed-
/// independent) boot. `running` arrives at the snapshot instant with its
/// streams already re-seeded from `seed`.
fn run_seeded(
    plan: &RunPlan,
    geometry: &RunGeometry,
    mut running: Running,
    seed: u64,
) -> (RunResult, Running) {
    let mut rng = SimRng::new(seed ^ 0x1A7E_C0DE);
    let mut net_driver = NetFaultDriver::new(&plan.net_faults);
    let w0 = geometry.window_start;
    let w1 = geometry.window_end;
    let mut next_injection =
        SimTime::from_micros(rng.range_u64(w0.as_micros(), w1.as_micros().max(w0.as_micros() + 1)));

    let mut injections = 0u32;
    let mut induced: Option<FailureClass> = None;
    let mut watched: Option<Pid> = None;
    // The paper's repeat-until-failure campaigns averaged ~20 flips per
    // run (≈6,700 heap errors across ~300 runs, §7.1).
    let max_injections: u32 = if plan.model.repeats() { 25 } else { 1 };

    loop {
        // Run up to the next injection instant (or completion/timeout).
        let horizon = next_injection.min(plan.timeout);
        let done = net_driver.run(&mut running, horizon);
        if done || running.cluster.now() >= plan.timeout {
            break;
        }
        // Check whether a previous injection has now manifested.
        if induced.is_none() {
            if let Some(pid) = watched {
                induced = classify_target_state(&running, pid, &plan.model);
            }
        }
        if induced.is_some() && plan.model.repeats() {
            // Failure induced: stop injecting, run the rest out.
            break;
        }
        if injections >= max_injections {
            break;
        }
        // Resolve the target afresh (recoveries change pids).
        let target_pid = resolve_target(&running, &plan.target, &mut rng);
        let Some(pid) = target_pid else {
            // Target not alive right now; retry shortly.
            next_injection = running.cluster.now() + SimDuration::from_millis(1500);
            if next_injection >= plan.timeout {
                break;
            }
            continue;
        };
        watched = Some(pid);
        let placement = plan.model.place(&mut running.cluster, pid);
        if !placement.placed {
            // No matching state yet (e.g. the app has not loaded its
            // matrices); retry shortly without counting an injection.
            next_injection = running.cluster.now() + SimDuration::from_secs(2);
            if next_injection >= w1 {
                break;
            }
            continue;
        }
        injections += 1;
        if let (1, Some(hit), false) = (injections, placement.heap_hit, plan.model.repeats()) {
            // Single-flip campaign: keep the hit for Table 8 / Table
            // 10 attribution and run the rest out.
            let heap_hit = Some(hit);
            let observed = Observed { running, injections, induced, heap_hit, watched, net_driver };
            return finish_run(plan, seed, observed);
        }
        // Schedule the next injection (repeat protocols) or just observe.
        if plan.model.repeats() {
            next_injection = running.cluster.now()
                + rng.uniform_duration(SimDuration::from_millis(1500), SimDuration::from_secs(4));
        } else {
            next_injection = plan.timeout;
        }
    }

    let observed = Observed { running, injections, induced, heap_hit: None, watched, net_driver };
    finish_run(plan, seed, observed)
}

/// What the injection loop (or a manual driver) hands to classification.
struct Observed<'p> {
    running: Running,
    injections: u32,
    induced: Option<FailureClass>,
    heap_hit: Option<HeapHit>,
    watched: Option<Pid>,
    net_driver: NetFaultDriver<'p>,
}

/// Runs the remaining events out and packages the [`RunResult`].
fn finish_run(plan: &RunPlan, seed: u64, observed: Observed<'_>) -> (RunResult, Running) {
    let Observed { mut running, injections, mut induced, heap_hit, watched, mut net_driver } =
        observed;
    // Every early exit from the injection loop lands here: run the plan
    // out to completion or the timeout.
    if !running.all_done() && running.cluster.now() < plan.timeout {
        net_driver.run(&mut running, plan.timeout);
    }
    if induced.is_none() {
        if let Some(pid) = watched {
            induced = classify_target_state(&running, pid, &plan.model);
        }
    }
    let scenario = &plan.scenario;
    let slots = scenario.jobs.len() as u64;
    let completed = running.all_done();
    let mut perceived_all = Vec::new();
    let mut actual_all = Vec::new();
    let mut restarts = 0;
    for s in 0..slots {
        let times = running.job_times(s);
        perceived_all.push(times.as_ref().and_then(|t| t.perceived()).map(|d| d.as_secs_f64()));
        actual_all.push(times.as_ref().and_then(|t| t.actual()).map(|d| d.as_secs_f64()));
        restarts += times.map(|t| t.restarts).unwrap_or(0);
    }
    let output = scenario.verify_outputs(&running);
    let system_failure = if completed { None } else { Some(classify_system_failure(&running)) };
    let recovery_times =
        running.recovery_times().iter().map(|d| d.as_secs_f64()).collect::<Vec<_>>();
    let assertion_fired = running.cluster.trace().any(TraceEvent::AssertionFired);
    let correlated = plan.target.is_sift_process() && restarts > 0;
    (
        RunResult {
            seed,
            injections,
            induced,
            completed,
            system_failure,
            output,
            perceived: perceived_all.first().copied().flatten(),
            actual: actual_all.first().copied().flatten(),
            perceived_all,
            actual_all,
            restarts,
            recovery_times,
            correlated,
            assertion_fired,
            heap_hit,
            net_faults_applied: net_driver.applied(),
        },
        running,
    )
}

fn exposure_start(target: &Target, submit: SimDuration) -> SimDuration {
    match target {
        // The FTM and Heartbeat ARMOR exist before submission; injecting
        // during setup/teardown is part of the experiment (Figure 7).
        Target::Ftm => SimDuration::from_secs(2),
        Target::Heartbeat => SimDuration::from_secs(4),
        // Execution ARMORs / app processes appear after submission.
        _ => submit + SimDuration::from_millis(700),
    }
}

fn resolve_target(running: &Running, target: &Target, rng: &mut SimRng) -> Option<Pid> {
    let candidates = candidate_targets(running, target, usize::MAX);
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.index(candidates.len())])
}

/// Classifies the watched process's current condition (Table 6 columns):
/// stopped → hang, exited → by exit status, still running cleanly →
/// `None`. Public so external drivers (the `ree-mc` interleaving
/// explorer) classify manually-driven runs identically to [`execute`].
pub(crate) fn classify_target_state(
    running: &Running,
    pid: Pid,
    model: &ErrorModel,
) -> Option<FailureClass> {
    let cluster = &running.cluster;
    if cluster.is_stopped(pid) {
        return Some(FailureClass::Hang);
    }
    if let Some((_, status)) = cluster.exit_status(pid) {
        return match status {
            ExitStatus::Killed(Signal::Segv) => Some(FailureClass::SegFault),
            ExitStatus::Killed(Signal::Ill) => Some(FailureClass::IllegalInstruction),
            ExitStatus::Aborted(_) => Some(FailureClass::Assertion),
            ExitStatus::Killed(Signal::Int) | ExitStatus::Killed(Signal::Stop) => {
                Some(FailureClass::InjectedSignal)
            }
            ExitStatus::Killed(Signal::Kill) => {
                // SIGKILL has three sources: the daemon resolving a hang
                // (a real induced failure), a restart sweep, and the
                // normal uninstall at completion (not failures).
                if cluster.trace().any(TraceEvent::FaultInducedHang)
                    || cluster.trace().any(TraceEvent::HangDetected)
                {
                    Some(FailureClass::Hang)
                } else if matches!(model, ErrorModel::Sigstop) {
                    Some(FailureClass::InjectedSignal)
                } else {
                    None
                }
            }
            ExitStatus::Exited(0) => None,
            _ => Some(FailureClass::Other),
        };
    }
    None
}

/// [`Scenario::verify_outputs`] under the name `perfbench/` imports.
pub fn verify_outputs(running: &Running, scenario: &Scenario) -> Verdict {
    scenario.verify_outputs(running)
}

/// Attributes a non-completed run to the first SIFT phase that failed
/// (§4.2's system-failure taxonomy), from the trace and job-times
/// records. Public for the same reason as [`classify_target_state`].
pub(crate) fn classify_system_failure(running: &Running) -> SystemFailure {
    let trace = running.cluster.trace();
    let times = running.job_times(0);
    let submitted = times.as_ref().map(|t| t.submitted.is_some()).unwrap_or(false);
    let started = times.as_ref().map(|t| t.started.is_some()).unwrap_or(false);
    if !submitted || !trace.any(TraceEvent::SubmissionAccepted) {
        return SystemFailure::UnableToRegisterDaemons;
    }
    if trace.count_of(TraceEvent::ExecArmorInstalled) == 0 {
        return SystemFailure::UnableToInstallExecArmors;
    }
    if !started {
        return SystemFailure::UnableToStartApplication;
    }
    // Did the application actually finish its science? Either the FTM
    // recorded the end, or a rank announced clean termination that the
    // environment then failed to act on.
    let ended = times.as_ref().map(|t| t.ended.is_some()).unwrap_or(false);
    if ended || trace.count_of(TraceEvent::AppTerminated) > 0 {
        return SystemFailure::UnableToRecognizeCompletion;
    }
    SystemFailure::AppDidNotComplete
}
