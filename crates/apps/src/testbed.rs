//! Scenario assembly: cluster + blueprint + SCC + applications, plus
//! measurement extraction. Every experiment (and most integration tests)
//! starts from a [`Scenario`].

use crate::kind::{worst, AppKind};
use crate::verify::Verdict;
use crate::{OtisParams, PipelineParams, TextureParams};
use ree_os::NodeId;
use ree_os::{Cluster, ClusterConfig, LinkParams, Pid, Port, SpawnSpec, Topology};
use ree_sift::{Blueprint, JobSpec, JobTimes, Scc, SiftConfig};
use ree_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// A declarative experiment setup.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Number of cluster nodes (4 for single-app, 6 for two-app runs).
    pub nodes: usize,
    /// SIFT environment configuration.
    pub sift: SiftConfig,
    /// Texture-application workload parameters.
    pub texture: TextureParams,
    /// OTIS workload parameters.
    pub otis: OtisParams,
    /// Image-acquisition pipeline workload parameters.
    pub pipeline: PipelineParams,
    /// Jobs the SCC submits.
    pub jobs: Vec<JobSpec>,
    /// Master seed.
    pub seed: u64,
    /// Whether the OS trace records events (slower, needed for
    /// classification).
    pub trace: bool,
    /// Explicit interconnect topology. `None` is the cluster's default,
    /// [`Topology::single_switch`] over the testbed's Ethernet —
    /// byte-for-byte identical to the historical flat model.
    pub topology: Option<Topology>,
}

impl Scenario {
    /// The paper's standard single-application setup: the texture
    /// program on two nodes of the 4-node testbed, submitted at t=5 s.
    pub fn single_texture(seed: u64) -> Scenario {
        Scenario {
            nodes: 4,
            sift: SiftConfig::default(),
            texture: TextureParams::default(),
            otis: OtisParams::default(),
            pipeline: PipelineParams::default(),
            jobs: vec![JobSpec {
                app: AppKind::Texture.name().into(),
                ranks: 2,
                nodes: vec![2, 3],
                submit_at: SimDuration::from_secs(5),
            }],
            seed,
            trace: true,
            topology: None,
        }
    }

    /// The §8 two-application setup on the 6-node testbed: Mars Rover
    /// texture (two images) + OTIS, each rank on a dedicated node.
    pub fn two_apps(seed: u64) -> Scenario {
        let texture = TextureParams { images: 2, ..Default::default() };
        Scenario {
            nodes: 6,
            sift: SiftConfig::default(),
            texture,
            otis: OtisParams::default(),
            pipeline: PipelineParams::default(),
            jobs: vec![
                JobSpec {
                    app: AppKind::Texture.name().into(),
                    ranks: 2,
                    nodes: vec![2, 3],
                    submit_at: SimDuration::from_secs(5),
                },
                JobSpec {
                    app: AppKind::Otis.name().into(),
                    ranks: 2,
                    nodes: vec![4, 5],
                    submit_at: SimDuration::from_secs(6),
                },
            ],
            seed,
            trace: true,
            topology: None,
        }
    }

    /// The image-acquisition pipeline on an explicit two-switch
    /// topology: camera and compute share the acquisition switch with
    /// the SIFT control nodes; the downlink rank sits alone behind a
    /// constrained trunk (a tenth of the uplink bandwidth) — the link a
    /// partition fault severs in the network experiments.
    pub fn image_pipeline(seed: u64) -> Scenario {
        let mut b = Topology::builder(5);
        let acquisition = b.add_switch();
        let downlink = b.add_switch();
        let uplink = LinkParams::wire(12_500_000, SimDuration::from_micros(200));
        for node in 0..4u16 {
            b.connect(Port::Node(NodeId(node)), Port::Switch(acquisition), uplink, uplink);
        }
        b.connect(Port::Node(NodeId(4)), Port::Switch(downlink), uplink, uplink);
        let trunk = LinkParams::wire(1_250_000, SimDuration::from_micros(500));
        b.connect_symmetric(Port::Switch(acquisition), Port::Switch(downlink), trunk);
        Scenario {
            nodes: 5,
            sift: SiftConfig::default(),
            texture: TextureParams::default(),
            otis: OtisParams::default(),
            pipeline: PipelineParams::default(),
            jobs: vec![JobSpec {
                app: AppKind::Pipeline.name().into(),
                ranks: 3,
                nodes: vec![1, 2, 4],
                submit_at: SimDuration::from_secs(5),
            }],
            seed,
            trace: true,
            topology: Some(b.build()),
        }
    }

    /// Builds and boots the scenario: SIFT environment installing, jobs
    /// scheduled.
    pub fn start(&self) -> Running {
        let mut config = ClusterConfig::ree_testbed(self.seed);
        config.nodes = self.nodes;
        config.trace_enabled = self.trace;
        config.topology = self.topology.clone();
        let mut cluster = Cluster::new(config);
        let scc = Scc::new(self.blueprint(), self.nodes as u16, self.jobs.clone());
        let scc_pid = cluster.spawn(SpawnSpec::new("scc", NodeId(0), Box::new(scc)));
        Running { cluster, scc_pid, jobs: self.jobs.len() }
    }

    /// The SIFT blueprint with every application of the table registered
    /// under this scenario's workload parameters.
    fn blueprint(&self) -> Arc<Blueprint> {
        let apps = AppKind::ALL.map(|kind| (kind.name().to_owned(), kind.factory(self)));
        Blueprint::new(self.sift.clone(), apps)
    }

    /// Each job's slot and application; `None` for a name outside the
    /// table (which [`ree_sift::JobSpec`] cannot rule out by type).
    fn job_kinds(&self) -> impl Iterator<Item = (u32, Option<AppKind>)> + '_ {
        self.jobs.iter().enumerate().map(|(slot, job)| (slot as u32, AppKind::from_name(&job.app)))
    }

    /// Nominal fault-free duration of the first job's science (zero for
    /// no job or an unknown application).
    pub fn nominal(&self) -> SimDuration {
        match self.job_kinds().next() {
            Some((_, Some(kind))) => kind.nominal(self),
            _ => SimDuration::ZERO,
        }
    }

    /// Aggregated output verdict over every product of every job; a job
    /// naming an unknown application has no output, hence `Missing`.
    pub fn verify_outputs(&self, running: &Running) -> Verdict {
        let fs = running.cluster.remote_fs_ref();
        worst(self.job_kinds().map(|(slot, kind)| match kind {
            Some(kind) => kind.verify(fs, self, slot),
            None => Verdict::Missing,
        }))
    }

    /// Pre-generates every campaign-shared synthetic input this
    /// scenario's jobs will read ([`crate::synth::mars_surface_shared`],
    /// [`crate::synth::thermal_frame_shared`]) and the fault-free texture
    /// pipeline over them, so a campaign's worker threads find the caches
    /// warm instead of racing to compute the same table. Runs hit the
    /// caches either way — warming is purely a throughput optimisation,
    /// never a correctness requirement.
    ///
    /// ```
    /// let scenario = ree_apps::Scenario::single_texture(7);
    /// scenario.warm_inputs(); // idempotent; the `Campaign` executor calls it
    /// ```
    pub fn warm_inputs(&self) {
        for (slot, kind) in self.job_kinds() {
            if let Some(kind) = kind {
                kind.warm(self, slot);
            }
        }
    }

    /// Runs the scenario without any injection until all jobs complete
    /// or `horizon` passes; returns the run.
    pub fn run_fault_free(&self, horizon: SimTime) -> Running {
        let mut running = self.start();
        running.run_until_done(horizon);
        running
    }

    /// Boots the scenario once and freezes it at `until` as a reusable
    /// [`BootSnapshot`]. Campaigns boot the identical SIFT cluster for
    /// every run; snapshotting the booted state and handing each run a
    /// clone skips re-executing the whole installation protocol
    /// (~5 s of simulated setup) per run.
    ///
    /// Boot runs under this scenario's `seed`, which a campaign holds
    /// fixed; per-run randomness enters only when a fork re-seeds the
    /// cluster streams ([`BootSnapshot::fork`]). Cold boots that re-seed
    /// at the same instant reproduce a fork byte-for-byte.
    pub fn boot_snapshot(&self, until: SimTime) -> BootSnapshot {
        let mut running = self.start();
        running.run_until_done(until);
        // Freeze the boot-time trace records into the shared prefix so
        // each fork's clone is a refcount bump, not a deep copy. Readers
        // see the identical sequence, so warm and cold runs still render
        // byte-for-byte the same.
        running.cluster.trace_mut().freeze();
        BootSnapshot { running, booted_to: until }
    }
}

/// A booted cluster frozen at a fixed instant, cheaply forkable into
/// independent per-run copies.
///
/// The snapshot is `Send + Sync`: one boot on the campaign thread serves
/// every worker, each of which clones (`fork`) its own `Running` per
/// run. Immutable structure (app factories, interned names, FFT plans,
/// synthetic input caches) stays `Arc`-shared across forks. Mutable state
/// is either copied by the fork or shared until written: an ARMOR
/// element's state until the first mutating call on it, a texture rank's
/// image until the first heap flip into it.
pub struct BootSnapshot {
    running: Running,
    booted_to: SimTime,
}

impl BootSnapshot {
    /// The instant the boot was frozen at.
    pub fn booted_to(&self) -> SimTime {
        self.booted_to
    }

    /// Clones the booted cluster and re-seeds its random streams
    /// from `seed` — the per-run warm-boot path.
    pub fn fork(&self, seed: u64) -> Running {
        let mut running = self.running.clone();
        running.cluster.reseed(seed);
        running
    }

    /// Consumes the snapshot into a run without the clone — the cold
    /// path (boot, re-seed, run) used when a snapshot serves one run.
    pub fn into_running(self, seed: u64) -> Running {
        let mut running = self.running;
        running.cluster.reseed(seed);
        running
    }
}

impl std::fmt::Debug for BootSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BootSnapshot")
            .field("booted_to", &self.booted_to)
            .field("running", &self.running)
            .finish()
    }
}

/// Memoised `scc/alldone` probe for per-event completion predicates.
///
/// The returned closure re-reads the remote file system only when its
/// content [`version`](ree_os::RemoteFs::version) has moved — a u64
/// compare per event instead of a path lookup. The probed value can
/// only change when the table mutates, so the answer sequence is
/// identical to [`Running::all_done`] on every event.
///
/// One memo serves one linear history of one cluster: two forks of a
/// cluster continue the same version counter, so after diverging they
/// can hold different tables at equal versions. Whoever forks (the
/// model checker does, at every branch) gives each fork its own memo.
pub fn all_done_memo() -> impl FnMut(&Cluster) -> bool {
    let mut seen = u64::MAX;
    let mut done = false;
    move |c: &Cluster| {
        let fs = c.remote_fs_ref();
        if fs.version() != seen {
            seen = fs.version();
            done = fs.peek("scc/alldone").is_some();
        }
        done
    }
}

/// A live (or finished) scenario execution.
#[derive(Clone)]
pub struct Running {
    /// The simulated cluster.
    pub cluster: Cluster,
    /// The SCC driver's pid.
    pub scc_pid: Pid,
    jobs: usize,
}

impl Running {
    /// Runs until every job has a completion report (true) or the
    /// horizon passes (false).
    pub fn run_until_done(&mut self, horizon: SimTime) -> bool {
        let jobs = self.jobs;
        let mut done = all_done_memo();
        self.cluster.run_until_pred(horizon, |c| done(c) && jobs > 0)
    }

    /// Runs for a fixed horizon regardless of completion.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.cluster.run_until(horizon);
    }

    /// Like [`Running::run_until_done`], but also stops (without
    /// counting as done) as soon as `pred` holds — the hook network
    /// fault drivers use to react to trace events (e.g. arming a
    /// partition off the first failure detection) mid-run.
    pub fn run_until_done_or(
        &mut self,
        horizon: SimTime,
        mut pred: impl FnMut(&Cluster) -> bool,
    ) -> bool {
        let jobs = self.jobs;
        let mut done = all_done_memo();
        self.cluster.run_until_pred(horizon, |c| (done(c) && jobs > 0) || pred(c));
        self.all_done()
    }

    /// Timing record of one job slot.
    pub fn job_times(&self, slot: u64) -> Option<JobTimes> {
        self.cluster.remote_fs_ref().peek(&JobTimes::path(slot)).and_then(JobTimes::decode)
    }

    /// True if every job completed.
    pub fn all_done(&self) -> bool {
        self.cluster.remote_fs_ref().peek("scc/alldone").is_some()
    }

    /// Recovery intervals measured from the trace: pairs each
    /// failure-detection event with the next recovery-completion event —
    /// the interval between failure detection and target restart (§4.2's
    /// recovery-time definition).
    pub fn recovery_times(&self) -> Vec<SimDuration> {
        let trace = self.cluster.trace();
        let completions: Vec<(usize, SimTime)> = trace
            .records()
            .enumerate()
            .filter(|(_, r)| r.event == Some(ree_os::TraceEvent::RecoveryCompleted))
            .map(|(i, r)| (i, r.time))
            .collect();
        let mut out = Vec::new();
        let mut c = 0;
        for (i, r) in trace.records().enumerate() {
            if !r.event.map(|e| e.is_failure_detection()).unwrap_or(false) {
                continue;
            }
            while c < completions.len() && completions[c].0 <= i {
                c += 1;
            }
            if let Some(&(_, done)) = completions.get(c) {
                out.push(done.since(r.time));
            }
        }
        out
    }
}

impl std::fmt::Debug for Running {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Running")
            .field("now", &self.cluster.now())
            .field("jobs", &self.jobs)
            .field("done", &self.all_done())
            .finish()
    }
}

/// Runs an application **without** the SIFT environment (the Table 3
/// "Baseline No SIFT" configuration): ranks spawned directly, no ARMORs.
pub fn run_without_sift(scenario: &Scenario, horizon: SimTime) -> (Cluster, Option<SimDuration>) {
    let mut config = ClusterConfig::ree_testbed(scenario.seed);
    config.nodes = scenario.nodes;
    config.trace_enabled = scenario.trace;
    config.topology = scenario.topology.clone();
    let mut cluster = Cluster::new(config);
    let blueprint = scenario.blueprint();
    let job = scenario.jobs.first().expect("scenario has a job");
    let factory = blueprint.app_factory(&job.app).expect("registered app");
    let launch = ree_sift::AppLaunch {
        app: job.app.clone(),
        slot: 0,
        rank: 0,
        size: job.ranks,
        nodes: job.nodes.clone(),
        exec_pids: vec![],
        attempt: 0,
        sift_enabled: false,
        rank0_pid: None,
        factory: factory.clone(),
    };
    let behavior = factory(&launch);
    let start = SimTime::ZERO;
    let rank0 = cluster.spawn(SpawnSpec::new(
        format!("{}-r0-nosift", job.app),
        NodeId(job.nodes[0]),
        behavior,
    ));
    // Run until rank 0 exits (the app writes its products before that).
    cluster.run_until_pred(horizon, |c| !c.is_alive(rank0));
    let duration = cluster.exit_status(rank0).map(|(t, _)| t.since(start));
    (cluster, duration)
}
