//! The simulated cluster: nodes, process table, signals, timers, CPU work,
//! message delivery, and the fault-activation hook.
//!
//! This is the substrate substituting for the paper's 4/6-node PowerPC-750
//! LynxOS testbed (§2). Everything the SIFT protocols can observe — child
//! exits via `waitpid`, process-table liveness, signal semantics, message
//! timing, stable storage — is modelled here; everything above (ARMORs,
//! MPI, applications) is ordinary `Process` behaviour.

use crate::machine::{FaultConsequence, InjectionSite, MachineState, TextImage};
use crate::process::{ExitStatus, HeapHit, HeapTarget, Message, Payload, Pid, Process, Signal};
use crate::ptable::{ProcTable, Slot};
use crate::storage::{RamDisk, RemoteFs};
use crate::trace::{Trace, TraceDetail, TraceEvent, TraceKind};
use ree_net::{LinkParams, Network, NodeId, Topology};
use ree_sim::{EventQueue, SimDuration, SimRng, SimTime, Sink};
use std::sync::Arc;

/// Identifies a pending timer (for cancellation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(u64);

/// Where a newly spawned process's text image comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TextSource {
    /// Fresh image loaded from the (uncorruptible) remote file system.
    Pristine,
    /// Copy of another process's current image — the daemon
    /// fork-style recovery of §3.4, which *propagates text corruption*.
    CopyFrom(Pid),
}

/// Parameters for spawning a process.
pub struct SpawnSpec {
    /// Human-readable instance name (unique names ease trace queries).
    pub name: String,
    /// Node to run on.
    pub node: NodeId,
    /// The behaviour state machine.
    pub behavior: Box<dyn Process>,
    /// Parent for `waitpid` notification, if any.
    pub parent: Option<Pid>,
    /// Text-image source.
    pub text: TextSource,
    /// Override of the spawn latency (e.g. image copy vs. disk reload).
    pub latency: Option<SimDuration>,
}

impl SpawnSpec {
    /// Convenience constructor with pristine text and default latency.
    pub fn new(name: impl Into<String>, node: NodeId, behavior: Box<dyn Process>) -> Self {
        SpawnSpec {
            name: name.into(),
            node,
            behavior,
            parent: None,
            text: TextSource::Pristine,
            latency: None,
        }
    }

    /// Sets the parent process.
    pub fn with_parent(mut self, parent: Pid) -> Self {
        self.parent = Some(parent);
        self
    }

    /// Sets the text-image source.
    pub fn with_text(mut self, text: TextSource) -> Self {
        self.text = text;
        self
    }

    /// Sets an explicit spawn latency.
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = Some(latency);
        self
    }
}

impl std::fmt::Debug for SpawnSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpawnSpec")
            .field("name", &self.name)
            .field("node", &self.node)
            .field("parent", &self.parent)
            .field("text", &self.text)
            .finish()
    }
}

/// Per-node RAM-disk capacity in bytes.
const RAMDISK_CAPACITY: usize = 2 << 20;
/// Granularity at which CPU work executes (and faults can activate).
const WORK_CHUNK: SimDuration = SimDuration::from_millis(250);
/// Latency of process creation, unless the [`SpawnSpec`] overrides it.
const SPAWN_LATENCY: SimDuration = SimDuration::from_millis(150);

/// Static configuration of a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes (the paper uses 4, and 6 for the two-application
    /// experiments of §8).
    pub nodes: usize,
    /// Explicit interconnect topology (switches, per-link parameters);
    /// `None` is [`Topology::single_switch`] with
    /// [`LinkParams::ethernet_100mbps`] uplinks, the historical flat
    /// model.
    pub topology: Option<Topology>,
    /// Master seed; all stochastic behaviour derives from it.
    pub seed: u64,
    /// Whether the trace buffer records events.
    pub trace_enabled: bool,
}

impl ClusterConfig {
    /// The paper's 4-node testbed (two boards × two PowerPC 750s).
    pub fn ree_testbed(seed: u64) -> Self {
        ClusterConfig { nodes: 4, topology: None, seed, trace_enabled: true }
    }
}

#[derive(Clone)]
enum OsEvent {
    Start { pid: Pid },
    Deliver { to: Pid, from: Pid, label: &'static str, payload: Box<dyn Payload> },
    Timer { pid: Pid, timer_id: u64, tag: u64 },
    WorkChunk { pid: Pid, work_id: u64 },
    SignalEv { pid: Pid, sig: Signal },
    ChildExit { parent: Pid, child: Pid, status: ExitStatus },
}

#[derive(Clone)]
struct WorkState {
    tag: u64,
    remaining: SimDuration,
}

#[derive(Clone)]
struct ProcEntry {
    kind: &'static str,
    parent: Option<Pid>,
    behavior: Option<Box<dyn Process>>,
    machine: MachineState,
    stopped: bool,
    deaf: bool,
    stash: Vec<OsEvent>,
    /// Armed one-shot timer ids. A process holds a handful at a time, so
    /// a linear vector beats hashing on the per-event path.
    live_timers: Vec<u64>,
    /// In-progress CPU work units, keyed by work id (same small-n
    /// argument as `live_timers`).
    works: Vec<(u64, WorkState)>,
    spawned_at: SimTime,
}

/// The simulated cluster world.
///
/// # Examples
///
/// ```
/// use ree_os::{Cluster, ClusterConfig, Message, Process, ProcCtx, SpawnSpec};
/// use ree_net::NodeId;
/// use ree_sim::SimTime;
///
/// #[derive(Clone)]
/// struct Hello;
/// impl Process for Hello {
///     fn kind(&self) -> &'static str { "hello" }
///     fn on_start(&mut self, ctx: &mut ProcCtx<'_>) { ctx.trace("hello started"); }
///     fn on_message(&mut self, _msg: Message, _ctx: &mut ProcCtx<'_>) {}
/// }
///
/// let mut cluster = Cluster::new(ClusterConfig::ree_testbed(1));
/// cluster.spawn(SpawnSpec::new("hello", NodeId(0), Box::new(Hello)));
/// cluster.run_until(SimTime::from_secs(1));
/// assert!(cluster.trace().contains("hello started"));
/// ```
///
/// A cluster is [`Clone`]: a booted cluster can be copied and each copy
/// driven independently (the warm-boot campaign snapshot). A copy is
/// independent, not deep: a behaviour may share state with its original
/// until one side writes it (ARMOR element state, frozen trace records,
/// committed checkpoint images). Combine with [`Cluster::reseed`] to give
/// each copy its own random streams.
#[derive(Clone)]
pub struct Cluster {
    now: SimTime,
    queue: EventQueue<OsEvent>,
    net: Network,
    /// One RAM disk per node; which nodes are down is the network's record.
    ramdisks: Vec<RamDisk>,
    procs: ProcTable<ProcEntry>,
    remote_fs: RemoteFs,
    rng: SimRng,
    machine_rng: SimRng,
    trace: Trace,
    next_timer: u64,
    next_work: u64,
}

impl Cluster {
    /// Builds a cluster from configuration.
    pub fn new(config: ClusterConfig) -> Self {
        let mut master = SimRng::new(config.seed);
        let net_rng = master.fork(1);
        let rng = master.fork(2);
        let machine_rng = master.fork(3);
        let ramdisks =
            (0..config.nodes).map(|_| RamDisk::with_capacity(RAMDISK_CAPACITY)).collect();
        let mut trace = Trace::new();
        trace.set_enabled(config.trace_enabled);
        let topology = match &config.topology {
            Some(topology) => {
                assert!(
                    topology.nodes() as usize >= config.nodes,
                    "topology covers {} nodes but the cluster has {}",
                    topology.nodes(),
                    config.nodes
                );
                topology.clone()
            }
            None => Topology::single_switch(config.nodes as u16, LinkParams::ethernet_100mbps()),
        };
        let net = Network::new(topology, net_rng);
        Cluster {
            net,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            ramdisks,
            procs: ProcTable::new(),
            remote_fs: RemoteFs::new(),
            rng,
            machine_rng,
            trace,
            next_timer: 1,
            next_work: 1,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace access (to clear between phases).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Read-only remote FS access.
    pub fn remote_fs_ref(&self) -> &RemoteFs {
        &self.remote_fs
    }

    /// A node's RAM disk.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn ramdisk(&mut self, node: NodeId) -> &mut RamDisk {
        &mut self.ramdisks[node.0 as usize]
    }

    /// Direct network access (for load injection in recovery paths).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Read-only network access (traffic counters, topology, routes).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Re-seeds every random stream (network jitter, cluster,
    /// machine model) exactly as [`Cluster::new`] derives them from
    /// `seed`, discarding the streams' current positions. Deterministic
    /// non-stream state — event queue, process table, storage, trace —
    /// is untouched.
    ///
    /// This is the warm-boot forking contract: a campaign boots one
    /// cluster (under the campaign's scenario seed), clones it per run,
    /// and re-seeds each clone with the run seed. A cold run that boots
    /// its own cluster and re-seeds at the same instant produces
    /// byte-identical behaviour, because the post-reseed streams are a
    /// pure function of `seed` and the pre-reseed boot is a pure
    /// function of the scenario.
    pub fn reseed(&mut self, seed: u64) {
        let mut master = SimRng::new(seed);
        self.net.reseed(master.fork(1));
        self.rng = master.fork(2);
        self.machine_rng = master.fork(3);
    }

    // ------------------------------------------------------------------
    // Process management
    // ------------------------------------------------------------------

    /// Spawns a process; it starts after the spawn latency.
    ///
    /// # Panics
    ///
    /// Panics if the target node does not exist.
    pub fn spawn(&mut self, spec: SpawnSpec) -> Pid {
        assert!((spec.node.0 as usize) < self.ramdisks.len(), "spawn on unknown node");
        let kind = spec.behavior.kind();
        let text = match spec.text {
            TextSource::Pristine => TextImage::pristine(kind),
            TextSource::CopyFrom(src) => self
                .procs
                .get(src)
                .map_or_else(|| TextImage::pristine(kind), |e| e.machine.text_image()),
        };
        let name: Arc<str> = spec.name.into();
        let entry = ProcEntry {
            kind,
            parent: spec.parent,
            behavior: Some(spec.behavior),
            machine: MachineState::new(text),
            stopped: false,
            deaf: false,
            stash: Vec::new(),
            live_timers: Vec::new(),
            works: Vec::new(),
            spawned_at: self.now,
        };
        let pid = self.procs.insert(spec.node, Arc::clone(&name), entry);
        let latency = spec.latency.unwrap_or(SPAWN_LATENCY);
        self.queue.schedule(self.now + latency, OsEvent::Start { pid });
        self.trace.push(
            self.now,
            Some(pid),
            TraceKind::Lifecycle,
            TraceDetail::Spawn { name, kind, node: spec.node },
        );
        pid
    }

    /// True if the process is in the process table.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.procs.get(pid).is_some()
    }

    /// True if the process is alive but stopped (hung).
    pub fn is_stopped(&self, pid: Pid) -> bool {
        self.procs.get(pid).map(|e| e.stopped).unwrap_or(false)
    }

    /// Exit record of a dead process.
    pub fn exit_status(&self, pid: Pid) -> Option<&(SimTime, ExitStatus)> {
        match self.procs.slot(pid)? {
            Slot::Exited(record) => Some(record),
            Slot::Live { .. } => None,
        }
    }

    /// Node a live process runs on.
    pub fn node_of(&self, pid: Pid) -> Option<NodeId> {
        match self.procs.slot(pid)? {
            Slot::Live { node, .. } => Some(*node),
            Slot::Exited(_) => None,
        }
    }

    /// Instance name of a live process.
    pub fn name_of(&self, pid: Pid) -> Option<&str> {
        match self.procs.slot(pid)? {
            Slot::Live { name, .. } => Some(name),
            Slot::Exited(_) => None,
        }
    }

    /// The behaviour of a live process, if it is a `T`: a test or tool
    /// reads a process's own state through it.
    pub fn behavior<T: Process + 'static>(&self, pid: Pid) -> Option<&T> {
        self.procs.get(pid)?.behavior.as_deref()?.process_any().downcast_ref()
    }

    /// Behaviour kind of a live process (e.g. `armor`, `mpi-app`).
    pub fn kind_of(&self, pid: Pid) -> Option<&'static str> {
        self.procs.get(pid).map(|e| e.kind)
    }

    /// Finds a live process by instance name. Duplicate names resolve
    /// to the **lowest** live pid.
    pub fn find_by_name(&self, name: &str) -> Option<Pid> {
        self.procs.live().find(|(_, _, n)| *n == name).map(|(pid, ..)| pid)
    }

    /// All live processes on a node, ascending.
    pub fn procs_on_node(&self, node: NodeId) -> Vec<Pid> {
        self.procs.live().filter(|(_, n, ..)| *n == node).map(|(pid, ..)| pid).collect()
    }

    /// All live processes, ascending.
    pub fn all_procs(&self) -> Vec<Pid> {
        self.procs.live().map(|(pid, ..)| pid).collect()
    }

    // ------------------------------------------------------------------
    // Fault injection surface
    // ------------------------------------------------------------------

    /// Delivers a signal to a process (the SIGINT/SIGSTOP error models).
    pub fn send_signal(&mut self, pid: Pid, sig: Signal) {
        self.trace.push(
            self.now,
            Some(pid),
            TraceKind::Injection,
            TraceDetail::SignalInjected(sig),
        );
        self.queue.schedule(self.now, OsEvent::SignalEv { pid, sig });
    }

    /// Flips a bit in the target's register file.
    pub fn inject_register(&mut self, pid: Pid) -> Option<InjectionSite> {
        let entry = self.procs.get_mut(pid)?;
        let site = entry.machine.inject_register_bit(&mut self.machine_rng);
        self.trace.push(
            self.now,
            Some(pid),
            TraceKind::Injection,
            TraceDetail::RegisterFlip(site.clone()),
        );
        Some(site)
    }

    /// Flips a bit in the target's text segment.
    pub fn inject_text(&mut self, pid: Pid) -> Option<InjectionSite> {
        let entry = self.procs.get_mut(pid)?;
        let site = entry.machine.inject_text_bit(&mut self.machine_rng);
        self.trace.push(
            self.now,
            Some(pid),
            TraceKind::Injection,
            TraceDetail::TextFlip(site.clone()),
        );
        Some(site)
    }

    /// Flips a bit in the target's heap ([`Process::flip_heap_bit`]).
    pub fn inject_heap(&mut self, pid: Pid, target: &HeapTarget) -> Option<HeapHit> {
        // Split borrows: heap lives in behaviour, RNG in the cluster.
        let entry = self.procs.get_mut(pid)?;
        let behavior = entry.behavior.as_mut()?;
        let hit = behavior.flip_heap_bit(&mut self.machine_rng, target)?;
        self.trace.push(
            self.now,
            Some(pid),
            TraceKind::Injection,
            TraceDetail::HeapFlip(hit.clone()),
        );
        Some(hit)
    }

    /// Crashes an entire node: all processes killed, every incident
    /// link taken down ([`Network::set_node_down`]), RAM disk wiped
    /// (checkpoints lost). Loopback on the failed node is unaffected
    /// (nothing is left running to use it).
    pub fn fail_node(&mut self, node: NodeId) {
        self.trace.push(self.now, None, TraceKind::Injection, TraceDetail::NodeFailed(node));
        for pid in self.procs_on_node(node) {
            self.terminate(pid, ExitStatus::Killed(Signal::Kill), false);
        }
        self.ramdisks[node.0 as usize].wipe();
        self.net.set_node_down(node, true);
    }

    /// Restores a failed node (rebooted, empty).
    pub fn restore_node(&mut self, node: NodeId) {
        self.net.set_node_down(node, false);
        self.trace.push(self.now, None, TraceKind::Recovery, TraceDetail::NodeRestored(node));
    }

    /// True if the node exists and is up.
    pub fn node_alive(&self, node: NodeId) -> bool {
        (node.0 as usize) < self.ramdisks.len() && !self.net.node_down(node)
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.ramdisks.len()
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Executes the next pending event, returning its time, or `None` if
    /// the cluster is quiescent.
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, _, ev) = self.queue.pop()?;
        self.now = time;
        self.dispatch(ev);
        Some(time)
    }

    /// Runs until `horizon`; afterwards `now() == horizon` unless the
    /// queue drained earlier (then `now()` is the last event time).
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        while self.queue.peek_time().is_some_and(|t| t <= horizon) {
            self.step();
        }
        if self.now < horizon {
            self.now = horizon;
        }
        self.now
    }

    /// How many events could legally fire next: all events scheduled
    /// for the earliest pending instant. A model checker branches over
    /// them, because same-instant delivery order is a modelling choice,
    /// not a causal one; ready event `i` is the `i`-th in deterministic
    /// `(time, seq)` order, and [`Cluster::step`] always fires event 0.
    /// Zero when the cluster is quiescent.
    pub fn ready_count(&self) -> usize {
        self.queue.ready_count()
    }

    /// Executes ready event `i`, returning its time. `None` for
    /// `i >= ready_count()` (an event of a later instant would break
    /// causality), leaving the cluster untouched.
    pub fn step_ready(&mut self, i: usize) -> Option<SimTime> {
        let (time, ev) = self.queue.pop_ready(i)?;
        self.now = time;
        self.dispatch(ev);
        Some(time)
    }

    /// Time of the next pending event without executing it, or `None`
    /// when quiescent.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of events waiting to fire.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Short static label of ready event `i` (e.g. `"start"`,
    /// `"deliver"`, `"timer"`), or `None` for `i >= ready_count()`.
    /// Lets fault-model tooling pick branch victims by event class
    /// without exposing the private event type.
    pub fn ready_label(&self, i: usize) -> Option<&'static str> {
        self.queue.peek_ready(i).map(|ev| match ev {
            OsEvent::Start { .. } => "start",
            OsEvent::Deliver { .. } => "deliver",
            OsEvent::Timer { .. } => "timer",
            OsEvent::WorkChunk { .. } => "work",
            OsEvent::SignalEv { .. } => "signal",
            OsEvent::ChildExit { .. } => "child-exit",
        })
    }

    /// Discards ready event `i` without dispatching it — the sabotage
    /// primitive for model-checker self-tests: dropping an OS wakeup
    /// models a lost event the recovery protocols must survive. The
    /// drop is recorded in the trace. Returns the event's scheduled
    /// time, or `None` for `i >= ready_count()`.
    pub fn discard_ready(&mut self, i: usize) -> Option<SimTime> {
        let label = self.ready_label(i)?;
        let (time, _ev) = self.queue.pop_ready(i)?;
        self.trace.push(
            self.now,
            None,
            TraceKind::Injection,
            TraceDetail::Custom(format!("event omitted: {label}").into_boxed_str()),
        );
        Some(time)
    }

    /// Runs until `pred` holds (checked after each event) or the horizon
    /// passes. Returns `true` if the predicate was satisfied.
    pub fn run_until_pred<F: FnMut(&Cluster) -> bool>(
        &mut self,
        horizon: SimTime,
        mut pred: F,
    ) -> bool {
        if pred(self) {
            return true;
        }
        while self.queue.peek_time().is_some_and(|t| t <= horizon) {
            self.step();
            if pred(self) {
                return true;
            }
        }
        if self.now < horizon {
            self.now = horizon;
        }
        false
    }

    // ------------------------------------------------------------------
    // State digest
    // ------------------------------------------------------------------

    /// Writes a canonical encoding of every piece of mutable cluster
    /// state into `h`, so two clusters that will behave identically
    /// encode identically and two that have diverged do not. This is the
    /// convergence-pruning primitive for bounded model checking:
    /// branches whose digests of this stream collide are explored once.
    /// The bytes are the same on every target: tags and flags are single
    /// bytes, counts and byte runs have `u64` prefixes, integers are big-endian.
    ///
    /// Canonicalisation rules:
    ///
    /// * **Pending events** are written in `(time, seq)` firing order
    ///   with seqs **rank-renumbered** (0, 1, 2, … in firing order):
    ///   only the *relative* order of seqs affects future pops, so two
    ///   states reached by different interleavings — whose absolute seq
    ///   counters differ — still converge.
    /// * **RNG streams** (cluster, machine, network) are written by
    ///   position: equal visible state with diverged randomness must not prune.
    /// * **Processes** are written one slot per pid issued, in pid order:
    ///   a live process's state, or an exited one's exit record.
    /// * **Node liveness** is the network's down set, written with the
    ///   rest of the network state.
    /// * **Behaviour state** (`Box<dyn Process>`) is opaque; it is
    ///   approximated by the trace's typed-event counters plus every
    ///   storage effect (RAM-disk and remote-FS contents). A behaviour
    ///   divergence invisible to all three could in principle collide —
    ///   accepted and documented in `docs/MODELCHECK.md`.
    pub fn write_state_digest<S: Sink + ?Sized>(&self, h: &mut S) {
        h.put_u64(self.now.as_micros());
        put_words(h, &self.rng.state());
        put_words(h, &self.machine_rng.state());
        // The network state includes which nodes are down.
        self.net.write_state_digest(h);
        // RAM disks: full contents (sorted by path by construction).
        h.put_u64(self.ramdisks.len() as u64);
        for disk in &self.ramdisks {
            h.put_u64(disk.used() as u64);
            put_files(h, disk.entries());
        }
        // Remote FS: contents plus the version/read/write counters the
        // completion probes key on.
        put_words(h, &[self.remote_fs.version(), self.remote_fs.reads(), self.remote_fs.writes()]);
        put_files(h, self.remote_fs.entries());
        // Process table, one slot per pid issued in ascending pid order:
        // a live process's state or an exited one's record.
        h.put_u64(self.procs.slots().len() as u64);
        for (_, slot) in self.procs.slots() {
            let (name, node, entry) = match slot {
                Slot::Live { node, name, entry } => (name, node, entry),
                Slot::Exited((t, status)) => {
                    h.put_u8(1);
                    h.put_u64(t.as_micros());
                    hash_exit_status(status, h);
                    continue;
                }
            };
            h.put_u8(0);
            put_run(h, name.as_bytes());
            put_run(h, entry.kind.as_bytes());
            h.put_u16(node.0);
            h.put_u8(u8::from(entry.parent.is_some()));
            h.put_u64(entry.parent.map_or(0, |parent| parent.0));
            h.put_u8(u8::from(entry.stopped));
            h.put_u8(u8::from(entry.deaf));
            h.put_u64(entry.spawned_at.as_micros());
            h.put_u64(entry.stash.len() as u64);
            for ev in &entry.stash {
                hash_event_fingerprint(ev, h);
            }
            let mut timers = entry.live_timers.clone();
            timers.sort_unstable();
            h.put_u64(timers.len() as u64);
            put_words(h, &timers);
            let mut works: Vec<[u64; 3]> =
                entry.works.iter().map(|(id, w)| [*id, w.tag, w.remaining.as_micros()]).collect();
            works.sort_unstable();
            h.put_u64(works.len() as u64);
            works.iter().for_each(|work| put_words(h, work));
            h.put_u8(u8::from(entry.machine.has_pending_corruption()));
            h.put_u64(entry.machine.corrupted_text_sites() as u64);
            h.put_u64(entry.machine.activations());
            h.put_u64(entry.machine.faults_activated());
        }
        h.put_u64(self.next_timer);
        h.put_u64(self.next_work);
        // Behaviour-state proxy: what the environment has observed.
        put_words(h, self.trace.counters());
        // Pending events in firing order, seqs rank-renumbered.
        h.put_u64(self.queue.len() as u64);
        for (rank, (time, ev)) in self.queue.iter_pending().enumerate() {
            h.put_u64(time.as_micros());
            h.put_u64(rank as u64);
            hash_event_fingerprint(ev, h);
        }
    }

    fn dispatch(&mut self, ev: OsEvent) {
        match ev {
            OsEvent::SignalEv { pid, sig } => {
                self.handle_signal(pid, sig);
                return;
            }
            OsEvent::WorkChunk { pid, work_id } => {
                // A finished or cancelled work unit executes nothing.
                let Some(e) = self.procs.get(pid) else { return };
                if !e.works.iter().any(|(id, _)| *id == work_id) {
                    return;
                }
            }
            OsEvent::Timer { pid, timer_id, .. } => {
                // One-shot semantics: a cancelled timer never fires. Fired
                // timers stashed during a stop re-arm their id on resume.
                let live = match self.procs.get_mut(pid) {
                    Some(e) => match e.live_timers.iter().position(|t| *t == timer_id) {
                        Some(i) => {
                            e.live_timers.swap_remove(i);
                            true
                        }
                        None => false,
                    },
                    None => false,
                };
                if !live {
                    return;
                }
            }
            _ => {}
        }
        let pid = match &ev {
            OsEvent::Start { pid } => *pid,
            OsEvent::Deliver { to, .. } => *to,
            OsEvent::Timer { pid, .. } => *pid,
            OsEvent::ChildExit { parent, .. } => *parent,
            OsEvent::WorkChunk { pid, .. } => *pid,
            OsEvent::SignalEv { .. } => unreachable!(),
        };
        let Some(ev) = self.pre_execute(pid, ev) else { return };
        match ev {
            OsEvent::Start { .. } => self.with_behavior(pid, |b, ctx| b.on_start(ctx)),
            OsEvent::Deliver { from, label, payload, .. } => {
                self.trace.push(
                    self.now,
                    Some(pid),
                    TraceKind::Message,
                    TraceDetail::Deliver { label, from },
                );
                self.with_behavior(pid, |b, ctx| {
                    b.on_message(Message { from, label, payload }, ctx)
                });
            }
            OsEvent::Timer { tag, .. } => self.with_behavior(pid, |b, ctx| b.on_timer(tag, ctx)),
            OsEvent::ChildExit { child, status, .. } => {
                self.with_behavior(pid, |b, ctx| b.on_child_exit(child, status, ctx));
            }
            OsEvent::WorkChunk { work_id, .. } => self.advance_work(pid, work_id),
            OsEvent::SignalEv { .. } => unreachable!(),
        }
    }

    /// Common pre-execution path: liveness check, stop-stashing, and
    /// fault activation. Returns the event back if it should be delivered
    /// to the behaviour, `None` if it was consumed (process dead, event
    /// stashed, or fault-induced crash).
    fn pre_execute(&mut self, pid: Pid, ev: OsEvent) -> Option<OsEvent> {
        let entry = self.procs.get_mut(pid)?;
        if entry.stopped {
            entry.stash.push(ev);
            return None;
        }
        if entry.deaf {
            if let OsEvent::Deliver { label, .. } = &ev {
                self.trace.push(
                    self.now,
                    Some(pid),
                    TraceKind::Message,
                    TraceDetail::OmissionDrop { label },
                );
                return None;
            }
        }
        match entry.machine.activate(&mut self.machine_rng) {
            None => Some(ev),
            Some(FaultConsequence::SegFault) => {
                self.terminate(pid, ExitStatus::Killed(Signal::Segv), true);
                None
            }
            Some(FaultConsequence::IllegalInstruction) => {
                self.terminate(pid, ExitStatus::Killed(Signal::Ill), true);
                None
            }
            Some(FaultConsequence::Hang) => {
                entry.stopped = true;
                entry.stash.push(ev);
                self.trace.push_event(
                    self.now,
                    Some(pid),
                    TraceKind::Lifecycle,
                    TraceEvent::FaultInducedHang,
                    "fault-induced hang",
                );
                None
            }
            Some(FaultConsequence::SilentCorruption) => {
                if let Some(b) = entry.behavior.as_mut() {
                    b.silent_corruption(&mut self.machine_rng);
                }
                self.trace.push(self.now, Some(pid), TraceKind::Injection, "silent corruption");
                Some(ev)
            }
            Some(FaultConsequence::ReceiveOmission) => {
                entry.deaf = true;
                self.trace.push(
                    self.now,
                    Some(pid),
                    TraceKind::Lifecycle,
                    "fault-induced receive omission",
                );
                Some(ev)
            }
        }
    }

    /// Takes the behaviour out, runs `f` with a context, handles
    /// self-exit, and puts the behaviour back.
    fn with_behavior<F>(&mut self, pid: Pid, f: F)
    where
        F: FnOnce(&mut Box<dyn Process>, &mut ProcCtx<'_>),
    {
        let Some(entry) = self.procs.get_mut(pid) else { return };
        let Some(mut behavior) = entry.behavior.take() else { return };
        let mut ctx = ProcCtx { cluster: self, pid, exit: None };
        f(&mut behavior, &mut ctx);
        if let Some(status) = ctx.exit {
            // Behaviour requested exit; drop it and terminate.
            drop(behavior);
            self.terminate(pid, status, true);
        } else if let Some(entry) = self.procs.get_mut(pid) {
            entry.behavior = Some(behavior);
        }
        // If the entry vanished (killed during its own handler via a
        // signal it sent itself synchronously — not possible since signals
        // are queued), the behaviour is dropped here.
    }

    fn handle_signal(&mut self, pid: Pid, sig: Signal) {
        let Some(entry) = self.procs.get_mut(pid) else { return };
        match sig {
            Signal::Int | Signal::Kill | Signal::Segv | Signal::Ill => {
                self.terminate(pid, ExitStatus::Killed(sig), true);
            }
            Signal::Stop => {
                entry.stopped = true;
                self.trace.push(self.now, Some(pid), TraceKind::Signal, "stopped");
            }
            Signal::Cont => {
                if entry.stopped {
                    entry.stopped = false;
                    let stash = std::mem::take(&mut entry.stash);
                    self.trace.push(self.now, Some(pid), TraceKind::Signal, "continued");
                    for ev in stash {
                        if let OsEvent::Timer { timer_id, .. } = &ev {
                            // The id was consumed when the timer fired
                            // into the stash; re-arm it for redelivery.
                            entry.live_timers.push(*timer_id);
                        }
                        self.queue.schedule(self.now, ev);
                    }
                }
            }
        }
    }

    /// Runs one chunk of a work unit that survived `pre_execute`: the
    /// next chunk is queued, or the last one reports `on_work_done`.
    fn advance_work(&mut self, pid: Pid, work_id: u64) {
        let Some(entry) = self.procs.get_mut(pid) else { return };
        let Some(i) = entry.works.iter().position(|(id, _)| *id == work_id) else { return };
        let work = &mut entry.works[i].1;
        if work.remaining > WORK_CHUNK {
            work.remaining -= WORK_CHUNK;
            self.queue.schedule(self.now + WORK_CHUNK, OsEvent::WorkChunk { pid, work_id });
        } else {
            let tag = work.tag;
            entry.works.swap_remove(i);
            self.with_behavior(pid, |b, ctx| b.on_work_done(tag, ctx));
        }
    }

    fn terminate(&mut self, pid: Pid, status: ExitStatus, notify_parent: bool) {
        let Some((name, entry)) = self.procs.exit(pid, (self.now, status.clone())) else { return };
        self.trace.push(
            self.now,
            Some(pid),
            TraceKind::Lifecycle,
            TraceDetail::ProcExit { name, status: status.clone() },
        );
        if notify_parent {
            if let Some(parent) = entry.parent {
                if self.procs.get(parent).is_some() {
                    // waitpid wakes the parent essentially immediately.
                    self.queue.schedule(
                        self.now + SimDuration::from_micros(500),
                        OsEvent::ChildExit { parent, child: pid, status },
                    );
                }
            }
        }
    }
}

/// Writes an event's identity — variant tag, pids, labels, ids — but not
/// its opaque payload. Two pending `Deliver`s that agree on sender,
/// receiver, and protocol label encode alike even if their payloads were
/// computed differently; the payload divergence surfaces through the
/// storage/trace state it came from.
fn hash_event_fingerprint<S: Sink + ?Sized>(ev: &OsEvent, h: &mut S) {
    match ev {
        OsEvent::Start { pid } => {
            h.put_u8(0);
            h.put_u64(pid.0);
        }
        OsEvent::Deliver { to, from, label, .. } => {
            h.put_u8(1);
            put_words(h, &[to.0, from.0]);
            put_run(h, label.as_bytes());
        }
        OsEvent::Timer { pid, timer_id, tag } => {
            h.put_u8(2);
            put_words(h, &[pid.0, *timer_id, *tag]);
        }
        OsEvent::WorkChunk { pid, work_id } => {
            h.put_u8(3);
            put_words(h, &[pid.0, *work_id]);
        }
        OsEvent::SignalEv { pid, sig } => {
            h.put_u8(4);
            h.put_u64(pid.0);
            h.put_u8(*sig as u8);
        }
        OsEvent::ChildExit { parent, child, status } => {
            h.put_u8(5);
            put_words(h, &[parent.0, child.0]);
            hash_exit_status(status, h);
        }
    }
}

/// Writes an [`ExitStatus`]: a tag, then the code, signal or reason.
fn hash_exit_status<S: Sink + ?Sized>(status: &ExitStatus, h: &mut S) {
    match status {
        ExitStatus::Exited(code) => {
            h.put_u8(0);
            h.put_u32(*code as u32);
        }
        ExitStatus::Killed(sig) => {
            h.put_u8(1);
            h.put_u8(*sig as u8);
        }
        ExitStatus::Aborted(reason) => {
            h.put_u8(2);
            put_run(h, reason.as_bytes());
        }
    }
}

/// Writes each word, without a count (the caller's layout fixes it).
fn put_words<S: Sink + ?Sized>(h: &mut S, words: &[u64]) {
    words.iter().for_each(|&w| h.put_u64(w));
}

/// Writes a byte run behind its `u64` length.
fn put_run<S: Sink + ?Sized>(h: &mut S, bytes: &[u8]) {
    h.put_u64(bytes.len() as u64);
    h.put_bytes(bytes);
}

/// Writes a file table: its entry count, then each path and contents.
fn put_files<'a, S: Sink + ?Sized>(
    h: &mut S,
    files: impl ExactSizeIterator<Item = (&'a str, &'a [u8])>,
) {
    h.put_u64(files.len() as u64);
    for (path, data) in files {
        put_run(h, path.as_bytes());
        put_run(h, data);
    }
}

/// The system-call surface a process sees while handling an event.
pub struct ProcCtx<'a> {
    cluster: &'a mut Cluster,
    pid: Pid,
    /// How the process asked to exit, applied when the handler returns.
    exit: Option<ExitStatus>,
}

impl ProcCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.cluster.now
    }

    /// This process's PID.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.cluster.node_of(self.pid).expect("self entry")
    }

    /// Number of nodes in the cluster: a node id below it may be spawned on.
    pub fn node_count(&self) -> usize {
        self.cluster.node_count()
    }

    /// Sends `payload` (`size` simulated bytes) to another process.
    ///
    /// Delivery is asynchronous, and a partition silently drops the
    /// packet; reliable protocols must acknowledge.
    pub fn send<T: Payload>(&mut self, to: Pid, label: &'static str, size: u64, payload: T) {
        self.send_boxed(to, label, size, Box::new(payload));
    }

    /// Type-erased variant of [`ProcCtx::send`].
    pub fn send_boxed(
        &mut self,
        to: Pid,
        label: &'static str,
        size: u64,
        payload: Box<dyn Payload>,
    ) {
        let from_node = self.node();
        let to_node = match self.cluster.node_of(to) {
            Some(n) => n,
            None => {
                // Destination already dead: packet goes nowhere. Still
                // consumes send-side bandwidth.
                self.cluster.trace.push(
                    self.cluster.now,
                    Some(self.pid),
                    TraceKind::Message,
                    TraceDetail::SendToDead { label, to },
                );
                return;
            }
        };
        match self.cluster.net.send(self.cluster.now, from_node, to_node, size) {
            Some(at) => {
                let from = self.pid;
                self.cluster.queue.schedule(at, OsEvent::Deliver { to, from, label, payload });
            }
            None => {
                self.cluster.trace.push(
                    self.cluster.now,
                    Some(self.pid),
                    TraceKind::Message,
                    TraceDetail::MsgPartitioned { label, to },
                );
            }
        }
    }

    /// Arms a one-shot timer; `tag` is returned to
    /// [`Process::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.cluster.next_timer;
        self.cluster.next_timer += 1;
        let entry = self.cluster.procs.get_mut(self.pid).expect("self entry");
        entry.live_timers.push(id);
        self.cluster.queue.schedule(
            self.cluster.now + delay,
            OsEvent::Timer { pid: self.pid, timer_id: id, tag },
        );
        TimerId(id)
    }

    /// Cancels a timer if it has not fired.
    pub fn cancel_timer(&mut self, id: TimerId) {
        if let Some(entry) = self.cluster.procs.get_mut(self.pid) {
            if let Some(i) = entry.live_timers.iter().position(|t| *t == id.0) {
                entry.live_timers.swap_remove(i);
            }
        }
    }

    /// Starts a CPU-bound work unit of the given total duration; the
    /// process receives [`Process::on_work_done`] with `tag` when it
    /// finishes. Work executes in chunks, pausing while the process is
    /// stopped and dying with the process.
    pub fn start_work(&mut self, total: SimDuration, tag: u64) {
        let id = self.cluster.next_work;
        self.cluster.next_work += 1;
        let entry = self.cluster.procs.get_mut(self.pid).expect("self entry");
        entry.works.push((id, WorkState { tag, remaining: total }));
        let first = WORK_CHUNK.min(total);
        let first = if first.is_zero() { SimDuration::from_micros(1) } else { first };
        self.cluster
            .queue
            .schedule(self.cluster.now + first, OsEvent::WorkChunk { pid: self.pid, work_id: id });
    }

    /// Spawns a child or detached process.
    pub fn spawn(&mut self, spec: SpawnSpec) -> Pid {
        self.cluster.spawn(spec)
    }

    /// Voluntarily exits with a status code after this handler returns.
    pub fn exit(&mut self, code: i32) {
        self.exit = Some(ExitStatus::Exited(code));
    }

    /// Kills the process after an internal self-check detected an error
    /// (the ARMOR fail-fast path).
    pub fn abort(&mut self, reason: impl Into<String>) {
        self.exit = Some(ExitStatus::Aborted(reason.into()));
    }

    /// Crashes the process as if the hardware raised `sig` (e.g. a
    /// segmentation fault from dereferencing a corrupted pointer). Takes
    /// effect when the current handler returns.
    pub fn crash(&mut self, sig: Signal) {
        self.exit = Some(ExitStatus::Killed(sig));
    }

    /// Sends a signal to any process (including self; takes effect when
    /// the signal event is dispatched).
    pub fn kill(&mut self, pid: Pid, sig: Signal) {
        self.cluster.queue.schedule(self.cluster.now, OsEvent::SignalEv { pid, sig });
    }

    /// Checks the OS process table — how Execution ARMORs detect crashes
    /// of MPI ranks they did not spawn (§3.3).
    pub fn process_alive(&self, pid: Pid) -> bool {
        self.cluster.is_alive(pid)
    }

    /// The local node's RAM disk (stable storage for checkpoints).
    pub fn ramdisk(&mut self) -> &mut RamDisk {
        let node = self.node();
        &mut self.cluster.ramdisks[node.0 as usize]
    }

    /// The shared remote file system.
    pub fn remote_fs(&mut self) -> &mut RemoteFs {
        &mut self.cluster.remote_fs
    }

    /// Registers transient network contention (recovery traffic).
    pub fn net_load(&mut self, window: SimDuration, slowdown: f64) {
        let now = self.cluster.now;
        self.cluster.net.inject_load(now, window, slowdown);
    }

    /// Appends an application-level trace record.
    pub fn trace(&mut self, detail: impl Into<TraceDetail>) {
        self.cluster.trace.push(self.cluster.now, Some(self.pid), TraceKind::App, detail.into());
    }

    /// Appends an application-level trace record with a typed event, so
    /// campaign classification can match it in O(1).
    pub fn trace_event(&mut self, event: TraceEvent, detail: impl Into<TraceDetail>) {
        self.cluster.trace.push_event(
            self.cluster.now,
            Some(self.pid),
            TraceKind::App,
            event,
            detail.into(),
        );
    }

    /// Appends a recovery-category trace record.
    pub fn trace_recovery(&mut self, detail: impl Into<TraceDetail>) {
        self.cluster.trace.push(
            self.cluster.now,
            Some(self.pid),
            TraceKind::Recovery,
            detail.into(),
        );
    }

    /// Appends a recovery-category trace record with a typed event.
    pub fn trace_recovery_event(&mut self, event: TraceEvent, detail: impl Into<TraceDetail>) {
        self.cluster.trace.push_event(
            self.cluster.now,
            Some(self.pid),
            TraceKind::Recovery,
            event,
            detail.into(),
        );
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.now)
            .field("procs", &self.procs.live().count())
            .field("nodes", &self.ramdisks.len())
            .finish()
    }
}
