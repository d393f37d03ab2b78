//! Structured run trace — the "data collection" half of the NFTAPE role.
//!
//! Every OS-level occurrence (spawn, exit, signal, message, injection) is
//! recorded with its virtual timestamp. Experiments and tests query the
//! trace instead of scraping stdout.
//!
//! Records carry two payloads: an optional **typed event** — a
//! [`TraceEvent`] that campaign classification matches on in O(1) via
//! per-kind counters — and a **detail** ([`TraceDetail`]), the
//! human-readable line. The detail is typed only for the record shapes
//! this crate itself produces (`cluster.rs`: spawn, exit, signal, bit
//! flips, node failure, message delivery and the three ways a message is
//! lost): those are 96–98 % of a run's records — `Deliver` alone is
//! ~93 % — so they are captured by value and rendered lazily by
//! [`Trace::render`]. Everything above the OS (daemons, FTM, SCC, ARMOR
//! runtime, MPI, applications) writes its sentence where it emits it,
//! as a `format!` or a `&'static str`: 23–41 records of a 550–1 770
//! record run (1.9–4.2 %; six plans × 40 seeds, regenerated by the
//! `record_shape_census` test in `ree-inject`'s `trace_grid`), which is
//! too little traffic to justify this crate knowing their wording.

use crate::machine::InjectionSite;
use crate::process::{ExitStatus, HeapHit, Pid, Signal};
use ree_net::NodeId;
use ree_sim::SimTime;
use std::sync::Arc;

/// Category of a trace record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// Process lifecycle (spawn/exit).
    Lifecycle,
    /// Signal delivery.
    Signal,
    /// Message send/deliver.
    Message,
    /// Fault injection.
    Injection,
    /// Application- or ARMOR-level annotation.
    App,
    /// Recovery actions.
    Recovery,
}

/// Machine-readable identity of a notable occurrence: what the SIFT
/// environment logged, as a value instead of a substring.
///
/// Campaign classification (the NFTAPE "collect" role, §4) matches on
/// these instead of scanning rendered detail strings; the trace keeps a
/// per-kind counter so [`Trace::any`] and [`Trace::count_of`] are O(1)
/// regardless of run length.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceEvent {
    /// A daemon ARMOR registered itself with the FTM.
    DaemonRegistered = 0,
    /// A daemon installed a non-exec ARMOR (FTM, Heartbeat ARMOR, …).
    ArmorInstalled,
    /// A daemon installed an Execution ARMOR.
    ExecArmorInstalled,
    /// A daemon uninstalled an ARMOR (normal takedown).
    ArmorUninstalled,
    /// The FTM accepted an application submission from the SCC.
    SubmissionAccepted,
    /// An application rank entered its run phase.
    AppStarted,
    /// An application rank announced clean termination to the SIFT
    /// environment (§3.3 termination notice).
    AppTerminated,
    /// The OS hung a process as a fault consequence (threads suspended).
    FaultInducedHang,
    /// An ARMOR assertion/self-check fired (fail-fast abort).
    AssertionFired,
    /// A daemon's prober found a local ARMOR unresponsive.
    HangDetected,
    /// A daemon observed a local ARMOR crash (waitpid).
    CrashDetected,
    /// An Execution ARMOR detected its application rank hung.
    AppHangDetected,
    /// An Execution ARMOR detected its application rank crashed.
    AppCrashDetected,
    /// The Heartbeat ARMOR detected FTM failure (heartbeat timeout).
    FtmFailureDetected,
    /// The FTM declared a node failed (daemon silent).
    NodeFailureDetected,
    /// A recovery completed: restarted ARMOR restored / application
    /// relaunched.
    RecoveryCompleted,
    /// Rank 0 aborted the application on an MPI init timeout (Figure 8).
    MpiInitTimeout,
    /// A rank gave up after blocking too long on the SIFT interface.
    MpiRankGaveUp,
}

impl TraceEvent {
    /// Number of event kinds (size of the counter table) — derived from
    /// the last discriminant so adding a variant can never leave the
    /// table undersized.
    const COUNT: usize = TraceEvent::MpiRankGaveUp as usize + 1;

    fn index(self) -> usize {
        self as usize
    }

    /// The events that mark the *detection* of a failure — the start of
    /// a recovery interval (§4.2 recovery-time measurement).
    pub const FAILURE_DETECTIONS: [TraceEvent; 6] = [
        TraceEvent::HangDetected,
        TraceEvent::CrashDetected,
        TraceEvent::AppHangDetected,
        TraceEvent::AppCrashDetected,
        TraceEvent::FtmFailureDetected,
        TraceEvent::NodeFailureDetected,
    ];

    /// True for the [`TraceEvent::FAILURE_DETECTIONS`].
    pub fn is_failure_detection(self) -> bool {
        Self::FAILURE_DETECTIONS.contains(&self)
    }
}

/// The human-readable half of a trace record.
///
/// The twelve typed variants are exactly the shapes `cluster.rs`
/// constructs — the event loop's own traffic, 96–98 % of all records —
/// and are plain copies (pids, `&'static str` protocol labels, nodes,
/// injection sites; process names are `Arc<str>`s shared with the
/// process table), so appending one costs a `memcpy`, not a `format!`.
/// No layer above the OS has a variant here: its lines arrive already
/// worded through `From<&'static str>` ([`TraceDetail::Static`]) or
/// `From<String>` ([`TraceDetail::Custom`]), so the text of a SIFT log
/// line lives beside the values it prints and adding one never edits
/// this crate. Classification never reads a detail — it matches
/// [`TraceEvent`]s.
///
/// [`Trace::render`] output is pinned byte-for-byte by the
/// `trace_snapshot` and `trace_grid` fixtures in `ree-inject`.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceDetail {
    /// A fixed message with no arguments.
    Static(&'static str),
    /// A sentence formatted where it was emitted.
    Custom(Box<str>),

    /// Process created: "spawn {name} ({kind}) on {node}".
    Spawn {
        /// Instance name.
        name: Arc<str>,
        /// Behaviour kind.
        kind: &'static str,
        /// Target node.
        node: NodeId,
    },
    /// Process left the table: "{name} exits: {status}".
    ProcExit {
        /// Instance name.
        name: Arc<str>,
        /// How it ended.
        status: ExitStatus,
    },
    /// Signal injected: "signal {sig}".
    SignalInjected(Signal),
    /// Register bit flip: "register flip {site:?}".
    RegisterFlip(InjectionSite),
    /// Text-segment bit flip: "text flip {site:?}".
    TextFlip(InjectionSite),
    /// Heap bit flip: "heap flip {hit:?}".
    HeapFlip(HeapHit),
    /// Whole-node failure: "{node} failed".
    NodeFailed(NodeId),
    /// Node restoration: "{node} restored".
    NodeRestored(NodeId),
    /// Message delivery: "deliver {label} from {from}".
    Deliver {
        /// Protocol label.
        label: &'static str,
        /// Sending process.
        from: Pid,
    },
    /// Receive-omission drop: "receive omission drops {label}".
    OmissionDrop {
        /// Protocol label.
        label: &'static str,
    },
    /// Send to a dead process: "send {label} to dead {to}".
    SendToDead {
        /// Protocol label.
        label: &'static str,
        /// Intended destination.
        to: Pid,
    },
    /// Partitioned send: "partitioned {label} to {to}".
    MsgPartitioned {
        /// Protocol label.
        label: &'static str,
        /// Intended destination.
        to: Pid,
    },
}

impl From<&'static str> for TraceDetail {
    fn from(s: &'static str) -> Self {
        TraceDetail::Static(s)
    }
}

impl From<String> for TraceDetail {
    fn from(s: String) -> Self {
        TraceDetail::Custom(s.into_boxed_str())
    }
}

impl std::fmt::Display for TraceDetail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use TraceDetail as D;
        match self {
            D::Static(s) => f.write_str(s),
            D::Custom(s) => f.write_str(s),
            D::Spawn { name, kind, node } => write!(f, "spawn {name} ({kind}) on {node}"),
            D::ProcExit { name, status } => write!(f, "{name} exits: {status}"),
            D::SignalInjected(sig) => write!(f, "signal {sig}"),
            D::RegisterFlip(site) => write!(f, "register flip {site:?}"),
            D::TextFlip(site) => write!(f, "text flip {site:?}"),
            D::HeapFlip(hit) => write!(f, "heap flip {hit:?}"),
            D::NodeFailed(node) => write!(f, "{node} failed"),
            D::NodeRestored(node) => write!(f, "{node} restored"),
            D::Deliver { label, from } => write!(f, "deliver {label} from {from}"),
            D::OmissionDrop { label } => write!(f, "receive omission drops {label}"),
            D::SendToDead { label, to } => write!(f, "send {label} to dead {to}"),
            D::MsgPartitioned { label, to } => write!(f, "partitioned {label} to {to}"),
        }
    }
}

/// Substring test against the rendered form, skipping the render for the
/// variants that already hold their full text.
fn detail_contains(detail: &TraceDetail, needle: &str) -> bool {
    match detail {
        TraceDetail::Static(s) => s.contains(needle),
        TraceDetail::Custom(s) => s.contains(needle),
        other => other.to_string().contains(needle),
    }
}

/// One timestamped trace record.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Virtual time of the occurrence.
    pub time: SimTime,
    /// Process involved, if any.
    pub pid: Option<Pid>,
    /// Record category.
    pub kind: TraceKind,
    /// Typed identity, when the occurrence is one classification cares
    /// about.
    pub event: Option<TraceEvent>,
    /// The human-readable line (`Display` renders it).
    pub detail: TraceDetail,
}

/// An in-memory, bounded trace buffer with O(1) typed-event queries.
///
/// Record storage is split into an immutable shared **prefix** and a
/// mutable **tail**. [`Trace::freeze`] moves everything recorded so far
/// into the `Arc`'d prefix, after which cloning the trace — the per-run
/// snapshot fork — bumps a refcount instead of deep-copying the boot
/// records. Readers never see the seams: queries, iteration, and
/// rendering present one ordered sequence.
///
/// The tail is a list of 256-record chunks (22 KiB), so a run never
/// copies what it has already recorded and no block of the trace is
/// large enough for the allocator to `mmap`. As one growing `Vec` it
/// was by far the largest block of a run (180–360 KiB on a recovery
/// run), and glibc moves its heap-trim threshold to twice the largest
/// such block it has freed — right beside the run's whole footprint, so
/// whether every fork's memory went back to the kernel and was faulted
/// in again (4 or 35 page faults per run, 6 % of its time) turned on
/// the record size and on where ASLR had put the heap.
#[derive(Debug)]
pub struct Trace {
    /// Records frozen at snapshot time, shared between forks.
    prefix: Option<Arc<[TraceRecord]>>,
    /// Records appended since the last freeze; every chunk but the last
    /// is full.
    tail: Vec<Vec<TraceRecord>>,
    counters: [u64; TraceEvent::COUNT],
    enabled: bool,
    cap: usize,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

/// Records per tail chunk (see [`Trace`]).
const CHUNK: usize = 256;

fn new_chunk(records: &[TraceRecord]) -> Vec<TraceRecord> {
    let mut chunk = Vec::with_capacity(CHUNK);
    chunk.extend_from_slice(records);
    chunk
}

impl Clone for Trace {
    fn clone(&self) -> Self {
        // `Vec::clone` would leave the last chunk without room to grow.
        Trace {
            prefix: self.prefix.clone(),
            tail: self.tail.iter().map(|c| new_chunk(c)).collect(),
            counters: self.counters,
            enabled: self.enabled,
            cap: self.cap,
            dropped: self.dropped,
        }
    }
}

impl Trace {
    /// Creates an enabled trace with a generous default cap.
    pub fn new() -> Self {
        Trace {
            prefix: None,
            tail: Vec::new(),
            counters: [0; TraceEvent::COUNT],
            enabled: true,
            cap: 400_000,
            dropped: 0,
        }
    }

    fn prefix_slice(&self) -> &[TraceRecord] {
        self.prefix.as_deref().unwrap_or(&[])
    }

    /// Freezes everything recorded so far into the shared immutable
    /// prefix. Subsequent [`Clone`]s share it by refcount, so forking a
    /// booted snapshot stops deep-copying the boot records. Repeated
    /// freezes concatenate. Purely an ownership change — every reader
    /// sees the same ordered sequence before and after.
    pub fn freeze(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let prefix: Arc<[TraceRecord]> = match self.prefix.take() {
            None => self.tail.drain(..).flatten().collect(),
            Some(old) => old.iter().cloned().chain(self.tail.drain(..).flatten()).collect(),
        };
        self.prefix = Some(prefix);
    }

    /// Enables or disables recording. Only a probe of the trace's own
    /// cost turns it off; campaigns keep it on. A disabled trace stores
    /// nothing and also stops the typed-event counters
    /// ([`Trace::count_of`], [`Trace::any`]) that run classification
    /// reads.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Appends an untyped record (no-op when disabled or at capacity).
    pub fn push(
        &mut self,
        time: SimTime,
        pid: Option<Pid>,
        kind: TraceKind,
        detail: impl Into<TraceDetail>,
    ) {
        self.record(time, pid, kind, None, detail.into());
    }

    /// Appends a typed record. The per-kind counter is bumped even when
    /// the record itself is dropped at capacity, so the O(1) queries stay
    /// truthful on runs that overflow the buffer.
    pub(crate) fn push_event(
        &mut self,
        time: SimTime,
        pid: Option<Pid>,
        kind: TraceKind,
        event: TraceEvent,
        detail: impl Into<TraceDetail>,
    ) {
        self.record(time, pid, kind, Some(event), detail.into());
    }

    fn record(
        &mut self,
        time: SimTime,
        pid: Option<Pid>,
        kind: TraceKind,
        event: Option<TraceEvent>,
        detail: TraceDetail,
    ) {
        if !self.enabled {
            return;
        }
        if let Some(ev) = event {
            self.counters[ev.index()] += 1;
        }
        if self.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        if self.tail.last().is_none_or(|c| c.len() == CHUNK) {
            self.tail.push(new_chunk(&[]));
        }
        let chunk = self.tail.last_mut().expect("a chunk with room was just ensured");
        chunk.push(TraceRecord { time, pid, kind, event, detail });
    }

    /// All records, in order (frozen prefix first, then the live tail).
    pub fn records(&self) -> impl DoubleEndedIterator<Item = &TraceRecord> + Clone + '_ {
        self.prefix_slice().iter().chain(self.tail.iter().flatten())
    }

    /// Number of stored records (excluding any dropped at capacity).
    pub fn len(&self) -> usize {
        let tail = self.tail.last().map_or(0, |c| (self.tail.len() - 1) * CHUNK + c.len());
        self.prefix_slice().len() + tail
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records carrying one typed event, in order.
    pub fn of_event(&self, event: TraceEvent) -> impl Iterator<Item = &TraceRecord> {
        self.records().filter(move |r| r.event == Some(event))
    }

    /// True if the event occurred at least once — O(1).
    pub fn any(&self, event: TraceEvent) -> bool {
        self.counters[event.index()] > 0
    }

    /// Number of occurrences of the event — O(1), and counted even for
    /// occurrences whose records were dropped at capacity.
    pub fn count_of(&self, event: TraceEvent) -> u64 {
        self.counters[event.index()]
    }

    /// True if any record's rendered detail contains `needle` (debugging;
    /// O(n) and renders each record — classification paths use
    /// [`Trace::any`] instead).
    pub fn contains(&self, needle: &str) -> bool {
        self.records().any(|r| detail_contains(&r.detail, needle))
    }

    /// First record whose rendered detail contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&TraceRecord> {
        self.records().find(|r| detail_contains(&r.detail, needle))
    }

    /// Count of records whose rendered detail contains `needle`
    /// (debugging; O(n) — classification paths use [`Trace::count_of`]
    /// instead).
    pub fn count(&self, needle: &str) -> usize {
        self.records().filter(|r| detail_contains(&r.detail, needle)).count()
    }

    /// Renders the whole trace as text, one record per line — the
    /// debugging string view, built only when asked for.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in self.records() {
            let _ = match r.pid {
                Some(pid) => writeln!(out, "{} {} {:?} {}", r.time, pid, r.kind, r.detail),
                None => writeln!(out, "{} - {:?} {}", r.time, r.kind, r.detail),
            };
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} records dropped at capacity)", self.dropped);
        }
        out
    }

    /// The full typed-event counter table, indexed by [`TraceEvent`]
    /// discriminant. This is the trace's O(1) behavioural summary —
    /// state digests hash it as a cheap proxy for "what has the SIFT
    /// environment observed so far" without touching record storage.
    pub(crate) fn counters(&self) -> &[u64; TraceEvent::COUNT] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Trace {
        /// Number of records dropped after hitting the cap.
        fn dropped(&self) -> u64 {
            self.dropped
        }

        /// Clears all records and counters (including any frozen prefix).
        fn clear(&mut self) {
            self.prefix = None;
            self.tail.clear();
            self.counters = [0; TraceEvent::COUNT];
            self.dropped = 0;
        }
    }

    #[test]
    fn records_and_queries() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, Some(Pid(1)), TraceKind::Lifecycle, "spawn ftm");
        t.push(SimTime::from_secs(1), None, TraceKind::Injection, "SIGINT into ftm");
        assert_eq!(t.len(), 2);
        assert!(t.contains("SIGINT"));
        assert_eq!(t.count("ftm"), 2);
        assert_eq!(t.records().filter(|r| r.kind == TraceKind::Injection).count(), 1);
        assert_eq!(t.find("spawn").unwrap().pid, Some(Pid(1)));
    }

    #[test]
    fn typed_events_count_in_constant_time() {
        let mut t = Trace::new();
        assert!(!t.any(TraceEvent::AssertionFired));
        for i in 0..3 {
            t.push_event(
                SimTime::from_secs(i),
                Some(Pid(9)),
                TraceKind::App,
                TraceEvent::AssertionFired,
                format!("armor assertion fired: #{i}"),
            );
        }
        t.push_event(
            SimTime::from_secs(9),
            None,
            TraceKind::Recovery,
            TraceEvent::RecoveryCompleted,
            "recovered ftm",
        );
        assert!(t.any(TraceEvent::AssertionFired));
        assert_eq!(t.count_of(TraceEvent::AssertionFired), 3);
        assert_eq!(t.count_of(TraceEvent::RecoveryCompleted), 1);
        assert_eq!(t.count_of(TraceEvent::MpiInitTimeout), 0);
        assert_eq!(t.of_event(TraceEvent::AssertionFired).count(), 3);
        assert_eq!(
            t.of_event(TraceEvent::RecoveryCompleted).next().unwrap().time,
            SimTime::from_secs(9)
        );
    }

    #[test]
    fn counters_survive_capacity_overflow() {
        let mut t = Trace::new();
        t.cap = 2;
        for i in 0..5 {
            t.push_event(
                SimTime::ZERO,
                None,
                TraceKind::App,
                TraceEvent::AppTerminated,
                format!("{i}"),
            );
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        // The typed counter sees every occurrence, not just stored ones.
        assert_eq!(t.count_of(TraceEvent::AppTerminated), 5);
        t.clear();
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.count_of(TraceEvent::AppTerminated), 0);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.set_enabled(false);
        t.push(SimTime::ZERO, None, TraceKind::App, "x");
        t.push_event(SimTime::ZERO, None, TraceKind::App, TraceEvent::AppStarted, "y");
        assert!(t.is_empty());
        assert!(!t.any(TraceEvent::AppStarted));
    }

    #[test]
    fn cap_drops_and_counts() {
        let mut t = Trace::new();
        t.cap = 2;
        for i in 0..5 {
            t.push(SimTime::ZERO, None, TraceKind::App, format!("{i}"));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        t.clear();
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn freeze_is_invisible_to_readers() {
        let mut frozen = Trace::new();
        let mut plain = Trace::new();
        for t in [&mut frozen, &mut plain] {
            t.push(SimTime::ZERO, Some(Pid(1)), TraceKind::Lifecycle, "spawn ftm");
            t.push_event(
                SimTime::from_secs(1),
                None,
                TraceKind::Recovery,
                TraceEvent::RecoveryCompleted,
                "recovered ftm",
            );
        }
        frozen.freeze();
        frozen.freeze(); // idempotent on an empty tail
        for t in [&mut frozen, &mut plain] {
            t.push(SimTime::from_secs(2), None, TraceKind::App, "post-freeze");
        }
        assert_eq!(frozen.render(), plain.render());
        assert_eq!(frozen.len(), plain.len());
        assert_eq!(frozen.count_of(TraceEvent::RecoveryCompleted), 1);
        assert_eq!(frozen.records().filter(|r| r.kind == TraceKind::App).count(), 1);
        assert_eq!(frozen.find("spawn").unwrap().pid, Some(Pid(1)));
        // Reverse iteration crosses the prefix/tail seam.
        let last = frozen.records().next_back().unwrap();
        assert_eq!(last.time, SimTime::from_secs(2));
    }

    #[test]
    fn forks_of_a_frozen_trace_are_independent() {
        let mut parent = Trace::new();
        parent.push(SimTime::ZERO, None, TraceKind::App, "boot");
        parent.freeze();
        let rendered = parent.render();

        let mut fork = parent.clone();
        fork.push(SimTime::from_secs(5), None, TraceKind::Injection, "flip");
        assert_eq!(fork.len(), 2);
        // The parent snapshot never sees the fork's appends.
        assert_eq!(parent.render(), rendered);
        assert_eq!(parent.len(), 1);

        let mut refork = parent.clone();
        refork.clear();
        assert!(refork.is_empty());
        assert_eq!(parent.len(), 1);
    }

    #[test]
    fn chunk_seams_are_invisible() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, None, TraceKind::App, "boot");
        t.freeze();
        let n = 2 * CHUNK as u64 + 3;
        for i in 0..n {
            t.push(SimTime::from_secs(i), None, TraceKind::App, "tick");
        }
        assert_eq!(t.len() as u64, n + 1);
        assert!(t.records().skip(1).map(|r| r.time).eq((0..n).map(SimTime::from_secs)));
        assert_eq!(t.records().next_back().unwrap().time, SimTime::from_secs(n - 1));
        // A mid-run fork copies every chunk and appends on its own.
        let mut fork = t.clone();
        fork.push(SimTime::from_secs(n), None, TraceKind::App, "tick");
        assert_eq!((fork.len(), t.len() as u64), (t.len() + 1, n + 1));
        assert!(fork.render().starts_with(&t.render()));
        t.freeze();
        assert_eq!(t.len() as u64, n + 1);
        assert!(fork.render().starts_with(&t.render()));
    }

    #[test]
    fn cap_counts_across_the_freeze_seam() {
        let mut t = Trace::new();
        t.cap = 3;
        t.push(SimTime::ZERO, None, TraceKind::App, "a");
        t.push(SimTime::ZERO, None, TraceKind::App, "b");
        t.freeze();
        t.push(SimTime::ZERO, None, TraceKind::App, "c");
        t.push(SimTime::ZERO, None, TraceKind::App, "overflow");
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn render_is_line_per_record() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, Some(Pid(1)), TraceKind::Lifecycle, "spawn ftm");
        t.push(SimTime::from_secs(2), None, TraceKind::Recovery, "recovered ftm");
        let text = t.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("spawn ftm"));
        assert!(text.contains("recovered ftm"));
    }

    #[test]
    fn failure_detection_partition() {
        assert!(TraceEvent::HangDetected.is_failure_detection());
        assert!(TraceEvent::AppCrashDetected.is_failure_detection());
        assert!(!TraceEvent::RecoveryCompleted.is_failure_detection());
        assert!(!TraceEvent::AssertionFired.is_failure_detection());
    }
}
