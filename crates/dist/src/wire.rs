//! Message encoding for the supervisor ↔ worker protocol.
//!
//! One [`Msg`] per frame (see [`crate::frame`]). Every type that crosses
//! the wire implements the private `Wire` trait — `put` appends its
//! encoding, `take` reads it back — once: the primitives by hand
//! (big-endian integers, `f64` as IEEE bit patterns so results survive
//! bit-exactly, strings as length-prefixed UTF-8, `SimTime`/`SimDuration`
//! as their `u64` microsecond counts, `Option` behind a `u8` tag, `Vec`
//! behind a `u32` count), structs through `wire_struct!` and tagged enums
//! through `wire_enum!`, each of which names a type's fields or variants
//! exactly once, in wire order. `put` destructures exhaustively, so a
//! field or variant added to a wire type without a codec edit is a
//! compile error rather than a silently dropped value.
//!
//! Decoding is fully fallible: a malformed payload yields a typed
//! [`WireError`], never a panic, because the bytes crossed a process
//! boundary and the peer may have been chaos-injected.
//!
//! The codec round-trips the whole [`RunPlan`] (scenario, workload
//! parameters, jobs, optional interconnect topology, network-fault
//! plans) and the whole [`RunResult`] — the supervisor folds decoded
//! results through the exact same seed-ordered `Aggregate::accept`
//! fold a single-process campaign uses, which is what makes the
//! distributed aggregate byte-identical rather than merely close.

use ree_apps::{Scenario, TextureParams, Verdict};
use ree_inject::netfault::NetFault;
use ree_inject::{ErrorModel, FailureClass, RunPlan, RunResult, SystemFailure, Target};
use ree_net::{LinkId, LinkParams, LinkSpec, NodeId, Port, SwitchId, Topology};
use ree_os::{FieldKind, HeapHit, HeapTarget};
use ree_sift::{JobSpec, SiftConfig};
use ree_sim::{SimDuration, SimTime, Sink};

/// Protocol generation; a worker built from different sources refuses
/// the handshake instead of mis-decoding frames.
pub const PROTO_VERSION: u32 = 4;

/// A malformed payload (truncated, unknown tag, bad UTF-8, a value its
/// type rejects, or bytes left over after the message ended).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before `what` could be read.
    Truncated {
        /// Field being decoded when the payload ran out.
        what: &'static str,
    },
    /// An enum, `bool` or `Option` tag byte had no corresponding variant.
    BadTag {
        /// Enum being decoded.
        what: &'static str,
        /// The unrecognised tag.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 {
        /// Field being decoded.
        what: &'static str,
    },
    /// The bytes decoded, but to a value `what`'s own constructor refuses
    /// (e.g. a topology link naming a node out of range).
    Invalid {
        /// Type being decoded.
        what: &'static str,
    },
    /// The message decoded cleanly but bytes remained.
    Trailing {
        /// Leftover byte count.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "payload truncated reading {what}"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadUtf8 { what } => write!(f, "invalid UTF-8 in {what}"),
            WireError::Invalid { what } => write!(f, "invalid {what}"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// One protocol message. Supervisor → worker: `Hello`, `Plan`,
/// `Batch`, `Shutdown`. Worker → supervisor: `Ready`, `PlanAccepted`,
/// `PlanRejected`, `Progress` (the heartbeat), `BatchDone`,
/// `BatchFailed`.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Handshake: the supervisor announces its protocol generation.
    Hello {
        /// Supervisor's [`PROTO_VERSION`].
        proto: u32,
    },
    /// The campaign's plan; sent once per worker incarnation.
    Plan {
        /// The plan every batch of this campaign runs.
        plan: Box<RunPlan>,
    },
    /// One work item: run seeds `seed0 .. seed0 + len`.
    Batch {
        /// Batch id (dense, assigned in seed order).
        batch: u32,
        /// First seed of the batch.
        seed0: u64,
        /// Number of runs.
        len: u32,
    },
    /// Orderly shutdown request.
    Shutdown,
    /// Worker's handshake reply.
    Ready {
        /// Worker id (stable across respawns).
        worker: u32,
        /// Worker's [`PROTO_VERSION`].
        proto: u32,
    },
    /// The plan validated and booted.
    PlanAccepted,
    /// The plan failed validation; the error is supervisor-visible.
    PlanRejected {
        /// Rendered [`ree_inject::CampaignError`].
        error: String,
    },
    /// Per-run heartbeat: `done` of the current batch's runs finished.
    Progress {
        /// Batch being executed.
        batch: u32,
        /// Runs finished so far.
        done: u32,
    },
    /// A batch's results, in seed order.
    BatchDone {
        /// Batch id.
        batch: u32,
        /// One result per seed, in order.
        results: Vec<RunResult>,
    },
    /// The batch could not be executed (e.g. a run panicked).
    BatchFailed {
        /// Batch id.
        batch: u32,
        /// Rendered error.
        error: String,
    },
}

// ----------------------------------------------------------------- codec

/// Cursor over a payload. `what` names the field being decoded, for
/// [`WireError::Truncated`] / [`WireError::BadUtf8`] reports.
struct Reader<'a> {
    buf: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let truncated = WireError::Truncated { what: self.what };
        let (head, tail) = self.buf.split_at_checked(n).ok_or(truncated)?;
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let truncated = WireError::Truncated { what: self.what };
        let (head, tail) = self.buf.split_first_chunk().ok_or(truncated)?;
        self.buf = tail;
        Ok(*head)
    }
}

/// One definition of a type's wire form: `take` reads back exactly what
/// `put` wrote.
trait Wire: Sized {
    fn put<S: Sink + ?Sized>(&self, buf: &mut S);
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put<S: Sink + ?Sized>(&self, buf: &mut S) {
                buf.put_bytes(&self.to_be_bytes());
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.array().map(<$ty>::from_be_bytes)
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64);

/// A type carried as another (`usize` as `u64`, `f64` as its bits, …).
macro_rules! wire_via {
    ($($ty:ty as $via:ty: |$v:ident| $to:expr, $from:expr;)*) => {$(
        impl Wire for $ty {
            fn put<S: Sink + ?Sized>(&self, buf: &mut S) {
                let $v = self;
                <$via>::put(&$to, buf);
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                <$via>::take(r).map($from)
            }
        }
    )*};
}
wire_via! {
    usize as u64: |v| *v as u64, |v| v as usize;
    f64 as u64: |v| v.to_bits(), f64::from_bits;
    SimDuration as u64: |d| d.as_micros(), SimDuration::from_micros;
    SimTime as u64: |t| t.as_micros(), SimTime::from_micros;
    NodeId as u16: |n| n.0, NodeId;
    SwitchId as u16: |s| s.0, SwitchId;
    LinkId as u32: |l| l.0, LinkId;
}

impl Wire for bool {
    fn put<S: Sink + ?Sized>(&self, buf: &mut S) {
        buf.put_u8(*self as u8);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for String {
    fn put<S: Sink + ?Sized>(&self, buf: &mut S) {
        (self.len() as u32).put(buf);
        buf.put_bytes(self.as_bytes());
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u32::take(r)? as usize;
        let raw = r.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8 { what: r.what })
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put<S: Sink + ?Sized>(&self, buf: &mut S) {
        match self {
            None => buf.put_u8(0),
            Some(x) => {
                buf.put_u8(1);
                x.put(buf);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::take(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::take(r)?)),
            tag => Err(WireError::BadTag { what: "option", tag }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put<S: Sink + ?Sized>(&self, buf: &mut S) {
        (self.len() as u32).put(buf);
        for x in self {
            x.put(buf);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = u32::take(r)? as usize;
        // Guard against a corrupted count reserving gigabytes: the cap
        // only bounds the pre-allocation, pushes still fail on EOF.
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put<S: Sink + ?Sized>(&self, buf: &mut S) {
        (**self).put(buf);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::take(r).map(Box::new)
    }
}

/// `wire_struct!(Type { a, b, c })`: the fields of `Type`, in wire order.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put<S: Sink + ?Sized>(&self, buf: &mut S) {
                // No `..`: a new field must be listed here to compile.
                let $ty { $($field),* } = self;
                $($field.put(buf);)*
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty {$(
                    $field: {
                        r.what = concat!(stringify!($ty), ".", stringify!($field));
                        Wire::take(r)?
                    }
                ),*})
            }
        }
    )*};
}

/// `wire_enum!(Type { 0 => A, 1 => B(x), 2 => C { y, z } })`: the `u8`
/// tag and payload fields of every variant of `Type`.
macro_rules! wire_enum {
    ($($ty:ident {
        $($tag:literal => $variant:ident $(($($tf:ident),+))? $({ $($sf:ident),+ })?),* $(,)?
    })*) => {$(
        impl Wire for $ty {
            fn put<S: Sink + ?Sized>(&self, buf: &mut S) {
                match self {$(
                    $ty::$variant $(($($tf),+))? $({ $($sf),+ })? => {
                        buf.put_u8($tag);
                        $($($tf.put(buf);)+)?
                        $($($sf.put(buf);)+)?
                    }
                )*}
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.what = stringify!($ty);
                Ok(match u8::take(r)? {
                    $($tag => $ty::$variant
                        $(($({
                            r.what = concat!(stringify!($variant), ".", stringify!($tf));
                            Wire::take(r)?
                        }),+))?
                        $({$($sf: {
                            r.what = concat!(stringify!($variant), ".", stringify!($sf));
                            Wire::take(r)?
                        }),+})?,
                    )*
                    tag => return Err(WireError::BadTag { what: stringify!($ty), tag }),
                })
            }
        }
    )*};
}

// ----------------------------------------------------------- wire types

wire_struct! {
    SiftConfig { heartbeat_period, interrupt_driven_pi }
    TextureParams {
        image_px, tile_px, clusters, images, load_time, filter_time, cluster_time, write_time,
        pi_period,
    }
    JobSpec { app, ranks, nodes, submit_at }
    LinkParams { latency, jitter, bandwidth_bytes_per_sec }
    LinkSpec { from, to, params, peer }
    Scenario { nodes, sift, texture, jobs, seed, trace, topology }
    NetFault { groups, duration }
    RunPlan { scenario, target, model, timeout, net_faults }
    HeapHit { region, field, kind }
    RunResult {
        seed, injections, induced, completed, system_failure, output, perceived, actual,
        perceived_all, actual_all, restarts, recovery_times, correlated, assertion_fired,
        heap_hit, net_faults_applied,
    }
}

wire_enum! {
    Port { 0 => Node(node), 1 => Switch(switch) }
    Target {
        0 => App, 1 => NamedApp(app), 2 => Ftm, 3 => ExecArmor, 4 => Heartbeat, 5 => AnyArmor,
    }
    HeapTarget { 0 => Any, 1 => DataOnly, 2 => Region(region) }
    ErrorModel {
        0 => Sigint, 1 => Sigstop, 2 => Register, 3 => TextSegment, 4 => Heap,
        5 => HeapSingle(target),
    }
    FailureClass {
        0 => SegFault, 1 => IllegalInstruction, 2 => Hang, 3 => Assertion, 4 => InjectedSignal,
        5 => Other,
    }
    SystemFailure {
        0 => UnableToRegisterDaemons, 1 => UnableToInstallExecArmors,
        2 => UnableToStartApplication, 3 => UnableToRecognizeCompletion, 4 => AppDidNotComplete,
    }
    Verdict { 0 => Correct, 1 => Incorrect, 2 => Missing }
    FieldKind { 0 => Pointer, 1 => Data }
    Msg {
        0 => Hello { proto },
        1 => Plan { plan },
        2 => Batch { batch, seed0, len },
        3 => Shutdown,
        4 => Ready { worker, proto },
        5 => PlanAccepted,
        6 => PlanRejected { error },
        7 => Progress { batch, done },
        8 => BatchDone { batch, results },
        9 => BatchFailed { batch, error },
    }
}

/// `Topology` keeps its fields private and its links range-checked, so
/// it crosses the wire through its accessors and fallible constructor.
impl Wire for Topology {
    fn put<S: Sink + ?Sized>(&self, buf: &mut S) {
        self.nodes().put(buf);
        self.switches().put(buf);
        self.loopback_latency().put(buf);
        (self.links().len() as u32).put(buf);
        for link in self.links() {
            link.put(buf);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.what = "Topology";
        let (nodes, switches, loopback) = (u16::take(r)?, u16::take(r)?, SimDuration::take(r)?);
        Topology::from_parts(nodes, switches, loopback, Vec::take(r)?)
            .map_err(|_| WireError::Invalid { what: "Topology" })
    }
}

/// Encodes `msg` and wraps it in a wire frame — the common send path.
pub fn encode_frame_msg(msg: &Msg) -> Vec<u8> {
    crate::frame::encode_frame(&encode_msg(msg))
}

/// Encodes `msg` into a frame payload.
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    msg.put(&mut buf);
    buf
}

/// Decodes one message from a frame payload, requiring the payload to
/// be consumed exactly.
pub fn decode_msg(payload: &[u8]) -> Result<Msg, WireError> {
    let mut r = Reader { buf: payload, what: "Msg" };
    let msg = Msg::take(&mut r)?;
    if !r.buf.is_empty() {
        return Err(WireError::Trailing { extra: r.buf.len() });
    }
    Ok(msg)
}
