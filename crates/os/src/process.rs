//! Process identity, signals, exit status, and the behaviour traits that
//! simulated processes implement.

use ree_sim::SimRng;
use std::any::Any;

/// A globally unique process identifier.
///
/// Unlike Unix PIDs these are never reused, so stale references are
/// detectable ("is this the same FTM I installed, or its replacement?").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub u64);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Signals the simulated LynxOS can deliver (the paper's Table 2 error
/// models plus the fault-manifestation signals).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Signal {
    /// Interrupt: target terminates (crash-failure model).
    Int,
    /// Stop: all threads suspend (hang-failure model).
    Stop,
    /// Continue a stopped process.
    Cont,
    /// Unconditional kill.
    Kill,
    /// Segmentation fault (invalid memory access).
    Segv,
    /// Illegal instruction.
    Ill,
}

impl std::fmt::Display for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Signal::Int => "SIGINT",
            Signal::Stop => "SIGSTOP",
            Signal::Cont => "SIGCONT",
            Signal::Kill => "SIGKILL",
            Signal::Segv => "SIGSEGV",
            Signal::Ill => "SIGILL",
        };
        f.write_str(s)
    }
}

/// How a process ended, as observed by its parent via `waitpid`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExitStatus {
    /// Voluntary exit with a code (0 = success).
    Exited(i32),
    /// Terminated by a signal.
    Killed(Signal),
    /// The process killed itself after an internal check (assertion,
    /// self-check) detected an error — the ARMOR fail-fast path (§3.3).
    Aborted(String),
}

impl ExitStatus {
    /// True for any termination a parent should treat as a failure.
    pub fn is_abnormal(&self) -> bool {
        !matches!(self, ExitStatus::Exited(0))
    }
}

impl std::fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExitStatus::Exited(c) => write!(f, "exited({c})"),
            ExitStatus::Killed(s) => write!(f, "killed({s})"),
            ExitStatus::Aborted(r) => write!(f, "aborted({r})"),
        }
    }
}

/// A message payload: any `Send + Sync` type that can be cloned.
///
/// Payloads used to be plain `Box<dyn Any>`; warm-boot campaign
/// snapshots require cloning a live cluster — including every in-flight
/// and stashed message — and handing clones to worker threads, so
/// payloads must be clonable and thread-portable. The blanket impl keeps
/// call sites unchanged: anything `Any + Send + Sync + Clone` qualifies.
pub trait Payload: Any + Send + Sync {
    /// Clones the payload behind the trait object.
    fn clone_payload(&self) -> Box<dyn Payload>;
    /// Borrows the payload as `Any` (for downcasting).
    fn as_any(&self) -> &dyn Any;
    /// Converts the box into `Box<dyn Any>` (for consuming downcasts).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + Send + Sync + Clone> Payload for T {
    fn clone_payload(&self) -> Box<dyn Payload> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// NOTE: `Box<dyn Payload>` is itself `Any + Send + Sync + Clone`, so the
// blanket impl applies to the *box* too; every call below derefs
// explicitly to reach the boxed object's impl, not the box's.
impl Clone for Box<dyn Payload> {
    fn clone(&self) -> Self {
        (**self).clone_payload()
    }
}

impl std::fmt::Debug for dyn Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("Payload { .. }")
    }
}

/// A message delivered to a process's mailbox.
#[derive(Debug)]
pub struct Message {
    /// Sender process.
    pub from: Pid,
    /// Short protocol label (appears in traces; lets receivers route
    /// cheaply without downcasting).
    pub label: &'static str,
    /// Opaque payload; receivers downcast to the concrete type.
    pub payload: Box<dyn Payload>,
}

impl Message {
    /// Attempts to take the payload as a `T`, consuming it on success.
    pub fn take<T: 'static>(self) -> Result<T, Message> {
        if (*self.payload).as_any().is::<T>() {
            Ok(*Payload::into_any(self.payload).downcast::<T>().expect("type checked above"))
        } else {
            Err(self)
        }
    }

    /// Borrowing downcast.
    pub fn peek<T: 'static>(&self) -> Option<&T> {
        (*self.payload).as_any().downcast_ref::<T>()
    }
}

/// Kind of a heap field, for the targeted injections of §7.2 ("a single
/// error in data (not pointers) was injected").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FieldKind {
    /// Connects data structures; corruption typically segfaults quickly.
    Pointer,
    /// Carries information; corruption propagates silently.
    Data,
}

/// Which part of a process's heap an injection should target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeapTarget {
    /// Any allocated region, any field kind (§7.1 experiments).
    Any,
    /// Non-pointer data fields only (§7.2 experiments).
    DataOnly,
    /// Data fields of one named region/element (Table 8 experiments).
    Region(String),
}

/// Report of a heap bit flip: what was hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapHit {
    /// Region/element name (e.g. `node_mgmt`).
    pub region: String,
    /// Field description.
    pub field: String,
    /// Pointer or data.
    pub kind: FieldKind,
}

/// Object-safe cloning for [`Process`] trait objects.
///
/// Blanket-implemented for every `Process + Clone` type, so concrete
/// behaviours only need `#[derive(Clone)]`. Cloning behaviours is what
/// makes a booted cluster forkable into per-run campaign copies.
/// `ree-os` sits below the three production behaviours (`Rank<S>`,
/// `ArmorProcess`, `Scc`), so an enum of them cannot live here; a blanket
/// supertrait costs no line per `impl Process` and is the least code.
pub trait ProcessClone {
    /// Clones the behaviour behind the trait object.
    fn clone_process(&self) -> Box<dyn Process>;
    /// Borrows the behaviour as `Any`, for a reader that knows its
    /// concrete type ([`crate::Cluster::behavior`]).
    fn process_any(&self) -> &dyn Any;
}

impl<T: Process + Clone + 'static> ProcessClone for T {
    fn clone_process(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn process_any(&self) -> &dyn Any {
        self
    }
}

impl Clone for Box<dyn Process> {
    fn clone(&self) -> Self {
        (**self).clone_process()
    }
}

/// Behaviour of a simulated process: a state machine over OS events.
///
/// Methods receive a [`crate::ProcCtx`] giving access to messaging,
/// timers, CPU work, spawning, storage, and self-termination. All methods
/// other than [`Process::on_message`] have empty defaults.
///
/// `Send + Sync + ProcessClone` bounds exist for warm-boot campaign
/// snapshots: a booted cluster is cloned per run and the clones execute
/// on worker threads, so every behaviour must be clonable and
/// thread-portable (`#[derive(Clone)]` plus plain-data / `Arc` state).
pub trait Process: ProcessClone + Send + Sync {
    /// Short kind tag (names the text image; appears in traces).
    fn kind(&self) -> &'static str;

    /// Called once when the process starts running.
    fn on_start(&mut self, ctx: &mut crate::ProcCtx<'_>) {
        let _ = ctx;
    }

    /// Called for each mailbox message.
    fn on_message(&mut self, msg: Message, ctx: &mut crate::ProcCtx<'_>);

    /// Called when a timer set via [`crate::ProcCtx::set_timer`] fires.
    fn on_timer(&mut self, tag: u64, ctx: &mut crate::ProcCtx<'_>) {
        let _ = (tag, ctx);
    }

    /// Called when a unit of CPU work completes.
    fn on_work_done(&mut self, tag: u64, ctx: &mut crate::ProcCtx<'_>) {
        let _ = (tag, ctx);
    }

    /// Called when a child process exits (`waitpid` semantics, §3.2).
    fn on_child_exit(&mut self, child: Pid, status: ExitStatus, ctx: &mut crate::ProcCtx<'_>) {
        let _ = (child, status, ctx);
    }

    /// Flips one bit of the injectable heap according to `target` and
    /// reports what was hit; `None` if the target does not exist in this
    /// process, which by default models no heap. ARMOR processes expose
    /// their element state, applications their matrices and control
    /// blocks: an implementation flips *real bits in real state* so
    /// propagation follows genuine data flow.
    fn flip_heap_bit(&mut self, rng: &mut SimRng, target: &HeapTarget) -> Option<HeapHit> {
        let _ = (rng, target);
        None
    }

    /// Invoked when an activated fault silently corrupts state: the
    /// default flips a random bit of the heap (if any).
    fn silent_corruption(&mut self, rng: &mut SimRng) {
        let _ = self.flip_heap_bit(rng, &HeapTarget::Any);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_status_abnormality() {
        assert!(!ExitStatus::Exited(0).is_abnormal());
        assert!(ExitStatus::Exited(1).is_abnormal());
        assert!(ExitStatus::Killed(Signal::Int).is_abnormal());
        assert!(ExitStatus::Aborted("range check".into()).is_abnormal());
    }

    #[test]
    fn message_take_downcasts() {
        let msg = Message { from: Pid(1), label: "x", payload: Box::new(42u32) };
        assert_eq!(msg.take::<u32>().unwrap(), 42);

        let msg = Message { from: Pid(1), label: "x", payload: Box::new(42u32) };
        let back = msg.take::<String>().unwrap_err();
        assert_eq!(back.peek::<u32>(), Some(&42));
    }

    #[test]
    fn display_impls() {
        assert_eq!(Pid(3).to_string(), "pid3");
        assert_eq!(Signal::Stop.to_string(), "SIGSTOP");
        assert_eq!(ExitStatus::Killed(Signal::Segv).to_string(), "killed(SIGSEGV)");
    }
}
