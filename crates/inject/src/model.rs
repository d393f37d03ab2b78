//! Error models (Table 2), targets, and outcome taxonomy (§4.2).

use ree_os::{Cluster, HeapHit, HeapTarget, Pid, Signal};

/// What process class a campaign injects into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// An MPI rank of the slot-0 application (uniformly chosen).
    App,
    /// An MPI rank of the named application (two-app experiments).
    NamedApp(String),
    /// The Fault Tolerance Manager.
    Ftm,
    /// One of the slot-0 Execution ARMORs (uniformly chosen).
    ExecArmor,
    /// The Heartbeat ARMOR.
    Heartbeat,
    /// Any SIFT ARMOR other than daemons (two-app experiments average
    /// over FTM + Execution ARMORs + Heartbeat ARMOR).
    AnyArmor,
}

impl Target {
    /// Name predicate used to resolve the target in the process table.
    pub(crate) fn matches(&self, name: &str) -> bool {
        match self {
            Target::App => name.contains("-r") && !name.starts_with("exec"),
            Target::NamedApp(app) => name.starts_with(app) && name.contains("-r"),
            Target::Ftm => name == "ftm",
            Target::ExecArmor => name.starts_with("exec"),
            Target::Heartbeat => name == "heartbeat",
            Target::AnyArmor => name == "ftm" || name == "heartbeat" || name.starts_with("exec"),
        }
    }

    /// True for SIFT-process targets (used for correlated-failure
    /// accounting).
    pub fn is_sift_process(&self) -> bool {
        !matches!(self, Target::App | Target::NamedApp(_))
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::App => write!(f, "Application"),
            Target::NamedApp(a) => write!(f, "{a} app"),
            Target::Ftm => write!(f, "FTM"),
            Target::ExecArmor => write!(f, "Execution ARMOR"),
            Target::Heartbeat => write!(f, "Heartbeat ARMOR"),
            Target::AnyArmor => write!(f, "ARMORs"),
        }
    }
}

/// The error models of Table 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErrorModel {
    /// "Lynx operating system delivers a SIGINT signal to the target
    /// process" — clean crash.
    Sigint,
    /// "… a SIGSTOP signal …" — clean hang.
    Sigstop,
    /// "Bits in the registers of the target process are periodically
    /// flipped until a failure is induced."
    Register,
    /// "Bits in the text segment … periodically flipped until a failure
    /// is induced."
    TextSegment,
    /// "Bits in allocated regions of the heap memory … periodically
    /// flipped" (§7.1: until the target fails).
    Heap,
    /// A single flip with a §7.2-style constraint (data-only and/or a
    /// specific element).
    HeapSingle(HeapTarget),
}

/// What one [`ErrorModel::place`] call did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Was an error placed? False when the target has no matching state
    /// to corrupt yet (e.g. a heap model before the app allocated).
    pub placed: bool,
    /// What a heap flip hit (heap models only).
    pub heap_hit: Option<HeapHit>,
}

impl ErrorModel {
    /// True for the repeat-until-failure protocols.
    pub(crate) fn repeats(&self) -> bool {
        matches!(self, ErrorModel::Register | ErrorModel::TextSegment | ErrorModel::Heap)
    }

    /// Places one error of this model on `pid` through the `ree-os`
    /// injection surface — the model → injector table of Table 2, used
    /// by every scheduler that injects.
    pub fn place(&self, cluster: &mut Cluster, pid: Pid) -> Placement {
        let mut heap_hit = None;
        let placed = match self {
            ErrorModel::Sigint => {
                cluster.send_signal(pid, Signal::Int);
                true
            }
            ErrorModel::Sigstop => {
                cluster.send_signal(pid, Signal::Stop);
                true
            }
            ErrorModel::Register => cluster.inject_register(pid).is_some(),
            ErrorModel::TextSegment => cluster.inject_text(pid).is_some(),
            ErrorModel::Heap => {
                heap_hit = cluster.inject_heap(pid, &HeapTarget::Any);
                heap_hit.is_some()
            }
            ErrorModel::HeapSingle(target) => {
                heap_hit = cluster.inject_heap(pid, target);
                heap_hit.is_some()
            }
        };
        Placement { placed, heap_hit }
    }
}

impl std::fmt::Display for ErrorModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorModel::Sigint => write!(f, "SIGINT"),
            ErrorModel::Sigstop => write!(f, "SIGSTOP"),
            ErrorModel::Register => write!(f, "Register"),
            ErrorModel::TextSegment => write!(f, "Text segment"),
            ErrorModel::Heap => write!(f, "Heap"),
            ErrorModel::HeapSingle(t) => write!(f, "Heap single ({t:?})"),
        }
    }
}

/// Classification of the failure induced in the target (Table 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// Invalid memory access (SIGSEGV).
    SegFault,
    /// Invalid opcode (SIGILL).
    IllegalInstruction,
    /// Ceased making progress.
    Hang,
    /// Internal assertion/self-check killed the process.
    Assertion,
    /// The injected signal itself terminated/stopped the process
    /// (SIGINT/SIGSTOP campaigns).
    InjectedSignal,
    /// Other abnormal end (e.g. self-abort on a blocked SIFT call).
    Other,
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureClass::SegFault => "seg fault",
            FailureClass::IllegalInstruction => "illegal instr",
            FailureClass::Hang => "hang",
            FailureClass::Assertion => "assertion",
            FailureClass::InjectedSignal => "injected signal",
            FailureClass::Other => "other",
        };
        f.write_str(s)
    }
}

/// Phase-classified system failures (§4.2 definition; Table 8 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemFailure {
    /// The environment never became able to accept the submission.
    UnableToRegisterDaemons,
    /// Execution ARMORs were never installed for the application.
    UnableToInstallExecArmors,
    /// ARMORs installed but the application never started.
    UnableToStartApplication,
    /// The application finished its science but the SIFT environment
    /// never recognised completion.
    UnableToRecognizeCompletion,
    /// The application could not complete within the timeout.
    AppDidNotComplete,
}

impl std::fmt::Display for SystemFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SystemFailure::UnableToRegisterDaemons => "unable to register daemons",
            SystemFailure::UnableToInstallExecArmors => "unable to install Execution ARMORs",
            SystemFailure::UnableToStartApplication => "unable to start application",
            SystemFailure::UnableToRecognizeCompletion => "unable to recognize completion",
            SystemFailure::AppDidNotComplete => "application did not complete",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_predicates() {
        assert!(Target::App.matches("texture-r0-a0"));
        assert!(!Target::App.matches("exec0_0"));
        assert!(Target::Ftm.matches("ftm"));
        assert!(!Target::Ftm.matches("heartbeat"));
        assert!(Target::ExecArmor.matches("exec0_1"));
        assert!(Target::Heartbeat.matches("heartbeat"));
        assert!(Target::AnyArmor.matches("ftm"));
        assert!(Target::AnyArmor.matches("exec1_0"));
        assert!(!Target::AnyArmor.matches("daemon0"));
        let otis = Target::NamedApp(ree_apps::AppKind::Otis.name().into());
        assert!(otis.matches("otis-r1-a0"));
        assert!(!otis.matches("texture-r1-a0"));
    }

    #[test]
    fn sift_process_classification() {
        assert!(Target::Ftm.is_sift_process());
        assert!(Target::ExecArmor.is_sift_process());
        assert!(!Target::App.is_sift_process());
    }

    #[test]
    fn model_repetition_protocol() {
        assert!(!ErrorModel::Sigint.repeats());
        assert!(ErrorModel::Register.repeats());
        assert!(ErrorModel::Heap.repeats());
        assert!(!ErrorModel::HeapSingle(HeapTarget::DataOnly).repeats());
    }

    #[test]
    fn displays() {
        assert_eq!(ErrorModel::Sigint.to_string(), "SIGINT");
        assert_eq!(FailureClass::SegFault.to_string(), "seg fault");
        assert_eq!(
            SystemFailure::UnableToInstallExecArmors.to_string(),
            "unable to install Execution ARMORs"
        );
    }
}
