//! Self-injected worker chaos — the harness applying the paper's own
//! discipline to itself.
//!
//! A [`ChaosPlan`] arms exactly one worker with one fault, triggered
//! deterministically after a fixed number of completed runs: SIGKILL
//! (crash), SIGSTOP (hang — heartbeats stop, the process lingers),
//! frame corruption (a bit flip after the CRC was computed), frame
//! truncation (half a `BatchDone` then exit), or a poisoned batch (a
//! deliberate panic inside the run loop, surfaced as a `BatchFailed`
//! error frame). The plan rides into the worker via environment
//! variables, and fires only while the worker's incarnation number is
//! below `incarnations` — so a respawned worker is healthy and the
//! sweep provably converges to the same aggregate.
//!
//! The kill and hang modes are the crate's one `unsafe` code: the
//! workspace vendors no `libc` crate, so `raise_self` declares libc's
//! `raise` itself.

/// `SIGKILL`: unblockable kill (the crash mode).
const SIGKILL: i32 = 9;
/// `SIGSTOP`: unblockable stop (the hang mode).
const SIGSTOP: i32 = 19;

/// Delivers `sig` to the calling process: how a chaos-armed worker
/// kills or stops *itself* at its instant without an external `kill`.
#[allow(unsafe_code)]
fn raise_self(sig: i32) {
    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    // SAFETY: libc's `raise` takes any signal number and touches no
    // memory of ours.
    unsafe {
        raise(sig);
    }
}

/// Which fault a chaos-armed worker injects into itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosMode {
    /// `raise(SIGKILL)` — the worker vanishes mid-batch.
    Kill,
    /// `raise(SIGSTOP)` — the worker hangs; only the supervisor's stall
    /// timeout can tell.
    Hang,
    /// Flip one bit of an outgoing `BatchDone` frame (after the CRC was
    /// computed) — exercises CRC detection and resynchronisation.
    CorruptFrame,
    /// Send only half of a `BatchDone` frame, then exit — exercises
    /// truncation detection at EOF.
    TruncateFrame,
    /// Panic inside the batch loop — exercises the typed
    /// `BatchFailed` error frame instead of a dead process.
    Poison,
}

impl ChaosMode {
    fn as_str(self) -> &'static str {
        match self {
            ChaosMode::Kill => "kill",
            ChaosMode::Hang => "hang",
            ChaosMode::CorruptFrame => "corrupt",
            ChaosMode::TruncateFrame => "truncate",
            ChaosMode::Poison => "poison",
        }
    }

    /// Parses the [`Display`](std::fmt::Display) spelling (`kill`,
    /// `hang`, `corrupt`, `truncate`, `poison`).
    fn parse(s: &str) -> Option<ChaosMode> {
        ChaosMode::ALL.into_iter().find(|m| m.as_str() == s)
    }

    /// Every chaos mode.
    pub const ALL: [ChaosMode; 5] = [
        ChaosMode::Kill,
        ChaosMode::Hang,
        ChaosMode::CorruptFrame,
        ChaosMode::TruncateFrame,
        ChaosMode::Poison,
    ];
}

impl std::fmt::Display for ChaosMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One armed fault: who, what, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The fault to inject.
    pub mode: ChaosMode,
    /// Worker id the fault is armed on.
    pub victim: u32,
    /// Completed runs (across the worker's lifetime) before it fires.
    pub after_runs: u32,
    /// Incarnations the fault stays armed for: 1 = only the first
    /// spawn, 2 = also the first respawn (drives quarantine), …
    pub incarnations: u32,
}

impl ChaosPlan {
    /// The environment spelling (`mode:victim:after_runs:incarnations`).
    pub(crate) fn to_env(self) -> String {
        format!("{}:{}:{}:{}", self.mode, self.victim, self.after_runs, self.incarnations)
    }

    /// Parses [`ChaosPlan::to_env`]'s spelling.
    pub(crate) fn from_env(s: &str) -> Option<ChaosPlan> {
        let mut parts = s.split(':');
        let mode = ChaosMode::parse(parts.next()?)?;
        let victim = parts.next()?.parse().ok()?;
        let after_runs = parts.next()?.parse().ok()?;
        let incarnations = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(ChaosPlan { mode, victim, after_runs, incarnations })
    }
}

/// The worker-side state machine: counts runs and fires the armed fault
/// at its instant.
#[derive(Debug)]
pub(crate) struct ChaosState {
    armed: Option<ChaosPlan>,
    runs_completed: u32,
    fired: bool,
}

impl ChaosState {
    /// Chaos as armed for this worker: `plan` applies only if this
    /// worker is the victim and its incarnation is still covered.
    pub(crate) fn new(plan: Option<ChaosPlan>, worker: u32, incarnation: u32) -> ChaosState {
        let armed = plan.filter(|p| p.victim == worker && incarnation < p.incarnations);
        ChaosState { armed, runs_completed: 0, fired: false }
    }

    /// Called before each run: fires `Kill`/`Hang`/`Poison` when the
    /// run counter reaches the armed instant. `Kill` and `Hang` do not
    /// return; `Poison` reports `true` so the worker can panic inside
    /// its catch boundary.
    pub(crate) fn before_run(&mut self) -> bool {
        let Some(plan) = self.armed else { return false };
        if self.fired || self.runs_completed < plan.after_runs {
            return false;
        }
        match plan.mode {
            ChaosMode::Kill => raise_self(SIGKILL),
            ChaosMode::Hang => raise_self(SIGSTOP),
            ChaosMode::Poison => {
                self.fired = true;
                return true;
            }
            ChaosMode::CorruptFrame | ChaosMode::TruncateFrame => {}
        }
        false
    }

    /// Called after each completed run.
    pub(crate) fn after_run(&mut self) {
        self.runs_completed += 1;
    }

    /// Called with each encoded `BatchDone` frame; `CorruptFrame`
    /// mangles it once, `TruncateFrame` halves it once (the caller
    /// exits after sending a truncated frame — a real truncation is an
    /// abrupt stream end, not a gap).
    ///
    /// Returns whether the caller should exit after writing the frame.
    pub(crate) fn mangle_frame(&mut self, frame: &mut Vec<u8>) -> bool {
        let Some(plan) = self.armed else { return false };
        if self.fired || self.runs_completed < plan.after_runs.max(1) {
            return false;
        }
        match plan.mode {
            ChaosMode::CorruptFrame => {
                self.fired = true;
                let last = frame.len() - 1;
                frame[last] ^= 0x10;
                false
            }
            ChaosMode::TruncateFrame => {
                self.fired = true;
                frame.truncate(frame.len() / 2);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_roundtrip() {
        for mode in ChaosMode::ALL {
            let plan = ChaosPlan { mode, victim: 3, after_runs: 7, incarnations: 2 };
            assert_eq!(ChaosPlan::from_env(&plan.to_env()), Some(plan));
        }
        assert_eq!(ChaosPlan::from_env("bogus:0:0:1"), None);
        assert_eq!(ChaosPlan::from_env("kill:0:0"), None);
    }

    #[test]
    fn only_the_victim_incarnation_is_armed() {
        let plan = ChaosPlan { mode: ChaosMode::Poison, victim: 1, after_runs: 0, incarnations: 1 };
        assert!(ChaosState::new(Some(plan), 0, 0).armed.is_none());
        assert!(ChaosState::new(Some(plan), 1, 0).armed.is_some());
        assert!(ChaosState::new(Some(plan), 1, 1).armed.is_none());
        assert!(ChaosState::new(None, 1, 0).armed.is_none());
    }

    #[test]
    fn poison_fires_once_at_its_instant() {
        let plan = ChaosPlan { mode: ChaosMode::Poison, victim: 0, after_runs: 2, incarnations: 1 };
        let mut state = ChaosState::new(Some(plan), 0, 0);
        assert!(!state.before_run());
        state.after_run();
        assert!(!state.before_run());
        state.after_run();
        assert!(state.before_run(), "fires at run 2");
        assert!(!state.before_run(), "one-shot");
    }

    #[test]
    fn corrupt_flips_a_bit_truncate_halves() {
        let plan =
            ChaosPlan { mode: ChaosMode::CorruptFrame, victim: 0, after_runs: 1, incarnations: 1 };
        let mut state = ChaosState::new(Some(plan), 0, 0);
        state.after_run();
        let mut frame = vec![0u8; 8];
        assert!(!state.mangle_frame(&mut frame));
        assert_eq!(frame[7], 0x10, "bit flipped");
        let plan =
            ChaosPlan { mode: ChaosMode::TruncateFrame, victim: 0, after_runs: 1, incarnations: 1 };
        let mut state = ChaosState::new(Some(plan), 0, 0);
        state.after_run();
        let mut frame = vec![0u8; 8];
        assert!(state.mangle_frame(&mut frame), "exit after truncated send");
        assert_eq!(frame.len(), 4);
    }
}
