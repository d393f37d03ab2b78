//! The one rank skeleton every science application runs inside.
//!
//! A [`Rank`] owns what all MPI ranks share — the [`AppShell`] (SIFT
//! attach, init barrier, progress indicators), the injectable
//! [`SciHeap`], the persisted resume token and the heap integrity guard —
//! and is the only `Process`/`HeapModel` implementation in this crate. An
//! application is a [`Science`] impl: its phase machine, nothing else.
//! `Rank<S>` is monomorphised per application, so the per-event path has
//! exactly the one `dyn Process` dispatch it always had.

use crate::heap::SciHeap;
use crate::shell::AppShell;
use ree_os::{HeapHit, HeapModel, HeapTarget, Message, ProcCtx, Process, Signal};
use ree_sift::AppLaunch;
use ree_sim::{SimDuration, SimRng};

/// Work tag of the science phase in progress (one unit at a time).
pub(crate) const WORK_PHASE: u64 = 1;

/// The application-specific part of a rank: a phase machine driven by
/// the skeleton's guarded `advance`/`work_done` calls.
pub(crate) trait Science: Clone + std::fmt::Debug + Send + Sync + Sized + 'static {
    /// Workload parameters: a field of [`crate::Scenario`], or `()` for an
    /// application with one workload.
    type Params: Clone + Send + Sync + 'static;
    /// `Process::kind` tag; names the text image.
    const TAG: &'static str;
    /// Trace line of the heap guard's corrupted-status-pointer crash.
    const PTR_FAULT: &'static str;
    /// Trace line of the heap guard's corrupted-dimensions crash.
    const DIMS_FAULT: &'static str;

    /// Fresh science state for one rank.
    fn new(params: &Self::Params) -> Self;
    /// Side of the square frame the heap's control block describes.
    fn side(params: &Self::Params) -> usize;
    /// Declared progress-indicator period.
    fn pi_period(params: &Self::Params) -> SimDuration;
    /// Something happened (start, message, shell tick, finished work):
    /// poll the shell, drain the inbox, move the phase machine.
    fn advance(rank: &mut Rank<Self>, ctx: &mut ProcCtx<'_>);
    /// The [`WORK_PHASE`] unit started by the current phase completed.
    fn work_done(rank: &mut Rank<Self>, ctx: &mut ProcCtx<'_>);
    /// Claims a timer that is not the shell's; `true` if `tag` was its.
    fn timer(_rank: &mut Rank<Self>, _tag: u64, _ctx: &mut ProcCtx<'_>) -> bool {
        false
    }
}

/// One MPI rank of application `S`.
#[derive(Clone)]
pub(crate) struct Rank<S: Science> {
    pub(crate) shell: AppShell,
    pub(crate) heap: SciHeap,
    pub(crate) params: S::Params,
    pub(crate) sci: S,
}

impl<S: Science> Rank<S> {
    /// Creates the process for one rank.
    pub(crate) fn new(launch: &AppLaunch, params: S::Params) -> Self {
        Rank {
            shell: AppShell::new(launch.clone(), String::new(), S::pi_period(&params)),
            heap: SciHeap::new(S::side(&params) as u64),
            sci: S::new(&params),
            params,
        }
    }

    /// Where this rank persists its resume token.
    pub(crate) fn status_path(&self) -> String {
        let launch = &self.shell.launch;
        format!("app/{}/s{}/r{}/status", launch.app, launch.slot, launch.rank)
    }

    /// Integrity checks on the science heap; a corrupted pointer or
    /// dimension field crashes the process (Table 10 crash mechanism).
    fn heap_guard(&mut self, ctx: &mut ProcCtx<'_>) -> bool {
        let fault = if self.heap.ptr_fault() {
            S::PTR_FAULT
        } else if self.heap.dims_fault(S::side(&self.params) as u64) {
            S::DIMS_FAULT
        } else {
            return true;
        };
        ctx.trace(fault);
        ctx.crash(Signal::Segv);
        false
    }

    /// True if the science may act now: not exited, no SIFT call
    /// outstanding, heap intact (crashes the process otherwise).
    pub(crate) fn runnable(&mut self, ctx: &mut ProcCtx<'_>) -> bool {
        !self.shell.finished() && !self.shell.blocked() && self.heap_guard(ctx)
    }

    fn advance(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.runnable(ctx) {
            S::advance(self, ctx);
        }
    }
}

impl<S: Science> Process for Rank<S> {
    fn kind(&self) -> &'static str {
        S::TAG
    }

    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        let token = ctx
            .remote_fs()
            .read(&self.status_path())
            .and_then(|b| String::from_utf8(b.to_vec()).ok())
            .unwrap_or_default();
        // Re-create the shell with the persisted token (cheap; the shell
        // has not been started yet).
        let launch = self.shell.launch.clone();
        self.shell = AppShell::new(launch, token, S::pi_period(&self.params));
        self.shell.on_start(ctx);
        self.advance(ctx);
    }

    fn on_message(&mut self, msg: Message, ctx: &mut ProcCtx<'_>) {
        let _ = self.shell.on_message(&msg, ctx);
        self.advance(ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut ProcCtx<'_>) {
        if S::timer(self, tag, ctx) {
            return;
        }
        let _ = self.shell.on_timer(tag, ctx);
        self.advance(ctx);
    }

    fn on_work_done(&mut self, tag: u64, ctx: &mut ProcCtx<'_>) {
        if tag != WORK_PHASE || self.shell.finished() || !self.heap_guard(ctx) {
            return;
        }
        S::work_done(self, ctx);
        self.advance(ctx);
    }

    fn heap(&mut self) -> Option<&mut dyn HeapModel> {
        Some(self)
    }
}

impl<S: Science> HeapModel for Rank<S> {
    fn region_names(&self) -> Vec<String> {
        vec!["image".into(), "features".into(), "ctrl".into()]
    }

    fn flip_bit(&mut self, rng: &mut SimRng, target: &HeapTarget) -> Option<HeapHit> {
        self.heap.flip(rng, target)
    }
}

impl<S: Science> std::fmt::Debug for Rank<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(S::TAG)
            .field("rank", &self.shell.launch.rank)
            .field("science", &self.sci)
            .finish()
    }
}
