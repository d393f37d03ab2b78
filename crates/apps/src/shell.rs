//! Common plumbing shared by the MPI science applications: SIFT attach,
//! progress-indicator creation, the MPICH-style init barrier (rank 0
//! spawns peers, gathers hellos, broadcasts "go"), blocked-call retry,
//! and resume-point agreement after restarts.

use ree_mpi::{MpiEndpoint, MpiPayload};
use ree_os::{Message, NodeId, ProcCtx, SpawnSpec, TraceEvent};
use ree_sift::{AppLaunch, ClientNote, SiftClient, APP_BLOCK_TIMEOUT, MPI_INIT_TIMEOUT};
use ree_sim::{SimDuration, SimTime};

/// MPI tag for the init hello (carries the sender's resume token).
const TAG_HELLO: u32 = 0xFFF1;
/// MPI tag for the go broadcast (carries the agreed resume token).
const TAG_GO: u32 = 0xFFF2;

/// Timer tag reserved by the shell for its retry/timeout tick.
pub(crate) const SHELL_TICK: u64 = 0xFFF0;

/// Period of the shell's housekeeping tick.
const TICK: SimDuration = SimDuration::from_secs(1);

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum ShellState {
    /// The launch descriptor names no place in the job: MPI_Init fails
    /// at start.
    BadLaunch,
    Attaching,
    CreatingPi,
    InitBarrier,
    Running,
    Exiting,
    Dead,
}

/// What [`AppShell::poll`] tells the application to do.
#[derive(Debug, PartialEq, Eq, Clone)]
pub(crate) enum ShellPoll {
    /// Keep waiting (init incomplete or a SIFT call is blocked).
    Wait,
    /// Init complete: start (or resume) computing from the agreed resume
    /// token.
    Run(String),
}

/// Shared application plumbing.
#[derive(Clone)]
pub(crate) struct AppShell {
    /// Launch descriptor.
    pub launch: AppLaunch,
    /// SIFT interface client.
    pub client: SiftClient,
    /// MPI endpoint.
    pub mpi: MpiEndpoint,
    state: ShellState,
    my_token: String,
    agreed: Option<String>,
    hellos: Vec<Option<String>>,
    peers_spawned: bool,
    init_deadline: Option<SimTime>,
    pi_period: SimDuration,
    announced_run: bool,
}

impl AppShell {
    /// Builds the shell. `my_token` is this rank's persisted resume
    /// token (empty for a fresh run); `pi_period` is the declared
    /// progress-indicator frequency.
    pub(crate) fn new(launch: AppLaunch, my_token: String, pi_period: SimDuration) -> Self {
        // A heap flip in the launching ARMOR can corrupt the descriptor,
        // so nothing is sized from it before it is checked. A bad launch
        // gets a one-rank endpoint it never uses.
        let valid = launch.size > 0
            && launch.rank < launch.size
            && launch.size as usize <= launch.nodes.len();
        let (rank, size, state) = if valid {
            (launch.rank, launch.size, ShellState::Attaching)
        } else {
            (0, 1, ShellState::BadLaunch)
        };
        let client = SiftClient::new(&launch);
        AppShell {
            launch,
            client,
            mpi: MpiEndpoint::new(rank, size),
            state,
            my_token,
            agreed: None,
            hellos: vec![None; size as usize],
            peers_spawned: false,
            init_deadline: None,
            pi_period,
            announced_run: false,
        }
    }

    /// Call from `Process::on_start`.
    pub(crate) fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.state == ShellState::BadLaunch {
            let l = &self.launch;
            ctx.trace(format!(
                "{} MPI_Init failed: rank {} of {} over {} nodes",
                l.app,
                l.rank,
                l.size,
                l.nodes.len()
            ));
            self.state = ShellState::Dead;
            ctx.exit(1);
            return;
        }
        ctx.set_timer(TICK, SHELL_TICK);
        if self.launch.rank == 0 {
            // The MPI abort window of Figure 8.
            self.init_deadline = Some(ctx.now() + MPI_INIT_TIMEOUT);
        } else if let Some(r0) = self.launch.rank0_pid {
            self.mpi.set_peer(0, r0);
        }
        if self.client.sift_enabled() {
            self.client.attach(ctx);
        } else {
            self.state = ShellState::InitBarrier;
        }
    }

    /// Call from `Process::on_message` before app-specific handling.
    /// Returns `true` if the shell consumed the message.
    pub(crate) fn on_message(&mut self, msg: &Message, ctx: &mut ProcCtx<'_>) -> bool {
        match self.client.handle_message(msg, ctx) {
            ClientNote::Acked(kind) => {
                if self.state == ShellState::Attaching && kind == ree_sift::tags::APP_ATTACH {
                    self.state = ShellState::CreatingPi;
                    self.client.pi_create(ctx, self.pi_period);
                } else if self.state == ShellState::CreatingPi && kind == ree_sift::tags::PI_CREATE
                {
                    self.state = ShellState::InitBarrier;
                } else if self.state == ShellState::Exiting && kind == ree_sift::tags::APP_EXITING {
                    self.state = ShellState::Dead;
                    ctx.exit(0);
                }
                return true;
            }
            ClientNote::Rebound => return true,
            ClientNote::NotMine => {}
        }
        if self.mpi.on_message(msg) {
            if self.state == ShellState::InitBarrier {
                // Init-barrier messages are shell business.
                self.drive_barrier(ctx);
                return true;
            }
            // Buffered application data: let the app inspect its inbox.
            return false;
        }
        false
    }

    /// Call from `Process::on_timer`; returns `true` if the shell
    /// consumed the tick.
    pub(crate) fn on_timer(&mut self, tag: u64, ctx: &mut ProcCtx<'_>) -> bool {
        if tag != SHELL_TICK {
            return false;
        }
        ctx.set_timer(TICK, SHELL_TICK);
        if self.client.is_blocked() {
            self.client.retry_pending(ctx);
            if self.client.blocked_for(ctx.now()) > APP_BLOCK_TIMEOUT {
                // The SAN model's app_timeout transition: give up on the
                // unavailable SIFT process.
                ctx.trace_event(
                    TraceEvent::MpiRankGaveUp,
                    format!(
                        "rank {} gave up after blocking {} on the SIFT interface",
                        self.launch.rank,
                        self.client.blocked_for(ctx.now())
                    ),
                );
                self.state = ShellState::Dead;
                ctx.exit(1);
                return true;
            }
        }
        if self.state == ShellState::InitBarrier {
            self.drive_barrier(ctx);
            // Rank-0 MPI init timeout (Figure 8): peers failed to check
            // in, abort the whole application.
            if let Some(deadline) = self.init_deadline {
                if self.launch.rank == 0 && ctx.now() > deadline && self.agreed.is_none() {
                    ctx.trace_event(
                        TraceEvent::MpiInitTimeout,
                        "MPI init timeout: rank 0 aborts the application",
                    );
                    self.state = ShellState::Dead;
                    ctx.exit(1);
                }
            }
        }
        true
    }

    fn drive_barrier(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.client.is_blocked() {
            return;
        }
        if self.launch.rank == 0 {
            if !self.peers_spawned {
                self.peers_spawned = true;
                let me = ctx.pid();
                // Table 1 step 5: remotely launch the remaining ranks.
                for rank in 1..self.launch.size {
                    let node = self.launch.nodes[rank as usize];
                    if usize::from(node) >= ctx.node_count() {
                        // A corrupted node id: the peer never starts,
                        // and the init timeout below aborts the job.
                        ctx.trace(format!("mpi: rank {rank} names unknown node {node}"));
                        continue;
                    }
                    let mut peer_launch = self.launch.for_rank(rank);
                    peer_launch.rank0_pid = Some(me);
                    let behavior = (self.launch.factory)(&peer_launch);
                    let pid = ctx.spawn(SpawnSpec::new(
                        format!("{}-r{}-a{}", self.launch.app, rank, self.launch.attempt),
                        NodeId(node),
                        behavior,
                    ));
                    self.mpi.set_peer(rank, pid);
                    // Table 1 step 6: report peer pids via the FTM.
                    self.client.report_rank_pid(ctx, rank, pid);
                }
                self.hellos[0] = Some(self.my_token.clone());
            }
            // Collect hellos.
            while let Some(m) = self.mpi.try_recv(None, TAG_HELLO) {
                if let MpiPayload::Text(token) = m.payload {
                    if (m.from_rank as usize) < self.hellos.len() {
                        self.hellos[m.from_rank as usize] = Some(token);
                    }
                }
            }
            if self.agreed.is_none() && self.hellos.iter().all(Option::is_some) {
                // Agree on the minimum resume point so all ranks replay
                // in lockstep.
                let agreed = self
                    .hellos
                    .iter()
                    .flatten()
                    .min_by_key(|t| token_ord(t))
                    .cloned()
                    .unwrap_or_default();
                for rank in 1..self.launch.size {
                    self.mpi.send(ctx, rank, TAG_GO, MpiPayload::Text(agreed.clone()));
                }
                self.agreed = Some(agreed);
                self.state = ShellState::Running;
            }
        } else {
            // Say hello once attached (covers SIFT-disabled mode too).
            if self.hellos[self.launch.rank as usize].is_none() && self.client.is_attached() {
                self.hellos[self.launch.rank as usize] = Some(self.my_token.clone());
                self.mpi.send(ctx, 0, TAG_HELLO, MpiPayload::Text(self.my_token.clone()));
            }
            if let Some(m) = self.mpi.try_recv(Some(0), TAG_GO) {
                if let MpiPayload::Text(token) = m.payload {
                    self.agreed = Some(token);
                    self.state = ShellState::Running;
                }
            }
        }
    }

    /// Polls the shell's readiness.
    pub(crate) fn poll(&mut self, ctx: &mut ProcCtx<'_>) -> ShellPoll {
        if self.state == ShellState::InitBarrier {
            self.drive_barrier(ctx);
        }
        match (&self.state, &self.agreed) {
            (ShellState::Running, Some(token)) => {
                if !self.announced_run {
                    self.announced_run = true;
                    ctx.trace_event(
                        TraceEvent::AppStarted,
                        format!(
                            "{} rank {} running (resume '{token}')",
                            self.launch.app, self.launch.rank
                        ),
                    );
                }
                ShellPoll::Run(token.clone())
            }
            _ => ShellPoll::Wait,
        }
    }

    /// True while a SIFT call is outstanding (the app must not advance).
    pub(crate) fn blocked(&self) -> bool {
        self.client.is_blocked()
    }

    /// Sends a progress indicator if not blocked.
    pub(crate) fn progress(&mut self, ctx: &mut ProcCtx<'_>) {
        if !self.client.is_blocked() {
            self.client.progress(ctx);
        }
    }

    /// Begins the clean-exit handshake (Table 1 step 11).
    pub(crate) fn finish(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.client.sift_enabled() {
            self.state = ShellState::Exiting;
            self.client.notify_exit(ctx);
        } else {
            self.state = ShellState::Dead;
            ctx.exit(0);
        }
    }

    /// True once the shell has requested process exit.
    pub(crate) fn finished(&self) -> bool {
        self.state == ShellState::Dead
    }
}

/// Orders resume tokens `"image,filter"` numerically.
fn token_ord(token: &str) -> (u64, u64) {
    let mut parts = token.split(',');
    let a = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
    let b = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_ordering_is_numeric() {
        assert!(token_ord("2,1") > token_ord("2,0"));
        assert!(token_ord("10,0") > token_ord("9,5"));
        assert_eq!(token_ord(""), (0, 0));
        assert_eq!(token_ord("3"), (3, 0));
    }
}
