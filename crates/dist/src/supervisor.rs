//! The supervisor: spawns the worker pool, shards the seed range into
//! batches, and folds results **in seed order** — the same
//! `Aggregate::accept` fold a single-process campaign uses, which is
//! why the distributed aggregate is byte-identical for any worker
//! count and any failure pattern.
//!
//! Supervision model (docs/DISTRIBUTED.md has the full state machine):
//!
//! - **Heartbeats**: every completed run emits a `Progress` frame; a
//!   worker that sends nothing for `stall_timeout` is declared hung.
//! - **Deadlines**: a batch that outlives `batch_deadline` is taken
//!   from its worker regardless of heartbeats.
//! - **Retry/backoff**: a lost batch is re-queued with capped
//!   exponential backoff; after three lost attempts the supervisor
//!   executes it in-process (degradation, not divergence).
//! - **Quarantine**: a worker failing twice is quarantined — killed
//!   and never respawned; its work is redistributed.
//! - **Fallback**: losing *every* worker flips the sweep to in-process
//!   execution with a warning; the aggregate is still byte-identical.
//! - **Graceful shutdown**: SIGINT/SIGTERM stops dispatch, drains
//!   in-flight batches (bounded by one `batch_deadline`), kills the
//!   pool, and reports the partial seed-prefix aggregate.

use crate::chaos::ChaosPlan;
use crate::frame::{Decoder, FrameError};
use crate::signal;
use crate::wire::{decode_msg, encode_frame_msg, Msg, WireError, PROTO_VERSION};
use ree_inject::{execute_warm, Aggregate, CampaignError, RunPlan, RunResult};
use ree_stats::ShardLedger;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Lost attempts before a batch is executed in-process instead.
const MAX_BATCH_RETRIES: u32 = 3;
/// Worker failures before quarantine.
const QUARANTINE_AFTER: u32 = 2;

/// Configuration for one distributed sweep.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Worker-process count (clamped to the batch count).
    pub workers: usize,
    /// Runs per batch (the sharding granularity).
    pub batch: u32,
    /// Chaos to arm, if any.
    pub chaos: Option<ChaosPlan>,
    /// A busy worker sending no frames for this long is declared hung.
    pub stall_timeout: Duration,
    /// Absolute wall-clock budget for one dispatched batch.
    pub batch_deadline: Duration,
    /// First re-queue delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the re-queue delay.
    pub backoff_cap: Duration,
    /// Worker command (`program` + args). `None` spawns the current
    /// executable — which must call [`crate::run_worker_if_spawned`]
    /// early in `main`.
    pub worker_cmd: Option<Vec<String>>,
}

impl DistOptions {
    /// Defaults for `workers` workers: batches of 16, 5 s stall
    /// timeout, 120 s batch deadline, 50 ms → 2 s backoff, no chaos.
    pub fn new(workers: usize) -> DistOptions {
        DistOptions {
            workers: workers.max(1),
            batch: 16,
            chaos: None,
            stall_timeout: Duration::from_secs(5),
            batch_deadline: Duration::from_secs(120),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            worker_cmd: None,
        }
    }
}

/// Why a distributed sweep could not run at all. (Failures *during* a
/// sweep are handled — re-queued, quarantined, or degraded to
/// in-process execution — and reported in the [`DistReport`] instead.)
#[derive(Clone, Debug, PartialEq)]
pub enum DistError {
    /// The plan failed validation (locally or on a worker).
    Plan(CampaignError),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Plan(e) => write!(f, "distributed sweep rejected: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

/// What a distributed sweep produced.
#[derive(Clone, Debug)]
pub struct DistReport {
    /// The seed-ordered aggregate — byte-identical to
    /// `Campaign::aggregate` over the folded prefix.
    pub aggregate: Aggregate,
    /// Per-shard accounting (worker batches, failures, retries,
    /// fallback runs).
    pub ledger: ShardLedger,
    /// Runs requested.
    pub runs_total: u64,
    /// Runs folded into [`DistReport::aggregate`] (less than
    /// `runs_total` only when interrupted).
    pub runs_folded: u64,
    /// Was the sweep interrupted (SIGINT/SIGTERM)?
    pub interrupted: bool,
    /// Did any run execute in-process after worker loss or retry
    /// exhaustion?
    pub fell_back: bool,
    /// Human-readable supervision warnings (worker failures,
    /// quarantines, fallback) for the operational report.
    pub warnings: Vec<String>,
}

impl DistReport {
    /// True when every requested run was folded.
    pub fn completed(&self) -> bool {
        self.runs_folded == self.runs_total
    }
}

// ------------------------------------------------------------ batches

#[derive(Clone, Copy, Debug)]
struct BatchSpec {
    seed0: u64,
    len: u32,
}

fn shard(runs: u32, seed0: u64, batch: u32) -> Vec<BatchSpec> {
    let batch = batch.max(1);
    let mut out = Vec::new();
    let mut done = 0u32;
    while done < runs {
        let len = batch.min(runs - done);
        out.push(BatchSpec { seed0: seed0.wrapping_add(u64::from(done)), len });
        done += len;
    }
    out
}

// ------------------------------------------------------------ workers

#[derive(Debug)]
enum Event {
    Frame(Msg),
    Corrupt(FrameError),
    Undecodable(WireError),
    Eof,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WorkerState {
    /// Spawned; waiting for `Ready` then `PlanAccepted`.
    Starting,
    /// Handshake complete; no batch in flight.
    Idle,
    /// Executing a batch.
    Busy,
    /// Process gone; may be respawned.
    Dead,
    /// Failed too often; never respawned.
    Quarantined,
}

struct Worker {
    state: WorkerState,
    incarnation: u32,
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Batch id in flight (`state == Busy`).
    batch: Option<u32>,
    dispatched_at: Instant,
    last_frame: Instant,
    failures: u32,
}

/// Runs `runs` seeded executions of `plan` across a supervised worker
/// pool and folds the results in seed order.
///
/// The returned aggregate is **byte-identical** to
/// `Campaign::new(plan).runs(runs).seed(seed0).aggregate()` whenever
/// the sweep completes — for any worker count, any chaos mode, and any
/// real failure pattern — because results cross the wire bit-exactly
/// and fold through the identical accumulator in the identical order.
pub fn distribute(
    plan: &RunPlan,
    runs: u32,
    seed0: u64,
    options: &DistOptions,
) -> Result<DistReport, DistError> {
    plan.validate().map_err(DistError::Plan)?;
    let batches = shard(runs, seed0, options.batch);
    let workers = options.workers.clamp(1, batches.len().max(1));
    let mut sup = Supervisor::new(plan, batches, workers, options);
    sup.run()
}

struct Supervisor<'p> {
    plan: &'p RunPlan,
    options: &'p DistOptions,
    batches: Vec<BatchSpec>,
    plan_frame: Vec<u8>,
    hello_frame: Vec<u8>,
    workers: Vec<Worker>,
    events: mpsc::Receiver<(u32, u32, Event)>,
    events_tx: mpsc::Sender<(u32, u32, Event)>,
    /// Batches ready to dispatch now.
    pending: VecDeque<u32>,
    /// Batches in backoff: `(eligible_at, batch)`.
    delayed: Vec<(Instant, u32)>,
    /// Lost attempts per batch.
    attempts: Vec<u32>,
    /// Completed batches awaiting their turn in the seed-order fold.
    completed: BTreeMap<u32, Vec<RunResult>>,
    next_fold: u32,
    aggregate: Aggregate,
    runs_folded: u64,
    ledger: ShardLedger,
    warnings: Vec<String>,
    /// Interrupt seen: stop dispatching, drain in-flight batches only.
    draining: bool,
    fell_back: bool,
    /// Warm boot shared by every in-process fallback run.
    fallback_boot: Option<(ree_inject::RunGeometry, ree_apps::BootSnapshot)>,
    /// Fatal plan rejection reported by a worker.
    rejected: Option<CampaignError>,
}

impl<'p> Supervisor<'p> {
    fn new(
        plan: &'p RunPlan,
        batches: Vec<BatchSpec>,
        workers: usize,
        options: &'p DistOptions,
    ) -> Supervisor<'p> {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        Supervisor {
            plan,
            options,
            plan_frame: encode_frame_msg(&Msg::Plan { plan: Box::new(plan.clone()) }),
            hello_frame: encode_frame_msg(&Msg::Hello { proto: PROTO_VERSION }),
            attempts: vec![0; batches.len()],
            pending: (0..batches.len() as u32).collect(),
            batches,
            workers: (0..workers)
                .map(|_| Worker {
                    state: WorkerState::Dead,
                    incarnation: 0,
                    child: None,
                    stdin: None,
                    batch: None,
                    dispatched_at: now,
                    last_frame: now,
                    failures: 0,
                })
                .collect(),
            events: rx,
            events_tx: tx,
            delayed: Vec::new(),
            completed: BTreeMap::new(),
            next_fold: 0,
            aggregate: Aggregate::default(),
            runs_folded: 0,
            ledger: ShardLedger::new(workers),
            warnings: Vec::new(),
            draining: false,
            fell_back: false,
            fallback_boot: None,
            rejected: None,
        }
    }

    fn run(&mut self) -> Result<DistReport, DistError> {
        signal::install_interrupt_handler();
        for w in 0..self.workers.len() {
            self.spawn(w as u32, 0);
        }
        let total_batches = self.batches.len() as u32;
        let mut interrupted = false;
        let mut drain_deadline: Option<Instant> = None;
        while self.next_fold < total_batches {
            let now = Instant::now();
            if !interrupted && signal::interrupted() {
                interrupted = true;
                self.draining = true;
                drain_deadline = Some(now + self.options.batch_deadline);
                self.warnings.push("interrupt received: draining in-flight batches".into());
            }
            if interrupted {
                let busy = self.workers.iter().any(|w| w.state == WorkerState::Busy);
                let expired = drain_deadline.is_some_and(|d| now >= d);
                if !busy || expired {
                    break;
                }
            } else {
                // Promote batches whose backoff has elapsed.
                let mut i = 0;
                while i < self.delayed.len() {
                    if self.delayed[i].0 <= now {
                        let (_, b) = self.delayed.swap_remove(i);
                        self.pending.push_back(b);
                    } else {
                        i += 1;
                    }
                }
                self.dispatch_all();
                if let Some(e) = self.rejected.take() {
                    self.shutdown_pool();
                    return Err(DistError::Plan(e));
                }
                // Worker pool gone for good → in-process fallback.
                if self.live_workers() == 0 {
                    self.fallback_remaining();
                    continue;
                }
                // Everything outstanding is in backoff with no idle
                // worker able to take it sooner: just wait it out.
            }
            self.check_timeouts(now);
            match self.events.recv_timeout(Duration::from_millis(20)) {
                Ok((worker, incarnation, event)) => self.handle(worker, incarnation, event),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("supervisor holds a tx"),
            }
            self.fold_ready();
        }
        self.shutdown_pool();
        self.fold_ready();
        Ok(DistReport {
            aggregate: std::mem::take(&mut self.aggregate),
            ledger: std::mem::take(&mut self.ledger),
            runs_total: self.batches.iter().map(|b| u64::from(b.len)).sum(),
            runs_folded: self.runs_folded,
            interrupted,
            fell_back: self.fell_back,
            warnings: std::mem::take(&mut self.warnings),
        })
    }

    fn live_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| {
                matches!(w.state, WorkerState::Starting | WorkerState::Idle | WorkerState::Busy)
            })
            .count()
    }

    // ---------------------------------------------------- lifecycle

    fn spawn(&mut self, worker: u32, incarnation: u32) {
        let cmd = match &self.options.worker_cmd {
            Some(cmd) => cmd.clone(),
            None => match std::env::current_exe() {
                Ok(exe) => vec![exe.to_string_lossy().into_owned()],
                Err(e) => {
                    self.warnings.push(format!("cannot resolve worker executable: {e}"));
                    self.fail_worker(worker, "spawn failed");
                    return;
                }
            },
        };
        let mut command = Command::new(&cmd[0]);
        command
            .args(&cmd[1..])
            .env(crate::worker::ENV_WORKER_ID, worker.to_string())
            .env(crate::worker::ENV_INCARNATION, incarnation.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(chaos) = self.options.chaos {
            command.env(crate::worker::ENV_CHAOS, chaos.to_env());
        }
        let mut child = match command.spawn() {
            Ok(c) => c,
            Err(e) => {
                self.warnings.push(format!("worker w{worker} spawn failed: {e}"));
                self.fail_worker(worker, "spawn failed");
                return;
            }
        };
        let mut stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let tx = self.events_tx.clone();
        std::thread::spawn(move || {
            let mut decoder = Decoder::new();
            let mut stdout = stdout;
            let mut chunk = [0u8; 64 * 1024];
            loop {
                let n = stdout.read(&mut chunk).unwrap_or(0);
                if n == 0 {
                    let _ = tx.send((worker, incarnation, Event::Eof));
                    return;
                }
                decoder.feed(&chunk[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(payload)) => {
                            let event = match decode_msg(&payload) {
                                Ok(msg) => Event::Frame(msg),
                                Err(e) => Event::Undecodable(e),
                            };
                            if tx.send((worker, incarnation, event)).is_err() {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            if tx.send((worker, incarnation, Event::Corrupt(e))).is_err() {
                                return;
                            }
                        }
                    }
                }
            }
        });
        let hello_ok = stdin.write_all(&self.hello_frame).and_then(|()| stdin.flush()).is_ok();
        let w = &mut self.workers[worker as usize];
        w.state = WorkerState::Starting;
        w.incarnation = incarnation;
        w.child = Some(child);
        w.stdin = Some(stdin);
        w.batch = None;
        w.last_frame = Instant::now();
        if !hello_ok {
            self.fail_worker(worker, "handshake write failed");
        }
    }

    /// Kills and reaps a worker's process, re-queues its in-flight
    /// batch, counts the failure, and either respawns or quarantines.
    fn fail_worker(&mut self, worker: u32, why: &str) {
        let idx = worker as usize;
        let incarnation = self.workers[idx].incarnation;
        self.kill(worker);
        self.ledger.record_failure(idx);
        self.workers[idx].failures += 1;
        let failures = self.workers[idx].failures;
        self.warnings.push(format!("worker w{worker} failed ({why}); failure #{failures}"));
        if let Some(batch) = self.workers[idx].batch.take() {
            self.requeue(batch);
        }
        if failures >= QUARANTINE_AFTER {
            self.workers[idx].state = WorkerState::Quarantined;
            self.ledger.quarantine(idx);
            self.warnings.push(format!("worker w{worker} quarantined"));
        } else if !self.draining {
            self.spawn(worker, incarnation + 1);
        }
    }

    fn kill(&mut self, worker: u32) {
        let w = &mut self.workers[worker as usize];
        w.stdin = None; // closes the pipe
        if let Some(mut child) = w.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        w.state = WorkerState::Dead;
    }

    fn shutdown_pool(&mut self) {
        let shutdown = encode_frame_msg(&Msg::Shutdown);
        for w in &mut self.workers {
            if let Some(stdin) = &mut w.stdin {
                let _ = stdin.write_all(&shutdown).and_then(|()| stdin.flush());
            }
        }
        for worker in 0..self.workers.len() as u32 {
            self.kill(worker);
        }
    }

    // ---------------------------------------------------- scheduling

    fn requeue(&mut self, batch: u32) {
        self.ledger.record_requeue();
        let attempts = {
            self.attempts[batch as usize] += 1;
            self.attempts[batch as usize]
        };
        if attempts > MAX_BATCH_RETRIES {
            self.warnings
                .push(format!("batch {batch} exhausted its retry budget; running in-process"));
            self.run_in_process(batch);
            return;
        }
        let exp = attempts.saturating_sub(1).min(16);
        let delay = self
            .options
            .backoff_base
            .checked_mul(1u32 << exp)
            .unwrap_or(self.options.backoff_cap)
            .min(self.options.backoff_cap);
        self.delayed.push((Instant::now() + delay, batch));
    }

    fn dispatch_all(&mut self) {
        while !self.draining && !self.pending.is_empty() {
            let Some(idx) = self.workers.iter().position(|w| w.state == WorkerState::Idle) else {
                return;
            };
            let batch = self.pending.pop_front().expect("checked non-empty");
            let spec = self.batches[batch as usize];
            let frame = encode_frame_msg(&Msg::Batch { batch, seed0: spec.seed0, len: spec.len });
            let w = &mut self.workers[idx];
            let ok = w
                .stdin
                .as_mut()
                .map(|s| s.write_all(&frame).and_then(|()| s.flush()).is_ok())
                .unwrap_or(false);
            if ok {
                w.state = WorkerState::Busy;
                w.batch = Some(batch);
                w.dispatched_at = Instant::now();
                w.last_frame = w.dispatched_at;
            } else {
                self.pending.push_front(batch);
                self.fail_worker(idx as u32, "batch write failed");
            }
        }
    }

    fn check_timeouts(&mut self, now: Instant) {
        for worker in 0..self.workers.len() as u32 {
            let w = &self.workers[worker as usize];
            if w.state != WorkerState::Busy && w.state != WorkerState::Starting {
                continue;
            }
            let stalled = now.duration_since(w.last_frame) > self.options.stall_timeout;
            let overdue = w.state == WorkerState::Busy
                && now.duration_since(w.dispatched_at) > self.options.batch_deadline;
            if stalled || overdue {
                self.fail_worker(
                    worker,
                    if stalled { "heartbeat stall" } else { "batch deadline" },
                );
            }
        }
    }

    // ---------------------------------------------------- events

    fn handle(&mut self, worker: u32, incarnation: u32, event: Event) {
        let idx = worker as usize;
        // A dead incarnation's reader thread may still deliver its EOF
        // (or trailing frames) after a respawn; ignore stale sources.
        if incarnation != self.workers[idx].incarnation
            || matches!(self.workers[idx].state, WorkerState::Dead | WorkerState::Quarantined)
        {
            return;
        }
        self.workers[idx].last_frame = Instant::now();
        match event {
            Event::Frame(Msg::Ready { worker: claimed, proto }) => {
                if claimed != worker || proto != PROTO_VERSION {
                    self.fail_worker(worker, "handshake mismatch");
                    return;
                }
                let plan_frame = self.plan_frame.clone();
                let w = &mut self.workers[idx];
                let ok = w
                    .stdin
                    .as_mut()
                    .map(|s| s.write_all(&plan_frame).and_then(|()| s.flush()).is_ok())
                    .unwrap_or(false);
                if !ok {
                    self.fail_worker(worker, "plan write failed");
                }
            }
            Event::Frame(Msg::PlanAccepted) => {
                self.workers[idx].state = WorkerState::Idle;
                self.dispatch_all();
            }
            Event::Frame(Msg::PlanRejected { error }) => {
                // The plan validated locally; a worker rejecting it is
                // fatal for the sweep, not for the worker.
                self.rejected = Some(CampaignError::InvalidPlan(error));
            }
            Event::Frame(Msg::Progress { .. }) => {} // heartbeat: timestamp updated above
            Event::Frame(Msg::BatchDone { batch, results }) => {
                let w = &mut self.workers[idx];
                if w.batch != Some(batch) {
                    return; // stale completion for a re-queued batch
                }
                let spec = self.batches[batch as usize];
                if results.len() != spec.len as usize
                    || results.iter().zip(0..).any(|(r, i)| r.seed != spec.seed0.wrapping_add(i))
                {
                    self.fail_worker(worker, "batch results malformed");
                    return;
                }
                let wall = w.dispatched_at.elapsed().as_secs_f64();
                w.state = WorkerState::Idle;
                w.batch = None;
                self.ledger.record_batch(idx, u64::from(spec.len), wall);
                self.completed.insert(batch, results);
                self.dispatch_all();
            }
            Event::Frame(Msg::BatchFailed { batch, error }) => {
                let w = &mut self.workers[idx];
                if w.batch != Some(batch) {
                    return;
                }
                // The worker survived — it reported instead of dying —
                // but the batch is lost and the worker is suspect.
                w.state = WorkerState::Idle;
                w.batch = None;
                self.ledger.record_failure(idx);
                self.workers[idx].failures += 1;
                let failures = self.workers[idx].failures;
                self.warnings.push(format!("worker w{worker} batch {batch} failed: {error}"));
                self.requeue(batch);
                if failures >= QUARANTINE_AFTER {
                    self.kill(worker);
                    self.workers[idx].state = WorkerState::Quarantined;
                    self.ledger.quarantine(idx);
                    self.warnings.push(format!("worker w{worker} quarantined"));
                }
            }
            Event::Frame(_) => {} // supervisor-bound protocol only
            Event::Corrupt(e) => self.fail_worker(worker, &format!("corrupt frame: {e}")),
            Event::Undecodable(e) => self.fail_worker(worker, &format!("bad message: {e}")),
            Event::Eof => self.fail_worker(worker, "stream ended"),
        }
    }

    // ---------------------------------------------------- folding

    fn fold_ready(&mut self) {
        while let Some(results) = self.completed.remove(&self.next_fold) {
            for r in results {
                self.aggregate.accept(&r);
                self.runs_folded += 1;
            }
            self.next_fold += 1;
        }
    }

    // ---------------------------------------------------- fallback

    /// Executes one batch in-process (retry budget exhausted).
    fn run_in_process(&mut self, batch: u32) {
        self.fell_back = true;
        let spec = self.batches[batch as usize];
        let plan = self.plan;
        let (geometry, snapshot) = self.fallback_boot.get_or_insert_with(|| plan.boot());
        let results: Vec<RunResult> = (0..u64::from(spec.len))
            .map(|i| execute_warm(plan, geometry, snapshot, spec.seed0.wrapping_add(i)))
            .collect();
        self.ledger.record_fallback(u64::from(spec.len));
        self.completed.insert(batch, results);
    }

    /// Worker pool lost entirely: run every outstanding batch
    /// in-process, in order.
    fn fallback_remaining(&mut self) {
        if !self.fell_back {
            self.warnings.push("all workers lost; falling back to in-process execution".to_owned());
        }
        let outstanding: Vec<u32> =
            self.pending.drain(..).chain(self.delayed.drain(..).map(|(_, b)| b)).collect();
        for batch in outstanding {
            self.run_in_process(batch);
        }
        self.fold_ready();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ree_inject::{ErrorModel, Target};
    use ree_sim::SimTime;

    #[test]
    fn a_worker_answering_another_proto_version_fails_the_handshake() {
        let plan = RunPlan {
            scenario: ree_apps::Scenario::single_texture(1),
            target: Target::App,
            model: ErrorModel::Register,
            timeout: SimTime::from_secs(120),
            net_faults: Vec::new(),
        };
        let options = DistOptions::new(1);
        let mut sup = Supervisor::new(&plan, shard(4, 0, 4), 1, &options);
        // A starting worker with no process behind it; draining keeps
        // the failure from respawning one.
        sup.workers[0].state = WorkerState::Starting;
        sup.draining = true;
        sup.handle(0, 0, Event::Frame(Msg::Ready { worker: 0, proto: PROTO_VERSION - 1 }));
        assert_eq!(sup.workers[0].state, WorkerState::Dead);
        assert_eq!(sup.ledger.shard(0).failures, 1);
        assert_eq!(sup.warnings, ["worker w0 failed (handshake mismatch); failure #1"]);
    }
}
