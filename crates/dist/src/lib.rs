//! Fault-tolerant distributed campaign sweeps.
//!
//! `ree-dist` runs the workspace's fault-injection campaigns across a
//! **supervised pool of worker subprocesses** — and treats the harness
//! itself as a system under test. The supervisor shards a campaign's
//! seed range into batches, ships them to workers over a length-prefixed
//! CRC-checked frame protocol (stdin/stdout pipes; no sockets, no new
//! dependencies), and folds the returned [`ree_inject::RunResult`]s in
//! seed order through the exact accumulator a single-process
//! `Campaign::aggregate` uses. The distributed aggregate is therefore
//! **byte-identical** to the single-process one for any worker count and
//! any failure pattern — fault tolerance never silently changes the
//! science.
//!
//! Supervision (see `supervisor.rs`): per-run `Progress` heartbeats and a
//! stall timeout catch hangs, per-batch deadlines catch slow losses,
//! lost batches re-queue with capped exponential backoff, twice-failed
//! workers are quarantined, and losing the whole pool degrades to
//! in-process execution with a warning. SIGINT/SIGTERM drains in-flight
//! batches and reports the partial seed-prefix aggregate.
//!
//! Chaos (see `chaos.rs`): the harness can arm one worker with a seeded
//! self-fault — `raise(SIGKILL)`, `raise(SIGSTOP)`, frame corruption,
//! frame truncation, or a poisoned run — and prove the sweep still
//! converges to the identical aggregate. `docs/DISTRIBUTED.md` walks
//! through the protocol and the recovery state machine.
//!
//! # Usage
//!
//! Host binaries call [`run_worker_if_spawned`] first thing in `main`
//! (a worker spawn is detected from the environment), then call
//! [`distribute`] — the distributed analogue of
//! `Campaign::new(&plan).runs(200).seed(1).aggregate()`:
//!
//! ```no_run
//! use ree_dist::{distribute, DistOptions};
//! use ree_inject::{ErrorModel, RunPlan, Target};
//! use ree_sim::SimTime;
//!
//! ree_dist::run_worker_if_spawned(); // becomes a worker if spawned as one
//! let plan = RunPlan {
//!     scenario: ree_apps::Scenario::single_texture(1),
//!     target: Target::App,
//!     model: ErrorModel::Register,
//!     timeout: SimTime::ZERO + ree_sim::SimDuration::from_secs(120),
//!     net_faults: Vec::new(),
//! };
//! let report = distribute(&plan, 200, 1, &DistOptions::new(4)).expect("plan validates");
//! println!("{:?}", report.aggregate);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod chaos;
mod crc;
pub mod frame;
pub mod signal;
mod supervisor;
mod wire;
pub mod worker;

pub use chaos::{ChaosMode, ChaosPlan};
pub use crc::crc32;
pub use frame::{encode_frame, Decoder, FrameError};
pub use supervisor::{distribute, DistError, DistOptions, DistReport};
pub use wire::{decode_msg, encode_frame_msg, encode_msg, Msg, WireError, PROTO_VERSION};

/// If this process was spawned as a distributed worker (detected from
/// the [`worker::ENV_WORKER_ID`] environment variable), runs the worker
/// protocol loop and never returns. Otherwise does nothing.
///
/// Host binaries that use the default self-re-exec spawn mode must call
/// this at the top of `main`, before argument parsing.
pub fn run_worker_if_spawned() {
    if let Some(config) = worker::WorkerConfig::from_env() {
        worker::worker_main(config);
    }
}
