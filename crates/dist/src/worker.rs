//! The worker side of the protocol: a subprocess that executes batches
//! of seeded runs and streams framed results back over stdout.
//!
//! A worker is deliberately stateless beyond its booted snapshot: it
//! reads `Hello`/`Plan`/`Batch`/`Shutdown` frames from stdin, validates
//! the plan at the trust boundary ([`ree_inject::RunPlan::validate`]),
//! boots it once ([`ree_inject::RunPlan::boot`]), and executes each batch with
//! [`execute_warm_checked`] so a poisoned run becomes a `BatchFailed`
//! error frame instead of a dead process. Every completed run emits a
//! `Progress` frame — the heartbeat the supervisor's stall detector
//! watches. Chaos (`chaos.rs`) hooks the run loop and the
//! outgoing frame path.

use crate::chaos::{ChaosPlan, ChaosState};
use crate::frame::{encode_frame, Decoder};
use crate::wire::{decode_msg, encode_msg, Msg, PROTO_VERSION};
use ree_inject::{execute_warm_checked, CampaignError};
use std::io::{Read, Write};

/// Environment variable carrying the worker id; its presence is what
/// turns a spawned process into a worker (see
/// [`crate::run_worker_if_spawned`]).
pub const ENV_WORKER_ID: &str = "REE_DIST_WORKER_ID";
/// Environment variable carrying the incarnation number (0 = first
/// spawn; bumped on every respawn).
pub const ENV_INCARNATION: &str = "REE_DIST_INCARNATION";
/// Environment variable carrying the [`ChaosPlan`] spelling, if any.
pub(crate) const ENV_CHAOS: &str = "REE_DIST_CHAOS";

/// A worker's identity, as read from its environment.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WorkerConfig {
    /// Worker id (stable across respawns).
    pub worker: u32,
    /// Incarnation number.
    pub incarnation: u32,
    /// Armed chaos, if any.
    pub chaos: Option<ChaosPlan>,
}

impl WorkerConfig {
    /// Reads the spawn environment; `None` if this process was not
    /// spawned as a worker.
    pub(crate) fn from_env() -> Option<WorkerConfig> {
        let worker = std::env::var(ENV_WORKER_ID).ok()?.parse().ok()?;
        let incarnation =
            std::env::var(ENV_INCARNATION).ok().and_then(|s| s.parse().ok()).unwrap_or(0);
        let chaos = std::env::var(ENV_CHAOS).ok().and_then(|s| ChaosPlan::from_env(&s));
        Some(WorkerConfig { worker, incarnation, chaos })
    }
}

/// Runs the worker protocol loop over stdin/stdout until `Shutdown`,
/// EOF, or a broken pipe; never returns.
pub(crate) fn worker_main(config: WorkerConfig) -> ! {
    // Run panics are caught ([`execute_warm_checked`]) and reported as
    // error frames; keep the default hook from spamming the
    // supervisor's stderr with backtraces for *expected* chaos panics.
    std::panic::set_hook(Box::new(|_| {}));
    let mut chaos = ChaosState::new(config.chaos, config.worker, config.incarnation);
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    let mut decoder = Decoder::new();
    let mut booted = None;
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let payload = loop {
            match decoder.next_frame() {
                Ok(Some(payload)) => break payload,
                // A corrupted supervisor→worker frame: resynchronise
                // and keep reading — the supervisor's stall detector
                // owns the recovery decision.
                Err(_) => continue,
                Ok(None) => {
                    let n = stdin.read(&mut chunk).unwrap_or(0);
                    if n == 0 {
                        std::process::exit(0); // supervisor went away
                    }
                    decoder.feed(&chunk[..n]);
                }
            }
        };
        let Ok(msg) = decode_msg(&payload) else {
            continue; // undecodable message; skip the frame
        };
        match msg {
            Msg::Hello { proto: _ } => {
                send(&mut stdout, &Msg::Ready { worker: config.worker, proto: PROTO_VERSION });
            }
            Msg::Plan { plan } => match plan.validate() {
                Err(e) => send(&mut stdout, &Msg::PlanRejected { error: e.to_string() }),
                Ok(()) => {
                    let boot = plan.boot();
                    booted = Some((plan, boot));
                    send(&mut stdout, &Msg::PlanAccepted);
                }
            },
            Msg::Batch { batch, seed0, len } => {
                let Some((plan, (geometry, snapshot))) = &booted else {
                    send(
                        &mut stdout,
                        &Msg::BatchFailed { batch, error: "batch before plan".to_owned() },
                    );
                    continue;
                };
                let mut results = Vec::with_capacity(len as usize);
                let mut failed = None;
                for i in 0..u64::from(len) {
                    let seed = seed0.wrapping_add(i);
                    let outcome = if chaos.before_run() {
                        // Poison: a genuine panic through the same
                        // catch boundary a simulator bug would hit.
                        std::panic::catch_unwind(|| -> ree_inject::RunResult {
                            panic!("chaos: poisoned run")
                        })
                        .map_err(|_| CampaignError::RunPanicked {
                            seed,
                            message: "chaos: poisoned run".to_owned(),
                        })
                    } else {
                        execute_warm_checked(plan, geometry, snapshot, seed)
                    };
                    match outcome {
                        Ok(r) => {
                            results.push(r);
                            chaos.after_run();
                            send(&mut stdout, &Msg::Progress { batch, done: i as u32 + 1 });
                        }
                        Err(e) => {
                            failed = Some(e.to_string());
                            break;
                        }
                    }
                }
                if let Some(error) = failed {
                    send(&mut stdout, &Msg::BatchFailed { batch, error });
                    continue;
                }
                let mut frame = encode_frame(&encode_msg(&Msg::BatchDone { batch, results }));
                let exit_after = chaos.mangle_frame(&mut frame);
                write_all(&mut stdout, &frame);
                if exit_after {
                    std::process::exit(0);
                }
            }
            Msg::Shutdown => std::process::exit(0),
            // Worker-originated messages arriving at a worker: ignore.
            _ => {}
        }
    }
}

fn send(out: &mut impl Write, msg: &Msg) {
    write_all(out, &encode_frame(&encode_msg(msg)));
}

fn write_all(out: &mut impl Write, bytes: &[u8]) {
    if out.write_all(bytes).and_then(|()| out.flush()).is_err() {
        // Supervisor closed our stdout: nothing useful left to do.
        std::process::exit(0);
    }
}
