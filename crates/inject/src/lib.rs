//! # ree-inject — NFTAPE-style fault-injection campaigns
//!
//! "The experiments used NFTAPE, a software framework for conducting
//! injection experiments. NFTAPE separates the control, monitoring, and
//! data collection aspects of injection experiments from the code that
//! actually injects faults/errors" (§4). The same split here: the
//! [`RunPlan`]/[`execute`] controller and the [`Campaign`] batcher are
//! independent of the per-model injectors, which live behind the
//! `ree-os` injection surface (signals, register/text bit flips, heap
//! bit flips).
//!
//! # Campaign execution and throughput
//!
//! A campaign is thousands of seeded runs of one plan; runs/second is
//! the capacity ceiling for every reproduced table (the measurement
//! and optimisation history live in `docs/PERFORMANCE.md`). The single
//! entry point is the [`Campaign`] builder — `runs`/`seed`/`threads`
//! configuration with `collect`/`fold`/`aggregate`/`adaptive`
//! terminals; the other schedulers are one function each over the same
//! plan (`ree_dist::distribute`, `ree_mc::model_check`). Campaigns
//! execute on the process-wide worker pool ([`run_ordered`]: workers
//! start on first use and take tasks from one shared queue, which the
//! calling thread feeds) and fold results **in seed order**, so output
//! is bit-identical for any thread count.
//!
//! Campaign runs start **warm**: every scheduler calls
//! [`RunPlan::boot`] once per plan — it warms the shared input cache
//! (`ree_apps::Scenario::warm_inputs`, so the synthetic instrument data
//! is generated once per process, not once per run), derives the
//! geometry and boots the SIFT cluster — and every run forks that
//! snapshot — a deep clone with per-run re-seeded random streams
//! ([`execute_warm`]) — instead of replaying the installation
//! protocol. The cold path ([`execute`]/[`execute_full`]) boots a
//! private snapshot to the same instant and re-seeds identically, so
//! warm and cold runs are byte-identical per seed (proved by
//! `tests/warm_boot.rs`); the campaign-invariant run geometry
//! ([`RunGeometry`]) is likewise derived once per campaign.
//!
//! ```
//! use ree_inject::{Campaign, ErrorModel, RunPlan, Target};
//! use ree_sim::SimTime;
//!
//! let plan = RunPlan {
//!     scenario: ree_apps::Scenario::single_texture(1),
//!     target: Target::App,
//!     model: ErrorModel::Sigint,
//!     timeout: SimTime::from_secs(220),
//!     net_faults: vec![],
//! };
//! let results = Campaign::new(&plan).runs(2).seed(7).collect();
//! assert_eq!(results.len(), 2);
//! // SIGINT injects at most once per run (and not at all if the run
//! // completes before the sampled injection instant).
//! let agg = ree_inject::Aggregate::from_results(&results);
//! assert!(agg.errors_injected <= 2);
//! ```
//!
//! # Adaptive confidence-targeted campaigns
//!
//! Fixed-size sweeps spend 512 runs per cell whether or not the cell's
//! estimate needs them. The [`adaptive`] module instead drives many
//! [`adaptive::Arm`]s in batches, stops each arm once the 95 % Wilson
//! interval on its recovery rate is inside a
//! [`StoppingRule`] target, one batch per live arm per round — same
//! determinism contract (per-arm results are a pure function of
//! `(plan, seed0, rule)`). See `docs/ADAPTIVE.md`.
//!
//! # Network fault plans
//!
//! Beyond process-level error models, a plan can split the interconnect
//! under the recovery protocol: each [`NetFault`] partitions node groups
//! from the run's first failure detection for a fixed duration
//! (partition-during-recovery). See [`netfault`] and `docs/NETWORK.md`.
//!
//! # Bounded model checking
//!
//! Where a campaign *samples* injection instants and targets, the
//! `ree-mc` crate *enumerates* them ([`activation_instants`],
//! [`candidate_targets`]) and systematically explores bounded
//! perturbations of same-instant event delivery around each, reusing
//! this crate's placement ([`ErrorModel::place`]) and classification
//! pipeline (`classify_target_state`,
//! `classify_system_failure`, [`conclude_run`]) so an explored branch
//! is judged exactly like a campaign run. See `docs/MODELCHECK.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod adaptive;
mod branch;
mod builder;
mod campaign;
mod error;
mod model;
pub mod netfault;
mod pool;
mod runner;

pub use adaptive::{Arm, ArmReport, StoppingRule};
pub use branch::{activation_instants, candidate_targets};
pub use builder::Campaign;
pub use campaign::Aggregate;
pub use error::CampaignError;
pub use model::{ErrorModel, FailureClass, Placement, SystemFailure, Target};
pub use netfault::NetFault;
pub use pool::{effective_threads, run_ordered, Feed};
pub use runner::{
    conclude_run, execute, execute_full, execute_warm, execute_warm_checked, execute_warm_full,
    verify_outputs, RunGeometry, RunPlan, RunResult,
};
