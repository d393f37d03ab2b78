//! # ree-mc — bounded model checking of fault interleavings
//!
//! A seeded campaign run *samples* one execution per seed: one
//! injection instant, one target, one (default) delivery order for
//! simultaneous events. This crate instead *enumerates* a bounded
//! execution tree and covers it exhaustively:
//!
//! - **Fault placement** — a deterministic grid of activation instants
//!   over the plan's injection window × every matching target process
//!   ([`ree_inject::activation_instants`],
//!   [`ree_inject::candidate_targets`]).
//! - **Delivery order** — at every instant where 2+ events are ready
//!   simultaneously, each admissible order is a distinct branch, named
//!   by its position in the ready set ([`ree_os::Cluster::ready_count`] /
//!   [`ree_os::Cluster::step_ready`]); the simulator's default
//!   `(time, seq)` order is just position 0.
//!
//! Each branch **forks** the snapshot (the same copy-on-write warm-boot
//! clone campaigns use per seed) and continues independently. Branches
//! whose canonical post-step state digest was already expanded are
//! **pruned** — identical state, identical future. Terminal executions
//! are classified by the campaign pipeline ([`ree_inject::conclude_run`])
//! so an explored branch is judged exactly like a campaign run; any
//! branch the SIFT environment fails to recover is reported as a
//! replayable [`Counterexample`].
//!
//! The roots run in parallel on [`ree_inject::run_ordered`], the
//! process-wide pool the campaigns use, each on an explorer of its own,
//! and each is pushed onto it as soon as it is built. A root's walk is kept
//! only where the in-order walk would have produced the same one: it ran
//! to its end, met none of the earlier roots' state digests, and no check
//! of the branch budget came out differently. Any other root is walked
//! again, in order.
//!
//! Everything is a pure function of `(plan, seed, bounds)`, for any
//! worker count — two invocations produce byte-identical reports, which
//! CI checks on every CPU and on one. Semantics, soundness caveats, the
//! parallel walk and the counterexample format are documented in
//! `docs/MODELCHECK.md`.
//!
//! ```
//! use ree_mc::{model_check, McBounds};
//!
//! let plan = ree_mc::presets::two_node_sigint_plan(7);
//! let bounds = McBounds { instants: 1, max_targets: 1, ..McBounds::smoke() };
//! let report = model_check(&plan, 7, &bounds);
//! assert!(report.explored >= 1);
//! assert!(report.escapes.is_empty(), "healthy build recovers every branch");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod driver;
pub mod hash;
pub mod presets;

pub use driver::{model_check, replay, Counterexample, McBounds, McReport};
