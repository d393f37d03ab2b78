//! Typed campaign errors.
//!
//! The campaign execution path historically treated every malformed
//! input or poisoned run as a programming error and panicked. In-process
//! that is survivable — the process was going down anyway — but a
//! distributed supervisor (`ree-dist`) must be able to *report* a bad
//! batch over the wire instead of aborting the worker, so the
//! supervisor-visible failure modes are typed here and surfaced as
//! `Result`s by [`crate::RunPlan::validate`] and
//! [`crate::execute_warm_checked`].

use std::fmt;

/// A supervisor-visible campaign failure: the plan was malformed, or a
/// run panicked mid-execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// The [`crate::RunPlan`] fails validation (out-of-range job nodes,
    /// rank/node mismatch, bad timeout, net-fault endpoints outside the
    /// cluster, …). The message says which check failed.
    InvalidPlan(String),
    /// A run panicked inside the simulator. The campaign machinery is
    /// deterministic, so the same seed panics everywhere — the message
    /// carries the seed for reproduction.
    RunPanicked {
        /// The seed whose run panicked.
        seed: u64,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidPlan(why) => write!(f, "invalid run plan: {why}"),
            CampaignError::RunPanicked { seed, message } => {
                write!(f, "run for seed {seed} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Extracts a human-readable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
