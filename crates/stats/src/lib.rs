//! # ree-stats — statistics for the injection experiments
//!
//! The paper reports means with "ninety-five percent confidence intervals
//! (t-distribution)" (§4.2) and bounds unobserved failure probabilities
//! with `p < 1 − 0.95^(1/n)` (§5). Both are implemented here from first
//! principles (no lookup tables): the Student-t quantile comes from
//! inverting the regularised incomplete beta function.
//!
//! Adaptive confidence-targeted campaigns additionally need interval
//! math on *proportions* (recovery rate, failure rate): [`Proportion`]
//! carries 95 % Wilson score intervals ([`Proportion::wilson`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod proportion;
mod shard;
mod special;
mod summary;
mod table;

pub use proportion::Proportion;
pub use shard::{ShardLedger, ShardStats};
pub use summary::{no_failure_upper_bound, Summary};
pub use table::TableBuilder;
