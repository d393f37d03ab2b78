//! # ree-san — stochastic activity networks and the Figure 9 model
//!
//! "The likelihood of correlated failures depends upon the failure rate
//! of the SIFT process and several performance parameters … These factors
//! can be incorporated into the stochastic activity network (SAN) shown
//! in Figure 9, which models one application's behavior when attempting
//! to interface with the local SIFT process" (§5.2).
//!
//! `San` is a general Monte-Carlo SAN solver; `ree_model` instantiates
//! the paper's model and sweeps the SIFT failure rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ree_model;
mod san;

pub use ree_model::{solve, ReeModelParams, ReeModelSolution};
