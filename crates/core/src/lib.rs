//! # ree-sift — the REE SIFT environment (the paper's contribution)
//!
//! A software-implemented fault tolerance environment built from ARMOR
//! processes (§3): a **Fault Tolerance Manager** interfacing with the
//! Spacecraft Control Computer and recovering subordinate ARMORs, a
//! **Heartbeat ARMOR** watching the FTM, per-node **daemons** acting as
//! communication gateways and local failure detectors, and per-rank
//! **Execution ARMORs** overseeing MPI application processes through
//! `waitpid`, process-table polling, and progress indicators.
//!
//! The crate also provides the [`Scc`] driver (Table 1's one-time
//! installation + job submission), the application-side [`SiftClient`]
//! (progress indicators, attach/exit notifications — with the blocking
//! semantics behind §5.2's correlated failures), and the [`Blueprint`]
//! factory that assembles every ARMOR kind from its elements.
//!
//! The five FTM elements of Table 8 (`mgr_armor_info`, `exec_armor_info`,
//! `app_param`, `mgr_app_detect`, `node_mgmt`) are faithful down to the
//! unchecked default-daemon-ID-zero translation bug the paper documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod blueprint;
mod client;
mod common;
mod config;
mod daemon;
mod exec;
mod ftm;
mod heartbeat;
mod report;
mod scc;
mod util;

pub use blueprint::{AppFactory, AppLaunch, Blueprint};
pub use client::{ClientNote, SiftClient};
pub use config::{
    ids, names, tags, SiftConfig, APP_BLOCK_TIMEOUT, MPI_INIT_TIMEOUT, PI_CHECK_PERIOD,
};
pub use report::{ArmorInstalled, JobTimes};
pub use scc::{JobSpec, Scc};
