//! The repository's benchmark as a library: estimators, workloads, the
//! child-pass protocol, per-layer probes, span recording, reporting and
//! comparison. The `bench` binary (`main.rs`) is the command line and
//! the parent process that schedules child passes. See `README.md`.

pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod pass;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
