//! A heap flip in a SIFT process may not make one handler allocate
//! without bound, nor take the host down with the simulation.
//!
//! `Scenario::single_texture(0)`, `ErrorModel::Heap`, three runs:
//! - `Target::Ftm`, run seed 196643: a flip turns `app_param`'s `ranks`
//!   into 16 777 218 and the FTM's restart handler used to send one stop
//!   message per "rank" inside a single event — gigabytes of pending
//!   retransmission state before any assertion could fire. Walking off
//!   the Execution-ARMOR table is the paper's §7.2 corrupted-pointer
//!   segfault.
//! - `Target::Ftm`, run seed 203593: a corrupted launch record names a
//!   node the cluster does not have; rank 0 used to spawn a peer there
//!   and panic the host.
//! - `Target::ExecArmor`, run seed 985131: the launch record says rank
//!   32 of 2, and building the rank's MPI endpoint used to panic the host.
//!
//! Each run must end in a verdict, in about the memory any other run
//! takes.

use ree_apps::Scenario;
use ree_inject::{execute, ErrorModel, RunPlan, Target};
use ree_sim::SimTime;

/// Peak resident set of this process in KiB, where `/proc` offers it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn corrupted_rank_count_ends_in_a_verdict_not_a_runaway() {
    let plan = |target| RunPlan {
        scenario: Scenario::single_texture(0),
        target,
        model: ErrorModel::Heap,
        timeout: SimTime::from_secs(400),
        net_faults: vec![],
    };
    // A neighbouring seed first, so the process-wide caches (FFT plans,
    // verification reference) are resident before the measured runs.
    let _ = execute(&plan(Target::Ftm), 196_642);
    for (target, seed) in
        [(Target::Ftm, 196_643), (Target::Ftm, 203_593), (Target::ExecArmor, 985_131)]
    {
        let before = peak_rss_kib();
        let result = execute(&plan(target.clone()), seed);
        assert!(result.injections > 0, "{target:?} seed {seed} injects: {result:?}");
        assert!(result.induced.is_some(), "{target:?} seed {seed} induces a failure: {result:?}");
        if let (Some(before), Some(after)) = (before, peak_rss_kib()) {
            // The kernel does not promise that two VmHWM reads never
            // decrease (a later read has been seen below an earlier one),
            // so a shrink counts as no growth.
            let grew_kib = after.saturating_sub(before);
            assert!(grew_kib < 8 * 1024, "seed {seed} grew the peak set by {grew_kib} KiB");
        }
    }
}
