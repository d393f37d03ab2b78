//! A heap flip may not make one handler allocate without bound.
//!
//! `Scenario::single_texture(0)`, `Target::Ftm`, `ErrorModel::Heap`, run
//! seed 196643 (one of `repro --seed 5 table7`'s runs): a flip turns
//! `app_param`'s `ranks` into 16 777 218 and the FTM's restart handler
//! used to send one stop message per "rank" inside a single event —
//! gigabytes of pending retransmission state before any assertion could
//! fire. Walking off the Execution-ARMOR table is the paper's §7.2
//! corrupted-pointer segfault, so the run must end in a verdict, in
//! about the memory any other run takes.

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
    let plan = RunPlan {
        scenario: Scenario::single_texture(0),
        target: Target::Ftm,
        model: ErrorModel::Heap,
        timeout: SimTime::from_secs(400),
        net_faults: vec![],
    };
    // A neighbouring seed first, so the process-wide caches (FFT plans,
    // verification reference) are resident before the measured run.
    let _ = execute(&plan, 196_642);
    let before = peak_rss_kib();
    let result = execute(&plan, 196_643);
    assert!(result.injections > 0, "the run injects: {result:?}");
    assert!(result.induced.is_some(), "the corrupted walk must crash the FTM: {result:?}");
    if let (Some(before), Some(after)) = (before, peak_rss_kib()) {
        let grew_kib = after - before;
        assert!(grew_kib < 8 * 1024, "one run grew the peak resident set by {grew_kib} KiB");
    }
}
