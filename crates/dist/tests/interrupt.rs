//! Graceful-shutdown tests (satellite: Ctrl-C mid-sweep). These live in
//! their own integration-test binary because the interrupt flag is
//! process-global — sharing a process with the other distributed tests
//! would interrupt *their* sweeps too.
//!
//! Scenarios run sequentially inside one `#[test]` for the same reason.

use ree_dist::{distribute, signal, DistOptions};
use ree_inject::{Campaign, ErrorModel, RunPlan, Target};
use ree_sim::{SimDuration, SimTime};
use std::time::Duration;

fn plan() -> RunPlan {
    RunPlan {
        scenario: ree_apps::Scenario::single_texture(1),
        target: Target::App,
        model: ErrorModel::Register,
        timeout: SimTime::ZERO + SimDuration::from_secs(120),
        net_faults: Vec::new(),
    }
}

fn options(workers: usize) -> DistOptions {
    let mut o = DistOptions::new(workers);
    o.batch = 4;
    o.stall_timeout = Duration::from_secs(2);
    o.batch_deadline = Duration::from_secs(60);
    o.worker_cmd = Some(vec![env!("CARGO_BIN_EXE_ree-dist-worker").to_string()]);
    o
}

#[test]
fn interrupt_drains_and_reports_a_byte_identical_seed_prefix() {
    let plan = plan();

    // An interrupt that is already pending folds nothing: the
    // supervisor stops before dispatching a single batch.
    signal::clear_interrupt();
    signal::request_interrupt();
    let report = distribute(&plan, 20, 5, &options(2)).expect("sweep starts");
    assert!(report.interrupted);
    assert!(!report.completed());
    assert_eq!(report.runs_folded, 0);
    assert_eq!(report.aggregate, Default::default());
    assert!(report.warnings.iter().any(|w| w.contains("interrupt")), "{:?}", report.warnings);

    // An interrupt mid-sweep drains the in-flight batches and reports a
    // partial aggregate that is byte-identical to a single-process
    // campaign over the folded seed prefix. The sweep asks for far more
    // runs than any host or profile finishes in 400 ms (a release build
    // folds under a thousand): batches are dispatched lazily and the
    // drain stops at the interrupt, so the test costs what the interrupt
    // allows, not what `runs` asks for.
    signal::clear_interrupt();
    let (runs, seed0) = (200_000u32, 9u64);
    let interrupter = std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(400));
        signal::request_interrupt();
    });
    let report = distribute(&plan, runs, seed0, &options(2)).expect("sweep starts");
    interrupter.join().expect("interrupter thread");
    signal::clear_interrupt();
    assert!(report.interrupted, "a sweep of {runs} runs finished inside a 400 ms interrupt");
    assert!(report.runs_folded < u64::from(runs), "nothing was left to interrupt");
    // The folded prefix is whole batches, in seed order.
    assert_eq!(report.runs_folded % 4, 0);
    let prefix = Campaign::new(&plan).runs(report.runs_folded as u32).seed(seed0).aggregate();
    assert_eq!(report.aggregate, prefix, "partial aggregate is not the seed prefix");

    // The flag clears: the next sweep runs to completion and matches
    // the single-process aggregate again.
    let report = distribute(&plan, 8, 1, &options(2)).expect("sweep runs");
    assert!(report.completed() && !report.interrupted);
    assert_eq!(report.aggregate, Campaign::new(&plan).runs(8).seed(1).aggregate());
}
