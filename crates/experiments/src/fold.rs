//! The folds the tables share: run results into timing summaries and
//! failure-class counts, and the fault-free baseline loop. Each table
//! keeps its own predicate, seeds and row shape.

use ree_apps::Scenario;
use ree_inject::{FailureClass, RunResult};
use ree_sim::SimTime;
use ree_stats::Summary;

/// Perceived and actual execution time of job `slot` over the runs
/// `pred` admits.
pub(crate) fn timings(
    results: &[RunResult],
    slot: usize,
    pred: impl Fn(&RunResult) -> bool,
) -> (Summary, Summary) {
    let (mut perceived, mut actual) = (Summary::new(), Summary::new());
    for r in results.iter().filter(|r| pred(r)) {
        if let Some(Some(p)) = r.perceived_all.get(slot) {
            perceived.push(*p);
        }
        if let Some(Some(a)) = r.actual_all.get(slot) {
            actual.push(*a);
        }
    }
    (perceived, actual)
}

/// Every SIFT recovery time observed in the runs `pred` admits.
pub(crate) fn recoveries(results: &[RunResult], pred: impl Fn(&RunResult) -> bool) -> Summary {
    let mut recovery = Summary::new();
    for rec in results.iter().filter(|r| pred(r)).flat_map(|r| &r.recovery_times) {
        recovery.push(*rec);
    }
    recovery
}

/// Induced failures by Table 6 class.
#[derive(Default)]
pub(crate) struct ClassCounts {
    pub failures: u64,
    pub successful_recoveries: u64,
    pub seg_faults: u64,
    pub illegal_instrs: u64,
    pub hangs: u64,
    pub assertions: u64,
}

/// Counts the runs in which a failure was induced, by class, and how
/// many of them recovered.
pub(crate) fn class_counts(results: &[RunResult]) -> ClassCounts {
    let mut c = ClassCounts::default();
    for r in results {
        let Some(class) = r.induced else { continue };
        c.failures += 1;
        if r.recovered() {
            c.successful_recoveries += 1;
        }
        match class {
            FailureClass::SegFault => c.seg_faults += 1,
            FailureClass::IllegalInstruction => c.illegal_instrs += 1,
            FailureClass::Hang => c.hangs += 1,
            FailureClass::Assertion => c.assertions += 1,
            _ => {}
        }
    }
    c
}

/// Runs `scenario` fault-free once per seed and returns each job slot's
/// (perceived, actual) execution time over the runs that completed
/// within `horizon`.
pub(crate) fn fault_free_times(
    scenario: &Scenario,
    seeds: impl IntoIterator<Item = u64>,
    horizon: SimTime,
) -> Vec<(Summary, Summary)> {
    let mut slots = vec![(Summary::new(), Summary::new()); scenario.jobs.len()];
    for seed in seeds {
        let mut run = Scenario { seed, ..scenario.clone() }.start();
        if !run.run_until_done(horizon) {
            continue;
        }
        for (slot, (perceived, actual)) in slots.iter_mut().enumerate() {
            let times = run.job_times(slot as u64);
            if let Some((p, a)) = times.and_then(|t| t.perceived().zip(t.actual())) {
                perceived.push(p.as_secs_f64());
                actual.push(a.as_secs_f64());
            }
        }
    }
    slots
}
