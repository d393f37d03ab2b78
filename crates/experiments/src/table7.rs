//! Table 7: untargeted heap injections into the SIFT processes (§7.1).
//!
//! "All regions of the target's heap memory were candidates for error
//! injection. Each of the 100 runs per target involved several injections
//! to bring about a crash or hang failure … only about half of the 100
//! runs per target showed any effects."

use crate::effort::Effort;
use crate::fold::{class_counts, recoveries, timings};
use ree_apps::Scenario;
use ree_inject::{Campaign, ErrorModel, RunPlan, RunResult, Target};
use ree_sim::SimTime;
use ree_stats::{Summary, TableBuilder};

/// One row of Table 7.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Injection target.
    pub target: Target,
    /// Runs in which the injections manifested as a failure.
    pub failures: u64,
    /// Runs that recovered.
    pub successful_recoveries: u64,
    /// Total injections performed (the paper reports ~6,700 across all
    /// targets).
    pub injections: u64,
    /// Perceived execution time.
    pub perceived: Summary,
    /// Actual execution time.
    pub actual: Summary,
    /// SIFT recovery time.
    pub recovery: Summary,
    /// System failures.
    pub system_failures: u64,
}

/// Full Table 7 output.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// One row per SIFT target.
    pub rows: Vec<Table7Row>,
}

impl Table7 {
    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec![
            "TARGET",
            "FAILURES",
            "SUC. REC.",
            "INJECTIONS",
            "PERCEIVED (s)",
            "ACTUAL (s)",
            "RECOVERY (s)",
        ])
        .with_title("Table 7: heap injection results (SIFT processes)");
        for row in &self.rows {
            t.row(vec![
                row.target.to_string(),
                row.failures.to_string(),
                row.successful_recoveries.to_string(),
                row.injections.to_string(),
                row.perceived.display_pm(),
                row.actual.display_pm(),
                row.recovery.display_pm(),
            ]);
        }
        t.render()
    }
}

fn summarize(target: Target, results: &[RunResult]) -> Table7Row {
    let classes = class_counts(results);
    let (perceived, actual) = timings(results, 0, |r| r.injections > 0 && r.completed);
    Table7Row {
        target,
        failures: classes.failures,
        successful_recoveries: classes.successful_recoveries,
        injections: results.iter().map(|r| r.injections as u64).sum(),
        perceived,
        actual,
        recovery: recoveries(results, |_| true),
        system_failures: results.iter().filter(|r| r.system_failure.is_some()).count() as u64,
    }
}

/// Runs the Table 7 experiment.
pub fn run(effort: Effort, seed0: u64) -> Table7 {
    let runs = effort.scale(100);
    let mut rows = Vec::new();
    for target in [Target::Ftm, Target::ExecArmor, Target::Heartbeat] {
        let plan = RunPlan {
            scenario: Scenario::single_texture(0),
            target: target.clone(),
            model: ErrorModel::Heap,
            timeout: SimTime::from_secs(400),
            net_faults: vec![],
        };
        let seed = seed0 ^ (target.to_string().len() as u64) << 16;
        let results = Campaign::new(&plan).runs(runs).seed(seed).collect();
        rows.push(summarize(target, &results));
    }
    Table7 { rows }
}
