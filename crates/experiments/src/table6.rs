//! Table 6: register and text-segment injection results (§6).
//!
//! Repeated single-bit flips until a failure is induced, ~90–100 induced
//! failures per target. Paper shape: segmentation faults dominate,
//! text-segment flips produce relatively more illegal instructions than
//! register flips, ARMOR targets occasionally fire assertions, and a
//! handful of runs become system failures (11 of ~700 failures —
//! text-segment errors caused more of them than register errors because
//! register values are short-lived).

use crate::effort::Effort;
use crate::fold::{class_counts, recoveries, timings};
use ree_apps::Scenario;
use ree_inject::{Campaign, ErrorModel, RunPlan, RunResult, Target};
use ree_sim::SimTime;
use ree_stats::{Summary, TableBuilder};

/// One row of Table 6.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Error model (register or text segment).
    pub model: ErrorModel,
    /// Injection target.
    pub target: Target,
    /// Runs in which a failure was induced.
    pub failures: u64,
    /// Runs that recovered.
    pub successful_recoveries: u64,
    /// Segmentation-fault count.
    pub seg_faults: u64,
    /// Illegal-instruction count.
    pub illegal_instrs: u64,
    /// Hang count.
    pub hangs: u64,
    /// Assertion count.
    pub assertions: u64,
    /// Perceived execution time.
    pub perceived: Summary,
    /// Actual execution time.
    pub actual: Summary,
    /// SIFT recovery time.
    pub recovery: Summary,
    /// System failures.
    pub system_failures: u64,
}

/// Full Table 6 output.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Eight rows: {register, text} × four targets.
    pub rows: Vec<Table6Row>,
}

impl Table6 {
    /// Total system failures across rows (paper: 11).
    pub fn total_system_failures(&self) -> u64 {
        self.rows.iter().map(|r| r.system_failures).sum()
    }

    /// System failures caused by text-segment injections.
    pub fn text_system_failures(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.model == ErrorModel::TextSegment)
            .map(|r| r.system_failures)
            .sum()
    }

    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec![
            "TARGET",
            "FAILURES",
            "SUC. REC.",
            "SEG FAULT",
            "ILLEGAL",
            "HANG",
            "ASSERT",
            "PERCEIVED (s)",
            "ACTUAL (s)",
            "RECOVERY (s)",
        ])
        .with_title("Table 6: register and text-segment injection results");
        for row in &self.rows {
            t.row(vec![
                format!("{} / {}", row.model, row.target),
                row.failures.to_string(),
                row.successful_recoveries.to_string(),
                row.seg_faults.to_string(),
                row.illegal_instrs.to_string(),
                row.hangs.to_string(),
                row.assertions.to_string(),
                row.perceived.display_pm(),
                row.actual.display_pm(),
                row.recovery.display_pm(),
            ]);
        }
        format!(
            "{}\nsystem failures: {} total, {} from text-segment errors (paper: 11 total, more from text than register)\n",
            t.render(),
            self.total_system_failures(),
            self.text_system_failures()
        )
    }
}

fn summarize(model: ErrorModel, target: Target, results: &[RunResult]) -> Table6Row {
    let classes = class_counts(results);
    let (perceived, actual) = timings(results, 0, |r| r.injections > 0 && r.completed);
    Table6Row {
        model,
        target,
        failures: classes.failures,
        successful_recoveries: classes.successful_recoveries,
        seg_faults: classes.seg_faults,
        illegal_instrs: classes.illegal_instrs,
        hangs: classes.hangs,
        assertions: classes.assertions,
        perceived,
        actual,
        recovery: recoveries(results, |_| true),
        system_failures: results.iter().filter(|r| r.system_failure.is_some()).count() as u64,
    }
}

/// Runs the Table 6 experiment.
pub fn run(effort: Effort, seed0: u64) -> Table6 {
    // The paper aimed for 90–100 *activated* failures per target; with
    // our activation rate ~100–140 runs per target achieve that.
    let runs = effort.scale(130);
    let mut rows = Vec::new();
    for model in [ErrorModel::Register, ErrorModel::TextSegment] {
        for target in [Target::App, Target::Ftm, Target::ExecArmor, Target::Heartbeat] {
            let plan = RunPlan {
                scenario: Scenario::single_texture(0),
                target: target.clone(),
                model: model.clone(),
                timeout: SimTime::from_secs(400),
                net_faults: vec![],
            };
            let seed = seed0 ^ seed_of(&model, &target);
            let results = Campaign::new(&plan).runs(runs).seed(seed).collect();
            rows.push(summarize(model.clone(), target, &results));
        }
    }
    Table6 { rows }
}

fn seed_of(model: &ErrorModel, target: &Target) -> u64 {
    let mut h: u64 = 0x7ab1e6;
    for b in format!("{model}{target}").bytes() {
        h = h.wrapping_mul(31) ^ b as u64;
    }
    h
}
