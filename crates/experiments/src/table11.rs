//! Tables 11 & 12: the two-application experiments (§8) — Mars Rover
//! texture (two images) and OTIS simultaneously on the six-node testbed.
//!
//! Paper shape: the SIFT environment adds a fixed overhead independent of
//! application load (~1 s perceived/actual gap, ARMOR recovery time
//! unchanged at ~0.5 s); injections into the OTIS application slow OTIS
//! but *improve* the Rover's time (less network contention); error
//! classifications mirror the single-application campaigns.

use crate::effort::Effort;
use crate::fold::{class_counts, fault_free_times, recoveries, timings};
use ree_apps::Scenario;
use ree_inject::{Campaign, ErrorModel, RunPlan, RunResult, Target};
use ree_sim::SimTime;
use ree_stats::{Summary, TableBuilder};

/// One row of Table 11.
#[derive(Debug, Clone)]
pub struct Table11Row {
    /// Row label.
    pub label: String,
    /// Rover perceived / actual execution times.
    pub rover: (Summary, Summary),
    /// OTIS perceived / actual execution times.
    pub otis: (Summary, Summary),
    /// ARMOR recovery time.
    pub recovery: Summary,
}

/// Full Table 11 output.
#[derive(Debug, Clone)]
pub struct Table11 {
    /// Baseline + two injection rows.
    pub rows: Vec<Table11Row>,
}

impl Table11 {
    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec![
            "TARGET",
            "ROVER PERC (s)",
            "ROVER ACT (s)",
            "OTIS PERC (s)",
            "OTIS ACT (s)",
            "RECOVERY (s)",
        ])
        .with_title("Table 11: two applications under error injection (6-node testbed)");
        for row in &self.rows {
            t.row(vec![
                row.label.clone(),
                row.rover.0.display_pm(),
                row.rover.1.display_pm(),
                row.otis.0.display_pm(),
                row.otis.1.display_pm(),
                row.recovery.display_pm(),
            ]);
        }
        t.render()
    }
}

/// One row of Table 12.
#[derive(Debug, Clone)]
pub struct Table12Row {
    /// Row label (target × model group).
    pub label: String,
    /// Induced failures.
    pub failures: u64,
    /// Successful recoveries.
    pub successful_recoveries: u64,
    /// Segmentation faults.
    pub seg_faults: u64,
    /// Illegal instructions.
    pub illegal_instrs: u64,
    /// Hangs.
    pub hangs: u64,
    /// Self-checks (assertions).
    pub self_checks: u64,
}

/// Full Table 12 output.
#[derive(Debug, Clone)]
pub struct Table12 {
    /// Four rows: {SIGINT/SIGSTOP, register/text} × {OTIS app, ARMORs}.
    pub rows: Vec<Table12Row>,
}

impl Table12 {
    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec![
            "INJECTION TARGET",
            "FAILURES",
            "SUC. REC.",
            "SEG FAULT",
            "ILLEGAL",
            "HANG",
            "SELF-CHECK",
        ])
        .with_title("Table 12: error classification, two simultaneous applications");
        for row in &self.rows {
            t.row(vec![
                row.label.clone(),
                row.failures.to_string(),
                row.successful_recoveries.to_string(),
                row.seg_faults.to_string(),
                row.illegal_instrs.to_string(),
                row.hangs.to_string(),
                row.self_checks.to_string(),
            ]);
        }
        t.render()
    }
}

fn collect_row(label: &str, results: &[RunResult]) -> (Table11Row, Table12Row) {
    let t11 = Table11Row {
        label: label.to_owned(),
        rover: timings(results, 0, |r| r.completed),
        otis: timings(results, 1, |r| r.completed),
        recovery: recoveries(results, |_| true),
    };
    let classes = class_counts(results);
    let t12 = Table12Row {
        label: label.to_owned(),
        failures: classes.failures,
        successful_recoveries: classes.successful_recoveries,
        seg_faults: classes.seg_faults,
        illegal_instrs: classes.illegal_instrs,
        hangs: classes.hangs,
        self_checks: classes.assertions,
    };
    (t11, t12)
}

/// Runs the Tables 11/12 experiment.
pub fn run(effort: Effort, seed0: u64) -> (Table11, Table12) {
    let runs = effort.scale(60);
    let timeout = SimTime::from_secs(700);
    let scenario = Scenario::two_apps(0);

    // Baseline: fault-free two-app runs.
    let seeds = (0..effort.scale(20)).map(|i| seed0 ^ 0xBB ^ i as u64);
    let mut fault_free = fault_free_times(&scenario, seeds, timeout).into_iter();
    let baseline = Table11Row {
        label: "Baseline (no injection)".into(),
        rover: fault_free.next().expect("slot 0 is the Rover"),
        otis: fault_free.next().expect("slot 1 is OTIS"),
        recovery: Summary::new(),
    };

    let mut rows11 = vec![baseline];
    let mut rows12 = Vec::new();

    // OTIS-app injections (all four models pooled per the paper's
    // grouping).
    for (label, models, target) in [
        (
            "OTIS app (SIGINT/SIGSTOP)",
            vec![ErrorModel::Sigint, ErrorModel::Sigstop],
            Target::NamedApp("otis".into()),
        ),
        (
            "ARMORs (SIGINT/SIGSTOP)",
            vec![ErrorModel::Sigint, ErrorModel::Sigstop],
            Target::AnyArmor,
        ),
        (
            "OTIS app (register/text)",
            vec![ErrorModel::Register, ErrorModel::TextSegment],
            Target::NamedApp("otis".into()),
        ),
        (
            "ARMORs (register/text)",
            vec![ErrorModel::Register, ErrorModel::TextSegment],
            Target::AnyArmor,
        ),
    ] {
        let mut pooled: Vec<RunResult> = Vec::new();
        for (k, model) in models.into_iter().enumerate() {
            let plan = RunPlan {
                scenario: scenario.clone(),
                target: target.clone(),
                model,
                timeout,
                net_faults: vec![],
            };
            let seed = seed0 ^ ((k as u64 + 3) << 20);
            pooled.extend(Campaign::new(&plan).runs(runs / 2).seed(seed).collect());
        }
        let (t11, t12) = collect_row(label, &pooled);
        rows11.push(t11);
        rows12.push(t12);
    }
    (Table11 { rows: rows11 }, Table12 { rows: rows12 })
}
