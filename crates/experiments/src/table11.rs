//! Tables 11 & 12: the two-application experiments (§8) — Mars Rover
//! texture (two images) and OTIS simultaneously on the six-node testbed.
//!
//! Paper shape: the SIFT environment adds a fixed overhead independent of
//! application load (~1 s perceived/actual gap, ARMOR recovery time
//! unchanged at ~0.5 s); injections into the OTIS application slow OTIS
//! but *improve* the Rover's time (less network contention); error
//! classifications mirror the single-application campaigns.

use crate::cells::{cell, fault_free_times, run_cells, seeds, Row};
use crate::effort::Effort;
use ree_apps::Scenario;
use ree_inject::{Arm, ErrorModel, RunPlan, Target};
use ree_sim::SimTime;
use ree_stats::{Summary, TableBuilder};

const TIMEOUT: SimTime = SimTime::from_secs(700);

/// Table 11: execution and recovery times, fault-free and per
/// injection group.
#[derive(Debug, Clone)]
pub struct Table11 {
    /// Fault-free (perceived, actual) times: Rover, then OTIS.
    pub baseline: Vec<(Summary, Summary)>,
    /// The four injection rows, each pooling the two cells of its label.
    pub rows: Vec<Row>,
}

impl Table11 {
    /// Renders the paper-shaped table: times over completed runs,
    /// recovery times over every run.
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
        let mut push = |label: &str, times: &[(Summary, Summary)], recovery: Summary| {
            let mut line = vec![label.to_owned()];
            line.extend(times.iter().flat_map(|(p, a)| [p.display_pm(), a.display_pm()]));
            line.push(recovery.display_pm());
            t.row(line);
        };
        push("Baseline (no injection)", &self.baseline, Summary::new());
        for row in &self.rows {
            let times = [0, 1].map(|slot| row.timings(slot, |r| r.completed));
            push(&row.label, &times, row.recoveries(|_| true));
        }
        t.render()
    }
}

/// Table 12: the error classification of Table 11's injection rows.
#[derive(Debug, Clone)]
pub struct Table12 {
    /// Table 11's four injection rows.
    pub rows: Vec<Row>,
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
            let mut line = vec![row.label.clone()];
            line.extend(row.failure_columns());
            line.extend(row.class_columns());
            t.row(line);
        }
        t.render()
    }
}

/// Eight cells under four labels: the paper groups the models in
/// pairs, so each row pools the two cells that share its label, and a
/// cell's key names its model too.
pub(crate) fn cells(root: u64) -> Vec<Arm> {
    let signals = [ErrorModel::Sigint, ErrorModel::Sigstop];
    let flips = [ErrorModel::Register, ErrorModel::TextSegment];
    let mut cells = Vec::new();
    for (label, models, target) in [
        ("OTIS app (SIGINT/SIGSTOP)", &signals, Target::NamedApp("otis".into())),
        ("ARMORs (SIGINT/SIGSTOP)", &signals, Target::AnyArmor),
        ("OTIS app (register/text)", &flips, Target::NamedApp("otis".into())),
        ("ARMORs (register/text)", &flips, Target::AnyArmor),
    ] {
        for model in models {
            let plan = RunPlan {
                scenario: Scenario::two_apps(0),
                target: target.clone(),
                model: model.clone(),
                timeout: TIMEOUT,
                net_faults: vec![],
            };
            cells.push(cell(root, &format!("table11/{model}"), label, plan));
        }
    }
    cells
}

/// Runs the Tables 11/12 experiment.
pub fn run(effort: Effort, root: u64) -> (Table11, Table12) {
    let baseline =
        fault_free_times(&Scenario::two_apps(0), seeds(root, "table11", effort.scale(20)), TIMEOUT);
    let mut rows: Vec<Row> = Vec::new();
    for row in run_cells(&cells(root), effort.scale(60) / 2) {
        match rows.last_mut() {
            Some(last) if last.label == row.label => last.results.extend(row.results),
            _ => rows.push(row),
        }
    }
    (Table11 { baseline, rows: rows.clone() }, Table12 { rows })
}
