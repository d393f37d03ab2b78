//! Table 10: 1,000 single heap flips into the application (§7.3).
//!
//! Paper: 981 no effect ("data on the heap were mostly floating point
//! matrices, and single-bit flips … often did not substantially change
//! the value"), 10 incorrect output, 9 crashes, 0 hangs.

use crate::cells::{cell, plan, run_cells, Row};
use crate::effort::Effort;
use ree_apps::Verdict;
use ree_inject::{Arm, ErrorModel, FailureClass, RunResult, Target};
use ree_os::HeapTarget;
use ree_stats::TableBuilder;

/// What one flipped run did to the application.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    NoEffect,
    IncorrectOutput,
    Crash,
    Hang,
}

/// The outcome of `r`, checked in the order hang, crash (recovered by
/// the SIFT environment), incorrect output, no effect; `None` for a run
/// with no flip or one that did not complete.
fn outcome(r: &RunResult) -> Option<Outcome> {
    if r.injections == 0 {
        None
    } else if r.induced == Some(FailureClass::Hang) {
        Some(Outcome::Hang)
    } else if r.induced == Some(FailureClass::SegFault) || r.restarts > 0 {
        Some(Outcome::Crash)
    } else if !r.completed {
        None
    } else if r.output == Verdict::Incorrect {
        Some(Outcome::IncorrectOutput)
    } else {
        Some(Outcome::NoEffect)
    }
}

/// Table 10: the one application-heap cell.
#[derive(Debug, Clone)]
pub struct Table10 {
    /// The cell's row.
    pub rows: Vec<Row>,
}

impl Table10 {
    /// Runs `pred` admits, over every row.
    fn count(&self, pred: impl Fn(&RunResult) -> bool) -> u64 {
        self.rows.iter().map(|row| row.count(&pred)).sum()
    }

    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let injected = self.count(|r| r.injections > 0);
        let mut t = TableBuilder::new(vec!["OUTCOME", "COUNT", "PAPER (of 1000)"])
            .with_title(format!("Table 10: {injected} heap injections into the application"));
        for (label, want, paper) in [
            ("No effect (correct output)", Outcome::NoEffect, "981"),
            ("Incorrect output", Outcome::IncorrectOutput, "10"),
            ("Crash", Outcome::Crash, "9"),
            ("Hang", Outcome::Hang, "0"),
        ] {
            let count = self.count(|r| outcome(r) == Some(want));
            t.row(vec![label.into(), count.to_string(), paper.into()]);
        }
        t.render()
    }
}

pub(crate) fn cells(root: u64) -> Vec<Arm> {
    let plan = plan(Target::App, ErrorModel::HeapSingle(HeapTarget::Any), 320);
    vec![cell(root, "table10", "Application heap", plan)]
}

/// Runs the Table 10 experiment.
pub fn run(effort: Effort, root: u64) -> Table10 {
    let runs = match effort {
        Effort::Paper => 1000,
        Effort::Quick => 60,
    };
    Table10 { rows: run_cells(&cells(root), runs) }
}
