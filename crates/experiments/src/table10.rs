//! Table 10: 1,000 single heap flips into the application (§7.3).
//!
//! Paper: 981 no effect ("data on the heap were mostly floating point
//! matrices, and single-bit flips … often did not substantially change
//! the value"), 10 incorrect output, 9 crashes, 0 hangs.

use crate::cells::{cell, plan, run_cells};
use crate::effort::Effort;
use ree_apps::Verdict;
use ree_inject::{Arm, ErrorModel, FailureClass, Target};
use ree_os::HeapTarget;
use ree_stats::TableBuilder;

/// Table 10 outcome counts.
#[derive(Debug, Clone, Default)]
pub struct Table10 {
    /// Runs with a flip injected.
    pub injected: u64,
    /// No observable effect (correct output, no restart).
    pub no_effect: u64,
    /// Output outside tolerance limits.
    pub incorrect_output: u64,
    /// Application crash (recovered by the SIFT environment).
    pub crash: u64,
    /// Application hang.
    pub hang: u64,
}

impl Table10 {
    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec!["OUTCOME", "COUNT", "PAPER (of 1000)"]).with_title(
            format!("Table 10: {} heap injections into the application", self.injected),
        );
        t.row(vec!["No effect (correct output)".into(), self.no_effect.to_string(), "981".into()]);
        t.row(vec!["Incorrect output".into(), self.incorrect_output.to_string(), "10".into()]);
        t.row(vec!["Crash".into(), self.crash.to_string(), "9".into()]);
        t.row(vec!["Hang".into(), self.hang.to_string(), "0".into()]);
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
    let mut out = Table10::default();
    for r in run_cells(&cells(root), runs).iter().flat_map(|row| &row.results) {
        if r.injections == 0 {
            continue;
        }
        out.injected += 1;
        if matches!(r.induced, Some(FailureClass::Hang)) {
            out.hang += 1;
        } else if matches!(r.induced, Some(FailureClass::SegFault)) || r.restarts > 0 {
            out.crash += 1;
        } else if r.completed && r.output == Verdict::Incorrect {
            out.incorrect_output += 1;
        } else if r.completed {
            out.no_effect += 1;
        }
    }
    out
}
