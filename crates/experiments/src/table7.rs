//! Table 7: untargeted heap injections into the SIFT processes (§7.1).
//!
//! "All regions of the target's heap memory were candidates for error
//! injection. Each of the 100 runs per target involved several injections
//! to bring about a crash or hang failure … only about half of the 100
//! runs per target showed any effects."

use crate::cells::{cell, plan, run_cells, Row};
use crate::effort::Effort;
use ree_inject::{Arm, ErrorModel, Target};
use ree_stats::TableBuilder;

/// Table 7: one row per SIFT target.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// One row per SIFT target.
    pub rows: Vec<Row>,
}

impl Table7 {
    /// Renders the paper-shaped table. INJECTIONS totals the flips
    /// performed (the paper reports ~6,700 across all targets).
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
            let injections: u64 = row.results.iter().map(|r| r.injections as u64).sum();
            let mut line = vec![row.label.clone()];
            line.extend(row.failure_columns());
            line.push(injections.to_string());
            line.extend(row.time_columns());
            t.row(line);
        }
        t.render()
    }
}

pub(crate) fn cells(root: u64) -> Vec<Arm> {
    [Target::Ftm, Target::ExecArmor, Target::Heartbeat]
        .into_iter()
        .map(|target| cell(root, "table7", target.to_string(), plan(target, ErrorModel::Heap, 400)))
        .collect()
}

/// Runs the Table 7 experiment.
pub fn run(effort: Effort, root: u64) -> Table7 {
    Table7 { rows: run_cells(&cells(root), effort.scale(100)) }
}
