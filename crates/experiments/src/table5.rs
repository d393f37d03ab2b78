//! Table 5: application execution time vs. heartbeat period (§5.3).
//!
//! SIGINT into the FTM with heartbeat periods of 5/10/20/30 s, 30 runs
//! per row. Paper shape: *perceived* time grows markedly with the period
//! (FTM failures are detected more slowly, stretching setup/teardown
//! exposure), while *actual* time is almost flat (<1% spread) because the
//! application is decoupled from the FTM while running.

use crate::cells::{cell, plan, run_cells, Row};
use crate::effort::Effort;
use ree_inject::{Arm, ErrorModel, Target};
use ree_sim::SimDuration;
use ree_stats::{Summary, TableBuilder};

/// Table 5: one row per heartbeat period, labelled with the period in
/// seconds.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// One row per heartbeat period.
    pub rows: Vec<Row>,
}

impl Table5 {
    /// Perceived and actual execution time of row `i`, over its
    /// injected runs that completed.
    pub fn times(&self, i: usize) -> (Summary, Summary) {
        self.rows[i].timings(0, |r| r.injections > 0 && r.completed)
    }

    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec!["HB PERIOD (s)", "PERCEIVED (s)", "ACTUAL (s)"])
            .with_title("Table 5: execution time vs heartbeat period (FTM SIGINT)");
        for (i, row) in self.rows.iter().enumerate() {
            let (perceived, actual) = self.times(i);
            t.row(vec![row.label.clone(), perceived.display_pm(), actual.display_pm()]);
        }
        t.render()
    }
}

pub(crate) fn cells(root: u64) -> Vec<Arm> {
    [5u64, 10, 20, 30]
        .into_iter()
        .map(|period_s| {
            let mut plan = plan(Target::Ftm, ErrorModel::Sigint, 400);
            plan.scenario.sift.heartbeat_period = SimDuration::from_secs(period_s);
            cell(root, "table5", period_s.to_string(), plan)
        })
        .collect()
}

/// Runs the Table 5 experiment.
pub fn run(effort: Effort, root: u64) -> Table5 {
    Table5 { rows: run_cells(&cells(root), effort.scale(30)) }
}
