//! Table 5: application execution time vs. heartbeat period (§5.3).
//!
//! SIGINT into the FTM with heartbeat periods of 5/10/20/30 s, 30 runs
//! per row. Paper shape: *perceived* time grows markedly with the period
//! (FTM failures are detected more slowly, stretching setup/teardown
//! exposure), while *actual* time is almost flat (<1% spread) because the
//! application is decoupled from the FTM while running.

use crate::effort::Effort;
use crate::fold::timings;
use ree_apps::Scenario;
use ree_inject::{Campaign, ErrorModel, RunPlan, Target};
use ree_sim::{SimDuration, SimTime};
use ree_stats::{Summary, TableBuilder};

/// One row of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Heartbeat period in seconds.
    pub period_s: u64,
    /// Perceived execution time.
    pub perceived: Summary,
    /// Actual execution time.
    pub actual: Summary,
}

/// Full Table 5 output.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// One row per heartbeat period.
    pub rows: Vec<Table5Row>,
}

impl Table5 {
    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec!["HB PERIOD (s)", "PERCEIVED (s)", "ACTUAL (s)"])
            .with_title("Table 5: execution time vs heartbeat period (FTM SIGINT)");
        for row in &self.rows {
            t.row(vec![
                row.period_s.to_string(),
                row.perceived.display_pm(),
                row.actual.display_pm(),
            ]);
        }
        t.render()
    }
}

/// Runs the Table 5 experiment.
pub fn run(effort: Effort, seed0: u64) -> Table5 {
    let runs = effort.scale(30);
    let mut rows = Vec::new();
    for period_s in [5u64, 10, 20, 30] {
        let mut scenario = Scenario::single_texture(0);
        scenario.sift = scenario.sift.with_heartbeat_period(SimDuration::from_secs(period_s));
        let plan = RunPlan {
            scenario,
            target: Target::Ftm,
            model: ErrorModel::Sigint,
            timeout: SimTime::from_secs(400),
            net_faults: vec![],
        };
        let results = Campaign::new(&plan).runs(runs).seed(seed0 ^ (period_s << 8)).collect();
        let (perceived, actual) = timings(&results, 0, |r| r.injections > 0 && r.completed);
        rows.push(Table5Row { period_s, perceived, actual });
    }
    Table5 { rows }
}
