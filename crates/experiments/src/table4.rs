//! Table 4: SIGINT/SIGSTOP injection results (§5).
//!
//! 100 runs per target × {application, FTM, Execution ARMOR, Heartbeat
//! ARMOR} × {SIGINT, SIGSTOP}. The paper's headline: *every* injected
//! error was recovered; hang-model injections into the application cost
//! far more execution time than crash-model ones (detection through the
//! 20 s progress-indicator poll); SIFT-process recovery takes ~0.5–0.8 s.

use crate::cells::{fault_free_times, run_cells, seeds, target_cells, AdaptiveTable, Row};
use crate::effort::Effort;
use ree_apps::Scenario;
use ree_inject::{Arm, ErrorModel, RunResult, StoppingRule};
use ree_sim::SimTime;
use ree_stats::{no_failure_upper_bound, Summary, TableBuilder};

/// Table 4: a fault-free baseline and the eight injection rows. Every
/// column admits only runs in which an error was injected (an injection
/// time falling after completion means "no error injected").
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Fault-free baseline (perceived/actual).
    pub baseline: (Summary, Summary),
    /// The eight injection rows.
    pub rows: Vec<Row>,
}

fn injected(r: &RunResult) -> bool {
    r.injections > 0
}

impl Table4 {
    /// Runs with injections, over all rows (n of the §5 bound).
    fn total_injected(&self) -> u64 {
        self.rows.iter().map(|row| row.count(injected)).sum()
    }

    /// The §5 bound on unrecoverable-failure probability.
    fn failure_probability_bound(&self) -> f64 {
        no_failure_upper_bound(self.total_injected().max(1))
    }

    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec![
            "TARGET",
            "ERRORS INJ.",
            "SUC. REC.",
            "PERCEIVED (s)",
            "ACTUAL (s)",
            "RECOVERY (s)",
            "CORRELATED",
        ])
        .with_title("Table 4: SIGINT/SIGSTOP injection results");
        t.row(vec![
            "Baseline (no injection)".into(),
            "-".into(),
            "-".into(),
            self.baseline.0.display_pm(),
            self.baseline.1.display_pm(),
            "-".into(),
            "-".into(),
        ]);
        for row in &self.rows {
            let (perceived, actual) = row.timings(0, injected);
            t.row(vec![
                row.label.clone(),
                row.count(injected).to_string(),
                row.count(RunResult::recovered).to_string(),
                perceived.display_pm(),
                actual.display_pm(),
                row.recoveries(injected).display_pm(),
                row.count(|r| injected(r) && r.correlated).to_string(),
            ]);
        }
        let n = self.total_injected();
        let unrecovered: u64 =
            self.rows.iter().map(|row| row.count(|r| injected(r) && !r.recovered())).sum();
        let footer = if unrecovered == 0 {
            format!(
                "with n = {n} injected runs and zero unrecovered errors, p < {:.4}% (95% conf.)",
                self.failure_probability_bound() * 100.0
            )
        } else {
            format!(
                "{unrecovered} of {n} injected runs did not recover: the paper's zero-failure \
                 bound on p does not apply"
            )
        };
        format!("{}\n{footer}\n", t.render())
    }
}

/// The eight cells, shared by the fixed and the adaptive table.
pub(crate) fn cells(root: u64) -> Vec<Arm> {
    [ErrorModel::Sigint, ErrorModel::Sigstop]
        .into_iter()
        .flat_map(|model| target_cells(root, "table4", model, 320))
        .collect()
}

/// Runs the Table 4 experiment.
pub fn run(effort: Effort, root: u64) -> Table4 {
    let baseline = fault_free_times(
        &Scenario::single_texture(0),
        seeds(root, "table4", effort.scale(30)),
        SimTime::from_secs(200),
    )
    .remove(0);
    Table4 { baseline, rows: run_cells(&cells(root), effort.scale(100)) }
}

/// Table 4 under the adaptive engine: the same eight cells as [`run`],
/// each stopped by `rule` instead of a fixed run count.
pub fn run_adaptive(rule: &StoppingRule, root: u64) -> AdaptiveTable {
    AdaptiveTable::sweep(
        "Table 4 (adaptive): confidence-targeted SIGINT/SIGSTOP cells",
        "TARGET",
        None,
        &cells(root),
        rule,
    )
}

/// The stopping rule the `repro` binary uses for the adaptive table:
/// the paper-standard ±2%-at-95% target, scaled down (wider target,
/// smaller batches and budget) for `Effort::Quick` CI runs.
pub fn adaptive_rule(effort: Effort) -> StoppingRule {
    match effort {
        Effort::Paper => StoppingRule::default(),
        Effort::Quick => StoppingRule::default().half_width(0.08).batch(8).min_runs(8).max_runs(32),
    }
}
