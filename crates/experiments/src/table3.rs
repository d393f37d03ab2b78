//! Table 3: baseline application execution time without fault injection.
//!
//! Paper values: outside SIFT 75.71 ± 0.65 (perceived = actual); inside
//! SIFT 77.97 ± 0.48 perceived, 75.74 ± 0.48 actual — i.e. the SIFT
//! environment "adds less than two seconds to the perceived application
//! execution time" and "the actual execution time overhead is not
//! statistically significant".

use crate::cells::{fault_free_times, seeds};
use crate::effort::Effort;
use ree_apps::{run_without_sift, Scenario};
use ree_sim::SimTime;
use ree_stats::{Summary, TableBuilder};

/// Results of the Table 3 reproduction.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// No-SIFT execution time (perceived == actual).
    pub no_sift: Summary,
    /// Perceived time under SIFT.
    pub sift_perceived: Summary,
    /// Actual time under SIFT.
    pub sift_actual: Summary,
}

impl Table3 {
    /// Perceived overhead of the SIFT environment in seconds.
    fn perceived_overhead(&self) -> f64 {
        self.sift_perceived.mean() - self.no_sift.mean()
    }

    /// Actual overhead of the SIFT environment in seconds.
    fn actual_overhead(&self) -> f64 {
        self.sift_actual.mean() - self.no_sift.mean()
    }

    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec!["CONFIGURATION", "PERCEIVED (s)", "ACTUAL (s)"])
            .with_title("Table 3: baseline application execution time (no fault injection)");
        t.row(vec![
            "Outside SIFT (Baseline No SIFT)".into(),
            self.no_sift.display_pm(),
            self.no_sift.display_pm(),
        ]);
        t.row(vec![
            "In SIFT environment (Baseline SIFT)".into(),
            self.sift_perceived.display_pm(),
            self.sift_actual.display_pm(),
        ]);
        format!(
            "{}\nperceived overhead = {:.2} s, actual overhead = {:.2} s (paper: ~2.3 s / ~0.03 s)\n",
            t.render(),
            self.perceived_overhead(),
            self.actual_overhead()
        )
    }
}

/// Runs the Table 3 experiment.
pub fn run(effort: Effort, root: u64) -> Table3 {
    let seeds = seeds(root, "table3", effort.scale(30));
    let horizon = SimTime::from_secs(200);
    let mut no_sift = Summary::new();
    for seed in seeds.clone() {
        let (_, duration) = run_without_sift(&Scenario::single_texture(seed), horizon);
        if let Some(d) = duration {
            no_sift.push(d.as_secs_f64());
        }
    }
    let (sift_perceived, sift_actual) =
        fault_free_times(&Scenario::single_texture(0), seeds, horizon).remove(0);
    Table3 { no_sift, sift_perceived, sift_actual }
}
