//! Figure 9: the SAN model of SIFT-induced application failures, solved
//! in closed form (`ree_san::solve`) and swept over the SIFT-process
//! failure rate.

use ree_san::{solve, ReeModelParams};
use ree_stats::TableBuilder;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Mean time between SIFT failures (seconds).
    pub sift_mtbf_s: f64,
    /// Application unavailability.
    pub unavailability: f64,
    /// P(SIFT failure → application failure).
    pub correlated_probability: f64,
}

/// Full sweep output.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Points with the measured (fast, ~0.5 s) SIFT recovery.
    pub fast_recovery: Vec<Fig9Point>,
    /// Points with slow (60 s) recovery — the ablation showing why SIFT
    /// recovery time must stay small (§9 lessons).
    pub slow_recovery: Vec<Fig9Point>,
}

impl Fig9 {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t =
            TableBuilder::new(vec!["SIFT MTBF (s)", "RECOVERY", "APP UNAVAIL.", "P(CORRELATED)"])
                .with_title("Figure 9: SAN model of SIFT-induced application failures");
        for (label, points) in [("0.5 s", &self.fast_recovery), ("60 s", &self.slow_recovery)] {
            for p in points {
                t.row(vec![
                    format!("{:.0}", p.sift_mtbf_s),
                    label.into(),
                    format!("{:.5}", p.unavailability),
                    format!("{:.3}", p.correlated_probability),
                ]);
            }
        }
        format!(
            "{}\nin this model P(correlated) is ≈ 0 with 0.5 s recovery and ≈ 0.45 with 60 s; \
             the paper's observed 1.6% is not reproduced here\n",
            t.render()
        )
    }
}

/// Runs the Figure 9 sweep. The model is solved exactly, so the table
/// is the same at every seed: `_seed` is unused, and stays only because
/// `perfbench` calls `run(seed)` (ROADMAP item 4 drops it).
pub fn run(_seed: u64) -> Fig9 {
    let sweep = |recovery_s: f64| -> Vec<Fig9Point> {
        [3600.0, 1800.0, 600.0, 120.0]
            .into_iter()
            .map(|mtbf| {
                let sol = solve(&ReeModelParams {
                    sift_failure_rate: 1.0 / mtbf,
                    sift_recovery_rate: 1.0 / recovery_s,
                    ..ReeModelParams::default()
                });
                Fig9Point {
                    sift_mtbf_s: mtbf,
                    unavailability: sol.app_unavailability,
                    correlated_probability: sol.correlated_failure_probability,
                }
            })
            .collect()
    };
    Fig9 { fast_recovery: sweep(0.5), slow_recovery: sweep(60.0) }
}
