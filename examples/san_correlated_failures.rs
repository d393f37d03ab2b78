//! Explore the paper's Figure 9 stochastic activity network, solved in
//! closed form (`ree_san::solve`): how SIFT recovery speed controls
//! whether SIFT failures take the application down with them.
//!
//! Run with: `cargo run --release --example san_correlated_failures`

use ree_san::{solve, ReeModelParams};

fn main() {
    println!("SIFT MTBF 10 min, sweeping recovery time:");
    for recovery_s in [0.5, 5.0, 20.0, 40.0, 80.0] {
        let params = ReeModelParams {
            sift_failure_rate: 1.0 / 600.0,
            sift_recovery_rate: 1.0 / recovery_s,
            ..ReeModelParams::default()
        };
        let sol = solve(&params);
        println!(
            "  recovery {recovery_s:>5.1} s -> app unavailability {:.5}, P(SIFT failure kills app) {:.3}",
            sol.app_unavailability, sol.correlated_failure_probability
        );
    }
    println!("\nthe 30 s application timeout is the cliff: recoveries far below it are free,");
    println!("recoveries near or above it convert SIFT failures into application failures");
}
