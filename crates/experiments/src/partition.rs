//! Partition-during-recovery sweep: recovery rate vs partition duration.
//!
//! The classic SIFT stressor the paper names but never runs (§5.2
//! attributes FTM recovery's only actual-execution-time overhead to
//! network contention): induce a failure, and the instant the
//! environment *detects* it, split the interconnect under the recovery
//! protocol. Each arm sweeps one partition duration via
//! [`ree_inject::NetFault::partition_on_recovery`] and stops under the
//! adaptive stopping rule on its own evidence: no arm's budget depends
//! on another arm's.
//!
//! What the rows compare today is boots, not partition durations. Each
//! cell boots from its own seed (`cells::cell`), and this plan's
//! boot has two outcomes, one of which ends 74 % of runs at the timeout
//! (`perfbench/README.md`). At paper effort every arm recovers 100.0 %
//! except one or two per root, and which ones follows the root, not the
//! duration: 1.0 s (28.9 %) and 5.0 s (26.3 %) at the default root,
//! 5.0 s and 10.0 s at `--seed 1`, 0.5 s at `--seed 2`, 5.0 s at
//! `--seed 3` and `--seed 4`. "no partition" never failed.

use crate::cells::{cell, plan, AdaptiveTable};
use crate::effort::Effort;
use crate::table4::adaptive_rule;
use ree_inject::{Arm, ErrorModel, NetFault, RunPlan, StoppingRule, Target};
use ree_sim::SimDuration;

/// Partition durations swept, in milliseconds.
const DURATIONS_MS: [u64; 5] = [500, 1_000, 2_000, 5_000, 10_000];

/// The split imposed on the 4-node testbed: the SIFT side (FTM and its
/// backup on nodes 0–1) is severed from the application side (texture
/// ranks on nodes 2–3) — exactly the traffic the recovery protocol
/// needs to cross.
fn partition_groups() -> Vec<Vec<u16>> {
    vec![vec![0, 1], vec![2, 3]]
}

/// Runs the sweep under the effort level's standard adaptive rule.
pub fn run(effort: Effort, root: u64) -> AdaptiveTable {
    run_adaptive(&adaptive_rule(effort), root)
}

/// A no-partition control arm and one arm per `DURATIONS_MS` entry, all
/// targeting the FTM with SIGINT so every run starts a recovery for the
/// partition to land on.
pub(crate) fn cells(root: u64) -> Vec<Arm> {
    let arm = |label: String, net_faults| {
        let plan = RunPlan { net_faults, ..plan(Target::Ftm, ErrorModel::Sigint, 320) };
        cell(root, "partition", label, plan)
    };
    let mut arms = vec![arm("no partition".into(), vec![])];
    for ms in DURATIONS_MS {
        let label = format!("partition {:.1} s", ms as f64 / 1000.0);
        let fault =
            NetFault::partition_on_recovery(partition_groups(), SimDuration::from_millis(ms));
        arms.push(arm(label, vec![fault]));
    }
    arms
}

/// Runs the sweep under `rule`: recovery rate and time against
/// partition duration.
pub fn run_adaptive(rule: &StoppingRule, root: u64) -> AdaptiveTable {
    AdaptiveTable::sweep(
        "Partition during recovery: FTM/SIGINT with the interconnect split at detection",
        "PARTITION",
        Some(("RECOVERY (s)", |row| row.aggregate.recovery.display_pm())),
        &cells(root),
        rule,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_rule() -> StoppingRule {
        StoppingRule::default().half_width(0.45).batch(2).min_runs(2).max_runs(2)
    }

    #[test]
    fn sweep_runs_and_renders() {
        let table = run_adaptive(&tiny_rule(), 7);
        assert_eq!(table.rows.len(), DURATIONS_MS.len() + 1);
        assert!(table.rows.iter().all(|r| r.runs >= 2));
        let rendered = table.render();
        assert!(rendered.contains("no partition"), "{rendered}");
        assert!(rendered.contains("partition 10.0 s"), "{rendered}");
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_adaptive(&tiny_rule(), 42).render();
        let b = run_adaptive(&tiny_rule(), 42).render();
        assert_eq!(a, b);
    }
}
