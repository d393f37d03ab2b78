//! `repro mc` / `repro mc-selftest` — bounded model checking of the
//! 2-node register-corruption scenario (see `docs/MODELCHECK.md`).
//!
//! Where every table in this crate *samples* executions by seed, `mc`
//! *enumerates* a bounded execution tree — every activation instant on
//! the grid × every candidate target × every admissible same-instant
//! delivery order — and proves the SIFT environment recovers all of it.
//! The output is deterministic for any worker count: CI diffs it against
//! `tests/snapshots/mc_quick_v1.txt`, once on every CPU and once pinned
//! to one CPU.

use crate::Effort;
use ree_mc::presets::{two_node_register_plan, two_node_sigint_plan};
use ree_mc::{model_check, replay, McBounds};

/// Bounds tier for an effort level.
fn bounds(effort: Effort) -> McBounds {
    match effort {
        Effort::Quick => McBounds::quick(),
        Effort::Paper => McBounds::paper(),
    }
}

/// Exhaustively verifies the bounded 2-node execution trees: zero
/// escapes expected on a healthy build. Two fault models are explored:
/// register corruption (the paper's canonical transient model — some
/// placements are benign and never manifest) and SIGINT kill (which
/// forces a detection + respawn on *every* placement, so every branch
/// exercises the recovery protocol). The rendered report ends with a
/// machine-checkable `mc: PASS`/`mc: FAIL` verdict line over the total
/// escape count.
pub fn run(effort: Effort, seed: u64) -> String {
    let bounds = bounds(effort);
    let register = two_node_register_plan(seed);
    let reg = model_check(&register, seed, &bounds);
    let sigint = two_node_sigint_plan(seed);
    let sig = model_check(&sigint, seed, &bounds);
    let escapes = reg.escapes.len() + sig.escapes.len();
    let verdict = if escapes == 0 { "PASS" } else { "FAIL" };
    format!(
        "bounded model check: 2-node SIFT cluster (seed {seed})\n\
         bounds: {bounds:?}\n\
         [register corruption]\n{reg}\n\
         [SIGINT kill]\n{sig}\n\
         mc: {verdict} ({escapes} escapes)\n"
    )
}

/// Proves the checker *can* find recovery bugs: explores the SIGINT tree
/// with recovery sabotaged (respawn wake-ups dropped), demands at least
/// one escape, and replays its counterexample both sabotaged (must
/// reproduce) and healthy (must recover). Panics — failing the repro
/// run — if any of that does not hold.
pub fn selftest(effort: Effort, seed: u64) -> String {
    let plan = two_node_sigint_plan(seed);
    let planted = McBounds { plant: true, ..bounds(effort) };
    let report = model_check(&plan, seed, &planted);
    assert!(
        !report.escapes.is_empty(),
        "self-test FAILED: planted recovery bug not found\n{report}"
    );
    let cex = &report.escapes[0];
    let sabotaged = replay(&plan, cex, &planted);
    assert!(!sabotaged.recovered(), "self-test FAILED: counterexample did not replay\n{report}");
    let healthy = replay(&plan, cex, &bounds(effort));
    assert!(
        healthy.recovered(),
        "self-test FAILED: healthy build lost the counterexample schedule"
    );
    format!(
        "model-checker self-test: planted recovery bug (seed {seed})\n{report}\n\
         counterexample replay: reproduced ({:?}, {:?})\n\
         healthy replay: recovered (defect is the plant, not the interleaving)\n\
         mc-selftest: PASS\n",
        cex.system_failure, cex.output
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_renders_deterministically() {
        let a = run(Effort::Quick, 5);
        assert_eq!(a, run(Effort::Quick, 5));
        assert!(a.contains("mc: PASS"), "healthy build must not escape:\n{a}");
    }

    #[test]
    fn selftest_passes() {
        assert!(selftest(Effort::Quick, 5).contains("mc-selftest: PASS"));
    }
}
