//! The checker checking itself: determinism, zero escapes on the real
//! build, and — the part that proves the tool can actually find bugs —
//! a planted recovery defect that must surface as a replayable
//! counterexample.

use ree_mc::presets::{two_node_register_plan, two_node_sigint_plan};
use ree_mc::{model_check, replay, McBounds};

/// On the healthy build the SIFT environment must recover every explored
/// branch of the register-corruption tree, and two explorations of the
/// same `(plan, seed, bounds)` must agree exactly — the property the CI
/// smoke job re-checks byte-for-byte at the binary-output level.
#[test]
fn healthy_build_recovers_every_branch_deterministically() {
    let plan = two_node_register_plan(7);
    let bounds = McBounds::smoke();
    let first = model_check(&plan, 7, &bounds);
    assert!(first.explored >= 1, "tree must not be empty");
    assert!(first.branch_nodes >= 1, "scenario must actually branch");
    assert!(first.escapes.is_empty(), "unexpected escapes:\n{first}");
    assert_eq!(first.explored, first.recovered);
    let second = model_check(&plan, 7, &bounds);
    assert_eq!(first, second, "exploration is not deterministic");
}

/// With recovery sabotaged (post-injection respawn wake-ups dropped),
/// the checker must report escapes, and each counterexample must be
/// independently replayable: the recorded schedule reproduces the
/// failure under the sabotage and recovers without it — pinning the
/// defect on the planted bug, not on the interleaving.
#[test]
fn planted_recovery_bug_surfaces_as_replayable_counterexample() {
    let plan = two_node_sigint_plan(7);
    let bounds = McBounds { plant: true, ..McBounds::smoke() };
    let report = model_check(&plan, 7, &bounds);
    assert!(report.discarded > 0, "plant never engaged:\n{report}");
    assert!(!report.escapes.is_empty(), "planted bug not found:\n{report}");
    let cex = &report.escapes[0];
    let sabotaged = replay(&plan, cex, &bounds);
    assert!(!sabotaged.recovered(), "replay failed to reproduce the escape");
    assert_eq!(sabotaged.induced, cex.induced);
    assert_eq!(sabotaged.system_failure, cex.system_failure);
    assert_eq!(sabotaged.output, cex.output);
    let healthy = replay(&plan, cex, &McBounds::smoke());
    assert!(healthy.recovered(), "healthy build should survive the same schedule");
}
