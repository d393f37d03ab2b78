//! `McBounds` is total: every field may be zero and `model_check` still
//! returns a report. Zero is handled where each bound is read — `instants:
//! 0` is one instant, `max_targets: 0` no candidates, `max_depth` /
//! `max_ready: 0` no branch node, `max_branches: 0` an exhausted budget —
//! so the bounds need no `validate()`.

use ree_mc::presets::two_node_register_plan;
use ree_mc::{model_check, McBounds};

#[test]
fn zero_bounds_return_a_report() {
    let plan = two_node_register_plan(7);
    let smoke = McBounds::smoke;
    let zero = McBounds {
        instants: 0,
        max_targets: 0,
        max_depth: 0,
        max_ready: 0,
        max_branches: 0,
        plant: false,
    };
    let table = [
        ("all zero", zero),
        ("instants", McBounds { instants: 0, ..smoke() }),
        ("max_targets", McBounds { max_targets: 0, ..smoke() }),
        ("max_depth", McBounds { max_depth: 0, ..smoke() }),
        ("max_ready", McBounds { max_ready: 0, ..smoke() }),
        ("max_branches", McBounds { max_branches: 0, ..smoke() }),
    ];
    for (zeroed, bounds) in table {
        let report = model_check(&plan, 7, &bounds);
        assert_eq!(report.instants.len(), bounds.instants.max(1), "{zeroed}");
        assert!(report.escapes.is_empty(), "{zeroed}:\n{report}");
        assert_eq!(report.explored, report.recovered, "{zeroed}");
        if bounds.max_targets == 0 {
            assert_eq!((report.explored, report.sterile), (0, 0), "{zeroed}: nothing to inject");
        } else if bounds.instants > 0 {
            // (`instants: 0` is the window start, where no application
            // rank exists yet to inject into.)
            assert!(report.explored >= 1, "{zeroed}: tree must not be empty");
        }
        if bounds.max_depth == 0 || bounds.max_ready == 0 {
            assert_eq!((report.branch_nodes, report.forks), (0, 0), "{zeroed}: no branching");
        }
        if zeroed == "max_branches" {
            assert!(report.branch_nodes >= 1 && report.budget_exhausted, "{zeroed}:\n{report}");
            assert_eq!(report.forks, 0, "{zeroed}");
        }
    }
}
