//! The canonical model-checking scenario: a minimal 2-node cluster so
//! the bounded execution tree stays small enough to cover exhaustively.
//!
//! Shared between the `repro mc` target, the CI smoke job, and this
//! crate's self-tests so they all verify the identical tree.

use ree_apps::{Scenario, TextureParams};
use ree_inject::{ErrorModel, RunPlan, Target};
use ree_sift::JobSpec;
use ree_sim::{SimDuration, SimTime};

/// A 2-node cluster running one shrunk texture job (2 ranks co-resident
/// with the SIFT daemons): ~17 s of nominal science instead of the paper
/// testbed's ~74 s, so a full bounded exploration stays in CI scale.
fn two_node_scenario(seed: u64) -> Scenario {
    let texture = TextureParams {
        image_px: 32,
        tile_px: 8,
        clusters: 2,
        images: 1,
        load_time: SimDuration::from_secs(1),
        filter_time: SimDuration::from_secs(4),
        cluster_time: SimDuration::from_secs(3),
        write_time: SimDuration::from_secs(1),
        pi_period: SimDuration::from_secs(10),
    };
    let mut scenario = Scenario::single_texture(seed);
    scenario.nodes = 2;
    scenario.texture = texture;
    scenario.jobs = vec![JobSpec {
        app: "texture".into(),
        ranks: 2,
        nodes: vec![0, 1],
        submit_at: SimDuration::from_secs(5),
    }];
    scenario
}

/// The `repro mc` plan: register bit-flips into the application ranks of
/// `two_node_scenario` — the paper's hardest-to-recover transient
/// model, explored exhaustively instead of sampled.
pub fn two_node_register_plan(seed: u64) -> RunPlan {
    RunPlan {
        scenario: two_node_scenario(seed),
        target: Target::App,
        model: ErrorModel::Register,
        timeout: SimTime::from_secs(120),
        net_faults: vec![],
    }
}

/// Self-test plan: SIGINT into the application ranks. The kill is
/// deterministic (no activation roll), so every explored branch
/// exercises detection → respawn — exactly the path the planted bug
/// breaks, making "≥ 1 escape on a sabotaged build" a reliable
/// assertion.
pub fn two_node_sigint_plan(seed: u64) -> RunPlan {
    RunPlan { model: ErrorModel::Sigint, ..two_node_register_plan(seed) }
}
