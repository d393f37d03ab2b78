//! One table-driven check over [`AppKind::ALL`]: every application of
//! the table round-trips its name, runs fault-free to verified output,
//! and has a nominal time and warmable inputs.

use ree_apps::otis::otis_frame_seed;
use ree_apps::pipeline::pipeline_frame_seed;
use ree_apps::synth::{mars_surface_shared, thermal_frame_shared};
use ree_apps::texture::texture_image_seed;
use ree_apps::{AppKind, Scenario, Verdict};
use ree_sift::JobSpec;
use ree_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// A scenario whose only job is `kind`. No `_` arm: a fourth application
/// does not build until it says how it is exercised here.
fn scenario_for(kind: AppKind) -> Scenario {
    match kind {
        AppKind::Texture => Scenario::single_texture(7),
        AppKind::Otis => {
            let mut scenario = Scenario::single_texture(7);
            scenario.jobs = vec![JobSpec {
                app: kind.name().into(),
                ranks: 2,
                nodes: vec![2, 3],
                submit_at: SimDuration::from_secs(5),
            }];
            scenario
        }
        AppKind::Pipeline => Scenario::image_pipeline(7),
    }
}

/// Address of the first shared input slot 0's job reads.
fn first_input(kind: AppKind, scenario: &Scenario) -> usize {
    let app = kind.name();
    match kind {
        AppKind::Texture => {
            let seed = texture_image_seed(app, 0, 0);
            Arc::as_ptr(&mars_surface_shared(scenario.texture.image_px, seed)) as usize
        }
        AppKind::Otis => {
            let seed = otis_frame_seed(app, 0);
            Arc::as_ptr(&thermal_frame_shared(scenario.otis.frame_px, seed, 0)) as usize
        }
        AppKind::Pipeline => {
            let seed = pipeline_frame_seed(app, 0);
            Arc::as_ptr(&thermal_frame_shared(scenario.pipeline.frame_px, seed, 0)) as usize
        }
    }
}

#[test]
fn every_application_of_the_table_is_complete() {
    for kind in AppKind::ALL {
        assert_eq!(AppKind::from_name(kind.name()), Some(kind));
        let scenario = scenario_for(kind);
        assert!(scenario.nominal() > SimDuration::ZERO, "{kind:?} has no nominal time");

        scenario.warm_inputs();
        let warmed = first_input(kind, &scenario);
        scenario.warm_inputs();
        assert_eq!(first_input(kind, &scenario), warmed, "{kind:?}: warming twice regenerated");

        let horizon = SimTime::ZERO + SimDuration::from_secs(5) + scenario.nominal() * 2;
        let running = scenario.run_fault_free(horizon);
        assert!(running.all_done(), "{kind:?} did not finish: {running:?}");
        assert_eq!(scenario.verify_outputs(&running), Verdict::Correct, "{kind:?}");
        // An untouched cluster has none of the products.
        assert_eq!(scenario.verify_outputs(&scenario.start()), Verdict::Missing, "{kind:?}");
    }
    assert_eq!(AppKind::from_name("nope"), None);
    assert_eq!(AppKind::from_name(""), None);
}
