//! End-to-end checks for the topology-placed image-acquisition pipeline:
//! fault-free completion, verified products, and the constrained-trunk
//! placement actually carrying the downlink traffic.

use ree_apps::pipeline::{FRAMES, FRAME_PX};
use ree_apps::verify::{verify_pipeline, Verdict};
use ree_apps::Scenario;
use ree_sim::SimTime;

#[test]
fn pipeline_completes_fault_free_with_correct_products() {
    let scenario = Scenario::image_pipeline(11);
    let running = scenario.run_fault_free(SimTime::from_secs(400));
    assert!(running.all_done(), "pipeline did not finish: {running:?}");
    let fs = running.cluster.remote_fs_ref();
    for frame in 0..FRAMES {
        assert_eq!(
            verify_pipeline(fs, "imgpipe", 0, frame, FRAME_PX),
            Verdict::Correct,
            "frame {frame}"
        );
    }
}

#[test]
fn pipeline_scenario_is_deterministic() {
    let a = Scenario::image_pipeline(3).run_fault_free(SimTime::from_secs(400));
    let b = Scenario::image_pipeline(3).run_fault_free(SimTime::from_secs(400));
    assert_eq!(a.cluster.now(), b.cluster.now());
    assert_eq!(a.cluster.trace().render(), b.cluster.trace().render());
}

#[test]
fn pipeline_topology_routes_across_the_trunk() {
    let scenario = Scenario::image_pipeline(5);
    let running = scenario.start();
    let net = running.cluster.network();
    let topology = net.topology();
    // camera/compute (nodes 1, 2) reach the downlink node 4 only through
    // the trunk: the route is strictly longer than an intra-switch one.
    let route = net.route(ree_os::NodeId(1), ree_os::NodeId(4)).expect("route exists");
    let local = net.route(ree_os::NodeId(1), ree_os::NodeId(2)).expect("route exists");
    assert!(route.len() > local.len(), "trunk route {route:?} vs local {local:?}");
    assert_eq!(topology.switches(), 2);
}
