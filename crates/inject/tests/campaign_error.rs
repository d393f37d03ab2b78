//! Typed campaign errors: plan validation at the supervisor trust
//! boundary and the panic boundary around a single run; and the panics
//! a malformed stopping rule raises.

use ree_inject::{
    execute_warm_checked, Campaign, CampaignError, ErrorModel, NetFault, RunPlan, StoppingRule,
    Target,
};
use ree_sift::JobSpec;
use ree_sim::{SimDuration, SimTime};

fn plan() -> RunPlan {
    RunPlan {
        scenario: ree_apps::Scenario::single_texture(1),
        target: Target::App,
        model: ErrorModel::Sigint,
        timeout: SimTime::from_secs(220),
        net_faults: vec![],
    }
}

#[test]
fn well_formed_plan_validates() {
    assert_eq!(plan().validate(), Ok(()));
}

#[test]
fn zero_timeout_is_rejected() {
    let mut p = plan();
    p.timeout = SimTime::ZERO;
    assert!(matches!(p.validate(), Err(CampaignError::InvalidPlan(_))));
}

#[test]
fn out_of_range_job_node_is_rejected() {
    let mut p = plan();
    let nodes = p.scenario.nodes;
    p.scenario.jobs.push(JobSpec {
        app: "texture".into(),
        ranks: 1,
        nodes: vec![nodes as u16], // first node *past* the cluster
        submit_at: SimDuration::from_secs(5),
    });
    let err = p.validate().unwrap_err();
    assert!(matches!(err, CampaignError::InvalidPlan(_)));
    assert!(err.to_string().contains("node"), "unexpected message: {err}");
}

/// A job naming an application outside the table must stop at the trust
/// boundary; where nothing validates, it gets no nominal time and no
/// output — never texture's.
#[test]
fn unknown_application_is_rejected() {
    let mut p = plan();
    p.scenario.jobs[0].app = "nope".into();
    let err = p.validate().unwrap_err();
    assert!(matches!(err, CampaignError::InvalidPlan(_)));
    assert!(err.to_string().contains("unknown application \"nope\""), "unexpected message: {err}");
    assert_eq!(p.scenario.nominal(), SimDuration::ZERO);
    assert_eq!(p.geometry().nominal, SimDuration::ZERO);
    let finished = plan().scenario.run_fault_free(SimTime::from_secs(220));
    assert_eq!(plan().scenario.verify_outputs(&finished), ree_apps::Verdict::Correct);
    assert_eq!(p.scenario.verify_outputs(&finished), ree_apps::Verdict::Missing);
}

#[test]
fn rank_node_mismatch_is_rejected() {
    let mut p = plan();
    p.scenario.jobs[0].ranks += 1;
    assert!(matches!(p.validate(), Err(CampaignError::InvalidPlan(_))));
}

#[test]
fn net_fault_endpoint_out_of_range_is_rejected() {
    let mut p = plan();
    p.net_faults
        .push(NetFault::partition_on_recovery(vec![vec![0], vec![99]], SimDuration::from_secs(5)));
    let err = p.validate().unwrap_err();
    assert!(err.to_string().contains("net fault 0"), "unexpected message: {err}");
}

/// Traffic within a group still flows, so a node in two groups would be
/// cut from its own group: the plan is rejected, naming the fault.
#[test]
fn overlapping_partition_groups_are_rejected() {
    let mut p = plan();
    let groups = vec![vec![0, 1], vec![2]];
    p.net_faults.push(NetFault::partition_on_recovery(groups, SimDuration::from_secs(5)));
    p.net_faults.push(NetFault::partition_on_recovery(
        vec![vec![0, 1], vec![1, 2]],
        SimDuration::from_secs(5),
    ));
    let err = p.validate().unwrap_err();
    assert!(matches!(err, CampaignError::InvalidPlan(_)));
    assert!(err.to_string().contains("net fault 1 lists node1 twice"), "unexpected message: {err}");
}

#[test]
fn degenerate_partition_is_rejected() {
    let mut p = plan();
    p.net_faults.push(NetFault::partition_on_recovery(vec![vec![0, 1]], SimDuration::from_secs(5)));
    assert!(matches!(p.validate(), Err(CampaignError::InvalidPlan(_))));
}

/// A malformed stopping rule is a programming error: the engine panics
/// before it runs anything.
fn adaptive_with(rule: StoppingRule) {
    Campaign::new(&plan()).seed(1).adaptive(&rule);
}

#[test]
#[should_panic(expected = "invalid stopping rule: half-width must be positive")]
fn zero_half_width_panics() {
    adaptive_with(StoppingRule::default().half_width(0.0));
}

#[test]
#[should_panic(expected = "invalid stopping rule: batch must be at least 1")]
fn zero_batch_panics() {
    adaptive_with(StoppingRule::default().batch(0));
}

#[test]
fn checked_execution_matches_unchecked() {
    let p = plan();
    let geometry = p.geometry();
    let snapshot = p.boot_snapshot();
    let checked = execute_warm_checked(&p, &geometry, &snapshot, 7).expect("run completes");
    let plain = ree_inject::execute_warm(&p, &geometry, &snapshot, 7);
    assert_eq!(checked, plain);
}

#[test]
fn campaign_error_displays() {
    let e = CampaignError::RunPanicked { seed: 42, message: "boom".into() };
    assert_eq!(e.to_string(), "run for seed 42 panicked: boom");
    let e = CampaignError::InvalidPlan("why".into());
    assert_eq!(e.to_string(), "invalid run plan: why");
}
