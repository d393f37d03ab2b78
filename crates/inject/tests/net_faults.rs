//! Network fault plans: triggers fire, faults heal, and campaigns with
//! partition faults stay byte-identical across worker counts and
//! warm-vs-cold boot — the determinism contract extends to the new
//! injection surface unchanged.

use ree_apps::Scenario;
use ree_inject::{
    execute, execute_full, execute_warm, Campaign, ErrorModel, NetFault, RunPlan, RunResult, Target,
};
use ree_sim::{SimDuration, SimTime};

const SEED0: u64 = 61_000;
const RUNS: u32 = 6;

/// The partition-during-recovery stressor on the 4-node testbed: the
/// SIFT side (nodes 0–1) severed from the application side (2–3) the
/// moment the injected FTM failure is detected.
fn partition_plan(duration_ms: u64) -> RunPlan {
    RunPlan {
        scenario: Scenario::single_texture(0),
        target: Target::Ftm,
        model: ErrorModel::Sigint,
        timeout: SimTime::from_secs(320),
        net_faults: vec![NetFault::partition_on_recovery(
            vec![vec![0, 1], vec![2, 3]],
            SimDuration::from_millis(duration_ms),
        )],
    }
}

#[test]
fn recovery_triggered_partition_fires_and_run_recovers() {
    let (result, env) = execute_full(&partition_plan(2_000), SEED0);
    assert!(result.injections > 0, "the SIGINT must be injected: {result:?}");
    assert_eq!(result.net_faults_applied, 1, "the partition must activate: {result:?}");
    assert!(result.recovered(), "the run must still recover after the heal: {result:?}");
    let rendered = env.cluster.trace().render();
    assert!(rendered.contains("net fault imposed"), "missing imposition trace");
    assert!(rendered.contains("net fault healed"), "missing heal trace");
}

#[test]
fn partition_campaign_identical_across_thread_counts() {
    let plan = partition_plan(2_000);
    let cold: Vec<RunResult> = (0..u64::from(RUNS)).map(|i| execute(&plan, SEED0 + i)).collect();
    let base = Campaign::new(&plan).runs(RUNS).seed(SEED0);
    let one = base.clone().threads(1).collect();
    let two = base.clone().threads(2).collect();
    let eight = base.clone().threads(8).collect();
    assert_eq!(cold, one, "partition campaign diverged from cold boots");
    assert_eq!(one, two);
    assert_eq!(one, eight);
    assert!(
        one.iter().any(|r| r.net_faults_applied > 0),
        "at least one run must impose the partition"
    );
}

#[test]
fn partition_runs_identical_warm_vs_cold() {
    let plan = partition_plan(5_000);
    let geometry = plan.geometry();
    let snapshot = plan.boot_snapshot();
    for i in 0..u64::from(RUNS) {
        let cold = execute(&plan, SEED0 + i);
        let warm = execute_warm(&plan, &geometry, &snapshot, SEED0 + i);
        assert_eq!(cold, warm, "seed {} diverged warm vs cold", SEED0 + i);
    }
}

#[test]
fn empty_fault_list_is_byte_identical_to_the_legacy_driver() {
    // `net_faults: vec![]` must be indistinguishable from plans that
    // predate the field: same results, same trace.
    let with_field = partition_plan(0);
    let plan = RunPlan { net_faults: vec![], ..with_field };
    let (result, env) = execute_full(&plan, SEED0 + 2);
    assert_eq!(result.net_faults_applied, 0);
    assert!(!env.cluster.trace().render().contains("net fault"), "no fault lines expected");
}
