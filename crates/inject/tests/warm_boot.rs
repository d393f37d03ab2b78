//! Warm-boot equivalence: forking a shared boot snapshot must be
//! indistinguishable from booting cold, for every seed, at every worker
//! count.
//!
//! This is the proof obligation behind the warm-boot campaign
//! optimisation (the PR 5 analogue of PR 4's
//! `clean_activation_never_draws_from_the_rng`): a campaign's clean boot
//! is a pure function of the plan (never of the run seed), per-run
//! randomness enters only through the re-seeded streams at the snapshot
//! instant, and cloning the booted cluster is faithful — so
//! `execute_warm` ≡ `execute_full` byte-for-byte.

use ree_inject::{
    execute, execute_full, execute_warm, execute_warm_full, Campaign, ErrorModel, RunPlan,
    RunResult, Target,
};
use ree_sim::SimTime;

fn plan(model: ErrorModel, target: Target) -> RunPlan {
    RunPlan {
        scenario: ree_apps::Scenario::single_texture(0),
        target,
        model,
        timeout: SimTime::from_secs(320),
        net_faults: vec![],
    }
}

const SEED0: u64 = 52_000;
const RUNS: u32 = 6;

/// One snapshot must be shareable across campaign worker threads: the
/// whole live simulation is `Send + Sync` by construction. (A compile-
/// time fact, asserted so a future `Rc`/`RefCell` regression fails
/// here with a readable message instead of deep inside a campaign.)
#[test]
fn snapshot_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ree_apps::BootSnapshot>();
    assert_send_sync::<ree_apps::Running>();
    assert_send_sync::<RunPlan>();
}

/// Cold reference sweep: every run boots its own cluster.
fn cold_sweep(p: &RunPlan) -> Vec<RunResult> {
    (0..u64::from(RUNS)).map(|i| execute(p, SEED0 + i)).collect()
}

#[test]
fn warm_equals_cold_register_sweep() {
    let p = plan(ErrorModel::Register, Target::App);
    let geometry = p.geometry();
    let snapshot = p.boot_snapshot();
    let warm: Vec<RunResult> =
        (0..u64::from(RUNS)).map(|i| execute_warm(&p, &geometry, &snapshot, SEED0 + i)).collect();
    assert_eq!(cold_sweep(&p), warm, "register sweep must be byte-identical warm vs cold");
}

#[test]
fn warm_equals_cold_sigint_sweep() {
    let p = plan(ErrorModel::Sigint, Target::App);
    let geometry = p.geometry();
    let snapshot = p.boot_snapshot();
    let warm: Vec<RunResult> =
        (0..u64::from(RUNS)).map(|i| execute_warm(&p, &geometry, &snapshot, SEED0 + i)).collect();
    assert_eq!(cold_sweep(&p), warm, "sigint sweep must be byte-identical warm vs cold");
}

#[test]
fn warm_final_environment_trace_is_byte_identical_to_cold() {
    // Stronger than RunResult equality: the full rendered trace of the
    // finished environment — every delivery, injection, recovery, and
    // lifecycle line — must match between a cold boot and a fork.
    let p = plan(ErrorModel::Register, Target::Ftm);
    let geometry = p.geometry();
    let snapshot = p.boot_snapshot();
    for seed in [SEED0, SEED0 + 3] {
        let (cold_result, cold_env) = execute_full(&p, seed);
        let (warm_result, warm_env) = execute_warm_full(&p, &geometry, &snapshot, seed);
        assert_eq!(cold_result, warm_result);
        assert_eq!(
            cold_env.cluster.trace().render(),
            warm_env.cluster.trace().render(),
            "trace diverged for seed {seed}"
        );
    }
}

#[test]
fn campaigns_identical_across_thread_counts_and_to_cold() {
    // Campaigns fork from one shared snapshot; the results
    // must equal the per-run cold boots (and each other) at any worker
    // count — including the determinism fixture point that a campaign's
    // output is a pure function of (plan, seeds).
    for model in [ErrorModel::Register, ErrorModel::Sigint] {
        let p = plan(model, Target::App);
        let cold = cold_sweep(&p);
        let base = Campaign::new(&p).runs(RUNS).seed(SEED0);
        let one = base.clone().threads(1).collect();
        let two = base.clone().threads(2).collect();
        let eight = base.clone().threads(8).collect();
        assert_eq!(cold, one, "single-threaded warm campaign diverged from cold boots");
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }
}

#[test]
fn forking_never_mutates_the_snapshot() {
    // The snapshot is shared immutably across worker threads; forking —
    // in any order, any number of times — must not change what later
    // forks see. (This is what makes clean boot seed-independent: no
    // per-run stream state lives in the snapshot.)
    let p = plan(ErrorModel::Sigstop, Target::ExecArmor);
    let geometry = p.geometry();
    let snapshot = p.boot_snapshot();
    let forward: Vec<RunResult> =
        (0..u64::from(RUNS)).map(|i| execute_warm(&p, &geometry, &snapshot, SEED0 + i)).collect();
    let backward: Vec<RunResult> = (0..u64::from(RUNS))
        .rev()
        .map(|i| execute_warm(&p, &geometry, &snapshot, SEED0 + i))
        .collect();
    let backward: Vec<RunResult> = backward.into_iter().rev().collect();
    assert_eq!(forward, backward, "fork order must not matter");
}

#[test]
fn snapshot_boot_is_reproducible() {
    // Booting the same plan twice yields interchangeable snapshots.
    let p = plan(ErrorModel::Register, Target::Heartbeat);
    let geometry = p.geometry();
    let a = p.boot_snapshot();
    let b = p.boot_snapshot();
    assert_eq!(a.booted_to(), b.booted_to());
    for seed in [SEED0, SEED0 + 1] {
        assert_eq!(
            execute_warm(&p, &geometry, &a, seed),
            execute_warm(&p, &geometry, &b, seed),
            "independent boots must be interchangeable"
        );
    }
}

#[test]
fn scheduler_boot_matches_the_geometry_and_snapshot_pair() {
    // Schedulers fork what `RunPlan::boot` returns; the benchmark (and
    // the tests above) fork `geometry()` + `boot_snapshot()`. The two
    // must be interchangeable, or the measured path drifts from the
    // path campaigns run.
    for (model, target) in [(ErrorModel::Register, Target::App), (ErrorModel::Sigstop, Target::Ftm)]
    {
        let p = plan(model, target);
        let (boot_geometry, boot_snapshot) = p.boot();
        let (geometry, snapshot) = (p.geometry(), p.boot_snapshot());
        assert_eq!(boot_snapshot.booted_to(), snapshot.booted_to());
        assert_eq!(format!("{boot_geometry:?}"), format!("{geometry:?}"));
        for seed in SEED0..SEED0 + u64::from(RUNS) {
            assert_eq!(
                execute_warm(&p, &boot_geometry, &boot_snapshot, seed),
                execute_warm(&p, &geometry, &snapshot, seed),
                "boot() and geometry()+boot_snapshot() diverged for seed {seed}"
            );
        }
    }
}
