//! The tentpole acceptance tests: a distributed sweep's aggregate is
//! **byte-identical** to the single-process `Campaign::aggregate` — for
//! any worker count, and with every self-chaos mode (kill -9, hang,
//! frame corruption, frame truncation, poisoned run) fired mid-sweep.
//! Recovery is proven by equality, not by absence of crashes.

use ree_dist::{distribute, ChaosMode, ChaosPlan, DistOptions};
use ree_inject::{Aggregate, Campaign, ErrorModel, NetFault, RunPlan, Target};
use ree_sim::{SimDuration, SimTime};
use std::time::Duration;

fn plan() -> RunPlan {
    RunPlan {
        scenario: ree_apps::Scenario::single_texture(1),
        target: Target::App,
        model: ErrorModel::Register,
        timeout: SimTime::ZERO + SimDuration::from_secs(120),
        net_faults: Vec::new(),
    }
}

/// Test options: the dedicated worker binary, small batches so several
/// cross the failure, and tight (but debug-build-safe) timeouts.
fn options(workers: usize) -> DistOptions {
    let mut o = DistOptions::new(workers);
    o.batch = 4;
    o.stall_timeout = Duration::from_secs(2);
    o.batch_deadline = Duration::from_secs(60);
    o.backoff_base = Duration::from_millis(10);
    o.backoff_cap = Duration::from_millis(100);
    o.worker_cmd = Some(vec![env!("CARGO_BIN_EXE_ree-dist-worker").to_string()]);
    o
}

/// A plan naming an application outside the table never runs: the
/// supervisor refuses it up front, and a worker handed it anyway (a
/// supervisor that skipped validation) answers `PlanRejected` and then
/// refuses the batch instead of burning the simulated timeout per run.
#[test]
fn plan_naming_an_unknown_app_is_rejected_not_run() {
    use ree_dist::{decode_msg, encode_frame_msg, Decoder, DistError, Msg};
    use std::io::{Read, Write};
    use std::process::{Command, Stdio};

    let mut plan = plan();
    plan.scenario.jobs[0].app = "nope".into();
    match distribute(&plan, 8, 1, &options(1)) {
        Err(DistError::Plan(e)) => assert!(e.to_string().contains("nope"), "{e}"),
        other => panic!("expected a rejected plan, got {other:?}"),
    }

    let mut worker = Command::new(env!("CARGO_BIN_EXE_ree-dist-worker"))
        .env(ree_dist::worker::ENV_WORKER_ID, "0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("worker spawns");
    let mut stdin = worker.stdin.take().expect("stdin was piped");
    for msg in [
        Msg::Plan { plan: Box::new(plan) },
        Msg::Batch { batch: 0, seed0: 1, len: 4 },
        Msg::Shutdown,
    ] {
        stdin.write_all(&encode_frame_msg(&msg)).expect("worker reads");
    }
    drop(stdin);
    let mut bytes = Vec::new();
    worker.stdout.take().expect("stdout was piped").read_to_end(&mut bytes).expect("worker writes");
    worker.wait().expect("worker exits");
    let mut decoder = Decoder::new();
    decoder.feed(&bytes);
    let mut replies = Vec::new();
    while let Some(payload) = decoder.next_frame().expect("clean stream") {
        replies.push(decode_msg(&payload).expect("decodes"));
    }
    assert!(
        matches!(&replies[..], [Msg::PlanRejected { error }, Msg::BatchFailed { batch: 0, .. }]
            if error.contains("unknown application")),
        "unexpected replies: {replies:?}"
    );
}

fn expected(plan: &RunPlan, runs: u32, seed0: u64) -> Aggregate {
    Campaign::new(plan).runs(runs).seed(seed0).aggregate()
}

#[test]
fn clean_sweep_matches_single_process_for_any_worker_count() {
    let plan = plan();
    let (runs, seed0) = (40, 5);
    let want = expected(&plan, runs, seed0);
    for workers in [1, 2, 4] {
        let report = distribute(&plan, runs, seed0, &options(workers))
            .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert!(report.completed(), "{workers} workers: {:?}", report.warnings);
        assert_eq!(report.runs_folded, u64::from(runs));
        assert_eq!(report.aggregate, want, "{workers} workers diverged");
        assert!(!report.fell_back, "clean sweep must not fall back");
        assert_eq!(report.ledger.runs_done(), u64::from(runs));
    }
}

/// A plan carrying a network fault crosses the wire whole: the FTM/SIGINT
/// partition-during-recovery sweep over two workers folds to the
/// single-process aggregate, and differs from the same sweep without the
/// partition.
#[test]
fn partition_sweep_matches_single_process() {
    let plan = RunPlan {
        target: Target::Ftm,
        model: ErrorModel::Sigint,
        timeout: SimTime::from_secs(320),
        net_faults: vec![NetFault::partition_on_recovery(
            vec![vec![0, 1], vec![2, 3]],
            SimDuration::from_secs(2),
        )],
        ..plan()
    };
    let (runs, seed0) = (8, 11);
    let results = Campaign::new(&plan).runs(runs).seed(seed0).collect();
    assert!(results.iter().any(|r| r.net_faults_applied > 0), "no run imposed the partition");
    let report = distribute(&plan, runs, seed0, &options(2)).expect("sweep runs");
    assert!(report.completed(), "{:?}", report.warnings);
    assert!(!report.fell_back, "the workers must run the sweep");
    assert_eq!(report.aggregate, expected(&plan, runs, seed0));
    let unfaulted = RunPlan { net_faults: Vec::new(), ..plan.clone() };
    assert_ne!(report.aggregate, expected(&unfaulted, runs, seed0), "the partition was dropped");
}

/// `DistOptions` is total: `distribute` clamps zero workers to one and
/// `shard` a zero batch to one run, and an empty sweep folds nothing —
/// so the options need no `validate()`.
#[test]
fn zero_workers_zero_batch_and_zero_runs_complete() {
    let plan = plan();
    let mut o = options(1);
    (o.workers, o.batch) = (0, 0);
    for runs in [0, 5] {
        let report = distribute(&plan, runs, 3, &o).unwrap_or_else(|e| panic!("{runs} runs: {e}"));
        assert!(report.completed(), "{runs} runs: {:?}", report.warnings);
        assert_eq!(report.runs_folded, u64::from(runs));
        assert_eq!(report.aggregate, expected(&plan, runs, 3), "{runs} runs diverged");
    }
}

/// A seed range that crosses `u64::MAX` wraps to 0 in every scheduler —
/// threaded, and distributed with the wrap both between batches and
/// inside one — instead of panicking in debug and wrapping in release.
#[test]
fn seed_range_wraps_past_u64_max_identically_in_every_scheduler() {
    let plan = plan();
    let (runs, seed0) = (4, u64::MAX - 1);
    let seeds = [u64::MAX - 1, u64::MAX, 0, 1];
    let want = Aggregate::from_results(&seeds.map(|seed| ree_inject::execute(&plan, seed)));
    for threads in [1, 2] {
        let got = Campaign::new(&plan).runs(runs).seed(seed0).threads(threads).aggregate();
        assert_eq!(got, want, "{threads} threads diverged");
    }
    let mut o = options(2);
    o.batch = 3;
    let report = distribute(&plan, runs, seed0, &o).expect("sweep runs");
    assert!(report.completed(), "{:?}", report.warnings);
    assert_eq!(report.aggregate, want, "distributed sweep diverged");
}

/// Every chaos mode, fired mid-sweep on worker 0 of a pool of 1, 2 or 4,
/// must converge to the identical aggregate — and must actually have
/// hurt something (a vacuous chaos test proves nothing).
#[test]
fn every_chaos_mode_converges_to_the_identical_aggregate() {
    let plan = plan();
    let (runs, seed0) = (24, 11);
    let want = expected(&plan, runs, seed0);
    for workers in [1, 2, 4] {
        for mode in ChaosMode::ALL {
            let mut o = options(workers);
            o.chaos = Some(ChaosPlan { mode, victim: 0, after_runs: 1, incarnations: 1 });
            let cell = format!("{workers} workers, {mode}");
            let report =
                distribute(&plan, runs, seed0, &o).unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(report.completed(), "{cell}: incomplete ({:?})", report.warnings);
            assert_eq!(report.aggregate, want, "{cell} diverged from single-process");
            assert!(
                report.ledger.failures() >= 1,
                "{cell}: chaos never fired ({:?})",
                report.warnings
            );
            assert_eq!(report.ledger.quarantined(), 0, "{cell}: one failure must not quarantine");
        }
    }
}

/// A worker whose chaos survives its respawn (incarnations = 2) fails
/// twice and must be quarantined; the sweep still converges on the
/// remaining worker.
#[test]
fn twice_failing_worker_is_quarantined_and_sweep_converges() {
    let plan = plan();
    let (runs, seed0) = (16, 3);
    let want = expected(&plan, runs, seed0);
    let mut o = options(2);
    o.chaos = Some(ChaosPlan { mode: ChaosMode::Kill, victim: 0, after_runs: 0, incarnations: 2 });
    let report = distribute(&plan, runs, seed0, &o).expect("sweep runs");
    assert!(report.completed(), "{:?}", report.warnings);
    assert_eq!(report.aggregate, want);
    assert_eq!(report.ledger.quarantined(), 1, "{:?}", report.warnings);
    assert!(report.ledger.shard(0).quarantined);
    assert!(report.warnings.iter().any(|w| w.contains("quarantined")));
}

/// Losing the whole pool (a single worker that dies on every
/// incarnation) degrades to in-process execution — with a warning and
/// the identical aggregate.
#[test]
fn losing_every_worker_falls_back_in_process() {
    let plan = plan();
    let (runs, seed0) = (12, 21);
    let want = expected(&plan, runs, seed0);
    let mut o = options(1);
    o.chaos =
        Some(ChaosPlan { mode: ChaosMode::Kill, victim: 0, after_runs: 0, incarnations: u32::MAX });
    let report = distribute(&plan, runs, seed0, &o).expect("sweep runs");
    assert!(report.completed(), "{:?}", report.warnings);
    assert_eq!(report.aggregate, want, "fallback diverged");
    assert!(report.fell_back);
    assert!(report.ledger.fallback_runs >= 1);
    assert!(report.warnings.iter().any(|w| w.contains("falling back")), "{:?}", report.warnings);
}

/// A worker command with no program fails each spawn like a missing
/// binary: the worker is quarantined on its second failure and the sweep
/// runs in-process to the identical aggregate.
#[test]
fn an_empty_worker_command_falls_back_in_process() {
    let plan = plan();
    let (runs, seed0) = (8, 13);
    let mut o = options(1);
    o.worker_cmd = Some(Vec::new());
    let report = distribute(&plan, runs, seed0, &o).expect("sweep runs");
    assert!(report.completed(), "{:?}", report.warnings);
    assert!(report.fell_back);
    assert_eq!(report.aggregate, expected(&plan, runs, seed0));
    assert!(
        report.warnings.iter().any(|w| w.contains("empty worker command")),
        "{:?}",
        report.warnings
    );
}

/// An invalid plan is rejected up front with the typed campaign error —
/// no worker pool is ever spawned.
#[test]
fn invalid_plan_is_rejected_before_spawning() {
    let mut bad = plan();
    bad.timeout = SimTime::ZERO;
    let err = distribute(&bad, 8, 0, &options(2)).expect_err("must reject");
    assert!(err.to_string().contains("timeout"), "{err}");
}
