//! Pins the rendered trace of a grid of injection runs by digest.
//!
//! `trace_snapshot.rs` keeps three whole traces; this keeps one line —
//! record count and FNV-1a-64 of `trace().render()` — for each of 224
//! `(plan, seed)` pairs, so a sentence that only a recovery path, a
//! second application or a routed topology ever logs is pinned too:
//! every SIFT target × every error model on the 4-node testbed, the FTM
//! crash with a partition on recovery, the two-application setup and the
//! image pipeline. The fixture was generated while `ree_os::TraceDetail`
//! still typed every SIFT/ARMOR/MPI/application sentence, and passed
//! unchanged when those 34 variants became `format!`s at their emit
//! sites.
//!
//! Regenerate with `REGEN_TRACE_DIGESTS=1 cargo test -p ree-inject
//! --test trace_grid` after an *intentional* trace wording change.
//!
//! `cargo test --release -p ree-inject --test trace_grid -- --ignored
//! --nocapture` prints the record-shape census quoted in
//! `docs/PERFORMANCE.md`.

use ree_apps::Scenario;
use ree_inject::{execute_warm_full, ErrorModel, NetFault, RunPlan, Target};
use ree_os::{HeapTarget, TraceDetail};
use ree_sim::{Fnv64, SimDuration, SimTime};
use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::PathBuf;

/// Eight run seeds per plan. This window is the one in which the grid
/// reaches 26 of the 34 moved sentences: "SCC resubmitting slot" needs
/// seed 23 (FTM crashes) and "reloading image from disk" seed 24
/// (`exec/register`).
const SEEDS: std::ops::Range<u64> = 17..25;

fn plan(scenario: Scenario, target: Target, model: ErrorModel, timeout_s: u64) -> RunPlan {
    RunPlan { scenario, target, model, timeout: SimTime::from_secs(timeout_s), net_faults: vec![] }
}

fn ftm_partition() -> RunPlan {
    let mut p = plan(Scenario::single_texture(0), Target::Ftm, ErrorModel::Sigint, 320);
    p.net_faults = vec![NetFault::partition_on_recovery(
        vec![vec![0, 1], vec![2, 3]],
        SimDuration::from_secs(2),
    )];
    p
}

/// The pinned grid, labelled.
fn grid() -> Vec<(String, RunPlan)> {
    let mut plans = Vec::new();
    for (t, target) in [
        ("app", Target::App),
        ("ftm", Target::Ftm),
        ("exec", Target::ExecArmor),
        ("heartbeat", Target::Heartbeat),
    ] {
        for (m, model) in [
            ("sigint", ErrorModel::Sigint),
            ("sigstop", ErrorModel::Sigstop),
            ("register", ErrorModel::Register),
            ("text", ErrorModel::TextSegment),
            ("heap", ErrorModel::Heap),
            ("heap1", ErrorModel::HeapSingle(HeapTarget::DataOnly)),
        ] {
            let p = plan(Scenario::single_texture(0), target.clone(), model, 400);
            plans.push((format!("{t}/{m}"), p));
        }
    }
    plans.push(("ftm/sigint+partition".into(), ftm_partition()));
    for (m, model) in [("sigstop", ErrorModel::Sigstop), ("text", ErrorModel::TextSegment)] {
        let p = plan(Scenario::two_apps(0), Target::AnyArmor, model, 700);
        plans.push((format!("two-apps/any-armor/{m}"), p));
    }
    let pipeline = plan(Scenario::image_pipeline(0), Target::App, ErrorModel::Sigint, 320);
    plans.push(("pipeline/app/sigint".into(), pipeline));
    plans
}

fn fnv1a64(text: &str) -> u64 {
    let mut h = Fnv64::default();
    h.write(text.as_bytes());
    h.finish()
}

#[test]
fn rendered_traces_match_their_pinned_digests() {
    let mut rendered = String::new();
    for (label, plan) in grid() {
        let (geometry, snapshot) = plan.boot();
        for seed in SEEDS {
            let (_result, running) = execute_warm_full(&plan, &geometry, &snapshot, seed);
            let trace = running.cluster.trace();
            let digest = fnv1a64(&trace.render());
            writeln!(rendered, "{label} seed={seed} records={} fnv1a={digest:016x}", trace.len())
                .unwrap();
        }
    }
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/trace_digests_v1.txt");
    if std::env::var_os("REGEN_TRACE_DIGESTS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
    for (want, got) in expected.lines().zip(rendered.lines()) {
        assert_eq!(got, want, "rendered trace changed (first divergent line shown)");
    }
    assert_eq!(rendered.lines().count(), expected.lines().count(), "grid size changed");
}

/// The traffic census behind `TraceDetail`'s shape: how many records a
/// run stores and which share of them the OS's own typed shapes carry.
#[test]
#[ignore = "prints a table; run with --ignored --nocapture"]
fn record_shape_census() {
    let seeds = 40u64;
    let two_apps = plan(Scenario::two_apps(0), Target::AnyArmor, ErrorModel::Sigstop, 700);
    let plans = [
        ("app/register", plan(Scenario::single_texture(0), Target::App, ErrorModel::Register, 400)),
        ("ftm/sigint+partition", ftm_partition()),
        ("ftm/heap", plan(Scenario::single_texture(0), Target::Ftm, ErrorModel::Heap, 400)),
        (
            "exec/text",
            plan(Scenario::single_texture(0), Target::ExecArmor, ErrorModel::TextSegment, 400),
        ),
        ("two-apps/any-armor/sigstop", two_apps),
        (
            "pipeline/app/sigint",
            plan(Scenario::image_pipeline(0), Target::App, ErrorModel::Sigint, 320),
        ),
    ];
    println!("| plan | records/run | `Deliver` | OS-typed | `Static`/`Custom` per run |");
    println!("|---|---:|---:|---:|---:|");
    for (label, plan) in plans {
        let (geometry, snapshot) = plan.boot();
        let (mut records, mut deliver, mut text) = (0u64, 0u64, 0u64);
        for seed in 0..seeds {
            let (_result, running) = execute_warm_full(&plan, &geometry, &snapshot, seed);
            for r in running.cluster.trace().records() {
                records += 1;
                match r.detail {
                    TraceDetail::Static(_) | TraceDetail::Custom(_) => text += 1,
                    _ if r.detail.to_string().starts_with("deliver ") => deliver += 1,
                    _ => {}
                }
            }
        }
        let pct = |n: u64| 100.0 * n as f64 / records as f64;
        println!(
            "| `{label}` | {:.0} | {:.1} % | {:.1} % | {:.1} ({:.1} %) |",
            records as f64 / seeds as f64,
            pct(deliver),
            pct(records - text),
            text as f64 / seeds as f64,
            pct(text),
        );
    }
}
