//! What the event loop is made of: forks the booted `single_texture`
//! scenario, steps each fault-free run to completion one event at a time
//! and reports events per run by class, how many events wait in the
//! pending set when one fires, and events per simulated second. The
//! table in `docs/bench/PR-21.md`, "Event traffic, measured", is this
//! command's output.
//!
//! Run with: `cargo run --release --example event_census -- --runs 100`

use ree_apps::Scenario;
use ree_inject::{ErrorModel, RunPlan, Target};
use ree_sim::SimTime;
use std::collections::BTreeMap;

/// Scenario seed of the benchmark's plans (`perfbench`'s `PLAN_SEED`): the
/// run stepped here is the one its `os.events_per_run` counts.
const SCENARIO_SEED: u64 = 20020401;
const FIRST_RUN_SEED: u64 = 7;

fn runs_from_args() -> Option<u64> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => Some(100),
        ["--runs", n] => n.parse().ok().filter(|&n| n > 0),
        _ => None,
    }
}

fn main() {
    let Some(runs) = runs_from_args() else {
        eprintln!("usage: event_census [--runs N]");
        std::process::exit(2);
    };
    let plan = RunPlan {
        scenario: Scenario::single_texture(SCENARIO_SEED),
        target: Target::App,
        model: ErrorModel::Register,
        timeout: SimTime::from_secs(220),
        net_faults: Vec::new(),
    };
    let (_, snapshot) = plan.boot();

    let mut by_label: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut events, mut pending_sum, mut pending_max) = (0u64, 0u64, 0usize);
    let mut simulated_s = 0.0;
    for seed in FIRST_RUN_SEED..FIRST_RUN_SEED + runs {
        let mut running = snapshot.fork(seed);
        while !running.all_done() && running.cluster.now() < plan.timeout {
            // `step` fires the first of the ready set.
            let Some(label) = running.cluster.ready_label(0) else { break };
            let pending = running.cluster.pending_events();
            pending_sum += pending as u64;
            pending_max = pending_max.max(pending);
            *by_label.entry(label).or_default() += 1;
            running.cluster.step();
            events += 1;
        }
        simulated_s += running.cluster.now().since(snapshot.booted_to()).as_secs_f64();
    }

    let per_run = |n: u64| n as f64 / runs as f64;
    println!(
        "single_texture (scenario seed {SCENARIO_SEED}), fault-free, {runs} runs from seed {FIRST_RUN_SEED}"
    );
    println!("{:<12} {:>12} {:>8}", "event", "per run", "share");
    for (label, &n) in &by_label {
        println!("{label:<12} {:>12.1} {:>7.1}%", per_run(n), 100.0 * n as f64 / events as f64);
    }
    println!("{:<12} {:>12.1}", "all", per_run(events));
    println!(
        "pending when one fires: mean {:.1}, max {pending_max}",
        pending_sum as f64 / events as f64
    );
    println!(
        "simulated {:.1} s per run after boot, {:.1} events per simulated second",
        simulated_s / runs as f64,
        events as f64 / simulated_s
    );
}
