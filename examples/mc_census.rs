//! What a model check is made of: runs the benchmark's `mc_fork` op mix
//! — `model_check` under `McBounds::quick()`, alternating the SIGINT and
//! register presets, run seeds from 7 — and reports per op the executions
//! explored, branch nodes, pruned subtrees, forks, state digests (one
//! per branch node, pruned or expanded) and wall ms, beside the workers
//! the roots ran on (`ree_inject::effective_threads(None, ..)` of the
//! grid's `instants × max_targets` roots at most, the mean per op). Then, on the states each op's roots are cloned from (the base at
//! every activation instant), how many bytes one state digest's stream
//! holds, what the digest costs and what one `Running` clone costs. The
//! figures in `docs/bench/PR-25.md`, "Model-checker overhead, measured",
//! and the `mc_fork` entry of `docs/PERFORMANCE.md`, "Known next
//! bottlenecks", are this command's output.
//!
//! Run with: `cargo run --release --example mc_census -- --ops 140`

use ree_inject::effective_threads;
use ree_mc::hash::state_digest;
use ree_mc::presets::{two_node_register_plan, two_node_sigint_plan};
use ree_mc::{model_check, McBounds, McReport};
use std::hint::black_box;
use std::time::Instant;

/// Scenario seed of the benchmark's plans (`perfbench`'s `PLAN_SEED`).
const SCENARIO_SEED: u64 = 20020401;
const FIRST_RUN_SEED: u64 = 7;
/// Timings are the minimum over this many repetitions per state.
const REPEATS: usize = 5;

fn ops_from_args() -> Option<u64> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => Some(140),
        ["--ops", n] => n.parse().ok().filter(|&n| n > 0),
        _ => None,
    }
}

/// Minimum wall time of `f` over [`REPEATS`] calls, in µs.
fn min_us<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            let out = black_box(f());
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(out);
            us
        })
        .fold(f64::INFINITY, f64::min)
}

#[derive(Default)]
struct Sum {
    ops: u64,
    explored: u64,
    branch_nodes: u64,
    pruned: u64,
    forks: u64,
    workers: usize,
    ms: f64,
}

impl Sum {
    fn add(&mut self, r: &McReport, workers: usize, ms: f64) {
        self.ops += 1;
        self.workers += workers;
        self.explored += r.explored;
        self.branch_nodes += r.branch_nodes;
        self.pruned += r.pruned;
        self.forks += r.forks;
        self.ms += ms;
    }

    fn print(&self, label: &str) {
        let per = |n: u64| n as f64 / self.ops as f64;
        println!(
            "{label:<10} {:>9.1} {:>13.1} {:>7.1} {:>6.1} {:>8.1} {:>7.2} {:>7.1}",
            per(self.explored),
            per(self.branch_nodes),
            per(self.pruned),
            per(self.forks),
            per(self.branch_nodes + self.pruned),
            self.ms / self.ops as f64,
            per(self.workers as u64)
        );
    }
}

fn main() {
    let Some(ops) = ops_from_args() else {
        eprintln!("usage: mc_census [--ops N]");
        std::process::exit(2);
    };
    let plans = [
        ("sigint", two_node_sigint_plan(SCENARIO_SEED)),
        ("register", two_node_register_plan(SCENARIO_SEED)),
    ];
    let bounds = McBounds::quick();
    let (mut by_plan, mut all) = ([Sum::default(), Sum::default()], Sum::default());
    let (mut states, mut bytes, mut digest_us, mut clone_us) = (0u64, 0usize, 0.0, 0.0);
    for i in 0..ops {
        // `perfbench`'s op `i` of `mc_fork`.
        let (which, seed) = ((i % 2) as usize, FIRST_RUN_SEED + i / 2);
        let plan = &plans[which].1;
        let t = Instant::now();
        let report = model_check(plan, seed, &bounds);
        let ms = t.elapsed().as_secs_f64() * 1e3;

        let (_, snapshot) = plan.boot();
        let mut base = snapshot.fork(seed);
        for &instant in &report.instants {
            base.run_until(instant);
            let mut stream = Vec::new();
            base.cluster.write_state_digest(&mut stream);
            bytes += stream.len();
            digest_us += min_us(|| state_digest(&base.cluster));
            clone_us += min_us(|| base.clone());
            states += 1;
        }
        let workers = effective_threads(None, (report.instants.len() * bounds.max_targets) as u32);
        by_plan[which].add(&report, workers, ms);
        all.add(&report, workers, ms);
    }

    println!(
        "mc_fork op mix: model_check, quick bounds, two-node presets (scenario seed \
         {SCENARIO_SEED}), {ops} ops from run seed {FIRST_RUN_SEED}"
    );
    println!(
        "{:<10} {:>9} {:>13} {:>7} {:>6} {:>8} {:>7} {:>7}",
        "per op", "explored", "branch nodes", "pruned", "forks", "digests", "ms", "workers"
    );
    for (sum, (name, _)) in by_plan.iter().zip(&plans) {
        sum.print(name);
    }
    all.print("all");
    let per = |x: f64| x / states as f64;
    println!(
        "per state digest ({states} root states): {:.0} bytes, {:.2} us",
        per(bytes as f64),
        per(digest_us)
    );
    println!("per Running clone (same states): {:.2} us", per(clone_us));
}
