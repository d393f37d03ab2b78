//! Regenerates the paper's tables and figures.
//!
//! Usage: `repro [--quick] [--seed N] [--workers N] [--chaos MODE]
//! <table1..table12|table4a|fig6..fig10|fig6a|partition|mc|mc-selftest|dist|dist-selftest|all>`
//! (default `all`). A flag without a usable value, an unknown flag, a
//! second target or an unknown target prints the usage line and exits 2.
//!
//! `table4a` and `fig6a` are the adaptive (confidence-targeted)
//! variants of table4 and fig6: each cell runs until its recovery-rate
//! Wilson interval meets the stopping-rule target instead of a fixed
//! run count. `partition` is the partition-during-recovery sweep
//! (recovery rate vs partition duration), also adaptive.
//!
//! `dist` runs the register sweep across `--workers N` supervised
//! worker subprocesses (optionally with `--chaos
//! kill|hang|corrupt|truncate|poison` self-injected at a seeded
//! instant) and byte-diffs the aggregate against the single-process
//! run, exiting non-zero on divergence. `dist-selftest` sweeps the full
//! 1/2/4-workers × chaos-mode matrix. The supervisor re-executes this
//! binary as its workers (`repro worker` describes the mechanism).

use ree_experiments::{
    dist, fig9, figures, mc, partition, table10, table11, table3, table4, table5, table6, table7,
    table8, Effort,
};
use std::sync::OnceLock;

/// What the flags select; every target runs under one of these.
struct Options {
    effort: Effort,
    seed: u64,
    workers: usize,
    chaos: Option<ree_dist::ChaosMode>,
}

/// Tables 8/9 are two renderings of one experiment, run once per
/// process (the options are fixed for its lifetime).
fn tables_8_9(o: &Options) -> &'static table8::Table8 {
    static RESULT: OnceLock<table8::Table8> = OnceLock::new();
    RESULT.get_or_init(|| table8::run(o.effort, o.seed))
}

/// Tables 11/12 likewise.
fn tables_11_12(o: &Options) -> &'static (table11::Table11, table11::Table12) {
    static RESULT: OnceLock<(table11::Table11, table11::Table12)> = OnceLock::new();
    RESULT.get_or_init(|| table11::run(o.effort, o.seed))
}

/// A target: its name, whether `all` runs it, and what it does.
type Target = (&'static str, bool, fn(&Options));

/// Every target. Dispatch, the `all` loop and the usage line are all
/// read off this table.
const TARGETS: &[Target] = &[
    ("table1", false, |_| {
        println!("Table 1 (application lifecycle) is demonstrated by `examples/quickstart.rs` and tests/lifecycle.rs;");
        println!("run `cargo run --example quickstart` to see the step-by-step trace.");
    }),
    ("table2", true, |_| {
        println!("Table 2: error models implemented in ree-inject::ErrorModel:");
        println!("  SIGINT        - clean crash (target terminates)");
        println!("  SIGSTOP       - clean hang (threads suspended)");
        println!("  Register      - bit flips until a failure is induced");
        println!("  Text segment  - bit flips until a failure is induced");
        println!("  Heap          - bit flips in allocated heap regions");
    }),
    ("table3", true, |o| print!("{}", table3::run(o.effort, o.seed).render())),
    ("table4", true, |o| print!("{}", table4::run(o.effort, o.seed).render())),
    ("table4a", true, |o| {
        print!("{}", table4::run_adaptive(&table4::adaptive_rule(o.effort), o.seed).render())
    }),
    ("table5", true, |o| print!("{}", table5::run(o.effort, o.seed).render())),
    ("table6", true, |o| print!("{}", table6::run(o.effort, o.seed).render())),
    ("table7", true, |o| print!("{}", table7::run(o.effort, o.seed).render())),
    ("table8", true, |o| print!("{}", tables_8_9(o).render_table8())),
    ("table9", true, |o| print!("{}", tables_8_9(o).render_table9())),
    ("table10", true, |o| print!("{}", table10::run(o.effort, o.seed).render())),
    ("table11", true, |o| print!("{}", tables_11_12(o).0.render())),
    ("table12", true, |o| print!("{}", tables_11_12(o).1.render())),
    ("fig6", true, |o| print!("{}", figures::fig6(o.effort, o.seed).render())),
    ("fig6a", true, |o| {
        print!("{}", figures::fig6_adaptive(&table4::adaptive_rule(o.effort), o.seed).render())
    }),
    ("fig7", true, |o| print!("{}", figures::fig7(o.effort, o.seed).render())),
    ("fig8", true, |o| print!("{}", figures::fig8(o.effort, o.seed).render())),
    ("fig9", true, |o| print!("{}", fig9::run(o.seed).render())),
    ("fig10", true, |o| print!("{}", figures::fig10(o.seed).render())),
    ("partition", true, |o| print!("{}", partition::run(o.effort, o.seed).render())),
    ("mc", false, |o| print!("{}", mc::run(o.effort, o.seed))),
    ("mc-selftest", false, |o| print!("{}", mc::selftest(o.effort, o.seed))),
    ("dist", false, |o| match dist::run_one(o.effort, o.seed, o.workers, o.chaos, None) {
        Ok(outcome) => {
            print!("{}", dist::render(&outcome));
            if !outcome.matches() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("distributed sweep failed: {e}");
            std::process::exit(1);
        }
    }),
    ("dist-selftest", false, |o| {
        let (rendered, all_ok) = dist::selftest(o.effort, o.seed, None);
        print!("{rendered}");
        if !all_ok {
            std::process::exit(1);
        }
    }),
];

/// Prints why the command line was rejected and the usage line; exits 2.
fn usage_error(why: &str) -> ! {
    let targets: Vec<&str> = TARGETS.iter().map(|(name, ..)| *name).collect();
    eprintln!("repro: {why}");
    eprintln!(
        "usage: repro [--quick] [--seed N] [--workers N] [--chaos MODE] <{}|all>",
        targets.join("|")
    );
    std::process::exit(2);
}

/// Parses the command line into the options and the target name.
fn parse_args(mut args: impl Iterator<Item = String>) -> (Options, String) {
    let mut options = Options { effort: Effort::Paper, seed: 20020401, workers: 4, chaos: None }; // CRHC-02-02, April 2002
    let mut target: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut value =
            |what: &str| args.next().unwrap_or_else(|| usage_error(&format!("{arg} needs {what}")));
        match arg.as_str() {
            "--quick" => options.effort = Effort::Quick,
            "--seed" => {
                let v = value("a number");
                options.seed =
                    v.parse().unwrap_or_else(|_| usage_error(&format!("bad --seed {v:?}")));
            }
            "--workers" => {
                let v = value("a positive number");
                options.workers = match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => usage_error(&format!("bad --workers {v:?}")),
                };
            }
            "--chaos" => {
                let v = value("a mode");
                let mode = ree_dist::ChaosMode::parse(&v).unwrap_or_else(|| {
                    usage_error(&format!(
                        "unknown --chaos mode {v:?} (kill|hang|corrupt|truncate|poison)"
                    ))
                });
                options.chaos = Some(mode);
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag}")),
            _ if target.is_some() => usage_error(&format!("unexpected second target {arg:?}")),
            _ => target = Some(arg),
        }
    }
    (options, target.unwrap_or_else(|| "all".to_owned()))
}

fn main() {
    // A supervisor spawn: become a worker and never return. Must run
    // before any argument parsing.
    ree_dist::run_worker_if_spawned();
    let (options, target) = parse_args(std::env::args().skip(1));
    match target.as_str() {
        "all" => {
            for (name, _, run) in TARGETS.iter().filter(|(_, in_all, _)| *in_all) {
                println!("==== {name} ====");
                run(&options);
                println!();
            }
        }
        "worker" => {
            eprintln!(
                "repro worker: workers are spawned by the supervisor (repro dist), which \
                 re-executes this binary with {}/{} set in the environment; they are not \
                 started by hand",
                ree_dist::worker::ENV_WORKER_ID,
                ree_dist::worker::ENV_INCARNATION,
            );
            std::process::exit(2);
        }
        name => match TARGETS.iter().find(|(n, ..)| *n == name) {
            Some((_, _, run)) => run(&options),
            None => usage_error(&format!("unknown experiment: {name}")),
        },
    }
}
