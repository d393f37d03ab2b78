//! `bench` — the repository's benchmark. See `README.md` beside this
//! package for the workloads, metrics and how to read the output.
//!
//! ```text
//! bench [--workload NAME] [--seed S] [--seconds T | --passes P] [--trace [0|1]]
//!       [--out FILE] [--smoke]
//! bench --compare A.json B.json
//! ```
//!
//! The driver re-executes itself as one fresh child process per
//! (workload, pass); `--child` is that internal mode.

use ree_perfbench::json::Json;
use ree_perfbench::pass::{self, PassResult, PassSpec};
use ree_perfbench::report::{self, Outcome};
use ree_perfbench::workloads::{self, Workload};
use ree_perfbench::{compare, host, layers};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Fewest passes a figure may rest on.
const MIN_PASSES: usize = 4;
/// Passes when neither `--passes` nor `--seconds` is given.
const DEFAULT_PASSES: usize = 12;
/// Ceiling when `--seconds` asks for more than the ops can fill.
const MAX_PASSES: usize = 32;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let entered = Instant::now();
    // A ree-dist supervisor spawn: become a worker and never return.
    ree_dist::run_worker_if_spawned();
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(&args, entered) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &Args, entered: Instant) -> Result<ExitCode, String> {
    if let Some(i) = args.0.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.0.get(i + 1), args.0.get(i + 2)) else {
            return Err("--compare needs two result files".into());
        };
        let bounds = args.value("--bounds").unwrap_or("BENCHMARK.json");
        return compare::run(a, b, bounds);
    }
    let seed = args.parsed::<u64>("--seed")?.unwrap_or(workloads::DEFAULT_SEED);
    let smoke = args.flag("--smoke");
    let workload = match args.value("--workload") {
        Some(name) => Some(Workload::parse(name).ok_or_else(|| {
            let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (one of {})", known.join(", "))
        })?),
        None if args.flag("--workload") => return Err("--workload needs a name".into()),
        None => None,
    };
    // `--trace`, `--trace 1` and `--trace 0` are all accepted.
    let trace = args.flag("--trace") && args.value("--trace") != Some("0");

    if args.flag("--child") {
        let spec = PassSpec {
            workload: workload.ok_or("--child needs --workload")?,
            seed,
            smoke,
            cross_check: args.flag("--cross-check"),
            traced: trace,
        };
        println!("{}", pass::run(&spec, entered).to_json().render());
        return Ok(ExitCode::SUCCESS);
    }

    let passes = args.parsed::<usize>("--passes")?;
    let seconds = args.parsed::<f64>("--seconds")?;
    if passes == Some(0) || seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--passes and --seconds must be positive".into());
    }
    let budget = match (passes, seconds) {
        (Some(p), _) => Budget::Passes(p),
        (None, Some(s)) => Budget::Seconds(s),
        (None, None) => Budget::Passes(if smoke { 1 } else { DEFAULT_PASSES }),
    };
    let workloads = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let run = Bench { seed, smoke, trace, budget, workloads };
    let outcome = run.execute(entered)?;
    if let Some(path) = args.value("--out") {
        std::fs::write(path, outcome.file.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    // The contract's result line: last on stdout, one workload's view.
    println!("{}", outcome.result_line.render());
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[derive(Clone, Copy)]
enum Budget {
    Passes(usize),
    /// Measure for this long per workload, in whole passes.
    Seconds(f64),
}

struct Bench {
    seed: u64,
    smoke: bool,
    trace: bool,
    budget: Budget,
    workloads: Vec<Workload>,
}

impl Bench {
    fn execute(&self, entered: Instant) -> Result<Outcome, String> {
        let nproc = host::nproc();
        // Layer probes run first, in this still-fresh process, so the
        // first-use costs they report are first uses.
        let layer_metrics = self.trace.then(|| layers::probe(self.seed, self.smoke, nproc));

        let mut runs: Vec<report::WorkloadRun> =
            self.workloads.iter().map(|&w| report::WorkloadRun::new(w)).collect();
        // Round-robin, so each workload's passes are spread over the
        // whole wall time and a slow spell taxes every workload alike.
        // A traced round follows each untraced one when tracing.
        let mut round = 0;
        loop {
            let round_began = Instant::now();
            for run in &mut runs {
                let first = round == 0;
                run.untraced.push(self.child(run.workload, false, first)?);
                if self.trace {
                    run.traced.push(self.child(run.workload, true, false)?);
                }
            }
            round += 1;
            let done = match self.budget {
                Budget::Passes(p) => round >= p,
                // Stop before the round that would not fit: the driver
                // budgets wall time per run, and an overshoot of a round
                // on each of its hundred-odd runs is time better spent
                // inside `--seconds`.
                Budget::Seconds(s) => {
                    let floor = if self.smoke || self.trace { 1 } else { MIN_PASSES };
                    let next_ends = entered.elapsed() + round_began.elapsed();
                    round >= MAX_PASSES
                        || (round >= floor && next_ends.as_secs_f64() > s * runs.len() as f64)
                }
            };
            if done {
                break;
            }
        }
        report::finish(self.seed, self.smoke, nproc, &runs, layer_metrics)
    }

    /// Runs one pass in a fresh child process and collects its report.
    fn child(&self, w: Workload, traced: bool, cross_check: bool) -> Result<PassResult, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--child", "--workload", w.name(), "--seed", &self.seed.to_string()]);
        if self.smoke {
            cmd.arg("--smoke");
        }
        if traced {
            cmd.arg("--trace");
        }
        if cross_check {
            cmd.arg("--cross-check");
        }
        // `output` reads the pipe to its end and waits for the child.
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run a {} pass: {e}", w.name()))?;
        if !out.status.success() {
            return Err(format!("{} pass exited with {}", w.name(), out.status));
        }
        let text = String::from_utf8(out.stdout).map_err(|_| "child wrote invalid UTF-8")?;
        let line = text.lines().last().ok_or("child wrote nothing")?;
        PassResult::from_json(&Json::parse(line)?)
            .ok_or_else(|| format!("{} pass wrote an unreadable report", w.name()))
    }
}
