//! Distributed-sweep reproduction target: runs the paper's standard
//! register campaign across a supervised worker pool and **proves** the
//! aggregate byte-identical to the single-process `Campaign::aggregate`
//! — optionally with seeded self-chaos (worker kill/hang/frame
//! corruption) fired mid-sweep. The self-test sweeps the full
//! worker-count × chaos-mode matrix, applying the paper's own
//! experiment/verdict discipline to our campaign machinery.

use ree_dist::{distribute, ChaosMode, ChaosPlan, DistOptions, DistReport};
use ree_inject::{Aggregate, Campaign, ErrorModel, RunPlan, Target};
use ree_sim::SimTime;

use crate::Effort;

/// The paper's standard table campaign (texture on the 4-node testbed,
/// register error model) — the workload `perfbench` measures as
/// `app_register` (one process) and `pool_register` (this pool).
fn register_plan(seed: u64) -> RunPlan {
    RunPlan {
        scenario: ree_apps::Scenario::single_texture(seed),
        target: Target::App,
        model: ErrorModel::Register,
        timeout: SimTime::from_secs(220),
        net_faults: vec![],
    }
}

/// Supervisor options for the repro targets: defaults, plus the chaos
/// plan seeded from the campaign seed when a mode is requested.
///
/// `worker_cmd` of `None` self-re-executes the current binary — safe
/// for the `repro` binary (its `main` calls
/// [`ree_dist::run_worker_if_spawned`] first), but NOT for a test
/// harness, which would recursively run its own suite; tests must pass
/// an explicit worker command.
fn options(
    workers: usize,
    chaos: Option<ChaosMode>,
    seed: u64,
    runs: u32,
    worker_cmd: Option<Vec<String>>,
) -> DistOptions {
    let mut o = DistOptions::new(workers);
    // Size batches so every worker gets several (~4) even at quick
    // effort — a pool that clamps down to fewer workers than requested
    // would make the seeded chaos victim silently nonexistent.
    let target_batches = (workers as u32).saturating_mul(4).max(1);
    o.batch = runs.div_ceil(target_batches).clamp(1, 16);
    let batches = runs.div_ceil(o.batch).max(1) as usize;
    let effective_workers = workers.min(batches);
    o.chaos = chaos.map(|mode| ChaosPlan::seeded(mode, seed, effective_workers));
    o.worker_cmd = worker_cmd;
    o
}

/// Outcome of one distributed-vs-single-process comparison.
pub struct DistOutcome {
    /// The distributed sweep's report.
    pub report: DistReport,
    /// The single-process reference aggregate.
    pub expected: Aggregate,
    /// Requested worker count.
    pub workers: usize,
    /// Chaos mode fired, if any.
    pub chaos: Option<ChaosMode>,
}

impl DistOutcome {
    /// Byte-identical check: did the distributed aggregate match?
    pub fn matches(&self) -> bool {
        self.report.completed() && self.report.aggregate == self.expected
    }

    fn verdict(&self) -> &'static str {
        if self.matches() {
            "IDENTICAL"
        } else if self.report.interrupted {
            "INTERRUPTED"
        } else {
            "DIVERGED"
        }
    }
}

/// Runs the register sweep distributed and single-process and compares.
///
/// `worker_cmd` of `None` self-re-executes the current binary — safe
/// only for binaries that call [`ree_dist::run_worker_if_spawned`]
/// first (never a test harness); tests must pass an explicit command.
pub fn run_one(
    effort: Effort,
    seed: u64,
    workers: usize,
    chaos: Option<ChaosMode>,
    worker_cmd: Option<Vec<String>>,
) -> Result<DistOutcome, ree_dist::DistError> {
    let plan = register_plan(seed);
    let runs = effort.scale(512);
    let report = distribute(&plan, runs, seed, &options(workers, chaos, seed, runs, worker_cmd))?;
    let expected = Campaign::new(&plan).runs(runs).seed(seed).aggregate();
    Ok(DistOutcome { report, expected, workers, chaos })
}

/// Renders one outcome: the equivalence verdict, the partial-progress
/// marker when interrupted, supervision warnings, and the shard ledger.
pub fn render(outcome: &DistOutcome) -> String {
    let mut out = String::new();
    let chaos = outcome.chaos.map_or("none".to_owned(), |m| m.to_string());
    let r = &outcome.report;
    out.push_str(&format!(
        "distributed register sweep: {} workers, chaos {chaos}\n",
        outcome.workers
    ));
    if r.interrupted {
        out.push_str(&format!(
            "INTERRUPTED after {}/{} runs — partial seed-prefix aggregate below\n",
            r.runs_folded, r.runs_total
        ));
    }
    for w in &r.warnings {
        out.push_str(&format!("  [supervisor] {w}\n"));
    }
    out.push_str(&r.ledger.render());
    out.push_str(&format!(
        "aggregate vs single-process: {} ({} recoveries / {} injected over {} runs)\n",
        outcome.verdict(),
        r.aggregate.successful_recoveries,
        r.aggregate.errors_injected,
        r.runs_folded,
    ));
    // Full deterministic dump: the byte-diffable form the CI chaos job
    // compares across double runs (the ledger above carries wall-clock
    // timings and scheduling detail, so it is excluded from the diff).
    out.push_str(&format!("aggregate = {:?}\n", r.aggregate));
    out
}

/// The chaos self-test matrix: 1/2/4 workers × {clean, kill, hang,
/// corrupt, truncate, poison}, each pinned byte-identical to the
/// single-process aggregate. Returns the rendered table and whether
/// **every** cell matched.
pub fn selftest(effort: Effort, seed: u64, worker_cmd: Option<Vec<String>>) -> (String, bool) {
    let plan = register_plan(seed);
    let runs = effort.scale(256);
    let expected = Campaign::new(&plan).runs(runs).seed(seed).aggregate();
    let mut table = ree_stats::TableBuilder::new(vec!["WORKERS", "CHAOS", "VERDICT", "DETAIL"]);
    let mut all_ok = true;
    for workers in [1usize, 2, 4] {
        let modes = std::iter::once(None).chain(ChaosMode::ALL.into_iter().map(Some));
        for chaos in modes {
            let label = chaos.map_or("none".to_owned(), |m| m.to_string());
            let opts = options(workers, chaos, seed, runs, worker_cmd.clone());
            let (verdict, detail) = match distribute(&plan, runs, seed, &opts) {
                // A chaos cell that never hurt anything proves
                // nothing: require a recorded failure.
                Ok(report)
                    if chaos.is_some()
                        && report.ledger.failures() == 0
                        && report.completed()
                        && report.aggregate == expected =>
                {
                    all_ok = false;
                    ("VACUOUS".to_owned(), "chaos never fired".to_owned())
                }
                Ok(report) if report.completed() && report.aggregate == expected => (
                    "IDENTICAL".to_owned(),
                    format!(
                        "{} runs, {} requeued, {} fallback",
                        report.runs_folded, report.ledger.requeued, report.ledger.fallback_runs
                    ),
                ),
                Ok(report) => {
                    all_ok = false;
                    (
                        "DIVERGED".to_owned(),
                        format!("folded {}/{} runs", report.runs_folded, report.runs_total),
                    )
                }
                Err(e) => {
                    all_ok = false;
                    ("ERROR".to_owned(), e.to_string())
                }
            };
            table.row(vec![workers.to_string(), label, verdict, detail]);
        }
    }
    let mut out = table.render();
    out.push_str(if all_ok {
        "chaos self-test: every cell byte-identical to the single-process aggregate\n"
    } else {
        "chaos self-test: DIVERGENCE DETECTED\n"
    });
    (out, all_ok)
}
