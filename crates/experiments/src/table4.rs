//! Table 4: SIGINT/SIGSTOP injection results (§5).
//!
//! 100 runs per target × {application, FTM, Execution ARMOR, Heartbeat
//! ARMOR} × {SIGINT, SIGSTOP}. The paper's headline: *every* injected
//! error was recovered; hang-model injections into the application cost
//! far more execution time than crash-model ones (detection through the
//! 20 s progress-indicator poll); SIFT-process recovery takes ~0.5–0.8 s.

use crate::effort::Effort;
use crate::fold::{fault_free_times, recoveries, timings};
use ree_apps::Scenario;
use ree_inject::{
    adaptive, Arm, ArmReport, Campaign, ErrorModel, RunPlan, RunResult, StoppingRule, Target,
};
use ree_sim::SimTime;
use ree_stats::{no_failure_upper_bound, Summary, TableBuilder};

/// One row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Error model.
    pub model: ErrorModel,
    /// Injection target.
    pub target: Target,
    /// Runs in which an error was injected (injection times falling
    /// after completion mean "no error injected").
    pub errors_injected: u64,
    /// Runs that recovered.
    pub successful_recoveries: u64,
    /// Perceived execution time.
    pub perceived: Summary,
    /// Actual execution time.
    pub actual: Summary,
    /// SIFT recovery time.
    pub recovery: Summary,
    /// Correlated failures observed (§5.2).
    pub correlated: u64,
}

/// Full Table 4 output.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Fault-free baseline (perceived/actual).
    pub baseline: (Summary, Summary),
    /// The eight injection rows.
    pub rows: Vec<Table4Row>,
    /// Total runs with injections (for the §5 probability bound).
    pub total_injected: u64,
}

impl Table4 {
    /// The §5 bound on unrecoverable-failure probability.
    pub fn failure_probability_bound(&self) -> f64 {
        no_failure_upper_bound(self.total_injected.max(1))
    }

    /// Renders the paper-shaped table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec![
            "TARGET",
            "ERRORS INJ.",
            "SUC. REC.",
            "PERCEIVED (s)",
            "ACTUAL (s)",
            "RECOVERY (s)",
            "CORRELATED",
        ])
        .with_title("Table 4: SIGINT/SIGSTOP injection results");
        t.row(vec![
            "Baseline (no injection)".into(),
            "-".into(),
            "-".into(),
            self.baseline.0.display_pm(),
            self.baseline.1.display_pm(),
            "-".into(),
            "-".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                format!("{} / {}", row.model, row.target),
                row.errors_injected.to_string(),
                row.successful_recoveries.to_string(),
                row.perceived.display_pm(),
                row.actual.display_pm(),
                row.recovery.display_pm(),
                row.correlated.to_string(),
            ]);
        }
        format!(
            "{}\nwith n = {} injected runs and zero unrecovered errors, p < {:.4}% (95% conf.)\n",
            t.render(),
            self.total_injected,
            self.failure_probability_bound() * 100.0
        )
    }
}

fn summarize(model: ErrorModel, target: Target, results: &[RunResult]) -> Table4Row {
    let injected = |r: &RunResult| r.injections > 0;
    let count = |pred: fn(&RunResult) -> bool| {
        results.iter().filter(|r| injected(r) && pred(r)).count() as u64
    };
    let (perceived, actual) = timings(results, 0, injected);
    Table4Row {
        model,
        target,
        errors_injected: count(|_| true),
        successful_recoveries: count(RunResult::recovered),
        perceived,
        actual,
        recovery: recoveries(results, injected),
        correlated: count(|r| r.correlated),
    }
}

/// Runs the Table 4 experiment.
pub fn run(effort: Effort, seed0: u64) -> Table4 {
    let runs = effort.scale(100);
    let baseline = fault_free_times(
        &Scenario::single_texture(0),
        (0..effort.scale(30)).map(|i| seed0 ^ 0xBA5E ^ i as u64),
        SimTime::from_secs(200),
    )
    .remove(0);
    let mut rows = Vec::new();
    let mut total_injected = 0;
    for model in [ErrorModel::Sigint, ErrorModel::Sigstop] {
        for target in [Target::App, Target::Ftm, Target::ExecArmor, Target::Heartbeat] {
            let plan = RunPlan {
                scenario: Scenario::single_texture(0),
                target: target.clone(),
                model: model.clone(),
                timeout: SimTime::from_secs(320),
                net_faults: vec![],
            };
            let results =
                Campaign::new(&plan).runs(runs).seed(seed0 ^ hash_pair(&model, &target)).collect();
            let row = summarize(model.clone(), target, &results);
            total_injected += row.errors_injected;
            rows.push(row);
        }
    }
    Table4 { baseline, rows, total_injected }
}

/// Table 4 under the adaptive engine: the same eight cells as [`run`],
/// but each cell stops as soon as its recovery-rate Wilson interval
/// meets the stopping rule's target instead of spending a fixed run
/// count.
#[derive(Debug, Clone)]
pub struct Table4Adaptive {
    /// One report per cell, in the fixed table's row order.
    pub rows: Vec<ArmReport>,
    /// The rule every cell ran under.
    pub rule: StoppingRule,
    /// Batch rounds the sweep took (scheduling-dependent).
    pub rounds: u32,
}

impl Table4Adaptive {
    /// Renders the per-cell spend next to what a fixed sweep would cost.
    pub fn render(&self) -> String {
        let mut t =
            TableBuilder::new(vec!["TARGET", "RUNS", "ERRORS INJ.", "RECOVERY RATE", "CI TARGET"])
                .with_title("Table 4 (adaptive): confidence-targeted SIGINT/SIGSTOP cells");
        for row in &self.rows {
            t.row(vec![
                row.label.clone(),
                row.runs.to_string(),
                row.aggregate.errors_injected.to_string(),
                row.display_rate(),
                if row.target_met { "met".into() } else { "budget exhausted".into() },
            ]);
        }
        let spent: u64 = self.rows.iter().map(|r| u64::from(r.runs)).sum();
        let fixed = u64::from(self.rule.max_runs) * self.rows.len() as u64;
        format!(
            "{}\ntarget ±{:.1}% at {:.0}% confidence; {} runs spent vs {} for a fixed sweep \
             ({} rounds)\n",
            t.render(),
            self.rule.half_width * 100.0,
            self.rule.confidence * 100.0,
            spent,
            fixed,
            self.rounds,
        )
    }
}

/// Runs the eight Table 4 cells as one adaptive sweep under `rule`,
/// reallocating each round's batches to the widest-interval cells.
pub fn run_adaptive(rule: &StoppingRule, seed0: u64) -> Table4Adaptive {
    let mut arms = Vec::new();
    for model in [ErrorModel::Sigint, ErrorModel::Sigstop] {
        for target in [Target::App, Target::Ftm, Target::ExecArmor, Target::Heartbeat] {
            let plan = RunPlan {
                scenario: Scenario::single_texture(0),
                target: target.clone(),
                model: model.clone(),
                timeout: SimTime::from_secs(320),
                net_faults: vec![],
            };
            arms.push(Arm::new(
                format!("{model} / {target}"),
                plan,
                seed0 ^ hash_pair(&model, &target),
            ));
        }
    }
    let report = adaptive::run_arms(&arms, rule);
    Table4Adaptive { rows: report.arms, rule: rule.clone(), rounds: report.rounds }
}

/// The stopping rule the `repro` binary uses for the adaptive table:
/// the paper-standard ±2%-at-95% target, scaled down (wider target,
/// smaller batches and budget) for `Effort::Quick` CI runs.
pub fn adaptive_rule(effort: Effort) -> StoppingRule {
    match effort {
        Effort::Paper => StoppingRule::default(),
        Effort::Quick => StoppingRule::default().half_width(0.08).batch(8).min_runs(8).max_runs(32),
    }
}

fn hash_pair(model: &ErrorModel, target: &Target) -> u64 {
    let mut h: u64 = 0x9E37_79B9;
    for b in format!("{model}{target}").bytes() {
        h = h.rotate_left(5) ^ b as u64;
    }
    h
}
