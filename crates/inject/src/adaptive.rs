//! Adaptive confidence-targeted campaigns: many `(RunPlan, seed-range)`
//! arms driven concurrently in batches, each arm stopping as soon as
//! the Wilson confidence interval around its key proportion is tight —
//! "every cell to ±2% at 95%" instead of "512 runs per cell".
//!
//! # Determinism contract
//!
//! An arm's reported results are a **pure function of `(plan, seed0,
//! rule)`** — independent of the worker-thread count, of the other
//! arms in the sweep, and of scheduling order. The engine guarantees
//! this by construction:
//!
//! * an arm consumes seeds `seed0, seed0+1, …` strictly in order, and
//!   its aggregate is folded in seed order;
//! * the stopping rule is evaluated at **every batch boundary** (every
//!   `rule.batch` runs, plus the budget edge `rule.max_runs`), never at
//!   scheduler-dependent instants;
//! * an arm stops at the *first* qualifying boundary where the rule is
//!   satisfied. If the scheduler optimistically executed runs past that
//!   boundary in the same round, they are discarded, not reported.
//!
//! What *is* scheduling-dependent — how many optimistic runs were
//! executed and how many rounds the sweep took — is reported separately
//! on [`AdaptiveReport`] and excluded from the per-arm results.
//!
//! # Reallocation
//!
//! Each round grants every live arm one batch (progress guarantee) and
//! hands the remaining round budget to the arms with the **widest**
//! current intervals, so runs drain toward high-variance cells exactly
//! as Atanassov's adaptive situational-analysis sweeps allocate
//! samples. Arms whose interval is already tight (or whose budget is
//! exhausted) stop and release their boot snapshot; snapshots are
//! booted lazily on an arm's first scheduled batch, so at most the
//! currently-live arms keep snapshots resident.

use crate::builder::{default_threads, run_ordered};
use crate::campaign::Aggregate;
use crate::error::CampaignError;
use crate::runner::{execute_warm, RunGeometry, RunPlan, RunResult};
use ree_apps::BootSnapshot;
use ree_stats::Proportion;
use std::sync::Arc;

/// Which campaign proportion the stopping rule targets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CiMetric {
    /// Successful recoveries out of injected runs (the paper's headline
    /// rate — near 1 for the SIFT processes, so intervals tighten fast).
    #[default]
    RecoveryRate,
    /// Induced failures out of injected runs.
    FailureRate,
}

impl CiMetric {
    /// Extracts the targeted proportion from an aggregate. Trials are
    /// the injected runs: a run whose sampled injection instant fell
    /// after completion carries no evidence about the rate.
    pub fn proportion(&self, agg: &Aggregate) -> Proportion {
        let trials = agg.errors_injected;
        let successes = match self {
            CiMetric::RecoveryRate => agg.successful_recoveries,
            CiMetric::FailureRate => agg.failures,
        };
        // Clamp defensively: `Proportion::new` rejects k > n, and the
        // classifier can in pathological edge cases attribute an
        // induced failure to a run whose flip was never counted.
        Proportion::new(successes.min(trials), trials)
    }
}

/// When to stop an adaptive arm.
///
/// The rule is satisfied at the first batch boundary (a multiple of
/// [`batch`](StoppingRule::batch), at least
/// [`min_runs`](StoppingRule::min_runs)) where the Wilson interval
/// half-width of the targeted proportion is at most
/// [`half_width`](StoppingRule::half_width); the arm unconditionally
/// stops once [`max_runs`](StoppingRule::max_runs) seeds are spent.
///
/// # Examples
///
/// ```
/// use ree_inject::StoppingRule;
/// // "±2% at 95% on the recovery rate, in batches of 32, cap 512" —
/// // the defaults, spelled out.
/// let rule = StoppingRule::default()
///     .half_width(0.02)
///     .confidence(0.95)
///     .batch(32)
///     .max_runs(512);
/// assert_eq!(rule.batch, 32);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StoppingRule {
    /// The proportion the interval targets.
    pub metric: CiMetric,
    /// Two-sided confidence level of the Wilson interval.
    pub confidence: f64,
    /// Target half-width ("± this much") of the interval.
    pub half_width: f64,
    /// Batch granularity: the rule is evaluated every `batch` runs.
    pub batch: u32,
    /// Runs an arm must spend before the target can stop it (budget
    /// exhaustion still applies below this).
    pub min_runs: u32,
    /// Hard per-arm run budget.
    pub max_runs: u32,
}

impl Default for StoppingRule {
    /// ±2% at 95% confidence on the recovery rate, batches of 32, at
    /// least 32 and at most 512 runs — the paper's fixed table size as
    /// the budget ceiling.
    fn default() -> Self {
        StoppingRule {
            metric: CiMetric::RecoveryRate,
            confidence: 0.95,
            half_width: 0.02,
            batch: 32,
            min_runs: 32,
            max_runs: 512,
        }
    }
}

impl StoppingRule {
    /// Sets the targeted metric.
    pub fn metric(mut self, metric: CiMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the confidence level (e.g. `0.95`).
    pub fn confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Sets the target interval half-width (e.g. `0.02` for ±2%).
    pub fn half_width(mut self, half_width: f64) -> Self {
        self.half_width = half_width;
        self
    }

    /// Sets the batch granularity.
    pub fn batch(mut self, batch: u32) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the minimum runs before the target can stop an arm.
    pub fn min_runs(mut self, min_runs: u32) -> Self {
        self.min_runs = min_runs;
        self
    }

    /// Sets the hard per-arm run budget.
    pub fn max_runs(mut self, max_runs: u32) -> Self {
        self.max_runs = max_runs;
        self
    }

    /// Is the target met by this aggregate?
    pub fn satisfied_by(&self, agg: &Aggregate) -> bool {
        self.metric.proportion(agg).wilson_half_width(self.confidence) <= self.half_width
    }

    /// Checks the rule's structural invariants, reporting a typed
    /// [`CampaignError`] instead of panicking — the form a distributed
    /// supervisor wants at the trust boundary, where a malformed rule
    /// must become an error frame rather than a dead worker.
    pub fn try_validate(&self) -> Result<(), CampaignError> {
        let bad = |why: &str| Err(CampaignError::InvalidRule(why.to_owned()));
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return bad("confidence must be in (0,1)");
        }
        if self.half_width.is_nan() || self.half_width <= 0.0 {
            return bad("half-width must be positive");
        }
        if self.batch < 1 {
            return bad("batch must be at least 1");
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// One sweep arm: a labelled `(RunPlan, seed-range)` cell.
#[derive(Clone, Debug)]
pub struct Arm {
    /// Cell label carried into the report (e.g. `"SIGINT / app"`).
    pub label: String,
    /// The plan every run of this arm executes.
    pub plan: RunPlan,
    /// First seed; the arm's run `i` uses `seed0 + i`.
    pub seed0: u64,
}

impl Arm {
    /// Creates a labelled arm.
    pub fn new(label: impl Into<String>, plan: RunPlan, seed0: u64) -> Self {
        Arm { label: label.into(), plan, seed0 }
    }
}

/// What one arm spent and concluded. Deterministic for a given
/// `(plan, seed0, rule)` — see the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct ArmReport {
    /// The arm's label.
    pub label: String,
    /// The arm's first seed.
    pub seed0: u64,
    /// Runs reported (seeds `seed0 .. seed0 + runs` in order).
    pub runs: u32,
    /// Did the arm reach the interval target (vs exhausting its
    /// budget)?
    pub target_met: bool,
    /// Aggregate over exactly the reported runs.
    pub aggregate: Aggregate,
    /// The targeted proportion at stop time.
    pub proportion: Proportion,
    /// Achieved Wilson half-width at the rule's confidence.
    pub half_width: f64,
}

impl ArmReport {
    /// `point ± half-width` of the targeted proportion, in percent.
    pub fn display_rate(&self) -> String {
        format!("{:.1}% ± {:.1}%", self.proportion.point() * 100.0, self.half_width * 100.0)
    }
}

/// Sweep-level outcome: per-arm reports plus scheduling statistics.
#[derive(Clone, Debug)]
pub struct AdaptiveReport {
    /// One report per arm, in input order. Deterministic.
    pub arms: Vec<ArmReport>,
    /// Batch rounds the sweep took. Scheduling-dependent (thread count
    /// changes it) — excluded from the determinism contract.
    pub rounds: u32,
    /// Runs actually executed, including optimistic runs past a stop
    /// boundary that were discarded. Scheduling-dependent.
    pub runs_executed: u64,
}

/// Per-arm engine state. The boot snapshot is created lazily on the
/// arm's first scheduled batch and dropped as soon as the arm stops, so
/// resident snapshots are bounded by the live arms.
struct ArmState {
    agg: Aggregate,
    folded: u32,
    stopped: bool,
    target_met: bool,
    boot: Option<Arc<(RunGeometry, BootSnapshot)>>,
}

/// One scheduled chunk: `len` runs of arm `arm` starting at seed offset
/// `start` (arm-local).
struct Task {
    arm: usize,
    start: u32,
    len: u32,
    boot: Arc<(RunGeometry, BootSnapshot)>,
}

/// Runs an adaptive sweep over `arms` with automatic thread selection.
/// See the module docs for the stopping and determinism semantics.
pub fn run_arms(arms: &[Arm], rule: &StoppingRule) -> AdaptiveReport {
    run_arms_with_threads(arms, rule, None)
}

/// [`run_arms`] with an explicit worker-thread count. The per-arm
/// reports are identical for every `threads` value (including 1); only
/// the scheduling statistics differ.
pub fn run_arms_with_threads(
    arms: &[Arm],
    rule: &StoppingRule,
    threads: Option<usize>,
) -> AdaptiveReport {
    rule.validate();
    let threads = threads.unwrap_or_else(default_threads).max(1);
    let mut states: Vec<ArmState> = arms
        .iter()
        .map(|_| ArmState {
            agg: Aggregate::default(),
            folded: 0,
            stopped: false,
            target_met: false,
            boot: None,
        })
        .collect();
    let mut rounds = 0u32;
    let mut runs_executed = 0u64;

    loop {
        // Retire arms with no budget left (covers `max_runs == 0`).
        for s in states.iter_mut().filter(|s| !s.stopped) {
            if s.folded >= rule.max_runs {
                s.stopped = true;
                s.target_met = rule.satisfied_by(&s.agg);
                s.boot = None;
            }
        }
        let live: Vec<usize> = (0..arms.len()).filter(|&i| !states[i].stopped).collect();
        if live.is_empty() {
            break;
        }
        rounds += 1;

        // Allocate this round's batches: one per live arm, then the
        // rest of the round budget to the widest intervals (ties broken
        // by arm index, so allocation itself is deterministic too).
        let round_chunks = live.len().max(threads);
        let mut alloc = vec![0u32; arms.len()];
        let chunk_cap = |i: usize| {
            let remaining = rule.max_runs - states[i].folded;
            remaining.div_ceil(rule.batch)
        };
        for &i in &live {
            alloc[i] = chunk_cap(i).min(1);
        }
        let mut extras = round_chunks.saturating_sub(live.len());
        if extras > 0 {
            let mut order: Vec<usize> = live.clone();
            order.sort_by(|&a, &b| {
                let wa = rule.metric.proportion(&states[a].agg).wilson_half_width(rule.confidence);
                let wb = rule.metric.proportion(&states[b].agg).wilson_half_width(rule.confidence);
                wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
            });
            'grant: loop {
                let mut granted_any = false;
                for &i in &order {
                    if extras == 0 {
                        break 'grant;
                    }
                    if alloc[i] < chunk_cap(i) {
                        alloc[i] += 1;
                        extras -= 1;
                        granted_any = true;
                    }
                }
                if !granted_any {
                    break;
                }
            }
        }

        // Boot lazily: only arms actually scheduled this round pay for
        // (and hold) a snapshot.
        for &i in &live {
            if alloc[i] > 0 && states[i].boot.is_none() {
                states[i].boot = Some(Arc::new(arms[i].plan.boot()));
            }
        }

        // Build the round's task list in (arm, offset) order.
        let mut tasks: Vec<Task> = Vec::new();
        for &i in &live {
            let boot = states[i].boot.as_ref().expect("scheduled arm is booted").clone();
            for k in 0..alloc[i] {
                let start = states[i].folded + k * rule.batch;
                let len = rule.batch.min(rule.max_runs - start);
                if len == 0 {
                    break;
                }
                tasks.push(Task { arm: i, start, len, boot: boot.clone() });
            }
        }

        let chunk_results = execute_round(arms, &tasks, threads);
        runs_executed += chunk_results.iter().map(|c| c.len() as u64).sum::<u64>();

        // Fold per arm in seed order, checking the rule at every batch
        // boundary; results past the first satisfied boundary are
        // discarded (see the determinism contract).
        for (task, results) in tasks.iter().zip(chunk_results) {
            let s = &mut states[task.arm];
            if s.stopped {
                continue;
            }
            debug_assert_eq!(task.start, s.folded, "chunks fold in seed order");
            for r in results {
                s.agg.accept(&r);
                s.folded += 1;
                let at_boundary = s.folded.is_multiple_of(rule.batch) || s.folded == rule.max_runs;
                if at_boundary && s.folded >= rule.min_runs && rule.satisfied_by(&s.agg) {
                    s.stopped = true;
                    s.target_met = true;
                    s.boot = None;
                    break;
                }
            }
        }
    }

    let arms_out = arms
        .iter()
        .zip(&states)
        .map(|(arm, s)| {
            let proportion = rule.metric.proportion(&s.agg);
            ArmReport {
                label: arm.label.clone(),
                seed0: arm.seed0,
                runs: s.folded,
                target_met: s.target_met,
                aggregate: s.agg.clone(),
                proportion,
                half_width: proportion.wilson_half_width(rule.confidence),
            }
        })
        .collect();
    AdaptiveReport { arms: arms_out, rounds, runs_executed }
}

/// Executes one round's chunks across `threads` workers, returning each
/// chunk's results in task order. Within a chunk, runs execute (and are
/// returned) in seed order.
fn execute_round(arms: &[Arm], tasks: &[Task], threads: usize) -> Vec<Vec<RunResult>> {
    let run_chunk = |task: &Task| -> Vec<RunResult> {
        let (geometry, snapshot) = &*task.boot;
        let arm = &arms[task.arm];
        (0..u64::from(task.len))
            .map(|j| {
                let seed = arm.seed0.wrapping_add(u64::from(task.start) + j);
                execute_warm(&arm.plan, geometry, snapshot, seed)
            })
            .collect()
    };
    let mut out = Vec::with_capacity(tasks.len());
    run_ordered(
        tasks.len() as u32,
        Some(threads),
        |t| run_chunk(&tasks[t as usize]),
        |c| out.push(c),
    );
    out
}
