//! Adaptive confidence-targeted campaigns: many `(RunPlan, seed-range)`
//! arms driven concurrently in batches, each arm stopping as soon as
//! the 95 % Wilson interval around its recovery rate is tight —
//! "every cell to ±2% at 95%" instead of "512 runs per cell".
//!
//! # Determinism contract
//!
//! An arm's report is a **pure function of `(plan, seed0, rule)`** —
//! independent of the worker-thread count, of the other arms in the
//! sweep, and of scheduling order. The engine guarantees this by
//! construction:
//!
//! * an arm consumes seeds `seed0, seed0+1, …` strictly in order, and
//!   its aggregate is folded in seed order;
//! * the stopping rule is evaluated at **every batch boundary** (every
//!   `rule.batch` runs, plus the budget edge `rule.max_runs`), never at
//!   scheduler-dependent instants;
//! * an arm stops at the *first* qualifying boundary where the rule is
//!   satisfied, and runs nothing past it: every executed run is
//!   reported.
//!
//! # Rounds
//!
//! A round runs exactly the next batch of every live arm, as one list of
//! `(arm, seed)` runs pushed onto the process-wide pool
//! ([`crate::run_ordered`]). An arm boots its snapshot before its first
//! batch and drops it when it stops, so at most the live arms keep
//! snapshots resident.

use crate::builder::Booted;
use crate::campaign::Aggregate;
use crate::pool::{effective_threads, run_ordered};
use crate::runner::RunPlan;
use ree_stats::Proportion;
use std::sync::Arc;

/// The proportion a stopping rule targets: successful recoveries out of
/// injected runs (the paper's headline rate — near 1 for the SIFT
/// processes, so intervals tighten fast). A run whose sampled injection
/// instant fell after completion carries no evidence about the rate, and
/// [`Aggregate::accept`] counts a recovery only for an injected run.
fn recovery_rate(agg: &Aggregate) -> Proportion {
    Proportion::new(agg.successful_recoveries, agg.errors_injected)
}

/// When to stop an adaptive arm.
///
/// The rule is satisfied at the first batch boundary (a multiple of
/// [`batch`](StoppingRule::batch), at least
/// [`min_runs`](StoppingRule::min_runs)) where the half-width of the 95 %
/// Wilson interval around the arm's recovery rate is at most
/// [`half_width`](StoppingRule::half_width); the arm unconditionally
/// stops once [`max_runs`](StoppingRule::max_runs) seeds are spent.
///
/// # Examples
///
/// ```
/// use ree_inject::StoppingRule;
/// // "±2% at 95% on the recovery rate, in batches of 32, cap 512" —
/// // the defaults, spelled out.
/// let rule = StoppingRule::default().half_width(0.02).batch(32).max_runs(512);
/// assert_eq!(rule.batch, 32);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StoppingRule {
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
        StoppingRule { half_width: 0.02, batch: 32, min_runs: 32, max_runs: 512 }
    }
}

impl StoppingRule {
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
        recovery_rate(agg).wilson_half_width() <= self.half_width
    }

    fn validate(&self) {
        assert!(self.half_width > 0.0, "invalid stopping rule: half-width must be positive");
        assert!(self.batch >= 1, "invalid stopping rule: batch must be at least 1");
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
    /// The recovery rate at stop time.
    pub proportion: Proportion,
    /// Achieved half-width of the rate's 95 % Wilson interval.
    pub half_width: f64,
}

impl ArmReport {
    /// `point ± half-width` of the recovery rate, in percent.
    pub fn display_rate(&self) -> String {
        format!("{:.1}% ± {:.1}%", self.proportion.point() * 100.0, self.half_width * 100.0)
    }
}

/// An arm's progress: its fold so far, and whether (and how) it stopped.
#[derive(Default)]
struct ArmState {
    agg: Aggregate,
    runs: u32,
    stopped: bool,
    target_met: bool,
}

/// Runs an adaptive sweep over `arms` on `threads` workers (`None`: the
/// machine's available parallelism, capped at 16) and returns one report
/// per arm, in input order. See the module docs for the stopping and
/// determinism semantics; the reports are identical for every `threads`
/// value, including 1.
pub fn run_arms(arms: &[Arm], rule: &StoppingRule, threads: Option<usize>) -> Vec<ArmReport> {
    rule.validate();
    let mut states: Vec<ArmState> = arms.iter().map(|_| ArmState::default()).collect();
    // Apart from `states`, so the producer reads the boots while the sink
    // folds into the states.
    let mut boots: Vec<Option<Arc<Booted>>> = arms.iter().map(|_| None).collect();
    loop {
        // Check each live arm's rule at the end of its last batch: it
        // stops once the target is met (never before its first batch) or
        // the budget is spent. Queue the next batch of every other arm
        // as `(arm, run)` in arm-then-seed order, booting it before its
        // first.
        let mut runs: Vec<(usize, u32)> = Vec::new();
        for (i, s) in states.iter_mut().enumerate().filter(|(_, s)| !s.stopped) {
            let met = rule.satisfied_by(&s.agg);
            if (met && s.runs >= rule.min_runs.max(1)) || s.runs >= rule.max_runs {
                (s.stopped, s.target_met, boots[i]) = (true, met, None);
                continue;
            }
            boots[i].get_or_insert_with(|| Booted::new(&arms[i].plan));
            let end = s.runs.saturating_add(rule.batch).min(rule.max_runs);
            runs.extend((s.runs..end).map(|k| (i, k)));
        }
        if runs.is_empty() {
            break;
        }
        let mut owners = runs.iter().map(|&(i, _)| i);
        run_ordered(
            effective_threads(
                threads,
                u32::try_from(runs.len()).expect("a round queues at most u32::MAX runs"),
            ),
            |feed| {
                for &(i, k) in &runs {
                    let booted = Arc::clone(boots[i].as_ref().expect("a queued arm is booted"));
                    let seed = arms[i].seed0.wrapping_add(u64::from(k));
                    feed.push(move || booted.run(seed));
                }
            },
            |r| {
                let s = &mut states[owners.next().expect("one result per queued run")];
                s.agg.accept(&r);
                s.runs += 1;
            },
        );
    }

    arms.iter()
        .zip(states)
        .map(|(arm, s)| {
            let proportion = recovery_rate(&s.agg);
            ArmReport {
                label: arm.label.clone(),
                seed0: arm.seed0,
                runs: s.runs,
                target_met: s.target_met,
                aggregate: s.agg,
                proportion,
                half_width: proportion.wilson_half_width(),
            }
        })
        .collect()
}
