//! The campaign API: a [`Campaign`] builder over one [`RunPlan`] with
//! terminal `collect`/`fold`/`aggregate`/`adaptive` operations, run on
//! the process-wide pool ([`run_ordered`]). Everything terminal folds
//! results **in seed order**, so campaign output is bit-for-bit
//! deterministic for any worker-thread count.

use crate::adaptive::{Arm, ArmReport, StoppingRule};
use crate::campaign::Aggregate;
use crate::pool::{effective_threads, run_ordered};
use crate::runner::{execute_warm, RunGeometry, RunPlan, RunResult};
use ree_apps::BootSnapshot;
use std::sync::Arc;

/// A plan with its boot, which every run of it forks. A task on the pool
/// cannot borrow from its caller, so each run's task holds an `Arc` of
/// this.
pub(crate) struct Booted {
    plan: RunPlan,
    geometry: RunGeometry,
    snapshot: BootSnapshot,
}

impl Booted {
    /// Boots `plan` once (`RunPlan::boot`).
    pub(crate) fn new(plan: &RunPlan) -> Arc<Self> {
        let (geometry, snapshot) = plan.boot();
        Arc::new(Booted { plan: plan.clone(), geometry, snapshot })
    }

    /// Run `seed` of the plan, forked from the boot.
    pub(crate) fn run(&self, seed: u64) -> RunResult {
        execute_warm(&self.plan, &self.geometry, &self.snapshot, seed)
    }
}

/// A configured fault-injection campaign over one [`RunPlan`]: `runs`
/// seeded executions starting at `seed(..)`, on `threads(..)` workers.
///
/// Built with [`Campaign::new`] and finished with one of the terminal
/// operations — [`collect`](Campaign::collect) (materialise every
/// [`RunResult`] in seed order), [`fold`](Campaign::fold) (stream
/// results through an accumulator without materialising),
/// [`aggregate`](Campaign::aggregate) (fold into the paper-table
/// [`Aggregate`]), or [`adaptive`](Campaign::adaptive) (run batches
/// until a [`StoppingRule`]'s confidence target is met).
///
/// Results are identical for every thread count, including 1.
///
/// # Examples
///
/// ```
/// use ree_inject::{Campaign, ErrorModel, RunPlan, Target};
/// use ree_sim::SimTime;
///
/// let plan = RunPlan {
///     scenario: ree_apps::Scenario::single_texture(1),
///     target: Target::App,
///     model: ErrorModel::Sigint,
///     timeout: SimTime::from_secs(220),
///     net_faults: vec![],
/// };
/// let results = Campaign::new(&plan).runs(2).seed(7).collect();
/// assert_eq!(results.len(), 2);
/// let agg = Campaign::new(&plan).runs(2).seed(7).aggregate();
/// assert!(agg.errors_injected <= 2);
/// // Streaming: count hangs without materialising the results.
/// let hangs = Campaign::new(&plan).runs(2).seed(7).fold(0u32, |n, r| {
///     *n += u32::from(r.induced == Some(ree_inject::FailureClass::Hang));
/// });
/// assert!(hangs <= 2);
/// ```
#[derive(Clone, Debug)]
pub struct Campaign<'p> {
    plan: &'p RunPlan,
    runs: u32,
    seed0: u64,
    threads: Option<usize>,
}

impl<'p> Campaign<'p> {
    /// Starts a campaign over `plan` with no runs scheduled yet, seed 0,
    /// and automatic thread selection.
    pub fn new(plan: &'p RunPlan) -> Self {
        Campaign { plan, runs: 0, seed0: 0, threads: None }
    }

    /// Sets the number of seeded runs.
    pub fn runs(mut self, runs: u32) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the first seed; run `i` uses `seed0 + i`, wrapping at `u64::MAX`.
    pub fn seed(mut self, seed0: u64) -> Self {
        self.seed0 = seed0;
        self
    }

    /// Sets an explicit worker-thread count (any value is safe; it is
    /// clamped to `1..=runs`). The default is the machine's available
    /// parallelism, capped at 16.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Runs the campaign and returns every [`RunResult`] in seed order.
    pub fn collect(&self) -> Vec<RunResult> {
        self.fold(Vec::with_capacity(self.runs as usize), |v, r| v.push(r))
    }

    /// Runs the campaign, streaming each [`RunResult`] through `fold`
    /// exactly once, **in seed order**, as soon as every earlier seed
    /// has been folded. Peak memory is bounded by the reorder window (a
    /// few results per worker) instead of the campaign size.
    pub fn fold<A>(&self, init: A, mut fold: impl FnMut(&mut A, RunResult)) -> A {
        let mut acc = init;
        if self.runs == 0 {
            return acc;
        }
        // One boot per campaign; every run forks it.
        let booted = Booted::new(self.plan);
        run_ordered(
            effective_threads(self.threads, self.runs),
            |feed| {
                for i in 0..self.runs {
                    let booted = Arc::clone(&booted);
                    let seed = self.seed0.wrapping_add(u64::from(i));
                    feed.push(move || booted.run(seed));
                }
            },
            |r| fold(&mut acc, r),
        );
        acc
    }

    /// Runs the campaign and aggregates it on the fly — the streaming
    /// equivalent of `Aggregate::from_results(&campaign.collect())`.
    pub fn aggregate(&self) -> Aggregate {
        self.fold(Aggregate::default(), |agg, r| agg.accept(&r))
    }

    /// Runs this plan **adaptively**: in batches, until `rule`'s
    /// confidence-interval target on the recovery rate is met or the
    /// rule's run budget is exhausted — the single-arm form of
    /// [`crate::adaptive::run_arms`]. Any `runs(..)` setting is ignored;
    /// the stopping rule owns the budget.
    ///
    /// The report is a pure function of `(plan, seed0, rule)` —
    /// independent of the thread count.
    pub fn adaptive(&self, rule: &StoppingRule) -> ArmReport {
        let arm = Arm::new("", self.plan.clone(), self.seed0);
        crate::adaptive::run_arms(std::slice::from_ref(&arm), rule, self.threads).remove(0)
    }
}
