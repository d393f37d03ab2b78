//! The campaign API: a [`Campaign`] builder over one [`RunPlan`] with
//! terminal `collect`/`fold`/`aggregate`/`adaptive` operations, and the
//! work-stealing pool every in-process scheduler runs on. Everything
//! terminal folds results **in seed order**, so campaign output is
//! bit-for-bit deterministic for any worker-thread count.

use crate::adaptive::{Arm, ArmReport, StoppingRule};
use crate::campaign::Aggregate;
use crate::runner::{execute_warm, RunPlan, RunResult};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, OnceLock};

/// The available parallelism, capped at 16, taken once per process:
/// `available_parallelism` reads the cgroup CPU quota from the file
/// system on every call.
pub(crate) fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16))
}

/// Picks the effective worker count for `tasks` units of work: the one
/// [`run_ordered`] runs on. `None` is the available parallelism, capped
/// at 16.
/// Total for every input — `tasks == 0` yields 1 worker (which then has
/// nothing to claim) instead of constructing an empty clamp range, so
/// callers that do not know their run count up front (the adaptive
/// engine) can share it.
pub fn effective_threads(requested: Option<usize>, tasks: u32) -> usize {
    requested.unwrap_or_else(default_threads).clamp(1, tasks.max(1) as usize)
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
        let (geometry, snapshot) = self.plan.boot();
        run_ordered(
            self.runs,
            self.threads,
            |i| {
                execute_warm(self.plan, &geometry, &snapshot, self.seed0.wrapping_add(u64::from(i)))
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

/// The work-stealing pool behind every in-process scheduler: runs
/// `run(0) .. run(tasks - 1)` on up to `threads` workers and hands each
/// result to `sink` on the caller's thread, **in task order**, as soon
/// as every earlier task's result has been handed over. Its callers are
/// the campaigns ([`Campaign::fold`] and the adaptive rounds, one run per
/// task) and `ree_mc::model_check` (one injection root per task).
///
/// The worker count is [`effective_threads`]`(threads, tasks)`: `None`
/// is the machine's available parallelism, capped at 16, and any count
/// is clamped to `1..=tasks`. With one worker there is no
/// thread: each `run(i)` is followed by its `sink` on the caller's
/// thread.
///
/// Workers claim the next task index from a shared counter and ship
/// `(index, result)` pairs back; the caller reorders with a small
/// buffer while workers are still running. The channel is bounded, so
/// while `sink` is busy workers block on send instead of claiming
/// further tasks.
pub fn run_ordered<T: Send>(
    tasks: u32,
    threads: Option<usize>,
    run: impl Fn(u32) -> T + Sync,
    mut sink: impl FnMut(T),
) {
    let threads = effective_threads(threads, tasks);
    if threads == 1 {
        (0..tasks).for_each(|i| sink(run(i)));
        return;
    }
    // Wider than the task index so over-claiming workers cannot wrap it.
    let next = AtomicU64::new(0);
    let (tx, rx) = mpsc::sync_channel::<(u32, T)>(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (next, run) = (&next, &run);
            scope.spawn(move || {
                while let Ok(i) = u32::try_from(next.fetch_add(1, Ordering::Relaxed)) {
                    if i >= tasks || tx.send((i, run(i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut pending: BTreeMap<u32, T> = BTreeMap::new();
        let mut expect = 0u32;
        for (i, r) in rx {
            pending.insert(i, r);
            while let Some(r) = pending.remove(&expect) {
                sink(r);
                expect += 1;
            }
        }
        debug_assert_eq!(expect, tasks, "every task handed over exactly once");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_selection_is_total() {
        // The historical `threads.clamp(1, runs as usize)` panicked for
        // `runs == 0` (clamp with max < min); the adaptive path cannot
        // early-return on a known run count, so selection must be total.
        assert_eq!(effective_threads(Some(8), 0), 1);
        assert_eq!(effective_threads(Some(8), 1), 1);
        assert_eq!(effective_threads(Some(0), 5), 1);
        assert_eq!(effective_threads(Some(3), 5), 3);
        assert_eq!(effective_threads(Some(8), 5), 5);
        assert!(effective_threads(None, u32::MAX) >= 1);
    }
}
