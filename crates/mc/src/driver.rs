//! The bounded DFS over fault placements and same-instant delivery
//! orders, with convergence pruning and counterexample extraction.

use crate::hash::state_digest;
use ree_apps::verify::Verdict;
use ree_apps::{all_done_memo, Running};
use ree_inject::{
    activation_instants, candidate_targets, conclude_run, effective_threads, run_ordered,
    FailureClass, RunPlan, SystemFailure,
};
use ree_os::{Cluster, Pid};
use ree_sim::SimTime;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Exploration bounds: together they fix the (finite) execution tree the
/// checker covers exhaustively.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McBounds {
    /// Candidate fault-activation instants sampled from the plan's
    /// injection window ([`activation_instants`] grid size).
    pub instants: usize,
    /// Cap on candidate target processes per instant, in ascending pid
    /// order ([`candidate_targets`]).
    pub max_targets: usize,
    /// Maximum delivery-order branch nodes along any single path; past
    /// this depth the run continues in default `(time, seq)` order.
    pub max_depth: usize,
    /// Only branch at instants with at most this many simultaneously
    /// ready events; wider ready sets fire in default order.
    pub max_ready: usize,
    /// Global budget of non-default forks across the whole exploration;
    /// exhausting it degrades remaining branch nodes to default order
    /// (reported via [`McReport::budget_exhausted`]).
    pub max_branches: u64,
    /// Sabotage recovery (drop every post-injection respawn wake-up) to
    /// prove the checker reports escapes.
    pub plant: bool,
}

impl McBounds {
    /// Smallest useful exploration — the CI smoke tier.
    pub fn smoke() -> Self {
        McBounds {
            instants: 2,
            max_targets: 2,
            max_depth: 2,
            max_ready: 2,
            max_branches: 64,
            plant: false,
        }
    }

    /// Default tier for local runs of the `mc` repro target.
    pub fn quick() -> Self {
        McBounds {
            instants: 4,
            max_targets: 3,
            max_depth: 3,
            max_ready: 3,
            max_branches: 256,
            plant: false,
        }
    }

    /// The deep tier: overnight-style exhaustive sweeps.
    pub fn paper() -> Self {
        McBounds {
            instants: 8,
            max_targets: 4,
            max_depth: 4,
            max_ready: 4,
            max_branches: 2048,
            plant: false,
        }
    }
}

/// A replayable escape: a bounded execution in which the injected error
/// was **not** recovered (the run missed completion or produced
/// incorrect output). `(plan, counterexample, bounds)` deterministically
/// reproduces it via [`replay`].
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// The fork seed the exploration ran under.
    pub seed: u64,
    /// Fault-activation instant (one of [`McReport::instants`]).
    pub instant: SimTime,
    /// Injected process.
    pub target: Pid,
    /// Its process-table name at injection time.
    pub target_name: String,
    /// Delivery-order choice taken at each successive branch node along
    /// the escaping path; positions past the end mean the default
    /// (first) choice.
    pub schedule: Vec<usize>,
    /// Table 6 failure class induced in the target, if any.
    pub induced: Option<FailureClass>,
    /// System-failure phase when the run missed completion.
    pub system_failure: Option<SystemFailure>,
    /// Output verdict of the escaping run.
    pub output: Verdict,
}

/// What a [`model_check`] exploration covered and found.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct McReport {
    /// The activation-instant grid explored.
    pub instants: Vec<SimTime>,
    /// Terminal executions classified (complete root-to-leaf paths).
    pub explored: u64,
    /// Branch nodes encountered (instants with 2+ admissible orders).
    pub branch_nodes: u64,
    /// Non-default forks taken (clone + alternate delivery order).
    pub forks: u64,
    /// Subtrees skipped because their canonical state digest was
    /// already explored.
    pub pruned: u64,
    /// Deepest branch nesting reached along any path.
    pub deepest: usize,
    /// Injection attempts that found no matching target state (e.g. a
    /// heap model before the app allocated) — skipped, not explored.
    pub sterile: u64,
    /// Respawn wake-ups discarded by the planted bug (zero on a healthy
    /// build).
    pub discarded: u64,
    /// True if `max_branches` ran out before the tree was fully covered.
    pub budget_exhausted: bool,
    /// Terminal executions in which the system recovered the injection
    /// (or the error never manifested and the run still completed).
    pub recovered: u64,
    /// Escapes found, in DFS order.
    pub escapes: Vec<Counterexample>,
}

impl std::fmt::Display for McReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "explored {} executions ({} branch nodes, {} forks, deepest {})",
            self.explored, self.branch_nodes, self.forks, self.deepest
        )?;
        writeln!(
            f,
            "pruned {} converged subtrees; {} sterile injection points{}",
            self.pruned,
            self.sterile,
            if self.budget_exhausted { "; branch budget exhausted" } else { "" }
        )?;
        if self.discarded > 0 {
            writeln!(f, "planted bug discarded {} recovery wake-ups", self.discarded)?;
        }
        write!(f, "recovered {} / escapes {}", self.recovered, self.escapes.len())?;
        for c in &self.escapes {
            write!(
                f,
                "\n  escape: at {:?} pid={:?} ({}) schedule={:?} induced={:?} failure={:?} output={:?}",
                c.instant,
                c.target,
                c.target_name,
                c.schedule,
                c.induced,
                c.system_failure,
                c.output
            )?;
        }
        Ok(())
    }
}

/// Exhaustively explores the bounded execution tree of `plan`:
/// for each activation instant × candidate target, injects one error
/// and DFS-explores every admissible same-instant delivery order within
/// `bounds`, classifying each terminal execution with the campaign
/// pipeline ([`conclude_run`]). Pure function of `(plan, seed, bounds)`:
/// each root is walked on [`run_ordered`]'s pool as soon as it is built,
/// and the report is the one the in-order walk of the roots produces, for
/// any worker count.
///
/// Single-injection semantics: unlike a repeating campaign protocol,
/// every explored execution carries exactly one successfully placed
/// error — the tree enumerates *where* and *in which delivery order*,
/// not *how many*.
pub fn model_check(plan: &RunPlan, seed: u64, bounds: &McBounds) -> McReport {
    check_on(plan, seed, bounds, None)
}

/// One injection root: where the error goes, and the state it goes into,
/// shared by every root of the same instant.
struct Root {
    base: Arc<Running>,
    instant: SimTime,
    target: Pid,
    target_name: String,
}

impl Root {
    /// A fork of the base with the error placed: the state the DFS starts
    /// from. Placement is a function of the state, so it succeeds on every
    /// fork as it did when the root was found.
    fn injected(&self, plan: &RunPlan) -> Running {
        let mut running = Running::clone(&self.base);
        assert!(plan.model.place(&mut running.cluster, self.target).placed, "placement replays");
        running
    }
}

/// What a root's walk on an explorer of its own takes back to the
/// caller: the digests it met, whether the hint stopped it, and its
/// report.
struct Walked {
    seen: HashSet<u64>,
    doomed: bool,
    report: McReport,
}

/// What every root's walk on the pool reads: the check's inputs and the
/// digest hint, owned, as a task outlives any borrow.
struct Shared {
    plan: RunPlan,
    seed: u64,
    bounds: McBounds,
    /// Digest → the lowest root whose walk met it; `None` walks every
    /// root to its end.
    hint: Option<Mutex<HashMap<u64, u32>>>,
}

impl Shared {
    /// Root `k`'s walk on an explorer of its own.
    fn walk(&self, root: &Root, k: u32) -> Walked {
        let hint = self.hint.as_ref().map(|hint| (hint, k));
        let mut own = Explorer::new(&self.plan, self.seed, &self.bounds, hint, McReport::default());
        own.walk(root);
        Walked { seen: own.seen, doomed: own.doomed, report: own.report }
    }
}

/// [`model_check`] on `threads` workers (`None`: [`effective_threads`]'s
/// default for the grid's `instants × max_targets` roots at most).
fn check_on(plan: &RunPlan, seed: u64, bounds: &McBounds, threads: Option<usize>) -> McReport {
    assert!(
        plan.net_faults.is_empty(),
        "model checking composes with process-level error models only"
    );
    let instants = activation_instants(plan, bounds.instants);
    let most = u32::try_from(instants.len().saturating_mul(bounds.max_targets)).unwrap_or(u32::MAX);
    let report = McReport { instants: instants.clone(), ..McReport::default() };

    // Every root walks on an explorer of its own, with its own digest set
    // and the whole budget, so its walk is a function of the root alone.
    // The sink, on this thread in root order, keeps a walk only where the
    // in-order walk would have been the same (`Explorer::admits`), and
    // walks any other root again on `in_order`. The hint maps a digest to
    // the lowest root whose walk met it, so that a walk meeting an earlier
    // root's state stops there, as the sink would most likely refuse it.
    // It is only a hint: a walk it stops wrongly costs a re-walk.
    #[cfg(test)]
    let hinted = !tests::NO_HINT.with(std::cell::Cell::get);
    #[cfg(not(test))]
    let hinted = true;
    let shared = Arc::new(Shared {
        plan: plan.clone(),
        seed,
        bounds: bounds.clone(),
        hint: hinted.then(Mutex::default),
    });
    let mut in_order = Explorer::new(plan, seed, bounds, None, report);
    let mut sterile = 0;
    run_ordered(
        effective_threads(threads, most),
        |feed| {
            // One base, advanced through the strictly increasing grid:
            // firing every event up to `a` and then every event up to `b`
            // fires exactly the events a fresh fork run to `b` fires, so
            // each instant's roots are cloned from the state `replay`
            // re-derives, without simulating the boot-to-instant prefix
            // once per instant. The roots of one instant share one copy of
            // it. Each root is pushed as soon as it is found, so the
            // workers walk the first roots while this thread builds the
            // rest.
            let mut base = plan.boot().1.fork(seed);
            let mut k = 0u32;
            for &instant in &instants {
                base.run_until(instant);
                if base.all_done() || base.cluster.now() >= plan.timeout {
                    continue;
                }
                let mut at_instant = None;
                for target in candidate_targets(&base, &plan.target, bounds.max_targets) {
                    let mut running = base.clone();
                    if !plan.model.place(&mut running.cluster, target).placed {
                        sterile += 1;
                        continue;
                    }
                    let target_name = running.cluster.name_of(target).unwrap_or("?").to_string();
                    let base = Arc::clone(at_instant.get_or_insert_with(|| Arc::new(base.clone())));
                    let root = Root { base, instant, target, target_name };
                    let shared = Arc::clone(&shared);
                    feed.push(move || {
                        let walked = shared.walk(&root, k);
                        (root, walked)
                    });
                    k += 1;
                }
            }
        },
        |(root, walked)| {
            if in_order.admits(&walked) {
                in_order.absorb(walked);
            } else {
                #[cfg(test)]
                tests::REWALKS.with(|n| n.set(n.get() + 1));
                drop(walked);
                in_order.walk(&root);
            }
        },
    );
    in_order.report.sterile = sterile;
    in_order.report
}

/// Deterministically re-executes a counterexample under the same bounds
/// it was found with and returns the run's classification. On a healthy
/// build (same bounds, `plant` off) the same schedule should recover.
pub fn replay(plan: &RunPlan, cex: &Counterexample, bounds: &McBounds) -> ree_inject::RunResult {
    assert!(plan.net_faults.is_empty(), "counterexamples carry no network faults");
    let (_, snapshot) = plan.boot();
    let mut running = snapshot.fork(cex.seed);
    running.run_until(cex.instant);
    assert!(
        plan.model.place(&mut running.cluster, cex.target).placed,
        "counterexample target no longer injectable; plan/seed mismatch?"
    );
    // `depth` doubles as the index of the next recorded choice: both
    // advance once per branch node.
    let mut depth = 0usize;
    let mut done = all_done_memo();
    loop {
        match next_step(&running, &mut done, plan.timeout, bounds, depth) {
            Next::Terminal => break,
            Next::Discard(i) => {
                running.cluster.discard_ready(i);
            }
            Next::Forced => {
                running.cluster.step();
            }
            Next::Branch(ready) => {
                let i = cex.schedule.get(depth).copied().unwrap_or(0).min(ready - 1);
                depth += 1;
                running.cluster.step_ready(i).expect("ready choice fires");
            }
        }
    }
    conclude_run(plan, cex.seed, running, 1, Some(cex.target)).0
}

/// What a post-injection execution does next. [`replay`] and
/// [`Explorer::explore`] both walk [`next_step`], so the replayed path
/// cannot drift from the explored one.
enum Next {
    /// Every job reported completion, the world went quiescent, or
    /// nothing remains before the timeout.
    Terminal,
    /// A recovery wake-up the planted bug silently loses: the ready
    /// event at this position.
    Discard(usize),
    /// One admissible order, or a ready set outside the bounds: the
    /// default `(time, seq)` step.
    Forced,
    /// A branch node with this many admissible same-instant orders:
    /// [`ree_os::Cluster::step_ready`] takes their positions, default 0.
    Branch(usize),
}

/// Called once per stepped event, so it allocates nothing: completion
/// is `done`, a memo from [`all_done_memo`] owned by the caller's linear
/// history, and the ready set is only counted (and, for the planted bug,
/// labelled by position).
fn next_step(
    running: &Running,
    done: &mut impl FnMut(&Cluster) -> bool,
    timeout: SimTime,
    bounds: &McBounds,
    depth: usize,
) -> Next {
    if done(&running.cluster) {
        return Next::Terminal;
    }
    match running.cluster.next_event_time() {
        Some(next) if next <= timeout => {}
        _ => return Next::Terminal,
    }
    let ready = running.cluster.ready_count();
    if bounds.plant {
        // First ready event (in default order) that is a process-start
        // wake-up.
        if let Some(i) = (0..ready).find(|&i| running.cluster.ready_label(i) == Some("start")) {
            return Next::Discard(i);
        }
    }
    if ready >= 2 && ready <= bounds.max_ready && depth < bounds.max_depth {
        Next::Branch(ready)
    } else {
        Next::Forced
    }
}

struct Explorer<'p> {
    plan: &'p RunPlan,
    seed: u64,
    bounds: &'p McBounds,
    /// Every branch-node digest this explorer met: a state is expanded
    /// once, pruned after. The in-order explorer's holds every merged
    /// root's.
    seen: HashSet<u64>,
    /// A root's own walk: the digest hint and the root's index.
    hint: Option<(&'p Mutex<HashMap<u64, u32>>, u32)>,
    /// The hint named an earlier root for one of this walk's digests, so
    /// it stopped there.
    doomed: bool,
    report: McReport,
}

impl<'p> Explorer<'p> {
    fn new(
        plan: &'p RunPlan,
        seed: u64,
        bounds: &'p McBounds,
        hint: Option<(&'p Mutex<HashMap<u64, u32>>, u32)>,
        report: McReport,
    ) -> Self {
        Explorer { plan, seed, bounds, seen: HashSet::new(), hint, doomed: false, report }
    }

    fn walk(&mut self, root: &Root) {
        let running = root.injected(self.plan);
        self.explore(running, root.instant, root.target, &root.target_name, 0, Vec::new());
    }

    /// Whether `own`, one root walked on an explorer of its own, walked
    /// exactly as it would have after the roots in `self`. It did if it
    /// ran to its end; if no budget check differs, because nothing was
    /// spent before it or because it never ran out and its forks fit in
    /// what is left; and if it met none of their digests, so that no
    /// prune differs.
    fn admits(&self, own: &Walked) -> bool {
        let left = self.bounds.max_branches - self.report.forks;
        let same_budget =
            self.report.forks == 0 || (!own.report.budget_exhausted && own.report.forks <= left);
        !own.doomed && same_budget && self.seen.is_disjoint(&own.seen)
    }

    /// Appends an admitted root's walk, as walking it here would have.
    fn absorb(&mut self, own: Walked) {
        let McReport {
            instants: _,
            explored,
            branch_nodes,
            forks,
            pruned,
            deepest,
            sterile: _,
            discarded,
            budget_exhausted,
            recovered,
            escapes,
        } = own.report;
        let r = &mut self.report;
        r.explored += explored;
        r.branch_nodes += branch_nodes;
        r.forks += forks;
        r.pruned += pruned;
        r.deepest = r.deepest.max(deepest);
        r.discarded += discarded;
        r.budget_exhausted |= budget_exhausted;
        r.recovered += recovered;
        r.escapes.extend(escapes);
        self.seen.extend(own.seen);
    }

    /// Runs one post-injection execution to a terminal, branching (by
    /// forking `running`) at every admissible multi-ready instant within
    /// the bounds. `schedule` is the branch-choice path taken so far.
    fn explore(
        &mut self,
        mut running: Running,
        instant: SimTime,
        target: Pid,
        target_name: &str,
        mut depth: usize,
        mut schedule: Vec<usize>,
    ) {
        // `running` is a fork: it needs a memo of its own.
        let mut done = all_done_memo();
        loop {
            let ready = match next_step(&running, &mut done, self.plan.timeout, self.bounds, depth)
            {
                Next::Terminal => {
                    return self.terminal(running, instant, target, target_name, schedule);
                }
                Next::Discard(i) => {
                    running.cluster.discard_ready(i);
                    self.report.discarded += 1;
                    continue;
                }
                Next::Forced => {
                    running.cluster.step();
                    continue;
                }
                Next::Branch(ready) => ready,
            };
            // Branch node. Prune if an identical canonical state was
            // already expanded — its subtree is this subtree.
            let digest = state_digest(&running.cluster);
            if let Some((hint, k)) = self.hint {
                let mut hint = hint.lock().expect("digest hint poisoned");
                let first = *hint.entry(digest).and_modify(|r| *r = k.min(*r)).or_insert(k);
                if first < k {
                    self.doomed = true;
                    return;
                }
            }
            if !self.seen.insert(digest) {
                self.report.pruned += 1;
                return;
            }
            self.report.branch_nodes += 1;
            self.report.deepest = self.report.deepest.max(depth + 1);
            for i in 1..ready {
                if self.report.forks >= self.bounds.max_branches {
                    self.report.budget_exhausted = true;
                    break;
                }
                self.report.forks += 1;
                let mut fork = running.clone();
                // A clone preserves `(time, seq)` order, so position `i`
                // addresses the same event on the fork.
                fork.cluster.step_ready(i).expect("ready choice fires");
                let mut s = schedule.clone();
                s.push(i);
                self.explore(fork, instant, target, target_name, depth + 1, s);
                if self.doomed {
                    return;
                }
            }
            // The default order continues in place, without a clone:
            // choice 0 is the `(time, seq)` minimum `step` fires.
            schedule.push(0);
            depth += 1;
            running.cluster.step();
        }
    }

    fn terminal(
        &mut self,
        running: Running,
        instant: SimTime,
        target: Pid,
        target_name: &str,
        schedule: Vec<usize>,
    ) {
        self.report.explored += 1;
        let (result, _) = conclude_run(self.plan, self.seed, running, 1, Some(target));
        if result.recovered() {
            self.report.recovered += 1;
        } else {
            // Canonical form: trailing default choices carry no
            // information (replay pads with 0).
            let mut schedule = schedule;
            while schedule.last() == Some(&0) {
                schedule.pop();
            }
            self.report.escapes.push(Counterexample {
                seed: self.seed,
                instant,
                target,
                target_name: target_name.to_string(),
                schedule,
                induced: result.induced,
                system_failure: result.system_failure,
                output: result.output,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{two_node_register_plan, two_node_sigint_plan};
    use ree_inject::ErrorModel;
    use std::cell::Cell;

    thread_local! {
        /// Walk every root without the digest hint, so that a walk meeting
        /// an earlier root's state runs to its end and the sink refuses it
        /// as not disjoint.
        pub(super) static NO_HINT: Cell<bool> = const { Cell::new(false) };
        /// Roots the in-order sink re-walked on this thread.
        pub(super) static REWALKS: Cell<u64> = const { Cell::new(0) };
    }

    /// `check_on(.., Some(workers))`, and the roots it re-walked.
    fn check_counting(
        plan: &RunPlan,
        seed: u64,
        bounds: &McBounds,
        workers: usize,
        hinted: bool,
    ) -> (McReport, u64) {
        NO_HINT.with(|h| h.set(!hinted));
        REWALKS.with(|n| n.set(0));
        let report = check_on(plan, seed, bounds, Some(workers));
        NO_HINT.with(|h| h.set(false));
        (report, REWALKS.with(Cell::get))
    }

    #[test]
    fn the_report_is_the_same_on_one_two_and_four_workers() {
        let quick = McBounds::quick();
        let tiers = [
            quick.clone(),
            McBounds { plant: true, ..quick.clone() },
            McBounds { max_branches: 4, ..quick.clone() },
        ];
        let mut rewalked = 0;
        for seed in 7..=9 {
            for plan in [two_node_register_plan(seed), two_node_sigint_plan(seed)] {
                for bounds in &tiers {
                    let label = format!("{:?} seed {seed}, {bounds:?}", plan.model);
                    let (one, _) = check_counting(&plan, seed, bounds, 1, true);
                    for workers in [2, 4] {
                        let (report, _) = check_counting(&plan, seed, bounds, workers, true);
                        let dump = format!("{report:?}");
                        assert_eq!(dump, format!("{one:?}"), "{label}, {workers} workers");
                    }
                    // One worker without the hint: every walk runs to its
                    // end, and one that met an earlier root's state is
                    // refused and walked again, to the same report.
                    let (unhinted, n) = check_counting(&plan, seed, bounds, 1, false);
                    assert_eq!(format!("{unhinted:?}"), format!("{one:?}"), "{label}, no hint");
                    if plan.model == ErrorModel::Register && *bounds == quick {
                        rewalked += n;
                    }
                }
            }
        }
        // Register corruptions converge across roots: a later root's walk
        // meets an earlier root's state, and the sink walks it again.
        assert!(rewalked > 0, "the register preset at quick re-walks a root");
    }
}
