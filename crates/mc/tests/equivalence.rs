//! The explorer's shortcuts change no answer.
//!
//! * The state digest (`ree_sim::DigestHasher` fed by
//!   `write_state_digest`) divides branch-node states exactly as the
//!   `Vec<u8>` stream of the same `write_state_digest` does, and exactly
//!   as an `Fnv64` of those bytes: no two different streams share either
//!   digest. A reference walk that visits the roots one after another,
//!   forks each instant fresh, prunes on the stream bytes and steps with
//!   the per-event `Running::all_done` and a collected ready set produces
//!   the whole `McReport` `model_check` does — counts, budget, planted
//!   discards, verdicts and escapes — though `model_check` walks its roots
//!   on several workers.
//! * `model_check` advances one base through the instant grid; at each
//!   instant it is the state `replay`'s fresh `fork(seed).run_until`
//!   reaches.

use ree_apps::Running;
use ree_inject::{activation_instants, candidate_targets, conclude_run, RunPlan};
use ree_mc::hash::{state_digest, Fnv64};
use ree_mc::presets::{two_node_register_plan, two_node_sigint_plan};
use ree_mc::{model_check, Counterexample, McBounds, McReport};
use ree_os::Pid;
use ree_sim::SimTime;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;

const SEEDS: std::ops::RangeInclusive<u64> = 7..=11;

/// Where a root's error was placed.
struct Place {
    instant: SimTime,
    target: Pid,
    name: String,
}

/// The explorer's DFS over one `(plan, seed)`, written against the public
/// stepping API and pruning on the recorded stream.
struct Walk<'a> {
    plan: &'a RunPlan,
    seed: u64,
    bounds: &'a McBounds,
    seen: HashSet<Vec<u8>>,
    /// Every distinct stream of every walk → its (`Fnv64`, state) digests.
    digests: &'a mut HashMap<Vec<u8>, (u64, u64)>,
    report: McReport,
}

impl Walk<'_> {
    fn run(&mut self) {
        let (_, snapshot) = self.plan.boot();
        self.report.instants = activation_instants(self.plan, self.bounds.instants);
        for instant in self.report.instants.clone() {
            let mut base = snapshot.fork(self.seed);
            base.run_until(instant);
            if base.all_done() || base.cluster.now() >= self.plan.timeout {
                continue;
            }
            for target in candidate_targets(&base, &self.plan.target, self.bounds.max_targets) {
                let mut root = base.clone();
                if !self.plan.model.place(&mut root.cluster, target).placed {
                    self.report.sterile += 1;
                    continue;
                }
                let name = root.cluster.name_of(target).unwrap_or("?").to_string();
                self.walk(root, &Place { instant, target, name }, 0, Vec::new());
            }
        }
    }

    fn walk(
        &mut self,
        mut running: Running,
        place: &Place,
        mut depth: usize,
        mut schedule: Vec<usize>,
    ) {
        let bounds = self.bounds;
        loop {
            let live =
                matches!(running.cluster.next_event_time(), Some(t) if t <= self.plan.timeout);
            if running.all_done() || !live {
                return self.terminal(running, place, schedule);
            }
            let ready = running.cluster.ready_count();
            if bounds.plant {
                let start = (0..ready).find(|&i| running.cluster.ready_label(i) == Some("start"));
                if let Some(i) = start {
                    running.cluster.discard_ready(i);
                    self.report.discarded += 1;
                    continue;
                }
            }
            if ready < 2 || ready > bounds.max_ready || depth >= bounds.max_depth {
                running.cluster.step();
                continue;
            }
            let mut stream = Vec::new();
            running.cluster.write_state_digest(&mut stream);
            let mut fnv = Fnv64::default();
            fnv.write(&stream);
            let pair = (fnv.finish(), state_digest(&running.cluster));
            assert_eq!(*self.digests.entry(stream.clone()).or_insert(pair), pair);
            if !self.seen.insert(stream) {
                self.report.pruned += 1;
                return;
            }
            self.report.branch_nodes += 1;
            self.report.deepest = self.report.deepest.max(depth + 1);
            for i in 1..ready {
                if self.report.forks >= bounds.max_branches {
                    self.report.budget_exhausted = true;
                    break;
                }
                self.report.forks += 1;
                let mut fork = running.clone();
                fork.cluster.step_ready(i).expect("ready choice fires");
                let mut s = schedule.clone();
                s.push(i);
                self.walk(fork, place, depth + 1, s);
            }
            schedule.push(0);
            running.cluster.step();
            depth += 1;
        }
    }

    fn terminal(&mut self, running: Running, place: &Place, mut schedule: Vec<usize>) {
        self.report.explored += 1;
        let (result, _) = conclude_run(self.plan, self.seed, running, 1, Some(place.target));
        if result.recovered() {
            self.report.recovered += 1;
            return;
        }
        while schedule.last() == Some(&0) {
            schedule.pop();
        }
        self.report.escapes.push(Counterexample {
            seed: self.seed,
            instant: place.instant,
            target: place.target,
            target_name: place.name.clone(),
            schedule,
            induced: result.induced,
            system_failure: result.system_failure,
            output: result.output,
        });
    }
}

#[test]
fn the_state_digest_partitions_branch_states_as_fnv_and_the_stream_do() {
    let quick = McBounds::quick();
    // `plant` takes the discard path and finds escapes; a budget of 4
    // runs out, so `model_check`'s workers must re-walk roots in order.
    let tiers = [
        McBounds::smoke(),
        quick.clone(),
        McBounds { plant: true, ..quick.clone() },
        McBounds { max_branches: 4, ..quick.clone() },
    ];
    let mut digests = HashMap::new();
    let (mut visited, mut escapes, mut exhausted) = (0, 0, 0);
    for seed in SEEDS {
        for plan in [two_node_register_plan(seed), two_node_sigint_plan(seed)] {
            for bounds in &tiers {
                let mut walk = Walk {
                    plan: &plan,
                    seed,
                    bounds,
                    seen: HashSet::new(),
                    digests: &mut digests,
                    report: McReport::default(),
                };
                walk.run();
                let walked = walk.report;
                let report = model_check(&plan, seed, bounds);
                let label = format!("{:?} seed {seed} {bounds:?}", plan.model);
                assert_eq!(report, walked, "{label}");
                if *bounds == quick {
                    assert!(report.pruned > 0, "{label}: the comparison includes converged states");
                }
                visited += walked.branch_nodes + walked.pruned;
                escapes += walked.escapes.len();
                exhausted += usize::from(walked.budget_exhausted);
            }
        }
    }
    let distinct =
        |side: fn(&(u64, u64)) -> u64| digests.values().map(side).collect::<HashSet<u64>>().len();
    assert_eq!(distinct(|d| d.0), digests.len(), "an Fnv64 collision of distinct states");
    assert_eq!(distinct(|d| d.1), digests.len(), "a state_digest collision of distinct states");
    // Today: 1171 branch-node states visited, 336 of them distinct; 182
    // planted escapes; 10 budgets run out.
    let label = format!("{visited} visited, {} distinct", digests.len());
    assert!(digests.len() >= 200 && visited > digests.len() as u64, "{label}");
    assert!(escapes > 0 && exhausted > 0, "{escapes} escapes, {exhausted} budgets exhausted");
}

#[test]
fn an_advanced_base_is_a_fresh_fork_run_to_each_instant() {
    for seed in SEEDS {
        for plan in [two_node_register_plan(seed), two_node_sigint_plan(seed)] {
            let (_, snapshot) = plan.boot();
            let mut base = snapshot.fork(seed);
            for instant in activation_instants(&plan, 8) {
                base.run_until(instant);
                let mut fresh = snapshot.fork(seed);
                fresh.run_until(instant);
                let label = format!("{:?} seed {seed} at {instant:?}", plan.model);
                assert_eq!(base.cluster.now(), fresh.cluster.now(), "{label}");
                assert_eq!(state_digest(&base.cluster), state_digest(&fresh.cluster), "{label}");
                assert_eq!(base.cluster.trace().len(), fresh.cluster.trace().len(), "{label}");
            }
        }
    }
}
