//! The explorer's shortcuts change no answer.
//!
//! * The state digest (`ree_sim::DigestHasher` fed by
//!   `write_state_digest`) divides branch-node states exactly as the
//!   `Vec<u8>` stream of the same `write_state_digest` does, and exactly
//!   as an `Fnv64` of those bytes: no two different streams share either
//!   digest. A reference walk that prunes on the stream bytes, with the
//!   per-event `Running::all_done` and a collected ready set, counts the
//!   same branch nodes, prunes and forks as `model_check`.
//! * `model_check` advances one base through the instant grid; at each
//!   instant it is the state `replay`'s fresh `fork(seed).run_until`
//!   reaches.

use ree_apps::Running;
use ree_inject::{activation_instants, candidate_targets, RunPlan};
use ree_mc::hash::{state_digest, Fnv64};
use ree_mc::presets::{two_node_register_plan, two_node_sigint_plan};
use ree_mc::{model_check, McBounds};
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;

const SEEDS: std::ops::RangeInclusive<u64> = 7..=11;

/// The explorer's DFS over one `(plan, seed)`, written against the public
/// stepping API and pruning on the recorded stream.
struct Walk<'a> {
    plan: &'a RunPlan,
    bounds: &'a McBounds,
    seen: HashSet<Vec<u8>>,
    /// Every distinct stream of every walk → its (`Fnv64`, state) digests.
    digests: &'a mut HashMap<Vec<u8>, (u64, u64)>,
    branch_nodes: u64,
    pruned: u64,
    forks: u64,
}

impl Walk<'_> {
    fn run(&mut self, seed: u64) {
        let (_, snapshot) = self.plan.boot();
        for instant in activation_instants(self.plan, self.bounds.instants) {
            let mut base = snapshot.fork(seed);
            base.run_until(instant);
            if base.all_done() || base.cluster.now() >= self.plan.timeout {
                continue;
            }
            for pid in candidate_targets(&base, &self.plan.target, self.bounds.max_targets) {
                let mut root = base.clone();
                if self.plan.model.place(&mut root.cluster, pid).placed {
                    self.walk(root, 0);
                }
            }
        }
    }

    fn walk(&mut self, mut running: Running, mut depth: usize) {
        let bounds = self.bounds;
        loop {
            if running.all_done() {
                return;
            }
            match running.cluster.next_event_time() {
                Some(t) if t <= self.plan.timeout => {}
                _ => return,
            }
            let ready = running.cluster.step_choices().len();
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
                self.pruned += 1;
                return;
            }
            self.branch_nodes += 1;
            for i in 1..ready {
                if self.forks >= bounds.max_branches {
                    break;
                }
                self.forks += 1;
                let mut fork = running.clone();
                let h = fork.cluster.step_choices()[i];
                fork.cluster.step_with(h).expect("ready choice fires");
                self.walk(fork, depth + 1);
            }
            running.cluster.step();
            depth += 1;
        }
    }
}

#[test]
fn the_state_digest_partitions_branch_states_as_fnv_and_the_stream_do() {
    let bounds = McBounds::quick();
    let mut digests = HashMap::new();
    let mut visited = 0;
    for seed in SEEDS {
        for plan in [two_node_register_plan(seed), two_node_sigint_plan(seed)] {
            let mut walk = Walk {
                plan: &plan,
                bounds: &bounds,
                seen: HashSet::new(),
                digests: &mut digests,
                branch_nodes: 0,
                pruned: 0,
                forks: 0,
            };
            walk.run(seed);
            let walked = (walk.branch_nodes, walk.pruned, walk.forks);
            let report = model_check(&plan, seed, &bounds);
            let label = format!("{:?} seed {seed}", plan.model);
            assert_eq!(walked, (report.branch_nodes, report.pruned, report.forks), "{label}");
            assert!(report.pruned > 0, "{label}: the comparison includes converged states");
            visited += walked.0 + walked.1;
        }
    }
    let distinct =
        |side: fn(&(u64, u64)) -> u64| digests.values().map(side).collect::<HashSet<u64>>().len();
    assert_eq!(distinct(|d| d.0), digests.len(), "an Fnv64 collision of distinct states");
    assert_eq!(distinct(|d| d.1), digests.len(), "a state_digest collision of distinct states");
    // Today: 451 branch-node states visited, 287 of them distinct.
    let label = format!("{visited} visited, {} distinct", digests.len());
    assert!(digests.len() >= 200 && visited > digests.len() as u64, "{label}");
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
