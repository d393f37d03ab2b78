//! Cross-thread campaign determinism: the worker pool must
//! return bit-identical results for any worker count, and the streaming
//! fold must agree with the materialise-then-aggregate path.

use ree_apps::Scenario;
use ree_inject::{Aggregate, Campaign, ErrorModel, RunPlan, Target};
use ree_sim::SimTime;

fn plan() -> RunPlan {
    RunPlan {
        scenario: Scenario::single_texture(0),
        target: Target::App,
        model: ErrorModel::Sigint,
        timeout: SimTime::from_secs(320),
        net_faults: vec![],
    }
}

const RUNS: u32 = 6;
const SEED0: u64 = 4100;

#[test]
fn identical_results_for_1_2_and_8_threads() {
    let p = plan();
    let base = Campaign::new(&p).runs(RUNS).seed(SEED0);
    let one = base.clone().threads(1).collect();
    let two = base.clone().threads(2).collect();
    let eight = base.clone().threads(8).collect();
    assert_eq!(one.len(), RUNS as usize);
    assert_eq!(one, two, "2-thread campaign diverged from single-threaded");
    assert_eq!(one, eight, "8-thread campaign diverged from single-threaded");
    // Seed order, not completion order.
    for (i, r) in one.iter().enumerate() {
        assert_eq!(r.seed, SEED0 + i as u64);
    }
}

#[test]
fn streaming_fold_matches_materialised_aggregate() {
    let p = plan();
    let results = Campaign::new(&p).runs(RUNS).seed(SEED0).collect();
    let reference = Aggregate::from_results(&results);
    let streamed = Campaign::new(&p).runs(RUNS).seed(SEED0).aggregate();
    assert_eq!(streamed, reference);
    // And with a skew-inducing thread count relative to the run count.
    let streamed3 = Campaign::new(&p)
        .runs(RUNS)
        .seed(SEED0)
        .threads(3)
        .fold(Aggregate::default(), |a, r| a.accept(&r));
    assert_eq!(streamed3, reference);
}

#[test]
fn zero_and_one_runs_are_safe_for_any_thread_count() {
    // Regression for the historical `threads.clamp(1, runs as usize)`
    // edge: `runs == 0` relied on an early return to dodge a `1..=0`
    // clamp panic, and `runs == 1` must degrade to one worker. Thread
    // selection is now total (`runs = 0` is executable, not a special
    // case before thread selection), which the adaptive engine's
    // unknown-run-count scheduling requires.
    let p = plan();
    for threads in [1usize, 2, 8] {
        let none = Campaign::new(&p).seed(SEED0).threads(threads).collect();
        assert!(none.is_empty(), "runs defaults to 0 and must yield no results");
        assert_eq!(
            Campaign::new(&p).runs(0).seed(SEED0).threads(threads).aggregate(),
            Aggregate::default()
        );
        let one = Campaign::new(&p).runs(1).seed(SEED0).threads(threads).collect();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].seed, SEED0);
    }
    // Unspecified thread count too.
    assert!(Campaign::new(&p).runs(0).seed(SEED0).collect().is_empty());
}

#[test]
fn no_effect_requires_an_injection() {
    // A fault-free completed run (zero injections, correct output) must
    // not be classified as "no effect": the paper's category only covers
    // runs in which an error was actually injected.
    let mut r = ree_inject::execute(&plan(), SEED0);
    r.injections = 0;
    r.induced = None;
    r.restarts = 0;
    let agg = Aggregate::from_results(std::slice::from_ref(&r));
    assert_eq!(agg.no_effect, 0, "zero-injection run counted as no_effect");
    assert_eq!(agg.errors_injected, 0);
    if r.completed && r.output == ree_apps::Verdict::Correct {
        let mut injected = r.clone();
        injected.injections = 1;
        let agg = Aggregate::from_results(std::slice::from_ref(&injected));
        assert_eq!(agg.no_effect, 1, "injected uneventful run must count as no_effect");
    }
}
