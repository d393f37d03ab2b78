//! The adaptive engine's contract, tested from outside: per-arm reports
//! are a pure function of `(plan, seed0, rule)`, byte-identical across
//! worker-thread counts and arm orderings, and stop at the first
//! boundary where the rule holds.

use ree_apps::Scenario;
use ree_inject::adaptive::run_arms;
use ree_inject::{Aggregate, Arm, ArmReport, Campaign, ErrorModel, RunPlan, StoppingRule, Target};
use ree_sim::SimTime;
use ree_stats::Proportion;

fn plan(model: ErrorModel, target: Target) -> RunPlan {
    RunPlan {
        scenario: Scenario::single_texture(0),
        target,
        model,
        timeout: SimTime::from_secs(320),
        net_faults: vec![],
    }
}

/// A rule small enough for a test but still exercising the interesting
/// machinery: multiple batches per arm, a reachable target (so some arm
/// stops early while others run on), and a budget edge that is not a
/// batch multiple.
fn rule() -> StoppingRule {
    StoppingRule::default().half_width(0.30).batch(5).min_runs(10).max_runs(23)
}

#[test]
fn arm_reports_are_identical_across_thread_counts_and_orderings() {
    let arms = vec![
        Arm::new("sigint/app", plan(ErrorModel::Sigint, Target::App), 9_000),
        Arm::new("sigstop/ftm", plan(ErrorModel::Sigstop, Target::Ftm), 9_500),
        Arm::new("sigint/exec", plan(ErrorModel::Sigint, Target::ExecArmor), 10_000),
    ];
    let rule = rule();
    let reference = run_arms(&arms, &rule, Some(1));
    assert_eq!(reference.len(), 3);
    assert!(
        reference.iter().any(|a| a.target_met),
        "rule must stop at least one arm before the budget for the test to bite"
    );
    for threads in [2usize, 8, 16] {
        let got = run_arms(&arms, &rule, Some(threads));
        assert_eq!(got, reference, "{threads}-thread sweep diverged from 1-thread");
    }
    // Arm order must not leak into any arm's report: reverse the sweep
    // and compare each report to the same-label reference.
    let mut reversed: Vec<Arm> = arms.clone();
    reversed.reverse();
    let rev = run_arms(&reversed, &rule, None);
    let by_label = |arms: &[ArmReport], label: &str| {
        arms.iter().find(|a| a.label == label).expect("label present").clone()
    };
    for arm in &arms {
        assert_eq!(
            by_label(&rev, &arm.label),
            by_label(&reference, &arm.label),
            "arm {} changed when the sweep order did",
            arm.label
        );
    }
    // A single-arm sweep of the same cell also matches: other arms are
    // invisible to an arm's result.
    let solo = run_arms(std::slice::from_ref(&arms[1]), &rule, None);
    assert_eq!(solo[0], by_label(&reference, "sigstop/ftm"));
}

#[test]
fn reported_runs_stop_at_the_first_satisfied_boundary() {
    // Replay an arm's reported prefix by hand: the rule must be
    // unsatisfied at every earlier qualifying boundary and (if the
    // target was met) satisfied exactly at `runs`.
    let p = plan(ErrorModel::Sigint, Target::App);
    let rule = rule();
    let report = Campaign::new(&p).seed(9_000).adaptive(&rule);
    assert!(report.runs >= rule.min_runs && report.runs <= rule.max_runs);
    let results = Campaign::new(&p).runs(report.runs).seed(9_000).collect();
    let mut agg = Aggregate::default();
    for (i, r) in results.iter().enumerate() {
        agg.accept(r);
        let n = i as u32 + 1;
        let at_boundary = n.is_multiple_of(rule.batch) || n == rule.max_runs;
        if n < report.runs && at_boundary && n >= rule.min_runs {
            assert!(!rule.satisfied_by(&agg), "arm should have stopped at boundary {n}");
        }
    }
    assert_eq!(agg, report.aggregate, "report aggregates exactly the first `runs` seeds");
    assert_eq!(report.target_met, rule.satisfied_by(&agg));
    // And the achieved interval is what the report claims.
    let rate = Proportion::new(agg.successful_recoveries, agg.errors_injected);
    assert_eq!((report.proportion, report.half_width), (rate, rate.wilson_half_width()));
}

#[test]
fn zero_budget_rule_reports_empty_arms() {
    let p = plan(ErrorModel::Sigint, Target::App);
    let report = Campaign::new(&p).seed(1).adaptive(&StoppingRule::default().max_runs(0));
    assert_eq!(report.runs, 0);
    assert!(!report.target_met);
    assert_eq!(report.aggregate, Aggregate::default());
}
