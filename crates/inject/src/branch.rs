//! Branch-point enumeration for bounded model checking.
//!
//! A seeded campaign run *samples* one injection instant and one target
//! from the plan's trigger window; the `ree-mc` model checker instead
//! *enumerates* a bounded, deterministic set of both and explores every
//! combination. This module owns that enumeration so it stays in lock
//! step with the sampling path in `runner`: the instants cover the same
//! window [`RunPlan::geometry`] derives, and the target candidates are
//! exactly the set [`execute`](crate::execute) draws from.

use crate::model::Target;
use crate::runner::RunPlan;
use ree_apps::Running;
use ree_os::Pid;
use ree_sim::SimTime;

/// Candidate fault-activation instants: the midpoints of `k` equal
/// strata of the plan's injection window, clamped to the timeout.
/// Midpoint stratification keeps small `k` representative (never just
/// the window edges) and larger `k` strictly refines coverage. Always
/// non-empty and strictly increasing; degenerate windows collapse to a
/// single instant at the window start.
pub fn activation_instants(plan: &RunPlan, k: usize) -> Vec<SimTime> {
    let geometry = plan.geometry();
    let w0 = geometry.window_start;
    let w1 = geometry.window_end.min(plan.timeout);
    let (a, b) = (w0.as_micros(), w1.as_micros());
    if b <= a || k == 0 {
        return vec![w0];
    }
    let span = b - a;
    let k = (k as u64).min(span); // at most one instant per microsecond
    let mut out = Vec::with_capacity(k as usize);
    for i in 0..k {
        // Midpoint of stratum i: a + span*(2i+1)/(2k), computed without
        // overflow for any simulated-time magnitude.
        let mid = a + (span / (2 * k)) * (2 * i + 1) + (span % (2 * k)) * (2 * i + 1) / (2 * k);
        out.push(SimTime::from_micros(mid));
    }
    out.dedup();
    out
}

/// Candidate injection targets alive in `running` that match `target`,
/// in ascending pid order, truncated to `cap`. This is the same
/// candidate set the seeded runner's private target resolution draws one
/// element of by rng; the model checker branches over all of them.
pub fn candidate_targets(running: &Running, target: &Target, cap: usize) -> Vec<Pid> {
    let cluster = &running.cluster;
    // `all_procs` is in ascending pid order already.
    let mut candidates: Vec<Pid> = cluster
        .all_procs()
        .into_iter()
        .filter(|p| cluster.name_of(*p).map(|n| target.matches(n)).unwrap_or(false))
        .collect();
    candidates.truncate(cap);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ErrorModel;
    use ree_apps::Scenario;

    fn plan() -> RunPlan {
        RunPlan {
            scenario: Scenario::single_texture(3),
            target: Target::App,
            model: ErrorModel::Register,
            timeout: SimTime::from_secs(200),
            net_faults: vec![],
        }
    }

    #[test]
    fn instants_are_increasing_and_inside_the_window() {
        let plan = plan();
        let geometry = plan.geometry();
        for k in [1usize, 2, 3, 8, 17] {
            let instants = activation_instants(&plan, k);
            assert_eq!(instants.len(), k.max(1));
            assert!(instants.windows(2).all(|w| w[0] < w[1]), "not increasing for k={k}");
            for t in &instants {
                assert!(*t >= geometry.window_start && *t < geometry.window_end);
            }
        }
    }

    #[test]
    fn instants_clamp_to_the_timeout() {
        let mut p = plan();
        p.timeout = p.geometry().window_start + ree_sim::SimDuration::from_secs(1);
        let instants = activation_instants(&p, 4);
        assert!(!instants.is_empty());
        for t in instants {
            assert!(t <= p.timeout);
        }
        // Degenerate window: timeout at (or before) the window start.
        p.timeout = p.geometry().window_start;
        assert_eq!(activation_instants(&p, 4), vec![p.geometry().window_start]);
    }
}
