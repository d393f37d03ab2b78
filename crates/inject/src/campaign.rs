//! The paper-table view of a campaign: [`Aggregate`] folds
//! [`RunResult`]s into one row of counts and timing summaries.

use crate::model::{FailureClass, SystemFailure};
use crate::runner::RunResult;
use ree_stats::Summary;

/// Aggregate view over campaign results (one paper-table row).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Runs in which at least one error was injected.
    pub errors_injected: u64,
    /// Runs in which a failure was induced in the target.
    pub failures: u64,
    /// Runs that recovered (completed with correct output after
    /// injection).
    pub successful_recoveries: u64,
    /// System failures by phase.
    pub system_failures: Vec<SystemFailure>,
    /// Failure classification counts.
    pub seg_faults: u64,
    /// Illegal-instruction count.
    pub illegal_instrs: u64,
    /// Hang count.
    pub hangs: u64,
    /// Assertion/self-check count.
    pub assertions: u64,
    /// Perceived execution time, seconds.
    pub perceived: Summary,
    /// Actual execution time, seconds.
    pub actual: Summary,
    /// SIFT recovery time, seconds.
    pub recovery: Summary,
    /// Correlated failures (SIFT failure → app restart).
    pub correlated: u64,
    /// Incorrect-output runs.
    pub incorrect_output: u64,
    /// Runs with no observable effect (injected runs only — a run where
    /// no error was injected has nothing to have an effect).
    pub no_effect: u64,
}

impl Aggregate {
    /// Folds one run into the aggregate.
    pub fn accept(&mut self, r: &RunResult) {
        if r.injections > 0 {
            self.errors_injected += 1;
        }
        if let Some(class) = r.induced {
            self.failures += 1;
            match class {
                FailureClass::SegFault => self.seg_faults += 1,
                FailureClass::IllegalInstruction => self.illegal_instrs += 1,
                FailureClass::Hang => self.hangs += 1,
                FailureClass::Assertion => self.assertions += 1,
                FailureClass::InjectedSignal | FailureClass::Other => {}
            }
        }
        if r.injections > 0 && r.recovered() {
            self.successful_recoveries += 1;
        }
        if let Some(sf) = r.system_failure {
            self.system_failures.push(sf);
        }
        if let Some(p) = r.perceived {
            if r.completed {
                self.perceived.push(p);
            }
        }
        if let Some(a) = r.actual {
            if r.completed {
                self.actual.push(a);
            }
        }
        for rec in &r.recovery_times {
            self.recovery.push(*rec);
        }
        if r.correlated {
            self.correlated += 1;
        }
        match r.output {
            ree_apps::Verdict::Incorrect => self.incorrect_output += 1,
            // The paper's no-effect category covers runs in which an
            // error was injected and nothing observable happened; runs
            // with zero injections are not classified at all.
            ree_apps::Verdict::Correct
                if r.injections > 0 && r.completed && r.induced.is_none() && r.restarts == 0 =>
            {
                self.no_effect += 1;
            }
            _ => {}
        }
    }

    /// Builds the aggregate from raw results.
    pub fn from_results(results: &[RunResult]) -> Aggregate {
        let mut agg = Aggregate::default();
        for r in results {
            agg.accept(r);
        }
        agg
    }
}
