//! What every reproduced table is made of: a list of cells (one
//! [`Arm`] — label, plan, first seed — per seeded campaign, each made by
//! [`cell`]), the [`Row`] of raw results each cell yields, and the
//! column folds the tables compute from a row at render time. Each table
//! module spells its cells, its predicates and its footer; everything
//! they share is here, once.

use ree_apps::Scenario;
use ree_inject::{
    adaptive, Arm, ArmReport, Campaign, ErrorModel, FailureClass, RunPlan, RunResult, StoppingRule,
    Target,
};
use ree_sim::{derive, SimTime};
use ree_stats::{Summary, TableBuilder};

/// The cell `label` of `table` under the seed tree's `root`: its run
/// window starts at `derive(root, "<table>/<label>")`, and its plan
/// boots from the seed that start derives for `"boot"`.
pub(crate) fn cell(root: u64, table: &str, label: impl Into<String>, mut plan: RunPlan) -> Arm {
    let label = label.into();
    let seed0 = derive(root, &format!("{table}/{label}"));
    plan.scenario.seed = derive(seed0, "boot");
    Arm::new(label, plan, seed0)
}

/// The plan of one single-application cell: texture on the four-node
/// testbed, no network faults.
pub(crate) fn plan(target: Target, model: ErrorModel, timeout_s: u64) -> RunPlan {
    RunPlan {
        scenario: Scenario::single_texture(0),
        target,
        model,
        timeout: SimTime::from_secs(timeout_s),
        net_faults: vec![],
    }
}

/// The `runs` scenario seeds of a fault-free baseline or a hand-driven
/// loop of repro target `target`: `derive(root, target) + i`.
pub(crate) fn seeds(root: u64, target: &str, runs: u32) -> impl Iterator<Item = u64> + Clone {
    let seed0 = derive(root, target);
    (0..u64::from(runs)).map(move |i| seed0.wrapping_add(i))
}

/// The row group Tables 4 and 6 repeat per error model: one cell per
/// target.
pub(crate) fn target_cells(root: u64, table: &str, model: ErrorModel, timeout_s: u64) -> Vec<Arm> {
    [Target::App, Target::Ftm, Target::ExecArmor, Target::Heartbeat]
        .into_iter()
        .map(|target| {
            let label = format!("{model} / {target}");
            cell(root, table, label, plan(target, model.clone(), timeout_s))
        })
        .collect()
}

/// Runs every cell for `runs` seeds from its first seed.
pub(crate) fn run_cells(cells: &[Arm], runs: u32) -> Vec<Row> {
    cells
        .iter()
        .map(|cell| Row {
            label: cell.label.clone(),
            results: Campaign::new(&cell.plan).runs(runs).seed(cell.seed0).collect(),
        })
        .collect()
}

/// One table row: a cell's label and its run results in seed order.
/// Columns are folds over `results`; which runs a column admits is the
/// table's choice and part of what it prints.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label.
    pub label: String,
    /// One result per run, in seed order.
    pub results: Vec<RunResult>,
}

impl Row {
    /// Runs `pred` admits.
    pub(crate) fn count(&self, pred: impl Fn(&RunResult) -> bool) -> u64 {
        self.results.iter().filter(|r| pred(r)).count() as u64
    }

    /// Runs whose induced failure was of `class`.
    pub(crate) fn induced(&self, class: FailureClass) -> u64 {
        self.count(|r| r.induced == Some(class))
    }

    /// Runs that ended in a system failure.
    pub(crate) fn system_failures(&self) -> u64 {
        self.count(|r| r.system_failure.is_some())
    }

    /// Perceived and actual execution time of job `slot` over the runs
    /// `pred` admits.
    pub(crate) fn timings(
        &self,
        slot: usize,
        pred: impl Fn(&RunResult) -> bool,
    ) -> (Summary, Summary) {
        let (mut perceived, mut actual) = (Summary::new(), Summary::new());
        for r in self.results.iter().filter(|r| pred(r)) {
            if let Some(Some(p)) = r.perceived_all.get(slot) {
                perceived.push(*p);
            }
            if let Some(Some(a)) = r.actual_all.get(slot) {
                actual.push(*a);
            }
        }
        (perceived, actual)
    }

    /// Every SIFT recovery time observed in the runs `pred` admits.
    pub(crate) fn recoveries(&self, pred: impl Fn(&RunResult) -> bool) -> Summary {
        let mut recovery = Summary::new();
        for rec in self.results.iter().filter(|r| pred(r)).flat_map(|r| &r.recovery_times) {
            recovery.push(*rec);
        }
        recovery
    }

    /// FAILURES and SUC. REC. of Tables 6, 7 and 12: runs with an
    /// induced failure, and how many of *those* recovered.
    pub(crate) fn failure_columns(&self) -> [String; 2] {
        [
            self.count(|r| r.induced.is_some()).to_string(),
            self.count(|r| r.induced.is_some() && r.recovered()).to_string(),
        ]
    }

    /// SEG FAULT, ILLEGAL, HANG and ASSERT of Tables 6 and 12.
    pub(crate) fn class_columns(&self) -> [String; 4] {
        use FailureClass::{Assertion, Hang, IllegalInstruction, SegFault};
        [SegFault, IllegalInstruction, Hang, Assertion].map(|class| self.induced(class).to_string())
    }

    /// PERCEIVED, ACTUAL and RECOVERY of Tables 6 and 7: execution
    /// times over injected runs that completed, recovery times over
    /// every run.
    pub(crate) fn time_columns(&self) -> [String; 3] {
        let (perceived, actual) = self.timings(0, |r| r.injections > 0 && r.completed);
        [perceived.display_pm(), actual.display_pm(), self.recoveries(|_| true).display_pm()]
    }
}

/// Runs `scenario` fault-free once per seed and returns each job slot's
/// (perceived, actual) execution time over the runs that completed
/// within `horizon`.
pub(crate) fn fault_free_times(
    scenario: &Scenario,
    seeds: impl IntoIterator<Item = u64>,
    horizon: SimTime,
) -> Vec<(Summary, Summary)> {
    let mut slots = vec![(Summary::new(), Summary::new()); scenario.jobs.len()];
    for seed in seeds {
        let mut run = Scenario { seed, ..scenario.clone() }.start();
        if !run.run_until_done(horizon) {
            continue;
        }
        for (slot, (perceived, actual)) in slots.iter_mut().enumerate() {
            let times = run.job_times(slot as u64);
            if let Some((p, a)) = times.and_then(|t| t.perceived().zip(t.actual())) {
                perceived.push(p.as_secs_f64());
                actual.push(a.as_secs_f64());
            }
        }
    }
    slots
}

/// A column computed from a cell's report: its header and its cell.
type Column = (&'static str, fn(&ArmReport) -> String);

/// A sweep under the adaptive engine: each cell stops as soon as its
/// recovery-rate Wilson interval meets the stopping rule's target
/// instead of spending a fixed run count.
#[derive(Debug, Clone)]
pub struct AdaptiveTable {
    title: &'static str,
    key: &'static str,
    extra: Option<Column>,
    /// One report per cell, in cell order.
    pub rows: Vec<ArmReport>,
    /// The rule every cell ran under.
    pub rule: StoppingRule,
}

impl AdaptiveTable {
    /// Runs `cells` as one adaptive sweep under `rule`. `key` heads the
    /// label column; `extra` is a column placed before CI TARGET.
    pub(crate) fn sweep(
        title: &'static str,
        key: &'static str,
        extra: Option<Column>,
        cells: &[Arm],
        rule: &StoppingRule,
    ) -> AdaptiveTable {
        let rows = adaptive::run_arms(cells, rule, None);
        AdaptiveTable { title, key, extra, rows, rule: rule.clone() }
    }

    /// Renders the per-cell spend next to what a fixed sweep would cost.
    pub fn render(&self) -> String {
        let mut headers = vec![self.key, "RUNS", "ERRORS INJ.", "RECOVERY RATE"];
        headers.extend(self.extra.map(|(header, _)| header));
        headers.push("CI TARGET");
        let mut t = TableBuilder::new(headers).with_title(self.title);
        for row in &self.rows {
            let mut line = vec![
                row.label.clone(),
                row.runs.to_string(),
                row.aggregate.errors_injected.to_string(),
                row.display_rate(),
            ];
            line.extend(self.extra.map(|(_, column)| column(row)));
            line.push(if row.target_met { "met".into() } else { "budget exhausted".into() });
            t.row(line);
        }
        let spent: u64 = self.rows.iter().map(|r| u64::from(r.runs)).sum();
        let fixed = u64::from(self.rule.max_runs) * self.rows.len() as u64;
        format!(
            "{}\ntarget ±{:.1}% at 95% confidence; {} runs spent vs {} for a fixed sweep\n",
            t.render(),
            self.rule.half_width * 100.0,
            spent,
            fixed,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{figures, partition, table10, table11, table4, table5, table6, table7, table8};
    use ree_apps::Verdict;

    /// A fault-free run that completed correctly in 75 s.
    fn clean_run() -> RunResult {
        RunResult {
            seed: 0,
            injections: 0,
            induced: None,
            completed: true,
            system_failure: None,
            output: Verdict::Correct,
            perceived: Some(75.0),
            actual: Some(74.0),
            perceived_all: vec![Some(75.0)],
            actual_all: vec![Some(74.0)],
            restarts: 0,
            recovery_times: vec![],
            correlated: false,
            assertion_fired: false,
            heap_hit: None,
            net_faults_applied: 0,
        }
    }

    /// The data cells of the rendered line that starts with `label`.
    fn line_of(rendered: &str, label: &str) -> Vec<String> {
        let line = rendered.lines().find(|l| l.trim_start().starts_with(label)).expect("row");
        line.split('|').skip(1).map(|cell| cell.trim().to_owned()).collect()
    }

    /// Every cell list, with the most runs `repro` spends per cell of it:
    /// Table 4's cells also run as `table4a`, and the adaptive sweeps
    /// stop at the paper rule's budget at the latest.
    #[test]
    fn the_cells_enumerated() {
        let budget = u64::from(StoppingRule::default().max_runs);
        type Cells = fn(u64) -> Vec<Arm>;
        let tables: [(&str, Cells, u64); 9] = [
            ("table4", table4::cells, budget),
            ("table5", table5::cells, 30),
            ("table6", table6::cells, 130),
            ("table7", table7::cells, 100),
            ("table8", table8::cells, 100),
            ("table10", table10::cells, 1000),
            ("table11", table11::cells, 30),
            ("partition", partition::cells, budget),
            ("fig6a", figures::fig6a_cells, budget),
        ];
        let (mut windows, mut boots) = (Vec::new(), Vec::new());
        for root in 0..64 {
            for (table, cells, runs) in tables {
                let cells = cells(root);
                // Table 11 pools the two cells of each label into one row.
                let copies = if table == "table11" { 2 } else { 1 };
                for a in &cells {
                    let same = cells.iter().filter(|b| b.label == a.label).count();
                    assert_eq!(same, copies, "{table}: label {:?}", a.label);
                    windows.push((a.seed0, runs, root, table, a.label.clone()));
                    boots.push(a.plan.scenario.seed);
                }
            }
        }
        // Disjoint windows: no run seed is shared by two cells of one
        // table, two tables, or two roots (adjacent or not).
        windows.sort();
        for pair in windows.windows(2) {
            let (start, runs, ..) = pair[0];
            assert!(start.checked_add(runs).is_some_and(|end| end <= pair[1].0), "{pair:?}");
        }
        boots.sort_unstable();
        boots.dedup();
        assert_eq!(boots.len(), windows.len(), "two cells boot from one seed");
    }

    #[test]
    fn tables_4_and_6_admit_different_runs() {
        // Recovery observed although the injection instant fell after
        // completion; and an injection that induced no failure.
        let uninjected = RunResult { recovery_times: vec![0.5], ..clean_run() };
        let masked = RunResult { injections: 1, ..clean_run() };
        let row = Row { label: "cell".into(), results: vec![uninjected, masked] };

        // Table 6: recovery times over every run, SUC. REC. among the
        // runs with an induced failure.
        assert_eq!(row.failure_columns(), ["0", "0"]);
        assert_eq!(row.time_columns(), ["75.00 ± 0.00", "74.00 ± 0.00", "0.50 ± 0.00"]);

        // Table 4: every column over the injected runs.
        let baseline = (Summary::new(), Summary::new());
        let rendered = table4::Table4 { baseline, rows: vec![row] }.render();
        let columns = line_of(&rendered, "cell");
        assert_eq!(columns, ["1", "1", "75.00 ± 0.00", "74.00 ± 0.00", "0.00 ± 0.00", "0"]);
    }

    #[test]
    fn timing_predicates_differ_by_table() {
        let timed_out = RunResult {
            injections: 1,
            induced: Some(FailureClass::Hang),
            completed: false,
            perceived_all: vec![Some(300.0), Some(9.0)],
            actual_all: vec![Some(299.0), None],
            ..clean_run()
        };
        let row = Row { label: "cell".into(), results: vec![timed_out, clean_run()] };
        // Tables 6/7 and 11 time completed runs only (6/7: injected
        // ones); Table 4 times every injected run.
        assert_eq!(row.time_columns()[0], "0.00 ± 0.00");
        assert_eq!(row.timings(0, |r| r.completed).0.n(), 1);
        assert_eq!(row.timings(0, |r| r.injections > 0).0.mean(), 300.0);
        // A slot a run has no time for is skipped, not zero.
        let (perceived, actual) = row.timings(1, |_| true);
        assert_eq!((perceived.n(), actual.n()), (1, 0));
        assert_eq!((row.induced(FailureClass::Hang), row.induced(FailureClass::SegFault)), (1, 0));
        assert_eq!(row.class_columns(), ["0", "0", "1", "0"]);
        assert_eq!(row.failure_columns(), ["1", "0"]);
    }

    #[test]
    fn table_4_footer_counts_unrecovered_runs() {
        let recovered = RunResult { injections: 1, ..clean_run() };
        let hung = RunResult { injections: 1, completed: false, ..clean_run() };
        let table = |results| table4::Table4 {
            baseline: (Summary::new(), Summary::new()),
            rows: vec![Row { label: "cell".into(), results }],
        };
        let all_recovered = table(vec![recovered.clone(), clean_run()]).render();
        assert!(
            all_recovered.ends_with(
                "with n = 1 injected runs and zero unrecovered errors, p < 5.0000% (95% conf.)\n"
            ),
            "{all_recovered}"
        );
        let one_lost = table(vec![recovered, hung]).render();
        assert!(one_lost.contains("1 of 2 injected runs did not recover"), "{one_lost}");
        assert!(!one_lost.contains("zero unrecovered"), "{one_lost}");
    }
}
