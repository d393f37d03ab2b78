//! Figure reproductions: 6 (hang-detection latency), 7 (FTM failures in
//! setup/teardown), 8 (slave-block correlated failure), 10 (the
//! install/notify race condition).

use crate::cells::{cell, plan, seeds};
use crate::effort::Effort;
use ree_apps::Scenario;
use ree_armor::{ArmorEvent, ControlOp, Value};
use ree_inject::{adaptive, Arm, ArmReport, ErrorModel, StoppingRule, Target};
use ree_os::{Signal, SpawnSpec, TraceEvent};
use ree_sift::{ids, tags, PI_CHECK_PERIOD};
use ree_sim::{SimDuration, SimTime};
use ree_stats::{Summary, TableBuilder};

/// Figure 6: distribution of application hang-detection latency under the
/// polling progress-indicator design (up to 2× the check period) versus
/// the interrupt-driven §5.1 variant (≤ ~1× period).
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Detection latencies with the polling design (seconds).
    pub polling: Summary,
    /// Detection latencies with the interrupt-driven design (seconds).
    pub interrupt: Summary,
    /// The configured check period (seconds).
    pub period_s: f64,
}

impl Fig6 {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec!["DESIGN", "MEAN (s)", "MIN (s)", "MAX (s)", "SAMPLES"])
            .with_title(format!(
                "Figure 6: hang-detection latency (progress indicators, {} s period)",
                self.period_s
            ));
        for (name, s) in
            [("polling (paper)", &self.polling), ("interrupt-driven (§5.1)", &self.interrupt)]
        {
            t.row(vec![
                name.into(),
                format!("{:.1}", s.mean()),
                format!("{:.1}", s.min()),
                format!("{:.1}", s.max()),
                s.n().to_string(),
            ]);
        }
        format!(
            "{}\npolling latency is bounded by 2x the checking period ({}s); interrupt-driven by ~1x\n",
            t.render(),
            self.period_s * 2.0
        )
    }
}

/// Measures hang-detection latency: SIGSTOP an application rank, read the
/// interval from injection to the Execution ARMOR's hang detection.
pub fn fig6(effort: Effort, root: u64) -> Fig6 {
    let period_s = PI_CHECK_PERIOD.as_secs_f64();
    let mut out = Fig6 { polling: Summary::new(), interrupt: Summary::new(), period_s };
    for interrupt_driven in [false, true] {
        for (i, seed) in (0..).zip(seeds(root, "fig6", effort.scale(40))) {
            let mut scenario = Scenario::single_texture(seed);
            scenario.sift.interrupt_driven_pi = interrupt_driven;
            let mut running = scenario.start();
            // Stop a rank mid-computation (well inside the filter phases).
            running.run_until(SimTime::from_secs(25 + (i % 30)));
            let Some(pid) =
                running.cluster.all_procs().into_iter().find(|p| {
                    running.cluster.name_of(*p).map(|n| n.contains("-r1-")).unwrap_or(false)
                })
            else {
                continue;
            };
            let injected_at = running.cluster.now();
            running.cluster.send_signal(pid, Signal::Stop);
            let detected = running.cluster.run_until_pred(SimTime::from_secs(150), |c| {
                c.trace().of_event(TraceEvent::AppHangDetected).any(|r| r.time > injected_at)
            });
            if detected {
                let t = running
                    .cluster
                    .trace()
                    .of_event(TraceEvent::AppHangDetected)
                    .find(|r| r.time > injected_at)
                    .map(|r| r.time)
                    .expect("detection record");
                let latency = t.since(injected_at).as_secs_f64();
                if interrupt_driven {
                    out.interrupt.push(latency);
                } else {
                    out.polling.push(latency);
                }
            }
        }
    }
    out
}

/// Figure 6 under the adaptive engine: a two-arm sweep (polling vs
/// interrupt-driven progress indicators) of SIGSTOP-into-application
/// hang campaigns, each arm stopping at its own confidence target.
#[derive(Debug, Clone)]
pub struct Fig6Adaptive {
    /// The polling-design arm.
    pub polling: ArmReport,
    /// The interrupt-driven arm.
    pub interrupt: ArmReport,
    /// The rule both arms ran under.
    pub rule: StoppingRule,
}

impl Fig6Adaptive {
    /// Renders the two arms' spend and perceived-time cost.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec![
            "DESIGN",
            "RUNS",
            "RECOVERY RATE",
            "PERCEIVED (s)",
            "CI TARGET",
        ])
        .with_title("Figure 6 (adaptive): hang campaigns, polling vs interrupt-driven PI");
        for row in [&self.polling, &self.interrupt] {
            t.row(vec![
                row.label.clone(),
                row.runs.to_string(),
                row.display_rate(),
                row.aggregate.perceived.display_pm(),
                if row.target_met { "met".into() } else { "budget exhausted".into() },
            ]);
        }
        format!(
            "{}\ntarget ±{:.1}% at 95% confidence; slower hang detection surfaces as \
             perceived-time cost, not lost recoveries\n",
            t.render(),
            self.rule.half_width * 100.0,
        )
    }
}

/// Runs the two Figure 6 designs as one adaptive sweep: SIGSTOP the
/// application (the hang model fig6 measures) with the progress
/// indicators polling vs interrupt-driven, until each arm's
/// recovery-rate interval meets `rule`'s target.
pub fn fig6_adaptive(rule: &StoppingRule, root: u64) -> Fig6Adaptive {
    let mut reports = adaptive::run_arms(&fig6a_cells(root), rule, None);
    let interrupt = reports.pop().expect("two arms");
    let polling = reports.pop().expect("two arms");
    Fig6Adaptive { polling, interrupt, rule: rule.clone() }
}

/// The two `fig6a` arms: polling, then interrupt-driven.
pub(crate) fn fig6a_cells(root: u64) -> Vec<Arm> {
    let arm = |interrupt_driven, label| {
        let mut plan = plan(Target::App, ErrorModel::Sigstop, 320);
        plan.scenario.sift.interrupt_driven_pi = interrupt_driven;
        cell(root, "fig6a", label, plan)
    };
    vec![arm(false, "polling (paper)"), arm(true, "interrupt-driven (§5.1)")]
}

/// Figure 7: FTM failures during setup/teardown inflate *perceived* time
/// while failures during execution barely touch *actual* time.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// (phase label, perceived summary, actual summary).
    pub phases: Vec<(String, Summary, Summary)>,
}

impl Fig7 {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec!["FTM KILLED DURING", "PERCEIVED (s)", "ACTUAL (s)"])
            .with_title("Figure 7: FTM failures in setup/takedown vs execution");
        for (label, p, a) in &self.phases {
            t.row(vec![label.clone(), p.display_pm(), a.display_pm()]);
        }
        t.render()
    }
}

/// Runs the Figure 7 experiment: SIGINT the FTM in a controlled phase.
pub fn fig7(effort: Effort, root: u64) -> Fig7 {
    let mut phases = Vec::new();
    for (label, window) in [
        ("setup (5.0-6.5 s)", (5_000_000u64, 6_500_000u64)),
        ("execution (20-70 s)", (20_000_000, 70_000_000)),
        ("takedown (last 2 s)", (0, 0)), // resolved dynamically below
    ] {
        let mut perceived = Summary::new();
        let mut actual = Summary::new();
        for (i, seed) in (0..).zip(seeds(root, "fig7", effort.scale(30))) {
            let mut running = Scenario::single_texture(seed).start();
            let kill_at = if window.1 > 0 {
                SimTime::from_micros(window.0 + (i * 77_777) % (window.1 - window.0))
            } else {
                // Takedown: kill just as the ranks finish (~80.5 s).
                SimTime::from_micros(80_400_000 + (i * 50_000) % 900_000)
            };
            running.run_until(kill_at);
            if let Some(ftm) = running.cluster.find_by_name("ftm") {
                running.cluster.send_signal(ftm, Signal::Int);
            }
            if running.run_until_done(SimTime::from_secs(400)) {
                if let Some(t) = running.job_times(0) {
                    if let (Some(p), Some(a)) = (t.perceived(), t.actual()) {
                        perceived.push(p.as_secs_f64());
                        actual.push(a.as_secs_f64());
                    }
                }
            }
        }
        phases.push((label.to_owned(), perceived, actual));
    }
    Fig7 { phases }
}

/// Figure 8 outcome: the FTM dies during MPI startup; the slave blocks,
/// rank 0 times out and aborts, and the environment restarts the
/// application once the FTM recovers.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Runs attempted.
    pub runs: u64,
    /// Runs exhibiting the MPI-abort correlated failure.
    pub aborts_observed: u64,
    /// Runs that finally completed anyway.
    pub completed: u64,
}

impl Fig8 {
    /// Renders the summary.
    pub fn render(&self) -> String {
        format!(
            "Figure 8: FTM killed during MPI launch: {} runs, {} rank-0 init aborts, {} completed after restart\n",
            self.runs, self.aborts_observed, self.completed
        )
    }
}

/// Runs the Figure 8 experiment.
pub fn fig8(effort: Effort, root: u64) -> Fig8 {
    let runs = effort.scale(30);
    let mut out = Fig8 { runs: runs.into(), aborts_observed: 0, completed: 0 };
    for (i, seed) in (0..).zip(seeds(root, "fig8", runs)) {
        let mut running = Scenario::single_texture(seed).start();
        // Kill the FTM right as rank 0 spawns the slave and the rank-pid
        // forwarding is in flight.
        running.run_until(SimTime::from_micros(6_600_000 + (i * 37_000) % 600_000));
        if let Some(ftm) = running.cluster.find_by_name("ftm") {
            running.cluster.send_signal(ftm, Signal::Int);
        }
        let done = running.run_until_done(SimTime::from_secs(400));
        if running.cluster.trace().any(TraceEvent::MpiInitTimeout)
            || running.cluster.trace().any(TraceEvent::MpiRankGaveUp)
        {
            out.aborts_observed += 1;
        }
        if done {
            out.completed += 1;
        }
    }
    out
}

/// Figure 10 outcome: a failure notification racing ahead of the
/// Execution ARMOR's registration leaves it unrecovered; registered
/// first (the fix), recovery proceeds.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// With the fix off: was the ARMOR left unrecovered?
    pub unrecovered_without_fix: bool,
    /// With the fix on: was the ARMOR recovered?
    pub recovered_with_fix: bool,
}

impl Fig10 {
    /// Renders the summary.
    pub fn render(&self) -> String {
        format!(
            "Figure 10: install/notify race — without fix: armor unrecovered = {}; with fix: armor recovered = {}\n",
            self.unrecovered_without_fix, self.recovered_with_fix
        )
    }
}

/// Reproduces the Figure 10 race deterministically by delivering the
/// failure notification to the FTM *before* the install ack (the paper's
/// adverse timing), with and without the registration delivered first.
/// No job is submitted, so the FTM's own install order never comes into
/// play: each arm is decided by the events delivered here.
pub fn fig10(root: u64) -> Fig10 {
    let mut outcomes = [false, false];
    for (slot, seed) in seeds(root, "fig10", 2).enumerate() {
        let registered_first = slot == 1;
        let mut scenario = Scenario::single_texture(seed);
        scenario.jobs.clear(); // no applications; we drive the race by hand
        let mut running = scenario.start();
        running.run_until(SimTime::from_secs(4));
        let ftm_pid = running.cluster.find_by_name("ftm").expect("ftm installed");

        // Synthesise the adverse ordering: the FTM hears about the failed
        // Execution ARMOR before the install ack arrives.
        let exec_id = ids::exec(0, 0).0 as u64;
        if registered_first {
            // With the fix the FTM pre-registers on `need-install`; here
            // we emulate its effect by delivering the registration first
            // (an `install-ack`-shaped record with the same timing).
            let pre = ArmorEvent::new(tags::INSTALL_ACK)
                .with("armor", Value::U64(exec_id))
                .with("pid", Value::U64(0))
                .with("node", Value::U64(2))
                .with("slot", Value::U64(0))
                .with("rank", Value::U64(0))
                .with("kind", Value::Str("exec".into()));
            send_control(&mut running, ftm_pid, pre);
        }
        let failure = ArmorEvent::new(tags::ARMOR_FAILED)
            .with("armor", Value::U64(exec_id))
            .with("node", Value::U64(2));
        send_control(&mut running, ftm_pid, failure);
        running.run_until(SimTime::from_secs(8));
        // Did the FTM initiate a reinstall?
        let reinstalled = running.cluster.trace().any(TraceEvent::ExecArmorInstalled);
        outcomes[slot] = reinstalled;
    }
    Fig10 { unrecovered_without_fix: !outcomes[0], recovered_with_fix: outcomes[1] }
}

fn send_control(running: &mut ree_apps::Running, to: ree_os::Pid, ev: ArmorEvent) {
    // Use a throwaway driver process to deliver control events.
    #[derive(Clone)]
    struct Driver {
        to: ree_os::Pid,
        ev: Option<ArmorEvent>,
    }
    impl ree_os::Process for Driver {
        fn kind(&self) -> &'static str {
            "driver"
        }
        fn on_start(&mut self, ctx: &mut ree_os::ProcCtx<'_>) {
            if let Some(ev) = self.ev.take() {
                ctx.send(self.to, "armor-control", 96, ControlOp::Raise(ev));
            }
            ctx.exit(0);
        }
        fn on_message(&mut self, _m: ree_os::Message, _c: &mut ree_os::ProcCtx<'_>) {}
    }
    running.cluster.spawn(SpawnSpec::new(
        "race-driver",
        ree_os::NodeId(0),
        Box::new(Driver { to, ev: Some(ev) }),
    ));
    let now = running.cluster.now();
    running.cluster.run_until(now + SimDuration::from_millis(400));
}
