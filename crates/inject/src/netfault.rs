//! Network fault plans: a partition during recovery as a first-class
//! injection target.
//!
//! The paper's testbed could not exercise interconnect faults — the
//! classic SIFT stressor it names but never runs is a *partition during
//! recovery* (§5.2 attributes the only actual-execution-time overhead
//! of FTM recovery to network contention). A [`NetFault`] describes one
//! such fault: which node groups to split, and for how long, from the
//! moment the run's first failure detection starts a recovery. Plans
//! carry any number of them in [`crate::RunPlan::net_faults`], so every
//! campaign surface — the [`crate::Campaign`] builder, the adaptive
//! engine, warm-boot forking — gains network faults without further
//! plumbing.
//!
//! Faults are imposed as administrative endpoint-pair blocks
//! ([`ree_os::Network::set_link_down`]), which work on any topology.
//! The driver is deterministic: activation instants are a pure function
//! of the plan and the run's trace, so campaigns stay byte-identical
//! across thread counts and warm-vs-cold boot.

use ree_apps::Running;
use ree_os::{NodeId, Trace, TraceDetail, TraceEvent, TraceKind};
use ree_sim::{SimDuration, SimTime};

/// One planned partition: imposed at the run's first failure-detection
/// trace event ([`TraceEvent::is_failure_detection`]) — the error model
/// induces a failure, and the moment the SIFT environment *detects* it,
/// the network splits under the recovery protocol — and healed
/// `duration` later.
#[derive(Clone, Debug, PartialEq)]
pub struct NetFault {
    /// The node groups to isolate from each other: every pair with ends
    /// in different groups is severed. Traffic *within* a group (and to
    /// nodes not listed) still flows.
    pub groups: Vec<Vec<u16>>,
    /// How long the partition lasts before the links heal.
    pub duration: SimDuration,
}

impl NetFault {
    /// A partition splitting `groups` for `duration`, imposed the
    /// moment the first failure detection starts a recovery.
    pub fn partition_on_recovery(groups: Vec<Vec<u16>>, duration: SimDuration) -> NetFault {
        NetFault { groups, duration }
    }

    /// The endpoint pairs this fault blocks.
    fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (i, ga) in self.groups.iter().enumerate() {
            for gb in self.groups.iter().skip(i + 1) {
                for &a in ga {
                    for &b in gb {
                        out.push((NodeId(a), NodeId(b)));
                    }
                }
            }
        }
        out
    }
}

/// Failure-detection events recorded so far (the recovery-start signal).
fn detections(trace: &Trace) -> u64 {
    TraceEvent::FAILURE_DETECTIONS.iter().map(|e| trace.count_of(*e)).sum()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// Waiting for the recovery-start signal.
    Waiting,
    /// Active; heals at the instant.
    Active(SimTime),
    /// Healed.
    Done,
}

/// Drives a run while imposing and healing the plan's network faults at
/// the right instants. With an empty plan this is exactly
/// [`Running::run_until_done`] — zero overhead on the hot path.
#[derive(Debug)]
pub(crate) struct NetFaultDriver<'p> {
    faults: &'p [NetFault],
    phase: Vec<Phase>,
    /// Detection events seen when the driver first ran; `None` until then.
    baseline: Option<u64>,
}

impl<'p> NetFaultDriver<'p> {
    pub(crate) fn new(faults: &'p [NetFault]) -> Self {
        NetFaultDriver { faults, phase: vec![Phase::Waiting; faults.len()], baseline: None }
    }

    /// Number of faults that reached their activation instant.
    pub(crate) fn applied(&self) -> u32 {
        self.phase.iter().filter(|p| **p != Phase::Waiting).count() as u32
    }

    /// Runs until every job completes (true) or `horizon` passes
    /// (false), imposing/healing faults on the way.
    pub(crate) fn run(&mut self, running: &mut Running, horizon: SimTime) -> bool {
        if self.faults.is_empty() {
            return running.run_until_done(horizon);
        }
        let baseline = *self.baseline.get_or_insert_with(|| detections(running.cluster.trace()));
        loop {
            self.heal_due(running, running.cluster.now());
            let stop = self.next_heal().map_or(horizon, |t| t.min(horizon));
            // Every fault waits for the same detection, so all wait or none.
            let waiting = self.phase[0] == Phase::Waiting;
            let done = if waiting {
                running.run_until_done_or(stop, |c| detections(c.trace()) > baseline)
            } else {
                running.run_until_done(stop)
            };
            let now = running.cluster.now();
            let fired = waiting && detections(running.cluster.trace()) > baseline;
            if fired {
                self.impose(running, now);
            }
            self.heal_due(running, now);
            if done {
                return true;
            }
            if now >= horizon {
                return false;
            }
            if !fired && now < stop {
                // The event queue drained before the stop instant: no
                // further event can observe the network, so pending
                // fault transitions are moot. Hand control back.
                return false;
            }
        }
    }

    fn next_heal(&self) -> Option<SimTime> {
        self.phase
            .iter()
            .filter_map(|p| match p {
                Phase::Active(t) => Some(*t),
                _ => None,
            })
            .min()
    }

    /// Imposes every fault at `now`, healing each zero-length one in turn.
    fn impose(&mut self, running: &mut Running, now: SimTime) {
        for (i, fault) in self.faults.iter().enumerate() {
            let pairs = fault.pairs();
            for &(a, b) in &pairs {
                running.cluster.network_mut().set_link_down(a, b, true);
            }
            running.cluster.trace_mut().push(
                now,
                None,
                TraceKind::Injection,
                TraceDetail::Custom(
                    format!("net fault imposed: {} pair(s) severed", pairs.len()).into(),
                ),
            );
            let until = now + fault.duration;
            self.phase[i] = Phase::Active(until);
            if until <= now {
                self.heal(running, i, now);
            }
        }
    }

    /// Heals every fault whose window closed at or before `now`.
    fn heal_due(&mut self, running: &mut Running, now: SimTime) {
        for i in 0..self.faults.len() {
            if matches!(self.phase[i], Phase::Active(until) if until <= now) {
                self.heal(running, i, now);
            }
        }
    }

    fn heal(&mut self, running: &mut Running, i: usize, now: SimTime) {
        for (a, b) in self.faults[i].pairs() {
            running.cluster.network_mut().set_link_down(a, b, false);
        }
        running.cluster.trace_mut().push(
            now,
            None,
            TraceKind::Recovery,
            TraceDetail::Static("net fault healed"),
        );
        self.phase[i] = Phase::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ree_apps::{Scenario, TextureParams};
    use ree_os::{Pid, Signal, TraceRecord};
    use ree_sift::JobSpec;

    /// The model checker's 2-node shrunk texture setup: small enough
    /// that debug-mode trigger tests stay fast.
    fn tiny_scenario(seed: u64) -> Scenario {
        let mut s = Scenario::single_texture(seed);
        s.nodes = 2;
        s.texture = TextureParams {
            image_px: 32,
            tile_px: 8,
            clusters: 2,
            images: 1,
            load_time: SimDuration::from_secs(1),
            filter_time: SimDuration::from_secs(4),
            cluster_time: SimDuration::from_secs(3),
            write_time: SimDuration::from_secs(1),
            pi_period: SimDuration::from_secs(10),
        };
        s.jobs = vec![JobSpec {
            app: "texture".into(),
            ranks: 2,
            nodes: vec![0, 1],
            submit_at: SimDuration::from_secs(5),
        }];
        s
    }

    /// Lowest-pid live application rank (re-resolved after recoveries).
    fn app_pid(running: &Running) -> Pid {
        let c = &running.cluster;
        let mut pids: Vec<Pid> = c
            .all_procs()
            .into_iter()
            .filter(|p| c.name_of(*p).map(|n| n.starts_with("texture-")).unwrap_or(false))
            .collect();
        pids.sort_unstable();
        *pids.first().expect("an application rank is alive")
    }

    fn is_imposition(r: &TraceRecord) -> bool {
        r.kind == TraceKind::Injection
            && match &r.detail {
                TraceDetail::Custom(s) => s.contains("net fault imposed"),
                TraceDetail::Static(s) => s.contains("net fault imposed"),
                _ => false,
            }
    }

    fn imposition_times(running: &Running) -> Vec<SimTime> {
        running.cluster.trace().records().filter(|r| is_imposition(r)).map(|r| r.time).collect()
    }

    fn detection_times(running: &Running) -> Vec<SimTime> {
        running
            .cluster
            .trace()
            .records()
            .filter(|r| r.event.map(|e| e.is_failure_detection()).unwrap_or(false))
            .map(|r| r.time)
            .collect()
    }

    /// A partition goes up at the detection instant itself — not one
    /// driver hop later.
    #[test]
    fn zero_delay_trigger_imposes_at_the_detection_instant() {
        let mut running = tiny_scenario(3).start();
        running.run_until(SimTime::from_secs(9));
        let faults =
            [NetFault::partition_on_recovery(vec![vec![0], vec![1]], SimDuration::from_secs(2))];
        let mut driver = NetFaultDriver::new(&faults);
        // Baseline the driver on the healthy run, then induce a failure.
        let now = running.cluster.now();
        driver.run(&mut running, now);
        running.cluster.send_signal(app_pid(&running), Signal::Int);
        driver.run(&mut running, SimTime::from_secs(120));
        assert_eq!(driver.applied(), 1);
        let detections = detection_times(&running);
        assert!(!detections.is_empty(), "the kill must be detected");
        assert_eq!(imposition_times(&running), vec![detections[0]]);
    }

    /// Every partition goes up once, at the FIRST detection; later
    /// detections in the same run must not re-impose anything.
    #[test]
    fn recovery_triggers_arm_once_on_the_first_detection() {
        let mut running = tiny_scenario(4).start();
        running.run_until(SimTime::from_secs(9));
        let faults = [
            NetFault::partition_on_recovery(vec![vec![0], vec![1]], SimDuration::from_secs(1)),
            NetFault::partition_on_recovery(vec![vec![1], vec![0]], SimDuration::from_secs(3)),
        ];
        let mut driver = NetFaultDriver::new(&faults);
        let now = running.cluster.now();
        driver.run(&mut running, now);
        running.cluster.send_signal(app_pid(&running), Signal::Int);
        driver.run(&mut running, SimTime::from_secs(15));
        // A second, consecutive detection from a fresh kill.
        running.cluster.send_signal(app_pid(&running), Signal::Int);
        driver.run(&mut running, SimTime::from_secs(120));
        let detections = detection_times(&running);
        assert!(detections.len() >= 2, "need consecutive detections, got {detections:?}");
        assert_eq!(driver.applied(), 2, "each fault imposed exactly once");
        assert_eq!(imposition_times(&running), vec![detections[0]; 2]);
    }

    /// A waiting trigger whose window closes without any detection (a
    /// fault-free run) must never fire, and must not keep the run from
    /// completing.
    #[test]
    fn waiting_trigger_never_fires_without_a_detection() {
        let mut running = tiny_scenario(5).start();
        let faults =
            [NetFault::partition_on_recovery(vec![vec![0], vec![1]], SimDuration::from_secs(5))];
        let mut driver = NetFaultDriver::new(&faults);
        let done = driver.run(&mut running, SimTime::from_secs(120));
        assert!(done, "fault-free run completes");
        assert_eq!(driver.applied(), 0, "no detection, no imposition");
        assert!(imposition_times(&running).is_empty());
        assert!(detection_times(&running).is_empty());
    }
}
