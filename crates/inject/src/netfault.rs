//! Network fault plans: link failures, partitions, and correlated
//! multi-link failures as first-class injection targets.
//!
//! The paper's testbed could not exercise interconnect faults — the
//! classic SIFT stressor it names but never runs is a *partition during
//! recovery* (§5.2 attributes the only actual-execution-time overhead
//! of FTM recovery to network contention). A [`NetFault`] describes one
//! such fault: what to sever ([`NetFaultKind`]), when to impose it
//! ([`NetFaultTrigger`]), and for how long. Plans carry any number of
//! them in [`crate::RunPlan::net_faults`], so every campaign surface —
//! the [`crate::Campaign`] builder, the adaptive engine, warm-boot
//! forking — gains network faults without further plumbing.
//!
//! Faults are imposed as administrative endpoint-pair blocks
//! ([`ree_os::Network::set_link_down`]), which work on any topology.
//! The driver is deterministic: activation instants are a pure function
//! of the plan and the run's trace, so campaigns stay byte-identical
//! across thread counts and warm-vs-cold boot.

use ree_apps::Running;
use ree_os::{NodeId, Trace, TraceDetail, TraceEvent, TraceKind};
use ree_sim::{SimDuration, SimTime};

/// What a network fault severs.
#[derive(Clone, Debug, PartialEq)]
pub enum NetFaultKind {
    /// Severs the path between two endpoint nodes (both directions).
    Link {
        /// One endpoint.
        a: u16,
        /// The other endpoint.
        b: u16,
    },
    /// Severs several endpoint pairs at once (correlated link failure —
    /// e.g. every port of one switch card).
    Correlated {
        /// The endpoint pairs to sever together.
        pairs: Vec<(u16, u16)>,
    },
    /// Splits the listed node groups from each other: every pair with
    /// ends in different groups is severed. Traffic *within* a group
    /// (and to nodes not listed) still flows.
    Partition {
        /// The node groups to isolate from each other.
        groups: Vec<Vec<u16>>,
    },
}

impl NetFaultKind {
    /// The endpoint pairs this fault blocks.
    fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        match self {
            NetFaultKind::Link { a, b } => vec![(NodeId(*a), NodeId(*b))],
            NetFaultKind::Correlated { pairs } => {
                pairs.iter().map(|(a, b)| (NodeId(*a), NodeId(*b))).collect()
            }
            NetFaultKind::Partition { groups } => {
                let mut out = Vec::new();
                for (i, ga) in groups.iter().enumerate() {
                    for gb in groups.iter().skip(i + 1) {
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
    }
}

/// When a network fault is imposed.
#[derive(Clone, Debug, PartialEq)]
pub enum NetFaultTrigger {
    /// At a fixed virtual-time instant.
    At(SimTime),
    /// `delay` after the run's first failure-detection trace event —
    /// the start of a recovery ([`TraceEvent::is_failure_detection`]).
    /// This is the partition-during-recovery stressor: the error model
    /// induces a failure, and the moment the SIFT environment *detects*
    /// it, the network splits under the recovery protocol.
    OnRecoveryStart {
        /// Delay from detection to imposition.
        delay: SimDuration,
    },
}

/// One planned network fault: what, when, and for how long.
#[derive(Clone, Debug, PartialEq)]
pub struct NetFault {
    /// What to sever.
    pub kind: NetFaultKind,
    /// When to impose it.
    pub trigger: NetFaultTrigger,
    /// How long the fault lasts before the links heal.
    pub duration: SimDuration,
}

impl NetFault {
    /// A partition splitting `groups` for `duration`, imposed the
    /// moment the first failure detection starts a recovery.
    pub fn partition_on_recovery(groups: Vec<Vec<u16>>, duration: SimDuration) -> NetFault {
        NetFault {
            kind: NetFaultKind::Partition { groups },
            trigger: NetFaultTrigger::OnRecoveryStart { delay: SimDuration::ZERO },
            duration,
        }
    }

    /// A two-ended link failure over a fixed window.
    pub fn link_at(a: u16, b: u16, at: SimTime, duration: SimDuration) -> NetFault {
        NetFault { kind: NetFaultKind::Link { a, b }, trigger: NetFaultTrigger::At(at), duration }
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
    /// Will activate at the instant.
    Armed(SimTime),
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
    /// Detection events seen; `None` until baselined on first use.
    seen: Option<u64>,
    applied: u32,
}

impl<'p> NetFaultDriver<'p> {
    pub(crate) fn new(faults: &'p [NetFault]) -> Self {
        let phase = faults
            .iter()
            .map(|f| match f.trigger {
                NetFaultTrigger::At(t) => Phase::Armed(t),
                NetFaultTrigger::OnRecoveryStart { .. } => Phase::Waiting,
            })
            .collect();
        NetFaultDriver { faults, phase, seen: None, applied: 0 }
    }

    /// Number of faults that reached their activation instant.
    pub(crate) fn applied(&self) -> u32 {
        self.applied
    }

    /// Runs until every job completes (true) or `horizon` passes
    /// (false), imposing/healing faults on the way.
    pub(crate) fn run(&mut self, running: &mut Running, horizon: SimTime) -> bool {
        if self.faults.is_empty() {
            return running.run_until_done(horizon);
        }
        if self.seen.is_none() {
            self.seen = Some(detections(running.cluster.trace()));
        }
        loop {
            let now = running.cluster.now();
            self.transition(running, now);
            let stop = self.next_transition().map_or(horizon, |t| t.min(horizon));
            let watching = self.faults.iter().zip(&self.phase).any(|(f, p)| {
                *p == Phase::Waiting && matches!(f.trigger, NetFaultTrigger::OnRecoveryStart { .. })
            });
            let baseline = self.seen.unwrap_or(0);
            let done = if watching {
                running.run_until_done_or(stop, |c| detections(c.trace()) > baseline)
            } else {
                running.run_until_done(stop)
            };
            let now = running.cluster.now();
            let count = detections(running.cluster.trace());
            let fired = count > baseline;
            if fired {
                self.seen = Some(count);
                for (i, f) in self.faults.iter().enumerate() {
                    if let (Phase::Waiting, NetFaultTrigger::OnRecoveryStart { delay }) =
                        (self.phase[i], &f.trigger)
                    {
                        self.phase[i] = Phase::Armed(now + *delay);
                    }
                }
            }
            self.transition(running, now);
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

    fn next_transition(&self) -> Option<SimTime> {
        self.phase
            .iter()
            .filter_map(|p| match p {
                Phase::Armed(t) | Phase::Active(t) => Some(*t),
                _ => None,
            })
            .min()
    }

    /// Applies every transition due at or before `now`.
    fn transition(&mut self, running: &mut Running, now: SimTime) {
        for i in 0..self.faults.len() {
            match self.phase[i] {
                Phase::Armed(at) if at <= now => {
                    let pairs = self.faults[i].kind.pairs();
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
                    self.applied += 1;
                    let until = at + self.faults[i].duration;
                    if until <= now {
                        self.heal(running, i, now);
                    } else {
                        self.phase[i] = Phase::Active(until);
                    }
                }
                Phase::Active(until) if until <= now => {
                    self.heal(running, i, now);
                }
                _ => {}
            }
        }
    }

    fn heal(&mut self, running: &mut Running, i: usize, now: SimTime) {
        for (a, b) in self.faults[i].kind.pairs() {
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

    /// `OnRecoveryStart` with zero delay must impose the fault at the
    /// detection instant itself — not one driver hop later.
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

    /// A recovery trigger fires once, off the FIRST detection; later
    /// detections in the same run must not re-arm or re-impose anything.
    /// Pin also that *every* waiting fault arms on that first detection
    /// (delays measured from it, not from per-fault detections).
    #[test]
    fn recovery_triggers_arm_once_on_the_first_detection() {
        let mut running = tiny_scenario(4).start();
        running.run_until(SimTime::from_secs(9));
        let faults = [
            NetFault {
                kind: NetFaultKind::Link { a: 0, b: 1 },
                trigger: NetFaultTrigger::OnRecoveryStart { delay: SimDuration::ZERO },
                duration: SimDuration::from_secs(1),
            },
            NetFault {
                kind: NetFaultKind::Link { a: 0, b: 1 },
                trigger: NetFaultTrigger::OnRecoveryStart { delay: SimDuration::from_secs(3) },
                duration: SimDuration::from_secs(1),
            },
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
        let imposed = imposition_times(&running);
        assert_eq!(imposed.len(), 2);
        assert_eq!(imposed[0], detections[0]);
        assert_eq!(
            imposed[1],
            detections[0] + SimDuration::from_secs(3),
            "delay measured from the first detection, not a later one"
        );
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
