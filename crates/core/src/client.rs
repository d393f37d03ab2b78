//! The SIFT application interface (§3.2): "each application process is
//! linked with a SIFT interface that establishes a one-way communication
//! channel with the local Execution ARMOR at application initialization.
//! … The interface used for these experiments contains functions for
//! initializing the communication channel, using progress indicators to
//! detect application hangs, and closing the communication channel."
//!
//! Calls are acknowledged by the Execution ARMOR; while an ack is
//! outstanding the application is expected to *block* (it is exactly this
//! blocking that couples application availability to SIFT-process
//! availability — §5.2's correlated failures and the Figure 9 SAN model).

use crate::blueprint::AppLaunch;
use crate::config::tags;
use ree_armor::{ArmorEvent, ControlOp, Value};
use ree_os::{Message, Pid, ProcCtx};
use ree_sim::{SimDuration, SimTime};

/// Outcome of feeding an OS message to the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientNote {
    /// The Execution ARMOR acknowledged the named call; the app may
    /// proceed.
    Acked(&'static str),
    /// The Execution ARMOR recovered and re-advertised its endpoint; any
    /// pending call was retransmitted.
    Rebound,
    /// The message was not for the SIFT client.
    NotMine,
}

#[derive(Clone, Debug)]
struct PendingCall {
    event: ArmorEvent,
    since: SimTime,
}

/// Client half of the SIFT interface, embedded in application processes.
#[derive(Clone, Debug)]
pub struct SiftClient {
    exec_pid: Option<Pid>,
    rank: u32,
    counter: u64,
    pending: Option<PendingCall>,
    attached: bool,
}

impl SiftClient {
    /// Builds the client from the launch descriptor. Outside the SIFT
    /// environment every call is a no-op and nothing ever blocks.
    pub fn new(launch: &AppLaunch) -> Self {
        SiftClient {
            exec_pid: launch.my_exec_pid(),
            rank: launch.rank,
            counter: 0,
            pending: None,
            attached: false,
        }
    }

    /// True when running under the SIFT environment.
    pub fn sift_enabled(&self) -> bool {
        self.exec_pid.is_some()
    }

    /// True while a call awaits its ack (the app should not proceed).
    pub fn is_blocked(&self) -> bool {
        self.pending.is_some()
    }

    /// How long the current call has been blocked.
    pub fn blocked_for(&self, now: SimTime) -> SimDuration {
        self.pending.as_ref().map(|p| now.since(p.since)).unwrap_or(SimDuration::ZERO)
    }

    /// True once the channel to the Execution ARMOR is established.
    pub fn is_attached(&self) -> bool {
        self.attached || self.exec_pid.is_none()
    }

    fn call(&mut self, os: &mut ProcCtx<'_>, event: ArmorEvent) {
        let Some(exec) = self.exec_pid else { return };
        self.pending = Some(PendingCall { event: event.clone(), since: os.now() });
        os.send(exec, "armor-control", 96, ControlOp::Raise(event));
    }

    /// Initializes the communication channel (Table 1 step 7 from the
    /// application side). Blocks until acknowledged.
    pub fn attach(&mut self, os: &mut ProcCtx<'_>) {
        let me = os.pid();
        let ev = ArmorEvent::new(tags::APP_ATTACH)
            .with("rank", Value::U64(self.rank as u64))
            .with("pid", Value::U64(me.0));
        self.call(os, ev);
    }

    /// Declares the progress-indicator check frequency ("before any
    /// progress indicators are sent, the application must tell the
    /// Execution ARMOR at what frequency to check").
    pub fn pi_create(&mut self, os: &mut ProcCtx<'_>, period: SimDuration) {
        let me = os.pid();
        let ev = ArmorEvent::new(tags::PI_CREATE)
            .with("period_us", Value::U64(period.as_micros()))
            .with("pid", Value::U64(me.0));
        self.call(os, ev);
    }

    /// Sends a progress-indicator update (an "I'm-alive" with a loop
    /// counter, §3.3).
    pub fn progress(&mut self, os: &mut ProcCtx<'_>) {
        self.counter += 1;
        let me = os.pid();
        let ev = ArmorEvent::new(tags::PI_UPDATE)
            .with("counter", Value::U64(self.counter))
            .with("pid", Value::U64(me.0));
        self.call(os, ev);
    }

    /// Reports a peer rank's pid (rank 0 only; Table 1 step 6). Does not
    /// block.
    pub fn report_rank_pid(&mut self, os: &mut ProcCtx<'_>, rank: u32, pid: Pid) {
        let Some(exec) = self.exec_pid else { return };
        let ev = ArmorEvent::new(tags::RANK_PID)
            .with("rank", Value::U64(rank as u64))
            .with("pid", Value::U64(pid.0));
        os.send(exec, "armor-control", 96, ControlOp::Raise(ev));
    }

    /// Notifies the ARMOR of a clean exit so it is not misread as a
    /// crash (§3.3). Blocks until acknowledged.
    pub fn notify_exit(&mut self, os: &mut ProcCtx<'_>) {
        let me = os.pid();
        let ev = ArmorEvent::new(tags::APP_EXITING)
            .with("rank", Value::U64(self.rank as u64))
            .with("pid", Value::U64(me.0));
        self.call(os, ev);
    }

    /// Feeds an inbound OS message to the client; returns what happened.
    pub fn handle_message(&mut self, msg: &Message, os: &mut ProcCtx<'_>) -> ClientNote {
        match msg.label {
            "sift-ack" => {
                let kind = msg.peek::<&'static str>().copied().unwrap_or("unknown");
                if kind == tags::APP_ATTACH {
                    self.attached = true;
                }
                self.pending = None;
                ClientNote::Acked(kind)
            }
            "sift-rebind" => {
                if let Some(new_pid) = msg.peek::<Pid>() {
                    self.exec_pid = Some(*new_pid);
                    // Retransmit whatever was in flight toward the dead
                    // incarnation.
                    if let Some(pending) = self.pending.clone() {
                        let exec = *new_pid;
                        os.send(exec, "armor-control", 96, ControlOp::Raise(pending.event));
                    }
                }
                ClientNote::Rebound
            }
            _ => ClientNote::NotMine,
        }
    }

    /// Retries the pending call (apps call this on a periodic timer while
    /// blocked; the channel itself is unreliable during ARMOR recovery).
    pub fn retry_pending(&mut self, os: &mut ProcCtx<'_>) {
        if let (Some(pending), Some(exec)) = (self.pending.clone(), self.exec_pid) {
            os.send(exec, "armor-control", 96, ControlOp::Raise(pending.event));
        }
    }
}
