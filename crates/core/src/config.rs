//! SIFT environment configuration and identity conventions.

use ree_sim::SimDuration;

/// Fixed ARMOR identity assignments used by the SIFT environment.
pub mod ids {
    use ree_armor::ArmorId;

    /// The Fault Tolerance Manager.
    pub(crate) const FTM: ArmorId = ArmorId(1);
    /// The Heartbeat ARMOR.
    pub(crate) const HEARTBEAT: ArmorId = ArmorId(2);

    /// The daemon ARMOR for a node.
    pub(crate) fn daemon(node: u16) -> ArmorId {
        ArmorId(10 + node as u32)
    }

    /// The Execution ARMOR overseeing MPI rank `rank` of an application
    /// slot (one slot per concurrently managed application).
    pub fn exec(slot: u32, rank: u32) -> ArmorId {
        ArmorId(100 + slot * 32 + rank)
    }
}

/// Execution-ARMOR progress-indicator check period (§3.3: the FFT
/// filters run ~20 s, so checking faster would raise false alarms).
pub const PI_CHECK_PERIOD: SimDuration = SimDuration::from_secs(20);

/// How long an application blocks on an unavailable SIFT process before
/// giving up (the SAN model's `app_timeout`).
pub const APP_BLOCK_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// How long rank 0 waits for its peer ranks during MPI startup before
/// aborting the launch.
pub const MPI_INIT_TIMEOUT: SimDuration = SimDuration::from_secs(15);

/// The settings the paper's experiments vary.
///
/// The default is the evaluated configuration: 10 s heartbeats at every
/// level ("every 10 s in our experiments", §3.3) and polled progress
/// indicators.
#[derive(Clone, Debug)]
pub struct SiftConfig {
    /// Period of all three heartbeats, which Table 5 sweeps together:
    /// FTM → daemon (node failure detection), Heartbeat ARMOR → FTM, and
    /// each daemon's "Are-you-alive?" probe of its local ARMORs.
    pub heartbeat_period: SimDuration,
    /// Whether the Execution ARMOR uses the interrupt-driven
    /// progress-indicator design (§5.1 discussion) instead of polling
    /// every [`PI_CHECK_PERIOD`].
    pub interrupt_driven_pi: bool,
}

impl Default for SiftConfig {
    fn default() -> Self {
        SiftConfig { heartbeat_period: SimDuration::from_secs(10), interrupt_driven_pi: false }
    }
}

/// Event tags of the SIFT protocol. Kept in one place so elements and
/// tests agree on the vocabulary.
pub mod tags {
    /// Runtime start event (raised once an ARMOR is ready).
    pub(crate) const ARMOR_START: &str = "armor-start";
    /// Daemon registers itself with the FTM.
    pub(crate) const DAEMON_REGISTER: &str = "daemon-register";
    /// SCC or FTM instructs a daemon to install an ARMOR.
    pub(crate) const INSTALL_ARMOR: &str = "install-armor";
    /// Daemon confirms an installation.
    pub const INSTALL_ACK: &str = "install-ack";
    /// Daemon notifies the FTM that a local ARMOR failed.
    pub const ARMOR_FAILED: &str = "armor-failed";
    /// FTM (or Heartbeat ARMOR) instructs a daemon to reinstall an ARMOR.
    pub(crate) const REINSTALL_ARMOR: &str = "reinstall-armor";
    /// Daemon confirms a reinstallation (carries the new pid).
    pub(crate) const REINSTALL_ACK: &str = "reinstall-ack";
    /// SCC submits an application for execution.
    pub(crate) const SUBMIT_APP: &str = "submit-app";
    /// FTM instructs an Execution ARMOR to launch its MPI process.
    pub(crate) const LAUNCH_APP: &str = "launch-app";
    /// Execution ARMOR reports the application process started.
    pub(crate) const APP_STARTED: &str = "app-started";
    /// Rank-0 reports a peer rank's pid (routed app → Exec ARMOR → FTM →
    /// peer's Exec ARMOR, Table 1 step 6).
    pub(crate) const RANK_PID: &str = "rank-pid";
    /// FTM forwards a rank pid to the owning Execution ARMOR.
    pub(crate) const YOUR_RANK_PID: &str = "your-rank-pid";
    /// Application attaches to its local Execution ARMOR (SIFT interface
    /// channel setup).
    pub const APP_ATTACH: &str = "app-attach";
    /// Progress-indicator creation (declares the check frequency).
    pub const PI_CREATE: &str = "pi-create";
    /// Progress-indicator update.
    pub(crate) const PI_UPDATE: &str = "progress-indicator";
    /// Application announces clean exit (so the ARMOR does not treat the
    /// exit as a crash, §3.3).
    pub const APP_EXITING: &str = "app-exiting";
    /// Execution ARMOR reports application termination to the FTM.
    pub(crate) const APP_TERMINATED: &str = "app-terminated";
    /// Execution ARMOR reports an application failure to the FTM.
    pub(crate) const APP_FAILED: &str = "app-failed";
    /// FTM instructs Execution ARMORs to kill their local rank (app-wide
    /// restart).
    pub(crate) const STOP_APP: &str = "stop-app";
    /// FTM heartbeat ping to a daemon.
    pub(crate) const DAEMON_HB_PING: &str = "daemon-hb-ping";
    /// Daemon heartbeat reply.
    pub(crate) const DAEMON_HB_ACK: &str = "daemon-hb-ack";
    /// Heartbeat-ARMOR ping to the FTM.
    pub(crate) const FTM_HB_PING: &str = "ftm-hb-ping";
    /// FTM reply to the Heartbeat ARMOR.
    pub(crate) const FTM_HB_ACK: &str = "ftm-hb-ack";
    /// Daemon probe of a local ARMOR.
    pub(crate) const ARE_YOU_ALIVE: &str = "are-you-alive";
    /// Local ARMOR probe reply.
    pub(crate) const ALIVE_ACK: &str = "alive-ack";
    /// Route propagation (armor id → pid) among daemons.
    pub(crate) const ROUTE_UPDATE: &str = "route-update";
    /// Node declared failed (raised inside the FTM).
    pub(crate) const NODE_FAILED: &str = "node-failed";
    /// Uninstall an Execution ARMOR after its application completed.
    pub(crate) const UNINSTALL_ARMOR: &str = "uninstall-armor";
    /// Internal FTM event: all ranks of an app finished cleanly.
    pub(crate) const APP_COMPLETE: &str = "app-complete";
}

/// Well-known instance-name prefixes (trace queries and tests).
pub mod names {
    /// The FTM process name.
    pub(crate) const FTM: &str = "ftm";
    /// The Heartbeat ARMOR process name.
    pub(crate) const HEARTBEAT: &str = "heartbeat";

    /// Daemon instance name for a node.
    pub(crate) fn daemon(node: u16) -> String {
        format!("daemon{node}")
    }

    /// Execution ARMOR instance name.
    pub(crate) fn exec(slot: u32, rank: u32) -> String {
        format!("exec{slot}_{rank}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ree_armor::ArmorId;

    /// Returns true for identities in the Execution-ARMOR range.
    fn is_exec_armor(id: ArmorId) -> bool {
        id.0 >= 100
    }

    /// Returns true for identities in the daemon range.
    fn is_daemon(id: ArmorId) -> bool {
        (10..100).contains(&id.0)
    }

    #[test]
    fn id_ranges_do_not_collide() {
        assert!(is_daemon(ids::daemon(0)));
        assert!(is_daemon(ids::daemon(63)));
        assert!(is_exec_armor(ids::exec(0, 0)));
        assert!(is_exec_armor(ids::exec(3, 31)));
        assert!(!is_exec_armor(ids::FTM));
        assert!(!is_daemon(ids::FTM));
        assert!(!is_daemon(ids::HEARTBEAT));
        assert_ne!(ids::exec(0, 1), ids::exec(1, 0));
    }

    #[test]
    fn default_config_matches_paper() {
        let c = SiftConfig::default();
        assert_eq!(c.heartbeat_period, SimDuration::from_secs(10));
        assert_eq!(PI_CHECK_PERIOD, SimDuration::from_secs(20));
        assert!(!c.interrupt_driven_pi);
    }
}
