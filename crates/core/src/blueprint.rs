//! Factories assembling concrete ARMORs from elements, and the
//! application registry used to launch MPI processes.
//!
//! A [`Blueprint`] is the shared recipe book of a SIFT deployment: the
//! SCC uses it to build daemons, daemons use it to build the FTM /
//! Heartbeat / Execution ARMORs (including fork-style recovery copies),
//! and Execution ARMORs use it to launch application processes.

use crate::common::{Configurator, ProbeResponder};
use crate::config::{ids, names, SiftConfig};
use crate::daemon::{DaemonGateway, DaemonInstaller, LocalProber};
use crate::exec::{AppMonitor, ProgressWatch};
use crate::ftm::{
    AppParam, DaemonHb, ExecArmorInfo, FtmHbResponder, MgrAppDetect, MgrArmorInfo, NodeMgmt,
    SccIface,
};
use crate::heartbeat::HbWatch;
use ree_armor::{ArmorId, ArmorOptions, ArmorProcess, Element, Gateway, RestorePolicy};
use ree_os::{NodeId, Pid, Process};
use std::sync::Arc;

/// Constructs the process for one MPI rank of an application.
///
/// Factories are shared (`Arc`) and thread-portable: a warm-boot
/// snapshot carries them inside cloned processes, and campaign workers
/// invoke them concurrently.
pub type AppFactory = Arc<dyn Fn(&AppLaunch) -> Box<dyn Process> + Send + Sync>;

/// Everything an application process needs to know at launch.
#[derive(Clone)]
pub struct AppLaunch {
    /// Application name (registry key).
    pub app: String,
    /// Application slot within the SIFT environment.
    pub slot: u32,
    /// This process's MPI rank.
    pub rank: u32,
    /// Total number of ranks.
    pub size: u32,
    /// Node assignment per rank.
    pub nodes: Vec<u16>,
    /// Execution-ARMOR process per rank (SIFT interface endpoints).
    pub exec_pids: Vec<Pid>,
    /// Launch attempt (0 = first; restarts increment).
    pub attempt: u32,
    /// False when running outside the SIFT environment (Table 3
    /// baseline).
    pub sift_enabled: bool,
    /// Rank 0's pid (set by rank 0 before spawning peers so they can
    /// reach it for the init barrier).
    pub rank0_pid: Option<Pid>,
    /// How long a SIFT-interface call may block before the application
    /// gives up (the SAN model's `app_timeout`).
    pub block_timeout: ree_sim::SimDuration,
    /// How long rank 0 waits for its peer ranks during MPI startup
    /// before aborting the launch (`SiftConfig::mpi_init_timeout`).
    pub init_timeout: ree_sim::SimDuration,
    /// Factory for spawning peer ranks (rank 0 launches ranks 1..n per
    /// the MPI protocol, Table 1 step 5).
    pub factory: AppFactory,
}

impl std::fmt::Debug for AppLaunch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppLaunch")
            .field("app", &self.app)
            .field("slot", &self.slot)
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("attempt", &self.attempt)
            .field("sift_enabled", &self.sift_enabled)
            .finish()
    }
}

impl AppLaunch {
    /// The Execution-ARMOR endpoint for this rank, if running under SIFT.
    pub fn my_exec_pid(&self) -> Option<Pid> {
        if self.sift_enabled {
            self.exec_pids.get(self.rank as usize).copied()
        } else {
            None
        }
    }

    /// A copy of this launch descriptor re-targeted at another rank.
    pub fn for_rank(&self, rank: u32) -> AppLaunch {
        AppLaunch { rank, ..self.clone() }
    }
}

/// The SIFT deployment recipe book.
///
/// Shared behind an `Arc` by every process that launches others and
/// immutable once built: the application registry is written here, before
/// boot, and only read afterwards (on submissions and restarts, from any
/// worker thread).
pub struct Blueprint {
    /// Environment configuration.
    pub config: SiftConfig,
    /// Application factories, sorted by name.
    apps: Vec<(String, AppFactory)>,
}

impl Blueprint {
    /// Creates a blueprint with the given configuration and application
    /// registry: `(name, factory)` pairs with distinct names.
    pub fn new(
        config: SiftConfig,
        apps: impl IntoIterator<Item = (String, AppFactory)>,
    ) -> Arc<Blueprint> {
        let mut apps: Vec<_> = apps.into_iter().collect();
        apps.sort_by(|a, b| a.0.cmp(&b.0));
        Arc::new(Blueprint { config, apps })
    }

    /// Looks up an application factory.
    pub fn app_factory(&self, name: &str) -> Option<AppFactory> {
        let at = self.apps.binary_search_by(|(n, _)| n.as_str().cmp(name)).ok()?;
        Some(Arc::clone(&self.apps[at].1))
    }

    /// Instance name for an ARMOR of `kind`.
    pub fn armor_instance_name(&self, kind: &str, slot: u32, rank: u32) -> String {
        match kind {
            "ftm" => names::FTM.to_owned(),
            "heartbeat" => names::HEARTBEAT.to_owned(),
            _ => names::exec(slot, rank),
        }
    }

    fn armor_options(&self, restore: RestorePolicy) -> ArmorOptions {
        ArmorOptions { restore, precheck_assertions: self.config.precheck_assertions }
    }

    /// Builds a daemon ARMOR for `node` (used by the SCC).
    pub fn make_daemon(self: &Arc<Self>, node: NodeId) -> Box<dyn Process> {
        let elements: Vec<Box<dyn Element>> = vec![
            Box::new(DaemonGateway::new(node)),
            Box::new(DaemonInstaller::new(node, Arc::clone(self))),
            Box::new(LocalProber::new(self.config.daemon_probe_period)),
        ];
        Box::new(ArmorProcess::new(
            ids::daemon(node.0),
            names::daemon(node.0),
            elements,
            Gateway::SelfRouting,
            self.armor_options(RestorePolicy::OnStart),
        ))
    }

    /// Builds an ARMOR of `kind` gatewayed through the daemon process
    /// `gateway` (used by daemons when installing/recovering).
    pub fn make_armor(
        self: &Arc<Self>,
        kind: &str,
        id: ArmorId,
        gateway: Pid,
        slot: u32,
        rank: u32,
    ) -> Box<dyn Process> {
        let checks = self.config.assertions_enabled;
        match kind {
            "ftm" => {
                let elements: Vec<Box<dyn Element>> = vec![
                    Box::new(Configurator::new()),
                    Box::new(ProbeResponder::new()),
                    Box::new(FtmHbResponder::new()),
                    Box::new(SccIface::new(checks, self.config.connect_timeout)),
                    Box::new(MgrArmorInfo::new(checks, self.config.race_fix_enabled)),
                    Box::new(ExecArmorInfo::new(checks)),
                    Box::new(AppParam::new(checks)),
                    Box::new(MgrAppDetect::new(checks)),
                    Box::new(NodeMgmt::new(checks)),
                    Box::new(DaemonHb::new(self.config.ftm_daemon_hb_period)),
                ];
                Box::new(ArmorProcess::new(
                    id,
                    names::FTM,
                    elements,
                    Gateway::Daemon(gateway),
                    // Two-step recovery: the Heartbeat ARMOR instructs
                    // the restore (§6.1).
                    self.armor_options(RestorePolicy::OnInstruction),
                ))
            }
            "heartbeat" => {
                let elements: Vec<Box<dyn Element>> = vec![
                    Box::new(Configurator::new()),
                    Box::new(ProbeResponder::new()),
                    Box::new(HbWatch::new(self.config.hb_ftm_period)),
                ];
                Box::new(ArmorProcess::new(
                    id,
                    names::HEARTBEAT,
                    elements,
                    Gateway::Daemon(gateway),
                    self.armor_options(RestorePolicy::OnStart),
                ))
            }
            _ => {
                let elements: Vec<Box<dyn Element>> = vec![
                    Box::new(Configurator::new()),
                    Box::new(ProbeResponder::new()),
                    Box::new(AppMonitor::new(Arc::clone(self))),
                    Box::new(ProgressWatch::new(
                        self.config.pi_check_period,
                        self.config.interrupt_driven_pi,
                    )),
                ];
                Box::new(ArmorProcess::new(
                    id,
                    names::exec(slot, rank),
                    elements,
                    Gateway::Daemon(gateway),
                    self.armor_options(RestorePolicy::OnStart),
                ))
            }
        }
    }
}

impl std::fmt::Debug for Blueprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let apps: Vec<&str> = self.apps.iter().map(|(name, _)| name.as_str()).collect();
        f.debug_struct("Blueprint").field("apps", &apps).finish()
    }
}
