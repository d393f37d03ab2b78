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
use ree_armor::{ArmorId, ArmorProcess, Element, Gateway, RestorePolicy};
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
    pub(crate) fn my_exec_pid(&self) -> Option<Pid> {
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
    pub(crate) fn armor_instance_name(&self, kind: &str, slot: u32, rank: u32) -> String {
        match kind {
            "ftm" => names::FTM.to_owned(),
            "heartbeat" => names::HEARTBEAT.to_owned(),
            _ => names::exec(slot, rank),
        }
    }

    /// The daemon composition: gateway, installer, local prober.
    fn daemon_elements(self: &Arc<Self>, node: NodeId) -> Vec<Box<dyn Element>> {
        vec![
            Box::new(DaemonGateway { node }),
            Box::new(DaemonInstaller { node, blueprint: Arc::clone(self) }),
            Box::new(LocalProber { period: self.config.heartbeat_period }),
        ]
    }

    /// The composition of an ARMOR of `kind`: the basic set every ARMOR
    /// carries (§3.1), then what makes it an FTM, a Heartbeat ARMOR or an
    /// Execution ARMOR.
    fn armor_elements(self: &Arc<Self>, kind: &str) -> Vec<Box<dyn Element>> {
        let period = self.config.heartbeat_period;
        match kind {
            "ftm" => vec![
                Box::new(Configurator),
                Box::new(ProbeResponder),
                Box::new(FtmHbResponder),
                Box::new(SccIface),
                Box::new(MgrArmorInfo),
                Box::new(ExecArmorInfo),
                Box::new(AppParam),
                Box::new(MgrAppDetect),
                Box::new(NodeMgmt),
                Box::new(DaemonHb { period }),
            ],
            "heartbeat" => {
                vec![Box::new(Configurator), Box::new(ProbeResponder), Box::new(HbWatch { period })]
            }
            _ => vec![
                Box::new(Configurator),
                Box::new(ProbeResponder),
                Box::new(AppMonitor { blueprint: Arc::clone(self) }),
                Box::new(ProgressWatch { interrupt_driven: self.config.interrupt_driven_pi }),
            ],
        }
    }

    /// Builds a daemon ARMOR for `node` (used by the SCC).
    pub(crate) fn make_daemon(self: &Arc<Self>, node: NodeId) -> Box<dyn Process> {
        Box::new(ArmorProcess::new(
            ids::daemon(node.0),
            names::daemon(node.0),
            self.daemon_elements(node),
            Gateway::SelfRouting,
            RestorePolicy::OnStart,
        ))
    }

    /// Builds an ARMOR of `kind` gatewayed through the daemon process
    /// `gateway` (used by daemons when installing/recovering).
    pub(crate) fn make_armor(
        self: &Arc<Self>,
        kind: &str,
        id: ArmorId,
        gateway: Pid,
        slot: u32,
        rank: u32,
    ) -> Box<dyn Process> {
        let restore = match kind {
            // Two-step recovery: the Heartbeat ARMOR instructs the
            // restore (§6.1).
            "ftm" => RestorePolicy::OnInstruction,
            _ => RestorePolicy::OnStart,
        };
        Box::new(ArmorProcess::new(
            id,
            self.armor_instance_name(kind, slot, rank),
            self.armor_elements(kind),
            Gateway::Daemon(gateway),
            restore,
        ))
    }
}

impl std::fmt::Debug for Blueprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let apps: Vec<&str> = self.apps.iter().map(|(name, _)| name.as_str()).collect();
        f.debug_struct("Blueprint").field("apps", &apps).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ree_armor::Value;

    fn blueprint() -> Arc<Blueprint> {
        Blueprint::new(SiftConfig::default(), [])
    }

    fn compositions(bp: &Arc<Blueprint>) -> Vec<(&'static str, Vec<Box<dyn Element>>)> {
        let mut all = vec![("daemon", bp.daemon_elements(NodeId(2)))];
        all.extend(["ftm", "heartbeat", "exec"].map(|kind| (kind, bp.armor_elements(kind))));
        all
    }

    fn names(elements: &[Box<dyn Element>]) -> Vec<&'static str> {
        elements.iter().map(|e| e.name()).collect()
    }

    #[test]
    fn element_names_are_unique_within_each_composition() {
        for (kind, elements) in compositions(&blueprint()) {
            let mut sorted = names(&elements);
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), elements.len(), "{kind}: {:?}", names(&elements));
        }
    }

    #[test]
    fn every_element_accepts_its_own_initial_state() {
        for (kind, elements) in compositions(&blueprint()) {
            for elem in &elements {
                let state = elem.initial_state();
                assert_eq!(elem.check(&state), Ok(()), "{kind}/{}", elem.name());
            }
        }
    }

    #[test]
    fn the_ftm_carries_the_table_8_elements_in_order() {
        let ftm = names(&blueprint().armor_elements("ftm"));
        let table8 =
            ["mgr_armor_info", "exec_armor_info", "app_param", "mgr_app_detect", "node_mgmt"];
        let first = ftm.iter().position(|n| *n == table8[0]).expect("mgr_armor_info present");
        assert_eq!(ftm[first..first + table8.len()], table8);
    }

    #[test]
    fn scc_iface_rejects_an_out_of_range_scc_pid() {
        let elements = blueprint().armor_elements("ftm");
        let scc_iface = elements.iter().find(|e| e.name() == "scc_iface").expect("present");
        let mut state = scc_iface.initial_state();
        state.set("scc_pid", Value::U64(u64::MAX));
        assert!(scc_iface.check(&state).is_err());
    }
}
