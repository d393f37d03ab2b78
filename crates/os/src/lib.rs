//! # ree-os — the simulated REE cluster operating system
//!
//! Substitute for the paper's PowerPC-750 / LynxOS testbed (§2). Provides
//! everything the SIFT protocols observe from their OS:
//!
//! * a **process table** with parent/child `waitpid` semantics (§3.2 —
//!   "crash detection for child processes is implemented by having a
//!   thread within the parent process block on a `waitpid()` call");
//! * **signals** — SIGINT (crash model), SIGSTOP (hang model), SIGSEGV /
//!   SIGILL (fault manifestations), SIGKILL / SIGCONT;
//! * **timers** and chunked **CPU work** in virtual time;
//! * asynchronous **message delivery** over the [`ree_net`] interconnect;
//! * per-node **RAM disks** (checkpoint stable storage, §3.4) and the
//!   shared **remote file system** (the Sun workstation in Figure 2);
//! * the **machine-state fault model** (registers + text segment) whose
//!   corruption activates on access, substituting for NFTAPE's
//!   hardware-level injectors (Table 2);
//! * a structured **trace** used by experiments and tests.
//!
//! Higher layers implement behaviour by writing [`Process`] state
//! machines; the ARMOR runtime, mini-MPI, and the applications are all
//! ordinary processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cluster;
mod machine;
mod process;
mod ptable;
mod storage;
mod trace;

pub use cluster::{Cluster, ClusterConfig, ProcCtx, SpawnSpec, TextSource, TimerId};
pub use machine::{InjectionSite, RegClass, TextHit};
pub use process::{
    ExitStatus, FieldKind, HeapHit, HeapTarget, Message, Payload, Pid, Process, ProcessClone,
    Signal,
};
pub use storage::{DiskError, RamDisk, RemoteFs};
pub use trace::{Trace, TraceDetail, TraceEvent, TraceKind, TraceRecord};

// Re-export the interconnect vocabulary so most consumers only need
// ree-os: node identity plus the topology-construction surface
// (scenarios place workloads on explicit topologies).
pub use ree_net::{LinkId, LinkParams, Network, NodeId, Port, SwitchId, Topology, TopologyBuilder};
