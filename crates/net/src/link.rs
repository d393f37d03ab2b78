//! Per-link parameters and mutable runtime state.

use ree_sim::{SimDuration, SimTime};

/// Identifies one *directed* link of a [`crate::Topology`].
///
/// Links always come in twin pairs: [`crate::LinkSpec::peer`] names the
/// reverse direction. Indices are dense (`0..topology.links().len()`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// Static parameters of one directed link.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Propagation latency for crossing this link.
    pub latency: SimDuration,
    /// Uniform jitter bound this link contributes to a route's total.
    pub jitter: SimDuration,
    /// Serialisation bandwidth in bytes per virtual second. `None`
    /// means the hop forwards without queueing (ideal switch fabric):
    /// the packet spends no wire time and reserves no transmit slot.
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// Probability this link loses the packet.
    pub drop_probability: f64,
}

impl LinkParams {
    /// A hop that forwards instantly: zero latency and jitter, no
    /// serialisation, no loss. Used for ideal switch egress ports.
    pub fn instant() -> Self {
        LinkParams {
            latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            bandwidth_bytes_per_sec: None,
            drop_probability: 0.0,
        }
    }

    /// The REE testbed's 100 Mbps Ethernet uplink (Figure 2): ~12.5 MB/s,
    /// 200 µs propagation, up to 150 µs jitter, no background loss.
    pub fn ethernet_100mbps() -> Self {
        LinkParams {
            latency: SimDuration::from_micros(200),
            jitter: SimDuration::from_micros(150),
            bandwidth_bytes_per_sec: Some(12_500_000),
            drop_probability: 0.0,
        }
    }

    /// A serialising link with the given bandwidth and latency, no
    /// jitter or loss. Builder shorthand for trunks and uplinks.
    pub fn wire(bandwidth_bytes_per_sec: u64, latency: SimDuration) -> Self {
        LinkParams {
            latency,
            jitter: SimDuration::ZERO,
            bandwidth_bytes_per_sec: Some(bandwidth_bytes_per_sec),
            drop_probability: 0.0,
        }
    }
}

/// Mutable per-link runtime state, owned by [`crate::Network`].
#[derive(Clone, Debug)]
pub(crate) struct LinkState {
    /// Serialisation frontier: when this link's transmitter frees up.
    pub busy_until: SimTime,
}
