//! # ree-sim — deterministic discrete-event simulation kernel
//!
//! Foundation of the REE SIFT reproduction (Whisnant et al., CRHC-02-02):
//! virtual time, a deterministic future-event list, seedable random
//! streams and the one seed derivation ([`derive()`]), the [`Sink`] every
//! byte encoding writes to, and [`Fnv64`], the fixed hash of the pinned
//! digests only.
//!
//! All higher layers (the simulated cluster OS, the ARMOR runtime, the
//! fault-injection campaigns, the SAN solver) are built on these types.
//! Determinism is the load-bearing property: a `(seed, configuration)`
//! pair must replay the identical trace so that injection campaigns are
//! debuggable and ablations comparable.
//!
//! ## Example
//!
//! ```
//! use ree_sim::{EventQueue, SimRng, SimTime};
//!
//! // Poisson arrivals at 2/s, each handled by scheduling the next.
//! let mut rng = SimRng::new(1);
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, ());
//! let mut arrivals = 0;
//! while let Some((now, _, ())) = queue.pop() {
//!     if now > SimTime::from_secs(100) {
//!         break;
//!     }
//!     arrivals += 1;
//!     queue.schedule(now + rng.exp_duration(2.0), ());
//! }
//! // Rate 2/s over 100 s: expect on the order of 200 arrivals.
//! assert!(arrivals > 120 && arrivals < 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod fnv;
mod hash;
mod queue;
mod rng;
mod sink;
mod time;

pub use fnv::Fnv64;
pub use hash::DigestHasher;
pub use queue::{EventHandle, EventQueue};
pub use rng::{derive, mix64, SimRng};
pub use sink::Sink;
pub use time::{SimDuration, SimTime};
