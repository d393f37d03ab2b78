//! # ree-apps — the REE scientific applications
//!
//! Faithful synthetic stand-ins for the two MPI applications the paper
//! evaluates (§2): the **Mars Rover texture analysis program** (three
//! directional FFT texture filters + k-means segmentation, status-file
//! checkpoints after each filter) and **OTIS** (split-window atmospheric
//! compensation, emissivity extraction, lossless compression).
//!
//! Both are real computations over deterministic synthetic instrument
//! data: injected bit flips propagate through genuine FFT / clustering /
//! retrieval arithmetic to the science products, which an external
//! verification program checks against tolerance limits (Table 10).
//!
//! # Kernel ↔ paper mapping
//!
//! | module | paper element |
//! |--------|---------------|
//! | [`synth`] | the Mars-surface image and OTIS thermal frames the instruments would deliver (§2); generated deterministically, shared campaign-wide |
//! | [`fft`] | the 2-D FFT behind the texture filters — "approximately 20 seconds … in the FFT routine" (§3.3); planned kernels, see below |
//! | [`filters`] | the three directional texture filters whose per-tile energies feed segmentation (§2, Table 10) |
//! | [`kmeans`] | the k-means clustering that segments the feature vectors (§2) |
//! | [`otis`], [`compress`] | OTIS split-window retrieval, emissivity extraction, lossless compression (§2) |
//! | `kind` | the application table: the one place an application name is matched (factory, nominal time, verification, shared inputs per [`AppKind`]) |
//! | [`texture`], [`otis`], [`pipeline`], `shell` | the MPI application processes: one rank skeleton (status token, heap guard, `Process`/`HeapModel`) around each application's phases; init barrier and progress indicators (§3.3) |
//! | `heap` | the science heap that heap-model bit flips corrupt (§7) |
//! | [`verify`] | the external verification program deciding correct/incorrect/missing output (§4.2, Table 10) |
//! | `testbed` | scenario assembly: the 4- and 6-node testbed configurations (§2, §8) |
//!
//! # Performance
//!
//! These kernels are ~55% of campaign CPU, so they carry the fast-path
//! machinery documented in `docs/PERFORMANCE.md`: precomputed
//! [`fft::FftPlan`]s, precomputed orientation band masks with a pooled
//! [`filters::FilterScratch`], and campaign-shared `Arc`'d inputs
//! ([`synth::mars_surface_shared`]) with copy-on-write at the
//! fault-injection boundary. The fault-free texture pipeline runs once
//! per process; a run recomputes only the tiles and the clustering a
//! flipped bit changed:
//!
//! ```
//! use ree_apps::synth::mars_surface_shared;
//! use ree_apps::filters::{filter_tiles_px, FilterScratch};
//!
//! let image = mars_surface_shared(64, 9); // cached: campaign-shared Arc
//! let mut scratch = FilterScratch::new(8); // FFT plan + tile buffers, reused
//! let energies = filter_tiles_px(image.size, &image.pixels, 0, 0..64, &mut scratch);
//! assert_eq!(energies.len(), 64); // one oriented-energy feature per tile
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod compress;
pub mod fft;
pub mod filters;
mod heap;
mod kind;
pub mod kmeans;
pub mod otis;
pub mod pipeline;
mod rank;
mod shell;
pub mod synth;
mod testbed;
pub mod texture;
pub mod verify;

pub use kind::AppKind;
pub use testbed::{all_done_memo, run_without_sift, BootSnapshot, Running, Scenario};
pub use texture::TextureParams;
pub use verify::Verdict;
