//! # ree-experiments — reproduction harness
//!
//! One module per paper table/figure; `README.md` ("Regenerating the
//! paper's tables and figures") has the index. The `repro` binary
//! regenerates any table: `cargo run --release --bin repro -- table4`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
mod effort;
pub mod fig9;
pub mod figures;
mod fold;
pub mod mc;
pub mod partition;
pub mod table10;
pub mod table11;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;

pub use effort::Effort;
pub use ree_apps::{run_without_sift, Running, Scenario};
