//! # ree-experiments — reproduction harness
//!
//! One module per paper table/figure; `README.md` ("Regenerating the
//! paper's tables and figures") has the index. The `repro` binary
//! regenerates any table: `cargo run --release --bin repro -- table4`.
//!
//! A table module is three things: its cells (`cells(root)`, a list of
//! [`ree_inject::Arm`]s — label, plan, first seed — and the only place
//! its plans are spelled), its columns (a `render` that folds each
//! [`Row`]'s results under the table's own predicates) and its footer.
//! The `cells` module holds what they share: `plan`, the single-texture
//! plan constructor; `cell`, the one `Arm` constructor; `run_cells`, the
//! one campaign site, cells in, [`Row`]s out; and [`AdaptiveTable`], the
//! confidence-targeted sweep `table4a` and `partition` print. The
//! hand-driven figures, Table 3 and `mc`/`dist` do not fit the shape.
//!
//! Seeds come from one tree rooted at `repro --seed` ([`ree_sim::derive`]
//! through `cells::cell` and `cells::seeds`); `mc`, `dist` and Fig. 9
//! take the root directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cells;
pub mod dist;
mod effort;
pub mod fig9;
pub mod figures;
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

pub use cells::{AdaptiveTable, Row};
pub use effort::Effort;
pub use ree_apps::{run_without_sift, Running, Scenario};
