//! # gir-rtree
//!
//! An R\*-tree [Beckmann et al., SIGMOD 1990] over the `gir-storage` page
//! store — the spatial access method the paper assumes for its
//! disk-resident, low-dimensional datasets (§3.3, §8):
//!
//! * [`Mbb`] — minimum bounding boxes with the R\* cost metrics (area,
//!   margin, overlap),
//! * [`Node`] — 4 KiB page layout for leaf and internal nodes,
//! * [`RTree`] — dynamic insertion with R\* split + forced reinsert, STR
//!   bulk loading for benchmark-scale dataset builds, and window queries,
//! * [`Record`] — the `(id, attributes)` rows stored at the leaves.
//!
//! Score-based traversal (BRS / BBS) lives in `gir-query`; this crate only
//! provides the spatial substrate and node access with I/O accounting
//! ([`NodeSource`]).

pub mod mbb;
pub mod node;
pub mod record;
pub mod tree;

pub use mbb::Mbb;
pub use node::{Node, NodeEntries};
pub use record::Record;
pub use tree::{NodeSource, RTree, RTreeError};
