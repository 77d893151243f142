//! # gir-query
//!
//! Query-processing substrates the GIR algorithms build on (paper §2–§3):
//!
//! * [`score`] — linear and monotone non-linear scoring functions,
//! * [`brs`] — BRS branch-and-bound top-k [Tao et al. 2007]: I/O-optimal
//!   top-k over the R\*-tree. Crucially for GIR computation, BRS *retains*
//!   its search heap and every record it encountered but did not report
//!   (§3.3) — Phase 2 resumes from that state,
//! * [`skyline`] — BBS branch-and-bound skyline [Papadias et al. 2005],
//!   adapted to pop the retained BRS heap in decreasing maxscore order
//!   (§5.1),
//! * [`naive`] — linear-scan oracles used by tests and as the paper's
//!   "scan the entire dataset" strawman baselines.

pub mod brs;
pub mod naive;
pub mod score;
pub mod skyline;
pub mod soa;

pub use brs::{brs_topk, HeapEntry, Pending, SearchState, Slot, TopKResult, ROOT};
pub use naive::{naive_skyline, naive_topk};
pub use rtree_reexports::*;
pub use score::{QueryVector, ScoringFunction, Transform};
pub use skyline::bbs_skyline;
pub use soa::{Lane, RecordBlocks, SOA_BLOCK};

mod rtree_reexports {
    pub use gir_rtree::Record;
}
