//! # gir-core
//!
//! The paper's contribution: **global immutable region (GIR)** computation
//! for top-k queries (Zhang, Mouratidis, Pang — SIGMOD 2014).
//!
//! Given a top-k result `R = {p_1 … p_k}` for query vector `q`, the GIR is
//! the maximal locus of query vectors preserving `R`'s composition *and*
//! order (Definition 1): the intersection of
//!
//! 1. `k−1` ordering half-spaces `(p_i − p_{i+1}) · q' ≥ 0`  (Phase 1),
//! 2. `n−k` non-result half-spaces `(p_k − p) · q' ≥ 0`     (Phase 2),
//! 3. the query box `[0,1]^d`.
//!
//! Phase 2 is the bottleneck; three algorithms prune the non-result set:
//!
//! * [`sp`] — **Skyline Pruning** (§5.1): only skyline records of `D\R`
//!   can bound the GIR. Works for any monotone scoring function (§7.2).
//! * [`cp`] — **Convex-hull Pruning** (§5.2): only records on the convex
//!   hull of the skyline matter. Linear scoring only.
//! * [`fp`] — **Facet Pruning** (§6): the method of the paper. Maintains
//!   only the convex-hull facets *incident to `p_k`* (the permissible
//!   rotations of the sweeping hyperplane pinned at `p_k`), never building
//!   the full hull. Linear scoring only.
//!
//! Extensions: order-insensitive GIR\* ([`gir_star`], §7.1), GIR-based
//! result caching ([`cache`]), slide-bar/MAH visualization ([`viz`], §7.3)
//! and the GIR-volume sensitivity measure ([`region`], §8/Fig 14).
//!
//! The top-level entry point is [`GirEngine`].

#![deny(missing_docs)]

pub mod cache;
pub mod cp;
pub mod engine;
pub mod fp;
pub mod fullscan;
pub mod gir_star;
pub mod lir;
pub mod maintenance;
pub mod mirror;
pub mod phase1;
pub mod plan;
pub mod pool;
pub mod prune;
pub mod region;
pub mod sharded;
pub mod sp;
pub mod svg;
pub mod viz;
pub mod wire;

pub use cache::{BatchOutcome, CacheKey, CachedRecords, GirCache, RepairRequest};
pub use engine::{GirEngine, GirError, GirOutput, GirStats, Method};
pub use gir_star::{fp_star_repair, reduced_result, StarMethod};
pub use maintenance::{
    classify_insertion_star, repair_region, repair_region_star, BatchImpact, DeltaBatch,
    InsertionImpact, StarInsertionImpact, UpdateImpact,
};
pub use mirror::TreeMirror;
pub use plan::{Decision, MissPath, ObserveOutcome, PlanInputs, Planner, PlannerStats};
pub use prune::{PruneIndex, PruneIndexStats, PruneState};
pub use region::{BoundaryEvent, GirRegion, ReducedGir, RegionKind};
pub use sharded::{
    gir_sharded, gir_star_sharded, merge_ranked_lists, shard_gir_system, shard_star_system,
    topk_sharded, GirPhase2Ctx, ShardView, StarPhase2Ctx,
};
pub use viz::{slide_bar_bounds, SlideBarBounds};
pub use wire::{ShardRequest, ShardResponse, SnapshotState, WalBatch, WalOp, WireError};
