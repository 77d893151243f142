//! Adaptive miss-path planner: a measured cost model that picks how to
//! answer a cache miss (paper §8 "repair vs recompute" economics).
//!
//! The serve layer has four ways to compute a missed region:
//!
//! * **cold** — [`crate::GirEngine::gir`] / [`crate::GirEngine::gir_star`]
//!   straight off the R\*-tree, paying BRS I/O and a full Phase-2 sweep;
//! * **indexed_recompute** — through the shared [`crate::PruneIndex`]
//!   (warm skyline/mirror) but with a cold Phase-2 system;
//! * **indexed_reuse** — through the index with the Phase-2 half-space
//!   system served verbatim from the shared result cache;
//! * **sharded** — the fan-out/merge plan over per-shard
//!   [`crate::ShardView`]s.
//!
//! `BENCH_cold_gir.json` shows the ranking between these *inverts* with
//! dimension: the indexed recompute beats cold at d ≤ 3 but loses badly
//! at d = 4 (the skyline — and with it the Phase-2 candidate set —
//! grows as `(ln n)^(d-1)/(d-1)!`), while a Phase-2 reuse hit is a flat
//! few microseconds regardless of d. A static preference is therefore
//! wrong somewhere; the [`Planner`] instead estimates every path's cost
//! per query from a small per-`(method, d)` linear model and dispatches
//! the argmin.
//!
//! Cost model: each `(method, d)` cell holds one fitted scalar per path
//! (`predicted_ns = unit_ns × feature`), where the feature is the
//! path's dominant work term — dataset size `n` for cold, skyline
//! cardinality for an indexed recompute, `1` for a reuse hit, and a
//! shard-count/skyline blend for the fan-out plan. Whether an indexed
//! miss will *hit* the Phase-2 cache is not observable up front, so the
//! indexed alternative is scored as a blend weighted by the cell's
//! observed hit rate (an EWMA updated from
//! [`crate::PruneIndexStats::phase2_hits`] deltas around each call).
//!
//! Calibration: every decision's predicted and measured latency feed an
//! online calibrator. Observations land in a small per-path ring; when
//! the relative prediction error drifts past a band, the `(method, d,
//! path)` cell is pushed onto a **bounded, deduplicated worklist** and
//! re-fitted (*median* observed `actual/feature` ratio over its ring —
//! a scheduler hiccup that spikes one observation cannot poison the
//! unit and knock a converged cell off the reuse path) a few entries
//! per observation — the worklist fixpoint idiom, no global refit ever.
//!
//! Exploration: seed coefficients can lock the planner out of the reuse
//! path (cold never admits a Phase-2 system, so the hit rate would stay
//! at zero forever). The planner therefore force-probes the indexed
//! path for a cell's first few misses, and again after a streak of
//! non-indexed dispatches — short while the hit-rate EWMA still shows
//! strong reuse evidence, long once reuse has dried up —
//! deterministically (no RNG — replays are byte-stable). Probes are
//! bounded, so a workload where reuse never materializes converges back
//! to the true argmin.
//!
//! [`Planner::with_forced`] (the servers' `force_path` config field)
//! pins every decision to one path so any suspected mispick is
//! reproducible in isolation; the planner is proven bit-identical to
//! every forced path by differential tests.

use crate::engine::Method;
use crate::region::RegionKind;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Ring capacity of per-path observation history (features + actuals)
/// used when a drifted cell is re-fitted.
const OBS_RING: usize = 16;

/// Relative-error band; an observation outside it enqueues its cell for
/// re-fit.
const DRIFT_BAND: f64 = 0.5;

/// Bounded worklist capacity — drifts beyond it are dropped (counted),
/// never buffered unboundedly.
const WORKLIST_CAP: usize = 32;

/// Cells re-fitted (worklist entries drained) per observation.
const REFITS_PER_OBSERVE: usize = 2;

/// Forced indexed probes granted to a fresh cell before the model's
/// argmin is trusted (the reuse path is invisible until the index has
/// admitted at least one Phase-2 system). Sized so a workload whose
/// rankings recur pushes the hit-rate EWMA past the 0.5 label boundary
/// within the probe budget.
const PROBE_LIMIT: u32 = 4;

/// EWMA weight of the newest Phase-2 hit/miss observation.
const HIT_ALPHA: f64 = 0.3;

/// A cell stuck on a non-indexed path re-probes the indexed path after
/// this many consecutive non-indexed dispatches, so a workload shift
/// toward recurring rankings is eventually noticed.
const REPROBE_PERIOD: u64 = 256;

/// Re-probe streak when the cell's hit-rate EWMA already shows strong
/// reuse evidence (≥ 0.5). A converged cell knocked onto a slower path
/// by measurement noise must find its way back within a few dispatches
/// — at the full [`REPROBE_PERIOD`] one excursion on a millisecond-class
/// cold path costs a quarter of a second before the model can recover.
const REPROBE_FAST: u64 = 16;

/// One way to answer a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissPath {
    /// Straight off the R\*-tree: no shared state at all.
    Cold,
    /// Through the [`crate::PruneIndex`] with a cold Phase-2 system.
    IndexedRecompute,
    /// Through the [`crate::PruneIndex`] with the Phase-2 system served
    /// from the shared result cache.
    IndexedReuse,
    /// The per-shard fan-out/merge plan over [`crate::ShardView`]s.
    Sharded,
}

impl MissPath {
    /// Every path, in estimate/display order.
    pub const ALL: [MissPath; 4] = [
        MissPath::Cold,
        MissPath::IndexedRecompute,
        MissPath::IndexedReuse,
        MissPath::Sharded,
    ];

    /// Stable label used by `planner.*` counters and EXPLAIN output.
    pub fn label(&self) -> &'static str {
        match self {
            MissPath::Cold => "cold",
            MissPath::IndexedRecompute => "indexed_recompute",
            MissPath::IndexedReuse => "indexed_reuse",
            MissPath::Sharded => "sharded",
        }
    }

    /// Dense index into per-path arrays.
    fn idx(self) -> usize {
        match self {
            MissPath::Cold => 0,
            MissPath::IndexedRecompute => 1,
            MissPath::IndexedReuse => 2,
            MissPath::Sharded => 3,
        }
    }

    /// True for the two labels that dispatch through the
    /// [`crate::PruneIndex`].
    fn is_indexed(self) -> bool {
        matches!(self, MissPath::IndexedRecompute | MissPath::IndexedReuse)
    }
}

/// Everything the model sees about one miss.
#[derive(Debug, Clone, Copy)]
pub struct PlanInputs {
    /// Live record count.
    pub n: usize,
    /// Attribute dimensionality.
    pub d: usize,
    /// Phase-2 method the server is configured with.
    pub method: Method,
    /// Region kind requested.
    pub kind: RegionKind,
    /// Current skyline cardinality (0 when the index is not built; the
    /// model falls back to the `(ln n)^(d-1)/(d-1)!` estimate).
    pub skyline: usize,
    /// Whether the shared index has been built (a lazy build is paid by
    /// the first indexed dispatch and amortized thereafter).
    pub index_built: bool,
    /// Data shard count. `1` means a single tree: every path is
    /// feasible (the sharded plan degenerates to one
    /// [`crate::ShardView`]). Above `1` only [`MissPath::Sharded`] is
    /// feasible — there is no single tree to run the others against.
    pub shards: usize,
}

/// One planning decision: the chosen path plus every alternative's
/// estimate, carried to [`Planner::observe`] and into EXPLAIN output.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The path to dispatch.
    pub path: MissPath,
    /// True when pinned by a config override.
    pub forced: bool,
    /// True when this was an exploration probe rather than the model's
    /// argmin.
    pub probe: bool,
    /// Predicted latency of the chosen path.
    pub predicted_ns: f64,
    /// Predicted latency per path ([`MissPath::ALL`] order);
    /// `f64::INFINITY` marks an infeasible path.
    pub estimates: [f64; 4],
    method: Method,
    d: usize,
    /// Per-path model features, kept so `observe` can re-fit without
    /// recomputing them.
    features: [f64; 4],
}

impl Decision {
    /// The estimate for one alternative (`INFINITY` when infeasible).
    pub fn estimate(&self, path: MissPath) -> f64 {
        self.estimates[path.idx()]
    }
}

/// Outcome of one [`Planner::observe`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObserveOutcome {
    /// The observation's relative error breached the drift band and the
    /// cell was enqueued for re-fit.
    pub drifted: bool,
    /// Worklist entries re-fitted while absorbing this observation.
    pub refits: usize,
}

/// Monotonic counters describing planner behavior (feeds the
/// `planner.*` metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerStats {
    /// Total decisions issued.
    pub decisions: u64,
    /// Decisions per path, [`MissPath::ALL`] order.
    pub by_path: [u64; 4],
    /// Decisions pinned by a forced-path override.
    pub forced: u64,
    /// Forced overrides that were infeasible for the request and fell
    /// back to the model's choice.
    pub forced_infeasible: u64,
    /// Exploration probes issued.
    pub probes: u64,
    /// Observations whose error breached the drift band.
    pub drifts: u64,
    /// Cell re-fits performed by the worklist.
    pub refits: u64,
    /// Drift enqueues dropped because the worklist was full.
    pub worklist_drops: u64,
}

/// Per-path fitted scalar plus its observation ring.
#[derive(Debug, Clone)]
struct PathModel {
    /// Fitted `ns` per feature unit.
    unit_ns: f64,
    /// Recent `(feature, actual_ns)` pairs, ring of [`OBS_RING`].
    obs: Vec<(f64, f64)>,
    /// Next ring slot to overwrite once full.
    cursor: usize,
}

impl PathModel {
    fn new(unit_ns: f64) -> PathModel {
        PathModel {
            unit_ns,
            obs: Vec::new(),
            cursor: 0,
        }
    }

    fn push(&mut self, feature: f64, actual_ns: f64) {
        if self.obs.len() < OBS_RING {
            self.obs.push((feature, actual_ns));
        } else {
            self.obs[self.cursor] = (feature, actual_ns);
            self.cursor = (self.cursor + 1) % OBS_RING;
        }
    }

    /// Re-fit from the ring: *median* observed `actual/feature` ratio.
    /// The median keeps a single spiked observation (scheduler hiccup,
    /// page-cache miss) from poisoning the unit — with a mean, one
    /// outlier could inflate a converged reuse estimate past the cold
    /// path's and flip the argmin on noise.
    fn refit(&mut self) {
        if self.obs.is_empty() {
            return;
        }
        let mut ratios: Vec<f64> = self
            .obs
            .iter()
            .map(|(f, a)| a / f.max(f64::MIN_POSITIVE))
            .collect();
        ratios.sort_by(|a, b| a.total_cmp(b));
        let mid = ratios.len() / 2;
        let median = if ratios.len().is_multiple_of(2) {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        } else {
            ratios[mid]
        };
        self.unit_ns = median.max(1.0);
    }
}

/// One `(method, d)` model cell.
#[derive(Debug, Clone)]
struct Cell {
    paths: [PathModel; 4],
    /// EWMA of "an indexed dispatch found its Phase-2 system cached".
    hit_rate: f64,
    /// Misses planned in this cell.
    misses: u64,
    /// Indexed probes already granted.
    probes_used: u32,
    /// Consecutive decisions since the last indexed dispatch.
    since_indexed: u64,
}

impl Cell {
    /// Seed coefficients reproducing the orderings pinned by
    /// `BENCH_cold_gir.json`: recompute beats cold at low d, loses at
    /// d ≥ 4, reuse is a flat few µs. The calibrator owns them from the
    /// first observations on.
    fn seeded(d: usize) -> Cell {
        let dd = d.clamp(2, 8) as i32;
        Cell {
            paths: [
                // cold: ns per record; Phase-2 candidates grow sharply
                // with d.
                PathModel::new(6.0 * 4.0f64.powi(dd - 2)),
                // recompute: ns per skyline member.
                PathModel::new(1500.0 * 3.0f64.powi(dd - 2)),
                // reuse: flat.
                PathModel::new(6000.0),
                // sharded: ns per blended work unit (see `features`).
                PathModel::new(5000.0),
            ],
            hit_rate: 0.0,
            misses: 0,
            probes_used: 0,
            since_indexed: 0,
        }
    }
}

/// `(ln n)^(d-1) / (d-1)!` — the expected skyline cardinality of `n`
/// i.i.d. points in `d` dimensions; the model's stand-in when the
/// shared index has not been built yet.
pub fn expected_skyline(n: usize, d: usize) -> f64 {
    if n < 3 {
        return 1.0;
    }
    let ln_n = (n as f64).ln();
    let mut num = 1.0;
    let mut den = 1.0;
    for i in 1..d.max(1) {
        num *= ln_n;
        den *= i as f64;
    }
    (num / den).max(1.0)
}

#[derive(Debug, Default)]
struct PlannerState {
    cells: HashMap<(Method, usize), Cell>,
    /// Drifted `(method, d, path-idx)` cells awaiting re-fit; bounded
    /// and deduplicated.
    worklist: Vec<(Method, usize, usize)>,
}

/// The adaptive miss-path planner. One instance lives per server;
/// `plan` and `observe` are cheap enough for the miss path (a short
/// mutex-guarded model lookup — the decision itself costs well under a
/// microsecond).
#[derive(Debug)]
pub struct Planner {
    state: Mutex<PlannerState>,
    forced: Option<MissPath>,
    decisions: AtomicU64,
    by_path: [AtomicU64; 4],
    forced_ct: AtomicU64,
    forced_infeasible: AtomicU64,
    probes: AtomicU64,
    drifts: AtomicU64,
    refits: AtomicU64,
    worklist_drops: AtomicU64,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    /// An adaptive planner.
    pub fn new() -> Planner {
        Planner::with_forced(None)
    }

    /// A planner with an explicit override (`None` ⇒ adaptive); the
    /// servers route their `force_path` config field here.
    pub fn with_forced(forced: Option<MissPath>) -> Planner {
        Planner {
            state: Mutex::new(PlannerState::default()),
            forced,
            decisions: AtomicU64::new(0),
            by_path: Default::default(),
            forced_ct: AtomicU64::new(0),
            forced_infeasible: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            drifts: AtomicU64::new(0),
            refits: AtomicU64::new(0),
            worklist_drops: AtomicU64::new(0),
        }
    }

    /// The active forced-path override, if any.
    pub fn forced(&self) -> Option<MissPath> {
        self.forced
    }

    /// Plans one miss: estimates every feasible path's latency and
    /// returns the argmin (or the forced/probed path, with the
    /// estimates still attached for EXPLAIN).
    pub fn plan(&self, inputs: &PlanInputs) -> Decision {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let cell = state
            .cells
            .entry((inputs.method, inputs.d))
            .or_insert_with(|| Cell::seeded(inputs.d));
        cell.misses += 1;

        let sky = if inputs.index_built && inputs.skyline > 0 {
            inputs.skyline as f64
        } else {
            expected_skyline(inputs.n, inputs.d)
        };
        let s = inputs.shards.max(1) as f64;
        let hit = cell.hit_rate;
        // Per-path work features; the sharded plan pays a per-shard
        // constant plus the un-hit share of the per-shard Phase-2 work.
        let features = [inputs.n.max(1) as f64, sky, 1.0, s + (1.0 - hit) * sky];

        let single_tree = inputs.shards <= 1;
        let feasible = |p: MissPath| single_tree || p == MissPath::Sharded;

        let mut estimates = [f64::INFINITY; 4];
        for p in MissPath::ALL {
            if feasible(p) {
                estimates[p.idx()] = cell.paths[p.idx()].unit_ns * features[p.idx()];
            }
        }

        // The two indexed labels dispatch the same call; the choice
        // *against* cold/sharded uses the hit-rate blend, then the label
        // records which outcome the model expects.
        let blended_indexed = if single_tree {
            hit * estimates[MissPath::IndexedReuse.idx()]
                + (1.0 - hit) * estimates[MissPath::IndexedRecompute.idx()]
        } else {
            f64::INFINITY
        };
        let indexed_label = if hit >= 0.5 {
            MissPath::IndexedReuse
        } else {
            MissPath::IndexedRecompute
        };

        // On a single tree the degenerate one-view sharded plan is the
        // indexed plan plus merge overhead — strictly dominated, so it
        // never enters the argmin (it stays reachable via the forced
        // override for differential proofs).
        let best = if single_tree {
            if blended_indexed < estimates[MissPath::Cold.idx()] {
                indexed_label
            } else {
                MissPath::Cold
            }
        } else {
            MissPath::Sharded
        };

        let mut path = best;
        let mut probe = false;
        let mut forced = false;
        if let Some(f) = self.forced {
            if feasible(f) {
                path = f;
                forced = true;
            } else {
                self.forced_infeasible.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !forced && single_tree && !path.is_indexed() {
            // Exploration: the reuse path is invisible until the index
            // has admitted a Phase-2 system, so grant a fresh cell a few
            // forced indexed probes, and re-probe after a non-indexed
            // streak in case the workload shifted. The streak is short
            // while the hit-rate EWMA still shows strong reuse evidence
            // (a converged cell bumped off the reuse path by one noisy
            // observation must recover fast), long once reuse has
            // genuinely dried up.
            let streak = if cell.hit_rate >= 0.5 {
                REPROBE_FAST
            } else {
                REPROBE_PERIOD
            };
            if cell.probes_used < PROBE_LIMIT || cell.since_indexed >= streak {
                path = indexed_label;
                probe = true;
                cell.probes_used = cell.probes_used.saturating_add(1);
                self.probes.fetch_add(1, Ordering::Relaxed);
            }
        }
        if path.is_indexed() {
            cell.since_indexed = 0;
        } else {
            cell.since_indexed += 1;
        }

        self.decisions.fetch_add(1, Ordering::Relaxed);
        self.by_path[path.idx()].fetch_add(1, Ordering::Relaxed);
        if forced {
            self.forced_ct.fetch_add(1, Ordering::Relaxed);
        }

        Decision {
            path,
            forced,
            probe,
            predicted_ns: estimates[path.idx()],
            estimates,
            method: inputs.method,
            d: inputs.d,
            features,
        }
    }

    /// Feeds the measured latency of a dispatched decision back into
    /// the model. `reused` reports whether an indexed dispatch found
    /// its Phase-2 system cached (`None` when unknown / not indexed).
    /// Out-of-band observations enqueue the cell on the bounded
    /// worklist; a couple of pending re-fits are drained per call.
    pub fn observe(
        &self,
        decision: &Decision,
        actual_ns: u64,
        reused: Option<bool>,
    ) -> ObserveOutcome {
        let mut out = ObserveOutcome::default();
        let actual = actual_ns as f64;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());

        // Attribute the observation to the path that *ran*: an indexed
        // dispatch that hit the Phase-2 cache measured the reuse path
        // regardless of which label was predicted.
        let ran = match (decision.path, reused) {
            (p, Some(true)) if p.is_indexed() => MissPath::IndexedReuse,
            (p, Some(false)) if p.is_indexed() => MissPath::IndexedRecompute,
            (p, _) => p,
        };

        let key = (decision.method, decision.d);
        let cell = state
            .cells
            .entry(key)
            .or_insert_with(|| Cell::seeded(decision.d));
        if let Some(hit) = reused {
            cell.hit_rate =
                (1.0 - HIT_ALPHA) * cell.hit_rate + HIT_ALPHA * if hit { 1.0 } else { 0.0 };
        }
        let feature = decision.features[ran.idx()];
        cell.paths[ran.idx()].push(feature, actual);

        let predicted = cell.paths[ran.idx()].unit_ns * feature;
        let err = (predicted - actual).abs() / actual.max(1.0);
        if err > DRIFT_BAND {
            out.drifted = true;
            self.drifts.fetch_add(1, Ordering::Relaxed);
            let entry = (key.0, key.1, ran.idx());
            if state.worklist.contains(&entry) {
                // Already queued — dedup.
            } else if state.worklist.len() < WORKLIST_CAP {
                state.worklist.push(entry);
            } else {
                self.worklist_drops.fetch_add(1, Ordering::Relaxed);
            }
        }

        for _ in 0..REFITS_PER_OBSERVE {
            let Some((m, d, pidx)) = state.worklist.pop() else {
                break;
            };
            if let Some(cell) = state.cells.get_mut(&(m, d)) {
                cell.paths[pidx].refit();
                out.refits += 1;
                self.refits.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    /// Snapshot of the planner's monotonic counters.
    pub fn stats(&self) -> PlannerStats {
        PlannerStats {
            decisions: self.decisions.load(Ordering::Relaxed),
            by_path: [
                self.by_path[0].load(Ordering::Relaxed),
                self.by_path[1].load(Ordering::Relaxed),
                self.by_path[2].load(Ordering::Relaxed),
                self.by_path[3].load(Ordering::Relaxed),
            ],
            forced: self.forced_ct.load(Ordering::Relaxed),
            forced_infeasible: self.forced_infeasible.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            drifts: self.drifts.load(Ordering::Relaxed),
            refits: self.refits.load(Ordering::Relaxed),
            worklist_drops: self.worklist_drops.load(Ordering::Relaxed),
        }
    }

    /// Current fitted `unit_ns` for a `(method, d, path)` cell — test
    /// and EXPLAIN introspection; seeds the cell if absent.
    pub fn unit_ns(&self, method: Method, d: usize, path: MissPath) -> f64 {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state
            .cells
            .entry((method, d))
            .or_insert_with(|| Cell::seeded(d))
            .paths[path.idx()]
        .unit_ns
    }

    /// Current Phase-2 hit-rate EWMA for a `(method, d)` cell.
    pub fn hit_rate(&self, method: Method, d: usize) -> f64 {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state
            .cells
            .entry((method, d))
            .or_insert_with(|| Cell::seeded(d))
            .hit_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize, d: usize, skyline: usize, shards: usize) -> PlanInputs {
        PlanInputs {
            n,
            d,
            method: Method::SkylinePruning,
            kind: RegionKind::Gir,
            skyline,
            index_built: skyline > 0,
            shards,
        }
    }

    /// Drains a fresh cell's exploration probes so a test can see the
    /// model's own argmin.
    fn exhaust_probes(p: &Planner, i: &PlanInputs, reused: bool) {
        for _ in 0..PROBE_LIMIT {
            let d = p.plan(i);
            let ns = d.predicted_ns.max(1.0) as u64;
            p.observe(&d, ns, d.path.is_indexed().then_some(reused));
        }
    }

    #[test]
    fn seed_model_reproduces_bench_inversion() {
        let p = Planner::with_forced(None);
        // d=2: recompute beats cold; with no reuse evidence the model
        // must still prefer the index (the historical default was right
        // at low d).
        exhaust_probes(&p, &inputs(8000, 2, 9, 1), false);
        let d2 = p.plan(&inputs(8000, 2, 9, 1));
        assert!(d2.path.is_indexed(), "low-d should stay indexed: {d2:?}");
        // d=4: skyline blow-up makes the recompute lose to cold.
        exhaust_probes(&p, &inputs(8000, 4, 121, 1), false);
        let d4 = p.plan(&inputs(8000, 4, 121, 1));
        assert_eq!(d4.path, MissPath::Cold, "high-d cold inversion: {d4:?}");
        assert!(d4.estimate(MissPath::Cold) < d4.estimate(MissPath::IndexedRecompute));
    }

    #[test]
    fn reuse_evidence_flips_high_d_back_to_indexed() {
        let p = Planner::with_forced(None);
        let i = inputs(8000, 4, 121, 1);
        // Reuse hits observed during the probe phase push the hit-rate
        // EWMA up; the blend then beats cold even at d=4. Actuals are
        // path-appropriate: an (unlikely) cold dispatch measures cold's
        // real cost, not the reuse latency.
        for _ in 0..8 {
            let d = p.plan(&i);
            let (actual, reused) = if d.path.is_indexed() {
                (6000, Some(true))
            } else {
                (900_000, None)
            };
            p.observe(&d, actual, reused);
        }
        let d = p.plan(&i);
        assert_eq!(d.path, MissPath::IndexedReuse, "{d:?}");
    }

    #[test]
    fn probes_are_bounded_then_reprobe_after_streak() {
        let p = Planner::with_forced(None);
        let i = inputs(8000, 4, 121, 1);
        // Every probe reports "no reuse": the cell must settle on cold.
        for _ in 0..PROBE_LIMIT + 4 {
            let d = p.plan(&i);
            let reused = d.path.is_indexed().then_some(false);
            p.observe(&d, d.predicted_ns.max(1.0) as u64, reused);
        }
        let settled = p.plan(&i);
        assert_eq!(settled.path, MissPath::Cold);
        assert!(!settled.probe);
        // …but after a long cold streak, one re-probe fires.
        let mut reprobed = false;
        for _ in 0..REPROBE_PERIOD + 2 {
            let d = p.plan(&i);
            reprobed |= d.probe;
            let reused = d.path.is_indexed().then_some(false);
            p.observe(&d, d.predicted_ns.max(1.0) as u64, reused);
        }
        assert!(reprobed, "expected a periodic indexed re-probe");
    }

    #[test]
    fn sharded_is_the_only_feasible_path_above_one_shard() {
        let p = Planner::with_forced(Some(MissPath::Cold));
        let d = p.plan(&inputs(8000, 3, 40, 4));
        assert_eq!(d.path, MissPath::Sharded);
        assert!(!d.forced, "infeasible force must not claim to be forced");
        assert!(d.estimate(MissPath::Cold).is_infinite());
        assert_eq!(p.stats().forced_infeasible, 1);
    }

    #[test]
    fn forced_path_is_pinned_when_feasible() {
        let p = Planner::with_forced(Some(MissPath::IndexedRecompute));
        for _ in 0..10 {
            let d = p.plan(&inputs(8000, 4, 121, 1));
            assert_eq!(d.path, MissPath::IndexedRecompute);
            assert!(d.forced);
            assert!(!d.probe);
        }
        assert_eq!(p.stats().forced, 10);
    }

    #[test]
    fn calibrator_error_shrinks_monotonically_on_replayed_trace() {
        // Replay a trace whose true cost law differs from the seed
        // (cold at 200 ns/record vs the seeded 6·4^(d-2) = 24); mean
        // relative prediction error must shrink monotonically chunk
        // over chunk as the drift-triggered re-fits absorb the trace.
        let p = Planner::with_forced(Some(MissPath::Cold));
        let i = inputs(10_000, 3, 0, 1);
        let true_unit = 200.0;
        let mut chunk_errors = Vec::new();
        for _chunk in 0..4 {
            let mut err_sum = 0.0;
            let mut count = 0u32;
            for _ in 0..8 {
                let d = p.plan(&i);
                let actual = true_unit * 10_000.0;
                err_sum += (d.predicted_ns - actual).abs() / actual;
                count += 1;
                p.observe(&d, actual as u64, None);
            }
            chunk_errors.push(err_sum / count as f64);
        }
        for w in chunk_errors.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "prediction error must not grow: {chunk_errors:?}"
            );
        }
        assert!(
            chunk_errors[chunk_errors.len() - 1] < 0.01,
            "calibrator should converge: {chunk_errors:?}"
        );
        assert!(p.stats().refits > 0);
    }

    #[test]
    fn latency_spike_does_not_unseat_a_converged_reuse_cell() {
        // Converge a cell onto the reuse path, then spike one
        // observation by two orders of magnitude. The median re-fit must
        // shrug it off: the very next decision stays on the reuse path.
        let p = Planner::with_forced(None);
        let i = inputs(8000, 3, 40, 1);
        for _ in 0..24 {
            let d = p.plan(&i);
            let (actual, reused) = if d.path.is_indexed() {
                (5_000, Some(true))
            } else {
                (220_000, None)
            };
            p.observe(&d, actual, reused);
        }
        let before = p.plan(&i);
        assert_eq!(before.path, MissPath::IndexedReuse, "{before:?}");
        p.observe(&before, 500_000, Some(true)); // the spike
        let after = p.plan(&i);
        assert_eq!(
            after.path,
            MissPath::IndexedReuse,
            "spike flipped: {after:?}"
        );
        p.observe(&after, 5_000, Some(true));
    }

    #[test]
    fn strong_reuse_evidence_shortens_the_reprobe_streak() {
        // Force a converged-on-reuse cell onto the cold path (poison the
        // reuse unit directly through repeated spikes so even the median
        // moves), then count how long the model stays there: with the
        // hit-rate EWMA high, a re-probe must fire within REPROBE_FAST
        // dispatches, not REPROBE_PERIOD.
        let p = Planner::with_forced(None);
        let i = inputs(8000, 3, 40, 1);
        for _ in 0..8 {
            let d = p.plan(&i);
            let reused = d.path.is_indexed().then_some(true);
            p.observe(&d, 5_000, reused);
        }
        assert!(p.hit_rate(Method::SkylinePruning, 3) >= 0.5);
        // Drown the reuse ring in spikes until its estimate exceeds
        // cold's and the argmin flips; cold dispatches keep observing
        // their realistic cost.
        for _ in 0..2 * OBS_RING {
            let d = p.plan(&i);
            if d.path.is_indexed() {
                p.observe(&d, 900_000_000, Some(true));
            } else {
                p.observe(&d, 220_000, None);
            }
            if !p.plan(&i).path.is_indexed() {
                break;
            }
        }
        let mut cold_streak = 0u64;
        loop {
            let d = p.plan(&i);
            if d.path.is_indexed() {
                assert!(d.probe, "recovery must come from a re-probe");
                break;
            }
            cold_streak += 1;
            assert!(
                cold_streak <= REPROBE_FAST,
                "re-probe too slow with reuse evidence"
            );
            p.observe(&d, 220_000, None);
        }
    }

    #[test]
    fn worklist_is_bounded_and_deduplicated() {
        let p = Planner::with_forced(Some(MissPath::Cold));
        // Feed wildly wrong observations across more distinct cells
        // than the worklist holds; drops must be counted, the planner
        // must keep absorbing observations, and nothing grows
        // unboundedly.
        for d in 2..64 {
            let i = inputs(1000, d, 0, 1);
            let dec = p.plan(&i);
            p.observe(&dec, 1, None);
        }
        let s = p.stats();
        assert!(s.drifts > 0);
        let state = p.state.lock().unwrap();
        assert!(state.worklist.len() <= WORKLIST_CAP);
    }

    #[test]
    fn expected_skyline_grows_with_dimension() {
        let n = 8000;
        assert!(expected_skyline(n, 2) < expected_skyline(n, 3));
        assert!(expected_skyline(n, 3) < expected_skyline(n, 4));
        assert!(expected_skyline(2, 4) >= 1.0);
    }
}
