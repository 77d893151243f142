//! Dataset building and per-cell measurement.

use gir_core::{GirEngine, Method};
use gir_datagen::{hotel_like, house_like, random_queries, synthetic, Distribution};
use gir_geometry::vector::PointD;
use gir_query::{QueryVector, ScoringFunction};
use gir_rtree::{RTree, Record};
use gir_serve::{ServeStats, Server, ShardBackend, TrafficBatch};
use gir_storage::{CostModel, MemPageStore, PageStore, PAGE_SIZE};
use std::sync::Arc;
use std::time::Instant;

/// Which dataset a bench cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchDataset {
    /// IND/COR/ANTI synthetic data.
    Synthetic(Distribution),
    /// HOUSE-like stand-in (6-d).
    House,
    /// HOTEL-like stand-in (4-d).
    Hotel,
}

impl BenchDataset {
    /// Label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            BenchDataset::Synthetic(d) => d.label(),
            BenchDataset::House => "HOUSE",
            BenchDataset::Hotel => "HOTEL",
        }
    }

    /// Generates the records.
    pub fn generate(&self, n: usize, d: usize, seed: u64) -> Vec<Record> {
        match self {
            BenchDataset::Synthetic(dist) => synthetic(*dist, n, d, seed),
            BenchDataset::House => {
                assert_eq!(d, 6, "HOUSE data is 6-dimensional");
                house_like(n, seed)
            }
            BenchDataset::Hotel => {
                assert_eq!(d, 4, "HOTEL data is 4-dimensional");
                hotel_like(n, seed)
            }
        }
    }
}

/// Builds a bulk-loaded tree over a fresh in-memory page store.
pub fn build_tree(ds: BenchDataset, n: usize, d: usize, seed: u64) -> RTree {
    let data = ds.generate(n, d, seed);
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    RTree::bulk_load(store, &data).expect("bulk load")
}

/// Averaged measurements for one (dataset, d, n, k, method) cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellResult {
    /// Mean GIR CPU time (Phases 1+2) per query, ms.
    pub cpu_ms: f64,
    /// Mean Phase-2 pages fetched per query.
    pub io_pages: f64,
    /// Mean modelled I/O time per query, ms (pages × disk latency).
    pub io_ms: f64,
    /// Mean phase-2 candidate count.
    pub candidates: f64,
    /// Mean intermediate structure size (skyline / facets).
    pub structure: f64,
    /// Queries actually measured (may stop early on budget).
    pub measured: usize,
}

impl CellResult {
    /// Table cell for CPU ms, `—` when nothing was measured.
    pub fn cpu_cell(&self) -> String {
        if self.measured == 0 {
            "—".into()
        } else {
            crate::report::ms(self.cpu_ms)
        }
    }

    /// Table cell for I/O ms.
    pub fn io_cell(&self) -> String {
        if self.measured == 0 {
            "—".into()
        } else {
            crate::report::ms(self.io_ms)
        }
    }
}

/// Runs `method` over `queries` on `tree`, stopping early when the
/// accumulated wall clock exceeds `budget_ms`. Returns per-query means.
pub fn run_cell(
    tree: &RTree,
    scoring: &ScoringFunction,
    queries: &[PointD],
    k: usize,
    method: Method,
    budget_ms: f64,
    order_insensitive: bool,
) -> CellResult {
    let engine = GirEngine::with_scoring(tree, scoring.clone());
    let model = CostModel::disk_2014();
    let mut out = CellResult::default();
    let start = Instant::now();
    for w in queries {
        let q = QueryVector::new(w.coords().to_vec());
        let res = if order_insensitive {
            engine.gir_star(&q, k, method)
        } else {
            engine.gir(&q, k, method)
        };
        let Ok(o) = res else { continue };
        out.cpu_ms += o.stats.gir_cpu_ms;
        out.io_pages += o.stats.gir_pages as f64;
        out.io_ms += model.io_ms(&gir_storage::IoStatsSnapshot {
            reads: o.stats.gir_pages,
            writes: 0,
        });
        out.candidates += o.stats.candidates as f64;
        out.structure += o.stats.structure_size as f64;
        out.measured += 1;
        if start.elapsed().as_secs_f64() * 1e3 > budget_ms {
            break;
        }
    }
    if out.measured > 0 {
        let m = out.measured as f64;
        out.cpu_ms /= m;
        out.io_pages /= m;
        out.io_ms /= m;
        out.candidates /= m;
        out.structure /= m;
    }
    out
}

/// Standard query workload for a cell.
pub fn query_workload(count: usize, d: usize, seed: u64) -> Vec<PointD> {
    random_queries(count, d, 0.05, seed)
}

/// Heuristic guard for CP: skip the hull when its `Ω(|SL|^{⌊d/2⌋})` cost
/// projects past any reasonable budget (the paper *ran* these cells for
/// hours; we print `—` instead — see EXPERIMENTS.md).
pub fn cp_feasible(skyline_size: f64, d: usize) -> bool {
    let projected = skyline_size
        .max(2.0)
        .powf((d as f64 / 2.0).floor().max(1.0));
    projected < 5e10
}

/// Replays mixed traffic (each batch's updates, then its queries)
/// against a serve core — whichever backend is behind it — and returns
/// the aggregate stats plus the total facet repairs.
pub fn replay<B: ShardBackend>(
    server: &Server<B>,
    traffic: &[TrafficBatch],
) -> (ServeStats, usize) {
    let mut agg = ServeStats::default();
    let mut repaired = 0usize;
    for batch in traffic {
        let report = server.apply_updates(&batch.updates).expect("updates");
        repaired += report.repaired;
        agg.merge(&server.run_batch(&batch.queries).stats);
    }
    (agg, repaired)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cell_measures_something() {
        let tree = build_tree(
            BenchDataset::Synthetic(Distribution::Independent),
            3000,
            3,
            1,
        );
        let qs = query_workload(2, 3, 2);
        let cell = run_cell(
            &tree,
            &ScoringFunction::linear(3),
            &qs,
            10,
            Method::FacetPruning,
            60_000.0,
            false,
        );
        assert_eq!(cell.measured, 2);
        assert!(cell.cpu_ms > 0.0);
        assert!(cell.candidates > 0.0);
    }

    #[test]
    fn cp_guard_blocks_explosive_cells() {
        assert!(cp_feasible(500.0, 4));
        assert!(!cp_feasible(100_000.0, 6));
        assert!(cp_feasible(100.0, 8));
    }

    #[test]
    fn dataset_labels() {
        assert_eq!(
            BenchDataset::Synthetic(Distribution::Correlated).label(),
            "COR"
        );
        assert_eq!(BenchDataset::House.label(), "HOUSE");
    }
}
