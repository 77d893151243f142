//! Disk latency cost model.
//!
//! Substitution for the paper's 2014-era testbed (DESIGN.md §5): instead
//! of timing a physical spinning disk, logical page fetches are converted
//! to milliseconds with a configurable per-page latency. Page *counts* are
//! the invariant being compared across methods; the latency only scales
//! the reported axis.

use crate::iostats::IoStatsSnapshot;

/// Converts page counts into I/O time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Milliseconds per page read.
    pub read_ms: f64,
    /// Milliseconds per page write.
    pub write_ms: f64,
}

impl CostModel {
    /// A 2014-era commodity disk serving scattered 4 KiB pages from an
    /// R-tree traversal: dominated by seek/rotation, ~0.1 ms effective
    /// (short-stroked / partially sequential workloads).
    pub fn disk_2014() -> Self {
        CostModel {
            read_ms: 0.1,
            write_ms: 0.1,
        }
    }

    /// Memory-resident scenario: I/O time is identically zero, matching
    /// the paper's remark that the CPU charts alone cover this case (§8).
    pub fn memory() -> Self {
        CostModel {
            read_ms: 0.0,
            write_ms: 0.0,
        }
    }

    /// Total I/O time in milliseconds for a snapshot delta.
    pub fn io_ms(&self, stats: &IoStatsSnapshot) -> f64 {
        stats.reads as f64 * self.read_ms + stats.writes as f64 * self.write_ms
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::disk_2014()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_model_charges_reads_and_writes() {
        let m = CostModel::disk_2014();
        let s = IoStatsSnapshot {
            reads: 100,
            writes: 50,
        };
        assert!((m.io_ms(&s) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn memory_model_is_free() {
        let m = CostModel::memory();
        let s = IoStatsSnapshot {
            reads: 1_000_000,
            writes: 42,
        };
        assert_eq!(m.io_ms(&s), 0.0);
    }
}
