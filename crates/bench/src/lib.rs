//! # gir-bench
//!
//! Benchmark harness regenerating the paper's evaluation (§8). One bench
//! target per figure; each prints the same rows/series the paper plots.
//!
//! The paper's testbed (1M–20M records on a 2014 spinning disk, 100
//! random queries per cell, hours of CPU for the slower methods) does not
//! fit a CI budget, so the harness scales down by default and guards with
//! per-cell time budgets — *shapes*, not absolute numbers, are the
//! reproduction target (see EXPERIMENTS.md). Environment knobs:
//!
//! | variable        | default | meaning                                   |
//! |-----------------|---------|-------------------------------------------|
//! | `GIR_FULL=1`    | off     | paper-scale parameters (n=1M, d→8, …)     |
//! | `GIR_N`         | 20000   | default dataset cardinality               |
//! | `GIR_QUERIES`   | 3       | queries averaged per cell (paper: 100)    |
//! | `GIR_CELL_MS`   | 15000   | per-cell budget; a series stops once hit  |

pub mod params;
pub mod report;
pub mod runner;

pub use params::Params;
pub use report::Table;
pub use runner::{build_tree, replay, run_cell, BenchDataset, CellResult};
