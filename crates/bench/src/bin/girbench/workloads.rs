//! The five workloads and the metric catalogue. Every number here is a
//! benchmark decision, explained in `README.md`; a PR that claims a
//! gain may not edit this file.

use crate::gen::StreamSpec;

/// The CI `GIR_SEED`.
pub const DEFAULT_SEED: u64 = 48_764;

/// Seed of what a workload *is*: the dataset, the anchors, each anchor's
/// queries and the update stream. `--seed` draws only the order in which
/// the anchors ask; see `README.md`.
pub const WORLD_SEED: u64 = 48_764;

/// `--seconds` value at which the op counts below apply unscaled; also
/// `run_seconds` in `BENCHMARK.json`.
pub const NOMINAL_SECONDS: f64 = 10.0;

/// Which public constructor a workload serves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Single,
    Durable,
    Sharded,
    Distributed,
}

/// The coordinated-omission-safe pass: a reader thread serves queries
/// on a fixed schedule while — on the two cacheable workloads — a writer
/// thread applies uniform update batches on its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSpec {
    pub queries_per_s: f64,
    /// Writer-thread batches per second; 0 runs the schedule without a
    /// writer.
    pub batches_per_s: f64,
    /// Ops per writer batch.
    pub batch_ops: usize,
    pub seconds: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub engine: EngineKind,
    pub stream: StreamSpec,
    /// Sub-seed tag of the closed stream; shared by the fan-out pair.
    pub stream_tag: u64,
    /// Untimed cycles replayed before the closed pass (part of set-up).
    pub warm_cycles: usize,
    pub timed_cycles: usize,
    /// Update batches applied after the closed pass of a workload whose
    /// cycles carry none, so its write-path metrics exist. Each is
    /// followed by `tail_refill` untimed queries that keep the cache
    /// full: without them every batch would meet a smaller cache.
    pub tail_batches: usize,
    pub tail_batch_ops: usize,
    pub tail_refill: usize,
    pub open: OpenSpec,
}

const SESSION_KS: &[usize] = &[5, 10, 20];
const EXPLORE_KS: &[usize] = &[10, 20];

const FANOUT_STREAM: StreamSpec = StreamSpec {
    d: 3,
    anchors: 512,
    jitter: 0.02,
    ks: EXPLORE_KS,
    star_on_odd_anchors: false,
    updates_per_cycle: 8,
    hot_insert_share: 0.3,
    hot_delete_share: 0.5,
    queries_per_cycle: 64,
};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "session_read",
        why: "72 session keys fit the 16x32 cache: cache lookups do the work, the miss path little",
        engine: EngineKind::Single,
        stream: StreamSpec {
            d: 3,
            anchors: 24,
            jitter: 0.01,
            ks: SESSION_KS,
            star_on_odd_anchors: false,
            updates_per_cycle: 4,
            hot_insert_share: 0.0,
            hot_delete_share: 0.0,
            queries_per_cycle: 512,
        },
        stream_tag: 2,
        warm_cycles: 40,
        timed_cycles: 1000,
        tail_batches: 0,
        tail_batch_ops: 0,
        tail_refill: 0,
        open: OpenSpec {
            queries_per_s: 10_000.0,
            batches_per_s: 10.0,
            batch_ops: 4,
            seconds: 5.0,
        },
    },
    Workload {
        name: "explore_miss",
        why: "4096 anchors at d=4 overflow the cache: top-k, Phase 2, LP and planner do all the work",
        engine: EngineKind::Single,
        stream: StreamSpec {
            d: 4,
            anchors: 4096,
            jitter: 0.05,
            ks: EXPLORE_KS,
            star_on_odd_anchors: false,
            updates_per_cycle: 0,
            hot_insert_share: 0.0,
            hot_delete_share: 0.0,
            queries_per_cycle: 256,
        },
        stream_tag: 3,
        warm_cycles: 16,
        timed_cycles: 391,
        tail_batches: 480,
        tail_batch_ops: 8,
        tail_refill: 16,
        open: OpenSpec {
            queries_per_s: 1_000.0,
            batches_per_s: 0.0,
            batch_ops: 0,
            seconds: 5.0,
        },
    },
    Workload {
        name: "churn_write",
        why: "same cache as session_read from the write side: WAL, tree, prune index, classify/repair of both kinds",
        engine: EngineKind::Durable,
        stream: StreamSpec {
            d: 3,
            anchors: 24,
            jitter: 0.01,
            ks: SESSION_KS,
            star_on_odd_anchors: true,
            updates_per_cycle: 32,
            hot_insert_share: 0.3,
            hot_delete_share: 0.5,
            queries_per_cycle: 64,
        },
        stream_tag: 4,
        warm_cycles: 40,
        // 672 batches in all, ten and a half snapshot intervals: the
        // restarts, which come straight after the closed pass, find 32
        // batches in the WAL to replay.
        timed_cycles: 632,
        tail_batches: 0,
        tail_batch_ops: 0,
        tail_refill: 0,
        open: OpenSpec {
            queries_per_s: 2_000.0,
            batches_per_s: 10.0,
            batch_ops: 4,
            seconds: 6.0,
        },
    },
    Workload {
        name: "shard_fanout",
        why: "miss-dominated over four in-process trees: per-shard top-k, merge and per-shard Phase 2",
        engine: EngineKind::Sharded,
        stream: FANOUT_STREAM,
        stream_tag: 5,
        warm_cycles: 40,
        timed_cycles: 600,
        tail_batches: 0,
        tail_batch_ops: 0,
        tail_refill: 0,
        open: OpenSpec {
            queries_per_s: 1_000.0,
            batches_per_s: 0.0,
            batch_ops: 0,
            seconds: 5.0,
        },
    },
    Workload {
        name: "dist_fanout",
        why: "shard_fanout's stream over four UDS workers: adds frames, kernel crossings and the serial shard loop",
        engine: EngineKind::Distributed,
        stream: FANOUT_STREAM,
        stream_tag: 5,
        warm_cycles: 40,
        timed_cycles: 200,
        tail_batches: 0,
        tail_batch_ops: 0,
        tail_refill: 0,
        open: OpenSpec {
            queries_per_s: 300.0,
            batches_per_s: 0.0,
            batch_ops: 0,
            seconds: 17.0,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric: name, unit, and the regression bound (share
/// of the parent's median by which it may worsen).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p99_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "update_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "update_p95_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "open_query_p99_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// Which end-to-end metrics a layer metric should move, and on which
/// workloads. (`BENCHMARK.json` has no room for this: its `per_layer`
/// entries take a name, a unit and a direction only.)
pub struct Moves {
    pub metrics: &'static [&'static str],
    pub on: &'static [&'static str],
}

/// One per-layer metric of the traced run. They carry no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub moves: &'static Moves,
}

const fn time_us(name: &'static str, moves: &'static Moves) -> PerLayer {
    lower(name, "us", moves)
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static Moves) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static Moves) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        moves,
    }
}

const CACHE_GET: Moves = Moves {
    metrics: &["query_p50_us", "ops_per_s"],
    on: &["session_read"],
};
const MISS_MEDIAN: Moves = Moves {
    metrics: &["query_p50_us"],
    on: &["explore_miss"],
};
const CACHE_APPLY: Moves = Moves {
    metrics: &["update_p50_us", "open_query_p99_us"],
    on: &["churn_write", "session_read"],
};
const WRITE_BATCH: Moves = Moves {
    metrics: &["update_p50_us", "update_p95_us"],
    on: &["churn_write"],
};
const MIRROR_BUILD: Moves = Moves {
    metrics: &["query_p99_us", "open_query_p99_us"],
    on: &["session_read", "churn_write"],
};
/// Median and throughput on `explore_miss`, the tail on `session_read`.
const MISS_PATH: Moves = Moves {
    metrics: &["query_p50_us", "ops_per_s", "query_p99_us"],
    on: &["explore_miss", "session_read"],
};
const TREE_WRITE: Moves = Moves {
    metrics: &["update_p50_us", "ops_per_s"],
    on: &["churn_write"],
};
const RECOVERY: Moves = Moves {
    metrics: &["recover_s"],
    on: &["churn_write"],
};
const SHARDING: Moves = Moves {
    metrics: &["query_p50_us", "ops_per_s", "update_p50_us"],
    on: &["shard_fanout", "dist_fanout"],
};
const WIRE: Moves = Moves {
    metrics: &["query_p50_us", "ops_per_s"],
    on: &["dist_fanout"],
};
const WIRE_APPLY: Moves = Moves {
    metrics: &["update_p50_us"],
    on: &["dist_fanout"],
};
const SERVER_OVERHEAD: Moves = Moves {
    metrics: &["query_p50_us"],
    on: &["session_read"],
};
/// Validity of the run, not the program: moves nothing.
const VALIDITY: Moves = Moves {
    metrics: &[],
    on: &[],
};

/// In ledger order: read path, write path, durability, sharding, wire,
/// then the run's own validity numbers.
pub const PER_LAYER: &[PerLayer] = &[
    time_us("serve.cache.get_us", &CACHE_GET),
    higher("serve.cache.hit_rate", "ratio", &CACHE_GET),
    lower("serve.cache.evictions", "count", &CACHE_GET),
    time_us("serve.cache.admit_us", &MISS_MEDIAN),
    time_us("serve.cache.apply_batch_us", &CACHE_APPLY),
    lower("serve.cache.entries_touched_ratio", "ratio", &CACHE_APPLY),
    time_us("core.maintenance.classify_us", &WRITE_BATCH),
    time_us("core.maintenance.repair_us", &WRITE_BATCH),
    lower("core.maintenance.repairs", "count", &WRITE_BATCH),
    time_us("geometry.lp.call_us", &WRITE_BATCH),
    lower("geometry.lp.calls_per_update", "count", &WRITE_BATCH),
    time_us("core.mirror.build_us", &MIRROR_BUILD),
    lower("core.mirror.builds", "count", &MIRROR_BUILD),
    time_us("core.engine.miss_us", &MISS_PATH),
    time_us("core.mirror.topk_us", &MISS_PATH),
    time_us("core.phase1.us", &MISS_PATH),
    time_us("core.phase2.us", &MISS_PATH),
    time_us("core.phase2.recompute_us", &MISS_PATH),
    higher("core.phase2.reuse_ratio", "ratio", &MISS_PATH),
    lower("geometry.lp.calls_per_miss", "count", &MISS_PATH),
    lower("query.brs.nodes_per_topk", "count", &MISS_PATH),
    lower("storage.pagestore.page_reads_per_miss", "count", &MISS_PATH),
    time_us("core.plan.plan_us", &MISS_MEDIAN),
    higher("core.plan.reuse_path_share", "ratio", &MISS_MEDIAN),
    time_us("rtree.insert_us", &TREE_WRITE),
    time_us("rtree.delete_us", &TREE_WRITE),
    time_us("core.prune.on_insert_us", &TREE_WRITE),
    time_us("core.prune.on_delete_us", &TREE_WRITE),
    lower("core.prune.repaired_delete_ratio", "ratio", &TREE_WRITE),
    time_us("core.wire.walbatch_encode_us", &WRITE_BATCH),
    time_us("storage.wal.append_us", &WRITE_BATCH),
    lower("storage.wal.bytes_per_update", "bytes", &WRITE_BATCH),
    lower("storage.wal.fsyncs_per_batch", "count", &WRITE_BATCH),
    time_us("storage.snapshot.write_us", &WRITE_BATCH),
    time_us("serve.durable.recover_snapshot_us", &RECOVERY),
    time_us("serve.durable.recover_replay_us_per_batch", &RECOVERY),
    time_us("core.sharded.shard_topk_us", &SHARDING),
    time_us("core.sharded.merge_us", &SHARDING),
    time_us("core.sharded.shard_phase2_us", &SHARDING),
    higher("core.sharded.phase2_reuse_ratio", "ratio", &SHARDING),
    time_us("shard.dataset.apply_us", &SHARDING),
    lower("shard.server.tax_ratio", "ratio", &SHARDING),
    time_us("rpc.endpoint.rtt_us.ping", &WIRE),
    time_us("rpc.endpoint.rtt_us.topk", &WIRE),
    time_us("rpc.endpoint.rtt_us.phase2", &WIRE),
    time_us("rpc.worker.handle_us.topk", &WIRE),
    time_us("rpc.worker.handle_us.phase2", &WIRE),
    time_us("core.wire.frame_encode_us", &WIRE),
    time_us("core.wire.frame_decode_us", &WIRE),
    lower("core.wire.bytes_per_miss", "bytes", &WIRE),
    time_us("rpc.transport.us", &WIRE),
    lower("rpc.cluster.calls_per_miss", "count", &WIRE),
    lower("rpc.server.tax_ratio", "ratio", &WIRE),
    time_us("rpc.cluster.apply_us", &WIRE_APPLY),
    lower("rpc.failures", "count", &WIRE_APPLY),
    lower("rpc.retries", "count", &WIRE_APPLY),
    time_us("serve.server.overhead_us", &SERVER_OVERHEAD),
    higher("girbench.ledger.closure_read", "ratio", &VALIDITY),
    higher("girbench.ledger.closure_write", "ratio", &VALIDITY),
    time_us("girbench.open.max_start_lag_us", &VALIDITY),
    lower("girbench.trace.overhead_ratio", "ratio", &VALIDITY),
];
