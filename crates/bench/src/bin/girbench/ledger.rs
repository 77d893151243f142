//! The traced run: every per-layer metric, and the check that the
//! layers' spans add up to what the real server takes.
//!
//! The first quarter of the workload's timed pass is replayed, cycle by
//! cycle in lockstep, through the real engine untraced (the end-to-end
//! reference), the bare shadow pipeline (no spans, no probes), the
//! traced shadow pipeline (the spans) and, for the two fan-out tiers,
//! the tier below. A short *count pass* with the program's own `gir_obs`
//! collector installed then continues on the real engine, for exact
//! counts. End-to-end metrics are never taken from this run.

use crate::engines::Engine;
use crate::measure::{
    mean, open_pass, scaled, set_up, set_up_engine, wall_limit, Metric, Ready, Replay, Report,
    Scratch, Target,
};
use crate::shadow::Shadow;
use crate::trace::{self, Layer};
use crate::workloads::{EngineKind, Workload, PER_LAYER};
use gir_core::plan::MissPath;
use gir_obs::Registry;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Share of the timed pass the traced run replays.
const TRACED_SHARE: f64 = 0.25;
/// Share of the timed pass the count pass replays.
const COUNT_SHARE: f64 = 1.0 / 16.0;
/// Share of the open pass's length used to report the generator's lag.
const OPEN_SHARE: f64 = 0.5;
/// A closure ratio outside this range fails a traced run, except the
/// two that [`gated`] leaves out.
const CLOSURE: (f64, f64) = (0.85, 1.10);

/// Whether `side` ("read" or "write") of `workload`'s ledger is held to
/// [`CLOSURE`]. On hit-dominated `session_read` the read residual is the
/// server's own overhead, reported as `serve.server.overhead_us`. On
/// `churn_write` the real `DurableServer` applies a batch 10-30 % faster
/// than the shadow assembled from the same public calls, by a different
/// margin every run (write closure 1.00, 1.10, 1.23, 1.33 over four runs
/// of one seed): the ratio is reported, and a gate on it would fail on
/// the weather.
fn gated(workload: &str, side: &str) -> bool {
    !matches!(
        (workload, side),
        ("session_read", "read") | ("churn_write", "write")
    )
}

/// Exact counts taken with the program's collector installed.
#[derive(Default)]
struct Counts {
    queries: u64,
    misses: u64,
    update_ops: u64,
    batches: u64,
    lp_in_updates: u64,
    lp_in_queries: u64,
    page_reads_in_queries: u64,
    brs_nodes: u64,
    brs_topks: u64,
    fsyncs: u64,
    rpc_calls_in_queries: u64,
    touched: u64,
    classified: u64,
    repairs: u64,
    failed: u64,
}

fn count_pass(ready: &mut Ready<Engine>, cycles: usize) -> Counts {
    let reg = Registry::global();
    let lp = reg.counter("event.lp_call");
    let pages = reg.counter("event.page_read");
    let brs_nodes = reg.counter("event.brs_visit.nodes");
    let brs_topks = reg.counter("event.brs_visit");
    let fsyncs = reg.counter("event.wal_fsync");
    let rpc = reg.counter(gir_obs::rpc::RPC_REQUESTS);
    let mut c = Counts::default();
    gir_obs::install_global_collector();
    let (nodes0, topks0, fsync0) = (brs_nodes.get(), brs_topks.get(), fsyncs.get());
    for _ in 0..cycles {
        let cycle = ready.stream.next_cycle();
        if !cycle.updates.is_empty() {
            let lp0 = lp.get();
            match ready.target.update(&cycle.updates) {
                Ok(r) => {
                    c.touched += (r.shrunk + r.repaired + r.evicted) as u64;
                    c.classified += (r.shrunk + r.repaired + r.evicted + r.untouched) as u64;
                    c.repairs += r.repaired as u64;
                }
                Err(_) => c.failed += cycle.updates.len() as u64,
            }
            c.lp_in_updates += lp.get() - lp0;
            c.update_ops += cycle.updates.len() as u64;
            c.batches += 1;
            ready.mirror.apply(&cycle.updates);
        }
        let (lp0, pages0, rpc0) = (lp.get(), pages.get(), rpc.get());
        for q in &cycle.queries {
            let answer = ready.target.query(q);
            c.queries += 1;
            c.misses += !answer.from_cache as u64;
            c.failed += answer.failed as u64;
        }
        c.lp_in_queries += lp.get() - lp0;
        c.page_reads_in_queries += pages.get() - pages0;
        c.rpc_calls_in_queries += rpc.get() - rpc0;
    }
    tracing::clear_collector();
    c.brs_nodes = brs_nodes.get() - nodes0;
    c.brs_topks = brs_topks.get() - topks0;
    c.fsyncs = fsyncs.get() - fsync0;
    c
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The engine a tier's miss cost is compared against on the same
/// stream: the single tree for the sharded server, the in-process
/// sharded server for the distributed one.
fn reference_kind(kind: EngineKind) -> Option<EngineKind> {
    match kind {
        EngineKind::Sharded => Some(EngineKind::Single),
        EngineKind::Distributed => Some(EngineKind::Sharded),
        EngineKind::Single | EngineKind::Durable => None,
    }
}

/// Σ`num` ÷ Σ`den` of two series recorded in lockstep.
fn sum_ratio(num: &[u64], den: &[u64]) -> f64 {
    ratio(num.iter().sum(), den.iter().sum())
}

fn tally(report: &mut Report, replay: &Replay) {
    report.attempted += replay.ops();
    report.failed += replay.failed;
    report.verified += replay.verified;
}

fn tally_set_up<T>(report: &mut Report, ready: &Ready<T>) {
    report.attempted += ready.attempted;
    report.failed += ready.failed;
}

pub fn run(w: &Workload, seed: u64, scale: f64, artifacts: &Path) -> Report {
    let scratch = Scratch::new(artifacts);
    let mut report = Report::default();
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    let cycles = scaled(w.timed_cycles, scale * TRACED_SHARE);
    let wall_limit = wall_limit(scale);
    let d = w.stream.d;

    // Four replays of the same cycles in lockstep, one cycle each in
    // turn: the real engine (what the layers must add up to), the bare
    // and the traced shadow, and the tier below where there is one. The
    // box's speed drifts by tens of percent over seconds; replays that
    // ran one after another would meet different weather, replays that
    // take turns share it.
    let mut real = set_up_engine(w, seed, scale, &scratch);
    tally_set_up(&mut report, &real);
    let mut shadows = [false, true].map(|tracing_on| {
        let dir = scratch.fresh_dir();
        let mut ready = set_up(w, seed, scale, |data| {
            Shadow::build(w.engine, d, data, &dir, tracing_on)
        });
        tally_set_up(&mut report, &ready);
        // The warm-up is not part of the ledger.
        ready.target.start_ledger();
        ready
    });
    let mut below = reference_kind(w.engine).map(|kind| {
        let dir = scratch.fresh_dir();
        let ready = set_up(w, seed, scale, |data| Engine::build(kind, d, data, &dir));
        tally_set_up(&mut report, &ready);
        ready
    });
    let (mut real_pass, mut bare_pass, mut traced_pass, mut below_pass) = (
        Replay::default(),
        Replay::default(),
        Replay::default(),
        Replay::default(),
    );
    let started = Instant::now();
    for _ in 0..cycles {
        if started.elapsed() > wall_limit {
            report
                .notes
                .push("traced replay stopped early at its wall-clock limit".to_string());
            break;
        }
        real_pass.cycle(&mut real);
        bare_pass.cycle(&mut shadows[0]);
        traced_pass.cycle(&mut shadows[1]);
        if let Some(below) = &mut below {
            below_pass.cycle(below);
        }
    }
    for pass in [&real_pass, &bare_pass, &traced_pass, &below_pass] {
        tally(&mut report, pass);
    }
    drop(below);

    // Exact counts, continuing on the real engine.
    let cache0 = real.target.cache_stats();
    let prune0 = real.target.prune_stats();
    let plan0 = real.target.planner_stats();
    let rpc_counters = gir_obs::rpc::RpcCounters::global();
    let (rpc_fail0, rpc_retry0) = (rpc_counters.failures.get(), rpc_counters.retries.get());
    let counts = count_pass(&mut real, scaled(w.timed_cycles, scale * COUNT_SHARE));
    report.attempted += counts.queries + counts.update_ops;
    report.failed += counts.failed;
    let cache1 = real.target.cache_stats();
    let prune1 = real.target.prune_stats();
    let plan1 = real.target.planner_stats();

    let lag = open_pass(
        &real.target,
        &mut real.mirror,
        w,
        seed,
        w.open.seconds * scale * OPEN_SHARE,
    );
    report.attempted += lag.latency_ns.len() as u64 + lag.update_ops;
    report.failed += lag.failed;
    drop(real);

    let [bare, traced] = shadows;
    drop(bare);
    let mut shadow = traced.target;
    let tallies = shadow.tallies();
    let spans = &shadow.tracer.spans;
    let layers = trace::summarize(spans);

    // -- metrics that are a span's mean duration ------------------------
    let span_mean = |name: &str| -> (f64, u64) {
        layers
            .get(name)
            .map_or((0.0, 0), |l: &Layer| (l.mean_us(), l.count))
    };
    for (metric, span) in [
        ("serve.cache.get_us", "serve.cache.get"),
        ("serve.cache.admit_us", "serve.cache.admit"),
        ("serve.cache.apply_batch_us", "serve.cache.apply_batch"),
        ("core.maintenance.classify_us", "core.maintenance.classify"),
        ("core.maintenance.repair_us", "core.maintenance.repair"),
        ("geometry.lp.call_us", "geometry.lp.call"),
        ("core.mirror.build_us", "core.mirror.build"),
        ("core.engine.miss_us", "core.engine.miss"),
        ("core.mirror.topk_us", "core.mirror.topk"),
        ("core.phase1.us", "core.phase1"),
        ("core.plan.plan_us", "core.plan.plan"),
        ("rtree.insert_us", "rtree.insert"),
        ("rtree.delete_us", "rtree.delete"),
        ("core.prune.on_insert_us", "core.prune.on_insert"),
        ("core.prune.on_delete_us", "core.prune.on_delete"),
        ("core.wire.walbatch_encode_us", "core.wire.walbatch_encode"),
        ("storage.wal.append_us", "storage.wal.append"),
        ("storage.snapshot.write_us", "storage.snapshot.write"),
        ("core.sharded.shard_topk_us", "core.sharded.shard_topk"),
        ("core.sharded.merge_us", "core.sharded.merge"),
        ("core.sharded.shard_phase2_us", "core.sharded.shard_phase2"),
        ("shard.dataset.apply_us", "shard.dataset.apply"),
        ("rpc.endpoint.rtt_us.ping", "rpc.endpoint.rtt.ping"),
        ("rpc.endpoint.rtt_us.topk", "rpc.endpoint.rtt.topk"),
        ("rpc.endpoint.rtt_us.phase2", "rpc.endpoint.rtt.phase2"),
        ("rpc.worker.handle_us.topk", "rpc.worker.handle.topk"),
        ("rpc.worker.handle_us.phase2", "rpc.worker.handle.phase2"),
        ("core.wire.frame_encode_us", "core.wire.frame_encode"),
        ("core.wire.frame_decode_us", "core.wire.frame_decode"),
        ("rpc.cluster.apply_us", "rpc.cluster.apply"),
    ] {
        out.insert(metric, span_mean(span));
    }

    // -- derived from spans ----------------------------------------------
    let (miss_us, misses) = span_mean("core.engine.miss");
    // Top-k and Phase 1 of a miss, from whichever probes this tier has.
    let topk_us = match w.engine {
        EngineKind::Single | EngineKind::Durable => span_mean("core.mirror.topk").0,
        EngineKind::Sharded => {
            span_mean("core.sharded.shard_topk").0 * 4.0 + span_mean("core.sharded.merge").0
        }
        EngineKind::Distributed => 0.0,
    };
    let phase1_us = span_mean("core.phase1").0;
    if w.engine != EngineKind::Distributed {
        out.insert(
            "core.phase2.us",
            ((miss_us - topk_us - phase1_us).max(0.0), misses),
        );
    }
    let recomputed = tallies.indexed_misses - tallies.reused_misses;
    if recomputed > 0 {
        let us = tallies.recompute_ns as f64 / recomputed as f64 / 1e3;
        out.insert(
            "core.phase2.recompute_us",
            ((us - topk_us - phase1_us).max(0.0), recomputed),
        );
    }
    if tallies.indexed_misses > 0 {
        out.insert(
            "core.phase2.reuse_ratio",
            (
                ratio(tallies.reused_misses, tallies.indexed_misses),
                tallies.indexed_misses,
            ),
        );
    }
    out.insert(
        "core.mirror.builds",
        (tallies.mirror_builds as f64, tallies.mirror_builds),
    );
    if tallies.wal_bytes > 0 {
        out.insert(
            "storage.wal.bytes_per_update",
            (
                ratio(tallies.wal_bytes, tallies.update_ops),
                tallies.update_ops,
            ),
        );
    }
    if tallies.wire_misses > 0 {
        out.insert(
            "core.wire.bytes_per_miss",
            (
                ratio(tallies.wire_bytes, tallies.wire_misses),
                tallies.wire_misses,
            ),
        );
        // What is left of a round trip once the codec and the worker
        // are taken out, averaged over the two calls a miss makes.
        let transport = |kind: &str| -> f64 {
            let rtt = span_mean(&format!("rpc.endpoint.rtt.{kind}")).0;
            let handle = span_mean(&format!("rpc.worker.handle.{kind}")).0;
            rtt - handle
                - span_mean("core.wire.frame_encode").0
                - span_mean("core.wire.frame_decode").0
        };
        out.insert(
            "rpc.transport.us",
            (
                ((transport("topk") + transport("phase2")) / 2.0).max(0.0),
                tallies.wire_misses,
            ),
        );
    }
    if let Some(rec) = shadow.recovery() {
        report.failed += !rec.same_records as u64;
        out.insert("serve.durable.recover_snapshot_us", (rec.snapshot_us, 1));
        out.insert(
            "serve.durable.recover_replay_us_per_batch",
            (rec.replay_us_per_batch, rec.batches),
        );
    }

    // -- exact counts ----------------------------------------------------
    let lookups = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    out.insert(
        "serve.cache.hit_rate",
        (ratio(cache1.hits - cache0.hits, lookups), lookups),
    );
    out.insert(
        "serve.cache.evictions",
        ((cache1.evictions - cache0.evictions) as f64, lookups),
    );
    out.insert(
        "serve.cache.entries_touched_ratio",
        (ratio(counts.touched, counts.classified), counts.classified),
    );
    out.insert(
        "core.maintenance.repairs",
        (counts.repairs as f64, counts.batches),
    );
    out.insert(
        "geometry.lp.calls_per_update",
        (
            ratio(counts.lp_in_updates, counts.update_ops),
            counts.update_ops,
        ),
    );
    out.insert(
        "geometry.lp.calls_per_miss",
        (ratio(counts.lp_in_queries, counts.misses), counts.misses),
    );
    out.insert(
        "query.brs.nodes_per_topk",
        (ratio(counts.brs_nodes, counts.brs_topks), counts.brs_topks),
    );
    out.insert(
        "storage.pagestore.page_reads_per_miss",
        (
            ratio(counts.page_reads_in_queries, counts.misses),
            counts.misses,
        ),
    );
    out.insert(
        "storage.wal.fsyncs_per_batch",
        (ratio(counts.fsyncs, counts.batches), counts.batches),
    );
    out.insert(
        "rpc.cluster.calls_per_miss",
        (
            ratio(counts.rpc_calls_in_queries, counts.misses),
            counts.misses,
        ),
    );
    out.insert(
        "rpc.failures",
        ((rpc_counters.failures.get() - rpc_fail0) as f64, 1),
    );
    out.insert(
        "rpc.retries",
        ((rpc_counters.retries.get() - rpc_retry0) as f64, 1),
    );
    if let (Some(p0), Some(p1)) = (plan0, plan1) {
        let decisions = p1.decisions - p0.decisions;
        let reuse = MissPath::ALL
            .iter()
            .position(|p| *p == MissPath::IndexedReuse)
            .expect("a planner path");
        out.insert(
            "core.plan.reuse_path_share",
            (
                ratio(p1.by_path[reuse] - p0.by_path[reuse], decisions),
                decisions,
            ),
        );
    }
    let prune_delta = |f: fn(&gir_core::PruneIndexStats) -> u64| -> u64 {
        prune1.iter().map(f).sum::<u64>() - prune0.iter().map(f).sum::<u64>()
    };
    if !prune1.is_empty() {
        let repaired = prune_delta(|s| s.repaired_deletes);
        let deletes = repaired + prune_delta(|s| s.fast_deletes);
        out.insert(
            "core.prune.repaired_delete_ratio",
            (ratio(repaired, deletes), deletes),
        );
        if w.engine == EngineKind::Sharded {
            let hits = prune_delta(|s| s.phase2_hits);
            let total = hits + prune_delta(|s| s.phase2_misses);
            out.insert(
                "core.sharded.phase2_reuse_ratio",
                (ratio(hits, total), total),
            );
        }
    }

    // -- the tier's tax over the tier below, on the same stream ----------
    if !below_pass.miss_ns.is_empty() {
        let name = if w.engine == EngineKind::Sharded {
            "shard.server.tax_ratio"
        } else {
            "rpc.server.tax_ratio"
        };
        out.insert(
            name,
            (
                mean(&real_pass.miss_ns) / mean(&below_pass.miss_ns),
                real_pass.miss_ns.len() as u64,
            ),
        );
    }

    // -- the ledger: do the layers add up? -------------------------------
    let n_queries = real_pass.query_ns.len() as u64;
    let n_batches = real_pass.update_ns.len() as u64;
    let closure_read = sum_ratio(&trace::attributed_ns(spans, "query"), &real_pass.query_ns);
    out.insert("girbench.ledger.closure_read", (closure_read, n_queries));
    out.insert(
        "serve.server.overhead_us",
        (
            mean(&real_pass.query_ns) / 1e3 * (1.0 - closure_read),
            n_queries,
        ),
    );
    let mut closures = vec![("read", closure_read)];
    if n_batches > 0 {
        let closure_write = sum_ratio(&trace::attributed_ns(spans, "update"), &real_pass.update_ns);
        out.insert("girbench.ledger.closure_write", (closure_write, n_batches));
        closures.push(("write", closure_write));
    }
    for (side, closure) in closures {
        if gated(w.name, side) && !(CLOSURE.0..=CLOSURE.1).contains(&closure) {
            report.gate_violations.push(format!(
                "ledger closure ({side}) {closure:.3} outside {CLOSURE:?}"
            ));
        }
    }
    out.insert(
        "girbench.trace.overhead_ratio",
        (
            ratio(traced_pass.busy_ns(), bare_pass.busy_ns()),
            traced_pass.ops(),
        ),
    );
    out.insert(
        "girbench.open.max_start_lag_us",
        (
            lag.max_start_lag_ns as f64 / 1e3,
            lag.latency_ns.len() as u64,
        ),
    );

    let path = artifacts.join(format!("trace-{}.json", w.name));
    match trace::write_json(&path, w.name, spans) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => {
            report.failed += 1;
            report
                .notes
                .push(format!("could not write {}: {e}", path.display()));
        }
    }

    // Every per-layer metric, in catalogue order; a layer this workload
    // does not exercise reads 0 from 0 samples.
    for m in PER_LAYER {
        let (value, samples) = out.remove(m.name).unwrap_or((0.0, 0));
        report
            .metrics
            .push(Metric::new(m.name, m.unit, value, samples));
    }
    assert!(
        out.is_empty(),
        "metrics missing from the catalogue: {out:?}"
    );
    report
}
