//! The untraced run: set-ups, the closed pass, restarts, the open pass.
//! Every timed interval brackets exactly one public call into the
//! engine; generation, mirroring and verification happen between calls.

use crate::engines::Engine;
use crate::gen::{self, Cycle, Stream, StreamSpec, DATASET_N};
use crate::oracle::Mirror;
use crate::workloads::{Workload, END_TO_END, NOMINAL_SECONDS, WORLD_SEED};
use gir_query::Record;
use gir_serve::{TopKRequest, Update, UpdateReport};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// One reported number. `samples` is how many timed calls (or repeats)
/// it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Queries plus update ops sent to an engine (or shadow pipeline).
    pub attempted: u64,
    /// `failed` responses, `Err` updates, oracle and state mismatches.
    pub failed: u64,
    /// Responses the oracle checked.
    pub verified: u64,
    pub notes: Vec<String>,
    /// Validity gates of the run itself that did not hold (a ledger
    /// closure ratio out of range): no op failed, but the numbers
    /// should not be trusted.
    pub gate_violations: Vec<String>,
}

impl Report {
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_violations.is_empty()
    }
}

/// Fresh directories under `<target>/girbench/tmp/<pid>/`, removed when
/// the run ends. The WAL and snapshots of `churn_write` live here, on
/// whatever filesystem holds the build directory.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU32,
}

impl Scratch {
    pub fn new(artifacts: &Path) -> Scratch {
        let root = artifacts.join("tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&root).expect("create scratch directory under the target dir");
        Scratch {
            root,
            next: AtomicU32::new(0),
        }
    }

    pub fn fresh_dir(&self) -> PathBuf {
        let dir = self
            .root
            .join(self.next.fetch_add(1, Ordering::Relaxed).to_string());
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `<target>/girbench`, found from the running executable
/// (`<target>/<profile>/girbench` or `<target>/<profile>/deps/girbench-*`).
pub fn artifacts_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    let mut dir = exe.parent().expect("executable has a directory");
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir = dir.parent().expect("deps has a parent");
    }
    dir.parent()
        .expect("profile directory has a parent")
        .join("girbench")
}

/// How long a replay may run before it stops at the next cycle boundary:
/// four times the nominal length, so that a slow machine cannot run into
/// the driver's time cap.
pub fn wall_limit(scale: f64) -> Duration {
    Duration::from_secs_f64((4.0 * NOMINAL_SECONDS * scale).max(2.0))
}

/// An op count shrunk (or stretched) by `--seconds`, never below one.
pub fn scaled(count: usize, scale: f64) -> usize {
    ((count as f64 * scale).round() as usize).max(1)
}

pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

/// Nearest-rank percentile of all of `samples`, in microseconds.
pub fn percentile_us(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

pub fn median_f64(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The 1-in-8 oracle sample: a fixed hash of the query's position, so
/// neither parity of a patterned stream is favoured.
fn sampled(query_no: u64) -> bool {
    query_no.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 == 0
}

/// The cycle stream of `w` over `live`. [`WORLD_SEED`] draws what the
/// workload *is* — the anchors, each anchor's queries and the update
/// stream; `seed` (`--seed`) draws the order the anchors ask in (see
/// [`Stream`]). `pass` separates the closed stream (0), the write tail,
/// the open pass and the post-restart probes.
pub fn stream_of(w: &Workload, spec: &StreamSpec, live: &[Record], pass: u64, seed: u64) -> Stream {
    Stream::new(
        spec,
        live,
        gen::sub_seed(WORLD_SEED, w.stream_tag),
        pass,
        gen::sub_seed(seed, w.stream_tag + pass),
    )
}

/// What a replay needs to know of an answer.
pub struct Answer {
    pub ids: Vec<u64>,
    pub from_cache: bool,
    pub failed: bool,
}

/// Anything a cycle stream can be replayed through: a real engine or a
/// shadow pipeline.
pub trait Target {
    fn query(&mut self, req: &TopKRequest) -> Answer;
    fn update(&mut self, batch: &[Update]) -> Result<UpdateReport, String>;
    /// Time the last call spent on probes, which is not the op's.
    fn take_probe_ns(&mut self) -> u64 {
        0
    }
}

/// A target with its warm-up replayed, the stream positioned at the
/// first timed cycle, and the mirror in step.
pub struct Ready<T> {
    pub target: T,
    pub stream: Stream,
    pub mirror: Mirror,
    /// Set-up time: dataset generation + build/launch/`Load` + warm-up
    /// replay, timed as one interval.
    pub setup_s: f64,
    /// Ops sent, and failures seen, during warm-up.
    pub attempted: u64,
    pub failed: u64,
}

pub fn set_up<T: Target>(
    w: &Workload,
    seed: u64,
    scale: f64,
    build: impl FnOnce(&[Record]) -> T,
) -> Ready<T> {
    let started = Instant::now();
    let data = gen::records(DATASET_N, w.stream.d, WORLD_SEED);
    let mut target = build(&data);
    let mut stream = stream_of(w, &w.stream, &data, 0, seed);
    let mut applied = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for _ in 0..scaled(w.warm_cycles, scale) {
        let cycle = stream.next_cycle();
        if !cycle.updates.is_empty() {
            attempted += cycle.updates.len() as u64;
            if target.update(&cycle.updates).is_err() {
                failed += cycle.updates.len() as u64;
            }
        }
        for q in &cycle.queries {
            attempted += 1;
            failed += target.query(q).failed as u64;
        }
        applied.push(cycle.updates);
    }
    target.take_probe_ns();
    let setup_s = started.elapsed().as_secs_f64();
    let mut mirror = Mirror::new(w.stream.d, &data);
    for batch in &applied {
        mirror.apply(batch);
    }
    Ready {
        target,
        stream,
        mirror,
        setup_s,
        attempted,
        failed,
    }
}

/// Set-up of the real engine `w` names.
pub fn set_up_engine(w: &Workload, seed: u64, scale: f64, scratch: &Scratch) -> Ready<Engine> {
    let wal_dir = scratch.fresh_dir();
    set_up(w, seed, scale, |data| {
        Engine::build(w.engine, w.stream.d, data, &wal_dir)
    })
}

/// Latencies and tallies of a replayed stretch of cycles.
#[derive(Default)]
pub struct Replay {
    /// Per-query latencies, in replay order.
    pub query_ns: Vec<u64>,
    /// Latencies of the queries answered without the cache.
    pub miss_ns: Vec<u64>,
    /// Per-batch latencies, in replay order.
    pub update_ns: Vec<u64>,
    pub update_ops: u64,
    pub failed: u64,
    pub verified: u64,
    pub hits: u64,
    /// Untimed cache-refill queries of a write tail.
    pub refills: u64,
    pub truncated: bool,
}

impl Replay {
    pub fn ops(&self) -> u64 {
        self.query_ns.len() as u64 + self.update_ops
    }

    /// Σ timed call durations.
    pub fn busy_ns(&self) -> u64 {
        self.query_ns.iter().sum::<u64>() + self.update_ns.iter().sum::<u64>()
    }

    /// (queries + update ops) ÷ Σ timed call durations.
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / (self.busy_ns().max(1) as f64 / 1e9)
    }

    /// Times one update batch and mirrors it.
    fn update<T: Target>(&mut self, target: &mut T, mirror: &mut Mirror, batch: &[Update]) {
        let t = Instant::now();
        let res = target.update(batch);
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(target.take_probe_ns());
        self.update_ns.push(ns);
        self.update_ops += batch.len() as u64;
        if res.is_err() {
            self.failed += batch.len() as u64;
        }
        mirror.apply(batch);
    }

    fn query<T: Target>(&mut self, target: &mut T, req: &TopKRequest) -> Answer {
        let t = Instant::now();
        let answer = target.query(req);
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(target.take_probe_ns());
        self.query_ns.push(ns);
        if answer.from_cache {
            self.hits += 1;
        } else {
            self.miss_ns.push(ns);
        }
        answer
    }
}

impl Replay {
    /// Replays the next cycle of `ready`'s stream: the update batch,
    /// then its queries one at a time, then the oracle's sample.
    pub fn cycle<T: Target>(&mut self, ready: &mut Ready<T>) {
        let cycle = ready.stream.next_cycle();
        if !cycle.updates.is_empty() {
            self.update(&mut ready.target, &mut ready.mirror, &cycle.updates);
        }
        let mut to_check: Vec<(usize, Vec<u64>)> = Vec::new();
        for (i, q) in cycle.queries.iter().enumerate() {
            let query_no = self.query_ns.len() as u64;
            let resp = self.query(&mut ready.target, q);
            self.failed += resp.failed as u64;
            if sampled(query_no) && !resp.failed {
                to_check.push((i, resp.ids));
            }
        }
        for (i, ids) in &to_check {
            self.verified += 1;
            self.failed += !ready.mirror.answers(&cycle.queries[*i], ids) as u64;
        }
    }
}

/// The closed pass: one client, zero think time, `cycles` cycles of the
/// fixed op sequence. Stops early (and says so) once `wall_limit` has
/// passed.
pub fn closed_pass<T: Target>(ready: &mut Ready<T>, cycles: usize, wall_limit: Duration) -> Replay {
    let mut out = Replay::default();
    let started = Instant::now();
    for _ in 0..cycles {
        if started.elapsed() > wall_limit {
            out.truncated = true;
            break;
        }
        out.cycle(ready);
    }
    out
}

/// The write tail of a workload whose cycles carry no updates: update
/// batches, each followed by untimed queries that refill the cache.
pub fn write_tail(
    engine: &mut Engine,
    mirror: &mut Mirror,
    w: &Workload,
    seed: u64,
    batches: usize,
) -> Replay {
    let mut out = Replay::default();
    let spec = StreamSpec {
        updates_per_cycle: w.tail_batch_ops,
        queries_per_cycle: w.tail_refill,
        ..w.stream.clone()
    };
    let live = engine.records_snapshot();
    let mut stream = stream_of(w, &spec, &live, 100, seed);
    for _ in 0..batches {
        let cycle = stream.next_cycle();
        out.update(engine, mirror, &cycle.updates);
        for q in &cycle.queries {
            let answer = engine.query(q);
            out.refills += 1;
            out.verified += 1;
            out.failed += (answer.failed || !mirror.answers(q, &answer.ids)) as u64;
        }
    }
    out
}

/// Sleeps until shortly before `due`, then spins. For the writer, whose
/// lateness is not measured.
fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Spins until `due`. The reader never sleeps: a thread that slept wakes
/// late by an amount that depends on what else the host is doing, and
/// that lateness is charged to the query (with a sleeping reader the p99
/// of `shard_fanout` read 0.36 ms in one set of ten runs and 0.53 ms in
/// the next).
fn spin_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

pub struct OpenResult {
    /// Completion minus due time, per query, in schedule order.
    pub latency_ns: Vec<u64>,
    /// The latest any query was started after it was due.
    pub max_start_lag_ns: u64,
    pub update_ops: u64,
    pub failed: u64,
}

/// Queries in a slice of an open pass: the fewest that leave ten
/// beyond a slice's p99.
const OPEN_SLICE: usize = 1000;

impl OpenResult {
    /// The median over consecutive slices of the slice's p99 of
    /// completion minus due time. A host hiccup of tens of milliseconds
    /// delays every query that falls due meanwhile and owns the p99
    /// pooled over a pass it lands in (seen: 13.3 ms and 17.0 ms against
    /// 0.45 ms and 1.5 ms in the other runs); the stalls the program
    /// causes — ten batches a second — recur in every slice.
    pub fn p99_us(&self) -> f64 {
        let mut per_slice: Vec<f64> = self
            .latency_ns
            .chunks(OPEN_SLICE)
            .map(|slice| percentile_us(slice, 0.99))
            .collect();
        // A short last slice has too few samples to count.
        if per_slice.len() > 1 && !self.latency_ns.len().is_multiple_of(OPEN_SLICE) {
            per_slice.pop();
        }
        median_f64(&mut per_slice)
    }
}

/// The open pass: this thread serves a fixed schedule of queries, a
/// second thread applies update batches on its own schedule. A query is
/// timed from the instant it was due, so a reader stalled behind the
/// exclusive update lock charges the wait to every query it delays.
pub fn open_pass(
    engine: &Engine,
    mirror: &mut Mirror,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> OpenResult {
    let open = &w.open;
    let queries_total = (open.queries_per_s * seconds).round().max(1.0) as usize;
    let batches = (open.batches_per_s * seconds).round() as usize;
    // The writer's updates are uniform on every workload. Hot churn
    // makes the stalls heavy-tailed (a GIR* repair is LP-bound and takes
    // milliseconds), and the p99 of `churn_write` then moved between 2.3
    // and 4.7 ms with the seed.
    let spec = StreamSpec {
        queries_per_cycle: queries_total.div_ceil(batches.max(1)),
        updates_per_cycle: open.batch_ops,
        hot_insert_share: 0.0,
        hot_delete_share: 0.0,
        ..w.stream.clone()
    };
    let live = engine.records_snapshot();
    let mut stream = stream_of(w, &spec, &live, 200, seed);
    let cycles: Vec<Cycle> = (0..batches.max(1)).map(|_| stream.next_cycle()).collect();
    let queries: Vec<&TopKRequest> = cycles.iter().flat_map(|c| &c.queries).collect();

    let query_gap = Duration::from_secs_f64(1.0 / open.queries_per_s);
    let batch_gap = Duration::from_secs_f64(1.0 / open.batches_per_s.max(1e-9));
    let mut out = OpenResult {
        latency_ns: Vec::with_capacity(queries.len()),
        max_start_lag_ns: 0,
        update_ops: 0,
        failed: 0,
    };
    let start = Instant::now() + Duration::from_millis(5);
    let writer_failed = std::thread::scope(|scope| {
        let cycles = &cycles;
        let writer = scope.spawn(move || {
            let mut failed = 0u64;
            if batches == 0 {
                return failed;
            }
            for (j, cycle) in cycles.iter().enumerate() {
                // Half a period off the reader's grid.
                sleep_until(start + batch_gap.mul_f64(j as f64 + 0.5));
                if engine.apply(&cycle.updates).is_err() {
                    failed += cycle.updates.len() as u64;
                }
            }
            failed
        });
        for (i, req) in queries.iter().enumerate() {
            let due = start + query_gap.mul_f64(i as f64);
            spin_until(due);
            let begun = Instant::now();
            let resp = engine.serve(req);
            let done = Instant::now();
            out.max_start_lag_ns = out.max_start_lag_ns.max((begun - due).as_nanos() as u64);
            out.latency_ns.push((done - due).as_nanos() as u64);
            out.failed += resp.failed as u64;
        }
        writer.join().expect("open-pass writer thread")
    });
    out.failed += writer_failed;
    for cycle in &cycles {
        out.update_ops += cycle.updates.len() as u64;
        mirror.apply(&cycle.updates);
    }
    out
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Restarts per run; `recover_s` is their median.
const RESTARTS: usize = 5;
/// Queries answered after each restart, off the clock, all verified.
const RESTART_QUERIES: usize = 256;

/// The whole untraced run of one workload: every end-to-end metric.
pub fn run(w: &Workload, seed: u64, scale: f64, artifacts: &Path) -> Report {
    let scratch = Scratch::new(artifacts);
    let mut report = Report::default();
    let d = w.stream.d;
    let mut metric = |name: &str, unit: &'static str, value: f64, samples: u64| {
        report.metrics.push(Metric::new(name, unit, value, samples));
    };

    // Set-up several times; the last engine is the one measured.
    let mut setups = Vec::new();
    let mut ready = None;
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..scaled(SETUPS, scale) {
        drop(ready.take());
        let r = set_up_engine(w, seed, scale, &scratch);
        setups.push(r.setup_s);
        attempted += r.attempted;
        failed += r.failed;
        ready = Some(r);
    }
    let mut ready = ready.expect("at least one set-up");
    let n_setups = setups.len() as u64;
    metric("setup_s", "s", median_f64(&mut setups), n_setups);

    // Every metric of the closed pass is taken over the whole pass.
    let closed = closed_pass(&mut ready, scaled(w.timed_cycles, scale), wall_limit(scale));
    attempted += closed.ops();
    failed += closed.failed;
    let mut verified = closed.verified;
    let nq = closed.query_ns.len() as u64;
    metric("ops_per_s", "ops/s", closed.ops_per_s(), closed.ops());
    metric(
        "query_p50_us",
        "us",
        percentile_us(&closed.query_ns, 0.50),
        nq,
    );
    metric(
        "query_p99_us",
        "us",
        percentile_us(&closed.query_ns, 0.99),
        nq,
    );
    // Peak memory of set-up and closed-loop serving. What follows would
    // decide the high-water mark instead: a volatile restart holds a
    // second copy of the records, the open pass materialises its
    // schedule (`churn_write` then read 16.4 or 19.8 MiB from run to
    // run), and the write tail rewrites every shared Phase-2 system of a
    // cache full of d=4 regions (23 or 41 MiB).
    metric("peak_rss_mb", "MiB", peak_rss_mib(), 1);

    // Restarts come straight after the closed pass, so that what
    // `DurableServer::recover` finds on disk is what the closed pass
    // left there. Only the restart is timed. The same first queries are
    // then answered off the clock, all verified, and the engine's
    // records must be the mirror's before the first restart (a volatile
    // restart reloads them) and after each one.
    let Ready {
        target: mut engine,
        mut mirror,
        ..
    } = ready;
    failed += !mirror.same_records(&engine.records_snapshot()) as u64;
    let probes = {
        let spec = StreamSpec {
            updates_per_cycle: 0,
            queries_per_cycle: scaled(RESTART_QUERIES, scale),
            ..w.stream.clone()
        };
        stream_of(w, &spec, &[], 300, seed).next_cycle().queries
    };
    let mut restarts = Vec::new();
    for _ in 0..scaled(RESTARTS, scale) {
        let dir = scratch.fresh_dir();
        let t = Instant::now();
        engine = engine.restart(d, &dir);
        restarts.push(t.elapsed().as_secs_f64());
        attempted += probes.len() as u64;
        for q in &probes {
            let answer = engine.query(q);
            verified += 1;
            failed += (answer.failed || !mirror.answers(q, &answer.ids)) as u64;
        }
        failed += !mirror.same_records(&engine.records_snapshot()) as u64;
    }
    let n_restarts = restarts.len() as u64;
    metric("recover_s", "s", median_f64(&mut restarts), n_restarts);

    let open = open_pass(&engine, &mut mirror, w, seed, w.open.seconds * scale);
    attempted += open.latency_ns.len() as u64 + open.update_ops;
    failed += open.failed;
    failed += !mirror.same_records(&engine.records_snapshot()) as u64;
    let n_open = open.latency_ns.len() as u64;
    metric("open_query_p99_us", "us", open.p99_us(), n_open);

    // A workload whose cycles carry no updates takes its write-path
    // metrics from a tail of batches after everything else.
    let tail = (w.tail_batches > 0).then(|| {
        let batches = scaled(w.tail_batches, scale);
        write_tail(&mut engine, &mut mirror, w, seed, batches)
    });
    if let Some(tail) = &tail {
        attempted += tail.ops() + tail.refills;
        failed += tail.failed;
        verified += tail.verified;
    }
    let update_ns = &tail.as_ref().unwrap_or(&closed).update_ns;
    let nu = update_ns.len() as u64;
    metric("update_p50_us", "us", percentile_us(update_ns, 0.50), nu);
    metric("update_p95_us", "us", percentile_us(update_ns, 0.95), nu);
    drop(engine);

    report.attempted = attempted;
    report.failed = failed;
    report.verified = verified;
    if closed.truncated {
        report
            .notes
            .push("closed pass stopped early at its wall-clock limit".to_string());
    }
    report.notes.push(format!(
        "closed pass: hit rate {:.3}; open pass: worst start lag {:.1} us",
        closed.hits as f64 / closed.query_ns.len().max(1) as f64,
        open.max_start_lag_ns as f64 / 1e3
    ));
    // Printed in catalogue order, whatever order the passes ran in.
    report
        .metrics
        .sort_by_key(|m| END_TO_END.iter().position(|e| e.name == m.name));
    report
}
