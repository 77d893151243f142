//! CI perf-regression gate over `BENCH_serve.json`.
//!
//! ```text
//! perf_gate <baseline.json> <fresh.json> [--max-drop 0.25]
//!           [--hit-rate-only] [--max-obs-overhead 0.05]
//!           [--require-parallel-win] [--require-planner-win]
//!           [--require-flat-recovery] [--require-cheap-mirror]
//!           [--require-index-not-slower]
//! ```
//!
//! Rows are matched on `(threads, n, mode, workload)`; for every match
//! the gate fails when the fresh run's throughput (`qps`) or hit rate
//! dropped — or, on single-thread rows, its tail latency (`p99_us`)
//! rose — by more than `--max-drop` (relative). Multi-thread tails are
//! reported but not gated: with more workers than cores they swing on
//! scheduler noise alone. Baseline rows with no fresh counterpart (or
//! vice versa) are reported but tolerated — the bench matrix is
//! allowed to evolve.
//!
//! `--hit-rate-only` skips the throughput and tail-latency
//! comparisons: wall-clock is not comparable across machines, so CI
//! passes this flag when it falls back to the *committed* baseline
//! instead of the previous run's artifact. Hit rates are
//! machine-independent (same seed ⇒ same traffic ⇒ same cache
//! behaviour).
//!
//! `--max-obs-overhead <frac>` gates the observability cost on the
//! fresh file alone: the mixed-workload `delta_obs` row (collector
//! installed, every span/event/metric live) must keep at least
//! `1 - frac` of the plain `delta` row's throughput, with identical
//! hit rates (same seed, single-threaded ⇒ identical traffic and
//! cache decisions). Both rows come from the same run on the same
//! machine, so the comparison is immune to cross-machine wall-clock
//! skew — unlike the baseline comparison above.
//!
//! `--require-parallel-win` asserts the work-stealing fan-out pays for
//! itself, on the fresh `BENCH_shard.json` alone (same machine, same
//! run): the mixed `sharded_par_s1` row must hold ≥90% of the
//! sequential `sharded_s1` qps (the pool must be free when there is
//! only one shard to sweep), and `sharded_par_s4` must beat
//! `sharded_s4` — by ≥2× when the gate runs on ≥4 cores, strictly at
//! all on 2–3 cores. On a machine with fewer than 2 cores the check is
//! skipped entirely: `stealpool` degrades to inline sequential
//! execution there by design, so the rows are tautologically equal.
//!
//! `--require-planner-win` gates the adaptive miss-path planner on a
//! fresh `BENCH_cold_gir.json` (pass it as *both* positional paths —
//! its rows carry no serve columns, so the baseline comparison is
//! vacuous). Per `(method, n, d)` cell the `planner/…` row must land
//! within 1.10× of the best static path plus a 1.5 µs absolute noise
//! floor (`cold` / `indexed_recompute` / `indexed_reuse` — the planner
//! may pay bounded exploration and timing jitter, never a wrong steady
//! state, which misses by multiples), and at **every d = 4 cell it must strictly
//! beat `indexed_recompute`** — the always-index policy this PR
//! removed, which inverts exactly there. A file with no planner rows,
//! or no d = 4 cells, fails: the gate must not pass by omission.
//!
//! `--require-flat-recovery` gates recovery time on a fresh
//! `BENCH_recovery.json` (again passed as both positionals): the
//! `recover_ms` of its longest WAL must be at most 2× that of its
//! shortest. Recovery folds the WAL into the snapshot's records and
//! bulk-loads once, so a longer log costs frame decoding and a larger
//! build, not an R\*-tree insert or delete per op; replaying op by op
//! measured 2.5× from 100 to 400 batches. Both rows come from the same
//! run on the same machine. A file with fewer than two WAL lengths
//! fails.
//!
//! `--require-cheap-mirror` gates the decoded-tree mirror on a fresh
//! `BENCH_cold_gir.json` (again passed as both positionals): every
//! `mirror/nN/dD` row — one `TreeMirror::build` over the loaded tree —
//! must cost at most 2× the same cell's `indexed_reuse/FP` row, a
//! same-run ratio. The tree keeps its nodes decoded, so a mirror is one
//! pointer copy per page; decoding every page again measured 15–84×.
//! A file with no mirror rows, or a mirror row without its FP
//! counterpart, fails.
//!
//! `--require-index-not-slower` gates the prune-index miss path on a
//! fresh `BENCH_cold_gir.json` (again passed as both positionals): every
//! `indexed_recompute/{SP,CP}/nN/dD` row must cost at most 1.05× the
//! same cell's `cold` row plus the planner gate's 1.5 µs noise floor.
//! Both paths run the same BBS resume; the indexed one reads its nodes
//! from the decoded mirror, so it has no reason to lose. FP is not
//! gated: its indexed Phase 2 is a different algorithm (a star sweep
//! seeded from the cached skyline, without the footnote-7 LPs) from the
//! cold one. A file with no SP/CP `indexed_recompute` rows, or such a
//! row without its `cold` counterpart, fails.

use std::process::ExitCode;

/// Absolute timing-noise allowance on top of a same-run relative
/// slack. The fast cells sit at 4–20 µs, where 10% is under a
/// microsecond — below run-to-run scheduler jitter on shared CI
/// hardware, so a purely relative limit flakes. The regressions these
/// gates exist for miss by multiples, so a 1.5 µs floor keeps them
/// honest while absorbing jitter.
const NOISE_FLOOR_NS: f64 = 1_500.0;

/// One parsed bench row.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    threads: u64,
    n: u64,
    mode: String,
    workload: String,
    qps: f64,
    hit_rate: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Extracts the raw text after `"key":` up to the next `,` or `}`.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .find(|(_, c)| *c == ',' || *c == '}')
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    raw_field(line, key)?.parse().ok()
}

fn str_field(line: &str, key: &str) -> Option<String> {
    Some(raw_field(line, key)?.trim_matches('"').to_string())
}

/// Parses every row object out of a `BENCH_serve.json` body. The file
/// is an array with one row per line (our own writer), but the parser
/// only assumes each object sits on a single line.
fn parse_rows(body: &str) -> Vec<Row> {
    body.lines()
        .filter(|l| l.contains("\"threads\""))
        .filter_map(|l| {
            Some(Row {
                threads: num_field(l, "threads")? as u64,
                n: num_field(l, "n")? as u64,
                // Rows from before the mode/workload tags existed parse
                // as the defaults they measured.
                mode: str_field(l, "mode").unwrap_or_else(|| "delta".into()),
                workload: str_field(l, "workload").unwrap_or_else(|| "read_heavy".into()),
                qps: num_field(l, "qps")?,
                hit_rate: num_field(l, "hit_rate")?,
                p50_us: num_field(l, "p50_us").unwrap_or(0.0),
                p99_us: num_field(l, "p99_us").unwrap_or(0.0),
            })
        })
        .collect()
}

fn key(r: &Row) -> (u64, u64, &str, &str) {
    (r.threads, r.n, r.mode.as_str(), r.workload.as_str())
}

/// One parsed `BENCH_cold_gir.json` row: bench id `path/METHOD/nN/dD`
/// (or `path/nN/dD` for a per-tree row no method runs, with an empty
/// method) plus its mean latency.
#[derive(Debug, Clone)]
struct ColdRow {
    path: String,
    method: String,
    n: u64,
    d: u64,
    mean_ns: f64,
}

/// Parses the cold-gir artifact (`{"bench":"cold/SP/n2000/d2",...}`
/// rows, one object per line).
fn parse_cold_rows(body: &str) -> Vec<ColdRow> {
    body.lines()
        .filter(|l| l.contains("\"bench\""))
        .filter_map(|l| {
            let id = str_field(l, "bench")?;
            let parts: Vec<&str> = id.split('/').collect();
            let (path, method, n, d) = match parts.as_slice() {
                [path, method, n, d] => (path, *method, n, d),
                [path, n, d] => (path, "", n, d),
                _ => return None,
            };
            Some(ColdRow {
                path: path.to_string(),
                method: method.to_string(),
                n: n.strip_prefix('n')?.parse().ok()?,
                d: d.strip_prefix('d')?.parse().ok()?,
                mean_ns: num_field(l, "mean_ns")?,
            })
        })
        .collect()
}

/// The `--require-planner-win` check (see module docs): planner ≤
/// 1.10× best static path per cell, strictly below the always-index
/// recompute at every d = 4 cell, and neither planner rows nor d = 4
/// cells may be missing.
fn planner_gate(rows: &[ColdRow]) -> Vec<String> {
    const STATIC_PATHS: [&str; 3] = ["cold", "indexed_recompute", "indexed_reuse"];
    const SLACK: f64 = 1.10;
    let mut failures = Vec::new();
    let planners: Vec<&ColdRow> = rows.iter().filter(|r| r.path == "planner").collect();
    if planners.is_empty() {
        failures.push("--require-planner-win: no planner/* rows in the fresh file".into());
        return failures;
    }
    let mut d4_cells = 0usize;
    for p in &planners {
        let cell = format!("{}/n{}/d{}", p.method, p.n, p.d);
        let statics: Vec<&ColdRow> = rows
            .iter()
            .filter(|r| {
                r.method == p.method
                    && r.n == p.n
                    && r.d == p.d
                    && STATIC_PATHS.contains(&r.path.as_str())
            })
            .collect();
        let Some(best) = statics
            .iter()
            .map(|r| r.mean_ns)
            .min_by(|a, b| a.total_cmp(b))
        else {
            failures.push(format!("{cell}: planner row has no static counterparts"));
            continue;
        };
        let limit = SLACK * best + NOISE_FLOOR_NS;
        println!(
            "  planner {cell}: {:.0} ns vs best static {:.0} ns ({:.2}x, limit {:.0} ns)",
            p.mean_ns,
            best,
            p.mean_ns / best.max(1e-9),
            limit
        );
        if p.mean_ns > limit {
            failures.push(format!(
                "{cell}: planner {:.0} ns above {SLACK:.2}x best static path {best:.0} ns \
                 (+{NOISE_FLOOR_NS:.0} ns noise floor)",
                p.mean_ns
            ));
        }
        if p.d == 4 {
            d4_cells += 1;
            match statics.iter().find(|r| r.path == "indexed_recompute") {
                Some(rec) => {
                    if p.mean_ns >= rec.mean_ns {
                        failures.push(format!(
                            "{cell}: planner {:.0} ns does not strictly beat the \
                             always-index recompute {:.0} ns",
                            p.mean_ns, rec.mean_ns
                        ));
                    }
                }
                None => failures.push(format!("{cell}: no indexed_recompute row to beat")),
            }
        }
    }
    if d4_cells == 0 {
        failures.push(
            "--require-planner-win: no d=4 cells — the dimensionality where the old \
             policy inverts must be measured (set GIR_COLD_DS=2,3,4)"
                .into(),
        );
    }
    failures
}

/// The `--require-cheap-mirror` check (see module docs): every mirror
/// row at most 2× its cell's `indexed_reuse/FP` row.
fn cheap_mirror_gate(rows: &[ColdRow]) -> Vec<String> {
    const MAX_RATIO: f64 = 2.0;
    let mirrors: Vec<&ColdRow> = rows.iter().filter(|r| r.path == "mirror").collect();
    if mirrors.is_empty() {
        return vec!["--require-cheap-mirror: no mirror/* rows in the fresh file".into()];
    }
    let mut failures = Vec::new();
    for m in mirrors {
        let cell = format!("n{}/d{}", m.n, m.d);
        let Some(fp) = rows
            .iter()
            .find(|r| r.path == "indexed_reuse" && r.method == "FP" && r.n == m.n && r.d == m.d)
        else {
            failures.push(format!("{cell}: mirror row has no indexed_reuse/FP row"));
            continue;
        };
        let ratio = m.mean_ns / fp.mean_ns.max(1e-9);
        println!(
            "  mirror {cell}: {:.0} ns vs indexed_reuse/FP {:.0} ns ({ratio:.2}x, limit \
             {MAX_RATIO:.1}x)",
            m.mean_ns, fp.mean_ns
        );
        if ratio > MAX_RATIO {
            failures.push(format!(
                "{cell}: mirror build {:.0} ns is {ratio:.2}x indexed_reuse/FP {:.0} ns, above \
                 {MAX_RATIO:.1}x: the mirror is decoding pages again",
                m.mean_ns, fp.mean_ns
            ));
        }
    }
    failures
}

/// The `--require-index-not-slower` check (see module docs): every
/// `indexed_recompute` SP/CP row at most 1.05× its cell's `cold` row
/// plus the noise floor.
fn index_not_slower_gate(rows: &[ColdRow]) -> Vec<String> {
    const SLACK: f64 = 1.05;
    let indexed: Vec<&ColdRow> = rows
        .iter()
        .filter(|r| r.path == "indexed_recompute" && (r.method == "SP" || r.method == "CP"))
        .collect();
    if indexed.is_empty() {
        return vec![
            "--require-index-not-slower: no indexed_recompute SP/CP rows in the fresh file".into(),
        ];
    }
    let mut failures = Vec::new();
    for ix in indexed {
        let cell = format!("{}/n{}/d{}", ix.method, ix.n, ix.d);
        let Some(cold) = rows
            .iter()
            .find(|r| r.path == "cold" && r.method == ix.method && r.n == ix.n && r.d == ix.d)
        else {
            failures.push(format!("{cell}: indexed_recompute row has no cold row"));
            continue;
        };
        let limit = SLACK * cold.mean_ns + NOISE_FLOOR_NS;
        println!(
            "  index {cell}: {:.0} ns vs cold {:.0} ns ({:.2}x, limit {limit:.0} ns)",
            ix.mean_ns,
            cold.mean_ns,
            ix.mean_ns / cold.mean_ns.max(1e-9)
        );
        if ix.mean_ns > limit {
            failures.push(format!(
                "{cell}: indexed_recompute {:.0} ns above {SLACK:.2}x cold {:.0} ns \
                 (+{NOISE_FLOOR_NS:.0} ns noise floor)",
                ix.mean_ns, cold.mean_ns
            ));
        }
    }
    failures
}

/// One `"section":"recovery"` row of `BENCH_recovery.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RecoveryRow {
    wal_batches: u64,
    recover_ms: f64,
}

fn parse_recovery_rows(body: &str) -> Vec<RecoveryRow> {
    body.lines()
        .filter(|l| str_field(l, "section").as_deref() == Some("recovery"))
        .filter_map(|l| {
            Some(RecoveryRow {
                wal_batches: num_field(l, "wal_batches")? as u64,
                recover_ms: num_field(l, "recover_ms")?,
            })
        })
        .collect()
}

/// The `--require-flat-recovery` check (see module docs): recovery at
/// the longest WAL within 2× of recovery at the shortest.
fn flat_recovery_gate(rows: &[RecoveryRow]) -> Vec<String> {
    const MAX_RATIO: f64 = 2.0;
    let shortest = rows.iter().min_by_key(|r| r.wal_batches);
    let longest = rows.iter().max_by_key(|r| r.wal_batches);
    let (Some(short), Some(long)) = (shortest, longest) else {
        return vec!["--require-flat-recovery: no recovery rows in the fresh file".into()];
    };
    if long.wal_batches == short.wal_batches {
        return vec![format!(
            "--require-flat-recovery: one WAL length ({}) in the fresh file; need two",
            short.wal_batches
        )];
    }
    let ratio = long.recover_ms / short.recover_ms.max(1e-9);
    println!(
        "  recovery: {:.2} ms at {} WAL batches vs {:.2} ms at {} ({ratio:.2}x, limit \
         {MAX_RATIO:.1}x)",
        long.recover_ms, long.wal_batches, short.recover_ms, short.wal_batches
    );
    if ratio > MAX_RATIO {
        vec![format!(
            "recovery at {} WAL batches ({:.2} ms) is {ratio:.2}x recovery at {} ({:.2} ms), \
             above {MAX_RATIO:.1}x: recovery is paying per logged op again",
            long.wal_batches, long.recover_ms, short.wal_batches, short.recover_ms
        )]
    } else {
        Vec::new()
    }
}

/// Relative drop from `base` to `fresh` (positive = regression).
fn rel_drop(base: f64, fresh: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (base - fresh) / base
    }
}

/// Relative rise from `base` to `fresh` (positive = regression, for
/// metrics where bigger is worse — tail latency).
fn rel_rise(base: f64, fresh: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (fresh - base) / base
    }
}

struct GateConfig {
    max_drop: f64,
    hit_rate_only: bool,
    /// Maximum relative qps cost of enabling observability
    /// (`delta_obs` vs `delta` on the fresh mixed rows); `None` skips
    /// the check.
    max_obs_overhead: Option<f64>,
    /// Require the parallel shard fan-out to beat the sequential sweep
    /// on the fresh file's `sharded_par_*` vs `sharded_*` rows.
    require_parallel_win: bool,
    /// Require the adaptive miss-path planner to match the best static
    /// path per cell (fresh file is a `BENCH_cold_gir.json`).
    require_planner_win: bool,
    /// Require recovery time to stay flat in the WAL length (fresh
    /// file is a `BENCH_recovery.json`).
    require_flat_recovery: bool,
    /// Require the tree mirror to cost no more than 2× a reused FP
    /// miss (fresh file is a `BENCH_cold_gir.json`).
    require_cheap_mirror: bool,
    /// Require indexed SP/CP recompute to cost no more than the cold
    /// path (fresh file is a `BENCH_cold_gir.json`).
    require_index_not_slower: bool,
    /// Cores visible to the gate process (injected so tests can pin
    /// it); the parallel-win check is skipped below 2 and demands the
    /// full 2× only at 4+.
    parallel_cores: usize,
}

/// Runs the gate; returns human-readable failures (empty = pass).
fn gate(baseline: &[Row], fresh: &[Row], cfg: &GateConfig) -> Vec<String> {
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for f in fresh {
        let Some(b) = baseline.iter().find(|b| key(b) == key(f)) else {
            println!("  new row {:?} (no baseline counterpart)", key(f));
            continue;
        };
        compared += 1;
        let hit_drop = rel_drop(b.hit_rate, f.hit_rate);
        println!(
            "  {:?}: qps {:.0} -> {:.0} ({:+.1}%), hit rate {:.3} -> {:.3} ({:+.1}%), \
             p50 {:.0} -> {:.0} µs, p99 {:.0} -> {:.0} µs",
            key(f),
            b.qps,
            f.qps,
            -100.0 * rel_drop(b.qps, f.qps),
            b.hit_rate,
            f.hit_rate,
            -100.0 * hit_drop,
            b.p50_us,
            f.p50_us,
            b.p99_us,
            f.p99_us,
        );
        if hit_drop > cfg.max_drop {
            failures.push(format!(
                "{:?}: hit rate dropped {:.1}% (limit {:.0}%)",
                key(f),
                100.0 * hit_drop,
                100.0 * cfg.max_drop
            ));
        }
        if !cfg.hit_rate_only {
            let qps_drop = rel_drop(b.qps, f.qps);
            if qps_drop > cfg.max_drop {
                failures.push(format!(
                    "{:?}: throughput dropped {:.1}% (limit {:.0}%)",
                    key(f),
                    100.0 * qps_drop,
                    100.0 * cfg.max_drop
                ));
            }
            // Tail latency is gated on single-thread rows only: with
            // more workers than cores (shared CI runners), multi-thread
            // p99 swings well past any useful threshold on scheduler
            // noise alone.
            let p99_rise = rel_rise(b.p99_us, f.p99_us);
            if f.threads == 1 && p99_rise > cfg.max_drop {
                failures.push(format!(
                    "{:?}: p99 latency rose {:.1}% (limit {:.0}%)",
                    key(f),
                    100.0 * p99_rise,
                    100.0 * cfg.max_drop
                ));
            }
        }
    }
    if compared == 0 {
        println!("  (no comparable rows — bench matrix changed; gate is vacuous)");
    }

    if let Some(max_overhead) = cfg.max_obs_overhead {
        let find = |mode: &str| {
            fresh
                .iter()
                .find(|r| r.workload == "mixed" && r.mode == mode)
        };
        match (find("delta"), find("delta_obs")) {
            (Some(plain), Some(obs)) => {
                let overhead = rel_drop(plain.qps, obs.qps);
                println!(
                    "  obs overhead: qps {:.0} -> {:.0} ({:+.1}%, limit {:.0}%)",
                    plain.qps,
                    obs.qps,
                    -100.0 * overhead,
                    100.0 * max_overhead,
                );
                if overhead > max_overhead {
                    failures.push(format!(
                        "observability overhead: delta_obs qps {:.0} is {:.1}% below delta \
                         qps {:.0} (limit {:.0}%)",
                        obs.qps,
                        100.0 * overhead,
                        plain.qps,
                        100.0 * max_overhead
                    ));
                }
                // Same seed, single thread: the collector must not
                // change a single cache decision.
                if (obs.hit_rate - plain.hit_rate).abs() > 1e-9 {
                    failures.push(format!(
                        "observability changed cache behaviour: hit rate {:.4} (obs) vs \
                         {:.4} (plain)",
                        obs.hit_rate, plain.hit_rate
                    ));
                }
            }
            _ => failures.push(
                "--max-obs-overhead: fresh file lacks mixed-workload delta/delta_obs rows".into(),
            ),
        }
    }

    if cfg.require_parallel_win {
        if cfg.parallel_cores < 2 {
            println!(
                "  --require-parallel-win skipped: {} core(s) visible — the pool degrades \
                 to inline sequential execution here by design",
                cfg.parallel_cores
            );
        } else {
            let find = |mode: &str| {
                fresh
                    .iter()
                    .find(|r| r.workload == "mixed" && r.mode == mode)
            };
            // S=1 parity: fanning out a single shard must be free.
            match (find("sharded_s1"), find("sharded_par_s1")) {
                (Some(seq), Some(par)) => {
                    let drop = rel_drop(seq.qps, par.qps);
                    println!(
                        "  parallel S=1 parity: qps {:.0} -> {:.0} ({:+.1}%, limit -10%)",
                        seq.qps,
                        par.qps,
                        -100.0 * drop
                    );
                    if drop > 0.10 {
                        failures.push(format!(
                            "parallel S=1 qps {:.0} more than 10% below sequential {:.0} — \
                             the fan-out layer is not free",
                            par.qps, seq.qps
                        ));
                    }
                }
                _ => failures.push(
                    "--require-parallel-win: fresh file lacks mixed sharded_s1 / \
                     sharded_par_s1 rows"
                        .into(),
                ),
            }
            // S=4 win: the whole point of the pool. The 2× bar assumes
            // the cores to back it; on 2–3 cores any strict win keeps
            // the gate honest without over-promising.
            match (find("sharded_s4"), find("sharded_par_s4")) {
                (Some(seq), Some(par)) => {
                    let need = if cfg.parallel_cores >= 4 { 2.0 } else { 1.0 };
                    println!(
                        "  parallel S=4 win: qps {:.0} -> {:.0} ({:.2}x, need >{need:.1}x \
                         on {} cores)",
                        seq.qps,
                        par.qps,
                        par.qps / seq.qps.max(1e-9),
                        cfg.parallel_cores
                    );
                    if par.qps <= need * seq.qps {
                        failures.push(format!(
                            "parallel S=4 qps {:.0} not above {need:.1}x sequential {:.0}",
                            par.qps, seq.qps
                        ));
                    }
                }
                _ => failures.push(
                    "--require-parallel-win: fresh file lacks mixed sharded_s4 / \
                     sharded_par_s4 rows"
                        .into(),
                ),
            }
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&String> = Vec::new();
    let mut cfg = GateConfig {
        max_drop: 0.25,
        hit_rate_only: false,
        max_obs_overhead: None,
        require_parallel_win: false,
        require_planner_win: false,
        require_flat_recovery: false,
        require_cheap_mirror: false,
        require_index_not_slower: false,
        parallel_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-drop" => {
                cfg.max_drop = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-drop needs a number");
            }
            "--hit-rate-only" => cfg.hit_rate_only = true,
            "--require-parallel-win" => cfg.require_parallel_win = true,
            "--require-planner-win" => cfg.require_planner_win = true,
            "--require-flat-recovery" => cfg.require_flat_recovery = true,
            "--require-cheap-mirror" => cfg.require_cheap_mirror = true,
            "--require-index-not-slower" => cfg.require_index_not_slower = true,
            "--max-obs-overhead" => {
                cfg.max_obs_overhead = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--max-obs-overhead needs a number"),
                );
            }
            _ => paths.push(a),
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        eprintln!(
            "usage: perf_gate <baseline.json> <fresh.json> [--max-drop 0.25] \
             [--hit-rate-only] [--max-obs-overhead 0.05] \
             [--require-parallel-win] [--require-planner-win] \
             [--require-flat-recovery] [--require-cheap-mirror] \
             [--require-index-not-slower]"
        );
        return ExitCode::from(2);
    };

    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
    let baseline = parse_rows(&read(baseline_path));
    let fresh = parse_rows(&read(fresh_path));
    println!(
        "perf gate: {} baseline row(s) vs {} fresh row(s), max drop {:.0}%{}{}",
        baseline.len(),
        fresh.len(),
        100.0 * cfg.max_drop,
        if cfg.hit_rate_only {
            " (hit-rate only)"
        } else {
            ""
        },
        if cfg.require_parallel_win {
            " + parallel-win"
        } else {
            ""
        },
    );
    if cfg.require_planner_win {
        println!("  (+ planner-win over the fresh cold-gir rows)");
    }
    if cfg.require_flat_recovery {
        println!("  (+ flat recovery over the fresh recovery rows)");
    }
    if cfg.require_cheap_mirror {
        println!("  (+ cheap mirror over the fresh cold-gir rows)");
    }
    if cfg.require_index_not_slower {
        println!("  (+ index not slower than cold over the fresh cold-gir rows)");
    }

    let mut failures = gate(&baseline, &fresh, &cfg);
    if cfg.require_planner_win {
        failures.extend(planner_gate(&parse_cold_rows(&read(fresh_path))));
    }
    if cfg.require_flat_recovery {
        failures.extend(flat_recovery_gate(&parse_recovery_rows(&read(fresh_path))));
    }
    if cfg.require_cheap_mirror {
        failures.extend(cheap_mirror_gate(&parse_cold_rows(&read(fresh_path))));
    }
    if cfg.require_index_not_slower {
        failures.extend(index_not_slower_gate(&parse_cold_rows(&read(fresh_path))));
    }
    if failures.is_empty() {
        println!("perf gate: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("perf gate FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(line: &str) -> Row {
        parse_rows(line).pop().expect("row parses")
    }

    fn base_cfg() -> GateConfig {
        GateConfig {
            max_drop: 0.25,
            hit_rate_only: false,
            max_obs_overhead: None,
            require_parallel_win: false,
            require_planner_win: false,
            require_flat_recovery: false,
            require_cheap_mirror: false,
            require_index_not_slower: false,
            parallel_cores: 1,
        }
    }

    const DELTA: &str = r#"{"threads":4,"n":8000,"mode":"delta","workload":"mixed","stats":{"queries":4000,"hits":3000,"misses":1000,"hit_rate":0.7500,"threads":4,"method":"FP","wall_ms":100.0,"qps":4000.0,"p50_us":12,"p95_us":80,"p99_us":300,"max_us":900}}"#;

    #[test]
    fn parses_tagged_and_legacy_rows() {
        let r = row(DELTA);
        assert_eq!(
            (r.threads, r.n, r.mode.as_str(), r.workload.as_str()),
            (4, 8000, "delta", "mixed")
        );
        assert!((r.qps - 4000.0).abs() < 1e-9);
        assert!((r.hit_rate - 0.75).abs() < 1e-9);

        // PR 1 rows had no mode/workload tags: defaults apply.
        let legacy = r#"{"threads":2,"n":8000,"stats":{"hit_rate":0.9,"qps":1234.5,"p50_us":7}}"#;
        let r = row(legacy);
        assert_eq!(
            (r.mode.as_str(), r.workload.as_str()),
            ("delta", "read_heavy")
        );
        assert!((r.qps - 1234.5).abs() < 1e-9);
    }

    #[test]
    fn gate_passes_within_budget_and_fails_beyond_it() {
        let cfg = base_cfg();
        let base = vec![row(DELTA)];
        // 20% qps drop: within budget.
        let mut ok = row(DELTA);
        ok.qps *= 0.8;
        assert!(gate(&base, &[ok], &cfg).is_empty());
        // 30% qps drop: regression.
        let mut bad = row(DELTA);
        bad.qps *= 0.7;
        assert_eq!(gate(&base, &[bad.clone()], &cfg).len(), 1);
        // ... tolerated under --hit-rate-only (cross-machine fallback).
        let cfg_hr = GateConfig {
            hit_rate_only: true,
            ..cfg
        };
        assert!(gate(&base, &[bad], &cfg_hr).is_empty());
        // Hit-rate collapse fails either way.
        let mut stale = row(DELTA);
        stale.hit_rate = 0.3;
        assert_eq!(gate(&base, &[stale], &cfg_hr).len(), 1);
    }

    #[test]
    fn p99_rise_fails_unless_hit_rate_only() {
        let cfg = base_cfg();
        let mut single = row(DELTA);
        single.threads = 1;
        let base = vec![single.clone()];
        // 20% p99 rise: within budget.
        let mut ok = single.clone();
        ok.p99_us *= 1.2;
        assert!(gate(&base, &[ok], &cfg).is_empty());
        // 40% p99 rise on a single-thread row: tail-latency regression.
        let mut bad = single.clone();
        bad.p99_us *= 1.4;
        assert_eq!(gate(&base, &[bad.clone()], &cfg).len(), 1);
        // The same rise on a multi-thread row is scheduler noise on
        // shared runners: reported, not gated.
        let mut noisy = row(DELTA);
        noisy.p99_us *= 1.4;
        assert!(gate(&[row(DELTA)], &[noisy], &cfg).is_empty());
        // ... tolerated under --hit-rate-only (cross-machine fallback).
        let cfg_hr = GateConfig {
            hit_rate_only: true,
            ..cfg
        };
        assert!(gate(&base, &[bad], &cfg_hr).is_empty());
        // Legacy baselines without a p99 column never gate on it.
        let _ = &single;
        let legacy = row(
            r#"{"threads":4,"n":8000,"mode":"delta","workload":"mixed","stats":{"hit_rate":0.75,"qps":4000.0}}"#,
        );
        let mut spiky = row(DELTA);
        spiky.p99_us = 10_000.0;
        assert!(gate(&[legacy], &[spiky], &cfg).is_empty());
    }

    #[test]
    fn unmatched_rows_are_tolerated() {
        let cfg = base_cfg();
        // Different n (reduced CI load) never compares against a
        // full-size baseline.
        let mut other = row(DELTA);
        other.n = 20_000;
        assert!(gate(&[other], &[row(DELTA)], &cfg).is_empty());
    }

    /// A `BENCH_shard.json` serving row, as `shard_scaling` writes it.
    fn shard_row(mode: &str, qps: f64) -> Row {
        row(&format!(
            r#"{{"threads":1,"n":8000,"shards":4,"mode":"{mode}","placement":"hash","workload":"mixed","stats":{{"queries":4000,"hits":3000,"misses":1000,"hit_rate":0.7500,"threads":1,"method":"FP","wall_ms":100.0,"qps":{qps:.1},"p50_us":12,"p95_us":80,"p99_us":300,"max_us":900}}}}"#
        ))
    }

    #[test]
    fn parallel_win_requirement() {
        let cfg = GateConfig {
            require_parallel_win: true,
            parallel_cores: 4,
            ..base_cfg()
        };
        let fresh = |par_s1: f64, par_s4: f64| {
            vec![
                shard_row("sharded_s1", 40_000.0),
                shard_row("sharded_par_s1", par_s1),
                shard_row("sharded_s4", 14_000.0),
                shard_row("sharded_par_s4", par_s4),
            ]
        };
        // Healthy: S=1 within 10%, S=4 at 2.2x.
        assert!(gate(&[], &fresh(39_000.0, 31_000.0), &cfg).is_empty());
        // S=4 only 1.8x on a 4-core box: below the 2x bar.
        assert_eq!(gate(&[], &fresh(39_000.0, 25_000.0), &cfg).len(), 1);
        // ... while on 2 cores any strict win passes.
        let two_cores = GateConfig {
            require_parallel_win: true,
            parallel_cores: 2,
            ..base_cfg()
        };
        assert!(gate(&[], &fresh(39_000.0, 25_000.0), &two_cores).is_empty());
        // Fanning out a single shard must stay near-free: a 22% S=1
        // drop fails even when S=4 wins big.
        assert_eq!(gate(&[], &fresh(31_000.0, 31_000.0), &cfg).len(), 1);
        // Below 2 cores the whole check is skipped, rows or not.
        let one_core = GateConfig {
            require_parallel_win: true,
            parallel_cores: 1,
            ..base_cfg()
        };
        assert!(gate(&[], &[], &one_core).is_empty());
        // Missing parallel rows on a multicore box: both pairs fail.
        let seq_only = vec![
            shard_row("sharded_s1", 40_000.0),
            shard_row("sharded_s4", 14_000.0),
        ];
        assert_eq!(gate(&[], &seq_only, &cfg).len(), 2);
    }

    /// One synthetic cold-gir cell: `(method, n, d, [(path, mean_ns)])`.
    type ColdCell<'a> = (&'a str, u64, u64, &'a [(&'a str, f64)]);

    fn cold_file(cells: &[ColdCell<'_>]) -> String {
        let mut lines = Vec::new();
        for (method, n, d, paths) in cells {
            for (path, mean) in *paths {
                lines.push(format!(
                    r#"{{"bench":"{path}/{method}/n{n}/d{d}","mean_ns":{mean:.0},"stddev_ns":10,"samples":12,"topk_pages":0,"gir_pages":0}}"#
                ));
            }
        }
        format!("[\n  {}\n]\n", lines.join(",\n  "))
    }

    #[test]
    fn planner_win_requirement() {
        // Healthy: planner tracks the best static path everywhere and
        // beats the always-index recompute at d=4.
        let healthy = cold_file(&[
            (
                "SP",
                8000,
                2,
                &[
                    ("cold", 50_000.0),
                    ("indexed_recompute", 9_000.0),
                    ("indexed_reuse", 6_000.0),
                    ("planner", 6_300.0),
                ],
            ),
            (
                "SP",
                8000,
                4,
                &[
                    ("cold", 900_000.0),
                    ("indexed_recompute", 2_160_000.0),
                    ("indexed_reuse", 6_000.0),
                    ("planner", 6_400.0),
                ],
            ),
        ]);
        assert!(planner_gate(&parse_cold_rows(&healthy)).is_empty());

        // Planner stuck on the wrong path at d=4: over 1.10x best AND
        // not beating the recompute.
        let stuck = healthy.replace(
            r#""bench":"planner/SP/n8000/d4","mean_ns":6400"#,
            r#""bench":"planner/SP/n8000/d4","mean_ns":2200000"#,
        );
        assert_eq!(planner_gate(&parse_cold_rows(&stuck)).len(), 2);

        // 8% exploration overhead at one cell: inside the 1.10x slack.
        let probing = healthy.replace(
            r#""bench":"planner/SP/n8000/d2","mean_ns":6300"#,
            r#""bench":"planner/SP/n8000/d2","mean_ns":6480"#,
        );
        assert!(planner_gate(&parse_cold_rows(&probing)).is_empty());

        // No planner rows at all: the gate must not pass by omission...
        let no_planner: String = healthy
            .lines()
            .filter(|l| !l.contains("planner/"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(planner_gate(&parse_cold_rows(&no_planner)).len(), 1);

        // ... and neither may a run that skipped d=4 entirely.
        let no_d4: String = healthy
            .lines()
            .filter(|l| !l.contains("/d4"))
            .collect::<Vec<_>>()
            .join("\n");
        let failures = planner_gate(&parse_cold_rows(&no_d4));
        assert!(failures.iter().any(|f| f.contains("no d=4 cells")));
    }

    #[test]
    fn cold_row_parser_reads_bench_ids() {
        let rows = parse_cold_rows(
            r#"[{"bench":"indexed_reuse/FP/n2000/d3","mean_ns":5400,"stddev_ns":1,"samples":12}]"#,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].path, "indexed_reuse");
        assert_eq!(rows[0].method, "FP");
        assert_eq!((rows[0].n, rows[0].d), (2000, 3));
        assert!((rows[0].mean_ns - 5400.0).abs() < 1e-9);
        // Per-tree rows carry no method.
        let rows = parse_cold_rows(r#"[{"bench":"mirror/n8000/d3","mean_ns":5100}]"#);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].path.as_str(), rows[0].method.as_str()),
            ("mirror", "")
        );
        assert_eq!((rows[0].n, rows[0].d), (8000, 3));
        // Serve rows (no bench id) and malformed ids are skipped.
        assert!(parse_cold_rows(DELTA).is_empty());
        assert!(parse_cold_rows(r#"{"bench":"cold/SP","mean_ns":1}"#).is_empty());
    }

    #[test]
    fn obs_overhead_gate() {
        let cfg = GateConfig {
            max_obs_overhead: Some(0.05),
            ..base_cfg()
        };
        let obs_row = |qps_factor: f64, hit_rate: f64| {
            let mut r = row(DELTA);
            r.mode = "delta_obs".into();
            r.qps *= qps_factor;
            r.hit_rate = hit_rate;
            r
        };
        // 3% overhead, identical hit rate: within the 5% budget.
        let fresh = vec![row(DELTA), obs_row(0.97, 0.75)];
        assert!(gate(&[], &fresh, &cfg).is_empty());
        // 8% overhead: the collector got too expensive.
        let fresh = vec![row(DELTA), obs_row(0.92, 0.75)];
        assert_eq!(gate(&[], &fresh, &cfg).len(), 1);
        // A hit-rate divergence means observability changed cache
        // behaviour — always a failure, whatever the qps.
        let fresh = vec![row(DELTA), obs_row(1.0, 0.74)];
        assert_eq!(gate(&[], &fresh, &cfg).len(), 1);
        // Missing delta_obs row with the flag set: failure.
        assert_eq!(gate(&[], &[row(DELTA)], &cfg).len(), 1);
    }

    #[test]
    fn flat_recovery_requirement() {
        let file = |rows: &[(u64, f64)]| {
            let mut lines = vec![
                r#"{"section":"wal_append","fsync":"always","batches":512,"batches_per_s":4290.0,"mb_per_s":1.218}"#.to_string(),
            ];
            lines.extend(rows.iter().map(|(len, ms)| {
                format!(
                    r#"{{"section":"recovery","wal_batches":{len},"recover_ms":{ms:.2},"records":8160}}"#
                )
            }));
            parse_recovery_rows(&format!("[\n  {}\n]\n", lines.join(",\n  ")))
        };
        // Folded recovery: 1.16x from 100 to 400 batches.
        assert!(flat_recovery_gate(&file(&[(100, 3.2), (400, 3.7)])).is_empty());
        // Exactly 2x passes; the longest and shortest rows are compared
        // whatever the row order.
        assert!(flat_recovery_gate(&file(&[(1600, 6.4), (100, 3.2), (400, 3.7)])).is_empty());
        // Op-by-op replay: 2.47x.
        assert_eq!(
            flat_recovery_gate(&file(&[(100, 88.8), (400, 219.0)])).len(),
            1
        );
        // The gate never passes by omission.
        assert_eq!(flat_recovery_gate(&file(&[])).len(), 1);
        assert_eq!(flat_recovery_gate(&file(&[(400, 3.7)])).len(), 1);
        assert!(parse_recovery_rows(DELTA).is_empty());
    }

    #[test]
    fn cheap_mirror_requirement() {
        let file = |mirror_d3: f64| {
            parse_cold_rows(&format!(
                r#"[
  {{"bench":"mirror/n8000/d2","mean_ns":4200}},
  {{"bench":"indexed_reuse/FP/n8000/d2","mean_ns":3178}},
  {{"bench":"mirror/n8000/d3","mean_ns":{mirror_d3:.0}}},
  {{"bench":"indexed_reuse/FP/n8000/d3","mean_ns":3751}},
  {{"bench":"indexed_reuse/SP/n8000/d3","mean_ns":300}}
]"#
            ))
        };
        // Shared decoded nodes: a few µs per mirror, inside 2x.
        assert!(cheap_mirror_gate(&file(5_100.0)).is_empty());
        // Exactly 2x passes.
        assert!(cheap_mirror_gate(&file(7_502.0)).is_empty());
        // Decoding every page again (the byte-only tree measured
        // 290 µs here): fails, and only that cell does.
        let failures = cheap_mirror_gate(&file(290_558.0));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("n8000/d3"));
        // The gate never passes by omission: no mirror rows, or a
        // mirror row without its FP counterpart.
        assert_eq!(cheap_mirror_gate(&parse_cold_rows(DELTA)).len(), 1);
        let orphan = parse_cold_rows(r#"{"bench":"mirror/n2000/d4","mean_ns":10}"#);
        assert_eq!(cheap_mirror_gate(&orphan).len(), 1);
    }

    /// The SP/CP `cold` and `indexed_recompute` rows of the
    /// `BENCH_cold_gir.json` measured before the indexed path ran BBS
    /// over the mirror: the derived-skyline exclusion lost every cell.
    const INDEX_SLOWER: &str = r#"[
  {"bench":"cold/SP/n2000/d2","mean_ns":22167},
  {"bench":"indexed_recompute/SP/n2000/d2","mean_ns":34950},
  {"bench":"cold/CP/n2000/d2","mean_ns":29880},
  {"bench":"indexed_recompute/CP/n2000/d2","mean_ns":43083},
  {"bench":"cold/SP/n2000/d3","mean_ns":29859},
  {"bench":"indexed_recompute/SP/n2000/d3","mean_ns":59510},
  {"bench":"cold/CP/n2000/d3","mean_ns":90710},
  {"bench":"indexed_recompute/CP/n2000/d3","mean_ns":129147},
  {"bench":"cold/SP/n2000/d4","mean_ns":277753},
  {"bench":"indexed_recompute/SP/n2000/d4","mean_ns":451431},
  {"bench":"cold/CP/n2000/d4","mean_ns":1837356},
  {"bench":"indexed_recompute/CP/n2000/d4","mean_ns":2039272},
  {"bench":"cold/SP/n8000/d2","mean_ns":21665},
  {"bench":"indexed_recompute/SP/n8000/d2","mean_ns":29365},
  {"bench":"cold/CP/n8000/d2","mean_ns":29629},
  {"bench":"indexed_recompute/CP/n8000/d2","mean_ns":39535},
  {"bench":"cold/SP/n8000/d3","mean_ns":69169},
  {"bench":"indexed_recompute/SP/n8000/d3","mean_ns":215416},
  {"bench":"cold/CP/n8000/d3","mean_ns":205466},
  {"bench":"indexed_recompute/CP/n8000/d3","mean_ns":365001},
  {"bench":"cold/SP/n8000/d4","mean_ns":568869},
  {"bench":"indexed_recompute/SP/n8000/d4","mean_ns":1583894},
  {"bench":"cold/CP/n8000/d4","mean_ns":3007452},
  {"bench":"indexed_recompute/CP/n8000/d4","mean_ns":3980777},
]"#;

    #[test]
    fn index_not_slower_requirement() {
        // The derived-skyline exclusion: slower than cold in 12 of 12
        // cells.
        let failures = index_not_slower_gate(&parse_cold_rows(INDEX_SLOWER));
        assert_eq!(failures.len(), 12, "{failures:?}");

        // Healthy: indexed below cold, one cell 4% above, one fast cell
        // 10% above (inside 1.05x plus the noise floor); FP rows are
        // not gated even when slower.
        let healthy = cold_file(&[
            (
                "SP",
                8000,
                4,
                &[("cold", 568_869.0), ("indexed_recompute", 540_000.0)],
            ),
            (
                "CP",
                8000,
                4,
                &[("cold", 3_007_452.0), ("indexed_recompute", 3_127_000.0)],
            ),
            (
                "SP",
                2000,
                2,
                &[("cold", 22_167.0), ("indexed_recompute", 24_450.0)],
            ),
            (
                "FP",
                8000,
                4,
                &[("cold", 300_000.0), ("indexed_recompute", 900_000.0)],
            ),
        ]);
        assert!(index_not_slower_gate(&parse_cold_rows(&healthy)).is_empty());

        // One cell 10% slower fails, alone.
        let slow = healthy.replace(
            r#""bench":"indexed_recompute/SP/n8000/d4","mean_ns":540000"#,
            r#""bench":"indexed_recompute/SP/n8000/d4","mean_ns":625756"#,
        );
        let failures = index_not_slower_gate(&parse_cold_rows(&slow));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("SP/n8000/d4"));

        // Never passes by omission: no SP/CP rows, or an orphan row.
        let fp_only: String = healthy
            .lines()
            .filter(|l| !l.contains("/SP/") && !l.contains("/CP/"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(index_not_slower_gate(&parse_cold_rows(&fp_only)).len(), 1);
        let orphan = parse_cold_rows(r#"{"bench":"indexed_recompute/CP/n2000/d3","mean_ns":10}"#);
        assert_eq!(index_not_slower_gate(&orphan).len(), 1);
    }
}
