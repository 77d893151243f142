//! Durability-tier cost model: WAL append throughput per fsync policy,
//! recovery time as a function of WAL length, and the serving-path
//! overhead of running updates through the WAL at all.
//!
//! Not a paper figure — the paper's engine is volatile; this tracks
//! the ROADMAP's durability tier (ARCHITECTURE.md "Durability") and
//! backs the README's fsync/snapshot cost table. Writes
//! machine-readable rows to `BENCH_recovery.json` (uploaded as a CI
//! artifact next to the other BENCH files).
//!
//! Knobs: `GIR_N` (dataset size, default 8000), `GIR_RECOVERY_BATCHES`
//! (comma-separated replay lengths, default "100,400,1600"),
//! `GIR_RECOVERY_OPS` (updates per batch, default 8), `GIR_SEED`.

use gir_bench::report::Table;
use gir_datagen::{synthetic, Distribution};
use gir_query::{Record, ScoringFunction};
use gir_rtree::RTree;
use gir_serve::{DurabilityConfig, DurableServer, GirServer, ServerConfig, TopKRequest, Update};
use gir_storage::{FsDir, FsyncPolicy, LogDir, MemPageStore, PageStore, Wal, PAGE_SIZE};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic churn batches over `data` (xorshift; inserts biased so
/// the dataset never empties).
fn churn_batches(
    data: &[Record],
    d: usize,
    batches: usize,
    ops_per_batch: usize,
    seed: u64,
) -> Vec<Vec<Update>> {
    let mut live: Vec<(u64, Vec<f64>)> = data
        .iter()
        .map(|r| (r.id, r.attrs.coords().to_vec()))
        .collect();
    let mut next_id = 10_000_000u64;
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..batches)
        .map(|_| {
            (0..ops_per_batch)
                .map(|_| {
                    let r = next();
                    if r % 10 < 6 || live.len() < 64 {
                        let attrs: Vec<f64> = (0..d)
                            .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64)
                            .collect();
                        let rec = Record::new(next_id, attrs.clone());
                        next_id += 1;
                        live.push((rec.id, attrs));
                        Update::Insert(rec)
                    } else {
                        let idx = (next() % live.len() as u64) as usize;
                        let (id, attrs) = live.swap_remove(idx);
                        Update::Delete {
                            id,
                            attrs: attrs.into(),
                        }
                    }
                })
                .collect()
        })
        .collect()
}

fn build_server(data: &[Record], d: usize) -> GirServer {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    let tree = RTree::bulk_load(store, data).expect("bulk load");
    GirServer::new(
        tree,
        ScoringFunction::linear(d),
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    )
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gir-recovery-bench-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn main() {
    let d = 3;
    let n = env_usize("GIR_N", 8_000);
    let seed = env_u64("GIR_SEED", 0xBE7C);
    let ops_per_batch = env_usize("GIR_RECOVERY_OPS", 8);
    let replay_lengths: Vec<usize> = std::env::var("GIR_RECOVERY_BATCHES")
        .unwrap_or_else(|_| "100,400,1600".into())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    let data = synthetic(Distribution::Independent, n, d, seed.wrapping_add(1));
    let mut json_rows: Vec<String> = Vec::new();

    println!("durability tier  (IND, n={n}, d={d}, {ops_per_batch} ops/batch, seed {seed})\n");

    // ------------------------------------------------------------------
    // 1. Raw WAL append throughput per fsync policy (real filesystem).
    // ------------------------------------------------------------------
    let batches = churn_batches(&data, d, 512, ops_per_batch, seed);
    let payloads: Vec<Vec<u8>> = batches
        .iter()
        .map(|b| gir_serve::wal_batch_from_updates(b).encode())
        .collect();
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();

    let mut wal_table = Table::new(&["fsync", "batches/s", "MB/s", "fsyncs"]);
    for (label, policy) in [
        ("always", FsyncPolicy::Always),
        ("every-8", FsyncPolicy::EveryN(8)),
        ("never", FsyncPolicy::Never),
    ] {
        let dir = temp_dir(label);
        let fs = FsDir::new(&dir).expect("temp dir");
        let mut wal = Wal::create(fs.create("wal-bench").expect("create"), policy);
        let fsyncs_before = 0u64; // Wal counts syncs only via events; derive below
        let start = Instant::now();
        for p in &payloads {
            wal.append(p).expect("append");
        }
        wal.sync().expect("final sync");
        let secs = start.elapsed().as_secs_f64();
        let per_s = payloads.len() as f64 / secs;
        let mbps = payload_bytes as f64 / 1e6 / secs;
        let fsyncs = match policy {
            FsyncPolicy::Always => payloads.len() as u64 + 1,
            FsyncPolicy::EveryN(k) => payloads.len() as u64 / k.max(1) + 1,
            FsyncPolicy::Never => 1,
        } - fsyncs_before;
        wal_table.row(vec![
            label.into(),
            format!("{per_s:.0}"),
            format!("{mbps:.1}"),
            fsyncs.to_string(),
        ]);
        json_rows.push(format!(
            "{{\"section\":\"wal_append\",\"fsync\":\"{label}\",\"batches\":{},\"batches_per_s\":{per_s:.1},\"mb_per_s\":{mbps:.3}}}",
            payloads.len()
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
    wal_table.print("WAL append throughput (512 batches, real fs)");

    // ------------------------------------------------------------------
    // 2. Recovery time vs WAL length (snapshotting disabled so the
    //    whole suffix is folded into the creation snapshot; the fold
    //    plus one bulk load should barely grow with the log).
    // ------------------------------------------------------------------
    let mut rec_table = Table::new(&["wal batches", "recover ms", "folded", "records"]);
    for &len in &replay_lengths {
        let dir = temp_dir(&format!("replay-{len}"));
        let dcfg = DurabilityConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 0,
        };
        let cfg = ServerConfig {
            threads: 1,
            durability: Some(dcfg),
            ..ServerConfig::default()
        };
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &data).expect("bulk load");
        let durable = DurableServer::create(tree, ScoringFunction::linear(d), cfg.clone())
            .expect("create durable");
        for batch in churn_batches(&data, d, len, ops_per_batch, seed ^ len as u64) {
            durable.apply_updates(&batch).expect("apply");
        }
        drop(durable);

        let start = Instant::now();
        let (recovered, report) =
            DurableServer::recover(ScoringFunction::linear(d), cfg).expect("recover");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let records = recovered.inner().num_records();
        assert_eq!(report.replayed, len as u64, "folded WAL length mismatch");
        rec_table.row(vec![
            len.to_string(),
            format!("{ms:.1}"),
            report.replayed.to_string(),
            records.to_string(),
        ]);
        json_rows.push(format!(
            "{{\"section\":\"recovery\",\"wal_batches\":{len},\"recover_ms\":{ms:.2},\"records\":{records}}}"
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
    rec_table.print("recovery time vs WAL length (snapshot load + WAL fold + one bulk load)");

    // ------------------------------------------------------------------
    // 3. Serving-path overhead: the same update+query stream with
    //    durability off / WAL-on (never fsync) / WAL-on (fsync always).
    //    Queries never touch the WAL, so the delta is the write path.
    // ------------------------------------------------------------------
    let mix_batches = 64usize;
    let churn = churn_batches(&data, d, mix_batches, ops_per_batch, seed ^ 0x5151);
    let queries: Vec<TopKRequest> = (0..32)
        .map(|i| {
            TopKRequest::new(
                (0..d)
                    .map(|a| 0.3 + 0.4 * (((i * 7 + a * 3) % 11) as f64 / 10.0))
                    .collect::<Vec<f64>>(),
                10,
            )
        })
        .collect();
    let mut mix_table = Table::new(&["pipeline", "updates/s", "wall ms", "overhead"]);
    let mut base_ms = 0.0f64;
    for (label, fsync) in [
        ("volatile", None),
        ("wal-never", Some(FsyncPolicy::Never)),
        ("wal-always", Some(FsyncPolicy::Always)),
    ] {
        let run = |apply: &dyn Fn(&[Update])| {
            let start = Instant::now();
            for batch in &churn {
                apply(batch);
            }
            start.elapsed().as_secs_f64() * 1e3
        };
        let wall_ms = match fsync {
            None => {
                let server = build_server(&data, d);
                server.run_batch(&queries);
                run(&|b| {
                    server.apply_updates(b).expect("apply");
                })
            }
            Some(policy) => {
                let dir = temp_dir(label);
                let dcfg = DurabilityConfig {
                    dir: dir.clone(),
                    fsync: policy,
                    snapshot_every: 0,
                };
                let cfg = ServerConfig {
                    threads: 1,
                    durability: Some(dcfg),
                    ..ServerConfig::default()
                };
                let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
                let tree = RTree::bulk_load(store, &data).expect("bulk load");
                let durable = DurableServer::create(tree, ScoringFunction::linear(d), cfg)
                    .expect("create durable");
                durable.run_batch(&queries);
                let ms = run(&|b| {
                    durable.apply_updates(b).expect("apply");
                });
                std::fs::remove_dir_all(&dir).ok();
                ms
            }
        };
        if base_ms == 0.0 {
            base_ms = wall_ms;
        }
        let ups = (mix_batches * ops_per_batch) as f64 / (wall_ms / 1e3);
        mix_table.row(vec![
            label.into(),
            format!("{ups:.0}"),
            format!("{wall_ms:.1}"),
            format!("{:.2}x", wall_ms / base_ms),
        ]);
        json_rows.push(format!(
            "{{\"section\":\"overhead\",\"pipeline\":\"{label}\",\"updates_per_s\":{ups:.1},\"wall_ms\":{wall_ms:.2}}}"
        ));
    }
    mix_table.print("update-path overhead (64 churn batches, durability off vs on)");

    let json = format!("[\n  {}\n]\n", json_rows.join(",\n  "));
    // Cargo runs benches with CWD = the package root; anchor the report
    // at the workspace root so CI finds one canonical path.
    let path = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::Path::new(&dir).join("../../BENCH_recovery.json"),
        Err(_) => std::path::PathBuf::from("BENCH_recovery.json"),
    };
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
