//! Durability tier: WAL-ahead updates, generation snapshots, crash
//! recovery (ARCHITECTURE.md "Durability").
//!
//! [`DurableServer`] wraps the serve core — the single-tree
//! [`GirServer`] itself, or a tier newtype around a [`Server`] (the
//! sharded server in `gir-shard`), see [`AsServer`] — and makes its
//! update stream survive a crash:
//!
//! * every update batch is encoded as a [`WalBatch`] and **appended to
//!   the WAL before it is applied** (write-ahead), with fsync timing
//!   governed by [`FsyncPolicy`];
//! * every `snapshot_every` batches a consistent cut of the dataset is
//!   written as generation `g+1` (`snap-<g+1>` via the atomic
//!   tmp/fsync/rename protocol, then a fresh empty `wal-<g+1>`), after
//!   which generation `g`'s files are retired. Only *records* are
//!   persisted — regions, the prune index and cache entries are
//!   derived state and are rebuilt on recovery;
//! * [`DurableServer::recover_in`] loads the newest valid snapshot,
//!   folds the WAL suffix (torn tails are truncated by
//!   `gir_storage::Wal::open`) into its records and builds the server
//!   once from the result, yielding a server whose observable
//!   behaviour is identical to one that applied the same committed
//!   prefix and never crashed — the property the crash-point proptest
//!   harness (`tests/crash_recovery.rs`) proves differentially.
//!
//! **Failure semantics.** A WAL append or inner-apply error flips the
//! server into degraded *read-only* mode: the failed and all later
//! `apply_updates` calls return `Err` (never a panic), while queries
//! keep serving from the in-memory state. A *snapshot* failure before
//! its atomic commit point is non-fatal (the WAL remains the source of
//! truth; the snapshot is retried at the next boundary); a failure
//! *after* the commit rename also degrades to read-only, because new
//! appends would land in the old generation's WAL, which recovery no
//! longer reads.

use crate::backend::ShardBackend;
use crate::server::{BatchResult, GirServer, Server, TopKRequest, Update, UpdateReport};
use gir_core::{SnapshotState, WalBatch, WalOp, WireError};
use gir_query::{Record, ScoringFunction};
use gir_rtree::{RTree, RTreeError};
use gir_storage::{
    read_snapshot, write_snapshot, FsDir, FsyncPolicy, LogDir, MemPageStore, PageStore,
    StorageError, Wal, PAGE_SIZE,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use tracing::{event, span};

/// Durability knobs (`ServerConfig::durability`). The cost model for
/// these knobs is tabulated in the README.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `snap-*` / `wal-*` files. Used by the
    /// filesystem-backed constructors; the `*_in` constructors take an
    /// explicit [`LogDir`] instead (fault injection, tests).
    pub dir: PathBuf,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Snapshot after this many applied batches; `0` disables
    /// snapshotting (the WAL grows without bound and recovery folds it
    /// all).
    pub snapshot_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            dir: PathBuf::from("gir-durable"),
            fsync: FsyncPolicy::EveryN(8),
            snapshot_every: 64,
        }
    }
}

/// Errors surfaced by the durability tier. Mutation-path errors flip
/// the server read-only; queries are unaffected.
#[derive(Debug)]
pub enum DurabilityError {
    /// WAL create/append/sync/open failed.
    Wal(StorageError),
    /// Snapshot write/read failed.
    Snapshot(StorageError),
    /// A persisted payload decoded to garbage (CRC passed but the
    /// structure didn't — e.g. a foreign file).
    Wire(WireError),
    /// The wrapped server's own apply/scan failed.
    Tree(RTreeError),
    /// `recover` found no valid snapshot in the directory.
    NoSnapshot,
    /// `create` found an existing generation (refusing to clobber
    /// durable state; use `recover`).
    AlreadyExists,
    /// The server is in degraded read-only mode after an earlier
    /// mutation-path failure.
    ReadOnly,
    /// `ServerConfig::durability` was `None`.
    Disabled,
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Wal(e) => write!(f, "wal: {e}"),
            DurabilityError::Snapshot(e) => write!(f, "snapshot: {e}"),
            DurabilityError::Wire(e) => write!(f, "wire: {e}"),
            DurabilityError::Tree(e) => write!(f, "tree: {e}"),
            DurabilityError::NoSnapshot => write!(f, "no valid snapshot found"),
            DurabilityError::AlreadyExists => {
                write!(f, "durable state already exists (use recover)")
            }
            DurabilityError::ReadOnly => write!(f, "server is in degraded read-only mode"),
            DurabilityError::Disabled => write!(f, "durability not configured"),
        }
    }
}

impl std::error::Error for DurabilityError {}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the snapshot recovered from.
    pub generation: u64,
    /// Update batches already folded into that snapshot.
    pub snapshot_batches: u64,
    /// WAL batches folded on top of it.
    pub replayed: u64,
    /// Torn-tail bytes truncated from the WAL on open.
    pub truncated_bytes: u64,
}

impl RecoveryReport {
    /// Total committed batches the recovered server has applied
    /// (snapshot + folded WAL).
    pub fn batches(&self) -> u64 {
        self.snapshot_batches + self.replayed
    }
}

/// A server that is, or wraps, the serve core: how [`DurableServer`]
/// reaches [`Server::apply_updates`], [`Server::run_batch`] and
/// [`Server::consistent_cut`] through a tier's newtype.
pub trait AsServer {
    /// The dataset behind the core.
    type Backend: ShardBackend;
    /// The core.
    fn as_server(&self) -> &Server<Self::Backend>;
}

impl<B: ShardBackend> AsServer for Server<B> {
    type Backend = B;
    fn as_server(&self) -> &Server<B> {
        self
    }
}

/// Converts an update batch into its durable wire form.
pub fn wal_batch_from_updates(updates: &[Update]) -> WalBatch {
    WalBatch {
        ops: updates
            .iter()
            .map(|u| match u {
                Update::Insert(rec) => WalOp::Insert(rec.clone()),
                Update::Delete { id, attrs } => WalOp::Delete {
                    id: *id,
                    attrs: attrs.clone(),
                },
            })
            .collect(),
    }
}

/// Converts a logged wire batch back into server updates.
pub fn updates_from_wal_batch(batch: &WalBatch) -> Vec<Update> {
    batch
        .ops
        .iter()
        .map(|op| match op {
            WalOp::Insert(rec) => Update::Insert(rec.clone()),
            WalOp::Delete { id, attrs } => Update::Delete {
                id: *id,
                attrs: attrs.clone(),
            },
        })
        .collect()
}

/// Bulk-load fill of the R\*-tree [`DurableServer::recover`] rebuilds:
/// the R\* steady-state node utilisation. A recovered server goes
/// straight back to taking updates, and in a fully packed tree every
/// insert lands on a full leaf and pays forced reinsert plus a split —
/// on girbench's `churn_write` the query p99 of the open pass after the
/// restarts was 3.9 ms at fill 1.0 and 1.18 ms at 0.7 (2 cores, median
/// of 5 runs).
const RECOVERY_FILL: f64 = 0.7;

/// Rejects the first op, in order, whose point is not `dim`-dimensional,
/// with the error the tree raises when asked to apply it.
fn check_dims<'a>(ops: impl IntoIterator<Item = &'a WalOp>, dim: usize) -> Result<(), RTreeError> {
    for op in ops {
        let got = match op {
            WalOp::Insert(rec) => rec.dim(),
            WalOp::Delete { attrs, .. } => attrs.dim(),
        };
        if got != dim {
            return Err(RTreeError::DimensionMismatch { expected: dim, got });
        }
    }
    Ok(())
}

/// Folds WAL batches, strictly in log order, into a snapshot's records.
///
/// An insert appends its record. A delete removes one live record with
/// the same id whose `attrs ==` the delete's — the R\*-tree's own match
/// predicate, so NaN never matches and −0.0 equals 0.0 — and a delete
/// that matches nothing is a missed delete, as in
/// [`Server::apply_updates`]. When several live records match, the
/// oldest goes; they differ at most in the sign of a zero, and the tree
/// would pick one by its layout.
///
/// The output order is fixed: surviving snapshot records in snapshot
/// order, then surviving inserts in log order.
///
/// [`DurableServer::recover_in`] folds its WAL with this, and the
/// distributed coordinator folds the batches since its last cut to
/// rejoin a worker.
pub fn fold_wal(snapshot: Vec<Record>, batches: &[WalBatch]) -> Vec<Record> {
    // Live slots per id, oldest first — only for ids some delete names.
    let mut live: HashMap<u64, Vec<usize>> = batches
        .iter()
        .flat_map(|b| &b.ops)
        .filter_map(|op| match op {
            WalOp::Delete { id, .. } => Some((*id, Vec::new())),
            WalOp::Insert(_) => None,
        })
        .collect();
    for (at, rec) in snapshot.iter().enumerate() {
        if let Some(v) = live.get_mut(&rec.id) {
            v.push(at);
        }
    }
    let mut slots: Vec<Option<Record>> = snapshot.into_iter().map(Some).collect();
    for op in batches.iter().flat_map(|b| &b.ops) {
        match op {
            WalOp::Insert(rec) => {
                if let Some(v) = live.get_mut(&rec.id) {
                    v.push(slots.len());
                }
                slots.push(Some(rec.clone()));
            }
            WalOp::Delete { id, attrs } => {
                let v = live.get_mut(id).expect("every deleted id is indexed");
                let hit = v
                    .iter()
                    .position(|&at| slots[at].as_ref().is_some_and(|r| r.attrs == *attrs));
                if let Some(k) = hit {
                    slots[v.remove(k)] = None;
                }
            }
        }
    }
    slots.into_iter().flatten().collect()
}

struct DurableState {
    wal: Wal,
    generation: u64,
    /// Committed batches since creation (snapshot + post-snapshot).
    batches: u64,
    since_snapshot: u64,
    snapshot_failures: u64,
}

/// A serve core with a write-ahead log and generation snapshots
/// underneath. Queries pass through untouched; updates are logged
/// before they are applied.
///
/// `S` is the core itself or a tier's newtype around it
/// ([`AsServer`]). The snapshot is the core's
/// [`Server::consistent_cut`].
pub struct DurableServer<S> {
    inner: S,
    dir: Box<dyn LogDir>,
    cfg: DurabilityConfig,
    state: Mutex<DurableState>,
    read_only: AtomicBool,
}

impl<S> std::fmt::Debug for DurableServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("DurableServer")
            .field("generation", &st.generation)
            .field("batches", &st.batches)
            .field("read_only", &self.read_only.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

fn snap_name(generation: u64) -> String {
    format!("snap-{generation:016x}")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation:016x}")
}

fn parse_generation(name: &str, prefix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

impl<S: AsServer> DurableServer<S> {
    fn core(&self) -> &Server<S::Backend> {
        self.inner.as_server()
    }

    /// Starts a fresh durable history in `dir`: writes the generation-0
    /// snapshot of `inner`'s current records and an empty WAL. Refuses
    /// to run over a directory that already holds a snapshot
    /// ([`DurabilityError::AlreadyExists`]) — recovery, not re-creation,
    /// is the path back into existing state.
    pub fn create_in(
        dir: Box<dyn LogDir>,
        inner: S,
        cfg: DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        let existing = dir.list().map_err(|e| DurabilityError::Wal(e.into()))?;
        if existing
            .iter()
            .any(|n| parse_generation(n, "snap-").is_some())
        {
            return Err(DurabilityError::AlreadyExists);
        }
        let cut = inner
            .as_server()
            .consistent_cut()
            .map_err(DurabilityError::Tree)?;
        let payload = SnapshotState {
            batches: 0,
            shards: cut,
        }
        .encode();
        write_snapshot(dir.as_ref(), &snap_name(0), &payload).map_err(DurabilityError::Snapshot)?;
        let file = dir
            .create(&wal_name(0))
            .map_err(|e| DurabilityError::Wal(e.into()))?;
        let wal = Wal::create(file, cfg.fsync);
        Ok(DurableServer {
            inner,
            dir,
            cfg,
            state: Mutex::new(DurableState {
                wal,
                generation: 0,
                batches: 0,
                since_snapshot: 0,
                snapshot_failures: 0,
            }),
            read_only: AtomicBool::new(false),
        })
    }

    /// Recovers from `dir`: picks the newest generation whose snapshot
    /// validates, folds the generation's WAL suffix (torn tail
    /// truncated) into the snapshot's records, builds the server once
    /// via `build` from the result, and retires files from older
    /// generations.
    ///
    /// `build` receives the folded dataset as one record multiset in
    /// `shards[0]` — surviving snapshot records in snapshot order, then
    /// surviving WAL inserts in log order — not as a per-shard
    /// partition: a sharded builder re-places the records itself. A
    /// logged op whose dimensionality is not the built server's fails
    /// recovery with [`RTreeError::DimensionMismatch`], as applying it
    /// would.
    ///
    /// A missing `wal-<g>` is legitimate (crash in the window between
    /// the snapshot rename and the WAL create) and folds nothing.
    pub fn recover_in(
        dir: Box<dyn LogDir>,
        cfg: DurabilityConfig,
        build: impl FnOnce(SnapshotState) -> Result<S, RTreeError>,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let _span = span!("recover");
        let names = dir.list().map_err(|e| DurabilityError::Wal(e.into()))?;
        let mut generations: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_generation(n, "snap-"))
            .collect();
        generations.sort_unstable_by(|a, b| b.cmp(a));

        // Newest valid snapshot wins; a corrupt one (e.g. bit rot) falls
        // back to the previous generation if its files still exist.
        let mut chosen = None;
        for g in generations {
            match read_snapshot(dir.as_ref(), &snap_name(g)) {
                Ok(payload) => {
                    let state = SnapshotState::decode(&payload).map_err(DurabilityError::Wire)?;
                    chosen = Some((g, state));
                    break;
                }
                Err(StorageError::Corrupt(_)) => continue,
                Err(e) => return Err(DurabilityError::Snapshot(e)),
            }
        }
        let (generation, snap) = chosen.ok_or(DurabilityError::NoSnapshot)?;
        let snapshot_batches = snap.batches;

        let wal_file_name = wal_name(generation);
        let (wal, payloads, open_report) = if dir
            .exists(&wal_file_name)
            .map_err(|e| DurabilityError::Wal(e.into()))?
        {
            let file = dir
                .open(&wal_file_name)
                .map_err(|e| DurabilityError::Wal(e.into()))?;
            Wal::open(file, cfg.fsync).map_err(DurabilityError::Wal)?
        } else {
            let file = dir
                .create(&wal_file_name)
                .map_err(|e| DurabilityError::Wal(e.into()))?;
            (
                Wal::create(file, cfg.fsync),
                Vec::new(),
                gir_storage::WalOpenReport::default(),
            )
        };

        // The derived state (tree, prune index, cache) is built once from
        // the folded records rather than maintained op by op.
        let batches = payloads
            .iter()
            .map(|p| WalBatch::decode(p))
            .collect::<Result<Vec<_>, _>>()
            .map_err(DurabilityError::Wire)?;
        let replayed = batches.len() as u64;
        let records = fold_wal(snap.shards.into_iter().flatten().collect(), &batches);
        let inner = build(SnapshotState {
            batches: snapshot_batches + replayed,
            shards: vec![records],
        })
        .map_err(DurabilityError::Tree)?;
        check_dims(
            batches.iter().flat_map(|b| &b.ops),
            inner.as_server().scoring().dim(),
        )
        .map_err(DurabilityError::Tree)?;
        event!(
            "recovered",
            generation = generation,
            replayed = replayed,
            truncated_bytes = open_report.truncated_bytes
        );

        // Retire files from older generations and stray tmp files; all
        // best-effort (a failure here is retried by the next recovery).
        for name in &names {
            let stale_gen = parse_generation(name, "snap-")
                .or_else(|| parse_generation(name, "wal-"))
                .is_some_and(|g| g != generation);
            if stale_gen || name.ends_with(".tmp") {
                let _ = dir.remove(name);
            }
        }

        let report = RecoveryReport {
            generation,
            snapshot_batches,
            replayed,
            truncated_bytes: open_report.truncated_bytes,
        };
        let server = DurableServer {
            inner,
            dir,
            cfg,
            state: Mutex::new(DurableState {
                wal,
                generation,
                batches: snapshot_batches + replayed,
                since_snapshot: replayed,
                snapshot_failures: 0,
            }),
            read_only: AtomicBool::new(false),
        };
        Ok((server, report))
    }

    /// Logs the batch to the WAL, then applies it to the wrapped
    /// server, then (at a `snapshot_every` boundary) rolls a new
    /// snapshot generation. Any WAL or apply failure degrades the
    /// server to read-only and surfaces as `Err`; queries keep working.
    ///
    /// A batch holding an op of the wrong dimensionality is refused
    /// before the append ([`RTreeError::DimensionMismatch`]): nothing is
    /// logged or applied and the server stays writable. Logged, it would
    /// fail every later recovery.
    pub fn apply_updates(&self, updates: &[Update]) -> Result<UpdateReport, DurabilityError> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if self.read_only.load(Ordering::Acquire) {
            return Err(DurabilityError::ReadOnly);
        }
        let payload = {
            let batch = wal_batch_from_updates(updates);
            check_dims(&batch.ops, self.core().scoring().dim()).map_err(DurabilityError::Tree)?;
            batch.encode()
        };
        if let Err(e) = st.wal.append(&payload) {
            self.degrade("wal append failed");
            return Err(DurabilityError::Wal(e));
        }
        let report = match self.core().apply_updates(updates) {
            Ok(r) => r,
            Err(e) => {
                // The WAL holds the full batch but the in-memory apply
                // died partway; recovery replays the whole batch, so
                // the durable state is the *intended* one. Meanwhile
                // this process must stop mutating.
                self.degrade("inner apply failed");
                return Err(DurabilityError::Tree(e));
            }
        };
        st.batches += 1;
        st.since_snapshot += 1;
        if self.cfg.snapshot_every > 0 && st.since_snapshot >= self.cfg.snapshot_every {
            match self.roll_generation(&mut st) {
                Ok(()) => {}
                Err(RollError::BeforeCommit(e)) => {
                    // Nothing renamed: the WAL is still authoritative
                    // and intact. Count it and retry next boundary.
                    st.snapshot_failures += 1;
                    event!("snapshot_failed", total = st.snapshot_failures);
                    drop(e);
                }
                Err(RollError::AfterCommit(e)) => {
                    // snap-(g+1) committed but its WAL could not be
                    // created: further appends would go to wal-g, which
                    // recovery (picking g+1) would ignore. Stop writing.
                    self.degrade("wal rotation failed after snapshot commit");
                    return Err(e);
                }
            }
        }
        Ok(report)
    }

    /// Rolls generation `g` → `g+1`: consistent cut, snapshot write
    /// (atomic commit at its rename), fresh WAL, retire `g`'s files.
    fn roll_generation(&self, st: &mut DurableState) -> Result<(), RollError> {
        let _span = span!("snapshot_roll", generation = st.generation + 1);
        let cut = self
            .core()
            .consistent_cut()
            .map_err(|e| RollError::BeforeCommit(DurabilityError::Tree(e)))?;
        let payload = SnapshotState {
            batches: st.batches,
            shards: cut,
        }
        .encode();
        let next = st.generation + 1;
        write_snapshot(self.dir.as_ref(), &snap_name(next), &payload)
            .map_err(|e| RollError::BeforeCommit(DurabilityError::Snapshot(e)))?;
        // ---- commit point: recovery now prefers generation `next` ----
        let file = self
            .dir
            .create(&wal_name(next))
            .map_err(|e| RollError::AfterCommit(DurabilityError::Wal(e.into())))?;
        let old = st.generation;
        st.wal = Wal::create(file, self.cfg.fsync);
        st.generation = next;
        st.since_snapshot = 0;
        let _ = self.dir.remove(&snap_name(old));
        let _ = self.dir.remove(&wal_name(old));
        Ok(())
    }

    /// Serves a query batch. Works in degraded read-only mode too —
    /// reads never touch the WAL.
    pub fn run_batch(&self, requests: &[TopKRequest]) -> BatchResult {
        self.core().run_batch(requests)
    }

    /// Forces an fsync of the WAL regardless of policy.
    pub fn sync(&self) -> Result<(), DurabilityError> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.wal.sync().map_err(DurabilityError::Wal)
    }

    /// The wrapped server (read-path accessors; mutating it directly
    /// bypasses the WAL and voids the recovery guarantee).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// True once a mutation-path failure has degraded the server.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Committed update batches since history creation.
    pub fn batches(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .batches
    }

    /// Current snapshot generation.
    pub fn generation(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .generation
    }

    /// Snapshot attempts that failed before their commit point (the
    /// WAL stayed authoritative and the server kept accepting writes).
    pub fn snapshot_failures(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot_failures
    }

    fn degrade(&self, why: &'static str) {
        self.read_only.store(true, Ordering::Release);
        event!("durability_degraded", reason = why);
    }
}

enum RollError {
    /// Failed before the snapshot rename: nothing changed on disk that
    /// recovery would prefer; safe to keep writing the current WAL.
    BeforeCommit(DurabilityError),
    /// Failed after the rename: the new generation is committed but
    /// has no WAL; continuing to write the old WAL would lose batches.
    AfterCommit(DurabilityError),
}

impl DurableServer<GirServer> {
    /// Filesystem-backed creation per `cfg.durability`
    /// ([`DurabilityError::Disabled`] when `None`): builds the
    /// [`GirServer`] and starts its durable history in
    /// `durability.dir`.
    pub fn create(
        tree: RTree,
        scoring: ScoringFunction,
        cfg: crate::server::ServerConfig,
    ) -> Result<Self, DurabilityError> {
        let dcfg = cfg.durability.clone().ok_or(DurabilityError::Disabled)?;
        let dir = FsDir::new(&dcfg.dir).map_err(|e| DurabilityError::Wal(e.into()))?;
        let inner = GirServer::new(tree, scoring, cfg);
        Self::create_in(Box::new(dir), inner, dcfg)
    }

    /// Filesystem-backed recovery per `cfg.durability`: bulk-loads the
    /// R\*-tree over a fresh [`MemPageStore`] from the snapshot's
    /// records with the WAL suffix folded in, nodes filled to 70 % (the
    /// R\* steady-state utilisation, so the first inserts after a
    /// restart do not all split full leaves).
    pub fn recover(
        scoring: ScoringFunction,
        cfg: crate::server::ServerConfig,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let dcfg = cfg.durability.clone().ok_or(DurabilityError::Disabled)?;
        let dir = FsDir::new(&dcfg.dir).map_err(|e| DurabilityError::Wal(e.into()))?;
        let dim = scoring.dim();
        Self::recover_in(Box::new(dir), dcfg, move |snap| {
            let records: Vec<Record> = snap.shards.into_iter().flatten().collect();
            // A WAL logged before `apply_updates` checked dimensions may
            // hold a foreign insert; refuse it rather than build a tree
            // the scoring function does not fit.
            if let Some(bad) = records.iter().find(|r| r.dim() != dim) {
                return Err(RTreeError::DimensionMismatch {
                    expected: dim,
                    got: bad.dim(),
                });
            }
            let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
            // A fully-deleted dataset rebuilds as an empty tree.
            let tree = if records.is_empty() {
                RTree::new(store, dim)?
            } else {
                RTree::bulk_load_with_fill(store, &records, RECOVERY_FILL)?
            };
            Ok(GirServer::new(tree, scoring, cfg))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use gir_geometry::vector::PointD;
    use gir_storage::{CrashClock, CrashDir, MemDir};

    fn scoring() -> ScoringFunction {
        ScoringFunction::linear(2)
    }

    fn server(records: &[Record]) -> GirServer {
        rebuild(SnapshotState {
            batches: 0,
            shards: vec![records.to_vec()],
        })
        .unwrap()
    }

    fn rebuild(snap: SnapshotState) -> Result<GirServer, RTreeError> {
        let records: Vec<Record> = snap.shards.into_iter().flatten().collect();
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = if records.is_empty() {
            RTree::new(store, 2)?
        } else {
            RTree::bulk_load(store, &records)?
        };
        Ok(GirServer::new(
            tree,
            scoring(),
            ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            },
        ))
    }

    fn seed_records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new(
                    i,
                    vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.61 + 0.11) % 1.0],
                )
            })
            .collect()
    }

    fn churn(i: u64) -> Vec<Update> {
        vec![
            Update::Insert(Record::new(
                1_000 + i,
                vec![
                    (i as f64 * 0.29 + 0.05) % 1.0,
                    (i as f64 * 0.43 + 0.31) % 1.0,
                ],
            )),
            Update::Delete {
                id: i,
                attrs: vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.61 + 0.11) % 1.0].into(),
            },
        ]
    }

    fn sorted_ids(s: &GirServer) -> Vec<u64> {
        let mut ids: Vec<u64> = s
            .records_snapshot()
            .unwrap()
            .into_iter()
            .map(|r| r.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn cfg(snapshot_every: u64) -> DurabilityConfig {
        DurabilityConfig {
            dir: PathBuf::new(),
            fsync: FsyncPolicy::Always,
            snapshot_every,
        }
    }

    #[test]
    fn create_apply_recover_roundtrip_with_generation_rolls() {
        let disk = MemDir::new();
        let durable = DurableServer::create_in(
            Box::new(disk.clone()),
            server(&seed_records(40)),
            cfg(3), // several generation rolls over 8 batches
        )
        .unwrap();
        for i in 0..8 {
            durable.apply_updates(&churn(i)).unwrap();
        }
        assert_eq!(durable.batches(), 8);
        assert!(durable.generation() >= 2, "snapshot_every=3 over 8 batches");
        let expected = sorted_ids(durable.inner());
        drop(durable);

        let (recovered, report) =
            DurableServer::recover_in(Box::new(disk.clone()), cfg(3), rebuild).unwrap();
        assert_eq!(report.batches(), 8);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(sorted_ids(recovered.inner()), expected);

        // Old generations were retired on the way.
        let files = disk.list().unwrap();
        assert_eq!(
            files.len(),
            2,
            "exactly one snap + one wal should remain, got {files:?}"
        );
    }

    #[test]
    fn create_refuses_to_clobber_existing_history() {
        let disk = MemDir::new();
        DurableServer::create_in(Box::new(disk.clone()), server(&seed_records(5)), cfg(0)).unwrap();
        let err =
            DurableServer::create_in(Box::new(disk), server(&seed_records(5)), cfg(0)).unwrap_err();
        assert!(matches!(err, DurabilityError::AlreadyExists));
    }

    #[test]
    fn recover_on_empty_dir_is_no_snapshot() {
        let err = DurableServer::recover_in(Box::new(MemDir::new()), cfg(0), rebuild).unwrap_err();
        assert!(matches!(err, DurabilityError::NoSnapshot));
    }

    #[test]
    fn wal_failure_degrades_to_read_only_and_queries_survive() {
        let disk = MemDir::new();
        let clock = CrashClock::new(u64::MAX, 7);
        let crash_dir = CrashDir::new(disk.clone(), clock.clone());
        let durable =
            DurableServer::create_in(Box::new(crash_dir), server(&seed_records(40)), cfg(0))
                .unwrap();
        durable.apply_updates(&churn(0)).unwrap();

        clock.arm(1); // next mutating I/O op dies
        let err = durable.apply_updates(&churn(1)).unwrap_err();
        assert!(matches!(err, DurabilityError::Wal(_)), "got {err}");
        assert!(durable.is_read_only());

        // Later writes are rejected up front; reads keep serving.
        let err = durable.apply_updates(&churn(2)).unwrap_err();
        assert!(matches!(err, DurabilityError::ReadOnly));
        let batch = durable.run_batch(&[TopKRequest::new(vec![0.6, 0.4], 5)]);
        assert!(!batch.responses[0].failed);
        assert_eq!(batch.responses[0].ids.len(), 5);

        // Reboot. The committed prefix is 1 batch, or 2 when the fatal
        // op persisted the full in-flight frame before erroring (the
        // classic ambiguity: an append whose *ack* was lost may still
        // be durable). Either way the recovered state must equal a
        // never-crashed server that applied exactly that prefix.
        clock.disarm();
        let (recovered, report) =
            DurableServer::recover_in(Box::new(disk), cfg(0), rebuild).unwrap();
        assert!(
            (1..=2).contains(&report.batches()),
            "committed prefix {} outside the ok/in-flight window",
            report.batches()
        );
        let mut oracle_ids: Vec<u64> = seed_records(40).iter().map(|r| r.id).collect();
        for i in 0..report.batches() {
            oracle_ids.retain(|&id| id != i);
            oracle_ids.push(1_000 + i);
        }
        oracle_ids.sort_unstable();
        assert_eq!(sorted_ids(recovered.inner()), oracle_ids);
    }

    #[test]
    fn torn_wal_tail_recovers_the_valid_prefix() {
        let disk = MemDir::new();
        let durable =
            DurableServer::create_in(Box::new(disk.clone()), server(&seed_records(40)), cfg(0))
                .unwrap();
        for i in 0..3 {
            durable.apply_updates(&churn(i)).unwrap();
        }
        drop(durable);

        // Simulate a torn append: half a frame of a fourth batch.
        {
            let mut f = disk.open(&super::wal_name(0)).unwrap();
            let frame_len = f.len().unwrap() / 3;
            f.append(&vec![0xAB; (frame_len / 2) as usize]).unwrap();
        }

        let (recovered, report) =
            DurableServer::recover_in(Box::new(disk), cfg(0), rebuild).unwrap();
        assert_eq!(report.replayed, 3);
        assert!(report.truncated_bytes > 0);
        assert_eq!(recovered.batches(), 3);
    }

    #[test]
    fn snapshot_failure_before_commit_is_non_fatal() {
        let disk = MemDir::new();
        let clock = CrashClock::new(u64::MAX, 3);
        let crash_dir = CrashDir::new(disk.clone(), clock.clone());
        let durable =
            DurableServer::create_in(Box::new(crash_dir), server(&seed_records(40)), cfg(2))
                .unwrap();
        durable.apply_updates(&churn(0)).unwrap();

        // Budget 2: the WAL append of batch #2 survives (op 1), the
        // snapshot tmp-create dies (op 2). That failure is before the
        // rename commit, so the server stays writable.
        clock.arm(2);
        durable.apply_updates(&churn(1)).unwrap();
        assert!(!durable.is_read_only());
        assert_eq!(durable.snapshot_failures(), 1);
        assert_eq!(durable.generation(), 0);

        // With the fault cleared the next boundary rolls a generation.
        clock.disarm();
        durable.apply_updates(&churn(2)).unwrap();
        durable.apply_updates(&churn(3)).unwrap();
        assert_eq!(durable.generation(), 1);
        let expected = sorted_ids(durable.inner());
        drop(durable);

        let (recovered, report) =
            DurableServer::recover_in(Box::new(disk), cfg(2), rebuild).unwrap();
        assert_eq!(report.batches(), 4);
        assert_eq!(sorted_ids(recovered.inner()), expected);
    }

    #[test]
    fn filesystem_backed_create_and_recover() {
        let dir = std::env::temp_dir().join(format!("gir-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dcfg = DurabilityConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::EveryN(2),
            snapshot_every: 2,
        };
        let server_cfg = ServerConfig {
            threads: 1,
            durability: Some(dcfg),
            ..ServerConfig::default()
        };

        let records = seed_records(60);
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &records).unwrap();
        let durable = DurableServer::create(tree, scoring(), server_cfg.clone()).unwrap();
        for i in 0..5 {
            durable.apply_updates(&churn(i)).unwrap();
        }
        let expected = sorted_ids(durable.inner());
        let probe = TopKRequest::new(vec![0.7, 0.3], 8);
        let expected_top = durable.run_batch(std::slice::from_ref(&probe)).responses[0]
            .ids
            .clone();
        drop(durable);

        let (recovered, report) = DurableServer::recover(scoring(), server_cfg).unwrap();
        assert_eq!(report.batches(), 5);
        assert_eq!(sorted_ids(recovered.inner()), expected);
        assert_eq!(recovered.run_batch(&[probe]).responses[0].ids, expected_top);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filesystem_recover_refuses_a_logged_foreign_insert_over_an_empty_snapshot() {
        let dir = std::env::temp_dir().join(format!("gir-durable-foreign-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let server_cfg = ServerConfig {
            threads: 1,
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                snapshot_every: 0,
            }),
            ..ServerConfig::default()
        };
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::new(store, 2).unwrap();
        drop(DurableServer::create(tree, scoring(), server_cfg.clone()).unwrap());
        // A WAL logged before `apply_updates` checked dimensions: the
        // fold's only record is 3-d, which no 2-d server may be built on.
        let fs = FsDir::new(&dir).unwrap();
        let (mut wal, _, _) =
            Wal::open(fs.open(&wal_name(0)).unwrap(), FsyncPolicy::Always).unwrap();
        let foreign = WalOp::Insert(Record::new(1, vec![0.1, 0.2, 0.3]));
        wal.append(&WalBatch { ops: vec![foreign] }.encode())
            .unwrap();
        drop(wal);

        let err = DurableServer::recover(scoring(), server_cfg).unwrap_err();
        assert!(
            matches!(
                err,
                DurabilityError::Tree(RTreeError::DimensionMismatch {
                    expected: 2,
                    got: 3
                })
            ),
            "got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record list as a bit-exact multiset: `(id, coordinate bits)`,
    /// sorted.
    fn multiset(records: Vec<Record>) -> Vec<(u64, Vec<u64>)> {
        let mut key: Vec<(u64, Vec<u64>)> = records
            .iter()
            .map(|r| (r.id, r.attrs.coords().iter().map(|c| c.to_bits()).collect()))
            .collect();
        key.sort_unstable();
        key
    }

    /// Opens the WAL of generation `g` for appending raw frames, as an
    /// older writer would have left them.
    fn reopen_wal(disk: &MemDir, g: u64) -> Wal {
        let file = disk.open(&wal_name(g)).unwrap();
        Wal::open(file, FsyncPolicy::Always).unwrap().0
    }

    /// The recovery the fold replaced, kept as its oracle: build from
    /// the newest snapshot, then replay every WAL batch through
    /// `apply_updates`. Reads `disk` without changing it.
    fn replay_oracle(disk: &MemDir) -> Result<Vec<Record>, DurabilityError> {
        let names = disk.list().unwrap();
        let g = names
            .iter()
            .filter_map(|n| parse_generation(n, "snap-"))
            .max()
            .unwrap();
        let snap = SnapshotState::decode(&read_snapshot(disk, &snap_name(g)).unwrap()).unwrap();
        let server = rebuild(snap).map_err(DurabilityError::Tree)?;
        let (_, payloads, _) = Wal::open(disk.open(&wal_name(g)).unwrap(), FsyncPolicy::Always)
            .map_err(DurabilityError::Wal)?;
        for payload in &payloads {
            let batch = WalBatch::decode(payload).map_err(DurabilityError::Wire)?;
            server
                .apply_updates(&updates_from_wal_batch(&batch))
                .map_err(DurabilityError::Tree)?;
        }
        Ok(server.records_snapshot().unwrap())
    }

    /// Logs `history` over `seed`, then asserts that recovery (the
    /// fold) yields bit for bit the record multiset of the replay
    /// oracle and of the server that applied the history live.
    fn assert_fold_matches_replay(seed: &[Record], history: &[Vec<Update>], snapshot_every: u64) {
        let disk = MemDir::new();
        let durable =
            DurableServer::create_in(Box::new(disk.clone()), server(seed), cfg(snapshot_every))
                .unwrap();
        for batch in history {
            durable.apply_updates(batch).unwrap();
        }
        let live = multiset(durable.inner().records_snapshot().unwrap());
        drop(durable);

        let replayed = multiset(replay_oracle(&disk).unwrap());
        let (recovered, report) =
            DurableServer::recover_in(Box::new(disk), cfg(snapshot_every), rebuild).unwrap();
        assert_eq!(report.batches(), history.len() as u64);
        let folded = multiset(recovered.inner().records_snapshot().unwrap());
        assert_eq!(folded, replayed, "fold diverged from replay");
        assert_eq!(folded, live, "fold diverged from the live server");
    }

    fn ins(id: u64, x: f64, y: f64) -> Update {
        Update::Insert(Record::new(id, vec![x, y]))
    }

    fn del(id: u64, x: f64, y: f64) -> Update {
        Update::Delete {
            id,
            attrs: PointD::new(vec![x, y]),
        }
    }

    /// The delete of `seed_records`' record `i`.
    fn del_seed(i: u64) -> Update {
        churn(i).pop().unwrap()
    }

    #[test]
    fn fold_matches_replay_on_edge_histories() {
        let seed = seed_records(20);
        let histories: [(&str, Vec<Vec<Update>>); 6] = [
            (
                "duplicate ids",
                vec![
                    // Same id, different attrs; then the same (id, attrs)
                    // twice; then an id the snapshot already holds.
                    vec![ins(500, 0.1, 0.2), ins(500, 0.3, 0.4), ins(500, 0.1, 0.2)],
                    vec![del(500, 0.1, 0.2), ins(3, 0.9, 0.9)],
                    vec![ins(500, 0.3, 0.4)],
                    vec![del(500, 0.3, 0.4), del(500, 0.1, 0.2), del(500, 0.1, 0.2)],
                    vec![del(3, 0.9, 0.9), ins(3, 0.9, 0.9), ins(3, 0.9, 0.9)],
                ],
            ),
            (
                "delete then reinsert",
                vec![
                    // Within one batch, of a snapshot record ...
                    vec![del_seed(4), churn(4).remove(0), churn(4).remove(1)],
                    // ... across batches, with new attrs ...
                    vec![del_seed(5)],
                    vec![ins(5, 0.5, 0.5)],
                    vec![del(5, 0.5, 0.5), ins(5, 0.5, 0.5)],
                    // ... and insert-then-delete inside one batch.
                    vec![ins(600, 0.7, 0.2), del(600, 0.7, 0.2)],
                ],
            ),
            (
                "missed deletes and the match predicate",
                vec![
                    // Unknown id, known id at the wrong point, NaN.
                    vec![
                        del(999_999, 0.5, 0.5),
                        del(6, 0.5, 0.5),
                        del(7, f64::NAN, 0.5),
                    ],
                    // −0.0 matches 0.0 both ways: seed record 0 sits at
                    // (0.0, 0.11).
                    vec![del(0, -0.0, 0.11), ins(700, 0.0, 0.25), ins(701, -0.0, 0.5)],
                    vec![del(700, -0.0, 0.25), del(701, 0.0, 0.5)],
                    vec![ins(702, f64::NAN, 0.5), del(702, f64::NAN, 0.5)],
                ],
            ),
            (
                "delete everything",
                vec![
                    (0..10).map(del_seed).collect(),
                    (10..20).map(del_seed).collect(),
                ],
            ),
            (
                "delete everything, then refill",
                vec![
                    (0..20).map(del_seed).collect(),
                    vec![ins(800, 0.2, 0.2), ins(801, 0.8, 0.1)],
                ],
            ),
            ("empty batches", vec![vec![], vec![del_seed(9)], vec![]]),
        ];
        for (name, history) in &histories {
            for snapshot_every in [0, 2] {
                eprintln!("history: {name}, snapshot_every {snapshot_every}");
                assert_fold_matches_replay(&seed, history, snapshot_every);
            }
        }
    }

    /// Random churn over a small id space and a coarse grid, so ids,
    /// points and whole records collide often.
    fn random_history(seed: &[Record], batches: usize, rng_seed: u64) -> Vec<Vec<Update>> {
        let mut state = rng_seed | 1;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut live: Vec<Record> = seed.to_vec();
        (0..batches)
            .map(|_| {
                (0..1 + next(6))
                    .map(|_| {
                        let roll = next(100);
                        if roll < 45 || live.is_empty() {
                            let rec = Record::new(
                                next(48),
                                vec![(1 + next(7)) as f64 / 8.0, (1 + next(7)) as f64 / 8.0],
                            );
                            live.push(rec.clone());
                            Update::Insert(rec)
                        } else if roll < 85 {
                            let victim = live.remove(next(live.len() as u64) as usize);
                            Update::Delete {
                                id: victim.id,
                                attrs: victim.attrs,
                            }
                        } else {
                            del(
                                next(48),
                                (1 + next(7)) as f64 / 8.0,
                                (1 + next(7)) as f64 / 8.0,
                            )
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fold_matches_replay_on_random_churn() {
        let seed = seed_records(30);
        for rng_seed in 0..12u64 {
            let history = random_history(&seed, 40, 0x5EED ^ (rng_seed << 8));
            for snapshot_every in [0, 7] {
                assert_fold_matches_replay(&seed, &history, snapshot_every);
            }
        }
        // No snapshots at all: one long WAL folds onto the creation cut.
        assert_fold_matches_replay(&seed, &random_history(&seed, 400, 0xF01D), 0);
    }

    #[test]
    fn wrong_dimension_batch_is_refused_before_the_wal() {
        let disk = MemDir::new();
        let durable =
            DurableServer::create_in(Box::new(disk.clone()), server(&seed_records(20)), cfg(0))
                .unwrap();
        for i in 0..3 {
            durable.apply_updates(&churn(i)).unwrap();
        }
        let bad_insert = vec![
            ins(900, 0.5, 0.5),
            Update::Insert(Record::new(901, vec![0.1; 3])),
        ];
        let bad_delete = vec![Update::Delete {
            id: 5,
            attrs: PointD::new(vec![0.1; 3]),
        }];
        for bad in [bad_insert, bad_delete] {
            let err = durable.apply_updates(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    DurabilityError::Tree(RTreeError::DimensionMismatch {
                        expected: 2,
                        got: 3
                    })
                ),
                "got {err}"
            );
            // Nothing logged, nothing applied, still writable.
            assert!(!durable.is_read_only());
            assert_eq!(durable.batches(), 3);
        }
        assert!(!sorted_ids(durable.inner()).contains(&900));
        durable.apply_updates(&churn(3)).unwrap();
        let expected = sorted_ids(durable.inner());
        drop(durable);

        let (recovered, report) =
            DurableServer::recover_in(Box::new(disk), cfg(0), rebuild).unwrap();
        assert_eq!(report.batches(), 4);
        assert_eq!(sorted_ids(recovered.inner()), expected);
    }

    #[test]
    fn legacy_wal_with_a_wrong_dimension_op_fails_recovery_like_replay() {
        let stray = Record::new(900, vec![0.1, 0.2, 0.3]);
        let legacy_batches = [
            // The stray insert survives the fold ...
            vec![WalOp::Insert(stray.clone())],
            // ... is folded away by its own delete ...
            vec![
                WalOp::Insert(stray.clone()),
                WalOp::Delete {
                    id: stray.id,
                    attrs: stray.attrs.clone(),
                },
            ],
            // ... or is a delete that can never match.
            vec![WalOp::Delete {
                id: 1,
                attrs: stray.attrs.clone(),
            }],
        ];
        for ops in legacy_batches {
            let disk = MemDir::new();
            let durable =
                DurableServer::create_in(Box::new(disk.clone()), server(&seed_records(20)), cfg(0))
                    .unwrap();
            durable.apply_updates(&churn(0)).unwrap();
            drop(durable);
            let mut wal = reopen_wal(&disk, 0);
            wal.append(&WalBatch { ops }.encode()).unwrap();
            wal.append(&wal_batch_from_updates(&churn(1)).encode())
                .unwrap();
            drop(wal);

            let want = replay_oracle(&disk).unwrap_err();
            let got = DurableServer::recover_in(Box::new(disk), cfg(0), rebuild).unwrap_err();
            assert!(
                matches!(
                    got,
                    DurabilityError::Tree(RTreeError::DimensionMismatch {
                        expected: 2,
                        got: 3
                    })
                ),
                "got {got}"
            );
            assert_eq!(got.to_string(), want.to_string());
        }
    }
}
