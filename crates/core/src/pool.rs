//! Shard fan-out over the vendored work-stealing pool, with EXPLAIN
//! capture hand-off across thread hops.
//!
//! Every parallel site in the workspace goes through [`fan_out`], which
//! centralises three policies:
//!
//! * **Sequential fallback.** With one item, when the pool policy
//!   says sequential ([`stealpool::global`] is `None` — fewer than two
//!   effective threads, `GIR_POOL_THREADS=0`/`1`, or a
//!   [`stealpool::configure_threads`] override), or on a thread that
//!   called [`stay_off_pool`], items run inline on the caller in index
//!   order. The parallel path must be — and is, see
//!   `tests/pool_differential.rs` — bit-identical to this.
//! * **Span-capture hand-off.** When the calling thread is building an
//!   EXPLAIN tree ([`tracing::capture_active`]), each job runs under
//!   its own fresh [`tracing::Capture`] on whichever thread executes
//!   it; the per-job trees are [`tracing::graft`]ed back into the
//!   caller's capture in **item order** after the join, so the final
//!   tree is identical to the sequential one no matter which threads
//!   ran what or in what order they finished.
//! * **Capture shielding.** When the caller is *not* capturing, jobs
//!   are wrapped in [`tracing::shielded`] so that a pool thread which
//!   happens to be mid-capture (it is helping this fan-out from inside
//!   its own traced request) does not absorb foreign spans into its
//!   request's tree. Collector delivery (global metrics) is unaffected
//!   either way.

use std::cell::Cell;

/// The fan-out threshold: a [`fan_out`] whose total work is below this
/// many items runs inline — below ~64 work items the pool's bookkeeping
/// costs more than the work. One threshold for every call site.
const MIN_ITEMS: usize = 64;

thread_local! {
    static OFF_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Runs every later [`fan_out`] on the calling thread inline.
///
/// For threads outside the pool that serve requests *from* pool jobs —
/// in-process shard workers. A caller outside the pool helps with any
/// queued job while its own fan-out drains, so such a thread could pick
/// up a job that waits on the thread itself, and deadlock.
pub fn stay_off_pool() {
    OFF_POOL.set(true);
}

/// The pool a fan-out of `tasks` items carrying `work_items` total
/// work runs on, or `None` to run it inline.
fn pool_for(tasks: usize, work_items: usize) -> Option<&'static stealpool::Pool> {
    if tasks > 1 && work_items >= MIN_ITEMS && !OFF_POOL.get() {
        stealpool::global()
    } else {
        None
    }
}

/// Runs `f(index, item)` over all items — on the global work-stealing
/// pool when the thread policy allows **and** the fan-out is worth it,
/// inline otherwise — returning results in item order. `work_items` is
/// the caller's measure of the total work behind the items (records
/// scanned, candidates fed, requests served — *not* the task count):
/// fan-outs below `MIN_ITEMS` (64) run inline, where the pool's
/// bookkeeping would dominate. See the module docs for the guarantees.
pub fn fan_out<T, R, F>(items: Vec<T>, work_items: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let Some(pool) = pool_for(items.len(), work_items) else {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    };
    if tracing::capture_active() {
        // Hand the capture across the hop: one fresh capture per job,
        // trees grafted back in item order after the barrier.
        pool.parallel_map(items, &|i, item| {
            let cap = tracing::Capture::begin();
            let r = f(i, item);
            (r, cap.finish())
        })
        .into_iter()
        .map(|(r, tree)| {
            tracing::graft(tree);
            r
        })
        .collect()
    } else {
        pool.parallel_map(items, &|i, item| tracing::shielded(|| f(i, item)))
    }
}

/// True when the next [`fan_out`] over `tasks` items carrying
/// `work_items` total work would use the pool — lets callers skip
/// setup (collecting item vectors, cloning state) that only the
/// parallel path needs.
pub fn would_parallelize(tasks: usize, work_items: usize) -> bool {
    pool_for(tasks, work_items).is_some()
}
