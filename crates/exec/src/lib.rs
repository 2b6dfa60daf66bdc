//! Deterministic parallel execution utilities.
//!
//! The NADA pipeline fans training runs out across CPU cores in several
//! places (probe training, screening, finalist evaluation, experiment
//! harnesses). They all share one primitive: an **order-preserving parallel
//! map** over an owned work list. It lives here so `nada-core` and
//! `nada-bench` use a single implementation with a single test suite.
//!
//! [`WorkPool`] provides that primitive, and [`pool_map`] runs it on the
//! process-wide instance: long-lived workers pull from a shared injector
//! queue, so concurrent maps (e.g. episodes of different candidate
//! designs) share the same cores. When one batch runs out of unclaimed
//! items, workers immediately flow to the next queued batch instead of
//! idling at a join barrier. The calling thread always participates,
//! claiming items from its own batch, so nested maps cannot deadlock and a
//! pool with zero workers degrades to sequential execution.
//!
//! Guarantees:
//!
//! * **Order preservation** — slot `i` of the output is `f(items[i])`,
//!   regardless of which worker ran it or when it finished.
//! * **Determinism** — `f` receives each item exactly once; nothing about
//!   scheduling leaks into the results (provided `f` itself is pure).
//! * **Panic propagation** — a panic inside `f` propagates to the caller
//!   once every item of the batch has been accounted for.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Process-wide pool telemetry (`nada-obs` global registry). Handles are
/// resolved once and cached; recording is a relaxed atomic add, so the
/// hot path stays lock- and allocation-free. Telemetry is observational
/// only — nothing here feeds back into scheduling or results.
struct PoolMetrics {
    batches: Arc<nada_obs::Counter>,
    items: Arc<nada_obs::Counter>,
    queue_depth: Arc<nada_obs::Gauge>,
    workers_busy: Arc<nada_obs::Gauge>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        batches: nada_obs::counter("workpool_batches_total"),
        items: nada_obs::counter("workpool_items_total"),
        queue_depth: nada_obs::gauge("workpool_queue_depth"),
        workers_busy: nada_obs::gauge("workpool_workers_busy"),
    })
}

/// The default worker budget: one per available CPU core.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The configured worker budget: `NADA_WORKERS` if set to a valid count,
/// else one per available CPU core. `NADA_WORKERS=0` (or `1`) forces
/// fully sequential execution — useful for debugging and for bit-exact
/// single-core reproductions.
pub fn configured_workers() -> usize {
    match std::env::var("NADA_WORKERS") {
        Ok(s) => s.trim().parse().unwrap_or_else(|_| available_workers()),
        Err(_) => available_workers(),
    }
}

/// How many *scheduler lanes* (concurrently progressing jobs) a service
/// multiplexing searches over the shared pool should run for a given
/// worker budget. Pure so it is testable: `0`/`1` workers degrade to one
/// lane — fully sequential, mirroring what `pool_map` does with no pool
/// threads — and wider machines cap at four lanes, since each job already
/// fans its training waves out across the whole pool and extra lanes past
/// that point only grow the working set.
pub fn lanes_for(workers: usize) -> usize {
    workers.clamp(1, 4)
}

/// The scheduler-lane count for this process's configured worker budget
/// (`NADA_WORKERS` honored exactly like [`configured_workers`]).
pub fn scheduler_lanes() -> usize {
    lanes_for(configured_workers())
}

/// The process-wide [`WorkPool`], sized by [`configured_workers`] on first
/// use. All pipeline fan-outs share it, so concurrent stages and nested
/// maps share cores instead of oversubscribing them.
pub fn global_pool() -> &'static WorkPool {
    static POOL: OnceLock<WorkPool> = OnceLock::new();
    POOL.get_or_init(|| WorkPool::new(configured_workers()))
}

/// Order-preserving parallel map over the process-wide pool: workers are
/// shared across concurrent callers instead of spawned per call.
pub fn pool_map<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    global_pool().map(items, f)
}

/// Index-space variant of [`pool_map`]: `f(i)` fills slot `i` for
/// `i in 0..n`. Lets callers fan out over borrowed state without building
/// an owned work list first.
pub fn pool_map_indexed<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    global_pool().map_indexed(n, f)
}

/// One batch of map work shared between the submitting thread and the
/// pool's workers. `ctx`/`run` type-erase the closure and result slots,
/// which live on the submitter's stack: `map_indexed` does not return
/// until `finished == n`, and claims stop as soon as `next >= n`, so the
/// pointer never outlives the frame it points into.
struct BatchState {
    /// Claim counter: item `i` belongs to whoever fetch-adds `i`.
    next: AtomicUsize,
    n: usize,
    done: Mutex<DoneState>,
    done_cv: Condvar,
    run: unsafe fn(*const (), usize) -> Option<Box<dyn Any + Send>>,
    ctx: *const (),
}

// SAFETY: `ctx` is only dereferenced through `run` for claimed indices
// `< n`, all of which complete before `map_indexed` returns and frees the
// pointee; everything else in the struct is already thread-safe.
unsafe impl Send for BatchState {}
unsafe impl Sync for BatchState {}

struct DoneState {
    finished: usize,
    panic: Option<Box<dyn Any + Send>>,
}

struct PoolQueue {
    batches: VecDeque<Arc<BatchState>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    cv: Condvar,
}

/// Borrowed-closure context for one `map_indexed` call; lives on the
/// caller's stack for the duration of the call.
struct MapCtx<'a, F, R> {
    f: &'a F,
    slots: &'a [Mutex<Option<R>>],
}

/// Type-erased entry point: runs `f(i)`, stores the result in slot `i`,
/// and returns the panic payload instead if `f` panicked.
///
/// SAFETY: `ctx` must point to a live `MapCtx<F, R>` and `i` must be in
/// `0..slots.len()`; `map_indexed` upholds both.
unsafe fn run_entry<F, R>(ctx: *const (), i: usize) -> Option<Box<dyn Any + Send>>
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    let ctx = unsafe { &*(ctx as *const MapCtx<'_, F, R>) };
    match catch_unwind(AssertUnwindSafe(|| (ctx.f)(i))) {
        Ok(r) => {
            *ctx.slots[i].lock().expect("result slot lock") = Some(r);
            None
        }
        Err(payload) => Some(payload),
    }
}

fn record_done(batch: &BatchState, panic: Option<Box<dyn Any + Send>>) {
    let mut done = batch.done.lock().expect("done lock");
    done.finished += 1;
    if done.panic.is_none() {
        done.panic = panic;
    }
    if done.finished == batch.n {
        batch.done_cv.notify_all();
    }
}

/// A pool of long-lived worker threads draining a shared queue of map
/// batches.
///
/// * Batches are served FIFO; when the front batch runs out of unclaimed
///   items, workers flow to the next batch immediately — concurrent maps
///   (different candidate designs, different pipeline stages) share cores
///   with no join barrier between them.
/// * The submitting thread always participates in its own batch, so a
///   pool with zero workers degrades to plain sequential execution and a
///   worker that submits a nested map from inside an item keeps making
///   progress instead of deadlocking: whoever claims an item runs it to
///   completion without ever waiting on the pool.
/// * Results land in their submission-order slot, so output order — and
///   with a pure `f`, output *content* — is independent of worker count
///   and scheduling. One global instance lives behind [`global_pool`];
///   a dedicated instance gives its caller a width of its own (tests, and
///   `run_all`'s experiment-level fan-out).
pub struct WorkPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkPool {
    /// Creates a pool with `total_workers` total concurrency: the
    /// submitting thread plus `total_workers - 1` pool threads. `0` and
    /// `1` both mean "no pool threads" (sequential execution).
    pub fn new(total_workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                batches: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..total_workers.saturating_sub(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// Order-preserving indexed map: returns `[f(0), f(1), ..., f(n-1)]`.
    /// Items run on pool workers and the calling thread; a panic in `f`
    /// resurfaces here once all `n` items are accounted for.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let ctx = MapCtx {
            f: &f,
            slots: &slots,
        };
        let batch = Arc::new(BatchState {
            next: AtomicUsize::new(0),
            n,
            done: Mutex::new(DoneState {
                finished: 0,
                panic: None,
            }),
            done_cv: Condvar::new(),
            run: run_entry::<F, R>,
            ctx: &ctx as *const MapCtx<'_, F, R> as *const (),
        });

        let metrics = pool_metrics();
        metrics.batches.inc();
        if !self.workers.is_empty() {
            let mut q = self.shared.queue.lock().expect("pool queue lock");
            q.batches.push_back(batch.clone());
            metrics.queue_depth.set(q.batches.len() as i64);
            drop(q);
            self.shared.cv.notify_all();
        }

        // Participate: claim and run items until none are left unclaimed.
        loop {
            let i = batch.next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            metrics.workers_busy.inc();
            let panic = unsafe { (batch.run)(batch.ctx, i) };
            metrics.workers_busy.dec();
            metrics.items.inc();
            record_done(&batch, panic);
        }

        // Wait for items claimed by workers, then surface the first panic.
        let panic = {
            let mut done = batch.done.lock().expect("done lock");
            while done.finished < n {
                done = batch.done_cv.wait(done).expect("done wait");
            }
            done.panic.take()
        };
        if !self.workers.is_empty() {
            let mut q = self.shared.queue.lock().expect("pool queue lock");
            q.batches.retain(|b| !Arc::ptr_eq(b, &batch));
            metrics.queue_depth.set(q.batches.len() as i64);
        }
        drop(batch);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("batch complete")
                    .expect("all slots filled")
            })
            .collect()
    }

    /// Order-preserving parallel map over an owned work list.
    pub fn map<T: Send, R: Send>(&self, items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
        let n = items.len();
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.map_indexed(n, |i| {
            let item = slots[i]
                .lock()
                .expect("item slot lock")
                .take()
                .expect("each item is taken exactly once");
            f(item)
        })
    }

    /// Total concurrency this pool provides (pool threads + the caller).
    pub fn concurrency(&self) -> usize {
        self.workers.len() + 1
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue lock");
            q.shutdown = true;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut q = shared.queue.lock().expect("pool queue lock");
    loop {
        if q.shutdown {
            return;
        }
        // Claim one item from the oldest batch that still has any, popping
        // exhausted batches along the way (their claimed items may still
        // be running elsewhere; the submitter tracks completion).
        let metrics = pool_metrics();
        let mut claimed = None;
        while let Some(front) = q.batches.front() {
            let i = front.next.fetch_add(1, Ordering::Relaxed);
            if i < front.n {
                claimed = Some((front.clone(), i));
                break;
            }
            q.batches.pop_front();
            metrics.queue_depth.set(q.batches.len() as i64);
        }
        match claimed {
            Some((batch, i)) => {
                drop(q);
                metrics.workers_busy.inc();
                let panic = unsafe { (batch.run)(batch.ctx, i) };
                metrics.workers_busy.dec();
                metrics.items.inc();
                record_done(&batch, panic);
                q = shared.queue.lock().expect("pool queue lock");
            }
            None => {
                q = shared.cv.wait(q).expect("pool queue wait");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let xs: Vec<usize> = (0..500).collect();
        let ys = pool_map(xs, &|x| x * 2);
        assert_eq!(ys, (0..500).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn lane_counts_degrade_to_sequential_and_cap_at_four() {
        assert_eq!(lanes_for(0), 1);
        assert_eq!(lanes_for(1), 1);
        assert_eq!(lanes_for(2), 2);
        assert_eq!(lanes_for(4), 4);
        assert_eq!(lanes_for(64), 4);
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let calls = AtomicUsize::new(0);
        let ys = pool_map((0..256).collect(), &|x: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 256);
        assert_eq!(ys.len(), 256);
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let ys: Vec<usize> = pool_map(Vec::<usize>::new(), &|x| x);
        assert!(ys.is_empty());
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            pool_map((0..64).collect(), &|x: usize| {
                if x == 17 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn worker_count_is_clamped() {
        // 0 workers degrades to sequential on the calling thread; more
        // workers than items leaves the surplus idle.
        assert_eq!(
            WorkPool::new(0).map(vec![1, 2, 3], &|x| x + 1),
            vec![2, 3, 4]
        );
        assert_eq!(
            WorkPool::new(8).map((0..4).collect(), &|x: usize| x),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn single_worker_matches_sequential() {
        let xs: Vec<i64> = (0..64).collect();
        let seq: Vec<i64> = xs.iter().map(|x| x * x).collect();
        assert_eq!(WorkPool::new(1).map(xs, &|x| x * x), seq);
    }

    #[test]
    fn results_do_not_depend_on_worker_count() {
        let xs: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = xs
            .iter()
            .map(|x| x.wrapping_mul(31).rotate_left(7))
            .collect();
        for workers in [1, 2, 3, 8] {
            let got =
                WorkPool::new(workers).map(xs.clone(), &|x| x.wrapping_mul(31).rotate_left(7));
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn pool_preserves_order() {
        let pool = WorkPool::new(4);
        let ys = pool.map((0..500).collect(), &|x: usize| x * 2);
        assert_eq!(ys, (0..500).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_matches_parallel_map_for_any_worker_count() {
        // A dedicated pool and the process-wide parallel map (`pool_map`)
        // must produce identical outputs for a pure f, at every
        // concurrency including the degenerate 0 ("no pool threads") and 1.
        let xs: Vec<u64> = (0..300).collect();
        let expect = pool_map(xs.clone(), &|x| x.wrapping_mul(37).rotate_left(11));
        for workers in [0, 1, 2, 3, 8] {
            let pool = WorkPool::new(workers);
            let got = pool.map(xs.clone(), &|x| x.wrapping_mul(37).rotate_left(11));
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn pool_runs_every_item_exactly_once() {
        let pool = WorkPool::new(3);
        let calls = AtomicUsize::new(0);
        let ys = pool.map_indexed(256, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 256);
        assert_eq!(ys, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn pool_empty_input_is_a_no_op() {
        let pool = WorkPool::new(2);
        let ys: Vec<usize> = pool.map(Vec::new(), &|x| x);
        assert!(ys.is_empty());
    }

    #[test]
    fn pool_supports_nested_maps() {
        // An item that fans out again through the same pool must complete
        // even when items outnumber threads at both levels.
        let pool = WorkPool::new(2);
        let got = pool.map_indexed(8, |i| {
            let inner = pool.map_indexed(8, |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pool_concurrent_batches_share_workers() {
        // Two threads submitting batches at once: both complete and both
        // stay ordered.
        let pool = WorkPool::new(3);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| pool.map_indexed(100, |i| i + 1));
            let b = scope.spawn(|| pool.map_indexed(100, |i| i * 3));
            assert_eq!(a.join().unwrap(), (1..=100).collect::<Vec<_>>());
            assert_eq!(
                b.join().unwrap(),
                (0..100).map(|i| i * 3).collect::<Vec<_>>()
            );
        });
    }

    #[test]
    fn pool_panics_propagate_to_the_submitter() {
        let pool = WorkPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(64, |i| {
                if i == 17 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(result.is_err(), "item panic must reach the submitter");
        // The pool must stay usable after a panicked batch.
        assert_eq!(pool.map_indexed(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_records_batch_and_item_telemetry() {
        // Metrics are process-global and other tests record concurrently,
        // so assert deltas are at least what this map contributes.
        let m = pool_metrics();
        let (batches0, items0) = (m.batches.get(), m.items.get());
        let pool = WorkPool::new(2);
        let _ = pool.map_indexed(64, |i| i);
        assert!(m.batches.get() > batches0);
        assert!(m.items.get() >= items0 + 64);
    }

    #[test]
    fn global_pool_is_shared_and_usable() {
        let ys = pool_map((0..64).collect(), &|x: usize| x + 7);
        assert_eq!(ys, (7..71).collect::<Vec<_>>());
        let zs = pool_map_indexed(16, |i| i * i);
        assert_eq!(zs, (0..16).map(|i| i * i).collect::<Vec<_>>());
        assert!(global_pool().concurrency() >= 1);
    }
}
