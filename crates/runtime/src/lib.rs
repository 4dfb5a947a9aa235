//! # runtime
//!
//! The workspace's shared execution runtime: a persistent
//! [`WorkerPool`] that fans independent jobs out over long-lived worker
//! threads, plus the [`run_parallel`] convenience used by the
//! experiment binaries.
//!
//! ## Design
//!
//! One pool, many batches. Every [`WorkerPool::run`] call forms a
//! *batch*: an ordered job list plus a result slot per job. The batch
//! enqueues up to `threads - 1` *runner* tasks onto the pool's shared
//! queue and the calling thread acts as the final runner, so
//!
//! * `threads == 1` is exactly sequential execution on the caller —
//!   no queue traffic, no worker involvement;
//! * a job may itself call [`WorkerPool::run`] (nested batches): the
//!   nesting thread drives its own batch to completion, so progress
//!   never depends on free workers and nesting cannot deadlock;
//! * results come back in job order regardless of which thread ran
//!   what, and a panicking job is re-raised on the caller after the
//!   whole batch has settled.
//!
//! Worker threads are spawned once (see [`global`]) and reused across
//! batches — the per-step fan-out in `PoisonRecTrainer` pays thread
//! startup cost once per process, not once per training step.
//!
//! ## Telemetry
//!
//! The pool reports into the global [`telemetry`] registry:
//! `runtime_jobs_total` (jobs executed, on any thread),
//! `runtime_batches_total` (per-`run` count), and the
//! `runtime_queue_depth` gauge (helper runners currently parked in the
//! shared queue). Every `run` is a `batch` span on the caller's thread
//! and every claimed job a `job` span on whichever thread ran it, so
//! their wall times land in `runtime_batch_seconds` /
//! `runtime_job_seconds` and, when tracing is enabled
//! (`telemetry::trace`), worker activity shows up on per-worker tracks
//! in the Chrome trace (DESIGN.md §5d). Job results are unaffected.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

pub mod fault;

pub use fault::{FaultPlan, FAULT_EXIT_CODE};

/// Something an off-thread task can nudge when it finishes — typically
/// an event loop parked in a poller. Implementations must be cheap,
/// idempotent, and panic-free (a waker that panics would unseat the
/// pool worker's unwind containment).
pub trait Wake: Send + Sync {
    fn wake(&self);
}

/// Fires the waker exactly once on drop — the task completion signal
/// survives panics inside the task body.
struct WakeOnDrop(Arc<dyn Wake>);

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

/// A job as the pool queue sees it: a type- and lifetime-erased runner.
type QueueTask = Box<dyn FnOnce() + Send + 'static>;

/// A caller-supplied job: runs once, yields a `T`, may borrow `'env`.
pub type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

struct PoolQueue {
    tasks: VecDeque<QueueTask>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
    /// Armed fault-injection script, consulted as each job starts.
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

/// A persistent pool of worker threads executing batches of independent
/// jobs. See the module docs for the batch/runner model.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

/// Per-batch bookkeeping shared between the caller and its runners.
struct Batch<'env, T> {
    /// Unclaimed jobs; runners claim indices through `next`.
    jobs: Vec<Mutex<Option<Job<'env, T>>>>,
    next: AtomicUsize,
    /// One slot per job, filled in job order.
    slots: Vec<Mutex<Option<T>>>,
    /// Jobs not yet completed; guards batch completion.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload observed, re-raised on the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Fault script captured from the pool when the batch formed.
    faults: Option<Arc<FaultPlan>>,
}

impl<T: Send> Batch<'_, T> {
    /// Claims and executes jobs until none are left. Runs on workers
    /// and on the calling thread alike.
    fn drive(&self) {
        loop {
            let i = self.next.fetch_add(1, Relaxed);
            if i >= self.jobs.len() {
                return;
            }
            let job = self.jobs[i]
                .lock()
                .unwrap()
                .take()
                .expect("job claimed twice");
            telemetry::metrics::counter("runtime_jobs_total").inc();
            // The injected fault fires inside the same unwind boundary
            // as the job, so it takes exactly the production panic
            // path: first payload recorded, batch settles, caller
            // re-raises.
            let faults = self.faults.clone();
            let run = move || {
                // On a worker the span lands on that worker's trace
                // track ("runtime-worker-N"); on the caller-helps lane
                // it nests under whatever span the caller has open.
                let _job_span = telemetry::span!("runtime", "job");
                if let Some(plan) = &faults {
                    plan.on_unit();
                }
                job()
            };
            match catch_unwind(AssertUnwindSafe(run)) {
                Ok(value) => *self.slots[i].lock().unwrap() = Some(value),
                Err(payload) => {
                    self.panic.lock().unwrap().get_or_insert(payload);
                }
            }
            let mut remaining = self.remaining.lock().unwrap();
            *remaining -= 1;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` background threads. Zero workers is
    /// valid: every batch then runs inline on its calling thread.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            faults: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("runtime-worker-{i}"))
                    .spawn(move || loop {
                        let task = {
                            let mut queue = shared.queue.lock().unwrap();
                            loop {
                                if let Some(task) = queue.tasks.pop_front() {
                                    telemetry::metrics::gauge("runtime_queue_depth").sub(1);
                                    break Some(task);
                                }
                                if queue.shutdown {
                                    break None;
                                }
                                queue = shared.work_ready.wait(queue).unwrap();
                            }
                        };
                        match task {
                            Some(task) => task(),
                            None => return,
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// Number of background worker threads (the caller adds one more
    /// lane of concurrency on top during `run`).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Arms a deterministic [`FaultPlan`] on this pool: every job any
    /// subsequent batch claims is counted against the plan, and
    /// scripted ordinals panic inside the job's unwind boundary.
    /// Testing-only by intent; arming is per-pool so parallel tests on
    /// their own pools never interfere.
    pub fn arm_faults(&self, plan: Arc<FaultPlan>) {
        *self.shared.faults.lock().unwrap() = Some(plan);
    }

    /// Removes any armed [`FaultPlan`]; in-flight batches keep the plan
    /// they captured at formation.
    pub fn disarm_faults(&self) {
        *self.shared.faults.lock().unwrap() = None;
    }

    #[cfg(test)]
    fn queued_tasks(&self) -> usize {
        self.shared.queue.lock().unwrap().tasks.len()
    }

    /// Enqueues a detached, fire-and-forget task on the pool's workers.
    ///
    /// Unlike [`WorkerPool::run`], the caller does not wait: the task
    /// runs whenever a worker frees up, and the pool's `Drop` joins it
    /// (workers drain the queue before exiting). The serving layer uses
    /// this for per-connection handlers, so long-lived tasks should
    /// poll their own shutdown signal. A panicking task is caught and
    /// counted (`runtime_detached_panics_total`) rather than killing
    /// its worker thread. On a pool with zero workers the task runs
    /// inline, to completion, before `spawn` returns.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        let wrapped: QueueTask = Box::new(move || {
            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                telemetry::metrics::counter("runtime_detached_panics_total").inc();
            }
        });
        if self.workers.is_empty() {
            // No worker will ever pop the queue; run inline (mirrors
            // the zero-worker `run` contract).
            wrapped();
            return;
        }
        let mut queue = self.shared.queue.lock().unwrap();
        queue.tasks.push_back(wrapped);
        telemetry::metrics::gauge("runtime_queue_depth").add(1);
        drop(queue);
        self.shared.work_ready.notify_one();
    }

    /// Like [`WorkerPool::spawn`], but guarantees `waker.wake()` fires
    /// after the task settles — completion or panic alike. The serving
    /// event loop hands its poller waker here so a handler finishing on
    /// a pool worker always kicks the parked loop, even when the
    /// handler's unwind boundary just absorbed a panic.
    pub fn spawn_waking(&self, task: impl FnOnce() + Send + 'static, waker: Arc<dyn Wake>) {
        self.spawn(move || {
            let _wake = WakeOnDrop(waker);
            task();
        });
    }

    /// Runs `jobs` with at most `threads` of them in flight at once,
    /// returning results in job order. The calling thread always
    /// executes jobs itself; `threads - 1` runners are offered to the
    /// background workers. Panics in jobs are re-raised here once the
    /// batch has settled.
    pub fn run<'env, T: Send + 'env>(
        &self,
        threads: usize,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        telemetry::metrics::counter("runtime_batches_total").inc();
        let _batch_span = telemetry::span!("runtime", "batch");
        let threads = threads.max(1).min(n);
        let batch = Arc::new(Batch {
            jobs: jobs.into_iter().map(|j| Mutex::new(Some(j))).collect(),
            next: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
            faults: self.shared.faults.lock().unwrap().clone(),
        });

        // Never enqueue more runners than workers exist: a surplus
        // runner on a saturated pool is eventually popped and becomes a
        // cheap no-op, but on a small pool it would sit in the queue
        // forever (the caller finishes the batch alone).
        let runners = (threads - 1).min(self.workers.len());
        if runners > 0 {
            let mut queue = self.shared.queue.lock().unwrap();
            for _ in 0..runners {
                let runner = Arc::clone(&batch);
                let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || runner.drive());
                // SAFETY: `run` does not return until `remaining == 0`,
                // i.e. every job has finished; a runner outliving that
                // point only performs the bounds check in `drive` (all
                // indices claimed) and drops an Arc whose slots and job
                // cells have already been emptied, so no `'env` data is
                // ever touched after `'env` ends.
                let task: QueueTask = unsafe { std::mem::transmute(task) };
                queue.tasks.push_back(task);
            }
            telemetry::metrics::gauge("runtime_queue_depth").add(runners as i64);
            drop(queue);
            self.shared.work_ready.notify_all();
        }

        batch.drive();
        let mut remaining = batch.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).unwrap();
        }
        drop(remaining);

        if let Some(payload) = batch.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        batch
            .slots
            .iter()
            .map(|slot| slot.lock().unwrap().take().expect("job completed"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide shared pool, sized to the machine (`cores - 1`
/// workers — the thread calling [`WorkerPool::run`] is the final
/// lane). Everything that fans out — trainer scoring batches,
/// experiment cells — shares these workers, so total thread count
/// stays bounded no matter how the fan-outs nest.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(default_parallelism().saturating_sub(1)))
}

/// Hardware parallelism, with a fallback for exotic platforms.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Runs `jobs` on the [`global`] pool with at most `threads` in flight,
/// preserving job order in the results.
pub fn run_parallel<T: Send>(threads: usize, jobs: Vec<Box<dyn FnOnce() -> T + Send>>) -> Vec<T> {
    global().run(threads, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn jobs_squaring(n: usize) -> Vec<Box<dyn FnOnce() -> usize + Send>> {
        (0..n)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect()
    }

    #[test]
    fn preserves_order_across_thread_counts() {
        let expected: Vec<usize> = (0..40).map(|i| i * i).collect();
        for threads in [1, 2, 8, 64] {
            let pool = WorkerPool::new(4);
            assert_eq!(pool.run(threads, jobs_squaring(40)), expected);
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.worker_count(), 0);
        assert_eq!(
            pool.run(8, jobs_squaring(10)),
            (0..10).map(|i| i * i).collect::<Vec<_>>()
        );
        // No runners may be parked in the queue (they would never be
        // popped without workers — an unbounded leak across batches).
        assert_eq!(pool.queued_tasks(), 0);
    }

    #[test]
    fn borrows_non_static_data() {
        let data: Vec<u64> = (0..100).collect();
        let sums = AtomicU64::new(0);
        let pool = WorkerPool::new(3);
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = data
            .chunks(10)
            .map(|chunk| {
                let sums = &sums;
                Box::new(move || {
                    let s: u64 = chunk.iter().sum();
                    sums.fetch_add(s, Relaxed);
                    s
                }) as Box<dyn FnOnce() -> u64 + Send + '_>
            })
            .collect();
        let per_chunk = pool.run(4, jobs);
        assert_eq!(per_chunk.iter().sum::<u64>(), 4950);
        assert_eq!(sums.load(Relaxed), 4950);
    }

    #[test]
    fn nested_batches_make_progress() {
        // A single-worker pool where every outer job immediately fans
        // out again: only caller-helps execution can finish this.
        let pool = WorkerPool::new(1);
        let outer: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6)
            .map(|i| {
                Box::new(move || {
                    let inner = global().run(4, jobs_squaring(8));
                    inner.iter().sum::<usize>() + i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = pool.run(6, outer);
        let inner_sum: usize = (0..8).map(|i| i * i).sum();
        assert_eq!(results, (0..6).map(|i| inner_sum + i).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_after_batch_settles() {
        let pool = WorkerPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..10usize)
            .map(|i| {
                let finished = Arc::clone(&finished);
                Box::new(move || {
                    if i == 3 {
                        panic!("job 3 exploded");
                    }
                    finished.fetch_add(1, Relaxed);
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run(4, jobs)));
        assert!(caught.is_err());
        // Every non-panicking job still ran to completion.
        assert_eq!(finished.load(Relaxed), 9);
    }

    #[test]
    fn pool_reports_job_metrics() {
        // Other tests in this process share the global registry, so
        // only the monotone delta is asserted.
        let jobs = telemetry::metrics::counter("runtime_jobs_total");
        let batches = telemetry::metrics::counter("runtime_batches_total");
        let (jobs_before, batches_before) = (jobs.get(), batches.get());
        let pool = WorkerPool::new(2);
        pool.run(3, jobs_squaring(12));
        assert!(jobs.get() >= jobs_before + 12);
        assert!(batches.get() > batches_before);
        let snap = telemetry::metrics::snapshot(None);
        assert!(snap.counter("runtime_jobs_total").expect("registered") >= jobs_before + 12);
    }

    #[test]
    fn injected_faults_take_the_production_panic_path() {
        // A scripted fault must behave exactly like a real job panic:
        // every other job completes, the first injected payload is
        // re-raised on the caller, and the pool remains usable.
        let pool = WorkerPool::new(2);
        pool.arm_faults(Arc::new(FaultPlan::new().panic_on_job(3).panic_on_job(7)));
        let finished = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..12usize)
            .map(|i| {
                let finished = Arc::clone(&finished);
                Box::new(move || {
                    finished.fetch_add(1, Relaxed);
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run(4, jobs)));
        let payload = caught.expect_err("scripted faults must surface");
        let message = payload
            .downcast_ref::<String>()
            .expect("injected fault panics with a String");
        assert!(message.contains("injected fault"), "{message}");
        // Exactly the two scripted ordinals were suppressed.
        assert_eq!(finished.load(Relaxed), 10);

        // Disarmed, the same pool runs clean batches again.
        pool.disarm_faults();
        assert_eq!(
            pool.run(4, jobs_squaring(9)),
            (0..9).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn armed_pool_counts_jobs_across_batches() {
        // Ordinals are cumulative since arming, so a plan can target a
        // job deep into a multi-batch run.
        let pool = WorkerPool::new(1);
        pool.arm_faults(Arc::new(FaultPlan::new().panic_on_job(5)));
        assert_eq!(pool.run(2, jobs_squaring(4)), vec![0, 1, 4, 9]);
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run(2, jobs_squaring(4))));
        assert!(caught.is_err(), "ordinal 5 falls in the second batch");
    }

    #[test]
    fn spawned_tasks_complete_before_pool_drop() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..16 {
                let hits = Arc::clone(&hits);
                pool.spawn(move || {
                    hits.fetch_add(1, Relaxed);
                });
            }
            // `Drop` joins the workers after they drain the queue.
        }
        assert_eq!(hits.load(Relaxed), 16);
    }

    #[test]
    fn spawn_on_zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let hits = Arc::new(AtomicUsize::new(0));
        let witness = Arc::clone(&hits);
        pool.spawn(move || {
            witness.fetch_add(1, Relaxed);
        });
        assert_eq!(hits.load(Relaxed), 1, "inline fallback must have run");
        assert_eq!(pool.queued_tasks(), 0);
    }

    #[test]
    fn spawned_panic_is_contained() {
        let panics = telemetry::metrics::counter("runtime_detached_panics_total");
        let before = panics.get();
        let pool = WorkerPool::new(1);
        pool.spawn(|| panic!("detached task exploded"));
        // The spawn is detached, so wait for the worker to hit it
        // before asserting the counter moved.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while panics.get() == before && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(panics.get() > before, "detached panic was never recorded");
        // The worker survives: batches still run on it afterwards.
        assert_eq!(pool.run(2, jobs_squaring(5)), vec![0, 1, 4, 9, 16]);
    }

    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(&self) {
            self.0.fetch_add(1, Relaxed);
        }
    }

    #[test]
    fn spawn_waking_fires_the_waker_after_the_task() {
        let waker = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            let witness = Arc::clone(&ran);
            pool.spawn_waking(
                move || {
                    witness.fetch_add(1, Relaxed);
                },
                Arc::clone(&waker) as Arc<dyn Wake>,
            );
        }
        assert_eq!(ran.load(Relaxed), 1);
        assert_eq!(waker.0.load(Relaxed), 1);
    }

    #[test]
    fn spawn_waking_fires_even_when_the_task_panics() {
        let waker = Arc::new(CountingWaker(AtomicUsize::new(0)));
        {
            let pool = WorkerPool::new(1);
            pool.spawn_waking(|| panic!("boom"), Arc::clone(&waker) as Arc<dyn Wake>);
        }
        assert_eq!(waker.0.load(Relaxed), 1, "wake must survive the panic");
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..20 {
            let out = pool.run(3, jobs_squaring(round));
            assert_eq!(out.len(), round);
        }
    }
}
