//! A bounded thread pool for parallel service calls.
//!
//! §2.1: "multiple threads can be used to make parallel service calls…
//! to prevent the number of threads from becoming too large in corner
//! cases, we use thread pools of limited size."
//!
//! A job that panics poisons its own future ([`JobPanicked`]) and the
//! worker that ran it goes on serving: the pool never shrinks and no
//! waiter parks forever.

use crate::future::{JobPanicked, ListenableFuture};
use cogsdk_obs::{tenant_labels, EventKind, SpanCtx, Telemetry};
use crossbeam::channel::{unbounded, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool whose `submit` returns a
/// [`ListenableFuture`].
///
/// # Examples
///
/// ```
/// use cogsdk_core::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let futures: Vec<_> = (0..8).map(|i| pool.submit(move || i * i)).collect();
/// let total: i32 = futures.iter().map(|f| *f.wait()).sum();
/// assert_eq!(total, 140);
/// ```
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
    telemetry: Telemetry,
    /// Jobs submitted but not yet picked up by a worker.
    queued: Arc<AtomicUsize>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("size", &self.size)
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool of `size` workers.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> ThreadPool {
        ThreadPool::with_telemetry(size, Telemetry::disabled())
    }

    /// As [`ThreadPool::new`], emitting enqueue/dequeue events, a
    /// queue-depth gauge, and a queue-wait histogram into `telemetry` —
    /// making queueing delay under pool saturation visible.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn with_telemetry(size: usize, telemetry: Telemetry) -> ThreadPool {
        assert!(size > 0, "thread pool needs at least one worker");
        let (sender, receiver) = unbounded::<Job>();
        let workers = (0..size)
            .map(|i| {
                let receiver = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("cogsdk-pool-{i}"))
                    .spawn(move || {
                        while let Ok(job) = receiver.recv() {
                            // A job's own panic is caught where it settles
                            // its future; this keeps the worker alive
                            // through a panicking listener too.
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
            size,
            telemetry,
            queued: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Jobs submitted but not yet started by a worker.
    pub fn queue_depth(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Submits a job; the returned future completes with its result.
    ///
    /// A job that panics poisons only its own future: it completes with
    /// a [`JobPanicked`] marker, which [`ListenableFuture::join`] returns
    /// as an error and `wait` re-raises in the waiter. The worker keeps
    /// serving, and `pool_job_panics_total` counts the panic when the
    /// pool has telemetry.
    pub fn submit<T: Send + Sync + 'static>(
        &self,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> ListenableFuture<T> {
        self.submit_in(None, job)
    }

    /// As [`submit`](ThreadPool::submit), optionally attaching the job's
    /// enqueue/dequeue events to a caller's span: the job becomes a child
    /// span of `parent` (same trace, same tenant), and `pool_jobs_total`
    /// gains a per-tenant series for tenanted work.
    pub fn submit_in<T: Send + Sync + 'static>(
        &self,
        parent: Option<&SpanCtx>,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> ListenableFuture<T> {
        let future = ListenableFuture::new();
        let future2 = future.clone();
        let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        let payload: Job = if self.telemetry.is_enabled() {
            let ctx = match parent {
                Some(p) => self.telemetry.tracer().child(p),
                None => self.telemetry.tracer().new_trace(),
            };
            self.telemetry
                .tracer()
                .emit(&ctx, || EventKind::PoolEnqueue { queue_depth: depth });
            let metrics = self.telemetry.metrics();
            let tenant = self.telemetry.tracer().tenant_name(ctx.tenant);
            metrics.inc_counter(
                "pool_jobs_total",
                tenant_labels(&[("tenant", tenant.as_deref().unwrap_or(""))]),
            );
            metrics.set_gauge("pool_queue_depth", &[], depth as f64);
            let telemetry = self.telemetry.clone();
            let queued = self.queued.clone();
            let enqueued_at = Instant::now();
            Box::new(move || {
                let depth = queued.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
                let wait_ms = enqueued_at.elapsed().as_secs_f64() * 1e3;
                telemetry.tracer().emit(&ctx, || EventKind::PoolDequeue {
                    queue_wait_ms: wait_ms,
                });
                let metrics = telemetry.metrics();
                metrics.observe("pool_queue_wait_ms", &[], wait_ms);
                metrics.set_gauge("pool_queue_depth", &[], depth as f64);
                if !settle(&future2, job) {
                    let tenant = tenant.as_deref().unwrap_or("");
                    metrics.inc_counter(
                        "pool_job_panics_total",
                        tenant_labels(&[("tenant", tenant)]),
                    );
                }
            })
        } else {
            let queued = self.queued.clone();
            Box::new(move || {
                queued.fetch_sub(1, Ordering::Relaxed);
                settle(&future2, job);
            })
        };
        self.sender
            .as_ref()
            .expect("pool is live until dropped")
            .send(payload)
            .expect("workers outlive the sender");
        future
    }

    /// Runs one closure per item in parallel and collects the results in
    /// input order, blocking until all complete.
    pub fn map_all<T, U>(&self, items: Vec<T>, f: impl Fn(T) -> U + Send + Sync + 'static) -> Vec<U>
    where
        T: Send + 'static,
        U: Send + Sync + Clone + 'static,
    {
        let f = Arc::new(f);
        let futures: Vec<ListenableFuture<U>> = items
            .into_iter()
            .map(|item| {
                let f = f.clone();
                self.submit(move || f(item))
            })
            .collect();
        futures.iter().map(|fut| (*fut.wait()).clone()).collect()
    }
}

/// Runs `job` and completes `future` with its value — or, if it panicked,
/// poisons `future` with the panic. Returns whether the job returned.
fn settle<T: Send + Sync + 'static>(future: &ListenableFuture<T>, job: impl FnOnce() -> T) -> bool {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(value) => {
            future.complete(value);
            true
        }
        Err(payload) => {
            future.poison(JobPanicked::from_payload(&*payload));
            false
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain and exit.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn submit_returns_results() {
        let pool = ThreadPool::new(2);
        let f = pool.submit(|| 2 + 2);
        assert_eq!(*f.wait(), 4);
    }

    #[test]
    fn jobs_run_concurrently_up_to_pool_size() {
        let pool = ThreadPool::new(4);
        let start = Instant::now();
        let futures: Vec<_> = (0..4)
            .map(|_| {
                pool.submit(|| {
                    std::thread::sleep(Duration::from_millis(50));
                })
            })
            .collect();
        for f in &futures {
            f.wait();
        }
        let elapsed = start.elapsed();
        // 4 sleeps of 50ms on 4 workers ≈ 50ms, not 200ms.
        assert!(elapsed < Duration::from_millis(150), "{elapsed:?}");
    }

    #[test]
    fn pool_bounds_concurrency() {
        let pool = ThreadPool::new(1);
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let futures: Vec<_> = (0..6)
            .map(|_| {
                let concurrent = concurrent.clone();
                let peak = peak.clone();
                pool.submit(move || {
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for f in futures {
            f.wait();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "single worker = no overlap");
    }

    #[test]
    fn map_all_preserves_order() {
        let pool = ThreadPool::new(3);
        let out = pool.map_all((0..20).collect(), |i: i32| i * 10);
        assert_eq!(out, (0..20).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..10 {
                let counter = counter.clone();
                pool.submit(move || {
                    std::thread::sleep(Duration::from_millis(2));
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop happens here.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    /// Waits up to 5 s for `f` to settle; whether it did.
    fn settles<T: Send + Sync + 'static>(f: &ListenableFuture<T>) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !f.is_done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        f.is_done()
    }

    #[test]
    fn panicking_jobs_poison_their_futures_and_every_worker_survives() {
        let t = Telemetry::new();
        let pool = ThreadPool::with_telemetry(2, t.clone());
        let panics: Vec<ListenableFuture<()>> = (0..pool.size())
            .map(|i| pool.submit(move || panic!("job {i} fails")))
            .collect();
        for (i, f) in panics.iter().enumerate() {
            assert!(settles(f), "job {i}: a panicking job's future completes");
            assert_eq!(f.join().unwrap_err().message(), format!("job {i} fails"));
        }
        let normal = pool.submit(|| 7);
        assert!(settles(&normal), "a job after the panics still runs");
        assert_eq!(*normal.wait(), 7);
        let alive = pool.workers.iter().filter(|w| !w.is_finished()).count();
        assert_eq!(alive, pool.size());
        let counted = t.metrics().counter_value("pool_job_panics_total", &[]);
        assert_eq!(counted, Some(pool.size() as u64));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_size_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn telemetry_tracks_queue_wait_and_depth() {
        let t = Telemetry::new();
        let pool = ThreadPool::with_telemetry(1, t.clone());
        let futures: Vec<_> = (0..4)
            .map(|_| pool.submit(|| std::thread::sleep(Duration::from_millis(5))))
            .collect();
        for f in &futures {
            f.wait();
        }
        assert_eq!(t.metrics().counter_value("pool_jobs_total", &[]), Some(4));
        let wait = t.metrics().histogram("pool_queue_wait_ms", &[]).unwrap();
        assert_eq!(wait.count, 4);
        // A single worker serializes 5ms jobs: the last job queues ≥ 10ms.
        assert!(wait.sum >= 10.0, "queue wait sum {} too small", wait.sum);
        let events = t.tracer().events();
        let enqueues = events
            .iter()
            .filter(|e| e.kind.name() == "pool_enqueue")
            .count();
        let dequeues = events
            .iter()
            .filter(|e| e.kind.name() == "pool_dequeue")
            .count();
        assert_eq!((enqueues, dequeues), (4, 4));
        assert_eq!(pool.queue_depth(), 0);
    }
}
