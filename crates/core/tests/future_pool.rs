//! Integration coverage for the async primitives: `ListenableFuture`
//! completion ordering across threads and `ThreadPool` reuse and
//! exhaustion behavior. The inline unit tests cover single-call
//! semantics; these tests stress the cross-thread contracts the
//! single-flight cache and the SDK's async paths depend on.

use cogsdk_core::{ListenableFuture, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// ListenableFuture: completion ordering
// ---------------------------------------------------------------------

/// Every waiter blocked on the same future observes the same completed
/// value, no matter which thread completes it or how many wait.
#[test]
fn many_waiters_all_observe_the_single_completion() {
    let future: ListenableFuture<u64> = ListenableFuture::new();
    let waiters = 8;
    let barrier = Arc::new(Barrier::new(waiters + 1));
    let results: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..waiters)
            .map(|_| {
                let future = future.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    *future.wait()
                })
            })
            .collect();
        barrier.wait();
        // All waiters are at (or past) the barrier; give them a moment
        // to actually block in wait() before completing.
        std::thread::sleep(Duration::from_millis(10));
        future.complete(99);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(results, vec![99; waiters]);
}

/// Listeners registered before completion fire in registration order on
/// the completing thread; listeners registered after completion fire
/// immediately. The two phases never interleave out of order.
#[test]
fn listener_ordering_holds_across_threads() {
    let future: ListenableFuture<i32> = ListenableFuture::new();
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..4 {
        let order = order.clone();
        future.add_listener(move |_| order.lock().unwrap().push(i));
    }
    let completer = {
        let future = future.clone();
        std::thread::spawn(move || future.complete(1))
    };
    completer.join().unwrap();
    // Late listener after cross-thread completion runs synchronously.
    let order2 = order.clone();
    future.add_listener(move |_| order2.lock().unwrap().push(4));
    assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
}

/// A map chain built before completion resolves end-to-end once the
/// root completes from another thread.
#[test]
fn map_chain_resolves_after_cross_thread_completion() {
    let root: ListenableFuture<u32> = ListenableFuture::new();
    let doubled = root.map(|v| v * 2);
    let labeled = doubled.map(|v| format!("v={v}"));
    let completer = {
        let root = root.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            root.complete(21);
        })
    };
    assert_eq!(*labeled.wait(), "v=42");
    assert!(doubled.is_done() && root.is_done());
    completer.join().unwrap();
}

/// `wait_timeout` returns `None` before completion and the value after,
/// and a completion racing the timeout is never lost.
#[test]
fn wait_timeout_races_with_completion() {
    let future: ListenableFuture<i32> = ListenableFuture::new();
    assert!(future.wait_timeout(Duration::from_millis(5)).is_none());
    let completer = {
        let future = future.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            future.complete(5);
        })
    };
    // Generous timeout: must see the value, not time out.
    let got = future.wait_timeout(Duration::from_secs(5));
    assert_eq!(got.map(|v| *v), Some(5));
    completer.join().unwrap();
}

// ---------------------------------------------------------------------
// ThreadPool: reuse and exhaustion
// ---------------------------------------------------------------------

/// The same pool serves many sequential batches — workers are reused,
/// not respawned, and every batch completes fully.
#[test]
fn pool_reuse_across_sequential_batches() {
    let pool = ThreadPool::new(2);
    let done = Arc::new(AtomicUsize::new(0));
    for batch in 0..5 {
        let futures: Vec<_> = (0..6)
            .map(|i| {
                let done = done.clone();
                pool.submit(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                    batch * 10 + i
                })
            })
            .collect();
        let results: Vec<usize> = futures.iter().map(|f| *f.wait()).collect();
        assert_eq!(results, (0..6).map(|i| batch * 10 + i).collect::<Vec<_>>());
    }
    assert_eq!(done.load(Ordering::SeqCst), 30);
    assert_eq!(pool.queue_depth(), 0, "no stragglers after batches drain");
}

/// Submitting far more jobs than workers exhausts the pool: excess jobs
/// queue (visible via `queue_depth`), none are dropped, and concurrency
/// never exceeds the worker count.
#[test]
fn exhaustion_queues_excess_jobs_without_loss() {
    let workers = 2;
    let jobs = 16;
    let pool = ThreadPool::new(workers);
    let in_flight = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(Barrier::new(workers + 1));
    // First, park every worker so the remaining jobs must queue.
    let parked: Vec<_> = (0..workers)
        .map(|_| {
            let gate = gate.clone();
            pool.submit(move || {
                gate.wait();
            })
        })
        .collect();
    let queued: Vec<_> = (0..jobs)
        .map(|i| {
            let in_flight = in_flight.clone();
            let peak = peak.clone();
            pool.submit(move || {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                i
            })
        })
        .collect();
    // All workers are parked at the gate, so every queued job is waiting.
    assert!(
        pool.queue_depth() >= jobs,
        "expected >= {jobs} queued, saw {}",
        pool.queue_depth()
    );
    gate.wait(); // release the workers
    for f in &parked {
        f.wait();
    }
    let results: Vec<usize> = queued.iter().map(|f| *f.wait()).collect();
    assert_eq!(
        results,
        (0..jobs).collect::<Vec<_>>(),
        "no job lost or reordered"
    );
    assert!(
        peak.load(Ordering::SeqCst) <= workers,
        "concurrency exceeded pool size"
    );
    assert_eq!(pool.queue_depth(), 0);
}

/// Futures returned by `submit` compose with `map` and `add_listener`
/// exactly like hand-made ones — the combination the SDK's async
/// invocation path relies on.
#[test]
fn pool_futures_compose_with_map_and_listeners() {
    let pool = ThreadPool::new(3);
    let (fired, heard) = std::sync::mpsc::channel();
    let futures: Vec<_> = (0..9u64)
        .map(|i| {
            let fired = fired.clone();
            let f = pool.submit(move || i * i).map(|sq| sq + 1);
            f.add_listener(move |v| {
                fired.send(*v).expect("the test is still listening");
            });
            f
        })
        .collect();
    let total: u64 = futures.iter().map(|f| *f.wait()).sum();
    assert_eq!(total, (0..9u64).map(|i| i * i + 1).sum::<u64>());
    // Completion wakes waiters before it runs listeners, so a listener
    // may still be running when `wait` returns: receive, don't count.
    let mut values: Vec<u64> = (0..9)
        .map(|_| {
            heard
                .recv_timeout(Duration::from_secs(10))
                .expect("every listener fires")
        })
        .collect();
    values.sort_unstable();
    assert_eq!(values, (0..9u64).map(|i| i * i + 1).collect::<Vec<_>>());
    // Fired listeners are dropped with their senders: nothing more comes.
    drop(fired);
    assert_eq!(
        heard.recv_timeout(Duration::from_secs(10)),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
        "each listener fired exactly once"
    );
}

/// Concurrent submitters from many threads share one pool safely.
#[test]
fn concurrent_submission_from_many_threads() {
    let pool = Arc::new(ThreadPool::new(4));
    let submitters = 8;
    let per_thread = 50;
    let sum = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for t in 0..submitters {
            let pool = pool.clone();
            let sum = sum.clone();
            scope.spawn(move || {
                let futures: Vec<_> = (0..per_thread)
                    .map(|i| pool.submit(move || t * per_thread + i))
                    .collect();
                for f in futures {
                    sum.fetch_add(*f.wait(), Ordering::SeqCst);
                }
            });
        }
    });
    let n = submitters * per_thread;
    assert_eq!(sum.load(Ordering::SeqCst), n * (n - 1) / 2);
}

/// `map_all` under saturation: more items than workers still returns
/// complete, ordered output.
#[test]
fn map_all_under_saturation_stays_ordered() {
    let pool = ThreadPool::new(2);
    let start = Instant::now();
    let out = pool.map_all((0..32).collect(), |i: i32| {
        std::thread::sleep(Duration::from_millis(1));
        i * 3
    });
    assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    // Sanity: it actually ran (not optimized away) but bounded.
    assert!(start.elapsed() >= Duration::from_millis(16));
}
