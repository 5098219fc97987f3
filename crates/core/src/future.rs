//! `ListenableFuture`: asynchronous results with completion callbacks.
//!
//! §2: "Our rich SDK implements asynchronous calls to services using the
//! ListenableFuture interface. The ListenableFuture interface extends the
//! Future interface by giving users the ability to register callbacks
//! which comprise code to be executed after the future completes
//! execution." This is the Rust rendition of Guava's contract: poll
//! ([`is_done`](ListenableFuture::is_done)), block
//! ([`wait`](ListenableFuture::wait)), and
//! [`add_listener`](ListenableFuture::add_listener).
//!
//! A future whose computation panicked completes *poisoned* with a
//! [`JobPanicked`] marker instead of a value: [`join`](ListenableFuture::join)
//! returns it as an error, the value accessors re-raise it in the caller,
//! and nobody waits forever.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

type Listener<T> = Box<dyn FnOnce(Result<&T, &JobPanicked>) + Send>;

/// The marker a future completes with when its computation panicked
/// (a [`ThreadPool`](crate::ThreadPool) job, or a [`map`](ListenableFuture::map)
/// over a poisoned future). Carries the panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanicked {
    message: String,
}

impl JobPanicked {
    /// The marker for a caught panic `payload` (as `catch_unwind` returns
    /// it): its message when it is a string, a placeholder otherwise.
    pub(crate) fn from_payload(payload: &(dyn Any + Send)) -> JobPanicked {
        let message = match payload.downcast_ref::<&str>() {
            Some(s) => (*s).to_string(),
            None => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        };
        JobPanicked { message }
    }

    /// The panic message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for JobPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanicked {}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

struct State<T> {
    outcome: Option<Result<Arc<T>, JobPanicked>>,
    listeners: Vec<Listener<T>>,
}

/// A future that can be completed once and observed many times.
///
/// Cloning shares the same underlying slot. Callbacks registered before
/// completion run (on the completing thread) at completion time;
/// callbacks registered after completion run immediately on the
/// registering thread — exactly Guava's semantics.
///
/// # Examples
///
/// ```
/// use cogsdk_core::ListenableFuture;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
///
/// let future: ListenableFuture<i32> = ListenableFuture::new();
/// let fired = Arc::new(AtomicBool::new(false));
/// let fired2 = fired.clone();
/// future.add_listener(move |v| {
///     assert_eq!(*v, 42);
///     fired2.store(true, Ordering::SeqCst);
/// });
/// future.complete(42);
/// assert!(fired.load(Ordering::SeqCst));
/// assert_eq!(*future.wait(), 42);
/// ```
pub struct ListenableFuture<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for ListenableFuture<T> {
    fn clone(&self) -> Self {
        ListenableFuture {
            shared: self.shared.clone(),
        }
    }
}

impl<T> std::fmt::Debug for ListenableFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = self.shared.state.lock().outcome.is_some();
        f.debug_struct("ListenableFuture")
            .field("done", &done)
            .finish()
    }
}

impl<T: Send + Sync + 'static> Default for ListenableFuture<T> {
    fn default() -> Self {
        ListenableFuture::new()
    }
}

/// The value of a settled outcome; re-raises a poisoned one's panic.
fn value_of<T>(outcome: &Result<Arc<T>, JobPanicked>) -> Arc<T> {
    match outcome {
        Ok(value) => value.clone(),
        Err(panicked) => panic!("{panicked}"),
    }
}

impl<T: Send + Sync + 'static> ListenableFuture<T> {
    /// Creates an incomplete future.
    pub fn new() -> ListenableFuture<T> {
        ListenableFuture {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    outcome: None,
                    listeners: Vec::new(),
                }),
                ready: Condvar::new(),
            }),
        }
    }

    /// A future that is already complete.
    pub fn completed(value: T) -> ListenableFuture<T> {
        let f = ListenableFuture::new();
        f.complete(value);
        f
    }

    /// Completes the future, waking waiters and firing listeners.
    ///
    /// # Panics
    ///
    /// Panics if the future is already complete — completing twice is
    /// always a caller bug.
    pub fn complete(&self, value: T) {
        self.settle(Ok(Arc::new(value)));
    }

    /// Completes the future poisoned: waiters wake, [`join`](Self::join)
    /// returns `panicked`, and listeners registered through
    /// [`add_listener`](Self::add_listener) are dropped unrun.
    ///
    /// # Panics
    ///
    /// Panics if the future is already complete.
    pub(crate) fn poison(&self, panicked: JobPanicked) {
        self.settle(Err(panicked));
    }

    fn settle(&self, outcome: Result<Arc<T>, JobPanicked>) {
        let listeners;
        {
            let mut state = self.shared.state.lock();
            assert!(state.outcome.is_none(), "future completed twice");
            state.outcome = Some(outcome.clone());
            listeners = std::mem::take(&mut state.listeners);
        }
        self.shared.ready.notify_all();
        for listener in listeners {
            listener(outcome.as_deref());
        }
    }

    /// Whether the computation has finished (poisoned included).
    pub fn is_done(&self) -> bool {
        self.shared.state.lock().outcome.is_some()
    }

    /// Retrieves the result if complete (non-blocking).
    ///
    /// # Panics
    ///
    /// Re-raises the computation's panic if the future is poisoned.
    pub fn poll(&self) -> Option<Arc<T>> {
        self.shared.state.lock().outcome.as_ref().map(value_of)
    }

    /// Blocks until the result is available.
    ///
    /// # Panics
    ///
    /// Re-raises the computation's panic if the future is poisoned; use
    /// [`join`](Self::join) to handle it as a value.
    pub fn wait(&self) -> Arc<T> {
        value_of(&self.join())
    }

    /// Blocks until the future completes: the result, or the marker of
    /// the panic that poisoned it.
    ///
    /// # Errors
    ///
    /// [`JobPanicked`] if the computation panicked.
    pub fn join(&self) -> Result<Arc<T>, JobPanicked> {
        let mut state = self.shared.state.lock();
        loop {
            if let Some(outcome) = &state.outcome {
                return outcome.clone();
            }
            self.shared.ready.wait(&mut state);
        }
    }

    /// Blocks up to `timeout`; `None` on timeout.
    ///
    /// # Panics
    ///
    /// Re-raises the computation's panic if the future is poisoned.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Arc<T>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        while state.outcome.is_none() {
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            if self
                .shared
                .ready
                .wait_until(&mut state, deadline)
                .timed_out()
            {
                break;
            }
        }
        state.outcome.as_ref().map(value_of)
    }

    /// Runs `f` on the outcome once the future settles: at once if it
    /// has, else on the settling thread.
    fn on_settle(&self, f: impl FnOnce(Result<&T, &JobPanicked>) + Send + 'static) {
        let settled = {
            let mut state = self.shared.state.lock();
            match &state.outcome {
                Some(outcome) => outcome.clone(),
                None => {
                    state.listeners.push(Box::new(f));
                    return;
                }
            }
        };
        f(settled.as_deref());
    }

    /// Registers a completion callback (Guava's `addListener`). Runs
    /// immediately if the future is already complete; never runs if it
    /// is poisoned.
    pub fn add_listener(&self, f: impl FnOnce(&T) + Send + 'static) {
        self.on_settle(move |outcome| {
            if let Ok(value) = outcome {
                f(value);
            }
        });
    }

    /// Transforms the result into a new future (Guava's
    /// `Futures.transform`). A poisoned future maps to a poisoned one.
    pub fn map<U: Send + Sync + 'static>(
        &self,
        f: impl FnOnce(&T) -> U + Send + 'static,
    ) -> ListenableFuture<U> {
        let out = ListenableFuture::new();
        let out2 = out.clone();
        self.on_settle(move |outcome| match outcome {
            Ok(value) => out2.complete(f(value)),
            Err(panicked) => out2.poison(panicked.clone()),
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn complete_then_wait() {
        let f = ListenableFuture::completed(7);
        assert!(f.is_done());
        assert_eq!(*f.wait(), 7);
        assert_eq!(f.poll().map(|v| *v), Some(7));
    }

    #[test]
    fn wait_blocks_until_completion_from_another_thread() {
        let f: ListenableFuture<String> = ListenableFuture::new();
        assert!(!f.is_done());
        assert!(f.poll().is_none());
        let f2 = f.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            f2.complete("done".to_string());
        });
        assert_eq!(*f.wait(), "done");
        t.join().unwrap();
    }

    #[test]
    fn listeners_fire_in_registration_order() {
        let f: ListenableFuture<i32> = ListenableFuture::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let order = order.clone();
            f.add_listener(move |_| order.lock().push(i));
        }
        f.complete(0);
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn late_listener_runs_immediately() {
        let f = ListenableFuture::completed(5);
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = count.clone();
        f.add_listener(move |v| {
            assert_eq!(*v, 5);
            count2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wait_timeout_expires_and_succeeds() {
        let f: ListenableFuture<i32> = ListenableFuture::new();
        assert!(f.wait_timeout(Duration::from_millis(10)).is_none());
        f.complete(3);
        assert_eq!(
            f.wait_timeout(Duration::from_millis(10)).map(|v| *v),
            Some(3)
        );
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_completion_panics() {
        let f = ListenableFuture::completed(1);
        f.complete(2);
    }

    #[test]
    fn map_chains_computations() {
        let f: ListenableFuture<i32> = ListenableFuture::new();
        let g = f.map(|v| v * 2).map(|v| format!("={v}"));
        f.complete(21);
        assert_eq!(*g.wait(), "=42");
    }

    #[test]
    fn map_on_completed_future() {
        let f = ListenableFuture::completed(10);
        assert_eq!(*f.map(|v| v + 1).wait(), 11);
    }

    #[test]
    fn a_poisoned_future_joins_as_an_error_and_maps_to_a_poisoned_one() {
        let f: ListenableFuture<i32> = ListenableFuture::new();
        let mapped = f.map(|v| v + 1);
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        f.add_listener(move |_| {
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        let panicked = JobPanicked::from_payload(&"boom");
        f.poison(panicked.clone());
        assert!(f.is_done() && mapped.is_done());
        assert_eq!(f.join().unwrap_err(), panicked);
        assert_eq!(mapped.join().unwrap_err().message(), "boom");
        assert_eq!(fired.load(Ordering::SeqCst), 0, "listeners skip a poison");
        let raised = std::panic::catch_unwind(|| f.wait()).unwrap_err();
        assert_eq!(
            JobPanicked::from_payload(&*raised).message(),
            "job panicked: boom"
        );
    }

    #[test]
    fn future_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ListenableFuture<i32>>();
    }
}
