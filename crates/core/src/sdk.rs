//! The `RichSdk` facade: every Figure-2 feature behind one handle.

use crate::cache::{CacheConfig, FetchSource, FlightGuard, FlightJoin, Lookup, ResponseCache};
use crate::future::ListenableFuture;
use crate::invoke::{
    outcome_kind, response_or_error, Call, FailoverSuccess, InvocationPolicy, RedundantLeg,
    RedundantMode,
};
use crate::monitor::{duration_ms, ServiceMonitor};
use crate::nlu::NluSupport;
use crate::pool::ThreadPool;
use crate::rank::{rank_class, RankOptions, RankedService};
use crate::registry::ServiceRegistry;
use crate::resilience::{BreakerConfig, BreakerRegistry, Deadline};
use crate::SdkError;
use cogsdk_obs::{EventKind, SpanCtx, Telemetry};
use cogsdk_sim::clock::SimClock;
use cogsdk_sim::service::{Request, Response, ServiceError, SimService};
use cogsdk_sim::SimEnv;
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;

/// Opt-in resilience configuration for [`RichSdk::with_resilience`].
///
/// `breakers` enables a per-service [`BreakerRegistry`] so tripped
/// services are skipped without being called; `default_deadline` puts an
/// end-to-end budget on every invocation that does not supply its own.
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// Circuit-breaker configuration; `None` disables breakers.
    pub breakers: Option<BreakerConfig>,
    /// Budget applied to every invocation; `None` leaves calls unbounded.
    pub default_deadline: Option<Duration>,
}

impl Default for ResilienceOptions {
    fn default() -> ResilienceOptions {
        ResilienceOptions {
            breakers: Some(BreakerConfig::default()),
            default_deadline: None,
        }
    }
}

/// The rich SDK.
///
/// Construct once per application, register the services in play, then
/// invoke — synchronously, asynchronously, cached, by explicit name, or
/// by class with ranked selection and failover.
///
/// # Examples
///
/// ```
/// use cogsdk_core::RichSdk;
/// use cogsdk_core::rank::RankOptions;
/// use cogsdk_sim::{SimEnv, SimService, Request};
/// use cogsdk_sim::latency::LatencyModel;
/// use cogsdk_json::json;
///
/// let env = SimEnv::with_seed(1);
/// let sdk = RichSdk::new(&env);
/// sdk.register(SimService::builder("kv-a", "storage")
///     .latency(LatencyModel::constant_ms(5.0)).build(&env));
/// sdk.register(SimService::builder("kv-b", "storage")
///     .latency(LatencyModel::constant_ms(50.0)).build(&env));
///
/// // Select the best storage service automatically.
/// let ok = sdk.invoke_class("storage", &Request::new("op", json!({"k": 1})),
///                           &RankOptions::default()).unwrap();
/// assert_eq!(ok.service, "kv-a");
/// ```
pub struct RichSdk {
    core: Arc<Core>,
    cache: Arc<ResponseCache>,
    pool: Arc<ThreadPool>,
    nlu: NluSupport,
}

/// What an invocation needs of the SDK, behind one handle so a pool job
/// can take a clone to its worker thread and build its [`Call`] there.
struct Core {
    registry: Arc<ServiceRegistry>,
    monitor: Arc<ServiceMonitor>,
    policy: RwLock<InvocationPolicy>,
    telemetry: Telemetry,
    clock: SimClock,
    breakers: Option<Arc<BreakerRegistry>>,
    default_deadline: Option<Duration>,
}

impl Core {
    /// This SDK's monitor, telemetry and breakers, emitting under `span`.
    fn call(&self, span: SpanCtx) -> Call<'_> {
        Call::new(&self.monitor, &self.telemetry, span).breakers(self.breakers.as_deref())
    }

    /// `call` under the default budget, counted from now, unless it brings
    /// a deadline of its own: each invocation gets a fresh budget, not a
    /// shared absolute instant.
    fn budgeted<'a>(&self, call: &Call<'a>) -> Call<'a> {
        match self.default_deadline {
            Some(budget) if call.deadline == Deadline::NONE => {
                call.deadline(Deadline::within(&self.clock, budget))
            }
            _ => *call,
        }
    }

    /// The one path every invocation of a named service takes —
    /// synchronous, asynchronous, or a background cache refresh: breaker
    /// admission, then the retry loop under the configured policy, inside
    /// an `invoke_start`/`invoke_end` span pair under `call`'s span.
    fn invoke(&self, name: &str, request: &Request, call: &Call<'_>) -> Result<Response, SdkError> {
        let service = self
            .registry
            .get(name)
            .ok_or_else(|| SdkError::UnknownService(name.to_string()))?;
        let call = self.budgeted(call);
        let tracer = call.telemetry.tracer();
        tracer.emit(&call.span, || EventKind::InvokeStart {
            class: service.class().to_string(),
            operation: request.operation.clone(),
        });
        if let Err(refused) = call.admit(&service) {
            tracer.emit(&call.span, || EventKind::InvokeEnd {
                service: name.to_string(),
                outcome: refused.kind(),
                latency_ms: 0.0,
            });
            return Err(refused);
        }
        let (retries, backoff) = {
            let policy = self.policy.read();
            (policy.retries_for(name), policy.backoff)
        };
        let (outcome, _) = call.retry(&service, request, retries, backoff);
        tracer.emit(&call.span, || EventKind::InvokeEnd {
            service: name.to_string(),
            outcome: outcome_kind(&outcome.result),
            latency_ms: duration_ms(outcome.latency),
        });
        response_or_error(name, outcome.result)
    }
}

impl std::fmt::Debug for RichSdk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RichSdk")
            .field("services", &self.core.registry.names())
            .finish_non_exhaustive()
    }
}

/// Default response-cache capacity (entries).
const DEFAULT_CACHE_CAPACITY: usize = 4_096;
/// Default response-cache TTL.
const DEFAULT_CACHE_TTL: Duration = Duration::from_secs(300);
/// Default worker-pool size (§2.1: "thread pools of limited size").
const DEFAULT_POOL_SIZE: usize = 8;

/// No breakers, no default deadline.
const NO_RESILIENCE: ResilienceOptions = ResilienceOptions {
    breakers: None,
    default_deadline: None,
};

impl RichSdk {
    /// Creates an SDK bound to a simulation environment with default
    /// cache, pool and policy. Telemetry is disabled (the no-op tracer
    /// costs one branch per probe).
    pub fn new(env: &SimEnv) -> RichSdk {
        RichSdk::with_telemetry(env, Telemetry::disabled())
    }

    /// As [`RichSdk::new`], with every layer (invocations, cache, pool,
    /// monitor ratings) emitting trace events and metrics into
    /// `telemetry`.
    pub fn with_telemetry(env: &SimEnv, telemetry: Telemetry) -> RichSdk {
        RichSdk::with_telemetry_config(
            env,
            DEFAULT_CACHE_CAPACITY,
            DEFAULT_CACHE_TTL,
            DEFAULT_POOL_SIZE,
            telemetry,
        )
    }

    /// Full-control constructor: explicit cache/pool configuration plus a
    /// telemetry sink threaded through the cache, pool and every
    /// invocation path.
    ///
    /// # Panics
    ///
    /// Panics if `cache_ttl` is zero or `pool_size` is zero.
    pub fn with_telemetry_config(
        env: &SimEnv,
        cache_capacity: usize,
        cache_ttl: Duration,
        pool_size: usize,
        telemetry: Telemetry,
    ) -> RichSdk {
        let cache = ResponseCache::with_telemetry(
            env.clock().clone(),
            cache_capacity,
            cache_ttl,
            telemetry.clone(),
        );
        RichSdk::assemble(env, cache, pool_size, telemetry, NO_RESILIENCE)
    }

    /// As [`RichSdk::with_telemetry_config`], with full cache control:
    /// explicit shard count and an optional stale-while-revalidate window
    /// (expired-but-recent entries are served while one background
    /// refresh runs on the worker pool).
    ///
    /// # Panics
    ///
    /// Panics if `cache.default_ttl` is zero or `pool_size` is zero.
    pub fn with_cache_config(
        env: &SimEnv,
        cache: CacheConfig,
        pool_size: usize,
        telemetry: Telemetry,
    ) -> RichSdk {
        let cache = ResponseCache::with_config(env.clock().clone(), cache, telemetry.clone());
        RichSdk::assemble(env, cache, pool_size, telemetry, NO_RESILIENCE)
    }

    /// As [`RichSdk::with_telemetry`], with the resilience layer enabled:
    /// per-service circuit breakers and/or a default end-to-end deadline
    /// budget wrap every invocation path.
    ///
    /// # Panics
    ///
    /// Panics if `options.breakers` carries an invalid
    /// [`BreakerConfig`].
    pub fn with_resilience(
        env: &SimEnv,
        telemetry: Telemetry,
        options: ResilienceOptions,
    ) -> RichSdk {
        let cache = ResponseCache::with_telemetry(
            env.clock().clone(),
            DEFAULT_CACHE_CAPACITY,
            DEFAULT_CACHE_TTL,
            telemetry.clone(),
        );
        RichSdk::assemble(env, cache, DEFAULT_POOL_SIZE, telemetry, options)
    }

    fn assemble(
        env: &SimEnv,
        cache: ResponseCache,
        pool_size: usize,
        telemetry: Telemetry,
        resilience: ResilienceOptions,
    ) -> RichSdk {
        let cache = Arc::new(cache);
        let monitor = Arc::new(ServiceMonitor::new());
        let pool = Arc::new(ThreadPool::with_telemetry(pool_size, telemetry.clone()));
        // Stamp trace events with virtual time: SLO windows and the
        // profiler then reproduce bit-identically under a seeded clock.
        let clock = env.clock().clone();
        telemetry
            .tracer()
            .set_time_source(Arc::new(move || clock.now().as_micros() as f64 / 1e3));
        RichSdk {
            nlu: NluSupport::with_cache(monitor.clone(), pool.clone(), cache.clone()),
            cache,
            pool,
            core: Arc::new(Core {
                registry: Arc::new(ServiceRegistry::new()),
                monitor,
                policy: RwLock::new(InvocationPolicy::default()),
                breakers: resilience.breakers.map(|cfg| {
                    Arc::new(BreakerRegistry::new(
                        env.clock().clone(),
                        telemetry.clone(),
                        cfg,
                    ))
                }),
                default_deadline: resilience.default_deadline,
                clock: env.clock().clone(),
                telemetry,
            }),
        }
    }

    /// The circuit-breaker registry, when resilience is enabled.
    pub fn breakers(&self) -> Option<&Arc<BreakerRegistry>> {
        self.core.breakers.as_ref()
    }

    /// The context for one invocation through this SDK, in a trace of
    /// its own: the SDK's monitor, telemetry and breakers. Narrow it with
    /// [`Call::span`] to stay inside a caller's trace, or with
    /// [`Call::deadline`] to bound the invocation end to end; without a
    /// deadline of its own, an invocation runs under
    /// [`ResilienceOptions::default_deadline`], counted from when it
    /// starts.
    pub fn call(&self) -> Call<'_> {
        self.core.call(self.core.telemetry.tracer().new_trace())
    }

    /// [`call`](RichSdk::call) under a span the caller already opened
    /// (the gateway owns the trace so its tenant and its tail-sampling
    /// verdict cover the whole request).
    pub(crate) fn call_at(&self, span: &SpanCtx) -> Call<'_> {
        self.core.call(*span)
    }

    /// Registers a service.
    pub fn register(&self, service: Arc<SimService>) {
        self.core.registry.register(service);
    }

    /// Replaces the retry/failover policy.
    pub fn set_policy(&self, policy: InvocationPolicy) {
        *self.core.policy.write() = policy;
    }

    /// The service registry.
    pub fn registry(&self) -> &Arc<ServiceRegistry> {
        &self.core.registry
    }

    /// The monitor collecting per-service data.
    pub fn monitor(&self) -> &Arc<ServiceMonitor> {
        &self.core.monitor
    }

    /// The response cache.
    pub fn cache(&self) -> &Arc<ResponseCache> {
        &self.cache
    }

    /// The worker pool.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// The NLU support layer (§2.2).
    pub fn nlu(&self) -> &NluSupport {
        &self.nlu
    }

    /// The telemetry sink this SDK emits into (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.telemetry
    }

    /// Records a user quality rating for a service.
    ///
    /// # Errors
    ///
    /// [`SdkError::InvalidRating`] if `rating` is outside `[0, 1]`; the
    /// rating is not recorded.
    pub fn rate_quality(&self, service: &str, rating: f64) -> Result<(), SdkError> {
        self.core.monitor.rate_quality(service, rating)
    }

    /// Invokes a named service synchronously with the configured retry
    /// policy.
    ///
    /// # Errors
    ///
    /// [`SdkError::UnknownService`], [`SdkError::Rejected`], or
    /// [`SdkError::AllFailed`] when retries are exhausted; on an SDK
    /// [`with_resilience`](RichSdk::with_resilience),
    /// [`SdkError::CircuitOpen`] while the service's breaker is open.
    pub fn invoke(&self, name: &str, request: &Request) -> Result<Response, SdkError> {
        self.invoke_with(name, request, &self.call())
    }

    /// As [`invoke`](RichSdk::invoke), in the caller's context: its span
    /// and, if it has one, its deadline.
    ///
    /// # Errors
    ///
    /// As for [`invoke`](RichSdk::invoke).
    pub fn invoke_with(
        &self,
        name: &str,
        request: &Request,
        call: &Call<'_>,
    ) -> Result<Response, SdkError> {
        self.core.invoke(name, request, call)
    }

    /// Invokes with read-through caching: a fresh cached response for the
    /// same request is returned without a service call (§2). Returns the
    /// response and whether it was served from cache (any source other
    /// than a direct upstream fetch counts as cached).
    ///
    /// Only use for idempotent read operations — the paper is explicit
    /// that storage-style operations must bypass the cache.
    ///
    /// # Errors
    ///
    /// As for [`invoke`](RichSdk::invoke).
    pub fn invoke_cached(
        &self,
        name: &str,
        request: &Request,
    ) -> Result<(Response, bool), SdkError> {
        self.invoke_cached_with(name, request, &self.call())
            .map(|(response, source)| (response, source.served_locally()))
    }

    /// As [`invoke_cached`](RichSdk::invoke_cached), in the caller's
    /// context and reporting *how* the response was obtained:
    ///
    /// * [`FetchSource::Hit`] — a live cache entry, no service call;
    /// * [`FetchSource::Coalesced`] — this caller joined another caller's
    ///   in-flight invocation for the same key and waited for its result
    ///   (single-flight: K concurrent misses cost one upstream call);
    /// * [`FetchSource::Stale`] — an expired-but-recent entry was served
    ///   while one background refresh runs on the worker pool under the
    ///   SDK's breaker/deadline governance (requires a
    ///   [`CacheConfig::stale_while_revalidate`] window, see
    ///   [`RichSdk::with_cache_config`]);
    /// * [`FetchSource::Fetched`] — this caller made the upstream call.
    ///
    /// # Errors
    ///
    /// As for [`invoke`](RichSdk::invoke); a coalesced caller receives
    /// the leader's error verbatim.
    pub fn invoke_cached_with(
        &self,
        name: &str,
        request: &Request,
        call: &Call<'_>,
    ) -> Result<(Response, FetchSource), SdkError> {
        let key = format!("{name}::{}", request.cache_key());
        match self.cache.lookup(&key, &call.span) {
            Lookup::Fresh(hit) => Ok((Response::new(hit), FetchSource::Hit)),
            Lookup::Stale(stale) => {
                // Serve the stale value immediately; at most one refresh
                // per key runs in the background (followers skip it).
                if let FlightJoin::Leader(guard) = self.cache.join_flight(&key, &call.span) {
                    self.spawn_refresh(name, request.clone(), guard, call.span);
                }
                Ok((Response::new(stale), FetchSource::Stale))
            }
            Lookup::Absent => match self.cache.join_flight(&key, &call.span) {
                FlightJoin::Leader(guard) => {
                    // Double-check after winning leadership: a previous
                    // flight may have published between our miss and now.
                    if let Some(value) = self.cache.peek_fresh(&key) {
                        guard.complete_cached(value.clone());
                        return Ok((Response::new(value), FetchSource::Hit));
                    }
                    let result = self.core.invoke(name, request, call);
                    guard.complete(result.clone().map(|response| response.payload));
                    result.map(|response| (response, FetchSource::Fetched))
                }
                FlightJoin::Follower(future) => match (*future.wait()).clone() {
                    Ok(value) => Ok((Response::new(value), FetchSource::Coalesced)),
                    Err(e) => Err(e),
                },
            },
        }
    }

    /// Runs one stale-entry refresh on the worker pool, publishing the
    /// outcome through `guard`. The refresh is governed exactly like a
    /// foreground invocation: breaker admission first, then the retry
    /// loop under a fresh deadline budget.
    fn spawn_refresh(&self, name: &str, request: Request, guard: FlightGuard, parent: SpanCtx) {
        let core = self.core.clone();
        let name = name.to_string();
        self.pool.submit_in(Some(&parent), move || {
            // The refresh stays in the requester's trace (and tenant).
            let call = core.call(core.telemetry.tracer().child(&parent));
            let result = core.invoke(&name, &request, &call);
            guard.complete(result.map(|response| response.payload));
        });
    }

    /// Invokes a *mutating* operation: bypasses the cache entirely (§2:
    /// "if a remote service is performing a storage operation in a remote
    /// server, then the remote service call needs to take place") and
    /// invalidates any cached responses for the given read requests, so
    /// subsequent cached reads cannot observe the pre-write value (§2's
    /// "consistency issues may arise in which a cached value is
    /// obsolete").
    ///
    /// # Errors
    ///
    /// As for [`invoke`](RichSdk::invoke).
    pub fn invoke_write(
        &self,
        name: &str,
        request: &Request,
        invalidates: &[&Request],
    ) -> Result<Response, SdkError> {
        let response = self.invoke(name, request)?;
        for read in invalidates {
            self.cache
                .invalidate(&format!("{name}::{}", read.cache_key()));
        }
        Ok(response)
    }

    /// Invokes asynchronously on the worker pool, returning a
    /// [`ListenableFuture`] (§2's asynchronous invocation). The result
    /// is what [`invoke`](RichSdk::invoke) would have returned.
    pub fn invoke_async(
        &self,
        name: &str,
        request: Request,
    ) -> ListenableFuture<Result<Response, SdkError>> {
        let core = self.core.clone();
        let name = name.to_string();
        self.pool.submit(move || {
            let call = core.call(core.telemetry.tracer().new_trace());
            core.invoke(&name, &request, &call)
        })
    }

    /// Ranks the services of a class (§2's Eq. 1 / Eq. 2 machinery).
    pub fn rank(&self, class: &str, options: &RankOptions) -> Vec<RankedService> {
        rank_class(&self.core.registry, &self.core.monitor, class, options)
    }

    /// Selects from a class by rank and invokes with failover down the
    /// ranking (§2.1).
    ///
    /// # Errors
    ///
    /// [`SdkError::EmptyClass`] if no services are registered for
    /// `class`; otherwise as for failover.
    pub fn invoke_class(
        &self,
        class: &str,
        request: &Request,
        options: &RankOptions,
    ) -> Result<FailoverSuccess, SdkError> {
        self.invoke_class_with(class, request, options, &self.call())
    }

    /// As [`invoke_class`](RichSdk::invoke_class), in the caller's
    /// context. With a [`Call::deadline`] it is bounded end to end: no
    /// failover leg starts (and no backoff sleep is taken) once the
    /// budget has elapsed, regardless of how many candidates remain.
    ///
    /// # Errors
    ///
    /// As for [`invoke_class`](RichSdk::invoke_class), plus
    /// [`SdkError::DeadlineExceeded`] when the budget runs out.
    pub fn invoke_class_with(
        &self,
        class: &str,
        request: &Request,
        options: &RankOptions,
        call: &Call<'_>,
    ) -> Result<FailoverSuccess, SdkError> {
        let call = self.core.budgeted(call);
        let ranked = self.rank(class, options);
        if ranked.is_empty() {
            return Err(SdkError::EmptyClass(class.to_string()));
        }
        let tracer = call.telemetry.tracer();
        tracer.emit(&call.span, || EventKind::InvokeStart {
            class: class.to_string(),
            operation: request.operation.clone(),
        });
        // Latency predictions the ranking was based on, so the winner's
        // observed latency can be compared against what was promised.
        let predictions: Vec<(String, f64)> = ranked
            .iter()
            .map(|r| (r.service.name().to_string(), r.inputs.response_ms))
            .collect();
        let candidates: Vec<Arc<SimService>> = ranked.into_iter().map(|r| r.service).collect();
        let policy = self.core.policy.read().clone();
        let result = call.failover(&candidates, request, &policy);
        if call.telemetry.is_enabled() {
            match &result {
                Ok(ok) => {
                    if let Some((_, predicted)) =
                        predictions.iter().find(|(name, _)| *name == ok.service)
                    {
                        let predicted = *predicted;
                        tracer.emit(&call.span, || EventKind::PredictionIssued {
                            service: ok.service.clone(),
                            predicted_ms: predicted,
                            observed_ms: ok.latency_ms,
                        });
                        call.telemetry.metrics().observe(
                            "sdk_prediction_error_ms",
                            &[("service", &ok.service)],
                            (ok.latency_ms - predicted).abs(),
                        );
                    }
                    tracer.emit(&call.span, || EventKind::InvokeEnd {
                        service: ok.service.clone(),
                        outcome: "ok",
                        latency_ms: ok.latency_ms,
                    });
                }
                Err(e) => {
                    let kind = e.kind();
                    tracer.emit(&call.span, || EventKind::InvokeEnd {
                        service: class.to_string(),
                        outcome: kind,
                        latency_ms: 0.0,
                    });
                }
            }
        }
        result
    }

    /// Invokes the top `k` ranked services of a class *in parallel* on
    /// the worker pool and applies the redundancy mode (§2.1's
    /// multi-service invocation).
    ///
    /// # Errors
    ///
    /// [`SdkError::EmptyClass`] when the class is empty, or
    /// [`SdkError::AllFailed`] when the mode's success requirement is not
    /// met.
    pub fn invoke_redundant_parallel(
        &self,
        class: &str,
        request: &Request,
        options: &RankOptions,
        k: usize,
        mode: RedundantMode,
    ) -> Result<Vec<RedundantLeg>, SdkError> {
        let ranked = self.rank(class, options);
        if ranked.is_empty() {
            return Err(SdkError::EmptyClass(class.to_string()));
        }
        let candidates: Vec<Arc<SimService>> = ranked
            .into_iter()
            .take(k.max(1))
            .map(|r| r.service)
            .collect();
        let root = self.core.budgeted(&self.call());
        root.telemetry
            .tracer()
            .emit(&root.span, || EventKind::InvokeStart {
                class: class.to_string(),
                operation: request.operation.clone(),
            });
        let core = self.core.clone();
        let policy = core.policy.read().clone();
        let request = request.clone();
        let (span, deadline) = (root.span, root.deadline);
        let legs: Vec<RedundantLeg> = self.pool.map_all(candidates, move |service| {
            let leg = core
                .call(core.telemetry.tracer().child(&span))
                .deadline(deadline);
            // A tripped breaker fails the leg without calling the service,
            // so redundant fan-out never wastes pool slots on known-bad
            // replicas.
            let admitted = leg
                .breakers
                .is_none_or(|b| b.admit(service.name(), &leg.span).is_allowed());
            RedundantLeg {
                service: service.name().to_string(),
                result: if admitted {
                    let retries = policy.retries_for(service.name());
                    leg.retry(&service, &request, retries, policy.backoff)
                        .0
                        .result
                } else {
                    Err(ServiceError::Unavailable)
                },
            }
        });
        root.settle(legs, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsdk_json::json;
    use cogsdk_sim::failure::FailurePlan;
    use cogsdk_sim::latency::LatencyModel;

    fn setup() -> (SimEnv, RichSdk) {
        let env = SimEnv::with_seed(21);
        let sdk = RichSdk::new(&env);
        sdk.register(
            SimService::builder("fast", "storage")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        sdk.register(
            SimService::builder("slow", "storage")
                .latency(LatencyModel::constant_ms(50.0))
                .build(&env),
        );
        (env, sdk)
    }

    fn req() -> Request {
        Request::new("get", json!({"key": "k1"}))
    }

    #[test]
    fn invoke_by_name() {
        let (_env, sdk) = setup();
        let resp = sdk.invoke("fast", &req()).unwrap();
        assert_eq!(resp.payload, json!({"key": "k1"}));
        assert!(matches!(
            sdk.invoke("nope", &req()),
            Err(SdkError::UnknownService(_))
        ));
    }

    #[test]
    fn invoke_cached_avoids_second_call() {
        let (env, sdk) = setup();
        let t0 = env.clock().now();
        let (_, hit1) = sdk.invoke_cached("slow", &req()).unwrap();
        let t1 = env.clock().now();
        let (resp2, hit2) = sdk.invoke_cached("slow", &req()).unwrap();
        let t2 = env.clock().now();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(resp2.payload, json!({"key": "k1"}));
        assert_eq!(t1.since(t0), Duration::from_millis(50));
        assert_eq!(t2.since(t1), Duration::ZERO, "cache hit costs no latency");
        let (fast_calls, _) = sdk.registry().get("slow").unwrap().stats();
        assert_eq!(fast_calls, 1);
    }

    #[test]
    fn cache_key_includes_service_name() {
        let (_env, sdk) = setup();
        sdk.invoke_cached("fast", &req()).unwrap();
        let (_, hit) = sdk.invoke_cached("slow", &req()).unwrap();
        assert!(!hit, "different service, different cache slot");
    }

    #[test]
    fn invoke_async_completes_with_listener() {
        let (_env, sdk) = setup();
        let future = sdk.invoke_async("fast", req());
        let result = future.wait();
        assert!(result.is_ok());
        // Listener on an already-complete future fires immediately.
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let fired2 = fired.clone();
        future.add_listener(move |r| {
            assert!(r.is_ok());
            fired2.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        assert!(fired.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn invoke_class_selects_fastest_after_warmup() {
        let (_env, sdk) = setup();
        // Warm the monitor so prediction has data.
        for _ in 0..3 {
            sdk.invoke("fast", &req()).unwrap();
            sdk.invoke("slow", &req()).unwrap();
        }
        let ok = sdk
            .invoke_class("storage", &req(), &RankOptions::default())
            .unwrap();
        assert_eq!(ok.service, "fast");
        assert!(matches!(
            sdk.invoke_class("nope", &req(), &RankOptions::default()),
            Err(SdkError::EmptyClass(_))
        ));
    }

    #[test]
    fn invoke_class_fails_over_when_best_is_down() {
        let env = SimEnv::with_seed(33);
        let sdk = RichSdk::new(&env);
        // Advertised quality makes the dead service rank first (no
        // history exists yet, so ranking trusts metadata).
        sdk.register(
            SimService::builder("best-but-down", "s")
                .latency(LatencyModel::constant_ms(1.0))
                .failures(FailurePlan::flaky(1.0))
                .quality(0.99)
                .build(&env),
        );
        sdk.register(
            SimService::builder("backup", "s")
                .latency(LatencyModel::constant_ms(30.0))
                .quality(0.1)
                .build(&env),
        );
        let ok = sdk
            .invoke_class("s", &req(), &RankOptions::default())
            .unwrap();
        assert_eq!(ok.service, "backup");
        assert_eq!(ok.services_tried, 2);
    }

    #[test]
    fn redundant_parallel_all_returns_k_legs() {
        let (_env, sdk) = setup();
        let legs = sdk
            .invoke_redundant_parallel(
                "storage",
                &req(),
                &RankOptions::default(),
                2,
                RedundantMode::All,
            )
            .unwrap();
        assert_eq!(legs.len(), 2);
        assert!(legs.iter().all(|l| l.result.is_ok()));
    }

    #[test]
    fn redundant_parallel_quorum_failure() {
        let env = SimEnv::with_seed(34);
        let sdk = RichSdk::new(&env);
        for name in ["d1", "d2"] {
            sdk.register(
                SimService::builder(name, "s")
                    .failures(FailurePlan::flaky(1.0))
                    .build(&env),
            );
        }
        let err = sdk
            .invoke_redundant_parallel(
                "s",
                &req(),
                &RankOptions::default(),
                2,
                RedundantMode::Quorum(1),
            )
            .unwrap_err();
        assert!(matches!(err, SdkError::AllFailed(_)));
    }

    #[test]
    fn invoke_write_invalidates_stale_cache_entries() {
        let (_env, sdk) = setup();
        let read = Request::new("get", json!({"key": "k1"}));
        // Prime the cache.
        sdk.invoke_cached("fast", &read).unwrap();
        let (_, hit) = sdk.invoke_cached("fast", &read).unwrap();
        assert!(hit);
        // A write through the SDK invalidates the read's cache slot.
        let write = Request::new("put", json!({"key": "k1", "value": 2}));
        sdk.invoke_write("fast", &write, &[&read]).unwrap();
        let (_, hit) = sdk.invoke_cached("fast", &read).unwrap();
        assert!(!hit, "stale entry must be gone after the write");
    }

    #[test]
    fn consensus_quality_rating_orders_vendor_fleet() {
        use cogsdk_text::analysis::Analyzer;
        use cogsdk_text::services::standard_fleet;
        let env = SimEnv::with_seed(88);
        let sdk = RichSdk::new(&env);
        let fleet = standard_fleet(&env, Arc::new(Analyzer::with_default_lexicons()));
        let texts: Vec<String> = cogsdk_text::corpus::CorpusGenerator::new(5)
            .generate(15)
            .into_iter()
            .map(|d| d.body)
            .collect();
        let ratings = sdk.nlu().rate_quality_by_consensus(&fleet, &texts);
        assert_eq!(ratings.len(), 3, "{ratings:?}");
        let get = |name: &str| ratings.iter().find(|(n, _)| n == name).unwrap().1;
        // Auto-ratings must reproduce the fleet's intrinsic quality order
        // without any human-supplied rater.
        assert!(
            get("nlu-alpha") > get("nlu-gamma"),
            "alpha {} vs gamma {}",
            get("nlu-alpha"),
            get("nlu-gamma")
        );
        // And they land in the monitor for ranking to use.
        assert!(sdk
            .monitor()
            .history("nlu-alpha")
            .unwrap()
            .mean_quality()
            .is_some());
    }

    #[test]
    fn telemetry_reconstructs_failover_trace() {
        use cogsdk_obs::Telemetry;
        let env = SimEnv::with_seed(35);
        let t = Telemetry::new();
        let sdk = RichSdk::with_telemetry(&env, t.clone());
        sdk.register(
            SimService::builder("primary-down", "s")
                .latency(LatencyModel::constant_ms(1.0))
                .failures(FailurePlan::flaky(1.0))
                .quality(0.99)
                .build(&env),
        );
        sdk.register(
            SimService::builder("backup", "s")
                .latency(LatencyModel::constant_ms(30.0))
                .quality(0.1)
                .build(&env),
        );
        let ok = sdk
            .invoke_class("s", &req(), &RankOptions::default())
            .unwrap();
        assert_eq!(ok.service, "backup");
        let trace = t.tracer().events().last().unwrap().trace;
        let events = t.tracer().events_for(trace);
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(names.first(), Some(&"invoke_start"));
        assert_eq!(names.last(), Some(&"invoke_end"));
        assert_eq!(names.iter().filter(|n| **n == "failover_leg").count(), 2);
        // Default policy: 2 retries on the dead primary + 1 backup hit.
        assert_eq!(names.iter().filter(|n| **n == "attempt").count(), 4);
        assert!(names.contains(&"prediction_issued"));
        // Attempts nest under failover-leg child spans of the root.
        let root = events.first().unwrap().span;
        assert!(events
            .iter()
            .filter(|e| e.kind.name() == "failover_leg")
            .all(|e| e.parent == Some(root)));
        // Metrics agree with the trace.
        assert_eq!(t.metrics().counter_sum("sdk_attempts_total"), 4);
        assert_eq!(
            t.metrics()
                .counter_value(
                    "sdk_errors_total",
                    &[("kind", "unavailable"), ("service", "primary-down")]
                )
                .unwrap_or(0)
                + t.metrics()
                    .counter_value(
                        "sdk_errors_total",
                        &[("kind", "timeout"), ("service", "primary-down")]
                    )
                    .unwrap_or(0),
            3
        );
    }

    #[test]
    fn resilient_sdk_trips_breaker_then_fails_fast() {
        use cogsdk_obs::Telemetry;
        let env = SimEnv::with_seed(41);
        let t = Telemetry::new();
        let sdk = RichSdk::with_resilience(
            &env,
            t.clone(),
            ResilienceOptions {
                breakers: Some(BreakerConfig {
                    window: 8,
                    min_calls: 3,
                    trip_error_rate: 0.5,
                    open_for: Duration::from_secs(60),
                    half_open_probes: 1,
                }),
                default_deadline: None,
            },
        );
        sdk.register(
            SimService::builder("dead", "s")
                .latency(LatencyModel::constant_ms(1.0))
                .failures(FailurePlan::flaky(1.0))
                .build(&env),
        );
        // One invoke = 3 attempts (default 2 retries), all failing: trips.
        assert!(matches!(
            sdk.invoke("dead", &req()),
            Err(SdkError::AllFailed(_))
        ));
        let (calls_before, _) = sdk.registry().get("dead").unwrap().stats();
        // Tripped: the next invoke is rejected without touching the service.
        let err = sdk.invoke("dead", &req()).unwrap_err();
        assert!(matches!(err, SdkError::CircuitOpen(_)), "{err}");
        let (calls_after, _) = sdk.registry().get("dead").unwrap().stats();
        assert_eq!(calls_before, calls_after);
        // The trip is visible to operators through metrics.
        assert_eq!(
            t.metrics()
                .gauge_value("sdk_breaker_state", &[("service", "dead")]),
            Some(1.0)
        );
        assert_eq!(
            t.metrics()
                .counter_value("sdk_breaker_rejections_total", &[("service", "dead")]),
            Some(1)
        );
    }

    #[test]
    fn invoke_class_deadline_bounds_total_latency() {
        let env = SimEnv::with_seed(42);
        let sdk = RichSdk::with_resilience(
            &env,
            cogsdk_obs::Telemetry::disabled(),
            ResilienceOptions {
                breakers: None,
                default_deadline: None,
            },
        );
        for name in ["dead-a", "dead-b"] {
            sdk.register(
                SimService::builder(name, "s")
                    .latency(LatencyModel::constant_ms(1.0))
                    .failures(FailurePlan::flaky(1.0))
                    .timeout(Duration::from_millis(40))
                    .build(&env),
            );
        }
        let t0 = env.clock().now();
        let budget = Deadline::within(env.clock(), Duration::from_millis(5));
        let err = sdk
            .invoke_class_with(
                "s",
                &req(),
                &RankOptions::default(),
                &sdk.call().deadline(budget),
            )
            .unwrap_err();
        assert!(matches!(err, SdkError::DeadlineExceeded(_)), "{err}");
        // The first attempt always runs (burning its 40ms timeout), but no
        // retry, backoff sleep, or second leg starts past the budget.
        let elapsed = env.clock().now().since(t0);
        assert!(elapsed < Duration::from_millis(100), "{elapsed:?}");
        let calls: u64 = ["dead-a", "dead-b"]
            .iter()
            .map(|n| sdk.registry().get(n).unwrap().stats().0)
            .sum();
        assert_eq!(calls, 1, "only the first leg's first attempt may run");
    }

    #[test]
    fn invoke_async_is_governed_like_invoke() {
        let env = SimEnv::with_seed(43);
        let sdk = RichSdk::with_resilience(
            &env,
            cogsdk_obs::Telemetry::disabled(),
            ResilienceOptions {
                breakers: Some(BreakerConfig {
                    window: 8,
                    min_calls: 3,
                    trip_error_rate: 0.5,
                    open_for: Duration::from_secs(60),
                    half_open_probes: 1,
                }),
                default_deadline: Some(Duration::from_millis(100)),
            },
        );
        sdk.register(
            SimService::builder("svc", "s")
                .latency(LatencyModel::constant_ms(1.0))
                .failures(FailurePlan::flaky(1.0))
                .timeout(Duration::from_millis(40))
                .build(&env),
        );
        sdk.register(
            SimService::builder("healthy", "s")
                .latency(LatencyModel::constant_ms(1.0))
                .build(&env),
        );
        sdk.set_policy(InvocationPolicy {
            default_retries: 9,
            ..InvocationPolicy::default()
        });
        let calls = |name: &str| sdk.registry().get(name).unwrap().stats().0;
        let breakers = sdk.breakers().unwrap();

        // A success through the async path lands in the breaker's window.
        assert!(sdk.invoke_async("healthy", req()).wait().is_ok());
        assert_eq!(breakers.breaker("healthy").error_rate(), 0.0);
        breakers.record("healthy", false, &sdk.call().span);
        assert_eq!(
            breakers.breaker("healthy").error_rate(),
            0.5,
            "one async success + one recorded failure"
        );

        // The default 100ms budget stops the retry sequence: each failed
        // attempt burns the 40ms timeout, so attempts 1-3 start inside the
        // budget and the other seven retries never run.
        let result = sdk.invoke_async("svc", req()).wait();
        assert!(matches!(*result, Err(SdkError::AllFailed(_))), "{result:?}");
        assert_eq!(calls("svc"), 3);

        // Those three failures tripped the breaker: the next async call is
        // rejected without touching the service.
        assert_eq!(breakers.state("svc"), crate::resilience::BreakerState::Open);
        let result = sdk.invoke_async("svc", req()).wait();
        assert!(
            matches!(*result, Err(SdkError::CircuitOpen(_))),
            "{result:?}"
        );
        assert_eq!(calls("svc"), 3, "the open breaker was consulted first");
    }

    #[test]
    fn monitoring_collects_across_invocations() {
        let (_env, sdk) = setup();
        for _ in 0..5 {
            sdk.invoke("fast", &req()).unwrap();
        }
        let h = sdk.monitor().history("fast").unwrap();
        assert_eq!(h.observations().len(), 5);
        assert_eq!(h.availability(), Some(1.0));
        sdk.rate_quality("fast", 0.9).unwrap();
        assert!(matches!(
            sdk.rate_quality("fast", 1.5),
            Err(SdkError::InvalidRating(_))
        ));
        assert_eq!(
            sdk.monitor().history("fast").unwrap().mean_quality(),
            Some(0.9)
        );
    }
}
