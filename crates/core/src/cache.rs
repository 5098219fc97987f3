//! Response caching.
//!
//! §2: "the rich SDK allows responses from services to be cached. That
//! way, if a subsequent request is made for the same data, the data can be
//! obtained from the cache which avoids the overhead for making a call to
//! a remote service." The paper also notes the two caveats this module
//! implements: caching must be *opt-in per operation* (storage writes must
//! not be served from cache) and cached values can become obsolete, hence
//! TTL-based expiry.
//!
//! Built for heavy multi-user traffic, the cache is **sharded**: keys are
//! hash-striped over N power-of-two shards, each with its own lock, LRU
//! order and TTL bookkeeping, so concurrent hits on different keys never
//! contend on one global mutex. On top of the shards sit two
//! herd-suppression mechanisms:
//!
//! * **Single-flight coalescing** ([`ResponseCache::join_flight`],
//!   [`ResponseCache::get_or_fetch`]): concurrent misses on the same key
//!   elect one *leader* which performs the upstream call; every other
//!   caller blocks on the shared in-flight result, so K duplicate misses
//!   cost exactly one remote invocation (success *and* failure fan out).
//! * **Stale-while-revalidate** ([`CacheConfig::stale_while_revalidate`]):
//!   an expired-but-recent entry can be served immediately while a single
//!   refresh runs, trading bounded staleness for tail latency.
//!
//! [`CacheStats`] aggregates counters across shards, so the external
//! accounting is unchanged from the single-map design.
//!
//! The cache is generic over its value and error, `ResponseCache<V, E>`,
//! defaulting to the SDK's `Json` responses and [`SdkError`]; the store
//! crate's enhanced data-store client (§3, ref \[11\]) runs the same
//! machine over bytes.

use crate::future::ListenableFuture;
use crate::SdkError;
use cogsdk_json::Json;
use cogsdk_obs::{EventKind, SpanCtx, Telemetry};
use cogsdk_sim::clock::{SimClock, SimTime};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// Cache effectiveness counters, aggregated across every shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that missed (expired entries count as misses).
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Lookups that found only an expired entry.
    pub expirations: u64,
    /// Lookups answered with an expired-but-recent value while a refresh
    /// was allowed to run (stale-while-revalidate; counted inside `hits`).
    pub stale_served: u64,
    /// Callers that joined an in-flight fetch instead of going upstream.
    pub coalesced_waits: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.expirations += other.expirations;
        self.stale_served += other.stale_served;
        self.coalesced_waits += other.coalesced_waits;
    }
}

/// Construction-time configuration for [`ResponseCache`].
///
/// # Examples
///
/// ```
/// use cogsdk_core::cache::CacheConfig;
/// use std::time::Duration;
///
/// let config = CacheConfig {
///     capacity: 1024,
///     shards: 8,
///     stale_while_revalidate: Some(Duration::from_secs(30)),
///     ..CacheConfig::default()
/// };
/// assert_eq!(config.capacity, 1024);
/// ```
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total capacity in entries across all shards (0 disables storage).
    pub capacity: usize,
    /// TTL applied by [`ResponseCache::put`].
    pub default_ttl: Duration,
    /// Requested shard count; rounded down to a power of two and clamped
    /// to `[1, min(256, capacity)]` so no shard has zero capacity.
    pub shards: usize,
    /// Extra window past the TTL during which an expired entry may still
    /// be served by [`ResponseCache::lookup`] while one refresh runs.
    /// `None` disables stale serving entirely.
    pub stale_while_revalidate: Option<Duration>,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            capacity: 4_096,
            default_ttl: Duration::from_secs(300),
            shards: 16,
            stale_while_revalidate: None,
        }
    }
}

impl CacheConfig {
    /// A config for the legacy `(capacity, ttl)` constructors: shard count
    /// scales with capacity (one shard per 64 entries, up to 16) so small
    /// caches keep exact whole-cache LRU order while large ones stripe.
    fn compat(capacity: usize, default_ttl: Duration) -> CacheConfig {
        CacheConfig {
            capacity,
            default_ttl,
            shards: (capacity / 64).clamp(1, 16),
            stale_while_revalidate: None,
        }
    }
}

/// Clamps a requested shard count to a power of two that divides the
/// capacity into non-empty shards.
fn normalize_shards(requested: usize, capacity: usize) -> usize {
    let ceiling = requested.clamp(1, 256).min(capacity.max(1));
    let mut p = 1;
    while p * 2 <= ceiling {
        p *= 2;
    }
    p
}

/// What a [`ResponseCache`] can hold: a value cloned out to every reader
/// and every coalesced waiter. Implemented for every such type.
pub trait CacheValue: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> CacheValue for T {}

/// What a [`ResponseCache`] fetch can fail with: fanned out to every
/// coalesced waiter, and built from [`FlightAbandoned`] for the waiters of
/// a leader that never completed. Implemented for every such type.
pub trait FetchError: CacheValue + From<FlightAbandoned> {}

impl<T: CacheValue + From<FlightAbandoned>> FetchError for T {}

/// The error a flight's waiters receive when its leader dropped its
/// [`FlightGuard`] without completing it — it panicked or bailed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightAbandoned {
    key: String,
}

impl fmt::Display for FlightAbandoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in-flight fetch for {:?} was abandoned by its leader",
            self.key
        )
    }
}

impl From<FlightAbandoned> for SdkError {
    fn from(abandoned: FlightAbandoned) -> SdkError {
        SdkError::AllFailed(abandoned.to_string())
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    stored_at: SimTime,
    ttl: Duration,
    /// LRU stamp: larger = more recently used.
    used_at: u64,
}

#[derive(Debug)]
struct ShardState<V, E> {
    entries: HashMap<String, Entry<V>>,
    /// The shared slots concurrent missers rendezvous on.
    flights: HashMap<String, ListenableFuture<Result<V, E>>>,
    tick: u64,
    stats: CacheStats,
}

#[derive(Debug)]
struct Shard<V, E> {
    /// This shard's slice of the total capacity.
    capacity: usize,
    state: Mutex<ShardState<V, E>>,
}

/// What a [`ResponseCache::lookup`] probe found.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup<V = Json> {
    /// A live entry within its TTL.
    Fresh(V),
    /// An expired entry still inside the stale-while-revalidate window;
    /// the entry is kept so one refresh can replace it.
    Stale(V),
    /// Nothing servable (absent, or expired beyond the stale window and
    /// removed).
    Absent,
}

/// How [`ResponseCache::get_or_fetch`] (or the SDK's cached invoke path)
/// obtained a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchSource {
    /// Served from a live cache entry; no upstream work.
    Hit,
    /// Served an expired-but-recent entry while a refresh runs.
    Stale,
    /// This caller was the flight leader and paid the upstream call.
    Fetched,
    /// This caller joined another caller's in-flight fetch and waited for
    /// its result; no upstream call of its own.
    Coalesced,
}

impl FetchSource {
    /// Whether the caller was served without making its own upstream call.
    pub fn served_locally(&self) -> bool {
        !matches!(self, FetchSource::Fetched)
    }
}

/// Outcome of [`ResponseCache::join_flight`].
#[derive(Debug)]
pub enum FlightJoin<V: CacheValue = Json, E: FetchError = SdkError> {
    /// This caller must perform the upstream fetch and publish the result
    /// through the guard.
    Leader(FlightGuard<V, E>),
    /// Another caller is already fetching; wait on the shared future.
    Follower(ListenableFuture<Result<V, E>>),
}

/// The leader's obligation: exactly one of
/// [`complete`](FlightGuard::complete) /
/// [`complete_with_ttl`](FlightGuard::complete_with_ttl) must be called
/// with the fetch outcome. Successful values are stored in the cache
/// *before* waiters are woken, so no waiter can re-miss and start a second
/// flight. Dropping the guard without completing (leader panicked or
/// bailed) fails the flight over to waiters with [`FlightAbandoned`]
/// instead of deadlocking them.
#[derive(Debug)]
pub struct FlightGuard<V: CacheValue = Json, E: FetchError = SdkError> {
    inner: Arc<CacheInner<V, E>>,
    key: String,
    shard: usize,
    future: ListenableFuture<Result<V, E>>,
    done: bool,
}

impl<V: CacheValue, E: FetchError> FlightGuard<V, E> {
    /// Publishes the fetch outcome: `Ok` values are stored under the
    /// default TTL, then all waiters are woken with the result.
    pub fn complete(self, result: Result<V, E>) {
        let ttl = self.inner.default_ttl;
        self.finish(result, ttl);
    }

    /// As [`complete`](FlightGuard::complete) with an explicit TTL for the
    /// stored value.
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is zero.
    pub fn complete_with_ttl(self, value: V, ttl: Duration) {
        assert!(!ttl.is_zero(), "TTL must be positive");
        self.finish(Ok(value), ttl);
    }

    /// Completes the flight with a value that is *already* stored (the
    /// leader's double-check found it), skipping the re-put so the
    /// entry's TTL clock is not extended by a fetch that never happened.
    fn complete_cached(mut self, value: V) {
        self.done = true;
        self.inner.shards[self.shard]
            .state
            .lock()
            .flights
            .remove(&self.key);
        self.future.complete(Ok(value));
    }

    fn finish(mut self, result: Result<V, E>, ttl: Duration) {
        self.done = true;
        if let Ok(value) = &result {
            self.inner.put_with_ttl(&self.key, value.clone(), ttl);
        }
        self.inner.shards[self.shard]
            .state
            .lock()
            .flights
            .remove(&self.key);
        self.future.complete(result);
    }
}

impl<V: CacheValue, E: FetchError> Drop for FlightGuard<V, E> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.inner.shards[self.shard]
            .state
            .lock()
            .flights
            .remove(&self.key);
        let key = std::mem::take(&mut self.key);
        self.future.complete(Err(E::from(FlightAbandoned { key })));
    }
}

/// A sharded TTL + LRU response cache keyed by request cache keys, driven
/// by the simulation clock. Cloning shares the same underlying shards.
///
/// # Examples
///
/// ```
/// use cogsdk_core::ResponseCache;
/// use cogsdk_sim::SimEnv;
/// use cogsdk_json::json;
/// use std::time::Duration;
///
/// let env = SimEnv::with_seed(1);
/// let cache = ResponseCache::new(env.clock().clone(), 100, Duration::from_secs(60));
/// cache.put("key", json!({"cached": true}));
/// assert_eq!(cache.get("key"), Some(json!({"cached": true})));
/// env.clock().advance(Duration::from_secs(61));
/// assert_eq!(cache.get("key"), None); // expired
/// ```
///
/// Duplicate concurrent misses collapse to one upstream call:
///
/// ```
/// use cogsdk_core::ResponseCache;
/// use cogsdk_sim::SimEnv;
/// use cogsdk_json::json;
/// use std::time::Duration;
///
/// let env = SimEnv::with_seed(1);
/// let cache = ResponseCache::new(env.clock().clone(), 100, Duration::from_secs(60));
/// let (value, source) = cache.get_or_fetch("key", || Ok(json!(42))).unwrap();
/// assert_eq!(value, json!(42));
/// assert_eq!(cache.get("key"), Some(json!(42))); // stored by the flight
/// ```
#[derive(Debug, Clone)]
pub struct ResponseCache<V = Json, E = SdkError> {
    inner: Arc<CacheInner<V, E>>,
}

#[derive(Debug)]
struct CacheInner<V, E> {
    clock: SimClock,
    capacity: usize,
    default_ttl: Duration,
    stale_while_revalidate: Option<Duration>,
    telemetry: Telemetry,
    shards: Vec<Shard<V, E>>,
    mask: u64,
}

/// The `cache` metric label for [`ResponseCache`] series.
const CACHE_LABEL: (&str, &str) = ("cache", "response");

impl<V, E> CacheInner<V, E> {
    fn shard_for(&self, key: &str) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() & self.mask) as usize
    }

    /// Stores a value, refreshing TTL and LRU recency atomically when the
    /// key already exists, and evicting this shard's LRU tail on overflow.
    fn put_with_ttl(&self, key: &str, value: V, ttl: Duration) {
        assert!(!ttl.is_zero(), "TTL must be positive");
        if self.capacity == 0 {
            return;
        }
        let idx = self.shard_for(key);
        let shard = &self.shards[idx];
        let now = self.clock.now();
        let mut evicted = Vec::new();
        {
            let mut state = shard.state.lock();
            state.tick += 1;
            let tick = state.tick;
            // One insert under one lock: an existing entry's value, TTL
            // clock and LRU stamp are all replaced atomically — a reader
            // can never observe a refreshed value with a stale TTL.
            state.entries.insert(
                key.to_string(),
                Entry {
                    value,
                    stored_at: now,
                    ttl,
                    used_at: tick,
                },
            );
            while state.entries.len() > shard.capacity {
                let lru = state
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.used_at)
                    .map(|(k, _)| k.clone())
                    .expect("nonempty");
                state.entries.remove(&lru);
                state.stats.evictions += 1;
                evicted.push(lru);
            }
        }
        if self.telemetry.is_enabled() {
            for lru in evicted {
                let ctx = self.telemetry.tracer().new_trace();
                self.telemetry
                    .tracer()
                    .emit(&ctx, || EventKind::CacheEvict { key: lru.clone() });
                self.telemetry
                    .metrics()
                    .inc_counter("cache_evictions_total", &[CACHE_LABEL]);
            }
            self.publish_shard_gauge(idx);
        }
    }

    fn publish_shard_gauge(&self, idx: usize) {
        let len = self.shards[idx].state.lock().entries.len();
        let shard = idx.to_string();
        self.telemetry.metrics().set_gauge(
            "sdk_cache_shard_entries",
            &[CACHE_LABEL, ("shard", &shard)],
            len as f64,
        );
    }

    fn record_probe(&self, idx: usize, ctx: &SpanCtx, key: &str, hit: bool, expired: bool) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.tracer().emit(ctx, || {
            if hit {
                EventKind::CacheHit {
                    key: key.to_string(),
                }
            } else {
                EventKind::CacheMiss {
                    key: key.to_string(),
                }
            }
        });
        let metrics = self.telemetry.metrics();
        let result = if hit { "hit" } else { "miss" };
        metrics.inc_counter("cache_requests_total", &[CACHE_LABEL, ("result", result)]);
        // Tenanted probes additionally land in a per-tenant series; the
        // untenanted total above stays the all-traffic aggregate.
        if let Some(tenant) = self.telemetry.tracer().tenant_name(ctx.tenant) {
            metrics.inc_counter(
                "cache_requests_total",
                &[CACHE_LABEL, ("result", result), ("tenant", &tenant)],
            );
        }
        let shard = idx.to_string();
        metrics.inc_counter(
            "sdk_cache_shard_requests_total",
            &[CACHE_LABEL, ("shard", &shard), ("result", result)],
        );
        if expired {
            metrics.inc_counter("cache_expirations_total", &[CACHE_LABEL]);
        }
    }
}

impl ResponseCache {
    /// Creates a cache with the given capacity and default TTL. The shard
    /// count scales with capacity (one per 64 entries, up to 16).
    ///
    /// # Panics
    ///
    /// Panics if `default_ttl` is zero.
    pub fn new(clock: SimClock, capacity: usize, default_ttl: Duration) -> ResponseCache {
        ResponseCache::with_config(
            clock,
            CacheConfig::compat(capacity, default_ttl),
            Telemetry::disabled(),
        )
    }

    /// As [`ResponseCache::new`], with hit/miss/evict events and counters
    /// flowing into `telemetry`.
    ///
    /// # Panics
    ///
    /// Panics if `default_ttl` is zero.
    pub fn with_telemetry(
        clock: SimClock,
        capacity: usize,
        default_ttl: Duration,
        telemetry: Telemetry,
    ) -> ResponseCache {
        ResponseCache::with_config(clock, CacheConfig::compat(capacity, default_ttl), telemetry)
    }

    /// Full-control constructor: explicit shard count and
    /// stale-while-revalidate window.
    ///
    /// # Panics
    ///
    /// Panics if `config.default_ttl` is zero.
    pub fn with_config(
        clock: SimClock,
        config: CacheConfig,
        telemetry: Telemetry,
    ) -> ResponseCache {
        ResponseCache::build(clock, config, telemetry)
    }
}

impl<V: CacheValue, E: FetchError> ResponseCache<V, E> {
    /// As [`with_config`](ResponseCache::with_config), for any value and
    /// error type: `ResponseCache::<Bytes, StoreError>::build(..)`.
    ///
    /// # Panics
    ///
    /// Panics if `config.default_ttl` is zero.
    pub fn build(clock: SimClock, config: CacheConfig, telemetry: Telemetry) -> Self {
        assert!(!config.default_ttl.is_zero(), "TTL must be positive");
        let shards = normalize_shards(config.shards, config.capacity);
        let base = config.capacity / shards;
        let rem = config.capacity % shards;
        let shards: Vec<Shard<V, E>> = (0..shards)
            .map(|i| Shard {
                capacity: base + usize::from(i < rem),
                state: Mutex::new(ShardState {
                    entries: HashMap::new(),
                    flights: HashMap::new(),
                    tick: 0,
                    stats: CacheStats::default(),
                }),
            })
            .collect();
        ResponseCache {
            inner: Arc::new(CacheInner {
                clock,
                capacity: config.capacity,
                default_ttl: config.default_ttl,
                stale_while_revalidate: config.stale_while_revalidate,
                telemetry,
                mask: shards.len() as u64 - 1,
                shards,
            }),
        }
    }

    /// The configured total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of lock-striped shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Live (possibly stale) entries per shard, for tests and telemetry.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| s.state.lock().entries.len())
            .collect()
    }

    /// Current counters, summed over shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.inner.shards {
            total.add(&shard.state.lock().stats);
        }
        total
    }

    /// Number of live (possibly stale) entries.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.state.lock().entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a fresh entry; expired entries are removed and miss,
    /// regardless of any stale-while-revalidate window (use
    /// [`lookup`](ResponseCache::lookup) for stale serving).
    pub fn get(&self, key: &str) -> Option<V> {
        let ctx = self.inner.telemetry.tracer().new_trace();
        match self.probe(key, &ctx, false) {
            Lookup::Fresh(v) => Some(v),
            _ => None,
        }
    }

    /// Looks up an entry with stale-while-revalidate semantics: fresh
    /// entries hit; expired entries inside the configured stale window are
    /// returned as [`Lookup::Stale`] *without* being removed (so a single
    /// refresh can replace them in place); anything older is removed and
    /// misses. The hit/miss event is emitted under the caller's span, so
    /// cache probes appear inside invocation traces.
    pub fn lookup(&self, key: &str, ctx: &SpanCtx) -> Lookup<V> {
        self.probe(key, ctx, true)
    }

    /// Shared probe: `allow_stale` selects the lookup/get semantics.
    fn probe(&self, key: &str, ctx: &SpanCtx, allow_stale: bool) -> Lookup<V> {
        let inner = &self.inner;
        let idx = inner.shard_for(key);
        let now = inner.clock.now();
        let swr = if allow_stale {
            inner.stale_while_revalidate
        } else {
            None
        };
        let mut stale_served = false;
        let (found, expired) = {
            let mut state = inner.shards[idx].state.lock();
            state.tick += 1;
            let tick = state.tick;
            match state.entries.get_mut(key) {
                Some(entry) => {
                    let age = now.since(entry.stored_at);
                    if age < entry.ttl {
                        entry.used_at = tick;
                        let value = entry.value.clone();
                        state.stats.hits += 1;
                        (Lookup::Fresh(value), false)
                    } else if swr.is_some_and(|window| age < entry.ttl + window) {
                        // Keep the entry: it is the value stale readers are
                        // served while exactly one refresh flight runs.
                        entry.used_at = tick;
                        let value = entry.value.clone();
                        state.stats.hits += 1;
                        state.stats.stale_served += 1;
                        stale_served = true;
                        (Lookup::Stale(value), false)
                    } else {
                        state.entries.remove(key);
                        state.stats.expirations += 1;
                        state.stats.misses += 1;
                        (Lookup::Absent, true)
                    }
                }
                None => {
                    state.stats.misses += 1;
                    (Lookup::Absent, false)
                }
            }
        };
        let hit = !matches!(found, Lookup::Absent);
        inner.record_probe(idx, ctx, key, hit, expired);
        if stale_served && inner.telemetry.is_enabled() {
            inner
                .telemetry
                .metrics()
                .inc_counter("cache_stale_served_total", &[CACHE_LABEL]);
            inner
                .telemetry
                .tracer()
                .emit(ctx, || EventKind::CacheStaleServed {
                    key: key.to_string(),
                });
        }
        found
    }

    /// Read-only freshness check: returns a live entry's value without
    /// touching stats, LRU recency, or expired entries. Used by flight
    /// leaders to double-check whether a previous flight published the
    /// value between this caller's miss and its flight acquisition — the
    /// re-check is what makes "exactly one upstream call per key per
    /// refresh window" hold even when a caller is descheduled between
    /// lookup and join.
    fn peek_fresh(&self, key: &str) -> Option<V> {
        let inner = &self.inner;
        let idx = inner.shard_for(key);
        let now = inner.clock.now();
        let state = inner.shards[idx].state.lock();
        state
            .entries
            .get(key)
            .and_then(|entry| (now.since(entry.stored_at) < entry.ttl).then(|| entry.value.clone()))
    }

    /// Stores a value under the default TTL. Storing over an existing key
    /// refreshes its TTL clock and LRU recency atomically.
    pub fn put(&self, key: impl Into<String>, value: V) {
        self.inner
            .put_with_ttl(&key.into(), value, self.inner.default_ttl);
    }

    /// Stores a value with an explicit TTL.
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is zero.
    pub fn put_with_ttl(&self, key: impl Into<String>, value: V, ttl: Duration) {
        self.inner.put_with_ttl(&key.into(), value, ttl);
    }

    /// Invalidates one key (consistency hook for writes-through): returns
    /// whether an entry was present.
    pub fn invalidate(&self, key: &str) -> bool {
        let idx = self.inner.shard_for(key);
        let removed = self.inner.shards[idx]
            .state
            .lock()
            .entries
            .remove(key)
            .is_some();
        if removed && self.inner.telemetry.is_enabled() {
            self.inner.publish_shard_gauge(idx);
        }
        removed
    }

    /// Drops every entry from every shard (in-flight fetches are
    /// unaffected and will repopulate on completion).
    pub fn clear(&self) {
        for (idx, shard) in self.inner.shards.iter().enumerate() {
            shard.state.lock().entries.clear();
            if self.inner.telemetry.is_enabled() {
                self.inner.publish_shard_gauge(idx);
            }
        }
    }

    /// Joins the single-flight for `key`: the first caller becomes the
    /// [`FlightJoin::Leader`] and must complete the returned guard with
    /// the upstream result; every concurrent caller becomes a
    /// [`FlightJoin::Follower`] holding a future that resolves when the
    /// leader publishes; its wait is recorded under the caller's span.
    pub fn join_flight(&self, key: &str, ctx: &SpanCtx) -> FlightJoin<V, E> {
        let inner = &self.inner;
        let idx = inner.shard_for(key);
        let join = {
            let mut state = inner.shards[idx].state.lock();
            match state.flights.get(key).cloned() {
                Some(future) => {
                    state.stats.coalesced_waits += 1;
                    FlightJoin::Follower(future)
                }
                None => {
                    let future = ListenableFuture::new();
                    state.flights.insert(key.to_string(), future.clone());
                    FlightJoin::Leader(FlightGuard {
                        inner: inner.clone(),
                        key: key.to_string(),
                        shard: idx,
                        future,
                        done: false,
                    })
                }
            }
        };
        if let FlightJoin::Follower(_) = &join {
            if inner.telemetry.is_enabled() {
                inner
                    .telemetry
                    .metrics()
                    .inc_counter("sdk_coalesced_waiters_total", &[CACHE_LABEL]);
                inner
                    .telemetry
                    .tracer()
                    .emit(ctx, || EventKind::CacheCoalesced {
                        key: key.to_string(),
                    });
            }
        }
        join
    }

    /// Read-through with single-flight coalescing: a fresh entry is
    /// returned immediately; a miss elects one leader to run `fetch`
    /// (storing the result and fanning it out — success or error — to
    /// every concurrent caller of the same key); with
    /// stale-while-revalidate configured, an expired-but-recent entry is
    /// served to followers while the leader refreshes inline, and a
    /// refresh *failure* falls back to the stale value.
    ///
    /// # Errors
    ///
    /// The leader's `fetch` error, shared verbatim with every coalesced
    /// waiter of that flight (a leader that panics fails them with
    /// [`FlightAbandoned`]). Errors are never cached.
    pub fn get_or_fetch(
        &self,
        key: &str,
        fetch: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, FetchSource), E> {
        let ctx = &self.inner.telemetry.tracer().new_trace();
        self.read_through(key, ctx, fetch, |guard, fetch, stale| match fetch() {
            Ok(value) => {
                guard.complete(Ok(value.clone()));
                (value, FetchSource::Fetched)
            }
            Err(e) => {
                // The refresh failed; the stale value is still the best
                // answer. Waiters see the error (they can re-lookup and
                // be served stale themselves).
                guard.complete(Err(e));
                (stale, FetchSource::Stale)
            }
        })
    }

    /// The one read-through state machine: lookup, then join the key's
    /// flight on a miss; a leader double-checks, fetches and completes,
    /// a follower waits. A stale entry's flight leader hands the guard,
    /// the fetch and the stale value to `on_stale`, which decides how the
    /// refresh runs and what this caller is served; a stale follower is
    /// served stale at once.
    pub(crate) fn read_through<F: FnOnce() -> Result<V, E>>(
        &self,
        key: &str,
        ctx: &SpanCtx,
        fetch: F,
        on_stale: impl FnOnce(FlightGuard<V, E>, F, V) -> (V, FetchSource),
    ) -> Result<(V, FetchSource), E> {
        match self.lookup(key, ctx) {
            Lookup::Fresh(value) => Ok((value, FetchSource::Hit)),
            Lookup::Stale(stale) => match self.join_flight(key, ctx) {
                FlightJoin::Leader(guard) => Ok(on_stale(guard, fetch, stale)),
                FlightJoin::Follower(_) => Ok((stale, FetchSource::Stale)),
            },
            Lookup::Absent => match self.join_flight(key, ctx) {
                FlightJoin::Leader(guard) => {
                    // Double-check: a prior flight may have published the
                    // value between this caller's miss and its flight
                    // acquisition; fetching again would break the
                    // one-upstream-call-per-window guarantee.
                    if let Some(value) = self.peek_fresh(key) {
                        guard.complete_cached(value.clone());
                        return Ok((value, FetchSource::Hit));
                    }
                    match fetch() {
                        Ok(value) => {
                            guard.complete(Ok(value.clone()));
                            Ok((value, FetchSource::Fetched))
                        }
                        Err(e) => {
                            guard.complete(Err(e.clone()));
                            Err(e)
                        }
                    }
                }
                FlightJoin::Follower(future) => (*future.wait())
                    .clone()
                    .map(|value| (value, FetchSource::Coalesced)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsdk_json::json;
    use cogsdk_sim::SimEnv;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// A span for probes whose trace no test reads.
    fn ctx() -> SpanCtx {
        Telemetry::disabled().tracer().new_trace()
    }

    fn cache(capacity: usize, ttl_secs: u64) -> (SimEnv, ResponseCache) {
        let env = SimEnv::with_seed(1);
        let c = ResponseCache::new(env.clock().clone(), capacity, Duration::from_secs(ttl_secs));
        (env, c)
    }

    fn sharded(capacity: usize, shards: usize, ttl_secs: u64) -> (SimEnv, ResponseCache) {
        let env = SimEnv::with_seed(1);
        let c = ResponseCache::with_config(
            env.clock().clone(),
            CacheConfig {
                capacity,
                default_ttl: Duration::from_secs(ttl_secs),
                shards,
                stale_while_revalidate: None,
            },
            Telemetry::disabled(),
        );
        (env, c)
    }

    #[test]
    fn put_get_round_trip() {
        let (_env, c) = cache(10, 60);
        c.put("a", json!({"v": 1}));
        assert_eq!(c.get("a"), Some(json!({"v": 1})));
        assert_eq!(c.get("missing"), None);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn entries_expire_by_ttl() {
        let (env, c) = cache(10, 10);
        c.put("a", json!(1));
        env.clock().advance(Duration::from_secs(9));
        assert!(c.get("a").is_some());
        env.clock().advance(Duration::from_secs(2));
        assert!(c.get("a").is_none());
        assert_eq!(c.stats().expirations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn per_entry_ttl_overrides_default() {
        let (env, c) = cache(10, 1000);
        c.put_with_ttl("short", json!(1), Duration::from_secs(1));
        c.put("long", json!(2));
        env.clock().advance(Duration::from_secs(2));
        assert!(c.get("short").is_none());
        assert!(c.get("long").is_some());
    }

    #[test]
    fn lru_eviction_under_capacity_pressure() {
        let (_env, c) = cache(2, 60);
        c.put("a", json!(1));
        c.put("b", json!(2));
        c.get("a"); // a becomes most recent
        c.put("c", json!(3)); // evicts b
        assert!(c.get("a").is_some());
        assert!(c.get("b").is_none());
        assert!(c.get("c").is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overwrite_same_key_updates_value() {
        let (_env, c) = cache(10, 60);
        c.put("a", json!(1));
        c.put("a", json!(2));
        assert_eq!(c.get("a"), Some(json!(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_and_clear() {
        let (_env, c) = cache(10, 60);
        c.put("a", json!(1));
        c.put("b", json!(2));
        assert!(c.invalidate("a"));
        assert!(!c.invalidate("a"));
        assert!(c.get("a").is_none());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let (_env, c) = cache(0, 60);
        c.put("a", json!(1));
        assert!(c.get("a").is_none());
    }

    #[test]
    #[should_panic(expected = "TTL")]
    fn zero_ttl_rejected() {
        let (_env, c) = cache(1, 60);
        c.put_with_ttl("a", json!(1), Duration::ZERO);
    }

    #[test]
    fn telemetry_mirrors_stats() {
        let env = SimEnv::with_seed(2);
        let t = Telemetry::new();
        let c = ResponseCache::with_telemetry(
            env.clock().clone(),
            1,
            Duration::from_secs(60),
            t.clone(),
        );
        c.put("a", json!(1));
        assert!(c.get("a").is_some()); // hit
        assert!(c.get("b").is_none()); // miss
        c.put("b", json!(2)); // evicts a
        let hit = t.metrics().counter_value(
            "cache_requests_total",
            &[("cache", "response"), ("result", "hit")],
        );
        let miss = t.metrics().counter_value(
            "cache_requests_total",
            &[("cache", "response"), ("result", "miss")],
        );
        assert_eq!(hit, Some(c.stats().hits));
        assert_eq!(miss, Some(c.stats().misses));
        assert_eq!(
            t.metrics()
                .counter_value("cache_evictions_total", &[("cache", "response")]),
            Some(c.stats().evictions)
        );
        let names: Vec<&str> = t.tracer().events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, vec!["cache_hit", "cache_miss", "cache_evict"]);
        // Shard telemetry: one shard, one live entry.
        assert_eq!(
            t.metrics().gauge_value(
                "sdk_cache_shard_entries",
                &[("cache", "response"), ("shard", "0")]
            ),
            Some(1.0)
        );
    }

    #[test]
    fn refreshing_an_entry_resets_its_clock() {
        let (env, c) = cache(10, 10);
        c.put("a", json!(1));
        env.clock().advance(Duration::from_secs(8));
        c.put("a", json!(1)); // refresh
        env.clock().advance(Duration::from_secs(8));
        assert!(c.get("a").is_some(), "refreshed entry must survive");
    }

    #[test]
    fn put_over_live_entry_refreshes_ttl_and_recency() {
        // Regression: a put over a live key must atomically reset both the
        // TTL clock (survives past the original expiry) and the LRU stamp
        // (is no longer the eviction victim).
        let (env, c) = sharded(2, 1, 10);
        c.put("a", json!(1));
        c.put("b", json!(2));
        env.clock().advance(Duration::from_secs(8));
        c.put("a", json!(10)); // refresh value + TTL + recency together
        env.clock().advance(Duration::from_secs(8));
        // TTL refreshed: "a" is 8s old, not 16s.
        assert_eq!(c.get("a"), Some(json!(10)));
        // Recency refreshed: inserting "c" must evict "b" (the LRU), not "a".
        c.put("c", json!(3));
        assert!(c.get("a").is_some(), "refreshed entry must not be the LRU");
        assert!(c.get("b").is_none(), "b was least recently used");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn put_over_expired_entry_stores_a_fresh_value() {
        let (env, c) = cache(10, 10);
        c.put("a", json!("old"));
        env.clock().advance(Duration::from_secs(11)); // "a" is now expired
        c.put("a", json!("new")); // put over the dead body
        assert_eq!(c.get("a"), Some(json!("new")));
        env.clock().advance(Duration::from_secs(9));
        assert_eq!(
            c.get("a"),
            Some(json!("new")),
            "TTL restarts at the second put, not the first"
        );
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.stats().expirations,
            0,
            "overwritten expired entries never count as expirations"
        );
    }

    #[test]
    fn shards_split_capacity_exactly() {
        let (_env, c) = sharded(10, 4, 60);
        assert_eq!(c.shard_count(), 4);
        assert_eq!(c.capacity(), 10);
        // 10 over 4 shards: 3 + 3 + 2 + 2.
        for i in 0..64 {
            c.put(format!("k{i}"), json!(i));
        }
        assert!(c.len() <= 10);
        let lens = c.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), c.len());
        assert_eq!(lens.len(), 4);
    }

    #[test]
    fn shard_count_is_clamped_to_capacity() {
        let (_env, tiny) = sharded(3, 16, 60);
        assert_eq!(tiny.shard_count(), 2, "pow2 ≤ capacity");
        let (_env, one) = sharded(1, 16, 60);
        assert_eq!(one.shard_count(), 1);
        let env = SimEnv::with_seed(1);
        let zero = ResponseCache::new(env.clock().clone(), 0, Duration::from_secs(1));
        assert_eq!(zero.shard_count(), 1);
    }

    #[test]
    fn single_flight_leader_fetches_once() {
        let (_env, c) = cache(10, 60);
        let calls = AtomicUsize::new(0);
        let (v, src) = c
            .get_or_fetch("k", || {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok(json!(7))
            })
            .unwrap();
        assert_eq!(v, json!(7));
        assert_eq!(src, FetchSource::Fetched);
        let (v, src) = c.get_or_fetch("k", || unreachable!("must hit")).unwrap();
        assert_eq!(v, json!(7));
        assert_eq!(src, FetchSource::Hit);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn single_flight_error_fans_out_and_is_not_cached() {
        let (_env, c) = cache(10, 60);
        let err = c
            .get_or_fetch("k", || Err(SdkError::AllFailed("boom".into())))
            .unwrap_err();
        assert!(matches!(err, SdkError::AllFailed(_)));
        // The error was not cached: the next fetch runs.
        let (v, src) = c.get_or_fetch("k", || Ok(json!(1))).unwrap();
        assert_eq!((v, src), (json!(1), FetchSource::Fetched));
    }

    #[test]
    fn concurrent_misses_coalesce_to_one_fetch() {
        let (_env, c) = cache(64, 60);
        let calls = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                let calls = calls.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    let (v, _) = c
                        .get_or_fetch("hot", || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Widen the flight window so followers pile up.
                            std::thread::sleep(Duration::from_millis(30));
                            Ok(json!("value"))
                        })
                        .unwrap();
                    assert_eq!(v, json!("value"));
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one upstream call");
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8, "every caller probed once");
    }

    #[test]
    fn abandoned_flight_fails_followers_instead_of_deadlocking() {
        let (_env, c) = cache(10, 60);
        let follower = {
            let FlightJoin::Leader(guard) = c.join_flight("k", &ctx()) else {
                panic!("first join must lead");
            };
            let FlightJoin::Follower(f) = c.join_flight("k", &ctx()) else {
                panic!("second join must follow");
            };
            drop(guard); // leader bails without completing
            f
        };
        let result = (*follower.wait()).clone();
        assert!(matches!(result, Err(SdkError::AllFailed(_))), "{result:?}");
        // The flight slot was cleaned up: a new join leads again.
        assert!(matches!(c.join_flight("k", &ctx()), FlightJoin::Leader(_)));
    }

    #[test]
    fn stale_while_revalidate_serves_stale_and_refreshes_once() {
        let env = SimEnv::with_seed(3);
        let c = ResponseCache::with_config(
            env.clock().clone(),
            CacheConfig {
                capacity: 10,
                default_ttl: Duration::from_secs(10),
                shards: 1,
                stale_while_revalidate: Some(Duration::from_secs(30)),
            },
            Telemetry::disabled(),
        );
        c.put("k", json!("v1"));
        env.clock().advance(Duration::from_secs(15)); // expired, within SWR
        assert_eq!(c.lookup("k", &ctx()), Lookup::Stale(json!("v1")));
        // A refresh in flight: followers are served stale without waiting.
        let FlightJoin::Leader(guard) = c.join_flight("k", &ctx()) else {
            panic!("must lead");
        };
        let (v, src) = c
            .get_or_fetch("k", || unreachable!("refresh already in flight"))
            .unwrap();
        assert_eq!((v, src), (json!("v1"), FetchSource::Stale));
        guard.complete(Ok(json!("v2")));
        assert_eq!(c.get("k"), Some(json!("v2")), "refresh replaced the entry");
        assert!(c.stats().stale_served >= 2);
        // Past the stale window the entry is gone entirely.
        env.clock().advance(Duration::from_secs(41));
        assert_eq!(c.lookup("k", &ctx()), Lookup::Absent);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn stale_refresh_failure_falls_back_to_stale_value() {
        let env = SimEnv::with_seed(4);
        let c = ResponseCache::with_config(
            env.clock().clone(),
            CacheConfig {
                capacity: 10,
                default_ttl: Duration::from_secs(10),
                shards: 1,
                stale_while_revalidate: Some(Duration::from_secs(60)),
            },
            Telemetry::disabled(),
        );
        c.put("k", json!("v1"));
        env.clock().advance(Duration::from_secs(20));
        let (v, src) = c
            .get_or_fetch("k", || Err(SdkError::AllFailed("upstream down".into())))
            .unwrap();
        assert_eq!((v, src), (json!("v1"), FetchSource::Stale));
        // The stale entry survives for the next reader too.
        assert_eq!(c.lookup("k", &ctx()), Lookup::Stale(json!("v1")));
    }

    #[test]
    fn coalescing_telemetry_counts_waiters_and_stale_serves() {
        let env = SimEnv::with_seed(5);
        let t = Telemetry::new();
        let c = ResponseCache::with_config(
            env.clock().clone(),
            CacheConfig {
                capacity: 10,
                default_ttl: Duration::from_secs(10),
                shards: 2,
                stale_while_revalidate: Some(Duration::from_secs(60)),
            },
            t.clone(),
        );
        let leader = t.tracer().new_trace();
        let follower = t.tracer().new_trace();
        let FlightJoin::Leader(guard) = c.join_flight("k", &leader) else {
            panic!("must lead");
        };
        let FlightJoin::Follower(_) = c.join_flight("k", &follower) else {
            panic!("must follow");
        };
        guard.complete(Ok(json!(1)));
        env.clock().advance(Duration::from_secs(15));
        assert!(matches!(c.lookup("k", &follower), Lookup::Stale(_)));
        assert_eq!(
            t.metrics()
                .counter_value("sdk_coalesced_waiters_total", &[("cache", "response")]),
            Some(1)
        );
        assert_eq!(
            t.metrics()
                .counter_value("cache_stale_served_total", &[("cache", "response")]),
            Some(1)
        );
        assert_eq!(c.stats().coalesced_waits, 1);
        assert_eq!(c.stats().stale_served, 1);
        // The wait and the stale serve are both in the waiter's own trace.
        let events = t.tracer().events_for(follower.trace);
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"cache_coalesced"), "{names:?}");
        assert!(names.contains(&"cache_stale_served"), "{names:?}");
    }
}
