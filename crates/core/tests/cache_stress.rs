//! Deterministic multi-thread stress harness for the sharded,
//! single-flight response cache.
//!
//! The tentpole claim this suite pins down: **under concurrent load,
//! exactly one upstream call is made per key per refresh window** — K
//! duplicate misses coalesce onto one flight, errors fan out to every
//! waiter, and a stale-while-revalidate window serves expired entries
//! while precisely one background refresh runs. Time is virtual
//! ([`SimEnv`]'s clock), upstream latency/failures come from seeded chaos
//! plans, and every assertion is exact — no sleeps-and-hope thresholds on
//! the counted quantities.
//!
//! Thread count is `CACHE_STRESS_THREADS` (default 16; CI runs 32).

use cogsdk_core::cache::{CacheConfig, FetchSource, ResponseCache};
use cogsdk_core::{RichSdk, SdkError};
use cogsdk_json::{json, Json};
use cogsdk_obs::Telemetry;
use cogsdk_sim::failure::FailurePlan;
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::{Request, SimEnv, SimService};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Worker threads per stress test, overridable for CI escalation.
fn stress_threads() -> usize {
    std::env::var("CACHE_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(16)
}

const TTL: Duration = Duration::from_secs(60);

fn fresh_cache(env: &SimEnv, shards: usize) -> ResponseCache {
    ResponseCache::with_config(
        env.clock().clone(),
        CacheConfig {
            capacity: 1_024,
            default_ttl: TTL,
            shards,
            stale_while_revalidate: None,
        },
        Telemetry::disabled(),
    )
}

/// An upstream stub that counts calls and holds each one open on the real
/// clock so concurrent callers genuinely overlap the flight window.
fn slow_fetch(calls: &AtomicUsize, value: Json) -> Result<Json, SdkError> {
    calls.fetch_add(1, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(25));
    Ok(value)
}

#[test]
fn concurrent_misses_on_one_key_cost_one_upstream_call() {
    let env = SimEnv::with_seed(0xCAC4E);
    let cache = fresh_cache(&env, 16);
    let threads = stress_threads();
    let calls = AtomicUsize::new(0);
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                barrier.wait();
                let (value, _) = cache
                    .get_or_fetch("hot", || slow_fetch(&calls, json!({"answer": 42})))
                    .unwrap();
                assert_eq!(value, json!({"answer": 42}));
            });
        }
    });
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "{threads} concurrent misses must collapse to exactly one upstream call"
    );
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        threads as u64,
        "every caller probed exactly once: {stats:?}"
    );
}

#[test]
fn exactly_one_upstream_call_per_key_per_refresh_window() {
    let env = SimEnv::with_seed(0x71D0);
    let cache = fresh_cache(&env, 16);
    let threads = stress_threads();
    let windows = 5;
    let calls = AtomicUsize::new(0);
    for window in 0..windows {
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    let (value, _) = cache
                        .get_or_fetch("hot", || slow_fetch(&calls, json!({"window": window})))
                        .unwrap();
                    assert_eq!(value, json!({"window": window}));
                });
            }
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            window + 1,
            "one upstream call per refresh window, not per caller"
        );
        // Roll into the next refresh window: the entry expires.
        env.clock().advance(TTL + Duration::from_secs(1));
    }
    assert_eq!(calls.load(Ordering::SeqCst), windows);
}

#[test]
fn leader_error_fans_out_to_every_waiter_uncached() {
    let env = SimEnv::with_seed(0xE44);
    let cache = fresh_cache(&env, 8);
    let threads = stress_threads();
    let calls = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                barrier.wait();
                let result = cache.get_or_fetch("doomed", || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(25));
                    Err(SdkError::AllFailed("upstream dead".into()))
                });
                match result {
                    Err(SdkError::AllFailed(m)) => {
                        assert_eq!(m, "upstream dead", "leader's error verbatim");
                        errors.fetch_add(1, Ordering::SeqCst);
                    }
                    other => panic!("expected the shared flight error, got {other:?}"),
                }
            });
        }
    });
    // Threads that arrived after the flight finished became new leaders
    // (errors are never cached), so calls >= 1; but every caller in the
    // window shares its leader's single call and failure.
    let upstream = calls.load(Ordering::SeqCst);
    assert!(upstream >= 1, "at least the first leader called");
    assert!(
        upstream <= threads,
        "never more upstream calls than callers"
    );
    assert_eq!(errors.load(Ordering::SeqCst), threads, "all callers failed");
    assert!(cache.is_empty(), "errors must not be cached");
}

#[test]
fn sdk_invoke_cached_coalesces_a_thundering_herd() {
    // Scaled time: the 200ms modeled latency costs ~20ms real, holding
    // the flight open while the herd piles on.
    let env = SimEnv::with_seed_scaled(0x5D1, 0.1);
    let sdk = Arc::new(RichSdk::new(&env));
    sdk.register(
        SimService::builder("ocr", "vision")
            .latency(LatencyModel::constant_ms(200.0))
            .build(&env),
    );
    let threads = stress_threads();
    let request = Request::new("extract", json!({"doc": "invoice-7"}));
    let barrier = Barrier::new(threads);
    let fetched = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let sdk = sdk.clone();
            let request = request.clone();
            let (barrier, fetched) = (&barrier, &fetched);
            scope.spawn(move || {
                barrier.wait();
                let (response, source) = sdk
                    .invoke_cached_with("ocr", &request, &sdk.call())
                    .unwrap();
                assert_eq!(response.payload, json!({"doc": "invoice-7"}));
                if source == FetchSource::Fetched {
                    fetched.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    let (upstream_calls, _) = sdk.registry().get("ocr").unwrap().stats();
    assert_eq!(
        upstream_calls, 1,
        "the service saw one call from {threads} concurrent invocations"
    );
    assert_eq!(fetched.load(Ordering::SeqCst), 1, "exactly one leader");
    assert_eq!(
        sdk.telemetry().metrics().counter_sum("sdk_attempts_total"),
        0,
        "telemetry disabled by default on RichSdk::new"
    );
}

#[test]
fn stale_window_serves_stale_while_one_background_refresh_runs() {
    let env = SimEnv::with_seed_scaled(0x57A1E, 0.1);
    let sdk = Arc::new(RichSdk::with_cache_config(
        &env,
        CacheConfig {
            capacity: 256,
            default_ttl: Duration::from_secs(30),
            shards: 8,
            stale_while_revalidate: Some(Duration::from_secs(120)),
        },
        4,
        Telemetry::new(),
    ));
    sdk.register(
        SimService::builder("kb", "storage")
            .latency(LatencyModel::constant_ms(50.0))
            .build(&env),
    );
    let request = Request::new("lookup", json!({"entity": "ibm"}));
    // Prime the cache.
    let (_, source) = sdk.invoke_cached_with("kb", &request, &sdk.call()).unwrap();
    assert_eq!(source, FetchSource::Fetched);
    // Expire the entry into the stale window.
    env.clock().advance(Duration::from_secs(45));
    let threads = stress_threads();
    let barrier = Barrier::new(threads);
    let stale_serves = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let sdk = sdk.clone();
            let request = request.clone();
            let (barrier, stale_serves) = (&barrier, &stale_serves);
            scope.spawn(move || {
                barrier.wait();
                let (response, source) =
                    sdk.invoke_cached_with("kb", &request, &sdk.call()).unwrap();
                assert_eq!(response.payload, json!({"entity": "ibm"}));
                // Nobody waits for the refresh: stale data now beats
                // fresh data later. (A caller arriving after the refresh
                // lands may legitimately score a fresh hit.)
                assert!(
                    matches!(source, FetchSource::Stale | FetchSource::Hit),
                    "{source:?}"
                );
                if source == FetchSource::Stale {
                    stale_serves.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    assert!(
        stale_serves.load(Ordering::SeqCst) >= 1,
        "the herd hit the stale window"
    );
    // Wait for the background refresh to land: until it does, probes are
    // served stale (joining the same flight, spawning nothing); once it
    // lands they hit fresh. Either way the service never sees more than
    // the prime call plus one refresh.
    let wait_start = std::time::Instant::now();
    loop {
        let (_, source) = sdk.invoke_cached_with("kb", &request, &sdk.call()).unwrap();
        let (calls, _) = sdk.registry().get("kb").unwrap().stats();
        assert!(calls <= 2, "more than one background refresh ran: {calls}");
        if source == FetchSource::Hit {
            break;
        }
        assert_eq!(source, FetchSource::Stale, "{source:?}");
        assert!(
            wait_start.elapsed() < Duration::from_secs(10),
            "background refresh never completed (upstream calls: {calls})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let (calls, _) = sdk.registry().get("kb").unwrap().stats();
    assert_eq!(calls, 2, "prime + exactly one background refresh");
    assert!(
        sdk.telemetry()
            .metrics()
            .counter_value("cache_stale_served_total", &[("cache", "response")])
            .unwrap_or(0)
            >= 1
    );
}

#[test]
fn chaos_seeded_multi_key_stress_holds_invariants() {
    let env = SimEnv::with_seed(0xC4A05);
    let cache = fresh_cache(&env, 16);
    let threads = stress_threads();
    let keys: Vec<String> = (0..64).map(|i| format!("entity-{i}")).collect();
    // A seeded flaky upstream: ~30% of leader fetches fail, so the herd
    // exercises both the success and the error fan-out paths.
    let flaky = SimService::builder("flaky", "nlu")
        .latency(LatencyModel::constant_ms(1.0))
        .failures(FailurePlan::flaky(0.3))
        .build(&env);
    let gets = AtomicUsize::new(0);
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let keys = &keys;
            let flaky = &flaky;
            let (cache, gets, barrier) = (&cache, &gets, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..200 {
                    let key = &keys[(t * 31 + round * 7) % keys.len()];
                    gets.fetch_add(1, Ordering::SeqCst);
                    let result = cache.get_or_fetch(key, || {
                        let outcome =
                            flaky.invoke(&Request::new("analyze", json!({"k": (key.as_str())})));
                        match outcome.result {
                            Ok(r) => Ok(r.payload),
                            Err(e) => Err(SdkError::AllFailed(e.to_string())),
                        }
                    });
                    if let Ok((value, _)) = result {
                        assert_eq!(value, json!({"k": (key.as_str())}));
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        gets.load(Ordering::SeqCst) as u64,
        "every get is accounted exactly once: {stats:?}"
    );
    assert!(cache.len() <= cache.capacity(), "len bounded by capacity");
    assert_eq!(
        cache.shard_lens().iter().sum::<usize>(),
        cache.len(),
        "shard accounting is consistent"
    );
    // Successful fetches were coalesced: far fewer upstream calls than
    // gets (64 keys, heavy rereads). Flaky errors retry, so the exact
    // count varies by seed, but it must stay well under total traffic.
    let (upstream, _) = flaky.stats();
    assert!(
        (upstream as usize) < threads * 200 / 2,
        "coalescing + caching must suppress most of {} gets (saw {upstream})",
        threads * 200
    );
}
