//! A9 (ablation): the active observability stack on the cached hot path.
//!
//! PR 1 showed passive telemetry costs a few hundred ns per cache hit.
//! This bench measures what the *active* SLO subsystem adds on the same
//! worst-case path — `RichSdk::invoke_cached_with` hitting a warm
//! cache — under three configurations: telemetry disabled, enabled, and
//! enabled with the tail sampler buffering every event (the upper bound;
//! real deployments downsample healthy traffic so buffered traces are
//! evicted, not grown). The acceptance bar: enabled-with-sampler stays
//! within 2x of the plain enabled baseline per hit.

use cogsdk_bench::BENCH_SEED;
use cogsdk_core::RichSdk;
use cogsdk_json::json;
use cogsdk_obs::{SamplerConfig, SloConfig, SloEngine, SloSpec, Telemetry};
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::{Request, SimEnv, SimService};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Rig {
    _env: SimEnv,
    sdk: RichSdk,
    req: Request,
    slo: Option<Arc<SloEngine>>,
}

fn rig(telemetry: Telemetry, sampling: bool, slo: bool) -> Rig {
    let env = SimEnv::with_seed(BENCH_SEED);
    if sampling {
        telemetry.enable_tail_sampling(SamplerConfig {
            healthy_sample_rate: 0.05,
            ..SamplerConfig::default()
        });
    }
    let sdk = RichSdk::with_telemetry(&env, telemetry.clone());
    sdk.register(
        SimService::builder("nlu", "nlu")
            .latency(LatencyModel::constant_ms(5.0))
            .build(&env),
    );
    let req = Request::new("analyze", json!({"doc": 7}));
    // Warm the cache so every measured call is a pure hit.
    sdk.invoke_cached("nlu", &req).unwrap();
    let slo = slo.then(|| {
        let engine = Arc::new(SloEngine::new(telemetry, SloConfig::default()));
        engine.add_objective(SloSpec::new("invoke-cached", 100.0, 0.99));
        engine
    });
    Rig {
        _env: env,
        sdk,
        req,
        slo,
    }
}

/// One full observed hit: trace + sampler hold/finalize + SLO record,
/// mirroring what the gateway does per request.
fn observed_hit(rig: &Rig) {
    let telemetry = rig.sdk.telemetry();
    let tracer = telemetry.tracer();
    let ctx = tracer.new_trace();
    let sampler = telemetry.sampler();
    if let Some(s) = &sampler {
        s.hold(ctx.trace);
    }
    let started = tracer.now_ms();
    let (_, source) = rig
        .sdk
        .invoke_cached_with("nlu", &rig.req, &rig.sdk.call().span(&ctx))
        .unwrap();
    assert!(source.served_locally());
    let latency = (tracer.now_ms() - started).max(0.0);
    if let Some(engine) = &rig.slo {
        engine.record("invoke-cached", None, true, latency, &ctx);
    }
    if let Some(s) = &sampler {
        s.finalize(ctx.trace, None);
    }
}

fn time_hits(rig: &Rig, n: usize) -> Duration {
    let start = Instant::now();
    for _ in 0..n {
        observed_hit(rig);
    }
    start.elapsed()
}

fn report_overhead() {
    const N: usize = 100_000;
    let off = rig(Telemetry::disabled(), false, false);
    let plain = rig(Telemetry::new(), false, false);
    let on = rig(Telemetry::new(), false, true);
    let full = rig(Telemetry::new(), true, true);
    // Interleave the measurements to cancel out drift.
    let mut t = [Duration::ZERO; 4];
    for _ in 0..5 {
        t[0] += time_hits(&off, N / 5);
        t[1] += time_hits(&plain, N / 5);
        t[2] += time_hits(&on, N / 5);
        t[3] += time_hits(&full, N / 5);
    }
    let per = |d: Duration| d.as_nanos() as f64 / N as f64;
    let (off_ns, plain_ns, on_ns, full_ns) = (per(t[0]), per(t[1]), per(t[2]), per(t[3]));
    println!(
        "[ablation_obs_slo] observed cache-hit over {N} calls: disabled={off_ns:.0}ns/call enabled={plain_ns:.0}ns/call enabled+slo={on_ns:.0}ns/call enabled+slo+sampler={full_ns:.0}ns/call"
    );
    println!(
        "[ablation_obs_slo] full-stack-vs-enabled={:.2}x (acceptance: <= 2x) sampler-vs-slo={:.2}x",
        full_ns / plain_ns,
        full_ns / on_ns
    );
    if let Some(sampler) = full.sdk.telemetry().sampler() {
        let stats = sampler.stats();
        println!(
            "[ablation_obs_slo] sampler saw {} events, buffered {}, retained {} traces, sampled out {}",
            stats.observed_events, stats.buffered_events, stats.retained_traces, stats.healthy_sampled_out
        );
    }
}

fn bench(c: &mut Criterion) {
    report_overhead();

    let off = rig(Telemetry::disabled(), false, false);
    c.bench_function("observed_hit_disabled", |b| {
        b.iter(|| observed_hit(std::hint::black_box(&off)))
    });

    let on = rig(Telemetry::new(), false, true);
    c.bench_function("observed_hit_enabled_slo", |b| {
        b.iter(|| observed_hit(std::hint::black_box(&on)))
    });

    let full = rig(Telemetry::new(), true, true);
    c.bench_function("observed_hit_enabled_slo_sampler", |b| {
        b.iter(|| observed_hit(std::hint::black_box(&full)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
