//! A6 (ablation): circuit breakers + deadline budgets under a replica
//! outage — resilience layer on vs off.
//!
//! Expected shape: without breakers, every request during the outage
//! burns `timeout x attempts` on the blackholed primary before failing
//! over, so outage p99 ~= 500ms; with breakers the first request trips
//! the circuit and every later request skips straight to the healthy
//! backup, holding outage p99 at the healthy baseline (~10ms).

use cogsdk_bench::BENCH_SEED;
use cogsdk_core::invoke::{Call, InvocationPolicy};
use cogsdk_core::resilience::{BreakerConfig, BreakerRegistry, Deadline};
use cogsdk_core::ServiceMonitor;
use cogsdk_json::json;
use cogsdk_obs::Telemetry;
use cogsdk_sim::chaos::{ChaosScenario, Fault};
use cogsdk_sim::clock::SimTime;
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::{Request, SimEnv, SimService};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_millis(250);
const OUTAGE_START: Duration = Duration::from_secs(5);
const OUTAGE_END: Duration = Duration::from_secs(65);

fn req() -> Request {
    Request::new("recognize", json!({"img": 1}))
}

fn fleet(env: &SimEnv) -> Vec<Arc<SimService>> {
    let scenario = ChaosScenario::new(BENCH_SEED).with_fault(
        "primary",
        Fault::Blackhole {
            start: OUTAGE_START,
            end: OUTAGE_END,
        },
    );
    ["primary", "backup"]
        .iter()
        .map(|name| {
            SimService::builder(*name, "ocr")
                .latency(LatencyModel::constant_ms(10.0))
                .timeout(TIMEOUT)
                .failures(scenario.plan_for(name))
                .build(env)
        })
        .collect()
}

fn percentile(samples: &mut [Duration], p: f64) -> Duration {
    samples.sort();
    let idx = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len()) - 1;
    samples[idx]
}

/// Runs 100 requests at 500ms cadence through the outage window, with or
/// without the resilience layer, returning per-request latencies.
fn outage_latencies(with_resilience: bool) -> Vec<Duration> {
    let env = SimEnv::with_seed(BENCH_SEED);
    let candidates = fleet(&env);
    let monitor = ServiceMonitor::new();
    let telemetry = Telemetry::disabled();
    let breakers = with_resilience.then(|| {
        Arc::new(BreakerRegistry::new(
            env.clock().clone(),
            telemetry.clone(),
            BreakerConfig {
                window: 4,
                min_calls: 2,
                trip_error_rate: 0.5,
                open_for: Duration::from_secs(300),
                half_open_probes: 1,
            },
        ))
    });
    let policy = InvocationPolicy {
        default_retries: 1,
        ..InvocationPolicy::default()
    };
    let mut latencies = Vec::new();
    for i in 0..100u64 {
        let at = OUTAGE_START + Duration::from_millis(500 * i);
        env.clock().advance_to(SimTime::ZERO.after(at));
        let deadline = if with_resilience {
            Deadline::within(env.clock(), Duration::from_millis(800))
        } else {
            Deadline::NONE
        };
        let call = Call::new(&monitor, &telemetry, telemetry.tracer().new_trace())
            .breakers(breakers.as_deref())
            .deadline(deadline);
        let started = env.clock().now();
        call.failover(&candidates, &req(), &policy)
            .expect("the backup keeps requests alive");
        latencies.push(env.clock().now().since(started));
    }
    latencies
}

fn report_series() {
    println!(
        "[ablation_breaker] 60s primary blackhole (timeout {TIMEOUT:?}, 1 retry), \
         100 requests at 500ms cadence, healthy backup:"
    );
    for (label, with_resilience) in [("breakers+deadline", true), ("no resilience", false)] {
        let mut lat = outage_latencies(with_resilience);
        let p50 = percentile(&mut lat, 0.50);
        let p99 = percentile(&mut lat, 0.99);
        let max = *lat.last().unwrap();
        println!("[ablation_breaker]   {label:18} outage p50={p50:?} p99={p99:?} max={max:?}");
    }
    println!(
        "[ablation_breaker] shape: without breakers every request pays timeout x \
         attempts (~{:?}) before failing over; with them only the discovering \
         request does, and p99 stays at the healthy ~10ms.",
        TIMEOUT * 2
    );
}

fn bench(c: &mut Criterion) {
    report_series();
    // CPU overhead of breaker admission + recording on the hot path
    // (closed breaker, healthy service).
    let env = SimEnv::with_seed(BENCH_SEED);
    let telemetry = Telemetry::disabled();
    let breakers = Arc::new(BreakerRegistry::new(
        env.clock().clone(),
        telemetry.clone(),
        BreakerConfig::default(),
    ));
    let ctx = telemetry.tracer().new_trace();
    c.bench_function("breaker_admit_record_closed", |b| {
        b.iter(|| {
            let admission = breakers.admit(std::hint::black_box("svc"), &ctx);
            breakers.record("svc", true, &ctx);
            admission
        })
    });
    let monitor = ServiceMonitor::new();
    let healthy = fleet(&env);
    let policy = InvocationPolicy::default();
    c.bench_function("governed_failover_overhead", |b| {
        let call = Call::new(&monitor, &telemetry, ctx).breakers(Some(&breakers));
        b.iter(|| call.failover(&healthy[1..], std::hint::black_box(&req()), &policy))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    targets = bench
}
criterion_main!(benches);
