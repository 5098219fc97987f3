//! A4 (ablation): retry backoff policy under a burst outage — none vs
//! fixed vs exponential.
//!
//! Expected shape: with a short outage, immediate retries all land inside
//! the outage and fail; spacing retries out lets later attempts land
//! after recovery, so success rises with backoff at the cost of added
//! latency on the failing path.

use cogsdk_bench::BENCH_SEED;
use cogsdk_core::invoke::{Backoff, Call};
use cogsdk_core::ServiceMonitor;
use cogsdk_json::json;
use cogsdk_sim::clock::SimTime;
use cogsdk_sim::failure::{FailurePlan, OutageWindow};
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::{Request, SimEnv, SimService};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn req() -> Request {
    Request::new("op", json!({"k": 1}))
}

/// One trial: a call arrives just as a `outage_ms`-long outage begins;
/// returns whether the retried call eventually succeeded and the virtual
/// time burned.
fn trial(outage_ms: u64, retries: usize, backoff: Backoff) -> (bool, Duration) {
    let env = SimEnv::with_seed(BENCH_SEED);
    let monitor = ServiceMonitor::new();
    let svc = SimService::builder("svc", "cls")
        .latency(LatencyModel::constant_ms(10.0))
        .failures(FailurePlan::reliable().with_outage(OutageWindow::new(
            SimTime::ZERO,
            SimTime::from_millis(outage_ms),
        )))
        .build(&env);
    let t0 = env.clock().now();
    let (outcome, _) = Call::plain(&monitor).retry(&svc, &req(), retries, backoff);
    (outcome.result.is_ok(), env.clock().now().since(t0))
}

fn report_series() {
    println!("[ablation_backoff] 200ms outage starting with the first call, 4 retries:");
    for (label, backoff) in [
        ("none", Backoff::None),
        ("fixed 25ms", Backoff::Fixed(Duration::from_millis(25))),
        ("fixed 100ms", Backoff::Fixed(Duration::from_millis(100))),
        ("exponential", Backoff::standard_exponential()),
    ] {
        let (ok, elapsed) = trial(200, 4, backoff);
        println!("[ablation_backoff]   {label:12} success={ok} virtual_time={elapsed:?}");
    }
    println!("[ablation_backoff] outage-length sweep with exponential backoff (4 retries):");
    for outage_ms in [50u64, 200, 500, 1_000, 5_000] {
        let (ok, elapsed) = trial(outage_ms, 4, Backoff::standard_exponential());
        println!(
            "[ablation_backoff]   outage={outage_ms:5}ms success={ok} virtual_time={elapsed:?}"
        );
    }
    println!(
        "[ablation_backoff] shape: immediate retries waste every attempt inside the \
         outage; exponential rides out anything shorter than its backoff budget."
    );
}

fn bench(c: &mut Criterion) {
    report_series();
    // CPU overhead of the backoff machinery itself (healthy service, no
    // retries actually taken).
    let env = SimEnv::with_seed(BENCH_SEED);
    let monitor = ServiceMonitor::new();
    let healthy = SimService::builder("healthy", "cls")
        .latency(LatencyModel::constant_ms(5.0))
        .build(&env);
    c.bench_function("backoff_machinery_overhead", |b| {
        b.iter(|| {
            Call::plain(&monitor).retry(
                &healthy,
                std::hint::black_box(&req()),
                4,
                Backoff::standard_exponential(),
            )
        })
    });
    c.bench_function("backoff_schedule_computation", |b| {
        let exp = Backoff::standard_exponential();
        b.iter(|| {
            (0..8)
                .map(|i| exp.delay(std::hint::black_box(i)))
                .sum::<Duration>()
        })
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
