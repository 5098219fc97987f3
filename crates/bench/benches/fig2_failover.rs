//! E3 (Figure 2, failure handling): success probability and added
//! latency as functions of per-service failure rate, retry budget, and
//! ranked failover depth (§2.1).
//!
//! Paper-predicted shape: success = 1 − pᵏ⁺¹ per service; adding ranked
//! failover across m services compounds to 1 − p^(m·(k+1)); each retry
//! adds roughly one failure-detection latency.

use cogsdk_bench::BENCH_SEED;
use cogsdk_core::invoke::{Backoff, Call, InvocationPolicy};
use cogsdk_core::ServiceMonitor;
use cogsdk_json::json;
use cogsdk_sim::failure::FailurePlan;
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::{Request, SimEnv, SimService};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn flaky(env: &SimEnv, name: &str, p: f64) -> Arc<SimService> {
    SimService::builder(name, "cls")
        .latency(LatencyModel::constant_ms(10.0))
        .failures(FailurePlan::flaky(p))
        .timeout(Duration::from_millis(200))
        .build(env)
}

fn req() -> Request {
    Request::new("op", json!({"k": 1}))
}

fn report_series() {
    // --- Series 1: success vs retries, per failure rate ------------------
    println!("[fig2_failover] single-service success rate (measured | 1-p^(k+1) predicted):");
    for p in [0.1, 0.3, 0.5] {
        let env = SimEnv::with_seed(BENCH_SEED);
        let monitor = ServiceMonitor::new();
        let svc = flaky(&env, "s", p);
        let mut row = format!("[fig2_failover]   p={p}:");
        for retries in [0usize, 1, 2, 4] {
            let n = 3_000;
            let ok = (0..n)
                .filter(|_| {
                    Call::plain(&monitor)
                        .retry(&svc, &req(), retries, Backoff::None)
                        .0
                        .result
                        .is_ok()
                })
                .count();
            row.push_str(&format!(
                " k={retries}:{:.3}|{:.3}",
                ok as f64 / n as f64,
                1.0 - p.powi(retries as i32 + 1)
            ));
        }
        println!("{row}");
    }

    // --- Series 2: failover depth sweep ----------------------------------
    println!("[fig2_failover] ranked failover across m replicas (p=0.5, k=0):");
    for m in [1usize, 2, 3, 4] {
        let env = SimEnv::with_seed(BENCH_SEED + m as u64);
        let monitor = ServiceMonitor::new();
        let candidates: Vec<Arc<SimService>> =
            (0..m).map(|i| flaky(&env, &format!("s{i}"), 0.5)).collect();
        let policy = InvocationPolicy {
            default_retries: 0,
            ..InvocationPolicy::default()
        };
        let n = 2_000;
        let ok = (0..n)
            .filter(|_| {
                Call::plain(&monitor)
                    .failover(&candidates, &req(), &policy)
                    .is_ok()
            })
            .count();
        println!(
            "[fig2_failover]   m={m}: success={:.3} (predicted {:.3})",
            ok as f64 / n as f64,
            1.0 - 0.5f64.powi(m as i32)
        );
    }

    // --- Series 3: latency cost of resilience ----------------------------
    let env = SimEnv::with_seed(BENCH_SEED);
    let monitor = ServiceMonitor::new();
    let candidates = vec![
        flaky(&env, "a", 0.5),
        flaky(&env, "b", 0.5),
        flaky(&env, "c", 0.0),
    ];
    let policy = InvocationPolicy {
        default_retries: 1,
        ..InvocationPolicy::default()
    };
    let t0 = env.clock().now();
    let n = 500;
    let mut attempts_total = 0;
    for _ in 0..n {
        if let Ok(ok) = Call::plain(&monitor).failover(&candidates, &req(), &policy) {
            attempts_total += ok.attempts;
        }
    }
    let elapsed = env.clock().now().since(t0);
    println!(
        "[fig2_failover] mean virtual latency per resilient call: {:.2}ms (mean attempts {:.2})",
        elapsed.as_secs_f64() * 1000.0 / n as f64,
        attempts_total as f64 / n as f64
    );
}

fn bench(c: &mut Criterion) {
    report_series();
    let env = SimEnv::with_seed(BENCH_SEED);
    let monitor = ServiceMonitor::new();
    let healthy = flaky(&env, "healthy", 0.0);
    c.bench_function("invoke_no_failure_overhead", |b| {
        b.iter(|| {
            Call::plain(&monitor).retry(&healthy, std::hint::black_box(&req()), 2, Backoff::None)
        })
    });
    let dead_then_alive = vec![flaky(&env, "dead", 1.0), flaky(&env, "alive", 0.0)];
    let policy = InvocationPolicy {
        default_retries: 1,
        ..InvocationPolicy::default()
    };
    c.bench_function("failover_two_services", |b| {
        b.iter(|| {
            Call::plain(&monitor).failover(&dead_then_alive, std::hint::black_box(&req()), &policy)
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
