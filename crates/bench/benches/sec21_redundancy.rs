//! E11 (§2.1, redundant multi-service invocation): first-success vs
//! quorum vs invoke-all, and the consistency-confidence payoff of running
//! several NLU vendors on the same document.
//!
//! Paper-predicted shape: availability grows with redundancy
//! (1 − pᵐ); invoke-all costs m× money; consensus confidence separates
//! entities every vendor finds from ones only the best vendor finds.

use cogsdk_bench::BENCH_SEED;
use cogsdk_core::invoke::RedundantMode;
use cogsdk_core::rank::RankOptions;
use cogsdk_core::RichSdk;
use cogsdk_json::json;
use cogsdk_sim::failure::FailurePlan;
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::{Request, SimEnv, SimService};
use cogsdk_text::analysis::Analyzer;
use cogsdk_text::services::standard_fleet;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn storage_sdk(p: f64) -> (SimEnv, RichSdk) {
    let env = SimEnv::with_seed(BENCH_SEED);
    let sdk = RichSdk::new(&env);
    for i in 0..3 {
        sdk.register(
            SimService::builder(format!("store-{i}"), "storage")
                .latency(LatencyModel::constant_ms(10.0))
                .failures(FailurePlan::flaky(p))
                .cost(cogsdk_sim::cost::CostModel::PerCall(
                    cogsdk_sim::cost::MicroDollars::from_micros(100),
                ))
                .build(&env),
        );
    }
    sdk.set_policy(cogsdk_core::InvocationPolicy {
        default_retries: 0,
        ..cogsdk_core::InvocationPolicy::default()
    });
    (env, sdk)
}

fn req() -> Request {
    Request::new("put", json!({"k": "v"}))
}

fn report_series() {
    // --- Series 1: availability and cost by redundancy mode --------------
    // Sequential legs (first-success stops as soon as a store answers, so
    // the modes differ in monetary cost as well as availability).
    println!("[sec21_redundancy] p=0.3 per store, 3 replicas, 500 writes each mode:");
    for (label, mode) in [
        ("first-success", RedundantMode::FirstSuccess),
        ("quorum(2)", RedundantMode::Quorum(2)),
        ("all(3)", RedundantMode::All),
    ] {
        let (_env, sdk) = storage_sdk(0.3);
        let candidates: Vec<_> = sdk.registry().class_members("storage");
        let policy = cogsdk_core::InvocationPolicy {
            default_retries: 0,
            ..cogsdk_core::InvocationPolicy::default()
        };
        let n = 500;
        let ok = (0..n)
            .filter(|_| {
                cogsdk_core::Call::plain(sdk.monitor())
                    .redundant(&candidates, &req(), mode, &policy)
                    .is_ok()
            })
            .count();
        println!(
            "[sec21_redundancy]   {label:14} success={:.3} total_cost={}",
            ok as f64 / n as f64,
            sdk.monitor().total_cost()
        );
    }

    // --- Series 2: consensus confidence across the NLU fleet -------------
    let env = SimEnv::with_seed(BENCH_SEED);
    let sdk = RichSdk::new(&env);
    let fleet = standard_fleet(&env, Arc::new(Analyzer::with_default_lexicons()));
    let text = "IBM acquired Oracle. Germany, France, Japan, Brazil, India and \
                Canada signed agreements while Microsoft, Google and Amazon watched.";
    let consensus = sdk.nlu().consensus_analyze(&fleet, text);
    let unanimous = consensus
        .entities
        .iter()
        .filter(|e| e.confidence >= 0.99)
        .count();
    let contested = consensus
        .entities
        .iter()
        .filter(|e| e.confidence < 0.99)
        .count();
    println!(
        "[sec21_redundancy] consensus over {} vendors: {} unanimous entities, {} contested",
        consensus.responding_services.len(),
        unanimous,
        contested
    );
    for e in consensus.entities.iter().take(6) {
        println!(
            "[sec21_redundancy]   {:16} confidence={:.2}",
            e.canonical, e.confidence
        );
    }
}

fn bench(c: &mut Criterion) {
    report_series();
    let (_env, sdk) = storage_sdk(0.0);
    c.bench_function("redundant_all_3_parallel", |b| {
        b.iter(|| {
            sdk.invoke_redundant_parallel(
                "storage",
                std::hint::black_box(&req()),
                &RankOptions::default(),
                3,
                RedundantMode::All,
            )
            .unwrap()
        })
    });
    c.bench_function("redundant_first_success", |b| {
        b.iter(|| {
            sdk.invoke_redundant_parallel(
                "storage",
                std::hint::black_box(&req()),
                &RankOptions::default(),
                3,
                RedundantMode::FirstSuccess,
            )
            .unwrap()
        })
    });
    let env = SimEnv::with_seed(BENCH_SEED);
    let sdk2 = RichSdk::new(&env);
    let fleet = standard_fleet(&env, Arc::new(Analyzer::with_default_lexicons()));
    let text = "IBM acquired Oracle while Germany and France watched.";
    c.bench_function("consensus_3_vendors", |b| {
        b.iter(|| {
            sdk2.nlu()
                .consensus_analyze(&fleet, std::hint::black_box(text))
        })
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
