//! Integration: service selection, prediction, failover and redundancy
//! under injected failures — the §2/§2.1 machinery end to end.

use cogsdk::json::json;
use cogsdk::sdk::invoke::{Backoff, Call, InvocationPolicy, RedundantMode};
use cogsdk::sdk::predict::Predictor;
use cogsdk::sdk::rank::RankOptions;
use cogsdk::sdk::score::ScoringFormula;
use cogsdk::sdk::RichSdk;
use cogsdk::sim::clock::SimTime;
use cogsdk::sim::cost::{CostModel, MicroDollars};
use cogsdk::sim::failure::{FailurePlan, OutageWindow};
use cogsdk::sim::latency::LatencyModel;
use cogsdk::sim::{Request, SimEnv, SimService};
use std::time::Duration;

fn req() -> Request {
    Request::new("op", json!({"payload": "data"}))
}

#[test]
fn selection_learns_true_latencies_from_observation() {
    let env = SimEnv::with_seed(2001);
    let sdk = RichSdk::new(&env);
    // Advertised metadata is identical; only observation can tell the
    // services apart.
    for (name, ms) in [("a", 5.0), ("b", 25.0), ("c", 60.0)] {
        sdk.register(
            SimService::builder(name, "cls")
                .latency(LatencyModel::lognormal_ms(ms, 0.2))
                .build(&env),
        );
    }
    for _ in 0..30 {
        for name in ["a", "b", "c"] {
            sdk.invoke(name, &req()).unwrap();
        }
    }
    let ranked = sdk.rank(
        "cls",
        &RankOptions {
            formula: ScoringFormula::weighted(1.0, 0.0, 0.0),
            ..RankOptions::default()
        },
    );
    let order: Vec<&str> = ranked.iter().map(|r| r.service.name()).collect();
    assert_eq!(order, vec!["a", "b", "c"]);
    // Predictions should be close to the true medians.
    assert!((ranked[0].inputs.response_ms - 5.0).abs() < 2.0);
    assert!((ranked[2].inputs.response_ms - 60.0).abs() < 15.0);
}

#[test]
fn failover_rides_through_a_scheduled_outage() {
    let env = SimEnv::with_seed(2002);
    let sdk = RichSdk::new(&env);
    // Primary is down for the first virtual second.
    sdk.register(
        SimService::builder("primary", "cls")
            .latency(LatencyModel::constant_ms(5.0))
            .quality(0.95)
            .failures(FailurePlan::reliable().with_outage(OutageWindow::new(
                SimTime::ZERO,
                SimTime::from_millis(1_000),
            )))
            .build(&env),
    );
    sdk.register(
        SimService::builder("secondary", "cls")
            .latency(LatencyModel::constant_ms(30.0))
            .quality(0.5)
            .build(&env),
    );

    // During the outage: the secondary answers.
    let ok = sdk
        .invoke_class("cls", &req(), &RankOptions::default())
        .unwrap();
    assert_eq!(ok.service, "secondary");

    // After the outage: the primary recovers and wins again (advance past
    // the window; rankings favor its quality).
    env.clock().advance(Duration::from_secs(2));
    let ok = sdk
        .invoke_class("cls", &req(), &RankOptions::default())
        .unwrap();
    assert_eq!(ok.service, "primary");
}

#[test]
fn retries_raise_effective_availability_as_predicted() {
    // Analytic shape: success = 1 - p^(k+1) for failure rate p and k
    // retries. Measure and compare.
    let env = SimEnv::with_seed(2003);
    let monitor = cogsdk::sdk::ServiceMonitor::new();
    let p = 0.4;
    let svc = SimService::builder("flaky", "cls")
        .latency(LatencyModel::constant_ms(1.0))
        .failures(FailurePlan::flaky(p))
        .build(&env);
    for retries in [0usize, 1, 3] {
        let n = 2_000;
        let ok = (0..n)
            .filter(|_| {
                Call::plain(&monitor)
                    .retry(&svc, &req(), retries, Backoff::None)
                    .0
                    .result
                    .is_ok()
            })
            .count();
        let measured = ok as f64 / n as f64;
        let predicted = 1.0 - p.powi(retries as i32 + 1);
        assert!(
            (measured - predicted).abs() < 0.05,
            "retries={retries}: measured={measured:.3} predicted={predicted:.3}"
        );
    }
}

#[test]
fn redundant_storage_improves_durability_of_reads() {
    // §2.1: "it may be desirable to store the same data on different
    // cloud databases. This provides redundancy."
    let env = SimEnv::with_seed(2004);
    let sdk = RichSdk::new(&env);
    for (name, rate) in [("store-1", 0.3), ("store-2", 0.3), ("store-3", 0.3)] {
        sdk.register(
            SimService::builder(name, "storage")
                .latency(LatencyModel::constant_ms(10.0))
                .failures(FailurePlan::flaky(rate))
                .build(&env),
        );
    }
    sdk.set_policy(InvocationPolicy {
        default_retries: 0,
        ..InvocationPolicy::default()
    });
    let mut single_ok = 0;
    let mut redundant_ok = 0;
    let n = 300;
    for _ in 0..n {
        if sdk.invoke("store-1", &req()).is_ok() {
            single_ok += 1;
        }
        if sdk
            .invoke_redundant_parallel(
                "storage",
                &req(),
                &RankOptions::default(),
                3,
                RedundantMode::Quorum(1),
            )
            .is_ok()
        {
            redundant_ok += 1;
        }
    }
    let single = single_ok as f64 / n as f64;
    let redundant = redundant_ok as f64 / n as f64;
    // 1 - 0.3 = 0.7 vs 1 - 0.3^3 ≈ 0.973.
    assert!(single < 0.85, "single={single}");
    assert!(redundant > 0.92, "redundant={redundant}");
    assert!(redundant > single + 0.1);
}

#[test]
fn cost_aware_ranking_prefers_free_tier_under_cost_weight() {
    let env = SimEnv::with_seed(2005);
    let sdk = RichSdk::new(&env);
    sdk.register(
        SimService::builder("premium", "cls")
            .latency(LatencyModel::constant_ms(5.0))
            .cost(CostModel::PerCall(MicroDollars::from_micros(5_000)))
            .quality(0.9)
            .build(&env),
    );
    sdk.register(
        SimService::builder("free", "cls")
            .latency(LatencyModel::constant_ms(40.0))
            .cost(CostModel::Free)
            .quality(0.6)
            .build(&env),
    );
    // Warm both so costs are observed.
    for _ in 0..5 {
        sdk.invoke("premium", &req()).unwrap();
        sdk.invoke("free", &req()).unwrap();
    }
    let latency_first = sdk.rank(
        "cls",
        &RankOptions {
            formula: ScoringFormula::normalized(1.0, 0.0, 0.0),
            ..RankOptions::default()
        },
    );
    assert_eq!(latency_first[0].service.name(), "premium");
    let cost_first = sdk.rank(
        "cls",
        &RankOptions {
            formula: ScoringFormula::normalized(0.0, 1.0, 0.0),
            ..RankOptions::default()
        },
    );
    assert_eq!(cost_first[0].service.name(), "free");
}

#[test]
fn size_conditioned_prediction_beats_mean_on_heterogeneous_sizes() {
    // Train on mixed sizes; at extreme sizes the regression predictor
    // must out-predict the global mean.
    let env = SimEnv::with_seed(2006);
    let sdk = RichSdk::new(&env);
    sdk.register(
        SimService::builder("sized", "cls")
            .latency(LatencyModel::SizeLinear {
                base_ms: 2.0,
                per_byte_ms: 0.005,
                jitter: 0.05,
            })
            .build(&env),
    );
    for i in 1..=40 {
        let body = json!({"b": ("x".repeat(i * 100))});
        let size = body.size_bytes() as f64;
        let r = Request::new("op", body).with_param("size", size);
        sdk.invoke("sized", &r).unwrap();
    }
    let history = sdk.monitor().history("sized").unwrap();
    let big = vec![("size".to_string(), 20_000.0)];
    let truth = 2.0 + 0.005 * 20_000.0;
    let by_regression = Predictor::RegressionOn("size".into())
        .predict(&history, &big)
        .unwrap();
    let by_mean = Predictor::Mean.predict(&history, &big).unwrap();
    assert!(
        (by_regression - truth).abs() < (by_mean - truth).abs() / 3.0,
        "regression={by_regression:.1} mean={by_mean:.1} truth={truth:.1}"
    );
}

#[test]
fn ewma_reranks_during_brownout_faster_than_mean() {
    // A brown-out (§2's time-varying performance): "primary" slows 10×
    // for a window. EWMA-driven ranking should switch to the backup
    // within a few observations; mean-driven ranking lags.
    use cogsdk::sim::clock::SimTime;
    use cogsdk::sim::failure::OutageWindow;
    let env = SimEnv::with_seed(2007);
    let sdk = RichSdk::new(&env);
    sdk.register(
        SimService::builder("primary", "cls")
            .latency(LatencyModel::constant_ms(10.0))
            .failures(FailurePlan::reliable().with_degradation(
                OutageWindow::new(SimTime::from_millis(2_500), SimTime::from_millis(400_000)),
                10.0,
            ))
            .build(&env),
    );
    sdk.register(
        SimService::builder("backup", "cls")
            .latency(LatencyModel::constant_ms(40.0))
            .build(&env),
    );
    // Healthy phase: both observed repeatedly; primary wins.
    for _ in 0..50 {
        sdk.invoke("primary", &req()).unwrap();
        sdk.invoke("backup", &req()).unwrap();
    }
    let latency_only = |p: cogsdk::sdk::predict::Predictor| RankOptions {
        predictor: p,
        formula: cogsdk::sdk::score::ScoringFormula::weighted(1.0, 0.0, 0.0),
        ..RankOptions::default()
    };
    // 50 rounds x (10ms + 40ms) = 2500ms: the brown-out has begun.
    assert!(
        env.clock().now() >= SimTime::from_millis(2_500),
        "brown-out began"
    );
    // Brown-out phase: observe a handful of degraded calls.
    for _ in 0..8 {
        sdk.invoke("primary", &req()).unwrap();
        sdk.invoke("backup", &req()).unwrap();
    }
    let by_ewma = sdk.rank(
        "cls",
        &latency_only(cogsdk::sdk::predict::Predictor::Ewma(0.4)),
    );
    let by_mean = sdk.rank("cls", &latency_only(cogsdk::sdk::predict::Predictor::Mean));
    assert_eq!(
        by_ewma[0].service.name(),
        "backup",
        "EWMA should have tracked the regime change: {:?}",
        by_ewma
            .iter()
            .map(|r| (r.service.name().to_string(), r.inputs.response_ms))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        by_mean[0].service.name(),
        "primary",
        "mean still dominated by 50 healthy observations"
    );
}
