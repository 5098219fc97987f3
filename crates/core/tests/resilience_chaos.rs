//! Deterministic chaos regression for the resilience layer.
//!
//! A seeded [`ChaosScenario`] blackholes the primary replica for a fixed
//! window while a backup stays healthy. The ablation at the heart of this
//! suite records the tentpole claim: **with circuit breakers and deadline
//! budgets, tail latency during the outage stays at the healthy baseline;
//! without them, every request burns `timeout x attempts` before failing
//! over.** Everything runs on the virtual clock with fixed seeds, so the
//! numbers are bit-for-bit reproducible.

use cogsdk_core::invoke::{Call, InvocationPolicy};
use cogsdk_core::resilience::{BreakerConfig, BreakerRegistry, Deadline};
use cogsdk_core::{BreakerState, ServiceMonitor};
use cogsdk_obs::{prometheus_text, Telemetry};
use cogsdk_sim::chaos::{ChaosScenario, Fault};
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::{Request, SimEnv, SimService};
use std::sync::Arc;
use std::time::Duration;

/// The primary is unreachable (timeout-style failures) in this window.
const OUTAGE_START: Duration = Duration::from_secs(10);
const OUTAGE_END: Duration = Duration::from_secs(70);
/// The primary's request timeout: what each doomed attempt costs.
const TIMEOUT: Duration = Duration::from_millis(250);
/// Healthy service latency on both replicas.
const HEALTHY_MS: f64 = 10.0;

fn fleet(env: &SimEnv) -> Vec<Arc<SimService>> {
    let scenario = ChaosScenario::new(env_seed()).with_fault(
        "primary",
        Fault::Blackhole {
            start: OUTAGE_START,
            end: OUTAGE_END,
        },
    );
    vec![
        SimService::builder("primary", "ocr")
            .latency(LatencyModel::constant_ms(HEALTHY_MS))
            .timeout(TIMEOUT)
            .failures(scenario.plan_for("primary"))
            .build(env),
        SimService::builder("backup", "ocr")
            .latency(LatencyModel::constant_ms(HEALTHY_MS))
            .timeout(TIMEOUT)
            .failures(scenario.plan_for("backup"))
            .build(env),
    ]
}

fn env_seed() -> u64 {
    0xC0FFEE
}

fn policy() -> InvocationPolicy {
    InvocationPolicy {
        default_retries: 1,
        ..InvocationPolicy::default()
    }
}

fn breaker_cfg() -> BreakerConfig {
    BreakerConfig {
        // Small window so one request's failed attempts reach the trip
        // rate even after a healthy warm-up filled the window with Oks.
        window: 4,
        min_calls: 2,
        trip_error_rate: 0.5,
        // Longer than the outage: recovery is exercised explicitly below.
        open_for: Duration::from_secs(300),
        half_open_probes: 1,
    }
}

/// Issues one failover request at virtual time `at`, returning the
/// end-to-end latency and the failover result. The clock is advanced to
/// `at` *before* the call context (and any deadline) is materialized, so
/// a per-request budget starts ticking at the request's start.
#[allow(clippy::too_many_arguments)]
fn request_at(
    env: &SimEnv,
    candidates: &[Arc<SimService>],
    monitor: &ServiceMonitor,
    telemetry: &Telemetry,
    breakers: &Option<Arc<BreakerRegistry>>,
    budget: Option<Duration>,
    at: Duration,
) -> (
    Duration,
    Result<cogsdk_core::invoke::FailoverSuccess, cogsdk_core::SdkError>,
) {
    let clock = env.clock();
    clock.advance_to(cogsdk_sim::clock::SimTime::ZERO.after(at));
    let deadline = match budget {
        Some(budget) => Deadline::within(clock, budget),
        None => Deadline::NONE,
    };
    let started = clock.now();
    let call = Call::new(monitor, telemetry, telemetry.tracer().new_trace())
        .breakers(breakers.as_deref())
        .deadline(deadline);
    let request = Request::new("recognize", cogsdk_json::json!({"img": 1}));
    let result = call.failover(candidates, &request, &policy());
    (clock.now().since(started), result)
}

fn percentile(samples: &[Duration], p: f64) -> Duration {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort();
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Runs the fixed request schedule (20 healthy, then 100 inside the
/// outage window at 500ms cadence), with or without the resilience layer
/// (breakers + an 800ms per-request deadline), returning (healthy
/// latencies, outage latencies).
fn run_schedule(with_resilience: bool) -> (Vec<Duration>, Vec<Duration>) {
    let env = SimEnv::with_seed(env_seed());
    let candidates = fleet(&env);
    let monitor = ServiceMonitor::new();
    let telemetry = Telemetry::new();
    let breakers = with_resilience.then(|| {
        Arc::new(BreakerRegistry::new(
            env.clock().clone(),
            telemetry.clone(),
            breaker_cfg(),
        ))
    });
    let budget = with_resilience.then_some(Duration::from_millis(800));

    let mut healthy = Vec::new();
    for i in 0..20u64 {
        let at = Duration::from_millis(200 * i);
        let (latency, result) = request_at(
            &env,
            &candidates,
            &monitor,
            &telemetry,
            &breakers,
            budget,
            at,
        );
        result.expect("healthy phase always succeeds");
        healthy.push(latency);
    }

    let mut outage = Vec::new();
    for i in 0..100u64 {
        let at = OUTAGE_START + Duration::from_millis(500 * i);
        let (latency, result) = request_at(
            &env,
            &candidates,
            &monitor,
            &telemetry,
            &breakers,
            budget,
            at,
        );
        let ok = result.expect("the backup keeps every request alive");
        assert_eq!(ok.service, "backup", "outage traffic lands on the backup");
        outage.push(latency);
    }
    (healthy, outage)
}

#[test]
fn ablation_breakers_hold_outage_p99_at_healthy_baseline() {
    let (healthy, outage) = run_schedule(true);
    let (healthy_ctl, outage_ctl) = run_schedule(false);

    let healthy_p99 = percentile(&healthy, 0.99);
    let outage_p99 = percentile(&outage, 0.99);
    let outage_p99_ctl = percentile(&outage_ctl, 0.99);

    // Healthy baselines agree between the arms.
    assert_eq!(healthy_p99, percentile(&healthy_ctl, 0.99));
    // With breakers, only the requests that *discover* the outage pay for
    // it; once tripped, failover skips the primary and p99 over the
    // outage equals the healthy p99.
    assert!(
        outage_p99 <= healthy_p99 * 2,
        "with breakers: outage p99 {outage_p99:?} vs healthy p99 {healthy_p99:?}"
    );
    // Without breakers, every request burns timeout x attempts on the
    // dead primary before failing over.
    let attempts = policy().default_retries as u32 + 1;
    assert!(
        outage_p99_ctl >= TIMEOUT * attempts,
        "control: outage p99 {outage_p99_ctl:?} should be ~timeout x attempts"
    );
    assert!(outage_p99_ctl > healthy_p99 * 2);
}

#[test]
fn failover_skips_tripped_primary_within_one_leg() {
    let env = SimEnv::with_seed(env_seed());
    let candidates = fleet(&env);
    let monitor = ServiceMonitor::new();
    let telemetry = Telemetry::new();
    let breakers = Arc::new(BreakerRegistry::new(
        env.clock().clone(),
        telemetry.clone(),
        breaker_cfg(),
    ));
    let breakers = Some(breakers);

    // First request inside the outage discovers the failure and trips the
    // breaker (2 failed attempts >= min_calls at 100% error rate).
    let (latency, result) = request_at(
        &env,
        &candidates,
        &monitor,
        &telemetry,
        &breakers,
        None,
        OUTAGE_START + Duration::from_secs(1),
    );
    let ok = result.unwrap();
    assert_eq!(ok.service, "backup");
    assert_eq!(ok.services_tried, 2, "discovery pays for both legs");
    assert!(latency >= TIMEOUT * 2, "discovery burns the timeouts");
    assert_eq!(
        breakers.as_ref().unwrap().state("primary"),
        BreakerState::Open
    );

    // Every subsequent request picks the healthy replica within one leg:
    // the open breaker skips the primary without calling it.
    let (primary_calls, _) = candidates[0].stats();
    for i in 0..5u64 {
        let (latency, result) = request_at(
            &env,
            &candidates,
            &monitor,
            &telemetry,
            &breakers,
            None,
            OUTAGE_START + Duration::from_secs(2 + i),
        );
        let ok = result.unwrap();
        assert_eq!(ok.service, "backup");
        assert_eq!(
            ok.services_tried, 1,
            "tripped primary is skipped, not tried"
        );
        assert_eq!(latency, Duration::from_millis(HEALTHY_MS as u64));
    }
    assert_eq!(
        candidates[0].stats().0,
        primary_calls,
        "the tripped primary was never called again"
    );
}

#[test]
fn breaker_recovers_through_half_open_probe_after_outage() {
    let env = SimEnv::with_seed(env_seed());
    let candidates = fleet(&env);
    let monitor = ServiceMonitor::new();
    let telemetry = Telemetry::new();
    let breakers = Arc::new(BreakerRegistry::new(
        env.clock().clone(),
        telemetry.clone(),
        breaker_cfg(),
    ));
    let breakers = Some(breakers);

    // Trip during the outage.
    request_at(
        &env,
        &candidates,
        &monitor,
        &telemetry,
        &breakers,
        None,
        OUTAGE_START + Duration::from_secs(1),
    )
    .1
    .unwrap();
    assert_eq!(
        breakers.as_ref().unwrap().state("primary"),
        BreakerState::Open
    );

    // Past the outage *and* the cooldown, the next admit releases a
    // half-open probe; the recovered primary answers and the breaker
    // closes, restoring primary traffic.
    let (latency, result) = request_at(
        &env,
        &candidates,
        &monitor,
        &telemetry,
        &breakers,
        None,
        OUTAGE_END + Duration::from_secs(300),
    );
    let ok = result.unwrap();
    assert_eq!(
        ok.service, "primary",
        "probe traffic returns to the primary"
    );
    assert_eq!(ok.services_tried, 1);
    assert_eq!(latency, Duration::from_millis(HEALTHY_MS as u64));
    assert_eq!(
        breakers.as_ref().unwrap().state("primary"),
        BreakerState::Closed
    );
}

#[test]
fn breaker_lifecycle_is_visible_in_metrics_and_traces() {
    let env = SimEnv::with_seed(env_seed());
    let candidates = fleet(&env);
    let monitor = ServiceMonitor::new();
    let telemetry = Telemetry::new();
    let breakers = Arc::new(BreakerRegistry::new(
        env.clock().clone(),
        telemetry.clone(),
        breaker_cfg(),
    ));
    let breakers = Some(breakers);
    for i in 0..3u64 {
        request_at(
            &env,
            &candidates,
            &monitor,
            &telemetry,
            &breakers,
            None,
            OUTAGE_START + Duration::from_secs(1 + i),
        )
        .1
        .unwrap();
    }
    let text = prometheus_text(telemetry.metrics());
    assert!(
        text.contains(r#"sdk_breaker_transitions_total{service="primary",to="open"} 1"#),
        "{text}"
    );
    assert!(
        text.contains(r#"sdk_breaker_state{service="primary"} 1"#),
        "{text}"
    );
    assert!(
        text.contains(r#"sdk_breaker_rejections_total{service="primary"} 2"#),
        "{text}"
    );
    let names: Vec<&str> = telemetry
        .tracer()
        .events()
        .iter()
        .map(|e| e.kind.name())
        .collect::<Vec<_>>();
    assert!(names.contains(&"breaker_transition"), "{names:?}");
    assert!(names.contains(&"breaker_rejected"), "{names:?}");
}
