//! Failure handling: retries, ranked failover, and redundant invocation.
//!
//! §2.1: "If a service is unresponsive, the rich SDK has the ability to
//! retry a service multiple times. The number of retries can be specified
//! by the user… It would generally be preferable to start with higher
//! ranked services and continue with lower ranked services until a
//! responsive service is found. The number of times to retry each service
//! … may be different for different services." And: "it is sometimes
//! desirable to invoke more than one service instead of just picking a
//! single one" — for redundancy or to combine/compare outputs.

use crate::monitor::{duration_ms, ServiceMonitor};
use crate::resilience::{Admission, BreakerRegistry, Deadline};
use crate::SdkError;
use cogsdk_obs::{tenant_labels, EventKind, SpanCtx, Telemetry};
use cogsdk_sim::rng::Rng;
use cogsdk_sim::service::{Outcome, Request, Response, ServiceError, SimService};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The metric/event outcome label for a service result.
pub fn outcome_kind(result: &Result<Response, ServiceError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(e) => e.kind(),
    }
}

/// How long to wait between retry attempts.
///
/// Backoff matters when failures are bursty (a service mid-outage keeps
/// failing fast): spacing retries out trades latency for a higher chance
/// the outage has passed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backoff {
    /// Retry immediately.
    None,
    /// Wait a fixed delay before every retry.
    Fixed(Duration),
    /// Wait `base · factor^attempt`, capped at `max`.
    Exponential {
        /// Delay before the first retry.
        base: Duration,
        /// Multiplier per subsequent retry.
        factor: f64,
        /// Upper bound on any single delay.
        max: Duration,
    },
    /// AWS-style *full jitter*: wait a uniform random delay in
    /// `[0, min(max, base · factor^attempt)]`. Spreads simultaneous
    /// retries out so callers hit by the same outage do not re-converge
    /// on the service in synchronized waves.
    FullJitter {
        /// Envelope before the first retry.
        base: Duration,
        /// Envelope multiplier per subsequent retry.
        factor: f64,
        /// Upper bound on any envelope.
        max: Duration,
    },
}

/// Seeds one deterministic-but-distinct jitter stream per invocation, so
/// concurrent callers sharing a backoff policy draw different delays.
static JITTER_SEQ: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

fn jitter_rng() -> Rng {
    Rng::new(JITTER_SEQ.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed))
}

impl Backoff {
    /// A conventional exponential policy: 50 ms doubling up to 2 s.
    pub fn standard_exponential() -> Backoff {
        Backoff::Exponential {
            base: Duration::from_millis(50),
            factor: 2.0,
            max: Duration::from_secs(2),
        }
    }

    /// The full-jitter variant of
    /// [`standard_exponential`](Self::standard_exponential): same
    /// 50 ms-doubling-to-2 s envelope, but each delay is drawn uniformly
    /// from `[0, envelope]`.
    pub fn standard_full_jitter() -> Backoff {
        Backoff::FullJitter {
            base: Duration::from_millis(50),
            factor: 2.0,
            max: Duration::from_secs(2),
        }
    }

    fn envelope(base: Duration, factor: f64, max: Duration, retry: usize) -> Duration {
        // Cap in the f64 domain: `factor.powi(retry)` overflows to
        // infinity at large retry counts (and `0 × ∞` is NaN), which
        // `Duration::from_secs_f64` panics on. Anything not strictly
        // below the cap — including inf/NaN — takes the cap.
        let max_s = max.as_secs_f64();
        let scaled = base.as_secs_f64() * factor.powi(retry.min(i32::MAX as usize) as i32);
        if scaled.is_nan() || scaled >= max_s {
            return max;
        }
        if scaled <= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(scaled)
    }

    /// The delay before retry number `retry` (0-based). For
    /// [`Backoff::FullJitter`] this is the *envelope* (the worst case);
    /// use [`delay_sampled`](Self::delay_sampled) for the actual draw.
    pub fn delay(&self, retry: usize) -> Duration {
        match *self {
            Backoff::None => Duration::ZERO,
            Backoff::Fixed(d) => d,
            Backoff::Exponential { base, factor, max }
            | Backoff::FullJitter { base, factor, max } => {
                Backoff::envelope(base, factor, max, retry)
            }
        }
    }

    /// The concrete delay before retry number `retry`: deterministic for
    /// the non-jittered policies, a uniform draw in `[0, envelope]` for
    /// [`Backoff::FullJitter`].
    pub fn delay_sampled(&self, retry: usize, rng: &mut Rng) -> Duration {
        match *self {
            Backoff::FullJitter { base, factor, max } => {
                Backoff::envelope(base, factor, max, retry).mul_f64(rng.next_f64())
            }
            _ => self.delay(retry),
        }
    }
}

/// Retry/failover configuration.
#[derive(Debug, Clone)]
pub struct InvocationPolicy {
    /// Default number of retries per service (beyond the first attempt).
    pub default_retries: usize,
    /// Per-service retry overrides (§2.1: "may be different for different
    /// services").
    pub per_service_retries: HashMap<String, usize>,
    /// Maximum number of ranked candidates to try before giving up.
    pub max_services: usize,
    /// Delay schedule between retries.
    pub backoff: Backoff,
}

impl Default for InvocationPolicy {
    fn default() -> InvocationPolicy {
        InvocationPolicy {
            default_retries: 2,
            per_service_retries: HashMap::new(),
            max_services: usize::MAX,
            backoff: Backoff::None,
        }
    }
}

impl InvocationPolicy {
    /// Retries allowed for `service`.
    pub fn retries_for(&self, service: &str) -> usize {
        self.per_service_retries
            .get(service)
            .copied()
            .unwrap_or(self.default_retries)
    }
}

/// How redundant multi-service invocation treats its candidates (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedundantMode {
    /// Invoke every candidate and return all results (comparison /
    /// aggregation use case).
    All,
    /// Invoke candidates in rank order, stopping at the first success
    /// (availability use case).
    FirstSuccess,
    /// Invoke every candidate but require at least this many successes.
    Quorum(usize),
}

/// The result of a successful failover: which service answered and how.
#[derive(Debug, Clone)]
pub struct FailoverSuccess {
    /// The responding service's name.
    pub service: String,
    /// Its response.
    pub response: Response,
    /// How many services were tried (including the successful one).
    pub services_tried: usize,
    /// Total attempts across all services.
    pub attempts: usize,
    /// Latency of the successful attempt in (virtual) milliseconds —
    /// what a latency prediction for the winning service should be
    /// compared against.
    pub latency_ms: f64,
}

/// Outcome of one leg of a redundant invocation.
#[derive(Debug, Clone)]
pub struct RedundantLeg {
    /// The service invoked.
    pub service: String,
    /// Its result.
    pub result: Result<Response, ServiceError>,
}

/// One service's final result in the SDK's error vocabulary: a malformed
/// request is [`SdkError::Rejected`], anything else is
/// [`SdkError::AllFailed`] naming the service.
pub(crate) fn response_or_error(
    service: &str,
    result: Result<Response, ServiceError>,
) -> Result<Response, SdkError> {
    match result {
        Ok(response) => Ok(response),
        Err(ServiceError::BadRequest(msg)) => Err(SdkError::Rejected(msg)),
        Err(e) => Err(SdkError::AllFailed(format!("{service}: {e}"))),
    }
}

/// The context one invocation runs in: where attempts are recorded (the
/// monitor), where events and metrics go (telemetry, under `span`), and
/// what governs it (the circuit breakers, if any, and the end-to-end
/// deadline). Each §2.1 strategy is one method that takes everything
/// else as arguments. Borrowed and `Copy`: build one per call, adjust it
/// with [`span`](Call::span) / [`deadline`](Call::deadline) /
/// [`breakers`](Call::breakers), and pass it down by reference. Work that
/// moves to another thread clones the owners it borrows from and
/// rebuilds the context there.
///
/// # Examples
///
/// ```
/// use cogsdk_core::invoke::{Backoff, Call};
/// use cogsdk_core::ServiceMonitor;
/// use cogsdk_sim::{Request, SimEnv, SimService};
/// use cogsdk_json::json;
///
/// let env = SimEnv::with_seed(1);
/// let monitor = ServiceMonitor::new();
/// let echo = SimService::builder("echo", "demo").build(&env);
/// let (outcome, attempts) = Call::plain(&monitor).retry(
///     &echo,
///     &Request::new("op", json!({"x": 1})),
///     2,
///     Backoff::None,
/// );
/// assert!(outcome.result.is_ok());
/// assert_eq!(attempts, 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Call<'a> {
    pub(crate) monitor: &'a ServiceMonitor,
    pub(crate) telemetry: &'a Telemetry,
    pub(crate) span: SpanCtx,
    pub(crate) breakers: Option<&'a BreakerRegistry>,
    pub(crate) deadline: Deadline,
}

impl<'a> Call<'a> {
    /// A context recording into `monitor` and emitting into `telemetry`
    /// under `span`, with no breakers and no deadline.
    pub fn new(monitor: &'a ServiceMonitor, telemetry: &'a Telemetry, span: SpanCtx) -> Call<'a> {
        Call {
            monitor,
            telemetry,
            span,
            breakers: None,
            deadline: Deadline::NONE,
        }
    }

    /// The ungoverned, untraced context: attempts are recorded in
    /// `monitor` and nothing else happens around them.
    pub fn plain(monitor: &'a ServiceMonitor) -> Call<'a> {
        static DISABLED: OnceLock<Telemetry> = OnceLock::new();
        let telemetry = DISABLED.get_or_init(Telemetry::disabled);
        Call::new(monitor, telemetry, telemetry.tracer().new_trace())
    }

    /// This context, emitting under `span` instead.
    pub fn span(mut self, span: &SpanCtx) -> Call<'a> {
        self.span = *span;
        self
    }

    /// This context, bounded by `deadline`.
    pub fn deadline(mut self, deadline: Deadline) -> Call<'a> {
        self.deadline = deadline;
        self
    }

    /// This context, consulting and feeding `breakers`.
    pub fn breakers(mut self, breakers: Option<&'a BreakerRegistry>) -> Call<'a> {
        self.breakers = breakers;
        self
    }

    /// Invokes one service with up to `retries` retries and `backoff`
    /// delays between attempts (realized on the simulation timeline),
    /// recording every attempt in the monitor. Non-retryable failures
    /// (bad request, quota) abort immediately. Returns the final outcome
    /// and the number of attempts made.
    ///
    /// Emits one [`EventKind::Attempt`] per attempt and an
    /// [`EventKind::RetryBackoff`] per backoff sleep, plus attempt/error
    /// counters and the attempt-latency histogram. The deadline stops
    /// retrying once the remaining budget cannot cover the next backoff
    /// sleep; the first attempt always runs — an expired budget is the
    /// *caller's* signal not to start, which [`invoke`](Call::invoke),
    /// [`failover`](Call::failover) and [`redundant`](Call::redundant)
    /// each check before they get here. Every attempt result feeds the
    /// service's circuit breaker, if breakers are attached.
    pub fn retry(
        &self,
        service: &Arc<SimService>,
        request: &Request,
        retries: usize,
        backoff: Backoff,
    ) -> (Outcome, usize) {
        let tracer = self.telemetry.tracer();
        let mut jitter = jitter_rng();
        let mut last = None;
        for attempt in 1..=retries + 1 {
            if attempt > 1 {
                let delay = backoff.delay_sampled(attempt - 2, &mut jitter);
                let out_of_budget = match self.deadline.remaining(service.clock().now()) {
                    Some(rem) => rem.is_zero() || delay >= rem,
                    None => false,
                };
                if out_of_budget {
                    self.emit_deadline_exhausted("backoff");
                    return (last.expect("a first attempt was made"), attempt - 1);
                }
                if !delay.is_zero() {
                    tracer.emit(&self.span, || EventKind::RetryBackoff {
                        service: service.name().to_string(),
                        retry: attempt - 1,
                        delay_ms: duration_ms(delay),
                    });
                    service.realize_delay(delay);
                }
            }
            let outcome = service.invoke(request);
            self.monitor
                .record(service.name(), &outcome, request.params.clone());
            self.record_attempt(service.name(), attempt, &outcome);
            if let Some(breakers) = self.breakers {
                // Bad requests and quota rejections say nothing about the
                // service's health; only real outcomes feed the breaker.
                match &outcome.result {
                    Ok(_) => breakers.record(service.name(), true, &self.span),
                    Err(e) if e.is_retryable() => {
                        breakers.record(service.name(), false, &self.span)
                    }
                    Err(_) => {}
                }
            }
            match &outcome.result {
                Ok(_) => return (outcome, attempt),
                Err(e) if !e.is_retryable() => return (outcome, attempt),
                Err(_) => last = Some(outcome),
            }
        }
        (last.expect("at least one attempt was made"), retries + 1)
    }

    /// Whether an invocation of `service` may start at all.
    ///
    /// # Errors
    ///
    /// [`SdkError::DeadlineExceeded`] if the deadline has already passed;
    /// [`SdkError::CircuitOpen`] while the service's breaker is open.
    pub(crate) fn admit(&self, service: &SimService) -> Result<(), SdkError> {
        let name = service.name();
        // The clock is read only when there is a deadline to hold it to.
        if self.deadline != Deadline::NONE && self.deadline.is_expired(service.clock().now()) {
            return Err(SdkError::DeadlineExceeded(format!(
                "no budget left to invoke {name}"
            )));
        }
        if let Some(breakers) = self.breakers {
            if let Admission::Rejected { retry_after } = breakers.admit(name, &self.span) {
                return Err(SdkError::CircuitOpen(format!(
                    "{name}: retry in {:.0}ms",
                    retry_after.as_secs_f64() * 1000.0
                )));
            }
        }
        Ok(())
    }

    /// [`retry`](Call::retry) for callers that want the response or an
    /// [`SdkError`] (NLU batches, KB federation): immediate retries, and
    /// no attempt at all past the deadline or behind an open breaker.
    ///
    /// # Errors
    ///
    /// [`SdkError::DeadlineExceeded`] if the deadline has already passed
    /// when called; [`SdkError::CircuitOpen`] while the service's breaker
    /// is open; [`SdkError::Rejected`] for a malformed request (another
    /// service would reject it too); [`SdkError::AllFailed`], naming the
    /// service, when the retries are exhausted.
    pub fn invoke(
        &self,
        service: &Arc<SimService>,
        request: &Request,
        retries: usize,
    ) -> Result<Response, SdkError> {
        self.admit(service)?;
        let (outcome, _) = self.retry(service, request, retries, Backoff::None);
        response_or_error(service.name(), outcome.result)
    }

    fn emit_deadline_exhausted(&self, stage: &'static str) {
        self.telemetry
            .tracer()
            .emit(&self.span, || EventKind::DeadlineExhausted { stage });
        self.telemetry
            .metrics()
            .inc_counter("sdk_deadline_exhausted_total", &[("stage", stage)]);
    }

    fn record_attempt(&self, service: &str, attempt: usize, outcome: &Outcome) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let tracer = self.telemetry.tracer();
        let kind = outcome_kind(&outcome.result);
        let latency_ms = duration_ms(outcome.latency);
        tracer.emit(&self.span, || EventKind::Attempt {
            service: service.to_string(),
            attempt,
            outcome: kind,
            latency_ms,
        });
        let metrics = self.telemetry.metrics();
        let tenant = tracer.tenant_name(self.span.tenant);
        let tenant = tenant.as_deref().unwrap_or("");
        metrics.inc_counter(
            "sdk_attempts_total",
            tenant_labels(&[("service", service), ("outcome", kind), ("tenant", tenant)]),
        );
        metrics.observe_with_exemplar(
            "sdk_attempt_latency_ms",
            tenant_labels(&[("service", service), ("tenant", tenant)]),
            latency_ms,
            self.span.trace.0,
        );
        if let Err(e) = &outcome.result {
            metrics.inc_counter(
                "sdk_errors_total",
                tenant_labels(&[("service", service), ("kind", e.kind()), ("tenant", tenant)]),
            );
        }
    }

    /// Tries `candidates` in order (callers pass them ranked best-first),
    /// retrying each per `policy`, until one responds. Emits an
    /// [`EventKind::FailoverLeg`] child span per candidate (with the
    /// attempts nested under it). Legs whose circuit breaker is open are
    /// skipped without being attempted, and no new leg starts after the
    /// deadline expires.
    ///
    /// # Errors
    ///
    /// [`SdkError::Rejected`] as soon as any service rejects the request
    /// as malformed (other services would too); [`SdkError::AllFailed`]
    /// if every candidate fails; [`SdkError::EmptyClass`] if `candidates`
    /// is empty; [`SdkError::DeadlineExceeded`] when the budget runs out
    /// with no success yet; and [`SdkError::CircuitOpen`] when *every*
    /// candidate was skipped because its breaker is open.
    pub fn failover(
        &self,
        candidates: &[Arc<SimService>],
        request: &Request,
        policy: &InvocationPolicy,
    ) -> Result<FailoverSuccess, SdkError> {
        if candidates.is_empty() {
            return Err(SdkError::EmptyClass("<no candidates>".into()));
        }
        let tracer = self.telemetry.tracer();
        let mut attempts = 0usize;
        let mut legs_run = 0usize;
        let mut last_error = String::new();
        let mut min_retry_after: Option<Duration> = None;
        for (i, service) in candidates.iter().take(policy.max_services).enumerate() {
            if self.deadline.is_expired(service.clock().now()) {
                self.emit_deadline_exhausted("failover");
                return Err(SdkError::DeadlineExceeded(format!(
                    "budget exhausted after {attempts} attempts across {legs_run} services"
                )));
            }
            if let Some(breakers) = self.breakers {
                if let Admission::Rejected { retry_after } =
                    breakers.admit(service.name(), &self.span)
                {
                    min_retry_after = Some(match min_retry_after {
                        Some(cur) => cur.min(retry_after),
                        None => retry_after,
                    });
                    last_error = format!("{}: circuit open", service.name());
                    continue;
                }
            }
            legs_run += 1;
            let leg = tracer.child(&self.span);
            tracer.emit(&leg, || EventKind::FailoverLeg {
                service: service.name().to_string(),
                rank: i,
            });
            self.telemetry
                .metrics()
                .inc_counter("sdk_failover_legs_total", &[("service", service.name())]);
            let retries = policy.retries_for(service.name());
            let (outcome, made) = self
                .span(&leg)
                .retry(service, request, retries, policy.backoff);
            attempts += made;
            match response_or_error(service.name(), outcome.result) {
                Ok(response) => {
                    return Ok(FailoverSuccess {
                        service: service.name().to_string(),
                        response,
                        // Count services actually attempted: legs skipped by an
                        // open breaker cost nothing and are not "tried".
                        services_tried: legs_run,
                        attempts,
                        latency_ms: duration_ms(outcome.latency),
                    });
                }
                Err(SdkError::AllFailed(e)) => last_error = e,
                Err(rejected) => return Err(rejected),
            }
        }
        if legs_run == 0 {
            if let Some(retry_after) = min_retry_after {
                return Err(SdkError::CircuitOpen(format!(
                    "all candidates tripped; retry in {:.0}ms",
                    retry_after.as_secs_f64() * 1_000.0
                )));
            }
        }
        Err(SdkError::AllFailed(last_error))
    }

    /// Invokes multiple candidates per `mode`. Legs run sequentially in
    /// rank order here; the [`sdk`](crate::sdk) facade offers a
    /// thread-pooled parallel variant (§2.1 discusses both). Legs behind
    /// an open breaker are skipped, and no new leg starts after the
    /// deadline expires (legs already collected still count toward the
    /// mode's success requirement). The collected legs are then
    /// `settle`d.
    ///
    /// # Errors
    ///
    /// [`SdkError::AllFailed`] if `mode` is `FirstSuccess` and all fail,
    /// or a quorum is not met; [`SdkError::CircuitOpen`] when every
    /// candidate was skipped by its breaker; and
    /// [`SdkError::DeadlineExceeded`] when the budget expired before any
    /// leg could run.
    pub fn redundant(
        &self,
        candidates: &[Arc<SimService>],
        request: &Request,
        mode: RedundantMode,
        policy: &InvocationPolicy,
    ) -> Result<Vec<RedundantLeg>, SdkError> {
        if candidates.is_empty() {
            return Err(SdkError::EmptyClass("<no candidates>".into()));
        }
        let mut legs = Vec::new();
        let mut skipped = 0usize;
        let mut expired = false;
        for service in candidates.iter().take(policy.max_services) {
            if self.deadline.is_expired(service.clock().now()) {
                self.emit_deadline_exhausted("redundant");
                expired = true;
                break;
            }
            if let Some(breakers) = self.breakers {
                if !breakers.admit(service.name(), &self.span).is_allowed() {
                    skipped += 1;
                    continue;
                }
            }
            let leg = self.telemetry.tracer().child(&self.span);
            let retries = policy.retries_for(service.name());
            let (outcome, _) = self
                .span(&leg)
                .retry(service, request, retries, policy.backoff);
            let success = outcome.result.is_ok();
            legs.push(RedundantLeg {
                service: service.name().to_string(),
                result: outcome.result,
            });
            if mode == RedundantMode::FirstSuccess && success {
                break;
            }
        }
        if legs.is_empty() {
            if skipped > 0 && !expired {
                return Err(SdkError::CircuitOpen(format!(
                    "all {skipped} candidates tripped"
                )));
            }
            if expired {
                return Err(SdkError::DeadlineExceeded(
                    "budget expired before any redundant leg ran".into(),
                ));
            }
        }
        self.settle(legs, mode)
    }

    /// Closes a redundant invocation over its collected `legs`, however
    /// they were run: emits [`EventKind::RedundantLegWon`] for the leg
    /// whose response wins (the first success) and
    /// [`EventKind::RedundantLegLost`] for every other leg, counts both
    /// in `sdk_redundant_legs_total`, and applies `mode`'s success
    /// requirement.
    ///
    /// # Errors
    ///
    /// [`SdkError::AllFailed`] if `mode` is `FirstSuccess` and no leg
    /// succeeded, or a quorum is not met.
    pub(crate) fn settle(
        &self,
        legs: Vec<RedundantLeg>,
        mode: RedundantMode,
    ) -> Result<Vec<RedundantLeg>, SdkError> {
        if self.telemetry.is_enabled() {
            let winner = legs.iter().position(|l| l.result.is_ok());
            for (i, leg) in legs.iter().enumerate() {
                let won = winner == Some(i);
                self.telemetry.tracer().emit(&self.span, || {
                    if won {
                        EventKind::RedundantLegWon {
                            service: leg.service.clone(),
                        }
                    } else {
                        EventKind::RedundantLegLost {
                            service: leg.service.clone(),
                            outcome: outcome_kind(&leg.result),
                        }
                    }
                });
                self.telemetry.metrics().inc_counter(
                    "sdk_redundant_legs_total",
                    &[
                        ("service", &leg.service),
                        ("result", if won { "won" } else { "lost" }),
                    ],
                );
            }
        }
        let successes = legs.iter().filter(|l| l.result.is_ok()).count();
        match mode {
            RedundantMode::All => Ok(legs),
            RedundantMode::FirstSuccess if successes > 0 => Ok(legs),
            RedundantMode::Quorum(need) if successes >= need => Ok(legs),
            RedundantMode::FirstSuccess => Err(SdkError::AllFailed("no service responded".into())),
            RedundantMode::Quorum(need) => Err(SdkError::AllFailed(format!(
                "quorum not met: {successes}/{need} successes"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsdk_json::json;
    use cogsdk_sim::failure::FailurePlan;
    use cogsdk_sim::latency::LatencyModel;
    use cogsdk_sim::quota::Quota;
    use cogsdk_sim::SimEnv;
    use std::time::Duration;

    fn svc(env: &SimEnv, name: &str, fail_rate: f64) -> Arc<SimService> {
        SimService::builder(name, "demo")
            .latency(LatencyModel::constant_ms(5.0))
            .failures(FailurePlan::flaky(fail_rate))
            .build(env)
    }

    fn req() -> Request {
        Request::new("op", json!({"q": 1}))
    }

    /// Breakers that trip after two failures and stay open for a minute.
    fn tight_breakers(env: &SimEnv, telemetry: &Telemetry) -> BreakerRegistry {
        BreakerRegistry::new(
            env.clock().clone(),
            telemetry.clone(),
            crate::resilience::BreakerConfig {
                window: 4,
                min_calls: 2,
                trip_error_rate: 0.5,
                open_for: Duration::from_secs(60),
                half_open_probes: 1,
            },
        )
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let env = SimEnv::with_seed(3);
        let monitor = ServiceMonitor::new();
        let flaky = svc(&env, "flaky", 0.5);
        let mut successes = 0;
        for _ in 0..100 {
            let (outcome, _) = Call::plain(&monitor).retry(&flaky, &req(), 5, Backoff::None);
            if outcome.result.is_ok() {
                successes += 1;
            }
        }
        // With 5 retries at 50% failure, success ≈ 1 - 0.5^6 ≈ 98.4%.
        assert!(successes >= 90, "successes={successes}");
        let history = monitor.history("flaky").unwrap();
        assert!(history.observations().len() > 100, "attempts recorded");
    }

    #[test]
    fn retry_does_not_retry_bad_requests() {
        let env = SimEnv::with_seed(4);
        let monitor = ServiceMonitor::new();
        let rejecting = SimService::builder("rejects", "demo")
            .handler(|_| Err("nope".into()))
            .build(&env);
        let (out, _) = Call::plain(&monitor).retry(&rejecting, &req(), 10, Backoff::None);
        assert!(matches!(out.result, Err(ServiceError::BadRequest(_))));
        assert_eq!(monitor.history("rejects").unwrap().observations().len(), 1);
    }

    #[test]
    fn retry_does_not_retry_quota_exhaustion() {
        let env = SimEnv::with_seed(5);
        let monitor = ServiceMonitor::new();
        let limited = SimService::builder("limited", "demo")
            .quota(Quota::new(1, Duration::from_secs(3600)))
            .build(&env);
        let call = Call::plain(&monitor);
        assert!(call
            .retry(&limited, &req(), 0, Backoff::None)
            .0
            .result
            .is_ok());
        let (out, _) = call.retry(&limited, &req(), 10, Backoff::None);
        assert!(matches!(out.result, Err(ServiceError::QuotaExceeded)));
        // 1 success + 1 quota rejection = 2 observations, not 12.
        assert_eq!(monitor.history("limited").unwrap().observations().len(), 2);
    }

    #[test]
    fn failover_skips_dead_service() {
        let env = SimEnv::with_seed(6);
        let monitor = ServiceMonitor::new();
        let dead = svc(&env, "dead", 1.0);
        let alive = svc(&env, "alive", 0.0);
        let policy = InvocationPolicy {
            default_retries: 1,
            ..InvocationPolicy::default()
        };
        let ok = Call::plain(&monitor)
            .failover(&[dead, alive], &req(), &policy)
            .unwrap();
        assert_eq!(ok.service, "alive");
        assert_eq!(ok.services_tried, 2);
        assert_eq!(ok.attempts, 3); // dead: 2 attempts, alive: 1
    }

    #[test]
    fn failover_all_dead_reports_all_failed() {
        let env = SimEnv::with_seed(7);
        let monitor = ServiceMonitor::new();
        let candidates = vec![svc(&env, "d1", 1.0), svc(&env, "d2", 1.0)];
        let err = Call::plain(&monitor)
            .failover(&candidates, &req(), &InvocationPolicy::default())
            .unwrap_err();
        assert!(matches!(err, SdkError::AllFailed(_)));
    }

    #[test]
    fn failover_respects_max_services() {
        let env = SimEnv::with_seed(8);
        let monitor = ServiceMonitor::new();
        let candidates = vec![svc(&env, "d1", 1.0), svc(&env, "alive", 0.0)];
        let policy = InvocationPolicy {
            max_services: 1,
            ..InvocationPolicy::default()
        };
        assert!(Call::plain(&monitor)
            .failover(&candidates, &req(), &policy)
            .is_err());
    }

    #[test]
    fn failover_bad_request_aborts_immediately() {
        let env = SimEnv::with_seed(9);
        let monitor = ServiceMonitor::new();
        let rejecting = SimService::builder("rejects", "demo")
            .handler(|_| Err("malformed".into()))
            .build(&env);
        let alive = svc(&env, "alive", 0.0);
        let err = Call::plain(&monitor)
            .failover(&[rejecting, alive], &req(), &InvocationPolicy::default())
            .unwrap_err();
        assert!(matches!(err, SdkError::Rejected(_)), "{err:?}");
    }

    #[test]
    fn failover_per_service_retry_overrides() {
        let env = SimEnv::with_seed(10);
        let monitor = ServiceMonitor::new();
        let dead = svc(&env, "dead", 1.0);
        let alive = svc(&env, "alive", 0.0);
        let policy = InvocationPolicy {
            default_retries: 0,
            per_service_retries: [("dead".to_string(), 4)].into_iter().collect(),
            max_services: usize::MAX,
            backoff: Backoff::None,
        };
        let ok = Call::plain(&monitor)
            .failover(&[dead, alive], &req(), &policy)
            .unwrap();
        assert_eq!(ok.attempts, 6); // dead 5, alive 1
    }

    #[test]
    fn redundant_all_returns_every_leg() {
        let env = SimEnv::with_seed(11);
        let monitor = ServiceMonitor::new();
        let candidates = vec![
            svc(&env, "a", 0.0),
            svc(&env, "b", 0.0),
            svc(&env, "c", 1.0),
        ];
        let legs = Call::plain(&monitor)
            .redundant(
                &candidates,
                &req(),
                RedundantMode::All,
                &InvocationPolicy {
                    default_retries: 0,
                    ..InvocationPolicy::default()
                },
            )
            .unwrap();
        assert_eq!(legs.len(), 3);
        assert_eq!(legs.iter().filter(|l| l.result.is_ok()).count(), 2);
    }

    #[test]
    fn redundant_first_success_stops_early() {
        let env = SimEnv::with_seed(12);
        let monitor = ServiceMonitor::new();
        let candidates = vec![svc(&env, "a", 0.0), svc(&env, "b", 0.0)];
        let legs = Call::plain(&monitor)
            .redundant(
                &candidates,
                &req(),
                RedundantMode::FirstSuccess,
                &InvocationPolicy::default(),
            )
            .unwrap();
        assert_eq!(legs.len(), 1);
        assert_eq!(legs[0].service, "a");
        assert!(monitor.history("b").is_none(), "b never invoked");
    }

    #[test]
    fn redundant_quorum_enforced() {
        let env = SimEnv::with_seed(13);
        let monitor = ServiceMonitor::new();
        let candidates = vec![
            svc(&env, "a", 0.0),
            svc(&env, "b", 1.0),
            svc(&env, "c", 1.0),
        ];
        let policy = InvocationPolicy {
            default_retries: 0,
            ..InvocationPolicy::default()
        };
        let call = Call::plain(&monitor);
        assert!(call
            .redundant(&candidates, &req(), RedundantMode::Quorum(1), &policy)
            .is_ok());
        let err = call
            .redundant(&candidates, &req(), RedundantMode::Quorum(2), &policy)
            .unwrap_err();
        assert!(matches!(err, SdkError::AllFailed(_)));
    }

    #[test]
    fn backoff_schedules() {
        assert_eq!(Backoff::None.delay(0), Duration::ZERO);
        assert_eq!(
            Backoff::Fixed(Duration::from_millis(10)).delay(3),
            Duration::from_millis(10)
        );
        let exp = Backoff::standard_exponential();
        assert_eq!(exp.delay(0), Duration::from_millis(50));
        assert_eq!(exp.delay(1), Duration::from_millis(100));
        assert_eq!(exp.delay(2), Duration::from_millis(200));
        assert_eq!(exp.delay(10), Duration::from_secs(2), "capped");
    }

    #[test]
    fn backoff_survives_huge_retry_counts() {
        // Regression: `factor.powi(retry)` overflows to infinity for large
        // retry counts, and `Duration::from_secs_f64(inf)` panics. The cap
        // must be applied in the f64 domain before constructing a Duration.
        let exp = Backoff::standard_exponential();
        assert_eq!(exp.delay(10_000), Duration::from_secs(2));
        let jitter = Backoff::standard_full_jitter();
        assert_eq!(jitter.delay(10_000), Duration::from_secs(2));
        let mut rng = Rng::new(7);
        assert!(jitter.delay_sampled(10_000, &mut rng) <= Duration::from_secs(2));
        // Zero base never scales above zero, even at huge retry counts.
        let zero = Backoff::Exponential {
            base: Duration::ZERO,
            factor: 2.0,
            max: Duration::from_secs(2),
        };
        assert_eq!(zero.delay(0), Duration::ZERO);
    }

    #[test]
    fn backoff_advances_virtual_clock_between_retries() {
        let env = SimEnv::with_seed(14);
        let monitor = ServiceMonitor::new();
        let dead = svc(&env, "dead", 1.0);
        let t0 = env.clock().now();
        let (outcome, attempts) = Call::plain(&monitor).retry(
            &dead,
            &req(),
            2,
            Backoff::Fixed(Duration::from_millis(100)),
        );
        assert!(outcome.result.is_err());
        assert_eq!(attempts, 3);
        let elapsed = env.clock().now().since(t0);
        // 3 failure detections plus 2 backoff delays of 100ms.
        assert!(
            elapsed >= Duration::from_millis(200),
            "elapsed {elapsed:?} must include both backoff delays"
        );
    }

    #[test]
    fn zero_backoff_adds_no_latency_on_success() {
        let env = SimEnv::with_seed(15);
        let monitor = ServiceMonitor::new();
        let alive = svc(&env, "alive", 0.0);
        let t0 = env.clock().now();
        Call::plain(&monitor).retry(&alive, &req(), 5, Backoff::standard_exponential());
        // Success on the first attempt: no backoff is realized.
        assert_eq!(env.clock().now().since(t0), Duration::from_millis(5));
    }

    #[test]
    fn full_jitter_delays_stay_within_envelope() {
        let policy = Backoff::standard_full_jitter();
        let mut rng = Rng::new(99);
        for retry in 0..12 {
            let envelope = policy.delay(retry);
            for _ in 0..50 {
                let d = policy.delay_sampled(retry, &mut rng);
                assert!(d <= envelope, "retry {retry}: {d:?} > {envelope:?}");
            }
        }
        assert_eq!(policy.delay(10), Duration::from_secs(2), "envelope capped");
    }

    #[test]
    fn full_jitter_differs_across_callers() {
        let policy = Backoff::standard_full_jitter();
        // Two independent invocations (fresh jitter streams, as each
        // `Call::retry` creates) must not produce the
        // identical delay sequence — that is the retry storm full jitter
        // exists to break up.
        let seq = |rng: &mut Rng| -> Vec<Duration> {
            (0..6).map(|r| policy.delay_sampled(r, rng)).collect()
        };
        let a = seq(&mut jitter_rng());
        let b = seq(&mut jitter_rng());
        assert_ne!(a, b, "two callers drew identical jitter sequences");
        // And the non-jittered policies remain deterministic.
        let exp = Backoff::standard_exponential();
        assert_eq!(
            exp.delay_sampled(3, &mut jitter_rng()),
            exp.delay_sampled(3, &mut jitter_rng())
        );
    }

    #[test]
    fn deadline_stops_retries_mid_sequence() {
        let env = SimEnv::with_seed(20);
        let monitor = ServiceMonitor::new();
        let dead = svc(&env, "dead", 1.0);
        let telemetry = Telemetry::new();
        let ctx = telemetry.tracer().new_trace();
        // Each failed attempt burns 5s (the default timeout? no — flaky
        // failures are timeouts burning the 5s default timeout). Budget of
        // 12s admits attempt 1 (5s) and attempt 2 (10s), not attempt 3.
        let call = Call::new(&monitor, &telemetry, ctx)
            .deadline(Deadline::within(env.clock(), Duration::from_secs(12)));
        let (outcome, attempts) = call.retry(&dead, &req(), 10, Backoff::None);
        assert!(outcome.result.is_err());
        assert!(
            attempts < 11,
            "deadline must cut the retry budget short, made {attempts}"
        );
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("sdk_deadline_exhausted_total", &[("stage", "backoff")]),
            Some(1)
        );
    }

    #[test]
    fn deadline_skips_backoff_sleep_it_cannot_afford() {
        let env = SimEnv::with_seed(21);
        let monitor = ServiceMonitor::new();
        let dead = SimService::builder("dead", "demo")
            .latency(LatencyModel::constant_ms(5.0))
            .failures(FailurePlan::flaky(1.0))
            .timeout(Duration::from_millis(50))
            .build(&env);
        let telemetry = Telemetry::disabled();
        let ctx = telemetry.tracer().new_trace();
        let t0 = env.clock().now();
        let call = Call::new(&monitor, &telemetry, ctx)
            .deadline(Deadline::within(env.clock(), Duration::from_millis(120)));
        // Fixed 1s backoff dwarfs the 120ms budget: after the first 50ms
        // failure, the sleep must be skipped and the sequence must end.
        let (_, attempts) = call.retry(&dead, &req(), 5, Backoff::Fixed(Duration::from_secs(1)));
        assert_eq!(attempts, 1);
        assert!(
            env.clock().now().since(t0) < Duration::from_millis(200),
            "no backoff sleep was realized"
        );
    }

    #[test]
    fn failover_skips_tripped_service_without_attempting_it() {
        let env = SimEnv::with_seed(22);
        let monitor = ServiceMonitor::new();
        let telemetry = Telemetry::new();
        let dead = svc(&env, "dead", 1.0);
        let alive = svc(&env, "alive", 0.0);
        let breakers = tight_breakers(&env, &telemetry);
        let ctx = telemetry.tracer().new_trace();
        let call = Call::new(&monitor, &telemetry, ctx).breakers(Some(&breakers));
        let policy = InvocationPolicy {
            default_retries: 1,
            ..InvocationPolicy::default()
        };
        let candidates = vec![Arc::clone(&dead), Arc::clone(&alive)];

        // First call trips the breaker on "dead" (2 failed attempts).
        let ok = call.failover(&candidates, &req(), &policy).unwrap();
        assert_eq!(ok.service, "alive");
        assert_eq!(ok.attempts, 3);
        assert_eq!(
            breakers.state("dead"),
            crate::resilience::BreakerState::Open
        );

        // Second call: dead is skipped entirely — one leg, one attempt.
        let (dead_calls_before, _) = dead.stats();
        let ok = call.failover(&candidates, &req(), &policy).unwrap();
        assert_eq!(ok.service, "alive");
        assert_eq!(ok.services_tried, 1);
        assert_eq!(ok.attempts, 1);
        assert_eq!(dead.stats().0, dead_calls_before, "dead was not called");
    }

    #[test]
    fn failover_all_tripped_reports_circuit_open() {
        let env = SimEnv::with_seed(23);
        let monitor = ServiceMonitor::new();
        let telemetry = Telemetry::new();
        let d1 = svc(&env, "d1", 1.0);
        let d2 = svc(&env, "d2", 1.0);
        let breakers = tight_breakers(&env, &telemetry);
        let ctx = telemetry.tracer().new_trace();
        let call = Call::new(&monitor, &telemetry, ctx).breakers(Some(&breakers));
        let policy = InvocationPolicy {
            default_retries: 1,
            ..InvocationPolicy::default()
        };
        let candidates = vec![d1, d2];
        // Trip both.
        let err = call.failover(&candidates, &req(), &policy).unwrap_err();
        assert!(matches!(err, SdkError::AllFailed(_)));
        // Now both breakers are open: pure rejection, no attempts.
        let err = call.failover(&candidates, &req(), &policy).unwrap_err();
        assert!(matches!(err, SdkError::CircuitOpen(_)), "{err:?}");
    }

    #[test]
    fn failover_deadline_expiry_reports_deadline_exceeded() {
        let env = SimEnv::with_seed(24);
        let monitor = ServiceMonitor::new();
        let telemetry = Telemetry::disabled();
        let ctx = telemetry.tracer().new_trace();
        let candidates = vec![svc(&env, "a", 0.0)];
        let deadline = Deadline::within(env.clock(), Duration::from_millis(10));
        env.clock().advance(Duration::from_millis(20));
        let err = Call::new(&monitor, &telemetry, ctx)
            .deadline(deadline)
            .failover(&candidates, &req(), &InvocationPolicy::default())
            .unwrap_err();
        assert!(matches!(err, SdkError::DeadlineExceeded(_)), "{err:?}");
    }

    #[test]
    fn retry_within_refuses_expired_budget() {
        let env = SimEnv::with_seed(25);
        let monitor = ServiceMonitor::new();
        let alive = svc(&env, "alive", 0.0);
        let deadline = Deadline::within(env.clock(), Duration::from_millis(1));
        env.clock().advance(Duration::from_millis(5));
        let call = Call::plain(&monitor);
        let err = call
            .deadline(deadline)
            .invoke(&alive, &req(), 2)
            .unwrap_err();
        assert!(matches!(err, SdkError::DeadlineExceeded(_)));
        assert!(monitor.history("alive").is_none(), "no attempt was made");

        assert!(call.invoke(&alive, &req(), 2).is_ok());
    }

    #[test]
    fn redundant_all_tripped_reports_circuit_open() {
        let env = SimEnv::with_seed(26);
        let monitor = ServiceMonitor::new();
        let telemetry = Telemetry::new();
        let d1 = svc(&env, "d1", 1.0);
        let breakers = tight_breakers(&env, &telemetry);
        let ctx = telemetry.tracer().new_trace();
        let call = Call::new(&monitor, &telemetry, ctx).breakers(Some(&breakers));
        let policy = InvocationPolicy {
            default_retries: 1,
            ..InvocationPolicy::default()
        };
        let candidates = vec![d1];
        let _ = call.redundant(&candidates, &req(), RedundantMode::All, &policy);
        let err = call
            .redundant(&candidates, &req(), RedundantMode::All, &policy)
            .unwrap_err();
        assert!(matches!(err, SdkError::CircuitOpen(_)), "{err:?}");
    }

    /// Every strategy under every governance concern, in one table: a new
    /// concern adds a row here, not a function per strategy.
    #[test]
    fn every_strategy_honours_every_concern() {
        #[derive(Debug, Clone, Copy)]
        enum Concern {
            None,
            ExpiredDeadline,
            TrippedBreaker,
        }
        // The error each strategy answers with, and the attempts it makes
        // on the way. `retry` is the raw loop: an expired budget still buys
        // its first attempt, and admission is its three callers' business.
        let table = [
            (Concern::None, [None; 4], [1, 1, 1, 1]),
            (
                Concern::ExpiredDeadline,
                [
                    None,
                    Some("deadline_exceeded"),
                    Some("deadline_exceeded"),
                    Some("deadline_exceeded"),
                ],
                [1, 0, 0, 0],
            ),
            (
                Concern::TrippedBreaker,
                [
                    None,
                    Some("circuit_open"),
                    Some("circuit_open"),
                    Some("circuit_open"),
                ],
                [1, 0, 0, 0],
            ),
        ];
        for (concern, errors, attempts) in table {
            let env = SimEnv::with_seed(27);
            let monitor = ServiceMonitor::new();
            let telemetry = Telemetry::new();
            let breakers = tight_breakers(&env, &telemetry);
            let alive = svc(&env, "alive", 0.0);
            let candidates = vec![alive.clone()];
            let policy = InvocationPolicy::default();
            let call = Call::new(&monitor, &telemetry, telemetry.tracer().new_trace());
            let call = match concern {
                Concern::None => call,
                Concern::ExpiredDeadline => {
                    let deadline = Deadline::within(env.clock(), Duration::from_millis(1));
                    env.clock().advance(Duration::from_millis(5));
                    call.deadline(deadline)
                }
                Concern::TrippedBreaker => {
                    breakers.record("alive", false, &call.span);
                    breakers.record("alive", false, &call.span);
                    call.breakers(Some(&breakers))
                }
            };
            let strategies: [&dyn Fn() -> Option<&'static str>; 4] = [
                &|| {
                    let (outcome, _) = call.retry(&alive, &req(), 2, Backoff::None);
                    outcome.result.err().map(|e| e.kind())
                },
                &|| call.invoke(&alive, &req(), 2).err().map(|e| e.kind()),
                &|| {
                    call.failover(&candidates, &req(), &policy)
                        .err()
                        .map(|e| e.kind())
                },
                &|| {
                    call.redundant(&candidates, &req(), RedundantMode::All, &policy)
                        .err()
                        .map(|e| e.kind())
                },
            ];
            for (i, strategy) in strategies.iter().enumerate() {
                let before = alive.stats().0;
                assert_eq!(strategy(), errors[i], "{concern:?}, strategy {i}");
                assert_eq!(
                    alive.stats().0 - before,
                    attempts[i],
                    "{concern:?}, strategy {i}"
                );
            }
        }
    }

    #[test]
    fn empty_candidates_error() {
        let monitor = ServiceMonitor::new();
        let call = Call::plain(&monitor);
        assert!(matches!(
            call.failover(&[], &req(), &InvocationPolicy::default()),
            Err(SdkError::EmptyClass(_))
        ));
        assert!(call
            .redundant(
                &[],
                &req(),
                RedundantMode::All,
                &InvocationPolicy::default()
            )
            .is_err());
    }
}
