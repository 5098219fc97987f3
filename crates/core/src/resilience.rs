//! The resilience layer: circuit breakers and end-to-end deadline budgets.
//!
//! The paper's failure handling (§2.1) retries and fails over — but a
//! retry into a hard-down service burns the full timeout on every call,
//! and a failover chain with no overall budget can overshoot the caller's
//! SLO by the sum of every leg. This module adds the two guards
//! production systems put around exactly that code:
//!
//! * [`CircuitBreaker`] — per-service Closed→Open→HalfOpen state driven
//!   by a sliding window of attempt results. Once a service trips, the
//!   invocation layers skip it instantly instead of timing out into it;
//!   after a cool-down, a bounded budget of half-open probes decides
//!   whether it has recovered.
//! * [`Deadline`] — an absolute point on the simulation timeline threaded
//!   through retries, failover legs, redundant invocations, the NLU
//!   aggregator, and KB federation, so each layer spends only the
//!   *remaining* budget and never starts work it cannot finish in time.
//!
//! Both ride through every invocation path inside the call context,
//! [`Call`](crate::invoke::Call). All state changes emit `cogsdk-obs`
//! events and metrics (`sdk_breaker_transitions_total`,
//! `sdk_breaker_state`, `sdk_breaker_rejections_total`,
//! `sdk_deadline_exhausted_total`).

use cogsdk_obs::{EventKind, SpanCtx, Telemetry};
use cogsdk_sim::{SimClock, SimTime};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// An absolute end-to-end budget on the simulation timeline.
///
/// `Deadline::NONE` means unbounded; everything else is "finish before
/// this instant". Cheap to copy, threaded by value.
///
/// # Examples
///
/// ```
/// use cogsdk_core::resilience::Deadline;
/// use cogsdk_sim::{SimClock, SimTime};
/// use std::time::Duration;
///
/// let clock = SimClock::new();
/// let d = Deadline::within(&clock, Duration::from_millis(100));
/// assert!(!d.is_expired(clock.now()));
/// assert!(d.is_expired(SimTime::from_millis(150)));
/// assert!(!Deadline::NONE.is_expired(SimTime::from_millis(150)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline(Option<SimTime>);

impl Deadline {
    /// No deadline: work may take as long as it takes.
    pub const NONE: Deadline = Deadline(None);

    /// A deadline at an absolute simulation instant.
    pub fn at(t: SimTime) -> Deadline {
        Deadline(Some(t))
    }

    /// A deadline `budget` from the clock's current now.
    pub fn within(clock: &SimClock, budget: Duration) -> Deadline {
        Deadline(Some(clock.now().after(budget)))
    }

    /// The absolute instant, if bounded.
    pub fn instant(&self) -> Option<SimTime> {
        self.0
    }

    /// Whether the budget has run out at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        matches!(self.0, Some(t) if now >= t)
    }

    /// Budget left at `now`: `None` when unbounded, zero when expired.
    pub fn remaining(&self, now: SimTime) -> Option<Duration> {
        self.0.map(|t| t.since(now))
    }
}

impl fmt::Display for Deadline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(t) => write!(f, "deadline@{t}"),
            None => write!(f, "no-deadline"),
        }
    }
}

/// Circuit breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all calls pass through; results feed the error window.
    Closed,
    /// Tripped: calls are rejected without being attempted until the
    /// cool-down elapses.
    Open,
    /// Probing: a bounded number of trial calls decide whether the
    /// service has recovered.
    HalfOpen,
}

impl BreakerState {
    /// Stable machine name, used in events and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Numeric code for the `sdk_breaker_state` gauge
    /// (closed=0, open=1, half_open=2).
    pub fn code(&self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Trip thresholds and probe budgets for one breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window length (attempt results) the error rate is
    /// computed over.
    pub window: usize,
    /// Minimum results in the window before the breaker may trip (avoids
    /// tripping on one unlucky call after startup).
    pub min_calls: usize,
    /// Error rate in `[0, 1]` at or above which a Closed breaker trips.
    pub trip_error_rate: f64,
    /// How long an Open breaker rejects before allowing probes.
    pub open_for: Duration,
    /// Probe budget in HalfOpen: this many consecutive successes close
    /// the breaker; any failure re-opens it.
    pub half_open_probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 32,
            min_calls: 8,
            trip_error_rate: 0.5,
            open_for: Duration::from_secs(5),
            half_open_probes: 2,
        }
    }
}

impl BreakerConfig {
    fn validate(&self) {
        assert!(self.window > 0, "breaker window must be positive");
        assert!(
            self.min_calls > 0 && self.min_calls <= self.window,
            "min_calls must be in 1..=window"
        );
        assert!(
            (0.0..=1.0).contains(&self.trip_error_rate) && self.trip_error_rate > 0.0,
            "trip_error_rate must be in (0, 1]"
        );
        assert!(self.half_open_probes > 0, "need at least one probe");
    }
}

/// The admission decision for one prospective call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed with the call.
    Allowed,
    /// The breaker is open; do not call. `retry_after` is how long until
    /// probes will be admitted.
    Rejected {
        /// Time until the cool-down elapses (zero if probes are merely
        /// saturated).
        retry_after: Duration,
    },
}

impl Admission {
    /// Whether the call may proceed.
    pub fn is_allowed(&self) -> bool {
        matches!(self, Admission::Allowed)
    }
}

#[derive(Debug)]
struct BreakerCore {
    state: BreakerState,
    /// Recent attempt results, newest last; `true` = success.
    window: VecDeque<bool>,
    opened_at: SimTime,
    probes_in_flight: usize,
    probe_successes: usize,
}

/// One per-service breaker. Thread-safe; time comes from the caller so
/// the machine is fully deterministic under the virtual clock.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    core: Mutex<BreakerCore>,
}

/// A state transition `(from, to)` that callers should surface.
pub type Transition = (BreakerState, BreakerState);

impl CircuitBreaker {
    /// Creates a Closed breaker.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (zero window, `min_calls` larger
    /// than the window, a non-positive trip rate, or zero probes).
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        cfg.validate();
        CircuitBreaker {
            cfg,
            core: Mutex::new(BreakerCore {
                state: BreakerState::Closed,
                window: VecDeque::with_capacity(cfg.window),
                opened_at: SimTime::ZERO,
                probes_in_flight: 0,
                probe_successes: 0,
            }),
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.core.lock().state
    }

    /// The error rate over the current window (0 when empty).
    pub fn error_rate(&self) -> f64 {
        let core = self.core.lock();
        if core.window.is_empty() {
            0.0
        } else {
            core.window.iter().filter(|ok| !**ok).count() as f64 / core.window.len() as f64
        }
    }

    /// Decides whether a call at `now` may proceed. An Open breaker whose
    /// cool-down has elapsed moves to HalfOpen here (the returned
    /// transition, if any, should be surfaced by the caller).
    pub fn admit(&self, now: SimTime) -> (Admission, Option<Transition>) {
        let mut core = self.core.lock();
        match core.state {
            BreakerState::Closed => (Admission::Allowed, None),
            BreakerState::Open => {
                let reopen_at = core.opened_at.after(self.cfg.open_for);
                if now >= reopen_at {
                    core.state = BreakerState::HalfOpen;
                    core.probes_in_flight = 1;
                    core.probe_successes = 0;
                    (
                        Admission::Allowed,
                        Some((BreakerState::Open, BreakerState::HalfOpen)),
                    )
                } else {
                    (
                        Admission::Rejected {
                            retry_after: reopen_at.since(now),
                        },
                        None,
                    )
                }
            }
            BreakerState::HalfOpen => {
                if core.probes_in_flight < self.cfg.half_open_probes {
                    core.probes_in_flight += 1;
                    (Admission::Allowed, None)
                } else {
                    // Probe budget saturated: reject without resetting the
                    // cool-down; retry as soon as a probe resolves.
                    (
                        Admission::Rejected {
                            retry_after: Duration::ZERO,
                        },
                        None,
                    )
                }
            }
        }
    }

    /// Feeds one attempt result into the machine. Returns the transition
    /// it caused, if any (Closed→Open on tripping, HalfOpen→Closed on
    /// enough probe successes, HalfOpen→Open on a probe failure).
    pub fn record(&self, now: SimTime, success: bool) -> Option<Transition> {
        let mut core = self.core.lock();
        match core.state {
            BreakerState::Closed => {
                core.window.push_back(success);
                while core.window.len() > self.cfg.window {
                    core.window.pop_front();
                }
                let errors = core.window.iter().filter(|ok| !**ok).count();
                if core.window.len() >= self.cfg.min_calls
                    && errors as f64 / core.window.len() as f64 >= self.cfg.trip_error_rate
                {
                    core.state = BreakerState::Open;
                    core.opened_at = now;
                    core.window.clear();
                    Some((BreakerState::Closed, BreakerState::Open))
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                core.probes_in_flight = core.probes_in_flight.saturating_sub(1);
                if success {
                    core.probe_successes += 1;
                    if core.probe_successes >= self.cfg.half_open_probes {
                        core.state = BreakerState::Closed;
                        core.window.clear();
                        Some((BreakerState::HalfOpen, BreakerState::Closed))
                    } else {
                        None
                    }
                } else {
                    core.state = BreakerState::Open;
                    core.opened_at = now;
                    Some((BreakerState::HalfOpen, BreakerState::Open))
                }
            }
            // A late result from a call admitted before the trip: the
            // window was reset when the breaker opened, so drop it.
            BreakerState::Open => None,
        }
    }
}

/// All breakers for a service fleet, keyed by service name, sharing one
/// config, clock, and telemetry sink. Breakers are created lazily on
/// first use.
#[derive(Debug)]
pub struct BreakerRegistry {
    cfg: BreakerConfig,
    clock: SimClock,
    telemetry: Telemetry,
    breakers: RwLock<BTreeMap<String, Arc<CircuitBreaker>>>,
}

impl BreakerRegistry {
    /// Creates an empty registry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see [`CircuitBreaker::new`]).
    pub fn new(clock: SimClock, telemetry: Telemetry, cfg: BreakerConfig) -> BreakerRegistry {
        cfg.validate();
        BreakerRegistry {
            cfg,
            clock,
            telemetry,
            breakers: RwLock::new(BTreeMap::new()),
        }
    }

    /// The shared breaker config.
    pub fn config(&self) -> &BreakerConfig {
        &self.cfg
    }

    /// The breaker guarding `service`, creating it Closed if absent.
    pub fn breaker(&self, service: &str) -> Arc<CircuitBreaker> {
        if let Some(b) = self.breakers.read().get(service) {
            return Arc::clone(b);
        }
        let mut map = self.breakers.write();
        Arc::clone(
            map.entry(service.to_string())
                .or_insert_with(|| Arc::new(CircuitBreaker::new(self.cfg))),
        )
    }

    /// The current state of `service`'s breaker (Closed if it has never
    /// been used).
    pub fn state(&self, service: &str) -> BreakerState {
        self.breakers
            .read()
            .get(service)
            .map(|b| b.state())
            .unwrap_or(BreakerState::Closed)
    }

    /// Asks `service`'s breaker whether a call may proceed now, emitting
    /// transition/rejection events and metrics.
    pub fn admit(&self, service: &str, ctx: &SpanCtx) -> Admission {
        let breaker = self.breaker(service);
        let (admission, transition) = breaker.admit(self.clock.now());
        if let Some(t) = transition {
            self.publish_transition(service, ctx, t);
        }
        if !admission.is_allowed() {
            self.telemetry
                .tracer()
                .emit(ctx, || EventKind::BreakerRejected {
                    service: service.to_string(),
                });
            self.telemetry
                .metrics()
                .inc_counter("sdk_breaker_rejections_total", &[("service", service)]);
        }
        admission
    }

    /// Feeds one attempt result into `service`'s breaker, emitting any
    /// transition it causes.
    pub fn record(&self, service: &str, success: bool, ctx: &SpanCtx) {
        let breaker = self.breaker(service);
        if let Some(t) = breaker.record(self.clock.now(), success) {
            self.publish_transition(service, ctx, t);
        }
    }

    fn publish_transition(&self, service: &str, ctx: &SpanCtx, (from, to): Transition) {
        self.telemetry
            .tracer()
            .emit(ctx, || EventKind::BreakerTransition {
                service: service.to_string(),
                from: from.name(),
                to: to.name(),
            });
        let metrics = self.telemetry.metrics();
        metrics.inc_counter(
            "sdk_breaker_transitions_total",
            &[("service", service), ("to", to.name())],
        );
        metrics.set_gauge("sdk_breaker_state", &[("service", service)], to.code());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_calls: 4,
            trip_error_rate: 0.5,
            open_for: Duration::from_secs(1),
            half_open_probes: 2,
        }
    }

    #[test]
    fn deadline_semantics() {
        let clock = SimClock::new();
        let d = Deadline::within(&clock, Duration::from_millis(50));
        assert!(!d.is_expired(clock.now()));
        assert_eq!(d.remaining(clock.now()), Some(Duration::from_millis(50)));
        clock.advance(Duration::from_millis(60));
        assert!(d.is_expired(clock.now()));
        assert_eq!(d.remaining(clock.now()), Some(Duration::ZERO));
        assert!(!Deadline::NONE.is_expired(clock.now()));
        assert_eq!(Deadline::NONE.remaining(clock.now()), None);
    }

    #[test]
    fn closed_breaker_trips_at_error_rate() {
        let b = CircuitBreaker::new(cfg());
        let now = SimTime::from_millis(10);
        // Three failures in four calls: 75% ≥ 50% with min_calls met.
        assert_eq!(b.record(now, true), None);
        assert_eq!(b.record(now, false), None);
        assert_eq!(b.record(now, false), None);
        assert_eq!(
            b.record(now, false),
            Some((BreakerState::Closed, BreakerState::Open))
        );
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn breaker_does_not_trip_below_min_calls() {
        let b = CircuitBreaker::new(cfg());
        let now = SimTime::ZERO;
        assert_eq!(b.record(now, false), None);
        assert_eq!(b.record(now, false), None);
        assert_eq!(b.record(now, false), None);
        assert_eq!(b.state(), BreakerState::Closed, "only 3 of min 4 calls");
    }

    #[test]
    fn window_slides_old_results_out() {
        let b = CircuitBreaker::new(cfg());
        let now = SimTime::ZERO;
        // Fill the window (8) with failures *interleaved* below the trip
        // rate is impossible here, so use successes first, then verify old
        // successes slide out.
        for _ in 0..8 {
            b.record(now, true);
        }
        // 4 failures into a window of 8 → rate exactly 0.5 → trips, but
        // only once the old successes have slid out enough. After 4
        // failures the window is [t,t,t,t,f,f,f,f] → 50% → trip.
        b.record(now, false);
        b.record(now, false);
        b.record(now, false);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(
            b.record(now, false),
            Some((BreakerState::Closed, BreakerState::Open))
        );
    }

    #[test]
    fn open_breaker_rejects_until_cooldown_then_probes() {
        let b = CircuitBreaker::new(cfg());
        let t0 = SimTime::from_millis(100);
        for _ in 0..4 {
            b.record(t0, false);
        }
        assert_eq!(b.state(), BreakerState::Open);

        let (adm, _) = b.admit(t0.after(Duration::from_millis(500)));
        assert_eq!(
            adm,
            Admission::Rejected {
                retry_after: Duration::from_millis(500)
            }
        );

        let after = t0.after(Duration::from_secs(1));
        let (adm, transition) = b.admit(after);
        assert!(adm.is_allowed());
        assert_eq!(
            transition,
            Some((BreakerState::Open, BreakerState::HalfOpen))
        );
    }

    #[test]
    fn half_open_probe_budget_is_bounded() {
        let b = CircuitBreaker::new(cfg());
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            b.record(t0, false);
        }
        let after = t0.after(Duration::from_secs(2));
        assert!(b.admit(after).0.is_allowed()); // probe 1 (Open→HalfOpen)
        assert!(b.admit(after).0.is_allowed()); // probe 2
        let (adm, _) = b.admit(after);
        assert!(!adm.is_allowed(), "probe budget of 2 is saturated");
    }

    #[test]
    fn probes_close_on_success_reopen_on_failure() {
        let make_tripped = || {
            let b = CircuitBreaker::new(cfg());
            for _ in 0..4 {
                b.record(SimTime::ZERO, false);
            }
            let after = SimTime::ZERO.after(Duration::from_secs(2));
            b.admit(after);
            (b, after)
        };

        let (b, after) = make_tripped();
        assert_eq!(b.record(after, true), None, "one of two probes");
        b.admit(after);
        assert_eq!(
            b.record(after, true),
            Some((BreakerState::HalfOpen, BreakerState::Closed))
        );
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.error_rate(), 0.0, "window reset on close");

        let (b, after) = make_tripped();
        assert_eq!(
            b.record(after, false),
            Some((BreakerState::HalfOpen, BreakerState::Open))
        );
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn registry_emits_transitions_and_rejections() {
        let telemetry = Telemetry::new();
        let clock = SimClock::new();
        let reg = BreakerRegistry::new(clock.clone(), telemetry.clone(), cfg());
        let ctx = telemetry.tracer().new_trace();

        for _ in 0..4 {
            reg.record("svc", false, &ctx);
        }
        assert_eq!(reg.state("svc"), BreakerState::Open);
        assert_eq!(
            telemetry.metrics().counter_value(
                "sdk_breaker_transitions_total",
                &[("service", "svc"), ("to", "open")]
            ),
            Some(1)
        );
        assert_eq!(
            telemetry
                .metrics()
                .gauge_value("sdk_breaker_state", &[("service", "svc")]),
            Some(BreakerState::Open.code())
        );

        assert!(!reg.admit("svc", &ctx).is_allowed());
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("sdk_breaker_rejections_total", &[("service", "svc")]),
            Some(1)
        );
        let names: Vec<_> = telemetry
            .tracer()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(names.contains(&"breaker_transition"));
        assert!(names.contains(&"breaker_rejected"));
    }

    #[test]
    fn registry_untouched_service_reads_closed() {
        let reg = BreakerRegistry::new(
            SimClock::new(),
            Telemetry::disabled(),
            BreakerConfig::default(),
        );
        assert_eq!(reg.state("ghost"), BreakerState::Closed);
    }

    #[test]
    #[should_panic(expected = "min_calls")]
    fn bad_config_rejected() {
        let _ = CircuitBreaker::new(BreakerConfig {
            min_calls: 100,
            window: 8,
            ..BreakerConfig::default()
        });
    }
}
