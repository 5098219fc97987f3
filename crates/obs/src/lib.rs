//! Observability for the rich SDK: structured invocation tracing, a
//! labeled metrics registry, and Prometheus/JSONL exporters.
//!
//! The paper's rich SDK monitors services to *drive decisions* (ranking,
//! failover, prediction — §2); this crate makes the same machinery
//! *inspectable*. Three layers:
//!
//! 1. **Tracing** ([`Tracer`], [`Event`], [`EventKind`]): every
//!    invocation step — attempts, backoff sleeps, failover legs,
//!    redundant-leg races, cache probes, pool handoffs, predicted-vs-
//!    observed latency — lands in a bounded ring buffer as a typed event
//!    with span coordinates.
//! 2. **Metrics** ([`MetricsRegistry`]): labeled counters, gauges, and
//!    log-bucketed latency histograms, including an error breakdown by
//!    failure kind.
//! 3. **Exporters** ([`prometheus_text`], [`trace_jsonl`],
//!    [`render_trace_tree`]): Prometheus text exposition for `/metrics`,
//!    JSON Lines for `/trace`, and a human-readable trace tree.
//!
//! The [`Telemetry`] bundle carries a tracer + registry pair through the
//! SDK. [`Telemetry::disabled`] is the default everywhere: emission
//! becomes a single branch and no strings are built, so instrumented
//! code costs near-zero until someone turns telemetry on.
//!
//! # Examples
//!
//! ```
//! use cogsdk_obs::{EventKind, Telemetry};
//!
//! let telemetry = Telemetry::new();
//! let ctx = telemetry.tracer().new_trace();
//! telemetry.tracer().emit(&ctx, || EventKind::CacheMiss { key: "k".into() });
//! telemetry.metrics().inc_counter("cache_requests_total", &[("result", "miss")]);
//!
//! assert_eq!(telemetry.tracer().events().len(), 1);
//! let text = cogsdk_obs::prometheus_text(telemetry.metrics());
//! assert!(text.contains("cache_requests_total{result=\"miss\"} 1"));
//! ```

mod event;
mod export;
mod metrics;
pub mod profile;
pub mod sampler;
pub mod slo;
mod tracer;

pub use event::{Event, EventKind, SpanCtx, SpanId, TenantId, TraceId};
pub use export::{
    event_to_json, prometheus_text, render_trace_tree, trace_jsonl, trace_jsonl_with_summary,
};
pub use metrics::{
    tenant_labels, Exemplar, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Sample,
    DEFAULT_MAX_SERIES_PER_METRIC, LATENCY_BUCKETS_MS, SERIES_REJECTED_METRIC,
};
pub use profile::{profile_traces, OpStat, Profile};
pub use sampler::{RetainedTrace, SamplerConfig, SamplerStats, TailSampler, TraceVerdict};
pub use slo::{SloConfig, SloEngine, SloRecord, SloSpec, SloStatus};
pub use tracer::{TimeSource, Tracer, DEFAULT_EVENT_CAPACITY, MAX_TENANTS};

use std::sync::{Arc, OnceLock};

/// A tracer + metrics pair, cloned cheaply through every SDK layer.
#[derive(Clone)]
pub struct Telemetry {
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Live telemetry with the default event capacity.
    pub fn new() -> Telemetry {
        Telemetry {
            tracer: Tracer::new(),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Live telemetry retaining up to `event_capacity` trace events.
    pub fn with_event_capacity(event_capacity: usize) -> Telemetry {
        Telemetry {
            tracer: Tracer::with_capacity(event_capacity),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// The shared no-op bundle: emission is a branch, nothing allocates.
    pub fn disabled() -> Telemetry {
        static DISABLED: OnceLock<Telemetry> = OnceLock::new();
        DISABLED
            .get_or_init(|| Telemetry {
                tracer: Tracer::disabled(),
                metrics: Arc::new(MetricsRegistry::disabled()),
            })
            .clone()
    }

    /// Whether this bundle records anything.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The tracer half.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics half.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Attaches a tail sampler to the tracer and returns the handle.
    /// Every subsequent event is offered to it.
    pub fn enable_tail_sampling(&self, cfg: SamplerConfig) -> Arc<TailSampler> {
        let sampler = Arc::new(TailSampler::new(cfg));
        self.tracer.set_sampler(sampler.clone());
        sampler
    }

    /// The attached tail sampler, if any.
    pub fn sampler(&self) -> Option<Arc<TailSampler>> {
        self.tracer.sampler()
    }

    /// Publishes internal health counters — the tracer's ring-buffer
    /// drops and the sampler's accounting — into the metrics registry.
    /// Called before each `/metrics` export so overflow is never silent.
    pub fn sync_health_metrics(&self) {
        if !self.is_enabled() {
            return;
        }
        self.metrics
            .set_counter("sdk_trace_events_dropped_total", &[], self.tracer.dropped());
        if let Some(sampler) = self.sampler() {
            let stats = sampler.stats();
            let m = self.metrics();
            m.set_counter(
                "sdk_sampler_events_observed_total",
                &[],
                stats.observed_events,
            );
            m.set_gauge(
                "sdk_sampler_buffered_events",
                &[],
                stats.buffered_events as f64,
            );
            m.set_gauge(
                "sdk_sampler_retained_traces",
                &[],
                stats.retained_traces as f64,
            );
            m.set_counter(
                "sdk_sampler_traces_dropped_total",
                &[("reason", "sampled_out")],
                stats.healthy_sampled_out,
            );
            m.set_counter(
                "sdk_sampler_traces_dropped_total",
                &[("reason", "pending_evicted")],
                stats.dropped_pending_traces,
            );
            m.set_counter(
                "sdk_sampler_traces_dropped_total",
                &[("reason", "retained_evicted")],
                stats.dropped_retained_traces,
            );
            m.set_counter(
                "sdk_sampler_anomalous_dropped_total",
                &[],
                stats.dropped_anomalous_traces,
            );
            m.set_counter(
                "sdk_sampler_events_dropped_total",
                &[],
                stats.dropped_events,
            );
        }
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_shared_and_inert() {
        let a = Telemetry::disabled();
        let b = Telemetry::disabled();
        assert!(!a.is_enabled());
        assert!(Arc::ptr_eq(&a.metrics, &b.metrics));
        a.metrics().inc_counter("x", &[]);
        assert_eq!(a.metrics().counter_value("x", &[]), None);
    }

    #[test]
    fn enabled_records_both_halves() {
        let t = Telemetry::new();
        assert!(t.is_enabled());
        let ctx = t.tracer().new_trace();
        t.tracer()
            .emit(&ctx, || EventKind::PoolEnqueue { queue_depth: 1 });
        t.metrics().inc_counter("jobs", &[]);
        assert_eq!(t.tracer().len(), 1);
        assert_eq!(t.metrics().counter_value("jobs", &[]), Some(1));
    }
}
