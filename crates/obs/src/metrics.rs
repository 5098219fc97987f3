//! The labeled metrics registry.
//!
//! Counters, gauges, and log-bucketed histograms keyed by metric name
//! plus a sorted label set — the Prometheus data model, sized for a
//! single process. Write paths take `&[(&str, &str)]` so a disabled
//! registry allocates nothing: labels stay on the caller's stack and the
//! whole call is one branch.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Histogram bucket upper bounds in milliseconds: 0.5 ms doubling up to
/// ~65 s, plus an implicit `+Inf` bucket.
pub const LATENCY_BUCKETS_MS: [f64; 18] = [
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0, 32768.0, 65536.0,
];

/// Default cap on distinct label sets per metric name. Writes beyond the
/// cap are rejected (and counted) instead of growing the registry without
/// bound — a tenant label gone wild cannot OOM the process.
pub const DEFAULT_MAX_SERIES_PER_METRIC: usize = 1_024;

/// Synthetic counter reporting writes rejected by the per-metric series
/// cap, labeled by the offending metric name.
pub const SERIES_REJECTED_METRIC: &str = "sdk_metric_series_rejected_total";

/// A metric identity: name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Key {
            name: name.to_string(),
            labels,
        }
    }
}

/// A label set whose optional `tenant` label is written unconditionally:
/// call sites put `("tenant", tenant.unwrap_or(""))` *last*, and an empty
/// value — no tenant attached; interned tenant names are never empty —
/// slices the pair off, so untenanted deployments keep their original
/// series. Label order is otherwise free (the registry sorts), and
/// nothing allocates.
///
/// # Examples
///
/// ```
/// use cogsdk_obs::tenant_labels;
///
/// assert_eq!(
///     tenant_labels(&[("route", "invoke"), ("tenant", "acme")]),
///     &[("route", "invoke"), ("tenant", "acme")]
/// );
/// assert_eq!(
///     tenant_labels(&[("route", "invoke"), ("tenant", "")]),
///     &[("route", "invoke")]
/// );
/// ```
pub fn tenant_labels<'s, 'a>(labels: &'s [(&'a str, &'a str)]) -> &'s [(&'a str, &'a str)] {
    match labels.split_last() {
        Some((("tenant", ""), rest)) => rest,
        _ => labels,
    }
}

/// An exemplar: one concrete trace that landed in a histogram bucket,
/// linking the aggregate back to retained evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The trace id of the exemplifying observation.
    pub trace: u64,
    /// The observed value.
    pub value: f64,
}

#[derive(Debug, Clone)]
struct Histogram {
    /// Per-bucket counts; `counts[i]` counts values `<= LATENCY_BUCKETS_MS[i]`
    /// exclusive of earlier buckets; the final slot is the `+Inf` bucket.
    counts: Vec<u64>,
    /// Most recent exemplar per bucket (lazily sized on first exemplar).
    exemplars: Vec<Option<Exemplar>>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            counts: vec![0; LATENCY_BUCKETS_MS.len() + 1],
            exemplars: Vec::new(),
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64, exemplar: Option<u64>) {
        let idx = LATENCY_BUCKETS_MS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
        if let Some(trace) = exemplar {
            if self.exemplars.is_empty() {
                self.exemplars = vec![None; LATENCY_BUCKETS_MS.len() + 1];
            }
            self.exemplars[idx] = Some(Exemplar { trace, value });
        }
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
    /// Distinct label sets per metric name (across all three kinds).
    series_per_name: BTreeMap<String, usize>,
    /// Writes rejected by the series cap, per metric name.
    rejected: BTreeMap<String, u64>,
}

impl State {
    /// Admits `key` for a map that does not yet contain it: bumps the
    /// per-name series count unless the metric is at `max_series`, in
    /// which case the write is rejected and counted.
    fn admit(&mut self, key: &Key, max_series: usize) -> bool {
        let n = self.series_per_name.entry(key.name.clone()).or_insert(0);
        if *n >= max_series {
            *self.rejected.entry(key.name.clone()).or_insert(0) += 1;
            return false;
        }
        *n += 1;
        true
    }
}

/// One exported counter or gauge sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample<T> {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: T,
}

/// One exported histogram, with non-cumulative per-bucket counts.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// `(upper_bound_ms, count_in_bucket)`; the final entry is the
    /// `+Inf` bucket with bound `f64::INFINITY`.
    pub buckets: Vec<(f64, u64)>,
    /// Most recent exemplar per bucket (empty when no exemplars were
    /// recorded; otherwise one slot per bucket).
    pub exemplars: Vec<Option<Exemplar>>,
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

/// A point-in-time copy of every metric, for exporters.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All counters, sorted by (name, labels).
    pub counters: Vec<Sample<u64>>,
    /// All gauges, sorted by (name, labels).
    pub gauges: Vec<Sample<f64>>,
    /// All histograms, sorted by (name, labels).
    pub histograms: Vec<HistogramSnapshot>,
}

/// Process-local metrics store. A disabled registry ignores all writes.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    max_series: usize,
    state: Mutex<State>,
}

impl MetricsRegistry {
    /// A live registry with the default per-metric series cap.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_series_limit(DEFAULT_MAX_SERIES_PER_METRIC)
    }

    /// A live registry capping each metric name at `max_series` distinct
    /// label sets; further label sets are rejected and counted under
    /// [`SERIES_REJECTED_METRIC`].
    pub fn with_series_limit(max_series: usize) -> MetricsRegistry {
        MetricsRegistry {
            enabled: true,
            max_series: max_series.max(1),
            state: Mutex::new(State::default()),
        }
    }

    /// A registry that drops every write (near-zero cost).
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry {
            enabled: false,
            max_series: DEFAULT_MAX_SERIES_PER_METRIC,
            state: Mutex::new(State::default()),
        }
    }

    /// Whether writes are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds 1 to a counter.
    pub fn inc_counter(&self, name: &str, labels: &[(&str, &str)]) {
        self.add_counter(name, labels, 1);
    }

    /// Adds `delta` to a counter.
    pub fn add_counter(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if !self.enabled {
            return;
        }
        let key = Key::new(name, labels);
        let mut state = self.state.lock();
        if !state.counters.contains_key(&key) && !state.admit(&key, self.max_series) {
            return;
        }
        *state.counters.entry(key).or_insert(0) += delta;
    }

    /// Sets a counter to an absolute value (for syncing an external
    /// monotonic count, e.g. the tracer's dropped-event tally).
    pub fn set_counter(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        if !self.enabled {
            return;
        }
        let key = Key::new(name, labels);
        let mut state = self.state.lock();
        if !state.counters.contains_key(&key) && !state.admit(&key, self.max_series) {
            return;
        }
        state.counters.insert(key, value);
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if !self.enabled {
            return;
        }
        let key = Key::new(name, labels);
        let mut state = self.state.lock();
        if !state.gauges.contains_key(&key) && !state.admit(&key, self.max_series) {
            return;
        }
        state.gauges.insert(key, value);
    }

    /// Adds `delta` (possibly negative) to a gauge.
    pub fn add_gauge(&self, name: &str, labels: &[(&str, &str)], delta: f64) {
        if !self.enabled {
            return;
        }
        let key = Key::new(name, labels);
        let mut state = self.state.lock();
        if !state.gauges.contains_key(&key) && !state.admit(&key, self.max_series) {
            return;
        }
        *state.gauges.entry(key).or_insert(0.0) += delta;
    }

    /// Records one observation in a log-bucketed histogram.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.observe_inner(name, labels, value, None);
    }

    /// Records one observation plus an exemplar trace id, so the bucket
    /// the value lands in links back to a concrete retained trace.
    pub fn observe_with_exemplar(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
        trace: u64,
    ) {
        self.observe_inner(name, labels, value, Some(trace));
    }

    fn observe_inner(&self, name: &str, labels: &[(&str, &str)], value: f64, trace: Option<u64>) {
        if !self.enabled {
            return;
        }
        let key = Key::new(name, labels);
        let mut state = self.state.lock();
        if !state.histograms.contains_key(&key) && !state.admit(&key, self.max_series) {
            return;
        }
        state
            .histograms
            .entry(key)
            .or_insert_with(Histogram::new)
            .observe(value, trace);
    }

    /// Writes rejected by the series cap for one metric name.
    pub fn rejected_series(&self, name: &str) -> u64 {
        self.state.lock().rejected.get(name).copied().unwrap_or(0)
    }

    /// Distinct label sets currently recorded under one metric name.
    pub fn series_count(&self, name: &str) -> usize {
        self.state
            .lock()
            .series_per_name
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Current value of one counter series, if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = Key::new(name, labels);
        self.state.lock().counters.get(&key).copied()
    }

    /// Sum of a counter across every label set (for reconciliation
    /// checks).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.state
            .lock()
            .counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Current value of one gauge series, if it exists.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = Key::new(name, labels);
        self.state.lock().gauges.get(&key).copied()
    }

    /// Snapshot of one histogram series, if it exists.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        let key = Key::new(name, labels);
        let state = self.state.lock();
        let h = state.histograms.get(&key)?;
        Some(snapshot_histogram(&key, h))
    }

    /// Total observation count of a histogram across every label set.
    pub fn histogram_total_count(&self, name: &str) -> u64 {
        self.state
            .lock()
            .histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, h)| h.count)
            .sum()
    }

    /// A point-in-time copy of everything, for exporters. Series-cap
    /// rejections are surfaced as synthetic
    /// [`SERIES_REJECTED_METRIC`]`{metric="..."}` counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.state.lock();
        let mut counters: Vec<Sample<u64>> = state
            .counters
            .iter()
            .map(|(k, &v)| Sample {
                name: k.name.clone(),
                labels: k.labels.clone(),
                value: v,
            })
            .collect();
        for (metric, &rejected) in &state.rejected {
            counters.push(Sample {
                name: SERIES_REJECTED_METRIC.to_string(),
                labels: vec![("metric".to_string(), metric.clone())],
                value: rejected,
            });
        }
        MetricsSnapshot {
            counters,
            gauges: state
                .gauges
                .iter()
                .map(|(k, &v)| Sample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: v,
                })
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, h)| snapshot_histogram(k, h))
                .collect(),
        }
    }

    /// Forgets every recorded series.
    pub fn clear(&self) {
        let mut state = self.state.lock();
        *state = State::default();
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

fn snapshot_histogram(key: &Key, h: &Histogram) -> HistogramSnapshot {
    let mut buckets: Vec<(f64, u64)> = LATENCY_BUCKETS_MS
        .iter()
        .zip(&h.counts)
        .map(|(&bound, &count)| (bound, count))
        .collect();
    buckets.push((f64::INFINITY, h.counts[LATENCY_BUCKETS_MS.len()]));
    HistogramSnapshot {
        name: key.name.clone(),
        labels: key.labels.clone(),
        buckets,
        exemplars: h.exemplars.clone(),
        sum: h.sum,
        count: h.count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = MetricsRegistry::new();
        m.inc_counter("calls", &[("service", "a")]);
        m.inc_counter("calls", &[("service", "a")]);
        m.inc_counter("calls", &[("service", "b")]);
        assert_eq!(m.counter_value("calls", &[("service", "a")]), Some(2));
        assert_eq!(m.counter_value("calls", &[("service", "b")]), Some(1));
        assert_eq!(m.counter_sum("calls"), 3);
    }

    #[test]
    fn label_order_is_irrelevant() {
        let m = MetricsRegistry::new();
        m.inc_counter("x", &[("b", "2"), ("a", "1")]);
        assert_eq!(m.counter_value("x", &[("a", "1"), ("b", "2")]), Some(1));
    }

    #[test]
    fn histogram_buckets_values_logarithmically() {
        let m = MetricsRegistry::new();
        m.observe("lat", &[], 0.3); // <= 0.5
        m.observe("lat", &[], 3.0); // <= 4
        m.observe("lat", &[], 1e9); // +Inf
        let snap = m.histogram("lat", &[]).unwrap();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[0], (0.5, 1));
        assert_eq!(snap.buckets[3], (4.0, 1));
        let (inf_bound, inf_count) = *snap.buckets.last().unwrap();
        assert!(inf_bound.is_infinite());
        assert_eq!(inf_count, 1);
        assert!((snap.sum - (0.3 + 3.0 + 1e9)).abs() < 1e-6);
    }

    #[test]
    fn gauges_set_and_add() {
        let m = MetricsRegistry::new();
        m.set_gauge("depth", &[], 4.0);
        m.add_gauge("depth", &[], -1.0);
        assert_eq!(m.gauge_value("depth", &[]), Some(3.0));
    }

    #[test]
    fn series_cap_rejects_and_counts() {
        let m = MetricsRegistry::with_series_limit(2);
        m.inc_counter("calls", &[("tenant", "a")]);
        m.inc_counter("calls", &[("tenant", "b")]);
        m.inc_counter("calls", &[("tenant", "c")]); // rejected
        m.inc_counter("calls", &[("tenant", "a")]); // existing series still writable
        assert_eq!(m.counter_value("calls", &[("tenant", "a")]), Some(2));
        assert_eq!(m.counter_value("calls", &[("tenant", "c")]), None);
        assert_eq!(m.series_count("calls"), 2);
        assert_eq!(m.rejected_series("calls"), 1);
        let snap = m.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|s| s.name == SERIES_REJECTED_METRIC && s.value == 1));
    }

    #[test]
    fn set_counter_is_absolute() {
        let m = MetricsRegistry::new();
        m.set_counter("dropped", &[], 7);
        m.set_counter("dropped", &[], 9);
        assert_eq!(m.counter_value("dropped", &[]), Some(9));
    }

    #[test]
    fn exemplars_attach_to_buckets() {
        let m = MetricsRegistry::new();
        m.observe_with_exemplar("lat", &[], 0.4, 42);
        m.observe("lat", &[], 3.0);
        let snap = m.histogram("lat", &[]).unwrap();
        assert_eq!(
            snap.exemplars[0],
            Some(Exemplar {
                trace: 42,
                value: 0.4
            })
        );
        assert_eq!(snap.exemplars[3], None, "plain observe leaves no exemplar");
    }

    #[test]
    fn disabled_registry_ignores_writes() {
        let m = MetricsRegistry::disabled();
        m.inc_counter("calls", &[]);
        m.observe("lat", &[], 1.0);
        m.set_gauge("g", &[], 1.0);
        assert_eq!(m.counter_value("calls", &[]), None);
        assert!(m.snapshot().counters.is_empty());
    }
}
