//! The metric tables (name, unit, direction, bound, and which end-to-end
//! metric a layer metric should move), the one result schema, and
//! `compare`.

use cogsdk::json::Json;

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse.
    pub bound: f64,
}

/// Reported by `--trace 0` on every workload and gated by their bounds.
/// Printed beside them but not gated: `failed_share` (the result's
/// `failed / attempted`, held at zero by `correct`), `docs_per_s`
/// (`throughput_rps × 256` on `ingest_bulk`) and `latency_p99_us`, whose
/// run-to-run spread on a 2-core host exceeds any bound the contract
/// allows (README, "Steadiness").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Reported by `--trace 1` on every workload, layer = module name.
pub const PER_LAYER: [PerLayer; 44] = [
    layer("core.gateway.transport_us", "us", Lower, "latency_p50_us, throughput_rps on invoke_hot; point share of query_read; ~0 on ingest_bulk"),
    layer("core.gateway.parse_us", "us", Lower, "latency_p50_us on invoke_hot"),
    layer("core.gateway.format_us", "us", Lower, "latency_p50_us on invoke_hot"),
    layer("core.gateway.route_self_us", "us", Lower, "latency_p50_us on invoke_hot"),
    layer("core.gateway.hol_blocked_share", "share", Lower, "latency_p90_us on mixed_tenants"),
    layer("core.gateway.generator_late_p99_us", "us", Lower, "latency_p90_us on mixed_tenants"),
    layer("core.gateway.shed_count", "count", Lower, "latency_p90_us on mixed_tenants"),
    layer("json.parse_us_per_kib", "us/KiB", Lower, "latency_p50_us on ingest_bulk"),
    layer("json.ser_us_per_kib", "us/KiB", Lower, "latency_p90_us on query_read"),
    layer("core.sdk.invoke_cached_hit_ns", "ns", Lower, "latency_p50_us on invoke_hot"),
    layer("core.sdk.invoke_cached_miss_ns", "ns", Lower, "latency_p90_us on invoke_hot"),
    layer("core.sdk.invoke_class_ns", "ns", Lower, "latency_p90_us on invoke_hot"),
    layer("core.cache.hit_ratio", "ratio", Higher, "latency_p50_us on invoke_hot"),
    layer("sim.virtual_ms_per_req", "ms", Lower, "remote latency the cache did not save, invoke_hot"),
    layer("obs.overhead_ns_per_req", "ns", Lower, "latency_p50_us on invoke_hot"),
    layer("obs.metrics_scrape_us", "us", Lower, "rss_peak_mb everywhere"),
    layer("obs.metrics_bytes", "B", Lower, "rss_peak_mb everywhere"),
    layer("rdf.epoch.pin_ns", "ns", Lower, "latency_p50_us on query_read"),
    layer("kb.query_us.point", "us", Lower, "latency_p50_us on query_read, mixed_tenants"),
    layer("kb.query_us.join_limit", "us", Lower, "throughput_rps on query_read"),
    layer("kb.query_us.join_full", "us", Lower, "latency_p90_us on query_read"),
    layer("rdf.plan.plan_us", "us", Lower, "latency_p50_us on query_read"),
    layer("rdf.plan.execute_us", "us", Lower, "latency_p50_us on query_read"),
    layer("rdf.plan.rows_per_query", "count", Lower, "latency_p90_us on query_read"),
    layer("rdf.plan.loop_join_share", "share", Lower, "latency_p90_us on query_read"),
    layer("kb.gateway.serialize_us", "us", Lower, "latency_p90_us on query_read"),
    layer("text.analyze_us_per_doc", "us", Lower, "throughput_rps on ingest_bulk"),
    layer("kb.ingest.stream_docs_per_s", "docs/s", Higher, "throughput_rps on ingest_bulk"),
    layer("kb.ingest.statements_per_doc", "count", Lower, "throughput_rps on ingest_bulk"),
    layer("rdf.wal.bytes_per_doc", "B", Lower, "throughput_rps on ingest_bulk"),
    layer("rdf.wal.appends_per_kdoc", "count", Lower, "throughput_rps on ingest_bulk"),
    layer("rdf.wal.fsyncs_per_kdoc", "count", Lower, "latency_p50_us on ingest_bulk"),
    layer("rdf.durable.insert_batch_us_per_kstmt", "us", Lower, "latency_p50_us on ingest_bulk"),
    layer("rdf.epoch.publish_stall_ms_max", "ms", Lower, "throughput_rps on ingest_bulk, latency_p90_us on mixed_tenants"),
    layer("rdf.epoch.stall_count", "count", Lower, "throughput_rps on ingest_bulk, latency_p90_us on mixed_tenants"),
    layer("kb.mem_bytes_per_statement", "B", Lower, "rss_peak_mb on ingest_bulk"),
    layer("kb.disk_bytes_per_statement", "B", Lower, "setup_s on query_read, mixed_tenants"),
    layer("kb.snapshot_ms", "ms", Lower, "setup_s everywhere"),
    layer("kb.recover_ms", "ms", Lower, "setup_s everywhere"),
    layer("mixed.read_p99_us", "us", Lower, "diagnostic"),
    layer("mixed.write_p50_us", "us", Lower, "diagnostic"),
    layer("process.cpu_s_per_kreq", "s", Lower, "throughput_rps everywhere"),
    layer("process.threads_peak", "count", Lower, "rss_peak_mb everywhere"),
    layer("trace.overhead_share", "share", Lower, "what the spans themselves cost"),
];

/// What one run (`--workload W --trace T`) found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value)` for every metric of the run's table, in table order.
    pub metrics: Vec<(&'static str, f64)>,
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("{name} is in no metric table"))
}

/// `compare`'s verdict on one (workload, end-to-end metric) pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Worse,
    /// A value is missing on one side.
    Unresolved,
}

/// Relative worsening of `b` against `a` (positive = worse) and the
/// verdict against the metric's bound.
pub fn judge(metric: &EndToEnd, a: Option<f64>, b: Option<f64>) -> (f64, Verdict) {
    let (Some(a), Some(b)) = (a, b) else {
        return (f64::NAN, Verdict::Unresolved);
    };
    if a == 0.0 || !a.is_finite() || !b.is_finite() {
        return (f64::NAN, Verdict::Unresolved);
    }
    let worsening = match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let verdict = if worsening > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worsening, verdict)
}

fn metric_value(results: &Json, workload: &str, name: &str) -> Option<f64> {
    results
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .pointer(&format!("/end_to_end/{name}/value"))?
        .as_f64()
}

/// Prints both values, the relative change and the verdict for every
/// (workload, end-to-end metric); `true` when every pair is `ok`.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut all_ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9}  verdict (bound)",
        "workload", "metric", "A", "B", "worse by"
    );
    for w in &crate::stream::WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (
                metric_value(a, w.name, m.name),
                metric_value(b, w.name, m.name),
            );
            let (worsening, verdict) = judge(m, va, vb);
            all_ok &= verdict == Verdict::Ok;
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
            println!(
                "{:<14} {:<16} {:>14} {:>14} {:>+8.1}%  {} ({} by at most {:.0}%)",
                w.name,
                m.name,
                show(va),
                show(vb),
                worsening * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                if m.better == Better::Lower {
                    "higher"
                } else {
                    "lower"
                },
                m.bound * 100.0
            );
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_respects_direction_and_bound() {
        let lower = &END_TO_END[2]; // latency_p50_us, bound 0.25
        assert_eq!(judge(lower, Some(100.0), Some(124.0)).1, Verdict::Ok);
        assert_eq!(judge(lower, Some(100.0), Some(126.0)).1, Verdict::Worse);
        assert_eq!(judge(lower, Some(100.0), Some(50.0)).1, Verdict::Ok);
        let higher = &END_TO_END[1]; // throughput_rps, bound 0.25
        assert_eq!(judge(higher, Some(100.0), Some(76.0)).1, Verdict::Ok);
        assert_eq!(judge(higher, Some(100.0), Some(74.0)).1, Verdict::Worse);
        assert_eq!(judge(higher, Some(100.0), None).1, Verdict::Unresolved);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit_of(n).len() <= 16);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` at the repository root is the contract the driver
    /// reads; it must list exactly the metrics and workloads this binary
    /// reports.
    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = crate::stream::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        for (m, listed) in END_TO_END
            .iter()
            .zip(json.get("end_to_end").and_then(Json::as_array).unwrap())
        {
            assert_eq!(
                listed.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert_eq!(
                listed.get("better").and_then(Json::as_str),
                Some(m.better.label())
            );
        }
    }
}
