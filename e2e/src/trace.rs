//! The traced run: spans recorded from this package, around the public
//! calls into each layer, and the single-threaded in-process replay that
//! produces them.
//!
//! Every request is replayed twice: through a gateway of its own (`B`),
//! where `parse → handle → format` are timed, and on a *shadow* SDK + KB
//! built from the same seed and fed the same operations in the same
//! order, where the JSON parse and the inner layer are called directly.
//! The shadow keeps `B` unperturbed and, being in the same state, prices
//! exactly the work `B`'s `handle` contains.

use crate::measure::Checks;
use crate::stream::{Kind, Req};
use crate::sut::Sut;
use cogsdk::json::Json;
use cogsdk::kb::{gateway_query_handler, IngestConfig};
use cogsdk::sdk::gateway::{format_response, parse_request, HttpGateway, HttpRequest};
use cogsdk::sdk::rank::RankOptions;
use cogsdk::sim::service::Request;
use cogsdk::stats::descriptive::median;
use cogsdk::text::analysis::{Analyzer, NluConfig};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One span: `{trace, span, parent, name, start_ns, end_ns}`. Spans of
/// one request share `trace`; `parent` is 0 for a root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub trace: u32,
    pub span: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, trace: u32, parent: u32, name: &'static str) -> u32 {
        let span = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace,
            span,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        span
    }

    pub fn end(&mut self, span: u32) {
        self.spans[span as usize - 1].end_ns = self.now_ns();
    }

    fn rename(&mut self, span: u32, name: &'static str) {
        self.spans[span as usize - 1].name = name;
    }

    fn duration_ns(&self, span: u32) -> u64 {
        self.spans[span as usize - 1].duration_ns()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"trace":{},"span":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.trace, s.span, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        if child.parent == 0 {
            continue;
        }
        let parent = &spans[child.parent as usize - 1];
        let covered = child
            .end_ns
            .min(parent.end_ns)
            .saturating_sub(child.start_ns.max(parent.start_ns));
        let slot = &mut own[child.parent as usize - 1];
        *slot = slot.saturating_sub(covered);
    }
    own
}

/// Self time summed per span name over the traces `keep` selects, as
/// `(name, spans, self_ns)`, largest first.
pub fn self_time_by_name(
    spans: &[Span],
    keep: impl Fn(u32) -> bool,
) -> Vec<(&'static str, usize, u64)> {
    let mut by_name: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        if keep(span.trace) {
            let slot = by_name.entry(span.name).or_default();
            slot.0 += 1;
            slot.1 += own;
        }
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (n, ns))| (name, n, ns))
        .collect();
    rows.sort_by_key(|&(_, _, ns)| std::cmp::Reverse(ns));
    rows
}

/// What the replay recorded for one request, beside its spans.
pub struct Replayed {
    pub kind: Kind,
    pub in_sweep: bool,
    /// `parse + handle + format` wall time on gateway `B`.
    pub request_ns: u64,
    /// Whether the three calls were timed apart (spans) or as one
    /// `handle_text` call.
    pub traced: bool,
    pub parse_ns: u64,
    pub handle_ns: u64,
    pub format_ns: u64,
    /// On the shadow: `Json::parse` of the body, the inner layer called
    /// directly, and serialising its result.
    pub json_parse_ns: u64,
    pub inner_ns: u64,
    pub json_ser_ns: u64,
    /// False where the inner layer ran second, on a warm cache, and
    /// `inner_ns` is therefore left out of the budget.
    pub inner_first: bool,
    pub body_bytes: usize,
    pub response_bytes: usize,
    pub cache_hit: bool,
    /// The same request through a gateway whose SDK has telemetry off
    /// (invoke routes only).
    pub plain_handle_ns: Option<u64>,
}

/// Totals the shadow's direct calls produced.
#[derive(Default)]
pub struct ShadowTotals {
    pub queries: u64,
    pub query_rows: u64,
    pub plan_us: u64,
    pub loop_joins: u64,
    pub merge_joins: u64,
    /// Per first-run query: `query_on` wall time minus its reported
    /// planning time.
    pub execute_ns: Vec<u64>,
    /// Per first-run handler closure: its wall time.
    pub handler_ns: Vec<(Kind, u64)>,
    /// Per first-run query: parse + pin + query, the handler's parts
    /// other than building the rows.
    pub handler_parts_ns: Vec<(Kind, u64)>,
    pub docs: u64,
    pub statements: u64,
    pub analyze_ns: u64,
    pub stream_ns: u64,
}

pub struct Replay {
    pub log: SpanLog,
    pub requests: Vec<Replayed>,
    pub checks: Checks,
    pub errors: Vec<String>,
    pub shadow: ShadowTotals,
}

fn sparql_of(body: &Json) -> &str {
    body.get("sparql")
        .and_then(Json::as_str)
        .expect("generated query bodies carry sparql")
}

/// Replays `requests` (the workload's share, then `sweep_from` onward the
/// calibration sweep) on one thread with no socket.
pub fn replay(
    b: &Sut,
    shadow: &Sut,
    plain: &HttpGateway,
    requests: &[&Req],
    sweep_from: usize,
    items: usize,
) -> Replay {
    let mut log = SpanLog::new();
    let mut out = Vec::with_capacity(requests.len());
    let mut checks = Checks::default();
    let mut errors = Vec::new();
    let mut totals = ShadowTotals::default();
    // How many requests of each kind came before: successive requests of
    // a kind take turns through traced/untraced and, for queries, through
    // which of the handler and the direct call runs first, so every kind
    // with four requests has all four combinations.
    let mut seen = [0usize; Kind::ALL.len()];
    let shadow_query = gateway_query_handler(shadow.kb.clone());
    let analyzer = Analyzer::with_default_lexicons();
    let nlu = NluConfig::perfect();

    for (i, req) in requests.iter().enumerate() {
        let trace = i as u32 + 1;
        let turn = seen[req.kind as usize];
        seen[req.kind as usize] += 1;
        let traced = turn % 2 == 0;
        let mut r = Replayed {
            kind: req.kind,
            in_sweep: i >= sweep_from,
            request_ns: 0,
            traced,
            parse_ns: 0,
            handle_ns: 0,
            format_ns: 0,
            json_parse_ns: 0,
            inner_ns: 0,
            json_ser_ns: 0,
            inner_first: true,
            body_bytes: 0,
            response_bytes: 0,
            cache_hit: false,
            plain_handle_ns: None,
        };

        // Gateway B: the request as the server thread runs it.
        let response_text = if traced {
            let root = log.begin(trace, 0, "request");
            let p = log.begin(trace, root, "core.gateway.parse");
            let parsed = parse_request(&req.raw).expect("generated requests parse");
            log.end(p);
            let h = log.begin(trace, root, "core.gateway.handle");
            let response = b.gateway.handle(&parsed);
            log.end(h);
            let f = log.begin(trace, root, "core.gateway.format");
            let text = format_response(&response);
            log.end(f);
            log.end(root);
            r.request_ns = log.duration_ns(root);
            r.parse_ns = log.duration_ns(p);
            r.handle_ns = log.duration_ns(h);
            r.format_ns = log.duration_ns(f);
            text
        } else {
            let started = Instant::now();
            let text = b.gateway.handle_text(&req.raw);
            r.request_ns = started.elapsed().as_nanos() as u64;
            text
        };
        r.response_bytes = response_text.len();
        let verdict = crate::measure::split_response(&response_text).and_then(|(status, body)| {
            if status != 200 {
                return Err(format!("status {status}: {body}"));
            }
            checks.check(req, body, items)
        });
        match verdict {
            Ok(json) => r.cache_hit = json.get("cache_hit").and_then(Json::as_bool) == Some(true),
            Err(e) => {
                if errors.len() < 5 {
                    errors.push(format!("replay {} key {}: {e}", req.kind.label(), req.key));
                }
            }
        }

        // Shadow: the same operation, layer by layer.
        let parsed: HttpRequest = parse_request(&req.raw).expect("generated requests parse");
        r.body_bytes = parsed.body.len();
        let root = log.begin(trace, 0, "shadow");
        let j = log.begin(trace, root, "json.parse");
        let body = Json::parse(&parsed.body).expect("generated bodies are JSON");
        log.end(j);
        r.json_parse_ns = log.duration_ns(j);
        match req.kind {
            Kind::InvokeHot | Kind::InvokeCold | Kind::InvokeClass => {
                let operation = body
                    .get("operation")
                    .and_then(Json::as_str)
                    .unwrap_or("invoke");
                let request = Request::new(
                    operation,
                    body.get("payload").cloned().unwrap_or(Json::Null),
                );
                if req.kind == Kind::InvokeClass {
                    let s = log.begin(trace, root, "core.sdk.invoke_class");
                    let served = shadow
                        .sdk
                        .invoke_class("nlu", &request, &RankOptions::default());
                    log.end(s);
                    served.expect("no fault is injected");
                    r.inner_ns = log.duration_ns(s);
                } else {
                    let s = log.begin(trace, root, "core.sdk.invoke_cached_miss");
                    let served = shadow.sdk.invoke_cached("nlu-a", &request);
                    log.end(s);
                    if served.expect("no fault is injected").1 {
                        log.rename(s, "core.sdk.invoke_cached_hit");
                    }
                    r.inner_ns = log.duration_ns(s);
                }
            }
            Kind::Point | Kind::JoinLimit | Kind::JoinFull => {
                let sparql = sparql_of(&body);
                // `handle` contains the handler closure, which repeats
                // the parse and runs pin + query itself. Whichever of
                // the two runs second finds the index pages in cache, so
                // they take turns and the repeat is named apart: every
                // named span is a first execution.
                let handler_first = (turn / 2) % 2 == 0;
                let mut handler_ns = 0;
                let mut answer = None;
                if handler_first {
                    let h = log.begin(trace, root, "kb.gateway.query_handler");
                    answer = Some(shadow_query(&parsed).expect("generated queries run"));
                    log.end(h);
                    handler_ns = log.duration_ns(h);
                }
                let first = |name: &'static str| {
                    if handler_first {
                        "kb.query.repeat"
                    } else {
                        name
                    }
                };
                let pin = log.begin(trace, root, "rdf.epoch.pin");
                let snapshot = shadow.kb.query_snapshot();
                log.end(pin);
                let q = log.begin(
                    trace,
                    root,
                    first(match req.kind {
                        Kind::Point => "kb.query.point",
                        Kind::JoinLimit => "kb.query.join_limit",
                        _ => "kb.query.join_full",
                    }),
                );
                let (rows, stats) = shadow
                    .kb
                    .query_on(&snapshot, sparql)
                    .expect("generated queries parse");
                log.end(q);
                let answer = answer.unwrap_or_else(|| {
                    let h = log.begin(trace, root, "kb.gateway.query_handler.repeat");
                    let answer = shadow_query(&parsed).expect("generated queries run");
                    log.end(h);
                    answer
                });
                let ser = log.begin(trace, root, "json.ser");
                let text = answer.to_json();
                log.end(ser);
                std::hint::black_box((rows.len(), text.len()));
                r.json_ser_ns = log.duration_ns(ser);
                totals.queries += 1;
                totals.query_rows += stats.rows as u64;
                totals.plan_us += stats.plan_micros;
                totals.loop_joins += stats.loop_joins as u64;
                totals.merge_joins += stats.merge_joins as u64;
                if handler_first {
                    r.inner_ns = handler_ns.saturating_sub(r.json_parse_ns);
                    totals.handler_ns.push((req.kind, handler_ns));
                } else {
                    r.inner_first = false;
                    let query_ns = log.duration_ns(q);
                    totals
                        .execute_ns
                        .push(query_ns.saturating_sub(stats.plan_micros * 1_000));
                    totals
                        .handler_parts_ns
                        .push((req.kind, r.json_parse_ns + log.duration_ns(pin) + query_ns));
                }
            }
            Kind::Ingest => {
                let docs: Vec<String> = body
                    .get("documents")
                    .and_then(Json::as_array)
                    .expect("generated ingests carry documents")
                    .iter()
                    .map(|d| d.as_str().expect("documents are strings").to_string())
                    .collect();
                // Analysis runs on the loader's workers, inside the
                // stream's wall time; timed alone here it prices the CPU.
                let a = log.begin(trace, root, "text.analyze");
                for d in &docs {
                    std::hint::black_box(analyzer.analyze(d, &nlu));
                }
                log.end(a);
                let s = log.begin(trace, root, "kb.ingest.stream");
                let report = shadow
                    .kb
                    .ingest_stream(
                        &shadow.pool,
                        docs,
                        IngestConfig {
                            workers: 2,
                            ..IngestConfig::default()
                        },
                    )
                    .expect("shadow ingest commits");
                log.end(s);
                r.inner_ns = log.duration_ns(s);
                totals.docs += report.documents as u64;
                totals.statements += report.statements as u64;
                totals.analyze_ns += log.duration_ns(a);
                totals.stream_ns += log.duration_ns(s);
            }
        }
        log.end(root);

        if req.kind.is_invoke() {
            let started = Instant::now();
            let response = plain.handle(&parsed);
            r.plain_handle_ns = Some(started.elapsed().as_nanos() as u64);
            assert_eq!(response.status, 200, "plain gateway serves invokes");
        }
        out.push(r);
    }
    Replay {
        log,
        requests: out,
        checks,
        errors,
        shadow: totals,
    }
}

/// Median in microseconds of `f` over the requests `keep` selects, or
/// `None` when it selects none.
pub fn median_us(
    requests: &[Replayed],
    keep: impl Fn(&Replayed) -> bool,
    f: impl Fn(&Replayed) -> u64,
) -> Option<f64> {
    let values: Vec<f64> = requests
        .iter()
        .filter(|r| keep(r))
        .map(|r| f(r) as f64 / 1e3)
        .collect();
    median(&values)
}

/// Median duration in nanoseconds of the spans called `name`.
pub fn span_median_ns(spans: &[Span], name: &str) -> Option<f64> {
    let values: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect();
    median(&values)
}

/// One row of the latency budget: a request kind's median time per layer
/// (µs), from the traced half of the replay.
pub struct BudgetRow {
    pub kind: Kind,
    pub count: usize,
    pub parse: f64,
    pub json_parse: f64,
    pub inner: f64,
    pub json_ser: f64,
    /// `handle` minus the three shadow-timed parts inside it.
    pub route_self: f64,
    pub format: f64,
    /// Untraced `handle_text` median: what the budget must add up to.
    pub in_process: f64,
}

impl BudgetRow {
    pub fn sum(&self) -> f64 {
        self.parse + self.json_parse + self.inner + self.json_ser + self.route_self + self.format
    }
}

pub fn budget(requests: &[Replayed], sweep: bool) -> Vec<BudgetRow> {
    Kind::ALL
        .iter()
        .filter_map(|&kind| {
            let traced = |r: &Replayed| r.kind == kind && r.in_sweep == sweep && r.traced;
            let untraced = |r: &Replayed| r.kind == kind && r.in_sweep == sweep && !r.traced;
            let parse = median_us(requests, traced, |r| r.parse_ns)?;
            let in_process = median_us(requests, untraced, |r| r.request_ns)?;
            let all = |r: &Replayed| r.kind == kind && r.in_sweep == sweep;
            let json_parse = median_us(requests, all, |r| r.json_parse_ns)?;
            let inner = median_us(requests, |r| all(r) && r.inner_first, |r| r.inner_ns)?;
            let json_ser = median_us(requests, all, |r| r.json_ser_ns)?;
            let handle = median_us(requests, traced, |r| r.handle_ns)?;
            Some(BudgetRow {
                kind,
                count: requests.iter().filter(|r| all(r)).count(),
                parse,
                json_parse,
                inner,
                json_ser,
                route_self: handle - json_parse - inner - json_ser,
                format: median_us(requests, traced, |r| r.format_ns)?,
                in_process,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            span,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(1, 0, 0, 100),  // root
            span(2, 1, 10, 30),  // child: 20
            span(3, 1, 40, 90),  // child: 50, itself a parent
            span(4, 3, 50, 60),  // grandchild: 10
            span(5, 1, 95, 120), // child running past the root: only 5 count
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 20 - 50 - 5, 20, 40, 10, 25]
        );
        // All five are called "t" and belong to trace 1.
        assert_eq!(
            self_time_by_name(&spans, |trace| trace == 1),
            vec![("t", 5, 120)]
        );
        assert_eq!(self_time_by_name(&spans, |trace| trace == 2), vec![]);
    }

    #[test]
    fn span_log_links_children_to_parents() {
        let mut log = SpanLog::new();
        let root = log.begin(9, 0, "request");
        let child = log.begin(9, root, "core.gateway.parse");
        log.end(child);
        log.end(root);
        log.rename(child, "renamed");
        assert_eq!((root, child), (1, 2));
        assert_eq!(log.spans[1].parent, root);
        assert_eq!(log.spans[1].name, "renamed");
        assert!(log.spans[0].duration_ns() >= log.spans[1].duration_ns());
        assert_eq!(span_median_ns(&log.spans, "nope"), None);
    }
}
