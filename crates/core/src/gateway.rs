//! The rich SDK's HTTP interface.
//!
//! §2: "In order to allow programs written in other languages to access
//! the rich SDK, the rich SDK can expose an HTTP interface allowing
//! applications written in other languages to use it."
//!
//! [`HttpGateway`] implements a small HTTP/1.1 surface over a
//! [`RichSdk`]:
//!
//! | Route | Body | Effect |
//! |---|---|---|
//! | `POST /invoke/{service}` | request JSON | [`RichSdk::invoke`] |
//! | `POST /invoke-cached/{service}` | request JSON | [`RichSdk::invoke_cached`] |
//! | `POST /invoke-class/{class}` | request JSON | ranked selection + failover |
//! | `GET /services` | — | registered service names |
//! | `GET /monitor/{service}` | — | availability and latency summary |
//! | `GET /metrics` | — | Prometheus text exposition of the SDK's metrics |
//! | `GET /trace` | — | JSON-Lines dump of the trace event ring buffer |
//! | `GET /trace?trace_id=N` | — | one trace (tail-sampler retained copy preferred) |
//! | `GET /slo` | — | burn-rate status of every configured objective |
//! | `GET /profile` | — | critical-path profile of retained traces |
//! | `POST /snapshot` | — | host-mounted: checkpoint the host's durable store (admin) |
//! | `POST /query` | `{"sparql": …}` | host-mounted: conjunctive query via the host's KB planner |
//! | `POST /ingest/bulk` | `{"documents": […]}` | host-mounted: the host's streaming bulk loader |
//!
//! A host-mounted route answers once the host [`mount`](HttpGateway::mount)s
//! a [`RouteHandler`] there, which returns its JSON body or a [`RouteError`]
//! carrying the status to answer; until then it answers 404.
//!
//! Invocation requests may carry an `X-Tenant` header; the gateway interns
//! the tenant into the trace context so every downstream RED metric
//! (attempts, cache probes, pool jobs) gains a per-tenant series, and
//! records per-route request/error/duration metrics with exemplar trace
//! ids. When an [`SloEngine`] is attached ([`HttpGateway::with_observability`])
//! each finished invocation is classified against its objectives, and when
//! a tail sampler is enabled the gateway holds the trace open until the
//! verdict (error/deadline/breaker/SLO-violation) is known.
//!
//! The request parser/serializer is self-contained ([`parse_request`],
//! [`format_response`]) so the protocol layer is unit-testable without
//! sockets; [`HttpGateway::serve`] binds a real `std::net::TcpListener`
//! for cross-language clients.

use crate::invoke::Call;
use crate::rank::RankOptions;
use crate::sdk::RichSdk;
use crate::SdkError;
use cogsdk_json::{json, Json, JsonText};
use cogsdk_obs::{
    profile_traces, prometheus_text, tenant_labels, trace_jsonl_with_summary, EventKind, SloEngine,
    SloStatus, TenantId, TraceId, TraceVerdict,
};
use cogsdk_sim::service::Request;
use parking_lot::{Condvar, Mutex};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A minimal parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request method (`GET`, `POST`, …).
    pub method: String,
    /// The path, with any query string stripped into `query`.
    pub path: String,
    /// Decoded query-string pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Value of the `X-Tenant` header, if the client sent one.
    pub tenant: Option<String>,
    /// The raw body.
    pub body: String,
}

impl HttpRequest {
    /// First value for a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A minimal HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Value for a `Retry-After` header (seconds), set on 503s produced
    /// by load shedding and open circuit breakers.
    pub retry_after: Option<u64>,
}

impl HttpResponse {
    fn ok(body: Json) -> HttpResponse {
        HttpResponse {
            status: 200,
            body: body.to_json(),
            content_type: "application/json",
            retry_after: None,
        }
    }

    fn text(content_type: &'static str, body: String) -> HttpResponse {
        HttpResponse {
            status: 200,
            body,
            content_type,
            retry_after: None,
        }
    }

    fn error(status: u16, message: impl std::fmt::Display) -> HttpResponse {
        HttpResponse {
            status,
            body: json!({"error": (message.to_string())}).to_json(),
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A structured error body carrying the machine-readable kind and
    /// whether the client can reasonably retry — so cross-language
    /// callers branch on fields instead of parsing prose.
    fn structured_error(
        status: u16,
        message: impl std::fmt::Display,
        kind: &str,
        retryable: bool,
    ) -> HttpResponse {
        HttpResponse {
            status,
            body: json!({
                "error": (message.to_string()),
                "kind": kind,
                "retryable": (retryable),
            })
            .to_json(),
            content_type: "application/json",
            retry_after: None,
        }
    }

    fn with_retry_after(mut self, secs: u64) -> HttpResponse {
        self.retry_after = Some(secs);
        self
    }
}

/// Parses the head + body of an HTTP/1.1 request from text.
///
/// # Errors
///
/// Returns a description of the first malformation (missing request
/// line, bad content length, …).
pub fn parse_request(text: &str) -> Result<HttpRequest, String> {
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let version = parts.next().ok_or("missing version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version: {version}"));
    }
    if !path.starts_with('/') {
        return Err(format!("invalid path: {path}"));
    }
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (
            p.to_string(),
            q.split('&')
                .filter(|pair| !pair.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect(),
        ),
        None => (path, Vec::new()),
    };
    // Scan headers to the blank line (capturing `X-Tenant`); body is the
    // rest.
    let mut tenant = None;
    let mut body = String::new();
    let mut in_body = false;
    for line in lines {
        if in_body {
            if !body.is_empty() {
                body.push_str("\r\n");
            }
            body.push_str(line);
        } else if line.is_empty() {
            in_body = true;
        } else if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("x-tenant") {
                let value = value.trim();
                if !value.is_empty() {
                    tenant = Some(value.to_string());
                }
            }
        }
    }
    Ok(HttpRequest {
        method,
        path,
        query,
        tenant,
        body,
    })
}

/// Serializes a response as HTTP/1.1 text.
pub fn format_response(resp: &HttpResponse) -> String {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    let retry_after = match resp.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
        resp.status,
        reason,
        resp.content_type,
        resp.body.len(),
        retry_after,
        resp.body
    )
}

/// Concurrency limits for the gateway's invocation routes (the bulkhead).
///
/// Each invocation route (`invoke`, `invoke-cached`, `invoke-class`) gets
/// its own compartment: at most `max_concurrent` requests run at once,
/// at most `max_queue` wait for a slot, and no waiter holds a connection
/// longer than `max_queue_wait` before being shed with a 503 carrying
/// `Retry-After: {retry_after_secs}`. Read-only routes (`/metrics`,
/// `/services`, …) are never gated so operators can always observe an
/// overloaded gateway.
#[derive(Debug, Clone)]
pub struct GatewayLimits {
    /// Requests allowed in flight per route.
    pub max_concurrent: usize,
    /// Requests allowed to wait for a slot per route.
    pub max_queue: usize,
    /// Longest a queued request waits before being shed.
    pub max_queue_wait: Duration,
    /// `Retry-After` hint (seconds) on shed and breaker-rejected responses.
    pub retry_after_secs: u64,
}

impl Default for GatewayLimits {
    fn default() -> GatewayLimits {
        GatewayLimits {
            max_concurrent: 64,
            max_queue: 128,
            max_queue_wait: Duration::from_millis(50),
            retry_after_secs: 1,
        }
    }
}

#[derive(Default)]
struct GateState {
    active: usize,
    queued: usize,
}

/// The gated invocation routes; a route's position is its bulkhead slot.
const GATED_ROUTES: [&str; 3] = ["invoke", "invoke-cached", "invoke-class"];

/// Per-route concurrency gate with a bounded wait queue.
///
/// Uses real wall-clock waiting (not the virtual sim clock): the gateway
/// serves actual threads, and the bulkhead exists to protect them.
struct Bulkhead {
    limits: GatewayLimits,
    routes: Mutex<[GateState; GATED_ROUTES.len()]>,
    freed: Condvar,
}

enum Admit {
    Entered,
    Shed,
}

impl Bulkhead {
    fn new(limits: GatewayLimits) -> Bulkhead {
        Bulkhead {
            limits,
            routes: Mutex::new(Default::default()),
            freed: Condvar::new(),
        }
    }

    fn enter(&self, slot: usize) -> Admit {
        let mut routes = self.routes.lock();
        let state = &mut routes[slot];
        if state.active < self.limits.max_concurrent {
            state.active += 1;
            return Admit::Entered;
        }
        if state.queued >= self.limits.max_queue {
            return Admit::Shed;
        }
        state.queued += 1;
        let deadline = Instant::now() + self.limits.max_queue_wait;
        loop {
            let timed_out = self.freed.wait_until(&mut routes, deadline).timed_out();
            let state = &mut routes[slot];
            if state.active < self.limits.max_concurrent {
                state.queued -= 1;
                state.active += 1;
                return Admit::Entered;
            }
            if timed_out {
                state.queued -= 1;
                return Admit::Shed;
            }
        }
    }

    fn exit(&self, slot: usize) {
        let mut routes = self.routes.lock();
        routes[slot].active = routes[slot].active.saturating_sub(1);
        self.freed.notify_all();
    }
}

/// A path's non-empty segments: what routes match on.
fn path_segments(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|s| !s.is_empty())
}

/// First path segment — bounds metric label cardinality.
fn route_label(path: &str) -> &str {
    path_segments(path).next().unwrap_or("/")
}

/// A host route's handler, mounted with [`HttpGateway::mount`]: the host
/// wires in what the gateway itself has no dependency for, such as a
/// knowledge base's query planner or bulk loader. The handler receives
/// the full request, so it can honor the `X-Tenant` header and body
/// fields, and returns the serialised JSON body, served as a 200, or a
/// [`RouteError`] carrying the status to answer. A large answer is
/// written straight into that text (as `cogsdk_kb::gateway_query_handler`
/// writes its rows) instead of building a [`Json`] tree to serialise; a
/// small one can still be `Ok(json!(…).into())`.
pub type RouteHandler = Box<dyn Fn(&HttpRequest) -> Result<JsonText, RouteError> + Send + Sync>;

/// Why a [`RouteHandler`] refused a request, served as
/// `{"error": message}` with `status`. A message converted from a
/// `String` or `&str` is the client's fault (400: a malformed body);
/// [`RouteError::server`] is the server's (500: the store failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteError {
    /// The status to answer.
    pub status: u16,
    /// The error message served in the body.
    pub message: String,
}

impl RouteError {
    /// A server-side failure, answered as a 500.
    pub fn server(message: impl Into<String>) -> RouteError {
        RouteError {
            status: 500,
            message: message.into(),
        }
    }
}

impl From<String> for RouteError {
    fn from(message: String) -> RouteError {
        RouteError {
            status: 400,
            message,
        }
    }
}

impl From<&str> for RouteError {
    fn from(message: &str) -> RouteError {
        RouteError::from(message.to_string())
    }
}

/// One entry of the host route table: a method, a path's non-empty
/// segments and the handler answering them.
struct MountedRoute {
    method: String,
    segments: Vec<String>,
    handler: RouteHandler,
}

/// The gateway: routes HTTP requests onto a shared [`RichSdk`].
pub struct HttpGateway {
    sdk: Arc<RichSdk>,
    gate: Bulkhead,
    slo: Option<Arc<SloEngine>>,
    routes: Vec<MountedRoute>,
}

impl std::fmt::Debug for HttpGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpGateway").finish_non_exhaustive()
    }
}

impl HttpGateway {
    /// Creates a gateway over an SDK handle with default limits.
    pub fn new(sdk: Arc<RichSdk>) -> HttpGateway {
        HttpGateway::with_limits(sdk, GatewayLimits::default())
    }

    /// Creates a gateway with explicit bulkhead limits.
    pub fn with_limits(sdk: Arc<RichSdk>, limits: GatewayLimits) -> HttpGateway {
        HttpGateway {
            sdk,
            gate: Bulkhead::new(limits),
            slo: None,
            routes: Vec::new(),
        }
    }

    /// As [`HttpGateway::with_limits`], additionally attaching an SLO
    /// engine: every finished invocation is classified against its
    /// objectives, burn rates are re-evaluated, and `/slo` serves the
    /// engine's status.
    pub fn with_observability(
        sdk: Arc<RichSdk>,
        limits: GatewayLimits,
        slo: Arc<SloEngine>,
    ) -> HttpGateway {
        HttpGateway {
            slo: Some(slo),
            ..HttpGateway::with_limits(sdk, limits)
        }
    }

    /// The attached SLO engine, if any.
    pub fn slo_engine(&self) -> Option<&Arc<SloEngine>> {
        self.slo.as_ref()
    }

    /// Mounts `handler` at `method` and `path`, replacing any handler
    /// mounted there before. A request whose path has the same non-empty
    /// segments (`/ingest/bulk`, `/ingest/bulk/`) reaches it, unless a
    /// built-in route answers that method and path.
    pub fn mount(&mut self, method: &str, path: &str, handler: RouteHandler) {
        let segments: Vec<String> = path_segments(path).map(str::to_string).collect();
        match self
            .routes
            .iter_mut()
            .find(|route| route.method == method && route.segments == segments)
        {
            Some(route) => route.handler = handler,
            None => self.routes.push(MountedRoute {
                method: method.to_string(),
                segments,
                handler,
            }),
        }
    }

    /// [`mount`](Self::mount)s `handler` at `POST /query`; kept for the
    /// benchmark harness (`e2e/`), which calls it.
    pub fn set_query_handler(&mut self, handler: RouteHandler) {
        self.mount("POST", "/query", handler);
    }

    /// [`mount`](Self::mount)s `handler` at `POST /ingest/bulk`; kept for
    /// the benchmark harness (`e2e/`), which calls it.
    pub fn set_ingest_handler(&mut self, handler: RouteHandler) {
        self.mount("POST", "/ingest/bulk", handler);
    }

    /// Routes one parsed request through the bulkhead. No I/O. A handler
    /// that panics costs this request a structured 500 (and frees its
    /// bulkhead slot), not the thread serving it.
    pub fn handle(&self, request: &HttpRequest) -> HttpResponse {
        let route = route_label(&request.path);
        let slot = GATED_ROUTES
            .iter()
            .position(|gated| request.method == "POST" && *gated == route);
        // Unwind-safe: `route` holds none of the gateway's own locks while
        // a handler runs, and the bulkhead slot is released below.
        let routed = || {
            catch_unwind(AssertUnwindSafe(|| self.route(request))).unwrap_or_else(|_| {
                HttpResponse::structured_error(500, "request handler panicked", "internal", false)
            })
        };
        let response = match slot {
            Some(slot) => match self.gate.enter(slot) {
                Admit::Entered => {
                    let response = routed();
                    self.gate.exit(slot);
                    response
                }
                Admit::Shed => self.shed_response(route),
            },
            None => routed(),
        };
        let telemetry = self.sdk.telemetry();
        let metrics = telemetry.metrics();
        if metrics.is_enabled() {
            let status = response.status.to_string();
            let tenant = request
                .tenant
                .as_deref()
                .map(|t| telemetry.tracer().intern_tenant(t))
                .and_then(|id| telemetry.tracer().tenant_name(id));
            let tenant = tenant.as_deref().unwrap_or("");
            metrics.inc_counter(
                "gateway_requests_total",
                tenant_labels(&[("route", route), ("status", &status), ("tenant", tenant)]),
            );
        }
        response
    }

    /// Runs one invocation-route handler inside a fresh (per-tenant)
    /// trace: holds the trace in the tail sampler until the outcome is
    /// known, records per-route RED metrics with an exemplar trace id,
    /// classifies the request against any attached SLO objectives, and
    /// finalizes the sampler with the resulting verdict.
    fn observe_invoke(
        &self,
        route: &str,
        request: &HttpRequest,
        f: impl FnOnce(&Call<'_>) -> HttpResponse,
    ) -> HttpResponse {
        let telemetry = self.sdk.telemetry();
        let tracer = telemetry.tracer();
        if !telemetry.is_enabled() {
            return f(&self.sdk.call());
        }
        let tenant_id = match request.tenant.as_deref() {
            Some(t) => tracer.intern_tenant(t),
            None => TenantId::NONE,
        };
        let ctx = tracer.new_trace_for(tenant_id);
        let sampler = telemetry.sampler();
        if let Some(sampler) = &sampler {
            sampler.hold(ctx.trace);
        }
        let started = tracer.now_ms();
        let response = f(&self.sdk.call_at(&ctx));
        let latency_ms = (tracer.now_ms() - started).max(0.0);
        // 4xx responses are the client's fault; only 5xx burns the budget.
        let ok = response.status < 500;
        let metrics = telemetry.metrics();
        let status = response.status.to_string();
        let tenant = tracer.tenant_name(tenant_id);
        let t = tenant.as_deref().unwrap_or("");
        metrics.inc_counter(
            "gateway_route_requests_total",
            tenant_labels(&[("route", route), ("status", &status), ("tenant", t)]),
        );
        let by_route = [("route", route), ("tenant", t)];
        let by_route = tenant_labels(&by_route);
        if !ok {
            metrics.inc_counter("gateway_route_errors_total", by_route);
        }
        metrics.observe_with_exemplar(
            "gateway_route_latency_ms",
            by_route,
            latency_ms,
            ctx.trace.0,
        );
        let mut violated = false;
        if let Some(engine) = &self.slo {
            let record = engine.record(route, tenant.as_deref(), ok, latency_ms, &ctx);
            violated = record.violated;
        }
        if let Some(sampler) = &sampler {
            let verdict = if response.status == 504 {
                Some(TraceVerdict::DeadlineExceeded)
            } else if response.status == 503 {
                Some(TraceVerdict::BreakerRejected)
            } else if response.status >= 500 {
                Some(TraceVerdict::Error)
            } else if violated {
                Some(TraceVerdict::SloViolation)
            } else {
                None
            };
            sampler.finalize(ctx.trace, verdict);
        }
        response
    }

    fn shed_response(&self, route: &str) -> HttpResponse {
        let telemetry = self.sdk.telemetry();
        if telemetry.is_enabled() {
            let ctx = telemetry.tracer().new_trace();
            telemetry.tracer().emit(&ctx, || EventKind::GatewayShed {
                route: route.to_string(),
            });
            telemetry
                .metrics()
                .inc_counter("gateway_shed_total", &[("route", route)]);
        }
        HttpResponse::structured_error(
            503,
            format!("gateway overloaded on route {route}; request shed"),
            "shed",
            true,
        )
        .with_retry_after(self.gate.limits.retry_after_secs)
    }

    fn sdk_error_response(&self, error: &SdkError) -> HttpResponse {
        let status = match error {
            SdkError::UnknownService(_) | SdkError::EmptyClass(_) => 404,
            SdkError::Rejected(_) | SdkError::InvalidRating(_) => 400,
            SdkError::AllFailed(_) => 502,
            SdkError::DeadlineExceeded(_) => 504,
            SdkError::CircuitOpen(_) => 503,
        };
        let retryable = matches!(
            error,
            SdkError::AllFailed(_) | SdkError::DeadlineExceeded(_) | SdkError::CircuitOpen(_)
        );
        let response = HttpResponse::structured_error(status, error, error.kind(), retryable);
        if matches!(error, SdkError::CircuitOpen(_)) {
            let metrics = self.sdk.telemetry().metrics();
            if metrics.is_enabled() {
                metrics.inc_counter("gateway_breaker_rejections_total", &[]);
            }
            return response.with_retry_after(self.gate.limits.retry_after_secs);
        }
        response
    }

    fn route(&self, request: &HttpRequest) -> HttpResponse {
        let segments: Vec<&str> = path_segments(&request.path).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["services"]) => {
                let names: Vec<Json> = self
                    .sdk
                    .registry()
                    .names()
                    .into_iter()
                    .map(Json::from)
                    .collect();
                HttpResponse::ok(json!({"services": (Json::Array(names))}))
            }
            ("GET", ["metrics"]) => {
                // Publish ring/sampler overflow counters so drops are
                // visible in the same scrape that would miss their data.
                self.sdk.telemetry().sync_health_metrics();
                HttpResponse::text(
                    "text/plain; version=0.0.4",
                    prometheus_text(self.sdk.telemetry().metrics()),
                )
            }
            ("GET", ["trace"]) => self.trace_response(request),
            ("GET", ["slo"]) => self.slo_response(),
            ("GET", ["profile"]) => self.profile_response(request),
            ("GET", ["monitor", service]) => match self.sdk.monitor().history(service) {
                Some(history) => {
                    let mut body = Json::object();
                    body.insert("service", *service);
                    body.insert("observations", history.observations().len());
                    body.insert("availability", history.availability());
                    body.insert("mean_latency_ms", history.mean_latency_ms());
                    body.insert("median_latency_ms", history.median_latency_ms());
                    body.insert("mean_quality", history.mean_quality());
                    HttpResponse::ok(body)
                }
                None => HttpResponse::error(404, format!("no history for {service}")),
            },
            ("POST", [route, target]) if GATED_ROUTES.contains(route) => {
                match parse_body(&request.body) {
                    Ok(req) => self.observe_invoke(route, request, |call| {
                        match self.invoke(route, target, &req, call) {
                            Ok(body) => HttpResponse::ok(body),
                            Err(e) => self.sdk_error_response(&e),
                        }
                    }),
                    Err(e) => HttpResponse::error(400, e),
                }
            }
            (method, path) => match self
                .routes
                .iter()
                .find(|route| route.method == method && route.segments == path)
            {
                Some(route) => match (route.handler)(request) {
                    Ok(body) => HttpResponse::text("application/json", body.into_string()),
                    Err(e) => HttpResponse::error(e.status, e.message),
                },
                None if matches!(method, "GET" | "POST") => {
                    HttpResponse::error(404, "no such route")
                }
                None => HttpResponse::error(405, "method not allowed"),
            },
        }
    }

    /// Runs one invocation route (one of [`GATED_ROUTES`]) on `target`
    /// and shapes its answer body.
    fn invoke(
        &self,
        route: &str,
        target: &str,
        req: &Request,
        call: &Call<'_>,
    ) -> Result<Json, SdkError> {
        let sdk = &self.sdk;
        match route {
            "invoke" => sdk
                .invoke_with(target, req, call)
                .map(|resp| json!({"payload": (resp.payload)})),
            "invoke-cached" => sdk.invoke_cached_with(target, req, call).map(|(resp, source)| {
                json!({"payload": (resp.payload), "cache_hit": (source.served_locally())})
            }),
            _ => sdk
                .invoke_class_with(target, req, &RankOptions::default(), call)
                .map(|ok| {
                    json!({
                        "payload": (ok.response.payload),
                        "service": (ok.service.as_str()),
                        "services_tried": (ok.services_tried),
                    })
                }),
        }
    }

    /// `/trace` dump: the full ring buffer, or — with `?trace_id=N` —
    /// just that trace, preferring the tail sampler's retained copy (it
    /// survives ring-buffer wraparound). Every dump ends with a summary
    /// line reporting how many events the ring dropped.
    fn trace_response(&self, request: &HttpRequest) -> HttpResponse {
        let tracer = self.sdk.telemetry().tracer();
        let events = match request.query_param("trace_id") {
            Some(raw) => {
                let id = match raw.trim_start_matches('t').parse::<u64>() {
                    Ok(id) => TraceId(id),
                    Err(_) => return HttpResponse::error(400, format!("bad trace_id: {raw}")),
                };
                let retained = self
                    .sdk
                    .telemetry()
                    .sampler()
                    .and_then(|s| s.retained_trace(id));
                match retained {
                    Some(trace) => trace.events,
                    None => tracer
                        .events()
                        .into_iter()
                        .filter(|e| e.trace == id)
                        .collect(),
                }
            }
            None => tracer.events(),
        };
        HttpResponse::text(
            "application/x-ndjson",
            trace_jsonl_with_summary(&events, tracer.dropped()),
        )
    }

    /// `/slo` status: one entry per objective with window counts, burn
    /// rates, and alert state.
    fn slo_response(&self) -> HttpResponse {
        let engine = match &self.slo {
            Some(engine) => engine,
            None => return HttpResponse::error(404, "no SLO engine attached"),
        };
        let statuses = engine.snapshot();
        let mut list = Json::Array(Vec::new());
        for status in &statuses {
            list.push(slo_status_json(status));
        }
        let mut body = Json::object();
        body.insert("burn_threshold", engine.config().burn_threshold);
        body.insert("objectives", list);
        HttpResponse::ok(body)
    }

    /// `/profile`: critical-path profile over the tail sampler's retained
    /// traces. `?format=flamegraph` returns folded-stacks text;
    /// `?top=K` limits the per-operation table.
    fn profile_response(&self, request: &HttpRequest) -> HttpResponse {
        let sampler = match self.sdk.telemetry().sampler() {
            Some(sampler) => sampler,
            None => return HttpResponse::error(404, "tail sampling not enabled"),
        };
        let top = match request.query_param("top") {
            Some(raw) => match raw.parse::<usize>() {
                Ok(top) => Some(top),
                Err(_) => return HttpResponse::error(400, format!("bad top: {raw}")),
            },
            None => None,
        };
        let profile = profile_traces(&sampler.retained_span_trees());
        if request.query_param("format") == Some("flamegraph") {
            return HttpResponse::text("text/plain; charset=utf-8", profile.flamegraph());
        }
        let mut body = profile.to_json();
        if let Some(top) = top {
            let mut ops = Json::Array(Vec::new());
            for op in profile.top_k(top) {
                let mut o = Json::object();
                o.insert("op", op.op.as_str());
                o.insert("spans", op.spans as i64);
                o.insert("total_ms", op.total_ms);
                o.insert("self_ms", op.self_ms);
                o.insert("critical_ms", op.critical_ms);
                ops.push(o);
            }
            body.insert("ops", ops);
        }
        HttpResponse::ok(body)
    }

    /// Handles raw HTTP text end to end (parse → route → serialize).
    pub fn handle_text(&self, text: &str) -> String {
        let response = match parse_request(text) {
            Ok(req) => self.handle(&req),
            Err(e) => HttpResponse::error(400, e),
        };
        format_response(&response)
    }

    /// Binds a TCP listener and serves it from one new thread until shut
    /// down, returning the bound address and the handle that stops it.
    ///
    /// The thread blocks in `accept()` and serves each connection inline,
    /// one request per connection (`Connection: close`), so requests are
    /// answered strictly in arrival order and a connection costs no poll
    /// interval: a cached invoke is ~40 µs socket to socket on loopback.
    /// A request must fit a 16 KiB head and a 16 MiB body and arrive
    /// within 5 s; one that does not is answered 431 / 413 / 408 (400 for
    /// a malformed one, 501 for chunked encoding) with the structured
    /// `{error,kind,retryable}` body, so a hostile or stalled client costs
    /// at most one timeout, never the server. Setting `shutdown` alone
    /// does not wake the blocked `accept()`; [`ServeHandle::join`] does.
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn serve(
        self: Arc<Self>,
        addr: &str,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<(SocketAddr, ServeHandle)> {
        self.serve_with_timeout(addr, shutdown, IO_TIMEOUT)
    }

    /// [`HttpGateway::serve`] with the per-connection I/O timeout as a
    /// parameter, so this module's tests need not wait out `IO_TIMEOUT`.
    fn serve_with_timeout(
        self: Arc<Self>,
        addr: &str,
        shutdown: Arc<AtomicBool>,
        io_timeout: Duration,
    ) -> std::io::Result<(SocketAddr, ServeHandle)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = shutdown.clone();
        let thread = std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => serve_connection(&self, stream, io_timeout),
                // ECONNABORTED, EMFILE and the like say nothing about the
                // listener: note it, give descriptors a moment to free up,
                // and keep accepting.
                Err(e) => {
                    eprintln!("gateway {local}: accept failed: {e}");
                    let metrics = self.sdk.telemetry().metrics();
                    if metrics.is_enabled() {
                        metrics.inc_counter("gateway_accept_errors_total", &[]);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            // Checked after serving, so a request that raced the shutdown
            // is answered, not dropped.
            if stop.load(Ordering::SeqCst) {
                break;
            }
        });
        let handle = ServeHandle {
            addr: local,
            shutdown,
            thread,
        };
        Ok((local, handle))
    }
}

/// Stops and joins the thread [`HttpGateway::serve`] started.
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl ServeHandle {
    /// Shuts the server down: sets the shutdown flag, wakes the blocked
    /// `accept()` with one empty loopback connection, and joins the
    /// thread. A connection already accepted is served first, so this
    /// returns within the 5 s request timeout plus one service time.
    ///
    /// # Errors
    ///
    /// The serving thread's panic payload, as [`std::thread::JoinHandle::join`].
    pub fn join(self) -> std::thread::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Refused means the thread is already gone; join reports why.
        let _ = TcpStream::connect_timeout(&wake, IO_TIMEOUT);
        self.thread.join()
    }
}

/// Largest request head (request line + headers + blank line) accepted.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest declared request body accepted. The biggest legitimate body is
/// a `POST /ingest/bulk`: 16 MiB holds ~200 000 short documents (800x the
/// benchmark's 256-document requests), past which a client loses nothing
/// by splitting — the loader commits per batch anyway — while the server
/// buffers one whole body per connection.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Longest a connection may take to deliver its whole request, and
/// separately to accept the response. The loop is serial, so this is also
/// the longest one stalled client can delay the next request.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Serves one connection: one bounded, timed read; one response; close.
fn serve_connection(gateway: &HttpGateway, mut stream: TcpStream, io_timeout: Duration) {
    let deadline = Instant::now() + io_timeout;
    let (response, drain) = match read_request(&mut stream, deadline) {
        Ok(Some(text)) => (gateway.handle_text(&text), false),
        Ok(None) => return,
        Err(rejection) => (format_response(&rejection), true),
    };
    // A client that will not take its response is not waited for.
    if stream.set_write_timeout(Some(io_timeout)).is_err()
        || stream.write_all(response.as_bytes()).is_err()
    {
        return;
    }
    if drain {
        // The request was refused part-read. Closing over unread bytes
        // resets the connection and can destroy the response in flight,
        // so half-close and discard what the client still sends, within
        // the same deadline.
        let _ = stream.shutdown(Shutdown::Write);
        let mut sink = [0u8; 4096];
        while arm_read_timeout(&stream, deadline) {
            if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
                break;
            }
        }
    }
}

/// Sets the socket's read timeout to what is left until `deadline`;
/// `false` once it has passed.
fn arm_read_timeout(stream: &TcpStream, deadline: Instant) -> bool {
    let left = deadline.saturating_duration_since(Instant::now());
    !left.is_zero() && stream.set_read_timeout(Some(left)).is_ok()
}

/// Reads one request (head, then exactly the declared body) into one
/// buffer. `Ok(None)` means there is nobody to answer: the peer closed
/// before sending a byte (a port probe, or [`ServeHandle::join`]'s wake-up)
/// or the socket failed.
///
/// # Errors
///
/// The structured response refusing the request: 431, 413, 408, 400 or 501.
fn read_request(stream: &mut TcpStream, deadline: Instant) -> Result<Option<String>, HttpResponse> {
    let mut buf = vec![0u8; MAX_HEAD_BYTES];
    let mut len = 0;
    // The head: read until the blank line, which says how long the whole
    // request is.
    let total = loop {
        let scanned = len;
        match read_some(stream, deadline, &mut buf[len..], len == 0)? {
            Some(n) => len += n,
            None => return Ok(None),
        }
        // The blank line may straddle two reads.
        let from = scanned.saturating_sub(3);
        if let Some(blank) = buf[from..len].windows(4).position(|w| w == b"\r\n\r\n") {
            let head = from + blank + 4;
            break head + declared_body_len(&buf[..head])?;
        }
        if len == buf.len() {
            return Err(HttpResponse::structured_error(
                431,
                format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                "head_too_large",
                false,
            ));
        }
    };
    // The body. Bytes past the declared length (a pipelined request) are
    // not served.
    buf.resize(total.max(len), 0);
    while len < total {
        match read_some(stream, deadline, &mut buf[len..total], false)? {
            Some(n) => len += n,
            None => return Ok(None),
        }
    }
    buf.truncate(total);
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| bad_request("request is not valid UTF-8"))
}

/// One read of at least a byte into `into`, inside `deadline`. `Ok(None)`
/// as for [`read_request`]; `first` says no byte has arrived yet.
fn read_some(
    stream: &mut TcpStream,
    deadline: Instant,
    into: &mut [u8],
    first: bool,
) -> Result<Option<usize>, HttpResponse> {
    loop {
        if !arm_read_timeout(stream, deadline) {
            return Err(request_timeout());
        }
        return match stream.read(into) {
            Ok(0) if first => Ok(None),
            Ok(0) => Err(bad_request("connection closed mid-request")),
            Ok(n) => Ok(Some(n)),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err(request_timeout())
            }
            Err(_) => Ok(None),
        };
    }
}

fn bad_request(why: &str) -> HttpResponse {
    HttpResponse::structured_error(400, why, "bad_request", false)
}

fn request_timeout() -> HttpResponse {
    HttpResponse::structured_error(
        408,
        "timed out waiting for the rest of the request",
        "timeout",
        true,
    )
}

/// The body length a request head declares, checked against
/// [`MAX_BODY_BYTES`] before anything is allocated for it.
fn declared_body_len(head: &[u8]) -> Result<usize, HttpResponse> {
    let mut declared = None;
    for line in head.split(|b| *b == b'\n').skip(1) {
        let Some(colon) = line.iter().position(|b| *b == b':') else {
            continue;
        };
        let (name, value) = (line[..colon].trim_ascii(), line[colon + 1..].trim_ascii());
        if name.eq_ignore_ascii_case(b"transfer-encoding") {
            return Err(HttpResponse::structured_error(
                501,
                "Transfer-Encoding is not supported; send Content-Length",
                "not_implemented",
                false,
            ));
        }
        if !name.eq_ignore_ascii_case(b"content-length") {
            continue;
        }
        if declared.is_some() {
            return Err(bad_request("duplicate Content-Length"));
        }
        if value.is_empty() || !value.iter().all(u8::is_ascii_digit) {
            return Err(bad_request("Content-Length is not a non-negative integer"));
        }
        // All digits, so a parse failure is an overflow: too large.
        let value = std::str::from_utf8(value).expect("ASCII digits");
        declared = Some(value.parse().unwrap_or(usize::MAX));
    }
    match declared.unwrap_or(0) {
        n if n > MAX_BODY_BYTES => Err(HttpResponse::structured_error(
            413,
            format!("declared body of {n} bytes exceeds {MAX_BODY_BYTES}"),
            "body_too_large",
            false,
        )),
        n => Ok(n),
    }
}

fn slo_status_json(status: &SloStatus) -> Json {
    let mut o = Json::object();
    o.insert("route", status.spec.route.as_str());
    if let Some(tenant) = &status.spec.tenant {
        o.insert("tenant", tenant.as_str());
    }
    o.insert("latency_ms", status.spec.latency_ms);
    o.insert("objective", status.spec.objective);
    o.insert("fast_good", status.fast_good as i64);
    o.insert("fast_bad", status.fast_bad as i64);
    o.insert("slow_good", status.slow_good as i64);
    o.insert("slow_bad", status.slow_bad as i64);
    o.insert("fast_burn", status.fast_burn);
    o.insert("slow_burn", status.slow_burn);
    o.insert("alerting", status.alerting);
    o.insert("alerts_fired", status.alerts_fired as i64);
    o
}

fn parse_body(body: &str) -> Result<Request, String> {
    let parsed = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let operation = parsed
        .get("operation")
        .and_then(Json::as_str)
        .unwrap_or("invoke")
        .to_string();
    let payload = parsed.get("payload").cloned().unwrap_or(Json::Null);
    let mut request = Request::new(operation, payload);
    if let Some(params) = parsed.get("params").and_then(Json::as_object) {
        for (name, value) in params {
            if let Some(v) = value.as_f64() {
                request = request.with_param(name.clone(), v);
            }
        }
    }
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsdk_sim::latency::LatencyModel;
    use cogsdk_sim::{SimEnv, SimService};

    fn gateway() -> (SimEnv, Arc<HttpGateway>) {
        let env = SimEnv::with_seed(77);
        let sdk = Arc::new(RichSdk::new(&env));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        sdk.register(
            SimService::builder("echo2", "demo")
                .latency(LatencyModel::constant_ms(25.0))
                .build(&env),
        );
        (env, Arc::new(HttpGateway::new(sdk)))
    }

    fn post(path: &str, body: &str) -> String {
        format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn parse_request_round_trip() {
        let req = parse_request(&post("/invoke/echo", "{\"payload\":1}")).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/invoke/echo");
        assert_eq!(req.body, "{\"payload\":1}");
    }

    #[test]
    fn parse_request_rejects_malformed() {
        assert!(parse_request("").is_err());
        assert!(parse_request("GET\r\n\r\n").is_err());
        assert!(parse_request("GET /x SPDY/3\r\n\r\n").is_err());
        assert!(parse_request("GET nopath HTTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn invoke_route_works() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text(&post(
            "/invoke/echo",
            r#"{"operation": "op", "payload": {"x": 1}}"#,
        ));
        assert!(raw.starts_with("HTTP/1.1 200 OK"), "{raw}");
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        let parsed = Json::parse(body).unwrap();
        assert_eq!(parsed.pointer("/payload/x").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn cached_route_reports_hits() {
        let (_env, gw) = gateway();
        let body = r#"{"payload": {"k": "v"}}"#;
        let first = gw.handle_text(&post("/invoke-cached/echo", body));
        let second = gw.handle_text(&post("/invoke-cached/echo", body));
        assert!(first.contains("\"cache_hit\":false"));
        assert!(second.contains("\"cache_hit\":true"));
    }

    #[test]
    fn class_route_selects_and_reports_service() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text(&post("/invoke-class/demo", r#"{"payload": {}}"#));
        assert!(raw.contains("\"service\":"), "{raw}");
        assert!(raw.starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn services_and_monitor_routes() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text("GET /services HTTP/1.1\r\n\r\n");
        assert!(raw.contains("echo2"), "{raw}");
        // Monitor before any call: 404.
        let raw = gw.handle_text("GET /monitor/echo HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 404"));
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        let raw = gw.handle_text("GET /monitor/echo HTTP/1.1\r\n\r\n");
        assert!(raw.contains("\"availability\":1.0"), "{raw}");
    }

    #[test]
    fn error_statuses() {
        let (_env, gw) = gateway();
        assert!(gw
            .handle_text(&post("/invoke/ghost", r#"{"payload": 1}"#))
            .starts_with("HTTP/1.1 404"));
        assert!(gw
            .handle_text(&post("/invoke/echo", "not json"))
            .starts_with("HTTP/1.1 400"));
        assert!(gw
            .handle_text("DELETE /services HTTP/1.1\r\n\r\n")
            .starts_with("HTTP/1.1 405"));
        assert!(gw
            .handle_text("GET /nope HTTP/1.1\r\n\r\n")
            .starts_with("HTTP/1.1 404"));
        assert!(gw.handle_text("garbage").starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn params_flow_through_as_latency_parameters() {
        let (_env, gw) = gateway();
        gw.handle_text(&post(
            "/invoke/echo",
            r#"{"payload": 1, "params": {"size": 512.0}}"#,
        ));
        let history = gw.sdk.monitor().history("echo").unwrap();
        let (xs, _) = history.param_series("size");
        assert_eq!(xs, vec![512.0]);
    }

    #[test]
    fn body_with_crlf_survives_parsing() {
        // Multi-line bodies must be reassembled byte-for-byte.
        let body = "{\"a\":\r\n1}";
        let text = format!(
            "POST /invoke/echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = parse_request(&text).unwrap();
        assert_eq!(req.body, body);
    }

    #[test]
    fn format_response_reports_content_length() {
        let resp = HttpResponse {
            status: 200,
            body: "{\"x\":1}".into(),
            content_type: "application/json",
            retry_after: None,
        };
        let text = format_response(&resp);
        assert!(text.contains("Content-Length: 7"));
        assert!(text.contains("Content-Type: application/json"));
        assert!(text.ends_with("{\"x\":1}"));
        let unknown = HttpResponse {
            status: 418,
            body: String::new(),
            content_type: "text/plain",
            retry_after: None,
        };
        assert!(format_response(&unknown).starts_with("HTTP/1.1 418 Unknown"));
    }

    #[test]
    fn format_response_emits_retry_after_header() {
        let resp = HttpResponse::structured_error(503, "shed", "shed", true).with_retry_after(7);
        let text = format_response(&resp);
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 7\r\n"), "{text}");
    }

    fn telemetry_gateway() -> (SimEnv, Arc<HttpGateway>) {
        let env = SimEnv::with_seed(78);
        let sdk = Arc::new(RichSdk::with_telemetry(&env, cogsdk_obs::Telemetry::new()));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        sdk.register(
            SimService::builder("flaky", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .failures(cogsdk_sim::failure::FailurePlan::flaky(1.0))
                .build(&env),
        );
        (env, Arc::new(HttpGateway::new(sdk)))
    }

    #[test]
    fn metrics_route_exposes_prometheus_text() {
        let (_env, gw) = telemetry_gateway();
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        // Inject failures so the error-kind breakdown has data.
        for _ in 0..2 {
            gw.handle_text(&post("/invoke/flaky", r#"{"payload": 1}"#));
        }
        let raw = gw.handle_text("GET /metrics HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(raw.contains("Content-Type: text/plain"), "{raw}");
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("# TYPE sdk_attempts_total counter"), "{body}");
        assert!(
            body.contains(r#"sdk_attempts_total{outcome="ok",service="echo"} 1"#),
            "{body}"
        );
        assert!(body.contains("sdk_errors_total{kind="), "{body}");
        assert!(body.contains("sdk_attempt_latency_ms_bucket"), "{body}");
        // The gateway counts its own requests too.
        assert!(
            body.contains(r#"gateway_requests_total{route="invoke""#),
            "{body}"
        );
    }

    #[test]
    fn trace_route_streams_jsonl_events() {
        let (_env, gw) = telemetry_gateway();
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        let raw = gw.handle_text("GET /trace HTTP/1.1\r\n\r\n");
        assert!(raw.contains("Content-Type: application/x-ndjson"), "{raw}");
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
        assert!(lines.len() >= 3, "{body}"); // invoke_start, attempt, invoke_end
        for line in &lines {
            Json::parse(line).expect("each trace line is standalone JSON");
        }
        assert!(body.contains("\"event\":\"invoke_start\""), "{body}");
        assert!(body.contains("\"event\":\"attempt\""), "{body}");
    }

    #[test]
    fn metrics_route_on_untelemetered_sdk_is_empty_but_ok() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text("GET /metrics HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    }

    #[test]
    fn invoke_class_empty_class_is_404() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text(&post("/invoke-class/ghost-class", r#"{"payload": 1}"#));
        assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
    }

    #[test]
    fn structured_error_bodies_carry_kind_and_retryable() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text(&post("/invoke/ghost", r#"{"payload": 1}"#));
        assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
        assert!(raw.contains("\"kind\":\"unknown_service\""), "{raw}");
        assert!(raw.contains("\"retryable\":false"), "{raw}");
        let (_env, gw) = telemetry_gateway();
        let raw = gw.handle_text(&post("/invoke/flaky", r#"{"payload": 1}"#));
        assert!(raw.starts_with("HTTP/1.1 502"), "{raw}");
        assert!(raw.contains("\"kind\":\"all_failed\""), "{raw}");
        assert!(raw.contains("\"retryable\":true"), "{raw}");
    }

    #[test]
    fn saturated_route_sheds_with_retry_after_and_metrics() {
        let env = SimEnv::with_seed(79);
        let sdk = Arc::new(RichSdk::with_telemetry(&env, cogsdk_obs::Telemetry::new()));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        let limits = GatewayLimits {
            max_concurrent: 0, // route fully saturated: every request sheds
            max_queue: 0,
            max_queue_wait: Duration::from_millis(1),
            retry_after_secs: 2,
        };
        let gw = HttpGateway::with_limits(sdk, limits);
        let raw = gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        assert!(raw.starts_with("HTTP/1.1 503 Service Unavailable"), "{raw}");
        assert!(raw.contains("Retry-After: 2\r\n"), "{raw}");
        assert!(raw.contains("\"kind\":\"shed\""), "{raw}");
        assert!(raw.contains("\"retryable\":true"), "{raw}");
        // Read-only routes stay reachable during overload, so operators
        // can still observe the shedding they are debugging.
        let metrics = gw.handle_text("GET /metrics HTTP/1.1\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(
            metrics.contains(r#"gateway_shed_total{route="invoke"} 1"#),
            "{metrics}"
        );
        assert!(
            metrics.contains(r#"gateway_requests_total{route="invoke",status="503"} 1"#),
            "{metrics}"
        );
        let trace = gw.handle_text("GET /trace HTTP/1.1\r\n\r\n");
        assert!(trace.contains("\"event\":\"gateway_shed\""), "{trace}");
    }

    #[test]
    fn queued_request_waits_then_sheds() {
        let env = SimEnv::with_seed(80);
        let sdk = Arc::new(RichSdk::new(&env));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        let limits = GatewayLimits {
            max_concurrent: 0,
            max_queue: 4, // admitted to the queue, but no slot ever frees
            max_queue_wait: Duration::from_millis(5),
            retry_after_secs: 1,
        };
        let gw = HttpGateway::with_limits(sdk, limits);
        let started = std::time::Instant::now();
        let raw = gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
        assert!(started.elapsed() >= Duration::from_millis(5));
    }

    fn post_as_tenant(path: &str, tenant: &str, body: &str) -> String {
        format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nX-Tenant: {tenant}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn parse_request_splits_query_and_captures_tenant() {
        let req = parse_request(
            "GET /trace?trace_id=7&format=flamegraph HTTP/1.1\r\nX-Tenant: acme\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.path, "/trace");
        assert_eq!(req.query_param("trace_id"), Some("7"));
        assert_eq!(req.query_param("format"), Some("flamegraph"));
        assert_eq!(req.tenant.as_deref(), Some("acme"));
        // No query, no tenant: fields stay empty.
        let bare = parse_request("GET /trace HTTP/1.1\r\n\r\n").unwrap();
        assert!(bare.query.is_empty());
        assert_eq!(bare.tenant, None);
    }

    #[test]
    fn tenant_header_threads_per_tenant_series_through_the_stack() {
        let (_env, gw) = telemetry_gateway();
        gw.handle_text(&post_as_tenant("/invoke/echo", "acme", r#"{"payload": 1}"#));
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 2}"#));
        let raw = gw.handle_text("GET /metrics HTTP/1.1\r\n\r\n");
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        // SDK-level RED picks up the tenant...
        assert!(
            body.contains(r#"sdk_attempts_total{outcome="ok",service="echo",tenant="acme"} 1"#),
            "{body}"
        );
        // ...while untenanted traffic keeps its original series.
        assert!(
            body.contains(r#"sdk_attempts_total{outcome="ok",service="echo"} 1"#),
            "{body}"
        );
        // Gateway-level RED: request counts and a latency histogram with
        // per-tenant series.
        assert!(
            body.contains(
                r#"gateway_route_requests_total{route="invoke",status="200",tenant="acme"} 1"#
            ),
            "{body}"
        );
        assert!(
            body.contains(r#"gateway_route_latency_ms_bucket{route="invoke",tenant="acme""#),
            "{body}"
        );
    }

    #[test]
    fn slo_route_serves_objective_status() {
        let env = SimEnv::with_seed(81);
        let telemetry = cogsdk_obs::Telemetry::new();
        let sdk = Arc::new(RichSdk::with_telemetry(&env, telemetry.clone()));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        let engine = Arc::new(cogsdk_obs::SloEngine::new(
            telemetry,
            cogsdk_obs::SloConfig::default(),
        ));
        engine.add_objective(cogsdk_obs::SloSpec::new("invoke", 100.0, 0.99));
        let gw = HttpGateway::with_observability(sdk, GatewayLimits::default(), engine);
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        let raw = gw.handle_text("GET /slo HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let body = Json::parse(raw.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        assert_eq!(
            body.pointer("/objectives/0/route").and_then(Json::as_str),
            Some("invoke")
        );
        assert_eq!(
            body.pointer("/objectives/0/alerting")
                .and_then(Json::as_bool),
            Some(false)
        );
        // Without an engine the route 404s instead of lying.
        let (_env2, plain) = telemetry_gateway();
        assert!(plain
            .handle_text("GET /slo HTTP/1.1\r\n\r\n")
            .starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn profile_and_filtered_trace_serve_retained_traces() {
        let env = SimEnv::with_seed(82);
        let telemetry = cogsdk_obs::Telemetry::new();
        telemetry.enable_tail_sampling(cogsdk_obs::SamplerConfig {
            healthy_sample_rate: 1.0,
            ..cogsdk_obs::SamplerConfig::default()
        });
        let sdk = Arc::new(RichSdk::with_telemetry(&env, telemetry.clone()));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        let gw = HttpGateway::new(sdk);
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        let raw = gw.handle_text("GET /profile HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let body = Json::parse(raw.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        assert_eq!(body.pointer("/traces").and_then(Json::as_i64), Some(1));
        assert!(
            body.pointer("/ops/0/op")
                .and_then(Json::as_str)
                .unwrap_or("")
                .starts_with("invoke:"),
            "{body:?}"
        );
        // Flamegraph rendering of the same data.
        let flame = gw.handle_text("GET /profile?format=flamegraph HTTP/1.1\r\n\r\n");
        assert!(flame.contains("invoke:"), "{flame}");
        // Filtered trace dump: only the requested trace, plus a summary.
        let retained = gw.sdk.telemetry().sampler().unwrap().retained();
        let id = retained[0].trace;
        let raw = gw.handle_text(&format!("GET /trace?trace_id={} HTTP/1.1\r\n\r\n", id.0));
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        for line in body.lines().filter(|l| !l.is_empty()) {
            let parsed = Json::parse(line).unwrap();
            if parsed.get("summary").is_none() {
                assert_eq!(
                    parsed.pointer("/trace").and_then(Json::as_i64),
                    Some(id.0 as i64),
                    "{line}"
                );
            }
        }
        assert!(body.contains("\"summary\":true"), "{body}");
        // Nonsense ids and profile sizes are a client error.
        assert!(gw
            .handle_text("GET /trace?trace_id=xyz HTTP/1.1\r\n\r\n")
            .starts_with("HTTP/1.1 400"));
        for top in ["abc", "-1", "2.5", ""] {
            let raw = gw.handle_text(&format!("GET /profile?top={top} HTTP/1.1\r\n\r\n"));
            assert!(raw.starts_with("HTTP/1.1 400"), "top={top}: {raw}");
            assert!(raw.contains(&format!("bad top: {top}")), "top={top}: {raw}");
        }
    }

    #[test]
    fn real_tcp_round_trip() {
        let (_env, gw) = gateway();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) = gw.clone().serve("127.0.0.1:0", shutdown.clone()).unwrap();
        // A real cross-language-style client: plain TCP.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let body = r#"{"operation": "op", "payload": {"over": "tcp"}}"#;
        stream
            .write_all(post("/invoke/echo", body).as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"over\":\"tcp\""));
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    /// Connects, sends `bytes`, keeps the connection open and returns
    /// whatever the server answers before it closes.
    fn send_and_stall(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(bytes).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn stalled_requests_are_answered_408_at_the_timeout() {
        let (_env, gw) = gateway();
        let timeout = Duration::from_millis(100);
        let (addr, handle) = gw
            .serve_with_timeout("127.0.0.1:0", Arc::default(), timeout)
            .unwrap();
        let stalls: [(&str, &[u8]); 4] = [
            ("says nothing", b""),
            (
                "stops inside the head",
                b"POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Le",
            ),
            (
                "never sends the blank line",
                b"GET /services HTTP/1.1\r\nHost: x\r\n",
            ),
            (
                "declares more body than it sends",
                b"POST /invoke/echo HTTP/1.1\r\nContent-Length: 4096\r\n\r\n{\"payload\":",
            ),
        ];
        for (what, bytes) in stalls {
            let started = Instant::now();
            let response = send_and_stall(addr, bytes);
            let took = started.elapsed();
            assert!(
                response.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
                "{what}: {response}"
            );
            assert!(
                response.contains("\"kind\":\"timeout\""),
                "{what}: {response}"
            );
            assert!(
                response.contains("\"retryable\":true"),
                "{what}: {response}"
            );
            assert!(took >= timeout && took < timeout * 5, "{what}: {took:?}");
            // The stall cost one timeout, not the server.
            let next = send_and_stall(addr, post("/invoke/echo", r#"{"payload": 1}"#).as_bytes());
            assert!(next.starts_with("HTTP/1.1 200 OK"), "after {what}: {next}");
        }
        handle.join().unwrap();
    }

    #[test]
    fn dripped_request_is_cut_off_at_the_deadline_not_per_read() {
        let (_env, gw) = gateway();
        let timeout = Duration::from_millis(150);
        let (addr, handle) = gw
            .serve_with_timeout("127.0.0.1:0", Arc::default(), timeout)
            .unwrap();
        // One byte every 20 ms never lets a single read time out.
        let mut stream = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        for byte in b"GET /services HTTP/1.1\r\nHost: a-very-slow-loris\r\n" {
            if stream.write_all(&[*byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
        assert!(started.elapsed() < Duration::from_secs(2));
        handle.join().unwrap();
    }

    #[test]
    fn join_waits_at_most_the_timeout_for_a_silent_client() {
        let (_env, gw) = gateway();
        let timeout = Duration::from_millis(200);
        let (addr, handle) = gw
            .serve_with_timeout("127.0.0.1:0", Arc::default(), timeout)
            .unwrap();
        let mut silent = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        handle.join().unwrap();
        let took = started.elapsed();
        assert!(took < timeout + Duration::from_millis(150), "{took:?}");
        // It was the silent client the server sat out before stopping.
        let mut response = String::new();
        silent.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
    }

    #[test]
    fn panicking_handler_costs_one_500_and_frees_its_slot() {
        let env = SimEnv::with_seed(83);
        let sdk = Arc::new(RichSdk::with_telemetry(&env, cogsdk_obs::Telemetry::new()));
        let mut gw = HttpGateway::new(sdk);
        gw.set_query_handler(Box::new(|req| match req.body.as_str() {
            "boom" => panic!("handler bug (expected by this test)"),
            _ => Ok(json!({"ok": true}).into()),
        }));
        let raw = gw.handle_text(&post("/query", "boom"));
        assert!(
            raw.starts_with("HTTP/1.1 500 Internal Server Error"),
            "{raw}"
        );
        assert!(raw.contains("\"kind\":\"internal\""), "{raw}");
        assert!(raw.contains("\"retryable\":false"), "{raw}");
        let raw = gw.handle_text(&post("/query", "fine"));
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let metrics = gw.handle_text("GET /metrics HTTP/1.1\r\n\r\n");
        assert!(
            metrics.contains(r#"gateway_requests_total{route="query",status="500"} 1"#),
            "{metrics}"
        );
    }

    #[test]
    fn declared_body_len_checks_before_allocating() {
        let head = |headers: &str| format!("POST /x HTTP/1.1\r\n{headers}\r\n");
        let status =
            |headers: &str| declared_body_len(head(headers).as_bytes()).map_err(|r| r.status);
        assert_eq!(status(""), Ok(0));
        assert_eq!(status("content-LENGTH:  42 \r\n"), Ok(42));
        assert_eq!(
            status(&format!("Content-Length: {MAX_BODY_BYTES}\r\n")),
            Ok(MAX_BODY_BYTES)
        );
        assert_eq!(
            status(&format!("Content-Length: {}\r\n", MAX_BODY_BYTES + 1)),
            Err(413)
        );
        assert_eq!(status("Content-Length: 18446744073709551615\r\n"), Err(413));
        assert_eq!(
            status("Content-Length: 99999999999999999999999999\r\n"),
            Err(413)
        );
        assert_eq!(status("Content-Length: -1\r\n"), Err(400));
        assert_eq!(status("Content-Length: +1\r\n"), Err(400));
        assert_eq!(status("Content-Length: 1e3\r\n"), Err(400));
        assert_eq!(status("Content-Length:\r\n"), Err(400));
        assert_eq!(
            status("Content-Length: 1\r\nContent-Length: 1\r\n"),
            Err(400)
        );
        assert_eq!(status("Transfer-Encoding: chunked\r\n"), Err(501));
        // A request line with a colon is not a header.
        assert_eq!(
            declared_body_len(b"GET /content-length:9 HTTP/1.1\r\n\r\n").map_err(|r| r.status),
            Ok(0)
        );
    }

    #[test]
    fn an_unmounted_host_path_answers_404() {
        let (_env, gw) = gateway();
        for path in ["/snapshot", "/query", "/ingest/bulk"] {
            let raw = gw.handle_text(&post(path, r#"{"sparql": "SELECT ..."}"#));
            assert!(raw.starts_with("HTTP/1.1 404"), "{path}: {raw}");
            assert!(
                raw.contains(r#"{"error":"no such route"}"#),
                "{path}: {raw}"
            );
        }
    }

    #[test]
    fn snapshot_route_runs_the_mounted_handler() {
        let env = SimEnv::with_seed(81);
        let sdk = Arc::new(RichSdk::new(&env));
        let mut gw = HttpGateway::new(sdk);
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = calls.clone();
        gw.mount(
            "POST",
            "/snapshot",
            Box::new(move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
                Ok(json!({"bytes": 123, "ok": true}).into())
            }),
        );
        let raw = gw.handle_text(&post("/snapshot", ""));
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let body = Json::parse(raw.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        assert_eq!(body.pointer("/bytes").and_then(Json::as_i64), Some(123));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // Mounting the same route again replaces its handler; a store
        // failure is the handler's own 500.
        gw.mount(
            "POST",
            "/snapshot",
            Box::new(|_| Err(RouteError::server("snapshot failed: disk full"))),
        );
        let raw = gw.handle_text(&post("/snapshot", ""));
        assert!(raw.starts_with("HTTP/1.1 500"), "{raw}");
        assert!(
            raw.ends_with(r#"{"error":"snapshot failed: disk full"}"#),
            "{raw}"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_route_error_is_answered_with_its_own_status() {
        let env = SimEnv::with_seed(84);
        let sdk = Arc::new(RichSdk::new(&env));
        let mut gw = HttpGateway::new(sdk);
        gw.mount(
            "POST",
            "/ingest/bulk",
            Box::new(|req| match req.body.as_str() {
                "bad" => Err("'documents' entries must be strings".into()),
                "broken" => Err(RouteError::server("ingest failed: disk full")),
                "busy" => Err(RouteError {
                    status: 503,
                    message: "loader busy".to_string(),
                }),
                _ => Ok(json!({"documents": 1}).into()),
            }),
        );
        for (body, status, message) in [
            (
                "bad",
                "400 Bad Request",
                "'documents' entries must be strings",
            ),
            (
                "broken",
                "500 Internal Server Error",
                "ingest failed: disk full",
            ),
            ("busy", "503 Service Unavailable", "loader busy"),
            ("fine", "200 OK", ""),
        ] {
            let raw = gw.handle_text(&post("/ingest/bulk", body));
            assert!(raw.starts_with(&format!("HTTP/1.1 {status}\r\n")), "{raw}");
            let served = raw.split("\r\n\r\n").nth(1).unwrap();
            let expected = match message {
                "" => r#"{"documents":1}"#.to_string(),
                message => json!({"error": message}).to_json(),
            };
            assert_eq!(served, expected);
        }
        // Segments, not the raw path, pick the route; other methods on it
        // stay unmounted.
        let raw = gw.handle_text(&post("/ingest//bulk/", "fine"));
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let raw = gw.handle_text("GET /ingest/bulk HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
    }

    #[test]
    fn query_route_runs_the_attached_handler() {
        let env = SimEnv::with_seed(82);
        let sdk = Arc::new(RichSdk::new(&env));
        let mut gw = HttpGateway::new(sdk);
        // The handler sees the parsed request: body and tenant header.
        gw.set_query_handler(Box::new(move |req| {
            let body = Json::parse(&req.body).map_err(|e| e.to_string())?;
            let sparql = body
                .get("sparql")
                .and_then(Json::as_str)
                .ok_or("missing sparql")?;
            Ok(json!({
                "echo": (sparql),
                "tenant": (req.tenant.clone().unwrap_or_default()),
            })
            .into())
        }));
        let raw = gw.handle_text(&post_as_tenant(
            "/query",
            "acme",
            r#"{"sparql": "SELECT ?x WHERE { ?x <p> ?y }"}"#,
        ));
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let body = Json::parse(raw.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        assert_eq!(
            body.pointer("/echo").and_then(Json::as_str),
            Some("SELECT ?x WHERE { ?x <p> ?y }")
        );
        assert_eq!(body.pointer("/tenant").and_then(Json::as_str), Some("acme"));
        // Handler errors (bad bodies, parse failures) answer 400.
        let raw = gw.handle_text(&post("/query", "not json"));
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    }
}
