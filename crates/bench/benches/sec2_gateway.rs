//! E16 (§2, HTTP interface): overhead of exposing the rich SDK over HTTP
//! — parse/route/serialize cost and a real TCP round trip, compared
//! against the in-process call the gateway wraps.
//!
//! Paper-predicted shape: the HTTP layer adds protocol-parsing overhead
//! (microseconds) and, over real sockets, kernel round-trip time — small
//! next to remote-service latencies, which is why exposing the SDK this
//! way is viable for "applications written in other languages".

use cogsdk_bench::BENCH_SEED;
use cogsdk_core::gateway::{parse_request, HttpGateway};
use cogsdk_core::RichSdk;
use cogsdk_json::json;
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::{Request, SimEnv, SimService};
use criterion::{criterion_group, criterion_main, Criterion};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn gateway() -> (SimEnv, Arc<HttpGateway>) {
    let env = SimEnv::with_seed(BENCH_SEED);
    let sdk = Arc::new(RichSdk::new(&env));
    sdk.register(
        SimService::builder("echo", "demo")
            .latency(LatencyModel::constant_ms(5.0))
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

fn report_series() {
    let (_env, gw) = gateway();
    let raw = post(
        "/invoke/echo",
        r#"{"operation": "op", "payload": {"x": 1}}"#,
    );

    // In-process vs through-the-text-layer (same SDK call underneath).
    let iterations = 5_000;
    let t0 = std::time::Instant::now();
    for _ in 0..iterations {
        gw.handle_text(&raw);
    }
    let text_layer = t0.elapsed() / iterations;
    println!("[sec2_gateway] handle_text (parse+route+serialize): {text_layer:?}/req");

    // Real TCP round trip against the blocking accept loop, one connection
    // per request. The gated number for this path is `invoke_hot` in
    // `e2e/` (BENCHMARK.json); this prints the same quantity for the series.
    let shutdown = Arc::new(AtomicBool::new(false));
    let (addr, handle) = gw.clone().serve("127.0.0.1:0", shutdown.clone()).unwrap();
    let rtts = 200;
    let t0 = std::time::Instant::now();
    for _ in 0..rtts {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 200"));
    }
    let tcp = t0.elapsed() / rtts;
    println!("[sec2_gateway] full TCP round trip (connect+req+resp): {tcp:?}/req");
    shutdown.store(true, Ordering::SeqCst);
    handle.join().unwrap();
    println!(
        "[sec2_gateway] shape: protocol overhead is µs-scale — negligible against \
         the tens-of-ms modeled remote-service latencies it fronts."
    );
}

fn bench(c: &mut Criterion) {
    report_series();
    let (_env, gw) = gateway();
    let raw = post(
        "/invoke/echo",
        r#"{"operation": "op", "payload": {"x": 1}}"#,
    );
    c.bench_function("gateway_handle_text", |b| {
        b.iter(|| gw.handle_text(std::hint::black_box(&raw)))
    });
    c.bench_function("gateway_parse_only", |b| {
        b.iter(|| parse_request(std::hint::black_box(&raw)).unwrap())
    });
    // The same operation without the HTTP layer, for the delta.
    let env = SimEnv::with_seed(BENCH_SEED);
    let sdk = RichSdk::new(&env);
    sdk.register(
        SimService::builder("echo", "demo")
            .latency(LatencyModel::constant_ms(5.0))
            .build(&env),
    );
    let req = Request::new("op", json!({"x": 1}));
    c.bench_function("gateway_baseline_direct_invoke", |b| {
        b.iter(|| sdk.invoke("echo", std::hint::black_box(&req)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    targets = bench
}
criterion_main!(benches);
