//! The rich SDK's HTTP interface (§2): "the rich SDK can expose an HTTP
//! interface allowing applications written in other languages to use it."
//! Starts a real TCP gateway over the SDK and exercises it with a plain
//! socket client, the way a Python or Node program would.
//!
//! Run with: `cargo run --example http_gateway`

use cogsdk::obs::Telemetry;
use cogsdk::sdk::gateway::HttpGateway;
use cogsdk::sdk::RichSdk;
use cogsdk::sim::latency::LatencyModel;
use cogsdk::sim::{SimEnv, SimService};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn http(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("gateway reachable");
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn main() {
    let env = SimEnv::with_seed(42);
    let sdk = Arc::new(RichSdk::with_telemetry(&env, Telemetry::new()));
    sdk.register(
        SimService::builder("translator", "nlu")
            .latency(LatencyModel::lognormal_ms(30.0, 0.3))
            .build(&env),
    );
    sdk.register(
        SimService::builder("translator-b", "nlu")
            .latency(LatencyModel::lognormal_ms(90.0, 0.3))
            .build(&env),
    );

    let gateway = Arc::new(HttpGateway::new(sdk));
    let shutdown = Arc::new(AtomicBool::new(false));
    let (addr, handle) = gateway.serve("127.0.0.1:0", shutdown.clone()).unwrap();
    println!("gateway listening on http://{addr}\n");

    // 1. Discover services (GET /services).
    let resp = http(addr, "GET /services HTTP/1.1\r\nHost: x\r\n\r\n");
    println!(
        "GET /services\n  -> {}\n",
        resp.lines().last().unwrap_or("")
    );

    // 2. Invoke by name (POST /invoke/{service}).
    let resp = http(
        addr,
        &post(
            "/invoke/translator",
            r#"{"operation": "translate", "payload": {"text": "hello"}}"#,
        ),
    );
    println!(
        "POST /invoke/translator\n  -> {}\n",
        resp.lines().last().unwrap_or("")
    );

    // 3. Cached invocation: the second call reports cache_hit=true.
    let body = r#"{"payload": {"text": "cached?"}}"#;
    http(addr, &post("/invoke-cached/translator", body));
    let resp = http(addr, &post("/invoke-cached/translator", body));
    println!(
        "POST /invoke-cached/translator (repeat)\n  -> {}\n",
        resp.lines().last().unwrap_or("")
    );

    // 4. Class invocation with ranked selection.
    let resp = http(
        addr,
        &post(
            "/invoke-class/nlu",
            r#"{"payload": {"text": "pick for me"}}"#,
        ),
    );
    println!(
        "POST /invoke-class/nlu\n  -> {}\n",
        resp.lines().last().unwrap_or("")
    );

    // 5. Monitoring over HTTP.
    let resp = http(addr, "GET /monitor/translator HTTP/1.1\r\nHost: x\r\n\r\n");
    println!(
        "GET /monitor/translator\n  -> {}\n",
        resp.lines().last().unwrap_or("")
    );

    // 6. Errors map to proper status codes.
    let resp = http(addr, &post("/invoke/ghost", r#"{"payload": 1}"#));
    println!(
        "POST /invoke/ghost\n  -> {}\n",
        resp.lines().next().unwrap_or("")
    );

    // 7. Prometheus scrape: everything the calls above did — attempts,
    // cache hits/misses, pool jobs, per-route gateway counters — is
    // sitting in /metrics ready for a real scraper.
    let resp = http(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    let metrics_body = resp.split("\r\n\r\n").nth(1).unwrap_or("");
    println!("GET /metrics (scrape excerpt)");
    for line in metrics_body
        .lines()
        .filter(|l| {
            l.starts_with("sdk_attempts_total")
                || l.starts_with("cache_requests_total")
                || l.starts_with("gateway_requests_total")
        })
        .take(8)
    {
        println!("  {line}");
    }

    // 8. A request the server must refuse before reading it: the declared
    // body is over the 16 MiB cap, so it answers 413 without allocating.
    let resp = http(
        addr,
        "POST /invoke/translator HTTP/1.1\r\nContent-Length: 9223372036854775808\r\n\r\n",
    );
    println!(
        "\nPOST /invoke/translator, Content-Length: 2^63\n  -> {}\n  -> {}",
        resp.lines().next().unwrap_or(""),
        resp.lines().last().unwrap_or("")
    );

    // The serving thread blocks in accept(); `join` sets the flag, wakes it
    // with one empty loopback connection and waits for it to finish.
    shutdown.store(true, Ordering::SeqCst);
    handle.join().unwrap();
    println!("\ngateway shut down cleanly");
}
