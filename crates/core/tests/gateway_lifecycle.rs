//! Start/stop behaviour of `HttpGateway::serve` and `ServeHandle::join`.
//!
//! One `#[test]` runs the steps in sequence, because the last one counts
//! this process's threads and the harness starts a thread per test.

use cogsdk_core::gateway::HttpGateway;
use cogsdk_core::RichSdk;
use cogsdk_json::json;
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::{SimEnv, SimService};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sdk(env: &SimEnv) -> Arc<RichSdk> {
    let sdk = Arc::new(RichSdk::new(env));
    sdk.register(
        SimService::builder("echo", "demo")
            .latency(LatencyModel::constant_ms(5.0))
            .build(env),
    );
    sdk
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads line")
}

/// An idle server is blocked in `accept()`; `join` must wake it itself
/// and not wait for the next client.
fn join_on_an_idle_server_is_prompt(gateway: &Arc<HttpGateway>) {
    let (_addr, handle) = gateway
        .clone()
        .serve("127.0.0.1:0", Arc::default())
        .unwrap();
    let started = Instant::now();
    handle.join().unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "idle join took {took:?}");
    // The serving thread's clone is gone once `join` returns, so a host
    // can drop the gateway and reopen what it held straight away.
    assert_eq!(Arc::strong_count(gateway), 1);
}

/// `join` called while a request is being handled: the request still gets
/// its whole response.
fn request_in_flight_at_join_is_answered(env: &SimEnv) {
    let (entered_tx, entered) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let released = std::sync::Mutex::new(released);
    let mut gateway = HttpGateway::new(sdk(env));
    gateway.set_query_handler(Box::new(move |_| {
        entered_tx.send(()).expect("test is listening");
        released
            .lock()
            .expect("single caller")
            .recv()
            .expect("test releases");
        Ok(json!({"rows": ("r".repeat(10_000))}).into())
    }));
    let gateway = Arc::new(gateway);
    let shutdown = Arc::new(AtomicBool::new(false));
    let (addr, handle) = gateway
        .clone()
        .serve("127.0.0.1:0", shutdown.clone())
        .unwrap();
    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.write_all(post("/query", "{}").as_bytes()).unwrap();
    entered.recv().expect("handler entered");
    let joiner = std::thread::spawn(move || handle.join());
    // `join` sets the flag before it wakes and waits, so once the flag is
    // up the shutdown is racing a request that is still in the handler.
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    release.send(()).unwrap();
    let mut response = String::new();
    client.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(
        response.contains(&format!("Content-Length: {}\r\n", body.len())),
        "{response}"
    );
    assert!(body.len() > 10_000, "{} body bytes", body.len());
    joiner.join().expect("joiner").expect("serving thread");
    assert_eq!(Arc::strong_count(&gateway), 1);
}

/// The flag set by hand and then `join`, as callers that share the flag
/// with other threads do; and repeated start/stop leaks no thread.
fn serve_join_cycles_leak_no_threads(gateway: &Arc<HttpGateway>) {
    let before = threads();
    for cycle in 0..200 {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) = gateway
            .clone()
            .serve("127.0.0.1:0", shutdown.clone())
            .unwrap();
        if cycle % 20 == 0 {
            let mut client = TcpStream::connect(addr).unwrap();
            client
                .write_all(post("/invoke/echo", r#"{"payload": 1}"#).as_bytes())
                .unwrap();
            let mut response = String::new();
            client.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        }
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }
    // `pthread_join` can return a moment before the kernel drops the
    // exited task from the count.
    let settle = Instant::now();
    while threads() != before && settle.elapsed() < Duration::from_secs(1) {
        std::thread::yield_now();
    }
    assert_eq!(threads(), before, "threads after 200 serve/join cycles");
    assert_eq!(Arc::strong_count(gateway), 1);
}

#[test]
fn serve_join_lifecycle() {
    let env = SimEnv::with_seed(91);
    let gateway = Arc::new(HttpGateway::new(sdk(&env)));
    join_on_an_idle_server_is_prompt(&gateway);
    request_in_flight_at_join_is_answered(&env);
    serve_join_cycles_leak_no_threads(&gateway);
}
