//! Seeded malformed-request corpus against `HttpGateway::serve` on a real
//! loopback socket.
//!
//! Every case must end in a well-formed response or a clean close — never
//! a panic, a hang or an allocation sized by the client — and the *next*
//! well-formed request on a fresh connection must be answered 200. No case
//! here waits on the server's request timeout (clients that stall with the
//! connection open are in `gateway.rs`'s unit tests, which can shorten it),
//! so a whole corpus finishing well inside that timeout is itself the
//! "no hang" assertion. The seed is in every failure message.

use cogsdk_core::gateway::HttpGateway;
use cogsdk_core::RichSdk;
use cogsdk_json::{json, Json};
use cogsdk_obs::Telemetry;
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::rng::Rng;
use cogsdk_sim::{SimEnv, SimService};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the client does after sending its bytes.
#[derive(Clone, Copy, Debug)]
enum After {
    /// Keeps its write side open and reads to EOF.
    Read,
    /// Half-closes (the request is all the server will ever get), then
    /// reads to EOF.
    HalfCloseThenRead,
    /// Never reads; holds the connection briefly and drops it.
    WalkAway,
}

struct Case {
    name: String,
    bytes: Vec<u8>,
    after: After,
    /// Acceptable statuses; `None` in the list accepts a close with no
    /// response.
    expect: Vec<Option<u16>>,
}

fn case(name: impl Into<String>, bytes: impl Into<Vec<u8>>, after: After, expect: &[u16]) -> Case {
    Case {
        name: name.into(),
        bytes: bytes.into(),
        after,
        expect: expect.iter().map(|s| Some(*s)).collect(),
    }
}

fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: hostile\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

fn with_headers(headers: &str, body: &str) -> Vec<u8> {
    format!("POST /invoke/echo HTTP/1.1\r\nHost: hostile\r\n{headers}\r\n{body}").into_bytes()
}

const GOOD_BODY: &[u8] = br#"{"operation": "op", "payload": {"n": 1}}"#;

fn corpus(rng: &mut Rng) -> Vec<Case> {
    let good = post("/invoke/echo", GOOD_BODY);
    let head_len = good.len() - GOOD_BODY.len();
    let mut cases = Vec::new();

    // Truncated heads: a good request cut somewhere before its blank line.
    for _ in 0..4 {
        let cut = 1 + rng.below(head_len as u64 - 2) as usize;
        cases.push(case(
            format!("head truncated at byte {cut}"),
            &good[..cut],
            After::HalfCloseThenRead,
            &[400],
        ));
    }
    cases.push(case(
        "no blank line",
        "GET /services HTTP/1.1\r\nHost: hostile\r\n",
        After::HalfCloseThenRead,
        &[400],
    ));
    // Body shorter than declared.
    let sent = rng.below(GOOD_BODY.len() as u64) as usize;
    cases.push(case(
        format!("{sent} of {} declared body bytes", GOOD_BODY.len()),
        &good[..head_len + sent],
        After::HalfCloseThenRead,
        &[400],
    ));
    // Declared sizes nobody could mean, refused before any allocation.
    for declared in [
        u64::MAX.to_string(),
        (usize::MAX / 2).to_string(),
        (1u64 << 63).to_string(),
        "99999999999999999999999999999".to_string(),
        (16 * 1024 * 1024 + 1 + rng.below(1 << 20)).to_string(),
    ] {
        cases.push(case(
            format!("Content-Length: {declared}"),
            with_headers(&format!("Content-Length: {declared}\r\n"), "{}"),
            After::Read,
            &[413],
        ));
    }
    for bad in ["-1", "+5", "abc", "", "1 2", "0x10"] {
        cases.push(case(
            format!("Content-Length: {bad:?}"),
            with_headers(&format!("Content-Length: {bad}\r\n"), "{}"),
            After::Read,
            &[400],
        ));
    }
    cases.push(case(
        "duplicate Content-Length",
        with_headers("Content-Length: 2\r\nContent-Length: 2\r\n", "{}"),
        After::Read,
        &[400],
    ));
    cases.push(case(
        "chunked encoding",
        with_headers("Transfer-Encoding: chunked\r\n", "2\r\n{}\r\n0\r\n\r\n"),
        After::Read,
        &[501],
    ));
    // One header line far past the head cap; the server answers after
    // 16 KiB and must survive the rest arriving.
    let filler = "a".repeat((1 << 20) + rng.below(4096) as usize);
    cases.push(case(
        "1 MiB header line",
        with_headers(&format!("X-Filler: {filler}\r\n"), ""),
        After::Read,
        &[431],
    ));
    cases.push(case(
        "head with no line breaks at all",
        "G".repeat(20_000 + rng.below(20_000) as usize),
        After::Read,
        &[431],
    ));
    // Bodies that reach the handlers.
    let depth = 300 + rng.below(5_000) as usize;
    let nested = format!(
        r#"{{"payload": {}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    cases.push(case(
        format!("JSON nested {depth} deep"),
        post("/invoke/echo", nested.as_bytes()),
        After::Read,
        &[400],
    ));
    let mut not_utf8 = GOOD_BODY.to_vec();
    let at = rng.below(not_utf8.len() as u64) as usize;
    not_utf8[at] = 0xFF;
    cases.push(case(
        format!("invalid UTF-8 at body byte {at}"),
        post("/invoke/echo", &not_utf8),
        After::Read,
        &[400],
    ));
    let sparql = format!(
        "SELECT ?s WHERE {{ {} }}",
        "?s <http://example.org/p> ?o . ".repeat(30_000 + rng.below(3_000) as usize)
    );
    cases.push(case(
        format!("{} byte SPARQL", sparql.len()),
        post("/query", json!({"sparql": (sparql)}).to_json().as_bytes()),
        After::Read,
        &[200],
    ));
    let mut noise = vec![0u8; 1 + rng.below(3_000) as usize];
    for byte in &mut noise {
        *byte = rng.below(256) as u8;
    }
    cases.push(Case {
        name: format!("{} random bytes", noise.len()),
        bytes: noise,
        after: After::HalfCloseThenRead,
        // 400 unless the noise happens to be empty of meaning *and* of bytes.
        expect: vec![Some(400), None],
    });
    let mut trailing = good.clone();
    trailing.extend_from_slice(b"GET /pipelined HTTP/1.1\r\n\r\n");
    cases.push(case(
        "bytes after the declared body",
        trailing,
        After::Read,
        &[200],
    ));
    // Clients that misbehave at the socket level.
    cases.push(Case {
        name: "connects and leaves".into(),
        bytes: Vec::new(),
        after: After::HalfCloseThenRead,
        expect: vec![None],
    });
    cases.push(Case {
        name: "asks for 50 KB and never reads it".into(),
        bytes: post("/query", br#"{"sparql": "BIG"}"#),
        after: After::WalkAway,
        expect: vec![None],
    });
    cases.push(case(
        "handler panic",
        post("/query", br#"{"sparql": "PANIC"}"#),
        After::Read,
        &[500],
    ));
    rng.shuffle(&mut cases);
    cases
}

/// Runs one client; returns the response bytes, empty for a close with no
/// response.
fn exchange(addr: SocketAddr, bytes: &[u8], after: After) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    // A hung server fails the case; it does not hang the suite.
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.set_write_timeout(Some(Duration::from_secs(20)))?;
    stream.write_all(bytes)?;
    let mut response = Vec::new();
    match after {
        After::Read => {
            stream.read_to_end(&mut response)?;
        }
        After::HalfCloseThenRead => {
            stream.shutdown(Shutdown::Write)?;
            stream.read_to_end(&mut response)?;
        }
        After::WalkAway => std::thread::sleep(Duration::from_millis(10)),
    }
    Ok(response)
}

/// Checks that `response` is one complete HTTP/1.1 response whose declared
/// length is its real length, and returns (status, body).
fn well_formed(response: &[u8]) -> Result<(u16, String), String> {
    let text = std::str::from_utf8(response).map_err(|e| format!("not UTF-8: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no blank line: {text:?}"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let (version, status, reason) = (parts.next(), parts.next(), parts.next());
    if version != Some("HTTP/1.1") {
        return Err(format!("bad status line: {status_line:?}"));
    }
    let status: u16 = status
        .filter(|s| s.len() == 3)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
    if reason.is_none_or(|r| r.is_empty() || r == "Unknown") {
        return Err(format!("no reason phrase: {status_line:?}"));
    }
    let declared = lines
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| format!("no Content-Length: {head:?}"))?;
    if declared != body.len() {
        return Err(format!(
            "Content-Length {declared} but {} body bytes",
            body.len()
        ));
    }
    if !head.contains("\r\nConnection: close") {
        return Err(format!("no Connection: close: {head:?}"));
    }
    Ok((status, body.to_string()))
}

fn serve() -> (SimEnv, Arc<HttpGateway>) {
    let env = SimEnv::with_seed(5);
    let sdk = Arc::new(RichSdk::with_telemetry(&env, Telemetry::new()));
    sdk.register(
        SimService::builder("echo", "demo")
            .latency(LatencyModel::constant_ms(5.0))
            .build(&env),
    );
    let mut gateway = HttpGateway::new(sdk);
    gateway.set_query_handler(Box::new(|request| {
        let body = Json::parse(&request.body).map_err(|e| e.to_string())?;
        match body.get("sparql").and_then(Json::as_str) {
            Some("PANIC") => panic!("handler bug (expected by the hostile corpus)"),
            Some("BIG") => Ok(json!({"rows": ("r".repeat(50_000))}).into()),
            Some(sparql) => Ok(json!({"bytes": (sparql.len())}).into()),
            None => Err("missing sparql".into()),
        }
    }));
    (env, Arc::new(gateway))
}

fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_corpus(seed: u64) {
    let (_env, gateway) = serve();
    let (addr, handle) = gateway
        .clone()
        .serve("127.0.0.1:0", Arc::default())
        .unwrap_or_else(|e| panic!("seed {seed}: bind: {e}"));
    let cases = corpus(&mut Rng::new(seed));
    let rss_before = rss_mib();
    let started = Instant::now();
    let mut panics = 0;
    for case in &cases {
        let at = format!("seed {seed}, case {:?} ({:?})", case.name, case.after);
        let response =
            exchange(addr, &case.bytes, case.after).unwrap_or_else(|e| panic!("{at}: socket: {e}"));
        let status = if response.is_empty() {
            None
        } else {
            let (status, body) = well_formed(&response).unwrap_or_else(|e| panic!("{at}: {e}"));
            if status >= 400 {
                let parsed = Json::parse(&body).unwrap_or_else(|e| panic!("{at}: body: {e}"));
                assert!(parsed.get("error").is_some(), "{at}: {body}");
                if matches!(status, 408 | 413 | 431 | 500 | 501) {
                    assert!(
                        parsed.get("kind").and_then(Json::as_str).is_some(),
                        "{at}: {body}"
                    );
                    assert!(
                        parsed.get("retryable").and_then(Json::as_bool).is_some(),
                        "{at}: {body}"
                    );
                }
            }
            panics += usize::from(status == 500);
            Some(status)
        };
        assert!(
            case.expect.contains(&status),
            "{at}: got {status:?}, expected one of {:?}",
            case.expect
        );
        // Whatever that was, it cost one response, not the server.
        let next = exchange(addr, &post("/invoke/echo", GOOD_BODY), After::Read)
            .unwrap_or_else(|e| panic!("{at}: next request: socket: {e}"));
        let (status, body) =
            well_formed(&next).unwrap_or_else(|e| panic!("{at}: next request: {e}"));
        assert_eq!(status, 200, "{at}: next request: {body}");
        assert!(body.contains(r#""n":1"#), "{at}: next request: {body}");
    }
    let took = started.elapsed();
    let rss_grew = rss_mib() - rss_before;
    // The server's request timeout is 5 s: a corpus done inside it waited
    // on no stalled read. The declared 2^63 and 2^64-1 byte bodies were
    // refused, not allocated, or the process would not be here; the RSS
    // bound says nothing cap-sized was left behind either.
    assert!(
        took < Duration::from_secs(4),
        "seed {seed}: corpus took {took:?}"
    );
    assert!(rss_grew < 64.0, "seed {seed}: RSS grew {rss_grew:.1} MiB");
    let metrics = exchange(addr, b"GET /metrics HTTP/1.1\r\n\r\n", After::Read).unwrap();
    let (_, metrics) = well_formed(&metrics).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let counted = format!(r#"gateway_requests_total{{route="query",status="500"}} {panics}"#);
    assert!(
        panics > 0 && metrics.contains(&counted),
        "seed {seed}: no {counted:?} in {metrics}"
    );
    handle
        .join()
        .unwrap_or_else(|_| panic!("seed {seed}: the serving thread panicked"));
    assert_eq!(Arc::strong_count(&gateway), 1, "seed {seed}");
}

#[test]
fn hostile_corpus_costs_one_response_each_never_the_server() {
    for seed in [7, 11, 0x00C0_95DC] {
        run_corpus(seed);
    }
}
