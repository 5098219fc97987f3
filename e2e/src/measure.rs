//! The socket-to-socket pass: serves the gateway on a loopback port and
//! drives the stream through it from at most two client threads, one
//! connection at a time each, checking every response.

use crate::stream::{Kind, Req, Stream};
use crate::sut::Sut;
use cogsdk::json::Json;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A hung server is a counted failure, not a hung benchmark.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// A closed loop stops issuing once it has run this many times longer
/// than `--seconds`, so a much slower host still ends inside the driver's
/// limit; what was not sent is not counted.
pub const OVERRUN_FACTOR: f64 = 5.0;

/// One request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: Kind,
    /// When the request was due, ns after the pass began.
    pub due_ns: u64,
    /// When the client began to send it.
    pub sent_ns: u64,
    /// When the whole response had been read.
    pub done_ns: u64,
    /// Timed from the due time in an open loop (a stall delays everything
    /// due behind it), from the send in a closed one.
    pub latency_ns: u64,
    pub ok: bool,
    pub shed: bool,
    pub cache_hit: bool,
}

impl Sample {
    pub fn late_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// FNV-1a over one string.
pub fn fnv1a(text: &str) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

/// What the responses must add up to, accumulated identically by the
/// socket pass and the in-process replay so the two can be compared.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct Checks {
    /// Order-insensitive digest of every query row returned.
    pub rows_digest: u64,
    pub rows: u64,
    /// Documents acknowledged by ingest responses.
    pub docs_acked: u64,
    pub statements_acked: u64,
    /// First answer per `/invoke-cached` payload key.
    first_answers: HashMap<u64, u64>,
}

impl Checks {
    /// Checks one response body against what `req` must produce and folds
    /// it into the totals. `Err` names the first mismatch.
    pub fn check(&mut self, req: &Req, body: &str, items: usize) -> Result<Json, String> {
        let json = Json::parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
        match req.kind {
            Kind::InvokeHot | Kind::InvokeCold => {
                let payload = json.get("payload").ok_or("no payload field")?.to_json();
                let answer = fnv1a(&payload);
                let first = *self.first_answers.entry(req.key).or_insert(answer);
                if first != answer {
                    return Err(format!(
                        "key {} answered differently than at first",
                        req.key
                    ));
                }
                json.get("cache_hit")
                    .and_then(Json::as_bool)
                    .ok_or("no cache_hit field")?;
            }
            Kind::InvokeClass => {
                json.get("payload").ok_or("no payload field")?;
                json.get("service")
                    .and_then(Json::as_str)
                    .ok_or("no service field")?;
            }
            Kind::Point | Kind::JoinLimit | Kind::JoinFull => {
                let rows = json
                    .get("rows")
                    .and_then(Json::as_array)
                    .ok_or("no rows array")?;
                let expected = req.kind.expected_rows(items).expect("a query kind");
                if rows.len() != expected {
                    return Err(format!("{} rows, expected {expected}", rows.len()));
                }
                for row in rows {
                    self.rows_digest = self.rows_digest.wrapping_add(fnv1a(&row.to_json()));
                }
                self.rows += rows.len() as u64;
            }
            Kind::Ingest => {
                let acked = json
                    .get("documents")
                    .and_then(Json::as_usize)
                    .ok_or("no documents count")?;
                if acked != req.docs {
                    return Err(format!("{acked} documents acked, {} sent", req.docs));
                }
                self.docs_acked += acked as u64;
                self.statements_acked += json
                    .get("statements")
                    .and_then(Json::as_usize)
                    .ok_or("no statements count")? as u64;
            }
        }
        Ok(json)
    }

    pub fn absorb(&mut self, other: Checks) {
        self.rows_digest = self.rows_digest.wrapping_add(other.rows_digest);
        self.rows += other.rows;
        self.docs_acked += other.docs_acked;
        self.statements_acked += other.statements_acked;
        self.first_answers.extend(other.first_answers);
    }
}

/// Splits an HTTP response into status and body.
pub fn split_response(response: &str) -> Result<(u16, &str), String> {
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status")?;
    Ok((status, body))
}

fn exchange(addr: SocketAddr, raw: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(raw.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// How long before a due time the open loop stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

/// Sleeps to within `SPIN` of `target`, then spins: the open loop sends
/// on its schedule, not on the scheduler's, without holding a core the
/// server needs.
fn wait_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

struct ClientOutcome {
    samples: Vec<Sample>,
    checks: Checks,
    errors: Vec<String>,
}

fn run_client(
    addr: SocketAddr,
    requests: &[Req],
    origin: Instant,
    items: usize,
    give_up_after: Duration,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        samples: Vec::with_capacity(requests.len()),
        checks: Checks::default(),
        errors: Vec::new(),
    };
    let mut previous_done = Instant::now();
    for req in requests {
        if req.due_ns.is_none() && previous_done - origin > give_up_after {
            break;
        }
        let due = match req.due_ns {
            Some(ns) => origin + Duration::from_nanos(ns),
            None => previous_done,
        };
        wait_until(due);
        let sent = Instant::now();
        let response = exchange(addr, &req.raw);
        let done = Instant::now();
        previous_done = done;
        let mut sample = Sample {
            kind: req.kind,
            due_ns: (due - origin).as_nanos() as u64,
            sent_ns: (sent - origin).as_nanos() as u64,
            done_ns: (done - origin).as_nanos() as u64,
            latency_ns: (done - if req.due_ns.is_some() { due } else { sent }).as_nanos() as u64,
            ok: false,
            shed: false,
            cache_hit: false,
        };
        let verdict = response
            .map_err(|e| format!("socket: {e}"))
            .and_then(|text| {
                let (status, body) = split_response(&text)?;
                sample.shed = status == 503;
                if status != 200 {
                    return Err(format!("status {status}: {body}"));
                }
                out.checks.check(req, body, items)
            });
        match verdict {
            Ok(json) => {
                sample.ok = true;
                sample.cache_hit = json.get("cache_hit").and_then(Json::as_bool) == Some(true);
            }
            Err(e) => {
                if out.errors.len() < 5 {
                    out.errors
                        .push(format!("{} key {}: {e}", req.kind.label(), req.key));
                }
            }
        }
        out.samples.push(sample);
    }
    out
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; `USER_HZ` is 100 on every Linux ABI.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// A `kB` field of `/proc/self/status` in bytes (`VmHWM`, `VmRSS`), or
/// the plain number of a unitless one (`Threads`).
pub fn proc_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|rest| {
            let mut parts = rest.split_whitespace();
            let n: u64 = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            if parts.next() == Some("kB") {
                n * 1024
            } else {
                n
            }
        })
        .unwrap_or(0)
}

extern "C" {
    // From the C library that std links; the package has no libc crate.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs (of the first 64) this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = 0_u64;
    // SAFETY: `mask` is a live u64 and its size is the size passed.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } == 0;
    (0..64).filter(|cpu| ok && mask & (1 << cpu) != 0).collect()
}

/// Binds thread `tid` (0: the caller) to `cpu`; `false` if the kernel
/// refused.
fn pin_thread(tid: i32, cpu: usize) -> bool {
    let mask = 1_u64 << cpu;
    // SAFETY: `mask` is a live u64 and its size is the size passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Kernel ids of this process's threads.
fn thread_ids() -> Vec<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Everything one socket pass observed.
pub struct TcpPass {
    /// Each client's samples, in the order it sent them.
    pub clients: Vec<Vec<Sample>>,
    pub checks: Checks,
    pub errors: Vec<String>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub threads_peak: usize,
    pub rss_delta_bytes: i64,
    pub statements_delta: i64,
    /// Virtual milliseconds the SimClock advanced: remote latency the
    /// cache did not save.
    pub virtual_ms: f64,
}

impl TcpPass {
    pub fn attempted(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    pub fn failed(&self) -> usize {
        self.clients.iter().flatten().filter(|s| !s.ok).count()
    }
}

/// Serves `sut`'s gateway on a loopback port, drives `stream` through it
/// and shuts the server down again.
///
/// An open loop is placed by hand: client `k` is bound to the `k`-th CPU
/// the process may use, and the first thread `serve` starts (the accept
/// loop) to client 0's. Its reader is woken by timers and never stays
/// beside the thread that answers it, so the scheduler otherwise puts the
/// two on one CPU in one process and on two in the next; waking a halted
/// vCPU of the reference host costs 200 us, which made the median read
/// latency 190 us or 420 us for a process's whole life. A closed loop's
/// client is woken by the server's own write and follows it, so closed
/// loops are left to the scheduler. So are all other threads, except
/// those the accept loop itself starts while it serves (the ingest
/// pipeline's intern and commit stages), which inherit its CPU.
pub fn run_tcp(sut: &Sut, stream: &Stream, items: usize, seconds: f64) -> TcpPass {
    let shutdown = Arc::new(AtomicBool::new(false));
    let open_loop = stream.clients.iter().flatten().any(|r| r.due_ns.is_some());
    let cpus = if open_loop {
        allowed_cpus()
    } else {
        Vec::new()
    };
    let threads_before = thread_ids();
    let (addr, server) = sut
        .gateway
        .clone()
        .serve("127.0.0.1:0", shutdown.clone())
        .expect("bind a loopback port");
    if let Some(&cpu) = cpus.first() {
        let accept_loop = thread_ids()
            .into_iter()
            .filter(|tid| !threads_before.contains(tid))
            .min();
        let pinned = accept_loop.is_some_and(|tid| pin_thread(tid, cpu));
        println!(
            "open loop: accept loop and client 0 on CPU {cpu}{}, client k on the k-th of CPUs {cpus:?}",
            if pinned { "" } else { " (accept loop NOT bound)" }
        );
    }
    let statements_before = sut.kb.statement_count() as i64;
    let rss_before = proc_status("VmRSS") as i64;
    let virtual_before = sut.env.clock().now();
    let cpu_before = process_cpu_s();
    let sampling = AtomicBool::new(true);
    let threads_peak = AtomicUsize::new(0);
    let give_up_after = Duration::from_secs_f64(seconds * OVERRUN_FACTOR);
    let origin = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        // Ingest threads live only while a request is served, so the
        // thread count is sampled from the side.
        scope.spawn(|| {
            while sampling.load(Ordering::Relaxed) {
                threads_peak.fetch_max(proc_status("Threads") as usize, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let clients: Vec<_> = stream
            .clients
            .iter()
            .enumerate()
            .map(|(k, requests)| {
                let cpu = (!cpus.is_empty()).then(|| cpus[k % cpus.len()]);
                scope.spawn(move || {
                    if let Some(cpu) = cpu {
                        pin_thread(0, cpu);
                    }
                    run_client(addr, requests, origin, items, give_up_after)
                })
            })
            .collect();
        let outcomes = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        sampling.store(false, Ordering::Relaxed);
        outcomes
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_before;
    shutdown.store(true, Ordering::SeqCst);
    server.join().expect("server thread");
    let mut pass = TcpPass {
        clients: Vec::new(),
        checks: Checks::default(),
        errors: Vec::new(),
        wall_s,
        cpu_s,
        threads_peak: threads_peak.load(Ordering::Relaxed),
        rss_delta_bytes: proc_status("VmRSS") as i64 - rss_before,
        statements_delta: sut.kb.statement_count() as i64 - statements_before,
        virtual_ms: sut.env.clock().now().since(virtual_before).as_secs_f64() * 1e3,
    };
    for outcome in outcomes {
        pass.clients.push(outcome.samples);
        pass.checks.absorb(outcome.checks);
        pass.errors.extend(outcome.errors);
    }
    pass
}

/// Nearest-rank percentile of an ascending slice, with how many samples
/// lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

pub fn sorted_latencies(samples: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = samples.collect();
    v.sort_unstable();
    v
}

/// Median of unsorted floats, of which there must be some.
pub fn median(values: &[f64]) -> f64 {
    cogsdk::stats::descriptive::median(values).expect("median of no values")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.50), (500, 500));
        assert_eq!(percentile(&v, 0.90), (900, 100));
        assert_eq!(percentile(&v, 0.99), (990, 10));
        assert_eq!(percentile(&v, 1.0), (1000, 0));
        assert_eq!(percentile(&[7], 0.99), (7, 0));
        // 150 samples: p99 has a single sample beyond it.
        let v: Vec<u64> = (1..=150).collect();
        assert_eq!(percentile(&v, 0.99), (149, 1));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // A request due at 1 ms that the client could only send at 4 ms
        // (the previous response was late) and that completed at 5 ms
        // waited 4 ms from its user's point of view, not 1 ms.
        let s = Sample {
            kind: Kind::Point,
            due_ns: 1_000_000,
            sent_ns: 4_000_000,
            done_ns: 5_000_000,
            latency_ns: 5_000_000 - 1_000_000,
            ok: true,
            shed: false,
            cache_hit: false,
        };
        assert_eq!(s.late_ns(), 3_000_000);
        assert_eq!(s.latency_ns, 4_000_000);
    }

    #[test]
    fn a_bound_thread_may_run_on_its_cpu_only_and_is_listed_by_id() {
        let before = thread_ids();
        std::thread::spawn(move || {
            assert!(thread_ids().iter().any(|tid| !before.contains(tid)));
            let cpus = allowed_cpus();
            let &last = cpus.last().expect("the process may run somewhere");
            assert!(pin_thread(0, last));
            assert_eq!(allowed_cpus(), vec![last]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn split_response_reads_status_and_body() {
        let r = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(split_response(r), Ok((200, "{}")));
        assert!(split_response("garbage").is_err());
    }

    #[test]
    fn checks_reject_wrong_counts_and_changed_answers() {
        let req = |kind, key, docs| Req {
            kind,
            key,
            docs,
            due_ns: None,
            raw: String::new(),
        };
        let mut c = Checks::default();
        let hot = req(Kind::InvokeHot, 3, 0);
        assert!(c
            .check(&hot, r#"{"payload":{"a":1},"cache_hit":false}"#, 100)
            .is_ok());
        assert!(c
            .check(&hot, r#"{"payload":{"a":1},"cache_hit":true}"#, 100)
            .is_ok());
        assert!(c
            .check(&hot, r#"{"payload":{"a":2},"cache_hit":true}"#, 100)
            .is_err());
        let point = req(Kind::Point, 0, 0);
        assert!(c.check(&point, r#"{"rows":[{"c":"x"}]}"#, 100).is_ok());
        assert!(c.check(&point, r#"{"rows":[]}"#, 100).is_err());
        let ingest = req(Kind::Ingest, 0, 2);
        assert!(c
            .check(&ingest, r#"{"documents":2,"statements":14}"#, 100)
            .is_ok());
        assert!(c
            .check(&ingest, r#"{"documents":1,"statements":7}"#, 100)
            .is_err());
        assert_eq!((c.rows, c.docs_acked, c.statements_acked), (1, 2, 14));
        // Row order does not change the digest.
        let (mut a, mut b) = (Checks::default(), Checks::default());
        let full = req(Kind::JoinFull, 0, 0);
        a.check(&full, r#"{"rows":[{"x":"1"},{"x":"2"}]}"#, 200)
            .unwrap();
        b.check(&full, r#"{"rows":[{"x":"2"},{"x":"1"}]}"#, 200)
            .unwrap();
        assert_eq!(a.rows_digest, b.rows_digest);
    }
}
