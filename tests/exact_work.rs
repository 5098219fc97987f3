//! The exact-work gate: one seeded request history through the gateway's
//! request path (`HttpGateway::handle_text`, no socket), with every counter
//! that does not depend on timing compared against
//! `tests/exact_work.golden`.
//!
//! The history is the benchmark's three request families at small sizes:
//! `/ingest/bulk` on a durable knowledge base over `SimFs` with one analysis
//! worker, point / `LIMIT 20` join / full-join `/query`s, and cached, cold
//! and class invokes on the virtual clock. A counting global allocator
//! reads allocations and allocated bytes around each request.
//!
//! Counts are those of the default test profile; an optimised build may
//! elide allocations. After an intended change, rewrite the golden with
//! `EXACT_WORK_BLESS=1 cargo test --test exact_work` and give every changed
//! line its reason.
//!
//! The file holds exactly one test, so no other test's allocations land in
//! its counts.

use cogsdk::json::Json;
use cogsdk::kb::{gateway_ingest_handler, gateway_query_handler, KbOptions, PersonalKnowledgeBase};
use cogsdk::obs::Telemetry;
use cogsdk::sdk::gateway::HttpGateway;
use cogsdk::sdk::{RichSdk, ThreadPool};
use cogsdk::sim::latency::LatencyModel;
use cogsdk::sim::rng::Rng;
use cogsdk::sim::{SimEnv, SimFs, SimService};
use cogsdk::store::MemoryKv;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Counts every allocator call that hands out memory (`alloc`,
/// `alloc_zeroed`, `realloc`) and the bytes it asked for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 47;
/// Base items, two triples each, over 100 categories: a full join reads 50.
const ITEMS: usize = 5_000;
const CATEGORIES: usize = 100;
const INGEST_REQUESTS: usize = 4;
const DOCS_PER_REQUEST: usize = 64;
const HOT_KEYS: u64 = 64;

const TEMPLATES: [&str; 5] = [
    "IBM acquired Oracle. The USA praised the excellent deal.",
    "Google praised Microsoft. Germany welcomed the partnership.",
    "Oracle criticized IBM. France condemned the terrible move.",
    "Microsoft acquired Google. The USA welcomed the merger.",
    "Germany praised France. Oracle welcomed the excellent outcome.",
];

fn post(path: &str, tenant: u64, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: exact\r\nX-Tenant: tenant-{tenant}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Allocations and allocated bytes made while `f` ran (on any thread).
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (ALLOCATIONS.load(Relaxed), ALLOCATED_BYTES.load(Relaxed));
    let out = f();
    (
        out,
        ALLOCATIONS.load(Relaxed) - calls,
        ALLOCATED_BYTES.load(Relaxed) - bytes,
    )
}

/// The JSON body of a raw response, which must be a 200.
fn ok_body(raw: &str) -> Json {
    let (head, body) = raw.split_once("\r\n\r\n").expect("a response has a head");
    assert!(head.starts_with("HTTP/1.1 200"), "{raw}");
    Json::parse(body).expect("a JSON body")
}

/// `name value` lines, each value a total divided by `per`.
struct Block(String);

impl Block {
    fn line(&mut self, name: &str, total: u64, per: usize) {
        let _ = writeln!(self.0, "{name} {:.4}", total as f64 / per as f64);
    }
}

struct Deployment {
    env: SimEnv,
    sdk: Arc<RichSdk>,
    kb: Arc<PersonalKnowledgeBase>,
    gateway: HttpGateway,
}

fn deploy() -> Deployment {
    // Pools first: a worker allocates its channel wait state the first
    // time it blocks, which must happen while the base data loads, not
    // inside a measured request.
    let pool = Arc::new(ThreadPool::new(1));
    let env = SimEnv::with_seed(SEED);
    let sdk = Arc::new(RichSdk::with_telemetry(&env, Telemetry::new()));
    for (name, median_ms) in [("nlu-a", 30.0), ("nlu-b", 90.0)] {
        sdk.register(
            SimService::builder(name, "nlu")
                .latency(LatencyModel::lognormal_ms(median_ms, 0.3))
                .build(&env),
        );
    }
    let kb = Arc::new(
        PersonalKnowledgeBase::open_durable_on(
            Arc::new(SimFs::new(SEED)),
            Arc::new(MemoryKv::new()),
            KbOptions::default(),
            Telemetry::disabled(),
        )
        .expect("a durable knowledge base over SimFs"),
    );
    let mut rng = Rng::new(SEED);
    let mut csv = String::from("item,cat,score\n");
    for i in 0..ITEMS {
        let _ = writeln!(csv, "item_{i},cat_{},{}", i % CATEGORIES, rng.below(1_000));
    }
    kb.ingest_csv("items", &csv).expect("base CSV loads");
    kb.table_to_rdf("items", "item", "kb")
        .expect("base converts");
    kb.snapshot().expect("base snapshot");

    let mut gateway = HttpGateway::new(sdk.clone());
    gateway.set_query_handler(gateway_query_handler(kb.clone()));
    gateway.set_ingest_handler(gateway_ingest_handler(kb.clone(), pool));
    Deployment {
        env,
        sdk,
        kb,
        gateway,
    }
}

fn ingest_request(rng: &mut Rng, first_doc: usize) -> String {
    let mut body = String::from(r#"{"workers":1,"documents":["#);
    for doc in first_doc..first_doc + DOCS_PER_REQUEST {
        if doc > first_doc {
            body.push(',');
        }
        let template = TEMPLATES[rng.below(TEMPLATES.len() as u64) as usize];
        let _ = write!(body, r#""{template} Filing {doc}.""#);
    }
    body.push_str("]}");
    post("/ingest/bulk", rng.below(8), &body)
}

fn ingest_lines(sys: &Deployment, rng: &mut Rng, out: &mut Block) {
    // One unmeasured request first: first uses allocate once.
    let warm_up = ingest_request(rng, 0);
    ok_body(&sys.gateway.handle_text(&warm_up));
    let dict_len = || sys.kb.query_snapshot().dict().len() as u64;
    let (statements, wal, terms) = (sys.kb.statement_count(), sys.kb.wal_stats(), dict_len());
    let (mut calls, mut bytes) = (0, 0);
    for request in 1..=INGEST_REQUESTS {
        let raw = ingest_request(rng, request * DOCS_PER_REQUEST);
        let (response, c, b) = allocations(|| sys.gateway.handle_text(&raw));
        let acked = ok_body(&response).get("documents").and_then(Json::as_usize);
        assert_eq!(acked, Some(DOCS_PER_REQUEST), "{response}");
        calls += c;
        bytes += b;
    }
    let docs = INGEST_REQUESTS * DOCS_PER_REQUEST;
    let wal_after = sys.kb.wal_stats();
    out.line("ingest.allocations_per_doc", calls, docs);
    out.line("ingest.allocated_bytes_per_doc", bytes, docs);
    let added = (sys.kb.statement_count() - statements) as u64;
    out.line("ingest.statements_per_doc", added, docs);
    out.line(
        "ingest.wal_bytes_per_doc",
        wal_after.bytes - wal.bytes,
        docs,
    );
    out.line(
        "ingest.wal_appends_per_doc",
        wal_after.appends - wal.appends,
        docs,
    );
    out.line(
        "ingest.wal_fsyncs_per_doc",
        wal_after.fsyncs - wal.fsyncs,
        docs,
    );
    out.line("ingest.terms_minted_per_doc", dict_len() - terms, docs);
}

fn query_lines(sys: &Deployment, rng: &mut Rng, out: &mut Block) {
    for (kind, n) in [("point", 60), ("join_limit", 25), ("join_full", 15)] {
        let mut sums = [0u64; 5];
        for _ in 0..n {
            let sparql = match kind {
                "point" => {
                    let item = rng.below(ITEMS as u64);
                    format!(
                        "SELECT ?c ?s WHERE {{ <kb:item_{item}> <kb:cat> ?c . <kb:item_{item}> <kb:score> ?s }}"
                    )
                }
                _ => {
                    let cat = rng.below(CATEGORIES as u64);
                    let limit = if kind == "join_limit" {
                        " LIMIT 20"
                    } else {
                        ""
                    };
                    format!(
                        r#"SELECT ?x ?s WHERE {{ ?x <kb:cat> \"cat_{cat}\" . ?x <kb:score> ?s }}{limit}"#
                    )
                }
            };
            let raw = post(
                "/query",
                rng.below(8),
                &format!(r#"{{"sparql":"{sparql}"}}"#),
            );
            let (response, calls, _) = allocations(|| sys.gateway.handle_text(&raw));
            let body = ok_body(&response);
            let stats = body.get("stats").expect("a query answers its stats");
            let stat = |name: &str| stats.get(name).and_then(Json::as_usize).unwrap() as u64;
            // `plan_micros` is wall-clock time: its digits are not work,
            // and the bytes allocated for the response follow them.
            let clock_digits = stat("plan_micros").to_string().len() as u64;
            let fields = [
                stat("index_probes"),
                stat("rows_scanned"),
                stat("rows_materialised"),
                response.len() as u64 - clock_digits,
                calls,
            ];
            for (sum, field) in sums.iter_mut().zip(fields) {
                *sum += field;
            }
        }
        for (name, sum) in [
            "index_probes",
            "rows_scanned",
            "rows_materialised",
            "response_bytes",
            "allocations",
        ]
        .iter()
        .zip(sums)
        {
            out.line(&format!("query.{kind}.{name}"), sum, n);
        }
    }
}

fn invoke_lines(sys: &Deployment, rng: &mut Rng, out: &mut Block) {
    let upstream_calls = || {
        ["nlu-a", "nlu-b"]
            .iter()
            .map(|name| sys.sdk.registry().get(name).unwrap().stats().0)
            .sum::<u64>()
    };
    let cached = |key: u64| {
        let body = format!(
            r#"{{"operation":"analyze","payload":{{"text":"document {key} on service quality"}}}}"#
        );
        ("/invoke-cached/nlu-a", body)
    };
    // Warm the hot keys: each one's first invoke is a miss.
    for key in 0..HOT_KEYS {
        let (path, body) = cached(key);
        ok_body(&sys.gateway.handle_text(&post(path, 0, &body)));
    }
    let mut cold_key = 1 << 20;
    for (kind, n) in [("cached", 200), ("cold", 50), ("class", 20)] {
        let (calls_before, hits_before) = (upstream_calls(), sys.sdk.cache().stats().hits);
        let (mut calls, mut bytes) = (0, 0);
        for _ in 0..n {
            let (path, body) = match kind {
                "cached" => cached(rng.below(HOT_KEYS)),
                "cold" => {
                    cold_key += 1;
                    cached(cold_key)
                }
                _ => (
                    "/invoke-class/nlu",
                    format!(
                        r#"{{"payload":{{"text":"classify note {}"}}}}"#,
                        rng.below(1 << 32)
                    ),
                ),
            };
            let raw = post(path, rng.below(8), &body);
            let (response, c, b) = allocations(|| sys.gateway.handle_text(&raw));
            ok_body(&response);
            calls += c;
            bytes += b;
        }
        let hits = sys.sdk.cache().stats().hits - hits_before;
        out.line(
            &format!("invoke.{kind}.upstream_calls"),
            upstream_calls() - calls_before,
            n,
        );
        out.line(&format!("invoke.{kind}.cache_hits"), hits, n);
        out.line(&format!("invoke.{kind}.allocations"), calls, n);
        out.line(&format!("invoke.{kind}.allocated_bytes"), bytes, n);
    }
    out.line(
        "invoke.virtual_us_total",
        sys.env.clock().now().as_micros(),
        1,
    );
}

#[test]
fn a_seeded_history_does_exactly_the_golden_work() {
    let sys = deploy();
    let mut rng = Rng::new(SEED ^ 0xE4AC);
    let mut block = Block(String::new());
    ingest_lines(&sys, &mut rng, &mut block);
    query_lines(&sys, &mut rng, &mut block);
    invoke_lines(&sys, &mut rng, &mut block);
    let got = block.0;

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/exact_work.golden");
    if std::env::var_os("EXACT_WORK_BLESS").is_some() {
        std::fs::write(path, &got).expect("write the golden block");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_default();
    assert!(
        got == want,
        "exact work moved; bless with EXACT_WORK_BLESS=1 only if every change is intended\n\
         --- golden ---\n{want}--- this run ---\n{got}"
    );
}
