//! A13 (ablation): the streaming bulk loader vs document-at-a-time
//! ingest.
//!
//! The Fig. 5 loop's write side pays four per-document costs when driven
//! through `ingest_text` on a durable base: NLU analysis, term
//! interning, a WAL append **with its own fsync**, and a full epoch
//! publish. The pipelined loader amortizes the commit-side costs — one
//! group-committed WAL append, one fsync, and one epoch publish per
//! `batch_size` documents — and analyzes later batches on the pool
//! while the pusher commits earlier ones. This ablation quantifies that on a real filesystem, where the
//! per-document fsync dominates the baseline exactly as it does in
//! deployment:
//!
//! 1. docs/sec for `INGEST_DOCS` synthetic documents into a durable
//!    (WAL-backed) base, document-at-a-time baseline vs the pipeline at
//!    1/2/4/8 workers (batch 256);
//! 2. equality of the final knowledge: the pipelined base must digest
//!    identical to the sequential one (order-insensitive, resolved
//!    statements);
//! 3. bounded memory: with the materializer stage stalled behind the
//!    store lock, peak in-flight documents stay ≤ the configured bound.
//!
//! Document count defaults to 100_000; set `INGEST_DOCS` to override
//! (CI smoke uses a smaller corpus).

use cogsdk_core::ThreadPool;
use cogsdk_kb::{IngestConfig, IngestSession, KbOptions, PersonalKnowledgeBase};
use cogsdk_store::MemoryKv;
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_SIZE: usize = 256;
const MAX_IN_FLIGHT: usize = 1024;

fn doc_count() -> usize {
    std::env::var("INGEST_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

/// Synthetic corpus cycling through catalog entities: every document
/// resolves entities and relations, documents share vocabulary (as real
/// corpora do), and per-document facts keep the graph growing.
fn corpus(n: usize) -> Vec<String> {
    let templates = [
        "IBM acquired Oracle. The USA praised the excellent deal.",
        "Google praised Microsoft. Germany welcomed the partnership.",
        "Oracle criticized IBM. France condemned the terrible move.",
        "Microsoft acquired Google. The USA welcomed the merger.",
        "Germany praised France. Oracle welcomed the excellent outcome.",
    ];
    (0..n)
        .map(|i| templates[i % templates.len()].to_string())
        .collect()
}

fn memory_kb() -> Arc<PersonalKnowledgeBase> {
    Arc::new(PersonalKnowledgeBase::new(
        Arc::new(MemoryKv::new()),
        KbOptions::default(),
    ))
}

/// A fresh durable base under the system temp dir. The caller removes
/// the directory when done; a stale one from a crashed run is wiped.
fn durable_kb(tag: &str) -> (Arc<PersonalKnowledgeBase>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ablation_ingest_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    let kb = Arc::new(
        PersonalKnowledgeBase::open_durable(&dir, Arc::new(MemoryKv::new()), KbOptions::default())
            .expect("open durable bench store"),
    );
    (kb, dir)
}

/// Document-at-a-time baseline: one WAL append + fsync + epoch publish
/// per document. Returns (docs/sec, digest).
fn sequential(docs: &[String]) -> (f64, u64) {
    let (kb, dir) = durable_kb("seq");
    let start = Instant::now();
    for d in docs {
        kb.ingest_text(d).unwrap();
    }
    let rate = docs.len() as f64 / start.elapsed().as_secs_f64();
    let digest = kb.contents_digest();
    drop(kb);
    let _ = std::fs::remove_dir_all(dir);
    (rate, digest)
}

/// The pipelined loader at a given worker count. Returns (docs/sec,
/// digest, peak in-flight).
fn pipelined(docs: &[String], workers: usize) -> (f64, u64, usize) {
    let (kb, dir) = durable_kb(&format!("pipe_w{workers}"));
    let pool = Arc::new(ThreadPool::new(workers.max(1)));
    let start = Instant::now();
    let report = kb
        .ingest_stream(
            &pool,
            docs.iter().cloned(),
            IngestConfig {
                batch_size: BATCH_SIZE,
                workers,
                max_in_flight: MAX_IN_FLIGHT,
                nlu: None,
            },
        )
        .unwrap();
    let rate = docs.len() as f64 / start.elapsed().as_secs_f64();
    assert_eq!(report.documents, docs.len());
    let digest = kb.contents_digest();
    drop(kb);
    let _ = std::fs::remove_dir_all(dir);
    (rate, digest, report.peak_in_flight)
}

fn report() {
    let n = doc_count();
    let docs = corpus(n);

    let (base_rate, base_digest) = sequential(&docs);
    println!("[ablation_ingest] sequential baseline: {base_rate:.0} docs/s ({n} docs)");

    for &workers in &[1usize, 2, 4, 8] {
        let (rate, digest, peak) = pipelined(&docs, workers);
        assert_eq!(
            digest, base_digest,
            "pipelined contents diverged from sequential at {workers} workers"
        );
        println!(
            "[ablation_ingest] pipelined workers={workers} batch={BATCH_SIZE}: \
             {rate:.0} docs/s ({:.2}x, peak in-flight {peak})",
            rate / base_rate,
        );
        if workers == 8 {
            assert!(
                rate >= 4.0 * base_rate,
                "acceptance: pipelined at 8 workers must be >= 4x sequential \
                 (got {:.2}x)",
                rate / base_rate,
            );
        }
    }

    // Bounded memory under a stalled materializer: hold the store's
    // read lock so the pusher's commit cannot take its write lock; the
    // pusher must park at the in-flight bound.
    let kb = memory_kb();
    let pool = Arc::new(ThreadPool::new(4));
    let bound = 96;
    let session = IngestSession::new(
        kb.clone(),
        &pool,
        IngestConfig {
            batch_size: 32,
            workers: 2,
            max_in_flight: bound,
            nlu: None,
        },
    );
    let watcher = session.watcher();
    let stall_docs = corpus(2_000);
    let pusher = std::thread::spawn(move || {
        let mut session = session;
        for d in stall_docs {
            session.push(d).unwrap();
        }
        session.finish().unwrap()
    });
    let peak_during_stall = kb.with_graph(|_| {
        let deadline = Instant::now() + Duration::from_millis(300);
        let mut peak = 0;
        while Instant::now() < deadline {
            peak = peak.max(watcher.in_flight());
            std::thread::sleep(Duration::from_millis(5));
        }
        peak
    });
    let stalled_report = pusher.join().unwrap();
    assert!(
        peak_during_stall <= bound && stalled_report.peak_in_flight <= bound,
        "in-flight documents exceeded the bound under a stalled materializer"
    );
    println!(
        "[ablation_ingest] stalled materializer: peak in-flight \
         {peak_during_stall}/{bound} during stall, {} across the run",
        stalled_report.peak_in_flight,
    );
}

fn bench(c: &mut Criterion) {
    report();

    c.bench_function("ingest_sequential_512", |b| {
        let docs = corpus(512);
        b.iter(|| {
            let kb = memory_kb();
            for d in &docs {
                kb.ingest_text(d).unwrap();
            }
            std::hint::black_box(kb.statement_count())
        })
    });

    c.bench_function("ingest_pipelined_512", |b| {
        let docs = corpus(512);
        let pool = Arc::new(ThreadPool::new(4));
        b.iter(|| {
            let kb = memory_kb();
            let report = kb
                .ingest_stream(
                    &pool,
                    docs.iter().cloned(),
                    IngestConfig {
                        batch_size: 128,
                        workers: 4,
                        max_in_flight: 512,
                        nlu: None,
                    },
                )
                .unwrap();
            std::hint::black_box(report.documents)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
