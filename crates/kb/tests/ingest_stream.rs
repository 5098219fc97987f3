//! The streaming bulk loader's contracts, end to end:
//!
//! 1. **Equivalence** — a pipelined bulk load produces exactly the
//!    knowledge a sequential `ingest_text` loop would: same statement
//!    count, same resolved-contents digest, under perfect and degraded
//!    NLU profiles alike.
//! 2. **Acked-prefix crash semantics** — a seeded mid-stream storage
//!    failure loses only unacked batches: the reopened base equals a
//!    from-scratch sequential ingest of exactly the acked documents,
//!    closure included.
//! 3. **Bounded memory** — with the materializer deliberately stalled
//!    (the store's write lock held by a reader), in-flight documents
//!    never exceed the configured bound.
//! 4. **Pool use** — a session holds no pool slot between batches, and
//!    dropping one unfinished commits everything pushed.

use cogsdk_core::ThreadPool;
use cogsdk_kb::{IngestConfig, IngestSession, KbOptions, PersonalKnowledgeBase};
use cogsdk_obs::Telemetry;
use cogsdk_sim::fs::Vfs;
use cogsdk_sim::SimFs;
use cogsdk_store::kv::MemoryKv;
use cogsdk_text::analysis::NluConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small synthetic corpus cycling through catalog entities, so every
/// document resolves entities/relations and batches share terms.
fn corpus(n: usize) -> Vec<String> {
    let templates = [
        "IBM acquired Oracle. The USA praised the excellent deal.",
        "Google praised Microsoft. Germany welcomed the partnership.",
        "Oracle criticized IBM. France condemned the terrible move.",
        "Microsoft acquired Google. The USA welcomed the merger.",
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

#[test]
fn pipelined_ingest_equals_sequential_ingest() {
    let docs = corpus(200);
    let sequential = memory_kb();
    for d in &docs {
        sequential.ingest_text(d).unwrap();
    }

    let pipelined = memory_kb();
    let pool = Arc::new(ThreadPool::new(4));
    let report = pipelined
        .ingest_stream(
            &pool,
            docs.clone(),
            IngestConfig {
                batch_size: 16,
                workers: 3,
                max_in_flight: 64,
                nlu: None,
            },
        )
        .unwrap();

    assert_eq!(report.documents, docs.len());
    assert_eq!(report.pushed, docs.len());
    assert_eq!(report.batches, docs.len().div_ceil(16));
    assert_eq!(pipelined.statement_count(), sequential.statement_count());
    assert_eq!(
        pipelined.contents_digest(),
        sequential.contents_digest(),
        "pipelined and sequential ingest must produce identical knowledge"
    );
}

#[test]
fn pipelined_ingest_matches_sequential_under_degraded_nlu() {
    // A lossy vendor profile: degradation is deterministic per (vendor,
    // item), so both paths must still agree exactly.
    let config = NluConfig::vendor("flaky-vendor", 0.6, 0.2);
    let docs = corpus(120);

    let sequential = memory_kb();
    sequential.set_nlu_config(config.clone());
    for d in &docs {
        sequential.ingest_text(d).unwrap();
    }

    let pipelined = memory_kb();
    let pool = Arc::new(ThreadPool::new(4));
    pipelined
        .ingest_stream(
            &pool,
            docs,
            IngestConfig {
                batch_size: 8,
                workers: 2,
                max_in_flight: 32,
                nlu: Some(config),
            },
        )
        .unwrap();

    assert_eq!(pipelined.statement_count(), sequential.statement_count());
    assert_eq!(pipelined.contents_digest(), sequential.contents_digest());
}

#[test]
fn ingest_text_honors_the_configured_nlu_profile() {
    // Recall 0 drops every entity: only the bare document node lands.
    let kb = memory_kb();
    kb.set_nlu_config(NluConfig::vendor("blind", 0.0, 0.0));
    kb.ingest_text("IBM acquired Oracle.").unwrap();
    assert!(kb
        .query("SELECT ?d WHERE { ?d <kb:mentions> ?e }")
        .unwrap()
        .is_empty());
    assert_eq!(
        kb.query("SELECT ?d WHERE { ?d <rdf:type> <kb:Document> }")
            .unwrap()
            .len(),
        1
    );
    // An explicit per-call profile overrides the configured one.
    kb.ingest_text_with("IBM acquired Oracle.", &NluConfig::perfect())
        .unwrap();
    assert!(!kb
        .query("SELECT ?d WHERE { ?d <kb:mentions> <kb:ibm> }")
        .unwrap()
        .is_empty());
}

#[test]
fn intra_batch_duplicate_statements_do_not_double_count() {
    // Identical documents in one batch share their entity-type and
    // relation statements; only per-document facts differ. The batch
    // commit must net the duplicates.
    let doc = "IBM acquired Oracle.";
    let sequential = memory_kb();
    sequential.ingest_text(doc).unwrap();
    sequential.ingest_text(doc).unwrap();
    sequential.ingest_text(doc).unwrap();

    let pipelined = memory_kb();
    let pool = Arc::new(ThreadPool::new(2));
    let report = pipelined
        .ingest_stream(
            &pool,
            vec![doc; 3],
            IngestConfig {
                batch_size: 3,
                workers: 2,
                max_in_flight: 8,
                nlu: None,
            },
        )
        .unwrap();
    assert_eq!(report.batches, 1, "all three documents in one commit");
    assert_eq!(pipelined.statement_count(), sequential.statement_count());
    assert_eq!(pipelined.contents_digest(), sequential.contents_digest());
}

#[test]
fn seeded_crash_mid_stream_recovers_exact_prefix_of_acked_batches() {
    let docs = corpus(64);
    let batch_size = 4;
    let open = |fs: Arc<SimFs>| {
        PersonalKnowledgeBase::open_durable_on(
            fs as Arc<dyn Vfs>,
            Arc::new(MemoryKv::new()),
            KbOptions::default(),
            Telemetry::disabled(),
        )
        .unwrap()
    };

    // Dry run on an identical filesystem: count the storage ops a clean
    // load performs, so the failure can be armed deterministically
    // midway through the op sequence.
    let fs = Arc::new(SimFs::new(77));
    let kb = Arc::new(open(fs.clone()));
    kb.infer_rdfs().unwrap();
    let pool = Arc::new(ThreadPool::new(2));
    let config = IngestConfig {
        batch_size,
        workers: 2,
        max_in_flight: 16,
        nlu: None,
    };
    kb.ingest_stream(&pool, docs.clone(), config.clone())
        .unwrap();
    let clean_ops = fs.op_count();
    let clean_digest = kb.contents_digest();
    drop(kb);

    // Live run, same seed: storage dies mid-stream.
    let fs = Arc::new(SimFs::new(77));
    let kb = Arc::new(open(fs.clone()));
    kb.infer_rdfs().unwrap();
    let ops_before_stream = fs.op_count();
    fs.fail_after_ops((clean_ops - ops_before_stream) / 2);
    let mut session = IngestSession::new(kb.clone(), &pool, config.clone());
    for d in &docs {
        if session.push(d.clone()).is_err() {
            break;
        }
    }
    let (report, error) = session.finish_detailed();
    assert!(error.is_some(), "the armed failure must surface");
    assert!(
        report.documents > 0 && report.documents < docs.len(),
        "failure must land mid-stream: {report:?}"
    );
    assert_eq!(
        report.documents % batch_size,
        0,
        "acked work is whole batches"
    );
    drop(kb);
    fs.crash();

    // Recovery equals a from-scratch sequential ingest of exactly the
    // acked documents — same facts, same closure.
    let recovered = open(fs);
    let reference = memory_kb();
    reference.infer_rdfs().unwrap();
    for d in &docs[..report.documents] {
        reference.ingest_text(d).unwrap();
    }
    assert_eq!(recovered.statement_count(), reference.statement_count());
    assert_eq!(
        recovered.contents_digest(),
        reference.contents_digest(),
        "recovered base must be the exact acked prefix"
    );
    assert_ne!(
        recovered.contents_digest(),
        clean_digest,
        "sanity: the prefix is a strict subset of the full load"
    );
}

#[test]
fn backpressure_bounds_in_flight_documents_under_a_stalled_materializer() {
    let kb = memory_kb();
    let pool = Arc::new(ThreadPool::new(4));
    let max_in_flight = 24;
    let total = 300;
    let session = IngestSession::new(
        kb.clone(),
        &pool,
        IngestConfig {
            batch_size: 8,
            workers: 2,
            max_in_flight,
            nlu: None,
        },
    );
    let watcher = session.watcher();
    let docs = corpus(total);
    let pusher = std::thread::spawn(move || {
        let mut session = session;
        for d in docs {
            session.push(d).unwrap();
        }
        session.finish().unwrap()
    });

    // Stall the materializer: holding the graph's read lock blocks the
    // commit's write lock, so nothing can drain. The pusher must park at
    // the in-flight bound instead of buffering every document.
    kb.with_graph(|_| {
        // A commit already past the lock may still be counting; let it
        // settle, then the count must freeze for as long as we hold on.
        std::thread::sleep(Duration::from_millis(50));
        let frozen = watcher.committed_documents();
        let deadline = Instant::now() + Duration::from_millis(400);
        let mut peak_seen = 0;
        while Instant::now() < deadline {
            peak_seen = peak_seen.max(watcher.in_flight());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            peak_seen <= max_in_flight,
            "in-flight documents ({peak_seen}) exceeded the bound ({max_in_flight})"
        );
        assert!(
            peak_seen >= max_in_flight / 2,
            "the pipeline should have filled toward the bound ({peak_seen})"
        );
        assert_eq!(
            watcher.committed_documents(),
            frozen,
            "nothing can commit while the store lock is held"
        );
    });

    let report = pusher.join().unwrap();
    assert_eq!(report.documents, total);
    assert!(
        report.peak_in_flight <= max_in_flight,
        "peak {} exceeded bound {max_in_flight}",
        report.peak_in_flight
    );
    // The stall was charged to the pusher, which experienced it.
    assert!(report.parse_stall > Duration::ZERO);
}

#[test]
fn stage_metrics_are_published_per_batch() {
    let telemetry = Telemetry::new();
    let kb = Arc::new(
        PersonalKnowledgeBase::with_telemetry(
            Arc::new(MemoryKv::new()),
            KbOptions::default(),
            telemetry.clone(),
        )
        .for_tenant("acme"),
    );
    let pool = Arc::new(ThreadPool::new(2));
    let docs = corpus(40);
    let report = kb
        .ingest_stream(
            &pool,
            docs,
            IngestConfig {
                batch_size: 10,
                workers: 2,
                max_in_flight: 20,
                nlu: None,
            },
        )
        .unwrap();
    assert_eq!(report.documents, 40);

    let metrics = telemetry.metrics();
    let labels = |stage: &'static str| [("stage", stage), ("tenant", "acme")];
    for stage in ["parse", "analyze", "intern", "commit"] {
        assert_eq!(
            metrics.gauge_value("sdk_ingest_stage_docs", &labels(stage)),
            Some(40.0),
            "stage {stage} throughput gauge"
        );
        assert_eq!(
            metrics
                .gauge_value("sdk_ingest_stage_depth", &labels(stage))
                .is_some(),
            stage != "parse",
            "stage {stage} depth gauge"
        );
    }
    assert!(
        metrics
            .gauge_value("sdk_ingest_stage_stall_ms", &labels("parse"))
            .is_some(),
        "the pusher's stall gauge"
    );
    assert_eq!(
        metrics.gauge_value("sdk_ingest_committed_documents", &[("tenant", "acme")]),
        Some(40.0)
    );
    assert_eq!(
        metrics.gauge_value("sdk_ingest_committed_batches", &[("tenant", "acme")]),
        Some(4.0)
    );
    assert_eq!(
        metrics.gauge_value("sdk_ingest_in_flight", &[("tenant", "acme")]),
        Some(0.0),
        "everything drained at finish"
    );
}

#[test]
fn a_pool_job_runs_while_a_session_fills_its_batch() {
    let kb = memory_kb();
    let pool = Arc::new(ThreadPool::new(1));
    let mut session = IngestSession::new(
        kb,
        &pool,
        IngestConfig {
            batch_size: 16,
            workers: 1,
            max_in_flight: 16,
            nlu: None,
        },
    );
    for d in corpus(5) {
        session.push(d).unwrap();
    }
    // Five of sixteen documents: no batch is full, so the session must
    // not be holding the pool's only slot.
    let job = pool.submit(|| 7);
    assert_eq!(
        job.wait_timeout(Duration::from_secs(2)).as_deref(),
        Some(&7),
        "a pool job starved behind an idle ingest session"
    );
    assert_eq!(session.finish().unwrap().documents, 5);
}

#[test]
fn dropping_an_unfinished_session_commits_every_pushed_document() {
    let docs = corpus(45);
    let config = IngestConfig {
        batch_size: 8,
        workers: 2,
        max_in_flight: 16,
        nlu: None,
    };
    let pool = Arc::new(ThreadPool::new(2));

    let finished = memory_kb();
    let report = finished
        .ingest_stream(&pool, docs.clone(), config.clone())
        .unwrap();
    assert_eq!(report.documents, docs.len());

    let dropped = memory_kb();
    let mut session = IngestSession::new(dropped.clone(), &pool, config);
    for d in docs {
        session.push(d).unwrap();
    }
    assert!(session.in_flight() > 0, "the drop has work left to commit");
    drop(session);
    assert_eq!(dropped.statement_count(), finished.statement_count());
    assert_eq!(dropped.contents_digest(), finished.contents_digest());
}
