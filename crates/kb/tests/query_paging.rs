//! Gateway-driven paging stability: `POST /query` pages pinned to a
//! snapshot epoch must tile one consistent result set — stable and
//! duplicate-free — while a writer keeps ingesting into the live base.
//!
//! The rdf-level contract (crates/rdf/tests/query_paging.rs) proves the
//! snapshot itself is stable; this test proves the property survives the
//! full HTTP surface: the first page reports the epoch it ran on, every
//! later page sends that epoch back, and when sustained ingest ages the
//! pinned epoch out of the retention ring the handler rejects the page
//! with a restartable error instead of silently switching epochs.

use cogsdk_core::gateway::{HttpRequest, RouteHandler};
use cogsdk_json::Json;
use cogsdk_kb::gateway::gateway_query_handler;
use cogsdk_kb::kb::{KbOptions, PersonalKnowledgeBase};
use cogsdk_rdf::{Statement, Term};
use cogsdk_store::kv::{KeyValueStore, MemoryKv};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;

const PAGE: usize = 37; // deliberately not a divisor of the seed count
const SPARQL: &str = "SELECT ?x WHERE { ?x <rdf:type> <ex:Item> . } ORDER BY ?x";

fn item(i: usize) -> Statement {
    Statement::new(
        Term::iri(format!("ex:item_{i}")),
        Term::iri("rdf:type"),
        Term::iri("ex:Item"),
    )
}

fn post(body: &str) -> HttpRequest {
    HttpRequest {
        method: "POST".to_string(),
        path: "/query".to_string(),
        query: Vec::new(),
        tenant: None,
        body: body.to_string(),
    }
}

/// Runs one query through the handler and parses its answer once.
fn ask(handler: &RouteHandler, body: &str) -> Result<Json, String> {
    handler(&post(body))
        .map(|text| Json::parse(text.as_str()).expect("the handler writes JSON"))
        .map_err(|e| e.message)
}

fn rows_of(out: &Json) -> Vec<String> {
    let mut rows = Vec::new();
    let mut i = 0;
    while let Some(x) = out.pointer(&format!("/rows/{i}/x")).and_then(Json::as_str) {
        rows.push(x.to_string());
        i += 1;
    }
    rows
}

/// Pages to exhaustion against whatever epoch the first page pins.
/// Returns the pinned epoch and every row seen, or the handler error if
/// the epoch aged out of retention mid-walk.
fn page_to_exhaustion(handler: &RouteHandler) -> Result<(usize, BTreeSet<String>), String> {
    let first = ask(
        handler,
        &format!(r#"{{"sparql": "{SPARQL} LIMIT {PAGE}"}}"#),
    )?;
    let epoch = first.get("epoch").and_then(Json::as_usize).unwrap();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut rows = rows_of(&first);
    let mut offset = 0;
    loop {
        let short = rows.len() < PAGE;
        for row in rows {
            assert!(seen.insert(row), "duplicate row at offset {offset}");
        }
        if short {
            return Ok((epoch, seen));
        }
        offset += PAGE;
        let out = ask(
            handler,
            &format!(r#"{{"sparql": "{SPARQL} OFFSET {offset} LIMIT {PAGE}", "epoch": {epoch}}}"#),
        )?;
        assert_eq!(
            out.get("epoch").and_then(Json::as_usize),
            Some(epoch),
            "a pinned page must run on the epoch it named"
        );
        rows = rows_of(&out);
    }
}

#[test]
fn gateway_pages_pinned_to_an_epoch_tile_one_result_set_under_ingest() {
    const SEEDED: usize = 500;
    const INGESTED: usize = 1500;

    let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
    let kb = Arc::new(PersonalKnowledgeBase::new(remote, KbOptions::default()));
    for i in 0..SEEDED {
        kb.add_statement(item(i)).unwrap();
    }
    let handler = gateway_query_handler(kb.clone());

    // Writer: keeps ingesting new items while the reader pages. Every
    // insert publishes an epoch, so the reader's pinned epoch will age
    // out of the retention ring mid-walk — the only acceptable failure.
    let writer_kb = Arc::clone(&kb);
    let writer = thread::spawn(move || {
        for i in SEEDED..SEEDED + INGESTED {
            writer_kb.add_statement(item(i)).unwrap();
        }
    });

    // Concurrent phase: follow the restart protocol the handler's error
    // message dictates — on eviction, re-pin a fresh epoch and retile
    // from scratch. Terminates because the writer does.
    let (epoch, seen) = loop {
        match page_to_exhaustion(&handler) {
            Ok(done) => break done,
            Err(e) => assert!(
                e.contains("no longer retained"),
                "only eviction may interrupt paging: {e}"
            ),
        }
    };
    writer.join().unwrap();

    // Whatever epoch the successful walk pinned, its pages tiled one
    // consistent universe: the seed set plus however much of the ingest
    // had landed at pin time, never a torn mixture.
    assert!(
        (SEEDED..=SEEDED + INGESTED).contains(&seen.len()),
        "pinned epoch size out of range: {}",
        seen.len()
    );

    // Deterministic phase: the writer is done, epochs have stopped
    // moving, so a fresh walk must complete without restarts and tile
    // the final graph exactly.
    let (final_epoch, final_seen) = page_to_exhaustion(&handler).unwrap();
    assert!(final_epoch >= epoch);
    assert_eq!(final_seen.len(), SEEDED + INGESTED);
    let expected: BTreeSet<String> = (0..SEEDED + INGESTED)
        .map(|i| format!("<ex:item_{i}>"))
        .collect();
    assert_eq!(
        final_seen, expected,
        "pages must tile the final graph exactly"
    );

    // An unpinned query agrees with the tiled total.
    let fresh = ask(&handler, &format!(r#"{{"sparql": "{SPARQL}"}}"#)).unwrap();
    assert_eq!(
        fresh.pointer("/stats/rows").and_then(Json::as_usize),
        Some(SEEDED + INGESTED)
    );
}
