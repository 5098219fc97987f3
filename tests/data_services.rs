//! Integration: the Figure-1 external data services behind the full SDK
//! machinery — selection between knowledge sources, finance data feeding
//! the knowledge base, vision consensus, and everything reachable through
//! the HTTP gateway.

use cogsdk::datasvc::finance::{finance_service, history_to_csv};
use cogsdk::datasvc::knowledge::knowledge_service;
use cogsdk::datasvc::vision::{vision_fleet, ImageDescriptor};
use cogsdk::json::{json, Json};
use cogsdk::kb::{KbOptions, PersonalKnowledgeBase};
use cogsdk::sdk::gateway::HttpGateway;
use cogsdk::sdk::rank::RankOptions;
use cogsdk::sdk::RichSdk;
use cogsdk::sim::{Request, SimEnv};
use cogsdk::store::MemoryKv;
use std::sync::Arc;

#[test]
fn knowledge_service_disambiguation_matches_local_catalog() {
    // The paper's §3 flow: the KB can use a *service* to disambiguate.
    // Our local catalog and the remote knowledge service must agree.
    let env = SimEnv::with_seed(4001);
    let sdk = RichSdk::new(&env);
    sdk.register(knowledge_service(&env, "dbpedia-sim"));
    let kb = PersonalKnowledgeBase::new(Arc::new(MemoryKv::new()), KbOptions::default());

    for surface in ["US", "United States of America", "Germany", "Big Blue"] {
        let local = kb.disambiguate(surface);
        let remote = sdk.invoke(
            "dbpedia-sim",
            &Request::new("lookup", json!({"op": "lookup", "entity": (surface)})),
        );
        match (local, remote) {
            (Some(l), Ok(resp)) => {
                assert_eq!(
                    Some(l.id.as_str()),
                    resp.payload.get("id").and_then(Json::as_str),
                    "{surface}"
                );
            }
            (None, r) => {
                assert!(
                    r.is_err(),
                    "service resolved what the catalog could not: {surface}"
                );
            }
            (Some(_), Err(e)) => {
                // Transient simulated failure is acceptable; retry once.
                let _ = e;
            }
        }
    }
}

#[test]
fn finance_to_kb_pipeline_detects_planted_trend() {
    let env = SimEnv::with_seed(4002);
    let sdk = RichSdk::new(&env);
    sdk.register(finance_service(&env, "stocks"));
    let kb = PersonalKnowledgeBase::new(Arc::new(MemoryKv::new()), KbOptions::default());

    let resp = sdk
        .invoke(
            "stocks",
            &Request::new(
                "history",
                json!({"op": "history", "ticker": "GLOBEX", "days": 252}),
            ),
        )
        .unwrap();
    let csv = history_to_csv(&resp.payload).unwrap();
    kb.ingest_csv("px", &csv).unwrap();
    let facts = kb
        .regress_and_store("px", "day", "price", "globex")
        .unwrap();

    // Ground truth from the deterministic generator.
    let series = cogsdk::datasvc::finance::PriceSeries::generate("GLOBEX", 252);
    let first = series.prices.first().copied().unwrap();
    let last = series.last().unwrap();
    if last > first {
        assert!(
            facts.slope > 0.0,
            "price rose {first}→{last}, slope {}",
            facts.slope
        );
    } else {
        assert!(
            facts.slope < 0.0,
            "price fell {first}→{last}, slope {}",
            facts.slope
        );
    }
    // The trend fact is queryable.
    let rows = kb
        .query("SELECT ?t WHERE { <kb:model_globex> <kb:trend> ?t . }")
        .unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn vision_consensus_suppresses_hallucinations() {
    let env = SimEnv::with_seed(4003);
    let fleet = vision_fleet(&env);
    let mut majority_correct = 0usize;
    let mut majority_total = 0usize;
    for seed in 0..30 {
        let image = ImageDescriptor::generate(seed);
        let mut votes: std::collections::BTreeMap<String, usize> = Default::default();
        let mut responders = 0;
        for vendor in &fleet {
            let out = vendor.invoke(&Request::new(
                "classify",
                json!({"image": (image.to_json())}),
            ));
            let Ok(resp) = out.result else { continue };
            responders += 1;
            for l in resp
                .payload
                .get("labels")
                .and_then(Json::as_array)
                .unwrap_or(&[])
            {
                if let Some(label) = l.get("label").and_then(Json::as_str) {
                    *votes.entry(label.to_string()).or_insert(0) += 1;
                }
            }
        }
        for (label, n) in votes {
            if n * 2 > responders {
                majority_total += 1;
                if image.labels.contains(&label) {
                    majority_correct += 1;
                }
            }
        }
    }
    let precision = majority_correct as f64 / majority_total.max(1) as f64;
    assert!(
        precision > 0.97,
        "majority-vote precision {precision} ({majority_correct}/{majority_total})"
    );
}

#[test]
fn ranked_selection_between_two_knowledge_sources() {
    // Two mirrors of the same knowledge source; the SDK learns which is
    // faster and routes there.
    let env = SimEnv::with_seed(4004);
    let sdk = RichSdk::new(&env);
    sdk.register(knowledge_service(&env, "kb-east"));
    sdk.register(knowledge_service(&env, "kb-west"));
    let req = Request::new("lookup", json!({"op": "lookup", "entity": "Japan"}));
    for _ in 0..20 {
        let _ = sdk.invoke("kb-east", &req);
        let _ = sdk.invoke("kb-west", &req);
    }
    let ok = sdk
        .invoke_class("knowledge", &req, &RankOptions::default())
        .unwrap();
    // Either can win (same latency model, different draws); the point is
    // that class invocation works over the data services and the winner
    // matches the monitor's faster service.
    let east = sdk
        .monitor()
        .history("kb-east")
        .unwrap()
        .mean_latency_ms()
        .unwrap();
    let west = sdk
        .monitor()
        .history("kb-west")
        .unwrap()
        .mean_latency_ms()
        .unwrap();
    let expected = if east <= west { "kb-east" } else { "kb-west" };
    assert_eq!(ok.service, expected, "east={east:.1}ms west={west:.1}ms");
}

#[test]
fn data_services_reachable_through_http_gateway() {
    let env = SimEnv::with_seed(4005);
    let sdk = Arc::new(RichSdk::new(&env));
    sdk.register(knowledge_service(&env, "dbpedia-sim"));
    sdk.register(finance_service(&env, "stocks"));
    let gateway = HttpGateway::new(sdk);

    let body = r#"{"operation": "lookup", "payload": {"op": "lookup", "entity": "France"}}"#;
    let raw = gateway.handle_text(&format!(
        "POST /invoke/dbpedia-sim HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    assert!(raw.contains("dbpedia.org/resource/France"), "{raw}");

    let body = r#"{"payload": {"op": "quote", "ticker": "IBM"}}"#;
    let raw = gateway.handle_text(&format!(
        "POST /invoke/stocks HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    assert!(raw.contains("\"price\":"), "{raw}");
}

#[test]
fn federated_query_merges_local_and_remote_knowledge() {
    let env = SimEnv::with_seed(4006);
    let sdk = RichSdk::new(&env);
    let dbpedia = knowledge_service(&env, "dbpedia-sim");
    sdk.register(dbpedia.clone());
    let kb = PersonalKnowledgeBase::new(Arc::new(MemoryKv::new()), KbOptions::default());

    // Local private knowledge + public facts at the remote source share
    // one query shape.
    kb.add_statement(cogsdk::rdf::Statement::new(
        cogsdk::rdf::Term::iri("kb:wakanda"),
        cogsdk::rdf::Term::iri("db:continent"),
        cogsdk::rdf::Term::iri("db:africa"),
    ))
    .unwrap();
    let rows = kb
        .query_federated(
            &dbpedia,
            "SELECT ?c WHERE { ?c <db:continent> <db:africa> . }",
            &sdk.call(),
        )
        .unwrap();
    let names: Vec<String> = rows.iter().map(|r| r["c"].to_string()).collect();
    assert!(names.contains(&"<kb:wakanda>".to_string()), "{names:?}");
    assert!(names.contains(&"<db:egypt>".to_string()), "{names:?}");
    assert!(
        names.contains(&"<db:south_africa>".to_string()),
        "{names:?}"
    );
}

#[test]
fn import_entity_brings_remote_facts_with_source_confidence() {
    let env = SimEnv::with_seed(4007);
    let sdk = RichSdk::new(&env);
    let dbpedia = knowledge_service(&env, "dbpedia-sim");
    sdk.register(dbpedia.clone());
    let kb = PersonalKnowledgeBase::new(Arc::new(MemoryKv::new()), KbOptions::default());

    let added = kb
        .import_entity(&dbpedia, "germany", 0.8, &sdk.call())
        .unwrap();
    assert!(added >= 5, "added {added}");
    // Imported facts are queryable locally, in the kb: namespace.
    let rows = kb
        .query("SELECT ?cap WHERE { <kb:germany> <kb:capital> ?cap . }")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0]["cap"], cogsdk::rdf::Term::iri("kb:berlin"));
    // And each carries the source's accuracy level.
    let st = cogsdk::rdf::Statement::new(
        cogsdk::rdf::Term::iri("kb:germany"),
        cogsdk::rdf::Term::iri("kb:capital"),
        cogsdk::rdf::Term::iri("kb:berlin"),
    );
    assert_eq!(kb.fact_confidence(&st), Some(0.8));
    // Weighted inference dilutes facts derived from the shaky source.
    let inferred = kb
        .infer_rules_weighted("[(?c kb:capital ?k) -> (?k kb:capital_of ?c)]", 1.0)
        .unwrap();
    assert_eq!(inferred.len(), 1);
    assert!((inferred[0].1 - 0.8).abs() < 1e-9);
    // Unknown entities at the source surface properly.
    assert!(matches!(
        kb.import_entity(&dbpedia, "atlantis", 0.9, &sdk.call()),
        Err(cogsdk::kb::KbError::UnknownEntity(_))
    ));
}

#[test]
fn image_search_classify_aggregate_pipeline() {
    // §2.2's visual Figure-3: search images -> classify with the vision
    // fleet -> aggregate label frequencies, checked against the corpus's
    // planted labels.
    use cogsdk::datasvc::images::{image_search_service, ImageCorpus};
    let env = SimEnv::with_seed(4008);
    let sdk = RichSdk::new(&env);
    let corpus = Arc::new(ImageCorpus::generate(9, 400));
    let search = image_search_service(&env, "img-search", corpus.clone());
    sdk.register(search.clone());
    let fleet = vision_fleet(&env);
    for v in &fleet {
        sdk.register(v.clone());
    }

    // Stage 1: search.
    let resp = sdk
        .invoke(
            "img-search",
            &Request::new("search", json!({"query": "dog", "limit": 6})),
        )
        .unwrap();
    let images = resp
        .payload
        .get("images")
        .unwrap()
        .as_array()
        .unwrap()
        .to_vec();
    assert!(!images.is_empty());

    // Stage 2+3: classify each hit with the best vendor, aggregate.
    let mut label_counts: std::collections::BTreeMap<String, usize> = Default::default();
    let mut classified = 0;
    for img in &images {
        let Ok(resp) = sdk.invoke(
            fleet[0].name(),
            &Request::new("classify", json!({"image": (img.clone())})),
        ) else {
            continue;
        };
        classified += 1;
        for l in resp
            .payload
            .get("labels")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            if let Some(label) = l.get("label").and_then(Json::as_str) {
                *label_counts.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    assert!(
        classified >= images.len() - 1,
        "classified {classified}/{}",
        images.len()
    );
    // Every searched image was planted with "dog": the aggregate must be
    // dominated by it (vision-alpha has 95% recall).
    let dog = label_counts.get("dog").copied().unwrap_or(0);
    assert!(
        dog as f64 >= classified as f64 * 0.7,
        "dog={dog}/{classified}: {label_counts:?}"
    );
    let max = label_counts.values().max().copied().unwrap_or(0);
    assert_eq!(dog, max, "planted query label should top the aggregate");
}
