//! Integration: the full Figure-3 NLU pipeline across `cogsdk-core`,
//! `cogsdk-search`, `cogsdk-text` and `cogsdk-sim` — search the simulated
//! web, fetch the HTML, analyze with simulated NLU vendors, aggregate,
//! and verify against the corpus generator's planted ground truth.

use cogsdk::sdk::RichSdk;
use cogsdk::search::services::standard_web;
use cogsdk::sim::failure::FailurePlan;
use cogsdk::sim::{SimEnv, SimService};
use cogsdk::text::analysis::{Analyzer, NluConfig};
use cogsdk::text::services::{nlu_service, standard_fleet, NluVendorSpec};
use std::sync::Arc;

fn reliable_nlu(env: &SimEnv, name: &str, config: NluConfig) -> Arc<SimService> {
    let mut spec = NluVendorSpec::new(name, config);
    spec.failures = FailurePlan::reliable();
    nlu_service(env, Arc::new(Analyzer::with_default_lexicons()), spec)
}

#[test]
fn search_fetch_analyze_aggregate_end_to_end() {
    let env = SimEnv::with_seed(1001);
    let sdk = RichSdk::new(&env);
    let (engines, web, index) = standard_web(&env, 42, 300);
    let nlu = reliable_nlu(&env, "nlu", NluConfig::perfect());

    let (agg, _) = sdk
        .nlu()
        .search_and_analyze(&engines[0], &web, &nlu, "energy market", 10, &sdk.call())
        .unwrap();

    assert!(agg.documents >= 5, "documents={}", agg.documents);
    assert!(!agg.entities.is_empty());
    assert!(!agg.keywords.is_empty());
    assert!(!agg.concepts.is_empty());

    // Ground truth: the aggregated entities must be drawn from the
    // entities the generator planted in the fetched documents.
    let stored = sdk.nlu().document_store().by_query("energy market");
    assert_eq!(stored.len(), agg.documents);
    let mut planted: Vec<String> = stored
        .iter()
        .filter_map(|d| index.by_url(&d.url))
        .flat_map(|d| d.doc.planted_entities.clone())
        .collect();
    planted.sort();
    planted.dedup();
    for entity in &agg.entities {
        assert!(
            planted.contains(&entity.canonical),
            "aggregated entity {} was never planted",
            entity.canonical
        );
    }
}

#[test]
fn pipeline_survives_flaky_web_and_nlu() {
    let env = SimEnv::with_seed(1002);
    let sdk = RichSdk::new(&env);
    let (engines, web, _index) = standard_web(&env, 42, 200);
    // A lossy vendor with real failures; retries inside the support
    // layer must keep the pipeline productive.
    let analyzer = Arc::new(Analyzer::with_default_lexicons());
    let mut spec = NluVendorSpec::new("nlu-flaky", NluConfig::perfect());
    spec.failures = FailurePlan::flaky(0.2);
    let nlu = nlu_service(&env, analyzer, spec);

    let (agg, _) = sdk
        .nlu()
        .search_and_analyze(&engines[1], &web, &nlu, "market report", 8, &sdk.call())
        .unwrap();
    assert!(
        agg.documents >= 4,
        "flakiness should not starve the pipeline"
    );
}

#[test]
fn aggregate_sentiment_tracks_planted_slant() {
    // Documents the generator slanted positive must aggregate more
    // positively than ones slanted negative.
    let env = SimEnv::with_seed(1003);
    let sdk = RichSdk::new(&env);
    let nlu = reliable_nlu(&env, "nlu", NluConfig::perfect());
    let docs = cogsdk::text::corpus::CorpusGenerator::new(77).generate(120);
    let positive: Vec<String> = docs
        .iter()
        .filter(|d| d.slant > 0.5)
        .map(|d| d.body.clone())
        .collect();
    let negative: Vec<String> = docs
        .iter()
        .filter(|d| d.slant < -0.5)
        .map(|d| d.body.clone())
        .collect();
    assert!(positive.len() >= 5 && negative.len() >= 5);
    let (pos, _) = sdk.nlu().analyze_documents(&nlu, &positive, &sdk.call());
    let (neg, _) = sdk.nlu().analyze_documents(&nlu, &negative, &sdk.call());
    assert!(
        pos.mean_sentiment > neg.mean_sentiment + 0.3,
        "pos={} neg={}",
        pos.mean_sentiment,
        neg.mean_sentiment
    );
}

#[test]
fn multi_vendor_consensus_orders_by_agreement() {
    let env = SimEnv::with_seed(1004);
    let sdk = RichSdk::new(&env);
    let fleet = standard_fleet(&env, Arc::new(Analyzer::with_default_lexicons()));
    let text = "IBM acquired Oracle. Germany, France, Japan, India, Brazil and \
                Canada commented. Microsoft and Google and Amazon and Apple watched.";
    let consensus = sdk.nlu().consensus_analyze(&fleet, text);
    assert!(consensus.responding_services.len() >= 2);
    // Descending confidence, all within (0,1].
    assert!(consensus
        .entities
        .windows(2)
        .all(|w| w[0].confidence >= w[1].confidence));
    // The perfect-recall vendor sees everything, the lossy one misses
    // some: confidences must not all be equal.
    let distinct: std::collections::BTreeSet<String> = consensus
        .entities
        .iter()
        .map(|e| format!("{:.3}", e.confidence))
        .collect();
    assert!(
        distinct.len() > 1,
        "expected varying confidence: {distinct:?}"
    );
}

#[test]
fn html_of_stored_documents_reanalyzes_identically() {
    // §2.2: storing documents locally allows re-analysis without
    // re-fetching; the analysis of the stored copy must match.
    let env = SimEnv::with_seed(1005);
    let sdk = RichSdk::new(&env);
    let (engines, web, _index) = standard_web(&env, 42, 100);
    let nlu = reliable_nlu(&env, "nlu", NluConfig::perfect());

    let hits = sdk
        .nlu()
        .web_search(&engines[0], "growth", 3, false)
        .unwrap();
    let doc = sdk
        .nlu()
        .fetch_document(&web, &hits[0].url, "growth")
        .unwrap();
    let text = cogsdk::search::html::extract_text(&doc.html);
    let first = sdk.nlu().analyze_text(&nlu, &text, &sdk.call()).unwrap();

    // Second pass: from the local store, no web service involved.
    let stored = sdk.nlu().document_store().by_url(&hits[0].url).unwrap();
    let again = sdk
        .nlu()
        .analyze_text(
            &nlu,
            &cogsdk::search::html::extract_text(&stored.html),
            &sdk.call(),
        )
        .unwrap();
    assert_eq!(first.entities, again.entities);
    assert_eq!(first.sentiment, again.sentiment);
}
