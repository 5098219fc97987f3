//! The paper's flagship NLU use case (§2.2, Figure 3): search the web,
//! fetch and analyze every result, and aggregate — "we have been using
//! the rich SDK to determine how favorably people, companies, and other
//! entities are represented on the Web."
//!
//! Run with: `cargo run --example web_sentiment`

use cogsdk::sdk::RichSdk;
use cogsdk::search::services::standard_web;
use cogsdk::sim::SimEnv;
use cogsdk::text::analysis::Analyzer;
use cogsdk::text::services::standard_fleet;
use std::sync::Arc;

fn main() {
    let env = SimEnv::with_seed(2026);
    let sdk = RichSdk::new(&env);

    // Build the simulated web: 400 generated articles behind two search
    // engines and a web-fetch service.
    let (engines, web, _index) = standard_web(&env, 11, 400);
    for engine in &engines {
        sdk.register(engine.clone());
    }
    sdk.register(web.clone());

    // Three NLU vendors with different quality/latency/cost profiles.
    let analyzer = Arc::new(Analyzer::with_default_lexicons());
    let fleet = standard_fleet(&env, analyzer);
    for vendor in &fleet {
        sdk.register(vendor.clone());
    }

    let query = "market growth technology";
    println!("query: {query:?}\n");

    // Figure-3 pipeline: search -> fetch HTML -> extract -> analyze ->
    // aggregate, using the best NLU vendor.
    let (agg, _) = sdk
        .nlu()
        .search_and_analyze(&engines[0], &web, &fleet[0], query, 12, &sdk.call())
        .expect("pipeline");

    println!(
        "analyzed {} documents (stored locally: {})",
        agg.documents,
        sdk.nlu().document_store().len()
    );
    println!("\nmost discussed entities (docs, mentions, mean sentiment):");
    for e in agg.entities.iter().take(8) {
        println!(
            "  {:22} docs={:2} mentions={:3} sentiment={:+.2}",
            e.name, e.documents, e.mentions, e.mean_sentiment
        );
    }
    println!("\ntop keywords:");
    for k in agg.keywords.iter().take(8) {
        println!(
            "  {:18} docs={:2} count={:3}",
            k.text, k.documents, k.total_count
        );
    }
    println!("\ntopic distribution:");
    for (label, confidence) in agg.concepts.iter().take(5) {
        println!("  {label:12} {confidence:.2}");
    }
    println!("\noverall sentiment: {:+.3}", agg.mean_sentiment);

    // §2.1: run the same document through every vendor and combine, with
    // confidence proportional to agreement.
    let sample = "IBM acquired Oracle in an excellent deal. Germany, France and \
                  Japan praised the impressive innovation; Microsoft warned of risk.";
    let consensus = sdk.nlu().consensus_analyze(&fleet, sample);
    println!(
        "\nmulti-vendor consensus over {} vendors:",
        consensus.responding_services.len()
    );
    for e in &consensus.entities {
        println!(
            "  {:16} confidence={:.2} ({})",
            e.canonical,
            e.confidence,
            e.services.join(", ")
        );
    }
    for r in &consensus.relations {
        println!(
            "  relation {} -{}-> {} confidence={:.2}",
            r.subject, r.predicate, r.object, r.confidence
        );
    }

    // What did the run cost?
    println!("\ntotal spend: {}", sdk.monitor().total_cost());
}
