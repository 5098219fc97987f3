//! E6 (Figure 3): the NLU support pipeline — search → fetch → extract →
//! analyze → aggregate — with per-stage virtual latency and the local
//! HTML store's re-analysis saving (§2.2).
//!
//! Paper-predicted shape: fetch+analyze dominates; re-analysis from the
//! local document store removes the fetch stage entirely; aggregation is
//! local and cheap.

use cogsdk_bench::BENCH_SEED;
use cogsdk_core::RichSdk;
use cogsdk_search::html::extract_text;
use cogsdk_search::services::standard_web;
use cogsdk_sim::failure::FailurePlan;
use cogsdk_sim::{SimEnv, SimService};
use cogsdk_text::analysis::{Analyzer, NluConfig};
use cogsdk_text::services::{nlu_service, NluVendorSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

struct World {
    env: SimEnv,
    sdk: RichSdk,
    search: Arc<SimService>,
    web: Arc<SimService>,
    nlu: Arc<SimService>,
}

fn world() -> World {
    let env = SimEnv::with_seed(BENCH_SEED);
    let sdk = RichSdk::new(&env);
    let (engines, web, _idx) = standard_web(&env, 13, 400);
    let mut spec = NluVendorSpec::new("nlu", NluConfig::perfect());
    spec.failures = FailurePlan::reliable();
    let nlu = nlu_service(&env, Arc::new(Analyzer::with_default_lexicons()), spec);
    World {
        env,
        sdk,
        search: engines[0].clone(),
        web,
        nlu,
    }
}

fn report_series() {
    // --- Series 1: per-stage virtual latency -----------------------------
    let w = world();
    let t0 = w.env.clock().now();
    let hits = w
        .sdk
        .nlu()
        .web_search(&w.search, "market growth", 8, false)
        .unwrap();
    let t1 = w.env.clock().now();
    let docs: Vec<String> = hits
        .iter()
        .filter_map(|h| {
            w.sdk
                .nlu()
                .fetch_document(&w.web, &h.url, "market growth")
                .ok()
                .map(|d| extract_text(&d.html))
        })
        .collect();
    let t2 = w.env.clock().now();
    let (agg, _) = w.sdk.nlu().analyze_documents(&w.nlu, &docs, &w.sdk.call());
    let t3 = w.env.clock().now();
    println!(
        "[fig3_nlu_pipeline] stage latencies: search={:?} fetch({} docs)={:?} analyze={:?}",
        t1.since(t0),
        docs.len(),
        t2.since(t1),
        t3.since(t2)
    );
    println!(
        "[fig3_nlu_pipeline] aggregate: {} entities, {} keywords, sentiment={:+.3}",
        agg.entities.len(),
        agg.keywords.len(),
        agg.mean_sentiment
    );

    // --- Series 2: re-analysis from local store skips fetch --------------
    let t4 = w.env.clock().now();
    let stored = w.sdk.nlu().document_store().by_query("market growth");
    let docs2: Vec<String> = stored.iter().map(|d| extract_text(&d.html)).collect();
    let _ = w.sdk.nlu().analyze_documents(&w.nlu, &docs2, &w.sdk.call());
    let t5 = w.env.clock().now();
    println!(
        "[fig3_nlu_pipeline] re-analysis of stored docs: {:?} (fetch stage eliminated)",
        t5.since(t4)
    );

    // --- Series 3: throughput of the end-to-end pipeline -----------------
    let w = world();
    let queries = [
        "energy sector",
        "vaccine research",
        "software plans",
        "election results",
    ];
    let t0 = w.env.clock().now();
    let mut total_docs = 0;
    for q in queries {
        let (agg, _) = w
            .sdk
            .nlu()
            .search_and_analyze(&w.search, &w.web, &w.nlu, q, 6, &w.sdk.call())
            .unwrap();
        total_docs += agg.documents;
    }
    println!(
        "[fig3_nlu_pipeline] 4 queries end-to-end: {} documents, virtual time {:?}",
        total_docs,
        w.env.clock().now().since(t0)
    );
}

fn bench(c: &mut Criterion) {
    report_series();
    let w = world();
    // Pre-fetch documents once; measure the pure-CPU analysis path.
    let hits = w
        .sdk
        .nlu()
        .web_search(&w.search, "market", 6, false)
        .unwrap();
    let texts: Vec<String> = hits
        .iter()
        .filter_map(|h| {
            w.sdk
                .nlu()
                .fetch_document(&w.web, &h.url, "market")
                .ok()
                .map(|d| extract_text(&d.html))
        })
        .collect();
    c.bench_function("analyze_and_aggregate_6_docs", |b| {
        b.iter(|| {
            w.sdk
                .nlu()
                .analyze_documents(&w.nlu, std::hint::black_box(&texts), &w.sdk.call())
        })
    });
    let analyses: Vec<cogsdk_text::DocumentAnalysis> = texts
        .iter()
        .map(|t| Analyzer::with_default_lexicons().analyze(t, &NluConfig::perfect()))
        .collect();
    c.bench_function("aggregate_only_6_docs", |b| {
        b.iter(|| cogsdk_core::nlu::aggregate(std::hint::black_box(&analyses)))
    });
    c.bench_function("html_extract_text", |b| {
        let doc = w.sdk.nlu().document_store().by_url(&hits[0].url).unwrap();
        b.iter(|| extract_text(std::hint::black_box(&doc.html)))
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
