//! Financial data analytics: Figure 1's "stock and financial data
//! services" feeding the knowledge base's analysis-and-inference loop.
//! Prices come from the simulated finance service, land in a relational
//! table, get regressed, and the trends become RDF facts that rules
//! classify — with accuracy levels (§5 future work) reflecting fit
//! quality.
//!
//! Run with: `cargo run --example financial_analytics`

use cogsdk::datasvc::finance::{finance_service, history_to_csv};
use cogsdk::json::json;
use cogsdk::kb::{KbOptions, PersonalKnowledgeBase};
use cogsdk::sdk::RichSdk;
use cogsdk::sim::{Request, SimEnv};
use cogsdk::store::MemoryKv;
use std::sync::Arc;

fn main() {
    let env = SimEnv::with_seed(314);
    let sdk = RichSdk::new(&env);
    let stocks = finance_service(&env, "stocks");
    sdk.register(stocks);

    let kb = PersonalKnowledgeBase::new(Arc::new(MemoryKv::new()), KbOptions::default());

    let tickers = ["IBM", "ACME", "GLOBEX", "INITECH", "HOOLI"];
    println!(
        "pulling 120-day histories for {} tickers...\n",
        tickers.len()
    );

    for ticker in tickers {
        // Cached invocation: repeated analysis of the same ticker would
        // not re-bill the finance service.
        let (resp, _hit) = sdk
            .invoke_cached(
                "stocks",
                &Request::new(
                    "history",
                    json!({"op": "history", "ticker": (ticker), "days": 120}),
                ),
            )
            .expect("finance service reachable");
        let csv = history_to_csv(&resp.payload).expect("well-formed history");
        let table = format!("prices_{}", ticker.to_lowercase());
        kb.ingest_csv(&table, &csv).unwrap();

        // Figure 5: regression over the table, results as RDF facts.
        let facts = kb
            .regress_and_store(&table, "day", "price", &format!("{ticker} price"))
            .unwrap();
        println!(
            "{ticker:8} slope={:+.4}/day  r²={:.3}  trend stored as RDF",
            facts.slope, facts.r_squared
        );
    }

    // Classify the trends with rules; a second rule chains on the first.
    let inferred = kb
        .infer_rules(
            "[(?m kb:trend \"increasing\") -> (?m kb:signal kb:Bullish)]\n\
             [(?m kb:trend \"decreasing\") -> (?m kb:signal kb:Bearish)]",
        )
        .unwrap();
    println!("\nrule inference produced {inferred} trading signals:");
    for label in ["Bullish", "Bearish"] {
        let rows = kb
            .query(&format!(
                "SELECT ?m WHERE {{ ?m <kb:signal> <kb:{label}> . }}"
            ))
            .unwrap();
        for r in rows {
            println!("  {label:8} {}", r["m"]);
        }
    }

    // Accuracy levels: trust a signal only as far as its fit. A weighted
    // rule is a standing rule: each action is derived at 0.85 × its
    // signal's level, later bullish models gain one, and an action goes
    // if its signal is retracted.
    let weighted = kb
        .infer_rules_weighted(
            "[(?m kb:signal kb:Bullish) -> (?m kb:action kb:ConsiderBuying)]",
            0.85,
        )
        .unwrap();
    println!(
        "\nweighted inference ({} actionable facts):",
        weighted.len()
    );
    for (fact, confidence) in &weighted {
        println!("  {:55} confidence={confidence:.2}", fact.to_string());
    }

    println!(
        "\nservice spend this session: {} | statements in KB: {}",
        sdk.monitor().total_cost(),
        kb.statement_count()
    );
}
