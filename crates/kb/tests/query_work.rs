//! Work bounds of the streaming query executor, on a store shaped like
//! the benchmark's base data: rows of (item, category, score) converted
//! to two triples per item, 1 000 items per category.
//!
//! The executor's work counters are exact, so these tests pin what a
//! query costs, not how long it takes: a `LIMIT` must stop the join once
//! its last row is out, and only returned rows may be resolved to terms.

use cogsdk_core::gateway::HttpRequest;
use cogsdk_json::Json;
use cogsdk_kb::gateway::gateway_query_handler;
use cogsdk_kb::kb::{KbOptions, PersonalKnowledgeBase};
use cogsdk_sim::rng::Rng;
use cogsdk_store::kv::MemoryKv;
use std::fmt::Write as _;
use std::sync::Arc;

const ITEMS: usize = 10_000;
const CATEGORIES: usize = 10;

/// The first 20 rows of the category-3 join, recorded from the executor
/// that materialised every row before slicing (category-index order).
const FIRST_20: [&str; 20] = [
    "<kb:item_3> 122",
    "<kb:item_13> 513",
    "<kb:item_23> 238",
    "<kb:item_33> 720",
    "<kb:item_43> 328",
    "<kb:item_53> 204",
    "<kb:item_63> 874",
    "<kb:item_73> 362",
    "<kb:item_83> 979",
    "<kb:item_93> 84",
    "<kb:item_103> 915",
    "<kb:item_113> 355",
    "<kb:item_123> 325",
    "<kb:item_133> 907",
    "<kb:item_143> 515",
    "<kb:item_153> 307",
    "<kb:item_163> 131",
    "<kb:item_173> 162",
    "<kb:item_183> 171",
    "<kb:item_193> 51",
];

fn store() -> Arc<PersonalKnowledgeBase> {
    let kb = PersonalKnowledgeBase::new(Arc::new(MemoryKv::new()), KbOptions::default());
    let mut rng = Rng::new(7 ^ 0xBA5E);
    let mut csv = String::from("item,cat,score\n");
    for i in 0..ITEMS {
        let _ = writeln!(csv, "item_{i},cat_{},{}", i % CATEGORIES, rng.below(1_000));
    }
    kb.ingest_csv("items", &csv).unwrap();
    assert_eq!(kb.table_to_rdf("items", "item", "kb").unwrap(), 2 * ITEMS);
    Arc::new(kb)
}

fn join(limit: &str) -> String {
    format!(r#"SELECT ?x ?s WHERE {{ ?x <kb:cat> "cat_3" . ?x <kb:score> ?s }}{limit}"#)
}

fn rows(kb: &PersonalKnowledgeBase, sparql: &str) -> (Vec<String>, cogsdk_rdf::QueryStats) {
    let (rows, stats) = kb.query_on(&kb.query_snapshot(), sparql).unwrap();
    let rows = rows
        .iter()
        .map(|r| format!("{} {}", r["x"], r["s"]))
        .collect();
    (rows, stats)
}

#[test]
fn query_work_bounds_limit_stops_the_scan() {
    let kb = store();
    let (full, full_stats) = rows(&kb, &join(""));
    assert_eq!(full.len(), ITEMS / CATEGORIES);
    assert_eq!(
        full_stats.index_probes, 1_001,
        "one category scan, then one score probe per item"
    );
    assert_eq!(full_stats.rows_scanned, 2_000);
    assert_eq!(full_stats.rows_materialised, 1_000);

    let (page, stats) = rows(&kb, &join(" LIMIT 20"));
    assert_eq!(page, FIRST_20);
    assert_eq!(page[..], full[..20], "a LIMIT is a prefix of the full join");
    assert_eq!(stats.index_probes, 21, "the join stops after row 20");
    assert_eq!(stats.rows_scanned, 40);
    assert_eq!(stats.rows_materialised, 20);
    assert_eq!(stats.rows, 20);

    // An offset page costs the rows it skips, and no more.
    let (page, stats) = rows(&kb, &join(" OFFSET 990 LIMIT 20"));
    assert_eq!(page[..], full[990..]);
    assert_eq!(stats.index_probes, 1_001);
    assert_eq!(stats.rows_materialised, 10);
}

#[test]
fn query_work_bounds_reach_the_gateway_response() {
    let handler = gateway_query_handler(store());
    let request = HttpRequest {
        method: "POST".to_string(),
        path: "/query".to_string(),
        query: Vec::new(),
        tenant: None,
        body: Json::from_iter([("sparql".to_string(), Json::from(join(" LIMIT 20")))]).to_json(),
    };
    let out = Json::parse(handler(&request).unwrap().as_str()).unwrap();
    let stat = |name: &str| {
        out.pointer(&format!("/stats/{name}"))
            .and_then(Json::as_usize)
    };
    assert_eq!(stat("rows"), Some(20));
    assert_eq!(stat("index_probes"), Some(21));
    assert_eq!(stat("rows_scanned"), Some(40));
    assert_eq!(stat("rows_materialised"), Some(20));
    // Byte for byte what the response held when rows went through a
    // `HashMap` per row.
    let wire: String = FIRST_20
        .iter()
        .map(|row| {
            let (x, s) = row.split_once(' ').unwrap();
            format!(r#"{{"s":"{s}","x":"{x}"}}"#)
        })
        .collect::<Vec<_>>()
        .join(",");
    assert_eq!(
        out.pointer("/rows").map(Json::to_json),
        Some(format!("[{wire}]"))
    );
}
