//! Gateway glue: `POST /query` and `POST /ingest/bulk` handlers over a
//! shared knowledge base.
//!
//! The HTTP gateway (§2's cross-language surface) carries no KB
//! dependency; hosts wire query evaluation in as a closure. This module
//! builds that closure: it parses a `{"sparql": …}` body, runs the query
//! through the knowledge base's cost-based planner, and serializes rows
//! plus planner stats (and, on request, the `explain()` plan text) back
//! as JSON.
//!
//! ```text
//! POST /query
//! {"sparql": "SELECT ?c WHERE { ?c <kb:gdp> ?g }", "explain": true}
//! →
//! {"rows": [{"c": "<kb:usa>"}], "stats": {…}, "plan": "bgp 1 patterns …"}
//! ```

use crate::ingest::{chunk_documents, IngestConfig};
use crate::kb::PersonalKnowledgeBase;
use crate::KbError;
use cogsdk_core::gateway::{IngestHandler, QueryHandler};
use cogsdk_core::ThreadPool;
use cogsdk_json::Json;
use cogsdk_rdf::Query;
use std::sync::Arc;

/// Builds a [`QueryHandler`] for
/// [`HttpGateway::set_query_handler`](cogsdk_core::HttpGateway::set_query_handler)
/// over a shared knowledge base.
///
/// Each call publishes the same `sdk_query_*` metrics as
/// [`PersonalKnowledgeBase::query_with_stats`] (plan time, result rows,
/// join strategy counts — tenant-labeled when the base is attributed to
/// one). Rows are written into the response straight from the executor's
/// id rows, and `stats` adds the executor's work counters
/// (`index_probes`, `rows_scanned`, `rows_materialised`). Body fields:
///
/// * `sparql` (string, required) — the query text.
/// * `explain` (bool, optional) — include the `explain()` rendering of
///   the plan that ran as a `plan` field.
/// * `epoch` (integer, optional) — pin the query to a previously
///   reported snapshot epoch instead of the current one, so
///   `OFFSET`/`LIMIT` pages tile one consistent result set while ingest
///   continues. The response's `epoch` field reports the epoch actually
///   used; send it back on the next page. A request naming an epoch the
///   store no longer retains fails, telling the pager to restart.
pub fn gateway_query_handler(kb: Arc<PersonalKnowledgeBase>) -> QueryHandler {
    Box::new(move |request| {
        let body = Json::parse(&request.body).map_err(|e| format!("invalid JSON body: {e}"))?;
        let sparql = body
            .get("sparql")
            .and_then(Json::as_str)
            .ok_or("body needs a string 'sparql' field")?;
        let explain = body.get("explain").and_then(Json::as_bool).unwrap_or(false);
        let snapshot = match body.get("epoch").and_then(Json::as_usize) {
            Some(epoch) => kb.query_snapshot_at(epoch as u64).ok_or(format!(
                "epoch {epoch} is no longer retained; restart paging from a fresh snapshot"
            ))?,
            None => kb.query_snapshot(),
        };
        let query =
            Query::parse(sparql).map_err(|e| format!("query failed: {}", KbError::from(e)))?;
        let plan = query.plan(&*snapshot);
        // Each row is an object keyed by variable name in sorted order, so
        // the wire format is deterministic; a repeated SELECT variable is
        // one key.
        let mut columns = query.columns(&plan);
        columns.sort_unstable();
        columns.dedup();
        let dict = snapshot.dict();
        let mut rows = Vec::new();
        let stats = query.run(&plan, &*snapshot, |row| {
            let fields = columns.iter().filter_map(|&(var, i)| {
                Some((
                    var.to_string(),
                    Json::from(dict.resolve_ref(row[i]?).to_string()),
                ))
            });
            rows.push(fields.collect::<Json>());
        });
        kb.publish_query_metrics(&stats);
        let mut stats_json = Json::object();
        stats_json.insert("rows", stats.rows);
        stats_json.insert("plan_micros", stats.plan_micros as usize);
        stats_json.insert("merge_joins", stats.merge_joins);
        stats_json.insert("nested_loop_joins", stats.loop_joins);
        stats_json.insert("patterns", stats.patterns);
        stats_json.insert("index_probes", stats.index_probes);
        stats_json.insert("rows_scanned", stats.rows_scanned);
        stats_json.insert("rows_materialised", stats.rows_materialised);
        let mut out = Json::object();
        out.insert("rows", Json::Array(rows));
        out.insert("stats", stats_json);
        out.insert("epoch", snapshot.epoch() as usize);
        if explain {
            // The plan that produced the rows, on the epoch they came from.
            out.insert("plan", plan.explain());
        }
        Ok(out)
    })
}

/// Builds an [`IngestHandler`] for
/// [`HttpGateway::set_ingest_handler`](cogsdk_core::HttpGateway::set_ingest_handler):
/// `POST /ingest/bulk` streams the request's documents through the
/// knowledge base's pipelined bulk loader
/// ([`PersonalKnowledgeBase::ingest_stream`]) on the shared thread pool.
/// Body fields:
///
/// * `documents` (array of strings) — one entry per document; **or**
/// * `text` (string) — a corpus chunked into documents on blank-line
///   boundaries.
/// * `batch_size`, `workers`, `max_in_flight` (integers, optional) —
///   pipeline tuning; defaults from [`IngestConfig::default`].
///
/// The response reports the committed work:
///
/// ```text
/// {"documents": 1000, "batches": 4, "statements": 5210,
///  "docs_per_sec": 8421.3, "peak_in_flight": 512}
/// ```
///
/// A commit failure answers as an error (the gateway serves it as a
/// 400); batches acked before the failure remain durable.
pub fn gateway_ingest_handler(
    kb: Arc<PersonalKnowledgeBase>,
    pool: Arc<ThreadPool>,
) -> IngestHandler {
    Box::new(move |request| {
        let body = Json::parse(&request.body).map_err(|e| format!("invalid JSON body: {e}"))?;
        let docs: Vec<String> = if let Some(list) = body.get("documents").and_then(Json::as_array) {
            list.iter()
                .map(|d| {
                    d.as_str()
                        .map(str::to_string)
                        .ok_or("'documents' entries must be strings")
                })
                .collect::<Result<_, _>>()?
        } else if let Some(text) = body.get("text").and_then(Json::as_str) {
            chunk_documents(text).map(str::to_string).collect()
        } else {
            return Err("body needs a 'documents' array or a 'text' string".to_string());
        };
        let mut config = IngestConfig::default();
        if let Some(n) = body.get("batch_size").and_then(Json::as_usize) {
            config.batch_size = n;
        }
        if let Some(n) = body.get("workers").and_then(Json::as_usize) {
            config.workers = n;
        }
        if let Some(n) = body.get("max_in_flight").and_then(Json::as_usize) {
            config.max_in_flight = n;
        }
        let report = kb
            .ingest_stream(&pool, docs, config)
            .map_err(|e| format!("ingest failed: {e}"))?;
        let mut out = Json::object();
        out.insert("documents", report.documents);
        out.insert("batches", report.batches);
        out.insert("statements", report.statements);
        out.insert("docs_per_sec", report.docs_per_sec);
        out.insert("peak_in_flight", report.peak_in_flight);
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::KbOptions;
    use cogsdk_core::gateway::HttpRequest;
    use cogsdk_rdf::{Statement, Term};
    use cogsdk_store::kv::{KeyValueStore, MemoryKv};

    fn sample_kb() -> Arc<PersonalKnowledgeBase> {
        let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
        let kb = PersonalKnowledgeBase::new(remote, KbOptions::default());
        for (s, g) in [("kb:usa", 21000), ("kb:germany", 4200)] {
            kb.add_statement(Statement::new(
                Term::iri(s),
                Term::iri("kb:gdp"),
                Term::integer(g),
            ))
            .unwrap();
        }
        Arc::new(kb)
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

    #[test]
    fn handler_runs_a_query_and_reports_stats() {
        let handler = gateway_query_handler(sample_kb());
        let out = handler(&post(
            r#"{"sparql": "SELECT ?c WHERE { ?c <kb:gdp> ?g } ORDER BY ?g"}"#,
        ))
        .unwrap();
        assert_eq!(
            out.pointer("/rows/0/c").and_then(Json::as_str),
            Some("<kb:germany>")
        );
        assert_eq!(
            out.pointer("/rows/1/c").and_then(Json::as_str),
            Some("<kb:usa>")
        );
        assert_eq!(out.pointer("/stats/rows").and_then(Json::as_usize), Some(2));
        assert_eq!(
            out.pointer("/stats/patterns").and_then(Json::as_usize),
            Some(1)
        );
        assert!(out.get("plan").is_none(), "plan only on explain=true");
    }

    #[test]
    fn handler_attaches_the_plan_on_request() {
        let handler = gateway_query_handler(sample_kb());
        let out = handler(&post(
            r#"{"sparql": "SELECT ?c WHERE { ?c <kb:gdp> ?g }", "explain": true}"#,
        ))
        .unwrap();
        let plan = out.get("plan").and_then(Json::as_str).unwrap();
        assert!(plan.starts_with("bgp 1 patterns"), "{plan}");
    }

    #[test]
    fn paging_pinned_to_an_epoch_ignores_later_ingest() {
        let kb = sample_kb();
        let handler = gateway_query_handler(kb.clone());
        let first = handler(&post(
            r#"{"sparql": "SELECT ?c WHERE { ?c <kb:gdp> ?g } ORDER BY ?g LIMIT 1"}"#,
        ))
        .unwrap();
        let epoch = first.get("epoch").and_then(Json::as_usize).unwrap();
        // Ingest moves the live graph on between pages.
        kb.add_statement(Statement::new(
            Term::iri("kb:japan"),
            Term::iri("kb:gdp"),
            Term::integer(5000),
        ))
        .unwrap();
        // The second page, pinned to the first page's epoch, tiles the
        // original result set — kb:japan is invisible to it.
        let body = format!(
            r#"{{"sparql": "SELECT ?c WHERE {{ ?c <kb:gdp> ?g }} ORDER BY ?g OFFSET 1 LIMIT 10", "epoch": {epoch}}}"#
        );
        let page2 = handler(&post(&body)).unwrap();
        assert_eq!(
            page2.pointer("/rows/0/c").and_then(Json::as_str),
            Some("<kb:usa>")
        );
        assert_eq!(
            page2.pointer("/stats/rows").and_then(Json::as_usize),
            Some(1)
        );
        assert_eq!(page2.get("epoch").and_then(Json::as_usize), Some(epoch));
        // An unpinned query runs on the newest epoch and sees the ingest.
        let fresh = handler(&post(r#"{"sparql": "SELECT ?c WHERE { ?c <kb:gdp> ?g }"}"#)).unwrap();
        assert_eq!(
            fresh.pointer("/stats/rows").and_then(Json::as_usize),
            Some(3)
        );
        assert!(fresh.get("epoch").and_then(Json::as_usize).unwrap() > epoch);
    }

    #[test]
    fn explain_renders_the_plan_that_ran_on_the_pinned_epoch() {
        let kb = sample_kb();
        let handler = gateway_query_handler(kb.clone());
        let epoch = kb.query_snapshot().epoch();
        kb.add_statement(Statement::new(
            Term::iri("kb:japan"),
            Term::iri("kb:gdp"),
            Term::integer(5000),
        ))
        .unwrap();
        let body = format!(
            r#"{{"sparql": "SELECT ?c WHERE {{ ?c <kb:gdp> ?g }}", "explain": true, "epoch": {epoch}}}"#
        );
        let out = handler(&post(&body)).unwrap();
        let plan = out.get("plan").and_then(Json::as_str).unwrap();
        // The pinned epoch holds two gdp facts; the current one holds three.
        assert!(plan.contains("est=2"), "{plan}");
        assert_eq!(out.pointer("/stats/rows").and_then(Json::as_usize), Some(2));
    }

    #[test]
    fn stats_report_the_executor_work_counters() {
        let handler = gateway_query_handler(sample_kb());
        let out = handler(&post(
            r#"{"sparql": "SELECT ?c ?c WHERE { ?c <kb:gdp> ?g } LIMIT 1"}"#,
        ))
        .unwrap();
        let stat = |name: &str| {
            out.pointer(&format!("/stats/{name}"))
                .and_then(Json::as_usize)
        };
        assert_eq!(stat("index_probes"), Some(1));
        assert_eq!(stat("rows_scanned"), Some(1), "LIMIT 1 stops the scan");
        assert_eq!(stat("rows_materialised"), Some(1));
        // A variable selected twice is still one key in its row.
        assert_eq!(
            out.pointer("/rows/0").map(Json::to_json).as_deref(),
            Some(r#"{"c":"<kb:usa>"}"#)
        );
    }

    #[test]
    fn unretained_epochs_are_rejected() {
        let handler = gateway_query_handler(sample_kb());
        let err = handler(&post(
            r#"{"sparql": "SELECT ?c WHERE { ?c <kb:gdp> ?g }", "epoch": 999}"#,
        ))
        .unwrap_err();
        assert!(err.contains("no longer retained"), "{err}");
    }

    #[test]
    fn handler_rejects_bad_bodies() {
        let handler = gateway_query_handler(sample_kb());
        assert!(handler(&post("not json"))
            .unwrap_err()
            .starts_with("invalid JSON body"));
        assert!(handler(&post(r#"{"explain": true}"#))
            .unwrap_err()
            .contains("sparql"));
        assert!(handler(&post(r#"{"sparql": "SELECT"}"#))
            .unwrap_err()
            .starts_with("query failed"));
    }

    fn post_ingest(body: &str) -> HttpRequest {
        HttpRequest {
            method: "POST".to_string(),
            path: "/ingest/bulk".to_string(),
            query: Vec::new(),
            tenant: None,
            body: body.to_string(),
        }
    }

    #[test]
    fn ingest_handler_streams_a_documents_array() {
        let kb = sample_kb();
        let pool = Arc::new(cogsdk_core::ThreadPool::new(2));
        let handler = gateway_ingest_handler(kb.clone(), pool);
        let out = handler(&post_ingest(
            r#"{"documents": ["IBM acquired Oracle.", "The USA praised the deal."],
                "batch_size": 2, "workers": 1}"#,
        ))
        .unwrap();
        assert_eq!(out.get("documents").and_then(Json::as_usize), Some(2));
        assert_eq!(out.get("batches").and_then(Json::as_usize), Some(1));
        assert!(out.get("statements").and_then(Json::as_usize).unwrap() > 0);
        let mentions = kb
            .query("SELECT ?d WHERE { ?d <kb:mentions> <kb:ibm> }")
            .unwrap();
        assert_eq!(mentions.len(), 1);
    }

    #[test]
    fn ingest_handler_chunks_a_text_corpus_on_blank_lines() {
        let kb = sample_kb();
        let pool = Arc::new(cogsdk_core::ThreadPool::new(2));
        let handler = gateway_ingest_handler(kb.clone(), pool);
        let out = handler(&post_ingest(
            r#"{"text": "IBM acquired Oracle.\n\nThe USA praised the deal."}"#,
        ))
        .unwrap();
        assert_eq!(out.get("documents").and_then(Json::as_usize), Some(2));
        let docs = kb
            .query("SELECT ?d WHERE { ?d <rdf:type> <kb:Document> }")
            .unwrap();
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn ingest_handler_rejects_bad_bodies() {
        let pool = Arc::new(cogsdk_core::ThreadPool::new(1));
        let handler = gateway_ingest_handler(sample_kb(), pool);
        assert!(handler(&post_ingest("not json"))
            .unwrap_err()
            .starts_with("invalid JSON body"));
        assert!(handler(&post_ingest(r#"{"batch_size": 4}"#))
            .unwrap_err()
            .contains("documents"));
        assert!(handler(&post_ingest(r#"{"documents": [42]}"#))
            .unwrap_err()
            .contains("strings"));
    }
}
