//! Gateway glue: `POST /query` and `POST /ingest/bulk` handlers over a
//! shared knowledge base.
//!
//! The HTTP gateway (§2's cross-language surface) carries no KB
//! dependency; hosts wire query evaluation in as a closure. This module
//! builds that closure: it parses a `{"sparql": …}` body, runs the query
//! through the knowledge base's cost-based planner, and writes the rows
//! straight into the response text as the executor hands them over —
//! no `Json` tree per row, no `String` per cell — followed by the
//! planner stats (and, on request, the `explain()` plan text).
//!
//! ```text
//! POST /query
//! {"sparql": "SELECT ?c WHERE { ?c <kb:gdp> ?g }", "explain": true}
//! →
//! {"rows": [{"c": "<kb:usa>"}], "stats": {…}, "epoch": 7, "plan": "bgp 1 patterns …"}
//! ```

use crate::ingest::{chunk_documents, IngestConfig};
use crate::kb::PersonalKnowledgeBase;
use crate::KbError;
use cogsdk_core::gateway::{HttpRequest, RouteError, RouteHandler};
use cogsdk_core::ThreadPool;
use cogsdk_json::{write_display, Json, JsonText};
use cogsdk_rdf::{EpochSnapshot, ExecPlan, Query, QueryStats};
use std::sync::Arc;

/// Builds the `POST /query` [`RouteHandler`] over a shared knowledge base,
/// for [`HttpGateway::mount`](cogsdk_core::HttpGateway::mount).
///
/// Each call publishes the same `sdk_query_*` metrics as
/// [`PersonalKnowledgeBase::query_with_stats`] (plan time, result rows,
/// join strategy counts — tenant-labeled when the base is attributed to
/// one). Rows are written into the response text straight from the
/// executor's id rows, each term through its `Display` and an escaping
/// writer, and `stats` adds the executor's work counters
/// (`index_probes`, `rows_scanned`, `rows_materialised`). Every error is
/// found before the first byte is written, so a 400 never carries a
/// partial body. Body fields:
///
/// * `sparql` (string, required) — the query text.
/// * `explain` (bool, optional) — include the `explain()` rendering of
///   the plan that ran as a `plan` field. Any other present value is
///   rejected.
/// * `epoch` (non-negative integer, optional) — pin the query to a
///   previously reported snapshot epoch instead of the current one, so
///   `OFFSET`/`LIMIT` pages tile one consistent result set while ingest
///   continues. The response's `epoch` field reports the epoch actually
///   used; send it back on the next page. A request naming an epoch the
///   store no longer retains fails, telling the pager to restart; one
///   whose `epoch` is not a non-negative integer fails too, rather than
///   silently running on the newest epoch.
pub fn gateway_query_handler(kb: Arc<PersonalKnowledgeBase>) -> RouteHandler {
    Box::new(move |request| {
        let planned = PlannedQuery::from_request(&kb, request)?;
        let mut out = String::with_capacity(1024);
        let stats = planned.write_rows(&mut out);
        kb.publish_query_metrics(&stats);
        planned.write_tail(&mut out, &stats);
        Ok(JsonText::from_written(out))
    })
}

/// One `POST /query` request, validated and planned on the epoch it runs
/// on.
struct PlannedQuery {
    query: Query,
    plan: ExecPlan,
    snapshot: Arc<EpochSnapshot>,
    explain: bool,
}

impl PlannedQuery {
    /// Parses and checks the body, pins the snapshot and plans the query:
    /// every way a request can fail.
    fn from_request(kb: &PersonalKnowledgeBase, request: &HttpRequest) -> Result<Self, String> {
        let body = Json::parse(&request.body).map_err(|e| format!("invalid JSON body: {e}"))?;
        let sparql = body
            .get("sparql")
            .and_then(Json::as_str)
            .ok_or("body needs a string 'sparql' field")?;
        let explain = match body.get("explain") {
            None => false,
            Some(flag) => flag.as_bool().ok_or("'explain' must be a boolean")?,
        };
        let snapshot = match usize_field(&body, "epoch")? {
            None => kb.query_snapshot(),
            Some(epoch) => kb.query_snapshot_at(epoch as u64).ok_or(format!(
                "epoch {epoch} is no longer retained; restart paging from a fresh snapshot"
            ))?,
        };
        let query =
            Query::parse(sparql).map_err(|e| format!("query failed: {}", KbError::from(e)))?;
        let plan = query.plan(&*snapshot);
        Ok(PlannedQuery {
            query,
            plan,
            snapshot,
            explain,
        })
    }

    /// The output columns: `(variable, row index)` sorted by variable so
    /// the wire format is deterministic; a repeated SELECT variable is
    /// one key.
    fn columns(&self) -> Vec<(&str, usize)> {
        let mut columns = self.query.columns(&self.plan);
        columns.sort_unstable();
        columns.dedup();
        columns
    }

    /// Runs the query, writing `{"rows":[` and one object per row, keyed
    /// by [`columns`](Self::columns) with unbound ones omitted, into
    /// `out` as the executor emits each id row.
    fn write_rows(&self, out: &mut String) -> QueryStats {
        // Each column's `"var":`, escaped once per query.
        let keys: Vec<(String, usize)> = self
            .columns()
            .into_iter()
            .map(|(var, i)| (format!("{}:", Json::from(var).to_json()), i))
            .collect();
        let dict = self.snapshot.dict();
        out.push_str("{\"rows\":[");
        let mut row_sep = "";
        self.query.run(&self.plan, &*self.snapshot, |row| {
            out.push_str(row_sep);
            row_sep = ",";
            out.push('{');
            let mut field_sep = "";
            for (key, i) in &keys {
                if let Some(id) = row[*i] {
                    out.push_str(field_sep);
                    field_sep = ",";
                    out.push_str(key);
                    write_display(out, dict.resolve_ref(id));
                }
            }
            out.push('}');
        })
    }

    /// Closes the rows and appends `stats`, `epoch` and, on request, the
    /// plan, ending the response object.
    fn write_tail(&self, out: &mut String, stats: &QueryStats) {
        out.push_str("],\"stats\":");
        stats_json(stats).write_to(out);
        out.push_str(",\"epoch\":");
        Json::from(self.snapshot.epoch() as usize).write_to(out);
        if self.explain {
            // The plan that produced the rows, on the epoch they came from.
            out.push_str(",\"plan\":");
            write_display(out, self.plan.explain());
        }
        out.push('}');
    }
}

/// An optional non-negative integer field of a request body: `None` when
/// absent, an error naming the field when present but anything else.
fn usize_field(body: &Json, field: &str) -> Result<Option<usize>, String> {
    body.get(field)
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| format!("'{field}' must be a non-negative integer"))
        })
        .transpose()
}

/// The response's `stats` object.
fn stats_json(stats: &QueryStats) -> Json {
    let mut out = Json::object();
    out.insert("rows", stats.rows);
    out.insert("plan_micros", stats.plan_micros as usize);
    out.insert("merge_joins", stats.merge_joins);
    out.insert("nested_loop_joins", stats.loop_joins);
    out.insert("patterns", stats.patterns);
    out.insert("index_probes", stats.index_probes);
    out.insert("rows_scanned", stats.rows_scanned);
    out.insert("rows_materialised", stats.rows_materialised);
    out
}

/// Builds the `POST /ingest/bulk` [`RouteHandler`], for
/// [`HttpGateway::mount`](cogsdk_core::HttpGateway::mount): it streams the
/// request's documents through the knowledge base's batched bulk loader
/// ([`PersonalKnowledgeBase::ingest_stream`]) on the shared thread pool.
/// Body fields:
///
/// * `documents` (array of strings) — one entry per document; **or**
/// * `text` (string) — a corpus chunked into documents on blank-line
///   boundaries.
/// * `batch_size`, `workers`, `max_in_flight` (non-negative integers,
///   optional) — pipeline tuning; defaults from
///   [`IngestConfig::default`]. A present field of any other shape fails
///   the request rather than silently meaning the default.
///
/// The response reports the committed work:
///
/// ```text
/// {"documents": 1000, "batches": 4, "statements": 5210,
///  "docs_per_sec": 8421.3, "peak_in_flight": 512}
/// ```
///
/// A malformed body answers 400. A commit failure answers 500; batches
/// acked before the failure remain durable. Each batch of a request is
/// analyzed by at most `workers` pool jobs, and never by more jobs than
/// it has documents, so the tuning fields cannot flood the pool.
pub fn gateway_ingest_handler(
    kb: Arc<PersonalKnowledgeBase>,
    pool: Arc<ThreadPool>,
) -> RouteHandler {
    Box::new(move |request| {
        let mut body = Json::parse(&request.body).map_err(|e| format!("invalid JSON body: {e}"))?;
        // The entry `get` would read, taken out of the body so each
        // document's text moves into the loader instead of being copied.
        let documents = match &mut body {
            Json::Object(fields) => fields
                .iter_mut()
                .rev()
                .find(|(k, _)| k == "documents")
                .map(|(_, v)| std::mem::take(v)),
            _ => None,
        };
        let docs: Vec<String> = if let Some(Json::Array(list)) = documents {
            list.into_iter()
                .map(|d| match d {
                    Json::String(doc) => Ok(doc),
                    _ => Err("'documents' entries must be strings"),
                })
                .collect::<Result<_, _>>()?
        } else if let Some(text) = body.get("text").and_then(Json::as_str) {
            chunk_documents(text).map(str::to_string).collect()
        } else {
            return Err("body needs a 'documents' array or a 'text' string".into());
        };
        let mut config = IngestConfig::default();
        if let Some(n) = usize_field(&body, "batch_size")? {
            config.batch_size = n;
        }
        if let Some(n) = usize_field(&body, "workers")? {
            config.workers = n;
        }
        if let Some(n) = usize_field(&body, "max_in_flight")? {
            config.max_in_flight = n;
        }
        let report = kb
            .ingest_stream(&pool, docs, config)
            .map_err(|e| RouteError::server(format!("ingest failed: {e}")))?;
        let mut out = Json::object();
        out.insert("documents", report.documents);
        out.insert("batches", report.batches);
        out.insert("statements", report.statements);
        out.insert("docs_per_sec", report.docs_per_sec);
        out.insert("peak_in_flight", report.peak_in_flight);
        Ok(JsonText::from(out))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::KbOptions;
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

    /// The handler, with each answer parsed once for `pointer` checks.
    fn parsing(handler: RouteHandler) -> impl Fn(&HttpRequest) -> Result<Json, String> {
        move |request| {
            handler(request)
                .map(|text| Json::parse(text.as_str()).expect("the handler writes JSON"))
                .map_err(|e| e.message)
        }
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
        let handler = parsing(gateway_query_handler(sample_kb()));
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
        let handler = parsing(gateway_query_handler(sample_kb()));
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
        let handler = parsing(gateway_query_handler(kb.clone()));
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
        let handler = parsing(gateway_query_handler(kb.clone()));
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
        let handler = parsing(gateway_query_handler(sample_kb()));
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
        let handler = parsing(gateway_query_handler(sample_kb()));
        let err = handler(&post(
            r#"{"sparql": "SELECT ?c WHERE { ?c <kb:gdp> ?g }", "epoch": 999}"#,
        ))
        .unwrap_err();
        assert!(err.contains("no longer retained"), "{err}");
    }

    #[test]
    fn handler_rejects_bad_bodies() {
        let handler = parsing(gateway_query_handler(sample_kb()));
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

    /// The handler's error for `{"sparql": …}` plus `flag`.
    fn flag_error(flag: &str) -> String {
        let handler = gateway_query_handler(sample_kb());
        let body = format!(r#"{{"sparql": "SELECT ?c WHERE {{ ?c <kb:gdp> ?g }}", {flag}}}"#);
        handler(&post(&body)).unwrap_err().message
    }

    #[test]
    fn query_flags_reject_a_string_epoch() {
        let err = flag_error(r#""epoch": "7""#);
        assert_eq!(err, "'epoch' must be a non-negative integer");
    }

    #[test]
    fn query_flags_reject_a_negative_epoch() {
        let err = flag_error(r#""epoch": -1"#);
        assert_eq!(err, "'epoch' must be a non-negative integer");
    }

    #[test]
    fn query_flags_reject_a_fractional_epoch() {
        let err = flag_error(r#""epoch": 2.5"#);
        assert_eq!(err, "'epoch' must be a non-negative integer");
    }

    #[test]
    fn query_flags_reject_a_null_epoch() {
        let err = flag_error(r#""epoch": null"#);
        assert_eq!(err, "'epoch' must be a non-negative integer");
    }

    #[test]
    fn query_flags_reject_a_non_boolean_explain() {
        let err = flag_error(r#""explain": "yes""#);
        assert_eq!(err, "'explain' must be a boolean");
    }

    #[test]
    fn query_flags_reject_a_numeric_explain() {
        let err = flag_error(r#""explain": 1"#);
        assert_eq!(err, "'explain' must be a boolean");
    }

    /// The response as the handler built it before rows were written
    /// straight into the text: one `Json` object per row, one `String`
    /// per cell, then the whole tree serialised. Runs the query again and
    /// renders it with `stats`.
    fn tree_response(planned: &PlannedQuery, stats: &QueryStats) -> Json {
        let columns = planned.columns();
        let dict = planned.snapshot.dict();
        let mut rows = Vec::new();
        let rerun = planned.query.run(&planned.plan, &*planned.snapshot, |row| {
            let fields = columns.iter().filter_map(|&(var, i)| {
                Some((
                    var.to_string(),
                    Json::from(dict.resolve_ref(row[i]?).to_string()),
                ))
            });
            rows.push(fields.collect::<Json>());
        });
        assert_eq!(rerun, *stats, "the same plan does the same work");
        let mut out = Json::object();
        out.insert("rows", Json::Array(rows));
        out.insert("stats", stats_json(stats));
        out.insert("epoch", planned.snapshot.epoch() as usize);
        if planned.explain {
            out.insert("plan", planned.plan.explain());
        }
        out
    }

    /// Terms that need every kind of escape, blank nodes, and subjects
    /// with and without the optional `ex:nick`.
    fn hostile_kb() -> Arc<PersonalKnowledgeBase> {
        let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
        let kb = PersonalKnowledgeBase::new(remote, KbOptions::default());
        let iri = Term::iri;
        for (s, p, o) in [
            (
                iri("ex:a"),
                "ex:name",
                Term::string("q\"b\\t\tn\nr\rc\u{1}\u{8}\u{c}\u{1f}é日本😀\u{7f}"),
            ),
            (iri("ex:wé\"ird\\iri\n"), "ex:name", Term::string("plain")),
            (Term::blank("b1"), "ex:name", Term::string("blank \"node\"")),
            (iri("ex:a"), "ex:knows", Term::blank("b1")),
            (iri("ex:a"), "ex:nick", Term::string("nick\\\"")),
            (iri("ex:a"), "ex:score", Term::integer(-3)),
            (iri("ex:wé\"ird\\iri\n"), "ex:score", Term::double(2.5)),
            (Term::blank("b1"), "ex:flag", Term::boolean(true)),
        ] {
            kb.add_statement(Statement::new(s, iri(p), o)).unwrap();
        }
        Arc::new(kb)
    }

    /// Blanks out the digits of `"plan_micros":`, the one timing.
    fn mask_plan_micros(text: &str) -> String {
        let key = "\"plan_micros\":";
        let at = text.find(key).expect("stats carry plan_micros") + key.len();
        let digits = text[at..].bytes().take_while(u8::is_ascii_digit).count();
        format!("{}#{}", &text[..at], &text[at + digits..])
    }

    #[test]
    fn written_rows_match_the_tree_oracle_byte_for_byte() {
        let kb = hostile_kb();
        let pinned = kb.query_snapshot().epoch();
        // A later epoch holds one more named subject than the pinned one.
        kb.add_statement(Statement::new(
            Term::iri("ex:late"),
            Term::iri("ex:name"),
            Term::string("late"),
        ))
        .unwrap();
        let handler = gateway_query_handler(kb.clone());
        let queries = [
            "SELECT ?s ?n WHERE { ?s <ex:name> ?n }",
            "SELECT ?s ?n ?k WHERE { ?s <ex:name> ?n . OPTIONAL { ?s <ex:nick> ?k } } ORDER BY ?n",
            "SELECT ?k WHERE { ?s <ex:name> ?n . OPTIONAL { ?s <ex:nick> ?k } }",
            "SELECT ?n ?s ?n WHERE { ?s <ex:name> ?n } ORDER BY ?s OFFSET 1 LIMIT 2",
            "SELECT ?x ?y ?n WHERE { ?x <ex:knows> ?y . ?y <ex:name> ?n }",
            "SELECT ?s ?v WHERE { { ?s <ex:score> ?v } UNION { ?s <ex:flag> ?v } } ORDER BY ?v",
            "SELECT * WHERE { ?s ?p ?o }",
            "SELECT ?s WHERE { ?s <ex:name> ?n . FILTER (?n = \"plain\") }",
            "SELECT ?s WHERE { ?s <ex:never> ?o }",
            "SELECT ?s WHERE { ?s <ex:name> ?n } LIMIT 0",
        ];
        let mut rows_seen = 0;
        for sparql in queries {
            for (explain, epoch) in [
                (None, None),
                (Some(true), None),
                (Some(false), Some(pinned)),
                (Some(true), Some(pinned)),
            ] {
                let mut body = Json::object();
                body.insert("sparql", sparql);
                if let Some(explain) = explain {
                    body.insert("explain", explain);
                }
                if let Some(epoch) = epoch {
                    body.insert("epoch", epoch as usize);
                }
                let request = post(&body.to_json());
                let planned = PlannedQuery::from_request(&kb, &request).unwrap();
                let mut written = String::new();
                let stats = planned.write_rows(&mut written);
                planned.write_tail(&mut written, &stats);
                let oracle = tree_response(&planned, &stats).to_json();
                assert_eq!(written, oracle, "{body}");
                rows_seen += stats.rows;
                // The handler's own answer, but for its plan timing.
                let served = handler(&request).unwrap();
                assert_eq!(
                    mask_plan_micros(served.as_str()),
                    mask_plan_micros(&oracle),
                    "{body}"
                );
            }
        }
        assert!(rows_seen > 40, "the corpus returns rows: {rows_seen}");
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
        let handler = parsing(gateway_ingest_handler(kb.clone(), pool));
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
        let handler = parsing(gateway_ingest_handler(kb.clone(), pool));
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
            .message
            .starts_with("invalid JSON body"));
        assert!(handler(&post_ingest(r#"{"batch_size": 4}"#))
            .unwrap_err()
            .message
            .contains("documents"));
        assert!(handler(&post_ingest(r#"{"documents": [42]}"#))
            .unwrap_err()
            .message
            .contains("strings"));
    }

    #[test]
    fn ingest_submits_at_most_one_pool_job_per_document() {
        let telemetry = cogsdk_obs::Telemetry::new();
        let pool = Arc::new(cogsdk_core::ThreadPool::with_telemetry(
            2,
            telemetry.clone(),
        ));
        let handler = parsing(gateway_ingest_handler(sample_kb(), pool));
        let out = handler(&post_ingest(
            r#"{"documents": ["IBM acquired Oracle.", "Google praised Microsoft.",
                "The USA praised the deal."], "workers": 64}"#,
        ))
        .unwrap();
        assert_eq!(out.get("documents").and_then(Json::as_usize), Some(3));
        let jobs = telemetry
            .metrics()
            .counter_value("pool_jobs_total", &[])
            .unwrap_or(0);
        assert!(jobs <= 3, "3 documents took {jobs} pool jobs");
    }

    /// A gateway answering `/ingest/bulk` into `kb`.
    fn ingest_gateway(kb: Arc<PersonalKnowledgeBase>) -> cogsdk_core::HttpGateway {
        let env = cogsdk_sim::SimEnv::with_seed(3);
        let sdk = Arc::new(cogsdk_core::RichSdk::new(&env));
        let mut gateway = cogsdk_core::HttpGateway::new(sdk);
        let pool = Arc::new(cogsdk_core::ThreadPool::new(1));
        gateway.set_ingest_handler(gateway_ingest_handler(kb, pool));
        gateway
    }

    #[test]
    fn ingest_accepts_tuning_fields_of_any_size() {
        let kb = sample_kb();
        let before = kb.statement_count();
        let huge = 1_000_000_000_000_000usize;
        let response = ingest_gateway(kb.clone()).handle(&post_ingest(&format!(
            r#"{{"documents": ["IBM acquired Oracle."], "batch_size": {huge},
                "workers": {huge}, "max_in_flight": {huge}}}"#
        )));
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(kb.statement_count() > before);
    }

    #[test]
    fn a_failed_ingest_commit_answers_500() {
        let fs = Arc::new(cogsdk_sim::SimFs::new(21));
        let kb = PersonalKnowledgeBase::open_durable_on(
            fs.clone(),
            Arc::new(MemoryKv::new()),
            KbOptions::default(),
            cogsdk_obs::Telemetry::disabled(),
        )
        .unwrap();
        let gateway = ingest_gateway(Arc::new(kb));
        // The batch's WAL append is the next storage operation.
        fs.fail_after_ops(0);
        let response = gateway.handle(&post_ingest(r#"{"documents": ["IBM acquired Oracle."]}"#));
        assert_eq!(response.status, 500, "{}", response.body);
        assert!(response.body.contains("ingest failed"), "{}", response.body);
        // A malformed body is still the client's fault.
        assert_eq!(gateway.handle(&post_ingest("not json")).status, 400);
    }

    #[test]
    fn a_panicking_ingest_analysis_answers_500() {
        let gateway = ingest_gateway(sample_kb());
        let body = format!(
            r#"{{"documents": ["IBM acquired Oracle.", "{}"]}}"#,
            crate::ingest::tests::PANICKING_DOCUMENT
        );
        let response = crate::ingest::tests::within(move || {
            let response = gateway.handle(&post_ingest(&body));
            // The pool's one worker survived: the next ingest commits.
            let next = gateway.handle(&post_ingest(r#"{"documents": ["IBM acquired Oracle."]}"#));
            (response, next.status)
        });
        let (response, next) = response.expect("the handler returns");
        assert_eq!(response.status, 500, "{}", response.body);
        // The handler's own error, not the gateway's catch of a panic.
        let body = &response.body;
        assert!(body.contains("ingest failed: panicked"), "{body}");
        assert_eq!(next, 200);
    }

    /// The ingest handler's error for a one-document body plus `flag`.
    fn ingest_flag_error(flag: &str) -> String {
        let pool = Arc::new(cogsdk_core::ThreadPool::new(1));
        let kb = sample_kb();
        let before = kb.statement_count();
        let handler = gateway_ingest_handler(kb.clone(), pool);
        let body = format!(r#"{{"documents": ["IBM acquired Oracle."], {flag}}}"#);
        let err = handler(&post_ingest(&body)).unwrap_err().message;
        assert_eq!(
            kb.statement_count(),
            before,
            "a rejected request ingests nothing"
        );
        err
    }

    const INGEST_FLAGS: [&str; 3] = ["batch_size", "workers", "max_in_flight"];

    #[test]
    fn ingest_flags_reject_strings() {
        for field in INGEST_FLAGS {
            let err = ingest_flag_error(&format!(r#""{field}": "2""#));
            assert_eq!(err, format!("'{field}' must be a non-negative integer"));
        }
    }

    #[test]
    fn ingest_flags_reject_negatives() {
        for field in INGEST_FLAGS {
            let err = ingest_flag_error(&format!(r#""{field}": -1"#));
            assert_eq!(err, format!("'{field}' must be a non-negative integer"));
        }
    }

    #[test]
    fn ingest_flags_reject_fractions() {
        for field in INGEST_FLAGS {
            let err = ingest_flag_error(&format!(r#""{field}": 2.5"#));
            assert_eq!(err, format!("'{field}' must be a non-negative integer"));
        }
    }

    #[test]
    fn ingest_flags_reject_nulls() {
        for field in INGEST_FLAGS {
            let err = ingest_flag_error(&format!(r#""{field}": null"#));
            assert_eq!(err, format!("'{field}' must be a non-negative integer"));
        }
    }
}
