//! Natural-language-understanding support (§2.2, Figure 3).
//!
//! "Natural language understanding services typically expose an API
//! wherein they are passed a single text document and return the results
//! from analyzing the single document. Our rich SDK provides support for
//! analyzing multiple documents and aggregating the results… We provide
//! the ability to perform Web searches, analyze all of the documents
//! returned by a Web search, and aggregate the results from all analyzed
//! documents." The SDK also combines *multiple* NLU services, assigning
//! "a higher degree of confidence to entities or relationships which are
//! identified by more services" (§2.1), and stores fetched documents
//! locally "along with the query itself and the time the query was made".

use crate::cache::{FetchSource, ResponseCache};
use crate::invoke::Call;
use crate::monitor::ServiceMonitor;
use crate::pool::ThreadPool;
use crate::SdkError;
use cogsdk_json::{json, Json};
use cogsdk_obs::tenant_labels;
use cogsdk_search::html::extract_text;
use cogsdk_sim::clock::SimTime;
use cogsdk_sim::service::{Request, SimService};
use cogsdk_text::analysis::DocumentAnalysis;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One entity aggregated across a document set.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityAggregate {
    /// Canonical entity id.
    pub canonical: String,
    /// Display name.
    pub name: String,
    /// Number of documents mentioning the entity.
    pub documents: usize,
    /// Total mentions across all documents.
    pub mentions: usize,
    /// Mention-weighted mean sentiment toward the entity — the paper's
    /// "how favorably people, companies, and other entities are
    /// represented on the Web".
    pub mean_sentiment: f64,
}

/// One keyword aggregated across a document set.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordAggregate {
    /// The keyword.
    pub text: String,
    /// Number of documents containing it.
    pub documents: usize,
    /// Total occurrences.
    pub total_count: usize,
}

/// The aggregate of many single-document analyses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggregateAnalysis {
    /// Number of documents aggregated.
    pub documents: usize,
    /// Entities, most widely mentioned first.
    pub entities: Vec<EntityAggregate>,
    /// Keywords, most widespread first.
    pub keywords: Vec<KeywordAggregate>,
    /// Concept → mean confidence over documents mentioning it.
    pub concepts: Vec<(String, f64)>,
    /// Mean document sentiment.
    pub mean_sentiment: f64,
}

/// Folds per-document analyses into one aggregate.
pub fn aggregate(analyses: &[DocumentAnalysis]) -> AggregateAnalysis {
    if analyses.is_empty() {
        return AggregateAnalysis::default();
    }
    let mut entities: BTreeMap<String, EntityAggregate> = BTreeMap::new();
    let mut keywords: BTreeMap<String, KeywordAggregate> = BTreeMap::new();
    let mut concepts: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut sentiment_sum = 0.0;
    for a in analyses {
        sentiment_sum += a.sentiment.score;
        for e in &a.entities {
            let agg = entities
                .entry(e.canonical.clone())
                .or_insert_with(|| EntityAggregate {
                    canonical: e.canonical.clone(),
                    name: e.name.clone(),
                    documents: 0,
                    mentions: 0,
                    mean_sentiment: 0.0,
                });
            // Mention-weighted running mean of sentiment.
            let new_mentions = agg.mentions + e.count;
            agg.mean_sentiment = (agg.mean_sentiment * agg.mentions as f64
                + e.sentiment.score * e.count as f64)
                / new_mentions.max(1) as f64;
            agg.documents += 1;
            agg.mentions = new_mentions;
        }
        for k in &a.keywords {
            let agg = keywords
                .entry(k.text.clone())
                .or_insert_with(|| KeywordAggregate {
                    text: k.text.clone(),
                    documents: 0,
                    total_count: 0,
                });
            agg.documents += 1;
            agg.total_count += k.count;
        }
        for c in &a.concepts {
            let e = concepts.entry(c.label.clone()).or_insert((0.0, 0));
            e.0 += c.confidence;
            e.1 += 1;
        }
    }
    let mut entities: Vec<EntityAggregate> = entities.into_values().collect();
    entities.sort_by(|a, b| {
        b.documents
            .cmp(&a.documents)
            .then(b.mentions.cmp(&a.mentions))
            .then_with(|| a.canonical.cmp(&b.canonical))
    });
    let mut keywords: Vec<KeywordAggregate> = keywords.into_values().collect();
    keywords.sort_by(|a, b| {
        b.documents
            .cmp(&a.documents)
            .then(b.total_count.cmp(&a.total_count))
            .then_with(|| a.text.cmp(&b.text))
    });
    let mut concepts: Vec<(String, f64)> = concepts
        .into_iter()
        .map(|(label, (sum, n))| (label, sum / n as f64))
        .collect();
    concepts.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    AggregateAnalysis {
        documents: analyses.len(),
        entities,
        keywords,
        concepts,
        mean_sentiment: sentiment_sum / analyses.len() as f64,
    }
}

/// An entity in a multi-service consensus, with the fraction of services
/// that found it (§2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusEntity {
    /// Canonical entity id.
    pub canonical: String,
    /// Fraction of responding services that identified the entity.
    pub confidence: f64,
    /// Names of the services that identified it.
    pub services: Vec<String>,
    /// Mean sentiment across those services.
    pub mean_sentiment: f64,
}

/// A relation in a multi-service consensus.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusRelation {
    /// Subject entity id.
    pub subject: String,
    /// Predicate.
    pub predicate: String,
    /// Object entity id.
    pub object: String,
    /// Fraction of responding services that extracted the relation.
    pub confidence: f64,
}

/// The combined output of several NLU services on one document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConsensusAnalysis {
    /// Services that responded successfully.
    pub responding_services: Vec<String>,
    /// Entities with cross-service confidence, highest first.
    pub entities: Vec<ConsensusEntity>,
    /// Relations with cross-service confidence, highest first.
    pub relations: Vec<ConsensusRelation>,
}

/// A search hit as the SDK sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebHit {
    /// Result URL.
    pub url: String,
    /// Result title.
    pub title: String,
}

/// A stored web document: the paper stores "all of the documents from a
/// particular Web search along with the query itself and the time the
/// query was made" (§2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDocument {
    /// The URL the document came from.
    pub url: String,
    /// Raw HTML.
    pub html: String,
    /// The query that surfaced it.
    pub query: String,
    /// Virtual time the query was made.
    pub fetched_at: SimTime,
}

/// Local store of fetched documents, grouped by query.
#[derive(Debug, Default)]
pub struct DocumentStore {
    docs: RwLock<Vec<StoredDocument>>,
}

impl DocumentStore {
    /// Creates an empty store.
    pub fn new() -> DocumentStore {
        DocumentStore::default()
    }

    /// Stores one fetched document.
    pub fn store(&self, doc: StoredDocument) {
        self.docs.write().push(doc);
    }

    /// Documents fetched for a query, in fetch order.
    pub fn by_query(&self, query: &str) -> Vec<StoredDocument> {
        self.docs
            .read()
            .iter()
            .filter(|d| d.query == query)
            .cloned()
            .collect()
    }

    /// Looks up a document by URL (any query).
    pub fn by_url(&self, url: &str) -> Option<StoredDocument> {
        self.docs.read().iter().find(|d| d.url == url).cloned()
    }

    /// Total stored documents.
    pub fn len(&self) -> usize {
        self.docs.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.read().is_empty()
    }
}

/// The NLU support layer: NLU/search/web services plus local document
/// storage and a pool for parallel fan-out.
pub struct NluSupport {
    monitor: Arc<ServiceMonitor>,
    pool: Arc<ThreadPool>,
    store: Arc<DocumentStore>,
    cache: Option<Arc<ResponseCache>>,
    retries: usize,
}

/// The request an NLU service analyzes `text` with; the text length is
/// its latency parameter.
fn analyze_request(text: &str) -> Request {
    Request::new("analyze", json!({"text": (text)})).with_param("text_len", text.len() as f64)
}

impl std::fmt::Debug for NluSupport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NluSupport")
            .field("stored_documents", &self.store.len())
            .finish_non_exhaustive()
    }
}

impl NluSupport {
    /// Creates the support layer (no response cache; analysis results are
    /// recomputed per call).
    pub fn new(monitor: Arc<ServiceMonitor>, pool: Arc<ThreadPool>) -> NluSupport {
        NluSupport {
            monitor,
            pool,
            store: Arc::new(DocumentStore::new()),
            cache: None,
            retries: 2,
        }
    }

    /// As [`NluSupport::new`], sharing the SDK's sharded response cache
    /// so [`analyze_text_cached`](NluSupport::analyze_text_cached) can
    /// dedupe repeated (and concurrent) analyses of the same text.
    pub fn with_cache(
        monitor: Arc<ServiceMonitor>,
        pool: Arc<ThreadPool>,
        cache: Arc<ResponseCache>,
    ) -> NluSupport {
        NluSupport {
            monitor,
            pool,
            store: Arc::new(DocumentStore::new()),
            cache: Some(cache),
            retries: 2,
        }
    }

    /// The local document store.
    pub fn document_store(&self) -> &Arc<DocumentStore> {
        &self.store
    }

    /// Analyzes one text with one NLU service, in the caller's context:
    /// retries stop once its deadline runs out, and with telemetry it
    /// records `nlu_requests_total` / `nlu_latency_ms` RED metrics — with
    /// a `tenant` series when the span is tenanted — and attaches the
    /// trace id as a latency exemplar.
    ///
    /// # Errors
    ///
    /// [`SdkError::AllFailed`] if the service stays unresponsive through
    /// the retry budget; [`SdkError::Rejected`] for malformed requests;
    /// [`SdkError::DeadlineExceeded`] when the budget was already spent.
    pub fn analyze_text(
        &self,
        nlu: &Arc<SimService>,
        text: &str,
        call: &Call<'_>,
    ) -> Result<DocumentAnalysis, SdkError> {
        let tracer = call.telemetry.tracer();
        let started = tracer.now_ms();
        let result = call
            .invoke(nlu, &analyze_request(text), self.retries)
            .map(|response| DocumentAnalysis::from_json(&response.payload));
        if call.telemetry.is_enabled() {
            let latency_ms = (tracer.now_ms() - started).max(0.0);
            let metrics = call.telemetry.metrics();
            let outcome = if result.is_ok() { "ok" } else { "error" };
            let service = nlu.name();
            let tenant = tracer.tenant_name(call.span.tenant);
            let tenant = tenant.as_deref().unwrap_or("");
            metrics.inc_counter(
                "nlu_requests_total",
                tenant_labels(&[
                    ("outcome", outcome),
                    ("service", service),
                    ("tenant", tenant),
                ]),
            );
            metrics.observe_with_exemplar(
                "nlu_latency_ms",
                tenant_labels(&[("service", service), ("tenant", tenant)]),
                latency_ms,
                call.span.trace.0,
            );
        }
        result
    }

    /// As [`analyze_text`](NluSupport::analyze_text), read-through the
    /// SDK's response cache: a repeated analysis of the same text by the
    /// same service is served from cache, and *concurrent* analyses of
    /// the same text coalesce onto one in-flight service call. Falls back
    /// to an uncached call when this layer was built without a cache.
    ///
    /// # Errors
    ///
    /// As for [`analyze_text`](NluSupport::analyze_text); a coalesced
    /// caller receives the leader's error verbatim.
    pub fn analyze_text_cached(
        &self,
        nlu: &Arc<SimService>,
        text: &str,
    ) -> Result<(DocumentAnalysis, FetchSource), SdkError> {
        let call = Call::plain(&self.monitor);
        let Some(cache) = &self.cache else {
            return self
                .analyze_text(nlu, text, &call)
                .map(|a| (a, FetchSource::Fetched));
        };
        let request = analyze_request(text);
        // The raw payload is cached (not the parsed analysis) so the NLU
        // layer shares the Json-valued sharded cache with invoke paths.
        let key = format!("{}::{}", nlu.name(), request.cache_key());
        let (payload, source) = cache.get_or_fetch(&key, || {
            call.invoke(nlu, &request, self.retries)
                .map(|response| response.payload)
        })?;
        Ok((DocumentAnalysis::from_json(&payload), source))
    }

    /// Analyzes many documents with one service and aggregates — the
    /// §2.2 "passing multiple files to a service and aggregating the
    /// results" feature. Documents whose analysis fails are skipped (and
    /// reported in the count difference). Bounded by the context's
    /// deadline: no document's analysis *starts* after the budget has
    /// elapsed, so the aggregate is a partial-but-timely answer instead
    /// of a late complete one. Returns the aggregate plus the number of
    /// documents skipped for lack of budget.
    pub fn analyze_documents(
        &self,
        nlu: &Arc<SimService>,
        texts: &[String],
        call: &Call<'_>,
    ) -> (AggregateAnalysis, usize) {
        let mut analyses = Vec::new();
        let mut skipped = 0;
        for (i, text) in texts.iter().enumerate() {
            if call.deadline.is_expired(nlu.clock().now()) {
                skipped = texts.len() - i;
                break;
            }
            if let Ok(a) = self.analyze_text(nlu, text, call) {
                analyses.push(a);
            }
        }
        (aggregate(&analyses), skipped)
    }

    /// Analyzes many documents in parallel on the thread pool.
    pub fn analyze_documents_parallel(
        &self,
        nlu: &Arc<SimService>,
        texts: Vec<String>,
    ) -> AggregateAnalysis {
        let monitor = self.monitor.clone();
        let retries = self.retries;
        let nlu = nlu.clone();
        let results = self.pool.map_all(texts, move |text: String| {
            Call::plain(&monitor)
                .invoke(&nlu, &analyze_request(&text), retries)
                .ok()
                .map(|r| DocumentAnalysis::from_json(&r.payload))
        });
        let analyses: Vec<DocumentAnalysis> = results.into_iter().flatten().collect();
        aggregate(&analyses)
    }

    /// Runs the same document through several NLU services and combines
    /// the outputs with per-item confidence (§2.1).
    pub fn consensus_analyze(&self, services: &[Arc<SimService>], text: &str) -> ConsensusAnalysis {
        let mut responding = Vec::new();
        let mut entity_votes: BTreeMap<String, (Vec<String>, f64)> = BTreeMap::new();
        let mut relation_votes: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        let call = Call::plain(&self.monitor);
        for svc in services {
            let Ok(analysis) = self.analyze_text(svc, text, &call) else {
                continue;
            };
            responding.push(svc.name().to_string());
            for e in &analysis.entities {
                let entry = entity_votes
                    .entry(e.canonical.clone())
                    .or_insert_with(|| (Vec::new(), 0.0));
                entry.0.push(svc.name().to_string());
                entry.1 += e.sentiment.score;
            }
            for r in &analysis.relations {
                *relation_votes
                    .entry((r.subject.clone(), r.predicate.clone(), r.object.clone()))
                    .or_insert(0) += 1;
            }
        }
        let n = responding.len().max(1) as f64;
        let mut entities: Vec<ConsensusEntity> = entity_votes
            .into_iter()
            .map(|(canonical, (services, sentiment_sum))| ConsensusEntity {
                confidence: services.len() as f64 / n,
                mean_sentiment: sentiment_sum / services.len() as f64,
                canonical,
                services,
            })
            .collect();
        entities.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then_with(|| a.canonical.cmp(&b.canonical))
        });
        let mut relations: Vec<ConsensusRelation> = relation_votes
            .into_iter()
            .map(|((subject, predicate, object), votes)| ConsensusRelation {
                subject,
                predicate,
                object,
                confidence: votes as f64 / n,
            })
            .collect();
        relations.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
        ConsensusAnalysis {
            responding_services: responding,
            entities,
            relations,
        }
    }

    /// Automatically rates NLU service quality by agreement with the
    /// fleet consensus over a document sample, feeding the ratings into
    /// the monitor (so rankings learn quality without human raters).
    ///
    /// The paper invites "more sophisticated methods … for evaluating the
    /// quality of responses provided by services" (§5); this is one: a
    /// service's rating on a document is its F1 score against the
    /// majority-vote entity set, averaged over the sample.
    ///
    /// Returns the mean rating recorded per service.
    pub fn rate_quality_by_consensus(
        &self,
        services: &[Arc<SimService>],
        texts: &[String],
    ) -> Vec<(String, f64)> {
        let call = Call::plain(&self.monitor);
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for text in texts {
            // Gather every service's entity set.
            let mut per_service: Vec<(String, Vec<String>)> = Vec::new();
            for svc in services {
                if let Ok(analysis) = self.analyze_text(svc, text, &call) {
                    per_service.push((
                        svc.name().to_string(),
                        analysis
                            .entities
                            .iter()
                            .map(|e| e.canonical.clone())
                            .collect(),
                    ));
                }
            }
            if per_service.len() < 2 {
                continue; // no consensus to score against
            }
            // Majority vote: entities found by more than half the
            // responders form the reference set.
            let mut votes: BTreeMap<&str, usize> = BTreeMap::new();
            for (_, entities) in &per_service {
                for e in entities {
                    *votes.entry(e.as_str()).or_insert(0) += 1;
                }
            }
            let majority: Vec<&str> = votes
                .iter()
                .filter(|(_, &v)| v * 2 > per_service.len())
                .map(|(&e, _)| e)
                .collect();
            if majority.is_empty() {
                continue;
            }
            for (name, entities) in &per_service {
                let tp = entities
                    .iter()
                    .filter(|e| majority.contains(&e.as_str()))
                    .count();
                let precision = if entities.is_empty() {
                    0.0
                } else {
                    tp as f64 / entities.len() as f64
                };
                let recall = tp as f64 / majority.len() as f64;
                let f1 = if precision + recall > 0.0 {
                    2.0 * precision * recall / (precision + recall)
                } else {
                    0.0
                };
                let entry = sums.entry(name.clone()).or_insert((0.0, 0));
                entry.0 += f1;
                entry.1 += 1;
            }
        }
        let mut out = Vec::new();
        for (name, (sum, n)) in sums {
            let mean = (sum / n as f64).clamp(0.0, 1.0);
            self.monitor
                .rate_quality(&name, mean)
                .expect("consensus rating is clamped to [0, 1]");
            out.push((name, mean));
        }
        out
    }

    /// Performs a web search via a search service.
    ///
    /// # Errors
    ///
    /// [`SdkError`] when the search service cannot be reached.
    pub fn web_search(
        &self,
        search: &Arc<SimService>,
        query: &str,
        limit: usize,
        news_only: bool,
    ) -> Result<Vec<WebHit>, SdkError> {
        let request = Request::new(
            "search",
            json!({"query": (query), "limit": (limit), "news": (news_only)}),
        );
        let payload = Call::plain(&self.monitor)
            .invoke(search, &request, self.retries)?
            .payload;
        Ok(payload
            .get("hits")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|h| {
                Some(WebHit {
                    url: h.get("url")?.as_str()?.to_string(),
                    title: h
                        .get("title")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                })
            })
            .collect())
    }

    /// Fetches a URL, storing the HTML locally tagged with `query` and
    /// the fetch time. A stored copy is served without a remote call —
    /// the paper's "performance is considerably improved since the
    /// documents do not have to be fetched again".
    ///
    /// # Errors
    ///
    /// [`SdkError`] for unreachable web service or unknown URLs.
    pub fn fetch_document(
        &self,
        web: &Arc<SimService>,
        url: &str,
        query: &str,
    ) -> Result<StoredDocument, SdkError> {
        if let Some(stored) = self.store.by_url(url) {
            return Ok(stored);
        }
        let request = Request::new("fetch", json!({"url": (url)}));
        let payload = Call::plain(&self.monitor)
            .invoke(web, &request, self.retries)?
            .payload;
        let html = payload
            .get("html")
            .and_then(Json::as_str)
            .ok_or_else(|| SdkError::Rejected("fetch response missing html".into()))?
            .to_string();
        let doc = StoredDocument {
            url: url.to_string(),
            html,
            query: query.to_string(),
            fetched_at: web.clock().now(),
        };
        self.store.store(doc.clone());
        Ok(doc)
    }

    /// The full Figure-3 pipeline: search → fetch each hit → extract text
    /// → analyze with the NLU service → aggregate. Bounded by the
    /// context's deadline across the whole pipeline: fetching and
    /// analysis both stop starting new work once the budget has elapsed.
    /// Returns the (possibly partial) aggregate plus the number of hits
    /// or documents skipped for lack of budget.
    ///
    /// # Errors
    ///
    /// Propagates search-service failure; individual fetch/analyze
    /// failures skip that document.
    pub fn search_and_analyze(
        &self,
        search: &Arc<SimService>,
        web: &Arc<SimService>,
        nlu: &Arc<SimService>,
        query: &str,
        limit: usize,
        call: &Call<'_>,
    ) -> Result<(AggregateAnalysis, usize), SdkError> {
        let hits = self.web_search(search, query, limit, false)?;
        let mut texts = Vec::new();
        let mut skipped = 0;
        for (i, hit) in hits.iter().enumerate() {
            if call.deadline.is_expired(web.clock().now()) {
                skipped = hits.len() - i;
                break;
            }
            if let Ok(doc) = self.fetch_document(web, &hit.url, query) {
                texts.push(extract_text(&doc.html));
            }
        }
        let (agg, analysis_skipped) = self.analyze_documents(nlu, &texts, call);
        Ok((agg, skipped + analysis_skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::Deadline;
    use cogsdk_obs::Telemetry;
    use cogsdk_search::services::standard_web;
    use cogsdk_sim::SimEnv;
    use cogsdk_text::analysis::{Analyzer, NluConfig};
    use cogsdk_text::services::{nlu_service, standard_fleet, NluVendorSpec};

    fn support() -> NluSupport {
        NluSupport::new(
            Arc::new(ServiceMonitor::new()),
            Arc::new(ThreadPool::new(4)),
        )
    }

    fn perfect_nlu(env: &SimEnv) -> Arc<SimService> {
        let mut spec = NluVendorSpec::new("nlu-perfect", NluConfig::perfect());
        spec.failures = cogsdk_sim::failure::FailurePlan::reliable();
        nlu_service(env, Arc::new(Analyzer::with_default_lexicons()), spec)
    }

    #[test]
    fn aggregate_combines_entities_and_sentiment() {
        let analyzer = Analyzer::with_default_lexicons();
        let cfg = NluConfig::perfect();
        let analyses = vec![
            analyzer.analyze("IBM posted excellent growth. IBM wins.", &cfg),
            analyzer.analyze("IBM faced a terrible lawsuit.", &cfg),
            analyzer.analyze("Germany celebrated impressive results.", &cfg),
        ];
        let agg = aggregate(&analyses);
        assert_eq!(agg.documents, 3);
        let ibm = agg.entities.iter().find(|e| e.canonical == "ibm").unwrap();
        assert_eq!(ibm.documents, 2);
        assert!(ibm.mentions >= 2);
        // IBM first: mentioned in most documents.
        assert_eq!(agg.entities[0].canonical, "ibm");
        assert!(!agg.keywords.is_empty());
    }

    #[test]
    fn aggregate_of_empty_is_default() {
        assert_eq!(aggregate(&[]), AggregateAnalysis::default());
    }

    #[test]
    fn analyze_text_through_service() {
        let env = SimEnv::with_seed(1);
        let nlu = perfect_nlu(&env);
        let s = support();
        let a = s
            .analyze_text(
                &nlu,
                "Microsoft praised excellent results.",
                &Call::plain(&ServiceMonitor::new()),
            )
            .unwrap();
        assert_eq!(a.entities[0].canonical, "microsoft");
        assert!(a.sentiment.score > 0.0);
    }

    #[test]
    fn analyze_text_records_tenant_red_metrics() {
        let env = SimEnv::with_seed(9);
        let nlu = perfect_nlu(&env);
        let t = Telemetry::new();
        let s = support();
        let monitor = ServiceMonitor::new();
        let tenant = t.tracer().intern_tenant("acme");
        let call = Call::new(&monitor, &t, t.tracer().new_trace_for(tenant));
        s.analyze_text(&nlu, "IBM posted excellent growth.", &call)
            .unwrap();
        assert_eq!(
            t.metrics().counter_value(
                "nlu_requests_total",
                &[
                    ("outcome", "ok"),
                    ("service", "nlu-perfect"),
                    ("tenant", "acme")
                ],
            ),
            Some(1)
        );
        let hist = t
            .metrics()
            .histogram(
                "nlu_latency_ms",
                &[("service", "nlu-perfect"), ("tenant", "acme")],
            )
            .unwrap();
        assert_eq!(hist.count, 1);
        // Untenanted spans keep the original series shape.
        let call = call.span(&t.tracer().new_trace());
        s.analyze_text(&nlu, "IBM posted excellent growth.", &call)
            .unwrap();
        assert_eq!(
            t.metrics().counter_value(
                "nlu_requests_total",
                &[("outcome", "ok"), ("service", "nlu-perfect")],
            ),
            Some(1)
        );
    }

    #[test]
    fn analyze_documents_parallel_matches_sequential() {
        let env = SimEnv::with_seed(2);
        let nlu = perfect_nlu(&env);
        let s = support();
        let texts = vec![
            "IBM grew impressively.".to_string(),
            "France struggled with a terrible crisis.".to_string(),
            "IBM and France partnered Google.".to_string(),
        ];
        let (seq, _) = s.analyze_documents(&nlu, &texts, &Call::plain(&ServiceMonitor::new()));
        let par = s.analyze_documents_parallel(&nlu, texts);
        assert_eq!(seq.documents, par.documents);
        assert_eq!(seq.entities, par.entities);
    }

    #[test]
    fn consensus_confidence_reflects_agreement() {
        let env = SimEnv::with_seed(3);
        let analyzer = Arc::new(Analyzer::with_default_lexicons());
        // Three vendors with very different recall.
        let fleet = standard_fleet(&env, analyzer);
        let s = support();
        let text = "IBM acquired Oracle. Germany and France and Japan and India watched. \
                    Microsoft and Google and Amazon commented.";
        let consensus = s.consensus_analyze(&fleet, text);
        assert!(!consensus.responding_services.is_empty());
        assert!(!consensus.entities.is_empty());
        // Confidences within (0, 1]; sorted descending.
        for e in &consensus.entities {
            assert!(e.confidence > 0.0 && e.confidence <= 1.0);
        }
        assert!(consensus
            .entities
            .windows(2)
            .all(|w| w[0].confidence >= w[1].confidence));
        // With lossy vendors, at least one entity should be contested
        // (confidence < 1) while some should be unanimous among
        // high-recall vendors.
        let min = consensus.entities.last().unwrap().confidence;
        let max = consensus.entities[0].confidence;
        assert!(max > min, "expected disagreement, got flat {max}");
    }

    #[test]
    fn analyze_documents_stops_once_budget_is_spent() {
        let env = SimEnv::with_seed(7);
        let nlu = perfect_nlu(&env);
        let s = support();
        let monitor = ServiceMonitor::new();
        let call = Call::plain(&monitor);
        let texts: Vec<String> = (0..4)
            .map(|i| format!("IBM posted excellent growth in quarter {i}."))
            .collect();
        // An already-expired budget analyzes nothing and calls no service.
        let expired = Deadline::within(env.clock(), std::time::Duration::ZERO);
        env.clock().advance(std::time::Duration::from_micros(1));
        let (agg, skipped) = s.analyze_documents(&nlu, &texts, &call.deadline(expired));
        assert_eq!(agg, AggregateAnalysis::default());
        assert_eq!(skipped, texts.len());
        assert_eq!(nlu.stats().0, 0, "no budget, no calls");
        // An unbounded budget analyzes everything.
        let (agg, skipped) = s.analyze_documents(&nlu, &texts, &call);
        assert_eq!(agg.documents, texts.len());
        assert_eq!(skipped, 0);
        // A budget covering roughly one document's analysis yields a
        // partial-but-timely aggregate.
        let t0 = env.clock().now();
        s.analyze_text(&nlu, &texts[0], &call).unwrap();
        let one_doc = env.clock().now().since(t0);
        let deadline = Deadline::within(env.clock(), one_doc + one_doc / 2);
        let (agg, skipped) = s.analyze_documents(&nlu, &texts, &call.deadline(deadline));
        assert!(agg.documents < texts.len(), "{}", agg.documents);
        assert!(agg.documents >= 1);
        assert_eq!(skipped, texts.len() - agg.documents);
    }

    #[test]
    fn search_and_analyze_skips_late_fetches() {
        let env = SimEnv::with_seed(8);
        let (engines, web, _idx) = standard_web(&env, 7, 120);
        let nlu = perfect_nlu(&env);
        let s = support();
        let monitor = ServiceMonitor::new();
        let call = Call::plain(&monitor);
        // Expired before any fetch: the search result arrives, but every
        // downstream fetch/analysis is skipped.
        let expired = Deadline::within(env.clock(), std::time::Duration::ZERO);
        env.clock().advance(std::time::Duration::from_micros(1));
        let (agg, skipped) = s
            .search_and_analyze(
                &engines[0],
                &web,
                &nlu,
                "market growth",
                5,
                &call.deadline(expired),
            )
            .unwrap();
        assert_eq!(agg.documents, 0);
        assert!(skipped > 0);
        assert!(s.document_store().is_empty(), "no fetch should have run");
        // Unbounded matches the plain pipeline.
        let (agg, skipped) = s
            .search_and_analyze(&engines[0], &web, &nlu, "market growth", 5, &call)
            .unwrap();
        assert!(agg.documents > 0);
        assert_eq!(skipped, 0);
    }

    #[test]
    fn web_search_and_fetch_pipeline() {
        let env = SimEnv::with_seed(4);
        let (engines, web, _idx) = standard_web(&env, 7, 120);
        let nlu = perfect_nlu(&env);
        let s = support();
        let (agg, _) = s
            .search_and_analyze(
                &engines[0],
                &web,
                &nlu,
                "market growth",
                5,
                &Call::plain(&ServiceMonitor::new()),
            )
            .unwrap();
        assert!(agg.documents > 0);
        assert!(!agg.entities.is_empty() || !agg.keywords.is_empty());
        // Documents were stored locally with the query recorded.
        assert!(!s.document_store().is_empty());
        assert_eq!(
            s.document_store().by_query("market growth").len(),
            s.document_store().len()
        );
    }

    #[test]
    fn fetch_document_caches_locally() {
        let env = SimEnv::with_seed(5);
        let (engines, web, _idx) = standard_web(&env, 7, 60);
        let s = support();
        let hits = s.web_search(&engines[0], "energy", 3, false).unwrap();
        assert!(!hits.is_empty());
        let url = &hits[0].url;
        let (calls_before, _) = web.stats();
        let fetched = s.fetch_document(&web, url, "energy").unwrap();
        let (calls_mid, _) = web.stats();
        // The fetch advanced the virtual clock; the stamp is the time the
        // document arrived, and it is the query's time of record.
        let fetched_at = env.clock().now();
        assert!(fetched_at > SimTime::ZERO);
        assert_eq!(fetched.fetched_at, fetched_at);
        env.clock().advance(std::time::Duration::from_secs(60));
        let stored = s.fetch_document(&web, url, "energy").unwrap();
        let (calls_after, _) = web.stats();
        assert!(calls_mid > calls_before);
        assert_eq!(calls_after, calls_mid, "second fetch served locally");
        assert_eq!(
            stored.fetched_at, fetched_at,
            "the local copy keeps its stamp"
        );
    }

    #[test]
    fn news_restriction_passes_through() {
        let env = SimEnv::with_seed(6);
        let (engines, _web, idx) = standard_web(&env, 7, 120);
        let s = support();
        let hits = s.web_search(&engines[0], "market", 10, true).unwrap();
        for hit in hits {
            assert!(idx.by_url(&hit.url).unwrap().doc.is_news);
        }
    }

    #[test]
    fn document_store_lookup() {
        let store = DocumentStore::new();
        store.store(StoredDocument {
            url: "https://x/1".into(),
            html: "<html></html>".into(),
            query: "q1".into(),
            fetched_at: SimTime::ZERO,
        });
        assert_eq!(store.len(), 1);
        assert!(store.by_url("https://x/1").is_some());
        assert!(store.by_url("https://x/2").is_none());
        assert_eq!(store.by_query("q1").len(), 1);
        assert!(store.by_query("q2").is_empty());
    }
}
