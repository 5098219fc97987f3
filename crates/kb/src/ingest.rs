//! Streaming bulk ingest — the Fig. 5 analytics loop, one batch at a time.
//!
//! [`PersonalKnowledgeBase::ingest_text`] runs one document at a time:
//! NLU analysis, term interning, the WAL group commit, and delta
//! materialization all serialize on the caller's thread, and every
//! document pays a full epoch publish. This module batches that loop:
//!
//! ```text
//!   push ──► filling batch ──full──► ≤ workers pool jobs ──► FIFO of batches
//!   (doc ids,                        (SDK ThreadPool:           │ oldest first, on the
//!    chunking)                        NLU + statements          ▼ pusher's thread
//!                                     per contiguous part,   intern each part's distinct
//!                                     each term once)        terms (TermDict::intern)
//!                                                            + one WAL group commit
//!                                                            + one epoch publish
//! ```
//!
//! * **Push** — the caller's thread ([`IngestSession::push`] or the
//!   [`PersonalKnowledgeBase::ingest_stream`] driver) assigns document
//!   ids in input order and appends each document to the filling batch.
//! * **Analyze** — a full batch is split into at most
//!   [`IngestConfig::workers`] contiguous parts, one job each on the SDK
//!   [`ThreadPool`]. A job runs the cognitive-service analysis (under
//!   the KB's configured [`NluConfig`], not a hardwired perfect profile)
//!   and returns its part's RDF statements as a `Part`: each distinct
//!   term once, in first-occurrence order, and the statements as index
//!   triples into that list. The batch then waits in a FIFO while later
//!   batches fill behind it.
//! * **Intern + commit** — the pusher takes batches oldest first,
//!   interns each part's terms in order into the shared [`TermDict`]
//!   (the ids interning every statement in order would assign), and
//!   commits the id triples: each batch is exactly one WAL group commit
//!   and one closure-complete epoch publish, so crash recovery yields a
//!   durable *prefix of acked batches* — never a half-applied batch. A
//!   part whose job panicked fails its batch like a failed commit.
//!
//! At most [`IngestConfig::max_in_flight`] documents are pushed but not
//! yet committed: at the bound, `push` commits the oldest batch before
//! taking another document, so a slow store throttles the caller instead
//! of ballooning memory. Stage depth, throughput, and the pusher's stall
//! time are published as `sdk_ingest_stage_*` metrics.

use crate::kb::PersonalKnowledgeBase;
use crate::KbError;
use cogsdk_core::{ListenableFuture, ThreadPool};
use cogsdk_obs::tenant_labels;
use cogsdk_rdf::{IdTriple, Statement, Term, TermDict, TermId};
use cogsdk_text::analysis::{Analyzer, DocumentAnalysis, NluConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

/// `rdf:type`, built once and shared across every ingested document
/// (the per-document allocation was measurable at bulk-load rates).
pub(crate) static RDF_TYPE: LazyLock<Term> = LazyLock::new(|| Term::iri("rdf:type"));
/// `kb:mentions`, built once (see [`RDF_TYPE`]).
pub(crate) static KB_MENTIONS: LazyLock<Term> = LazyLock::new(|| Term::iri("kb:mentions"));
/// `kb:Document`, built once (see [`RDF_TYPE`]).
pub(crate) static KB_DOCUMENT: LazyLock<Term> = LazyLock::new(|| Term::iri("kb:Document"));

/// The RDF statements one analyzed document contributes: the document
/// node, entity types, mentions with per-document sentiment, and
/// extracted relations. Shared by the document-at-a-time
/// [`PersonalKnowledgeBase::ingest_text_with`] and the streaming
/// loader so both produce byte-identical knowledge.
pub(crate) fn doc_statements(doc_id: usize, analysis: &DocumentAnalysis) -> Vec<Statement> {
    let doc = Term::iri(format!("kb:doc_{doc_id}"));
    let mut batch = Vec::with_capacity(1 + analysis.entities.len() * 3 + analysis.relations.len());
    batch.push(Statement::new(
        doc.clone(),
        RDF_TYPE.clone(),
        KB_DOCUMENT.clone(),
    ));
    for e in &analysis.entities {
        let entity = Term::iri(format!("kb:{}", e.canonical));
        batch.push(Statement::new(
            entity.clone(),
            RDF_TYPE.clone(),
            Term::iri(format!("kb:{}", e.kind)),
        ));
        batch.push(Statement::new(
            doc.clone(),
            KB_MENTIONS.clone(),
            entity.clone(),
        ));
        batch.push(Statement::new(
            entity,
            Term::iri(format!("kb:sentiment_in_doc_{doc_id}")),
            Term::double(e.sentiment.score),
        ));
    }
    for r in &analysis.relations {
        batch.push(Statement::new(
            Term::iri(format!("kb:{}", r.subject)),
            Term::iri(format!("kb:{}", r.predicate)),
            Term::iri(format!("kb:{}", r.object)),
        ));
    }
    batch
}

/// Splits a bulk text payload into documents on blank-line boundaries —
/// the chunker for corpus-shaped input (e.g. the gateway's
/// `text` body field).
pub fn chunk_documents(text: &str) -> impl Iterator<Item = &str> {
    text.split("\n\n")
        .map(str::trim)
        .filter(|chunk| !chunk.is_empty())
}

/// Tuning knobs for the streaming bulk loader.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Documents per committed batch: one WAL group commit and one epoch
    /// publish each. Clamped to at least 1.
    pub batch_size: usize,
    /// Most pool jobs one batch's analysis is split into (never more
    /// than the batch has documents). Clamped to at least 1. A job holds
    /// its pool slot only while it analyzes its part of one batch.
    pub workers: usize,
    /// Hard cap on in-flight documents (pushed but not yet committed or
    /// abandoned) — the session's memory bound. Clamped to at least
    /// `batch_size` so a batch can always fill.
    pub max_in_flight: usize,
    /// NLU quality profile for the analysis jobs; `None` uses the
    /// knowledge base's configured profile.
    pub nlu: Option<NluConfig>,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            batch_size: 256,
            workers: 4,
            max_in_flight: 1024,
            nlu: None,
        }
    }
}

impl IngestConfig {
    fn normalized(mut self) -> IngestConfig {
        self.batch_size = self.batch_size.max(1);
        self.workers = self.workers.max(1);
        self.max_in_flight = self.max_in_flight.max(self.batch_size);
        self
    }
}

/// What one streaming ingest did. `documents`/`batches`/`statements`
/// count *acked* (durably committed) work only — on failure they
/// describe the exact recoverable prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Documents whose batch was committed.
    pub documents: usize,
    /// Batches committed (each one WAL group commit + one epoch publish).
    pub batches: usize,
    /// Statements new to the full view across all committed batches.
    pub statements: usize,
    /// Documents pushed into the session (≥ `documents` on failure).
    pub pushed: usize,
    /// Wall-clock session time, push of the first document to finish.
    pub elapsed: Duration,
    /// Committed documents per second of session time.
    pub docs_per_sec: f64,
    /// Peak in-flight documents observed — never exceeds
    /// [`IngestConfig::max_in_flight`].
    pub peak_in_flight: usize,
    /// Time `push` spent at the in-flight bound, committing the oldest
    /// batch before it could take another document.
    pub parse_stall: Duration,
}

/// Progress counters, shared by the session, its pool jobs and the
/// watcher.
#[derive(Default)]
struct StageCounters {
    parsed: AtomicUsize,
    analyzed: AtomicUsize,
    interned: AtomicUsize,
    committed_docs: AtomicUsize,
    committed_batches: AtomicUsize,
    committed_statements: AtomicUsize,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
}

/// A clonable, read-only view of a running session's progress — safe to
/// poll from another thread while the session owner is blocked pushing.
#[derive(Clone)]
pub struct IngestWatcher {
    counters: Arc<StageCounters>,
}

impl IngestWatcher {
    /// Documents currently in flight (pushed, not yet committed or
    /// abandoned).
    pub fn in_flight(&self) -> usize {
        self.counters.in_flight.load(Ordering::Relaxed)
    }

    /// Highest in-flight count observed so far.
    pub fn peak_in_flight(&self) -> usize {
        self.counters.peak_in_flight.load(Ordering::Relaxed)
    }

    /// Documents whose batch has committed so far.
    pub fn committed_documents(&self) -> usize {
        self.counters.committed_docs.load(Ordering::Relaxed)
    }

    /// Documents analyzed so far.
    pub fn analyzed_documents(&self) -> usize {
        self.counters.analyzed.load(Ordering::Relaxed)
    }
}

/// One analysis job's statements, each distinct term once: `terms` in
/// first-occurrence order (subject, predicate, object, statement by
/// statement), and each statement as indices into it.
#[derive(Default)]
struct Part {
    terms: Vec<Term>,
    triples: Vec<[u32; 3]>,
}

impl Part {
    /// Appends `st`; `index` maps each term of `terms` to its position.
    fn push(&mut self, index: &mut HashMap<Term, u32>, st: Statement) {
        let mut at = |term: Term| {
            let next = u32::try_from(self.terms.len()).expect("a part holds < 2^32 terms");
            *index.entry(term).or_insert_with_key(|term| {
                self.terms.push(term.clone());
                next
            })
        };
        let triple = [at(st.subject), at(st.predicate), at(st.object)];
        self.triples.push(triple);
    }

    /// Interns the terms in order and appends the statements' id triples
    /// to `out`: the ids [`TermDict::intern_statement`] over every
    /// statement in order would assign, one intern per distinct term.
    fn intern_into(&self, dict: &TermDict, out: &mut Vec<IdTriple>) {
        let ids: Vec<TermId> = self.terms.iter().map(|term| dict.intern(term)).collect();
        let id = |at: u32| ids[at as usize];
        out.extend(self.triples.iter().map(|&[s, p, o]| (id(s), id(p), id(o))));
    }
}

/// A dispatched batch: its parts' analysis jobs, in document order.
struct Batch {
    documents: usize,
    parts: Vec<ListenableFuture<Part>>,
}

/// A push-style streaming bulk-ingest session. Build one with
/// [`IngestSession::new`], feed it documents with
/// [`push`](IngestSession::push) (which commits the oldest batch first
/// when the in-flight bound is reached), and call
/// [`finish`](IngestSession::finish) to drain and collect the report.
///
/// Dropping a session without finishing commits every pushed document,
/// as `finish` would.
pub struct IngestSession {
    kb: Arc<PersonalKnowledgeBase>,
    pool: Arc<ThreadPool>,
    analyzer: Arc<Analyzer>,
    nlu: Arc<NluConfig>,
    dict: TermDict,
    config: IngestConfig,
    /// The batch being filled: `(doc id, text)` in push order.
    filling: Vec<(usize, String)>,
    /// Dispatched batches, oldest first.
    batches: VecDeque<Batch>,
    counters: Arc<StageCounters>,
    failure: Option<KbError>,
    started: Instant,
    pushed: usize,
    parse_stall: Duration,
}

impl IngestSession {
    /// Opens a session that analyzes on `pool` and commits into `kb`.
    /// Nothing runs until the first batch fills.
    pub fn new(
        kb: Arc<PersonalKnowledgeBase>,
        pool: &Arc<ThreadPool>,
        config: IngestConfig,
    ) -> IngestSession {
        let config = config.normalized();
        let nlu = Arc::new(config.nlu.clone().unwrap_or_else(|| kb.nlu_config()));
        IngestSession {
            analyzer: kb.shared_analyzer(),
            dict: kb.shared_dict(),
            kb,
            pool: pool.clone(),
            nlu,
            config,
            filling: Vec::new(),
            batches: VecDeque::new(),
            counters: Arc::new(StageCounters::default()),
            failure: None,
            started: Instant::now(),
            pushed: 0,
            parse_stall: Duration::ZERO,
        }
    }

    /// Takes one document. At the in-flight bound it first commits the
    /// oldest batch (backpressure); a full batch is dispatched to the
    /// pool. Fails fast once a commit has failed — later documents would
    /// never be acked.
    ///
    /// # Errors
    ///
    /// The first commit error, once one occurred.
    pub fn push(&mut self, doc: impl Into<String>) -> Result<(), KbError> {
        if self.in_flight() >= self.config.max_in_flight {
            let stalled = Instant::now();
            while self.in_flight() >= self.config.max_in_flight && !self.batches.is_empty() {
                self.commit_oldest();
            }
            self.parse_stall += stalled.elapsed();
        }
        if let Some(e) = self.failure() {
            return Err(e);
        }
        self.filling.push((self.kb.allocate_doc_id(), doc.into()));
        self.pushed += 1;
        self.counters.parsed.fetch_add(1, Ordering::Relaxed);
        let in_flight = self.counters.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.counters
            .peak_in_flight
            .fetch_max(in_flight, Ordering::Relaxed);
        if self.filling.len() == self.config.batch_size {
            self.dispatch();
        }
        Ok(())
    }

    /// The first commit error, if any.
    pub fn failure(&self) -> Option<KbError> {
        self.failure.clone()
    }

    /// A clonable progress handle, safe to poll from other threads.
    pub fn watcher(&self) -> IngestWatcher {
        IngestWatcher {
            counters: self.counters.clone(),
        }
    }

    /// Documents currently in flight.
    pub fn in_flight(&self) -> usize {
        self.counters.in_flight.load(Ordering::Relaxed)
    }

    /// Commits everything pushed and reports. On a commit failure the
    /// report still describes the acked prefix; the error rides
    /// alongside.
    pub fn finish_detailed(mut self) -> (IngestReport, Option<KbError>) {
        self.drain();
        let elapsed = self.started.elapsed();
        let counters = &self.counters;
        let documents = counters.committed_docs.load(Ordering::Relaxed);
        let report = IngestReport {
            documents,
            batches: counters.committed_batches.load(Ordering::Relaxed),
            statements: counters.committed_statements.load(Ordering::Relaxed),
            pushed: self.pushed,
            elapsed,
            docs_per_sec: documents as f64 / elapsed.as_secs_f64().max(1e-9),
            peak_in_flight: counters.peak_in_flight.load(Ordering::Relaxed),
            parse_stall: self.parse_stall,
        };
        (report, self.failure())
    }

    /// As [`finish_detailed`](Self::finish_detailed), erroring if any
    /// batch failed to commit.
    ///
    /// # Errors
    ///
    /// The first commit error; the acked prefix is still durable.
    pub fn finish(self) -> Result<IngestReport, KbError> {
        let (report, error) = self.finish_detailed();
        match error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Splits the filling batch into at most `workers` contiguous parts
    /// and submits one analysis job per part.
    fn dispatch(&mut self) {
        let documents = self.filling.len();
        if documents == 0 {
            return;
        }
        let per_part = documents.div_ceil(self.config.workers.min(documents));
        let mut docs = std::mem::take(&mut self.filling).into_iter();
        let parts = (0..documents.div_ceil(per_part))
            .map(|_| {
                let part: Vec<(usize, String)> = docs.by_ref().take(per_part).collect();
                let analyzer = self.analyzer.clone();
                let nlu = self.nlu.clone();
                let counters = self.counters.clone();
                self.pool.submit(move || {
                    let (mut out, mut index) = (Part::default(), HashMap::new());
                    for (doc_id, text) in &part {
                        #[cfg(test)]
                        assert_ne!(text, tests::PANICKING_DOCUMENT, "analysis panicked");
                        let analysis = analyzer.entities_and_relations(text, &nlu);
                        for st in doc_statements(*doc_id, &analysis) {
                            out.push(&mut index, st);
                        }
                        counters.analyzed.fetch_add(1, Ordering::Relaxed);
                    }
                    out
                })
            })
            .collect();
        self.batches.push_back(Batch { documents, parts });
    }

    /// Waits for the oldest batch's analysis, interns its parts in
    /// order and commits it: one WAL group commit and one epoch publish.
    /// The first failure — a panicked part or a failed commit — abandons
    /// every later batch (preserving the acked-prefix crash contract).
    fn commit_oldest(&mut self) {
        let Some(batch) = self.batches.pop_front() else {
            return;
        };
        let counters = &self.counters;
        let parts: Result<Vec<_>, _> = batch.parts.iter().map(ListenableFuture::join).collect();
        let committed = parts
            .map_err(|panic| KbError::Panicked(panic.message().into()))
            .and_then(|parts| {
                let mut triples = Vec::new();
                for part in &parts {
                    part.intern_into(&self.dict, &mut triples);
                }
                counters
                    .interned
                    .fetch_add(batch.documents, Ordering::Relaxed);
                self.kb.commit_ingest_batch(&self.dict, &triples)
            });
        let released = match committed {
            Ok(added) => {
                counters
                    .committed_docs
                    .fetch_add(batch.documents, Ordering::Relaxed);
                counters.committed_batches.fetch_add(1, Ordering::Relaxed);
                counters
                    .committed_statements
                    .fetch_add(added, Ordering::Relaxed);
                batch.documents
            }
            Err(e) => {
                self.failure = Some(e);
                let abandoned: usize = self.batches.drain(..).map(|b| b.documents).sum();
                let unsent = std::mem::take(&mut self.filling).len();
                batch.documents + abandoned + unsent
            }
        };
        counters.in_flight.fetch_sub(released, Ordering::Relaxed);
        publish_stage_metrics(&self.kb, counters, self.parse_stall);
    }

    /// Dispatches the partial batch and commits every batch. Idempotent;
    /// shared by `finish_detailed` and `Drop`.
    fn drain(&mut self) {
        self.dispatch();
        while !self.batches.is_empty() {
            self.commit_oldest();
        }
        publish_stage_metrics(&self.kb, &self.counters, self.parse_stall);
    }
}

impl Drop for IngestSession {
    fn drop(&mut self) {
        self.drain();
    }
}

impl std::fmt::Debug for IngestSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestSession")
            .field("pushed", &self.pushed)
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

/// Publishes the session's per-stage depth and throughput, the pusher's
/// stall time, and the commit totals as `sdk_ingest_*` gauges,
/// tenant-labeled when the base is attributed to one. A stage's depth
/// is the documents it has taken but not handed on. Everything is a
/// `set`-style gauge over the session's monotone counters, so
/// republishing per batch overwrites rather than double counts.
fn publish_stage_metrics(
    kb: &PersonalKnowledgeBase,
    counters: &StageCounters,
    parse_stall: Duration,
) {
    let Some((metrics, tenant)) = kb.ingest_metrics_handle() else {
        return;
    };
    let tenant = tenant.unwrap_or("");
    let labeled = |stage: &'static str| [("stage", stage), ("tenant", tenant)];
    let count = |counter: &AtomicUsize| counter.load(Ordering::Relaxed);
    let parsed = count(&counters.parsed);
    let analyzed = count(&counters.analyzed);
    let interned = count(&counters.interned);
    let committed = count(&counters.committed_docs);
    for (stage, depth) in [
        ("analyze", parsed.saturating_sub(analyzed)),
        ("intern", analyzed.saturating_sub(interned)),
        ("commit", interned.saturating_sub(committed)),
    ] {
        metrics.set_gauge(
            "sdk_ingest_stage_depth",
            tenant_labels(&labeled(stage)),
            depth as f64,
        );
    }
    for (stage, docs) in [
        ("parse", parsed),
        ("analyze", analyzed),
        ("intern", interned),
        ("commit", committed),
    ] {
        metrics.set_gauge(
            "sdk_ingest_stage_docs",
            tenant_labels(&labeled(stage)),
            docs as f64,
        );
    }
    metrics.set_gauge(
        "sdk_ingest_stage_stall_ms",
        tenant_labels(&labeled("parse")),
        parse_stall.as_secs_f64() * 1e3,
    );
    let base = [("tenant", tenant)];
    for (name, value) in [
        ("sdk_ingest_in_flight", count(&counters.in_flight)),
        ("sdk_ingest_committed_documents", committed),
        (
            "sdk_ingest_committed_batches",
            count(&counters.committed_batches),
        ),
        (
            "sdk_ingest_committed_statements",
            count(&counters.committed_statements),
        ),
    ] {
        metrics.set_gauge(name, tenant_labels(&base), value as f64);
    }
}

impl PersonalKnowledgeBase {
    /// Streaming bulk ingest: drives `docs` through an [`IngestSession`]
    /// (parallel NLU on `pool` per batch → interning → one WAL group
    /// commit + one epoch publish per batch) and blocks until every
    /// document is committed. Equivalent to calling
    /// [`ingest_text`](Self::ingest_text) per document — same statements,
    /// same document ids, same final epoch contents — but each committed
    /// batch costs one group commit and one epoch publish instead of one
    /// per document.
    ///
    /// Crash contract (durable bases): recovery after a crash mid-stream
    /// yields exactly the documents of a *prefix of acked batches*,
    /// closure re-derived from scratch — never a torn batch.
    ///
    /// # Errors
    ///
    /// The first batch-commit failure; earlier batches stay durable,
    /// later ones are not applied. Use [`IngestSession`] directly for
    /// the acked-prefix report alongside the error.
    pub fn ingest_stream<I, S>(
        self: &Arc<Self>,
        pool: &Arc<ThreadPool>,
        docs: I,
        config: IngestConfig,
    ) -> Result<IngestReport, KbError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut session = IngestSession::new(self.clone(), pool, config);
        for doc in docs {
            session.push(doc)?;
        }
        session.finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cogsdk_store::kv::MemoryKv;
    use cogsdk_text::analysis::Analyzer;

    /// A document whose analysis job panics (a test-only hook).
    pub(crate) const PANICKING_DOCUMENT: &str = "test hook: this analysis panics";

    /// Runs `f` on a thread of its own: its result, or `None` if it is
    /// still running after 10 s (a waiter parked on a dead job; that
    /// thread is left behind).
    pub(crate) fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || tx.send(f()));
        let out = rx.recv_timeout(Duration::from_secs(10)).ok()?;
        runner.join().expect("runner thread").expect("result sent");
        Some(out)
    }

    /// The benchmark's bulk-ingest document templates.
    pub(crate) const TEMPLATES: [&str; 5] = [
        "IBM acquired Oracle. The USA praised the excellent deal.",
        "Google praised Microsoft. Germany welcomed the partnership.",
        "Oracle criticized IBM. France condemned the terrible move.",
        "Microsoft acquired Google. The USA welcomed the merger.",
        "Germany praised France. Oracle welcomed the excellent outcome.",
    ];

    #[test]
    fn entities_and_relations_yield_the_statements_of_a_full_analysis() {
        let analyzer = Analyzer::with_default_lexicons();
        let (perfect, degraded) = (NluConfig::perfect(), NluConfig::vendor("budget", 0.6, 0.3));
        let mut missed = 0;
        for (doc_id, template) in TEMPLATES.iter().enumerate() {
            let text = format!("{template} Filing {doc_id}.");
            for nlu in [&perfect, &degraded] {
                let full = analyzer.analyze(&text, nlu);
                let half = analyzer.entities_and_relations(&text, nlu);
                assert_eq!(
                    doc_statements(doc_id, &half),
                    doc_statements(doc_id, &full),
                    "{} on {text:?}",
                    nlu.vendor
                );
            }
            let kept = |nlu| analyzer.entities_and_relations(&text, nlu).entities.len();
            missed += kept(&perfect) - kept(&degraded);
        }
        assert!(missed > 0, "the degraded profile drops entities");
    }

    #[test]
    fn a_panicking_analysis_fails_the_ingest_and_commits_nothing_after_it() {
        let new_kb = || {
            Arc::new(PersonalKnowledgeBase::new(
                Arc::new(MemoryKv::new()),
                Default::default(),
            ))
        };
        let docs = |n: usize| (0..n).map(|i| format!("{} Filing {i}.", TEMPLATES[i % 5]));
        let config = IngestConfig {
            batch_size: 4,
            workers: 2,
            max_in_flight: 4,
            nlu: None,
        };
        // Batch 0 commits; batch 1 holds the panicking document; batch 2
        // follows it.
        let mut input: Vec<String> = docs(12).collect();
        input[6] = PANICKING_DOCUMENT.to_string();
        let (kb, pool) = (new_kb(), Arc::new(ThreadPool::new(2)));
        let run = {
            let (kb, pool, config) = (kb.clone(), pool.clone(), config.clone());
            within(move || kb.ingest_stream(&pool, input, config))
        };
        let err = run.expect("the ingest returns").unwrap_err();
        assert!(
            matches!(&err, KbError::Panicked(m) if m.contains("analysis panicked")),
            "{err}"
        );
        let first_batch = new_kb();
        first_batch.ingest_stream(&pool, docs(4), config).unwrap();
        assert_eq!(kb.contents_digest(), first_batch.contents_digest());
        assert_eq!(*pool.submit(|| 7).wait(), 7, "the pool still serves");
    }
}
