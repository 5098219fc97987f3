//! Pipelined streaming bulk ingest — the Fig. 5 analytics loop gone wide.
//!
//! [`PersonalKnowledgeBase::ingest_text`] runs one document at a time:
//! NLU analysis, term interning, the WAL group commit, and delta
//! materialization all serialize on the caller's thread, and every
//! document pays a full epoch publish. This module turns that loop into
//! a staged pipeline:
//!
//! ```text
//!   parse ──► [analyze queue] ──► NLU workers ──► [reorder] ──► intern ──► [commit queue] ──► commit
//!   (doc ids,    bounded          (SDK thread      (restore      (batched                    (one WAL group
//!    chunking)                     pool fan-out)    input order)  TermDict::intern_all)       commit + one
//!                                                                                             epoch publish
//!                                                                                             per batch)
//! ```
//!
//! * **Parse** — the caller's thread ([`IngestSession::push`] or the
//!   [`PersonalKnowledgeBase::ingest_stream`] driver) chunks the input
//!   into documents, assigns document ids in input order, and feeds a
//!   bounded queue.
//! * **Analyze** — a configurable number of workers on the SDK
//!   [`ThreadPool`] run the cognitive-service analysis (under the KB's
//!   configured [`NluConfig`], not a hardwired perfect profile) and
//!   build each document's RDF statements.
//! * **Intern** — completed documents are restored to input order and
//!   grouped into batches; each batch's statements are interned into the
//!   shared [`TermDict`](cogsdk_rdf::TermDict) *before* the store lock
//!   is taken, once: the committer receives id triples.
//! * **Commit** — one thread owns the store: each batch is exactly one
//!   WAL group commit and one closure-complete epoch publish, so crash
//!   recovery yields a durable *prefix of acked batches* — never a
//!   half-applied batch. The commit works on ids throughout.
//!
//! Every queue is bounded and a global credit gate caps in-flight
//! documents at [`IngestConfig::max_in_flight`]: a slow stage throttles
//! the stages upstream of it instead of ballooning memory. Stage depth,
//! throughput, and stall time are published as `sdk_ingest_stage_*`
//! metrics.

use crate::kb::PersonalKnowledgeBase;
use crate::KbError;
use cogsdk_core::ThreadPool;
use cogsdk_obs::tenant_labels;
use cogsdk_rdf::{IdTriple, Statement, Term};
use cogsdk_text::analysis::{DocumentAnalysis, NluConfig};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};
use std::thread::JoinHandle;
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
/// pipeline so both produce byte-identical knowledge.
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
/// the parse stage's chunker for corpus-shaped input (e.g. the gateway's
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
    /// Analysis workers fanned out on the SDK thread pool. Clamped to at
    /// least 1. Each worker occupies one pool slot for the session's
    /// lifetime, so keep `workers` below the pool size when the pool is
    /// shared.
    pub workers: usize,
    /// Hard cap on in-flight documents (parsed but not yet committed or
    /// abandoned) — the pipeline's memory bound. Clamped to at least
    /// `batch_size` so a batch can always fill.
    pub max_in_flight: usize,
    /// NLU quality profile for the analyze stage; `None` uses the
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
    /// Documents pushed into the pipeline (≥ `documents` on failure).
    pub pushed: usize,
    /// Wall-clock session time, push of the first document to finish.
    pub elapsed: Duration,
    /// Committed documents per second of session time.
    pub docs_per_sec: f64,
    /// Peak in-flight documents observed — never exceeds
    /// [`IngestConfig::max_in_flight`].
    pub peak_in_flight: usize,
    /// Time the parse stage spent blocked on the in-flight credit gate.
    pub parse_stall: Duration,
    /// Time the analyze stage spent blocked pushing into the reorder
    /// queue.
    pub analyze_stall: Duration,
    /// Time the intern stage spent blocked pushing into the commit queue.
    pub intern_stall: Duration,
}

/// A bounded MPMC queue: `push` blocks while full (recording the stall),
/// `pop` blocks while empty until closed. Purpose-built so stage depth
/// and stall time fall out of the structure itself.
struct Bounded<T> {
    inner: Mutex<BoundedInner<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
    depth: AtomicUsize,
    push_stall_ns: AtomicU64,
}

struct BoundedInner<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Bounded<T> {
    fn new(capacity: usize) -> Arc<Bounded<T>> {
        Arc::new(Bounded {
            inner: Mutex::new(BoundedInner {
                queue: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            depth: AtomicUsize::new(0),
            push_stall_ns: AtomicU64::new(0),
        })
    }

    /// Enqueues, blocking while the queue is at capacity — this block is
    /// the backpressure that throttles the upstream stage.
    fn push(&self, item: T) {
        let mut inner = self.inner.lock();
        if inner.queue.len() >= self.capacity && !inner.closed {
            let stalled = Instant::now();
            while inner.queue.len() >= self.capacity && !inner.closed {
                self.not_full.wait(&mut inner);
            }
            self.push_stall_ns
                .fetch_add(stalled.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        inner.queue.push_back(item);
        self.depth.store(inner.queue.len(), Ordering::Relaxed);
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Dequeues, blocking while empty; `None` once closed *and* drained.
    fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(item) = inner.queue.pop_front() {
                self.depth.store(inner.queue.len(), Ordering::Relaxed);
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    /// Marks the queue closed; blocked producers and consumers wake.
    fn close(&self) {
        self.inner.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    fn stall(&self) -> Duration {
        Duration::from_nanos(self.push_stall_ns.load(Ordering::Relaxed))
    }
}

/// The global in-flight credit gate: one credit per parsed document,
/// returned when the document's batch commits (or is abandoned after a
/// failure). Because *every* stage's buffers hold only credited
/// documents, peak pipeline memory is bounded by the credit count no
/// matter which stage stalls.
struct Credits {
    available: Mutex<usize>,
    freed: Condvar,
    bound: usize,
    peak_in_flight: AtomicUsize,
    stall_ns: AtomicU64,
}

impl Credits {
    fn new(bound: usize) -> Arc<Credits> {
        Arc::new(Credits {
            available: Mutex::new(bound),
            freed: Condvar::new(),
            bound,
            peak_in_flight: AtomicUsize::new(0),
            stall_ns: AtomicU64::new(0),
        })
    }

    /// Takes one credit, blocking while none are free (the parse stage's
    /// backpressure point).
    fn acquire(&self) {
        let mut available = self.available.lock();
        if *available == 0 {
            let stalled = Instant::now();
            while *available == 0 {
                self.freed.wait(&mut available);
            }
            self.stall_ns
                .fetch_add(stalled.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        *available -= 1;
        let in_flight = self.bound - *available;
        drop(available);
        self.peak_in_flight.fetch_max(in_flight, Ordering::Relaxed);
    }

    fn release(&self, n: usize) {
        let mut available = self.available.lock();
        *available = (*available + n).min(self.bound);
        drop(available);
        self.freed.notify_all();
    }

    fn in_flight(&self) -> usize {
        self.bound - *self.available.lock()
    }

    fn peak(&self) -> usize {
        self.peak_in_flight.load(Ordering::Relaxed)
    }

    fn stall(&self) -> Duration {
        Duration::from_nanos(self.stall_ns.load(Ordering::Relaxed))
    }
}

/// Cross-stage counters, shared by every stage thread and the watcher.
#[derive(Default)]
struct StageCounters {
    parsed: AtomicU64,
    analyzed: AtomicU64,
    interned: AtomicU64,
    committed_docs: AtomicU64,
    committed_batches: AtomicU64,
    committed_statements: AtomicU64,
}

/// A clonable, read-only view of a running session's progress — safe to
/// poll from another thread while the session owner is blocked pushing.
#[derive(Clone)]
pub struct IngestWatcher {
    credits: Arc<Credits>,
    counters: Arc<StageCounters>,
}

impl IngestWatcher {
    /// Documents currently in flight (parsed, not yet committed or
    /// abandoned).
    pub fn in_flight(&self) -> usize {
        self.credits.in_flight()
    }

    /// Highest in-flight count observed so far.
    pub fn peak_in_flight(&self) -> usize {
        self.credits.peak()
    }

    /// Documents whose batch has committed so far.
    pub fn committed_documents(&self) -> usize {
        self.counters.committed_docs.load(Ordering::Relaxed) as usize
    }

    /// Documents analyzed so far.
    pub fn analyzed_documents(&self) -> usize {
        self.counters.analyzed.load(Ordering::Relaxed) as usize
    }
}

struct AnalyzeJob {
    index: usize,
    doc_id: usize,
    text: String,
}

struct PreparedBatch {
    documents: usize,
    triples: Vec<IdTriple>,
}

/// A push-style streaming bulk-ingest session. Build one with
/// [`IngestSession::new`], feed it documents with
/// [`push`](IngestSession::push) (which blocks when the pipeline's
/// in-flight bound is reached), and call
/// [`finish`](IngestSession::finish) to drain and collect the report.
///
/// Dropping a session without finishing shuts the pipeline down cleanly
/// (committing whatever had reached the commit stage).
pub struct IngestSession {
    kb: Arc<PersonalKnowledgeBase>,
    analyze_q: Arc<Bounded<AnalyzeJob>>,
    done_q: Arc<Bounded<(usize, Vec<Statement>)>>,
    commit_q: Arc<Bounded<PreparedBatch>>,
    credits: Arc<Credits>,
    counters: Arc<StageCounters>,
    failed: Arc<Mutex<Option<KbError>>>,
    failed_flag: Arc<AtomicBool>,
    workers: Vec<cogsdk_core::ListenableFuture<()>>,
    batcher: Option<JoinHandle<()>>,
    committer: Option<JoinHandle<()>>,
    started: Instant,
    pushed: usize,
}

impl IngestSession {
    /// Spins up the pipeline: `config.workers` analysis jobs on `pool`,
    /// an intern/batcher thread, and a committer thread. The session
    /// holds the knowledge base by `Arc` so the stages outlive the
    /// caller's stack frame.
    pub fn new(
        kb: Arc<PersonalKnowledgeBase>,
        pool: &ThreadPool,
        config: IngestConfig,
    ) -> IngestSession {
        let config = config.normalized();
        let nlu = config.nlu.clone().unwrap_or_else(|| kb.nlu_config());
        let analyzer = kb.shared_analyzer();
        let dict = kb.shared_dict();

        let analyze_q: Arc<Bounded<AnalyzeJob>> = Bounded::new(config.max_in_flight);
        let done_q = Bounded::new(config.max_in_flight);
        let commit_q = Bounded::new((config.max_in_flight / config.batch_size).max(1));
        let credits = Credits::new(config.max_in_flight);
        let counters = Arc::new(StageCounters::default());
        let failed = Arc::new(Mutex::new(None));
        let failed_flag = Arc::new(AtomicBool::new(false));

        // Analyze stage: NLU fan-out on the SDK pool. The last worker to
        // drain the queue closes the reorder queue behind itself.
        let live_workers = Arc::new(AtomicUsize::new(config.workers));
        let workers = (0..config.workers)
            .map(|_| {
                let analyze_q = analyze_q.clone();
                let done_q = done_q.clone();
                let analyzer = analyzer.clone();
                let nlu = nlu.clone();
                let counters = counters.clone();
                let live = live_workers.clone();
                pool.submit(move || {
                    while let Some(job) = analyze_q.pop() {
                        let analysis = analyzer.entities_and_relations(&job.text, &nlu);
                        counters.analyzed.fetch_add(1, Ordering::Relaxed);
                        done_q.push((job.index, doc_statements(job.doc_id, &analysis)));
                    }
                    if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                        done_q.close();
                    }
                })
            })
            .collect();

        // Intern stage: restore input order, group into batches, intern
        // each batch's terms into the shared dictionary *off* the store
        // lock, hand the prepared batch to the committer.
        let batcher = {
            let dict = dict.clone();
            let done_q = done_q.clone();
            let commit_q = commit_q.clone();
            let counters = counters.clone();
            let batch_size = config.batch_size;
            std::thread::Builder::new()
                .name("cogsdk-ingest-intern".into())
                .spawn(move || {
                    let mut reorder: BTreeMap<usize, Vec<Statement>> = BTreeMap::new();
                    let mut next = 0usize;
                    let mut pending_docs = 0usize;
                    let mut pending: Vec<Statement> = Vec::new();
                    let flush = |pending: &mut Vec<Statement>, pending_docs: &mut usize| {
                        if *pending_docs == 0 {
                            return;
                        }
                        let triples = dict.intern_all(&std::mem::take(pending));
                        counters
                            .interned
                            .fetch_add(*pending_docs as u64, Ordering::Relaxed);
                        commit_q.push(PreparedBatch {
                            documents: std::mem::take(pending_docs),
                            triples,
                        });
                    };
                    while let Some((index, statements)) = done_q.pop() {
                        reorder.insert(index, statements);
                        while let Some(statements) = reorder.remove(&next) {
                            next += 1;
                            pending.extend(statements);
                            pending_docs += 1;
                            if pending_docs == batch_size {
                                flush(&mut pending, &mut pending_docs);
                            }
                        }
                    }
                    flush(&mut pending, &mut pending_docs);
                    commit_q.close();
                })
                .expect("spawn ingest intern thread")
        };

        // Commit stage: the single store owner. One WAL group commit and
        // one epoch publish per batch; the first failure stops all
        // further commits (preserving the acked-prefix crash contract)
        // but keeps draining so upstream stages unwind instead of
        // deadlocking on credits.
        let committer = {
            let kb = kb.clone();
            let commit_q = commit_q.clone();
            let credits = credits.clone();
            let counters = counters.clone();
            let failed = failed.clone();
            let failed_flag = failed_flag.clone();
            let analyze_q = analyze_q.clone();
            let done_q = done_q.clone();
            std::thread::Builder::new()
                .name("cogsdk-ingest-commit".into())
                .spawn(move || {
                    while let Some(batch) = commit_q.pop() {
                        if !failed_flag.load(Ordering::Acquire) {
                            match kb.commit_ingest_batch(&dict, &batch.triples) {
                                Ok(added) => {
                                    counters
                                        .committed_docs
                                        .fetch_add(batch.documents as u64, Ordering::Relaxed);
                                    counters.committed_batches.fetch_add(1, Ordering::Relaxed);
                                    counters
                                        .committed_statements
                                        .fetch_add(added as u64, Ordering::Relaxed);
                                }
                                Err(e) => {
                                    *failed.lock() = Some(e);
                                    failed_flag.store(true, Ordering::Release);
                                }
                            }
                        }
                        credits.release(batch.documents);
                        publish_stage_metrics(
                            &kb, &counters, &analyze_q, &done_q, &commit_q, &credits,
                        );
                    }
                })
                .expect("spawn ingest commit thread")
        };

        IngestSession {
            kb,
            analyze_q,
            done_q,
            commit_q,
            credits,
            counters,
            failed,
            failed_flag,
            workers,
            batcher: Some(batcher),
            committer: Some(committer),
            started: Instant::now(),
            pushed: 0,
        }
    }

    /// Feeds one document into the pipeline, blocking while the
    /// in-flight bound is reached (backpressure). Fails fast once a
    /// commit has failed — later documents would never be acked.
    ///
    /// # Errors
    ///
    /// The committer's first error, once one occurred.
    pub fn push(&mut self, doc: impl Into<String>) -> Result<(), KbError> {
        if let Some(e) = self.failure() {
            return Err(e);
        }
        self.credits.acquire();
        if let Some(e) = self.failure() {
            self.credits.release(1);
            return Err(e);
        }
        let doc_id = self.kb.allocate_doc_id();
        self.analyze_q.push(AnalyzeJob {
            index: self.pushed,
            doc_id,
            text: doc.into(),
        });
        self.pushed += 1;
        self.counters.parsed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The committer's first error, if any.
    pub fn failure(&self) -> Option<KbError> {
        if !self.failed_flag.load(Ordering::Acquire) {
            return None;
        }
        self.failed.lock().clone()
    }

    /// A clonable progress handle, safe to poll from other threads.
    pub fn watcher(&self) -> IngestWatcher {
        IngestWatcher {
            credits: self.credits.clone(),
            counters: self.counters.clone(),
        }
    }

    /// Documents currently in flight.
    pub fn in_flight(&self) -> usize {
        self.credits.in_flight()
    }

    /// Drains the pipeline and reports. On a commit failure the report
    /// still describes the acked prefix; the error rides alongside.
    pub fn finish_detailed(mut self) -> (IngestReport, Option<KbError>) {
        self.shutdown();
        let error = self.failure();
        let elapsed = self.started.elapsed();
        let documents = self.counters.committed_docs.load(Ordering::Relaxed) as usize;
        let report = IngestReport {
            documents,
            batches: self.counters.committed_batches.load(Ordering::Relaxed) as usize,
            statements: self.counters.committed_statements.load(Ordering::Relaxed) as usize,
            pushed: self.pushed,
            elapsed,
            docs_per_sec: documents as f64 / elapsed.as_secs_f64().max(1e-9),
            peak_in_flight: self.credits.peak(),
            parse_stall: self.credits.stall(),
            analyze_stall: self.done_q.stall(),
            intern_stall: self.commit_q.stall(),
        };
        (report, error)
    }

    /// As [`finish_detailed`](Self::finish_detailed), erroring if any
    /// batch failed to commit.
    ///
    /// # Errors
    ///
    /// The committer's first error; the acked prefix is still durable.
    pub fn finish(self) -> Result<IngestReport, KbError> {
        let (report, error) = self.finish_detailed();
        match error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Closes the intake and joins every stage. Idempotent; shared by
    /// `finish_detailed` and `Drop`.
    fn shutdown(&mut self) {
        self.analyze_q.close();
        for worker in self.workers.drain(..) {
            worker.wait();
        }
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        if let Some(committer) = self.committer.take() {
            let _ = committer.join();
        }
        publish_stage_metrics(
            &self.kb,
            &self.counters,
            &self.analyze_q,
            &self.done_q,
            &self.commit_q,
            &self.credits,
        );
    }
}

impl Drop for IngestSession {
    fn drop(&mut self) {
        self.shutdown();
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

/// Publishes the pipeline's per-stage depth, throughput, and stall-time
/// gauges as `sdk_ingest_stage_*` metrics, tenant-labeled when the base
/// is attributed to one. Everything is a `set`-style gauge over the
/// session's monotone atomics, so republishing per batch overwrites
/// rather than double counts.
fn publish_stage_metrics(
    kb: &PersonalKnowledgeBase,
    counters: &StageCounters,
    analyze_q: &Bounded<AnalyzeJob>,
    done_q: &Bounded<(usize, Vec<Statement>)>,
    commit_q: &Bounded<PreparedBatch>,
    credits: &Credits,
) {
    let Some((metrics, tenant)) = kb.ingest_metrics_handle() else {
        return;
    };
    let tenant = tenant.unwrap_or("");
    let labeled = |stage: &'static str| [("stage", stage), ("tenant", tenant)];
    for (stage, depth) in [
        ("analyze", analyze_q.depth()),
        ("intern", done_q.depth()),
        ("commit", commit_q.depth()),
    ] {
        metrics.set_gauge(
            "sdk_ingest_stage_depth",
            tenant_labels(&labeled(stage)),
            depth as f64,
        );
    }
    for (stage, docs) in [
        ("parse", counters.parsed.load(Ordering::Relaxed)),
        ("analyze", counters.analyzed.load(Ordering::Relaxed)),
        ("intern", counters.interned.load(Ordering::Relaxed)),
        ("commit", counters.committed_docs.load(Ordering::Relaxed)),
    ] {
        metrics.set_gauge(
            "sdk_ingest_stage_docs",
            tenant_labels(&labeled(stage)),
            docs as f64,
        );
    }
    for (stage, stall) in [
        ("parse", credits.stall()),
        ("analyze", done_q.stall()),
        ("intern", commit_q.stall()),
    ] {
        metrics.set_gauge(
            "sdk_ingest_stage_stall_ms",
            tenant_labels(&labeled(stage)),
            stall.as_secs_f64() * 1e3,
        );
    }
    let base = [("tenant", tenant)];
    let base = tenant_labels(&base);
    metrics.set_gauge("sdk_ingest_in_flight", base, credits.in_flight() as f64);
    metrics.set_gauge(
        "sdk_ingest_committed_documents",
        base,
        counters.committed_docs.load(Ordering::Relaxed) as f64,
    );
    metrics.set_gauge(
        "sdk_ingest_committed_batches",
        base,
        counters.committed_batches.load(Ordering::Relaxed) as f64,
    );
    metrics.set_gauge(
        "sdk_ingest_committed_statements",
        base,
        counters.committed_statements.load(Ordering::Relaxed) as f64,
    );
}

impl PersonalKnowledgeBase {
    /// Streaming bulk ingest: drives `docs` through the staged pipeline
    /// (chunked parse → parallel NLU on `pool` → batched interning →
    /// grouped WAL commit + epoch publish per batch) and blocks until
    /// every document is committed. Equivalent to calling
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
        pool: &ThreadPool,
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
    use cogsdk_text::analysis::Analyzer;

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
}
