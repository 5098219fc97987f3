//! The `PersonalKnowledgeBase` facade.

use crate::analytics::{regress_table, RegressionFacts};
use crate::convert::{graph_to_text, sanitize, table_to_statements, text_to_graph};
use crate::KbError;
use bytes::Bytes;
use cogsdk_obs::{tenant_labels, Telemetry};
use cogsdk_rdf::query::Solution;
use cogsdk_rdf::reason::TriplePattern;
use cogsdk_rdf::weighted::{WeightedGraph, WeightedReasoner};
use cogsdk_rdf::{
    DurableOptions, DurableStore, EpochSnapshot, EpochStore, GenericRuleReasoner, IdTriple, Query,
    QueryStats, RecoveryStats, Statement, Term, TermDict, TermId, WalStats,
};
use cogsdk_sim::fs::Vfs;
use cogsdk_store::crypto::Key;
use cogsdk_store::csv::{csv_to_table, table_to_csv};
use cogsdk_store::enhanced::{EnhancedClient, EnhancedOptions};
use cogsdk_store::kv::{KeyValueStore, MemoryKv};
use cogsdk_store::sync::{LocalFirstStore, SyncReport};
use cogsdk_store::table::{Schema, Table, TableStore};
use cogsdk_text::analysis::{Analyzer, NluConfig};
use cogsdk_text::disambig::{EntityCatalog, ResolvedEntity};
use cogsdk_text::SpellChecker;
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A candidate object in a conflict, with its accuracy level.
pub type ConflictCandidate = (Term, f64);

/// One conflict: the `(subject, predicate)` pair and its candidate
/// objects, most-trusted first.
pub type Conflict = ((Term, Term), Vec<ConflictCandidate>);

/// Construction options for the knowledge base.
#[derive(Debug, Clone, Default)]
pub struct KbOptions {
    /// Encrypt persisted knowledge with a key derived from this
    /// passphrase before it reaches the remote store (§3's
    /// confidentiality requirement for untrusted stores).
    pub encryption_passphrase: Option<String>,
    /// Compress persisted knowledge before upload.
    pub compress: bool,
    /// Client-side cache entries for the remote store.
    pub cache_capacity: usize,
    /// NLU quality profile used by text ingest (`None` = perfect
    /// analysis, the historical default). Reconfigurable later via
    /// [`PersonalKnowledgeBase::set_nlu_config`].
    pub nlu: Option<NluConfig>,
}

/// The personalized knowledge base.
///
/// Holds data in every §3 form at once — relational tables, an RDF graph,
/// and a key-value persistence layer (local-first with an
/// encrypting/compressing client in front of the remote store) — and
/// converts between them.
///
/// # Examples
///
/// ```
/// use cogsdk_kb::{PersonalKnowledgeBase, KbOptions};
/// use cogsdk_store::MemoryKv;
/// use std::sync::Arc;
///
/// let kb = PersonalKnowledgeBase::new(Arc::new(MemoryKv::new()), KbOptions::default());
/// kb.ingest_csv("gdp", "country,gdp\nusa,21000.5\ngermany,4200.0\n").unwrap();
/// kb.table_to_rdf("gdp", "country", "kb").unwrap();
/// let rows = kb.query("SELECT ?c WHERE { ?c <kb:gdp> ?g . FILTER (?g > 10000) }").unwrap();
/// assert_eq!(rows.len(), 1);
/// ```
pub struct PersonalKnowledgeBase {
    tables: TableStore,
    /// The RDF store, wrapped in an incremental materializer: once a
    /// reasoner is enabled (via `infer_*`), its closure is *maintained*
    /// across later ingests and retractions instead of being recomputed
    /// from scratch per call (the Fig. 5 loop's hot path). When the base
    /// was opened durably, every mutation is WAL-logged before it
    /// applies, so a crash loses at most the in-flight operation.
    graph: RwLock<DurableStore>,
    /// The store's immutable epoch snapshots, shared with the
    /// [`DurableStore`] *outside* the `graph` lock: readers pin an epoch
    /// with one refcount bump and never contend with writers. Weighted
    /// confidences travel inside each epoch (§5 future work: accuracy
    /// levels on stored and inferred facts) and are durably owned by the
    /// store itself.
    epochs: Arc<EpochStore>,
    catalog: RwLock<EntityCatalog>,
    /// Shared with every ingest session's analysis workers.
    analyzer: Arc<Analyzer>,
    /// NLU quality profile applied by `ingest_text` (and the streaming
    /// pipeline when its config doesn't override it) — degraded/chaos
    /// analysis paths are reachable from ingest by configuring this.
    nlu: RwLock<NluConfig>,
    spell: SpellChecker,
    store: LocalFirstStore,
    /// Retained handle on the enhanced client so its cache counters can
    /// be surfaced through telemetry.
    enhanced: Arc<EnhancedClient>,
    telemetry: Telemetry,
    /// Owning tenant: when set, published metrics carry a `tenant` label
    /// so a multi-tenant host can attribute KB cache traffic.
    tenant: Option<String>,
    /// Cache counters already pushed into the metrics registry
    /// (hits, misses) — publishing is delta-based.
    published_cache: Mutex<(u64, u64)>,
    /// WAL counters already pushed into the metrics registry —
    /// publishing is delta-based, like the cache counters.
    published_wal: Mutex<WalStats>,
    doc_counter: AtomicUsize,
}

impl std::fmt::Debug for PersonalKnowledgeBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersonalKnowledgeBase")
            .field("tables", &self.tables.table_names())
            .field("statements", &self.graph.read().len())
            .finish_non_exhaustive()
    }
}

impl PersonalKnowledgeBase {
    /// Creates a knowledge base persisting to `remote` through an
    /// enhanced client configured by `options`.
    pub fn new(remote: Arc<dyn KeyValueStore>, options: KbOptions) -> PersonalKnowledgeBase {
        PersonalKnowledgeBase::with_telemetry(remote, options, Telemetry::disabled())
    }

    /// As [`PersonalKnowledgeBase::new`], publishing the enhanced
    /// client's cache hit/miss counters into `telemetry` (labeled
    /// `cache="kb-enhanced"`) whenever the store is touched.
    pub fn with_telemetry(
        remote: Arc<dyn KeyValueStore>,
        options: KbOptions,
        telemetry: Telemetry,
    ) -> PersonalKnowledgeBase {
        PersonalKnowledgeBase::build(remote, options, telemetry, DurableStore::in_memory())
    }

    /// Opens a *durable* knowledge base whose RDF store is
    /// crash-recoverable under `path`: every ingest, import, retraction,
    /// and ruleset change is appended to a write-ahead log before it
    /// applies, and recovery (snapshot load + WAL replay + closure
    /// re-derivation) runs before this returns. See
    /// [`DurableStore`] for the recovery
    /// contract.
    ///
    /// # Errors
    ///
    /// [`KbError::Durability`] if existing state is corrupt beyond a
    /// torn tail record or storage fails.
    pub fn open_durable(
        path: impl AsRef<Path>,
        remote: Arc<dyn KeyValueStore>,
        options: KbOptions,
    ) -> Result<PersonalKnowledgeBase, KbError> {
        let graph = DurableStore::open_dir(path, DurableOptions::default())?;
        Ok(PersonalKnowledgeBase::build(
            remote,
            options,
            Telemetry::disabled(),
            graph,
        ))
    }

    /// As [`open_durable`](Self::open_durable) on an explicit virtual
    /// filesystem (e.g. a fault-injecting `SimFs`), with telemetry:
    /// recovery stats are published once at open and WAL counters on
    /// every logged mutation.
    ///
    /// # Errors
    ///
    /// As for [`open_durable`](Self::open_durable).
    pub fn open_durable_on(
        fs: Arc<dyn Vfs>,
        remote: Arc<dyn KeyValueStore>,
        options: KbOptions,
        telemetry: Telemetry,
    ) -> Result<PersonalKnowledgeBase, KbError> {
        let graph = DurableStore::open(fs, DurableOptions::default())?;
        Ok(PersonalKnowledgeBase::build(
            remote, options, telemetry, graph,
        ))
    }

    fn build(
        remote: Arc<dyn KeyValueStore>,
        options: KbOptions,
        telemetry: Telemetry,
        graph: DurableStore,
    ) -> PersonalKnowledgeBase {
        let enhanced = Arc::new(EnhancedClient::new(
            remote,
            EnhancedOptions {
                cache_capacity: options.cache_capacity,
                compress: options.compress,
                encryption_key: options.encryption_passphrase.as_deref().map(Key::derive),
            },
        ));
        let kb = PersonalKnowledgeBase {
            tables: TableStore::new(),
            doc_counter: AtomicUsize::new(next_doc_id(&graph)),
            epochs: graph.epochs().clone(),
            graph: RwLock::new(graph),
            catalog: RwLock::new(EntityCatalog::builtin()),
            analyzer: Arc::new(Analyzer::with_default_lexicons()),
            nlu: RwLock::new(options.nlu.clone().unwrap_or_else(NluConfig::perfect)),
            spell: SpellChecker::with_builtin_dictionary(),
            store: LocalFirstStore::new(Arc::new(MemoryKv::new()), enhanced.clone()),
            enhanced,
            telemetry,
            tenant: None,
            published_cache: Mutex::new((0, 0)),
            published_wal: Mutex::new(WalStats::default()),
        };
        kb.publish_recovery_metrics();
        kb
    }

    /// Attributes this knowledge base to one tenant: published cache
    /// counters gain a `tenant` label (untenanted bases keep their
    /// original series).
    pub fn for_tenant(mut self, tenant: impl Into<String>) -> PersonalKnowledgeBase {
        self.tenant = Some(tenant.into());
        self
    }

    /// Remote-store cache effectiveness counters (hits/misses of the
    /// enhanced client's read cache).
    pub fn store_cache_stats(&self) -> cogsdk_store::enhanced::EnhancedStats {
        self.enhanced.stats()
    }

    /// Pushes the enhanced client's cache counters into the metrics
    /// registry as `cache_requests_total{cache="kb-enhanced",result=…}`.
    /// Delta-based: safe to call as often as convenient. Invoked
    /// automatically by the persistence entry points.
    pub fn publish_cache_metrics(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let stats = self.enhanced.stats();
        let mut last = self.published_cache.lock();
        let hits = stats.cache_hits.saturating_sub(last.0);
        let misses = stats.cache_misses.saturating_sub(last.1);
        *last = (stats.cache_hits, stats.cache_misses);
        drop(last);
        let metrics = self.telemetry.metrics();
        const KB_CACHE: (&str, &str) = ("cache", "kb-enhanced");
        for (result, delta) in [("hit", hits), ("miss", misses)] {
            if delta == 0 {
                continue;
            }
            let tenant = self.tenant.as_deref().unwrap_or("");
            metrics.add_counter(
                "cache_requests_total",
                tenant_labels(&[KB_CACHE, ("result", result), ("tenant", tenant)]),
                delta,
            );
        }
    }

    /// Publishes the recovery stats of a durable open as
    /// `sdk_recovery_*` metrics. Called once from construction; a no-op
    /// for in-memory bases or disabled telemetry.
    fn publish_recovery_metrics(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let Some(stats) = self.graph.read().recovery_stats() else {
            return;
        };
        let metrics = self.telemetry.metrics();
        metrics.add_counter(
            "sdk_recovery_replayed_records_total",
            &[],
            stats.replayed_records,
        );
        metrics.add_counter("sdk_recovery_torn_tail_total", &[], stats.torn_tails);
        metrics.set_gauge("sdk_recovery_duration_ms", &[], stats.duration_ms);
        metrics.set_gauge("sdk_recovery_base_triples", &[], stats.base_triples as f64);
    }

    /// Pushes WAL activity counters (`sdk_wal_appends_total`,
    /// `sdk_wal_fsyncs_total`, `sdk_wal_bytes_total`) into the metrics
    /// registry. Delta-based like the cache counters; invoked by every
    /// mutation entry point that may have logged.
    pub fn publish_durability_metrics(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let stats = self.graph.read().wal_stats();
        let mut last = self.published_wal.lock();
        let appends = stats.appends.saturating_sub(last.appends);
        let fsyncs = stats.fsyncs.saturating_sub(last.fsyncs);
        let bytes = stats.bytes.saturating_sub(last.bytes);
        *last = stats;
        drop(last);
        let metrics = self.telemetry.metrics();
        for (name, delta) in [
            ("sdk_wal_appends_total", appends),
            ("sdk_wal_fsyncs_total", fsyncs),
            ("sdk_wal_bytes_total", bytes),
        ] {
            if delta != 0 {
                metrics.add_counter(name, &[], delta);
            }
        }
    }

    /// Runs `f` under the graph write lock, then publishes any WAL
    /// activity it produced.
    fn with_graph_mut<R>(&self, f: impl FnOnce(&mut DurableStore) -> R) -> R {
        let result = f(&mut self.graph.write());
        self.publish_durability_metrics();
        result
    }

    // ------------------------------------------------------------------
    // Relational and CSV storage
    // ------------------------------------------------------------------

    /// Ingests CSV text (with header) as a new table; returns the row
    /// count.
    ///
    /// # Errors
    ///
    /// Malformed CSV or a duplicate table name.
    pub fn ingest_csv(&self, name: &str, csv_text: &str) -> Result<usize, KbError> {
        let table = csv_to_table(csv_text)?;
        let rows = table.len();
        self.tables.create_table(name, table.schema().clone())?;
        for row in table.rows() {
            self.tables.insert(name, row.clone())?;
        }
        Ok(rows)
    }

    /// Creates an empty table with an explicit schema.
    ///
    /// # Errors
    ///
    /// Duplicate name.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), KbError> {
        Ok(self.tables.create_table(name, schema)?)
    }

    /// Exports a table as CSV text (§3: output "which can be analyzed by
    /// other data analysis tools such as MATLAB, Excel, … R").
    ///
    /// # Errors
    ///
    /// Unknown table.
    pub fn export_csv(&self, name: &str) -> Result<String, KbError> {
        Ok(self.tables.with_table(name, table_to_csv)?)
    }

    /// The table store, for direct relational work.
    pub fn tables(&self) -> &TableStore {
        &self.tables
    }

    /// Runs `f` against a named table.
    ///
    /// # Errors
    ///
    /// Unknown table.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> R) -> Result<R, KbError> {
        Ok(self.tables.with_table(name, f)?)
    }

    // ------------------------------------------------------------------
    // RDF storage, conversion, querying, inference
    // ------------------------------------------------------------------

    /// Converts a table to RDF statements in the graph; returns how many
    /// statements were added.
    ///
    /// # Errors
    ///
    /// Unknown table or subject column.
    pub fn table_to_rdf(
        &self,
        table: &str,
        subject_col: &str,
        namespace: &str,
    ) -> Result<usize, KbError> {
        let statements = self
            .tables
            .with_table(table, |t| table_to_statements(t, subject_col, namespace))??;
        // One batch delta propagation (and one WAL group commit) for the
        // whole table.
        Ok(self.with_graph_mut(|g| g.insert_batch(statements))?)
    }

    /// Adds one statement directly; returns whether it was new.
    ///
    /// # Errors
    ///
    /// [`KbError::Durability`] if the WAL append fails (the statement is
    /// then *not* applied in memory).
    pub fn add_statement(&self, statement: Statement) -> Result<bool, KbError> {
        Ok(self.with_graph_mut(|g| g.insert(statement))?)
    }

    /// Adds a fact given *surface forms*: subject and object are
    /// disambiguated against the entity catalog so "USA" and "United
    /// States of America" land on one canonical resource (§3). An object
    /// that resolves to no entity is stored as a string literal.
    ///
    /// # Errors
    ///
    /// [`KbError::UnknownEntity`] if the subject cannot be resolved.
    pub fn add_fact(
        &self,
        subject: &str,
        predicate: &str,
        object: &str,
    ) -> Result<Statement, KbError> {
        let catalog = self.catalog.read();
        let subj = catalog
            .resolve(subject)
            .ok_or_else(|| KbError::UnknownEntity(subject.to_string()))?;
        let object_term = match catalog.resolve(object) {
            Some(e) => Term::iri(format!("kb:{}", e.id)),
            None => Term::string(object),
        };
        drop(catalog);
        let st = Statement::new(
            Term::iri(format!("kb:{}", subj.id)),
            Term::iri(format!("kb:{}", sanitize(predicate))),
            object_term,
        );
        self.with_graph_mut(|g| g.insert(st.clone()))?;
        Ok(st)
    }

    /// Resolves a surface form through the catalog.
    pub fn disambiguate(&self, surface: &str) -> Option<ResolvedEntity> {
        self.catalog.read().resolve(surface)
    }

    /// Registers user synonym pairs (§3: user-provided synonym files for
    /// domains with no disambiguation service).
    pub fn add_synonyms<I, S1, S2>(&self, pairs: I)
    where
        I: IntoIterator<Item = (S1, S2)>,
        S1: AsRef<str>,
        S2: Into<String>,
    {
        self.catalog.write().add_synonyms(pairs);
    }

    /// Loads a synonym file (`canonical: surface1, surface2` lines).
    ///
    /// # Errors
    ///
    /// [`KbError::Corrupt`] on malformed lines.
    pub fn add_synonym_file(&self, contents: &str) -> Result<usize, KbError> {
        self.catalog
            .write()
            .add_synonym_file(contents)
            .map_err(KbError::Corrupt)
    }

    /// Ingests unstructured text: runs the local analyzer and stores the
    /// findings as RDF — entity types, document mentions with sentiment,
    /// and extracted relations. Returns the number of statements added.
    /// On a durable base the whole document lands in one WAL group
    /// commit: after a crash either the document's facts are all
    /// recoverable or none are half-applied.
    ///
    /// # Errors
    ///
    /// [`KbError::Durability`] if the WAL append fails (nothing is
    /// applied in memory).
    pub fn ingest_text(&self, text: &str) -> Result<usize, KbError> {
        self.ingest_text_with(text, &self.nlu_config())
    }

    /// As [`ingest_text`](Self::ingest_text) under an explicit NLU
    /// quality profile, overriding the base's configured one for this
    /// document only.
    ///
    /// # Errors
    ///
    /// As for [`ingest_text`](Self::ingest_text).
    pub fn ingest_text_with(&self, text: &str, config: &NluConfig) -> Result<usize, KbError> {
        let analysis = self.analyzer.entities_and_relations(text, config);
        let doc_id = self.doc_counter.fetch_add(1, Ordering::Relaxed);
        let batch = crate::ingest::doc_statements(doc_id, &analysis);
        Ok(self.with_graph_mut(|g| g.insert_batch(batch))?)
    }

    /// The NLU quality profile text ingest currently analyzes under.
    pub fn nlu_config(&self) -> NluConfig {
        self.nlu.read().clone()
    }

    /// Reconfigures the NLU quality profile for later text ingest —
    /// e.g. a degraded vendor profile so chaos experiments exercise the
    /// same ingest path production does.
    pub fn set_nlu_config(&self, config: NluConfig) {
        *self.nlu.write() = config;
    }

    /// Reserves the next document id. Ids are handed out in call order,
    /// so a streaming session that pushes documents sequentially gets
    /// the same ids a sequential `ingest_text` loop would.
    pub(crate) fn allocate_doc_id(&self) -> usize {
        self.doc_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// The analyzer, for pipeline workers.
    pub(crate) fn shared_analyzer(&self) -> Arc<Analyzer> {
        self.analyzer.clone()
    }

    /// The live term dictionary (shared with every epoch), for the
    /// ingest pipeline's off-lock intern stage. Interning ahead of the
    /// commit is safe: the WAL's dictionary watermark logs *all* terms
    /// interned since the last commit, whichever thread interned them.
    pub(crate) fn shared_dict(&self) -> cogsdk_rdf::TermDict {
        self.epochs.pin().dict().clone()
    }

    /// Commits one prepared ingest batch, interned into `dict` already:
    /// a single WAL group commit and a single closure-complete epoch
    /// publish. The streaming loader's whole crash contract rests on this
    /// being the only way a batch lands.
    pub(crate) fn commit_ingest_batch(
        &self,
        dict: &TermDict,
        batch: &[IdTriple],
    ) -> Result<usize, KbError> {
        Ok(self.with_graph_mut(|g| {
            if g.epochs().pin().dict().ptr_eq(dict) {
                g.insert_ids(batch)
            } else {
                // A `load_graph` swapped the dictionary after the intern
                // stage ran: the ids mean nothing to the store any more.
                g.insert_batch(dict.resolve_all(batch))
            }
        })?)
    }

    /// The metrics registry and tenant attribution for ingest-pipeline
    /// gauges, or `None` when telemetry is disabled.
    pub(crate) fn ingest_metrics_handle(
        &self,
    ) -> Option<(&cogsdk_obs::MetricsRegistry, Option<&str>)> {
        if !self.telemetry.is_enabled() {
            return None;
        }
        Some((self.telemetry.metrics(), self.tenant.as_deref()))
    }

    /// An order-insensitive digest of the full view (stated plus
    /// inferred), computed over *resolved* statements so two bases whose
    /// dictionaries interned the same knowledge in different orders —
    /// e.g. a pipelined bulk load vs a sequential one — digest equal.
    pub fn contents_digest(&self) -> u64 {
        let snap = self.epochs.pin();
        let dict = snap.dict();
        let mut lines: Vec<String> = snap
            .iter_ids()
            .into_iter()
            .map(|triple| {
                let st = dict.resolve_triple(triple);
                format!("{} {} {}", st.subject, st.predicate, st.object)
            })
            .collect();
        lines.sort_unstable();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for line in &lines {
            for &b in line.as_bytes() {
                digest ^= u64::from(b);
                digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
            }
            digest ^= u64::from(b'\n');
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
        digest
    }

    /// Runs a SPARQL-subset query against the graph.
    ///
    /// Conjunctive (multi-pattern) queries compile through the cost-based
    /// BGP planner: join order by index-cardinality selectivity, merge
    /// joins where the sort orders line up, index nested loops otherwise.
    ///
    /// # Errors
    ///
    /// Parse errors from the query engine.
    pub fn query(&self, sparql: &str) -> Result<Vec<Solution>, KbError> {
        Ok(self.query_with_stats(sparql)?.0)
    }

    /// Like [`query`](Self::query), also returning the planner's stats
    /// record (plan time, join strategy counts, rows). Publishes the
    /// `sdk_query_*` metrics — tenant-labeled when the base is attributed
    /// to one.
    ///
    /// # Errors
    ///
    /// Parse errors from the query engine.
    pub fn query_with_stats(&self, sparql: &str) -> Result<(Vec<Solution>, QueryStats), KbError> {
        self.query_on(&self.query_snapshot(), sparql)
    }

    /// Runs a query against an explicitly pinned epoch snapshot (from
    /// [`query_snapshot`](Self::query_snapshot) or
    /// [`query_snapshot_at`](Self::query_snapshot_at)) — the stable-paging
    /// primitive the gateway uses. Publishes the same `sdk_query_*`
    /// metrics as [`query`](Self::query).
    ///
    /// # Errors
    ///
    /// Parse errors from the query engine.
    pub fn query_on(
        &self,
        snapshot: &EpochSnapshot,
        sparql: &str,
    ) -> Result<(Vec<Solution>, QueryStats), KbError> {
        let q = Query::parse(sparql)?;
        let (rows, stats) = q.execute_with_stats(snapshot);
        self.publish_query_metrics(&stats);
        Ok((rows, stats))
    }

    /// Renders the execution plan the planner chooses for `sparql` against
    /// the current graph (join order, per-pattern index and operator,
    /// cardinality estimates) without running it.
    ///
    /// # Errors
    ///
    /// Parse errors from the query engine.
    pub fn query_explain(&self, sparql: &str) -> Result<String, KbError> {
        let q = Query::parse(sparql)?;
        Ok(q.explain(&*self.query_snapshot()))
    }

    /// A point-in-time snapshot of the graph (stated plus inferred) for
    /// stable paging: offset/limit pages drawn from one snapshot stay
    /// consistent while concurrent ingest moves the live indexes on.
    ///
    /// Pinning is O(1) — one `Arc` refcount bump on the current
    /// [`EpochSnapshot`] — and holds no lock, so queries on the snapshot
    /// never block (and are never blocked by) writers. The snapshot
    /// shares the term dictionary, so plans built on it resolve the same
    /// ids as the live graph.
    pub fn query_snapshot(&self) -> Arc<EpochSnapshot> {
        self.epochs.pin()
    }

    /// Re-pins a specific epoch for continued paging, if the store still
    /// retains it. `None` means the epoch expired (or never existed) and
    /// the pager must restart from a fresh snapshot.
    pub fn query_snapshot_at(&self, epoch: u64) -> Option<Arc<EpochSnapshot>> {
        self.epochs.at(epoch)
    }

    /// Pushes one query's planner counters into the metrics registry:
    /// `sdk_query_total`, `sdk_query_rows_total`,
    /// `sdk_query_joins_total{strategy=…}` and the `sdk_query_plan_micros`
    /// histogram. Tenant-labeled like the cache counters.
    pub(crate) fn publish_query_metrics(&self, stats: &QueryStats) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let metrics = self.telemetry.metrics();
        let tenant = self.tenant.as_deref().unwrap_or("");
        let base = [("tenant", tenant)];
        let base = tenant_labels(&base);
        metrics.add_counter("sdk_query_total", base, 1);
        metrics.add_counter("sdk_query_rows_total", base, stats.rows as u64);
        metrics.observe("sdk_query_plan_micros", base, stats.plan_micros as f64);
        for (strategy, count) in [
            ("merge", stats.merge_joins),
            ("nested_loop", stats.loop_joins),
        ] {
            if count > 0 {
                metrics.add_counter(
                    "sdk_query_joins_total",
                    tenant_labels(&[("strategy", strategy), ("tenant", tenant)]),
                    count as u64,
                );
            }
        }
    }

    /// Number of statements in the graph (stated plus inferred).
    pub fn statement_count(&self) -> usize {
        self.epochs.pin().len()
    }

    /// Runs `f` on the writer's epoch (stated plus inferred facts),
    /// holding the store's read lock — writers wait — for as long as `f`
    /// runs. Reads that need not exclude writers use
    /// [`query_snapshot`](Self::query_snapshot) instead.
    pub fn with_graph<R>(&self, f: impl FnOnce(&EpochSnapshot) -> R) -> R {
        f(&self.graph.read().epochs().pin())
    }

    /// Enables RDFS entailment as a *standing* ruleset: the closure is
    /// materialized now and maintained incrementally on every later
    /// ingest or retraction. Returns how many facts this call inferred.
    ///
    /// # Errors
    ///
    /// [`KbError::Durability`] if logging the ruleset change fails.
    pub fn infer_rdfs(&self) -> Result<usize, KbError> {
        self.with_graph_mut(|graph| {
            graph.enable_rdfs()?;
            Ok(graph.materialize())
        })
    }

    /// Enables transitive closure over the given predicates as a standing
    /// ruleset; returns how many facts this call inferred.
    ///
    /// # Errors
    ///
    /// [`KbError::Durability`] if logging the ruleset change fails.
    pub fn infer_transitive(&self, predicates: Vec<Term>) -> Result<usize, KbError> {
        self.with_graph_mut(|graph| {
            graph.add_transitive(predicates)?;
            Ok(graph.materialize())
        })
    }

    /// Enables the OWL/Lite-subset rules (inverseOf, symmetric/transitive/
    /// functional properties, sameAs smushing — the third Jena reasoner
    /// the paper lists) plus RDFS as a standing ruleset; returns how many
    /// facts this call inferred.
    ///
    /// # Errors
    ///
    /// [`KbError::Durability`] if logging the ruleset change fails.
    pub fn infer_owl(&self) -> Result<usize, KbError> {
        self.with_graph_mut(|graph| {
            graph.enable_owl()?;
            Ok(graph.materialize())
        })
    }

    /// Proves a goal with *tabled backward chaining* over user rules —
    /// Jena's on-demand alternative to forward saturation, listed in §3.
    /// The goal uses rule-pattern syntax, e.g.
    /// `"(?who kb:ancestor kb:carol)"`; returns one binding set per proof.
    ///
    /// # Errors
    ///
    /// Parse errors in the goal or rules.
    pub fn prove(
        &self,
        rules_text: &str,
        goal: &str,
        max_depth: usize,
    ) -> Result<Vec<cogsdk_rdf::query::Solution>, KbError> {
        let reasoner = GenericRuleReasoner::from_rules_text(rules_text)?;
        let goal = TriplePattern::parse(goal)?;
        Ok(reasoner.prove(&*self.epochs.pin(), &goal, max_depth))
    }

    /// Runs user-defined rules (Jena-like syntax, one per line) with
    /// forward chaining. The rules become *standing*: their conclusions
    /// are maintained incrementally as later facts arrive.
    ///
    /// # Errors
    ///
    /// Rule parse errors.
    pub fn infer_rules(&self, rules_text: &str) -> Result<usize, KbError> {
        let reasoner = GenericRuleReasoner::from_rules_text(rules_text)?;
        self.with_graph_mut(|graph| {
            graph.add_rules(reasoner.rules().to_vec())?;
            Ok(graph.materialize())
        })
    }

    // ------------------------------------------------------------------
    // Federation: remote knowledge sources (§3)
    // ------------------------------------------------------------------

    /// Runs a SPARQL query against the local graph *and* a remote
    /// knowledge source, merging the solutions (local first). The paper's
    /// KB "uses \[SPARQL\] to query data sources such as DBpedia" alongside
    /// its own store. The remote leg runs in the caller's context: the
    /// local graph always answers, but no remote attempt starts past the
    /// context's deadline.
    ///
    /// # Errors
    ///
    /// Local parse errors or remote failures; deadline exhaustion
    /// surfaces as [`KbError::Store`].
    pub fn query_federated(
        &self,
        service: &Arc<cogsdk_sim::SimService>,
        sparql: &str,
        call: &cogsdk_core::Call<'_>,
    ) -> Result<Vec<Solution>, KbError> {
        let mut local = self.query(sparql)?;
        let remote = crate::federation::query_remote(service, sparql, call)?;
        for solution in remote {
            if !local.contains(&solution) {
                local.push(solution);
            }
        }
        Ok(local)
    }

    /// Runs a SPARQL query against the local graph *and several* remote
    /// knowledge sources at once, fanning the remote legs out over the
    /// SDK thread pool so total latency tracks the *slowest* source, not
    /// the sum. Each leg runs under the same retry/monitoring governance
    /// as [`query_federated`](Self::query_federated); solutions merge
    /// local-first with duplicates dropped. Every remote leg is bounded
    /// by the one shared `deadline` ([`Deadline::NONE`] for none); because
    /// the legs run concurrently, it buys the slowest source's latency,
    /// not the sum of all sources'.
    ///
    /// [`Deadline::NONE`]: cogsdk_core::Deadline::NONE
    ///
    /// # Errors
    ///
    /// Local parse errors, or the first remote failure (every leg still
    /// runs to completion before this returns); deadline exhaustion
    /// surfaces as [`KbError::Store`].
    pub fn query_federated_many(
        &self,
        pool: &cogsdk_core::ThreadPool,
        services: &[Arc<cogsdk_sim::SimService>],
        monitor: &Arc<cogsdk_core::ServiceMonitor>,
        sparql: &str,
        deadline: cogsdk_core::Deadline,
    ) -> Result<Vec<Solution>, KbError> {
        let mut local = self.query(sparql)?;
        // Launch every remote leg before waiting on any of them.
        let legs: Vec<_> = services
            .iter()
            .map(|service| {
                let service = service.clone();
                let monitor = monitor.clone();
                let sparql = sparql.to_string();
                pool.submit(move || {
                    let call = cogsdk_core::Call::plain(&monitor).deadline(deadline);
                    crate::federation::query_remote(&service, &sparql, &call)
                })
            })
            .collect();
        let mut first_err = None;
        for leg in legs {
            let remote = match leg.join() {
                Ok(remote) => remote,
                Err(panic) => {
                    let e = KbError::Panicked(format!("federation leg: {}", panic.message()));
                    first_err.get_or_insert(e);
                    continue;
                }
            };
            match remote.as_ref() {
                Ok(remote) => {
                    for solution in remote {
                        if !local.contains(solution) {
                            local.push(solution.clone());
                        }
                    }
                }
                Err(e) => {
                    first_err.get_or_insert_with(|| e.clone());
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(local),
        }
    }

    /// Imports every fact a remote source has about `entity_id`, tagging
    /// each with `source_confidence` (§5: sources "may not be completely
    /// accurate"). Returns how many statements were added. The fetch runs
    /// in the caller's context, so its deadline keeps a slow or flapping
    /// source from stalling a KB refresh indefinitely.
    ///
    /// # Errors
    ///
    /// Unknown entity at the source, or remote failure; deadline
    /// exhaustion surfaces as [`KbError::Store`].
    ///
    /// # Panics
    ///
    /// Panics if `source_confidence` is outside `[0, 1]`.
    pub fn import_entity(
        &self,
        service: &Arc<cogsdk_sim::SimService>,
        entity_id: &str,
        source_confidence: f64,
        call: &cogsdk_core::Call<'_>,
    ) -> Result<usize, KbError> {
        assert!(
            (0.0..=1.0).contains(&source_confidence),
            "confidence must be in [0, 1]"
        );
        let facts = crate::federation::describe_remote(service, entity_id, call)?;
        // One delta propagation (and one WAL group commit each for the
        // confidences and the facts) for the imported batch.
        self.with_graph_mut(|g| {
            if source_confidence < 1.0 {
                let merged: Vec<(Statement, f64)> = facts
                    .statements
                    .iter()
                    .map(|st| (st.clone(), merge_confidence(g, st, source_confidence)))
                    .collect();
                g.set_confidence_batch(merged)?;
            }
            Ok(g.insert_batch(facts.statements)?)
        })
    }

    // ------------------------------------------------------------------
    // Accuracy levels (the paper’s §5 future work, implemented)
    // ------------------------------------------------------------------

    /// Adds a fact with an accuracy level in `[0, 1]`. Subject/object are
    /// disambiguated exactly as in [`add_fact`](Self::add_fact).
    ///
    /// # Errors
    ///
    /// [`KbError::UnknownEntity`] for an unresolvable subject.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is outside `[0, 1]`.
    pub fn add_fact_with_confidence(
        &self,
        subject: &str,
        predicate: &str,
        object: &str,
        confidence: f64,
    ) -> Result<Statement, KbError> {
        assert!(
            (0.0..=1.0).contains(&confidence),
            "confidence must be in [0, 1]"
        );
        let st = self.add_fact(subject, predicate, object)?;
        self.with_graph_mut(|g| {
            let merged = merge_confidence(g, &st, confidence);
            g.set_confidence(&st, merged)
        })?;
        Ok(st)
    }

    /// The accuracy level of a stored statement: `None` if absent,
    /// `Some(1.0)` for plainly asserted facts. Reads from the current
    /// epoch without taking the store lock.
    pub fn fact_confidence(&self, st: &Statement) -> Option<f64> {
        let snap = self.epochs.pin();
        let triple = snap.dict().lookup_statement(st)?;
        if !snap.contains_id(triple) {
            return None;
        }
        Some(snap.confidence_of(triple).unwrap_or(1.0))
    }

    /// Runs user rules with confidence propagation: each inferred fact
    /// receives `rule_strength × min(premise confidences)` and is stored
    /// with that accuracy level. Returns the new facts.
    ///
    /// # Errors
    ///
    /// Rule parse errors.
    pub fn infer_rules_weighted(
        &self,
        rules_text: &str,
        rule_strength: f64,
    ) -> Result<Vec<(Statement, f64)>, KbError> {
        let reasoner = WeightedReasoner::from_rules_text(rules_text, rule_strength)?;
        let mut wg = {
            let snap = self.epochs.pin();
            let mut wg = WeightedGraph::from_graph(snap.to_graph());
            for (&triple, &c) in snap.confidence().iter() {
                wg.insert_with_confidence(snap.dict().resolve_triple(triple), c);
            }
            wg
        };
        let added = reasoner.infer(&mut wg);
        // One group commit for every fact the rules produced, one more
        // for their confidences.
        self.with_graph_mut(|g| {
            g.insert_batch(added.iter().map(|(st, _)| st.clone()))?;
            g.set_confidence_batch(added.clone())?;
            Ok::<_, KbError>(())
        })?;
        Ok(added)
    }

    /// Detects conflicts: `(subject, predicate)` pairs holding more than
    /// one distinct object, with each candidate's accuracy level — §5's
    /// "data sources … may not be consistent with data obtained from
    /// other sources". Candidates are ordered most-trusted first, so
    /// `conflicts()[i].1[0]` is the resolution a confidence-greedy policy
    /// would pick.
    pub fn conflicts(&self) -> Vec<Conflict> {
        // One pinned epoch gives facts and confidences from the same
        // instant, without holding the store lock while grouping.
        let snap = self.epochs.pin();
        // Group on dictionary ids; only the conflicting minority of
        // statements is ever materialized back into terms.
        let mut by_sp: std::collections::BTreeMap<(TermId, TermId), Vec<TermId>> =
            std::collections::BTreeMap::new();
        for (s, p, o) in snap.iter_ids() {
            by_sp.entry((s, p)).or_default().push(o);
        }
        let dict = snap.dict();
        let mut out: Vec<Conflict> = by_sp
            .into_iter()
            .filter(|(_, objects)| objects.len() > 1)
            .map(|((s, p), objects)| {
                let subject = dict.resolve(s);
                let predicate = dict.resolve(p);
                let mut candidates: Vec<ConflictCandidate> = objects
                    .into_iter()
                    .map(|o| {
                        let object = dict.resolve(o);
                        let c = snap.confidence_of((s, p, o)).unwrap_or(1.0);
                        (object, c)
                    })
                    .collect();
                candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                ((subject, predicate), candidates)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Resolves conflicts on one *single-valued* predicate by keeping
    /// only the most-trusted object per subject; returns how many
    /// statements were dropped. The caller names the predicate because
    /// only the application knows which predicates are functional —
    /// multi-valued predicates like `kb:mentions` are legitimate
    /// "conflicts" that must not be pruned.
    ///
    /// Retraction runs through the materializer's DRed maintenance, so
    /// facts that were inferred *from* a dropped statement are retracted
    /// with it (unless independently derivable).
    ///
    /// # Errors
    ///
    /// [`KbError::Durability`] if logging fails. The round's retractions
    /// are one group commit and one DRed round, all or nothing; if only
    /// the confidence reset after them fails, they stand.
    pub fn resolve_conflicts_for(&self, predicate: &Term) -> Result<usize, KbError> {
        let conflicts = self.conflicts();
        self.with_graph_mut(|graph| {
            let dropped: Vec<Statement> = conflicts
                .into_iter()
                .filter(|((_, p), _)| p == predicate)
                .flat_map(|((subject, p), candidates)| {
                    let losers = candidates.into_iter().skip(1);
                    losers
                        .map(move |(object, _)| Statement::new(subject.clone(), p.clone(), object))
                })
                .filter(|st| graph.contains(st))
                .collect();
            let removed = graph.remove_batch(&dropped)?;
            // Restore the default so the dropped statements' stale
            // accuracy levels don't outlive them.
            graph.set_confidence_batch(dropped.into_iter().map(|st| (st, 1.0)))?;
            Ok(removed)
        })
    }

    /// Facts whose accuracy is below `threshold`, weakest first — the
    /// review queue for uncertain knowledge.
    pub fn weak_facts(&self, threshold: f64) -> Vec<(Statement, f64)> {
        let snap = self.epochs.pin();
        let mut out: Vec<(Statement, f64)> = snap
            .confidence()
            .iter()
            .filter(|&(&triple, &c)| c < threshold && snap.contains_id(triple))
            .map(|(&triple, &c)| (snap.dict().resolve_triple(triple), c))
            .collect();
        out.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
        });
        out
    }

    // ------------------------------------------------------------------
    // Analytics (Figure 5)
    // ------------------------------------------------------------------

    /// Fits `y_col ~ x_col` over a table and stores the results as RDF
    /// statements, enabling rule-based inference over them.
    ///
    /// # Errors
    ///
    /// Unknown table/columns or degenerate data.
    pub fn regress_and_store(
        &self,
        table: &str,
        x_col: &str,
        y_col: &str,
        model_name: &str,
    ) -> Result<RegressionFacts, KbError> {
        let facts = self
            .tables
            .with_table(table, |t| regress_table(t, x_col, y_col, model_name))??;
        self.with_graph_mut(|g| g.insert_batch(facts.to_statements()))?;
        Ok(facts)
    }

    // ------------------------------------------------------------------
    // Spell checking (§3: local, fast, free)
    // ------------------------------------------------------------------

    /// Checks text, returning `(misspelled, suggestion)` pairs.
    pub fn spell_check(&self, text: &str) -> Vec<(String, Option<String>)> {
        self.spell.check_text(text)
    }

    // ------------------------------------------------------------------
    // Persistence and offline operation
    // ------------------------------------------------------------------

    /// Persists the RDF graph under `key` (local-first; pushed to the
    /// remote store through the enhanced client when connected).
    ///
    /// # Errors
    ///
    /// Local storage failure (remote failures leave the key dirty for
    /// the next synchronization instead of failing).
    pub fn persist_graph(&self, key: &str) -> Result<(), KbError> {
        let snap = self.epochs.pin();
        let statements = snap.iter_ids().into_iter();
        let text = graph_to_text(statements.map(|t| snap.dict().resolve_triple(t)));
        let result = self.store.put(key, Bytes::from(text.into_bytes()));
        self.publish_cache_metrics();
        Ok(result?)
    }

    /// Loads a previously persisted graph under `key`, *replacing* the
    /// current graph.
    ///
    /// # Errors
    ///
    /// Missing key or corrupt data.
    pub fn load_graph(&self, key: &str) -> Result<usize, KbError> {
        let bytes = self.store.get(key);
        self.publish_cache_metrics();
        let bytes = bytes?;
        let text =
            String::from_utf8(bytes.to_vec()).map_err(|e| KbError::Corrupt(e.to_string()))?;
        let graph = text_to_graph(&text)?;
        let n = graph.len();
        self.with_graph_mut(|g| {
            g.reset(graph)?;
            self.doc_counter.store(next_doc_id(g), Ordering::Relaxed);
            Ok::<_, KbError>(())
        })?;
        Ok(n)
    }

    /// Whether the RDF store is crash-recoverable (opened through
    /// [`open_durable`](Self::open_durable) or
    /// [`open_durable_on`](Self::open_durable_on)).
    pub fn is_durable(&self) -> bool {
        self.graph.read().is_durable()
    }

    /// Writes a checksummed snapshot of the RDF store and truncates its
    /// write-ahead log, bounding future recovery time. Returns bytes
    /// written (0 for in-memory bases).
    ///
    /// # Errors
    ///
    /// [`KbError::Durability`] on storage failure.
    pub fn snapshot(&self) -> Result<u64, KbError> {
        Ok(self.with_graph_mut(|g| g.snapshot())?)
    }

    /// Stats from the recovery this base was opened with, if durable.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.graph.read().recovery_stats()
    }

    /// Cumulative WAL activity since open (zeroes when in-memory).
    pub fn wal_stats(&self) -> WalStats {
        self.graph.read().wal_stats()
    }

    /// Sets the (client-observed) connectivity state (§3's disconnected
    /// operation).
    pub fn set_connected(&self, connected: bool) {
        self.store.set_connected(connected);
    }

    /// Pushes offline writes to the remote store after reconnecting.
    pub fn synchronize(&self) -> SyncReport {
        let report = self.store.synchronize();
        self.publish_cache_metrics();
        report
    }

    /// Keys written locally but not yet remote.
    pub fn dirty_keys(&self) -> Vec<String> {
        self.store.dirty_keys()
    }
}

/// Max-merges a new accuracy level into a statement's stored one: an
/// unrated statement takes the incoming level; a rated one keeps the
/// most-trusted rating seen so far.
fn merge_confidence(graph: &DurableStore, st: &Statement, incoming: f64) -> f64 {
    let epoch = graph.epochs().pin();
    epoch
        .dict()
        .lookup_statement(st)
        .and_then(|t| epoch.confidence().get(&t).copied())
        .map_or(incoming, |current| current.max(incoming))
}

/// The first document id [`PersonalKnowledgeBase::ingest_text`] may use:
/// past the highest `kb:doc_{n}` term in the store's dictionary, so
/// neither a recovered nor a loaded base reuses a document id — not even
/// one whose facts were all retracted, since the dictionary keeps every
/// term it ever interned.
fn next_doc_id(graph: &DurableStore) -> usize {
    let epoch = graph.epochs().pin();
    let ids = epoch.dict().terms().filter_map(|term| {
        let n = term.as_iri()?.strip_prefix("kb:doc_")?;
        n.parse::<usize>().ok()
    });
    ids.max().map_or(0, |n| n + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsdk_store::StoreError;

    fn kb() -> PersonalKnowledgeBase {
        PersonalKnowledgeBase::new(Arc::new(MemoryKv::new()), KbOptions::default())
    }

    #[test]
    fn telemetry_publishes_kb_cache_counters() {
        let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
        // Writer KB seeds the shared remote store.
        let writer = PersonalKnowledgeBase::new(remote.clone(), KbOptions::default());
        writer
            .add_statement(Statement::new(
                Term::iri("kb:a"),
                Term::iri("kb:b"),
                Term::iri("kb:c"),
            ))
            .unwrap();
        writer.persist_graph("g").unwrap();
        // Reader KB has an empty local store, so loads fall through to
        // the enhanced client and register in its cache counters.
        let t = Telemetry::new();
        let reader = PersonalKnowledgeBase::with_telemetry(
            remote,
            KbOptions {
                cache_capacity: 8,
                ..KbOptions::default()
            },
            t.clone(),
        );
        reader.load_graph("g").unwrap();
        let stats = reader.store_cache_stats();
        assert!(
            stats.cache_misses >= 1,
            "remote read must register a cache miss: {stats:?}"
        );
        let count = |result: &str| {
            t.metrics()
                .counter_value(
                    "cache_requests_total",
                    &[("cache", "kb-enhanced"), ("result", result)],
                )
                .unwrap_or(0)
        };
        assert_eq!(count("hit"), stats.cache_hits);
        assert_eq!(count("miss"), stats.cache_misses);
        // Publishing is delta-based: republish with no traffic adds nothing.
        reader.publish_cache_metrics();
        assert_eq!(count("hit"), stats.cache_hits);
        assert_eq!(count("miss"), stats.cache_misses);
    }

    #[test]
    fn a_loaded_image_keeps_its_document_ids_and_new_documents_follow_them() {
        let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
        let writer = PersonalKnowledgeBase::new(remote.clone(), KbOptions::default());
        writer.ingest_text("IBM acquired Oracle.").unwrap();
        writer
            .ingest_text("The United States praised IBM.")
            .unwrap();
        writer.persist_graph("g").unwrap();
        let mentions = |kb: &PersonalKnowledgeBase, doc: usize| {
            let sparql = format!("SELECT ?e WHERE {{ <kb:doc_{doc}> <kb:mentions> ?e }}");
            let mut entities: Vec<Term> = kb
                .query(&sparql)
                .unwrap()
                .into_iter()
                .map(|mut row| row.remove("e").unwrap())
                .collect();
            entities.sort_by_key(|e| e.to_string());
            entities
        };
        let first = mentions(&writer, 0);
        assert!(!first.is_empty());

        let reader = PersonalKnowledgeBase::new(remote, KbOptions::default());
        reader.load_graph("g").unwrap();
        reader.ingest_text("France welcomed the deal.").unwrap();
        assert_eq!(mentions(&reader, 0), first, "doc 0 gained no mentions");
        assert_eq!(mentions(&reader, 2), vec![Term::iri("kb:france")]);
    }

    #[test]
    fn tenant_attributed_kb_labels_its_cache_series() {
        let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
        let writer = PersonalKnowledgeBase::new(remote.clone(), KbOptions::default());
        writer
            .add_statement(Statement::new(
                Term::iri("kb:a"),
                Term::iri("kb:b"),
                Term::iri("kb:c"),
            ))
            .unwrap();
        writer.persist_graph("g").unwrap();
        let t = Telemetry::new();
        let reader = PersonalKnowledgeBase::with_telemetry(remote, KbOptions::default(), t.clone())
            .for_tenant("acme");
        reader.load_graph("g").unwrap();
        let stats = reader.store_cache_stats();
        assert_eq!(
            t.metrics().counter_value(
                "cache_requests_total",
                &[
                    ("cache", "kb-enhanced"),
                    ("result", "miss"),
                    ("tenant", "acme")
                ],
            ),
            Some(stats.cache_misses)
        );
        // The untenanted series stays untouched for a tenanted base.
        assert_eq!(
            t.metrics().counter_value(
                "cache_requests_total",
                &[("cache", "kb-enhanced"), ("result", "miss")],
            ),
            None
        );
    }

    #[test]
    fn query_metrics_are_tenant_labeled() {
        let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
        let t = Telemetry::new();
        let kb = PersonalKnowledgeBase::with_telemetry(remote, KbOptions::default(), t.clone())
            .for_tenant("acme");
        for (s, name) in [("kb:usa", "US"), ("kb:germany", "Germany")] {
            kb.add_statement(Statement::new(
                Term::iri(s),
                Term::iri("kb:name"),
                Term::string(name),
            ))
            .unwrap();
            kb.add_statement(Statement::new(
                Term::iri(s),
                Term::iri("kb:kind"),
                Term::iri("kb:Country"),
            ))
            .unwrap();
        }
        let (rows, stats) = kb
            .query_with_stats("SELECT ?n WHERE { ?c <kb:kind> <kb:Country> . ?c <kb:name> ?n }")
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(stats.patterns, 2);
        assert_eq!(stats.merge_joins + stats.loop_joins, 1);

        let m = t.metrics();
        assert_eq!(
            m.counter_value("sdk_query_total", &[("tenant", "acme")]),
            Some(1)
        );
        assert_eq!(
            m.counter_value("sdk_query_rows_total", &[("tenant", "acme")]),
            Some(2)
        );
        let merge = m
            .counter_value(
                "sdk_query_joins_total",
                &[("strategy", "merge"), ("tenant", "acme")],
            )
            .unwrap_or(0);
        let nested = m
            .counter_value(
                "sdk_query_joins_total",
                &[("strategy", "nested_loop"), ("tenant", "acme")],
            )
            .unwrap_or(0);
        assert_eq!(merge + nested, 1, "exactly one join, strategy-labeled");
        assert!(
            m.histogram("sdk_query_plan_micros", &[("tenant", "acme")])
                .is_some(),
            "plan time observed"
        );
        // The untenanted series stays untouched for a tenanted base.
        assert_eq!(m.counter_value("sdk_query_total", &[]), None);

        // EXPLAIN goes through the same planner.
        let plan = kb
            .query_explain("SELECT ?n WHERE { ?c <kb:kind> <kb:Country> . ?c <kb:name> ?n }")
            .unwrap();
        assert!(plan.starts_with("bgp 2 patterns"), "{plan}");
    }

    const GDP_CSV: &str = "country,gdp,year\nusa,20000.0,2015\nusa,21000.0,2016\ngermany,4100.0,2015\ngermany,4200.0,2016\n";

    #[test]
    fn csv_ingest_and_export_round_trip() {
        let kb = kb();
        assert_eq!(kb.ingest_csv("gdp", GDP_CSV).unwrap(), 4);
        let out = kb.export_csv("gdp").unwrap();
        assert!(out.starts_with("country,gdp,year\n"));
        assert_eq!(out.lines().count(), 5);
        assert!(kb.ingest_csv("gdp", GDP_CSV).is_err(), "duplicate table");
        assert!(kb.export_csv("nope").is_err());
    }

    #[test]
    fn table_to_rdf_and_query() {
        let kb = kb();
        kb.ingest_csv("gdp", GDP_CSV).unwrap();
        let added = kb.table_to_rdf("gdp", "country", "kb").unwrap();
        assert!(added > 0);
        let rows = kb
            .query("SELECT ?g WHERE { <kb:usa> <kb:gdp> ?g . } ORDER BY ?g")
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn add_fact_disambiguates_aliases_to_one_resource() {
        let kb = kb();
        kb.add_fact("USA", "trades with", "Germany").unwrap();
        kb.add_fact("United States of America", "trades with", "Deutschland")
            .unwrap();
        // Both facts landed on the same canonical statement.
        assert_eq!(kb.statement_count(), 1, "no redundant entries");
        let rows = kb
            .query("SELECT ?o WHERE { <kb:united_states> <kb:trades_with> ?o . }")
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn add_fact_unknown_subject_errors_and_object_falls_back_to_literal() {
        let kb = kb();
        assert!(matches!(
            kb.add_fact("Atlantis", "is", "fiction"),
            Err(KbError::UnknownEntity(_))
        ));
        let st = kb.add_fact("IBM", "slogan", "Think").unwrap();
        assert_eq!(st.object, Term::string("Think"));
    }

    #[test]
    fn synonyms_extend_disambiguation() {
        let kb = kb();
        kb.add_synonym_file("influenza: flu, the flu\n").unwrap();
        assert_eq!(kb.disambiguate("the flu").unwrap().id, "influenza");
        kb.add_synonyms([("big blue", "ibm")]);
        assert_eq!(kb.disambiguate("Big Blue").unwrap().id, "ibm");
    }

    #[test]
    fn ingest_text_stores_entities_and_relations() {
        let kb = kb();
        let added = kb
            .ingest_text("IBM acquired Oracle. The USA praised the excellent deal.")
            .unwrap();
        assert!(added >= 6, "added {added}");
        let rows = kb
            .query("SELECT ?o WHERE { <kb:ibm> <kb:acquired> ?o . }")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["o"], Term::iri("kb:oracle"));
        // Entity types recorded.
        let types = kb
            .query("SELECT ?t WHERE { <kb:united_states> <rdf:type> ?t . }")
            .unwrap();
        assert!(!types.is_empty());
    }

    #[test]
    fn rdfs_inference_in_kb() {
        let kb = kb();
        kb.add_statement(Statement::new(
            Term::iri("kb:organization"),
            Term::iri("rdfs:subClassOf"),
            Term::iri("kb:agent"),
        ))
        .unwrap();
        kb.ingest_text("IBM announced results.").unwrap();
        let inferred = kb.infer_rdfs().unwrap();
        assert!(inferred > 0);
        let rows = kb
            .query("SELECT ?x WHERE { ?x <rdf:type> <kb:agent> . }")
            .unwrap();
        assert!(rows.iter().any(|r| r["x"] == Term::iri("kb:ibm")));
    }

    #[test]
    fn transitive_inference_in_kb() {
        let kb = kb();
        kb.add_fact("IBM", "supplies", "Microsoft").unwrap();
        kb.add_fact("Microsoft", "supplies", "Google").unwrap();
        let n = kb.infer_transitive(vec![Term::iri("kb:supplies")]).unwrap();
        assert_eq!(n, 1);
        let rows = kb
            .query("SELECT ?o WHERE { <kb:ibm> <kb:supplies> ?o . }")
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn figure5_regression_plus_rules() {
        let kb = kb();
        kb.ingest_csv("gdp", GDP_CSV).unwrap();
        let facts = kb
            .regress_and_store("gdp", "year", "gdp", "gdp trend")
            .unwrap();
        assert!(facts.slope > 0.0);
        let inferred = kb
            .infer_rules(
                "[(?m kb:trend \"increasing\") -> (?m kb:classification kb:GrowthIndicator)]",
            )
            .unwrap();
        assert_eq!(inferred, 1);
        let rows = kb
            .query("SELECT ?m WHERE { ?m <kb:classification> <kb:GrowthIndicator> . }")
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn spell_checking_local() {
        let kb = kb();
        let found = kb.spell_check("the markt grew");
        assert!(found
            .iter()
            .any(|(w, s)| w == "markt" && s.as_deref() == Some("market")));
    }

    #[test]
    fn persistence_round_trip() {
        let kb = kb();
        kb.add_fact("IBM", "hq", "New York").unwrap();
        kb.ingest_text("Germany praised France.").unwrap();
        let before = kb.statement_count();
        kb.persist_graph("snapshot").unwrap();
        kb.add_fact("Google", "hq", "California").unwrap();
        assert!(kb.statement_count() > before);
        let loaded = kb.load_graph("snapshot").unwrap();
        assert_eq!(loaded, before);
        assert_eq!(kb.statement_count(), before);
    }

    #[test]
    fn encrypted_compressed_persistence_round_trips() {
        let remote = Arc::new(MemoryKv::new());
        let kb = PersonalKnowledgeBase::new(
            remote.clone(),
            KbOptions {
                encryption_passphrase: Some("kb secret".into()),
                compress: true,
                cache_capacity: 16,
                ..KbOptions::default()
            },
        );
        kb.add_fact("IBM", "ticker", "IBM common stock").unwrap();
        kb.persist_graph("g").unwrap();
        // The remote copy must not contain plaintext.
        let raw = remote.get("g").unwrap();
        assert!(!raw.windows(3).any(|w| w == b"IBM"));
        kb.load_graph("g").unwrap();
        assert_eq!(kb.statement_count(), 1);
    }

    #[test]
    fn offline_persist_and_resync() {
        let remote = Arc::new(MemoryKv::new());
        let kb = PersonalKnowledgeBase::new(remote.clone(), KbOptions::default());
        kb.set_connected(false);
        kb.add_fact("IBM", "founded in", "New York").unwrap();
        kb.persist_graph("g").unwrap();
        assert_eq!(kb.dirty_keys(), vec!["g"]);
        assert!(matches!(remote.get("g"), Err(StoreError::NotFound(_))));
        // Still loadable locally while offline.
        assert_eq!(kb.load_graph("g").unwrap(), 1);
        kb.set_connected(true);
        let report = kb.synchronize();
        assert_eq!(report.pushed, vec!["g"]);
        assert!(remote.get("g").is_ok());
    }

    #[test]
    fn accuracy_levels_on_facts() {
        let kb = kb();
        let st = kb
            .add_fact_with_confidence("IBM", "rumored to acquire", "Oracle", 0.4)
            .unwrap();
        assert_eq!(kb.fact_confidence(&st), Some(0.4));
        // Plain facts default to full confidence.
        let plain = kb.add_fact("IBM", "hq", "New York").unwrap();
        assert_eq!(kb.fact_confidence(&plain), Some(1.0));
        // Absent facts have no confidence.
        let missing = Statement::new(Term::iri("kb:x"), Term::iri("kb:y"), Term::iri("kb:z"));
        assert_eq!(kb.fact_confidence(&missing), None);
        // Corroboration raises, never lowers.
        kb.add_fact_with_confidence("IBM", "rumored to acquire", "Oracle", 0.7)
            .unwrap();
        assert_eq!(kb.fact_confidence(&st), Some(0.7));
        kb.add_fact_with_confidence("IBM", "rumored to acquire", "Oracle", 0.1)
            .unwrap();
        assert_eq!(kb.fact_confidence(&st), Some(0.7));
    }

    #[test]
    fn weighted_inference_assigns_accuracy_to_new_facts() {
        let kb = kb();
        kb.add_fact_with_confidence("IBM", "supplies", "Microsoft", 0.9)
            .unwrap();
        kb.add_fact_with_confidence("Microsoft", "supplies", "Google", 0.5)
            .unwrap();
        let added = kb
            .infer_rules_weighted(
                "[(?a kb:supplies ?b), (?b kb:supplies ?c) -> (?a kb:indirect_supplier_of ?c)]",
                0.8,
            )
            .unwrap();
        assert_eq!(added.len(), 1);
        let (fact, conf) = &added[0];
        assert_eq!(fact.predicate, Term::iri("kb:indirect_supplier_of"));
        // 0.8 (rule) × min(0.9, 0.5) = 0.40.
        assert!((conf - 0.4).abs() < 1e-9, "conf={conf}");
        assert_eq!(kb.fact_confidence(fact), Some(*conf));
        // The inferred fact is queryable like any other.
        let rows = kb
            .query("SELECT ?c WHERE { <kb:ibm> <kb:indirect_supplier_of> ?c . }")
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn conflicting_sources_are_detected_and_resolved_by_trust() {
        let kb = kb();
        // Two sources disagree on Germany's capital; one is official.
        kb.add_fact_with_confidence("Germany", "capital", "Berlin", 0.95)
            .unwrap();
        kb.add_fact_with_confidence("Germany", "capital", "Bonn", 0.40)
            .unwrap();
        // And an unrelated consistent fact.
        kb.add_fact("Germany", "continent", "Europe").unwrap();
        let conflicts = kb.conflicts();
        assert_eq!(conflicts.len(), 1, "{conflicts:?}");
        let ((s, p), candidates) = &conflicts[0];
        assert_eq!(s, &Term::iri("kb:germany"));
        assert_eq!(p, &Term::iri("kb:capital"));
        assert_eq!(candidates.len(), 2);
        // "Berlin" disambiguates to the catalog city; "Bonn" does not.
        assert_eq!(
            candidates[0].0,
            Term::iri("kb:berlin"),
            "most trusted first"
        );
        assert!((candidates[0].1 - 0.95).abs() < 1e-9);

        // Resolving a different predicate touches nothing.
        assert_eq!(
            kb.resolve_conflicts_for(&Term::iri("kb:continent"))
                .unwrap(),
            0
        );
        let dropped = kb.resolve_conflicts_for(&Term::iri("kb:capital")).unwrap();
        assert_eq!(dropped, 1);
        assert!(kb.conflicts().is_empty());
        let rows = kb
            .query("SELECT ?c WHERE { <kb:germany> <kb:capital> ?c . }")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["c"], Term::iri("kb:berlin"));
    }

    #[test]
    fn weak_facts_review_queue() {
        let kb = kb();
        kb.add_fact("IBM", "hq", "New York").unwrap();
        kb.add_fact_with_confidence("IBM", "rumor a", "x1", 0.2)
            .unwrap();
        kb.add_fact_with_confidence("IBM", "rumor b", "x2", 0.45)
            .unwrap();
        let weak = kb.weak_facts(0.5);
        assert_eq!(weak.len(), 2);
        assert!(weak[0].1 <= weak[1].1, "sorted weakest first");
        assert!(kb.weak_facts(0.1).is_empty());
    }

    #[test]
    fn owl_reasoning_smushes_aliases() {
        let kb = kb();
        kb.add_statement(Statement::new(
            Term::iri("kb:big_blue"),
            Term::iri("owl:sameAs"),
            Term::iri("kb:ibm"),
        ))
        .unwrap();
        kb.add_statement(Statement::new(
            Term::iri("kb:big_blue"),
            Term::iri("kb:founded"),
            Term::integer(1911),
        ))
        .unwrap();
        let n = kb.infer_owl().unwrap();
        assert!(n >= 2, "inferred {n}");
        let rows = kb
            .query("SELECT ?y WHERE { <kb:ibm> <kb:founded> ?y . }")
            .unwrap();
        assert_eq!(rows[0]["y"], Term::integer(1911));
    }

    #[test]
    fn backward_chaining_proves_on_demand() {
        let kb = kb();
        kb.add_fact("IBM", "supplies", "Microsoft").unwrap();
        kb.add_fact("Microsoft", "supplies", "Google").unwrap();
        let rules = "[(?a kb:supplies ?b) -> (?a kb:reaches ?b)]\n\
                     [(?a kb:supplies ?b), (?b kb:reaches ?c) -> (?a kb:reaches ?c)]";
        // Nothing was forward-materialized...
        assert!(kb
            .query("SELECT ?x WHERE { <kb:ibm> <kb:reaches> ?x . }")
            .unwrap()
            .is_empty());
        // ...yet the goal proves on demand.
        let proofs = kb.prove(rules, "(kb:ibm kb:reaches ?who)", 6).unwrap();
        let whos: Vec<&Term> = proofs.iter().filter_map(|b| b.get("who")).collect();
        assert!(whos.contains(&&Term::iri("kb:microsoft")), "{whos:?}");
        assert!(whos.contains(&&Term::iri("kb:google")), "{whos:?}");
        // Bad goals surface as errors.
        assert!(kb.prove(rules, "(?a ?b)", 4).is_err());
    }

    #[test]
    fn federated_fan_out_runs_sources_concurrently() {
        use cogsdk_json::{json, Json};
        use cogsdk_sim::latency::LatencyModel;
        use cogsdk_sim::service::SimService;

        // Four sources, each really sleeping 40 ms: sequential federation
        // would cost ~160 ms, concurrent ~40 ms.
        let env = cogsdk_sim::SimEnv::with_seed_scaled(7, 1.0);
        let services: Vec<Arc<SimService>> = (0..4)
            .map(|i| {
                SimService::builder(format!("kb-source-{i}"), "knowledge")
                    .latency(LatencyModel::constant_ms(40.0))
                    .handler(
                        move |req| match req.payload.get("op").and_then(Json::as_str) {
                            Some("sparql") => Ok(json!({
                                "bindings": [
                                    {"c": {"type": "iri", "value": (format!("db:entity_{i}"))}},
                                ],
                            })),
                            _ => Err("unknown op".into()),
                        },
                    )
                    .build(&env)
            })
            .collect();
        let kb = kb();
        let pool = cogsdk_core::ThreadPool::new(4);
        let monitor = Arc::new(cogsdk_core::ServiceMonitor::new());
        let started = std::time::Instant::now();
        let rows = kb
            .query_federated_many(
                &pool,
                &services,
                &monitor,
                "SELECT ?c WHERE { ?c <rdf:type> <kb:Entity> . }",
                cogsdk_core::Deadline::NONE,
            )
            .unwrap();
        let elapsed = started.elapsed();
        assert_eq!(rows.len(), 4, "one distinct binding per source");
        for i in 0..4 {
            assert!(rows
                .iter()
                .any(|r| r["c"] == Term::iri(format!("db:entity_{i}"))));
        }
        // ~max, not ~sum: well under the 160 ms sequential cost even
        // with generous scheduler slack.
        assert!(
            elapsed < std::time::Duration::from_millis(120),
            "fan-out took {elapsed:?}, expected ~40 ms"
        );
        // Every leg was monitored individually.
        for i in 0..4 {
            assert!(monitor.history(&format!("kb-source-{i}")).is_some());
        }
    }

    #[test]
    fn federated_fan_out_surfaces_remote_failure() {
        use cogsdk_json::json;
        use cogsdk_sim::service::SimService;

        let env = cogsdk_sim::SimEnv::with_seed(8);
        let good = SimService::builder("kb-good", "knowledge")
            .handler(|_| Ok(json!({"bindings": []})))
            .build(&env);
        let bad = SimService::builder("kb-bad", "knowledge")
            .handler(|_| Err("boom".into()))
            .build(&env);
        let kb = kb();
        let pool = cogsdk_core::ThreadPool::new(2);
        let monitor = Arc::new(cogsdk_core::ServiceMonitor::new());
        let err = kb
            .query_federated_many(
                &pool,
                &[good, bad],
                &monitor,
                "SELECT ?c WHERE { ?c <rdf:type> <kb:Entity> . }",
                cogsdk_core::Deadline::NONE,
            )
            .unwrap_err();
        assert!(
            matches!(err, KbError::Rdf(_) | KbError::Store(_)),
            "{err:?}"
        );
    }

    #[test]
    fn a_panicking_federation_leg_is_that_sources_error() {
        use cogsdk_json::json;
        use cogsdk_sim::service::SimService;

        let env = cogsdk_sim::SimEnv::with_seed(8);
        let good = SimService::builder("kb-good", "knowledge")
            .handler(|_| Ok(json!({"bindings": []})))
            .build(&env);
        let crashing = SimService::builder("kb-crashing", "knowledge")
            .handler(|_| panic!("source crashed"))
            .build(&env);
        let pool = cogsdk_core::ThreadPool::new(1);
        let monitor = Arc::new(cogsdk_core::ServiceMonitor::new());
        let err = kb()
            .query_federated_many(
                &pool,
                &[crashing, good],
                &monitor,
                "SELECT ?c WHERE { ?c <rdf:type> <kb:Entity> . }",
                cogsdk_core::Deadline::NONE,
            )
            .unwrap_err();
        assert!(
            matches!(&err, KbError::Panicked(m) if m.contains("source crashed")),
            "{err:?}"
        );
        assert_eq!(*pool.submit(|| 7).wait(), 7, "the worker survived");
    }

    #[test]
    fn durable_kb_survives_crash_and_recovers() {
        let fs = Arc::new(cogsdk_sim::SimFs::new(11));
        let t = Telemetry::new();
        let kb = PersonalKnowledgeBase::open_durable_on(
            fs.clone(),
            Arc::new(MemoryKv::new()),
            KbOptions::default(),
            t.clone(),
        )
        .unwrap();
        assert!(kb.is_durable());
        kb.add_fact("IBM", "hq", "New York").unwrap();
        kb.ingest_text("IBM acquired Oracle.").unwrap();
        kb.infer_rdfs().unwrap();
        let before = kb.statement_count();
        assert!(kb.wal_stats().appends > 0);
        assert!(
            t.metrics()
                .counter_value("sdk_wal_appends_total", &[])
                .unwrap_or(0)
                > 0,
            "WAL activity must be published"
        );
        drop(kb);
        fs.crash();

        let t2 = Telemetry::new();
        let kb = PersonalKnowledgeBase::open_durable_on(
            fs,
            Arc::new(MemoryKv::new()),
            KbOptions::default(),
            t2.clone(),
        )
        .unwrap();
        assert_eq!(kb.statement_count(), before, "every fact recovered");
        let stats = kb.recovery_stats().unwrap();
        assert!(stats.replayed_records > 0);
        assert_eq!(
            t2.metrics()
                .counter_value("sdk_recovery_replayed_records_total", &[]),
            Some(stats.replayed_records)
        );
        // RDFS stayed a standing ruleset across the crash.
        assert!(kb
            .query("SELECT ?x WHERE { ?x <rdf:type> <kb:Document> . }")
            .unwrap()
            .len()
            .eq(&1));
        // The recovered base keeps issuing fresh document ids.
        kb.ingest_text("Google praised Microsoft.").unwrap();
        let docs = kb
            .query("SELECT ?d WHERE { ?d <rdf:type> <kb:Document> . }")
            .unwrap();
        assert_eq!(docs.len(), 2, "no document id reuse after recovery");
    }

    #[test]
    fn durable_kb_snapshot_bounds_replay() {
        let fs = Arc::new(cogsdk_sim::SimFs::new(12));
        let open = |fs| {
            PersonalKnowledgeBase::open_durable_on(
                fs,
                Arc::new(MemoryKv::new()),
                KbOptions::default(),
                Telemetry::disabled(),
            )
            .unwrap()
        };
        let kb = open(fs.clone() as Arc<dyn Vfs>);
        kb.add_fact("IBM", "hq", "New York").unwrap();
        assert!(kb.snapshot().unwrap() > 0);
        kb.add_fact("Google", "hq", "California").unwrap();
        drop(kb);

        let kb = open(fs);
        let stats = kb.recovery_stats().unwrap();
        assert!(stats.snapshot_loaded, "{stats:?}");
        assert!(
            stats.replayed_records >= 1,
            "only the post-snapshot fact replays: {stats:?}"
        );
        assert_eq!(kb.statement_count(), 2);
    }

    #[test]
    fn pipeline_id_path_writes_the_wal_bytes_of_insert_batch() {
        use crate::ingest::{doc_statements, tests::TEMPLATES, IngestConfig};
        let docs: Vec<String> = (0..40)
            .map(|i| format!("{} Filing {i}.", TEMPLATES[i % TEMPLATES.len()]))
            .collect();
        let open = |fs: &Arc<cogsdk_sim::SimFs>| {
            let remote = Arc::new(MemoryKv::new());
            let options = KbOptions::default();
            PersonalKnowledgeBase::open_durable_on(
                fs.clone(),
                remote,
                options,
                Telemetry::disabled(),
            )
            .unwrap()
        };
        let wal = |fs: &cogsdk_sim::SimFs| -> Vec<(String, Vec<u8>)> {
            let names = fs.list().unwrap().into_iter();
            names
                .filter(|name| name.starts_with("wal-"))
                .map(|name| {
                    let bytes = fs.read(&name).unwrap();
                    (name, bytes)
                })
                .collect()
        };

        // Statements: every document analyzed in order, one insert_batch.
        let by_statement = Arc::new(cogsdk_sim::SimFs::new(5));
        let kb = open(&by_statement);
        let nlu = kb.nlu_config();
        let mut batch = Vec::new();
        for doc in &docs {
            let analysis = kb.analyzer.entities_and_relations(doc, &nlu);
            batch.extend(doc_statements(kb.allocate_doc_id(), &analysis));
        }
        let added = kb.with_graph_mut(|g| g.insert_batch(batch)).unwrap();

        // Ids: the streaming pipeline, all documents in one batch.
        let by_id = Arc::new(cogsdk_sim::SimFs::new(5));
        let config = IngestConfig {
            batch_size: docs.len(),
            workers: 2,
            ..IngestConfig::default()
        };
        let pool = Arc::new(cogsdk_core::ThreadPool::new(2));
        let report = Arc::new(open(&by_id))
            .ingest_stream(&pool, docs, config)
            .unwrap();
        assert_eq!((report.batches, report.statements), (1, added));
        let logged = wal(&by_statement);
        assert!(!logged.is_empty());
        assert_eq!(logged, wal(&by_id), "same WAL segments, byte for byte");
    }

    #[test]
    fn an_ingest_batch_interned_before_load_graph_still_commits_its_statements() {
        let kb = kb();
        kb.add_fact("IBM", "hq", "New York").unwrap();
        kb.persist_graph("one-fact").unwrap();
        let statement = Statement::new(
            Term::iri("kb:doc_9"),
            Term::iri("kb:mentions"),
            Term::iri("kb:oracle"),
        );
        let dict = kb.shared_dict();
        let ids = [dict.intern_statement(&statement)];
        // The load swaps in a fresh dictionary, in which `ids` mean
        // nothing.
        kb.load_graph("one-fact").unwrap();
        assert!(!kb.shared_dict().ptr_eq(&dict));
        assert_eq!(kb.commit_ingest_batch(&dict, &ids).unwrap(), 1);
        assert!(kb.query_snapshot().contains(&statement));
        assert_eq!(kb.statement_count(), 2);
    }

    #[test]
    fn failed_load_graph_leaves_the_base_as_it_was() {
        let fs = Arc::new(cogsdk_sim::SimFs::new(14));
        let kb = PersonalKnowledgeBase::open_durable_on(
            fs.clone(),
            Arc::new(MemoryKv::new()),
            KbOptions::default(),
            Telemetry::disabled(),
        )
        .unwrap();
        kb.add_fact("IBM", "hq", "New York").unwrap();
        kb.persist_graph("one-fact").unwrap();
        kb.add_fact("Google", "hq", "California").unwrap();

        fs.set_space_limit(Some(0));
        let err = kb.load_graph("one-fact").unwrap_err();
        assert!(matches!(err, KbError::Durability(_)), "{err:?}");
        assert_eq!(kb.statement_count(), 2, "a failed load replaces nothing");
        assert_eq!(kb.with_graph(|g| g.len()), 2);

        fs.set_space_limit(None);
        assert_eq!(kb.load_graph("one-fact").unwrap(), 1);
        assert_eq!(kb.statement_count(), 1);
    }

    #[test]
    fn prove_and_persist_graph_do_not_wait_for_the_store_lock() {
        use std::sync::mpsc;
        use std::time::Duration;
        let kb = kb();
        kb.add_fact("IBM", "supplies", "Microsoft").unwrap();
        let rules = "[(?a kb:supplies ?b) -> (?a kb:reaches ?b)]";
        let goal = "(kb:ibm kb:reaches ?who)";
        let proofs = kb.prove(rules, goal, 4).unwrap();
        assert_eq!(proofs.len(), 1);

        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            // A writer that keeps the store lock until the readers below
            // are done — or gives up waiting for them, if they queue
            // behind the lock it holds.
            let kb = &kb;
            let writer = scope.spawn(move || {
                kb.with_graph_mut(|_| {
                    held_tx.send(()).unwrap();
                    release_rx.recv_timeout(Duration::from_secs(5)).is_ok()
                })
            });
            held_rx.recv().unwrap();
            assert_eq!(kb.prove(rules, goal, 4).unwrap(), proofs);
            kb.persist_graph("while-locked").unwrap();
            release_tx.send(()).ok();
            assert!(
                writer.join().unwrap(),
                "prove/persist_graph blocked until the writer let go"
            );
        });
        assert_eq!(kb.load_graph("while-locked").unwrap(), 1);
    }

    #[test]
    fn confidences_survive_crash_and_still_order_conflicts() {
        let fs = Arc::new(cogsdk_sim::SimFs::new(13));
        let open = |fs| {
            PersonalKnowledgeBase::open_durable_on(
                fs,
                Arc::new(MemoryKv::new()),
                KbOptions::default(),
                Telemetry::disabled(),
            )
            .unwrap()
        };
        let kb = open(fs.clone() as Arc<dyn Vfs>);
        // Two sources disagree on Germany's capital. The first accuracy
        // level rides into the snapshot; the second lives only in the WAL
        // tail, so recovery must merge both persistence paths.
        kb.add_fact_with_confidence("Germany", "capital", "Berlin", 0.95)
            .unwrap();
        assert!(kb.snapshot().unwrap() > 0);
        kb.add_fact_with_confidence("Germany", "capital", "Bonn", 0.40)
            .unwrap();
        drop(kb);
        fs.crash();

        let kb = open(fs);
        let stats = kb.recovery_stats().unwrap();
        assert!(stats.snapshot_loaded, "{stats:?}");
        let conflicts = kb.conflicts();
        assert_eq!(conflicts.len(), 1, "{conflicts:?}");
        let ((s, p), candidates) = &conflicts[0];
        assert_eq!(s, &Term::iri("kb:germany"));
        assert_eq!(p, &Term::iri("kb:capital"));
        assert_eq!(
            candidates[0],
            (Term::iri("kb:berlin"), 0.95),
            "recovered confidences still rank the official source first"
        );
        // "Bonn" never disambiguated, so it recovered as the plain
        // string literal it was stored as.
        assert_eq!(candidates[1], (Term::string("Bonn"), 0.40));
        let berlin = Statement::new(
            Term::iri("kb:germany"),
            Term::iri("kb:capital"),
            Term::iri("kb:berlin"),
        );
        assert_eq!(kb.fact_confidence(&berlin), Some(0.95));
        let weak = kb.weak_facts(0.5);
        assert_eq!(weak.len(), 1, "{weak:?}");
        assert!((weak[0].1 - 0.40).abs() < 1e-12);
        // A confidence-greedy resolution on the recovered store keeps the
        // trusted object — proof the ordering is live, not cosmetic.
        assert_eq!(
            kb.resolve_conflicts_for(&Term::iri("kb:capital")).unwrap(),
            1
        );
        assert!(kb.conflicts().is_empty());
        assert_eq!(kb.fact_confidence(&berlin), Some(0.95));
    }

    #[test]
    fn a_conflict_round_is_two_wal_commits() {
        let fs = Arc::new(cogsdk_sim::SimFs::new(15));
        let kb = PersonalKnowledgeBase::open_durable_on(
            fs,
            Arc::new(MemoryKv::new()),
            KbOptions::default(),
            Telemetry::disabled(),
        )
        .unwrap();
        let capital = Term::iri("kb:capital");
        let fact = |i: usize, o: &str| {
            Statement::new(Term::iri(format!("kb:c{i}")), capital.clone(), Term::iri(o))
        };
        // 50 countries, each with a trusted and a doubtful capital.
        let mut facts = Vec::new();
        for i in 0..50 {
            facts.push((fact(i, &format!("kb:good{i}")), 0.9));
            facts.push((fact(i, &format!("kb:bad{i}")), 0.4));
        }
        kb.with_graph_mut(|g| {
            g.insert_batch(facts.iter().map(|(st, _)| st.clone()))?;
            g.set_confidence_batch(facts.clone())
        })
        .unwrap();
        kb.infer_rules("[(?c kb:capital ?x) -> (?x kb:capitalOf ?c)]")
            .unwrap();
        assert_eq!(kb.conflicts().len(), 50);

        let appends = kb.wal_stats().appends;
        assert_eq!(kb.resolve_conflicts_for(&capital).unwrap(), 50);
        assert_eq!(
            kb.wal_stats().appends,
            appends + 2,
            "one retraction batch, one confidence batch"
        );
        assert!(kb.conflicts().is_empty());
        assert!(kb.weak_facts(0.5).is_empty(), "dropped levels are reset");
        // DRed retracted what the dropped facts entailed.
        let bad = Statement::new(
            Term::iri("kb:bad7"),
            Term::iri("kb:capitalOf"),
            Term::iri("kb:c7"),
        );
        assert!(!kb.query_snapshot().contains(&bad));
        assert_eq!(kb.statement_count(), 100);
    }

    #[test]
    fn query_parse_errors_surface() {
        let kb = kb();
        assert!(matches!(kb.query("garbage"), Err(KbError::Rdf(_))));
        assert!(matches!(kb.infer_rules("bad rule"), Err(KbError::Rdf(_))));
    }
}
