//! Crash-recoverable wrapper around the incremental materializer.
//!
//! [`DurableStore`] gives the KB's RDF state write-ahead durability:
//! every mutation is appended to the [WAL](crate::wal) and fsynced
//! *before* it is applied in memory, so an operation that returned `Ok`
//! survives any crash, and one that failed was never applied. An insert
//! is staged in the materializer's private writer first — one membership
//! probe per triple decides both its WAL record and whether it seeds
//! derivation — then logged and fsynced, then derived, sealed and
//! published; a WAL error discards the staged changes. Periodic
//! snapshots (`crate::snapshot`) bound recovery time and reclaim log
//! space. In memory the store is the materializer's epochs: every
//! mutation seals one, and the store publishes it to readers.
//!
//! Recovery ([`DurableStore::open`]) loads the snapshot's stated triples,
//! already in SPO order, straight into a frozen epoch base; nets the WAL
//! into one run on top (tolerating a torn tail record, failing hard on
//! mid-log corruption); and then *re-derives* the closure of the standing
//! rulesets. Derived facts and their levels are never read from disk:
//! they are a function of (stated facts, their confidences, config). Replay works at the id level and defers all
//! reasoning to that one materialization, so it is insensitive to when
//! the reasoners interned their vocabulary (dict entries are logged with
//! explicit sequence numbers and verified on replay), and re-replaying
//! records a snapshot already holds — possible after a crash between the
//! snapshot rename and the WAL truncation — is a no-op: per triple, the
//! last logged operation wins. A `Confidence` record replays by the rule
//! it was logged under (see [`DurableStore::set_confidence_batch`]).

use crate::dict::{IdTriple, TermDict};
use crate::epoch::{EpochStore, Fact};
use crate::graph::Graph;
use crate::incremental::{check_strengths, IncrementalMaterializer, MaterializerConfig};
use crate::model::Statement;
use crate::snapshot::{check_triple, load_snapshot, write_snapshot, SNAPSHOT_TMP};
use crate::wal::{self, Wal, WalRecord};
use cogsdk_sim::fs::{RealFs, Vfs};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub use crate::wal::{DurableError, WalStats};

/// Tuning knobs for the durability subsystem.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// WAL segment rotation threshold in bytes.
    pub segment_max_bytes: usize,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            segment_max_bytes: 1 << 20,
        }
    }
}

/// What one recovery did, exported as `sdk_recovery_*` metrics by the
/// KB layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Whether a snapshot was found and loaded.
    pub snapshot_loaded: bool,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn tail frames detected and dropped (0 or 1).
    pub torn_tails: u64,
    /// Base triples in the recovered store.
    pub base_triples: usize,
    /// Facts re-derived by post-replay materialization.
    pub rederived_facts: usize,
    /// Wall-clock recovery time.
    pub duration_ms: f64,
}

struct Durability {
    fs: Arc<dyn Vfs>,
    wal: Wal,
    /// Dictionary terms with seq below this are already durable
    /// (snapshotted or logged); anything at or above rides the next
    /// group commit as `DictEntry` records.
    dict_watermark: usize,
}

impl Durability {
    /// Writes a checksummed snapshot of `dict`, the stated `triples`
    /// (SPO order), the ruleset config and the weighted triples'
    /// confidences (SPO order) via write-temp → fsync → rename, then
    /// truncates the WAL. Returns bytes written.
    fn snapshot(
        &mut self,
        dict: &TermDict,
        triples: &[IdTriple],
        config: &MaterializerConfig,
        confidence: &[(IdTriple, f64)],
    ) -> Result<u64, DurableError> {
        let bytes = write_snapshot(self.fs.as_ref(), dict, triples, config, confidence)?;
        self.wal.reset()?;
        self.dict_watermark = dict.len();
        Ok(bytes)
    }
}

/// An [`IncrementalMaterializer`] with optional write-ahead durability.
///
/// In-memory stores ([`DurableStore::in_memory`]) behave exactly like
/// the bare materializer (mutations cannot fail); durable stores
/// ([`DurableStore::open`]) log every mutation before applying it.
///
/// # Examples
///
/// ```
/// use cogsdk_rdf::{DurableOptions, DurableStore, Statement, Term};
/// use cogsdk_sim::fs::SimFs;
/// use std::sync::Arc;
///
/// let fs: Arc<SimFs> = Arc::new(SimFs::new(7));
/// let mut store = DurableStore::open(fs.clone(), DurableOptions::default()).unwrap();
/// store
///     .insert(Statement::new(
///         Term::iri("ex:a"),
///         Term::iri("ex:p"),
///         Term::iri("ex:b"),
///     ))
///     .unwrap();
/// drop(store);
///
/// let recovered = DurableStore::open(fs, DurableOptions::default()).unwrap();
/// assert_eq!(recovered.len(), 1);
/// ```
pub struct DurableStore {
    inner: IncrementalMaterializer,
    durability: Option<Durability>,
    recovery: Option<RecoveryStats>,
    /// Reader-facing epoch snapshots; shared with the KB layer outside
    /// its store lock so pinning never contends with writers.
    epochs: Arc<EpochStore>,
}

impl DurableStore {
    /// A purely in-memory store: no logging, mutations never fail.
    pub fn in_memory() -> DurableStore {
        DurableStore::over(IncrementalMaterializer::new(), None)
    }

    fn over(inner: IncrementalMaterializer, durability: Option<Durability>) -> DurableStore {
        DurableStore {
            epochs: Arc::new(EpochStore::new(inner.epoch().clone())),
            inner,
            durability,
            recovery: None,
        }
    }

    /// Opens a durable store backed by the directory at `path` on the
    /// real filesystem, recovering any existing state.
    pub fn open_dir(
        path: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<DurableStore, DurableError> {
        let fs = RealFs::open(path)?;
        DurableStore::open(Arc::new(fs), options)
    }

    /// Opens a durable store on any [`Vfs`], recovering existing state:
    /// newest valid snapshot, then WAL replay, then closure
    /// re-derivation. If replay consumed any records (or dropped a torn
    /// tail), a fresh snapshot is written immediately so the log
    /// restarts clean.
    ///
    /// # Errors
    ///
    /// [`DurableError::Corrupt`] if the snapshot fails its checksum or
    /// the WAL is damaged anywhere but a torn tail;
    /// [`DurableError::Io`] if storage fails.
    pub fn open(fs: Arc<dyn Vfs>, options: DurableOptions) -> Result<DurableStore, DurableError> {
        let start = Instant::now();
        let snapshot = load_snapshot(fs.as_ref())?;
        let snapshot_loaded = snapshot.is_some();
        let snap = snapshot.unwrap_or_default();
        let (dict, mut config) = (snap.dict, snap.config);
        // Per triple, the last logged operation wins: one net run of
        // triples absent (`None`) or stated at a confidence, from the
        // snapshot's weighted triples (a stale entry for another is
        // dropped).
        let mut net: HashMap<IdTriple, Option<f64>> = snap
            .confidence
            .into_iter()
            .filter(|&(t, value)| value < 1.0 && snap.triples.binary_search(&t).is_ok())
            .map(|(t, value)| (t, Some(value)))
            .collect();

        let replayed = wal::replay(fs.as_ref())?;
        let replayed_records = replayed.records.len() as u64;
        // Ruleset records, in log order: merged in one go, they add what
        // merging them one by one would.
        let mut logged = MaterializerConfig::default();
        for record in replayed.records {
            match record {
                WalRecord::DictEntry { seq, term } => {
                    let id = dict.intern(&term);
                    if id.seq() != seq as usize {
                        return Err(DurableError::Corrupt(format!(
                            "dict entry replayed to seq {} but was logged as {seq}",
                            id.seq()
                        )));
                    }
                }
                // A triple `net` lacks is absent or stated at 1.0: an
                // insert states it at 1.0, a reset leaves it.
                WalRecord::Insert(s, p, o) => {
                    let held = net.entry(check_triple((s, p, o), dict.len())?).or_default();
                    held.get_or_insert(1.0);
                }
                WalRecord::Remove(s, p, o) => {
                    net.insert(check_triple((s, p, o), dict.len())?, None);
                }
                WalRecord::EnableRdfs => logged.rdfs = true,
                WalRecord::EnableOwl => logged.owl = true,
                WalRecord::AddTransitive(term) => logged.transitive.push(term),
                WalRecord::AddRules(rules) => logged.rules.extend(rules),
                WalRecord::AddWeightedRules(rules, strength) => logged
                    .weighted
                    .extend(rules.into_iter().map(|r| (r, strength))),
                WalRecord::Confidence(s, p, o, bits) => {
                    let triple = check_triple((s, p, o), dict.len())?;
                    let value = f64::from_bits(bits);
                    if !value.is_finite() {
                        return Err(DurableError::Corrupt(format!(
                            "confidence record for ({s}, {p}, {o}) is not finite"
                        )));
                    }
                    if value < 1.0 {
                        net.insert(triple, Some(value));
                    } else if let Some(Some(held)) = net.get_mut(&triple) {
                        *held = 1.0;
                    }
                }
            }
        }

        config.merge(logged);
        // Only these terms are on disk: re-deriving may intern the rules'
        // vocabulary, which the next commit must log.
        let durable_terms = dict.len();
        let (inner, base_triples, rederived_facts) =
            IncrementalMaterializer::recover(dict.clone(), snap.triples, net, config);
        // Discard any half-written snapshot temp from a previous run.
        fs.delete(SNAPSHOT_TMP)?;
        let wal = Wal::open(fs.clone(), options.segment_max_bytes)?;
        let durability = Durability {
            fs,
            wal,
            dict_watermark: durable_terms,
        };
        let mut store = DurableStore::over(inner, Some(durability));
        if replayed_records > 0 || replayed.torn_tails > 0 {
            // Fold the replayed log (and any torn bytes) into a fresh
            // snapshot so the new WAL starts empty — appending after a
            // torn tail would corrupt the log.
            store.snapshot()?;
        }
        store.recovery = Some(RecoveryStats {
            snapshot_loaded,
            replayed_records,
            torn_tails: replayed.torn_tails,
            base_triples,
            rederived_facts,
            duration_ms: start.elapsed().as_secs_f64() * 1e3,
        });
        Ok(store)
    }

    /// Whether mutations are logged to stable storage.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Stats from the recovery this store was opened with, if durable.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// Cumulative WAL activity since open (zeroes when in-memory).
    pub fn wal_stats(&self) -> WalStats {
        self.durability
            .as_ref()
            .map(|d| d.wal.stats())
            .unwrap_or_default()
    }

    /// Appends `ops`, if any, to the WAL in one group commit, prefixed by
    /// `DictEntry` records for every term interned since the last
    /// commit. The watermark advances only on success, so terms interned
    /// by a failed batch are re-logged by the next one.
    fn log_records(&mut self, ops: Vec<WalRecord>) -> Result<(), DurableError> {
        let Some(d) = self.durability.as_mut().filter(|_| !ops.is_empty()) else {
            return Ok(());
        };
        let fresh = self.inner.epoch().dict().terms_from(d.dict_watermark);
        let mut records = Vec::with_capacity(fresh.len() + ops.len());
        for (i, term) in fresh.iter().enumerate() {
            records.push(WalRecord::DictEntry {
                seq: (d.dict_watermark + i) as u32,
                term: term.clone(),
            });
        }
        let new_watermark = d.dict_watermark + fresh.len();
        records.extend(ops);
        d.wal.append_batch(&records)?;
        d.dict_watermark = new_watermark;
        Ok(())
    }

    /// Publishes the epoch the last mutation sealed to readers. Called
    /// at the end of every mutating method, after the WAL append and
    /// after the closure is maintained — so a pinned epoch is always
    /// fully materialized and fully durable.
    fn publish_epoch(&self) {
        self.epochs.publish(self.inner.epoch());
    }

    /// The reader-facing epoch store. Clone the `Arc` once and pin
    /// epochs from it without ever taking the writer's lock.
    pub fn epochs(&self) -> &Arc<EpochStore> {
        &self.epochs
    }

    /// Inserts a stated fact (logged first when durable). Returns
    /// whether the fact was new to the full view.
    ///
    /// # Errors
    ///
    /// If the WAL append fails the fact is *not* applied in memory.
    pub fn insert(&mut self, st: Statement) -> Result<bool, DurableError> {
        Ok(self.insert_batch([st])? == 1)
    }

    /// Inserts a batch under a single group commit. Returns how many
    /// facts were new to the full view. Each statement is interned once,
    /// then the batch takes the [`insert_ids`](Self::insert_ids) path:
    /// staged in the private writer, logged and fsynced, then published.
    ///
    /// # Errors
    ///
    /// If the WAL append fails the staged batch is discarded: nothing is
    /// applied in memory.
    pub fn insert_batch(
        &mut self,
        batch: impl IntoIterator<Item = Statement>,
    ) -> Result<usize, DurableError> {
        let dict = self.inner.epoch().dict().clone();
        let ids: Vec<IdTriple> = batch
            .into_iter()
            .map(|st| dict.intern_statement(&st))
            .collect();
        self.insert_ids(&ids)
    }

    /// Inserts triples already interned into the store's dictionary (the
    /// epochs' [`dict`](crate::EpochSnapshot::dict)) under a single group
    /// commit. The batch is sorted once and staged in the materializer's
    /// private writer: each distinct triple once, with at most one
    /// membership probe for its prior state, and none for a triple naming
    /// a term minted since the last seal. Every triple that was not yet
    /// stated is logged, in first-occurrence order, and fsynced; only then
    /// is the closure derived and the epoch sealed and published. Returns
    /// how many facts were new to the full view.
    ///
    /// # Errors
    ///
    /// If the WAL append fails the staged changes are discarded: memory
    /// and the published epoch are exactly as before the call.
    pub fn insert_ids(&mut self, batch: &[IdTriple]) -> Result<usize, DurableError> {
        let staged = self.inner.stage_stated(batch);
        if self.durability.is_some() {
            let ops = staged.iter().map(|&(t, _)| WalRecord::insert(t)).collect();
            if let Err(e) = self.log_records(ops) {
                self.inner.discard();
                return Err(e);
            }
        }
        let added = self.inner.seal_stated(&staged);
        self.publish_epoch();
        Ok(added)
    }

    /// Removes a stated fact (DRed in memory, logged first when
    /// durable). Returns whether the fact was present in the full view.
    pub fn remove(&mut self, st: &Statement) -> Result<bool, DurableError> {
        Ok(self.remove_batch([st])? == 1)
    }

    /// Removes a batch of stated facts under a single group commit, one
    /// DRed round and a single epoch publish. Returns how many were
    /// present. Each distinct statement is resolved once: one membership
    /// probe decides both its WAL record and its retraction.
    ///
    /// # Errors
    ///
    /// If the WAL append fails, nothing is applied in memory.
    pub fn remove_batch<'a>(
        &mut self,
        batch: impl IntoIterator<Item = &'a Statement>,
    ) -> Result<usize, DurableError> {
        let present = self.inner.resolve_present(batch);
        if self.durability.is_some() {
            let ops = present.iter().map(|&(t, _)| WalRecord::remove(t)).collect();
            self.log_records(ops)?;
        }
        let removed = self.inner.remove_present(&present);
        self.publish_epoch();
        Ok(removed)
    }

    /// Sets a weighted confidence for a statement; see
    /// [`set_confidence_batch`](Self::set_confidence_batch).
    pub fn set_confidence(&mut self, st: &Statement, value: f64) -> Result<(), DurableError> {
        self.set_confidence_batch([(st.clone(), value)]).map(|_| ())
    }

    /// Sets confidences under one WAL group commit (when durable) and one
    /// epoch publish. Below 1.0 a confidence is a weighted assertion: it
    /// states an absent or derived statement at it (deriving as an insert
    /// does) or re-weights a stated one. At or above 1.0 it resets a stated
    /// statement and does nothing to another. A removal drops the
    /// confidence, so a later plain insert is unweighted. Anything
    /// non-finite is rejected. Returns how many items changed a statement.
    pub fn set_confidence_batch(
        &mut self,
        items: impl IntoIterator<Item = (Statement, f64)>,
    ) -> Result<usize, DurableError> {
        Ok(self.commit_weighted(items, false)?.0)
    }

    /// [`set_confidence_batch`](Self::set_confidence_batch), except that a
    /// weighted statement keeps the higher confidence and 1.0 also inserts
    /// an absent or derived statement. Returns how many facts were new to
    /// the full view.
    pub fn insert_weighted(
        &mut self,
        items: impl IntoIterator<Item = (Statement, f64)>,
    ) -> Result<usize, DurableError> {
        Ok(self.commit_weighted(items, true)?.1)
    }

    /// Stages, logs (an `Insert` where a statement becomes stated at 1.0, a
    /// `Confidence` elsewhere) and seals weighted assertions. Returns how
    /// many items changed a statement and how many facts were new.
    fn commit_weighted(
        &mut self,
        items: impl IntoIterator<Item = (Statement, f64)>,
        insert: bool,
    ) -> Result<(usize, usize), DurableError> {
        let dict = self.inner.epoch().dict().clone();
        let mut staged = Vec::new();
        for (st, value) in items {
            if !value.is_finite() {
                self.inner.discard();
                return Err(DurableError::Corrupt(format!(
                    "confidence {value} is not finite"
                )));
            }
            let triple = dict.intern_statement(&st);
            if let Some((before, now)) = self.inner.weigh(triple, value, insert) {
                staged.push((triple, before, now));
            }
        }
        let record = |&(t, before, value): &(IdTriple, Option<Fact>, f64)| match value {
            _ if value >= 1.0 && before != Some(Fact::Stated) => WalRecord::insert(t),
            _ => WalRecord::confidence(t, value),
        };
        if let Err(e) = self.log_records(staged.iter().map(record).collect()) {
            self.inner.discard();
            return Err(e);
        }
        let seeds: Vec<(IdTriple, Option<Fact>)> = staged.iter().map(|&(t, b, _)| (t, b)).collect();
        let added = self.inner.seal_weighed(&seeds);
        self.publish_epoch();
        Ok((staged.len(), added))
    }

    /// The confidence of a statement: 1.0 unless it is present and was
    /// stated weighted or derived by a weighted rule.
    pub fn confidence_of(&self, st: &Statement) -> f64 {
        let epoch = self.inner.epoch();
        let triple = epoch.dict().lookup_statement(st);
        triple.and_then(|t| epoch.confidence_of(t)).unwrap_or(1.0)
    }

    /// Membership probes against sealed epochs since open: one per distinct
    /// triple an insert finds interned or a retraction names, plus rules'.
    pub fn membership_probes(&self) -> u64 {
        self.inner.membership_probes()
    }

    /// Adds the rulesets of `delta` that are new (see
    /// [`IncrementalMaterializer::configure`]): they are logged as one group
    /// commit (when durable), then their conclusions over the facts already
    /// present are derived, sealed and published as at most one epoch.
    /// Returns the facts this derived; an empty or repeated `delta` logs
    /// and publishes nothing.
    ///
    /// # Errors
    ///
    /// If the WAL append fails, the configuration and memory are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if a weighted rule's strength is outside `(0, 1]`, before
    /// anything is logged: replay rejects such a strength.
    pub fn configure(&mut self, delta: MaterializerConfig) -> Result<Vec<IdTriple>, DurableError> {
        check_strengths(&delta);
        let new = self.inner.config().clone().merge(delta);
        if !new.is_active() {
            return Ok(Vec::new());
        }
        self.log_records(WalRecord::ruleset(&new))?;
        let derived = self.inner.configure(new);
        self.publish_epoch();
        Ok(derived)
    }

    /// Replaces all facts with `graph` as the stated ones and drops every
    /// confidence, keeping the configuration, whose closure is derived
    /// before the new epoch is published. A durable store first writes
    /// `graph` as its snapshot (the old WAL no longer describes the state)
    /// and only then replaces the contents in memory.
    ///
    /// # Errors
    ///
    /// If the snapshot cannot be written, memory, the published epoch
    /// and the files all keep the old contents. (Memory and the epoch
    /// do so on any error; an error *after* the snapshot's rename, from
    /// deleting the old WAL segments, leaves the files as a crash at
    /// that point would — new snapshot, stale log — until a `snapshot`
    /// or `reset` succeeds.)
    pub fn reset(&mut self, graph: Graph) -> Result<(), DurableError> {
        if let Some(d) = self.durability.as_mut() {
            let triples: Vec<IdTriple> = graph.iter_ids().collect();
            d.snapshot(graph.dict(), &triples, self.inner.config(), &[])?;
        }
        self.inner.reset(graph);
        self.publish_epoch();
        Ok(())
    }

    /// Writes a checksummed snapshot of the dictionary, stated triples,
    /// ruleset config and the stated triples' confidences, then truncates
    /// the WAL. Returns bytes written (0 for in-memory stores, which have
    /// nothing to snapshot).
    pub fn snapshot(&mut self) -> Result<u64, DurableError> {
        let Some(d) = self.durability.as_mut() else {
            return Ok(0);
        };
        let epoch = self.inner.epoch();
        let stated: Vec<IdTriple> = epoch.stated_ids().collect();
        let mut weighted = epoch.weighted();
        weighted.retain(|(t, _)| stated.binary_search(t).is_ok());
        d.snapshot(epoch.dict(), &stated, self.inner.config(), &weighted)
    }

    /// Facts in the full view.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the full view is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Whether the full view contains the statement.
    pub fn contains(&self, st: &Statement) -> bool {
        self.inner.contains(st)
    }

    /// The active ruleset configuration.
    pub fn config(&self) -> &MaterializerConfig {
        self.inner.config()
    }
}

impl Default for DurableStore {
    fn default() -> DurableStore {
        DurableStore::in_memory()
    }
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("durable", &self.is_durable())
            .field("len", &self.len())
            .field("config", self.config())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{vocab, Term};
    use crate::reason::Rule;
    use cogsdk_sim::fs::SimFs;

    fn st(s: &str, p: &str, o: &str) -> Statement {
        Statement::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn rdfs() -> MaterializerConfig {
        MaterializerConfig {
            rdfs: true,
            ..Default::default()
        }
    }

    fn rules(rules: &[&str]) -> MaterializerConfig {
        MaterializerConfig {
            rules: rules.iter().map(|r| Rule::parse(r).unwrap()).collect(),
            ..Default::default()
        }
    }

    fn open(fs: &Arc<SimFs>) -> DurableStore {
        DurableStore::open(fs.clone() as Arc<dyn Vfs>, DurableOptions::default()).unwrap()
    }

    #[test]
    fn in_memory_store_mutates_without_storage() {
        let mut store = DurableStore::in_memory();
        assert!(!store.is_durable());
        assert!(store.insert(st("ex:a", "ex:p", "ex:b")).unwrap());
        assert_eq!(store.len(), 1);
        assert_eq!(store.snapshot().unwrap(), 0);
        assert_eq!(store.wal_stats(), WalStats::default());
    }

    #[test]
    fn vocabulary_a_recovery_interns_is_logged_by_the_next_commit() {
        let fs = Arc::new(SimFs::new(31));
        let mut store = open(&fs);
        store.configure(rdfs()).unwrap();
        // On an empty store nothing is derived, so nothing interned the
        // RDFS vocabulary before this snapshot.
        store.snapshot().unwrap();
        drop(store);
        // Recovery interns it to re-derive; the next commit must log it.
        let mut store = open(&fs);
        store.insert(st("ex:a", vocab::TYPE, "ex:C")).unwrap();
        drop(store);
        let store = open(&fs);
        assert!(store.contains(&st("ex:a", vocab::TYPE, "ex:C")));
    }

    #[test]
    fn reopen_recovers_base_and_rederives_closure() {
        let fs = Arc::new(SimFs::new(1));
        let mut store = open(&fs);
        store.configure(rdfs()).unwrap();
        store
            .insert(st("ex:cat", vocab::SUB_CLASS_OF, "ex:animal"))
            .unwrap();
        store.insert(st("ex:felix", vocab::TYPE, "ex:cat")).unwrap();
        let expected = store.epochs().pin().to_graph();
        assert!(expected.contains(&st("ex:felix", vocab::TYPE, "ex:animal")));
        drop(store);

        let recovered = open(&fs);
        assert_eq!(recovered.epochs().pin().to_graph(), expected);
        assert!(recovered.config().rdfs);
        let stats = recovered.recovery_stats().unwrap();
        assert!(!stats.snapshot_loaded);
        assert!(stats.replayed_records > 0);
        assert_eq!(stats.torn_tails, 0);
    }

    #[test]
    fn snapshot_truncates_wal_and_recovery_prefers_it() {
        let fs = Arc::new(SimFs::new(2));
        let mut store = open(&fs);
        for i in 0..20 {
            store
                .insert(st(&format!("ex:s{i}"), "ex:p", "ex:o"))
                .unwrap();
        }
        let bytes = store.snapshot().unwrap();
        assert!(bytes > 0);
        // WAL restarted: a post-snapshot insert goes to segment 0 afresh.
        store.insert(st("ex:late", "ex:p", "ex:o")).unwrap();
        drop(store);

        let recovered = open(&fs);
        let stats = recovered.recovery_stats().unwrap();
        assert!(stats.snapshot_loaded);
        assert_eq!(
            stats.replayed_records, 2,
            "only the post-snapshot insert (+ its dict entry) replays"
        );
        assert_eq!(recovered.len(), 21);
    }

    #[test]
    fn removes_are_durable_and_never_resurrect() {
        let fs = Arc::new(SimFs::new(3));
        let mut store = open(&fs);
        store.insert(st("ex:a", "ex:p", "ex:b")).unwrap();
        store.insert(st("ex:c", "ex:p", "ex:d")).unwrap();
        assert!(store.remove(&st("ex:a", "ex:p", "ex:b")).unwrap());
        drop(store);

        let recovered = open(&fs);
        assert_eq!(recovered.len(), 1);
        assert!(!recovered.contains(&st("ex:a", "ex:p", "ex:b")));
        assert!(recovered.contains(&st("ex:c", "ex:p", "ex:d")));
    }

    #[test]
    fn remove_batch_group_commits_and_survives_reopen() {
        let fs = Arc::new(SimFs::new(10));
        let mut store = open(&fs);
        let batch: Vec<Statement> = (0..8)
            .map(|i| st("ex:a", "ex:p", &format!("ex:o{i}")))
            .collect();
        store.insert_batch(batch.clone()).unwrap();
        let keep = st("ex:keep", "ex:p", "ex:o");
        store.insert(keep.clone()).unwrap();

        let fsyncs_before = store.wal_stats().fsyncs;
        let epoch_before = store.epochs().pin().epoch();
        // Retract the batch plus a duplicate and an absent fact: one
        // group commit, one epoch publish, absent facts uncounted.
        let absent = st("ex:never", "ex:p", "ex:o");
        let removed = store
            .remove_batch(batch.iter().chain([&batch[0], &absent]))
            .unwrap();
        assert_eq!(removed, 8);
        assert_eq!(store.wal_stats().fsyncs, fsyncs_before + 1);
        assert_eq!(store.epochs().pin().epoch(), epoch_before + 1);
        assert_eq!(store.len(), 1);
        drop(store);

        let recovered = open(&fs);
        assert_eq!(recovered.len(), 1);
        assert!(recovered.contains(&keep));
        assert!(!recovered.contains(&batch[0]));
    }

    #[test]
    fn insert_batch_nets_intra_batch_duplicates() {
        let fs = Arc::new(SimFs::new(21));
        let mut store = open(&fs);
        let a = st("ex:a", "ex:p", "ex:b");
        let b = st("ex:c", "ex:p", "ex:d");
        let fsyncs_before = store.wal_stats().fsyncs;
        let epoch_before = store.epochs().pin().epoch();
        // The same statement three times in one batch: logged once,
        // counted once, one group commit, one epoch publish.
        let added = store
            .insert_batch(vec![a.clone(), b.clone(), a.clone(), a.clone()])
            .unwrap();
        assert_eq!(added, 2, "duplicates must not double count");
        assert_eq!(store.len(), 2);
        assert_eq!(store.wal_stats().fsyncs, fsyncs_before + 1);
        assert_eq!(store.epochs().pin().epoch(), epoch_before + 1);
        assert_eq!(store.epochs().pin().len(), 2, "epoch delta netted");
        // Re-inserting an already-stored fact alongside a fresh one logs
        // only the fresh one.
        let appends_before = store.wal_stats().appends;
        let c = st("ex:e", "ex:p", "ex:f");
        assert_eq!(store.insert_batch(vec![a.clone(), c.clone()]).unwrap(), 1);
        assert_eq!(
            store.wal_stats().appends,
            appends_before + 1,
            "one group append for the fresh fact"
        );
        drop(store);

        let recovered = open(&fs);
        let stats = recovered.recovery_stats().unwrap();
        // 7 dict terms (ex:a ex:p ex:b ex:c ex:d ex:e ex:f) + 3 inserts.
        assert_eq!(stats.replayed_records, 10, "{stats:?}");
        assert_eq!(recovered.len(), 3);
        assert!(recovered.contains(&a));
        assert!(recovered.contains(&b));
        assert!(recovered.contains(&c));
    }

    /// What readers see — epoch number, size and resolved contents —
    /// checked to be the writer's epoch too.
    fn view(store: &DurableStore) -> (u64, usize, Vec<String>) {
        let epoch = store.epochs().pin();
        assert!(
            Arc::ptr_eq(&epoch, store.inner.epoch()),
            "writer ahead of readers"
        );
        let dict = epoch.dict();
        let mut lines: Vec<String> = (epoch.iter_ids().into_iter())
            .map(|t| dict.resolve_triple(t).to_string())
            .collect();
        lines.sort_unstable();
        (epoch.epoch(), epoch.len(), lines)
    }

    #[test]
    fn failed_wal_commit_discards_the_staged_batch() {
        let batch = |tag: &str| -> Vec<Statement> {
            let fresh = (0..6).map(|i| st(&format!("ex:{tag}{i}"), "ex:p", "ex:o"));
            fresh.chain([st("ex:a", "ex:p", "ex:b")]).collect()
        };
        // No space fails the append before a byte lands, and the store
        // carries on. A crash armed at the append (op 0) or its fsync
        // (op 1) takes the process down: the files are remounted and
        // the store reopened.
        for fault in [None, Some(0), Some(1)] {
            for with_rules in [false, true] {
                let case = format!("crash at op {fault:?}, rules {with_rules}");
                let fs = Arc::new(SimFs::new(31));
                let mut store = open(&fs);
                if with_rules {
                    let rule = "[(?a ex:p ?b) -> (?b ex:q ?a)]";
                    store.configure(rules(&[rule])).unwrap();
                }
                store.insert_batch(batch("old")).unwrap();
                let before = view(&store);

                match fault {
                    None => fs.set_space_limit(Some(0)),
                    Some(op) => fs.fail_after_ops(op),
                }
                assert!(store.insert_batch(batch("new")).is_err(), "{case}");
                assert_eq!(view(&store), before, "{case}: nothing applied");

                let mut store = match fault {
                    None => {
                        fs.set_space_limit(None);
                        store
                    }
                    Some(_) => {
                        drop(store);
                        fs.crash();
                        open(&fs)
                    }
                };
                // The next insert commits. On the same store the failed
                // batch left nothing staged, so all six facts are new.
                let added = store.insert_batch(batch("new")).unwrap();
                if fault.is_none() {
                    assert_eq!(added, 6, "{case}");
                }
                assert!(batch("new").iter().all(|s| store.contains(s)), "{case}");
                assert_eq!(store.contains(&st("ex:o", "ex:q", "ex:new0")), with_rules);
                let (_, len, contents) = view(&store);
                drop(store);
                fs.crash();
                let (_, recovered_len, recovered) = view(&open(&fs));
                assert_eq!((recovered_len, recovered), (len, contents), "{case}");
            }
        }
    }

    #[test]
    fn statement_and_id_paths_write_identical_wal_bytes() {
        let wal = |fs: &SimFs| -> Vec<(String, Vec<u8>)> {
            let names = fs.list().unwrap().into_iter();
            let segments = names.filter(|name| name.starts_with("wal-"));
            segments
                .map(|name| {
                    let bytes = fs.read(&name).unwrap();
                    (name, bytes)
                })
                .collect()
        };
        let (by_statement, by_id) = (Arc::new(SimFs::new(41)), Arc::new(SimFs::new(41)));
        let (mut a, mut b) = (open(&by_statement), open(&by_id));
        for round in 0..3 {
            // Fresh facts, an intra-batch duplicate and, after round 0,
            // facts stored already.
            let mut batch: Vec<Statement> = (0..5)
                .map(|i| st(&format!("ex:s{}", round + i), "ex:p", &format!("ex:o{i}")))
                .collect();
            batch.push(batch[0].clone());
            let added = a.insert_batch(batch.clone()).unwrap();
            // The ingest pipeline's path: intern ahead of the commit into
            // the shared dictionary, then commit the ids.
            let dict = b.epochs().pin().dict().clone();
            let ids: Vec<IdTriple> = batch.iter().map(|st| dict.intern_statement(st)).collect();
            assert_eq!(b.insert_ids(&ids).unwrap(), added, "round {round}");
        }
        let logged = wal(&by_statement);
        assert!(!logged.is_empty() && logged.iter().all(|(_, bytes)| !bytes.is_empty()));
        assert_eq!(logged, wal(&by_id));
    }

    #[test]
    fn a_re_insert_after_reset_or_reopen_is_neither_counted_nor_logged() {
        let fs = Arc::new(SimFs::new(43));
        let mut store = open(&fs);
        store.insert(st("ex:old", "ex:p", "ex:o")).unwrap();
        // The new contents come with a dictionary of their own, longer
        // than the old one, so their ids lie past the old epoch's
        // watermark.
        let facts: Vec<Statement> = (0..3)
            .map(|i| st(&format!("ex:s{i}"), "ex:p", &format!("ex:o{i}")))
            .collect();
        let mut graph: Graph = (0..20)
            .map(|i| st(&format!("ex:filler{i}"), "ex:q", "ex:x"))
            .collect();
        graph.extend(facts.iter().cloned());
        store.reset(graph).unwrap();
        let logged = store.wal_stats();
        assert_eq!(store.insert_batch(facts.clone()).unwrap(), 0, "after reset");
        assert_eq!(store.wal_stats(), logged, "nothing re-logged after reset");
        assert_eq!(store.len(), 23);
        drop(store);

        let mut reopened = open(&fs);
        assert_eq!(reopened.insert_batch(facts).unwrap(), 0, "after reopen");
        assert_eq!(reopened.wal_stats(), WalStats::default(), "nothing logged");
        assert_eq!(reopened.len(), 23);
    }

    #[test]
    fn crash_between_snapshot_rename_and_wal_truncate_is_idempotent() {
        let fs = Arc::new(SimFs::new(4));
        let mut store = open(&fs);
        store.insert(st("ex:a", "ex:p", "ex:b")).unwrap();
        assert!(store.remove(&st("ex:a", "ex:p", "ex:b")).unwrap());
        store.insert(st("ex:c", "ex:p", "ex:d")).unwrap();
        let expected: Vec<IdTriple> = store.epochs().pin().stated_ids().collect();
        // Snapshot's ops: write tmp, fsync tmp, rename, delete segment.
        // Crash on the delete: snapshot installed, stale WAL left behind.
        fs.fail_after_ops(3);
        assert!(store.snapshot().is_err());
        fs.crash();

        let recovered = open(&fs);
        let stated: Vec<IdTriple> = recovered.epochs().pin().stated_ids().collect();
        assert_eq!(stated, expected);
        assert!(
            !recovered.contains(&st("ex:a", "ex:p", "ex:b")),
            "stale-WAL replay onto the snapshot must not resurrect removed facts"
        );
    }

    #[test]
    fn reset_snapshots_the_new_state() {
        let fs = Arc::new(SimFs::new(5));
        let mut store = open(&fs);
        store.insert(st("ex:old", "ex:p", "ex:o")).unwrap();
        let mut replacement = Graph::new();
        replacement.insert(st("ex:new", "ex:p", "ex:o"));
        store.reset(replacement).unwrap();
        drop(store);

        let recovered = open(&fs);
        assert_eq!(recovered.len(), 1);
        assert!(recovered.contains(&st("ex:new", "ex:p", "ex:o")));
        assert!(!recovered.contains(&st("ex:old", "ex:p", "ex:o")));
    }

    #[test]
    fn failed_reset_changes_nothing_anywhere() {
        let fs = Arc::new(SimFs::new(11));
        let mut store = open(&fs);
        let old = st("ex:old", "ex:p", "ex:o");
        store.insert(old.clone()).unwrap();
        let replacement: Graph = (0..50)
            .map(|i| st(&format!("ex:new{i}"), "ex:p", "ex:o"))
            .collect();

        fs.set_space_limit(Some(0));
        assert!(store.reset(replacement).is_err());
        // Write side and readers still agree on the old contents.
        assert_eq!(store.len(), 1);
        assert!(store.contains(&old));
        assert_eq!(store.epochs().pin().len(), 1);
        assert!(store.epochs().pin().contains(&old));

        // The next mutation logs against the old dictionary, so the
        // files still round-trip.
        fs.set_space_limit(None);
        let later = st("ex:later", "ex:p", "ex:o");
        store.insert(later.clone()).unwrap();
        assert_eq!(store.epochs().pin().len(), 2);
        drop(store);
        let recovered = open(&fs);
        assert_eq!(recovered.len(), 2);
        assert!(recovered.contains(&old) && recovered.contains(&later));
    }

    #[test]
    fn transitive_and_rules_survive_reopen() {
        let fs = Arc::new(SimFs::new(6));
        let mut store = open(&fs);
        store
            .configure(MaterializerConfig {
                transitive: vec![Term::iri("ex:ancestor")],
                ..rules(&["[(?a ex:parent ?b) -> (?a ex:ancestor ?b)]"])
            })
            .unwrap();
        store.insert(st("ex:a", "ex:parent", "ex:b")).unwrap();
        store.insert(st("ex:b", "ex:parent", "ex:c")).unwrap();
        assert!(store.contains(&st("ex:a", "ex:ancestor", "ex:c")));
        let expected = store.epochs().pin().to_graph();
        drop(store);

        let recovered = open(&fs);
        assert_eq!(recovered.epochs().pin().to_graph(), expected);
        assert_eq!(recovered.config().transitive.len(), 1);
        assert_eq!(recovered.config().rules.len(), 1);
    }

    #[test]
    fn confidences_survive_reopen_via_wal_and_snapshot() {
        let fs = Arc::new(SimFs::new(8));
        let mut store = open(&fs);
        store.insert(st("ex:a", "ex:p", "ex:b")).unwrap();
        store.insert(st("ex:c", "ex:p", "ex:d")).unwrap();
        store
            .set_confidence(&st("ex:a", "ex:p", "ex:b"), 0.6)
            .unwrap();
        store
            .set_confidence(&st("ex:c", "ex:p", "ex:d"), 0.3)
            .unwrap();
        // Restored to the default: the entry must not survive.
        store
            .set_confidence(&st("ex:c", "ex:p", "ex:d"), 1.0)
            .unwrap();
        drop(store);

        // First reopen replays the confidence records from the WAL.
        let mut recovered = open(&fs);
        assert_eq!(recovered.confidence_of(&st("ex:a", "ex:p", "ex:b")), 0.6);
        assert_eq!(recovered.confidence_of(&st("ex:c", "ex:p", "ex:d")), 1.0);
        assert_eq!(recovered.epochs().pin().weighted().len(), 1);
        recovered.snapshot().unwrap();
        drop(recovered);

        // Second reopen reads them from the snapshot (WAL is empty).
        let recovered = open(&fs);
        assert_eq!(recovered.recovery_stats().unwrap().replayed_records, 0);
        assert_eq!(recovered.confidence_of(&st("ex:a", "ex:p", "ex:b")), 0.6);
        assert_eq!(recovered.epochs().pin().weighted().len(), 1);
    }

    #[test]
    fn a_confidence_goes_with_its_fact() {
        let fs = Arc::new(SimFs::new(12));
        let mut store = open(&fs);
        let x = st("ex:x", "ex:p", "ex:y");
        store.insert(x.clone()).unwrap();
        store.set_confidence(&x, 0.4).unwrap();
        assert_eq!(store.confidence_of(&x), 0.4);
        assert!(store.remove(&x).unwrap());
        assert_eq!(store.confidence_of(&x), 1.0, "an absent fact is unweighted");
        assert!(store.insert(x.clone()).unwrap());
        assert_eq!(store.confidence_of(&x), 1.0, "a re-insert is unweighted");
        drop(store);
        assert_eq!(open(&fs).confidence_of(&x), 1.0, "after replay too");

        // Below 1.0 on an absent fact states it at that confidence; 1.0
        // on an absent fact does nothing.
        let mut store = open(&fs);
        let (y, z) = (st("ex:y", "ex:p", "ex:z"), st("ex:z", "ex:p", "ex:w"));
        assert_eq!(
            store
                .set_confidence_batch([(y.clone(), 0.7), (z.clone(), 1.0)])
                .unwrap(),
            1
        );
        assert!(store.contains(&y) && !store.contains(&z));
        assert_eq!(
            store.insert_batch([y.clone()]).unwrap(),
            0,
            "stated already"
        );
        assert_eq!(
            store.confidence_of(&y),
            0.7,
            "a plain insert keeps the level"
        );
        drop(store);
        let store = open(&fs);
        assert!(store.contains(&y) && !store.contains(&z));
        assert_eq!(store.confidence_of(&y), 0.7);
        assert_eq!(store.epochs().pin().weighted().len(), 1);
    }

    #[test]
    fn a_parent_order_log_recovers_the_same_confidences() {
        // Logs written when confidences were a side table: an import's
        // confidences in one group, then its facts; a conflict round's
        // removal, then a 1.0 reset of what it removed.
        let fs = Arc::new(SimFs::new(14));
        let dict = TermDict::new();
        let (kept, dropped) = (
            st("ex:de", "ex:capital", "ex:berlin"),
            st("ex:de", "ex:capital", "ex:bonn"),
        );
        let (k, d) = (
            dict.intern_statement(&kept),
            dict.intern_statement(&dropped),
        );
        let mut wal = Wal::open(fs.clone(), DurableOptions::default().segment_max_bytes).unwrap();
        let entries = dict.terms_from(0).into_iter().enumerate();
        let terms: Vec<WalRecord> = entries
            .map(|(seq, term)| WalRecord::DictEntry {
                seq: seq as u32,
                term,
            })
            .collect();
        wal.append_batch(&terms).unwrap();
        let groups = [
            vec![WalRecord::confidence(k, 0.9), WalRecord::confidence(d, 0.4)],
            vec![WalRecord::insert(k), WalRecord::insert(d)],
            vec![WalRecord::remove(d)],
            vec![WalRecord::confidence(d, 1.0)],
        ];
        for group in &groups {
            wal.append_batch(group).unwrap();
        }
        drop(wal);

        let mut store = open(&fs);
        assert_eq!(store.confidence_of(&kept), 0.9);
        assert!(!store.contains(&dropped), "the reset restates nothing");
        store.insert(dropped.clone()).unwrap();
        assert_eq!(store.confidence_of(&dropped), 1.0);
        assert_eq!(store.epochs().pin().weighted(), vec![(k, 0.9)]);

        // A snapshot of that time could list the stale level too: it is
        // dropped on load, and states nothing.
        let fs = Arc::new(SimFs::new(15));
        let config = MaterializerConfig::default();
        write_snapshot(fs.as_ref(), &dict, &[k], &config, &[(k, 0.9), (d, 0.4)]).unwrap();
        let store = open(&fs);
        assert!(!store.contains(&dropped));
        assert_eq!(store.epochs().pin().weighted(), vec![(k, 0.9)]);
    }

    #[test]
    fn a_retraction_probes_each_statement_once() {
        let fs = Arc::new(SimFs::new(16));
        let mut store = open(&fs);
        let facts: Vec<Statement> = (0..40)
            .map(|i| st(&format!("ex:s{i}"), "ex:p", "ex:o"))
            .collect();
        store.insert_batch(facts.clone()).unwrap();
        let before = store.membership_probes();
        // A duplicate and a statement the dictionary has never seen cost
        // nothing more.
        let absent = st("ex:nowhere", "ex:p", "ex:o");
        let batch = facts.iter().chain([&facts[0], &absent]);
        assert_eq!(store.remove_batch(batch).unwrap(), 40);
        assert_eq!(store.membership_probes() - before, 40, "one probe each");
        assert!(facts.iter().all(|f| !store.contains(f)));
    }

    #[test]
    fn every_mutation_publishes_a_fully_materialized_epoch() {
        let fs = Arc::new(SimFs::new(9));
        let mut store = open(&fs);
        let epochs = store.epochs().clone();
        store.configure(rdfs()).unwrap();
        store
            .insert(st("ex:cat", vocab::SUB_CLASS_OF, "ex:animal"))
            .unwrap();
        store.insert(st("ex:felix", vocab::TYPE, "ex:cat")).unwrap();
        let snap = epochs.pin();
        assert!(
            snap.contains(&st("ex:felix", vocab::TYPE, "ex:animal")),
            "pinned epoch includes the derived closure"
        );
        assert_eq!(snap.len(), store.len());

        store
            .set_confidence(&st("ex:felix", vocab::TYPE, "ex:cat"), 0.8)
            .unwrap();
        let snap = epochs.pin();
        let t = snap
            .dict()
            .lookup_statement(&st("ex:felix", vocab::TYPE, "ex:cat"));
        assert_eq!(snap.confidence_of(t.unwrap()), Some(0.8));
    }

    #[test]
    fn rules_enabled_on_a_non_empty_store_derive_with_no_further_call() {
        let fs = Arc::new(SimFs::new(17));
        for mut store in [DurableStore::in_memory(), open(&fs)] {
            store
                .insert(st("ex:cat", vocab::SUB_CLASS_OF, "ex:mammal"))
                .unwrap();
            store.insert(st("ex:felix", vocab::TYPE, "ex:cat")).unwrap();
            store.configure(rdfs()).unwrap();
            store.insert(st("ex:tom", vocab::TYPE, "ex:cat")).unwrap();
            for cat in ["ex:felix", "ex:tom"] {
                let mammal = st(cat, vocab::TYPE, "ex:mammal");
                assert!(store.epochs().pin().contains(&mammal), "{cat}");
            }

            store.insert(st("ex:a", "ex:p", "ex:b")).unwrap();
            store
                .configure(rules(&["[(?x ex:p ?y) -> (?y ex:q ?x)]"]))
                .unwrap();
            store.insert(st("ex:c", "ex:p", "ex:d")).unwrap();
            let pinned = store.epochs().pin();
            assert!(pinned.contains(&st("ex:b", "ex:q", "ex:a")), "earlier fact");
            assert!(pinned.contains(&st("ex:d", "ex:q", "ex:c")), "later insert");
            if store.is_durable() {
                drop(store);
                let recovered = open(&fs);
                assert_eq!(recovered.epochs().pin().to_graph(), pinned.to_graph());
            }
        }
    }

    #[test]
    fn a_ruleset_change_is_one_group_and_one_epoch() {
        let fs = Arc::new(SimFs::new(18));
        let mut store = open(&fs);
        store.insert(st("ex:a", "ex:part", "ex:b")).unwrap();
        store.insert(st("ex:b", "ex:part", "ex:c")).unwrap();
        store.insert(st("ex:x", vocab::TYPE, "ex:C")).unwrap();
        let delta = MaterializerConfig {
            transitive: vec![Term::iri("ex:part")],
            ..rules(&["[(?x ex:part ?y) -> (?y ex:whole ?x)]"])
        };
        let delta = MaterializerConfig {
            rdfs: true,
            ..delta
        };
        let (wal, epoch) = (store.wal_stats(), store.epochs().pin().epoch());
        let derived = store.configure(delta.clone()).unwrap();
        assert_eq!(store.wal_stats().appends, wal.appends + 1);
        assert_eq!(store.wal_stats().fsyncs, wal.fsyncs + 1);
        assert_eq!(store.epochs().pin().epoch(), epoch + 1);
        // (a part c), and a `whole` fact for each of the three `part` facts.
        assert_eq!(derived.len(), 4);
        assert!(store.contains(&st("ex:c", "ex:whole", "ex:a")));

        // A repeated or an empty delta logs and publishes nothing.
        let (wal, epoch) = (store.wal_stats(), store.epochs().pin().epoch());
        assert!(store.configure(delta).unwrap().is_empty());
        assert!(store.configure(rdfs()).unwrap().is_empty());
        assert!(store
            .configure(MaterializerConfig::default())
            .unwrap()
            .is_empty());
        assert_eq!(store.wal_stats(), wal);
        assert_eq!(store.epochs().pin().epoch(), epoch);

        let expected = store.epochs().pin().to_graph();
        drop(store);
        let recovered = open(&fs);
        assert_eq!(recovered.epochs().pin().to_graph(), expected);
        assert!(recovered.config().rdfs && recovered.config().rules.len() == 1);
    }

    #[test]
    fn a_failed_ruleset_change_leaves_config_and_memory_unchanged() {
        let fs = Arc::new(SimFs::new(19));
        let mut store = open(&fs);
        store
            .insert(st("ex:cat", vocab::SUB_CLASS_OF, "ex:mammal"))
            .unwrap();
        store.insert(st("ex:tom", vocab::TYPE, "ex:cat")).unwrap();
        let before = view(&store);
        fs.set_space_limit(Some(0));
        assert!(store.configure(rdfs()).is_err());
        assert!(!store.config().rdfs);
        assert_eq!(view(&store), before);
        fs.set_space_limit(None);
        assert_eq!(store.configure(rdfs()).unwrap().len(), 1);
        assert!(store.config().rdfs);
    }

    #[test]
    fn failed_append_leaves_memory_unchanged() {
        let fs = Arc::new(SimFs::new(7));
        let mut store = open(&fs);
        store.insert(st("ex:a", "ex:p", "ex:b")).unwrap();
        fs.fail_after_ops(0);
        assert!(store.insert(st("ex:x", "ex:p", "ex:y")).is_err());
        assert_eq!(store.len(), 1, "failed append must not apply in memory");
        fs.crash();
        let recovered = open(&fs);
        assert_eq!(recovered.len(), 1);
    }
}
