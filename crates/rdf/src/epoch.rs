//! Snapshot-isolated epochs over the dictionary-encoded triple indexes.
//!
//! The write side of the store (the [`Graph`] triple sets inside the
//! materializer) stays a plain mutable structure guarded by the owner's
//! lock. What this module adds is a *read side* that never touches that
//! lock: after every mutation batch the writer publishes an immutable
//! [`EpochSnapshot`] into an [`EpochStore`], and readers pin the current
//! epoch with a single `Arc` refcount bump. A pinned epoch never
//! changes, so query execution, paging, and federation fan-out proceed
//! with **no lock held** while ingest keeps publishing new epochs.
//!
//! Epochs are built LSM-style so publishing is cheap:
//!
//! * a `FrozenIndex` base — three sorted triple vectors (SPO order
//!   plus the POS/OSP permutations), binary-searched exactly like the
//!   write side's BTree indexes;
//! * a short stack of `DeltaRun`s — the net adds/removes of recent
//!   batches, each sorted the same three ways.
//!
//! A scan merges the base range with each run's range and applies
//! newest-run-wins deletion, preserving index sort order (merge joins
//! depend on it). Publishing a batch costs `O(batch log batch)`; runs
//! are size-tier merged as they accumulate, and once the delta stack
//! outgrows a fraction of the base the writer re-freezes its stated and
//! derived graphs (one linear merge per index, no sort) into a fresh
//! base — so read amplification stays bounded without ever blocking
//! readers.
//!
//! Each epoch also carries the statement-confidence map (shared by
//! `Arc`, cloned only in batches that touch confidences), so weighted
//! conflict resolution reads the same isolated state as everything else.

use crate::dict::{IdTriple, TermDict, TermId};
use crate::graph::{classify, Graph, Index, Overlay, QueryView, Scan, TripleView};
use crate::model::{Statement, Term};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

/// How many published epochs the store keeps reachable by number (for
/// pagers that pin an epoch across several requests).
const RETAINED_EPOCHS: usize = 8;

/// Base rebuild threshold: when the run stack holds more events than
/// `max(REBUILD_MIN_EVENTS, base/4)`, the next publish re-freezes the
/// write side instead of stacking another run.
const REBUILD_MIN_EVENTS: usize = 4096;

/// The sub-slice of a sorted vector falling in `lo..=hi`.
fn range_of(sorted: &[IdTriple], lo: IdTriple, hi: IdTriple) -> &[IdTriple] {
    let start = sorted.partition_point(|&t| t < lo);
    let end = sorted.partition_point(|&t| t <= hi);
    &sorted[start..end]
}

/// Where the range starting at `lo` begins in `sorted`, searched from
/// `hint` (where an earlier probe's range began; 0 for none): a gallop
/// forward when the range lies after it, so ascending probes read memory
/// near the previous one rather than a fresh binary-search path.
fn start_near(sorted: &[IdTriple], hint: usize, lo: IdTriple) -> usize {
    let hint = hint.min(sorted.len());
    if hint == 0 || sorted[hint - 1] >= lo {
        let before = if hint == 0 { sorted } else { &sorted[..hint] };
        return before.partition_point(|&t| t < lo);
    }
    // Everything before `from` sorts below `lo`.
    let (mut from, mut step) = (hint, 1);
    while from + step <= sorted.len() && sorted[from + step - 1] < lo {
        from += step;
        step *= 2;
    }
    let to = (from + step).min(sorted.len());
    from + sorted[from..to].partition_point(|&t| t < lo)
}

/// An immutable, fully-sorted freeze of the write side's three indexes.
/// The POS/OSP vectors hold *permuted* tuples (as the write-side BTree
/// indexes do), so every scan is a binary-searched contiguous slice.
#[derive(Debug, Default)]
struct FrozenIndex {
    spo: Vec<IdTriple>,
    /// Permuted `(p, o, s)` tuples, sorted.
    pos: Vec<IdTriple>,
    /// Permuted `(o, s, p)` tuples, sorted.
    osp: Vec<IdTriple>,
}

impl FrozenIndex {
    fn select(&self, index: Index) -> &[IdTriple] {
        match index {
            Index::Spo => &self.spo,
            Index::Pos => &self.pos,
            Index::Osp => &self.osp,
        }
    }

    /// Freezes the write side's `base ⊎ derived`. Both graphs already
    /// keep each index sorted, so every array is one linear merge of two
    /// sorted sets.
    fn freeze(view: Overlay<'_>) -> FrozenIndex {
        let merged = |index| merge_disjoint(view.base.index(index), view.extra.index(index));
        FrozenIndex {
            spo: merged(Index::Spo),
            pos: merged(Index::Pos),
            osp: merged(Index::Osp),
        }
    }
}

/// Merges two sorted sets that share no element into one sorted vector.
fn merge_disjoint(a: &BTreeSet<IdTriple>, b: &BTreeSet<IdTriple>) -> Vec<IdTriple> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut b = b.iter().copied().peekable();
    for &x in a {
        while let Some(y) = b.next_if(|&y| y < x) {
            out.push(y);
        }
        debug_assert!(b.peek() != Some(&x), "base and derived share {x:?}");
        out.push(x);
    }
    out.extend(b);
    out
}

/// The net effect of one published batch: triples that became present
/// and triples that became absent, each sorted three ways so scans can
/// merge them with the base in index order.
///
/// Net-ness is an invariant: relative to the epoch state the run was
/// published against, every add was absent and every delete was present.
/// Run merging and membership checks rely on it.
#[derive(Debug, Default)]
struct DeltaRun {
    adds_spo: Vec<IdTriple>,
    /// Adds as permuted `(p, o, s)` tuples, sorted.
    adds_pos: Vec<IdTriple>,
    /// Adds as permuted `(o, s, p)` tuples, sorted.
    adds_osp: Vec<IdTriple>,
    dels_spo: Vec<IdTriple>,
}

impl DeltaRun {
    fn new(mut adds: Vec<IdTriple>, mut dels: Vec<IdTriple>) -> DeltaRun {
        adds.sort_unstable();
        dels.sort_unstable();
        let mut adds_pos: Vec<IdTriple> = adds.iter().map(|&t| Index::Pos.permute(t)).collect();
        adds_pos.sort_unstable();
        let mut adds_osp: Vec<IdTriple> = adds.iter().map(|&t| Index::Osp.permute(t)).collect();
        adds_osp.sort_unstable();
        DeltaRun {
            adds_spo: adds,
            adds_pos,
            adds_osp,
            dels_spo: dels,
        }
    }

    fn adds(&self, index: Index) -> &[IdTriple] {
        match index {
            Index::Spo => &self.adds_spo,
            Index::Pos => &self.adds_pos,
            Index::Osp => &self.adds_osp,
        }
    }

    fn events(&self) -> usize {
        self.adds_spo.len() + self.dels_spo.len()
    }

    /// `Some(true)` if the run adds the triple, `Some(false)` if it
    /// deletes it, `None` if it says nothing about it.
    fn mentions(&self, triple: IdTriple) -> Option<bool> {
        if self.adds_spo.binary_search(&triple).is_ok() {
            Some(true)
        } else if self.dels_spo.binary_search(&triple).is_ok() {
            Some(false)
        } else {
            None
        }
    }
}

/// Composes two consecutive net runs (`older` then `newer`) into one
/// net run relative to the state before `older`. Pairs that cancel
/// (add→delete, delete→re-add) drop out entirely.
fn merge_runs(older: &DeltaRun, newer: &DeltaRun) -> DeltaRun {
    let mut events: BTreeMap<IdTriple, bool> = BTreeMap::new();
    for &t in &older.adds_spo {
        events.insert(t, true);
    }
    for &t in &older.dels_spo {
        events.insert(t, false);
    }
    for &t in &newer.adds_spo {
        if events.get(&t) == Some(&false) {
            events.remove(&t); // deleted then re-added: net no-op
        } else {
            events.insert(t, true);
        }
    }
    for &t in &newer.dels_spo {
        if events.get(&t) == Some(&true) {
            events.remove(&t); // added then deleted: net no-op
        } else {
            events.insert(t, false);
        }
    }
    let adds = events
        .iter()
        .filter_map(|(&t, &add)| add.then_some(t))
        .collect();
    let dels = events
        .iter()
        .filter_map(|(&t, &add)| (!add).then_some(t))
        .collect();
    DeltaRun::new(adds, dels)
}

/// One immutable published epoch: a frozen base, a short stack of net
/// delta runs, the shared term dictionary, and the confidence map as of
/// publish time. Cloning the `Arc` that wraps it *is* the snapshot
/// operation — O(1), no data copied, nothing locked afterwards.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    dict: TermDict,
    base: Arc<FrozenIndex>,
    /// Oldest first; membership is decided newest-run-first.
    runs: Vec<Arc<DeltaRun>>,
    len: usize,
    confidence: Arc<HashMap<IdTriple, f64>>,
}

impl EpochSnapshot {
    /// The epoch number (monotonically increasing per store).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The dictionary the epoch's ids are relative to. Shared with the
    /// writer, so resolving ids never blocks ingest (the dictionary is
    /// append-only and lock-free on the resolve side).
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Number of triples visible in this epoch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the epoch holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Delta runs stacked on the frozen base: every scan merges this many
    /// sorted slices besides the base's.
    pub fn delta_runs(&self) -> usize {
        self.runs.len()
    }

    /// The statement-confidence map as of this epoch (triples absent
    /// from the map have the default confidence 1.0).
    pub fn confidence(&self) -> &Arc<HashMap<IdTriple, f64>> {
        &self.confidence
    }

    /// Confidence of a triple visible in this epoch; `None` if the
    /// triple itself is absent.
    pub fn confidence_of(&self, triple: IdTriple) -> Option<f64> {
        if !self.contains_id(triple) {
            return None;
        }
        Some(self.confidence.get(&triple).copied().unwrap_or(1.0))
    }

    /// Whether the epoch contains the encoded triple.
    pub fn contains_id(&self, triple: IdTriple) -> bool {
        for run in self.runs.iter().rev() {
            if let Some(added) = run.mentions(triple) {
                return added;
            }
        }
        self.base.spo.binary_search(&triple).is_ok()
    }

    /// Whether the epoch contains the statement.
    pub fn contains(&self, st: &Statement) -> bool {
        match self.dict.lookup_statement(st) {
            Some(triple) => self.contains_id(triple),
            None => false,
        }
    }

    /// All triples in SPO order.
    pub fn iter_ids(&self) -> Vec<IdTriple> {
        QueryView::match_ids(self, None, None, None)
    }

    /// Materializes the epoch into a standalone mutable [`Graph`]
    /// sharing the dictionary. O(n) — only for callers that genuinely
    /// need a mutable copy; queries should run against the epoch itself.
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::with_dict(self.dict.clone());
        for triple in self.iter_ids() {
            g.insert_id(triple);
        }
        g
    }

    /// Whether a triple coming out of the merged scan is visible: the
    /// newest run mentioning it wins; silence means it came from the
    /// base (or an add run) and stands.
    fn live(&self, triple: IdTriple) -> bool {
        for run in self.runs.iter().rev() {
            if let Some(added) = run.mentions(triple) {
                return added;
            }
        }
        true
    }

    /// Merges the base slice with each run's add slice in permuted sort
    /// order, deduplicates, drops deleted triples, and maps tuples back
    /// to `(s, p, o)`.
    fn merged_scan(&self, index: Index, lo: IdTriple, hi: IdTriple) -> Vec<IdTriple> {
        let mut sources: Vec<&[IdTriple]> = Vec::with_capacity(1 + self.runs.len());
        sources.push(range_of(self.base.select(index), lo, hi));
        for run in &self.runs {
            sources.push(range_of(run.adds(index), lo, hi));
        }
        sources.retain(|s| !s.is_empty());

        let mut out = Vec::new();
        if sources.is_empty() {
            return out;
        }

        let mut cursors = vec![0usize; sources.len()];
        loop {
            // Smallest head across sources (permuted order).
            let mut best: Option<IdTriple> = None;
            for (i, src) in sources.iter().enumerate() {
                if let Some(&head) = src.get(cursors[i]) {
                    best = Some(match best {
                        Some(b) if b <= head => b,
                        _ => head,
                    });
                }
            }
            let Some(next) = best else { break };
            // Consume every occurrence (the same triple can sit in the
            // base and in a later re-add run).
            for (i, src) in sources.iter().enumerate() {
                while src.get(cursors[i]) == Some(&next) {
                    cursors[i] += 1;
                }
            }
            let original = index.unpermute(next);
            if self.live(original) {
                out.push(original);
            }
        }
        out
    }
}

impl TripleView for EpochSnapshot {
    fn find(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> Vec<Statement> {
        let encode = |slot: Option<&Term>| match slot {
            Some(term) => self.dict.lookup(term).map(Some),
            None => Some(None),
        };
        let (Some(s), Some(p), Some(o)) = (encode(subject), encode(predicate), encode(object))
        else {
            // A bound term that was never interned cannot match anything.
            return Vec::new();
        };
        self.dict.resolve_all(&QueryView::match_ids(self, s, p, o))
    }

    fn has(&self, st: &Statement) -> bool {
        self.contains(st)
    }

    fn find_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple> {
        QueryView::match_ids(self, subject, predicate, object)
    }

    fn has_id(&self, triple: IdTriple) -> bool {
        self.contains_id(triple)
    }
}

impl QueryView for EpochSnapshot {
    fn dict(&self) -> &TermDict {
        &self.dict
    }

    fn match_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple> {
        self.match_ids_near(subject, predicate, object, &mut 0)
    }

    fn match_ids_near(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
        finger: &mut usize,
    ) -> Vec<IdTriple> {
        match classify(subject, predicate, object) {
            Scan::Probe(triple) => {
                if self.contains_id(triple) {
                    vec![triple]
                } else {
                    Vec::new()
                }
            }
            // No runs: the base slice is the answer, nothing to merge.
            Scan::Range(index, lo, hi) if self.runs.is_empty() => {
                let sorted = self.base.select(index);
                *finger = start_near(sorted, *finger, lo);
                sorted[*finger..]
                    .iter()
                    .take_while(|&&t| t <= hi)
                    .map(|&t| index.unpermute(t))
                    .collect()
            }
            Scan::Range(index, lo, hi) => self.merged_scan(index, lo, hi),
        }
    }

    fn count_ids_capped(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
        cap: usize,
    ) -> usize {
        match classify(subject, predicate, object) {
            Scan::Probe(triple) => usize::from(self.contains_id(triple)),
            Scan::Range(index, lo, hi) => {
                // Upper bound: base range plus every run's add range,
                // ignoring deletions. Never zero when matches exist, and
                // the planner only ranks candidates with it.
                let mut est = range_of(self.base.select(index), lo, hi).len();
                for run in &self.runs {
                    if est >= cap {
                        break;
                    }
                    est += range_of(run.adds(index), lo, hi).len();
                }
                est.min(cap)
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The net mutation record one publish consumes: the latest surviving
/// event per triple (`true` = present, `false` = absent) since the last
/// publish, plus a flag forcing a full base rebuild (set when the write
/// side was wholesale replaced, e.g. by `reset` or recovery).
#[derive(Debug, Clone, Default)]
pub struct EpochDelta {
    pub(crate) changes: HashMap<IdTriple, bool>,
    pub(crate) rebuilt: bool,
}

impl EpochDelta {
    /// A delta demanding a full base rebuild (wholesale replacement of
    /// the write side — `reset`, recovery).
    pub(crate) fn rebuild() -> EpochDelta {
        EpochDelta {
            changes: HashMap::new(),
            rebuilt: true,
        }
    }

    /// Records that `triple` ended up present (`added = true`) or absent.
    /// Later records for the same triple overwrite earlier ones, so the
    /// map always holds the *final* state change.
    pub(crate) fn record(&mut self, triple: IdTriple, added: bool) {
        self.changes.insert(triple, added);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.changes.is_empty() && !self.rebuilt
    }
}

/// The published-epoch registry: the atomically swapped current epoch
/// plus a short ring of recent epochs reachable by number.
///
/// `pin()` holds the lock only long enough to clone one `Arc`; all
/// subsequent reads on the snapshot are lock-free. Writers publish
/// through `publish`, which swaps the current `Arc` — readers already
/// holding an older epoch are unaffected.
#[derive(Debug)]
pub struct EpochStore {
    current: RwLock<Arc<EpochSnapshot>>,
    retained: Mutex<VecDeque<Arc<EpochSnapshot>>>,
}

impl EpochStore {
    /// Creates a store whose epoch 0 freezes `view` — the write side's
    /// stated and derived graphs, disjoint and over one dictionary.
    pub(crate) fn new(view: Overlay<'_>, confidence: Arc<HashMap<IdTriple, f64>>) -> EpochStore {
        let base = FrozenIndex::freeze(view);
        let snapshot = Arc::new(EpochSnapshot {
            epoch: 0,
            dict: view.base.dict().clone(),
            len: base.spo.len(),
            base: Arc::new(base),
            runs: Vec::new(),
            confidence,
        });
        EpochStore {
            current: RwLock::new(snapshot.clone()),
            retained: Mutex::new(VecDeque::from([snapshot])),
        }
    }

    /// Pins the current epoch: one `Arc` clone under a momentary read
    /// lock. O(1) regardless of graph size.
    pub fn pin(&self) -> Arc<EpochSnapshot> {
        self.current.read().expect("epoch lock").clone()
    }

    /// Pins a specific retained epoch, if it is still in the ring.
    pub fn at(&self, epoch: u64) -> Option<Arc<EpochSnapshot>> {
        self.retained
            .lock()
            .expect("epoch ring lock")
            .iter()
            .find(|snap| snap.epoch == epoch)
            .cloned()
    }

    /// Publishes the write side's net delta as the next epoch. `view`
    /// is the writer's stated and derived graphs (disjoint, one
    /// dictionary) as of the delta, consulted for base rebuilds. No-op
    /// deltas (empty and no confidence change) publish nothing, so idle
    /// readers keep hitting the same epoch.
    pub(crate) fn publish(
        &self,
        view: Overlay<'_>,
        delta: EpochDelta,
        confidence: Arc<HashMap<IdTriple, f64>>,
    ) {
        let prev = self.pin();
        if delta.is_empty() && Arc::ptr_eq(&prev.confidence, &confidence) {
            return;
        }

        let pending: usize =
            prev.runs.iter().map(|r| r.events()).sum::<usize>() + delta.changes.len();
        let rebuild = delta.rebuilt || pending > REBUILD_MIN_EVENTS.max(prev.base.spo.len() / 4);

        let (base, runs, len) = if rebuild {
            let base = FrozenIndex::freeze(view);
            let len = base.spo.len();
            (Arc::new(base), Vec::new(), len)
        } else {
            // Net the delta against the previous epoch so the run
            // invariant holds (adds were absent, deletes were present)
            // even if the write side flapped a triple mid-batch.
            let mut adds = Vec::new();
            let mut dels = Vec::new();
            for (&triple, &added) in &delta.changes {
                if added != prev.contains_id(triple) {
                    if added {
                        adds.push(triple);
                    } else {
                        dels.push(triple);
                    }
                }
            }
            let new_len = prev.len + adds.len() - dels.len();
            let mut runs = prev.runs.clone();
            if !(adds.is_empty() && dels.is_empty()) {
                runs.push(Arc::new(DeltaRun::new(adds, dels)));
                // Size-tiered merging: fold the newest run into its
                // neighbor while the neighbor is not decisively bigger,
                // keeping the stack logarithmic in total events.
                while runs.len() >= 2 {
                    let n = runs.len();
                    if runs[n - 2].events() > 2 * runs[n - 1].events() {
                        break;
                    }
                    let newer = runs.pop().expect("run");
                    let older = runs.pop().expect("run");
                    runs.push(Arc::new(merge_runs(&older, &newer)));
                }
            }
            (prev.base.clone(), runs, new_len)
        };

        let next = Arc::new(EpochSnapshot {
            epoch: prev.epoch + 1,
            dict: view.base.dict().clone(),
            base,
            runs,
            len,
            confidence,
        });

        let mut ring = self.retained.lock().expect("epoch ring lock");
        *self.current.write().expect("epoch lock") = next.clone();
        ring.push_back(next);
        while ring.len() > RETAINED_EPOCHS {
            ring.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple(graph: &mut Graph, s: &str, p: &str, o: &str) -> IdTriple {
        graph
            .dict()
            .intern_statement(&Statement::new(Term::iri(s), Term::iri(p), Term::iri(o)))
    }

    /// An empty derived graph over `base`'s dictionary.
    fn no_derived(base: &Graph) -> Graph {
        Graph::with_dict(base.dict().clone())
    }

    fn store_over(graph: &Graph) -> EpochStore {
        EpochStore::new(
            Overlay::new(graph, &no_derived(graph)),
            Arc::new(HashMap::new()),
        )
    }

    fn publish_changes(store: &EpochStore, graph: &Graph, changes: &[(IdTriple, bool)]) {
        let mut delta = EpochDelta::default();
        for &(t, added) in changes {
            delta.record(t, added);
        }
        let confidence = store.pin().confidence.clone();
        store.publish(Overlay::new(graph, &no_derived(graph)), delta, confidence);
    }

    #[test]
    fn freeze_equals_collect_permute_sort() {
        use cogsdk_sim::rng::Rng;
        let mut rng = Rng::new(0xF4EE);
        // (base share of the triples, how many): empty derived, empty
        // base, and ids interleaved between the two at several sizes.
        for (round, &(base_share, n)) in [(1.0, 60), (0.0, 60), (0.5, 1), (0.5, 200), (0.9, 200)]
            .iter()
            .enumerate()
        {
            let base = &mut Graph::new();
            let derived = &mut no_derived(base);
            for _ in 0..n {
                let t = triple(
                    base,
                    &format!("ex:s{}", rng.below(15)),
                    &format!("ex:p{}", rng.below(5)),
                    &format!("ex:o{}", rng.below(15)),
                );
                if !base.contains_id(t) && !derived.contains_id(t) {
                    let side = if rng.chance(base_share) {
                        &mut *base
                    } else {
                        &mut *derived
                    };
                    side.insert_id(t);
                }
            }
            // The reference: the sort-based freeze this merge replaced.
            let mut spo: Vec<IdTriple> = base.iter_ids().chain(derived.iter_ids()).collect();
            spo.sort_unstable();
            let mut pos: Vec<IdTriple> = spo.iter().map(|&t| Index::Pos.permute(t)).collect();
            pos.sort_unstable();
            let mut osp: Vec<IdTriple> = spo.iter().map(|&t| Index::Osp.permute(t)).collect();
            osp.sort_unstable();

            let frozen = FrozenIndex::freeze(Overlay::new(base, derived));
            assert_eq!(
                frozen.spo.len(),
                base.len() + derived.len(),
                "round {round}"
            );
            assert_eq!(frozen.spo, spo, "round {round}: spo");
            assert_eq!(frozen.pos, pos, "round {round}: pos");
            assert_eq!(frozen.osp, osp, "round {round}: osp");
        }
    }

    #[test]
    fn start_near_agrees_with_a_binary_search_from_any_hint() {
        use cogsdk_sim::rng::Rng;
        let mut rng = Rng::new(0x5EA4);
        let mut id = |n: u64| TermId::from_raw(rng.below(n) as u32);
        let mut sorted: Vec<IdTriple> = (0..300).map(|_| (id(40), id(4), id(3))).collect();
        sorted.sort_unstable();
        // Keys equal to elements (so to the one just before a hint), and
        // keys between or beyond them; every hint, past the end included.
        let keys: Vec<IdTriple> = sorted
            .iter()
            .copied()
            .chain((0..100).map(|_| (id(42), id(5), id(4))))
            .collect();
        for lo in keys {
            for hint in 0..sorted.len() + 3 {
                assert_eq!(
                    start_near(&sorted, hint, lo),
                    sorted.partition_point(|&t| t < lo),
                    "hint {hint}, key {lo:?}"
                );
            }
        }
        assert_eq!(
            start_near(&[], 3, (TermId::MIN, TermId::MIN, TermId::MIN)),
            0
        );
    }

    #[test]
    fn pinned_epoch_is_isolated_from_later_publishes() {
        let mut g = Graph::new();
        let t1 = triple(&mut g, "ex:a", "ex:p", "ex:x");
        g.insert_id(t1);
        let store = store_over(&g);
        let pinned = store.pin();
        assert_eq!(pinned.epoch(), 0);
        assert!(pinned.contains_id(t1));

        let t2 = triple(&mut g, "ex:b", "ex:p", "ex:y");
        g.insert_id(t2);
        publish_changes(&store, &g, &[(t2, true)]);

        // The old pin still sees exactly its epoch.
        assert!(!pinned.contains_id(t2));
        assert_eq!(pinned.len(), 1);
        let fresh = store.pin();
        assert_eq!(fresh.epoch(), 1);
        assert!(fresh.contains_id(t1) && fresh.contains_id(t2));
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn deletions_in_newer_runs_mask_base_triples() {
        let mut g = Graph::new();
        let t1 = triple(&mut g, "ex:a", "ex:p", "ex:x");
        let t2 = triple(&mut g, "ex:a", "ex:p", "ex:y");
        g.insert_id(t1);
        g.insert_id(t2);
        let store = store_over(&g);

        g.remove_id(t1);
        publish_changes(&store, &g, &[(t1, false)]);

        let snap = store.pin();
        assert!(!snap.contains_id(t1));
        assert!(snap.contains_id(t2));
        assert_eq!(snap.len(), 1);
        let scan = QueryView::match_ids(&*snap, Some(t1.0), Some(t1.1), None);
        assert_eq!(scan, vec![t2]);
    }

    #[test]
    fn re_add_after_delete_is_visible_again() {
        let mut g = Graph::new();
        let t = triple(&mut g, "ex:a", "ex:p", "ex:x");
        g.insert_id(t);
        let store = store_over(&g);

        g.remove_id(t);
        publish_changes(&store, &g, &[(t, false)]);
        assert!(!store.pin().contains_id(t));

        g.insert_id(t);
        publish_changes(&store, &g, &[(t, true)]);
        let snap = store.pin();
        assert!(snap.contains_id(t));
        assert_eq!(snap.len(), 1);
        assert_eq!(QueryView::match_ids(&*snap, None, None, None), vec![t]);
    }

    #[test]
    fn scans_agree_with_a_graph_across_many_random_publishes() {
        use cogsdk_sim::rng::Rng;
        let mut rng = Rng::new(0xE90C);
        let mut base = Graph::new();
        let mut derived = no_derived(&base);
        let store = store_over(&base);
        // Random insert/remove batches over a disjoint base/derived pair,
        // each published (rounds 9, 19 and 29 as forced re-freezes);
        // after every publish the pinned epoch must agree with a graph
        // holding their union on every pattern shape.
        for round in 0..30 {
            let mut delta = if round % 10 == 9 {
                EpochDelta::rebuild()
            } else {
                EpochDelta::default()
            };
            for _ in 0..(1 + rng.below(40)) {
                let t = triple(
                    &mut base,
                    &format!("ex:s{}", rng.below(12)),
                    &format!("ex:p{}", rng.below(4)),
                    &format!("ex:o{}", rng.below(8)),
                );
                if rng.chance(0.7) {
                    if !base.contains_id(t) && !derived.contains_id(t) {
                        let side = if rng.chance(0.5) {
                            &mut base
                        } else {
                            &mut derived
                        };
                        side.insert_id(t);
                        delta.record(t, true);
                    }
                } else if base.remove_id(t) || derived.remove_id(t) {
                    delta.record(t, false);
                }
            }
            let view = Overlay::new(&base, &derived);
            store.publish(view, delta, store.pin().confidence.clone());
            let snap = store.pin();
            let g = view.to_graph();
            assert_eq!(snap.len(), g.len(), "round {round}: len");

            let s = g.dict().lookup(&Term::iri("ex:s3"));
            let p = g.dict().lookup(&Term::iri("ex:p1"));
            let o = g.dict().lookup(&Term::iri("ex:o2"));
            for pattern in [
                (None, None, None),
                (s, None, None),
                (None, p, None),
                (None, None, o),
                (s, p, None),
                (s, None, o),
                (None, p, o),
                (s, p, o),
            ] {
                let got = QueryView::match_ids(&*snap, pattern.0, pattern.1, pattern.2);
                let want = g.match_ids(pattern.0, pattern.1, pattern.2);
                assert_eq!(got, want, "round {round}: pattern {pattern:?}");
                let est =
                    QueryView::count_ids_capped(&*snap, pattern.0, pattern.1, pattern.2, 4096);
                assert!(est >= want.len().min(4096), "estimate must upper-bound");
            }
        }
    }

    #[test]
    fn rebuild_flag_refreezes_the_base() {
        let mut g = Graph::new();
        let t1 = triple(&mut g, "ex:a", "ex:p", "ex:x");
        g.insert_id(t1);
        let store = store_over(&g);
        let delta = EpochDelta::rebuild();
        let mut replacement = no_derived(&g);
        let t2 = triple(&mut replacement, "ex:b", "ex:p", "ex:y");
        replacement.insert_id(t2);
        let mut inferred = no_derived(&g);
        let t3 = triple(&mut inferred, "ex:a", "ex:q", "ex:y");
        inferred.insert_id(t3);
        let view = Overlay::new(&replacement, &inferred);
        store.publish(view, delta, Arc::new(HashMap::new()));
        let snap = store.pin();
        assert!(snap.runs.is_empty(), "rebuild clears the run stack");
        assert_eq!(
            snap.iter_ids(),
            vec![t3, t2],
            "stated and derived, in SPO order"
        );
        assert!(!snap.contains_id(t1));
    }

    #[test]
    fn retained_ring_serves_recent_epochs_only() {
        let mut g = Graph::new();
        let store = store_over(&g);
        for i in 0..(RETAINED_EPOCHS + 3) {
            let t = triple(&mut g, &format!("ex:s{i}"), "ex:p", "ex:o");
            g.insert_id(t);
            publish_changes(&store, &g, &[(t, true)]);
        }
        let newest = store.pin().epoch();
        assert_eq!(newest, (RETAINED_EPOCHS + 3) as u64);
        assert!(store.at(newest).is_some());
        assert!(store.at(newest - (RETAINED_EPOCHS as u64 - 1)).is_some());
        assert!(store.at(0).is_none(), "old epochs age out of the ring");
        // Epoch numbers line up with their snapshots.
        assert_eq!(store.at(newest).unwrap().epoch(), newest);
    }

    #[test]
    fn noop_publish_keeps_the_epoch() {
        let mut g = Graph::new();
        let t = triple(&mut g, "ex:a", "ex:p", "ex:x");
        g.insert_id(t);
        let store = store_over(&g);
        publish_changes(&store, &g, &[]);
        assert_eq!(store.pin().epoch(), 0, "no-op publishes nothing");
    }

    #[test]
    fn confidence_travels_with_the_epoch() {
        let mut g = Graph::new();
        let t = triple(&mut g, "ex:a", "ex:p", "ex:x");
        g.insert_id(t);
        let store = store_over(&g);
        let pinned_before = store.pin();

        let mut conf = HashMap::new();
        conf.insert(t, 0.4);
        let mut delta = EpochDelta::default();
        delta.record(t, true); // no-op membership-wise, but confidence changed
        store.publish(Overlay::new(&g, &no_derived(&g)), delta, Arc::new(conf));

        assert_eq!(store.pin().confidence_of(t), Some(0.4));
        assert_eq!(
            pinned_before.confidence_of(t),
            Some(1.0),
            "old pin unaffected"
        );
        let absent = triple(&mut g, "ex:ghost", "ex:p", "ex:x");
        assert_eq!(store.pin().confidence_of(absent), None);
    }
}
