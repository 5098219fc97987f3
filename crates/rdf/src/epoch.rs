//! The triple store: snapshot-isolated epochs of sorted runs.
//!
//! Every triple the store holds lives here, once. An [`EpochSnapshot`] is
//! a frozen base — the triples sorted in SPO order and in the POS/OSP
//! permutations — under a short stack of delta runs, the net changes of
//! recent batches, sorted the same three ways. A scan merges the base
//! range with each run's range, newest run wins, in index sort order
//! (merge joins depend on it).
//!
//! The writer (the materializer, under its owner's lock) reads the latest
//! epoch plus the changes of the call in progress, and every mutating
//! call seals those changes into the next epoch: one more run, costing
//! `O(batch log batch)`. Runs are size-tier merged, two neighbours at a
//! time, and once they hold more than a fraction of the base the seal
//! merges everything into a fresh base; either is one linear merge per
//! index, no sort. Readers pin a published epoch from an [`EpochStore`]
//! with one `Arc` refcount bump; it never changes, so queries, paging
//! and federation run with **no lock held** while ingest keeps
//! publishing.
//!
//! "Derived" is a tag: one sorted SPO list in the base and in each run,
//! decided like membership (newest run wins). A stated triple is stored
//! three times, a derived one four; the query path never reads the tag.
//! A triple's level (§5's accuracy level) is run data too: a sorted column
//! per run of its present triples below 1.0, decided by the same newest
//! run, so a delete or a retag drops it. A stated triple's level was
//! asserted; a derived one's was drawn by a standing weighted rule.

use crate::dict::{IdTriple, TermDict, TermId};
use crate::graph::{classify, Graph, Index, QueryView, Scan, TripleView};
use crate::model::Statement;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};

/// How many published epochs the store keeps reachable by number (for
/// pagers that pin an epoch across several requests).
const RETAINED_EPOCHS: usize = 8;

/// Base rebuild threshold: when the run stack holds more events than
/// `max(REBUILD_MIN_EVENTS, base/4)`, the next seal merges the runs into
/// a fresh base instead of stacking another run.
const REBUILD_MIN_EVENTS: usize = 4096;

/// How a present triple came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fact {
    /// Asserted by a caller (logged, snapshotted).
    Stated,
    /// Entailed by the standing rules (re-derived on recovery).
    Derived,
}

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

/// Walks sorted slices of distinct tuples in one ascending pass, calling
/// `visit` once per distinct tuple with the key of the newest (last)
/// slice holding it. A stretch that only one slice holds is passed on
/// without comparing each tuple against every other slice.
fn merge_newest<K: Copy>(mut sources: Vec<(&[IdTriple], K)>, mut visit: impl FnMut(IdTriple, K)) {
    sources.retain(|(slice, _)| !slice.is_empty());
    while !sources.is_empty() {
        // The smallest head, and the smallest head of the other slices.
        let (mut first, mut bound) = (0, None);
        for (i, &(slice, _)) in sources.iter().enumerate().skip(1) {
            if slice[0] < sources[first].0[0] {
                bound = Some(sources[first].0[0]);
                first = i;
            } else if bound.is_none_or(|b| slice[0] < b) {
                bound = Some(slice[0]);
            }
        }
        let (slice, key) = sources[first];
        if bound == Some(slice[0]) {
            let mut newest = key;
            for (held, key) in sources.iter_mut().filter(|(s, _)| s[0] == slice[0]) {
                *held = &held[1..];
                newest = *key;
            }
            visit(slice[0], newest);
        } else {
            let end = bound.map_or(slice.len(), |b| slice.partition_point(|&t| t < b));
            for &t in &slice[..end] {
                visit(t, key);
            }
            sources[first].0 = &slice[end..];
        }
        sources.retain(|(slice, _)| !slice.is_empty());
    }
}

/// The slices whose newest holder decides each triple's state under
/// `runs` (oldest first): every run's triples, derived tags and deletes.
fn state_sources<'a>(runs: impl Iterator<Item = &'a Run>) -> Vec<(&'a [IdTriple], Option<Fact>)> {
    let slices = |run: &'a Run| {
        let (stated, derived) = (Some(Fact::Stated), Some(Fact::Derived));
        [
            (&run.spo[..], stated),
            (&run.derived[..], derived),
            (&run.dels[..], None),
        ]
    };
    runs.flat_map(slices).collect()
}

/// Sorted triples in the three index orders, the derived ones among
/// them, the levels of those below 1.0, and the triples the run deletes.
/// A delta run is the net effect of one sealed batch; the base is a run
/// that deletes nothing. The POS/OSP vectors hold *permuted* tuples, so
/// every scan is a binary-searched contiguous slice.
///
/// Net-ness is an invariant of delta runs: relative to the epoch state a
/// run was sealed against, every delete was present and every other
/// triple absent, present with the other tag, or present at another
/// level. Run merging and membership checks rely on it.
#[derive(Debug)]
struct Run {
    /// Present triples, in `(s, p, o)` order.
    spo: Vec<IdTriple>,
    /// The same as permuted `(p, o, s)` tuples, sorted.
    pos: Vec<IdTriple>,
    /// The same as permuted `(o, s, p)` tuples, sorted.
    osp: Vec<IdTriple>,
    /// The derived subset of `spo`.
    derived: Vec<IdTriple>,
    /// The triples of `spo` below level 1.0, with it, sorted.
    conf: Vec<(IdTriple, f64)>,
    /// Deleted triples, sorted.
    dels: Vec<IdTriple>,
}

impl Run {
    /// A run from sorted triples: POS and OSP are sorted once.
    fn sorted(spo: Vec<IdTriple>, derived: Vec<IdTriple>, dels: Vec<IdTriple>) -> Run {
        debug_assert!(spo.is_sorted() && derived.is_sorted() && dels.is_sorted());
        let permuted = |index: Index| {
            let mut out: Vec<IdTriple> = spo.iter().map(|&t| index.permute(t)).collect();
            out.sort_unstable();
            out
        };
        Run {
            pos: permuted(Index::Pos),
            osp: permuted(Index::Osp),
            spo,
            derived,
            conf: Vec::new(),
            dels,
        }
    }

    /// A run from each touched triple's new state (`None`: deleted), in
    /// ascending SPO order, with the confidences `weights` gives.
    fn new(
        changes: impl IntoIterator<Item = (IdTriple, Option<Fact>)>,
        weights: &BTreeMap<IdTriple, f64>,
    ) -> Run {
        let changes = changes.into_iter();
        // Sized once: a large batch grown by doubling leaves heap holes.
        let mut spo = Vec::with_capacity(changes.size_hint().1.unwrap_or(0));
        let (mut derived, mut dels) = (Vec::new(), Vec::new());
        for (triple, state) in changes {
            match state {
                Some(fact) => {
                    spo.push(triple);
                    if fact == Fact::Derived {
                        derived.push(triple);
                    }
                }
                None => dels.push(triple),
            }
        }
        let conf = weights.iter().filter(|&(_, &c)| c < 1.0);
        let conf = conf.map(|(&t, &c)| (t, c)).collect();
        Run {
            conf,
            ..Run::sorted(spo, derived, dels)
        }
    }

    fn select(&self, index: Index) -> &[IdTriple] {
        match index {
            Index::Spo => &self.spo,
            Index::Pos => &self.pos,
            Index::Osp => &self.osp,
        }
    }

    fn events(&self) -> usize {
        self.spo.len() + self.dels.len()
    }

    /// `Some(true)` if the run holds the triple, `Some(false)` if it
    /// deletes it, `None` if it says nothing about it.
    fn mentions(&self, triple: IdTriple) -> Option<bool> {
        if self.spo.binary_search(&triple).is_ok() {
            Some(true)
        } else if self.dels.binary_search(&triple).is_ok() {
            Some(false)
        } else {
            None
        }
    }

    /// The tag of a triple the run holds.
    fn tag(&self, triple: IdTriple) -> Fact {
        if self.derived.binary_search(&triple).is_ok() {
            Fact::Derived
        } else {
            Fact::Stated
        }
    }

    /// The confidence of a triple the run holds: in a run with no weighted
    /// triples, the search compares nothing.
    fn confidence(&self, triple: IdTriple) -> f64 {
        let at = self.conf.binary_search_by_key(&triple, |&(t, _)| t);
        at.map_or(1.0, |i| self.conf[i].1)
    }

    /// The base `runs` (oldest first) leave on top of `self`: the SPO
    /// merge decides each triple by the newest slice holding it, and
    /// POS/OSP merge their slices minus the triples it found deleted.
    fn merged(&self, runs: &[Arc<Run>]) -> Run {
        let all = || std::iter::once(self).chain(runs.iter().map(|r| &**r));
        let sources = state_sources(all());
        let most = self.spo.len() + runs.iter().map(|run| run.spo.len()).sum::<usize>();
        let mut spo = Vec::with_capacity(most);
        let (mut derived, mut dead) = (Vec::new(), Vec::new());
        merge_newest(sources, |t, state| match state {
            Some(Fact::Stated) => spo.push(t),
            Some(Fact::Derived) => {
                spo.push(t);
                derived.push(t);
            }
            None => dead.push(t),
        });
        let permutation = |index| permuted_union(all(), index, &dead, spo.len());
        let (pos, osp) = (permutation(Index::Pos), permutation(Index::Osp));
        Run {
            spo,
            pos,
            osp,
            derived,
            conf: conf_under(self, runs),
            dels: Vec::new(),
        }
    }
}

/// The run deciding `triple` under `base` and `runs` (oldest first) —
/// the newest one mentioning it — if that run holds it.
fn holder<'a>(base: &'a Run, runs: &'a [Arc<Run>], triple: IdTriple) -> Option<&'a Run> {
    let newest_first = runs.iter().rev().map(|r| &**r).chain([base]);
    let (holds, run) = newest_first
        .filter_map(|run| Some((run.mentions(triple)?, run)))
        .next()?;
    holds.then_some(run)
}

/// The confidence column `runs` (oldest first) leave on top of `base`:
/// each run's entries for the triples no newer run mentions, in SPO order.
fn conf_under(base: &Run, runs: &[Arc<Run>]) -> Vec<(IdTriple, f64)> {
    let mut conf = Vec::new();
    for (at, run) in std::iter::once(base)
        .chain(runs.iter().map(|r| &**r))
        .enumerate()
    {
        let newer = &runs[at..];
        let decided = |&&(t, _): &&(IdTriple, f64)| newer.iter().all(|r| r.mentions(t).is_none());
        conf.extend(run.conf.iter().filter(decided));
    }
    conf.sort_unstable_by_key(|&(t, _)| t);
    conf
}

/// The union of `runs`' `index` permutations, in sort order, minus the
/// triples in `gone` (sorted, SPO order).
fn permuted_union<'a>(
    runs: impl Iterator<Item = &'a Run>,
    index: Index,
    gone: &[IdTriple],
    capacity: usize,
) -> Vec<IdTriple> {
    let mut out = Vec::with_capacity(capacity);
    merge_newest(
        runs.map(|run| (run.select(index), ())).collect(),
        |t, ()| {
            if gone.is_empty() || gone.binary_search(&index.unpermute(t)).is_err() {
                out.push(t);
            }
        },
    );
    out
}

/// Moves `sorted` past every triple below `t`; whether `t` heads it then.
fn advance_to(sorted: &mut &[IdTriple], t: IdTriple) -> bool {
    while sorted.first().is_some_and(|&held| held < t) {
        *sorted = &sorted[1..];
    }
    sorted.first() == Some(&t)
}

/// Composes two consecutive net runs (`older` then `newer`) into one net
/// run relative to `beneath`, the state (with confidence) before `older`,
/// in one linear merge per index. A triple both mention takes `newer`'s
/// state, and drops out when that is its state beneath (add→delete,
/// delete→re-add); only those triples probe `beneath`. POS/OSP merge
/// minus the triples that end up deleted or dropped.
fn merge_runs(older: &Run, newer: &Run, beneath: impl Fn(IdTriple) -> Option<(Fact, f64)>) -> Run {
    let mut sources = Vec::with_capacity(6);
    for (run, from_newer) in [(older, false), (newer, true)] {
        let slices = state_sources(std::iter::once(run)).into_iter();
        sources.extend(slices.map(|(slice, state)| (slice, (from_newer, state))));
    }
    let mut spo = Vec::with_capacity(older.spo.len() + newer.spo.len());
    let (mut derived, mut conf, mut dels, mut gone) = (vec![], vec![], vec![], vec![]);
    // What of `older` lies at or past the triple being visited.
    let (mut held, mut deleted) = (&older.spo[..], &older.dels[..]);
    merge_newest(sources, |t, (from_newer, state)| {
        let both = from_newer && (advance_to(&mut held, t) || advance_to(&mut deleted, t));
        let run = if from_newer { newer } else { older };
        match state.map(|fact| (fact, run.confidence(t))) {
            now if both && beneath(t) == now => gone.push(t),
            Some((fact, confidence)) => {
                spo.push(t);
                if fact == Fact::Derived {
                    derived.push(t);
                }
                if confidence < 1.0 {
                    conf.push((t, confidence));
                }
            }
            None => {
                dels.push(t);
                gone.push(t);
            }
        }
    });
    let permutation = |index| permuted_union([older, newer].into_iter(), index, &gone, spo.len());
    let (pos, osp) = (permutation(Index::Pos), permutation(Index::Osp));
    Run {
        spo,
        pos,
        osp,
        derived,
        conf,
        dels,
    }
}

/// One immutable published epoch: a frozen base, a short stack of net
/// delta runs (membership, tags, confidences) and the shared term
/// dictionary. Cloning the `Arc` that wraps it *is* the snapshot
/// operation — O(1), no data copied, nothing locked afterwards.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    dict: TermDict,
    base: Arc<Run>,
    /// Oldest first; membership is decided newest-run-first.
    runs: Vec<Arc<Run>>,
    len: usize,
    /// The dictionary's length when the epoch was sealed. Every id the
    /// epoch holds was issued before that, so a triple naming an id at or
    /// above it is absent without a probe.
    minted: usize,
}

impl EpochSnapshot {
    /// Epoch `epoch` holding exactly `stated`, unweighted, which must be
    /// strictly ascending (SPO order).
    pub(crate) fn stated(epoch: u64, dict: TermDict, stated: Vec<IdTriple>) -> EpochSnapshot {
        EpochSnapshot {
            epoch,
            minted: dict.len(),
            dict,
            len: stated.len(),
            base: Arc::new(Run::sorted(stated, Vec::new(), Vec::new())),
            runs: Vec::new(),
        }
    }

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

    /// Confidence (level) of a triple visible in this epoch — 1.0 unless
    /// it was stated weighted or a weighted rule derived it; `None` if the
    /// triple itself is absent.
    pub fn confidence_of(&self, triple: IdTriple) -> Option<f64> {
        holder(&self.base, &self.runs, triple).map(|run| run.confidence(triple))
    }

    /// Whether the triple is present and stated rather than derived.
    pub fn is_stated(&self, triple: IdTriple) -> bool {
        holder(&self.base, &self.runs, triple).is_some_and(|run| run.tag(triple) == Fact::Stated)
    }

    /// The triples below confidence 1.0, stated or derived, with it, in SPO
    /// order: a scan of the runs' confidence columns.
    pub fn weighted(&self) -> Vec<(IdTriple, f64)> {
        conf_under(&self.base, &self.runs)
    }

    /// Whether the epoch contains the encoded triple.
    pub fn contains_id(&self, triple: IdTriple) -> bool {
        holder(&self.base, &self.runs, triple).is_some()
    }

    /// Whether the epoch contains the statement.
    pub fn contains(&self, st: &Statement) -> bool {
        TripleView::has(self, st)
    }

    /// All triples in SPO order.
    pub fn iter_ids(&self) -> Vec<IdTriple> {
        QueryView::match_ids(self, None, None, None)
    }

    /// The stated triples — every triple but the derived ones — in SPO
    /// order: what a snapshot file holds.
    pub fn stated_ids(&self) -> impl Iterator<Item = IdTriple> {
        let runs = std::iter::once(&*self.base).chain(self.runs.iter().map(|r| &**r));
        let mut stated = Vec::with_capacity(self.len);
        merge_newest(state_sources(runs), |t, state| {
            if state == Some(Fact::Stated) {
                stated.push(t);
            }
        });
        stated.into_iter()
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

    /// Merges the base slice with each run's add slice in permuted sort
    /// order, deduplicates, drops deleted triples, and maps tuples back
    /// to `(s, p, o)`. Only a run newer than the newest one holding a
    /// triple can delete it.
    fn merged_scan(&self, index: Index, lo: IdTriple, hi: IdTriple) -> Vec<IdTriple> {
        let runs = std::iter::once(&self.base).chain(&self.runs).enumerate();
        let sources = runs.map(|(at, run)| (range_of(run.select(index), lo, hi), at));
        let mut out = Vec::new();
        merge_newest(sources.collect(), |tuple, holder| {
            let original = index.unpermute(tuple);
            let newer = &self.runs[holder..];
            if newer
                .iter()
                .all(|run| run.dels.binary_search(&original).is_err())
            {
                out.push(original);
            }
        });
        out
    }
}

impl TripleView for EpochSnapshot {
    fn dict(&self) -> &TermDict {
        &self.dict
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
                    est += range_of(run.select(index), lo, hi).len();
                }
                est.min(cap)
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The writer's side of the store: the latest sealed epoch, overridden
/// by the changes of the call in progress. It reads as
/// `epoch ∪ adds − deletes`; [`seal`](Self::seal) turns the changes into
/// the next epoch. Between calls it holds no changes, and reads are the
/// epoch's.
#[derive(Debug)]
pub(crate) struct EpochWriter {
    epoch: Arc<EpochSnapshot>,
    /// Every triple the call changed: its state in `epoch`, and now.
    changes: BTreeMap<IdTriple, (Option<Fact>, Option<Fact>)>,
    /// The level of each triple the call [weighed](Self::weigh) or
    /// derived at a level (1.0: reset). Each is in `changes`, present.
    weights: BTreeMap<IdTriple, f64>,
    /// The changed triples present now but absent from `epoch`, indexed
    /// for pattern scans while `indexed` (standing rules scan the view).
    added: Graph,
    indexed: bool,
    /// Changed triples present in `epoch` and absent now.
    removed: usize,
    /// Membership probes against sealed epochs; atomic (relaxed) because
    /// `&self` reads, as rule joins make, probe too.
    probes: AtomicU64,
}

impl EpochWriter {
    pub(crate) fn new(epoch: EpochSnapshot, indexed: bool) -> EpochWriter {
        EpochWriter {
            added: Graph::with_dict(epoch.dict.clone()),
            epoch: Arc::new(epoch),
            changes: BTreeMap::new(),
            weights: BTreeMap::new(),
            indexed,
            removed: 0,
            probes: AtomicU64::new(0),
        }
    }

    pub(crate) fn probes(&self) -> u64 {
        self.probes.load(Relaxed)
    }

    /// The run deciding `triple` in the latest epoch, if it holds it: one
    /// counted probe, none for a triple naming a term minted since (it is
    /// absent by construction).
    fn sealed_holder(&self, triple: IdTriple) -> Option<&Run> {
        let (s, p, o) = triple;
        if s.seq().max(p.seq()).max(o.seq()) >= self.epoch.minted {
            return None;
        }
        self.probes.fetch_add(1, Relaxed);
        holder(&self.epoch.base, &self.epoch.runs, triple)
    }

    /// The latest sealed epoch.
    pub(crate) fn epoch(&self) -> &Arc<EpochSnapshot> {
        &self.epoch
    }

    /// Whether later changes are indexed for pattern scans. Set between
    /// calls only.
    pub(crate) fn index_adds(&mut self, indexed: bool) {
        debug_assert!(self.changes.is_empty(), "toggled mid-call");
        self.indexed = indexed;
    }

    /// Whether the triple is present now, and if so, stated or derived,
    /// with its level.
    pub(crate) fn state(&self, triple: IdTriple) -> Option<(Fact, f64)> {
        match self.changes.get(&triple) {
            Some(&(_, now)) => now.map(|f| (f, *self.weights.get(&triple).unwrap_or(&1.0))),
            None => self
                .sealed_holder(triple)
                .map(|run| (run.tag(triple), run.confidence(triple))),
        }
    }

    /// Sets the triple's state; returns the one it replaced.
    pub(crate) fn replace(&mut self, triple: IdTriple, now: Option<Fact>) -> Option<Fact> {
        let was = self.state(triple).map(|(fact, _)| fact);
        self.replace_known(triple, was, now);
        was
    }

    /// [`replace`](Self::replace) from `was`, the state the caller knows
    /// the triple has now. A delete or a retag drops its level: the
    /// call's, and the epoch's should it be stated again.
    pub(crate) fn replace_known(&mut self, triple: IdTriple, was: Option<Fact>, now: Option<Fact>) {
        if was == now {
            return;
        }
        let before = self.changes.get(&triple).map_or(was, |&(before, _)| before);
        if now != Some(Fact::Stated) {
            self.weights.remove(&triple);
        } else if before == now
            && self
                .sealed_holder(triple)
                .is_some_and(|r| r.confidence(triple) < 1.0)
        {
            self.weights.insert(triple, 1.0);
        }
        self.changes.insert(triple, (before, now));
        if before.is_some() {
            self.removed = self.removed + usize::from(now.is_none()) - usize::from(was.is_none());
        } else if self.indexed && now.is_some() {
            self.added.insert_id(triple);
        } else if self.indexed {
            self.added.remove_id(triple);
        }
    }

    /// A weighted assertion: below 1.0 states an absent or derived triple
    /// at that confidence or re-weights a stated one, 1.0 resets a stated
    /// one. With `insert`, a weighted triple keeps the higher confidence,
    /// and 1.0 states any triple. Returns the state before and the
    /// confidence now, if anything changed.
    pub(crate) fn weigh(
        &mut self,
        triple: IdTriple,
        incoming: f64,
        insert: bool,
    ) -> Option<(Option<Fact>, f64)> {
        let held = self.state(triple);
        let was = held.map(|(fact, _)| fact);
        let confidence = match held {
            Some((Fact::Stated, current)) if insert && current < 1.0 => current.max(incoming),
            _ => incoming,
        }
        .min(1.0);
        let unchanged = match held {
            Some((Fact::Stated, current)) => current == confidence,
            _ => confidence == 1.0 && !insert,
        };
        if unchanged {
            return None;
        }
        self.replace_known(triple, was, Some(Fact::Stated));
        self.changes.entry(triple).or_insert((was, was));
        self.weights.insert(triple, confidence);
        Some((was, confidence))
    }

    /// A rule's conclusion at `level`: an absent triple becomes derived at
    /// it, a derived one below it rises to it, and a stated one keeps its
    /// own. Returns `Some(true)` if the triple was absent, `Some(false)` if
    /// it rose, `None` if nothing changed.
    pub(crate) fn derive_at(&mut self, triple: IdTriple, level: f64) -> Option<bool> {
        match self.state(triple) {
            None => {
                self.replace_known(triple, None, Some(Fact::Derived));
                // Deleted earlier in the call: the epoch's level must not
                // show through the new one.
                let sealed = self.changes[&triple]
                    .0
                    .and_then(|_| self.sealed_holder(triple));
                if level < 1.0 || sealed.is_some_and(|run| run.confidence(triple) < 1.0) {
                    self.weights.insert(triple, level);
                }
                Some(true)
            }
            Some((Fact::Derived, held)) if level > held => {
                let derived = Some(Fact::Derived);
                self.changes.entry(triple).or_insert((derived, derived));
                self.weights.insert(triple, level);
                Some(false)
            }
            Some(_) => None,
        }
    }

    /// [`replace`](Self::replace) at the start of a call, for strictly
    /// ascending triples all set to `now`: the change set is built in one
    /// pass from the sorted triples. Returns each triple's state before,
    /// in order.
    pub(crate) fn replace_sorted(&mut self, sorted: &[IdTriple], now: Fact) -> Vec<Option<Fact>> {
        debug_assert!(self.changes.is_empty(), "mid-call");
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "not ascending");
        let probe = |&t: &IdTriple| self.sealed_holder(t).map(|run| run.tag(t));
        let before: Vec<Option<Fact>> = sorted.iter().map(probe).collect();
        let changed = sorted.iter().zip(&before).filter(|&(_, &b)| b != Some(now));
        self.changes = changed
            .clone()
            .map(|(&t, &b)| (t, (b, Some(now))))
            .collect();
        if self.indexed {
            for (&t, _) in changed.filter(|(_, b)| b.is_none()) {
                self.added.insert_id(t);
            }
        }
        before
    }

    /// Drops the call's changes: the writer reads as the latest epoch
    /// again, exactly as the last seal left it.
    pub(crate) fn discard(&mut self) {
        self.changes.clear();
        self.weights.clear();
        self.added = Graph::with_dict(self.epoch.dict.clone());
        self.removed = 0;
    }

    /// Makes `epoch` the latest one; the probe count carries on.
    pub(crate) fn restart(&mut self, epoch: EpochSnapshot) {
        self.epoch = Arc::new(epoch);
        self.discard();
    }

    /// Seals the call's changes into the next epoch. A call that changed
    /// nothing seals nothing, so idle readers keep hitting the same epoch.
    pub(crate) fn seal(&mut self) {
        if !self.changes.is_empty() {
            self.seal_as(self.epoch.epoch + 1);
        }
    }

    /// Seals the call's changes as epoch number `epoch`: one more run,
    /// or — once the runs would hold more than
    /// `max(REBUILD_MIN_EVENTS, base/4)` events, counting every triple the
    /// call touched — a fresh base merged from the old one and every run.
    pub(crate) fn seal_as(&mut self, epoch: u64) {
        let prev = &self.epoch;
        let pending = prev.runs.iter().map(|r| r.events()).sum::<usize>() + self.changes.len();
        let mut len = prev.len;
        let changes = std::mem::take(&mut self.changes).into_iter();
        let weights = std::mem::take(&mut self.weights);
        let net = changes.filter(|(t, (before, now))| before != now || weights.contains_key(t));
        let changed = net.map(|(t, (before, now))| {
            len = len + usize::from(before.is_none()) - usize::from(now.is_none());
            (t, now)
        });
        let run = Run::new(changed, &weights);
        let mut runs = prev.runs.clone();
        if run.events() > 0 {
            runs.push(Arc::new(run));
        }
        let base = if pending > REBUILD_MIN_EVENTS.max(prev.base.spo.len() / 4) {
            let base = prev.base.merged(&runs);
            runs.clear();
            debug_assert_eq!(base.spo.len(), len);
            Arc::new(base)
        } else {
            // Size-tiered merging: fold the newest run into its neighbor
            // while the neighbor is not decisively bigger, keeping the
            // stack logarithmic in total events.
            while runs.len() >= 2 {
                let n = runs.len();
                if runs[n - 2].events() > 2 * runs[n - 1].events() {
                    break;
                }
                let newer = runs.pop().expect("run");
                let older = runs.pop().expect("run");
                let merged = merge_runs(&older, &newer, |t| {
                    let run = holder(&prev.base, &runs, t)?;
                    Some((run.tag(t), run.confidence(t)))
                });
                runs.push(Arc::new(merged));
            }
            prev.base.clone()
        };
        let dict = prev.dict.clone();
        self.added = Graph::with_dict(dict.clone());
        self.removed = 0;
        self.epoch = Arc::new(EpochSnapshot {
            epoch,
            minted: dict.len(),
            dict,
            base,
            runs,
            len,
        });
    }
}

impl TripleView for EpochWriter {
    fn dict(&self) -> &TermDict {
        &self.epoch.dict
    }

    fn find_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple> {
        debug_assert!(self.indexed || self.changes.is_empty(), "unindexed scan");
        let mut hits = QueryView::match_ids(&*self.epoch, subject, predicate, object);
        if self.removed > 0 {
            hits.retain(|t| self.changes.get(t).is_none_or(|&(_, now)| now.is_some()));
        }
        hits.extend(self.added.match_ids(subject, predicate, object));
        hits
    }

    fn has_id(&self, triple: IdTriple) -> bool {
        self.state(triple).is_some()
    }
}

/// The published-epoch registry: the atomically swapped current epoch
/// plus a short ring of recent epochs reachable by number.
///
/// `pin()` holds the lock only long enough to clone one `Arc`; all
/// subsequent reads on the snapshot are lock-free. The writer publishes
/// each epoch it seals, which swaps the current `Arc` — readers already
/// holding an older epoch are unaffected.
#[derive(Debug)]
pub struct EpochStore {
    current: RwLock<Arc<EpochSnapshot>>,
    retained: Mutex<VecDeque<Arc<EpochSnapshot>>>,
}

impl EpochStore {
    /// Creates a store whose current epoch is `first`.
    pub(crate) fn new(first: Arc<EpochSnapshot>) -> EpochStore {
        EpochStore {
            current: RwLock::new(first.clone()),
            retained: Mutex::new(VecDeque::from([first])),
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

    /// Makes `next` the current epoch, unless it already is.
    pub(crate) fn publish(&self, next: &Arc<EpochSnapshot>) {
        let mut ring = self.retained.lock().expect("epoch ring lock");
        {
            let mut current = self.current.write().expect("epoch lock");
            if Arc::ptr_eq(&current, next) {
                return;
            }
            *current = next.clone();
        }
        ring.push_back(next.clone());
        while ring.len() > RETAINED_EPOCHS {
            ring.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{vocab, Term};
    use crate::IncrementalMaterializer;
    use cogsdk_sim::rng::Rng;
    use std::collections::BTreeMap;

    impl EpochSnapshot {
        /// Whether the triple is present, and if so, stated or derived.
        pub(crate) fn state(&self, (s, p, o): IdTriple) -> Option<Fact> {
            let minted_since = s.seq().max(p.seq()).max(o.seq()) >= self.minted;
            (!minted_since).then(|| self.probed_state((s, p, o)))?
        }

        /// [`state`](Self::state) without the watermark: always probes.
        pub(crate) fn probed_state(&self, triple: IdTriple) -> Option<Fact> {
            holder(&self.base, &self.runs, triple).map(|run| run.tag(triple))
        }

        /// Array entries the base and runs hold: each add or base triple
        /// once per permutation, each derived tag, confidence and delete
        /// once.
        pub(crate) fn stored_entries(&self) -> usize {
            let runs = std::iter::once(&self.base).chain(&self.runs);
            let entries = |r: &Arc<Run>| {
                let conf_and_dels = r.derived.len() + r.conf.len() + r.dels.len();
                r.spo.len() + r.pos.len() + r.osp.len() + conf_and_dels
            };
            runs.map(entries).sum()
        }
    }

    /// `spo`'s tuples permuted into `index` order, sorted.
    fn permuted(spo: &[IdTriple], index: Index) -> Vec<IdTriple> {
        let mut out: Vec<IdTriple> = spo.iter().map(|&t| index.permute(t)).collect();
        out.sort_unstable();
        out
    }

    fn triple(dict: &TermDict, s: &str, p: &str, o: &str) -> IdTriple {
        dict.intern_statement(&Statement::new(Term::iri(s), Term::iri(p), Term::iri(o)))
    }

    /// A writer over an empty epoch 0, indexing its changes.
    fn writer() -> EpochWriter {
        let empty = EpochSnapshot::stated(0, TermDict::new(), Vec::new());
        EpochWriter::new(empty, true)
    }

    /// Applies `changes` and seals them as the next epoch.
    fn publish(w: &mut EpochWriter, changes: &[(IdTriple, Option<Fact>)]) -> Arc<EpochSnapshot> {
        for &(t, state) in changes {
            w.replace(t, state);
        }
        w.seal();
        w.epoch().clone()
    }

    const STATED: Option<Fact> = Some(Fact::Stated);
    const DERIVED: Option<Fact> = Some(Fact::Derived);

    #[test]
    fn merged_base_equals_collect_permute_sort() {
        let mut rng = Rng::new(0xF4EE);
        // (rounds of churn, triples per round): one run, a stack, and
        // stacks whose runs delete, re-add, retag and re-weight what lies
        // beneath.
        for (case, &(rounds, n)) in [(1, 60), (6, 40), (20, 30), (12, 200)].iter().enumerate() {
            let mut w = writer();
            let dict = w.dict().clone();
            let mut model: BTreeMap<IdTriple, (Fact, f64)> = BTreeMap::new();
            for _ in 0..rounds {
                for _ in 0..n {
                    let t = triple(
                        &dict,
                        &format!("ex:s{}", rng.below(15)),
                        &format!("ex:p{}", rng.below(5)),
                        &format!("ex:o{}", rng.below(15)),
                    );
                    match rng.below(5) {
                        0 => {
                            w.replace(t, None);
                            model.remove(&t);
                        }
                        1 => {
                            w.replace(t, STATED);
                            let kept = model.get(&t).filter(|(fact, _)| *fact == Fact::Stated);
                            model.insert(t, (Fact::Stated, kept.map_or(1.0, |&(_, c)| c)));
                        }
                        2 => {
                            w.replace(t, DERIVED);
                            model.insert(t, (Fact::Derived, 1.0));
                        }
                        _ => {
                            let c = [0.25, 0.5, 1.0][rng.below(3) as usize];
                            w.weigh(t, c, false);
                            if c < 1.0 || model.get(&t).is_some_and(|h| h.0 == Fact::Stated) {
                                model.insert(t, (Fact::Stated, c));
                            }
                        }
                    }
                }
                w.seal();
            }
            let snap = w.epoch();
            let merged = snap.base.merged(&snap.runs);
            // The reference: collect the model, permute and sort.
            let spo: Vec<IdTriple> = model.keys().copied().collect();
            let derived: Vec<IdTriple> = model
                .iter()
                .filter_map(|(&t, &(f, _))| (f == Fact::Derived).then_some(t))
                .collect();
            let conf: Vec<(IdTriple, f64)> = model
                .iter()
                .filter_map(|(&t, &(_, c))| (c < 1.0).then_some((t, c)))
                .collect();
            assert_eq!(merged.spo, spo, "case {case}: spo");
            assert_eq!(merged.pos, permuted(&spo, Index::Pos), "case {case}: pos");
            assert_eq!(merged.osp, permuted(&spo, Index::Osp), "case {case}: osp");
            assert_eq!(merged.derived, derived, "case {case}: derived");
            assert_eq!(merged.conf, conf, "case {case}: conf");
            assert_eq!(snap.weighted(), conf, "case {case}: weighted");
            for (&t, &(_, c)) in &model {
                assert_eq!(snap.confidence_of(t), Some(c), "case {case}: {t:?}");
            }
            let stated: Vec<IdTriple> = snap.stated_ids().collect();
            let want: Vec<IdTriple> = model
                .iter()
                .filter_map(|(&t, &(f, _))| (f == Fact::Stated).then_some(t))
                .collect();
            assert_eq!(stated, want, "case {case}: stated_ids");
        }
    }

    /// What a run or a model says of a present triple: its tag and
    /// confidence.
    type Held = Option<(Fact, f64)>;

    /// Every triple `run` mentions, with the state it gives it.
    fn run_changes(run: &Run) -> impl Iterator<Item = (IdTriple, Held)> + '_ {
        let present = run
            .spo
            .iter()
            .map(|&t| (t, Some((run.tag(t), run.confidence(t)))));
        present.chain(run.dels.iter().map(|&t| (t, None)))
    }

    /// A run from each triple's new state and confidence.
    fn run_of(changes: BTreeMap<IdTriple, Held>) -> Run {
        let weights = changes
            .iter()
            .filter_map(|(&t, &held)| Some((t, held?.1)))
            .collect();
        Run::new(
            changes
                .into_iter()
                .map(|(t, held)| (t, held.map(|(f, _)| f))),
            &weights,
        )
    }

    /// The oracle for `merge_runs`: both runs' changes collected into a
    /// map, newer over older, a triple netted out where its new state and
    /// confidence are those beneath, then sorted into a run.
    fn merge_runs_by_map(older: &Run, newer: &Run, beneath: impl Fn(IdTriple) -> Held) -> Run {
        let mut changes: BTreeMap<IdTriple, Held> = run_changes(older).collect();
        for (triple, state) in run_changes(newer) {
            if changes.insert(triple, state).is_some() && beneath(triple) == state {
                changes.remove(&triple);
            }
        }
        run_of(changes)
    }

    /// A net run over `model`: up to 23 random triples of `universe`
    /// (none, at times) each move to a state other than their current
    /// one — absent, derived, or stated at one of three confidences — and
    /// `model` moves with them.
    fn random_net_run(
        rng: &mut Rng,
        universe: &[IdTriple],
        model: &mut BTreeMap<IdTriple, (Fact, f64)>,
    ) -> Run {
        let mut changes: BTreeMap<IdTriple, Held> = BTreeMap::new();
        for _ in 0..rng.below(24) {
            let t = universe[rng.below(universe.len() as u64) as usize];
            if changes.contains_key(&t) {
                continue;
            }
            let now = model.get(&t).copied();
            let states = [
                None,
                Some((Fact::Derived, 1.0)),
                Some((Fact::Stated, 1.0)),
                Some((Fact::Stated, 0.5)),
                Some((Fact::Stated, 0.25)),
            ];
            let others: Vec<Held> = states.into_iter().filter(|&state| state != now).collect();
            let next = others[rng.below(others.len() as u64) as usize];
            match next {
                Some(held) => model.insert(t, held),
                None => model.remove(&t),
            };
            changes.insert(t, next);
        }
        run_of(changes)
    }

    #[test]
    fn linear_merge_runs_matches_the_btreemap_oracle() {
        let mut rng = Rng::new(0x3E86);
        let id = |n: u32| TermId::from_raw(n);
        let universe: Vec<IdTriple> = (0..4)
            .flat_map(|s| {
                (0..3).flat_map(move |p| (0..4).map(move |o| (id(s), id(10 + p), id(20 + o))))
            })
            .collect();
        // Pairs with an empty run, then triples that `older` adds,
        // deletes, retags, re-weights, and that `newer` nets back:
        // add→delete, delete→re-add, and a re-weight undone.
        let mut seen = [0usize; 8];
        for pair in 0..1200 {
            let mut beneath: BTreeMap<IdTriple, (Fact, f64)> = BTreeMap::new();
            for &t in &universe {
                let held = match rng.below(4) {
                    0 => continue,
                    1 => (Fact::Stated, 1.0),
                    2 => (Fact::Stated, 0.5),
                    _ => (Fact::Derived, 1.0),
                };
                beneath.insert(t, held);
            }
            let mut model = beneath.clone();
            let older = random_net_run(&mut rng, &universe, &mut model);
            let middle = model.clone();
            let newer = random_net_run(&mut rng, &universe, &mut model);
            let state = |t| beneath.get(&t).copied();

            let got = merge_runs(&older, &newer, state);
            let want = merge_runs_by_map(&older, &newer, state);
            assert_eq!(got.spo, want.spo, "pair {pair}: spo");
            assert_eq!(got.pos, want.pos, "pair {pair}: pos");
            assert_eq!(got.osp, want.osp, "pair {pair}: osp");
            assert_eq!(got.derived, want.derived, "pair {pair}: derived");
            assert_eq!(got.conf, want.conf, "pair {pair}: conf");
            assert_eq!(got.dels, want.dels, "pair {pair}: dels");
            // The merged run over `beneath` reads as both runs did.
            for &t in &universe {
                let read = match got.mentions(t) {
                    Some(true) => Some((got.tag(t), got.confidence(t))),
                    Some(false) => None,
                    None => state(t),
                };
                assert_eq!(read, model.get(&t).copied(), "pair {pair}: {t:?}");
            }

            seen[0] += usize::from(older.events() == 0 || newer.events() == 0);
            for &t in &universe {
                let (under, mid, now) = (state(t), middle.get(&t).copied(), model.get(&t).copied());
                let tag = |held: Held| held.map(|(fact, _)| fact);
                let reweighted =
                    |a: Held, b: Held| tag(a) == Some(Fact::Stated) && tag(b) == tag(a) && a != b;
                let kinds = [
                    under.is_none() && mid.is_some(),
                    under.is_some() && mid.is_none(),
                    under.is_some() && mid.is_some() && tag(under) != tag(mid),
                    reweighted(under, mid),
                    reweighted(under, mid) && now == under,
                    older.mentions(t).is_some()
                        && under.is_none()
                        && mid.is_some()
                        && now.is_none(),
                    older.mentions(t).is_some()
                        && under.is_some()
                        && mid.is_none()
                        && now.is_some(),
                ];
                for (count, kind) in seen[1..].iter_mut().zip(kinds) {
                    *count += usize::from(kind);
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "kinds of change seen: {seen:?}"
        );
    }

    #[test]
    fn start_near_agrees_with_a_binary_search_from_any_hint() {
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
        let mut w = writer();
        let t1 = triple(w.dict(), "ex:a", "ex:p", "ex:x");
        let pinned = publish(&mut w, &[(t1, STATED)]);
        assert_eq!(pinned.epoch(), 1);
        assert!(pinned.contains_id(t1));

        let t2 = triple(w.dict(), "ex:b", "ex:p", "ex:y");
        let fresh = publish(&mut w, &[(t2, STATED)]);

        // The old pin still sees exactly its epoch.
        assert!(!pinned.contains_id(t2));
        assert_eq!(pinned.len(), 1);
        assert_eq!(fresh.epoch(), 2);
        assert!(fresh.contains_id(t1) && fresh.contains_id(t2));
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn deletions_in_newer_runs_mask_base_triples() {
        let mut w = writer();
        let t1 = triple(w.dict(), "ex:a", "ex:p", "ex:x");
        let t2 = triple(w.dict(), "ex:a", "ex:p", "ex:y");
        publish(&mut w, &[(t1, STATED), (t2, STATED)]);
        let snap = publish(&mut w, &[(t1, None)]);
        assert!(!snap.contains_id(t1));
        assert!(snap.contains_id(t2));
        assert_eq!(snap.len(), 1);
        let scan = QueryView::match_ids(&*snap, Some(t1.0), Some(t1.1), None);
        assert_eq!(scan, vec![t2]);
    }

    #[test]
    fn re_add_after_delete_is_visible_again() {
        let mut w = writer();
        let t = triple(w.dict(), "ex:a", "ex:p", "ex:x");
        publish(&mut w, &[(t, STATED)]);
        assert!(!publish(&mut w, &[(t, None)]).contains_id(t));
        let snap = publish(&mut w, &[(t, STATED)]);
        assert!(snap.contains_id(t));
        assert_eq!(snap.len(), 1);
        assert_eq!(QueryView::match_ids(&*snap, None, None, None), vec![t]);
    }

    #[test]
    fn retags_are_decided_by_the_newest_run() {
        let mut w = writer();
        let t = triple(w.dict(), "ex:a", "ex:p", "ex:x");
        assert_eq!(publish(&mut w, &[(t, DERIVED)]).state(t), DERIVED);
        let snap = publish(&mut w, &[(t, STATED)]);
        assert_eq!(snap.state(t), STATED);
        assert_eq!(snap.len(), 1, "a retag is not a second triple");
        assert_eq!(QueryView::match_ids(&*snap, None, None, None), vec![t]);
        assert_eq!(snap.stated_ids().collect::<Vec<_>>(), vec![t]);
        let snap = publish(&mut w, &[(t, DERIVED)]);
        assert_eq!(snap.state(t), DERIVED);
        assert_eq!(snap.stated_ids().count(), 0);
    }

    #[test]
    fn scans_agree_with_a_graph_across_many_random_publishes() {
        let mut rng = Rng::new(0xE90C);
        let mut w = writer();
        let dict = w.dict().clone();
        let mut model: BTreeMap<IdTriple, Fact> = BTreeMap::new();
        // Random insert/retag/remove batches, each sealed; the writer
        // mid-batch and every sealed epoch must agree with a graph
        // holding the model on every pattern shape.
        for round in 0..60 {
            for _ in 0..(1 + rng.below(40)) {
                let t = triple(
                    &dict,
                    &format!("ex:s{}", rng.below(12)),
                    &format!("ex:p{}", rng.below(4)),
                    &format!("ex:o{}", rng.below(8)),
                );
                if rng.chance(0.7) {
                    let fact = if rng.chance(0.5) {
                        Fact::Stated
                    } else {
                        Fact::Derived
                    };
                    w.replace(t, Some(fact));
                    model.insert(t, fact);
                } else {
                    w.replace(t, None);
                    model.remove(&t);
                }
            }
            let mut g = Graph::with_dict(dict.clone());
            for &t in model.keys() {
                g.insert_id(t);
            }
            let s = dict.lookup(&Term::iri("ex:s3"));
            let p = dict.lookup(&Term::iri("ex:p1"));
            let o = dict.lookup(&Term::iri("ex:o2"));
            let patterns = [
                (None, None, None),
                (s, None, None),
                (None, p, None),
                (None, None, o),
                (s, p, None),
                (s, None, o),
                (None, p, o),
                (s, p, o),
            ];
            let sorted = |mut v: Vec<IdTriple>| {
                v.sort_unstable();
                v
            };
            for pattern in patterns {
                let (s, p, o) = pattern;
                let got = sorted(w.find_ids(s, p, o));
                assert_eq!(got, sorted(g.match_ids(s, p, o)), "round {round}: writer");
            }

            w.seal();
            let snap = w.epoch();
            assert_eq!(snap.len(), g.len(), "round {round}: len");
            for (&t, &fact) in &model {
                assert_eq!(snap.state(t), Some(fact), "round {round}: tag");
            }
            for pattern in patterns {
                let (s, p, o) = pattern;
                let got = QueryView::match_ids(&**snap, s, p, o);
                let want = g.match_ids(s, p, o);
                assert_eq!(got, want, "round {round}: pattern {pattern:?}");
                let est = QueryView::count_ids_capped(&**snap, s, p, o, 4096);
                assert!(est >= want.len().min(4096), "estimate must upper-bound");
            }
        }
    }

    #[test]
    fn retained_ring_serves_recent_epochs_only() {
        let mut w = writer();
        let store = EpochStore::new(w.epoch().clone());
        for i in 0..(RETAINED_EPOCHS + 3) {
            let t = triple(w.dict(), &format!("ex:s{i}"), "ex:p", "ex:o");
            store.publish(&publish(&mut w, &[(t, STATED)]));
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
    fn noop_seal_keeps_the_epoch() {
        let mut w = writer();
        let t = triple(w.dict(), "ex:a", "ex:p", "ex:x");
        let first = publish(&mut w, &[(t, STATED)]);
        let store = EpochStore::new(first.clone());
        // Re-stating a stated fact changes nothing: no epoch.
        let again = publish(&mut w, &[(t, STATED)]);
        assert!(Arc::ptr_eq(&first, &again), "no-op seals nothing");
        store.publish(&again);
        assert_eq!(store.pin().epoch(), 1);
    }

    #[test]
    fn confidence_travels_with_the_epoch() {
        let mut w = writer();
        let t = triple(w.dict(), "ex:a", "ex:p", "ex:x");
        let pinned_before = publish(&mut w, &[(t, STATED)]);

        // No membership change, but the confidence changed.
        assert_eq!(w.weigh(t, 0.4, false), Some((STATED, 0.4)));
        w.seal();

        assert_eq!(w.epoch().confidence_of(t), Some(0.4));
        assert_eq!(w.epoch().weighted(), vec![(t, 0.4)]);
        assert_eq!(
            pinned_before.confidence_of(t),
            Some(1.0),
            "old pin unaffected"
        );
        assert!(pinned_before.weighted().is_empty());
        let absent = triple(w.dict(), "ex:ghost", "ex:p", "ex:x");
        assert_eq!(w.epoch().confidence_of(absent), None);
        // A reset to 1.0 of an absent triple does nothing; below 1.0 it
        // states the triple at that confidence.
        assert_eq!(w.weigh(absent, 1.0, false), None);
        assert_eq!(w.weigh(absent, 0.3, false), Some((None, 0.3)));
        w.seal();
        assert_eq!(w.epoch().confidence_of(absent), Some(0.3));
        assert_eq!(w.epoch().state(absent), STATED);

        // A delete drops the confidence, so a re-add is unweighted; so
        // does a retag to derived.
        let snap = publish(&mut w, &[(t, None), (absent, DERIVED)]);
        assert_eq!(snap.confidence_of(t), None);
        assert_eq!(snap.confidence_of(absent), Some(1.0));
        let snap = publish(&mut w, &[(t, STATED), (absent, STATED)]);
        assert_eq!(snap.confidence_of(t), Some(1.0));
        assert_eq!(snap.confidence_of(absent), Some(1.0));
        assert!(snap.weighted().is_empty());
    }

    #[test]
    fn stored_copies_are_three_per_stated_and_four_per_derived_triple() {
        // An e2e-shaped store: items with a type, a category and scores,
        // in one batch big enough that its seal merges a fresh base.
        let st = |s: String, p: &str, o: Term| Statement::new(Term::iri(s), Term::iri(p), o);
        let mut batch = Vec::new();
        for i in 0..2500 {
            batch.push(st(format!("kb:item{i}"), vocab::TYPE, Term::iri("kb:Item")));
            batch.push(st(
                format!("kb:item{i}"),
                "kb:category",
                Term::iri(format!("kb:cat{}", i % 20)),
            ));
            batch.push(st(format!("kb:item{i}"), "kb:score", Term::integer(i)));
        }
        let mut m = IncrementalMaterializer::new();
        m.insert_batch(batch);
        let snap = m.epoch().clone();
        assert!(snap.runs.is_empty(), "the seal merged a fresh base");
        assert_eq!(snap.stored_entries(), 3 * snap.len());

        // Standing RDFS over a schema that types every item twice more:
        // 5 000 derived facts, sealed as one more merged base.
        m.insert_batch([
            st("kb:Item".into(), vocab::SUB_CLASS_OF, Term::iri("kb:Thing")),
            st("kb:category".into(), vocab::DOMAIN, Term::iri("kb:Tagged")),
        ]);
        let rdfs = crate::MaterializerConfig {
            rdfs: true,
            ..Default::default()
        };
        let derived = m.configure(rdfs).len();
        assert_eq!(derived, 5000);
        let snap = m.epoch();
        assert!(snap.runs.is_empty(), "the seal merged a fresh base");
        assert_eq!(snap.stored_entries(), 3 * snap.len() + derived);
        assert_eq!(snap.stated_ids().count(), snap.len() - derived);
    }
}
