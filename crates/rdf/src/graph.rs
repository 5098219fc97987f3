//! A mutable indexed triple graph, and the views reasoners join against.
//!
//! [`Graph`] serves the batch reasoners, conversion and small-data use.
//! The knowledge base's own store is not a `Graph`: it is the sorted
//! runs of [`crate::epoch`].

use crate::dict::{IdTriple, TermDict, TermId};
use crate::model::{Statement, Term};
use std::collections::{BTreeSet, HashMap};

/// An in-memory RDF graph with SPO, POS and OSP indexes.
///
/// Terms are dictionary-encoded (see [`TermDict`]): each index holds
/// `(u32, u32, u32)` id tuples, so inserts intern each distinct term once
/// and every comparison — pattern scans, reasoner joins, containment —
/// is integer work. The [`Statement`]-level API is unchanged; the
/// `*_id`/`*_ids` variants expose the encoded representation so hot
/// callers can skip materializing statements altogether.
///
/// Pattern matching picks the index that turns the bound prefix of the
/// pattern into a range scan, so `match_pattern` is efficient whichever
/// positions are bound.
///
/// # Examples
///
/// ```
/// use cogsdk_rdf::{Graph, Statement, Term};
///
/// let mut g = Graph::new();
/// g.insert(Statement::new(Term::iri("ex:a"), Term::iri("ex:p"), Term::integer(1)));
/// g.insert(Statement::new(Term::iri("ex:b"), Term::iri("ex:p"), Term::integer(2)));
/// assert_eq!(g.match_pattern(None, Some(&Term::iri("ex:p")), None).len(), 2);
/// assert_eq!(g.match_pattern(Some(&Term::iri("ex:a")), None, None).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    dict: TermDict,
    /// Entries in `(s, p, o)` order.
    spo: BTreeSet<IdTriple>,
    /// Entries in `(p, o, s)` order.
    pos: BTreeSet<IdTriple>,
    /// Entries in `(o, s, p)` order.
    osp: BTreeSet<IdTriple>,
}

impl Graph {
    /// Creates an empty graph with its own fresh dictionary.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Creates an empty graph sharing an existing dictionary. Graphs over
    /// one dictionary agree on term ids, so merges and overlay joins
    /// between them never re-intern (see [`extend_from`](Self::extend_from)
    /// and [`Overlay`]).
    pub fn with_dict(dict: TermDict) -> Graph {
        Graph {
            dict,
            spo: BTreeSet::new(),
            pos: BTreeSet::new(),
            osp: BTreeSet::new(),
        }
    }

    /// The graph's term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Interns a statement's terms into this graph's dictionary without
    /// inserting it.
    pub fn intern_statement(&self, st: &Statement) -> IdTriple {
        self.dict.intern_statement(st)
    }

    /// Looks up a statement's id triple, if every component is interned.
    pub fn lookup_statement(&self, st: &Statement) -> Option<IdTriple> {
        self.dict.lookup_statement(st)
    }

    /// Materializes an id triple back into a [`Statement`].
    ///
    /// # Panics
    ///
    /// Panics if the ids were not issued by this graph's dictionary.
    pub fn resolve(&self, triple: IdTriple) -> Statement {
        self.dict.resolve_triple(triple)
    }

    /// Inserts a statement; returns `false` if it was already present.
    pub fn insert(&mut self, st: Statement) -> bool {
        let triple = self.dict.intern_statement(&st);
        self.insert_id(triple)
    }

    /// Inserts an already-encoded triple; returns `false` if present.
    ///
    /// The ids must come from this graph's dictionary and form a valid
    /// statement (resource subject, IRI predicate) — guaranteed for any
    /// triple observed through this graph or one sharing its dictionary.
    pub fn insert_id(&mut self, (s, p, o): IdTriple) -> bool {
        debug_assert!(s.is_resource(), "statement subject must be a resource");
        debug_assert!(p.is_iri(), "statement predicate must be an IRI");
        let added = self.spo.insert((s, p, o));
        if added {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
        }
        added
    }

    /// Removes a statement; returns whether it was present.
    pub fn remove(&mut self, st: &Statement) -> bool {
        match self.dict.lookup_statement(st) {
            Some(triple) => self.remove_id(triple),
            None => false,
        }
    }

    /// Removes an already-encoded triple; returns whether it was present.
    pub fn remove_id(&mut self, (s, p, o): IdTriple) -> bool {
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
        }
        removed
    }

    /// Whether the graph contains the statement.
    pub fn contains(&self, st: &Statement) -> bool {
        TripleView::has(self, st)
    }

    /// Whether the graph contains the encoded triple.
    pub fn contains_id(&self, triple: IdTriple) -> bool {
        self.spo.contains(&triple)
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Iterates over all statements.
    pub fn iter(&self) -> impl Iterator<Item = Statement> + '_ {
        self.spo.iter().map(move |&t| self.dict.resolve_triple(t))
    }

    /// Iterates over all encoded triples in `(s, p, o)` order — the
    /// zero-materialization path for reasoner seeds and bulk scans.
    pub fn iter_ids(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.spo.iter().copied()
    }

    /// Merges all statements of `other` into `self`; returns how many were
    /// new.
    ///
    /// When both graphs share a dictionary (the reasoner and materializer
    /// arrangement) this is a bulk id-level merge: no term is looked at,
    /// let alone re-interned. Otherwise each *distinct* term of `other` is
    /// re-interned exactly once through a translation table.
    pub fn extend_from(&mut self, other: &Graph) -> usize {
        let mut added = 0;
        if self.dict.ptr_eq(&other.dict) {
            for &triple in &other.spo {
                if self.insert_id(triple) {
                    added += 1;
                }
            }
        } else {
            let mut translate: HashMap<TermId, TermId> = HashMap::new();
            for &(s, p, o) in &other.spo {
                let triple = (
                    remap(&mut translate, &self.dict, &other.dict, s),
                    remap(&mut translate, &self.dict, &other.dict, p),
                    remap(&mut translate, &self.dict, &other.dict, o),
                );
                if self.insert_id(triple) {
                    added += 1;
                }
            }
        }
        added
    }

    /// Finds statements matching a pattern; `None` positions are
    /// wildcards.
    pub fn match_pattern(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> Vec<Statement> {
        TripleView::find(self, subject, predicate, object)
    }

    /// Finds encoded triples matching a pattern; `None` positions are
    /// wildcards. Results are in `(s, p, o)` form, in the sort order of
    /// the index `classify` picks for the pattern's shape.
    ///
    /// Every shape is a borrowed `Copy`-key lookup or range scan — the
    /// fully-bound one is a plain `contains` on the SPO index and
    /// `(S, _, O)` range-scans OSP, neither allocating a key.
    pub fn match_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple> {
        match classify(subject, predicate, object) {
            Scan::Probe(triple) if self.spo.contains(&triple) => vec![triple],
            Scan::Probe(_) => Vec::new(),
            Scan::Range(index, lo, hi) => self
                .index(index)
                .range(lo..=hi)
                .map(|&t| index.unpermute(t))
                .collect(),
        }
    }

    /// Counts triples matching a pattern without materializing them,
    /// stopping at `cap`: same index routing as
    /// [`match_ids`](Self::match_ids), cost `O(min(matches, cap))`.
    /// This is the query planner's cardinality source: join *ordering*
    /// only needs estimates good enough to rank patterns, and every
    /// pattern at or above the cap is equally "huge".
    pub fn count_ids_capped(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
        cap: usize,
    ) -> usize {
        match classify(subject, predicate, object) {
            Scan::Probe(triple) => usize::from(self.spo.contains(&triple)),
            Scan::Range(index, lo, hi) => self.index(index).range(lo..=hi).take(cap).count(),
        }
    }

    /// The set holding `index`'s permuted tuples, in sorted order.
    fn index(&self, index: Index) -> &BTreeSet<IdTriple> {
        match index {
            Index::Spo => &self.spo,
            Index::Pos => &self.pos,
            Index::Osp => &self.osp,
        }
    }
}

/// One of the three sort orders every triple is indexed in. POS and OSP
/// hold *permuted* tuples, so a bound prefix is a contiguous range.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Index {
    /// `(s, p, o)` order.
    Spo,
    /// `(p, o, s)` order.
    Pos,
    /// `(o, s, p)` order.
    Osp,
}

impl Index {
    /// Maps `(s, p, o)` into this index's tuple order.
    pub(crate) fn permute(self, (s, p, o): IdTriple) -> IdTriple {
        match self {
            Index::Spo => (s, p, o),
            Index::Pos => (p, o, s),
            Index::Osp => (o, s, p),
        }
    }

    /// Maps one of this index's tuples back to `(s, p, o)`.
    pub(crate) fn unpermute(self, (a, b, c): IdTriple) -> IdTriple {
        match self {
            Index::Spo => (a, b, c),
            Index::Pos => (c, a, b),
            Index::Osp => (b, c, a),
        }
    }
}

/// How a pattern shape is served: a membership probe, or a range scan of
/// one index between permuted `lo..=hi` bounds.
pub(crate) enum Scan {
    /// Fully bound: a membership probe.
    Probe(IdTriple),
    /// A range scan: index selector, permuted `lo..=hi` bounds.
    Range(Index, IdTriple, IdTriple),
}

/// The index-routing table: which index turns the bound positions of a
/// pattern into a prefix range. A [`Graph`]'s sets and the sorted arrays
/// of an [`EpochSnapshot`](crate::EpochSnapshot) both scan what this
/// names, so they agree on result order (merge joins rely on it).
pub(crate) fn classify(
    subject: Option<TermId>,
    predicate: Option<TermId>,
    object: Option<TermId>,
) -> Scan {
    let min = TermId::MIN;
    let max = TermId::MAX;
    match (subject, predicate, object) {
        (Some(s), Some(p), Some(o)) => Scan::Probe((s, p, o)),
        (Some(s), Some(p), None) => Scan::Range(Index::Spo, (s, p, min), (s, p, max)),
        (Some(s), None, Some(o)) => Scan::Range(Index::Osp, (o, s, min), (o, s, max)),
        (Some(s), None, None) => Scan::Range(Index::Spo, (s, min, min), (s, max, max)),
        (None, Some(p), Some(o)) => Scan::Range(Index::Pos, (p, o, min), (p, o, max)),
        (None, Some(p), None) => Scan::Range(Index::Pos, (p, min, min), (p, max, max)),
        (None, None, Some(o)) => Scan::Range(Index::Osp, (o, min, min), (o, max, max)),
        (None, None, None) => Scan::Range(Index::Spo, (min, min, min), (max, max, max)),
    }
}

/// Encodes a term-level pattern against `dict`; `None` (outer) if a bound
/// term was never interned, so the pattern cannot match anything.
#[allow(clippy::type_complexity)]
pub(crate) fn encode_pattern(
    dict: &TermDict,
    subject: Option<&Term>,
    predicate: Option<&Term>,
    object: Option<&Term>,
) -> Option<(Option<TermId>, Option<TermId>, Option<TermId>)> {
    let encode = |slot: Option<&Term>| match slot {
        Some(term) => dict.lookup(term).map(Some),
        None => Some(None),
    };
    Some((encode(subject)?, encode(predicate)?, encode(object)?))
}

/// Re-interns `id` from `from` into `to`, memoizing per distinct term.
fn remap(
    translate: &mut HashMap<TermId, TermId>,
    to: &TermDict,
    from: &TermDict,
    id: TermId,
) -> TermId {
    *translate
        .entry(id)
        .or_insert_with(|| to.intern(&from.resolve(id)))
}

/// Statement-set equality, independent of interning order: two graphs are
/// equal when they hold the same statements, whether or not they share a
/// dictionary.
impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        if self.dict.ptr_eq(&other.dict) {
            return self.spo == other.spo;
        }
        if self.len() != other.len() {
            return false;
        }
        // Translate each distinct local id at most once; a term absent
        // from the other dictionary cannot appear in the other graph.
        let mut translate: HashMap<TermId, Option<TermId>> = HashMap::new();
        let mut lookup = |id: TermId| {
            *translate
                .entry(id)
                .or_insert_with(|| other.dict.lookup(&self.dict.resolve(id)))
        };
        self.spo
            .iter()
            .all(|&(s, p, o)| match (lookup(s), lookup(p), lookup(o)) {
                (Some(s), Some(p), Some(o)) => other.contains_id((s, p, o)),
                _ => false,
            })
    }
}

impl Eq for Graph {}

/// Read-only view over a set of triples.
///
/// [`Graph`], [`Overlay`], an [`EpochSnapshot`](crate::EpochSnapshot) and
/// the store's writer implement this, so reasoner joins run against a
/// plain graph, a base-plus-derived pair, or the store's epoch plus the
/// changes of the call in progress, without copying any of them.
pub trait TripleView {
    /// The dictionary ids in this view are relative to.
    fn dict(&self) -> &TermDict;

    /// Finds statements matching a pattern; `None` positions are wildcards.
    fn find(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> Vec<Statement> {
        let dict = self.dict();
        match encode_pattern(dict, subject, predicate, object) {
            Some((s, p, o)) => dict.resolve_all(&self.find_ids(s, p, o)),
            None => Vec::new(),
        }
    }

    /// Whether the view contains the statement.
    fn has(&self, st: &Statement) -> bool {
        self.dict()
            .lookup_statement(st)
            .is_some_and(|t| self.has_id(t))
    }

    /// Finds encoded triples matching an id pattern; `None` positions are
    /// wildcards. Ids are relative to the view's dictionary.
    fn find_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple>;

    /// Whether the view contains the encoded triple.
    fn has_id(&self, triple: IdTriple) -> bool;
}

impl TripleView for Graph {
    fn dict(&self) -> &TermDict {
        &self.dict
    }

    fn find_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple> {
        self.match_ids(subject, predicate, object)
    }

    fn has_id(&self, triple: IdTriple) -> bool {
        self.contains_id(triple)
    }
}

/// What the query planner and executor need from a triple source: a
/// dictionary for constant lookup, index-ordered pattern scans, and
/// capped cardinality estimates.
///
/// Implemented by [`Graph`] (a mutable small-data graph) and by
/// [`EpochSnapshot`](crate::EpochSnapshot) (an immutable published
/// epoch of the store), so one compiled plan can execute against either
/// — which is how queries run against a pinned snapshot without holding
/// any lock.
pub trait QueryView: TripleView {
    /// Triples matching a pattern, in the serving index's sort order
    /// (the same order contract as [`Graph::match_ids`]; merge joins
    /// rely on it).
    fn match_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple>;

    /// [`match_ids`](Self::match_ids) for a caller probing one pattern
    /// shape many times, mostly in ascending key order. `finger` keeps
    /// where the last probe's range began in the serving index, and a
    /// view with positional indexes starts the next search there; the
    /// default ignores it.
    fn match_ids_near(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
        finger: &mut usize,
    ) -> Vec<IdTriple> {
        let _ = finger;
        self.match_ids(subject, predicate, object)
    }

    /// Cardinality estimate for a pattern, saturating at `cap`. May
    /// over-count (it only ranks join candidates) but must never report
    /// zero for a pattern that has matches. [`Graph`] returns an exact
    /// count capped at `cap`; snapshots return an upper bound.
    fn count_ids_capped(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
        cap: usize,
    ) -> usize;

    /// Number of triples in the view.
    fn len(&self) -> usize;

    /// Whether the view holds no triples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl QueryView for Graph {
    fn match_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple> {
        Graph::match_ids(self, subject, predicate, object)
    }

    fn count_ids_capped(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
        cap: usize,
    ) -> usize {
        Graph::count_ids_capped(self, subject, predicate, object, cap)
    }

    fn len(&self) -> usize {
        Graph::len(self)
    }
}

/// A union view of two graphs that are disjoint by construction (a stated
/// base plus the derived closure). Queries hit both indexes and concatenate,
/// which keeps semi-naive rounds from ever cloning the base graph.
///
/// The id-level methods require both graphs to share a dictionary (the
/// reasoner and materializer arrangement); the statement-level methods
/// work regardless.
#[derive(Debug, Clone, Copy)]
pub struct Overlay<'a> {
    base: &'a Graph,
    extra: &'a Graph,
}

impl<'a> Overlay<'a> {
    /// Creates a union view over `base` and `extra`.
    pub fn new(base: &'a Graph, extra: &'a Graph) -> Overlay<'a> {
        Overlay { base, extra }
    }
}

impl TripleView for Overlay<'_> {
    fn dict(&self) -> &TermDict {
        self.base.dict()
    }

    fn find(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> Vec<Statement> {
        let mut hits = self.base.match_pattern(subject, predicate, object);
        for st in self.extra.match_pattern(subject, predicate, object) {
            if !self.base.contains(&st) {
                hits.push(st);
            }
        }
        hits
    }

    fn has(&self, st: &Statement) -> bool {
        self.base.contains(st) || self.extra.contains(st)
    }

    fn find_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple> {
        debug_assert!(
            self.base.dict().ptr_eq(self.extra.dict()),
            "id-level overlay queries require a shared dictionary"
        );
        let mut hits = self.base.match_ids(subject, predicate, object);
        for triple in self.extra.match_ids(subject, predicate, object) {
            if !self.base.contains_id(triple) {
                hits.push(triple);
            }
        }
        hits
    }

    fn has_id(&self, triple: IdTriple) -> bool {
        debug_assert!(
            self.base.dict().ptr_eq(self.extra.dict()),
            "id-level overlay queries require a shared dictionary"
        );
        self.base.contains_id(triple) || self.extra.contains_id(triple)
    }
}

impl Extend<Statement> for Graph {
    fn extend<T: IntoIterator<Item = Statement>>(&mut self, iter: T) {
        for st in iter {
            self.insert(st);
        }
    }
}

impl FromIterator<Statement> for Graph {
    fn from_iter<T: IntoIterator<Item = Statement>>(iter: T) -> Graph {
        let mut g = Graph::new();
        g.extend(iter);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(s: &str, p: &str, o: &str) -> Statement {
        Statement::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn sample() -> Graph {
        vec![
            st("a", "p", "x"),
            st("a", "p", "y"),
            st("a", "q", "x"),
            st("b", "p", "x"),
            st("b", "q", "z"),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn insert_is_idempotent() {
        let mut g = Graph::new();
        assert!(g.insert(st("a", "p", "x")));
        assert!(!g.insert(st("a", "p", "x")));
        assert_eq!(g.len(), 1);
        assert_eq!(g.dict().len(), 3, "each distinct term interned once");
    }

    #[test]
    fn remove_cleans_all_indexes() {
        let mut g = sample();
        assert!(g.remove(&st("a", "p", "x")));
        assert!(!g.remove(&st("a", "p", "x")));
        assert_eq!(g.len(), 4);
        assert!(!g.contains(&st("a", "p", "x")));
        assert!(g
            .match_pattern(Some(&Term::iri("a")), Some(&Term::iri("p")), None)
            .iter()
            .all(|m| m.object == Term::iri("y")));
        assert_eq!(g.match_pattern(None, None, Some(&Term::iri("x"))).len(), 2);
    }

    #[test]
    fn pattern_matching_all_shapes() {
        let g = sample();
        let a = Term::iri("a");
        let p = Term::iri("p");
        let x = Term::iri("x");
        assert_eq!(g.match_pattern(None, None, None).len(), 5);
        assert_eq!(g.match_pattern(Some(&a), None, None).len(), 3);
        assert_eq!(g.match_pattern(None, Some(&p), None).len(), 3);
        assert_eq!(g.match_pattern(None, None, Some(&x)).len(), 3);
        assert_eq!(g.match_pattern(Some(&a), Some(&p), None).len(), 2);
        assert_eq!(g.match_pattern(Some(&a), None, Some(&x)).len(), 2);
        assert_eq!(g.match_pattern(None, Some(&p), Some(&x)).len(), 2);
        assert_eq!(g.match_pattern(Some(&a), Some(&p), Some(&x)).len(), 1);
        assert!(g
            .match_pattern(Some(&Term::iri("zz")), None, None)
            .is_empty());
    }

    #[test]
    fn literals_as_objects() {
        let mut g = Graph::new();
        g.insert(Statement::new(
            Term::iri("s"),
            Term::iri("age"),
            Term::integer(42),
        ));
        let hits = g.match_pattern(None, None, Some(&Term::integer(42)));
        assert_eq!(hits.len(), 1);
        assert!(g
            .match_pattern(None, None, Some(&Term::integer(41)))
            .is_empty());
    }

    #[test]
    fn extend_from_counts_new_statements() {
        let mut g = sample();
        let other: Graph = vec![st("a", "p", "x"), st("c", "p", "x")]
            .into_iter()
            .collect();
        assert_eq!(g.extend_from(&other), 1);
        assert_eq!(g.len(), 6);
    }

    #[test]
    fn extend_from_shared_dict_skips_reinterning() {
        let mut g = sample();
        let mut other = Graph::with_dict(g.dict().clone());
        other.insert(st("a", "p", "x"));
        other.insert(st("c", "p", "x"));
        let dict_before = g.dict().len();
        assert_eq!(g.extend_from(&other), 1);
        assert_eq!(g.len(), 6);
        assert_eq!(
            g.dict().len(),
            dict_before,
            "shared-dictionary merge interns nothing new beyond other's inserts"
        );
        assert!(g.contains(&st("c", "p", "x")));
    }

    #[test]
    fn id_level_round_trip() {
        let mut g = Graph::new();
        let triple = g.intern_statement(&st("a", "p", "b"));
        assert!(g.insert_id(triple));
        assert!(g.contains_id(triple));
        assert_eq!(g.resolve(triple), st("a", "p", "b"));
        assert_eq!(g.lookup_statement(&st("a", "p", "b")), Some(triple));
        assert_eq!(g.lookup_statement(&st("a", "p", "zz")), None);
        assert!(g.remove_id(triple));
        assert!(!g.contains_id(triple));
        assert_eq!(g.match_pattern(None, None, None).len(), 0);
    }

    #[test]
    fn subject_object_arm_matches_filtered_scan() {
        // The (S, _, O) arm must return exactly what a full scan + filter
        // would, while actually routing through the OSP index.
        let mut g = sample();
        g.insert(st("a", "r", "x"));
        g.insert(Statement::new(
            Term::iri("a"),
            Term::iri("age"),
            Term::integer(7),
        ));
        let subjects = [Term::iri("a"), Term::iri("b"), Term::iri("zz")];
        let objects = [Term::iri("x"), Term::iri("z"), Term::integer(7)];
        for s in &subjects {
            for o in &objects {
                let via_arm = g.match_pattern(Some(s), None, Some(o));
                let via_filter: Vec<Statement> = g
                    .iter()
                    .filter(|t| &t.subject == s && &t.object == o)
                    .collect();
                assert_eq!(
                    via_arm.len(),
                    via_filter.len(),
                    "mismatch for ({s:?}, _, {o:?})"
                );
                for hit in &via_arm {
                    assert!(via_filter.contains(hit));
                }
            }
        }
        assert_eq!(
            g.match_pattern(Some(&Term::iri("a")), None, Some(&Term::iri("x")))
                .len(),
            3
        );
    }

    #[test]
    fn overlay_unions_base_and_extra() {
        let base = sample();
        let extra: Graph = vec![st("a", "p", "x"), st("c", "p", "w")]
            .into_iter()
            .collect();
        let view = Overlay::new(&base, &extra);
        let p = Term::iri("p");
        assert_eq!(view.find(None, Some(&p), None).len(), 4);
        assert!(view.has(&st("c", "p", "w")));
        assert!(view.has(&st("a", "q", "x")));
        assert!(!view.has(&st("c", "q", "w")));
        // Duplicates between base and extra are reported once.
        let a = Term::iri("a");
        let x = Term::iri("x");
        assert_eq!(view.find(Some(&a), Some(&p), Some(&x)).len(), 1);
    }

    #[test]
    fn overlay_id_queries_over_shared_dict() {
        let base = sample();
        let mut extra = Graph::with_dict(base.dict().clone());
        extra.insert(st("a", "p", "x"));
        extra.insert(st("c", "p", "w"));
        let view = Overlay::new(&base, &extra);
        let p = base.dict().lookup(&Term::iri("p")).unwrap();
        assert_eq!(view.find_ids(None, Some(p), None).len(), 4);
        let dup = base.lookup_statement(&st("a", "p", "x")).unwrap();
        assert!(view.has_id(dup));
    }

    #[test]
    fn iter_yields_every_statement_once() {
        let g = sample();
        let collected: Vec<Statement> = g.iter().collect();
        assert_eq!(collected.len(), 5);
        let round: Graph = collected.into_iter().collect();
        assert_eq!(round, g);
    }

    #[test]
    fn equality_is_independent_of_interning_order() {
        let mut g1 = Graph::new();
        g1.insert(st("a", "p", "b"));
        g1.insert(st("c", "q", "d"));
        let mut g2 = Graph::new();
        g2.insert(st("c", "q", "d"));
        g2.insert(st("a", "p", "b"));
        assert_eq!(g1, g2);
        g2.insert(st("e", "p", "f"));
        assert_ne!(g1, g2);
        // Same length, different contents.
        let mut g3 = Graph::new();
        g3.insert(st("a", "p", "b"));
        g3.insert(st("x", "q", "d"));
        assert_ne!(g1, g3);
    }
}
