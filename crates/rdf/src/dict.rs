//! Dictionary encoding of RDF terms.
//!
//! Triple stores that operate on strings pay for it on every comparison;
//! the standard fix (RDF-3X, Jena TDB) is a term dictionary that interns
//! each distinct [`Term`] once and gives it a small integer id. Graph
//! indexes then hold `(u32, u32, u32)` tuples — `Copy`, 12 bytes, O(1)
//! compares — and the reasoner joins never touch a string until results
//! are materialized at the API boundary.
//!
//! The id encodes the term *kind* in its two low bits, so the structural
//! checks the reasoners run in their hot loops (`is_resource`,
//! `is_iri`) are pure bit tests with no dictionary access at all.
//!
//! # Concurrency
//!
//! The dictionary is built for one-writer/many-readers traffic where
//! ingest interns new terms while result materialization resolves ids:
//!
//! * The **forward map** (term → id) is sharded by term hash across
//!   `SHARDS` independent `RwLock`ed hash maps, so lookups on distinct
//!   terms rarely contend and an intern only write-locks one shard.
//! * The **reverse store** (sequence number → term) is a lock-free
//!   chunked arena: a fixed array of chunk slots with doubling
//!   capacities, each slot a `OnceLock<Term>`. Chunks are allocated once
//!   and never move, so [`resolve_ref`](TermDict::resolve_ref) hands out
//!   `&Term` borrows with **no lock at all** — readers resolving result
//!   rows never block interning, and interning never blocks them.
//! * A single allocation mutex serializes id assignment, keeping ids a
//!   pure function of interning order (the WAL and snapshot replay
//!   protocol depends on exactly that).

use crate::model::{Statement, Term};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// A dictionary-encoded term id.
///
/// The low two bits tag the term kind (IRI / blank / literal); the high
/// 30 bits are the interning sequence number. Ids are only meaningful
/// relative to the [`TermDict`] that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct TermId(u32);

const KIND_IRI: u32 = 0;
const KIND_BLANK: u32 = 1;
const KIND_LITERAL: u32 = 2;

impl TermId {
    /// The smallest possible id (used as a range-scan lower bound).
    pub const MIN: TermId = TermId(0);
    /// The largest possible id (used as a range-scan upper bound).
    pub const MAX: TermId = TermId(u32::MAX);

    fn new(seq: usize, kind: u32) -> TermId {
        assert!(seq < (1 << 30), "term dictionary overflow (2^30 terms)");
        TermId((seq as u32) << 2 | kind)
    }

    pub(crate) fn seq(self) -> usize {
        (self.0 >> 2) as usize
    }

    /// The raw encoded id, for persistence (WAL / snapshot records).
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs an id from its persisted raw encoding. The caller is
    /// responsible for validating it against the dictionary it belongs to.
    pub(crate) fn from_raw(raw: u32) -> TermId {
        TermId(raw)
    }

    /// Whether the term is an IRI.
    pub fn is_iri(self) -> bool {
        self.0 & 0b11 == KIND_IRI
    }

    /// Whether the term is a blank node.
    pub fn is_blank(self) -> bool {
        self.0 & 0b11 == KIND_BLANK
    }

    /// Whether the term is a literal.
    pub fn is_literal(self) -> bool {
        self.0 & 0b11 == KIND_LITERAL
    }

    /// Whether the term may appear in subject position (IRI or blank).
    pub fn is_resource(self) -> bool {
        !self.is_literal()
    }
}

fn kind_of(term: &Term) -> u32 {
    match term {
        Term::Iri(_) => KIND_IRI,
        Term::Blank(_) => KIND_BLANK,
        Term::Literal(_) => KIND_LITERAL,
    }
}

/// A dictionary-encoded triple in `(subject, predicate, object)` order.
pub type IdTriple = (TermId, TermId, TermId);

/// Forward-map shard count. A power of two so routing is a mask.
const SHARDS: usize = 16;

/// Capacity of the first reverse-store chunk.
const CHUNK0: usize = 1 << 10;

/// Chunk slots: capacities double, so 21 chunks cover
/// `1024 · (2²¹ − 1) > 2³⁰` terms — the id encoding's own ceiling.
const MAX_CHUNKS: usize = 21;

/// Maps a sequence number to its `(chunk, offset)` in the reverse store.
fn locate(seq: usize) -> (usize, usize) {
    let n = seq / CHUNK0 + 1;
    let chunk = (usize::BITS - 1 - n.leading_zeros()) as usize;
    let base = CHUNK0 * ((1 << chunk) - 1);
    (chunk, seq - base)
}

fn chunk_capacity(chunk: usize) -> usize {
    CHUNK0 << chunk
}

#[derive(Debug)]
struct DictShared {
    /// Forward map: term → id, sharded by term hash.
    shards: [RwLock<HashMap<Term, TermId>>; SHARDS],
    /// Reverse store: chunked append-only arena, `seq → term`. Chunk
    /// backing storage never moves once allocated, so `&Term` borrows
    /// stay valid for the dictionary's lifetime.
    chunks: [OnceLock<Box<[OnceLock<Term>]>>; MAX_CHUNKS],
    /// Published term count. Store-`Release` after the slot is written;
    /// load-`Acquire` on the read side.
    len: AtomicUsize,
    /// Serializes id assignment so ids stay a pure function of
    /// interning order.
    alloc: Mutex<()>,
}

/// An append-only, thread-safe term dictionary.
///
/// Cloning is cheap (an `Arc` bump) and clones *share* the dictionary:
/// graphs derived from one another (a base and its inferred closure, the
/// materializer's three views) intern through the same table, so their id
/// spaces agree and joins across them are pure integer work. Ids are
/// never reused or invalidated — the dictionary only grows.
///
/// Reads ([`resolve`](TermDict::resolve), [`resolve_ref`](TermDict::resolve_ref),
/// [`resolve_all`](TermDict::resolve_all)) are lock-free; term→id lookups
/// contend only within one hash shard; interning serializes on a small
/// allocation mutex. See the module docs for the layout.
///
/// # Examples
///
/// ```
/// use cogsdk_rdf::{TermDict, Term};
///
/// let dict = TermDict::new();
/// let a = dict.intern(&Term::iri("ex:a"));
/// assert_eq!(dict.intern(&Term::iri("ex:a")), a, "interned once");
/// assert_eq!(dict.resolve(a), Term::iri("ex:a"));
/// assert!(a.is_iri() && a.is_resource());
/// assert!(dict.intern(&Term::integer(7)).is_literal());
/// ```
#[derive(Debug, Clone)]
pub struct TermDict {
    inner: Arc<DictShared>,
}

impl Default for TermDict {
    fn default() -> TermDict {
        TermDict {
            inner: Arc::new(DictShared {
                shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
                chunks: std::array::from_fn(|_| OnceLock::new()),
                len: AtomicUsize::new(0),
                alloc: Mutex::new(()),
            }),
        }
    }
}

impl TermDict {
    /// Creates an empty dictionary.
    pub fn new() -> TermDict {
        TermDict::default()
    }

    /// Whether `self` and `other` are the same dictionary (share storage).
    pub fn ptr_eq(&self, other: &TermDict) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::Acquire)
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(term: &Term) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        term.hash(&mut hasher);
        (hasher.finish() as usize) & (SHARDS - 1)
    }

    /// Interns a term, returning its id (existing or freshly assigned).
    pub fn intern(&self, term: &Term) -> TermId {
        let shard = &self.inner.shards[TermDict::shard_of(term)];
        if let Some(&id) = shard.read().expect("dict shard lock").get(term) {
            return id;
        }
        // All id assignment happens under the alloc mutex, so a re-probe
        // here sees any racing intern of the same term.
        let _alloc = self.inner.alloc.lock().expect("dict alloc lock");
        if let Some(&id) = shard.read().expect("dict shard lock").get(term) {
            return id;
        }
        let seq = self.inner.len.load(Ordering::Relaxed);
        let id = TermId::new(seq, kind_of(term));
        let (chunk_idx, offset) = locate(seq);
        let chunk = self.inner.chunks[chunk_idx].get_or_init(|| {
            (0..chunk_capacity(chunk_idx))
                .map(|_| OnceLock::new())
                .collect()
        });
        chunk[offset]
            .set(term.clone())
            .expect("reverse-store slot written exactly once");
        self.inner.len.store(seq + 1, Ordering::Release);
        shard
            .write()
            .expect("dict shard lock")
            .insert(term.clone(), id);
        id
    }

    /// Interns all three components of a statement.
    pub fn intern_statement(&self, st: &Statement) -> IdTriple {
        (
            self.intern(&st.subject),
            self.intern(&st.predicate),
            self.intern(&st.object),
        )
    }

    /// The id of an already-interned term, if any. Unlike
    /// [`intern`](Self::intern) this never grows the dictionary, so it is
    /// the right call for read-only constants (query terms, removal keys):
    /// an absent term simply cannot match anything.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.inner.shards[TermDict::shard_of(term)]
            .read()
            .expect("dict shard lock")
            .get(term)
            .copied()
    }

    /// Looks up all three components of a statement; `None` if any is
    /// unknown (the statement cannot be present in any graph over this
    /// dictionary).
    pub fn lookup_statement(&self, st: &Statement) -> Option<IdTriple> {
        Some((
            self.lookup(&st.subject)?,
            self.lookup(&st.predicate)?,
            self.lookup(&st.object)?,
        ))
    }

    /// The term behind an id, borrowed straight from the reverse store —
    /// no lock, no clone. The borrow is valid as long as the dictionary:
    /// chunks are allocated once and never move.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this dictionary.
    pub fn resolve_ref(&self, id: TermId) -> &Term {
        let seq = id.seq();
        assert!(
            seq < self.inner.len.load(Ordering::Acquire),
            "term id not issued by this dictionary"
        );
        let (chunk_idx, offset) = locate(seq);
        self.inner.chunks[chunk_idx]
            .get()
            .expect("chunk allocated before publish")[offset]
            .get()
            .expect("slot written before publish")
    }

    /// The term behind an id (an owned clone of
    /// [`resolve_ref`](Self::resolve_ref)).
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this dictionary.
    pub fn resolve(&self, id: TermId) -> Term {
        self.resolve_ref(id).clone()
    }

    /// Materializes a triple back into a [`Statement`].
    ///
    /// # Panics
    ///
    /// As for [`resolve`](Self::resolve).
    pub fn resolve_triple(&self, (s, p, o): IdTriple) -> Statement {
        Statement {
            subject: self.resolve_ref(s).clone(),
            predicate: self.resolve_ref(p).clone(),
            object: self.resolve_ref(o).clone(),
        }
    }

    /// Terms with sequence numbers `start..len()`, in interning order.
    ///
    /// Because ids are a pure function of interning order (sequence
    /// number plus kind tag), re-interning these terms in order into a
    /// fresh dictionary reproduces identical ids — which is how the
    /// snapshot writer and the WAL persist the dictionary.
    pub(crate) fn terms_from(&self, start: usize) -> Vec<Term> {
        let len = self.len();
        (start..len)
            .map(|seq| {
                let (chunk_idx, offset) = locate(seq);
                self.inner.chunks[chunk_idx].get().expect("chunk")[offset]
                    .get()
                    .expect("slot")
                    .clone()
            })
            .collect()
    }

    /// Materializes many triples. Lock-free: each term resolves straight
    /// from the reverse store, so a large result batch never blocks (or
    /// is blocked by) concurrent interning.
    pub fn resolve_all(&self, triples: &[IdTriple]) -> Vec<Statement> {
        triples
            .iter()
            .map(|&triple| self.resolve_triple(triple))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn intern_is_idempotent_and_resolve_round_trips() {
        let dict = TermDict::new();
        let terms = [
            Term::iri("ex:a"),
            Term::blank("b0"),
            Term::string("hello"),
            Term::integer(-3),
            Term::double(2.5),
            Term::boolean(false),
        ];
        let ids: Vec<TermId> = terms.iter().map(|t| dict.intern(t)).collect();
        for (term, &id) in terms.iter().zip(&ids) {
            assert_eq!(dict.intern(term), id);
            assert_eq!(dict.lookup(term), Some(id));
            assert_eq!(dict.resolve(id), *term);
            assert_eq!(dict.resolve_ref(id), term);
        }
        assert_eq!(dict.len(), terms.len());
    }

    #[test]
    fn kind_bits_classify_without_dictionary_access() {
        let dict = TermDict::new();
        assert!(dict.intern(&Term::iri("p")).is_iri());
        assert!(dict.intern(&Term::blank("b")).is_blank());
        assert!(dict.intern(&Term::blank("b")).is_resource());
        assert!(dict.intern(&Term::string("s")).is_literal());
        assert!(!dict.intern(&Term::string("s")).is_resource());
        assert!(!dict.intern(&Term::integer(1)).is_iri());
    }

    #[test]
    fn lookup_never_grows_the_dictionary() {
        let dict = TermDict::new();
        assert_eq!(dict.lookup(&Term::iri("missing")), None);
        assert!(dict.is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let dict = TermDict::new();
        let dict2 = dict.clone();
        let id = dict.intern(&Term::iri("ex:shared"));
        assert!(dict.ptr_eq(&dict2));
        assert_eq!(dict2.lookup(&Term::iri("ex:shared")), Some(id));
        let fresh = TermDict::new();
        assert!(!dict.ptr_eq(&fresh));
    }

    #[test]
    fn distinct_literals_stay_distinct() {
        let dict = TermDict::new();
        let d = dict.intern(&Term::double(1.0));
        let i = dict.intern(&Term::integer(1));
        assert_ne!(d, i, "double 1.0 and integer 1 are distinct terms");
    }

    #[test]
    fn ids_are_dense_in_interning_order() {
        let dict = TermDict::new();
        for i in 0..5000 {
            let id = dict.intern(&Term::iri(format!("ex:t{i}")));
            assert_eq!(id.seq(), i, "sequence numbers are dense");
        }
        assert_eq!(dict.terms_from(4998).len(), 2);
        assert_eq!(dict.terms_from(4998)[0], Term::iri("ex:t4998"));
    }

    #[test]
    fn chunk_location_math_covers_the_id_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(CHUNK0 - 1), (0, CHUNK0 - 1));
        assert_eq!(locate(CHUNK0), (1, 0));
        assert_eq!(locate(3 * CHUNK0 - 1), (1, 2 * CHUNK0 - 1));
        assert_eq!(locate(3 * CHUNK0), (2, 0));
        // Last representable seq fits inside the chunk table.
        let (chunk, offset) = locate((1 << 30) - 1);
        assert!(chunk < MAX_CHUNKS);
        assert!(offset < chunk_capacity(chunk));
    }

    #[test]
    fn concurrent_interning_agrees_across_threads() {
        let dict = TermDict::new();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let dict = dict.clone();
                thread::spawn(move || {
                    let mut ids = Vec::new();
                    for i in 0..500 {
                        // Half shared vocabulary, half thread-private.
                        let term = if i % 2 == 0 {
                            Term::iri(format!("ex:shared{}", i / 2))
                        } else {
                            Term::iri(format!("ex:t{t}_{i}"))
                        };
                        let id = dict.intern(&term);
                        // Readers resolve lock-free while others intern.
                        assert_eq!(dict.resolve_ref(id), &term);
                        ids.push((term, id));
                    }
                    ids
                })
            })
            .collect();
        let mut seen: HashMap<Term, TermId> = HashMap::new();
        for handle in threads {
            for (term, id) in handle.join().unwrap() {
                // Every thread got the same id for the same term.
                assert_eq!(*seen.entry(term).or_insert(id), id);
            }
        }
        assert_eq!(dict.len(), seen.len());
        // Ids are exactly 0..len in some order: dense, no gaps.
        let mut seqs: Vec<usize> = seen.values().map(|id| id.seq()).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..seen.len()).collect::<Vec<_>>());
    }
}
