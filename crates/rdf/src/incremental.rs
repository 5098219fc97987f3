//! Incremental materialization of the inferred closure.
//!
//! [`IncrementalMaterializer`] keeps the derived facts the fixpoint of the
//! stated ones across mutations. It stores no graph of its own: every
//! fact lives once in the store's epochs ([`crate::epoch`]), tagged
//! derived or not. A call reads the latest epoch plus its own changes,
//! and every public mutator ends by sealing them into the next epoch.
//!
//! * **Inserts** propagate forward semi-naively — only joins involving the
//!   new facts run, so per-batch cost is proportional to the change.
//! * **Deletes** use overdeletion/rederivation (DRed), once per batch:
//!   consequences of the removed facts are overdeleted against the
//!   pre-deletion view, then facts with surviving alternative derivations
//!   are rederived.
//!
//! Rulesets (RDFS, OWL/Lite, extra transitive predicates, user rules,
//! weighted rules) are *standing*: once enabled they are maintained on
//! every mutation. Enabling one
//! ([`configure`](IncrementalMaterializer::configure)) derives its
//! conclusions over the facts already present within the same call, so
//! every epoch is the fixpoint of its rules. All maintenance is id-triple
//! work over one term dictionary.
//!
//! Every fact has a level (§5's accuracy level) in the (max, ·) semiring
//! of provenance annotations: a stated fact keeps the level it was stated
//! at, and a derived one takes the best of its derivations — 1.0 from any
//! plain ruleset, `strength × min(premise levels)` from a weighted rule. A
//! level that rises propagates semi-naively like a new fact; one that
//! falls is re-derived by the batch's DRed round like a retraction.

use crate::dict::{IdTriple, TermDict, TermId};
use crate::epoch::{EpochSnapshot, EpochWriter, Fact};
use crate::graph::{Graph, TripleView};
use crate::model::{Statement, Term};
use crate::owl::owl_delta;
use crate::reason::{
    compile_rule, compile_rules, fire, rdfs_delta, rules_delta, transitive_delta, IdRule, Rule,
    VocabIds,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Which entailment rules the materializer maintains.
#[derive(Debug, Clone, Default)]
pub struct MaterializerConfig {
    /// RDFS subset (rdfs2/3/5/7/9/11).
    pub rdfs: bool,
    /// OWL/Lite subset (inverseOf, symmetric/transitive/functional
    /// properties, sameAs smushing). Implies `rdfs` when enabled through
    /// [`IncrementalMaterializer::configure`], matching
    /// [`crate::OwlLiteReasoner::new`].
    pub owl: bool,
    /// Extra predicates closed under transitivity.
    pub transitive: Vec<Term>,
    /// Standing user-defined rules.
    pub rules: Vec<Rule>,
    /// Standing weighted rules, each with its strength in `(0, 1]`: a
    /// conclusion's level is `strength × min(premise levels)`.
    pub weighted: Vec<(Rule, f64)>,
}

impl MaterializerConfig {
    pub(crate) fn is_active(&self) -> bool {
        let plain = self.rdfs || self.owl || !self.transitive.is_empty();
        plain || !self.rules.is_empty() || !self.weighted.is_empty()
    }

    /// Adds `delta` to this configuration and returns the parts that were
    /// new, in `delta`'s order: OWL (which implies RDFS), RDFS, each
    /// transitive predicate and rule not yet present, and each weighted
    /// rule not yet standing at the same strength. An empty result changed
    /// nothing.
    pub(crate) fn merge(&mut self, delta: MaterializerConfig) -> MaterializerConfig {
        let rdfs = delta.rdfs || delta.owl;
        let new = MaterializerConfig {
            rdfs: rdfs && !self.rdfs,
            owl: delta.owl && !self.owl,
            transitive: append_new(&mut self.transitive, delta.transitive),
            rules: append_new(&mut self.rules, delta.rules),
            weighted: append_new(&mut self.weighted, delta.weighted),
        };
        (self.rdfs, self.owl) = (self.rdfs || rdfs, self.owl || delta.owl);
        new
    }

    /// Compiles the configuration against a dictionary: vocabulary and
    /// transitive predicates resolve to ids, user rules to constant-id /
    /// variable-index form. Cheap (a handful of interns), so it is done
    /// per mutating call rather than cached across config edits.
    fn compile(&self, dict: &TermDict) -> CompiledRules {
        CompiledRules {
            rdfs: self.rdfs,
            owl: self.owl,
            vocab: (self.rdfs || self.owl).then(|| VocabIds::new(dict)),
            transitive: self.transitive.iter().map(|t| dict.intern(t)).collect(),
            rules: compile_rules(&self.rules, dict),
            weighted: (self.weighted.iter())
                .map(|(rule, strength)| (compile_rule(rule, dict), *strength))
                .collect(),
        }
    }
}

/// Appends each item of `delta` that `have` lacks; returns those items.
fn append_new<T: PartialEq + Clone>(have: &mut Vec<T>, delta: Vec<T>) -> Vec<T> {
    let from = have.len();
    for item in delta {
        if !have.contains(&item) {
            have.push(item);
        }
    }
    have[from..].to_vec()
}

/// Panics unless every weighted rule of `config` has a strength in
/// `(0, 1]`; a store checks this before it logs anything.
pub(crate) fn check_strengths(config: &MaterializerConfig) {
    assert!(
        (config.weighted.iter()).all(|&(_, s)| s > 0.0 && s <= 1.0),
        "rule strength must be in (0, 1]"
    );
}

/// A [`MaterializerConfig`] lowered onto one dictionary.
#[derive(Debug, Clone)]
struct CompiledRules {
    rdfs: bool,
    owl: bool,
    vocab: Option<VocabIds>,
    transitive: Vec<TermId>,
    rules: Vec<IdRule>,
    weighted: Vec<(IdRule, f64)>,
}

impl CompiledRules {
    /// One delta round over the combined active rulesets.
    fn delta(&self, view: &dyn TripleView, delta: &[IdTriple]) -> Vec<IdTriple> {
        let mut out = Vec::new();
        if let Some(v) = &self.vocab {
            if self.rdfs {
                out.extend(rdfs_delta(v, view, delta));
            }
            if self.owl {
                out.extend(owl_delta(v, view, delta));
            }
        }
        if !self.transitive.is_empty() {
            out.extend(transitive_delta(&self.transitive, view, delta));
        }
        if !self.rules.is_empty() {
            out.extend(rules_delta(&self.rules, view, delta));
        }
        out
    }

    /// One delta round over every ruleset, each conclusion at its level:
    /// 1.0 for the plain rulesets, `strength × min(premise levels)` for a
    /// weighted rule, the levels read off `store`.
    fn leveled(&self, store: &EpochWriter, delta: &[IdTriple]) -> Vec<(IdTriple, f64)> {
        let plain = self.delta(store, delta).into_iter().map(|t| (t, 1.0));
        let mut out: Vec<(IdTriple, f64)> = plain.collect();
        let level = |t| store.state(t).map_or(1.0, |(_, level)| level);
        for (rule, strength) in &self.weighted {
            fire(rule, store, delta, &level, &mut |t, low| {
                out.push((t, strength * low))
            });
        }
        out
    }
}

/// Maintains the stated facts' closure under the configured rules, in
/// the store's epochs.
///
/// # Examples
///
/// ```
/// use cogsdk_rdf::{IncrementalMaterializer, MaterializerConfig, Statement, Term};
///
/// let mut m = IncrementalMaterializer::new();
/// m.configure(MaterializerConfig { rdfs: true, ..Default::default() });
/// let sub = Term::iri("rdfs:subClassOf");
/// m.insert(Statement::new(Term::iri("ex:cat"), sub.clone(), Term::iri("ex:mammal")));
/// m.insert(Statement::new(Term::iri("ex:mammal"), sub.clone(), Term::iri("ex:animal")));
/// // The closure is maintained as facts arrive — no re-materialization.
/// assert!(m.contains(&Statement::new(Term::iri("ex:cat"), sub, Term::iri("ex:animal"))));
/// ```
#[derive(Debug)]
pub struct IncrementalMaterializer {
    config: MaterializerConfig,
    /// Every fact, stated and derived: the latest epoch plus the changes
    /// of the call in progress.
    store: EpochWriter,
}

impl Default for IncrementalMaterializer {
    fn default() -> IncrementalMaterializer {
        IncrementalMaterializer::new()
    }
}

impl IncrementalMaterializer {
    /// An empty materializer with no rulesets enabled.
    pub fn new() -> IncrementalMaterializer {
        let empty = EpochSnapshot::stated(0, TermDict::new(), Vec::new());
        IncrementalMaterializer::over(empty, MaterializerConfig::default())
    }

    fn over(epoch: EpochSnapshot, config: MaterializerConfig) -> IncrementalMaterializer {
        IncrementalMaterializer {
            store: EpochWriter::new(epoch, config.is_active()),
            config,
        }
    }

    /// The recovered store, sealed as epoch 0: `stated` (strictly
    /// ascending, unweighted) with `replayed` on top — each triple's net
    /// state, `Some(confidence)` for stated — and the closure of `config`
    /// re-derived. Returns it with its stated count and how many facts
    /// were re-derived.
    pub(crate) fn recover(
        dict: TermDict,
        stated: Vec<IdTriple>,
        replayed: HashMap<IdTriple, Option<f64>>,
        config: MaterializerConfig,
    ) -> (IncrementalMaterializer, usize, usize) {
        let epoch = EpochSnapshot::stated(0, dict, stated);
        let mut m = IncrementalMaterializer::over(epoch, config);
        for (triple, held) in replayed {
            if let Some(confidence) = held {
                m.store.weigh(triple, confidence, true);
            } else {
                m.store.replace(triple, None);
            }
        }
        let rederived = m.derive_all().len();
        m.store.seal_as(0);
        // Everything derived was derived just now.
        let stated = m.len() - rederived;
        (m, stated, rederived)
    }

    /// The latest epoch: every fact, stated and derived. Every public
    /// mutator ends by sealing its changes into a new one.
    pub fn epoch(&self) -> &Arc<EpochSnapshot> {
        self.store.epoch()
    }

    /// Number of facts in the latest epoch.
    pub fn len(&self) -> usize {
        self.store.epoch().len()
    }

    /// Whether the full view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the full view contains the statement.
    pub fn contains(&self, st: &Statement) -> bool {
        let triple = self.store.dict().lookup_statement(st);
        triple.is_some_and(|t| self.store.has_id(t))
    }

    /// Adds the rulesets of `delta` that are new — OWL (which implies
    /// RDFS), RDFS, each transitive predicate and rule not yet present, each
    /// weighted rule not yet standing at its strength — and derives their
    /// conclusions over the facts already present, in one call and at most
    /// one epoch. Returns the facts this derived; an empty or repeated `delta`
    /// changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if a weighted rule's strength is outside `(0, 1]`.
    pub fn configure(&mut self, delta: MaterializerConfig) -> Vec<IdTriple> {
        check_strengths(&delta);
        if !self.config.merge(delta).is_active() {
            return Vec::new();
        }
        self.store.index_adds(true);
        // On an empty store there is nothing to derive from, and the
        // rules' vocabulary is interned by the first call that needs it.
        let added = (!self.is_empty()).then(|| self.derive_all());
        self.store.seal();
        added.unwrap_or_default()
    }

    /// The active configuration.
    pub fn config(&self) -> &MaterializerConfig {
        &self.config
    }

    /// Runs the rules forward from `seed` (facts in the view that are new
    /// or at a higher level) to fixpoint, semi-naively: a fact joins the
    /// next round when it is derived or its level rises. Returns the facts
    /// newly derived.
    fn derive_from(&mut self, compiled: &CompiledRules, seed: Vec<IdTriple>) -> Vec<IdTriple> {
        let (mut new, mut delta) = (Vec::new(), seed);
        while !delta.is_empty() {
            let mut next = Vec::new();
            for (t, level) in compiled.leveled(&self.store, &delta) {
                let Some(fresh) = self.store.derive_at(t, level) else {
                    continue;
                };
                if fresh {
                    new.push(t);
                }
                next.push(t);
            }
            if !compiled.weighted.is_empty() {
                // A fact that rose twice in a round joins the next once.
                next.sort_unstable();
                next.dedup();
            }
            delta = next;
        }
        new
    }

    /// Inserts a stated fact and propagates its consequences forward.
    /// Returns whether the fact was new to the full view.
    pub fn insert(&mut self, st: Statement) -> bool {
        self.insert_batch([st]) == 1
    }

    /// Inserts a batch and propagates once over the whole batch delta.
    /// Returns how many facts were new to the full view. Each statement
    /// is interned once, then the batch takes the
    /// [`insert_ids`](Self::insert_ids) path.
    pub fn insert_batch(&mut self, batch: impl IntoIterator<Item = Statement>) -> usize {
        let dict = self.store.dict().clone();
        let ids: Vec<IdTriple> = batch
            .into_iter()
            .map(|st| dict.intern_statement(&st))
            .collect();
        self.insert_ids(&ids)
    }

    /// [`insert_batch`](Self::insert_batch) for triples already interned
    /// into the epochs' dictionary ([`EpochSnapshot::dict`]).
    pub fn insert_ids(&mut self, batch: &[IdTriple]) -> usize {
        let staged = self.stage_stated(batch);
        self.seal_stated(&staged)
    }

    /// Marks `batch` stated within the call in progress. Returns each
    /// triple that changed, with its state before, in first-occurrence
    /// order: a duplicate or an already stated triple changes nothing.
    /// The batch is sorted once and each distinct triple staged once, so
    /// a repeat costs no second probe, and a triple naming a term minted
    /// since the last seal costs none at all. The call ends with
    /// [`seal_stated`](Self::seal_stated) or [`discard`](Self::discard).
    pub(crate) fn stage_stated(&mut self, batch: &[IdTriple]) -> Vec<(IdTriple, Option<Fact>)> {
        let dict_len = self.store.dict().len();
        let mut sorted: Vec<(IdTriple, u32)> = batch.iter().copied().zip(0..).collect();
        sorted.sort_unstable();
        sorted.dedup_by_key(|&mut (t, _)| t);
        let (triples, first_at): (Vec<IdTriple>, Vec<u32>) = sorted.into_iter().unzip();
        assert!(
            triples
                .iter()
                .all(|t| [t.0, t.1, t.2].iter().all(|id| id.seq() < dict_len)),
            "id triple not interned into the store's dictionary"
        );
        let before = self.store.replace_sorted(&triples, Fact::Stated);
        let mut staged: Vec<(u32, IdTriple, Option<Fact>)> = first_at
            .into_iter()
            .zip(triples)
            .zip(before)
            .filter(|&(_, before)| before != Some(Fact::Stated))
            .map(|((at, t), before)| (at, t, before))
            .collect();
        staged.sort_unstable_by_key(|&(at, ..)| at);
        staged
            .into_iter()
            .map(|(_, t, before)| (t, before))
            .collect()
    }

    /// Propagates from the staged triples that were absent and seals the
    /// call. A previously derived fact that is now stated is only
    /// retagged: the view already has it, and only under weighted rules,
    /// where its level may have risen to 1.0, does it propagate. Returns
    /// how many facts were new to the full view.
    pub(crate) fn seal_stated(&mut self, staged: &[(IdTriple, Option<Fact>)]) -> usize {
        let levels = !self.config.weighted.is_empty();
        let seed: Vec<IdTriple> = staged
            .iter()
            .filter_map(|&(t, before)| (before.is_none() || levels).then_some(t))
            .collect();
        self.seal_changes(&[], seed);
        staged.iter().filter(|(_, before)| before.is_none()).count()
    }

    /// Maintains the closure over the call's stated changes — see
    /// [`maintain`](Self::maintain) — and seals the call.
    fn seal_changes(&mut self, lowered: &[IdTriple], seed: Vec<IdTriple>) {
        if self.config.is_active() {
            self.maintain(&[], lowered, seed);
        }
        self.store.seal();
    }

    /// [`EpochWriter::weigh`] within the call in progress, which ends with
    /// [`seal_weighed`](Self::seal_weighed) or [`discard`](Self::discard).
    pub(crate) fn weigh(
        &mut self,
        triple: IdTriple,
        c: f64,
        insert: bool,
    ) -> Option<(Option<Fact>, f64)> {
        self.store.weigh(triple, c, insert)
    }

    /// Seals the weighted assertions [weighed](Self::weigh) in the call,
    /// each triple with its state before. New facts propagate; under
    /// weighted rules, so does a fact whose level rose since the last
    /// epoch, and one whose level fell re-derives what rests on it in one
    /// DRed round. Returns how many facts were new to the full view.
    pub(crate) fn seal_weighed(&mut self, staged: &[(IdTriple, Option<Fact>)]) -> usize {
        if self.config.weighted.is_empty() {
            return self.seal_stated(staged);
        }
        let (mut seed, mut lowered) = (Vec::new(), Vec::new());
        for &(t, _) in staged {
            let now = self.store.state(t).map_or(1.0, |(_, level)| level);
            match self.store.epoch().confidence_of(t) {
                Some(was) if was > now => lowered.push(t),
                Some(was) if was == now => {}
                _ => seed.push(t),
            }
        }
        self.seal_changes(&lowered, seed);
        staged.iter().filter(|(_, before)| before.is_none()).count()
    }

    /// Drops the changes of the call in progress, sealing nothing.
    pub(crate) fn discard(&mut self) {
        self.store.discard();
    }

    /// Removes a fact; see [`remove_batch`](Self::remove_batch). Returns
    /// whether the fact was present in the full view.
    pub fn remove(&mut self, st: &Statement) -> bool {
        self.remove_batch([st]) == 1
    }

    /// Removes facts using DRed, once for the whole batch: consequences
    /// are overdeleted against the pre-deletion view, then facts with
    /// surviving alternative derivations are rederived (including a
    /// removed fact itself, if it is still entailed by what remains).
    /// Returns how many distinct facts were present in the full view.
    pub fn remove_batch<'a>(&mut self, batch: impl IntoIterator<Item = &'a Statement>) -> usize {
        let present = self.resolve_present(batch);
        self.remove_present(&present)
    }

    /// The distinct facts of `batch` the full view holds, with their
    /// tags, in first-occurrence order: one membership probe each.
    pub(crate) fn resolve_present<'a>(
        &self,
        batch: impl IntoIterator<Item = &'a Statement>,
    ) -> Vec<(IdTriple, Fact)> {
        let mut seen = BTreeSet::new();
        let ids = batch
            .into_iter()
            .filter_map(|st| self.store.dict().lookup_statement(st));
        let distinct = ids.filter(|&t| seen.insert(t));
        distinct
            .filter_map(|t| Some((t, self.store.state(t)?.0)))
            .collect()
    }

    /// [`remove_batch`](Self::remove_batch) for facts just
    /// [resolved](Self::resolve_present). Returns how many there were.
    pub(crate) fn remove_present(&mut self, present: &[(IdTriple, Fact)]) -> usize {
        self.maintain(present, &[], Vec::new());
        self.store.seal();
        present.len()
    }

    /// Maintains the closure over the call's stated changes, with at most
    /// one DRed round: the `gone` facts (present, with their tags) leave
    /// the view, and the `lowered` ones stay at a lower level than their
    /// consequences were drawn at. Everything derived, transitively, from
    /// either is overdeleted against the view as it stands; one naive round
    /// re-derives each suspect fact that still has a derivation, at its
    /// best level; and semi-naive propagation from those and from `seed`
    /// (facts new, or at a higher level) restores the rest.
    fn maintain(
        &mut self,
        gone: &[(IdTriple, Fact)],
        lowered: &[IdTriple],
        mut seed: Vec<IdTriple>,
    ) {
        let removed: BTreeSet<IdTriple> = gone.iter().map(|&(t, _)| t).collect();
        let changed = !removed.is_empty() || !lowered.is_empty() || !seed.is_empty();
        let compiled =
            (changed && self.config.is_active()).then(|| self.config.compile(self.store.dict()));
        // Overdeletion cascade against the pre-deletion view: everything
        // derived (transitively) using a removed or lowered fact is suspect.
        let mut overdeleted: BTreeSet<IdTriple> = BTreeSet::new();
        if let Some(compiled) = &compiled {
            let mut frontier: Vec<IdTriple> = removed.iter().chain(lowered).copied().collect();
            while !frontier.is_empty() {
                frontier = compiled
                    .leveled(&self.store, &frontier)
                    .into_iter()
                    .filter(|&(c, _)| {
                        matches!(self.store.state(c), Some((Fact::Derived, _)))
                            && !removed.contains(&c)
                            && overdeleted.insert(c)
                    })
                    .map(|(c, _)| c)
                    .collect();
            }
        }
        for &(t, fact) in gone {
            self.store.replace_known(t, Some(fact), None);
        }
        for &t in &overdeleted {
            self.store.replace_known(t, Some(Fact::Derived), None);
        }
        // Rederivation: one naive round over what remains picks up every
        // suspect fact that still has a one-step derivation; semi-naive
        // propagation from those seeds restores the rest of the closure.
        if let Some(compiled) = &compiled {
            if !overdeleted.is_empty() || !removed.is_empty() {
                let all = self.store.find_ids(None, None, None);
                for (c, level) in compiled.leveled(&self.store, &all) {
                    let suspect = overdeleted.contains(&c) || removed.contains(&c);
                    if suspect && self.store.derive_at(c, level).is_some() {
                        seed.push(c);
                    }
                }
                seed.sort_unstable();
                seed.dedup();
            }
            if !seed.is_empty() {
                self.derive_from(compiled, seed);
            }
        }
    }

    /// Derives the closure of the configuration over every fact in the
    /// view, within the call in progress. Returns the facts newly derived.
    fn derive_all(&mut self) -> Vec<IdTriple> {
        if !self.config.is_active() {
            return Vec::new();
        }
        let compiled = self.config.compile(self.store.dict());
        self.derive_from(&compiled, self.store.find_ids(None, None, None))
    }

    /// Replaces all facts with `graph` as the stated ones and drops every
    /// confidence, keeping the configuration, whose closure is derived
    /// before the next epoch is sealed. The materializer adopts `graph`'s
    /// dictionary.
    pub fn reset(&mut self, graph: Graph) {
        let number = self.epoch().epoch() + 1;
        let stated = graph.iter_ids().collect();
        let epoch = EpochSnapshot::stated(number, graph.dict().clone(), stated);
        self.store.restart(epoch);
        self.derive_all();
        self.store.seal_as(number);
    }

    /// Membership probes made against sealed epochs; see
    /// [`DurableStore::membership_probes`](crate::DurableStore::membership_probes).
    pub(crate) fn membership_probes(&self) -> u64 {
        self.store.probes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::vocab;
    use crate::reason::{GenericRuleReasoner, RdfsReasoner, TransitiveReasoner};
    use cogsdk_sim::rng::Rng;

    fn st(s: &str, p: &str, o: &str) -> Statement {
        Statement::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn rdfs() -> MaterializerConfig {
        MaterializerConfig {
            rdfs: true,
            ..Default::default()
        }
    }

    fn transitive(p: &str) -> MaterializerConfig {
        MaterializerConfig {
            transitive: vec![Term::iri(p)],
            ..Default::default()
        }
    }

    fn rules(text: &str) -> MaterializerConfig {
        let rules = GenericRuleReasoner::from_rules_text(text).unwrap();
        MaterializerConfig {
            rules: rules.rules().to_vec(),
            ..Default::default()
        }
    }

    #[test]
    fn inserts_maintain_rdfs_closure() {
        let mut m = IncrementalMaterializer::new();
        m.configure(rdfs());
        m.insert(st("cat", vocab::SUB_CLASS_OF, "mammal"));
        m.insert(st("tom", vocab::TYPE, "cat"));
        assert!(m.contains(&st("tom", vocab::TYPE, "mammal")));
        // A later schema extension re-types existing instances.
        m.insert(st("mammal", vocab::SUB_CLASS_OF, "animal"));
        assert!(m.contains(&st("tom", vocab::TYPE, "animal")));
        assert!(m.contains(&st("cat", vocab::SUB_CLASS_OF, "animal")));
    }

    /// The stated facts of `m`'s latest epoch, as a graph.
    fn stated(m: &IncrementalMaterializer) -> Graph {
        let epoch = m.epoch();
        epoch
            .stated_ids()
            .map(|t| epoch.dict().resolve_triple(t))
            .collect()
    }

    #[test]
    fn stated_and_derived_tags_track_mutations() {
        let mut m = IncrementalMaterializer::new();
        m.configure(rdfs());
        m.insert(st("cat", vocab::SUB_CLASS_OF, "mammal"));
        m.insert(st("tom", vocab::TYPE, "cat"));
        let derived = st("tom", vocab::TYPE, "mammal");
        let id = |m: &IncrementalMaterializer| m.epoch().dict().lookup_statement(&derived).unwrap();
        assert_eq!(m.epoch().state(id(&m)), Some(Fact::Derived));
        // Stating a derived fact retags it: one more epoch, same facts.
        let before = m.epoch().epoch();
        assert!(!m.insert(derived.clone()), "already in the view");
        assert_eq!(m.epoch().epoch(), before + 1);
        assert_eq!(m.epoch().state(id(&m)), Some(Fact::Stated));
        assert_eq!(m.len(), 3);
        // Un-stating it while it is still entailed retags it back.
        assert!(m.remove(&derived));
        assert_eq!(m.epoch().state(id(&m)), Some(Fact::Derived));
        assert_eq!(stated(&m).len(), 2);
    }

    #[test]
    fn incremental_equals_from_scratch_rdfs() {
        let mut m = IncrementalMaterializer::new();
        m.configure(rdfs());
        let facts = [
            st("p", vocab::SUB_PROPERTY_OF, "q"),
            st("q", vocab::DOMAIN, "C"),
            st("C", vocab::SUB_CLASS_OF, "D"),
            st("s", "p", "o"),
        ];
        for f in &facts {
            m.insert(f.clone());
        }
        let stated: Graph = facts.iter().cloned().collect();
        let mut scratch = stated.clone();
        scratch.extend_from(&RdfsReasoner::new().infer(&stated));
        assert_eq!(m.epoch().to_graph(), scratch);
    }

    #[test]
    fn delete_retracts_consequences() {
        let mut m = IncrementalMaterializer::new();
        m.configure(rdfs());
        m.insert(st("cat", vocab::SUB_CLASS_OF, "mammal"));
        m.insert(st("tom", vocab::TYPE, "cat"));
        assert!(m.contains(&st("tom", vocab::TYPE, "mammal")));
        assert!(m.remove(&st("tom", vocab::TYPE, "cat")));
        assert!(!m.contains(&st("tom", vocab::TYPE, "mammal")));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn delete_keeps_alternative_derivations() {
        let mut m = IncrementalMaterializer::new();
        m.configure(transitive("sub"));
        m.insert(st("a", "sub", "b"));
        m.insert(st("b", "sub", "c"));
        m.insert(st("b", "sub", "d"));
        m.insert(st("d", "sub", "c"));
        // (a sub c) is derivable via b→c directly and via b→d→c.
        assert!(m.contains(&st("a", "sub", "c")));
        assert!(m.remove(&st("b", "sub", "c")));
        assert!(
            m.contains(&st("a", "sub", "c")),
            "alternative path survives"
        );
        let base_now = stated(&m);
        let mut scratch = base_now.clone();
        scratch.extend_from(&TransitiveReasoner::new(vec![Term::iri("sub")]).infer(&base_now));
        assert_eq!(m.epoch().to_graph(), scratch);
    }

    #[test]
    fn removed_stated_fact_resurfaces_if_entailed() {
        let mut m = IncrementalMaterializer::new();
        m.configure(transitive("sub"));
        m.insert(st("a", "sub", "b"));
        m.insert(st("b", "sub", "c"));
        m.insert(st("a", "sub", "c")); // stated AND entailed
        assert!(m.remove(&st("a", "sub", "c")));
        // From-scratch semantics: the fact is still entailed by the chain.
        assert!(m.contains(&st("a", "sub", "c")));
        assert!(
            !stated(&m).contains(&st("a", "sub", "c")),
            "no longer stated"
        );
    }

    /// The level of `st` in `m`'s latest epoch, if present.
    fn level(m: &IncrementalMaterializer, st: &Statement) -> Option<f64> {
        let epoch = m.epoch();
        epoch.confidence_of(epoch.dict().lookup_statement(st)?)
    }

    #[test]
    fn weighted_levels_dilute_along_chains_and_take_the_best_derivation() {
        let mut m = IncrementalMaterializer::new();
        let chain = rules(
            "[(?x parent ?y) -> (?x ancestor ?y)]\n\
             [(?x parent ?y), (?y ancestor ?z) -> (?x ancestor ?z)]\n\
             [(?x ancestor ?y) -> (?y descendant_of ?x)]\n\
             [(?y descendant_of ?x) -> (?x ancestor ?y)]",
        );
        m.configure(MaterializerConfig {
            weighted: chain.rules.into_iter().map(|r| (r, 0.9)).collect(),
            ..Default::default()
        });
        for (s, o) in [("a", "b"), ("b", "c"), ("c", "d")] {
            m.insert(st(s, "parent", o));
        }
        // Each hop multiplies by the strength; the cycle through
        // `descendant_of` never beats the direct derivation, and ends.
        assert_eq!(level(&m, &st("a", "ancestor", "b")), Some(0.9));
        assert_eq!(level(&m, &st("a", "ancestor", "c")), Some(0.9 * 0.9));
        assert_eq!(
            level(&m, &st("a", "ancestor", "d")),
            Some(0.9 * (0.9 * 0.9))
        );
        assert_eq!(level(&m, &st("b", "descendant_of", "a")), Some(0.9 * 0.9));
        // A plain rule's derivation is worth 1.0 and wins.
        m.configure(rules("[(?x parent ?y) -> (?x ancestor ?y)]"));
        assert_eq!(level(&m, &st("a", "ancestor", "b")), Some(1.0));
        assert_eq!(level(&m, &st("a", "ancestor", "c")), Some(0.9));
        // Stated, a fact takes its stated level over its derivations.
        m.insert(st("a", "ancestor", "d"));
        assert_eq!(level(&m, &st("a", "ancestor", "d")), Some(1.0));
    }

    #[test]
    fn standing_rules_fire_on_later_ingests() {
        let mut m = IncrementalMaterializer::new();
        m.configure(rules(
            "[(?a parent ?b), (?b parent ?c) -> (?a grandparent ?c)]",
        ));
        m.insert(st("alice", "parent", "bob"));
        assert!(!m.contains(&st("alice", "grandparent", "carol")));
        m.insert(st("bob", "parent", "carol"));
        assert!(m.contains(&st("alice", "grandparent", "carol")));
    }

    #[test]
    fn enabling_rules_late_derives_within_the_call() {
        let mut m = IncrementalMaterializer::new();
        m.insert(st("cat", vocab::SUB_CLASS_OF, "mammal"));
        m.insert(st("tom", vocab::TYPE, "cat"));
        assert!(!m.contains(&st("tom", vocab::TYPE, "mammal")));
        let before = m.epoch().epoch();
        assert_eq!(m.configure(rdfs()).len(), 1);
        assert!(m.contains(&st("tom", vocab::TYPE, "mammal")));
        assert_eq!(m.epoch().epoch(), before + 1, "one epoch");
        // A repeated or empty delta changes nothing.
        assert!(m.configure(rdfs()).is_empty());
        assert!(m.configure(MaterializerConfig::default()).is_empty());
        assert_eq!(m.epoch().epoch(), before + 1);
        // Later facts extend the closure.
        m.insert(st("felix", vocab::TYPE, "cat"));
        assert!(m.contains(&st("felix", vocab::TYPE, "mammal")));
    }

    #[test]
    fn merge_returns_only_the_new_parts() {
        let rule = |text: &str| rules(text).rules.remove(0);
        let (r, q) = (
            rule("[(?x p ?y) -> (?y q ?x)]"),
            rule("[(?x q ?y) -> (?x r ?y)]"),
        );
        let mut config = MaterializerConfig {
            transitive: vec![Term::iri("sub")],
            rules: vec![r.clone()],
            weighted: vec![(q.clone(), 0.5)],
            ..rdfs()
        };
        let new = config.merge(MaterializerConfig {
            owl: true,
            transitive: vec![Term::iri("sub"), Term::iri("part"), Term::iri("part")],
            rules: vec![r.clone(), q.clone()],
            weighted: vec![(q.clone(), 0.5), (q.clone(), 0.7), (r.clone(), 0.7)],
            ..rdfs()
        });
        assert!(new.owl && !new.rdfs, "OWL is new, RDFS stood already");
        assert_eq!(new.transitive, vec![Term::iri("part")]);
        assert_eq!(new.rules, vec![q.clone()]);
        assert_eq!(new.weighted, vec![(q.clone(), 0.7), (r.clone(), 0.7)]);
        assert!(config.owl && config.rdfs);
        assert_eq!(config.transitive.len(), 2);
        assert_eq!(config.weighted.len(), 3);
        // OWL implies RDFS; merging the same delta again adds nothing.
        let mut fresh = MaterializerConfig::default();
        let owl = MaterializerConfig {
            owl: true,
            ..Default::default()
        };
        let new = fresh.merge(owl.clone());
        assert!(new.owl && new.rdfs && fresh.rdfs);
        assert!(!fresh.merge(owl).is_active());
    }

    #[test]
    fn owl_closure_maintained_incrementally() {
        let mut m = IncrementalMaterializer::new();
        m.configure(MaterializerConfig {
            owl: true,
            ..Default::default()
        });
        m.insert(st("hasParent", vocab::INVERSE_OF, "hasChild"));
        m.insert(st("alice", "hasParent", "bob"));
        assert!(m.contains(&st("bob", "hasChild", "alice")));
        m.insert(st("usa", vocab::SAME_AS, "united_states"));
        m.insert(st("usa", "capital", "washington"));
        assert!(m.contains(&st("united_states", "capital", "washington")));
    }

    #[test]
    fn reset_replaces_contents_and_derives_their_closure() {
        let mut m = IncrementalMaterializer::new();
        m.configure(rdfs());
        m.insert(st("x", vocab::TYPE, "C"));
        let mut g = Graph::new();
        g.insert(st("cat", vocab::SUB_CLASS_OF, "mammal"));
        g.insert(st("tom", vocab::TYPE, "cat"));
        let before = m.epoch().epoch();
        m.reset(g);
        assert_eq!(m.epoch().epoch(), before + 1, "one epoch");
        assert_eq!(
            m.epoch().delta_runs(),
            1,
            "a fresh base and what it derived"
        );
        assert!(!m.contains(&st("x", vocab::TYPE, "C")));
        assert!(m.contains(&st("tom", vocab::TYPE, "mammal")));
        m.insert(st("felix", vocab::TYPE, "cat"));
        assert!(m.contains(&st("felix", vocab::TYPE, "mammal")));
    }

    #[test]
    fn remove_batch_is_one_dred_round_and_one_epoch() {
        let chain = |m: &mut IncrementalMaterializer| {
            m.configure(transitive("sub"));
            for (s, o) in [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d")] {
                m.insert(st(s, "sub", o));
            }
        };
        let gone = [
            st("b", "sub", "c"),
            st("b", "sub", "d"),
            st("a", "sub", "d"),
        ];
        let mut batch = IncrementalMaterializer::new();
        chain(&mut batch);
        let before = batch.epoch().epoch();
        // (a sub d) is derived but present, so it counts; it would be
        // rederived if still entailed, and it is not.
        assert_eq!(batch.remove_batch(&gone), 3);
        assert_eq!(batch.epoch().epoch(), before + 1);
        let mut one_by_one = IncrementalMaterializer::new();
        chain(&mut one_by_one);
        for f in &gone {
            one_by_one.remove(f);
        }
        assert_eq!(batch.epoch().to_graph(), one_by_one.epoch().to_graph());
        assert!(!batch.contains(&st("a", "sub", "d")));
        assert!(batch.contains(&st("c", "sub", "d")));
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn a_batch_probes_each_distinct_triple_once_and_a_minted_one_never() {
        const N: usize = 42;
        const K: usize = 6;
        let mut m = IncrementalMaterializer::new();
        m.insert(st("ex:known", "ex:p", "ex:o"));
        let dict = m.epoch().dict().clone();
        let present = dict.intern_statement(&st("ex:known", "ex:p", "ex:o"));
        // N triples naming a term minted after the seal, with K copies of
        // the present triple spread among them.
        let fresh: Vec<IdTriple> = (0..N)
            .map(|i| dict.intern_statement(&st(&format!("kb:doc_{i}"), "ex:p", "ex:o")))
            .collect();
        let mut batch = Vec::new();
        for (i, &t) in fresh.iter().enumerate() {
            if i % (N / K) == 3 {
                batch.push(present);
            }
            batch.push(t);
        }
        assert_eq!(batch.len(), N + K);
        let before = m.membership_probes();
        let staged = m.stage_stated(&batch);
        assert_eq!(
            m.membership_probes() - before,
            1,
            "one probe, for `present`"
        );
        let first_occurrence: Vec<(IdTriple, Option<Fact>)> =
            fresh.iter().map(|&t| (t, None)).collect();
        assert_eq!(staged, first_occurrence);
        assert_eq!(m.seal_stated(&staged), N);
        assert_eq!(m.len(), N + 1);
    }

    /// The stage as one `replace` per triple occurrence, in batch order:
    /// the oracle for [`IncrementalMaterializer::stage_stated`].
    fn stage_by_replace(
        m: &mut IncrementalMaterializer,
        batch: &[IdTriple],
    ) -> Vec<(IdTriple, Option<Fact>)> {
        let mut staged = Vec::new();
        for &t in batch {
            let before = m.store.replace(t, Some(Fact::Stated));
            if before != Some(Fact::Stated) {
                staged.push((t, before));
            }
        }
        staged
    }

    #[test]
    fn sorted_stage_matches_the_per_triple_replace_loop() {
        let mut rng = Rng::new(0x57A6);
        // Triples seen: repeated in their batch, naming a fresh term,
        // stated already, derived already (a retag).
        let mut seen = [0usize; 4];
        let (mut batches, mut fresh) = (0, 0);
        for case in 0..40 {
            let mut sorted = IncrementalMaterializer::new();
            let mut oracle = IncrementalMaterializer::new();
            // Rules on from the start, off throughout, or on after some
            // batches.
            let rules_from = [Some(0), None, Some(10)][case % 3];
            for round in 0..30 {
                if rules_from == Some(round) {
                    assert_eq!(sorted.configure(rdfs()), oracle.configure(rdfs()));
                }
                let predicates = [vocab::TYPE, vocab::SUB_CLASS_OF, "ex:p"];
                let mut batch: Vec<Statement> = Vec::new();
                for _ in 0..1 + rng.below(30) {
                    let statement = if !batch.is_empty() && rng.chance(0.2) {
                        batch[rng.below(batch.len() as u64) as usize].clone()
                    } else {
                        // A new term, the newest one again (named by the
                        // last seal: the watermark's edge), or an old one.
                        let s = match rng.below(20) {
                            0..=2 => {
                                fresh += 1;
                                format!("ex:fresh{fresh}")
                            }
                            3 => format!("ex:fresh{fresh}"),
                            _ => format!("ex:c{}", rng.below(10)),
                        };
                        let p = predicates[rng.below(3) as usize];
                        st(&s, p, &format!("ex:c{}", rng.below(10)))
                    };
                    batch.push(statement);
                }
                let intern = |m: &IncrementalMaterializer| -> Vec<IdTriple> {
                    let dict = m.epoch().dict();
                    batch.iter().map(|st| dict.intern_statement(st)).collect()
                };
                let minted = oracle.epoch().dict().len();
                let ids = intern(&sorted);
                assert_eq!(ids, intern(&oracle), "same dictionaries");
                for (i, &t) in ids.iter().enumerate() {
                    if ids[..i].contains(&t) {
                        seen[0] += 1;
                        continue;
                    }
                    seen[1] += usize::from(t.0.seq() >= minted);
                    let state = oracle.epoch().state(t);
                    assert_eq!(state, oracle.epoch().probed_state(t), "the watermark");
                    match state {
                        Some(Fact::Stated) => seen[2] += 1,
                        Some(Fact::Derived) => seen[3] += 1,
                        None => {}
                    }
                }

                let got = sorted.stage_stated(&ids);
                let want = stage_by_replace(&mut oracle, &ids);
                assert_eq!(got, want, "case {case} round {round}: staged");
                assert_eq!(sorted.seal_stated(&got), oracle.seal_stated(&want));
                let (a, b) = (sorted.epoch(), oracle.epoch());
                assert_eq!(a.epoch(), b.epoch(), "case {case} round {round}");
                assert_eq!(a.len(), b.len(), "case {case} round {round}: len");
                assert!(
                    a.stated_ids().eq(b.stated_ids()),
                    "case {case} round {round}"
                );
                assert_eq!(a.iter_ids(), b.iter_ids(), "case {case} round {round}");
                assert_eq!(a.stored_entries(), b.stored_entries());
                batches += 1;
            }
        }
        assert!(batches >= 1000, "{batches} batches");
        assert!(
            seen.iter().all(|&n| n > 0),
            "kinds of triple seen: {seen:?}"
        );
    }
}
