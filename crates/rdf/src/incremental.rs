//! Incremental materialization of the inferred closure.
//!
//! [`IncrementalMaterializer`] stores two disjoint graphs — the stated
//! base and the derived closure — and keeps the second the fixpoint of the
//! first across mutations. Their union (the "full view") is not stored: the
//! writer reads it as an [`Overlay`] of the pair, readers as a published
//! epoch.
//!
//! * **Inserts** propagate forward semi-naively — only joins involving the
//!   new facts run, so per-batch cost is proportional to the change, not
//!   the graph.
//! * **Deletes** use overdeletion/rederivation (DRed): consequences of the
//!   removed fact are overdeleted against the pre-deletion view, then
//!   facts with surviving alternative derivations are rederived.
//!
//! Rulesets (RDFS, OWL/Lite, extra transitive predicates, user rules) are
//! *standing*: once enabled they are maintained on every later mutation.
//! Enabling a new ruleset marks the closure stale; the next
//! [`materialize`](IncrementalMaterializer::materialize) call reseeds the
//! fixpoint over the existing facts.
//!
//! Both graphs share one term dictionary, so the DRed cascades and
//! semi-naive propagation run entirely on id triples — no statement is
//! materialized during maintenance.

use crate::dict::{IdTriple, TermDict, TermId};
use crate::epoch::EpochDelta;
use crate::graph::{Graph, Overlay, TripleView};
use crate::model::{Statement, Term};
use crate::owl::owl_delta;
use crate::reason::{
    compile_rules, propagate, rdfs_delta, rules_delta, transitive_delta, IdRule, Rule, VocabIds,
};
use std::collections::BTreeSet;

/// Which entailment rules the materializer maintains.
#[derive(Debug, Clone, Default)]
pub struct MaterializerConfig {
    /// RDFS subset (rdfs2/3/5/7/9/11).
    pub rdfs: bool,
    /// OWL/Lite subset (inverseOf, symmetric/transitive/functional
    /// properties, sameAs smushing). Implies `rdfs` when enabled through
    /// [`IncrementalMaterializer::enable_owl`], matching
    /// [`crate::OwlLiteReasoner::new`].
    pub owl: bool,
    /// Extra predicates closed under transitivity.
    pub transitive: Vec<Term>,
    /// Standing user-defined rules.
    pub rules: Vec<Rule>,
}

impl MaterializerConfig {
    fn is_active(&self) -> bool {
        self.rdfs || self.owl || !self.transitive.is_empty() || !self.rules.is_empty()
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
        }
    }
}

/// A [`MaterializerConfig`] lowered onto one dictionary.
#[derive(Debug, Clone)]
struct CompiledRules {
    rdfs: bool,
    owl: bool,
    vocab: Option<VocabIds>,
    transitive: Vec<TermId>,
    rules: Vec<IdRule>,
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
}

/// Maintains `base ∪ derived` incrementally under the configured rules.
///
/// # Examples
///
/// ```
/// use cogsdk_rdf::{IncrementalMaterializer, Statement, Term};
///
/// let mut m = IncrementalMaterializer::new();
/// m.enable_rdfs();
/// let sub = Term::iri("rdfs:subClassOf");
/// m.insert(Statement::new(Term::iri("ex:cat"), sub.clone(), Term::iri("ex:mammal")));
/// m.insert(Statement::new(Term::iri("ex:mammal"), sub.clone(), Term::iri("ex:animal")));
/// // The closure is maintained as facts arrive — no re-materialization.
/// assert!(m.contains(&Statement::new(Term::iri("ex:cat"), sub, Term::iri("ex:animal"))));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalMaterializer {
    config: MaterializerConfig,
    /// Explicitly stated facts.
    base: Graph,
    /// Derived closure, disjoint from `base` (shares its dictionary).
    /// Every mutation keeps it so: a fact enters `derived` only when
    /// neither graph has it and leaves when it becomes stated — `len`
    /// and the epoch freeze rely on that.
    derived: Graph,
    /// Whether `derived` is the fixpoint of `config` over `base`. Cleared
    /// when a ruleset is enabled after facts already arrived.
    clean: bool,
    /// Net changes to the full view since the last
    /// [`take_delta`](Self::take_delta) — what an epoch publish consumes.
    delta: EpochDelta,
}

impl Default for IncrementalMaterializer {
    fn default() -> IncrementalMaterializer {
        IncrementalMaterializer::new()
    }
}

impl IncrementalMaterializer {
    /// An empty materializer with no rulesets enabled.
    pub fn new() -> IncrementalMaterializer {
        let base = Graph::new();
        let derived = Graph::with_dict(base.dict().clone());
        IncrementalMaterializer {
            config: MaterializerConfig::default(),
            base,
            derived,
            clean: true,
            delta: EpochDelta::default(),
        }
    }

    /// Wraps an existing stated graph. No inference runs until a ruleset
    /// is enabled and [`materialize`](Self::materialize) is called.
    pub fn from_graph(graph: Graph) -> IncrementalMaterializer {
        IncrementalMaterializer {
            config: MaterializerConfig::default(),
            derived: Graph::with_dict(graph.dict().clone()),
            base: graph,
            clean: true,
            delta: EpochDelta::rebuild(),
        }
    }

    /// Drains the net full-view changes accumulated since the last call.
    /// The epoch publisher consumes this to build the next snapshot.
    pub(crate) fn take_delta(&mut self) -> EpochDelta {
        std::mem::take(&mut self.delta)
    }

    /// The full view, `base ⊎ derived`, read through both graphs' indexes.
    pub fn view(&self) -> Overlay<'_> {
        Overlay::new(&self.base, &self.derived)
    }

    /// The explicitly stated facts.
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// The derived (inferred-only) facts.
    pub fn derived(&self) -> &Graph {
        &self.derived
    }

    /// Number of facts in the full view.
    pub fn len(&self) -> usize {
        self.base.len() + self.derived.len()
    }

    /// Whether the full view is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.derived.is_empty()
    }

    /// Whether the full view contains the statement.
    pub fn contains(&self, st: &Statement) -> bool {
        self.lookup_present(st).is_some()
    }

    /// The id triple of `st`, if the full view holds it.
    pub(crate) fn lookup_present(&self, st: &Statement) -> Option<IdTriple> {
        let triple = self.base.lookup_statement(st)?;
        self.view().has_id(triple).then_some(triple)
    }

    /// Enables the RDFS subset; returns whether this changed the config.
    pub fn enable_rdfs(&mut self) -> bool {
        let changed = !self.config.rdfs;
        if changed {
            self.config.rdfs = true;
            self.clean = self.is_empty();
        }
        changed
    }

    /// Enables the OWL/Lite subset (and RDFS, as the batch OWL reasoner
    /// does); returns whether this changed the config.
    pub fn enable_owl(&mut self) -> bool {
        let changed = !self.config.owl || !self.config.rdfs;
        if changed {
            self.config.owl = true;
            self.config.rdfs = true;
            self.clean = self.is_empty();
        }
        changed
    }

    /// Adds predicates to close under transitivity; returns whether any
    /// were new.
    pub fn add_transitive(&mut self, predicates: Vec<Term>) -> bool {
        let mut changed = false;
        for p in predicates {
            if !self.config.transitive.contains(&p) {
                self.config.transitive.push(p);
                changed = true;
            }
        }
        if changed {
            self.clean = self.is_empty();
        }
        changed
    }

    /// Adds standing user rules; returns whether any were new.
    pub fn add_rules(&mut self, rules: Vec<Rule>) -> bool {
        let mut changed = false;
        for r in rules {
            if !self.config.rules.contains(&r) {
                self.config.rules.push(r);
                changed = true;
            }
        }
        if changed {
            self.clean = self.is_empty();
        }
        changed
    }

    /// The active configuration.
    pub fn config(&self) -> &MaterializerConfig {
        &self.config
    }

    /// Runs the rules forward from `seed` (facts already in the view) to
    /// fixpoint, recording every newly derived fact; returns how many.
    fn derive_from(&mut self, compiled: &CompiledRules, seed: Vec<IdTriple>) -> usize {
        let new_facts = propagate(&self.base, &mut self.derived, seed, &mut |v, d| {
            compiled.delta(v, d)
        });
        for &f in &new_facts {
            self.delta.record(f, true);
        }
        new_facts.len()
    }

    /// Inserts a stated fact and propagates its consequences forward.
    /// Returns whether the fact was new to the full view.
    pub fn insert(&mut self, st: Statement) -> bool {
        self.insert_batch([st]) == 1
    }

    /// Inserts a batch and propagates once over the whole batch delta.
    /// Returns how many facts were new to the full view.
    pub fn insert_batch(&mut self, batch: impl IntoIterator<Item = Statement>) -> usize {
        let mut seed = Vec::new();
        for st in batch {
            let t = self.base.intern_statement(&st);
            if !self.base.insert_id(t) {
                continue;
            }
            // A previously derived fact that is now stated moves to the
            // base; the full view already has it and nothing new follows
            // from it.
            if self.derived.remove_id(t) {
                continue;
            }
            self.delta.record(t, true);
            seed.push(t);
        }
        let added = seed.len();
        if !seed.is_empty() && self.config.is_active() && self.clean {
            let compiled = self.config.compile(self.base.dict());
            self.derive_from(&compiled, seed);
        }
        added
    }

    /// Removes a fact using DRed: consequences are overdeleted against the
    /// pre-deletion view, then facts with surviving alternative
    /// derivations are rederived (including the removed fact itself, if it
    /// is still entailed by what remains). Returns whether the fact was
    /// present in the full view.
    pub fn remove(&mut self, st: &Statement) -> bool {
        // DRed needs an up-to-date closure to cascade over; catch up first
        // if a ruleset was enabled after facts arrived.
        self.materialize();
        let Some(t) = self.lookup_present(st) else {
            return false;
        };
        let compiled = self
            .config
            .is_active()
            .then(|| self.config.compile(self.base.dict()));
        // Overdeletion cascade against the pre-deletion view: everything
        // derived (transitively) using the removed fact is suspect.
        let mut overdeleted: BTreeSet<IdTriple> = BTreeSet::new();
        if let Some(compiled) = &compiled {
            let mut frontier = vec![t];
            while !frontier.is_empty() {
                let candidates = compiled.delta(&self.view(), &frontier);
                let mut fresh = Vec::new();
                for c in candidates {
                    if self.derived.contains_id(c) && c != t && overdeleted.insert(c) {
                        fresh.push(c);
                    }
                }
                frontier = fresh;
            }
        }
        self.base.remove_id(t);
        self.derived.remove_id(t);
        self.delta.record(t, false);
        for &o in &overdeleted {
            self.derived.remove_id(o);
            self.delta.record(o, false);
        }
        // Rederivation: one naive round over what remains picks up every
        // suspect fact that still has a one-step derivation; semi-naive
        // propagation from those seeds restores the rest of the closure.
        if let Some(compiled) = &compiled {
            let all: Vec<IdTriple> = self.view().iter_ids().collect();
            let candidates = compiled.delta(&self.view(), &all);
            let mut seeds = Vec::new();
            for c in candidates {
                let suspect = overdeleted.contains(&c) || c == t;
                if suspect && !self.base.contains_id(c) && self.derived.insert_id(c) {
                    self.delta.record(c, true);
                    seeds.push(c);
                }
            }
            if !seeds.is_empty() {
                self.derive_from(compiled, seeds);
            }
        }
        true
    }

    /// Brings the derived closure up to date with the configuration. Cheap
    /// when nothing changed; after a config change it reseeds the fixpoint
    /// over all current facts. Returns how many facts were newly derived.
    pub fn materialize(&mut self) -> usize {
        if self.clean || !self.config.is_active() {
            self.clean = true;
            return 0;
        }
        let compiled = self.config.compile(self.base.dict());
        let added = self.derive_from(&compiled, self.view().iter_ids().collect());
        self.clean = true;
        added
    }

    /// Replaces all facts with `graph` as the stated base, keeping the
    /// configuration. The closure is marked stale; call
    /// [`materialize`](Self::materialize) to rebuild it. The materializer
    /// adopts `graph`'s dictionary.
    pub fn reset(&mut self, graph: Graph) {
        self.derived = Graph::with_dict(graph.dict().clone());
        self.base = graph;
        self.clean = !self.config.is_active() || self.base.is_empty();
        self.delta = EpochDelta::rebuild();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::vocab;
    use crate::reason::{GenericRuleReasoner, RdfsReasoner, TransitiveReasoner};

    fn st(s: &str, p: &str, o: &str) -> Statement {
        Statement::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    #[test]
    fn inserts_maintain_rdfs_closure() {
        let mut m = IncrementalMaterializer::new();
        m.enable_rdfs();
        m.insert(st("cat", vocab::SUB_CLASS_OF, "mammal"));
        m.insert(st("tom", vocab::TYPE, "cat"));
        assert!(m.contains(&st("tom", vocab::TYPE, "mammal")));
        // A later schema extension re-types existing instances.
        m.insert(st("mammal", vocab::SUB_CLASS_OF, "animal"));
        assert!(m.contains(&st("tom", vocab::TYPE, "animal")));
        assert!(m.contains(&st("cat", vocab::SUB_CLASS_OF, "animal")));
    }

    #[test]
    fn views_share_one_dictionary() {
        let mut m = IncrementalMaterializer::new();
        m.enable_rdfs();
        m.insert(st("cat", vocab::SUB_CLASS_OF, "mammal"));
        assert!(m.base().dict().ptr_eq(m.derived().dict()));
        assert!(m.base().dict().ptr_eq(m.view().to_graph().dict()));
    }

    #[test]
    fn incremental_equals_from_scratch_rdfs() {
        let mut m = IncrementalMaterializer::new();
        m.enable_rdfs();
        let facts = [
            st("p", vocab::SUB_PROPERTY_OF, "q"),
            st("q", vocab::DOMAIN, "C"),
            st("C", vocab::SUB_CLASS_OF, "D"),
            st("s", "p", "o"),
        ];
        for f in &facts {
            m.insert(f.clone());
        }
        let base: Graph = facts.iter().cloned().collect();
        let mut scratch = base.clone();
        scratch.extend_from(&RdfsReasoner::new().infer(&base));
        assert_eq!(m.view().to_graph(), scratch);
    }

    #[test]
    fn delete_retracts_consequences() {
        let mut m = IncrementalMaterializer::new();
        m.enable_rdfs();
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
        m.add_transitive(vec![Term::iri("sub")]);
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
        let base_now: Graph = m.base().iter().collect();
        let mut scratch = base_now.clone();
        scratch.extend_from(&TransitiveReasoner::new(vec![Term::iri("sub")]).infer(&base_now));
        assert_eq!(m.view().to_graph(), scratch);
    }

    #[test]
    fn removed_stated_fact_resurfaces_if_entailed() {
        let mut m = IncrementalMaterializer::new();
        m.add_transitive(vec![Term::iri("sub")]);
        m.insert(st("a", "sub", "b"));
        m.insert(st("b", "sub", "c"));
        m.insert(st("a", "sub", "c")); // stated AND entailed
        assert!(m.remove(&st("a", "sub", "c")));
        // From-scratch semantics: the fact is still entailed by the chain.
        assert!(m.contains(&st("a", "sub", "c")));
        assert!(!m.base().contains(&st("a", "sub", "c")), "no longer stated");
    }

    #[test]
    fn standing_rules_fire_on_later_ingests() {
        let mut m = IncrementalMaterializer::new();
        let r = GenericRuleReasoner::from_rules_text(
            "[(?a parent ?b), (?b parent ?c) -> (?a grandparent ?c)]",
        )
        .unwrap();
        m.add_rules(r.rules().to_vec());
        m.insert(st("alice", "parent", "bob"));
        m.materialize();
        assert!(!m.contains(&st("alice", "grandparent", "carol")));
        m.insert(st("bob", "parent", "carol"));
        assert!(m.contains(&st("alice", "grandparent", "carol")));
    }

    #[test]
    fn enabling_rules_late_reseeds_on_materialize() {
        let mut m = IncrementalMaterializer::new();
        m.insert(st("cat", vocab::SUB_CLASS_OF, "mammal"));
        m.insert(st("tom", vocab::TYPE, "cat"));
        assert!(!m.contains(&st("tom", vocab::TYPE, "mammal")));
        m.enable_rdfs();
        let added = m.materialize();
        assert_eq!(added, 1);
        assert!(m.contains(&st("tom", vocab::TYPE, "mammal")));
        assert_eq!(m.materialize(), 0, "second call is a no-op");
    }

    #[test]
    fn owl_closure_maintained_incrementally() {
        let mut m = IncrementalMaterializer::new();
        m.enable_owl();
        m.insert(st("hasParent", vocab::INVERSE_OF, "hasChild"));
        m.insert(st("alice", "hasParent", "bob"));
        assert!(m.contains(&st("bob", "hasChild", "alice")));
        m.insert(st("usa", vocab::SAME_AS, "united_states"));
        m.insert(st("usa", "capital", "washington"));
        assert!(m.contains(&st("united_states", "capital", "washington")));
    }

    #[test]
    fn reset_replaces_contents_and_goes_stale() {
        let mut m = IncrementalMaterializer::new();
        m.enable_rdfs();
        m.insert(st("x", vocab::TYPE, "C"));
        let mut g = Graph::new();
        g.insert(st("cat", vocab::SUB_CLASS_OF, "mammal"));
        g.insert(st("tom", vocab::TYPE, "cat"));
        m.reset(g);
        assert!(!m.contains(&st("x", vocab::TYPE, "C")));
        assert!(!m.contains(&st("tom", vocab::TYPE, "mammal")));
        m.materialize();
        assert!(m.contains(&st("tom", vocab::TYPE, "mammal")));
    }
}
