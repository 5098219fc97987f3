//! Reasoners: transitive closure, an RDFS subset, and a generic rule
//! engine with forward and backward chaining.
//!
//! These mirror the Jena reasoners the paper lists (§3):
//!
//! * "A transitive reasoner with support for storing and traversing class
//!   and property lattices" → [`TransitiveReasoner`];
//! * "An RDF Schema rule reasoner which implements a configurable subset
//!   of the RDF Schema entailments" → [`RdfsReasoner`];
//! * "A generic rule reasoner that supports user-defined rules … forward
//!   chaining, tabled backward chaining" → [`GenericRuleReasoner`] with a
//!   Jena-style rule syntax.
//!
//! Forward chaining runs entirely on dictionary-encoded id triples: rules
//! are compiled once per run (`compile_rules`) into constant-id /
//! variable-index form, bindings are flat `Vec<Option<TermId>>` arrays,
//! and every join is integer work. Terms are materialized only at the API
//! boundary.

use crate::dict::{IdTriple, TermDict, TermId};
use crate::graph::{Graph, Overlay, TripleView};
use crate::model::{vocab, Term};
use crate::RdfError;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// Semi-naive evaluation core
//
// Every rule family has a delta form: each round joins the rule bodies
// against the *delta* (facts new since the previous round) rather than
// re-scanning the whole graph, over a borrowed working set — an [`Overlay`]
// of a stated graph and its derived closure for the batch reasoners
// ([`semi_naive`]), the store's epoch plus the call's changes for the
// materializer — so no run copies the facts it starts from. Everything in
// the loop is id-triple work.
// ---------------------------------------------------------------------------

/// A delta rule: given the full current view and the id triples that are
/// new since the last round, produce candidate conclusions. Candidates may
/// duplicate existing facts; the driver deduplicates.
pub(crate) type DeltaRule<'r> = dyn FnMut(&dyn TripleView, &[IdTriple]) -> Vec<IdTriple> + 'r;

/// A batch reasoner's working set: a stated graph plus the closure
/// derived from it so far, over one dictionary.
struct Derivation<'a> {
    base: &'a Graph,
    derived: Graph,
}

impl TripleView for Derivation<'_> {
    fn dict(&self) -> &TermDict {
        self.base.dict()
    }

    fn find_ids(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<IdTriple> {
        Overlay::new(self.base, &self.derived).find_ids(s, p, o)
    }

    fn has_id(&self, triple: IdTriple) -> bool {
        self.base.contains_id(triple) || self.derived.contains_id(triple)
    }
}

/// Full semi-naive fixpoint from scratch: round 0 seeds the delta with the
/// entire base (equivalent to one naive round), later rounds join only
/// against fresh facts. Returns the derived closure (sharing the base's
/// dictionary).
pub(crate) fn semi_naive(base: &Graph, rule: &mut DeltaRule<'_>) -> Graph {
    let mut closure = Derivation {
        base,
        derived: Graph::with_dict(base.dict().clone()),
    };
    let mut delta: Vec<IdTriple> = base.iter_ids().collect();
    while !delta.is_empty() {
        let candidates = rule(&closure, &delta);
        delta = candidates
            .into_iter()
            .filter(|&t| !base.contains_id(t) && closure.derived.insert_id(t))
            .collect();
    }
    closure.derived
}

/// The RDFS/OWL vocabulary interned against one dictionary, so delta rules
/// compare predicates by id instead of re-creating vocabulary terms per
/// round. Interned (not merely looked up) because the conclusions may
/// introduce vocabulary — e.g. `rdf:type` — the stated graph never used.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VocabIds {
    pub type_p: TermId,
    pub sub_class: TermId,
    pub sub_prop: TermId,
    pub domain: TermId,
    pub range: TermId,
    pub inverse_of: TermId,
    pub same_as: TermId,
    pub symmetric: TermId,
    pub transitive: TermId,
    pub functional: TermId,
}

impl VocabIds {
    pub(crate) fn new(dict: &TermDict) -> VocabIds {
        let id = |iri: &str| dict.intern(&Term::iri(iri));
        VocabIds {
            type_p: id(vocab::TYPE),
            sub_class: id(vocab::SUB_CLASS_OF),
            sub_prop: id(vocab::SUB_PROPERTY_OF),
            domain: id(vocab::DOMAIN),
            range: id(vocab::RANGE),
            inverse_of: id(vocab::INVERSE_OF),
            same_as: id(vocab::SAME_AS),
            symmetric: id(vocab::SYMMETRIC_PROPERTY),
            transitive: id(vocab::TRANSITIVE_PROPERTY),
            functional: id(vocab::FUNCTIONAL_PROPERTY),
        }
    }
}

/// Delta form of transitive closure for `predicates`: a new edge composes
/// with existing edges on both sides. Self-loops are never emitted and
/// targets must be resources, matching [`TransitiveReasoner`] semantics.
pub(crate) fn transitive_delta(
    predicates: &[TermId],
    view: &dyn TripleView,
    delta: &[IdTriple],
) -> Vec<IdTriple> {
    let mut out = Vec::new();
    for &(s, p, o) in delta {
        if !predicates.contains(&p) {
            continue;
        }
        if o.is_resource() {
            // (a p b), (b p c) => (a p c).
            for (_, _, next_o) in view.find_ids(Some(o), Some(p), None) {
                if next_o.is_resource() && next_o != s {
                    out.push((s, p, next_o));
                }
            }
            // (x p a), (a p b) => (x p b).
            for (prev_s, _, _) in view.find_ids(None, Some(p), Some(s)) {
                if prev_s != o {
                    out.push((prev_s, p, o));
                }
            }
        }
    }
    out
}

/// Delta form of the RDFS subset (rdfs2/3/5/7/9/11). Each delta fact is
/// treated both as a schema declaration (joining its existing use sites)
/// and as a use site (joining the existing schema).
pub(crate) fn rdfs_delta(v: &VocabIds, view: &dyn TripleView, delta: &[IdTriple]) -> Vec<IdTriple> {
    let lattices = [v.sub_class, v.sub_prop];
    let mut out = transitive_delta(&lattices, view, delta);
    for &(s, p, o) in delta {
        // Declaration side: the delta fact is schema, join its use sites.
        if p == v.sub_class {
            // rdfs9: (C subClassOf D), (s type C) => (s type D).
            for (inst_s, _, _) in view.find_ids(None, Some(v.type_p), Some(s)) {
                out.push((inst_s, v.type_p, o));
            }
        } else if p == v.sub_prop {
            // rdfs7: (p subPropertyOf q), (s p o) => (s q o).
            if o.is_iri() {
                for (use_s, _, use_o) in view.find_ids(None, Some(s), None) {
                    out.push((use_s, o, use_o));
                }
            }
        } else if p == v.domain {
            // rdfs2: (p domain C), (s p o) => (s type C).
            for (use_s, _, _) in view.find_ids(None, Some(s), None) {
                out.push((use_s, v.type_p, o));
            }
        } else if p == v.range {
            // rdfs3: (p range C), (s p o), o resource => (o type C).
            for (_, _, use_o) in view.find_ids(None, Some(s), None) {
                if use_o.is_resource() {
                    out.push((use_o, v.type_p, o));
                }
            }
        }

        // Use side: the delta fact is an instance fact, join the schema.
        if p == v.type_p && o.is_resource() {
            // rdfs9: (s type C), (C subClassOf D) => (s type D).
            for (_, _, super_c) in view.find_ids(Some(o), Some(v.sub_class), None) {
                out.push((s, v.type_p, super_c));
            }
        }
        // rdfs2 over this use site's predicate.
        for (_, _, dom_c) in view.find_ids(Some(p), Some(v.domain), None) {
            out.push((s, v.type_p, dom_c));
        }
        // rdfs3.
        if o.is_resource() {
            for (_, _, ran_c) in view.find_ids(Some(p), Some(v.range), None) {
                out.push((o, v.type_p, ran_c));
            }
        }
        // rdfs7.
        for (_, _, super_p) in view.find_ids(Some(p), Some(v.sub_prop), None) {
            if super_p.is_iri() {
                out.push((s, super_p, o));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Compiled (id-level) rules
// ---------------------------------------------------------------------------

/// A compiled pattern slot: either a dictionary id or an index into the
/// rule's flat binding array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdPatternTerm {
    /// A concrete, interned term.
    Const(TermId),
    /// A variable, by index into the rule's binding array.
    Var(usize),
}

/// A compiled triple pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IdPattern {
    pub subject: IdPatternTerm,
    pub predicate: IdPatternTerm,
    pub object: IdPatternTerm,
}

/// A compiled rule: constants interned, variables numbered `0..nvars`, so
/// a binding set is a flat `Vec<Option<TermId>>` instead of a string map.
#[derive(Debug, Clone)]
pub(crate) struct IdRule {
    pub premises: Vec<IdPattern>,
    pub conclusions: Vec<IdPattern>,
    pub nvars: usize,
}

impl IdPatternTerm {
    pub(crate) fn bind(self, bindings: &[Option<TermId>]) -> Option<TermId> {
        match self {
            IdPatternTerm::Const(id) => Some(id),
            IdPatternTerm::Var(i) => bindings[i],
        }
    }
}

impl IdPattern {
    /// Matches this pattern against the view under existing bindings,
    /// returning each extended binding set together with the triple that
    /// produced it (weighted rules read each premise's level off it).
    pub(crate) fn solve(
        &self,
        view: &dyn TripleView,
        bindings: &[Option<TermId>],
    ) -> Vec<(Vec<Option<TermId>>, IdTriple)> {
        let s = self.subject.bind(bindings);
        let p = self.predicate.bind(bindings);
        let o = self.object.bind(bindings);
        view.find_ids(s, p, o)
            .into_iter()
            .filter_map(|t| {
                let mut out = bindings.to_vec();
                for (slot, val) in [
                    (self.subject, t.0),
                    (self.predicate, t.1),
                    (self.object, t.2),
                ] {
                    if let IdPatternTerm::Var(i) = slot {
                        match out[i] {
                            Some(bound) if bound != val => return None,
                            Some(_) => {}
                            None => out[i] = Some(val),
                        }
                    }
                }
                Some((out, t))
            })
            .collect()
    }

    /// Matches this pattern against a single ground triple from scratch,
    /// returning the bindings it induces (used to seed semi-naive rounds
    /// from a delta slice).
    pub(crate) fn match_triple(&self, nvars: usize, t: IdTriple) -> Option<Vec<Option<TermId>>> {
        let mut out = vec![None; nvars];
        for (slot, val) in [
            (self.subject, t.0),
            (self.predicate, t.1),
            (self.object, t.2),
        ] {
            match slot {
                IdPatternTerm::Const(c) => {
                    if c != val {
                        return None;
                    }
                }
                IdPatternTerm::Var(i) => match out[i] {
                    Some(bound) if bound != val => return None,
                    Some(_) => {}
                    None => out[i] = Some(val),
                },
            }
        }
        Some(out)
    }

    /// Instantiates the pattern under bindings, if every slot is bound and
    /// the result is structurally valid (resource subject, IRI predicate).
    pub(crate) fn instantiate(&self, bindings: &[Option<TermId>]) -> Option<IdTriple> {
        let s = self.subject.bind(bindings)?;
        let p = self.predicate.bind(bindings)?;
        let o = self.object.bind(bindings)?;
        if !s.is_resource() || !p.is_iri() {
            return None;
        }
        Some((s, p, o))
    }
}

fn compile_slot(slot: &PatternTerm, dict: &TermDict, vars: &mut Vec<String>) -> IdPatternTerm {
    match slot {
        PatternTerm::Term(t) => IdPatternTerm::Const(dict.intern(t)),
        PatternTerm::Var(v) => IdPatternTerm::Var(var_index(v, vars)),
    }
}

pub(crate) fn var_index(name: &str, vars: &mut Vec<String>) -> usize {
    match vars.iter().position(|x| x == name) {
        Some(i) => i,
        None => {
            vars.push(name.to_string());
            vars.len() - 1
        }
    }
}

/// Compiles a pattern, interning its constants into `dict` (rule constants
/// may introduce terms the stated graph never used).
pub(crate) fn compile_pattern(
    pattern: &TriplePattern,
    dict: &TermDict,
    vars: &mut Vec<String>,
) -> IdPattern {
    IdPattern {
        subject: compile_slot(&pattern.subject, dict, vars),
        predicate: compile_slot(&pattern.predicate, dict, vars),
        object: compile_slot(&pattern.object, dict, vars),
    }
}

/// Compiles a rule: one shared variable namespace across premises and
/// conclusions, constants interned into `dict`.
pub(crate) fn compile_rule(rule: &Rule, dict: &TermDict) -> IdRule {
    let mut vars = Vec::new();
    let premises = rule
        .premises
        .iter()
        .map(|p| compile_pattern(p, dict, &mut vars))
        .collect();
    let conclusions = rule
        .conclusions
        .iter()
        .map(|c| compile_pattern(c, dict, &mut vars))
        .collect();
    IdRule {
        premises,
        conclusions,
        nvars: vars.len(),
    }
}

/// Compiles every rule against one dictionary.
pub(crate) fn compile_rules(rules: &[Rule], dict: &TermDict) -> Vec<IdRule> {
    rules.iter().map(|r| compile_rule(r, dict)).collect()
}

/// Delta form of forward chaining over compiled rules: every conclusion
/// [`fire`] draws for each rule.
pub(crate) fn rules_delta(
    rules: &[IdRule],
    view: &dyn TripleView,
    delta: &[IdTriple],
) -> Vec<IdTriple> {
    let mut out = Vec::new();
    for rule in rules {
        fire(rule, view, delta, &|_| 1.0, &mut |t, _| out.push(t));
    }
    out
}

/// Fires `rule` with each premise position in turn bound from `delta` and
/// the other premises solved against the full view. Each conclusion goes to
/// `emit` with the lowest `level` among the premise triples that drew it.
pub(crate) fn fire(
    rule: &IdRule,
    view: &dyn TripleView,
    delta: &[IdTriple],
    level: &dyn Fn(IdTriple) -> f64,
    emit: &mut dyn FnMut(IdTriple, f64),
) {
    for (i, seed) in rule.premises.iter().enumerate() {
        let mut bindings: Vec<(Vec<Option<TermId>>, f64)> = delta
            .iter()
            .filter_map(|&t| Some((seed.match_triple(rule.nvars, t)?, level(t))))
            .collect();
        for (j, premise) in rule.premises.iter().enumerate() {
            if j == i || bindings.is_empty() {
                continue;
            }
            let mut next = Vec::new();
            for (b, low) in &bindings {
                let solved = premise.solve(view, b).into_iter();
                next.extend(solved.map(|(nb, t)| (nb, low.min(level(t)))));
            }
            bindings = next;
        }
        for (b, low) in &bindings {
            for conclusion in &rule.conclusions {
                if let Some(t) = conclusion.instantiate(b) {
                    emit(t, *low);
                }
            }
        }
    }
}

/// Computes the transitive closure of chosen predicates.
///
/// # Examples
///
/// ```
/// use cogsdk_rdf::{Graph, Statement, Term, TransitiveReasoner};
///
/// let mut g = Graph::new();
/// let sub = Term::iri("rdfs:subClassOf");
/// g.insert(Statement::new(Term::iri("ex:cat"), sub.clone(), Term::iri("ex:mammal")));
/// g.insert(Statement::new(Term::iri("ex:mammal"), sub.clone(), Term::iri("ex:animal")));
///
/// let inferred = TransitiveReasoner::new(vec![sub.clone()]).infer(&g);
/// assert!(inferred.contains(&Statement::new(
///     Term::iri("ex:cat"), sub, Term::iri("ex:animal"))));
/// ```
#[derive(Debug, Clone)]
pub struct TransitiveReasoner {
    predicates: Vec<Term>,
}

impl TransitiveReasoner {
    /// Creates a reasoner closing over the given predicates.
    pub fn new(predicates: Vec<Term>) -> TransitiveReasoner {
        TransitiveReasoner { predicates }
    }

    /// Returns the *new* statements entailed by transitivity (excluding
    /// those already present). The result shares the input's dictionary.
    ///
    /// Evaluated semi-naively per predicate on id pairs: the closure is
    /// grown by joining each round's *delta* pairs against the stated
    /// edges (right-linear `T ∘ E`), so no round re-scans pairs derived
    /// earlier and no string is touched.
    pub fn infer(&self, graph: &Graph) -> Graph {
        let mut inferred = Graph::with_dict(graph.dict().clone());
        for predicate in &self.predicates {
            // A predicate the graph never interned has no edges.
            let Some(p) = graph.dict().lookup(predicate) else {
                continue;
            };
            let edges: Vec<(TermId, TermId)> = graph
                .match_ids(None, Some(p), None)
                .into_iter()
                .map(|(s, _, o)| (s, o))
                .collect();
            let mut succ: HashMap<TermId, Vec<TermId>> = HashMap::new();
            for &(s, o) in &edges {
                succ.entry(s).or_default().push(o);
            }
            let mut closure: HashMap<TermId, HashSet<TermId>> = HashMap::new();
            for &(s, o) in &edges {
                closure.entry(s).or_default().insert(o);
            }
            let mut delta = edges;
            while !delta.is_empty() {
                let mut fresh = Vec::new();
                for &(a, b) in &delta {
                    if let Some(nexts) = succ.get(&b) {
                        for &c in nexts {
                            if closure.entry(a).or_default().insert(c) {
                                fresh.push((a, c));
                            }
                        }
                    }
                }
                delta = fresh;
            }
            for (start, targets) in closure {
                for target in targets {
                    if target != start && target.is_resource() {
                        let t = (start, p, target);
                        if !graph.contains_id(t) {
                            inferred.insert_id(t);
                        }
                    }
                }
            }
        }
        inferred
    }
}

/// The RDFS entailment subset the knowledge base uses: rules rdfs2
/// (domain), rdfs3 (range), rdfs5/rdfs7 (subPropertyOf), rdfs9/rdfs11
/// (subClassOf).
#[derive(Debug, Clone, Default)]
pub struct RdfsReasoner {
    _private: (),
}

impl RdfsReasoner {
    /// Creates the reasoner.
    pub fn new() -> RdfsReasoner {
        RdfsReasoner::default()
    }

    /// Runs the RDFS rules to fixpoint; returns only the new statements
    /// (sharing the input's dictionary).
    ///
    /// Evaluated semi-naively on id triples: each round joins the rules
    /// against the facts derived in the previous round only, over a
    /// borrowed overlay of the input graph — the input is never cloned.
    pub fn infer(&self, graph: &Graph) -> Graph {
        let v = VocabIds::new(graph.dict());
        semi_naive(graph, &mut |view, delta| rdfs_delta(&v, view, delta))
    }
}

/// A term or variable in a rule pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatternTerm {
    /// A concrete term.
    Term(Term),
    /// A named variable (`?x`).
    Var(String),
}

impl PatternTerm {
    fn bind(&self, bindings: &HashMap<String, Term>) -> Option<Term> {
        match self {
            PatternTerm::Term(t) => Some(t.clone()),
            PatternTerm::Var(v) => bindings.get(v).cloned(),
        }
    }
}

/// A triple pattern in a rule body or head.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject slot.
    pub subject: PatternTerm,
    /// Predicate slot.
    pub predicate: PatternTerm,
    /// Object slot.
    pub object: PatternTerm,
}

impl TriplePattern {
    /// Parses a single pattern from `(term term term)` syntax — the same
    /// term grammar as rules (`?var`, IRIs, quoted strings, numbers,
    /// booleans).
    ///
    /// # Errors
    ///
    /// Returns [`RdfError`] on malformed patterns.
    pub fn parse(text: &str) -> Result<TriplePattern, RdfError> {
        let patterns = parse_patterns(text)?;
        match patterns.len() {
            1 => Ok(patterns.into_iter().next().expect("len checked")),
            n => Err(RdfError::new(format!(
                "expected exactly one pattern, found {n}"
            ))),
        }
    }

    /// Matches this pattern against any triple view under existing
    /// `bindings`, returning the extended binding sets.
    fn solve(
        &self,
        view: &dyn TripleView,
        bindings: &HashMap<String, Term>,
    ) -> Vec<HashMap<String, Term>> {
        let s = self.subject.bind(bindings);
        let p = self.predicate.bind(bindings);
        let o = self.object.bind(bindings);
        view.find(s.as_ref(), p.as_ref(), o.as_ref())
            .into_iter()
            .filter_map(|st| {
                let mut out = bindings.clone();
                for (slot, term) in [
                    (&self.subject, st.subject),
                    (&self.predicate, st.predicate),
                    (&self.object, st.object),
                ] {
                    if let PatternTerm::Var(v) = slot {
                        match out.get(v) {
                            Some(bound) if *bound != term => return None,
                            Some(_) => {}
                            None => {
                                out.insert(v.clone(), term);
                            }
                        }
                    }
                }
                Some(out)
            })
            .collect()
    }
}

/// A user-defined rule: `premises → conclusions`.
///
/// Parsed from Jena-like syntax:
///
/// ```text
/// [(?a ex:parent ?b), (?b ex:parent ?c) -> (?a ex:grandparent ?c)]
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Patterns that must all match.
    pub premises: Vec<TriplePattern>,
    /// Patterns asserted for each match.
    pub conclusions: Vec<TriplePattern>,
}

impl Rule {
    /// Parses a rule from the bracketed arrow syntax above. String
    /// literals are written in double quotes; integers bare; variables as
    /// `?name`; everything else is an IRI.
    ///
    /// # Errors
    ///
    /// Returns [`RdfError`] for syntax violations.
    pub fn parse(text: &str) -> Result<Rule, RdfError> {
        let inner = text
            .trim()
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .ok_or_else(|| RdfError::new("rule must be enclosed in [ ]"))?;
        let (body, head) = inner
            .split_once("->")
            .ok_or_else(|| RdfError::new("rule needs '->'"))?;
        let premises = parse_patterns(body)?;
        let conclusions = parse_patterns(head)?;
        if premises.is_empty() || conclusions.is_empty() {
            return Err(RdfError::new(
                "rule needs at least one premise and one conclusion",
            ));
        }
        // Head variables must be bound in the body (no free invention).
        let bound: HashSet<&String> = premises
            .iter()
            .flat_map(|p| [&p.subject, &p.predicate, &p.object])
            .filter_map(|t| match t {
                PatternTerm::Var(v) => Some(v),
                PatternTerm::Term(_) => None,
            })
            .collect();
        for c in &conclusions {
            for t in [&c.subject, &c.predicate, &c.object] {
                if let PatternTerm::Var(v) = t {
                    if !bound.contains(v) {
                        return Err(RdfError::new(format!(
                            "conclusion variable ?{v} is not bound by any premise"
                        )));
                    }
                }
            }
        }
        Ok(Rule {
            premises,
            conclusions,
        })
    }
}

fn parse_patterns(text: &str) -> Result<Vec<TriplePattern>, RdfError> {
    let mut patterns = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let start = rest
            .find('(')
            .ok_or_else(|| RdfError::new("expected '('"))?;
        let end = rest[start..]
            .find(')')
            .ok_or_else(|| RdfError::new("unclosed '('"))?
            + start;
        let inside = &rest[start + 1..end];
        let parts = split_pattern_terms(inside)?;
        if parts.len() != 3 {
            return Err(RdfError::new(format!(
                "pattern needs exactly 3 terms, got {}: ({inside})",
                parts.len()
            )));
        }
        patterns.push(TriplePattern {
            subject: parts[0].clone(),
            predicate: parts[1].clone(),
            object: parts[2].clone(),
        });
        rest = rest[end + 1..].trim_start_matches([',', ' ', '\n', '\t']);
    }
    Ok(patterns)
}

fn split_pattern_terms(inside: &str) -> Result<Vec<PatternTerm>, RdfError> {
    let mut out = Vec::new();
    let mut chars = inside.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        if c == '"' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some(ch) => s.push(ch),
                    None => return Err(RdfError::new("unterminated string literal")),
                }
            }
            out.push(PatternTerm::Term(Term::string(s)));
            continue;
        }
        let mut word = String::new();
        while let Some(&ch) = chars.peek() {
            if ch.is_whitespace() {
                break;
            }
            word.push(ch);
            chars.next();
        }
        out.push(parse_word(&word)?);
    }
    Ok(out)
}

fn parse_word(word: &str) -> Result<PatternTerm, RdfError> {
    if let Some(var) = word.strip_prefix('?') {
        if var.is_empty() {
            return Err(RdfError::new("empty variable name"));
        }
        return Ok(PatternTerm::Var(var.to_string()));
    }
    if let Some(inner) = word.strip_prefix('<').and_then(|w| w.strip_suffix('>')) {
        // SPARQL-style bracketed IRI, same meaning as the bare form.
        return Ok(PatternTerm::Term(Term::iri(inner)));
    }
    if let Ok(i) = word.parse::<i64>() {
        return Ok(PatternTerm::Term(Term::integer(i)));
    }
    if let Ok(f) = word.parse::<f64>() {
        return Ok(PatternTerm::Term(Term::double(f)));
    }
    if word == "true" || word == "false" {
        return Ok(PatternTerm::Term(Term::boolean(word == "true")));
    }
    Ok(PatternTerm::Term(Term::iri(word)))
}

/// The generic rule reasoner.
#[derive(Debug, Clone, Default)]
pub struct GenericRuleReasoner {
    rules: Vec<Rule>,
}

impl GenericRuleReasoner {
    /// Creates a reasoner over explicit rules.
    pub fn new(rules: Vec<Rule>) -> GenericRuleReasoner {
        GenericRuleReasoner { rules }
    }

    /// Parses one rule per non-empty, non-`#` line of `text`.
    ///
    /// # Errors
    ///
    /// Returns the first parse error, tagged with its line number.
    pub fn from_rules_text(text: &str) -> Result<GenericRuleReasoner, RdfError> {
        let mut rules = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let rule = Rule::parse(line)
                .map_err(|e| RdfError::new(format!("line {}: {e}", lineno + 1)))?;
            rules.push(rule);
        }
        Ok(GenericRuleReasoner { rules })
    }

    /// The rules in use.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Forward chaining to fixpoint: returns only the newly inferred
    /// statements (sharing the input's dictionary).
    ///
    /// Rules are compiled once against the graph's dictionary, then
    /// evaluated semi-naively on id triples: after the first round, each
    /// rule fires only with at least one premise bound from the previous
    /// round's delta.
    pub fn infer(&self, graph: &Graph) -> Graph {
        let compiled = compile_rules(&self.rules, graph.dict());
        semi_naive(graph, &mut |view, delta| {
            rules_delta(&compiled, view, delta)
        })
    }

    /// Backward chaining: proves whether `goal` (a possibly-variable
    /// pattern) holds, returning all binding solutions. Memoizes goals to
    /// terminate on recursive rule sets ("tabled" in Jena's terminology).
    /// Ground facts come from any [`TripleView`] — a [`Graph`], or a
    /// pinned epoch so the search holds no lock.
    pub fn prove(
        &self,
        graph: &dyn TripleView,
        goal: &TriplePattern,
        max_depth: usize,
    ) -> Vec<HashMap<String, Term>> {
        let mut visited = HashSet::new();
        self.prove_inner(graph, goal, &HashMap::new(), max_depth, &mut visited)
    }

    fn prove_inner(
        &self,
        graph: &dyn TripleView,
        goal: &TriplePattern,
        bindings: &HashMap<String, Term>,
        depth: usize,
        visited: &mut HashSet<String>,
    ) -> Vec<HashMap<String, Term>> {
        // Ground facts first.
        let mut solutions = goal.solve(graph, bindings);
        if depth == 0 {
            return solutions;
        }
        // Table the goal to cut cycles (by its bound shape).
        let key = format!(
            "{:?}|{:?}|{:?}",
            goal.subject.bind(bindings),
            goal.predicate.bind(bindings),
            goal.object.bind(bindings)
        );
        if !visited.insert(key.clone()) {
            return solutions;
        }
        for rule in &self.rules {
            for conclusion in &rule.conclusions {
                // Unify the goal with this conclusion via a fresh renaming.
                let Some(unifier) = unify_goal(goal, conclusion, bindings) else {
                    continue;
                };
                // Prove all premises under the unifier. Premises run in
                // the renamed rule namespace so rule variables never
                // collide with goal variables.
                let mut partials = vec![unifier];
                for premise in &rule.premises {
                    let premise = premise.renamed();
                    let mut next = Vec::new();
                    for b in &partials {
                        next.extend(self.prove_inner(graph, &premise, b, depth - 1, visited));
                    }
                    partials = next;
                    if partials.is_empty() {
                        break;
                    }
                }
                // Project rule-internal bindings back onto goal variables.
                for b in partials {
                    let mut out = bindings.clone();
                    let mut ok = true;
                    for (slot_goal, slot_rule) in [
                        (&goal.subject, &conclusion.subject),
                        (&goal.predicate, &conclusion.predicate),
                        (&goal.object, &conclusion.object),
                    ] {
                        if let PatternTerm::Var(gv) = slot_goal {
                            let value = match slot_rule {
                                PatternTerm::Term(t) => Some(t.clone()),
                                PatternTerm::Var(rv) => b.get(&renamed(rv)).cloned(),
                            };
                            match value {
                                Some(v) => match out.get(gv) {
                                    Some(prev) if *prev != v => {
                                        ok = false;
                                        break;
                                    }
                                    _ => {
                                        out.insert(gv.clone(), v);
                                    }
                                },
                                None => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                    }
                    if ok {
                        solutions.push(out);
                    }
                }
            }
        }
        visited.remove(&key);
        dedup_bindings(solutions)
    }
}

/// Renames a rule variable into a reserved namespace so rule-internal
/// variables never collide with goal variables.
fn renamed(var: &str) -> String {
    format!("__rule_{var}")
}

/// Unifies a goal pattern with a rule conclusion, producing initial
/// bindings for the rule body (over renamed rule variables).
fn unify_goal(
    goal: &TriplePattern,
    conclusion: &TriplePattern,
    goal_bindings: &HashMap<String, Term>,
) -> Option<HashMap<String, Term>> {
    let mut out: HashMap<String, Term> = HashMap::new();
    for (g, c) in [
        (&goal.subject, &conclusion.subject),
        (&goal.predicate, &conclusion.predicate),
        (&goal.object, &conclusion.object),
    ] {
        let goal_value = match g {
            PatternTerm::Term(t) => Some(t.clone()),
            PatternTerm::Var(v) => goal_bindings.get(v).cloned(),
        };
        match (goal_value, c) {
            (Some(gv), PatternTerm::Term(ct)) => {
                if gv != *ct {
                    return None;
                }
            }
            (Some(gv), PatternTerm::Var(cv)) => {
                let key = renamed(cv);
                match out.get(&key) {
                    Some(prev) if *prev != gv => return None,
                    _ => {
                        out.insert(key, gv);
                    }
                }
            }
            (None, _) => {
                // Goal slot unbound: no constraint flows into the rule.
            }
        }
    }
    Some(out)
}

/// Rule bodies run over renamed variables; premises must see them. A
/// premise pattern's variables are renamed on the fly by wrapping solve:
/// we achieve this by renaming in `prove_inner` via pattern rewriting.
impl TriplePattern {
    /// Returns a copy with all variables renamed into the rule namespace.
    pub(crate) fn renamed(&self) -> TriplePattern {
        let map = |t: &PatternTerm| match t {
            PatternTerm::Var(v) => PatternTerm::Var(renamed(v)),
            PatternTerm::Term(t) => PatternTerm::Term(t.clone()),
        };
        TriplePattern {
            subject: map(&self.subject),
            predicate: map(&self.predicate),
            object: map(&self.object),
        }
    }
}

fn dedup_bindings(mut v: Vec<HashMap<String, Term>>) -> Vec<HashMap<String, Term>> {
    let mut seen = HashSet::new();
    v.retain(|b| {
        let mut items: Vec<(String, String)> =
            b.iter().map(|(k, t)| (k.clone(), format!("{t}"))).collect();
        items.sort();
        seen.insert(format!("{items:?}"))
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Statement;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }

    fn st(s: &str, p: &str, o: &str) -> Statement {
        Statement::new(iri(s), iri(p), iri(o))
    }

    #[test]
    fn transitive_closure_over_chain() {
        let mut g = Graph::new();
        g.insert(st("a", "sub", "b"));
        g.insert(st("b", "sub", "c"));
        g.insert(st("c", "sub", "d"));
        let inferred = TransitiveReasoner::new(vec![iri("sub")]).infer(&g);
        assert_eq!(inferred.len(), 3); // a->c, a->d, b->d
        assert!(inferred.contains(&st("a", "sub", "d")));
        assert!(!inferred.contains(&st("a", "sub", "b")), "already stated");
    }

    #[test]
    fn transitive_closure_handles_cycles() {
        let mut g = Graph::new();
        g.insert(st("a", "sub", "b"));
        g.insert(st("b", "sub", "a"));
        let inferred = TransitiveReasoner::new(vec![iri("sub")]).infer(&g);
        // No self-loops emitted, nothing new beyond the cycle itself.
        assert!(inferred.is_empty(), "{inferred:?}");
    }

    #[test]
    fn transitive_reasoner_unknown_predicate_is_empty() {
        let mut g = Graph::new();
        g.insert(st("a", "p", "b"));
        let inferred = TransitiveReasoner::new(vec![iri("never-interned")]).infer(&g);
        assert!(inferred.is_empty());
    }

    #[test]
    fn transitive_result_shares_input_dictionary() {
        let mut g = Graph::new();
        g.insert(st("a", "sub", "b"));
        g.insert(st("b", "sub", "c"));
        let inferred = TransitiveReasoner::new(vec![iri("sub")]).infer(&g);
        assert!(inferred.dict().ptr_eq(g.dict()));
    }

    #[test]
    fn rdfs_subclass_instance_inheritance() {
        let mut g = Graph::new();
        g.insert(st("ex:cat", vocab::SUB_CLASS_OF, "ex:mammal"));
        g.insert(st("ex:mammal", vocab::SUB_CLASS_OF, "ex:animal"));
        g.insert(st("ex:tom", vocab::TYPE, "ex:cat"));
        let inferred = RdfsReasoner::new().infer(&g);
        assert!(inferred.contains(&st("ex:tom", vocab::TYPE, "ex:mammal")));
        assert!(inferred.contains(&st("ex:tom", vocab::TYPE, "ex:animal")));
        assert!(inferred.contains(&st("ex:cat", vocab::SUB_CLASS_OF, "ex:animal")));
    }

    #[test]
    fn rdfs_domain_and_range() {
        let mut g = Graph::new();
        g.insert(st("ex:employs", vocab::DOMAIN, "ex:Company"));
        g.insert(st("ex:employs", vocab::RANGE, "ex:Person"));
        g.insert(st("ex:ibm", "ex:employs", "ex:alice"));
        let inferred = RdfsReasoner::new().infer(&g);
        assert!(inferred.contains(&st("ex:ibm", vocab::TYPE, "ex:Company")));
        assert!(inferred.contains(&st("ex:alice", vocab::TYPE, "ex:Person")));
    }

    #[test]
    fn rdfs_subproperty_inheritance() {
        let mut g = Graph::new();
        g.insert(st("ex:hasCEO", vocab::SUB_PROPERTY_OF, "ex:hasEmployee"));
        g.insert(st("ex:ibm", "ex:hasCEO", "ex:arvind"));
        let inferred = RdfsReasoner::new().infer(&g);
        assert!(inferred.contains(&st("ex:ibm", "ex:hasEmployee", "ex:arvind")));
    }

    #[test]
    fn rdfs_rules_cascade_to_fixpoint() {
        // subPropertyOf feeds domain: needs two iterations.
        let mut g = Graph::new();
        g.insert(st("ex:p", vocab::SUB_PROPERTY_OF, "ex:q"));
        g.insert(st("ex:q", vocab::DOMAIN, "ex:C"));
        g.insert(st("ex:s", "ex:p", "ex:o"));
        let inferred = RdfsReasoner::new().infer(&g);
        assert!(inferred.contains(&st("ex:s", "ex:q", "ex:o")));
        assert!(inferred.contains(&st("ex:s", vocab::TYPE, "ex:C")));
    }

    #[test]
    fn rule_parsing_round_trip() {
        let rule = Rule::parse("[(?a ex:parent ?b), (?b ex:parent ?c) -> (?a ex:grandparent ?c)]")
            .unwrap();
        assert_eq!(rule.premises.len(), 2);
        assert_eq!(rule.conclusions.len(), 1);
        assert_eq!(
            rule.conclusions[0].predicate,
            PatternTerm::Term(iri("ex:grandparent"))
        );
    }

    #[test]
    fn rule_parsing_literals() {
        let rule = Rule::parse("[(?x ex:age 42) -> (?x ex:label \"answer\")]").unwrap();
        assert_eq!(
            rule.premises[0].object,
            PatternTerm::Term(Term::integer(42))
        );
        assert_eq!(
            rule.conclusions[0].object,
            PatternTerm::Term(Term::string("answer"))
        );
    }

    #[test]
    fn rule_parsing_errors() {
        assert!(Rule::parse("no brackets").is_err());
        assert!(Rule::parse("[(?a p ?b)]").is_err()); // no arrow
        assert!(Rule::parse("[(?a p) -> (?a q ?b)]").is_err()); // arity
        assert!(Rule::parse("[(?a p ?b) -> (?a q ?c)]").is_err()); // unbound head var
        assert!(Rule::parse("[ -> (?a q ?b)]").is_err()); // empty body
    }

    #[test]
    fn rule_compilation_numbers_variables_across_premises_and_head() {
        let rule = Rule::parse("[(?a ex:parent ?b), (?b ex:parent ?c) -> (?a ex:grandparent ?c)]")
            .unwrap();
        let dict = TermDict::new();
        let compiled = compile_rule(&rule, &dict);
        assert_eq!(compiled.nvars, 3);
        // ?b must resolve to the same index in both premises.
        assert_eq!(compiled.premises[0].object, compiled.premises[1].subject);
        // ?a and ?c in the head reuse the body's indexes.
        assert_eq!(
            compiled.conclusions[0].subject,
            compiled.premises[0].subject
        );
        assert_eq!(compiled.conclusions[0].object, compiled.premises[1].object);
        // Constants were interned.
        assert!(dict.lookup(&iri("ex:grandparent")).is_some());
    }

    #[test]
    fn forward_chaining_grandparents() {
        let mut g = Graph::new();
        g.insert(st("alice", "parent", "bob"));
        g.insert(st("bob", "parent", "carol"));
        g.insert(st("carol", "parent", "dave"));
        let r = GenericRuleReasoner::from_rules_text(
            "# family rules\n[(?a parent ?b), (?b parent ?c) -> (?a grandparent ?c)]\n",
        )
        .unwrap();
        let inferred = r.infer(&g);
        assert!(inferred.contains(&st("alice", "grandparent", "carol")));
        assert!(inferred.contains(&st("bob", "grandparent", "dave")));
        assert_eq!(inferred.len(), 2);
    }

    #[test]
    fn forward_chaining_recursive_ancestor_terminates() {
        let mut g = Graph::new();
        g.insert(st("a", "parent", "b"));
        g.insert(st("b", "parent", "c"));
        g.insert(st("c", "parent", "d"));
        let r = GenericRuleReasoner::from_rules_text(
            "[(?x parent ?y) -> (?x ancestor ?y)]\n\
             [(?x parent ?y), (?y ancestor ?z) -> (?x ancestor ?z)]",
        )
        .unwrap();
        let inferred = r.infer(&g);
        // ancestor: a-b,a-c,a-d,b-c,b-d,c-d = 6
        assert_eq!(
            inferred
                .match_pattern(None, Some(&iri("ancestor")), None)
                .len(),
            6
        );
    }

    #[test]
    fn forward_chaining_multiple_conclusions() {
        let mut g = Graph::new();
        g.insert(st("x", "is", "bird"));
        let r = GenericRuleReasoner::from_rules_text(
            "[(?a is bird) -> (?a can fly), (?a has feathers)]",
        )
        .unwrap();
        let inferred = r.infer(&g);
        assert!(inferred.contains(&st("x", "can", "fly")));
        assert!(inferred.contains(&st("x", "has", "feathers")));
    }

    #[test]
    fn forward_chaining_repeated_variable_in_premise() {
        let mut g = Graph::new();
        g.insert(st("a", "knows", "a"));
        g.insert(st("a", "knows", "b"));
        let r =
            GenericRuleReasoner::from_rules_text("[(?x knows ?x) -> (?x is narcissist)]").unwrap();
        let inferred = r.infer(&g);
        assert!(inferred.contains(&st("a", "is", "narcissist")));
        assert_eq!(inferred.len(), 1, "{inferred:?}");
    }

    #[test]
    fn backward_chaining_proves_derived_facts() {
        let mut g = Graph::new();
        g.insert(st("alice", "parent", "bob"));
        g.insert(st("bob", "parent", "carol"));
        let r = GenericRuleReasoner::from_rules_text(
            "[(?a parent ?b), (?b parent ?c) -> (?a grandparent ?c)]",
        )
        .unwrap();
        // Rename body premises into the rule namespace for proving.
        let goal = TriplePattern {
            subject: PatternTerm::Var("who".into()),
            predicate: PatternTerm::Term(iri("grandparent")),
            object: PatternTerm::Term(iri("carol")),
        };
        let solutions = r.prove(&g, &goal, 4);
        assert!(
            solutions
                .iter()
                .any(|b| b.get("who") == Some(&iri("alice"))),
            "{solutions:?}"
        );
    }

    #[test]
    fn backward_chaining_ground_fact() {
        let mut g = Graph::new();
        g.insert(st("a", "p", "b"));
        let r = GenericRuleReasoner::new(vec![]);
        let goal = TriplePattern {
            subject: PatternTerm::Term(iri("a")),
            predicate: PatternTerm::Term(iri("p")),
            object: PatternTerm::Term(iri("b")),
        };
        assert_eq!(r.prove(&g, &goal, 3).len(), 1);
        let goal_missing = TriplePattern {
            subject: PatternTerm::Term(iri("a")),
            predicate: PatternTerm::Term(iri("p")),
            object: PatternTerm::Term(iri("zzz")),
        };
        assert!(r.prove(&g, &goal_missing, 3).is_empty());
    }

    #[test]
    fn backward_chaining_recursive_rules_terminate() {
        let mut g = Graph::new();
        g.insert(st("a", "parent", "b"));
        g.insert(st("b", "parent", "c"));
        let r = GenericRuleReasoner::from_rules_text(
            "[(?x parent ?y) -> (?x ancestor ?y)]\n\
             [(?x parent ?y), (?y ancestor ?z) -> (?x ancestor ?z)]",
        )
        .unwrap();
        let goal = TriplePattern {
            subject: PatternTerm::Term(iri("a")),
            predicate: PatternTerm::Term(iri("ancestor")),
            object: PatternTerm::Var("z".into()),
        };
        let solutions = r.prove(&g, &goal, 8);
        let zs: HashSet<&Term> = solutions.iter().filter_map(|b| b.get("z")).collect();
        assert!(zs.contains(&iri("b")), "{solutions:?}");
        assert!(zs.contains(&iri("c")), "{solutions:?}");
    }
}
