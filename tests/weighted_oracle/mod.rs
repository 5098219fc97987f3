//! The from-scratch oracle for levels (§5's accuracy levels) under standing
//! rules: a naive fixpoint over a map from statement to level. A stated
//! fact keeps its stated level; a derived one takes the best of its
//! derivations — 1.0 from RDFS, `strength × min(premise levels)` from a
//! weighted rule. Each round recomputes every one-step derivation from the
//! last round's levels, until nothing changes.

use cogsdk::rdf::model::vocab;
use cogsdk::rdf::reason::PatternTerm;
use cogsdk::rdf::{Rule, Statement, Term};
use std::collections::{BTreeMap, HashMap};

pub type Levels = BTreeMap<Statement, f64>;

/// Every fact `stated` entails under RDFS (if `rdfs`) and `weighted`, at
/// its level, with whether it is derived rather than stated.
pub fn closure(
    stated: &Levels,
    rdfs: bool,
    weighted: &[(Rule, f64)],
) -> BTreeMap<Statement, (f64, bool)> {
    let mut levels = stated.clone();
    loop {
        let mut next = stated.clone();
        let mut derive = |st: Statement, level: f64| {
            if !stated.contains_key(&st) {
                let held = next.entry(st).or_insert(level);
                *held = held.max(level);
            }
        };
        if rdfs {
            let mut by_subject: HashMap<&Term, Vec<&Statement>> = HashMap::new();
            for st in levels.keys() {
                by_subject.entry(&st.subject).or_default().push(st);
            }
            for a in levels.keys() {
                for key in [&a.object, &a.predicate] {
                    for b in by_subject.get(key).into_iter().flatten() {
                        rdfs_step(a, b, &mut |st| derive(st, 1.0));
                    }
                }
            }
        }
        for (rule, strength) in weighted {
            let mut partial = vec![(HashMap::new(), 1.0f64)];
            for premise in &rule.premises {
                let mut grown = Vec::new();
                for (bindings, low) in &partial {
                    for (st, &level) in &levels {
                        let mut b: HashMap<&str, &Term> = HashMap::clone(bindings);
                        let slots = [
                            (&premise.subject, &st.subject),
                            (&premise.predicate, &st.predicate),
                            (&premise.object, &st.object),
                        ];
                        let fits = slots.into_iter().all(|(slot, term)| match slot {
                            PatternTerm::Term(t) => t == term,
                            PatternTerm::Var(v) => *b.entry(v.as_str()).or_insert(term) == term,
                        });
                        if fits {
                            grown.push((b, low.min(level)));
                        }
                    }
                }
                partial = grown;
            }
            for (b, low) in partial {
                for conclusion in &rule.conclusions {
                    let slot = |t: &PatternTerm| match t {
                        PatternTerm::Term(term) => term.clone(),
                        PatternTerm::Var(v) => b[v.as_str()].clone(),
                    };
                    let (s, p) = (slot(&conclusion.subject), slot(&conclusion.predicate));
                    if s.is_resource() && matches!(p, Term::Iri(_)) {
                        derive(
                            Statement::new(s, p, slot(&conclusion.object)),
                            strength * low,
                        );
                    }
                }
            }
        }
        if next == levels {
            let split = |(st, level): (Statement, f64)| {
                let derived = !stated.contains_key(&st);
                (st, (level, derived))
            };
            return levels.into_iter().map(split).collect();
        }
        levels = next;
    }
}

/// What RDFS (rdfs2/3/5/7/9/11) concludes from `a` and a fact `b` about
/// `a`'s object or predicate.
fn rdfs_step(a: &Statement, b: &Statement, out: &mut dyn FnMut(Statement)) {
    let is = |t: &Term, iri: &str| matches!(t, Term::Iri(i) if i == iri);
    let (s, o) = (a.subject.clone(), b.object.clone());
    if a.object == b.subject {
        for lattice in [vocab::SUB_CLASS_OF, vocab::SUB_PROPERTY_OF] {
            let chained = is(&a.predicate, lattice) && is(&b.predicate, lattice);
            if chained && o.is_resource() && s != o {
                out(Statement::new(s.clone(), a.predicate.clone(), o.clone()));
            }
        }
        if is(&a.predicate, vocab::TYPE) && is(&b.predicate, vocab::SUB_CLASS_OF) {
            out(Statement::new(s.clone(), a.predicate.clone(), o.clone()));
        }
    }
    if a.predicate == b.subject {
        if is(&b.predicate, vocab::DOMAIN) {
            out(Statement::new(s.clone(), Term::iri(vocab::TYPE), o.clone()));
        }
        if is(&b.predicate, vocab::RANGE) && a.object.is_resource() {
            out(Statement::new(
                a.object.clone(),
                Term::iri(vocab::TYPE),
                o.clone(),
            ));
        }
        if is(&b.predicate, vocab::SUB_PROPERTY_OF) && matches!(o, Term::Iri(_)) {
            out(Statement::new(s, o, a.object.clone()));
        }
    }
}
