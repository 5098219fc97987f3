//! Randomized oracle suite for the BGP query planner.
//!
//! Generates hundreds of seeded (graph, query) cases and checks the
//! cost-based planner against a *naive reference evaluator* that shares
//! no code with the planner: it walks every statement per pattern and
//! unifies bindings by term equality (a cross-product join), applying
//! `UNION` blocks and `OPTIONAL` groups with the same textbook
//! semantics. Three-way agreement is required on every case:
//!
//! * naive reference == planner (`BgpQuery::execute`)
//! * naive reference == optimizer-bypassed plan (`execute_textual`)
//!
//! Results are compared as *multisets* (bags) of rows — join order must
//! never change what is returned, only how fast. An offset/limit slice
//! must be exactly the in-order window `[offset, offset + limit)` of the
//! unsliced planned execution. Every case runs on a [`Graph`], on a
//! freshly frozen [`EpochSnapshot`], and on an epoch whose scans merge a
//! frozen base with at least two delta runs, one of them deleting base
//! triples. The generator covers
//! 1–5-pattern BGPs, repeated variables, fully-unbound patterns,
//! constants absent from the dictionary (in required patterns and,
//! crucially, local to `OPTIONAL`/`UNION` arms), and offset/limit
//! slices. The whole suite folds into one FNV-1a digest that is
//! asserted byte-identical across two full passes and pinned to a
//! constant, so any semantic drift shows up as a digest change.

use cogsdk_rdf::reason::TriplePattern;
use cogsdk_rdf::{
    BgpQuery, DurableStore, EpochSnapshot, Graph, QueryView, Solution, Statement, Term,
};
use cogsdk_sim::rng::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

const CASES: u64 = 240;
const MASTER_SEED: u64 = 0xB6_9055;
const EXPECTED_DIGEST: u64 = 0x0375_866c_bcc0_39c0;

/// One slot of a generated pattern, kept in a planner-independent form.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Var(String),
    Const(Term),
}

#[derive(Debug, Clone)]
struct Pat {
    s: Slot,
    p: Slot,
    o: Slot,
}

#[derive(Debug, Clone, Default)]
struct Case {
    triples: Vec<Statement>,
    required: Vec<Pat>,
    optionals: Vec<Vec<Pat>>,
    unions: Vec<Vec<Vec<Pat>>>,
    offset: usize,
    limit: Option<usize>,
}

type Row = BTreeMap<String, Term>;

/// Extends `row` with the bindings needed for `pat` to match `st`;
/// `None` on any constant or already-bound-variable mismatch.
fn unify(row: &Row, pat: &Pat, st: &Statement) -> Option<Row> {
    let mut out = row.clone();
    for (slot, val) in [
        (&pat.s, &st.subject),
        (&pat.p, &st.predicate),
        (&pat.o, &st.object),
    ] {
        match slot {
            Slot::Const(c) => {
                if c != val {
                    return None;
                }
            }
            Slot::Var(v) => match out.get(v) {
                Some(bound) if bound != val => return None,
                Some(_) => {}
                None => {
                    out.insert(v.clone(), val.clone());
                }
            },
        }
    }
    Some(out)
}

/// Inner-joins `rows` through every pattern of `group`, statement by
/// statement — quadratic and proud of it.
fn join_group(rows: Vec<Row>, group: &[Pat], triples: &[Statement]) -> Vec<Row> {
    let mut rows = rows;
    for pat in group {
        let mut next = Vec::new();
        for row in &rows {
            for st in triples {
                if let Some(ext) = unify(row, pat, st) {
                    next.push(ext);
                }
            }
        }
        rows = next;
        if rows.is_empty() {
            break;
        }
    }
    rows
}

/// The naive reference evaluator: required patterns in textual order,
/// then union blocks, then optional groups. No indexes, no dictionary —
/// arm-local emptiness falls out of plain term equality.
fn reference_rows(case: &Case) -> Vec<Row> {
    let mut rows = join_group(vec![Row::new()], &case.required, &case.triples);
    for arms in &case.unions {
        let mut next = Vec::new();
        for row in &rows {
            for arm in arms {
                next.extend(join_group(vec![row.clone()], arm, &case.triples));
            }
        }
        rows = next;
    }
    for group in &case.optionals {
        let mut next = Vec::new();
        for row in &rows {
            let extended = join_group(vec![row.clone()], group, &case.triples);
            if extended.is_empty() {
                next.push(row.clone());
            } else {
                next.extend(extended);
            }
        }
        rows = next;
    }
    rows
}

fn slot_text(slot: &Slot) -> String {
    match slot {
        Slot::Var(v) => format!("?{v}"),
        Slot::Const(t) => t.to_string(),
    }
}

fn pattern_of(pat: &Pat) -> TriplePattern {
    let text = format!(
        "({} {} {})",
        slot_text(&pat.s),
        slot_text(&pat.p),
        slot_text(&pat.o)
    );
    TriplePattern::parse(&text).expect("generated pattern parses")
}

fn to_bgp(case: &Case) -> BgpQuery {
    let mut q = BgpQuery::new();
    for pat in &case.required {
        q = q.pattern(pattern_of(pat));
    }
    for arms in &case.unions {
        q = q.union(
            arms.iter()
                .map(|arm| arm.iter().map(pattern_of).collect())
                .collect(),
        );
    }
    for group in &case.optionals {
        q = q.optional(group.iter().map(pattern_of).collect());
    }
    q
}

/// Canonical, order-independent rendering of a result bag: each row as
/// sorted `var=term` pairs, rows sorted, all joined.
fn canon_solutions(rows: &[Solution]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut pairs: Vec<String> = row.iter().map(|(v, t)| format!("{v}={t}")).collect();
            pairs.sort();
            pairs.join("&")
        })
        .collect();
    out.sort();
    out
}

fn canon_reference(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| {
            let pairs: Vec<String> = row.iter().map(|(v, t)| format!("{v}={t}")).collect();
            pairs.join("&")
        })
        .collect();
    out.sort();
    out
}

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    let mut h = digest;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// --- generation -----------------------------------------------------------

fn random_term(rng: &mut Rng) -> Term {
    match rng.below(10) {
        0..=4 => Term::iri(format!("ex:s{}", rng.below(8))),
        5..=7 => Term::iri(format!("ex:o{}", rng.below(5))),
        8 => Term::integer(rng.below(4) as i64),
        _ => Term::iri(format!("ex:ghost{}", rng.below(3))),
    }
}

fn random_slot(rng: &mut Rng, var_chance: f64) -> Slot {
    if rng.chance(var_chance) {
        let name = ["a", "b", "c", "d", "e", "f"][rng.below(6) as usize];
        Slot::Var(name.to_string())
    } else {
        Slot::Const(random_term(rng))
    }
}

/// Mostly derives patterns from triples actually in the graph (slots
/// replaced by variables with high probability) so joins have matches;
/// sometimes generates a fully random — likely cold — pattern.
fn random_pat(rng: &mut Rng, triples: &[Statement]) -> Pat {
    if !triples.is_empty() && rng.chance(0.85) {
        let st = rng.choose(triples);
        let varify = |rng: &mut Rng, term: &Term, p: f64| {
            if rng.chance(p) {
                let name = ["a", "b", "c", "d", "e", "f"][rng.below(6) as usize];
                Slot::Var(name.to_string())
            } else {
                Slot::Const(term.clone())
            }
        };
        Pat {
            s: varify(rng, &st.subject, 0.65),
            p: varify(rng, &st.predicate, 0.25),
            o: varify(rng, &st.object, 0.55),
        }
    } else {
        Pat {
            s: random_slot(rng, 0.6),
            p: if rng.chance(0.75) {
                Slot::Const(Term::iri(format!("ex:p{}", rng.below(4))))
            } else {
                random_slot(rng, 0.5)
            },
            o: random_slot(rng, 0.55),
        }
    }
}

fn random_case(rng: &mut Rng, case_idx: u64) -> Case {
    let mut case = Case::default();
    let n_triples = 15 + rng.below(50);
    for _ in 0..n_triples {
        let st = Statement::new(
            Term::iri(format!("ex:s{}", rng.below(8))),
            Term::iri(format!("ex:p{}", rng.below(4))),
            match rng.below(4) {
                0 => Term::iri(format!("ex:s{}", rng.below(8))),
                1 => Term::integer(rng.below(4) as i64),
                _ => Term::iri(format!("ex:o{}", rng.below(5))),
            },
        );
        case.triples.push(st);
    }
    // Ghost terms above never enter the graph, so some generated
    // constants are guaranteed absent from the dictionary.
    case.triples.sort();
    case.triples.dedup();

    let n_required = 1 + rng.below(5) as usize;
    for _ in 0..n_required {
        case.required.push(random_pat(rng, &case.triples));
    }
    if case_idx.is_multiple_of(10) {
        // Force the unbound-everything pattern into every tenth case.
        case.required.push(Pat {
            s: Slot::Var("x".to_string()),
            p: Slot::Var("y".to_string()),
            o: Slot::Var("z".to_string()),
        });
    }
    if rng.chance(0.4) {
        let arm_count = 2 + rng.below(2) as usize;
        let arms: Vec<Vec<Pat>> = (0..arm_count)
            .map(|_| {
                (0..1 + rng.below(2))
                    .map(|_| random_pat(rng, &case.triples))
                    .collect()
            })
            .collect();
        case.unions.push(arms);
    }
    if rng.chance(0.4) {
        let group: Vec<Pat> = (0..1 + rng.below(2))
            .map(|_| random_pat(rng, &case.triples))
            .collect();
        case.optionals.push(group);
    }
    case.offset = rng.below(4) as usize;
    if rng.chance(0.5) {
        case.limit = Some(rng.below(6) as usize);
    }
    case
}

/// The case's triples as a pinned epoch: half of them (plus junk
/// triples) frozen into the base by a reset, then three published
/// batches — the next share of the triples, a deletion of the junk, and
/// the last triple. The last batch is too small to be merged into the
/// runs below it, so scans merge the base with two or three runs.
fn epoch_of(case: &Case) -> Arc<EpochSnapshot> {
    let junk: Vec<Statement> = (0..8)
        .map(|i| {
            Statement::new(
                Term::iri(format!("ex:junk{i}")),
                Term::iri("ex:junk"),
                Term::iri(format!("ex:junk_o{i}")),
            )
        })
        .collect();
    let (base, rest) = case.triples.split_at(case.triples.len() / 2);
    let (middle, last) = rest.split_at(rest.len() - 1);
    let mut frozen = Graph::new();
    for st in base.iter().chain(&junk) {
        frozen.insert(st.clone());
    }
    let mut store = DurableStore::in_memory();
    store.reset(frozen).unwrap();
    store.insert_batch(middle.iter().cloned()).unwrap();
    store.remove_batch(&junk).unwrap();
    store.insert_batch(last.iter().cloned()).unwrap();
    let epoch = store.epochs().pin();
    assert!(epoch.delta_runs() >= 2, "{} runs", epoch.delta_runs());
    assert_eq!(epoch.len(), case.triples.len());
    epoch
}

/// The graph as a freshly frozen epoch: a base and no runs, where scans
/// read the base arrays directly and loop probes start near the last.
fn frozen_epoch(graph: &Graph) -> Arc<EpochSnapshot> {
    let mut store = DurableStore::in_memory();
    store.reset(graph.clone()).unwrap();
    let epoch = store.epochs().pin();
    assert_eq!(epoch.delta_runs(), 0);
    epoch
}

/// Checks one view against the reference bag: the planner and the
/// optimizer-bypassed plan return it, and the sliced query returns the
/// exact window of the unsliced planned execution, in order.
fn check_view<V: QueryView>(case_idx: u64, case: &Case, view: &V, on: &str, expected: &[String]) {
    let bgp = to_bgp(case);
    let planned = bgp.execute(view);
    assert_eq!(
        canon_solutions(&planned),
        expected,
        "case {case_idx} on {on}: planner disagrees with naive reference\nquery: {case:?}"
    );
    assert_eq!(
        canon_solutions(&bgp.execute_textual(view)),
        expected,
        "case {case_idx} on {on}: textual-order plan disagrees with naive reference"
    );
    let limit = case.limit.unwrap_or(usize::MAX);
    let window: Vec<Solution> = planned.into_iter().skip(case.offset).take(limit).collect();
    assert_eq!(
        bgp.offset(case.offset).limit(limit).execute(view),
        window,
        "case {case_idx} on {on}: slice is not the in-order window (offset={} limit={:?})",
        case.offset,
        case.limit
    );
}

// --- the suite ------------------------------------------------------------

/// Runs every case once, asserting agreement, and folds the canonical
/// results into a digest.
fn run_suite() -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut nonempty = 0usize;
    for case_idx in 0..CASES {
        let mut rng = Rng::new(MASTER_SEED ^ (case_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let case = random_case(&mut rng, case_idx);
        let mut graph = Graph::new();
        for st in &case.triples {
            graph.insert(st.clone());
        }

        let expected = canon_reference(&reference_rows(&case));
        check_view(case_idx, &case, &graph, "graph", &expected);
        check_view(case_idx, &case, &*epoch_of(&case), "epoch", &expected);
        check_view(case_idx, &case, &*frozen_epoch(&graph), "frozen", &expected);

        if !expected.is_empty() {
            nonempty += 1;
        }
        for row in &expected {
            digest = fnv1a(digest, row.as_bytes());
            digest = fnv1a(digest, b";");
        }
        digest = fnv1a(digest, b"|case|");
    }
    // The generator must actually exercise the engine, not produce a
    // wall of empty results.
    assert!(
        nonempty >= CASES as usize / 4,
        "only {nonempty}/{CASES} cases produced rows — generator too cold"
    );
    digest
}

#[test]
fn planner_matches_naive_reference_on_seeded_cases() {
    let first = run_suite();
    let second = run_suite();
    assert_eq!(first, second, "suite digest must be byte-deterministic");
    assert_eq!(
        first, EXPECTED_DIGEST,
        "suite digest drifted — semantics changed (update EXPECTED_DIGEST \
         only after auditing the diff): got {first:#018x}"
    );
}
