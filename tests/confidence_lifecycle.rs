//! Accuracy levels (§5) over their whole life on a durable knowledge base:
//! weighted facts, imports from a simulated knowledge service, plain
//! re-assertions, conflict rounds, snapshots, and crashes on `SimFs`, each
//! step checked against a map from statement to confidence.
//!
//! A crash is armed at a random filesystem operation before some mutations
//! and followed by a remount and reopen. An acknowledged operation was
//! fsynced, so the reopened store holds every acknowledged operation. Of
//! the one that failed, its group commit may have reached the disk whole
//! (a write can survive a failed fsync), not at all, or — torn — up to
//! some record: the store holds an exact prefix of the logged records.
//! Each record states a fact together with its level, so no prefix leaves
//! a level without its fact, or a fact without its level.
//!
//! A second history enables a standing weighted rule first: the store must
//! then hold the naive weighted closure of the model's stated facts, each
//! derived fact at the level its best derivation gives it.

use cogsdk::datasvc::knowledge::knowledge_service;
use cogsdk::kb::federation::describe_remote;
use cogsdk::kb::kb::Conflict;
use cogsdk::kb::{KbOptions, PersonalKnowledgeBase};
use cogsdk::obs::Telemetry;
use cogsdk::rdf::{GenericRuleReasoner, Rule, Statement, Term};
use cogsdk::sdk::RichSdk;
use cogsdk::sim::rng::Rng;
use cogsdk::sim::{SimEnv, SimFs, SimService, Vfs};
use cogsdk::store::MemoryKv;
use std::collections::BTreeMap;
use std::sync::Arc;

const SEEDS: u64 = 24;
const STEPS: usize = 60;
const COUNTRIES: [&str; 4] = ["germany", "france", "italy", "japan"];
const SURFACES: [&str; 4] = ["Germany", "France", "Italy", "Japan"];
const CAPITALS: [&str; 6] = ["Berlin", "Paris", "Rome", "Tokyo", "Bonn", "Lyon"];
/// The standing weighted rule of the second history, and its strength.
const CAPITAL_OF: (&str, f64) = ("[(?c kb:capital ?x) -> (?x kb:capitalOf ?c)]", 0.9);

mod weighted_oracle;

type Model = BTreeMap<Statement, f64>;

/// What the store holds for the stated `model` under `weighted`: every
/// fact of its closure at its level.
fn closure(model: &Model, weighted: &[(Rule, f64)]) -> Model {
    let levels = weighted_oracle::closure(model, false, weighted).into_iter();
    levels.map(|(st, (level, _))| (st, level)).collect()
}

fn open(fs: &Arc<SimFs>) -> PersonalKnowledgeBase {
    PersonalKnowledgeBase::open_durable_on(
        fs.clone() as Arc<dyn Vfs>,
        Arc::new(MemoryKv::new()),
        KbOptions::default(),
        Telemetry::disabled(),
    )
    .expect("the store reopens")
}

/// The level `incoming` leaves on `st`: an unrated fact takes it, a rated
/// one keeps the most trusted level seen.
fn merge(model: &Model, st: &Statement, incoming: f64) -> f64 {
    match model.get(st) {
        Some(&rated) if rated < 1.0 => rated.max(incoming),
        _ => incoming,
    }
}

/// Each subject/predicate pair with more than one object, its candidates
/// most trusted first: what `conflicts()` answers for the model.
fn model_conflicts(model: &Model) -> Vec<Conflict> {
    let mut groups: BTreeMap<(Term, Term), Vec<(Term, f64)>> = BTreeMap::new();
    for (st, &c) in model {
        let key = (st.subject.clone(), st.predicate.clone());
        groups.entry(key).or_default().push((st.object.clone(), c));
    }
    groups.retain(|_, candidates| candidates.len() > 1);
    for candidates in groups.values_mut() {
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    }
    groups.into_iter().collect()
}

fn weak(model: &Model, threshold: f64) -> Vec<(Statement, f64)> {
    let mut out: Vec<(Statement, f64)> = model
        .iter()
        .filter(|&(_, &c)| c < threshold)
        .map(|(st, &c)| (st.clone(), c))
        .collect();
    out.sort_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
    });
    out
}

/// Whether the store holds exactly the model's facts at its levels.
fn holds(kb: &PersonalKnowledgeBase, model: &Model) -> bool {
    kb.statement_count() == model.len()
        && model
            .iter()
            .all(|(st, &c)| kb.fact_confidence(st) == Some(c))
}

fn check(kb: &PersonalKnowledgeBase, model: &Model, at: &str) {
    assert_eq!(kb.statement_count(), model.len(), "{at}: facts");
    for (st, &c) in model {
        assert_eq!(kb.fact_confidence(st), Some(c), "{at}: {st}");
    }
    for threshold in [0.5, 1.0] {
        assert_eq!(
            kb.weak_facts(threshold),
            weak(model, threshold),
            "{at}: weak"
        );
    }
    let conflicts = kb.conflicts();
    for (_, candidates) in &conflicts {
        let best = candidates.iter().map(|c| c.1).fold(0.0, f64::max);
        assert_eq!(candidates[0].1, best, "{at}: most trusted first");
    }
    assert_eq!(conflicts, model_conflicts(model), "{at}: conflicts");
}

/// What the service answers for each country, fetched once: the facts an
/// import of it brings.
fn remote_facts(sdk: &RichSdk, service: &Arc<SimService>) -> Vec<Vec<Statement>> {
    let fetch = |entity: &str| loop {
        if let Ok(facts) = describe_remote(service, entity, &sdk.call()) {
            return facts.statements;
        }
    };
    COUNTRIES.iter().map(|entity| fetch(entity)).collect()
}

/// The statement `add_fact` stores for surface forms.
fn fact(kb: &PersonalKnowledgeBase, subject: &str, object: &str) -> Statement {
    let id = |surface| {
        kb.disambiguate(surface)
            .map(|e| Term::iri(format!("kb:{}", e.id)))
    };
    let subject = id(subject).expect("a catalog country");
    let object = id(object).unwrap_or_else(|| Term::string(object));
    Statement::new(subject, Term::iri("kb:capital"), object)
}

/// Runs one seeded history; returns how often a failed operation left
/// nothing, its whole group, or a torn part of it, and how many conflict
/// rounds dropped something.
fn run(seed: u64) -> [usize; 4] {
    run_with(seed, None)
}

/// [`run`], with `rule` standing as a weighted rule from the start.
fn run_with(seed: u64, rule: Option<(&str, f64)>) -> [usize; 4] {
    let mut seen = [0; 4];
    let env = SimEnv::with_seed(seed);
    let sdk = RichSdk::new(&env);
    let service = knowledge_service(&env, "dbpedia-sim");
    let remote = remote_facts(&sdk, &service);
    let capital = Term::iri("kb:capital");
    let fs = Arc::new(SimFs::new(seed));
    let mut kb = open(&fs);
    let mut weighted = Vec::new();
    if let Some((text, strength)) = rule {
        let rules = GenericRuleReasoner::from_rules_text(text).unwrap();
        weighted.extend(rules.rules().iter().map(|r| (r.clone(), strength)));
        kb.infer_rules_weighted(text, strength).unwrap();
    }
    let mut model = Model::new();
    let mut rng = Rng::new(seed);
    let pick = |rng: &mut Rng, n: usize| rng.below(n as u64) as usize;
    for step in 0..STEPS {
        let armed = rng.chance(0.2);
        if armed {
            fs.fail_after_ops(rng.below(3));
        }
        let op = pick(&mut rng, 7);
        let at = format!("seed {seed} step {step} op {op} armed {armed}");
        // Each arm returns whether the operation was acknowledged, and
        // pushes the model after each record it logs, in log order.
        let mut logged: Vec<Model> = Vec::new();
        let mut log = |change: &dyn Fn(&mut Model)| {
            let mut next = logged.last().unwrap_or(&model).clone();
            change(&mut next);
            logged.push(next);
        };
        let acked = match op {
            0 => {
                let (s, o) = (SURFACES[pick(&mut rng, 4)], CAPITALS[pick(&mut rng, 6)]);
                let c = [0.2, 0.4, 0.6, 0.8, 1.0][pick(&mut rng, 5)];
                let st = fact(&kb, s, o);
                log(&|m| {
                    m.insert(st.clone(), merge(&model, &st, c));
                });
                kb.add_fact_with_confidence(s, "capital", o, c).is_ok()
            }
            1 => {
                let country = pick(&mut rng, 4);
                let c = [0.3, 0.5, 0.7, 0.9][pick(&mut rng, 4)];
                for st in &remote[country] {
                    log(&|m| {
                        m.insert(st.clone(), merge(&model, st, c));
                    });
                }
                let imported = kb.import_entity(&service, COUNTRIES[country], c, &sdk.call());
                imported.is_ok()
            }
            2 => {
                let (s, o) = (SURFACES[pick(&mut rng, 4)], CAPITALS[pick(&mut rng, 6)]);
                let st = fact(&kb, s, o);
                log(&|m| {
                    m.entry(st.clone()).or_insert(1.0);
                });
                kb.add_fact(s, "capital", o).is_ok()
            }
            3 => {
                let facts = &remote[pick(&mut rng, 4)];
                let st = facts[pick(&mut rng, facts.len())].clone();
                log(&|m| {
                    m.entry(st.clone()).or_insert(1.0);
                });
                kb.add_statement(st).is_ok()
            }
            4 => {
                let mut losers = 0;
                for ((s, p), candidates) in model_conflicts(&model) {
                    if p == capital {
                        for (o, _) in candidates.into_iter().skip(1) {
                            let st = Statement::new(s.clone(), p.clone(), o);
                            log(&|m| {
                                m.remove(&st);
                            });
                            losers += 1;
                        }
                    }
                }
                let dropped = kb.resolve_conflicts_for(&capital);
                seen[3] += usize::from(losers > 0 && dropped.is_ok());
                dropped
                    .inspect(|&n| assert_eq!(n, losers, "{at}: dropped"))
                    .is_ok()
            }
            5 => kb.snapshot().is_ok(),
            _ => true,
        };
        // An armed fault, or the crash operation itself, ends the process:
        // remount and reopen.
        if armed || op == 6 {
            drop(kb);
            fs.crash();
            kb = open(&fs);
        }
        if acked {
            model = logged.pop().unwrap_or(model);
        } else if !logged.is_empty() {
            let records = logged.len();
            match logged
                .iter()
                .rposition(|m| holds(&kb, &closure(m, &weighted)))
            {
                Some(last) => {
                    seen[1 + usize::from(last + 1 < records)] += 1;
                    model = logged.swap_remove(last);
                }
                None => seen[0] += 1,
            }
        }
        check(&kb, &closure(&model, &weighted), &at);
    }
    seen
}

#[test]
fn confidences_follow_their_facts_through_imports_conflicts_and_crashes() {
    let mut seen = [0; 4];
    for seed in 0..SEEDS {
        for (total, n) in seen.iter_mut().zip(run(0xC0F1 + seed)) {
            *total += n;
        }
    }
    // Failed operations that left nothing, their whole group, a torn part
    // of it; conflict rounds that dropped facts.
    assert!(seen.iter().all(|&n| n > 0), "kinds seen: {seen:?}");
}

#[test]
fn standing_weighted_conclusions_follow_their_premises_through_crashes() {
    let mut seen = [0; 4];
    for seed in 0..SEEDS {
        for (total, n) in seen
            .iter_mut()
            .zip(run_with(0xC0F2 + seed, Some(CAPITAL_OF)))
        {
            *total += n;
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "kinds seen: {seen:?}");
}

#[test]
fn an_imported_level_never_outlives_or_lacks_its_fact_across_a_crash() {
    let env = SimEnv::with_seed(17);
    let sdk = RichSdk::new(&env);
    let service = knowledge_service(&env, "dbpedia-sim");
    let facts = &remote_facts(&sdk, &service)[0];
    let berlin = Statement::new(
        Term::iri("kb:germany"),
        Term::iri("kb:capital"),
        Term::iri("kb:berlin"),
    );
    assert!(facts.contains(&berlin));
    // A crash at each operation an import makes, and one after it, on
    // several seeds of torn bytes.
    for (seed, op) in (0..8).flat_map(|seed| (0..5).map(move |op| (seed, op))) {
        let at = format!("seed {seed}, crash at op {op}");
        let fs = Arc::new(SimFs::new(seed));
        let kb = open(&fs);
        fs.fail_after_ops(op);
        let acked = kb
            .import_entity(&service, "germany", 0.8, &sdk.call())
            .is_ok();
        drop(kb);
        fs.crash();
        let kb = open(&fs);
        let levels: Vec<Option<f64>> = facts.iter().map(|st| kb.fact_confidence(st)).collect();
        let landed = levels.iter().filter(|level| level.is_some()).count();
        assert!(
            levels.iter().all(|&l| l.is_none() || l == Some(0.8)),
            "{at}: {levels:?}"
        );
        assert_eq!(kb.statement_count(), landed, "{at}");
        if acked {
            assert_eq!(landed, facts.len(), "{at}");
        }
        // A plain assertion afterwards inherits a level only from a fact
        // that landed.
        let level = kb.fact_confidence(&berlin).map_or(1.0, |_| 0.8);
        kb.add_statement(berlin.clone()).unwrap();
        assert_eq!(kb.fact_confidence(&berlin), Some(level), "{at}");
    }
}
