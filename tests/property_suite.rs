//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary inputs, spanning the storage, RDF, SDK and text layers.

use cogsdk::json::{json, Json};
use cogsdk::rdf::{Graph, IncrementalMaterializer, MaterializerConfig, Statement, Term};
use cogsdk::sdk::score::{ClassMaxima, ScoreInputs, ScoringFormula};
use cogsdk::sdk::ResponseCache;
use cogsdk::sim::SimEnv;
use cogsdk::store::compress::{compress, decompress};
use cogsdk::store::crypto::{decrypt, encrypt, Key};
use cogsdk::store::csv;
use proptest::prelude::*;
use std::time::Duration;

mod weighted_oracle;

// ---------------------------------------------------------------------
// Storage invariants
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn compression_round_trips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let packed = compress(&data);
        prop_assert!(packed.len() <= data.len() + 1, "never grows by more than the tag byte");
        prop_assert_eq!(decompress(&packed).unwrap().to_vec(), data);
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decompress(&data);
    }

    #[test]
    fn crypto_round_trips_and_rejects_tampering(
        data in prop::collection::vec(any::<u8>(), 0..1024),
        passphrase in "[a-z]{1,16}",
        nonce in any::<u64>(),
        flip in any::<(u16, u8)>(),
    ) {
        let key = Key::derive(&passphrase);
        let ct = encrypt(&key, nonce, &data);
        prop_assert_eq!(decrypt(&key, &ct).unwrap().to_vec(), data);
        // Any single-byte corruption must be detected.
        let pos = flip.0 as usize % ct.len();
        let bit = flip.1 | 1; // never a zero XOR
        let mut bad = ct.to_vec();
        bad[pos] ^= bit;
        prop_assert!(decrypt(&key, &bad).is_err());
    }

    #[test]
    fn csv_records_round_trip(
        rows in prop::collection::vec(
            prop::collection::vec("[ -~]{0,20}", 1..6), 0..20)
    ) {
        // Ragged rows are legal at the record layer; normalize widths so
        // comparisons are meaningful.
        let width = rows.first().map_or(1, Vec::len);
        let rows: Vec<Vec<String>> = rows
            .into_iter()
            .map(|mut r| {
                r.resize(width, String::new());
                r
            })
            .collect();
        let text = csv::write_records(&rows);
        let parsed = csv::parse_records(&text).unwrap();
        // write_records emits nothing for fully-empty input rows at the
        // tail; compare only when content exists.
        let expect: Vec<Vec<String>> = rows
            .into_iter()
            .filter(|r| !(r.len() == 1 && r[0].is_empty()))
            .collect();
        let got: Vec<Vec<String>> = parsed
            .into_iter()
            .filter(|r| !(r.len() == 1 && r[0].is_empty()))
            .collect();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// RDF invariants
// ---------------------------------------------------------------------

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[a-z]{1,8}".prop_map(Term::iri),
        "[a-z ]{0,12}".prop_map(Term::string),
        any::<i64>().prop_map(Term::integer),
        any::<bool>().prop_map(Term::boolean),
    ]
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    ("[a-z]{1,6}", "[a-z]{1,6}", arb_term())
        .prop_map(|(s, p, o)| Statement::new(Term::iri(s), Term::iri(p), o))
}

proptest! {
    #[test]
    fn graph_indexes_stay_consistent(
        inserts in prop::collection::vec(arb_statement(), 0..60),
        remove_mask in prop::collection::vec(any::<bool>(), 0..60),
    ) {
        let mut graph = Graph::new();
        for st in &inserts {
            graph.insert(st.clone());
        }
        for (st, remove) in inserts.iter().zip(&remove_mask) {
            if *remove {
                graph.remove(st);
            }
        }
        // Every pattern-match view must agree with full iteration.
        let all: Vec<Statement> = graph.iter().collect();
        prop_assert_eq!(all.len(), graph.len());
        for st in &all {
            prop_assert!(graph.contains(st));
            prop_assert!(graph
                .match_pattern(Some(&st.subject), None, None)
                .contains(st));
            prop_assert!(graph
                .match_pattern(None, Some(&st.predicate), None)
                .contains(st));
            prop_assert!(graph
                .match_pattern(None, None, Some(&st.object))
                .contains(st));
            prop_assert_eq!(
                graph.match_pattern(Some(&st.subject), Some(&st.predicate), Some(&st.object)).len(),
                1
            );
        }
        // Removed statements are gone from every index.
        for (st, remove) in inserts.iter().zip(&remove_mask) {
            if *remove && !all.contains(st) {
                prop_assert!(graph.match_pattern(Some(&st.subject), Some(&st.predicate), Some(&st.object)).is_empty());
            }
        }
    }

    #[test]
    fn graph_text_serialization_round_trips(
        statements in prop::collection::vec(arb_statement(), 0..40)
    ) {
        let graph: Graph = statements.into_iter().collect();
        let text = cogsdk::kb::convert::graph_to_text(graph.iter());
        let back = cogsdk::kb::convert::text_to_graph(&text).unwrap();
        prop_assert_eq!(back, graph);
    }
}

// ---------------------------------------------------------------------
// Dictionary-encoding invariants
// ---------------------------------------------------------------------

/// Every [`Term`] variant, including doubles and blank nodes, so the
/// dictionary round-trip covers the full literal space.
fn arb_any_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[a-z:/#]{1,12}".prop_map(Term::iri),
        "[a-z0-9]{1,8}".prop_map(Term::blank),
        "\\PC{0,16}".prop_map(Term::string),
        any::<i64>().prop_map(Term::integer),
        prop::num::f64::NORMAL.prop_map(Term::double),
        any::<bool>().prop_map(Term::boolean),
    ]
}

proptest! {
    #[test]
    fn dictionary_intern_resolve_round_trips_every_term_kind(
        terms in prop::collection::vec(arb_any_term(), 1..60),
    ) {
        use cogsdk::rdf::TermDict;
        let dict = TermDict::new();
        let ids: Vec<_> = terms.iter().map(|t| dict.intern(t)).collect();
        for (term, &id) in terms.iter().zip(&ids) {
            prop_assert_eq!(&dict.resolve(id), term);
            // Interning is idempotent and lookup agrees with intern.
            prop_assert_eq!(dict.intern(term), id);
            prop_assert_eq!(dict.lookup(term), Some(id));
            // The kind tag matches the term's shape.
            prop_assert_eq!(id.is_iri(), matches!(term, Term::Iri(_)));
            prop_assert_eq!(id.is_blank(), matches!(term, Term::Blank(_)));
            prop_assert_eq!(id.is_literal(), matches!(term, Term::Literal(_)));
        }
        // Distinct terms get distinct ids.
        let distinct: std::collections::BTreeSet<&Term> = terms.iter().collect();
        let distinct_ids: std::collections::BTreeSet<_> = ids.iter().collect();
        prop_assert_eq!(distinct.len(), distinct_ids.len());
        prop_assert_eq!(dict.len(), distinct.len());
    }
}

/// The interned graph must be observably equivalent to naive
/// set-of-statements semantics across a randomized workload of inserts,
/// removals, pattern matches, and cross-dictionary merges. Driven by the
/// SDK's own seeded SplitMix64 shim so failures replay exactly.
#[test]
fn interned_graph_matches_shadow_model_under_random_workload() {
    use cogsdk::rdf::{Graph, Statement, Term};
    use cogsdk::sim::rng::Rng;
    use std::collections::BTreeSet;

    for seed in 0..12u64 {
        let mut rng = Rng::new(0xD1C7_0000 + seed);
        let term = |rng: &mut Rng| -> Term {
            match rng.below(5) {
                0 | 1 => Term::iri(format!("e{}", rng.below(8))),
                2 => Term::string(format!("s{}", rng.below(4))),
                3 => Term::integer(rng.below(4) as i64),
                _ => Term::boolean(rng.chance(0.5)),
            }
        };
        let statement = |rng: &mut Rng| -> Statement {
            Statement::new(
                Term::iri(format!("e{}", rng.below(8))),
                Term::iri(format!("p{}", rng.below(4))),
                term(rng),
            )
        };
        let mut graph = Graph::new();
        let mut shadow: BTreeSet<Statement> = BTreeSet::new();
        // A second graph with its own dictionary, merged in mid-workload,
        // so `extend_from` has to translate ids across dictionaries.
        let mut other = Graph::new();
        for _ in 0..rng.below(20) {
            other.insert(statement(&mut rng));
        }
        for step in 0..400 {
            match rng.below(10) {
                0..=5 => {
                    let st = statement(&mut rng);
                    assert_eq!(graph.insert(st.clone()), shadow.insert(st));
                }
                6 | 7 => {
                    let st = statement(&mut rng);
                    assert_eq!(graph.remove(&st), shadow.remove(&st));
                }
                8 => {
                    // Pattern probe: every projection agrees with a naive
                    // scan of the shadow model.
                    let probe = statement(&mut rng);
                    let by_s = graph.match_pattern(Some(&probe.subject), None, None);
                    let naive: Vec<&Statement> = shadow
                        .iter()
                        .filter(|st| st.subject == probe.subject)
                        .collect();
                    assert_eq!(by_s.len(), naive.len(), "seed {seed} step {step}");
                    let by_po =
                        graph.match_pattern(None, Some(&probe.predicate), Some(&probe.object));
                    assert!(by_po.iter().all(|st| shadow.contains(st)));
                    assert_eq!(
                        graph.contains(&probe),
                        shadow.contains(&probe),
                        "seed {seed} step {step}"
                    );
                }
                _ => {
                    let merged = graph.extend_from(&other);
                    let before = shadow.len();
                    shadow.extend(other.iter());
                    assert_eq!(merged, shadow.len() - before, "seed {seed} step {step}");
                }
            }
            assert_eq!(graph.len(), shadow.len(), "seed {seed} step {step}");
        }
        let all: BTreeSet<Statement> = graph.iter().collect();
        assert_eq!(all, shadow, "seed {seed}: final contents diverged");
    }
}

// ---------------------------------------------------------------------
// SDK invariants
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn cache_never_exceeds_capacity(
        capacity in 1usize..32,
        keys in prop::collection::vec("[a-e]{1,3}", 1..200),
    ) {
        let env = SimEnv::with_seed(1);
        let cache = ResponseCache::new(env.clock().clone(), capacity, Duration::from_secs(60));
        for (i, key) in keys.iter().enumerate() {
            cache.put(key.clone(), json!({"i": (i)}));
            prop_assert!(cache.len() <= capacity);
        }
        // Every hit returns the latest value put under that key.
        for key in &keys {
            if let Some(v) = cache.get(key) {
                let i = v.get("i").and_then(Json::as_usize).unwrap();
                prop_assert_eq!(&keys[i], key);
            }
        }
    }

    #[test]
    fn sharded_cache_invariants_hold_for_arbitrary_traffic(
        capacity in 1usize..64,
        shards in 1usize..32,
        ops in prop::collection::vec(("[a-f]{1,3}", any::<bool>()), 1..200),
    ) {
        use cogsdk::obs::Telemetry;
        use cogsdk::sdk::CacheConfig;
        let env = SimEnv::with_seed(7);
        let cache = ResponseCache::with_config(
            env.clock().clone(),
            CacheConfig {
                capacity,
                default_ttl: Duration::from_secs(60),
                shards,
                stale_while_revalidate: None,
            },
            Telemetry::disabled(),
        );
        let mut gets = 0u64;
        for (i, (key, is_put)) in ops.iter().enumerate() {
            if *is_put {
                cache.put(key.clone(), json!({"i": (i)}));
            } else {
                let _ = cache.get(key);
                gets += 1;
            }
            // Residency never exceeds capacity, and per-shard lengths
            // always account for exactly the whole cache.
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(cache.shard_lens().iter().sum::<usize>(), cache.len());
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, gets);
        cache.clear();
        prop_assert_eq!(cache.len(), 0);
        prop_assert!(cache.shard_lens().iter().all(|&len| len == 0));
    }

    #[test]
    fn get_after_put_within_ttl_always_hits(
        shards in 1usize..17,
        keys in prop::collection::vec("[a-z]{1,6}", 1..48),
    ) {
        use cogsdk::obs::Telemetry;
        use cogsdk::sdk::CacheConfig;
        let env = SimEnv::with_seed(11);
        // Keys shard by hash, and capacity splits across shards — so a
        // skewed key set can evict within one shard while the cache is
        // globally under capacity. Give every shard room for the whole
        // key set; then eviction can never explain a miss and a put
        // within TTL must be observable.
        let cache = ResponseCache::with_config(
            env.clock().clone(),
            CacheConfig {
                capacity: shards * keys.len(),
                default_ttl: Duration::from_secs(60),
                shards,
                stale_while_revalidate: None,
            },
            Telemetry::disabled(),
        );
        for (i, key) in keys.iter().enumerate() {
            cache.put(key.clone(), json!({"i": (i)}));
            prop_assert!(cache.get(key).is_some(), "immediate get after put missed");
        }
        // The final value written under each key is the one served.
        for (i, key) in keys.iter().enumerate().rev() {
            if keys[i + 1..].contains(key) {
                continue; // overwritten later
            }
            let v = cache.get(key).expect("fresh entry must hit");
            prop_assert_eq!(v.get("i").and_then(Json::as_usize).unwrap(), i);
        }
    }

    #[test]
    fn scores_rank_monotonically_in_each_metric(
        r1 in 1.0f64..1000.0, r2 in 1.0f64..1000.0,
        c in 0.0f64..10_000.0, q in 0.0f64..1.0,
    ) {
        // Holding cost and quality fixed, a slower service never scores
        // better (lower) than a faster one — for Eq.1 and Eq.2 alike.
        let a = ScoreInputs { response_ms: r1.min(r2), cost_micros: c, quality: q };
        let b = ScoreInputs { response_ms: r1.max(r2), cost_micros: c, quality: q };
        let maxima = ClassMaxima::over(&[a, b]);
        for formula in [
            ScoringFormula::weighted(1.0, 0.001, 1.0),
            ScoringFormula::normalized(1.0, 1.0, 1.0),
        ] {
            prop_assert!(formula.score(&a, &maxima) <= formula.score(&b, &maxima) + 1e-12);
        }
    }

    #[test]
    fn retry_attempt_counts_bounded(retries in 0usize..6) {
        use cogsdk::sdk::invoke::{Backoff, Call};
        use cogsdk::sdk::ServiceMonitor;
        use cogsdk::sim::failure::FailurePlan;
        use cogsdk::sim::{Request, SimService};
        let env = SimEnv::with_seed(retries as u64);
        let monitor = ServiceMonitor::new();
        let dead = SimService::builder("dead", "c")
            .failures(FailurePlan::flaky(1.0))
            .build(&env);
        let (outcome, attempts) = Call::plain(&monitor).retry(
            &dead,
            &Request::new("op", Json::Null),
            retries,
            Backoff::None,
        );
        prop_assert!(outcome.result.is_err());
        prop_assert_eq!(attempts, retries + 1);
        prop_assert_eq!(
            monitor.history("dead").unwrap().observations().len(),
            retries + 1
        );
    }
}

// ---------------------------------------------------------------------
// Text invariants
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn analyzer_never_panics_on_arbitrary_text(text in "\\PC{0,300}") {
        use cogsdk::text::analysis::{Analyzer, NluConfig};
        let analyzer = Analyzer::with_default_lexicons();
        let result = analyzer.analyze(&text, &NluConfig::perfect());
        prop_assert!(result.sentiment.score.abs() <= 1.0);
        for e in &result.entities {
            prop_assert!(!e.canonical.is_empty());
        }
    }

    #[test]
    fn html_extraction_never_panics_and_strips_tags(html in "\\PC{0,300}") {
        let text = cogsdk::search::html::extract_text(&html);
        // No complete tags survive extraction.
        prop_assert!(!text.contains("</"));
    }

    #[test]
    fn spell_checker_suggestions_are_dictionary_words(word in "[a-z]{2,8}") {
        use cogsdk::text::SpellChecker;
        let sc = SpellChecker::with_builtin_dictionary();
        if let Some(fix) = sc.correct(&word) {
            prop_assert!(sc.is_correct(&fix), "suggested non-word {fix}");
            prop_assert_ne!(fix, word);
        }
    }
}

// ---------------------------------------------------------------------
// Query-engine and reasoner invariants
// ---------------------------------------------------------------------

/// RDFS-flavored statements over a tiny vocabulary, so schema rules and
/// instance facts actually join during inference.
fn arb_rdfs_statement() -> impl Strategy<Value = Statement> {
    fn class() -> impl Strategy<Value = Term> {
        (0u8..4).prop_map(|i| Term::iri(format!("c{i}")))
    }
    fn prop() -> impl Strategy<Value = Term> {
        (0u8..3).prop_map(|i| Term::iri(format!("p{i}")))
    }
    fn ind() -> impl Strategy<Value = Term> {
        (0u8..4).prop_map(|i| Term::iri(format!("x{i}")))
    }
    prop_oneof![
        (class(), class()).prop_map(|(a, b)| Statement::new(a, Term::iri("rdfs:subClassOf"), b)),
        (prop(), prop()).prop_map(|(a, b)| Statement::new(a, Term::iri("rdfs:subPropertyOf"), b)),
        (prop(), class()).prop_map(|(p, c)| Statement::new(p, Term::iri("rdfs:domain"), c)),
        (prop(), class()).prop_map(|(p, c)| Statement::new(p, Term::iri("rdfs:range"), c)),
        (ind(), class()).prop_map(|(i, c)| Statement::new(i, Term::iri("rdf:type"), c)),
        (ind(), prop(), ind()).prop_map(|(s, p, o)| Statement::new(s, p, o)),
    ]
}

/// Edges over a five-node universe under one transitive predicate.
fn arb_edge_statement() -> impl Strategy<Value = Statement> {
    fn node() -> impl Strategy<Value = Term> {
        (0u8..5).prop_map(|i| Term::iri(format!("n{i}")))
    }
    (node(), node()).prop_map(|(s, o)| Statement::new(s, Term::iri("next"), o))
}

/// The stated facts of a materializer's latest epoch, as a graph.
fn stated_of(m: &IncrementalMaterializer) -> Graph {
    let epoch = m.epoch();
    epoch
        .stated_ids()
        .map(|t| epoch.dict().resolve_triple(t))
        .collect()
}

/// Applies `ops` (statement, insert?) to a fresh materializer, enabling
/// `rules` before op `enable_at` (after the last op if past the end), and
/// checks its stated facts and its closure against the from-scratch
/// `close` after every step; then removes the `picked` ops' statements as
/// one batch, which must equal removing them one at a time and the
/// from-scratch closure of what stays stated.
fn check_materializer_churn(
    rules: MaterializerConfig,
    close: impl Fn(&Graph) -> Graph,
    ops: &[(Statement, bool)],
    picked: &[bool],
    enable_at: usize,
) {
    let closure = |stated: &Graph| {
        let mut full = stated.clone();
        full.extend_from(&close(stated));
        full
    };
    let enable_at = enable_at.min(ops.len());
    let mut m = IncrementalMaterializer::new();
    let mut stated = Graph::new();
    for step in 0..=ops.len() {
        if step == enable_at {
            m.configure(rules.clone());
        }
        if let Some(op) = ops.get(step) {
            apply_one(&mut m, &mut stated, op);
        }
        // One store: the epoch holds every fact once, stated or derived.
        prop_assert_eq!(m.len(), m.epoch().iter_ids().len());
        prop_assert_eq!(stated_of(&m), stated.clone(), "stated facts diverged");
        // The maintained closure must be indistinguishable from throwing
        // everything away and re-running the reasoner from scratch.
        let want = if step < enable_at {
            stated.clone()
        } else {
            closure(&stated)
        };
        prop_assert_eq!(
            m.epoch().to_graph(),
            want,
            "closure after step {} (rules from {}) diverged from scratch fixpoint",
            step,
            enable_at
        );
    }

    let batch: Vec<Statement> = ops
        .iter()
        .zip(picked)
        .filter(|&(_, &pick)| pick)
        .map(|((st, _), _)| st.clone())
        .collect();
    let mut one_by_one = IncrementalMaterializer::new();
    one_by_one.configure(rules);
    for op in ops {
        apply_one(&mut one_by_one, &mut Graph::new(), op);
    }
    m.remove_batch(&batch);
    for st in &batch {
        one_by_one.remove(st);
        stated.remove(st);
    }
    prop_assert_eq!(
        m.epoch().to_graph(),
        one_by_one.epoch().to_graph(),
        "batch != one by one"
    );
    prop_assert_eq!(
        m.epoch().to_graph(),
        closure(&stated),
        "batch removal diverged from scratch"
    );
    prop_assert_eq!(
        stated_of(&m),
        stated,
        "stated facts diverged after the batch"
    );
}

/// Applies one (statement, insert?) op to `m` and to its stated shadow.
fn apply_one(
    m: &mut IncrementalMaterializer,
    stated: &mut Graph,
    (st, insert): &(Statement, bool),
) {
    if *insert {
        m.insert(st.clone());
        stated.insert(st.clone());
    } else {
        m.remove(st);
        stated.remove(st);
    }
}

proptest! {
    #[test]
    fn sparql_single_pattern_matches_naive_scan(
        statements in prop::collection::vec(arb_statement(), 0..40),
        probe in arb_statement(),
    ) {
        use cogsdk::rdf::Query;
        let graph: Graph = statements.into_iter().collect();
        // Query by the probe's predicate with free subject/object.
        let Term::Iri(p) = &probe.predicate else { unreachable!() };
        let q = Query::parse(&format!("SELECT ?s ?o WHERE {{ ?s <{p}> ?o . }}")).unwrap();
        let rows = q.execute(&graph);
        let naive: Vec<Statement> =
            graph.match_pattern(None, Some(&probe.predicate), None);
        prop_assert_eq!(rows.len(), naive.len());
        for st in naive {
            prop_assert!(rows
                .iter()
                .any(|r| r["s"] == st.subject && r["o"] == st.object));
        }
    }

    #[test]
    fn owl_symmetric_closure_is_actually_symmetric(
        edges in prop::collection::vec(("[a-d]{1}", "[a-d]{1}"), 0..12),
    ) {
        use cogsdk::rdf::owl::OwlLiteReasoner;
        let mut graph = Graph::new();
        graph.insert(Statement::new(
            Term::iri("p"),
            Term::iri("rdf:type"),
            Term::iri("owl:SymmetricProperty"),
        ));
        for (s, o) in &edges {
            graph.insert(Statement::new(Term::iri(s.clone()), Term::iri("p"), Term::iri(o.clone())));
        }
        let mut closed = graph.clone();
        closed.extend_from(&OwlLiteReasoner::owl_only().infer(&graph));
        // Closure property: every (s p o) has (o p s).
        for st in closed.match_pattern(None, Some(&Term::iri("p")), None) {
            let mirror = Statement::new(st.object.clone(), st.predicate.clone(), st.subject.clone());
            prop_assert!(closed.contains(&mirror), "missing mirror of {st}");
        }
    }

    #[test]
    fn incremental_rdfs_equals_from_scratch_under_churn(
        ops in prop::collection::vec((arb_rdfs_statement(), any::<bool>()), 1..40),
        picked in prop::collection::vec(any::<bool>(), 40),
        enable_at in 0usize..40,
    ) {
        use cogsdk::rdf::RdfsReasoner;
        let rdfs = MaterializerConfig { rdfs: true, ..Default::default() };
        let close = |g: &Graph| RdfsReasoner::new().infer(g);
        check_materializer_churn(rdfs, close, &ops, &picked, enable_at);
    }

    #[test]
    fn incremental_transitive_equals_from_scratch_under_churn(
        ops in prop::collection::vec((arb_edge_statement(), any::<bool>()), 1..40),
        picked in prop::collection::vec(any::<bool>(), 40),
        enable_at in 0usize..40,
    ) {
        use cogsdk::rdf::TransitiveReasoner;
        let next = Term::iri("next");
        let transitive = MaterializerConfig { transitive: vec![next.clone()], ..Default::default() };
        let close = |g: &Graph| TransitiveReasoner::new(vec![next.clone()]).infer(g);
        check_materializer_churn(transitive, close, &ops, &picked, enable_at);
    }

    #[test]
    fn weighted_inference_confidences_stay_in_unit_interval(
        confs in prop::collection::vec(0.0f64..=1.0, 1..8),
        strength in 0.1f64..=1.0,
    ) {
        use cogsdk::kb::{KbOptions, PersonalKnowledgeBase};
        use cogsdk::store::MemoryKv;
        let kb = PersonalKnowledgeBase::new(std::sync::Arc::new(MemoryKv::new()), KbOptions::default());
        kb.add_synonyms((0..=confs.len()).map(|i| (format!("n{i}"), format!("n{i}"))));
        for (i, c) in confs.iter().enumerate() {
            kb.add_fact_with_confidence(&format!("n{i}"), "next", &format!("n{}", i + 1), *c)
                .unwrap();
        }
        let added = kb
            .infer_rules_weighted(
                "[(?a kb:next ?b) -> (?a kb:reach ?b)]\n[(?a kb:next ?b), (?b kb:reach ?c) -> (?a kb:reach ?c)]",
                strength,
            )
            .unwrap();
        prop_assert!(added.len() >= confs.len());
        for (st, conf) in added {
            prop_assert!((0.0..=1.0).contains(&conf), "{st} conf={conf}");
            // An inferred fact can never exceed the weakest ingredient
            // times one application of the rule.
            prop_assert!(conf <= strength + 1e-12);
            prop_assert_eq!(kb.fact_confidence(&st), Some(conf));
        }
    }
}

/// Standing weighted rules beside RDFS, under seeded histories of plain
/// inserts, weighted inserts, re-weights and removals: after every step,
/// every fact's level and its stated/derived tag equal the naive oracle's
/// from-scratch fixpoint over the stated facts.
#[test]
fn standing_weighted_rules_match_the_naive_oracle_under_churn() {
    use cogsdk::rdf::model::vocab;
    use cogsdk::rdf::{DurableStore, GenericRuleReasoner};
    use cogsdk::sim::rng::Rng;
    let rules = GenericRuleReasoner::from_rules_text(
        "[(?a ex:p ?b), (?b ex:p ?c) -> (?a ex:q ?c)]\n[(?a ex:q ?b) -> (?b ex:r ?a)]",
    )
    .unwrap()
    .rules()
    .to_vec();
    let weighted: Vec<(cogsdk::rdf::Rule, f64)> = rules.iter().map(|r| (r.clone(), 0.8)).collect();
    let nodes = ["ex:a", "ex:b", "ex:c", "ex:d", "ex:C", "ex:D"];
    let predicates = [
        "ex:p",
        "ex:p",
        "ex:q",
        "ex:r",
        vocab::TYPE,
        vocab::SUB_CLASS_OF,
        vocab::SUB_PROPERTY_OF,
        vocab::DOMAIN,
    ];
    let levels = [0.3, 0.5, 0.6, 0.9, 1.0];
    let (mut steps, mut derived_below_one, mut lowered) = (0, 0, 0);
    for history in 0..200u64 {
        let mut rng = Rng::new(0x5EED_0000 + history);
        let mut store = DurableStore::in_memory();
        store
            .configure(MaterializerConfig {
                rdfs: true,
                weighted: weighted.clone(),
                ..Default::default()
            })
            .unwrap();
        let mut stated = weighted_oracle::Levels::new();
        for step in 0..24 {
            let mut pick = |n: usize| rng.below(n as u64) as usize;
            let st = Statement::new(
                Term::iri(nodes[pick(nodes.len())]),
                Term::iri(predicates[pick(predicates.len())]),
                Term::iri(nodes[pick(nodes.len())]),
            );
            let c = levels[pick(levels.len())];
            match pick(4) {
                0 => {
                    store.insert(st.clone()).unwrap();
                    stated.entry(st).or_insert(1.0);
                }
                1 => {
                    store.insert_weighted([(st.clone(), c)]).unwrap();
                    let merged = match stated.get(&st) {
                        Some(&rated) if rated < 1.0 => rated.max(c),
                        _ => c,
                    };
                    stated.insert(st, merged);
                }
                2 => {
                    // Re-weight a stated fact, often downwards: below 1.0
                    // states it, 1.0 resets a stated one.
                    let st = stated
                        .keys()
                        .nth(pick(stated.len().max(1)))
                        .cloned()
                        .unwrap_or(st);
                    store.set_confidence(&st, c).unwrap();
                    if let Some(held) = stated.get_mut(&st) {
                        lowered += usize::from(c < *held);
                        *held = c;
                    } else if c < 1.0 {
                        stated.insert(st, c);
                    }
                }
                _ => {
                    let st = stated
                        .keys()
                        .nth(pick(stated.len().max(1)))
                        .cloned()
                        .unwrap_or(st);
                    store.remove(&st).unwrap();
                    stated.remove(&st);
                }
            }
            let want = weighted_oracle::closure(&stated, true, &weighted);
            let epoch = store.epochs().pin();
            let got: std::collections::BTreeMap<Statement, (f64, bool)> = epoch
                .iter_ids()
                .into_iter()
                .map(|t| {
                    let level = epoch.confidence_of(t).unwrap();
                    (epoch.dict().resolve_triple(t), (level, !epoch.is_stated(t)))
                })
                .collect();
            assert_eq!(got, want, "history {history} step {step}");
            derived_below_one += want.values().filter(|&&(l, d)| d && l < 1.0).count();
            steps += 1;
        }
    }
    assert!(
        derived_below_one > 0 && lowered > 0,
        "{derived_below_one} {lowered}"
    );
    assert_eq!(steps, 200 * 24);
}
