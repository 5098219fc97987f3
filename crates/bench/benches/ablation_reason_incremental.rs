//! Ablation: naive vs semi-naive vs incremental RDFS materialization,
//! extending E10's scaling table (Figure 5 workload: a subclass chain of
//! depth 10 with n instances — 110 / 1 010 / 5 010 stated facts).
//!
//! Three evaluation strategies over the identical workload:
//!
//! * **naive** — the pre-rewrite algorithm: every round clones the graph
//!   and re-joins every rule against *all* facts, rediscovering the whole
//!   closure each round.
//! * **semi-naive** — [`RdfsReasoner::infer`]: each round joins rules only
//!   against the delta from the previous round, over a borrowed overlay.
//! * **incremental** — [`IncrementalMaterializer`]: the closure is kept
//!   alive across mutations; an insert batch propagates its own delta
//!   forward instead of re-materializing from scratch.
//!
//! The paper's Fig. 5 loop ingests continuously, so the number that
//! matters operationally is the cost of maintaining the closure per
//! ingest batch — compared here against full re-materialization.

use cogsdk_rdf::{
    Graph, IncrementalMaterializer, MaterializerConfig, RdfsReasoner, Statement, Term,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The E10 workload: a subclass chain of depth 10 and `n` typed instances.
fn chain_graph(n: usize) -> Graph {
    let mut g = Graph::new();
    for d in 0..10 {
        g.insert(Statement::new(
            Term::iri(format!("c{d}")),
            Term::iri("rdfs:subClassOf"),
            Term::iri(format!("c{}", d + 1)),
        ));
    }
    for i in 0..n {
        g.insert(Statement::new(
            Term::iri(format!("inst{i}")),
            Term::iri("rdf:type"),
            Term::iri(format!("c{}", i % 10)),
        ));
    }
    g
}

/// The RDFS ruleset, to enable on a materializer.
fn rdfs() -> MaterializerConfig {
    MaterializerConfig {
        rdfs: true,
        ..Default::default()
    }
}

/// A fresh batch of `size` instance facts, distinct per `tag`.
fn instance_batch(tag: usize, size: usize) -> Vec<Statement> {
    (0..size)
        .map(|i| {
            Statement::new(
                Term::iri(format!("new{tag}_{i}")),
                Term::iri("rdf:type"),
                Term::iri(format!("c{}", i % 10)),
            )
        })
        .collect()
}

/// One naive round: joins every RDFS rule against the whole graph.
fn naive_rdfs_round(g: &Graph) -> Vec<Statement> {
    let sub_class = Term::iri("rdfs:subClassOf");
    let sub_prop = Term::iri("rdfs:subPropertyOf");
    let domain = Term::iri("rdfs:domain");
    let range = Term::iri("rdfs:range");
    let rdf_type = Term::iri("rdf:type");
    let mut out = Vec::new();
    for st in g.iter() {
        if st.predicate == sub_class && st.object.is_resource() {
            // rdfs11: subClassOf is transitive.
            for next in g.match_pattern(Some(&st.object), Some(&sub_class), None) {
                out.push(Statement::new(
                    st.subject.clone(),
                    sub_class.clone(),
                    next.object.clone(),
                ));
            }
            // rdfs9: instances of the subclass take the superclass type.
            for inst in g.match_pattern(None, Some(&rdf_type), Some(&st.subject)) {
                out.push(Statement::new(
                    inst.subject.clone(),
                    rdf_type.clone(),
                    st.object.clone(),
                ));
            }
        } else if st.predicate == sub_prop {
            // rdfs5: subPropertyOf is transitive.
            for next in g.match_pattern(Some(&st.object), Some(&sub_prop), None) {
                out.push(Statement::new(
                    st.subject.clone(),
                    sub_prop.clone(),
                    next.object.clone(),
                ));
            }
            // rdfs7: uses of the subproperty also hold for the super.
            if matches!(st.object, Term::Iri(_)) {
                for u in g.match_pattern(None, Some(&st.subject), None) {
                    out.push(Statement::new(
                        u.subject.clone(),
                        st.object.clone(),
                        u.object.clone(),
                    ));
                }
            }
        } else if st.predicate == domain {
            // rdfs2: subjects of the property take the domain class.
            for u in g.match_pattern(None, Some(&st.subject), None) {
                out.push(Statement::new(
                    u.subject.clone(),
                    rdf_type.clone(),
                    st.object.clone(),
                ));
            }
        } else if st.predicate == range {
            // rdfs3: resource objects of the property take the range class.
            for u in g.match_pattern(None, Some(&st.subject), None) {
                if u.object.is_resource() {
                    out.push(Statement::new(
                        u.object.clone(),
                        rdf_type.clone(),
                        st.object.clone(),
                    ));
                }
            }
        }
    }
    out
}

/// The pre-rewrite fixpoint: clone the graph, re-run every rule over all
/// facts each round, stop when a round adds nothing.
fn naive_rdfs_fixpoint(base: &Graph) -> Graph {
    let mut current = base.clone();
    loop {
        let candidates = naive_rdfs_round(&current);
        let before = current.len();
        for st in candidates {
            current.insert(st);
        }
        if current.len() == before {
            return current;
        }
    }
}

fn report_series() {
    for n in [100usize, 1_000, 5_000] {
        let g = chain_graph(n);
        let stated = g.len();

        let t = Instant::now();
        let naive = naive_rdfs_fixpoint(&g);
        let naive_elapsed = t.elapsed();
        let naive_inferred = naive.len() - stated;

        let t = Instant::now();
        let semi = RdfsReasoner::new().infer(&g);
        let semi_elapsed = t.elapsed();
        assert_eq!(semi.len(), naive_inferred, "strategies must agree");

        // Incremental: closure already materialized; time maintaining it
        // through one ingest batch of 10 facts, vs full re-materialization
        // of the grown graph (what every ingest paid before this change).
        let mut m = IncrementalMaterializer::new();
        m.reset(g.clone());
        m.configure(rdfs());
        let batch = instance_batch(0, 10);
        let mut grown = g.clone();
        for st in &batch {
            grown.insert(st.clone());
        }
        let t = Instant::now();
        m.insert_batch(batch);
        let incr_elapsed = t.elapsed();
        let t = Instant::now();
        let full = RdfsReasoner::new().infer(&grown);
        let full_elapsed = t.elapsed();
        assert_eq!(
            m.len(),
            grown.len() + full.len(),
            "incremental closure must match from-scratch"
        );
        let speedup = full_elapsed.as_secs_f64() / incr_elapsed.as_secs_f64().max(1e-9);

        println!(
            "[ablation_reason_incremental] {stated} stated: naive={naive_elapsed:?} \
             semi-naive={semi_elapsed:?} ({naive_inferred} inferred); \
             ingest batch of 10: incremental={incr_elapsed:?} \
             full-rematerialize={full_elapsed:?} (speedup {speedup:.0}x)"
        );
    }
}

fn bench(c: &mut Criterion) {
    report_series();

    let g = chain_graph(5_000);

    c.bench_function("rdfs_naive_fixpoint_5010", |b| {
        b.iter(|| naive_rdfs_fixpoint(std::hint::black_box(&g)))
    });

    c.bench_function("rdfs_semi_naive_5010", |b| {
        b.iter(|| RdfsReasoner::new().infer(std::hint::black_box(&g)))
    });

    // Per-ingest maintenance: each iteration feeds a fresh, distinct batch
    // of 10 facts into a live materializer (the closure grows slightly
    // across iterations, which only biases *against* the incremental arm).
    let mut seeded = IncrementalMaterializer::new();
    seeded.reset(g.clone());
    seeded.configure(rdfs());
    let live = RefCell::new((seeded, 0usize));
    c.bench_function("rdfs_incremental_ingest_10_at_5010", |b| {
        b.iter(|| {
            let (m, tag) = &mut *live.borrow_mut();
            *tag += 1;
            m.insert_batch(instance_batch(*tag, 10))
        })
    });

    c.bench_function("rdfs_full_rematerialize_per_ingest_5010", |b| {
        b.iter(|| RdfsReasoner::new().infer(std::hint::black_box(&g)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
