//! SPARQL-level slicing: with FILTER, OPTIONAL, UNION or ORDER BY in
//! play, a query's OFFSET/LIMIT page must be exactly the matching window
//! of the same query run unsliced, in order. Checked on the live graph
//! and on a pinned epoch whose scans merge a base with delta runs.

use cogsdk_rdf::{DurableStore, Graph, Query, QueryView, Statement, Term};

const QUERIES: [&str; 7] = [
    "SELECT ?x ?s WHERE { ?x <ex:score> ?s . FILTER (?s > 20) }",
    "SELECT ?x ?n WHERE { ?x <rdf:type> <ex:Item> . OPTIONAL { ?x <ex:nick> ?n } }",
    "SELECT ?x ?v WHERE { ?x <ex:cat> <ex:cat_1> . { ?x <ex:score> ?v } UNION { ?x <ex:nick> ?v } }",
    "SELECT ?x ?s WHERE { ?x <ex:score> ?s } ORDER BY ?s",
    "SELECT ?x ?s ?n WHERE { ?x <ex:score> ?s . OPTIONAL { ?x <ex:nick> ?n } FILTER (?s >= 10) } ORDER BY ?n",
    "SELECT * WHERE { ?x <ex:cat> ?c . ?x <ex:score> ?s . FILTER (?c != <ex:cat_2>) }",
    "SELECT ?x ?x ?c WHERE { ?x <ex:cat> ?c . ?x <rdf:type> <ex:Item> }",
];

const WINDOWS: [(usize, Option<usize>); 8] = [
    (0, Some(0)),
    (0, Some(1)),
    (0, Some(7)),
    (3, Some(5)),
    (10, Some(100)),
    (5, None),
    (1000, Some(5)),
    (59, Some(3)),
];

fn statements() -> Vec<Statement> {
    let mut out = Vec::new();
    for i in 0..60 {
        let item = Term::iri(format!("ex:item_{i}"));
        let mut fact = |p: &str, o: Term| out.push(Statement::new(item.clone(), Term::iri(p), o));
        fact("rdf:type", Term::iri("ex:Item"));
        fact("ex:cat", Term::iri(format!("ex:cat_{}", i % 4)));
        fact("ex:score", Term::integer((i * 37 % 50) as i64));
        if i % 3 == 0 {
            fact("ex:nick", Term::string(format!("n{}", (i * 7) % 11)));
        }
    }
    out
}

fn check<V: QueryView>(view: &V, on: &str) {
    for q in QUERIES {
        let full = Query::parse(q).unwrap().execute(view);
        assert!(!full.is_empty(), "{on}: {q} matches nothing");
        let (_, full_stats) = Query::parse(q).unwrap().execute_with_stats(view);
        for (offset, limit) in WINDOWS {
            let sliced = match limit {
                Some(l) => format!("{q} OFFSET {offset} LIMIT {l}"),
                None => format!("{q} OFFSET {offset}"),
            };
            let (page, stats) = Query::parse(&sliced).unwrap().execute_with_stats(view);
            let window: Vec<_> = full
                .iter()
                .skip(offset)
                .take(limit.unwrap_or(usize::MAX))
                .cloned()
                .collect();
            assert_eq!(page, window, "{on}: {sliced}");
            assert_eq!(stats.rows, page.len(), "{on}: {sliced}");
            assert_eq!(stats.rows_materialised, page.len(), "{on}: {sliced}");
            assert!(
                stats.index_probes <= full_stats.index_probes,
                "{on}: {sliced} probed more than the unsliced query"
            );
        }
    }
}

#[test]
fn sliced_queries_return_the_window_of_the_unsliced_run() {
    let all = statements();
    let mut graph = Graph::new();
    for st in &all {
        graph.insert(st.clone());
    }
    check(&graph, "graph");

    let (base, rest) = all.split_at(all.len() / 2);
    let mut frozen = Graph::new();
    for st in base {
        frozen.insert(st.clone());
    }
    let mut store = DurableStore::in_memory();
    store.reset(frozen).unwrap();
    store.insert_batch(rest[1..].iter().cloned()).unwrap();
    store.insert_batch(rest[..1].iter().cloned()).unwrap();
    let epoch = store.epochs().pin();
    assert!(epoch.delta_runs() >= 2);
    check(&*epoch, "epoch");
}

#[test]
fn limit_stops_the_join_unless_the_query_orders() {
    let mut graph = Graph::new();
    for st in statements() {
        graph.insert(st);
    }
    let stats = |q: &str| Query::parse(q).unwrap().execute_with_stats(&graph).1;
    let join = "SELECT ?x ?s WHERE { ?x <rdf:type> <ex:Item> . ?x <ex:score> ?s }";
    assert_eq!(stats(join).index_probes, 61);
    assert_eq!(stats(&format!("{join} LIMIT 5")).index_probes, 6);
    assert_eq!(stats(&format!("{join} OFFSET 5 LIMIT 5")).index_probes, 11);
    // ORDER BY needs every row before the first one is known.
    let ordered = stats(&format!("{join} ORDER BY ?s LIMIT 5"));
    assert_eq!((ordered.index_probes, ordered.rows_materialised), (61, 5));
}
