//! E12 (§3, format conversion): CSV ↔ table ↔ RDF round-trip throughput
//! and fidelity — "the ability to convert data between different formats
//! is a key property of our personalized knowledge base."
//!
//! Paper-predicted shape: conversion is linear in rows; every round trip
//! is lossless for typed data.

use cogsdk_kb::convert::{graph_to_text, statements_to_table, table_to_statements, text_to_graph};
use cogsdk_rdf::Graph;
use cogsdk_store::csv::{csv_to_table, table_to_csv};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

fn csv_of(rows: usize) -> String {
    let mut csv = String::from("id,name,value,flag\n");
    for i in 0..rows {
        csv.push_str(&format!("{i},item-{i},{}.25,{}\n", i * 3, i % 2 == 0));
    }
    csv
}

fn report_series() {
    // --- Fidelity: full cycle CSV -> table -> RDF -> text -> RDF -> table
    let csv = csv_of(500);
    let table = csv_to_table(&csv).unwrap();
    let statements = table_to_statements(&table, "id", "kb").unwrap();
    let graph: Graph = statements.iter().cloned().collect();
    let text = graph_to_text(graph.iter());
    let graph2 = text_to_graph(&text).unwrap();
    let triple_table = statements_to_table(&graph2);
    println!(
        "[sec3_conversion] fidelity: 500 rows -> {} statements -> {} text bytes -> {} statements -> {} triple rows",
        statements.len(),
        text.len(),
        graph2.len(),
        triple_table.len()
    );
    assert_eq!(graph, graph2, "round trip must be lossless");
    // CSV round trip.
    let back = csv_to_table(&table_to_csv(&table)).unwrap();
    println!(
        "[sec3_conversion] csv round trip lossless: {}",
        back == table
    );

    // --- Throughput shape: rows vs wall time ------------------------------
    for rows in [100usize, 1_000, 10_000] {
        let csv = csv_of(rows);
        let start = std::time::Instant::now();
        let t = csv_to_table(&csv).unwrap();
        let parse = start.elapsed();
        let start = std::time::Instant::now();
        let stmts = table_to_statements(&t, "id", "kb").unwrap();
        let convert = start.elapsed();
        println!(
            "[sec3_conversion] rows={rows}: csv_parse={parse:?} to_rdf({} stmts)={convert:?}",
            stmts.len()
        );
    }
}

fn bench(c: &mut Criterion) {
    report_series();
    let mut group = c.benchmark_group("conversion");
    for rows in [100usize, 1000] {
        let csv = csv_of(rows);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("csv_to_table", rows), &csv, |b, csv| {
            b.iter(|| csv_to_table(std::hint::black_box(csv)).unwrap())
        });
        let table = csv_to_table(&csv).unwrap();
        group.bench_with_input(BenchmarkId::new("table_to_rdf", rows), &table, |b, t| {
            b.iter(|| table_to_statements(std::hint::black_box(t), "id", "kb").unwrap())
        });
        let graph: Graph = table_to_statements(&table, "id", "kb")
            .unwrap()
            .into_iter()
            .collect();
        group.bench_with_input(BenchmarkId::new("rdf_to_text", rows), &graph, |b, g| {
            b.iter(|| graph_to_text(std::hint::black_box(g).iter()))
        });
        let text = graph_to_text(graph.iter());
        group.bench_with_input(BenchmarkId::new("text_to_rdf", rows), &text, |b, t| {
            b.iter(|| text_to_graph(std::hint::black_box(t)).unwrap())
        });
    }
    group.finish();
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
