//! Concurrency stress: readers, snapshot pagers, a sustained ingest
//! writer, and a standing-ruleset maintenance thread all hammer one
//! knowledge base. The invariants under test are the snapshot-isolation
//! contract:
//!
//! * every pinned epoch is *byte-stable* — any thread computing the
//!   canonical result digest for epoch `E` gets the same bits, no matter
//!   when it reads or what the writer is doing;
//! * pages drawn from one pinned epoch tile its full result exactly;
//! * no epoch is ever half-materialized — the standing ruleset's
//!   conclusions appear atomically with the facts that triggered them.
//!
//! Thread count scales with `KB_STRESS_THREADS` (default 4), mirroring
//! `CACHE_STRESS_THREADS` in the cache stress suite, so CI can turn the
//! contention up without editing the test.

use cogsdk_kb::kb::{KbOptions, PersonalKnowledgeBase};
use cogsdk_rdf::{Statement, Term};
use cogsdk_store::kv::{KeyValueStore, MemoryKv};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

const MASTER_SEED: u64 = 0xC0_97A1;
const SEEDED: usize = 150;
const INGESTED: usize = 450;
const PAGE: usize = 29;
const READS_PER_THREAD: usize = 20;

fn reader_threads() -> usize {
    std::env::var("KB_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    let mut h = digest;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Splitmix-style id scrambler so ingest order is seeded and scattered,
/// not sequential — epochs differ in content, not just length.
fn scrambled(i: usize) -> u64 {
    let mut z = MASTER_SEED.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn item(i: usize) -> Statement {
    Statement::new(
        Term::iri(format!("ex:item_{:016x}", scrambled(i))),
        Term::iri("rdf:type"),
        Term::iri("ex:Item"),
    )
}

fn canon(rows: &[std::collections::HashMap<String, Term>]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut entries: Vec<String> = row.iter().map(|(v, t)| format!("{v}={t}")).collect();
            entries.sort();
            entries.join("&")
        })
        .collect();
    out.sort();
    out
}

fn digest_rows(rows: &[String]) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    for row in rows {
        d = fnv1a(d, row.as_bytes());
        d = fnv1a(d, b";");
    }
    d
}

#[test]
fn pinned_epochs_stay_byte_stable_under_concurrent_ingest_and_maintenance() {
    let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
    let kb = Arc::new(PersonalKnowledgeBase::new(remote, KbOptions::default()));
    // Standing ruleset installed before the storm: every Item is a
    // Thing, incrementally maintained as the writer ingests.
    for i in 0..SEEDED {
        kb.add_statement(item(i)).unwrap();
    }
    kb.infer_rules("[(?x rdf:type ex:Item) -> (?x rdf:type ex:Thing)]")
        .unwrap();

    // epoch → canonical digest of the full Item result set. Whoever
    // digests an epoch first registers it; everyone after must agree.
    let digests: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let item_query = "SELECT ?x WHERE { ?x <rdf:type> <ex:Item> . } ORDER BY ?x";
    let thing_query = "SELECT ?x WHERE { ?x <rdf:type> <ex:Thing> . }";

    let mut handles = Vec::new();
    // The writer starts once every reader has pinned its first epoch, and
    // readers keep reading until the writer is done: each sees the epoch
    // before the ingest and one after it.
    let started = Arc::new(Barrier::new(reader_threads() + 1));
    let written = Arc::new(AtomicBool::new(false));

    // Writer: sustained ingest, one epoch per statement.
    {
        let kb = Arc::clone(&kb);
        let started = Arc::clone(&started);
        let written = Arc::clone(&written);
        handles.push(thread::spawn(move || {
            started.wait();
            for i in SEEDED..SEEDED + INGESTED {
                kb.add_statement(item(i)).unwrap();
            }
            written.store(true, Ordering::Release);
        }));
    }

    // Maintenance: keeps re-asserting the standing RDFS ruleset while
    // everything else runs — materialization churn on the write path.
    {
        let kb = Arc::clone(&kb);
        let stop = Arc::clone(&stop);
        handles.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                kb.infer_rdfs().unwrap();
                thread::yield_now();
            }
        }));
    }

    // Readers: pin, digest, page, verify — over and over.
    let mut readers = Vec::new();
    for _ in 0..reader_threads() {
        let kb = Arc::clone(&kb);
        let digests = Arc::clone(&digests);
        let started = Arc::clone(&started);
        let written = Arc::clone(&written);
        readers.push(thread::spawn(move || {
            for read in 0.. {
                // Read before the pin: once set, this pin is of the
                // writer's last epoch or later.
                let last = written.load(Ordering::Acquire);
                let snap = kb.query_snapshot();
                if read == 0 {
                    started.wait();
                }
                let (rows, _) = kb.query_on(&snap, item_query).unwrap();
                let full = canon(&rows);
                let d = digest_rows(&full);

                // Byte-stability: one digest per epoch, across threads.
                {
                    let mut map = digests.lock().unwrap();
                    let prev = *map.entry(snap.epoch()).or_insert(d);
                    assert_eq!(
                        prev,
                        d,
                        "epoch {} produced two different digests",
                        snap.epoch()
                    );
                }

                // Paging: OFFSET/LIMIT pages against the same pinned
                // snapshot tile the full result exactly.
                let mut tiled: Vec<String> = Vec::new();
                let mut offset = 0;
                loop {
                    let paged = format!("{item_query} OFFSET {offset} LIMIT {PAGE}");
                    let (page, _) = kb.query_on(&snap, &paged).unwrap();
                    if page.is_empty() {
                        break;
                    }
                    tiled.extend(canon(&page));
                    offset += PAGE;
                }
                tiled.sort();
                assert_eq!(digest_rows(&tiled), d, "pages must tile the pinned epoch");

                // Atomic materialization: the standing ruleset's Thing
                // conclusions cover every Item in this very epoch.
                let (things, _) = kb.query_on(&snap, thing_query).unwrap();
                let things: BTreeSet<String> = canon(&things).into_iter().collect();
                // Both queries bind ?x, so canonical rows compare 1:1.
                for row in &full {
                    assert!(
                        things.contains(row),
                        "epoch {} is half-materialized: {row} has no Thing conclusion",
                        snap.epoch()
                    );
                }
                if last && read + 1 >= READS_PER_THREAD {
                    break;
                }
            }
        }));
    }

    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    // The storm visited many distinct epochs — otherwise the digest map
    // proves nothing.
    assert!(
        digests.lock().unwrap().len() >= 2,
        "readers only ever saw one epoch; stress produced no interleaving"
    );

    // Quiesced: the final epoch holds everything, fully materialized.
    let snap = kb.query_snapshot();
    let (items, _) = kb.query_on(&snap, item_query).unwrap();
    assert_eq!(items.len(), SEEDED + INGESTED);
    let (things, _) = kb.query_on(&snap, thing_query).unwrap();
    assert_eq!(things.len(), SEEDED + INGESTED);
}

/// Regression: pinning a snapshot is O(1) — its cost must not scale with
/// graph size. Before the epoch store, "snapshotting" cloned the full
/// graph, so 10 000 snapshots of a 30 000-triple graph were hopeless.
#[test]
fn query_snapshot_cost_does_not_scale_with_graph_size() {
    let remote: Arc<dyn KeyValueStore> = Arc::new(MemoryKv::new());
    let kb = PersonalKnowledgeBase::new(remote, KbOptions::default());
    for i in 0..30_000 {
        kb.add_statement(item(i)).ok();
    }

    // Idle pins return the *same* allocation — no copying of any kind.
    let a = kb.query_snapshot();
    let b = kb.query_snapshot();
    assert!(
        Arc::ptr_eq(&a, &b),
        "idle pins must share one snapshot allocation"
    );

    // And pinning en masse is cheap in absolute terms. The bound is
    // generous (CI machines vary wildly); a graph-sized copy per pin
    // would blow through it by orders of magnitude.
    let start = std::time::Instant::now();
    let mut last = a;
    for _ in 0..10_000 {
        last = kb.query_snapshot();
    }
    assert_eq!(last.len(), 30_000);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(2),
        "10k pins of a 30k-triple graph took {:?}",
        start.elapsed()
    );
}
