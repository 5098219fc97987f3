//! Crash-recovery property suite.
//!
//! Drives a [`DurableStore`] over the fault-injecting [`SimFs`] through
//! hundreds of seeded scenarios. Each scenario generates a random op
//! sequence (inserts, removes, ruleset enables, snapshots), picks a
//! random crash point measured in filesystem operations — so crashes
//! land inside WAL appends, fsyncs, snapshot temp writes, renames, and
//! WAL truncation deletes — tears the unsynced bytes at a seeded
//! offset, recovers, and asserts the recovered store is *exactly* the
//! durable prefix:
//!
//! * every operation that returned `Ok` before the crash is present
//!   (no silent loss);
//! * at most the single in-flight operation beyond that may appear
//!   (its bytes can land before the crash) — nothing else (no phantom
//!   facts);
//! * the recovered closure equals a from-scratch materialization of the
//!   recovered base under the recovered ruleset config — derived state
//!   is re-derived, never read from disk, and recovery alone derives it;
//! * without faults, the closure after *every* op equals the from-scratch
//!   closure of the model, so a ruleset enabled on a non-empty store
//!   derives within its own call.
//!
//! The whole suite is deterministic from one master seed, down to the
//! bytes left on the simulated disk at each crash (asserted by running
//! it twice and comparing digests, which include a hash of every file).

use cogsdk_rdf::{
    DurableOptions, DurableStore, Graph, IncrementalMaterializer, MaterializerConfig, Rule,
    Statement, Term,
};
use cogsdk_sim::fs::{SimFs, Vfs};
use cogsdk_sim::rng::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

const SCENARIOS: u64 = 240;
const MASTER_SEED: u64 = 0xC0FFEE;

#[derive(Debug, Clone)]
enum Op {
    Insert(Statement),
    Remove(Statement),
    EnableRdfs,
    AddTransitive,
    AddRules,
    Snapshot,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ShadowConfig {
    rdfs: bool,
    transitive: bool,
    rules: bool,
}

/// KB state after a prefix of ops: the stated base plus the standing
/// ruleset flags. Derived facts are a function of these, so the shadow
/// never tracks them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Shadow {
    base: BTreeSet<Statement>,
    config: ShadowConfig,
}

fn anc() -> Term {
    Term::iri("ex:anc")
}

fn rule() -> Rule {
    Rule::parse("[(?a ex:p0 ?b) -> (?b ex:p1 ?a)]").expect("fixed rule parses")
}

fn random_statement(rng: &mut Rng, inserted: &[Statement]) -> Statement {
    let subject = Term::iri(format!("ex:s{}", rng.below(6)));
    let predicate = match rng.below(5) {
        0 => Term::iri("ex:p0"),
        1 => Term::iri("ex:p1"),
        2 => Term::iri("ex:anc"),
        3 => Term::iri("rdfs:subClassOf"),
        _ => Term::iri("rdf:type"),
    };
    let object = match rng.below(8) {
        0 => Term::integer(rng.below(3) as i64),
        n => Term::iri(format!("ex:s{}", n % 6)),
    };
    // Bias removes toward facts that are actually present.
    if !inserted.is_empty() && rng.chance(0.5) {
        return inserted[rng.below(inserted.len() as u64) as usize].clone();
    }
    Statement::new(subject, predicate, object)
}

fn generate_ops(rng: &mut Rng) -> Vec<Op> {
    let count = 8 + rng.below(13); // 8..=20 ops
    let mut ops = Vec::new();
    let mut inserted: Vec<Statement> = Vec::new();
    for _ in 0..count {
        let roll = rng.below(100);
        let op = if roll < 55 {
            let st = random_statement(rng, &[]);
            inserted.push(st.clone());
            Op::Insert(st)
        } else if roll < 70 {
            Op::Remove(random_statement(rng, &inserted))
        } else if roll < 78 {
            Op::EnableRdfs
        } else if roll < 84 {
            Op::AddTransitive
        } else if roll < 90 {
            Op::AddRules
        } else {
            Op::Snapshot
        };
        ops.push(op);
    }
    ops
}

/// Applies one op to the shadow model.
///
/// `Remove` is a plain set removal: the live store only mutates its
/// *base* when the statement is stated there (removing a derived-only
/// fact rederives it, leaving the state unchanged), which coincides
/// with set semantics on the stated base.
fn apply_shadow(shadow: &mut Shadow, op: &Op) {
    match op {
        Op::Insert(st) => {
            shadow.base.insert(st.clone());
        }
        Op::Remove(st) => {
            shadow.base.remove(st);
        }
        Op::EnableRdfs => shadow.config.rdfs = true,
        Op::AddTransitive => shadow.config.transitive = true,
        Op::AddRules => shadow.config.rules = true,
        Op::Snapshot => {}
    }
}

/// Applies one op to the live store; `Ok` means it is durable.
fn apply_store(store: &mut DurableStore, op: &Op) -> Result<(), cogsdk_rdf::DurableError> {
    let enable = |rdfs, transitive, rules| ShadowConfig {
        rdfs,
        transitive,
        rules,
    };
    let ruleset = match op {
        Op::Insert(st) => return store.insert(st.clone()).map(|_| ()),
        Op::Remove(st) => return store.remove(st).map(|_| ()),
        Op::Snapshot => return store.snapshot().map(|_| ()),
        Op::EnableRdfs => enable(true, false, false),
        Op::AddTransitive => enable(false, true, false),
        Op::AddRules => enable(false, false, true),
    };
    store.configure(delta(&ruleset)).map(|_| ())
}

/// The rulesets `config` names.
fn delta(config: &ShadowConfig) -> MaterializerConfig {
    MaterializerConfig {
        rdfs: config.rdfs,
        transitive: [anc()].into_iter().filter(|_| config.transitive).collect(),
        rules: [rule()].into_iter().filter(|_| config.rules).collect(),
        ..Default::default()
    }
}

/// The from-scratch closure of `shadow`: its base loaded first, then its
/// rulesets enabled.
fn closure(shadow: &Shadow) -> Graph {
    let mut scratch = IncrementalMaterializer::new();
    scratch.reset(shadow.base.iter().cloned().collect());
    scratch.configure(delta(&shadow.config));
    scratch.epoch().to_graph()
}

fn shadow_config_of(store: &DurableStore) -> ShadowConfig {
    let c = store.config();
    ShadowConfig {
        rdfs: c.rdfs,
        transitive: !c.transitive.is_empty(),
        rules: !c.rules.is_empty(),
    }
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Hash of every file name + content on the simulated disk.
fn disk_digest(fs: &SimFs) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for name in fs.list().expect("list after crash") {
        fnv1a(&mut digest, name.as_bytes());
        fnv1a(&mut digest, &fs.read(&name).expect("read after crash"));
    }
    digest
}

/// Everything one scenario observed; compared across runs for
/// determinism (wall-clock recovery duration deliberately excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScenarioDigest {
    crash_at: u64,
    ok_ops: usize,
    attempted_ops: usize,
    matched_state: usize,
    base_len: usize,
    full_len: usize,
    replayed_records: u64,
    torn_tails: u64,
    disk: u64,
}

fn options() -> DurableOptions {
    // Small segments so rotation happens inside ordinary scenarios.
    DurableOptions {
        segment_max_bytes: 256,
    }
}

fn run_scenario(seed: u64) -> ScenarioDigest {
    let mut rng = Rng::new(seed);
    let ops = generate_ops(&mut rng);

    // Shadow states after each op prefix.
    let mut states = Vec::with_capacity(ops.len() + 1);
    states.push(Shadow::default());
    for op in &ops {
        let mut next = states.last().expect("seeded").clone();
        apply_shadow(&mut next, op);
        states.push(next);
    }

    // Dry run without faults to learn the total fs-op budget. After every
    // op the full view is the from-scratch closure of the model.
    let total_fs_ops = {
        let fs = Arc::new(SimFs::new(seed));
        let mut store =
            DurableStore::open(fs.clone() as Arc<dyn Vfs>, options()).expect("dry open");
        for (i, op) in ops.iter().enumerate() {
            apply_store(&mut store, op).expect("dry run has no faults");
            assert_eq!(
                store.epochs().pin().to_graph(),
                closure(&states[i + 1]),
                "seed {seed}: closure after op {i} ({op:?}) diverges from from-scratch"
            );
        }
        fs.op_count()
    };

    // Crash run: same seed, so it behaves identically up to the armed
    // crash point. `crash_at == total_fs_ops` exercises the no-crash
    // path end to end.
    let crash_at = rng.below(total_fs_ops + 1);
    let fs = Arc::new(SimFs::new(seed));
    fs.fail_after_ops(crash_at);
    let mut ok_ops = 0usize;
    let mut attempted_ops = 0usize;
    match DurableStore::open(fs.clone() as Arc<dyn Vfs>, options()) {
        Ok(mut store) => {
            for op in &ops {
                attempted_ops += 1;
                match apply_store(&mut store, op) {
                    Ok(()) => ok_ops += 1,
                    Err(e) => {
                        assert!(
                            matches!(e, cogsdk_rdf::DurableError::Io(_)),
                            "a crash mid-run must surface as Io, got: {e}"
                        );
                        break;
                    }
                }
            }
        }
        Err(e) => {
            assert!(
                matches!(e, cogsdk_rdf::DurableError::Io(_)),
                "a crash during open must surface as Io, got: {e}"
            );
        }
    }

    // Power loss: unsynced tails torn at seeded offsets, then remount.
    fs.crash();
    let disk = disk_digest(&fs);

    let recovered =
        DurableStore::open(fs.clone() as Arc<dyn Vfs>, options()).expect("recovery must succeed");
    let stats = recovered.recovery_stats().expect("durable store");

    // Prefix oracle: the recovered base must equal the shadow state
    // after some k with ok_ops <= k <= attempted_ops — every durable op
    // present, at most the in-flight one beyond (its group commit may
    // have fully hit the disk before the crash), nothing else.
    let epoch = recovered.epochs().pin();
    let recovered_base: BTreeSet<Statement> = epoch
        .stated_ids()
        .map(|t| epoch.dict().resolve_triple(t))
        .collect();
    let recovered_config = shadow_config_of(&recovered);
    let matched_state = (ok_ops..=attempted_ops)
        .find(|&k| states[k].base == recovered_base && states[k].config == recovered_config)
        .unwrap_or_else(|| {
            panic!(
                "seed {seed}: recovered state matches no durable prefix \
                 (ok={ok_ops}, attempted={attempted_ops}, crash_at={crash_at});\n\
                 recovered base: {recovered_base:?}\nexpected one of: {:?}",
                &states[ok_ops..=attempted_ops]
            )
        });

    // Closure oracle: recovered full view == from-scratch
    // materialization of the recovered base under the recovered config.
    assert_eq!(
        recovered.epochs().pin().to_graph(),
        closure(&states[matched_state]),
        "seed {seed}: recovered closure diverges from from-scratch materialization"
    );

    ScenarioDigest {
        crash_at,
        ok_ops,
        attempted_ops,
        matched_state,
        base_len: recovered_base.len(),
        full_len: recovered.len(),
        replayed_records: stats.replayed_records,
        torn_tails: stats.torn_tails,
        disk,
    }
}

fn run_suite(master_seed: u64) -> Vec<ScenarioDigest> {
    let mut seeder = Rng::new(master_seed);
    (0..SCENARIOS)
        .map(|_| run_scenario(seeder.next_u64()))
        .collect()
}

#[test]
fn recovery_equals_durable_prefix_across_seeded_crash_points() {
    let digests = run_suite(MASTER_SEED);
    assert!(digests.len() >= 200, "acceptance floor: 200 crash points");
    let torn: u64 = digests.iter().map(|d| d.torn_tails).sum();
    assert!(torn > 0, "the suite must exercise torn tail records");
    let replayed: u64 = digests.iter().map(|d| d.replayed_records).sum();
    assert!(replayed > 0, "the suite must exercise WAL replay");
    let mid_run_crashes = digests
        .iter()
        .filter(|d| d.ok_ops < d.attempted_ops)
        .count();
    assert!(
        mid_run_crashes > SCENARIOS as usize / 4,
        "most scenarios should crash mid-run, got {mid_run_crashes}"
    );
    let in_flight_survivals = digests
        .iter()
        .filter(|d| d.matched_state > d.ok_ops)
        .count();
    assert!(
        in_flight_survivals > 0,
        "some in-flight ops should survive (bytes landed before the crash)"
    );
}

#[test]
fn suite_is_byte_deterministic_under_a_fixed_seed() {
    assert_eq!(run_suite(MASTER_SEED), run_suite(MASTER_SEED));
}

#[test]
fn mid_log_corruption_is_a_hard_recovery_error() {
    let fs = Arc::new(SimFs::new(99));
    let mut store = DurableStore::open(fs.clone() as Arc<dyn Vfs>, options()).unwrap();
    for i in 0..4 {
        store
            .insert(Statement::new(
                Term::iri(format!("ex:s{i}")),
                Term::iri("ex:p0"),
                Term::iri("ex:o"),
            ))
            .unwrap();
    }
    drop(store);
    // Flip a durable (fsynced) bit early in the first WAL segment: this
    // is media corruption with valid data after it, not a torn append.
    fs.flip_bit("wal-00000000.log", 10, 2);
    let err = DurableStore::open(fs as Arc<dyn Vfs>, options()).unwrap_err();
    assert!(
        matches!(err, cogsdk_rdf::DurableError::Corrupt(_)),
        "got: {err}"
    );
}

#[test]
fn enospc_fails_the_mutation_without_losing_state() {
    let fs = Arc::new(SimFs::new(17));
    let mut store = DurableStore::open(fs.clone() as Arc<dyn Vfs>, options()).unwrap();
    store
        .insert(Statement::new(
            Term::iri("ex:a"),
            Term::iri("ex:p0"),
            Term::iri("ex:b"),
        ))
        .unwrap();
    fs.set_space_limit(Some(0));
    let err = store
        .insert(Statement::new(
            Term::iri("ex:c"),
            Term::iri("ex:p0"),
            Term::iri("ex:d"),
        ))
        .unwrap_err();
    assert!(
        matches!(
            err,
            cogsdk_rdf::DurableError::Io(cogsdk_sim::fs::FsError::NoSpace)
        ),
        "got: {err}"
    );
    assert_eq!(store.len(), 1, "failed mutation must not apply in memory");
    fs.set_space_limit(None);
    store
        .insert(Statement::new(
            Term::iri("ex:c"),
            Term::iri("ex:p0"),
            Term::iri("ex:d"),
        ))
        .unwrap();
    drop(store);
    let recovered = DurableStore::open(fs as Arc<dyn Vfs>, options()).unwrap();
    assert_eq!(recovered.len(), 2);
}
