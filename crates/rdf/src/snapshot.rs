//! Checksummed KB snapshots.
//!
//! A snapshot captures everything recovery needs except the derived
//! closure: the term dictionary (in interning order, so ids reproduce
//! exactly), the *stated* id triples in strictly ascending SPO order
//! (recovery freezes them as they stand), the standing
//! [`MaterializerConfig`] and the stated triples' confidences. Derived
//! facts and their levels are deliberately absent — recovery re-runs
//! materialization, so inference state is never trusted from disk.
//!
//! The file is written with the classic atomic-replace dance: serialize
//! to `snapshot.tmp`, fsync the contents, then rename over
//! `snapshot.db`. A crash before the rename leaves the old snapshot
//! untouched; a crash after leaves the new one — never a mixture. The
//! whole payload sits behind a CRC32, and any mismatch (or malformed
//! content behind a valid checksum) is a hard
//! [`DurableError::Corrupt`]: a damaged snapshot must be noticed, not
//! silently skipped.

use crate::dict::{IdTriple, TermDict, TermId};
use crate::incremental::MaterializerConfig;
use crate::wal::{
    crc32, put_rule, put_rules, put_term, put_u32, put_u64, read_rule, read_rules, read_strength,
    read_term, DurableError, Reader,
};
use cogsdk_sim::fs::{FsError, Vfs};

/// Live snapshot file name.
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.db";
/// In-flight temp name, renamed over [`SNAPSHOT_FILE`] on completion.
pub(crate) const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Version 1 layout: dict + base triples + config.
const MAGIC_V1: &[u8; 8] = b"CGSNAP1\0";
/// Version 2 appends a weighted-confidence section. A store with no
/// weighted rules writes v2; v1 files still load (with no confidences).
const MAGIC: &[u8; 8] = b"CGSNAP2\0";
/// Version 3 appends the weighted rules, each with its strength; only a
/// store that has some writes it.
const MAGIC_V3: &[u8; 8] = b"CGSNAP3\0";

/// Decoded snapshot contents.
#[derive(Debug, Default)]
pub(crate) struct SnapshotData {
    pub dict: TermDict,
    pub triples: Vec<IdTriple>,
    pub config: MaterializerConfig,
    pub confidence: Vec<(IdTriple, f64)>,
}

fn encode(
    dict: &TermDict,
    triples: &[IdTriple],
    config: &MaterializerConfig,
    confidence: &[(IdTriple, f64)],
) -> Vec<u8> {
    let terms = dict.terms_from(0);
    let mut payload = Vec::new();
    put_u32(&mut payload, terms.len() as u32);
    for term in &terms {
        put_term(&mut payload, term);
    }
    put_u64(&mut payload, triples.len() as u64);
    for &(s, p, o) in triples {
        put_u32(&mut payload, s.raw());
        put_u32(&mut payload, p.raw());
        put_u32(&mut payload, o.raw());
    }
    payload.push(config.rdfs as u8);
    payload.push(config.owl as u8);
    put_u32(&mut payload, config.transitive.len() as u32);
    for term in &config.transitive {
        put_term(&mut payload, term);
    }
    put_rules(&mut payload, &config.rules);
    put_u32(&mut payload, confidence.len() as u32);
    for &((s, p, o), value) in confidence {
        put_u32(&mut payload, s.raw());
        put_u32(&mut payload, p.raw());
        put_u32(&mut payload, o.raw());
        put_u64(&mut payload, value.to_bits());
    }
    let magic = if config.weighted.is_empty() {
        MAGIC
    } else {
        put_u32(&mut payload, config.weighted.len() as u32);
        for (rule, strength) in &config.weighted {
            put_rule(&mut payload, rule);
            put_u64(&mut payload, strength.to_bits());
        }
        MAGIC_V3
    };

    let mut out = Vec::with_capacity(MAGIC.len() + 12 + payload.len());
    out.extend_from_slice(magic);
    put_u32(&mut out, crc32(&payload));
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Validates a persisted raw id against the dictionary: issued seq,
/// and (for subject/predicate positions) the right structural kind.
fn check_id(raw: u32, dict_len: usize, what: &str) -> Result<TermId, DurableError> {
    let id = TermId::from_raw(raw);
    if id.seq() >= dict_len {
        return Err(DurableError::Corrupt(format!(
            "{what} id {raw} out of dictionary range ({dict_len} terms)"
        )));
    }
    Ok(id)
}

/// Validates one persisted triple against the dictionary.
pub(crate) fn check_triple(
    (s, p, o): (u32, u32, u32),
    dict_len: usize,
) -> Result<IdTriple, DurableError> {
    let s = check_id(s, dict_len, "subject")?;
    let p = check_id(p, dict_len, "predicate")?;
    let o = check_id(o, dict_len, "object")?;
    if !s.is_resource() {
        return Err(DurableError::Corrupt(format!(
            "subject id {} is a literal",
            s.raw()
        )));
    }
    if !p.is_iri() {
        return Err(DurableError::Corrupt(format!(
            "predicate id {} is not an IRI",
            p.raw()
        )));
    }
    Ok((s, p, o))
}

fn decode(data: &[u8]) -> Result<SnapshotData, DurableError> {
    if data.len() < MAGIC.len() + 12 {
        return Err(DurableError::Corrupt("snapshot header malformed".into()));
    }
    let version = match &data[..MAGIC.len()] {
        magic if magic == MAGIC_V1 => 1,
        magic if magic == MAGIC => 2,
        magic if magic == MAGIC_V3 => 3,
        _ => return Err(DurableError::Corrupt("snapshot header malformed".into())),
    };
    let mut header = Reader::new(&data[MAGIC.len()..MAGIC.len() + 12]);
    let crc = header.u32()?;
    let len = header.u64()? as usize;
    let payload = &data[MAGIC.len() + 12..];
    if payload.len() != len {
        return Err(DurableError::Corrupt(format!(
            "snapshot length mismatch: header says {len}, file holds {}",
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(DurableError::Corrupt("snapshot checksum mismatch".into()));
    }

    let mut r = Reader::new(payload);
    let dict = TermDict::new();
    let term_count = r.u32()? as usize;
    for seq in 0..term_count {
        let term = read_term(&mut r)?;
        let id = dict.intern(&term);
        if id.seq() != seq {
            return Err(DurableError::Corrupt(format!(
                "duplicate dictionary term at seq {seq}"
            )));
        }
    }
    let triple_count = r.u64()? as usize;
    let mut triples: Vec<IdTriple> = Vec::with_capacity(triple_count.min(1 << 20));
    for _ in 0..triple_count {
        let raw = (r.u32()?, r.u32()?, r.u32()?);
        let triple = check_triple(raw, term_count)?;
        // Recovery freezes these as the SPO array as they stand.
        if triples.last().is_some_and(|&last| last >= triple) {
            return Err(DurableError::Corrupt(format!(
                "snapshot triple {raw:?} is not in strictly ascending SPO order"
            )));
        }
        triples.push(triple);
    }
    let rdfs = r.u8()? != 0;
    let owl = r.u8()? != 0;
    let n = r.u32()? as usize;
    let mut transitive = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        transitive.push(read_term(&mut r)?);
    }
    let rules = read_rules(&mut r)?;
    let mut confidence = Vec::new();
    if version >= 2 {
        let n = r.u32()? as usize;
        confidence.reserve(n.min(1 << 20));
        for _ in 0..n {
            let raw = (r.u32()?, r.u32()?, r.u32()?);
            let triple = check_triple(raw, term_count)?;
            let value = f64::from_bits(r.u64()?);
            if !value.is_finite() {
                return Err(DurableError::Corrupt(format!(
                    "confidence for {raw:?} is not finite"
                )));
            }
            confidence.push((triple, value));
        }
    }
    let mut weighted = Vec::new();
    if version >= 3 {
        for _ in 0..r.u32()? {
            let rule = read_rule(&mut r)?;
            weighted.push((rule, read_strength(&mut r)?));
        }
    }
    if !r.is_empty() {
        return Err(DurableError::Corrupt(
            "trailing bytes after snapshot payload".into(),
        ));
    }
    Ok(SnapshotData {
        dict,
        triples,
        config: MaterializerConfig {
            rdfs,
            owl,
            transitive,
            rules,
            weighted,
        },
        confidence,
    })
}

/// Serializes and atomically installs a snapshot; returns bytes written.
pub(crate) fn write_snapshot(
    fs: &dyn Vfs,
    dict: &TermDict,
    triples: &[IdTriple],
    config: &MaterializerConfig,
    confidence: &[(IdTriple, f64)],
) -> Result<u64, DurableError> {
    let bytes = encode(dict, triples, config, confidence);
    fs.write(SNAPSHOT_TMP, &bytes)?;
    fs.fsync(SNAPSHOT_TMP)?;
    fs.rename(SNAPSHOT_TMP, SNAPSHOT_FILE)?;
    Ok(bytes.len() as u64)
}

/// Loads the live snapshot, `Ok(None)` if none has ever been written.
pub(crate) fn load_snapshot(fs: &dyn Vfs) -> Result<Option<SnapshotData>, DurableError> {
    let data = match fs.read(SNAPSHOT_FILE) {
        Ok(data) => data,
        Err(FsError::NotFound(_)) => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    decode(&data).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Term;
    use crate::reason::Rule;
    use cogsdk_sim::fs::SimFs;

    fn sample() -> (TermDict, Vec<IdTriple>, MaterializerConfig) {
        let dict = TermDict::new();
        let a = dict.intern(&Term::iri("ex:a"));
        let p = dict.intern(&Term::iri("ex:p"));
        let lit = dict.intern(&Term::integer(42));
        let b = dict.intern(&Term::blank("b0"));
        let config = MaterializerConfig {
            rdfs: true,
            owl: false,
            transitive: vec![Term::iri("ex:p")],
            rules: vec![Rule::parse("[(?x ex:p ?y) -> (?y ex:q ?x)]").unwrap()],
            weighted: Vec::new(),
        };
        (dict, vec![(a, p, lit), (b, p, a)], config)
    }

    #[test]
    fn snapshot_round_trips_dict_triples_and_config() {
        let fs = SimFs::new(1);
        let (dict, triples, config) = sample();
        let confidence = vec![(triples[0], 0.75), (triples[1], 0.4)];
        write_snapshot(&fs, &dict, &triples, &config, &confidence).unwrap();
        let loaded = load_snapshot(&fs).unwrap().expect("snapshot present");
        assert_eq!(loaded.dict.len(), dict.len());
        for triple in &triples {
            assert_eq!(
                loaded.dict.resolve_triple(*triple),
                dict.resolve_triple(*triple),
                "ids resolve to the same statements"
            );
        }
        assert_eq!(loaded.triples, triples);
        assert_eq!(loaded.config.rdfs, config.rdfs);
        assert_eq!(loaded.config.owl, config.owl);
        assert_eq!(loaded.config.transitive, config.transitive);
        assert_eq!(loaded.config.rules, config.rules);
        assert_eq!(loaded.confidence, confidence);
    }

    #[test]
    fn weighted_rules_ride_a_v3_snapshot_and_only_then() {
        let fs = SimFs::new(8);
        let (dict, triples, config) = sample();
        write_snapshot(&fs, &dict, &triples, &config, &[]).unwrap();
        assert_eq!(&fs.read(SNAPSHOT_FILE).unwrap()[..8], MAGIC);
        let weighted = MaterializerConfig {
            weighted: vec![(config.rules[0].clone(), 0.8)],
            ..config.clone()
        };
        write_snapshot(&fs, &dict, &triples, &weighted, &[]).unwrap();
        assert_eq!(&fs.read(SNAPSHOT_FILE).unwrap()[..8], MAGIC_V3);
        let loaded = load_snapshot(&fs).unwrap().expect("v3 snapshot loads");
        assert_eq!(loaded.config.weighted, weighted.weighted);
        assert_eq!(loaded.config.rules, config.rules);
        assert_eq!(loaded.triples, triples);
    }

    #[test]
    fn v1_snapshots_still_load_with_no_confidences() {
        let fs = SimFs::new(6);
        let (dict, triples, config) = sample();
        write_snapshot(&fs, &dict, &triples, &config, &[]).unwrap();
        // Rewrite the file as a v1 snapshot: v1 is exactly the v2 layout
        // minus the (empty here) confidence count, under the old magic.
        let v2 = fs.read(SNAPSHOT_FILE).unwrap();
        let mut payload = v2[MAGIC.len() + 12..v2.len() - 4].to_vec();
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        put_u32(&mut v1, crc32(&payload));
        put_u64(&mut v1, payload.len() as u64);
        v1.append(&mut payload);
        fs.write(SNAPSHOT_FILE, &v1).unwrap();
        let loaded = load_snapshot(&fs).unwrap().expect("v1 snapshot loads");
        assert_eq!(loaded.triples, triples);
        assert!(loaded.confidence.is_empty());
    }

    #[test]
    fn missing_snapshot_is_none_not_an_error() {
        let fs = SimFs::new(2);
        assert!(load_snapshot(&fs).unwrap().is_none());
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let fs = SimFs::new(3);
        let (dict, triples, config) = sample();
        write_snapshot(&fs, &dict, &triples, &config, &[]).unwrap();
        let size = fs.size(SNAPSHOT_FILE).unwrap();
        fs.flip_bit(SNAPSHOT_FILE, size / 2, 1);
        let err = load_snapshot(&fs).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt(_)), "got {err}");
    }

    #[test]
    fn crash_before_rename_preserves_the_old_snapshot() {
        let fs = SimFs::new(4);
        let (dict, triples, config) = sample();
        write_snapshot(&fs, &dict, &triples, &config, &[]).unwrap();
        // Second snapshot crashes on the temp-file write.
        fs.fail_after_ops(0);
        let bigger = MaterializerConfig {
            owl: true,
            ..config.clone()
        };
        assert!(write_snapshot(&fs, &dict, &triples, &bigger, &[]).is_err());
        fs.crash();
        let loaded = load_snapshot(&fs).unwrap().expect("old snapshot intact");
        assert!(!loaded.config.owl, "old config survives");
    }

    #[test]
    fn triples_out_of_spo_order_are_rejected() {
        let (dict, triples, config) = sample();
        for bad in [vec![triples[1], triples[0]], vec![triples[0], triples[0]]] {
            let fs = SimFs::new(7);
            write_snapshot(&fs, &dict, &bad, &config, &[]).unwrap();
            let err = load_snapshot(&fs).unwrap_err();
            assert!(matches!(err, DurableError::Corrupt(_)), "got {err}");
        }
    }

    #[test]
    fn invalid_triple_ids_are_rejected() {
        let fs = SimFs::new(5);
        let dict = TermDict::new();
        let a = dict.intern(&Term::iri("ex:a"));
        // Out-of-range object id.
        let bogus = TermId::from_raw(400);
        let config = MaterializerConfig::default();
        write_snapshot(&fs, &dict, &[(a, a, bogus)], &config, &[]).unwrap();
        let err = load_snapshot(&fs).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt(_)), "got {err}");
    }
}
