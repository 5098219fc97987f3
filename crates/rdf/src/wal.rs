//! Write-ahead log for the durable KB.
//!
//! Every mutation of a [`DurableStore`](crate::DurableStore) is appended
//! here *before* it is applied in memory. Records are length-prefixed
//! and CRC32-checksummed:
//!
//! ```text
//! frame   := len:u32le  crc32:u32le  payload[len]
//! payload := record tag (1 byte) + record body
//! ```
//!
//! Record kinds: dictionary entries (new interned terms, in sequence
//! order so replay reproduces identical ids), id-triple inserts and
//! removes, confidences, and ruleset enables (RDFS / OWL / transitive
//! properties / user rules / weighted rules with their strength —
//! persisted structurally, not as source text). A batch of
//! records is written with one append and one fsync (group commit), and
//! the log rotates to a new segment (`wal-<n>.log`) past a size
//! threshold so snapshots can reclaim space segment-at-a-time.
//!
//! Replay walks segments in order and is strict about what it forgives:
//! a *torn tail* — a final frame cut short by a crash, or whose checksum
//! fails with nothing after it — is dropped and counted; any bad frame
//! *before* the end (a checksum mismatch mid-log, a short frame in a
//! non-final segment) is a hard [`DurableError::Corrupt`], because it
//! means durable data was damaged rather than an append interrupted.

use crate::dict::TermId;
use crate::incremental::MaterializerConfig;
use crate::model::{Literal, Term};
use crate::reason::{PatternTerm, Rule, TriplePattern};
use cogsdk_sim::fs::{FsError, Vfs};
use std::fmt;
use std::sync::Arc;

/// Errors from the durability subsystem (WAL, snapshots, recovery).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The storage layer failed (includes injected faults).
    Io(FsError),
    /// Durable data is damaged: checksum mismatch mid-log, a malformed
    /// record behind a valid checksum, or an unreadable snapshot.
    Corrupt(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durability i/o: {e}"),
            DurableError::Corrupt(msg) => write!(f, "durable state corrupt: {msg}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<FsError> for DurableError {
    fn from(e: FsError) -> DurableError {
        DurableError::Io(e)
    }
}

// ---------------------------------------------------------------- crc32

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`crc32` convention).
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ------------------------------------------------------------- encoding

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    put_u32(buf, data.len() as u32);
    buf.extend_from_slice(data);
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Cursor over a decoded payload. Every accessor fails cleanly on
/// truncation; since payloads sit behind a verified checksum, a decode
/// failure is corruption (or a version mismatch), never a torn write.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DurableError> {
        if self.pos + n > self.buf.len() {
            return Err(DurableError::Corrupt(format!(
                "record truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DurableError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DurableError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DurableError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], DurableError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    pub(crate) fn str(&mut self) -> Result<String, DurableError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DurableError::Corrupt("record holds invalid utf-8".into()))
    }
}

const TERM_IRI: u8 = 0;
const TERM_BLANK: u8 = 1;
const TERM_LIT_STRING: u8 = 2;
const TERM_LIT_INTEGER: u8 = 3;
const TERM_LIT_DOUBLE: u8 = 4;
const TERM_LIT_BOOLEAN: u8 = 5;

pub(crate) fn put_term(buf: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            buf.push(TERM_IRI);
            put_str(buf, iri);
        }
        Term::Blank(label) => {
            buf.push(TERM_BLANK);
            put_str(buf, label);
        }
        Term::Literal(Literal::String(s)) => {
            buf.push(TERM_LIT_STRING);
            put_str(buf, s);
        }
        Term::Literal(Literal::Integer(i)) => {
            buf.push(TERM_LIT_INTEGER);
            put_u64(buf, *i as u64);
        }
        Term::Literal(Literal::Double(d)) => {
            buf.push(TERM_LIT_DOUBLE);
            put_u64(buf, d.to_bits());
        }
        Term::Literal(Literal::Boolean(b)) => {
            buf.push(TERM_LIT_BOOLEAN);
            buf.push(*b as u8);
        }
    }
}

pub(crate) fn read_term(r: &mut Reader<'_>) -> Result<Term, DurableError> {
    match r.u8()? {
        TERM_IRI => Ok(Term::Iri(r.str()?)),
        TERM_BLANK => Ok(Term::Blank(r.str()?)),
        TERM_LIT_STRING => Ok(Term::Literal(Literal::String(r.str()?))),
        TERM_LIT_INTEGER => Ok(Term::Literal(Literal::Integer(r.u64()? as i64))),
        TERM_LIT_DOUBLE => Ok(Term::Literal(Literal::Double(f64::from_bits(r.u64()?)))),
        TERM_LIT_BOOLEAN => Ok(Term::Literal(Literal::Boolean(r.u8()? != 0))),
        tag => Err(DurableError::Corrupt(format!("unknown term tag {tag}"))),
    }
}

fn put_pattern_term(buf: &mut Vec<u8>, pt: &PatternTerm) {
    match pt {
        PatternTerm::Term(t) => {
            buf.push(0);
            put_term(buf, t);
        }
        PatternTerm::Var(v) => {
            buf.push(1);
            put_str(buf, v);
        }
    }
}

fn read_pattern_term(r: &mut Reader<'_>) -> Result<PatternTerm, DurableError> {
    match r.u8()? {
        0 => Ok(PatternTerm::Term(read_term(r)?)),
        1 => Ok(PatternTerm::Var(r.str()?)),
        tag => Err(DurableError::Corrupt(format!("unknown pattern tag {tag}"))),
    }
}

fn put_pattern(buf: &mut Vec<u8>, p: &TriplePattern) {
    put_pattern_term(buf, &p.subject);
    put_pattern_term(buf, &p.predicate);
    put_pattern_term(buf, &p.object);
}

fn read_pattern(r: &mut Reader<'_>) -> Result<TriplePattern, DurableError> {
    Ok(TriplePattern {
        subject: read_pattern_term(r)?,
        predicate: read_pattern_term(r)?,
        object: read_pattern_term(r)?,
    })
}

pub(crate) fn put_rule(buf: &mut Vec<u8>, rule: &Rule) {
    put_u32(buf, rule.premises.len() as u32);
    for p in &rule.premises {
        put_pattern(buf, p);
    }
    put_u32(buf, rule.conclusions.len() as u32);
    for c in &rule.conclusions {
        put_pattern(buf, c);
    }
}

pub(crate) fn read_rule(r: &mut Reader<'_>) -> Result<Rule, DurableError> {
    let n = r.u32()? as usize;
    let mut premises = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        premises.push(read_pattern(r)?);
    }
    let n = r.u32()? as usize;
    let mut conclusions = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        conclusions.push(read_pattern(r)?);
    }
    Ok(Rule {
        premises,
        conclusions,
    })
}

/// A count, then each rule.
pub(crate) fn put_rules(buf: &mut Vec<u8>, rules: &[Rule]) {
    put_u32(buf, rules.len() as u32);
    for rule in rules {
        put_rule(buf, rule);
    }
}

pub(crate) fn read_rules(r: &mut Reader<'_>) -> Result<Vec<Rule>, DurableError> {
    let n = r.u32()? as usize;
    let mut rules = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        rules.push(read_rule(r)?);
    }
    Ok(rules)
}

/// A weighted rule's strength, which must lie in `(0, 1]`.
pub(crate) fn read_strength(r: &mut Reader<'_>) -> Result<f64, DurableError> {
    let strength = f64::from_bits(r.u64()?);
    if strength > 0.0 && strength <= 1.0 {
        Ok(strength)
    } else {
        Err(DurableError::Corrupt(format!(
            "rule strength {strength} is not in (0, 1]"
        )))
    }
}

// -------------------------------------------------------------- records

const REC_DICT_ENTRY: u8 = 1;
const REC_INSERT: u8 = 2;
const REC_REMOVE: u8 = 3;
const REC_ENABLE_RDFS: u8 = 4;
const REC_ENABLE_OWL: u8 = 5;
const REC_ADD_TRANSITIVE: u8 = 6;
const REC_ADD_RULES: u8 = 7;
const REC_CONFIDENCE: u8 = 8;
const REC_ADD_WEIGHTED_RULES: u8 = 9;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// A newly interned term; `seq` is its dictionary sequence number.
    /// Replayed in order, these reproduce identical term ids.
    DictEntry { seq: u32, term: Term },
    /// A base triple insert, by raw term ids.
    Insert(u32, u32, u32),
    /// A base triple removal, by raw term ids.
    Remove(u32, u32, u32),
    /// RDFS entailment enabled as a standing ruleset.
    EnableRdfs,
    /// OWL/Lite entailment enabled (implies RDFS).
    EnableOwl,
    /// A property registered as transitive.
    AddTransitive(Term),
    /// User rules added to the standing generic ruleset.
    AddRules(Vec<Rule>),
    /// A statement's confidence, by raw term ids and IEEE-754 bits.
    /// Values at or above 1.0 clear the entry (1.0 is the default every
    /// unlisted statement already has). Later records win on replay.
    Confidence(u32, u32, u32, u64),
    /// Rules added to the standing weighted ruleset, with their strength.
    AddWeightedRules(Vec<Rule>, f64),
}

impl WalRecord {
    pub(crate) fn insert(t: (TermId, TermId, TermId)) -> WalRecord {
        WalRecord::Insert(t.0.raw(), t.1.raw(), t.2.raw())
    }

    pub(crate) fn remove(t: (TermId, TermId, TermId)) -> WalRecord {
        WalRecord::Remove(t.0.raw(), t.1.raw(), t.2.raw())
    }

    pub(crate) fn confidence(t: (TermId, TermId, TermId), value: f64) -> WalRecord {
        WalRecord::Confidence(t.0.raw(), t.1.raw(), t.2.raw(), value.to_bits())
    }

    /// The records for a merge's new rulesets ([`MaterializerConfig::merge`]):
    /// OWL (which replays as OWL and RDFS) or else RDFS, each transitive
    /// predicate, the user rules, and one record per run of weighted rules
    /// at one strength.
    pub(crate) fn ruleset(new: &MaterializerConfig) -> Vec<WalRecord> {
        let mut records = Vec::new();
        if new.owl {
            records.push(WalRecord::EnableOwl);
        } else if new.rdfs {
            records.push(WalRecord::EnableRdfs);
        }
        records.extend(new.transitive.iter().cloned().map(WalRecord::AddTransitive));
        if !new.rules.is_empty() {
            records.push(WalRecord::AddRules(new.rules.clone()));
        }
        for run in new.weighted.chunk_by(|a, b| a.1 == b.1) {
            let rules = run.iter().map(|(rule, _)| rule.clone()).collect();
            records.push(WalRecord::AddWeightedRules(rules, run[0].1));
        }
        records
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::DictEntry { seq, term } => {
                buf.push(REC_DICT_ENTRY);
                put_u32(buf, *seq);
                put_term(buf, term);
            }
            WalRecord::Insert(s, p, o) => {
                buf.push(REC_INSERT);
                put_u32(buf, *s);
                put_u32(buf, *p);
                put_u32(buf, *o);
            }
            WalRecord::Remove(s, p, o) => {
                buf.push(REC_REMOVE);
                put_u32(buf, *s);
                put_u32(buf, *p);
                put_u32(buf, *o);
            }
            WalRecord::EnableRdfs => buf.push(REC_ENABLE_RDFS),
            WalRecord::EnableOwl => buf.push(REC_ENABLE_OWL),
            WalRecord::AddTransitive(term) => {
                buf.push(REC_ADD_TRANSITIVE);
                put_term(buf, term);
            }
            WalRecord::AddRules(rules) => {
                buf.push(REC_ADD_RULES);
                put_rules(buf, rules);
            }
            WalRecord::AddWeightedRules(rules, strength) => {
                buf.push(REC_ADD_WEIGHTED_RULES);
                put_u64(buf, strength.to_bits());
                put_rules(buf, rules);
            }
            WalRecord::Confidence(s, p, o, bits) => {
                buf.push(REC_CONFIDENCE);
                put_u32(buf, *s);
                put_u32(buf, *p);
                put_u32(buf, *o);
                put_u64(buf, *bits);
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<WalRecord, DurableError> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            REC_DICT_ENTRY => WalRecord::DictEntry {
                seq: r.u32()?,
                term: read_term(&mut r)?,
            },
            REC_INSERT => WalRecord::Insert(r.u32()?, r.u32()?, r.u32()?),
            REC_REMOVE => WalRecord::Remove(r.u32()?, r.u32()?, r.u32()?),
            REC_ENABLE_RDFS => WalRecord::EnableRdfs,
            REC_ENABLE_OWL => WalRecord::EnableOwl,
            REC_ADD_TRANSITIVE => WalRecord::AddTransitive(read_term(&mut r)?),
            REC_ADD_RULES => WalRecord::AddRules(read_rules(&mut r)?),
            REC_ADD_WEIGHTED_RULES => {
                let strength = read_strength(&mut r)?;
                WalRecord::AddWeightedRules(read_rules(&mut r)?, strength)
            }
            REC_CONFIDENCE => WalRecord::Confidence(r.u32()?, r.u32()?, r.u32()?, r.u64()?),
            tag => return Err(DurableError::Corrupt(format!("unknown record tag {tag}"))),
        };
        if !r.is_empty() {
            return Err(DurableError::Corrupt(
                "trailing bytes after record body".into(),
            ));
        }
        Ok(record)
    }
}

// ------------------------------------------------------------------ wal

/// Running counters for WAL activity, exported as `sdk_wal_*` metrics
/// by the KB layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Group-commit batches appended.
    pub appends: u64,
    /// fsync calls issued.
    pub fsyncs: u64,
    /// Payload + framing bytes written.
    pub bytes: u64,
    /// Logical records appended.
    pub records: u64,
    /// Segment rotations performed.
    pub rotations: u64,
}

/// Everything replay recovered from disk.
#[derive(Debug)]
pub(crate) struct Replay {
    pub records: Vec<WalRecord>,
    /// Torn tail frames dropped (0 or 1 per recovery).
    pub torn_tails: u64,
}

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";
/// Upper bound on a single record payload; a length prefix beyond this
/// is treated as corruption rather than an allocation request.
const MAX_RECORD_LEN: usize = 1 << 28;

fn segment_name(index: u64) -> String {
    format!("{SEGMENT_PREFIX}{index:08}{SEGMENT_SUFFIX}")
}

/// WAL segment indexes present on `fs`, sorted ascending.
fn segment_indexes(fs: &dyn Vfs) -> Result<Vec<u64>, DurableError> {
    let mut indexes = Vec::new();
    for name in fs.list()? {
        if let Some(stem) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
        {
            if let Ok(index) = stem.parse::<u64>() {
                indexes.push(index);
            }
        }
    }
    indexes.sort_unstable();
    Ok(indexes)
}

/// The append half of the log. Created by [`Wal::open`], which positions
/// the writer after any existing segments (replay is separate; see
/// [`replay`]).
pub(crate) struct Wal {
    fs: Arc<dyn Vfs>,
    segment: u64,
    segment_bytes: usize,
    segment_max: usize,
    stats: WalStats,
}

impl Wal {
    /// Opens the log for appending, continuing the newest existing
    /// segment or starting `wal-00000000.log`.
    pub(crate) fn open(fs: Arc<dyn Vfs>, segment_max: usize) -> Result<Wal, DurableError> {
        let indexes = segment_indexes(fs.as_ref())?;
        let segment = indexes.last().copied().unwrap_or(0);
        let segment_bytes = match fs.size(&segment_name(segment)) {
            Ok(n) => n,
            Err(FsError::NotFound(_)) => 0,
            Err(e) => return Err(e.into()),
        };
        Ok(Wal {
            fs,
            segment,
            segment_bytes,
            segment_max,
            stats: WalStats::default(),
        })
    }

    pub(crate) fn stats(&self) -> WalStats {
        self.stats
    }

    /// Appends a batch of records as one group commit: all frames in a
    /// single append, made durable by a single fsync. On any error
    /// nothing is considered durable and the caller must not apply the
    /// batch in memory.
    pub(crate) fn append_batch(&mut self, records: &[WalRecord]) -> Result<(), DurableError> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        let mut payload = Vec::new();
        for record in records {
            payload.clear();
            record.encode(&mut payload);
            put_u32(&mut buf, payload.len() as u32);
            put_u32(&mut buf, crc32(&payload));
            buf.extend_from_slice(&payload);
        }
        if self.segment_bytes > 0 && self.segment_bytes + buf.len() > self.segment_max {
            self.segment += 1;
            self.segment_bytes = 0;
            self.stats.rotations += 1;
        }
        let name = segment_name(self.segment);
        self.fs.append(&name, &buf)?;
        self.fs.fsync(&name)?;
        self.segment_bytes += buf.len();
        self.stats.appends += 1;
        self.stats.fsyncs += 1;
        self.stats.bytes += buf.len() as u64;
        self.stats.records += records.len() as u64;
        Ok(())
    }

    /// Deletes every segment (after a successful snapshot has made the
    /// logged state redundant) and restarts at segment 0.
    pub(crate) fn reset(&mut self) -> Result<(), DurableError> {
        for index in segment_indexes(self.fs.as_ref())? {
            self.fs.delete(&segment_name(index))?;
        }
        self.segment = 0;
        self.segment_bytes = 0;
        Ok(())
    }
}

/// Replays all WAL segments on `fs` in order.
///
/// Tolerates exactly one torn frame at the very end of the final
/// segment (counted in [`Replay::torn_tails`]); every other framing or
/// checksum failure is [`DurableError::Corrupt`].
pub(crate) fn replay(fs: &dyn Vfs) -> Result<Replay, DurableError> {
    let indexes = segment_indexes(fs)?;
    let mut records = Vec::new();
    let mut torn_tails = 0u64;
    for (i, &index) in indexes.iter().enumerate() {
        let last_segment = i + 1 == indexes.len();
        let name = segment_name(index);
        let data = fs.read(&name)?;
        let mut pos = 0usize;
        while pos < data.len() {
            // Frame header.
            if pos + 8 > data.len() {
                if last_segment {
                    torn_tails += 1;
                    break;
                }
                return Err(DurableError::Corrupt(format!(
                    "{name}: truncated frame header in non-final segment"
                )));
            }
            let len = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]])
                as usize;
            let crc =
                u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
            if len > MAX_RECORD_LEN {
                return Err(DurableError::Corrupt(format!(
                    "{name}: implausible record length {len} at offset {pos}"
                )));
            }
            let body_start = pos + 8;
            if body_start + len > data.len() {
                // Payload cut short: necessarily the end of the file.
                if last_segment {
                    torn_tails += 1;
                    break;
                }
                return Err(DurableError::Corrupt(format!(
                    "{name}: truncated record payload in non-final segment"
                )));
            }
            let payload = &data[body_start..body_start + len];
            if crc32(payload) != crc {
                let is_final_frame = body_start + len == data.len();
                if last_segment && is_final_frame {
                    // A partially-persisted final frame; drop it.
                    torn_tails += 1;
                    break;
                }
                return Err(DurableError::Corrupt(format!(
                    "{name}: checksum mismatch at offset {pos} with valid data after it"
                )));
            }
            records.push(WalRecord::decode(payload)?);
            pos = body_start + len;
        }
    }
    Ok(Replay {
        records,
        torn_tails,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsdk_sim::fs::SimFs;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::DictEntry {
                seq: 0,
                term: Term::iri("ex:a"),
            },
            WalRecord::DictEntry {
                seq: 1,
                term: Term::double(-2.5),
            },
            WalRecord::Insert(0, 4, 8),
            WalRecord::Remove(0, 4, 8),
            WalRecord::EnableRdfs,
            WalRecord::EnableOwl,
            WalRecord::AddTransitive(Term::iri("ex:ancestor")),
            WalRecord::AddRules(vec![
                Rule::parse("[(?a ex:parent ?b) -> (?b ex:child ?a)]").unwrap()
            ]),
            WalRecord::Confidence(0, 4, 8, 0.85f64.to_bits()),
        ]
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_frames() {
        let fs = Arc::new(SimFs::new(1));
        let mut wal = Wal::open(fs.clone(), 1 << 20).unwrap();
        let records = sample_records();
        wal.append_batch(&records).unwrap();
        let out = replay(fs.as_ref()).unwrap();
        assert_eq!(out.records, records);
        assert_eq!(out.torn_tails, 0);
        assert_eq!(wal.stats().records, records.len() as u64);
        assert_eq!(wal.stats().appends, 1);
        assert_eq!(wal.stats().fsyncs, 1);
    }

    #[test]
    fn a_weighted_ruleset_round_trips_and_a_bad_strength_is_corrupt() {
        let rules = vec![Rule::parse("[(?a ex:p ?b) -> (?b ex:q ?a)]").unwrap()];
        let fs = Arc::new(SimFs::new(9));
        let mut wal = Wal::open(fs.clone(), 1 << 20).unwrap();
        let record = WalRecord::AddWeightedRules(rules.clone(), 0.8);
        wal.append_batch(std::slice::from_ref(&record)).unwrap();
        assert_eq!(replay(fs.as_ref()).unwrap().records, vec![record]);
        for strength in [0.0, 1.5, f64::NAN] {
            let mut payload = Vec::new();
            WalRecord::AddWeightedRules(rules.clone(), strength).encode(&mut payload);
            let decoded = WalRecord::decode(&payload);
            assert!(
                matches!(decoded, Err(DurableError::Corrupt(_))),
                "{strength}"
            );
        }
    }

    #[test]
    fn group_commit_is_one_append_one_fsync() {
        let fs = Arc::new(SimFs::new(2));
        let mut wal = Wal::open(fs.clone(), 1 << 20).unwrap();
        let before = fs.op_count();
        wal.append_batch(&sample_records()).unwrap();
        assert_eq!(fs.op_count() - before, 2, "one append + one fsync");
    }

    #[test]
    fn torn_tail_is_dropped_and_counted() {
        let fs = Arc::new(SimFs::new(3));
        let mut wal = Wal::open(fs.clone(), 1 << 20).unwrap();
        wal.append_batch(&[WalRecord::Insert(0, 4, 8)]).unwrap();
        wal.append_batch(&[WalRecord::Insert(12, 4, 8)]).unwrap();
        // Chop bytes off the final frame.
        let name = segment_name(0);
        let data = fs.read(&name).unwrap();
        fs.write(&name, &data[..data.len() - 3]).unwrap();
        let out = replay(fs.as_ref()).unwrap();
        assert_eq!(out.records, vec![WalRecord::Insert(0, 4, 8)]);
        assert_eq!(out.torn_tails, 1);
    }

    #[test]
    fn mid_log_bit_flip_is_a_hard_error() {
        let fs = Arc::new(SimFs::new(4));
        let mut wal = Wal::open(fs.clone(), 1 << 20).unwrap();
        wal.append_batch(&[WalRecord::Insert(0, 4, 8)]).unwrap();
        wal.append_batch(&[WalRecord::Insert(12, 4, 8)]).unwrap();
        // Flip a payload bit of the *first* record: corruption, not a torn
        // append, because valid data follows it.
        fs.flip_bit(&segment_name(0), 9, 0);
        let err = replay(fs.as_ref()).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt(_)), "got {err}");
    }

    #[test]
    fn short_frame_in_non_final_segment_is_a_hard_error() {
        let fs = Arc::new(SimFs::new(5));
        let mut wal = Wal::open(fs.clone(), 32).unwrap();
        for s in 0..8u32 {
            wal.append_batch(&[WalRecord::Insert(s * 4, 4, 8)]).unwrap();
        }
        assert!(wal.stats().rotations > 0, "log rotated");
        let first = segment_name(0);
        let data = fs.read(&first).unwrap();
        fs.write(&first, &data[..data.len() - 2]).unwrap();
        let err = replay(fs.as_ref()).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt(_)), "got {err}");
    }

    #[test]
    fn rotation_splits_into_multiple_segments_replayed_in_order() {
        let fs = Arc::new(SimFs::new(6));
        let mut wal = Wal::open(fs.clone(), 48).unwrap();
        let records: Vec<WalRecord> = (0..10u32).map(|s| WalRecord::Insert(s * 4, 4, 8)).collect();
        for r in &records {
            wal.append_batch(std::slice::from_ref(r)).unwrap();
        }
        let segments = segment_indexes(fs.as_ref()).unwrap();
        assert!(segments.len() > 1, "got {segments:?}");
        let out = replay(fs.as_ref()).unwrap();
        assert_eq!(out.records, records);
        // Reset removes every segment and restarts at zero.
        wal.reset().unwrap();
        assert!(segment_indexes(fs.as_ref()).unwrap().is_empty());
        wal.append_batch(&records[..1]).unwrap();
        assert_eq!(segment_indexes(fs.as_ref()).unwrap(), vec![0]);
    }

    #[test]
    fn reopen_continues_the_newest_segment() {
        let fs = Arc::new(SimFs::new(7));
        let mut wal = Wal::open(fs.clone(), 1 << 20).unwrap();
        wal.append_batch(&[WalRecord::EnableRdfs]).unwrap();
        drop(wal);
        let mut wal = Wal::open(fs.clone(), 1 << 20).unwrap();
        wal.append_batch(&[WalRecord::EnableOwl]).unwrap();
        let out = replay(fs.as_ref()).unwrap();
        assert_eq!(
            out.records,
            vec![WalRecord::EnableRdfs, WalRecord::EnableOwl]
        );
    }
}
