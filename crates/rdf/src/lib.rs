//! An RDF triple store with reasoning and a SPARQL-subset query engine.
//!
//! The paper's personalized knowledge base stores data as RDF statements in
//! Apache Jena and relies on four Jena capabilities it lists explicitly
//! (§3): a transitive reasoner, an RDF-Schema rule reasoner, a generic rule
//! reasoner "that supports user-defined rules … forward chaining, tabled
//! backward chaining", and a SPARQL query engine. This crate implements
//! that subset from scratch:
//!
//! * [`model`] — terms ([`Term`]), statements ([`Statement`]) and
//!   namespace/prefix handling.
//! * [`dict`] — dictionary encoding ([`TermDict`]): each distinct term is
//!   interned once to a `u32` id so the indexes and reasoners work on
//!   integers.
//! * [`graph`] — an indexed triple store ([`Graph`]) with dictionary-encoded
//!   SPO/POS/OSP indexes and pattern matching.
//! * [`reason`] + [`owl`] — the four reasoners (transitive, RDFS subset,
//!   generic rules, OWL/Lite subset).
//! * [`incremental`] — the one inference engine: every ruleset, weighted
//!   rules included, is a *standing* ruleset whose conclusions are derived
//!   facts kept up to date on every mutation. A fact's level (the paper's
//!   §5 accuracy level) is its stated confidence, or for a derived fact the
//!   best of its derivations — `strength × min(premise levels)` under a
//!   weighted rule, 1.0 under any other.
//! * [`plan`] — cost-based BGP planning ([`BgpQuery`] → [`ExecPlan`]):
//!   selectivity from index cardinalities, greedy join ordering, merge and
//!   index nested-loop joins, `OPTIONAL`/`UNION`, paging, `explain()`.
//! * [`query`] — `SELECT … WHERE { … OPTIONAL … UNION … FILTER … }
//!   ORDER BY … OFFSET … LIMIT …`, compiled through the planner.
//! * [`wal`] + [`durable`] — write-ahead durability: checksummed log
//!   records and snapshots behind [`DurableStore`], with crash recovery
//!   that replays the log and re-derives the closure.
//!
//! # Examples
//!
//! ```
//! use cogsdk_rdf::{Graph, Statement, Term};
//!
//! let mut g = Graph::new();
//! g.insert(Statement::new(
//!     Term::iri("ex:java_hashmap"),
//!     Term::iri("ex:implements"),
//!     Term::iri("ex:java_map"),
//! ));
//! assert_eq!(g.len(), 1);
//! let hits = g.match_pattern(None, Some(&Term::iri("ex:implements")), None);
//! assert_eq!(hits.len(), 1);
//! ```

pub mod dict;
pub mod durable;
pub mod epoch;
pub mod graph;
pub mod incremental;
pub mod model;
pub mod owl;
pub mod plan;
pub mod query;
pub mod reason;
mod snapshot;
pub mod wal;

pub use dict::{IdTriple, TermDict, TermId};
pub use durable::{DurableError, DurableOptions, DurableStore, RecoveryStats, WalStats};
pub use epoch::{EpochSnapshot, EpochStore};
pub use graph::{Graph, Overlay, QueryView, TripleView};
pub use incremental::{IncrementalMaterializer, MaterializerConfig};
pub use model::{Literal, Statement, Term};
pub use owl::OwlLiteReasoner;
pub use plan::{BgpQuery, ExecPlan, QueryStats};
pub use query::{Query, Solution};
pub use reason::{GenericRuleReasoner, RdfsReasoner, Rule, TransitiveReasoner};

use std::error::Error;
use std::fmt;

/// Error raised by parsing (rules, queries) or evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RdfError {
    message: String,
}

impl RdfError {
    pub(crate) fn new(message: impl Into<String>) -> RdfError {
        RdfError {
            message: message.into(),
        }
    }
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rdf error: {}", self.message)
    }
}

impl Error for RdfError {}
