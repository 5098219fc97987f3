//! The personalized knowledge base (§3 of the paper), built on top of the
//! rich SDK.
//!
//! "The personal knowledge base can store data persistently in a variety
//! of forms including files, relational database management systems
//! (RDBMS), key-value stores, and RDF triple stores… The personalized
//! knowledge base provides methods to allow data to be converted to
//! different formats… can analyze data for patterns and perform predictive
//! analytics; it also provides inferencing capabilities."
//!
//! Feature map (Figure 4):
//!
//! | Paper feature | Module |
//! |---|---|
//! | Multi-backend storage (CSV / tables / KV / RDF) | [`kb`] over `cogsdk-store` + `cogsdk-rdf` |
//! | Format conversion (CSV ↔ table ↔ RDF) | [`convert`] |
//! | Entity disambiguation (incl. user synonym files) | [`kb`] via `cogsdk-text` |
//! | Local spell checker | [`kb`] via `cogsdk_text::SpellChecker` |
//! | Statistical analysis + prediction, stored as RDF, then inferenced (Fig. 5) | [`analytics`] |
//! | Encryption + compression before untrusted remote storage | construction option via `cogsdk_store::EnhancedClient` |
//! | Offline operation + resynchronization | [`kb`] via `cogsdk_store::sync` |

pub mod analytics;
pub mod convert;
pub mod federation;
pub mod gateway;
pub mod ingest;
pub mod kb;

pub use analytics::RegressionFacts;
pub use gateway::{gateway_ingest_handler, gateway_query_handler};
pub use ingest::{chunk_documents, IngestConfig, IngestReport, IngestSession, IngestWatcher};
pub use kb::{KbOptions, PersonalKnowledgeBase};

use std::error::Error;
use std::fmt;

/// Error type for knowledge-base operations.
#[derive(Debug, Clone, PartialEq)]
pub enum KbError {
    /// Underlying storage failure.
    Store(String),
    /// RDF / query failure.
    Rdf(String),
    /// Statistics failure (degenerate data).
    Stats(String),
    /// A surface form could not be disambiguated.
    UnknownEntity(String),
    /// Serialized knowledge could not be parsed.
    Corrupt(String),
    /// The durability layer (WAL or snapshot) failed.
    Durability(String),
    /// A pool job the operation waited on panicked.
    Panicked(String),
}

impl fmt::Display for KbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbError::Store(m) => write!(f, "storage: {m}"),
            KbError::Rdf(m) => write!(f, "rdf: {m}"),
            KbError::Stats(m) => write!(f, "statistics: {m}"),
            KbError::UnknownEntity(m) => write!(f, "unknown entity: {m}"),
            KbError::Corrupt(m) => write!(f, "corrupt knowledge data: {m}"),
            KbError::Durability(m) => write!(f, "durability: {m}"),
            KbError::Panicked(m) => write!(f, "panicked: {m}"),
        }
    }
}

impl Error for KbError {}

impl From<cogsdk_store::StoreError> for KbError {
    fn from(e: cogsdk_store::StoreError) -> KbError {
        KbError::Store(e.to_string())
    }
}

impl From<cogsdk_rdf::RdfError> for KbError {
    fn from(e: cogsdk_rdf::RdfError) -> KbError {
        KbError::Rdf(e.to_string())
    }
}

impl From<cogsdk_rdf::DurableError> for KbError {
    fn from(e: cogsdk_rdf::DurableError) -> KbError {
        KbError::Durability(e.to_string())
    }
}

impl From<cogsdk_stats::StatsError> for KbError {
    fn from(e: cogsdk_stats::StatsError) -> KbError {
        KbError::Stats(e.to_string())
    }
}
