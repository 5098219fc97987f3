//! The rich SDK (§2 of the paper).
//!
//! "We have developed a rich SDK which improves upon previous SDKs by
//! providing a much broader set of features for supporting applications
//! accessing services." This crate is that SDK, feature for feature:
//!
//! | Paper feature (Fig. 2) | Module |
//! |---|---|
//! | Monitoring & data collection (latency, availability, quality) | [`monitor`] |
//! | Latency prediction from latency parameters | [`predict`] |
//! | Service scoring (Eq. 1, Eq. 2, custom) and ranking | [`score`], [`rank`] |
//! | Failure handling: retries, ranked failover, redundant invocation | [`invoke`] |
//! | Response caching | [`cache`] |
//! | Synchronous & asynchronous invocation (`ListenableFuture`) | [`future`], [`pool`] |
//! | NLU support: multi-document analysis, search→fetch→analyze→aggregate | [`nlu`] |
//!
//! The [`RichSdk`] facade in [`sdk`] wires the features together.
//!
//! # Examples
//!
//! ```
//! use cogsdk_core::sdk::RichSdk;
//! use cogsdk_sim::{SimEnv, SimService, Request};
//! use cogsdk_sim::latency::LatencyModel;
//! use cogsdk_json::json;
//!
//! let env = SimEnv::with_seed(1);
//! let sdk = RichSdk::new(&env);
//! sdk.register(SimService::builder("echo", "demo")
//!     .latency(LatencyModel::constant_ms(5.0))
//!     .build(&env));
//!
//! let out = sdk.invoke("echo", &Request::new("op", json!({"x": 1}))).unwrap();
//! assert_eq!(out.payload, json!({"x": 1}));
//! ```

pub mod cache;
pub mod future;
pub mod gateway;
pub mod invoke;
pub mod monitor;
pub mod nlu;
pub mod pool;
pub mod predict;
pub mod rank;
pub mod registry;
pub mod resilience;
pub mod score;
pub mod sdk;

pub use cache::{CacheConfig, CacheStats, FetchSource, FlightJoin, Lookup, ResponseCache};
pub use future::{JobPanicked, ListenableFuture};
pub use gateway::{GatewayLimits, HttpGateway};
pub use invoke::{Call, InvocationPolicy, RedundantMode};
pub use monitor::ServiceMonitor;
pub use pool::ThreadPool;
pub use predict::Predictor;
pub use rank::RankedService;
pub use registry::ServiceRegistry;
pub use resilience::{BreakerConfig, BreakerRegistry, BreakerState, Deadline};
pub use score::ScoringFormula;
pub use sdk::{ResilienceOptions, RichSdk};

use std::error::Error;
use std::fmt;

/// Error surfaced by SDK operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdkError {
    /// No service with the given name is registered.
    UnknownService(String),
    /// No service in the requested class is registered.
    EmptyClass(String),
    /// Every attempted service failed; carries the last failure.
    AllFailed(String),
    /// The request was rejected as invalid by the service.
    Rejected(String),
    /// A quality rating outside `[0, 1]` was supplied.
    InvalidRating(String),
    /// The end-to-end deadline budget ran out before the work finished.
    DeadlineExceeded(String),
    /// Every admissible candidate was behind an open circuit breaker.
    CircuitOpen(String),
}

impl fmt::Display for SdkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdkError::UnknownService(name) => write!(f, "unknown service: {name}"),
            SdkError::EmptyClass(class) => write!(f, "no services in class: {class}"),
            SdkError::AllFailed(last) => write!(f, "all candidate services failed; last: {last}"),
            SdkError::Rejected(msg) => write!(f, "request rejected: {msg}"),
            SdkError::InvalidRating(msg) => write!(f, "invalid quality rating: {msg}"),
            SdkError::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
            SdkError::CircuitOpen(msg) => write!(f, "circuit open: {msg}"),
        }
    }
}

impl SdkError {
    /// A stable machine-readable error kind, for metric labels.
    pub fn kind(&self) -> &'static str {
        match self {
            SdkError::UnknownService(_) => "unknown_service",
            SdkError::EmptyClass(_) => "empty_class",
            SdkError::AllFailed(_) => "all_failed",
            SdkError::Rejected(_) => "rejected",
            SdkError::InvalidRating(_) => "invalid_rating",
            SdkError::DeadlineExceeded(_) => "deadline_exceeded",
            SdkError::CircuitOpen(_) => "circuit_open",
        }
    }
}

impl Error for SdkError {}
