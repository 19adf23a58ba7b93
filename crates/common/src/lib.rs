//! Common foundations shared by every `schema-graph-query` crate.
//!
//! This crate deliberately has no dependencies: it provides
//!
//! * compact `u32` newtype identifiers ([`id`]),
//! * an FxHash-style fast hasher and map/set aliases ([`hash`]),
//! * a string interner ([`intern`]),
//! * sorted-vector set algebra used by the engines ([`sorted`]),
//! * the shared error type ([`error`]),
//! * a minimal JSON writer used by every JSON-exporting component
//!   ([`json`]),
//! * lock-free memory accounting with per-query and global ceilings
//!   ([`governor`]),
//! * deterministic fault injection for robustness testing ([`fault`]),
//! * the deadline / budget / cancellation contract of both backends ([`limits`]),
//! * the one thread pool, for bounded-admission jobs and scatter-gather
//!   batches alike ([`pool`]).

#![warn(missing_docs)]

pub mod axes;
pub mod error;
pub mod fault;
pub mod governor;
pub mod hash;
pub mod id;
pub mod intern;
pub mod json;
pub mod limits;
pub mod pool;
pub mod rng;
pub mod sorted;

pub use axes::{Approach, Backend};
pub use error::{Result, SgqError};
pub use fault::{FaultConfig, FaultKind, FaultPlan, FireReport};
pub use governor::{relation_bytes, QueryBudget, ResourceGovernor};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use id::{ColId, EdgeId, EdgeLabelId, KeyId, NodeId, NodeLabelId, RecVarId, VarId};
pub use intern::Interner;
pub use limits::Limits;
pub use rng::Rng;
