//! Property-graph data model: the paper's Definitions 1–3.
//!
//! * [`schema`] — graph schemas (Def. 1) and basic schema triples (Def. 5),
//! * [`database`] — graph databases (Def. 2) with CSR adjacency indexes,
//! * [`consistency`] — schema–database consistency checking (Def. 3),
//! * [`value`] — property values and data types (the `Υ` typing function),
//! * [`csr`] — compressed sparse row adjacency,
//! * [`closure`] — the closure kernel: `step+` from sorted starts over
//!   CSR rows, one walk per cyclic component that holds a start,
//! * [`paths`] — simple paths over node labels: the enumeration behind the
//!   rewrite's closure elimination, kept per edge label by the schema,
//! * [`stats`] — per-label and per-triple cardinality statistics used by
//!   the relational cost model.

#![warn(missing_docs)]

pub mod closure;
pub mod consistency;
pub mod csr;
pub mod database;
pub mod paths;
pub mod schema;
pub mod stats;
pub mod value;

pub use consistency::{check_consistency, ConsistencyReport, Violation};
pub use csr::Csr;
pub use database::{DatabaseBuilder, GraphDatabase};
pub use paths::LabelPaths;
pub use schema::{GraphSchema, SchemaBuilder, SchemaTriple};
pub use stats::GraphStats;
pub use value::{DataType, Value};

// Concurrency audit: the serving layer (`sgq_service`) shares one loaded
// database and schema across worker threads behind `Arc`, so these types
// must stay `Send + Sync` (plain owned data, no interior mutability).
// Compile-time assertions so a regression fails the build, not a race.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphDatabase>();
    assert_send_sync::<GraphSchema>();
    assert_send_sync::<GraphStats>();
    assert_send_sync::<Value>();
};
