//! # schema-graph-query
//!
//! A reproduction of *"Schema-Based Query Optimisation for Graph
//! Databases"* (Sharma, Genevès, Gesbert, Layaïda): a type-inference
//! mechanism that enriches recursive graph queries (UCQT over Tarski's
//! algebra) with node-label information derived from a graph schema,
//! eliminating transitive closures when the schema's label graph is
//! acyclic and inserting semi-join label filters otherwise — plus the two
//! execution backends (a property-graph engine and a recursive relational
//! algebra engine), dataset generators and the full experiment harness.
//!
//! ## Quick start
//!
//! ```
//! use schema_graph_query::prelude::*;
//!
//! // The paper's running example: Fig. 1 schema, Fig. 2 database.
//! let schema = schema_graph_query::graph::schema::fig1_yago_schema();
//! let db = schema_graph_query::graph::database::fig2_yago_database();
//!
//! // ϕ4 = livesIn/isLocatedIn+/dealsWith+ (Example 10).
//! let phi = parse_path("livesIn/isLocatedIn+/dealsWith+", &schema).unwrap();
//!
//! // Rewrite it with schema information (Example 13).
//! let rewritten = rewrite_path(&schema, &phi, RewriteOptions::default());
//! let query = match &rewritten.outcome {
//!     RewriteOutcome::Enriched(q) => q.clone(),
//!     _ => unreachable!("ϕ4 is enrichable"),
//! };
//!
//! // Baseline and rewritten queries agree on every conforming database.
//! let engine = GraphEngine::new(&db);
//! let baseline = engine.eval_path(&phi).unwrap();
//! let enriched: Vec<_> = engine
//!     .run_ucqt(&query)
//!     .unwrap()
//!     .iter()
//!     .map(|row| (row[0], row[1]))
//!     .collect();
//! assert_eq!(baseline, enriched);
//! ```
//!
//! See `DESIGN.md` for the crate graph, the interned-symbol
//! (`SymbolTable`) ownership story and the dependency policy. The
//! paper-vs-measured comparison of every table and figure is regenerated
//! on demand by `cargo run --release --bin sgq-experiments`.

pub use sgq_algebra as algebra;
pub use sgq_common as common;
pub use sgq_core as core;
pub use sgq_datasets as datasets;
pub use sgq_engine as engine;
pub use sgq_graph as graph;
pub use sgq_harness as harness;
pub use sgq_obs as obs;
pub use sgq_query as query;
pub use sgq_ra as ra;
pub use sgq_service as service;
pub use sgq_translate as translate;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use sgq_algebra::ast::PathExpr;
    pub use sgq_algebra::parser::parse_path;
    pub use sgq_core::pipeline::{rewrite_path, rewrite_ucqt, RewriteOptions, RewriteOutcome};
    pub use sgq_core::RedundancyRule;
    pub use sgq_engine::GraphEngine;
    pub use sgq_graph::{DataType, GraphDatabase, GraphSchema, Value};
    pub use sgq_query::cqt::{Cqt, QueryKind, Ucqt};
    pub use sgq_ra::{execute, execute_plan, plan, ExecContext, PhysPlan, RelStore};
    pub use sgq_service::{QueryOptions, Service, ServiceConfig, Session};
}
