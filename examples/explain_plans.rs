//! Plan-level impact of schema annotations (Figs. 15–17): translates the
//! paper's Q1/Q2 pair into SQL and Cypher, prints the physical execution
//! plans with per-operator strategy (merge vs hash join, build side,
//! fused filtered scans), estimated costs and actual cardinalities —
//! showing the semi-join the annotation buys — and closes with the
//! Fig. 2 physical-plan showcase, including the work counters of a
//! closure walked on the CSR and one walked on its step's pairs.
//!
//! ```sh
//! cargo run --release --example explain_plans
//! ```

use schema_graph_query::harness::experiments::{fig15_16, fig17, physical_plans};
use schema_graph_query::harness::replay::Catalog;

fn main() {
    println!("{}", fig15_16());
    println!("{}", fig17(0.3));
    println!("{}", physical_plans(&Catalog::ldbc(0.1)));
}
