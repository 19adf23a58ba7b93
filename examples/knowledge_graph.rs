//! Knowledge-graph analytics on the synthetic YAGO dataset: runs the 18
//! recursive queries of §5.1.3 baseline-vs-schema and prints the Fig. 12
//! style comparison plus the Table 6 fixed-length-path statistics.
//!
//! ```sh
//! cargo run --release --example knowledge_graph
//! ```

use schema_graph_query::harness::experiments::{fig12, table6, yago_suite, ExperimentConfig};
use schema_graph_query::harness::replay::Catalog;
use schema_graph_query::harness::Backend;
use schema_graph_query::prelude::RedundancyRule;

fn main() {
    let mut cfg = ExperimentConfig {
        timeout_ms: 5_000,
        ldbc_sfs: vec![],
        yago_scale: 1.0,
        repeats: 3,
        backend: Backend::Relational,
        ..ExperimentConfig::default()
    };
    // Example 13's redundancy rule keeps the rewritten queries lean, which
    // is the better trade on the in-memory relational backend.
    cfg.rewrite.redundancy = RedundancyRule::EitherSide;

    let Catalog { schema, db, .. } = Catalog::yago(cfg.yago_scale);
    println!(
        "Synthetic YAGO: {} nodes, {} edges, {} node labels, {} edge labels\n",
        db.node_count(),
        db.edge_count(),
        schema.node_count(),
        schema.edge_label_count()
    );

    println!("{}", table6(&cfg));

    println!("Running the 18 recursive queries (relational backend)...\n");
    let records = yago_suite(&cfg);
    println!("{}", fig12(&records, cfg.timeout_ms));
}
