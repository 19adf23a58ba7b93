//! Social-network workload: generates LDBC-SNB-like graphs at increasing
//! scale factors and reproduces the feasibility behaviour of Tab. 5 —
//! recursive queries that time out under the baseline become feasible
//! under the schema-based rewrite.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use schema_graph_query::harness::experiments::{
    fig13, ldbc_suite, table5, table7, table8, ExperimentConfig,
};
use schema_graph_query::harness::Backend;

fn main() {
    let cfg = ExperimentConfig {
        timeout_ms: 1_000,
        ldbc_sfs: vec![0.1, 0.3, 1.0],
        yago_scale: 1.0,
        repeats: 2,
        backend: Backend::Graph,
        ..ExperimentConfig::default()
    };
    println!(
        "Running the 30 Tab. 4 queries on LDBC scale factors {:?} (graph backend, {} ms timeout)...\n",
        cfg.ldbc_sfs, cfg.timeout_ms
    );
    let records = ldbc_suite(&cfg);

    println!("{}", table5(&records, &cfg));
    println!("{}", table7(&records, cfg.timeout_ms));
    println!("{}", table8(&records, cfg.timeout_ms));
    println!("{}", fig13(&records, &cfg));

    // Highlight the headline effect: queries infeasible under the
    // baseline but feasible under the schema approach.
    let mut rescued: Vec<String> = Vec::new();
    for r in &records {
        if r.approach == "S" && r.feasible() {
            let baseline_failed = records.iter().any(|b| {
                b.query == r.query
                    && b.scale_factor == r.scale_factor
                    && b.approach == "B"
                    && !b.feasible()
            });
            if baseline_failed {
                rescued.push(format!("{} @ SF{}", r.query, r.scale_factor.unwrap_or(0.0)));
            }
        }
    }
    println!(
        "Queries turned from infeasible to feasible by the rewrite: {}",
        if rescued.is_empty() {
            "none at these scale factors".to_string()
        } else {
            rescued.join(", ")
        }
    );
}
