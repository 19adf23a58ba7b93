//! Ablation bench: which part of the rewrite buys the speedup?
//! Full pipeline vs no-TC-elimination vs no-annotations vs no-simplify,
//! on recursive YAGO queries (relational backend).

use sgq_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgq_core::pipeline::RewriteOptions;
use sgq_core::RedundancyRule;
use sgq_harness::replay::Catalog;
use sgq_harness::runner::{run_query, Approach, Backend, RunConfig};

fn bench(c: &mut Criterion) {
    let cat = Catalog::yago(0.1);
    let variants: [(&str, RewriteOptions); 5] = [
        ("full", RewriteOptions::default()),
        (
            "no-tc-elimination",
            RewriteOptions {
                tc_elimination: false,
                ..Default::default()
            },
        ),
        (
            "no-annotations",
            RewriteOptions {
                annotations: false,
                ..Default::default()
            },
        ),
        (
            "no-redundancy-removal",
            RewriteOptions {
                redundancy: RedundancyRule::Never,
                ..Default::default()
            },
        ),
        (
            "no-simplify",
            RewriteOptions {
                simplify: false,
                ..Default::default()
            },
        ),
    ];
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    for q in cat.queries.iter().filter(|q| matches!(q.name, "Y1" | "Y6")) {
        for (tag, rewrite) in variants {
            let config = RunConfig {
                timeout_ms: 30_000,
                repetitions: 1,
                rewrite,
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new(q.name, tag), &config, |b, config| {
                b.iter(|| run_query(&cat, &q.expr, Approach::Schema, Backend::Relational, config))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
