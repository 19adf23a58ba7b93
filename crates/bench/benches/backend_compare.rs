//! Fig. 14 bench: the same chain-shaped queries on the graph backend
//! (Neo4j stand-in) and the relational backend (PostgreSQL stand-in).

use sgq_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgq_harness::replay::Catalog;
use sgq_harness::runner::{run_query, Approach, Backend, RunConfig};

fn bench(c: &mut Criterion) {
    let cat = Catalog::ldbc(0.3);
    let config = RunConfig {
        timeout_ms: 10_000,
        repetitions: 1,
        ..Default::default()
    };
    let mut group = c.benchmark_group("fig14_backends");
    group.sample_size(10);
    for q in cat.queries.iter().filter(|q| {
        sgq_translate::cypher_expressible(&q.ucqt())
            && matches!(q.name, "IC2" | "IC11" | "IS2" | "BI9")
    }) {
        for (backend, tag) in [(Backend::Graph, "G"), (Backend::Relational, "P")] {
            for (approach, atag) in [(Approach::Baseline, "B"), (Approach::Schema, "S")] {
                group.bench_with_input(
                    BenchmarkId::new(q.name, format!("{tag}{atag}")),
                    &(backend, approach),
                    |b, &(backend, approach)| {
                        b.iter(|| run_query(&cat, &q.expr, approach, backend, &config))
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
