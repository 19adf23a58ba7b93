//! Fig. 13 / Tab. 5 bench: LDBC runtimes across scale factors, baseline
//! vs schema-rewritten.

use sgq_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgq_harness::replay::Catalog;
use sgq_harness::runner::{run_query, Approach, Backend, RunConfig};

fn bench(c: &mut Criterion) {
    let config = RunConfig {
        timeout_ms: 10_000,
        repetitions: 1,
        ..Default::default()
    };
    let mut group = c.benchmark_group("fig13_ldbc_scale");
    group.sample_size(10);
    for sf in [0.1, 0.3] {
        let cat = Catalog::ldbc(sf);
        for q in cat
            .queries
            .iter()
            .filter(|q| matches!(q.name, "IC11" | "IS2" | "Y1" | "Y6" | "BI9"))
        {
            for (approach, tag) in [(Approach::Baseline, "B"), (Approach::Schema, "S")] {
                group.bench_with_input(
                    BenchmarkId::new(format!("sf{sf}_{}", q.name), tag),
                    &approach,
                    |b, &approach| {
                        b.iter(|| run_query(&cat, &q.expr, approach, Backend::Graph, &config))
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
