//! Fig. 12 bench: per-query YAGO runtimes, baseline vs schema-rewritten,
//! on the relational backend.

use sgq_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgq_harness::replay::Catalog;
use sgq_harness::runner::{run_query, Approach, Backend, RunConfig};

fn bench(c: &mut Criterion) {
    let cat = Catalog::yago(0.1);
    let config = RunConfig {
        timeout_ms: 30_000,
        repetitions: 1,
        ..Default::default()
    };
    let mut group = c.benchmark_group("fig12_yago");
    group.sample_size(10);
    // A representative subset (the harness binary runs all 18).
    for q in cat
        .queries
        .iter()
        .filter(|q| matches!(q.name, "Y1" | "Y2" | "Y6" | "Y7" | "Y12" | "Y16"))
    {
        for (approach, tag) in [
            (Approach::Baseline, "baseline"),
            (Approach::Schema, "schema"),
        ] {
            group.bench_with_input(BenchmarkId::new(q.name, tag), &approach, |b, &approach| {
                b.iter(|| run_query(&cat, &q.expr, approach, Backend::Relational, &config))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
