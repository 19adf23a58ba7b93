//! Multi-threaded serving throughput: worker sweep × plan-cache ablation.
//!
//! Closed loop over the LDBC smoke workload (SF 0.1 catalog, 8 client
//! threads, each keeping one query in flight — the shared
//! `sgq_harness::replay::run_clients` driver): for 1/2/4/8 workers
//! and cached vs uncached plans, times one full client pass and prints a
//! QPS summary with the 1 → 4 worker scaling factor. On a single-CPU
//! host the pool time-slices one core, so QPS stays flat while p50
//! drops; the scaling factor materialises with ≥ 4 hardware threads.

use std::sync::Arc;
use std::time::Instant;

use sgq_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgq_harness::replay::{run_clients, Catalog};
use sgq_service::{QueryOptions, Service, ServiceConfig};

const CLIENTS: usize = 8;

fn service_throughput(c: &mut Criterion) {
    let cat = Catalog::ldbc(0.1);
    let (schema, db) = (&cat.schema, &cat.db);
    // One relational load (the served, advised layout) shared by every
    // service in the sweep.
    let store = cat.store(None);
    let queries: Vec<_> = cat.queries.iter().map(|q| &q.expr).collect();
    let texts: Vec<&str> = cat.queries.iter().map(|q| q.text).collect();
    let unchecked = |_: usize, _: &sgq_common::Result<sgq_service::QueryResponse>| {};

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(3);
    let mut qps_table: Vec<(usize, bool, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        for cached in [false, true] {
            let service = Service::with_store(
                Arc::clone(schema),
                Arc::clone(db),
                Arc::clone(&store),
                ServiceConfig {
                    workers,
                    queue_capacity: CLIENTS * 2,
                    ..Default::default()
                },
            );
            let opts = QueryOptions {
                use_cache: cached,
                ..Default::default()
            };
            if cached {
                // Warm the plan cache so the ablation measures execution.
                let session = service.session();
                for q in &texts {
                    session.prepare(q, &opts).expect("warmup prepares");
                }
            }
            group.bench_with_input(
                BenchmarkId::new(
                    format!("workers/{workers}"),
                    if cached { "cached" } else { "uncached" },
                ),
                &(),
                |b, ()| b.iter(|| run_clients(&service, &queries, CLIENTS, 1, &opts, unchecked)),
            );
            // One dedicated pass for the QPS summary.
            let start = Instant::now();
            let (completed, _busy) = run_clients(&service, &queries, CLIENTS, 1, &opts, unchecked);
            assert_eq!(service.metrics().errors, 0, "bench queries must succeed");
            qps_table.push((
                workers,
                cached,
                completed as f64 / start.elapsed().as_secs_f64(),
            ));
            service.shutdown();
        }
    }
    // --- Intra-query DOP sweep: a fixed 2-worker pool, each query
    //     fanning its morsels across the shared exec scheduler via
    //     `QueryOptions::dop`. The threshold is lowered so the smoke
    //     catalog's probes actually parallelise at SF 0.1. ---
    let mut dop_table: Vec<(usize, f64)> = Vec::new();
    for dop in [1usize, 2, 4, 8] {
        let service = Service::with_store(
            Arc::clone(schema),
            Arc::clone(db),
            Arc::clone(&store),
            ServiceConfig {
                workers: 2,
                queue_capacity: CLIENTS * 2,
                max_dop: 8,
                parallel_row_threshold: 1024,
                ..Default::default()
            },
        );
        let opts = QueryOptions {
            dop: Some(dop),
            ..Default::default()
        };
        let session = service.session();
        for q in &texts {
            session.prepare(q, &opts).expect("warmup prepares");
        }
        group.bench_with_input(BenchmarkId::new("dop", dop), &(), |b, ()| {
            b.iter(|| run_clients(&service, &queries, CLIENTS, 1, &opts, unchecked))
        });
        let start = Instant::now();
        let (completed, _busy) = run_clients(&service, &queries, CLIENTS, 1, &opts, unchecked);
        let m = service.metrics();
        assert_eq!(m.errors, 0, "bench queries must succeed");
        dop_table.push((dop, completed as f64 / start.elapsed().as_secs_f64()));
        if dop > 1 {
            println!(
                "  dop={dop}: {} of {} queries ran parallel sections ({} morsels)",
                m.parallel_queries, m.completed, m.morsels_executed
            );
        }
        service.shutdown();
    }
    group.finish();

    println!("\nservice_throughput summary ({CLIENTS} clients, LDBC SF0.1 catalog):");
    for &(workers, cached, qps) in &qps_table {
        println!(
            "  {workers} workers, cache {}: {qps:.1} qps",
            if cached { "on " } else { "off" }
        );
    }
    let qps_of = |w: usize, cached: bool| {
        qps_table
            .iter()
            .find(|&&(wk, c, _)| wk == w && c == cached)
            .map(|&(_, _, q)| q)
            .unwrap_or(0.0)
    };
    println!(
        "  scaling 1 -> 4 workers: {:.2}x cached, {:.2}x uncached ({} hardware threads)",
        qps_of(4, true) / qps_of(1, true).max(1e-9),
        qps_of(4, false) / qps_of(1, false).max(1e-9),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let dop1 = dop_table.first().map_or(0.0, |&(_, q)| q).max(1e-9);
    for &(dop, qps) in &dop_table {
        println!(
            "  intra-query dop={dop} (2 workers): {qps:.1} qps, speedup {:.2}x",
            qps / dop1
        );
    }
}

criterion_group!(benches, service_throughput);
criterion_main!(benches);
