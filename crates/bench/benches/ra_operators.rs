//! Micro-benchmarks of the relational substrate: hash and merge joins,
//! semi-joins and the semi-naive transitive-closure fixpoint with and
//! without static build-side caching.
//!
//! All terms are built from interned [`sgq_common::ColId`]s resolved
//! through the store's symbol table, so the joins here key on single
//! `u32`s (the arity-2 fast path) — the configuration the optimiser
//! produces for every path query. Execution goes through the physical
//! plan layer; the plans are pre-lowered outside the timed loop, as the
//! harness does.

use sgq_bench::{criterion_group, criterion_main, Criterion};
use sgq_datasets::ldbc::{self, LdbcConfig};
use sgq_ra::exec::{execute_plan, ExecContext};
use sgq_ra::term::{closure_fixpoint, RaTerm};
use sgq_ra::{plan, RelStore, TaskScheduler};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let (schema, db) = ldbc::generate(LdbcConfig::at_scale(0.3));
    let mut store = RelStore::load(&db);
    // This bench measures the scan-based operators (hash/merge joins and
    // cached fixpoint builds); CSR index joins are ablated here and
    // measured in `scan_join_strategies`.
    store.index_joins = false;
    let knows = schema.edge_label("knows").unwrap();
    let is_located_in = schema.edge_label("isLocatedIn").unwrap();
    let is_part_of = schema.edge_label("isPartOf").unwrap();
    let city = schema.node_label("City").unwrap();
    let s = &store.symbols;
    let (x, y, z, m) = (s.col("x"), s.col("y"), s.col("z"), s.col("m"));

    let scan = |label, src, tgt| RaTerm::EdgeScan { label, src, tgt };

    let mut group = c.benchmark_group("ra_operators");
    group.bench_function("hash_join_knows_isLocatedIn", |b| {
        let t = RaTerm::join(scan(knows, x, y), scan(is_located_in, y, z));
        let p = plan(&t, &store).unwrap();
        b.iter(|| {
            let mut ctx = ExecContext::new();
            execute_plan(&p, &store, &mut ctx).unwrap()
        })
    });
    group.bench_function("merge_join_knows_isLocatedIn", |b| {
        // Shared column x leads both schemas: the planner picks a merge
        // join over the same data volume as the hash variant above.
        let t = RaTerm::join(scan(knows, x, y), scan(is_located_in, x, z));
        let p = plan(&t, &store).unwrap();
        assert!(matches!(p.op, sgq_ra::PhysOp::MergeJoin { .. }));
        b.iter(|| {
            let mut ctx = ExecContext::new();
            execute_plan(&p, &store, &mut ctx).unwrap()
        })
    });
    group.bench_function("semijoin_isLocatedIn_city", |b| {
        let t = RaTerm::semijoin(
            scan(is_located_in, x, y),
            RaTerm::NodeScan {
                labels: vec![city],
                col: y,
            },
        );
        let p = plan(&t, &store).unwrap();
        b.iter(|| {
            let mut ctx = ExecContext::new();
            execute_plan(&p, &store, &mut ctx).unwrap()
        })
    });
    group.bench_function("fixpoint_isPartOf_closure", |b| {
        let t = closure_fixpoint(s.recvar("X"), scan(is_part_of, x, y), x, y, m);
        let p = plan(&t, &store).unwrap();
        b.iter(|| {
            let mut ctx = ExecContext::new();
            execute_plan(&p, &store, &mut ctx).unwrap()
        })
    });
    group.bench_function("parallel_fixpoint_isPartOf_closure", |b| {
        // The same closure with each round's delta probe split into
        // morsels against the cached static build side (DOP 4; the
        // threshold is lowered so every round parallelises even as the
        // delta shrinks).
        let t = closure_fixpoint(s.recvar("X"), scan(is_part_of, x, y), x, y, m);
        let p = plan(&t, &store).unwrap();
        // Lent, so the timed loop never spawns threads.
        let scheduler = Arc::new(TaskScheduler::new(4));
        b.iter(|| {
            let mut ctx = ExecContext::new();
            ctx.dop = 4;
            ctx.parallel_threshold = 1024;
            ctx.set_scheduler(Arc::clone(&scheduler));
            execute_plan(&p, &store, &mut ctx).unwrap()
        })
    });
    group.bench_function("fixpoint_isPartOf_closure_uncached", |b| {
        // Same plan with static build-side caching disabled: every round
        // rebuilds the isPartOf hash table.
        let t = closure_fixpoint(s.recvar("X"), scan(is_part_of, x, y), x, y, m);
        let p = plan(&t, &store).unwrap();
        b.iter(|| {
            let mut ctx = ExecContext::new();
            ctx.no_fixpoint_cache = true;
            execute_plan(&p, &store, &mut ctx).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
