//! Micro-benchmarks of the zero-copy storage layer and the join
//! strategy triangle: CSR index joins vs hash vs merge, across probe
//! selectivities, plus the closure fixpoint with and without the
//! adjacency indexes.
//!
//! * `scan/*` pins the zero-copy storage layer: handing out a base
//!   table is an O(1) shared handle (`edge_table`), against full plan
//!   execution of a bare scan.
//! * `join/*` plans the same logical join `probe(w,y) ⋈ knows(y,z)`
//!   with the indexes on (→ `IndexJoin`) and ablated (→ `HashJoin`),
//!   for probe sides of decreasing selectivity (hasModerator ≪ workAt ≪
//!   likes), plus the aligned self-join where the ablated planner picks
//!   a merge join. The index plan must win on the selective probes —
//!   that is the acceptance gate this bench exists to measure.

use sgq_bench::{criterion_group, criterion_main, Criterion};
use sgq_datasets::ldbc::{self, LdbcConfig};
use sgq_ra::exec::{execute_plan, ExecContext};
use sgq_ra::term::{closure_fixpoint, RaTerm};
use sgq_ra::{plan, PhysOp, RelStore, TaskScheduler};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let (schema, db) = ldbc::generate(LdbcConfig::at_scale(0.3));
    let mut store = RelStore::load(&db);
    let knows = schema.edge_label("knows").unwrap();
    let is_part_of = schema.edge_label("isPartOf").unwrap();
    let s = &store.symbols;
    let (w, x, y, z, m) = (s.col("w"), s.col("x"), s.col("y"), s.col("z"), s.col("m"));
    let scan = |label, src, tgt| RaTerm::EdgeScan { label, src, tgt };

    let mut group = c.benchmark_group("scan_join_strategies");

    // --- Scans: the shared handle vs executing a bare scan plan. ---
    println!("knows table: {} rows", store.edge_table(knows).len());
    group.bench_function("scan/zero_copy_handle", |b| {
        b.iter(|| store.edge_table(knows))
    });
    let scan_plan = plan(&scan(knows, x, y), &store).unwrap();
    group.bench_function("scan/execute_plan", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            execute_plan(&scan_plan, &store, &mut ctx).unwrap()
        })
    });

    // --- Index vs hash join across probe selectivities. ---
    // Each probe label targets persons, so `probe(w,y) ⋈ knows(y,z)`
    // expands person neighbourhoods; probe sizes span ~2 orders of
    // magnitude at SF 0.3.
    for probe_label in ["hasModerator", "workAt", "likes"] {
        let le = schema.edge_label(probe_label).unwrap();
        let t = RaTerm::join(scan(le, w, y), scan(knows, y, z));
        store.index_joins = true;
        let p_index = plan(&t, &store).unwrap();
        store.index_joins = false;
        let p_scan = plan(&t, &store).unwrap();
        store.index_joins = true;
        let indexed = p_index.contains_op(&|op| matches!(op, PhysOp::IndexJoin { .. }));
        println!(
            "join probe {probe_label}: {} rows, index plan uses IndexJoin = {indexed}",
            store.edge_table(le).len()
        );
        group.bench_function(format!("join/index/{probe_label}"), |b| {
            b.iter(|| {
                let mut ctx = ExecContext::new();
                execute_plan(&p_index, &store, &mut ctx).unwrap()
            })
        });
        group.bench_function(format!("join/hash/{probe_label}"), |b| {
            assert!(p_scan.contains_op(&|op| matches!(op, PhysOp::HashJoin { .. })));
            b.iter(|| {
                let mut ctx = ExecContext::new();
                execute_plan(&p_scan, &store, &mut ctx).unwrap()
            })
        });
    }

    // --- Morsel-driven parallelism: DOP sweep over the largest probe.
    //     Results are asserted identical to serial before timing; the
    //     printed speedups are the intra-query scaling figure (expect
    //     >= 1.5x at DOP 4 on a multi-core host for these probes). ---
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("hardware threads: {hw}");
    let likes = schema.edge_label("likes").unwrap();
    let big = RaTerm::join(scan(likes, w, y), scan(knows, y, z));
    store.index_joins = true;
    let p_par_index = plan(&big, &store).unwrap();
    store.index_joins = false;
    let p_par_hash = plan(&big, &store).unwrap();
    store.index_joins = true;
    // One scheduler wide enough for the sweep, lent to every context
    // (the per-run `dop` caps the morsels in flight), so the timed runs
    // never spawn threads.
    let scheduler = Arc::new(TaskScheduler::new(8));
    for (name, p) in [("index", &p_par_index), ("hash", &p_par_hash)] {
        let run = |dop: usize| {
            let mut ctx = ExecContext::new();
            ctx.dop = dop;
            ctx.set_scheduler(Arc::clone(&scheduler));
            // The sweep measures scaling, not the admission gate: force
            // parallel sections even if this scale sits near the default
            // 16K-row threshold.
            ctx.parallel_threshold = 1024;
            execute_plan(p, &store, &mut ctx).unwrap()
        };
        let serial = run(1);
        let mut base_s = 0.0;
        for dop in [1usize, 2, 4, 8] {
            assert_eq!(serial, run(dop), "DOP={dop} diverged on {name}/likes");
            let reps = 5;
            let start = std::time::Instant::now();
            for _ in 0..reps {
                std::hint::black_box(run(dop));
            }
            let per_run = start.elapsed().as_secs_f64() / reps as f64;
            if dop == 1 {
                base_s = per_run;
            }
            println!(
                "parallel/{name}/likes dop={dop}: {:.2} ms/run, speedup {:.2}x",
                per_run * 1e3,
                base_s / per_run
            );
            group.bench_function(format!("parallel/{name}/likes/dop{dop}"), |b| {
                b.iter(|| run(dop))
            });
        }
    }

    // --- Physical storage layouts: the same label-filtered scan under
    //     the per-label (fused hash filter), polymorphic (masked pass)
    //     and denormalised (precomputed slice) stores. `likes` spans two
    //     endpoint triples (Person→Post, Person→Comment), so the slice
    //     hands out only the Post half without touching node tables —
    //     it must plan strictly cheaper than the fused filter. ---
    let post = db.node_label_id("Post").unwrap();
    let likes_to_posts = RaTerm::semijoin(
        scan(likes, w, y),
        RaTerm::NodeScan {
            labels: vec![post],
            col: y,
        },
    );
    let mut layout_reference: Option<sgq_ra::Relation> = None;
    let mut layout_costs = Vec::new();
    for kind in sgq_ra::LayoutKind::ALL {
        let lstore = RelStore::load_with_layout(&db, kind);
        let p = plan(&likes_to_posts, &lstore).unwrap();
        println!(
            "layout {kind}: likes[Post] root op {} (cost {:.0})",
            p.op.kind(),
            p.est.cost
        );
        layout_costs.push(p.est.cost);
        let mut ctx = ExecContext::new();
        let out = execute_plan(&p, &lstore, &mut ctx).unwrap();
        match &layout_reference {
            Some(r) => assert_eq!(r, &out, "layout {kind} diverged on likes[Post]"),
            None => layout_reference = Some(out),
        }
        group.bench_function(format!("layout/{kind}/likes_to_posts"), |b| {
            b.iter(|| {
                let mut ctx = ExecContext::new();
                execute_plan(&p, &lstore, &mut ctx).unwrap()
            })
        });
    }
    assert!(
        layout_costs[2] < layout_costs[0],
        "the denormalised slice must plan cheaper than the fused filter: {layout_costs:?}"
    );

    // --- Aligned self-join: merge (ablated) vs whatever the cost model
    //     picks with the indexes on. ---
    let aligned = RaTerm::join(scan(knows, x, y), scan(knows, x, z));
    store.index_joins = false;
    let p_merge = plan(&aligned, &store).unwrap();
    assert!(matches!(p_merge.op, PhysOp::MergeJoin { .. }));
    store.index_joins = true;
    let p_default = plan(&aligned, &store).unwrap();
    group.bench_function("join/merge_ablated/knows_self", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            execute_plan(&p_merge, &store, &mut ctx).unwrap()
        })
    });
    group.bench_function("join/default/knows_self", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            execute_plan(&p_default, &store, &mut ctx).unwrap()
        })
    });

    // --- The closure fixpoint: CSR probes vs cached hash builds. ---
    let closure = closure_fixpoint(s.recvar("X"), scan(is_part_of, x, y), x, y, m);
    let p_index = plan(&closure, &store).unwrap();
    assert!(p_index.contains_op(&|op| matches!(op, PhysOp::IndexJoin { .. })));
    store.index_joins = false;
    let p_hash = plan(&closure, &store).unwrap();
    store.index_joins = true;
    group.bench_function("fixpoint/isPartOf_closure_index", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            execute_plan(&p_index, &store, &mut ctx).unwrap()
        })
    });
    group.bench_function("fixpoint/isPartOf_closure_hash_cached", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            execute_plan(&p_hash, &store, &mut ctx).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
