//! Metric names, units and directions, and how each value is computed
//! from what the workloads measured. `BENCHMARK.json` lists the same
//! names (a unit test holds the two together); the glossary is in
//! `README.md`.

use std::collections::BTreeMap;

use crate::layers::{Approach, OP_KINDS};
use crate::stats::{geomean, median, percentile, window_mean};
use crate::workloads::{Counts, Mode, Pass, SetupLayers, Stmt};

/// `(name, unit, better)`.
pub type Def = (String, &'static str, &'static str);

/// One measured value.
pub type Value = (String, f64, &'static str);

pub fn end_to_end_defs() -> Vec<Def> {
    [
        ("setup_s", "s", "lower"),
        ("round_p50_s", "s", "lower"),
        ("throughput_qps", "1/s", "higher"),
        ("op_p50_ms", "ms", "lower"),
        ("op_p95_ms", "ms", "lower"),
        ("schema_speedup_geomean", "ratio", "higher"),
        ("schema_total_ratio", "ratio", "higher"),
        ("peak_rss_mb", "MiB", "lower"),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect()
}

pub fn per_layer_defs() -> Vec<Def> {
    let mut defs: Vec<Def> = [
        ("datasets.generate_ms", "ms", "lower"),
        ("graph.nodes", "count", "lower"),
        ("graph.edges", "count", "lower"),
        ("ra.storage.load_ms", "ms", "lower"),
        ("algebra.parse_us", "us", "lower"),
        ("core.rewrite_us", "us", "lower"),
        ("translate.ucqt2rra_us", "us", "lower"),
        ("ra.optimize_us", "us", "lower"),
        ("ra.plan_us", "us", "lower"),
        ("ra.plan.nodes", "count", "lower"),
        ("core.closures_eliminated", "count", "higher"),
        ("core.reverted", "count", "lower"),
        ("core.empty", "count", "higher"),
        ("core.disjuncts_out", "count", "lower"),
        ("core.atoms_out", "count", "lower"),
        ("ra.exec_us", "us", "lower"),
        ("ra.exec.rows_materialized", "count", "lower"),
        ("ra.exec.hash_builds", "count", "lower"),
        ("ra.exec.fixpoint_rounds", "count", "lower"),
        ("ra.exec.fixpoint_cache_hits", "count", "higher"),
        ("ra.exec.scans", "count", "lower"),
        ("ra.exec.replans", "count", "lower"),
        ("ra.plan.root_qerror_p50", "ratio", "lower"),
        ("ra.parallel.morsels_executed", "count", "higher"),
        ("ra.parallel.speedup", "ratio", "higher"),
        ("engine.run_us", "us", "lower"),
        ("engine.pairs_materialized", "count", "lower"),
        ("engine.tc_rounds", "count", "lower"),
        ("engine.result_rows", "count", "lower"),
        ("service.queue_us_p50", "us", "lower"),
        ("service.prepare_us_p50", "us", "lower"),
        ("service.exec_us_p50", "us", "lower"),
        ("service.overhead_us_p50", "us", "lower"),
        ("service.cache.hit_share", "fraction", "higher"),
        ("service.cache.evictions", "count", "lower"),
        ("service.cache.invalidations", "count", "lower"),
        ("service.rejected", "count", "lower"),
        ("service.feedback_replans", "count", "lower"),
        ("service.op_p99_ms", "ms", "lower"),
        ("obs.exec_trace_overhead_share", "fraction", "lower"),
        ("obs.service_trace_overhead_share", "fraction", "lower"),
        ("bench.trace_overhead_share", "fraction", "lower"),
        ("bench.layer_coverage_share", "fraction", "higher"),
        ("bench.failed_share", "fraction", "lower"),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect();
    for kind in OP_KINDS {
        defs.push((format!("ra.exec.op.{kind}.self_us"), "us", "lower"));
        defs.push((format!("ra.exec.op.{kind}.rows"), "count", "lower"));
    }
    defs
}

/// Median op latency (ms) per statement; `None` where it never ran.
pub fn stmt_medians(pass: &Pass, stmts: usize) -> Vec<Option<f64>> {
    let mut by_stmt: Vec<Vec<f64>> = vec![Vec::new(); stmts];
    for &(i, ms) in &pass.samples {
        by_stmt[i as usize].push(ms);
    }
    by_stmt
        .iter()
        .map(|v| (!v.is_empty()).then(|| median(v)))
        .collect()
}

/// `(baseline ms, schema ms)` of every catalog query both approaches ran.
fn approach_pairs(stmts: &[Stmt], medians: &[Option<f64>]) -> Vec<(f64, f64)> {
    let mut by_query: BTreeMap<(usize, usize), [Option<f64>; 2]> = BTreeMap::new();
    for (stmt, &ms) in stmts.iter().zip(medians) {
        let slot = match stmt.approach {
            Approach::Baseline => 0,
            Approach::Schema => 1,
        };
        by_query.entry((stmt.ds, stmt.query)).or_default()[slot] = ms;
    }
    by_query
        .values()
        .filter_map(|pair| Some((pair[0]?, pair[1]?)))
        .collect()
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn end_to_end(pass: &Pass, stmts: &[Stmt], setup_s: f64) -> Vec<Value> {
    let lat: Vec<f64> = pass.samples.iter().map(|&(_, ms)| ms).collect();
    let pairs = approach_pairs(stmts, &stmt_medians(pass, stmts.len()));
    let ratios: Vec<f64> = pairs.iter().map(|&(b, s)| b / s).collect();
    let (total_b, total_s) = pairs
        .iter()
        .fold((0.0, 0.0), |(b, s), p| (b + p.0, s + p.1));
    let values = [
        setup_s,
        median(&pass.rounds_s),
        pass.samples.len() as f64 / pass.wall_s,
        window_mean(&lat, 50.0, 5.0),
        window_mean(&lat, 95.0, 2.5),
        geomean(&ratios),
        if total_s > 0.0 {
            total_b / total_s
        } else {
            1.0
        },
        peak_rss_mb(),
    ];
    end_to_end_defs()
        .into_iter()
        .zip(values)
        .map(|((name, unit, _), v)| (name, v, unit))
        .collect()
}

/// Per-layer values of a traced run. `passes` holds what was measured
/// under each mode the workload cycled through.
pub fn per_layer(passes: &[(Mode, Pass)], setup: SetupLayers) -> Vec<Value> {
    let pass = |mode: Mode| passes.iter().find(|(m, _)| *m == mode).map(|(_, p)| p);
    let plain = pass(Mode::PLAIN).expect("a traced run has a plain pass");
    let spans = pass(Mode::SPANS).expect("a traced run has a spans pass");
    let program = pass(Mode::PROGRAM_TRACE);
    let serial = pass(Mode::SERIAL);
    let is_service = spans.service.replies > 0;

    let self_us = |name: &str| {
        let per_round: Vec<f64> = spans
            .traces
            .iter()
            .map(|t| t.self_us.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&per_round)
    };
    let count_in = |p: &Pass, f: &dyn Fn(&Counts) -> u64| {
        median(&p.counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let count = |f: &dyn Fn(&Counts) -> u64| count_in(spans, f);
    // Cost of a mode relative to another, from their median round times.
    let overhead = |with: Option<&Pass>, without: &Pass| match with {
        Some(p) if !p.rounds_s.is_empty() && !without.rounds_s.is_empty() => {
            median(&p.rounds_s) / median(&without.rounds_s) - 1.0
        }
        _ => 0.0,
    };
    let s = &spans.service;
    let attempted: u64 = passes.iter().map(|(_, p)| p.attempted).sum();
    let failed: u64 = passes.iter().map(|(_, p)| p.failed).sum();
    let plain_lat: Vec<f64> = plain.samples.iter().map(|&(_, ms)| ms).collect();

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    set("datasets.generate_ms", setup.generate_ms);
    set("graph.nodes", setup.nodes as f64);
    set("graph.edges", setup.edges as f64);
    set("ra.storage.load_ms", setup.load_ms);
    set("algebra.parse_us", self_us("algebra.parse"));
    set("core.rewrite_us", self_us("core.rewrite"));
    set("translate.ucqt2rra_us", self_us("translate.ucqt2rra"));
    set("ra.optimize_us", self_us("ra.optimize"));
    set("ra.plan_us", self_us("ra.plan"));
    set("ra.plan.nodes", count(&|c| c.plan_nodes));
    set(
        "core.closures_eliminated",
        count(&|c| c.rewrite.closures_eliminated),
    );
    set("core.reverted", count(&|c| c.rewrite.reverted));
    set("core.empty", count(&|c| c.rewrite.empty));
    set("core.disjuncts_out", count(&|c| c.rewrite.disjuncts_out));
    set("core.atoms_out", count(&|c| c.rewrite.atoms_out));
    set("ra.exec_us", self_us("ra.exec"));
    set(
        "ra.exec.rows_materialized",
        count(&|c| c.exec.rows_materialized),
    );
    set("ra.exec.hash_builds", count(&|c| c.exec.hash_builds));
    set(
        "ra.exec.fixpoint_rounds",
        count(&|c| c.exec.fixpoint_rounds),
    );
    set(
        "ra.exec.fixpoint_cache_hits",
        count(&|c| c.exec.fixpoint_cache_hits),
    );
    set("ra.exec.scans", count(&|c| c.exec.scans));
    set("ra.exec.replans", count(&|c| c.exec.replans));
    set(
        "ra.plan.root_qerror_p50",
        spans.counts.last().map_or(0.0, |c| median(&c.root_qerrors)),
    );
    set(
        "ra.parallel.morsels_executed",
        count(&|c| c.exec.morsels_executed),
    );
    set(
        "ra.parallel.speedup",
        serial.map_or(0.0, |p| overhead(Some(p), plain) + 1.0),
    );
    set("engine.run_us", self_us("engine.run"));
    set("engine.pairs_materialized", count(&|c| c.engine_pairs));
    set("engine.tc_rounds", count(&|c| c.engine_tc_rounds));
    set("engine.result_rows", count(&|c| c.engine_rows));
    set("service.queue_us_p50", median(&s.queue_us));
    set("service.prepare_us_p50", median(&s.prepare_us));
    set("service.exec_us_p50", median(&s.exec_us));
    set("service.overhead_us_p50", median(&s.overhead_us));
    set(
        "service.cache.hit_share",
        if is_service {
            s.cache_hits as f64 / s.replies as f64
        } else {
            0.0
        },
    );
    set("service.cache.evictions", s.evictions as f64);
    set("service.cache.invalidations", s.invalidations as f64);
    set("service.rejected", s.rejected as f64);
    set("service.feedback_replans", s.feedback_replans as f64);
    set(
        "service.op_p99_ms",
        if is_service {
            percentile(&plain_lat, 99)
        } else {
            0.0
        },
    );
    let program_overhead = overhead(program, spans);
    set(
        "obs.exec_trace_overhead_share",
        if is_service { 0.0 } else { program_overhead },
    );
    set(
        "obs.service_trace_overhead_share",
        if is_service { program_overhead } else { 0.0 },
    );
    set("bench.trace_overhead_share", overhead(Some(spans), plain));
    set(
        "bench.layer_coverage_share",
        median(
            &spans
                .traces
                .iter()
                .map(|t| t.layer_coverage)
                .collect::<Vec<_>>(),
        ),
    );
    set(
        "bench.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );
    for (k, kind) in OP_KINDS.iter().enumerate() {
        let of = |f: &dyn Fn(&Counts) -> u64| program.map_or(0.0, |p| count_in(p, f));
        set(
            &format!("ra.exec.op.{kind}.self_us"),
            of(&|c| c.op_kind_self_us[k]),
        );
        set(
            &format!("ra.exec.op.{kind}.rows"),
            of(&|c| c.op_kind_rows[k]),
        );
    }
    per_layer_defs()
        .into_iter()
        .map(|(name, unit, _)| {
            let v = values[&name];
            (name, v, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{parse_json, JsonValue};

    fn declared(manifest: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        manifest
            .get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |defs: Vec<Def>| -> Vec<(String, String, String)> {
            defs.into_iter()
                .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(declared(&manifest, "end_to_end"), own(end_to_end_defs()));
        assert_eq!(declared(&manifest, "per_layer"), own(per_layer_defs()));
        assert!(per_layer_defs().len() <= 128);
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let own: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn schema_ratios_pair_baseline_with_schema_per_query() {
        let stmt = |query, approach| Stmt {
            ds: 0,
            dataset: "d".into(),
            query,
            name: "q",
            text: "",
            approach,
        };
        let stmts = [
            stmt(0, Approach::Baseline),
            stmt(0, Approach::Schema),
            stmt(1, Approach::Baseline),
            stmt(1, Approach::Schema),
            stmt(2, Approach::Baseline), // schema side never ran: skipped
        ];
        let pass = Pass {
            samples: vec![(0, 8.0), (1, 2.0), (2, 1.0), (3, 4.0), (4, 5.0)],
            rounds_s: vec![1.0],
            wall_s: 2.0,
            ..Default::default()
        };
        let values = end_to_end(&pass, &stmts, 0.5);
        let get = |name: &str| values.iter().find(|v| v.0 == name).unwrap().1;
        // Ratios 4 and 1/4: geomean 1; totals 9 / 6.
        assert!((get("schema_speedup_geomean") - 1.0).abs() < 1e-12);
        assert!((get("schema_total_ratio") - 1.5).abs() < 1e-12);
        assert_eq!(get("throughput_qps"), 2.5);
        assert_eq!(get("setup_s"), 0.5);
        assert_eq!(get("op_p50_ms"), 4.0);
        assert_eq!(get("op_p95_ms"), 8.0);
    }
}
