//! Physical plan rendering with per-operator strategy, estimated
//! cost/rows and (optionally) actual rows — the reproduction of the
//! paper's Fig. 17 execution plans, one level lower: what is shown is
//! the [`crate::plan::PhysPlan`] the executor actually interprets, so
//! join strategies (merge vs hash), build sides and fused filtered
//! scans are all visible.
//!
//! Rendering is one of the two places (with the SQL printer) where
//! interned [`sgq_common::ColId`]s are resolved back to names, through
//! the [`SymbolTable`] owned by the store.

use sgq_common::{json::JsonValue, Result};

use crate::exec::{execute_plan_traced, ExecContext, ExecTrace};
use crate::plan::{plan, PhysOp, PhysPlan};
use crate::storage::RelStore;
use crate::symbols::SymbolTable;
use crate::table::Relation;
use crate::term::RaTerm;

/// Lowers `term` and renders the physical plan with estimates only
/// (like `EXPLAIN`). Malformed terms render as a one-line plan error.
pub fn explain(term: &RaTerm, store: &RelStore, names: &dyn PlanNames) -> String {
    match plan(term, store) {
        Ok(p) => explain_plan(&p, store, names),
        Err(e) => format!("plan error: {e}\n"),
    }
}

/// Renders an already-lowered physical plan with estimates only.
pub fn explain_plan(p: &PhysPlan, store: &RelStore, names: &dyn PlanNames) -> String {
    explain_plan_with_dop(p, store, names, 1)
}

/// [`explain_plan`] for an execution at degree of parallelism `dop`:
/// operators whose estimated probe side clears the cost threshold
/// ([`crate::cost::PARALLEL_ROW_THRESHOLD`]) — i.e. the ones a `dop > 1`
/// execution would actually split into morsels — are annotated
/// `[parallel ×dop]`; sub-threshold operators render unannotated, as
/// they stay serial.
pub fn explain_plan_with_dop(
    p: &PhysPlan,
    store: &RelStore,
    names: &dyn PlanNames,
    dop: usize,
) -> String {
    let mut out = String::new();
    render(p, store, names, 0, &mut out, None, dop);
    out
}

/// Executes the term and renders the physical plan with estimated *and*
/// actual rows plus the per-node q-error
/// ([`crate::cost::q_error`], `max(est, actual) / min(est, actual)`
/// floored at one row — 1.00 is a perfect estimate), like
/// `EXPLAIN ANALYZE`. Actual rows come from tracing the single
/// execution — per plan node, summed across fixpoint rounds — rather
/// than re-running sub-plans.
pub fn explain_analyze(
    term: &RaTerm,
    store: &RelStore,
    names: &dyn PlanNames,
) -> Result<(Relation, String)> {
    let p = plan(term, store)?;
    let mut ctx = ExecContext::new();
    let (rel, trace) = execute_plan_traced(&p, store, &mut ctx)?;
    let mut out = String::new();
    render(&p, store, names, 0, &mut out, Some(&trace), 1);
    Ok((rel, out))
}

/// Structured `EXPLAIN ANALYZE` of an executed plan and its
/// [`ExecTrace`]: a JSON array with one object per plan node in
/// pre-order — `id`, `op`, `depth`, `est_rows`, `est_cost`,
/// `actual_rows`, `q_error` and, on a shared node, `shared` (its parent
/// count; a later occurrence has no subtree). The service's per-query
/// analyze option renders it from the production execution; harness and
/// tests read these fields instead of scraping the text renderer's
/// lines.
pub fn analyze_json(
    p: &PhysPlan,
    store: &RelStore,
    names: &dyn PlanNames,
    trace: &ExecTrace,
) -> JsonValue {
    let mut nodes = Vec::new();
    collect_json(p, store, names, 0, trace, &mut nodes);
    JsonValue::Arr(nodes)
}

fn collect_json(
    p: &PhysPlan,
    store: &RelStore,
    names: &dyn PlanNames,
    depth: usize,
    trace: &ExecTrace,
    out: &mut Vec<JsonValue>,
) {
    let actual = trace.actuals.get(p.id as usize).copied().unwrap_or(0);
    let mut fields = vec![
        ("id", JsonValue::Int(p.id as u64)),
        ("op", JsonValue::str(describe(p, names, &store.symbols))),
        ("depth", JsonValue::Int(depth as u64)),
        ("est_rows", JsonValue::Num(p.est.rows)),
        ("est_cost", JsonValue::Num(p.est.cost)),
        ("actual_rows", JsonValue::Int(actual as u64)),
        (
            "q_error",
            JsonValue::Num(crate::cost::q_error(p.est.rows, actual as f64)),
        ),
    ];
    if p.parents > 1 {
        fields.push(("shared", JsonValue::Int(p.parents as u64)));
    }
    out.push(JsonValue::obj(fields));
    if p.later {
        return;
    }
    for child in p.children() {
        collect_json(child, store, names, depth + 1, trace, out);
    }
}

/// Resolves label ids to names for plan display.
pub trait PlanNames {
    /// Edge label display name.
    fn edge_name(&self, le: sgq_common::EdgeLabelId) -> String;
    /// Node label display name.
    fn node_name(&self, l: sgq_common::NodeLabelId) -> String;
}

impl PlanNames for sgq_graph::GraphSchema {
    fn edge_name(&self, le: sgq_common::EdgeLabelId) -> String {
        self.edge_label_name(le).to_string()
    }
    fn node_name(&self, l: sgq_common::NodeLabelId) -> String {
        self.node_label_name(l).to_string()
    }
}

impl PlanNames for sgq_graph::GraphDatabase {
    fn edge_name(&self, le: sgq_common::EdgeLabelId) -> String {
        self.edge_label_name(le).to_string()
    }
    fn node_name(&self, l: sgq_common::NodeLabelId) -> String {
        self.node_label_name(l).to_string()
    }
}

fn describe(p: &PhysPlan, names: &dyn PlanNames, symbols: &SymbolTable) -> String {
    match &p.op {
        PhysOp::EdgeScan { label } => format!(
            "Seq Scan on {} ({})",
            names.edge_name(*label),
            symbols.col_list(&p.cols, ", ")
        ),
        PhysOp::FilteredEdgeScan { scan, filter, key } => format!(
            "Filtered Seq Scan on {} ({}{}) [{}]",
            names.edge_name(scan.label),
            symbols.col_list(&p.cols, ", "),
            endpoint_filters(names, scan),
            match filter {
                Some(_) => format!("hash filter on {}", symbols.col_list(key, ", ")),
                None => "label filter".to_string(),
            }
        ),
        PhysOp::DenormEdgeScan {
            label,
            src_label,
            tgt_label,
        } => {
            let mut filters = String::new();
            if let Some(l) = src_label {
                filters.push_str(&format!(", src ∈ {}", names.node_name(*l)));
            }
            if let Some(l) = tgt_label {
                filters.push_str(&format!(", tgt ∈ {}", names.node_name(*l)));
            }
            format!(
                "Denorm Seq Scan on {} ({}{}) [precomputed slice]",
                names.edge_name(*label),
                symbols.col_list(&p.cols, ", "),
                filters
            )
        }
        PhysOp::NodeScan { labels } => {
            let ls: Vec<String> = labels.iter().map(|&l| names.node_name(l)).collect();
            format!(
                "Index Scan on {} ({})",
                ls.join("∪"),
                symbols.col_list(&p.cols, ", ")
            )
        }
        PhysOp::MergeJoin { key, .. } => {
            format!("Merge Join (key = {})", symbols.col_list(key, ", "))
        }
        PhysOp::HashJoin {
            key, build_left, ..
        } => format!(
            "Hash Join (build = {}, key = {})",
            if *build_left { "left" } else { "right" },
            if key.is_empty() {
                "∅ cartesian".to_string()
            } else {
                symbols.col_list(key, ", ")
            }
        ),
        PhysOp::HashSemiJoin { key, .. } => format!(
            "Hash Semi Join (key = {})",
            if key.is_empty() {
                "∅ existence".to_string()
            } else {
                symbols.col_list(key, ", ")
            }
        ),
        PhysOp::IndexJoin { scan, forward, .. } => {
            let [(key, _), (out, _)] = scan.endpoints(*forward);
            format!(
                "Index Join on {} ({} CSR, {} → {}{})",
                names.edge_name(scan.label),
                if *forward { "forward" } else { "reverse" },
                symbols.col_name(key),
                symbols.col_name(out),
                endpoint_filters(names, scan)
            )
        }
        PhysOp::Union { .. } => "Merge Union".to_string(),
        PhysOp::Project { .. } => {
            format!("Project ({})", symbols.col_list(&p.cols, ", "))
        }
        PhysOp::Select { a, b, .. } => format!(
            "Select ({} = {})",
            symbols.col_name(*a),
            symbols.col_name(*b)
        ),
        PhysOp::Rename { .. } => {
            format!("Rename ({})", symbols.col_list(&p.cols, ", "))
        }
        PhysOp::Fixpoint { var, step, .. } => format!(
            "Recursive Fixpoint µ{} (semi-naive, {} cached static input{})",
            symbols.recvar_name(*var),
            count_cacheable(step),
            if count_cacheable(step) == 1 { "" } else { "s" }
        ),
        PhysOp::RecRef { var } => format!(
            "Recursive Ref {} ({})",
            symbols.recvar_name(*var),
            symbols.col_list(&p.cols, ", ")
        ),
    }
}

/// Renders the endpoint label restrictions of a filtered scan or an
/// index join, e.g. `, src ∈ City, tgt ∈ Country` (`∅` for an impossible
/// filter intersection).
fn endpoint_filters(names: &dyn PlanNames, scan: &crate::cost::ScanInfo) -> String {
    let render = |labels: &[sgq_common::NodeLabelId]| {
        if labels.is_empty() {
            "∅".to_string()
        } else {
            labels
                .iter()
                .map(|&l| names.node_name(l))
                .collect::<Vec<_>>()
                .join("∪")
        }
    };
    let mut s = String::new();
    if let Some(ls) = &scan.src_labels {
        s.push_str(&format!(", src ∈ {}", render(ls)));
    }
    if let Some(ls) = &scan.tgt_labels {
        s.push_str(&format!(", tgt ∈ {}", render(ls)));
    }
    s
}

/// The estimated rows of `p`'s morsel-partitionable probe side, if it
/// has one — what a `dop > 1` execution splits: the probe input of a hash
/// or index join, the filtered left of a hash semi-join, and the whole
/// edge table a filtered scan filters (its output is only what survives).
fn parallel_probe_rows(p: &PhysPlan, store: &RelStore) -> Option<f64> {
    match &p.op {
        PhysOp::HashJoin {
            left,
            right,
            build_left,
            ..
        } => Some(if *build_left { &right.est } else { &left.est }.rows),
        PhysOp::IndexJoin { probe, .. } => Some(probe.est.rows),
        PhysOp::HashSemiJoin { left, .. } => Some(left.est.rows),
        PhysOp::FilteredEdgeScan { scan, .. } => {
            Some(store.stats.edge_cardinality(scan.label) as f64)
        }
        _ => None,
    }
}

/// Number of maximal static subtrees of a fixpoint step — the node-cache
/// entries the executor keeps across its rounds (a static hash build side
/// is kept as its built table: still one entry).
fn count_cacheable(p: &PhysPlan) -> usize {
    if p.is_static() {
        return 1;
    }
    p.children().iter().map(|c| count_cacheable(c)).sum()
}

#[allow(clippy::too_many_arguments)]
fn render(
    p: &PhysPlan,
    store: &RelStore,
    names: &dyn PlanNames,
    depth: usize,
    out: &mut String,
    trace: Option<&ExecTrace>,
    dop: usize,
) {
    out.push_str(&"  ".repeat(depth));
    let describe = describe(p, names, &store.symbols);
    if p.later {
        out.push_str(&format!("{describe} (shared with #{})\n", p.id));
        return;
    }
    let parallel = if dop > 1
        && parallel_probe_rows(p, store)
            .is_some_and(|rows| rows >= crate::cost::PARALLEL_ROW_THRESHOLD as f64)
    {
        format!(" [parallel ×{dop}]")
    } else {
        String::new()
    };
    let shared = if p.parents > 1 {
        format!(" [#{} shared ×{}]", p.id, p.parents)
    } else {
        String::new()
    };
    let line = match trace {
        Some(t) => {
            let actual = t.actuals.get(p.id as usize).copied().unwrap_or(0);
            format!(
                "{describe} (cost = {:.2} rows = {:.0} actual = {actual} q = {:.2}){parallel}{shared}\n",
                p.est.cost,
                p.est.rows,
                crate::cost::q_error(p.est.rows, actual as f64)
            )
        }
        None => format!(
            "{describe} (cost = {:.2} rows = {:.0}){parallel}{shared}\n",
            p.est.cost, p.est.rows
        ),
    };
    out.push_str(&line);
    for child in p.children() {
        render(child, store, names, depth + 1, out, trace, dop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_graph::database::fig2_yago_database;

    #[test]
    fn explain_renders_physical_tree() {
        let db = fig2_yago_database();
        let mut store = RelStore::load(&db);
        store.index_joins = false;
        let s = &store.symbols;
        let t = RaTerm::join(
            RaTerm::edge_scan(db.edge_label_id("owns").unwrap(), s.col("x"), s.col("y")),
            RaTerm::edge_scan(
                db.edge_label_id("isLocatedIn").unwrap(),
                s.col("y"),
                s.col("z"),
            ),
        );
        let rendered = explain(&t, &store, &db);
        // owns (1 row) is the estimated-smaller side: it builds.
        assert!(
            rendered.contains("Hash Join (build = left, key = y)"),
            "{rendered}"
        );
        assert!(rendered.contains("Seq Scan on owns (x, y)"), "{rendered}");
        assert!(rendered.contains("rows = 4"), "{rendered}");
    }

    #[test]
    fn explain_shows_merge_join_for_aligned_inputs() {
        let db = fig2_yago_database();
        let mut store = RelStore::load(&db);
        store.index_joins = false;
        let s = &store.symbols;
        let t = RaTerm::join(
            RaTerm::edge_scan(
                db.edge_label_id("isLocatedIn").unwrap(),
                s.col("x"),
                s.col("y"),
            ),
            RaTerm::edge_scan(db.edge_label_id("owns").unwrap(), s.col("x"), s.col("z")),
        );
        let rendered = explain(&t, &store, &db);
        assert!(rendered.contains("Merge Join (key = x)"), "{rendered}");
        assert!(!rendered.contains("Hash Join"), "{rendered}");
    }

    #[test]
    fn explain_analyze_reports_actuals() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let t = RaTerm::semijoin(
            RaTerm::edge_scan(
                db.edge_label_id("isLocatedIn").unwrap(),
                s.col("x"),
                s.col("y"),
            ),
            // Two labels: a filter no precomputed slice serves.
            RaTerm::NodeScan {
                labels: ["REGION", "COUNTRY"]
                    .map(|l| db.node_label_id(l).unwrap())
                    .to_vec(),
                col: s.col("x"),
            },
        );
        let (rel, rendered) = explain_analyze(&t, &store, &db).unwrap();
        assert_eq!(rel.len(), 1);
        assert!(rendered.contains("actual = 1"), "{rendered}");
        // The triple-count estimate is exact here: q-error 1.00 on the
        // filtered scan (1 estimated row, 1 actual).
        assert!(
            rendered.contains("rows = 1 actual = 1 q = 1.00"),
            "{rendered}"
        );
        // The semi-join is the scan's label filter on x: no node scan.
        assert!(
            rendered.contains(
                "Filtered Seq Scan on isLocatedIn (x, y, src ∈ REGION∪COUNTRY) [label filter]"
            ),
            "{rendered}"
        );
        assert!(!rendered.contains("Index Scan"), "{rendered}");
    }

    /// Executes `t` traced and renders its structured `EXPLAIN ANALYZE`.
    fn analyzed(t: &RaTerm, store: &RelStore, db: &dyn PlanNames) -> (Relation, JsonValue) {
        let p = plan(t, store).unwrap();
        let mut ctx = ExecContext::new();
        let (rel, trace) = execute_plan_traced(&p, store, &mut ctx).unwrap();
        (rel, analyze_json(&p, store, db, &trace))
    }

    #[test]
    fn explain_analyze_json_reports_per_node_records() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let t = RaTerm::semijoin(
            RaTerm::edge_scan(
                db.edge_label_id("isLocatedIn").unwrap(),
                s.col("x"),
                s.col("y"),
            ),
            // Two labels: a filter no precomputed slice serves.
            RaTerm::NodeScan {
                labels: ["REGION", "COUNTRY"]
                    .map(|l| db.node_label_id(l).unwrap())
                    .to_vec(),
                col: s.col("x"),
            },
        );
        let t = RaTerm::project(t, vec![s.col("x"), s.col("y")]);
        let (rel, json) = analyzed(&t, &store, &db);
        assert_eq!(rel.len(), 1);
        let JsonValue::Arr(nodes) = &json else {
            panic!("array of node records, got {json:?}")
        };
        // The projection + the label-filtered scan, in pre-order.
        assert_eq!(nodes.len(), 2);
        let field = |node: &JsonValue, key: &str| -> JsonValue {
            let JsonValue::Obj(fields) = node else {
                panic!("object record, got {node:?}")
            };
            fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("field {key} in {node:?}"))
                .1
                .clone()
        };
        // Records are pre-order (root first); ids are the planner's
        // bottom-up numbering, so the root carries the highest id.
        assert_eq!(field(&nodes[0], "id"), JsonValue::Int(1));
        assert_eq!(field(&nodes[1], "id"), JsonValue::Int(0));
        assert_eq!(field(&nodes[0], "depth"), JsonValue::Int(0));
        assert!(matches!(field(&nodes[0], "op"), JsonValue::Str(op) if op.contains("Project")));
        assert!(
            matches!(field(&nodes[1], "op"), JsonValue::Str(op) if op.contains("Filtered Seq Scan")),
        );
        // The triple-count estimate is exact here: 1 row, q-error 1.
        assert_eq!(field(&nodes[0], "actual_rows"), JsonValue::Int(1));
        assert_eq!(field(&nodes[0], "q_error"), JsonValue::Num(1.0));
        assert_eq!(field(&nodes[1], "depth"), JsonValue::Int(1));
        // And the tree renders as a well-formed document.
        assert!(
            json.render().starts_with("[{\"id\": 1"),
            "{}",
            json.render()
        );
    }

    #[test]
    fn executing_a_plan_leaves_the_next_plan_of_its_term_unchanged() {
        // A plan is a function of the term and the statistics: executing
        // one — here with a shared sub-plan, run once for both readers —
        // changes nothing the next planning of the same term reads.
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let hop = |mid: &str| {
            let j = RaTerm::join(
                RaTerm::edge_scan(db.edge_label_id("owns").unwrap(), s.col("x"), s.col(mid)),
                RaTerm::edge_scan(
                    db.edge_label_id("isLocatedIn").unwrap(),
                    s.col(mid),
                    s.col("z"),
                ),
            );
            RaTerm::project(j, vec![s.col("x"), s.col("z")])
        };
        let t = RaTerm::union(hop("y"), hop("m"));
        let cold = plan(&t, &store).unwrap();
        let before = explain_plan(&cold, &store, &db);
        assert!(before.contains("shared ×2"), "{before}");
        execute_plan_traced(&cold, &store, &mut ExecContext::new()).unwrap();
        let after = explain_plan(&plan(&t, &store).unwrap(), &store, &db);
        assert_eq!(before, after);
    }

    #[test]
    fn explain_shows_index_join_with_endpoint_filters() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let filtered = RaTerm::semijoin(
            RaTerm::edge_scan(
                db.edge_label_id("isLocatedIn").unwrap(),
                s.col("y"),
                s.col("z"),
            ),
            RaTerm::NodeScan {
                labels: vec![db.node_label_id("REGION").unwrap()],
                col: s.col("z"),
            },
        );
        let t = RaTerm::join(
            RaTerm::edge_scan(db.edge_label_id("owns").unwrap(), s.col("x"), s.col("y")),
            filtered,
        );
        let rendered = explain(&t, &store, &db);
        assert!(
            rendered.contains("Index Join on isLocatedIn (forward CSR, y → z, tgt ∈ REGION)"),
            "{rendered}"
        );
        // The absorbed scan has no node of its own; the probe renders.
        assert!(rendered.contains("Seq Scan on owns (x, y)"), "{rendered}");
    }

    #[test]
    fn explain_annotates_parallel_eligible_operators() {
        let db = fig2_yago_database();
        let mut store = RelStore::load(&db);
        store.index_joins = false;
        let s = &store.symbols;
        let t = RaTerm::join(
            RaTerm::edge_scan(db.edge_label_id("owns").unwrap(), s.col("x"), s.col("y")),
            RaTerm::edge_scan(
                db.edge_label_id("isLocatedIn").unwrap(),
                s.col("y"),
                s.col("z"),
            ),
        );
        let mut p = plan(&t, &store).unwrap();
        // Sub-threshold probes stay serial: no annotation even at dop 4.
        let quiet = explain_plan_with_dop(&p, &store, &db, 4);
        assert!(!quiet.contains("parallel"), "{quiet}");
        // With the probe estimate past the threshold the join gains the
        // annotation at dop > 1 — and never at dop = 1.
        let PhysOp::HashJoin {
            left,
            right,
            build_left,
            ..
        } = &mut p.op
        else {
            panic!("hash plan expected")
        };
        let probe = if *build_left { right } else { left };
        probe.est.rows = 1e6;
        let rendered = explain_plan_with_dop(&p, &store, &db, 4);
        assert!(rendered.contains("[parallel ×4]"), "{rendered}");
        assert!(!explain_plan(&p, &store, &db).contains("parallel"));
    }

    #[test]
    fn explain_annotates_a_filtered_scan_iff_it_runs_in_morsels() {
        // 128 × 128 PROPERTY → CITY isLocatedIn edges — as many as the
        // parallel threshold — filtered on the target by the one city
        // anybody lives in: a selective filter no slice serves. The scan
        // splits the whole edge table, whatever its output estimate.
        let schema = sgq_graph::schema::fig1_yago_schema();
        let mut b = sgq_graph::GraphDatabase::builder(&schema);
        let props: Vec<_> = (0..128).map(|_| b.node("PROPERTY", &[])).collect();
        let cities: Vec<_> = (0..128).map(|_| b.node("CITY", &[])).collect();
        for (&p, &c) in props
            .iter()
            .flat_map(|p| cities.iter().map(move |c| (p, c)))
        {
            b.edge(p, "isLocatedIn", c);
        }
        let person = b.node("PERSON", &[]);
        b.edge(person, "livesIn", cities[0]);
        let db = b.build().unwrap();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let scan = |label: &str, src: &str, tgt: &str| {
            RaTerm::edge_scan(db.edge_label_id(label).unwrap(), s.col(src), s.col(tgt))
        };
        let homes = RaTerm::project(scan("livesIn", "w", "x"), vec![s.col("x")]);
        let t = RaTerm::semijoin(scan("isLocatedIn", "y", "x"), homes);
        let p = plan(&t, &store).unwrap();
        assert!(matches!(p.op, PhysOp::FilteredEdgeScan { .. }), "{p:?}");
        let threshold = crate::cost::PARALLEL_ROW_THRESHOLD;
        assert!(p.est.rows < threshold as f64, "{p:?}");
        let annotated = explain_plan_with_dop(&p, &store, &db, 2).contains("[parallel ×2]");
        let mut ctx = ExecContext::new();
        ctx.dop = 2;
        let r = crate::exec::execute_plan(&p, &store, &mut ctx).unwrap();
        assert_eq!(r.len(), 128);
        assert!(ctx.morsels_executed > 0);
        assert_eq!(annotated, ctx.morsels_executed > 0);
    }

    #[test]
    fn a_shared_node_renders_once() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let hop = |mid: &str| {
            let scan = |label: &str, src: &str, tgt: &str| {
                RaTerm::edge_scan(db.edge_label_id(label).unwrap(), s.col(src), s.col(tgt))
            };
            let j = RaTerm::join(scan("owns", "x", mid), scan("isLocatedIn", mid, "z"));
            RaTerm::project(j, vec![s.col("x"), s.col("z")])
        };
        let t = RaTerm::union(hop("y"), hop("m"));
        let rendered = explain(&t, &store, &db);
        assert!(rendered.contains("rows = 1) [#2 shared ×2]"), "{rendered}");
        assert!(
            rendered.contains("\n  Project (x, z) (shared with #2)\n"),
            "{rendered}"
        );
        assert_eq!(rendered.matches("Index Join").count(), 1, "{rendered}");
        let (rel, json) = analyzed(&t, &store, &db);
        assert_eq!(rel.len(), 1);
        let JsonValue::Arr(nodes) = &json else {
            panic!("{json:?}")
        };
        // Union, the shared project and its two-node subtree, then the
        // later occurrence without a subtree.
        assert_eq!(nodes.len(), 5, "{}", json.render());
        let shared: Vec<_> = nodes.iter().filter_map(|n| n.get("shared")).collect();
        assert_eq!(shared, [&JsonValue::Int(2), &JsonValue::Int(2)]);
        assert_eq!(nodes[1].get("id"), nodes[4].get("id"));
        assert_eq!(nodes[1].get("actual_rows"), Some(&JsonValue::Int(1)));
    }

    #[test]
    fn explain_shows_fixpoint_cached_inputs() {
        let db = fig2_yago_database();
        let mut store = RelStore::load(&db);
        store.index_joins = false;
        let s = &store.symbols;
        let f = crate::term::closure_fixpoint(
            s.recvar("X"),
            RaTerm::edge_scan(
                db.edge_label_id("isLocatedIn").unwrap(),
                s.col("x"),
                s.col("y"),
            ),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        let rendered = explain(&f, &store, &db);
        assert!(
            rendered.contains("Recursive Fixpoint µX (semi-naive, 1 cached static input)"),
            "{rendered}"
        );
        assert!(rendered.contains("Recursive Ref X (x, m)"), "{rendered}");
    }
}
