//! Prepared queries: the front-end runs exactly once.
//!
//! [`prepare`] pushes a path query through the full pipeline — schema
//! rewrite (§3, optional), UCQT→RA translation, logical optimisation
//! (§4) and physical planning — and freezes the result as an immutable
//! [`PreparedQuery`]: the physical plan plus resolved column metadata.
//! The artifact is `Send + Sync` (asserted at compile time in
//! `lib.rs`), so one `Arc<PreparedQuery>` is shared by every session and
//! worker that executes the same statement; execution never re-enters
//! the front-end.
//!
//! [`PreparedQuery::execute`] is the one way a statement runs — the
//! service and the harness's replay driver both call it —
//! and the one place the body kinds are told apart: whichever backend
//! the statement was prepared for runs under the limits of the caller's
//! [`ExecContext`] (deadline, row and memory budgets, fault plan) and
//! leaves its counters there.

use std::time::Instant;

use sgq_algebra::ast::PathExpr;
use sgq_algebra::display::path_to_string;
use sgq_common::Result;
use sgq_core::pipeline::{rewrite_path, RewriteOptions, RewriteOutcome};
use sgq_engine::GraphEngine;
use sgq_graph::{GraphDatabase, GraphSchema};
use sgq_obs::TraceClock;
use sgq_query::cqt::Ucqt;
use sgq_ra::exec::{execute_plan, execute_plan_traced_at, ExecContext, ExecTrace};
use sgq_ra::{PhysPlan, RelStore};
use sgq_translate::ucqt2rra::{ucqt_to_term, NameGen};

// The execution axes are workspace vocabulary (`sgq_common::axes`):
// the plan-cache key signature and the harness's experiment records
// must agree on the variants and their rendered names.
pub use sgq_common::{Approach, Backend};

/// The executable body of a prepared query.
#[derive(Debug)]
enum PreparedBody {
    /// The schema proves the query empty (rewrite outcome ∅): execution
    /// returns no rows without touching either engine.
    Empty,
    /// Graph backend: the (possibly rewritten) UCQT, evaluated directly
    /// over CSR adjacency.
    Graph(Ucqt),
    /// Relational backends: the frozen physical plan.
    Relational(PhysPlan),
}

/// An immutable, shareable prepared statement: the product of running
/// parse → rewrite → translate → optimise → plan exactly once.
#[derive(Debug)]
pub struct PreparedQuery {
    canonical: String,
    backend: Backend,
    approach: Approach,
    columns: Vec<String>,
    body: PreparedBody,
    prepare_micros: u64,
}

impl PreparedQuery {
    /// The canonical text of the source path expression (parse-normalised,
    /// also the cache-key component).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The backend this statement was planned for.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Baseline or schema-rewritten.
    pub fn approach(&self) -> Approach {
        self.approach
    }

    /// Resolved output column names, in result order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Whether the schema proved the query empty at prepare time.
    pub fn is_provably_empty(&self) -> bool {
        matches!(self.body, PreparedBody::Empty)
    }

    /// The frozen physical plan (relational backends only).
    pub fn plan(&self) -> Option<&PhysPlan> {
        match &self.body {
            PreparedBody::Relational(plan) => Some(plan),
            _ => None,
        }
    }

    /// Wall-clock time the front-end spent preparing, in microseconds.
    pub fn prepare_micros(&self) -> u64 {
        self.prepare_micros
    }

    /// Runs the statement on the backend it was prepared for, under
    /// `ctx`: the graph engine over `db` or the plan interpreter over
    /// `store` polls `ctx`'s deadline, records into its row counter and
    /// memory budget and visits its fault plan; a statement the schema
    /// proved empty touches neither. With a `trace` clock a relational
    /// execution also returns its operator trace (the graph engine has
    /// no plan nodes to trace).
    pub fn execute(
        &self,
        db: &GraphDatabase,
        store: &RelStore,
        ctx: &mut ExecContext,
        trace: Option<TraceClock>,
    ) -> Result<(Answer, Option<ExecTrace>)> {
        let (flat, ops) = match &self.body {
            PreparedBody::Empty => (Vec::new(), None),
            PreparedBody::Graph(query) => {
                let rows = GraphEngine::with_limits(db, ctx.limits()).run_ucqt(query)?;
                (rows.iter().flatten().map(|n| n.raw()).collect(), None)
            }
            PreparedBody::Relational(plan) => match trace {
                Some(clock) => {
                    let (rel, ops) = execute_plan_traced_at(plan, store, ctx, clock)?;
                    (rel.into_flat(), Some(ops))
                }
                None => (execute_plan(plan, store, ctx)?.into_flat(), None),
            },
        };
        let arity = self.columns.len();
        Ok((Answer { arity, flat }, ops))
    }
}

/// The answer of one execution: canonical (sorted, deduplicated) rows of
/// raw node ids, flattened row-major — the same value whichever backend
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Values per row (the statement's column count, never 0).
    pub arity: usize,
    /// The rows, `arity` values each.
    pub flat: Vec<u32>,
}

impl Answer {
    /// The rows in lexicographic order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        self.flat.chunks_exact(self.arity)
    }
}

/// The canonical text of a path expression: parse-normalised rendering,
/// so `a/b+` and ` a / b+ ` fingerprint identically.
pub fn canonical_text(expr: &PathExpr, schema: &GraphSchema) -> String {
    path_to_string(expr, schema)
}

/// Runs the full front-end once and freezes the artifact.
///
/// For [`Approach::Schema`] the paper's rewrite runs first; an `∅`
/// outcome (the schema proves the query unsatisfiable) yields a
/// statement that [is provably empty](PreparedQuery::is_provably_empty)
/// and executes for free. The relational
/// backend then translates to RA, optimises, and lowers to a physical
/// plan against `store`.
pub fn prepare(
    schema: &GraphSchema,
    store: &RelStore,
    expr: &PathExpr,
    backend: Backend,
    approach: Approach,
    rewrite: RewriteOptions,
) -> Result<PreparedQuery> {
    let start = Instant::now();
    let canonical = canonical_text(expr, schema);
    let query = match approach {
        Approach::Baseline => Some(Ucqt::path_query(expr.clone())),
        Approach::Schema => match rewrite_path(schema, expr, rewrite).outcome {
            RewriteOutcome::Enriched(q) | RewriteOutcome::Reverted(q) => Some(q),
            RewriteOutcome::Empty => None,
        },
    };
    let (columns, body) = match query {
        None => {
            // Binary path queries expose the standard head (α, β).
            (
                vec!["v0".to_string(), "v1".to_string()],
                PreparedBody::Empty,
            )
        }
        Some(query) => {
            let columns: Vec<String> = query.head.iter().map(|v| format!("v{}", v.raw())).collect();
            let body = match backend {
                Backend::Graph => PreparedBody::Graph(query),
                Backend::Relational => {
                    let term = ucqt_to_term(&query, &mut NameGen::new(&store.symbols))?;
                    let term = sgq_ra::optimize::optimize(&term, store);
                    PreparedBody::Relational(sgq_ra::plan(&term, store)?)
                }
            };
            (columns, body)
        }
    };
    Ok(PreparedQuery {
        canonical,
        backend,
        approach,
        columns,
        body,
        prepare_micros: start.elapsed().as_micros() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::database::fig2_yago_database;
    use sgq_graph::schema::fig1_yago_schema;

    fn setup() -> (GraphSchema, RelStore) {
        let schema = fig1_yago_schema();
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        (schema, store)
    }

    #[test]
    fn relational_prepare_freezes_a_plan() {
        let (schema, store) = setup();
        let expr = parse_path("livesIn/isLocatedIn+", &schema).unwrap();
        let p = prepare(
            &schema,
            &store,
            &expr,
            Backend::Relational,
            Approach::Schema,
            RewriteOptions::default(),
        )
        .unwrap();
        assert!(p.plan().is_some(), "relational body carries a PhysPlan");
        assert_eq!(p.columns(), &["v0", "v1"]);
        assert!(!p.is_provably_empty());
        assert_eq!(p.backend(), Backend::Relational);
        assert_eq!(p.approach(), Approach::Schema);
    }

    #[test]
    fn graph_prepare_carries_the_query() {
        let (schema, store) = setup();
        let expr = parse_path("owns", &schema).unwrap();
        let p = prepare(
            &schema,
            &store,
            &expr,
            Backend::Graph,
            Approach::Baseline,
            RewriteOptions::default(),
        )
        .unwrap();
        assert!(matches!(p.body, PreparedBody::Graph(_)));
        assert!(p.plan().is_none());
    }

    #[test]
    fn canonical_text_normalises_whitespace() {
        let (schema, _) = setup();
        let a = parse_path("livesIn/isLocatedIn+", &schema).unwrap();
        let b = parse_path("  livesIn /  isLocatedIn+ ", &schema).unwrap();
        assert_eq!(canonical_text(&a, &schema), canonical_text(&b, &schema));
    }

    #[test]
    fn schema_empty_queries_prepare_to_empty_body() {
        let (schema, store) = setup();
        // dealsWith targets COUNTRY only; owns sources PERSON — the
        // composition dealsWith/owns is unsatisfiable under Fig. 1.
        let expr = parse_path("dealsWith/owns", &schema).unwrap();
        let p = prepare(
            &schema,
            &store,
            &expr,
            Backend::Relational,
            Approach::Schema,
            RewriteOptions::default(),
        )
        .unwrap();
        assert!(p.is_provably_empty(), "schema proves the query empty");
    }
}
