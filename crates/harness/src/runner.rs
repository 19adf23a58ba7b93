//! Query execution under the paper's measurement protocol (§5.1.5):
//! a per-run timeout and averaging over repetitions.

use std::time::Instant;

use sgq_algebra::ast::PathExpr;
use sgq_common::SgqError;
use sgq_core::pipeline::RewriteOptions;
use sgq_ra::exec::ExecContext;
use sgq_service::prepared::prepare;

use crate::replay::Catalog;

// The backend / approach axes are workspace vocabulary shared with the
// serving layer (the plan-cache key and the experiment records must
// agree on their meaning): both re-export `sgq_common::axes`.
pub use sgq_common::{Approach, Backend};

/// Timeout / repetition configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Per-run timeout in milliseconds (the paper used 30 minutes; the
    /// harness scales this down).
    pub timeout_ms: u64,
    /// Repetitions averaged per measurement (the paper used 5).
    pub repetitions: usize,
    /// Row/pair materialisation budget (0 = unlimited).
    pub max_rows: usize,
    /// Rewrite options for the schema approach.
    pub rewrite: RewriteOptions,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            timeout_ms: 2_000,
            repetitions: 3,
            max_rows: 20_000_000,
            rewrite: RewriteOptions::default(),
        }
    }
}

/// One measurement: average milliseconds and the result cardinality, or a
/// timeout/budget failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measurement {
    /// Mean runtime over the repetitions, with the answer cardinality.
    Feasible {
        /// Mean runtime in milliseconds.
        ms: f64,
        /// Number of result rows.
        rows: usize,
    },
    /// The query exceeded the timeout or the materialisation budget.
    Infeasible,
}

/// Whether `e` classifies the run as infeasible (over the timeout or
/// the materialisation budget) rather than as a bug: the predicate the
/// replay driver gives up a query on. A planner or executor error — a
/// malformed term, an unbound recursion variable — is not a measurement.
pub(crate) fn infeasible(e: &SgqError) -> bool {
    e.is_timeout() || e.is_row_budget()
}

/// Runs a query under the full protocol: the library front end
/// ([`prepare`]: rewrite if schema approach, translate, optimise, plan)
/// runs once, then the repetitions are executed and averaged under the
/// timeout and classified. The relational backends run on the
/// catalog's advised store — the layout a service serves.
pub fn run_query(
    cat: &Catalog,
    expr: &PathExpr,
    approach: Approach,
    backend: Backend,
    config: &RunConfig,
) -> Measurement {
    let store = cat.store(None);
    let prepared = match prepare(&cat.schema, &store, expr, backend, approach, config.rewrite) {
        Ok(p) => p,
        Err(e) if infeasible(&e) => return Measurement::Infeasible,
        Err(other) => panic!("unexpected planning failure: {other}"),
    };
    if prepared.is_provably_empty() {
        // The schema proves the query empty: essentially free.
        return Measurement::Feasible { ms: 0.0, rows: 0 };
    }
    let reps = config.repetitions.max(1);
    let mut total_ms = 0.0;
    let mut rows = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        let mut ctx = ExecContext::with_timeout(config.timeout_ms);
        ctx.max_rows = config.max_rows;
        match prepared.execute(&cat.db, &store, &mut ctx, None) {
            Ok((answer, _)) => {
                rows = answer.rows().len();
                total_ms += start.elapsed().as_secs_f64() * 1e3;
            }
            Err(e) if infeasible(&e) => return Measurement::Infeasible,
            Err(other) => panic!("unexpected engine failure: {other}"),
        }
    }
    Measurement::Feasible {
        ms: total_ms / reps as f64,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;

    fn tiny() -> Catalog {
        Catalog::yago(0.02)
    }

    #[test]
    fn timeout_classifies_as_infeasible() {
        let cat = tiny();
        let config = RunConfig {
            timeout_ms: 0,
            repetitions: 1,
            ..Default::default()
        };
        let expr = parse_path("influences+", &*cat.schema).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let m = run_query(&cat, &expr, Approach::Baseline, Backend::Graph, &config);
        assert_eq!(m, Measurement::Infeasible);
    }

    #[test]
    fn malformed_term_is_a_bug_not_an_infeasible_cell() {
        let cat = tiny();
        let store = cat.store(None);
        // σ over a column the scan does not produce: `plan()` rejects it.
        let owns = cat.db.edge_label_id("owns").expect("YAGO has owns");
        let (x, y) = (store.symbols.col("x"), store.symbols.col("y"));
        let scan = sgq_ra::RaTerm::EdgeScan {
            label: owns,
            src: x,
            tgt: y,
        };
        let malformed = sgq_ra::RaTerm::select_eq(scan, x, store.symbols.col("nope"));
        let e = sgq_ra::plan(&malformed, &store).expect_err("unknown column");
        assert!(matches!(e, SgqError::Execution(_)), "{e}");
        assert!(!infeasible(&e), "{e}");
        assert!(infeasible(&SgqError::Timeout { limit_ms: 1 }));
        assert!(infeasible(&SgqError::RowBudget { rows: 2, budget: 1 }));
    }

    #[test]
    fn unoptimized_backend_still_correct() {
        let cat = tiny();
        let config = RunConfig {
            timeout_ms: 10_000,
            repetitions: 1,
            ..Default::default()
        };
        let expr = parse_path("owns/isLocatedIn", &*cat.schema).unwrap();
        let a = run_query(
            &cat,
            &expr,
            Approach::Baseline,
            Backend::Relational,
            &config,
        );
        let b = run_query(
            &cat,
            &expr,
            Approach::Baseline,
            Backend::RelationalUnoptimized,
            &config,
        );
        match (a, b) {
            (Measurement::Feasible { rows: ra, .. }, Measurement::Feasible { rows: rb, .. }) => {
                assert_eq!(ra, rb)
            }
            other => panic!("{other:?}"),
        }
    }
}
