//! RA terms → recursive SQL (the `RRA2SQL` component of Fig. 10).
//!
//! Non-recursive operators render as nested `SELECT`s; every fixpoint
//! becomes a `WITH RECURSIVE` common table expression (the paper's
//! footnote 6 mechanism), so the emitted statement runs on PostgreSQL-
//! compatible engines. Fig. 15's schema-enriched vs baseline SQL pair is
//! reproduced by the `fig15` tests.
//!
//! SQL rendering is one of the two *egress edges* of the interned RA
//! stack: column/recursion-variable ids resolve back to names through the
//! [`SymbolTable`] the term was built with.

use std::fmt::Write as _;

use sgq_ra::explain::PlanNames;
use sgq_ra::symbols::SymbolTable;
use sgq_ra::term::RaTerm;

/// One `WITH RECURSIVE` CTE: name, arity and defining query.
struct Cte {
    name: String,
    arity: usize,
    def: String,
}

/// Renders `term` as a SQL statement selecting its output columns.
pub fn to_sql(term: &RaTerm, names: &dyn PlanNames, symbols: &SymbolTable) -> String {
    let mut ctes: Vec<Cte> = Vec::new();
    let body = render(term, names, symbols, &mut ctes, 0);
    let cols = symbols.col_list(&term.cols(), ", ");
    let mut out = String::new();
    if !ctes.is_empty() {
        out.push_str("WITH RECURSIVE ");
        for (i, cte) in ctes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Declare positional column names c0, c1, ... so the
            // recursive references (`SELECT c0 AS ... FROM fp_x`) are
            // valid regardless of the names inside the definition.
            let decl = (0..cte.arity)
                .map(|i| format!("c{i}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(out, "{}({decl}) AS ({})", cte.name, cte.def);
        }
        out.push('\n');
    }
    let _ = write!(out, "SELECT DISTINCT {cols} FROM ({body}) AS q;");
    out
}

/// Renders a term as a sub-select returning its columns.
fn render(
    term: &RaTerm,
    names: &dyn PlanNames,
    symbols: &SymbolTable,
    ctes: &mut Vec<Cte>,
    depth: usize,
) -> String {
    let col = |c: &sgq_common::ColId| symbols.col_name(*c);
    // A label-filtered scan prints as the semi-joins it stands for.
    if let Some(stack) = term.as_semijoins() {
        return render(&stack, names, symbols, ctes, depth);
    }
    match term {
        RaTerm::EdgeScan {
            label, src, tgt, ..
        } => format!(
            "SELECT Sr AS {}, Tr AS {} FROM {}",
            col(src),
            col(tgt),
            names.edge_name(*label)
        ),
        RaTerm::NodeScan { labels, col: c } => {
            let parts: Vec<String> = labels
                .iter()
                .map(|&l| format!("SELECT Sr AS {} FROM {}", col(c), names.node_name(l)))
                .collect();
            parts.join(" UNION ")
        }
        RaTerm::Join(a, b) => {
            let shared: Vec<String> = a
                .cols()
                .into_iter()
                .filter(|c| b.cols().contains(c))
                .map(|c| symbols.col_name(c))
                .collect();
            let la = render(a, names, symbols, ctes, depth + 1);
            let lb = render(b, names, symbols, ctes, depth + 1);
            let a_alias = format!("a{depth}");
            let b_alias = format!("b{depth}");
            let on = if shared.is_empty() {
                "1 = 1".to_string()
            } else {
                shared
                    .iter()
                    .map(|c| format!("{a_alias}.{c} = {b_alias}.{c}"))
                    .collect::<Vec<_>>()
                    .join(" AND ")
            };
            let a_cols = a.cols();
            let out_cols: Vec<String> = term
                .cols()
                .into_iter()
                .map(|c| {
                    let name = symbols.col_name(c);
                    if a_cols.contains(&c) {
                        format!("{a_alias}.{name} AS {name}")
                    } else {
                        format!("{b_alias}.{name} AS {name}")
                    }
                })
                .collect();
            format!(
                "SELECT {} FROM ({la}) AS {a_alias} JOIN ({lb}) AS {b_alias} ON {on}",
                out_cols.join(", ")
            )
        }
        RaTerm::Semijoin(a, b) => {
            let shared: Vec<String> = a
                .cols()
                .into_iter()
                .filter(|c| b.cols().contains(c))
                .map(|c| symbols.col_name(c))
                .collect();
            let la = render(a, names, symbols, ctes, depth + 1);
            let lb = render(b, names, symbols, ctes, depth + 1);
            let a_alias = format!("a{depth}");
            let s_alias = format!("s{depth}");
            let cond = shared
                .iter()
                .map(|c| format!("{a_alias}.{c} = {s_alias}.{c}"))
                .collect::<Vec<_>>()
                .join(" AND ");
            format!(
                "SELECT {a_alias}.* FROM ({la}) AS {a_alias} WHERE EXISTS (SELECT 1 FROM ({lb}) AS {s_alias} WHERE {cond})"
            )
        }
        RaTerm::Union(a, b) => {
            let la = render(a, names, symbols, ctes, depth + 1);
            let lb = render(b, names, symbols, ctes, depth + 1);
            format!("{la} UNION {lb}")
        }
        RaTerm::Project { input, cols } => {
            let inner = render(input, names, symbols, ctes, depth + 1);
            format!(
                "SELECT DISTINCT {} FROM ({inner}) AS p{depth}",
                symbols.col_list(cols, ", ")
            )
        }
        RaTerm::Select { input, a, b } => {
            let inner = render(input, names, symbols, ctes, depth + 1);
            format!(
                "SELECT * FROM ({inner}) AS f{depth} WHERE {} = {}",
                col(a),
                col(b)
            )
        }
        RaTerm::Rename { input, from, to } => {
            let inner = render(input, names, symbols, ctes, depth + 1);
            let cols: Vec<String> = input
                .cols()
                .into_iter()
                .map(|c| {
                    let name = symbols.col_name(c);
                    if c == *from {
                        format!("{name} AS {}", col(to))
                    } else {
                        name
                    }
                })
                .collect();
            format!("SELECT {} FROM ({inner}) AS r{depth}", cols.join(", "))
        }
        RaTerm::Fixpoint {
            var, base, step, ..
        } => {
            let cte_name = format!("fp_{}", symbols.recvar_name(*var).to_lowercase());
            let base_sql = render(base, names, symbols, ctes, depth + 1);
            let step_sql = render(step, names, symbols, ctes, depth + 1);
            let fix_cols = base.cols();
            ctes.push(Cte {
                name: cte_name.clone(),
                arity: fix_cols.len(),
                def: format!("{base_sql} UNION {step_sql}"),
            });
            // The CTE declares positional columns c0, c1, ...; rename
            // them back to the fixpoint's column names for consumers.
            format!(
                "SELECT {} FROM {cte_name}",
                fix_cols
                    .iter()
                    .enumerate()
                    .map(|(i, c)| format!("c{i} AS {}", col(c)))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
        RaTerm::RecRef { var, cols } => {
            let cte_name = format!("fp_{}", symbols.recvar_name(*var).to_lowercase());
            // positional rename of the CTE's columns
            format!(
                "SELECT {} FROM {cte_name}",
                cols.iter()
                    .enumerate()
                    .map(|(i, c)| format!("c{i} AS {}", col(c)))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucqt2rra::{path_to_term, NameGen};
    use sgq_algebra::parser::parse_path;
    use sgq_graph::schema::fig1_yago_schema;

    fn translate(expr: &str) -> String {
        let schema = fig1_yago_schema();
        let e = parse_path(expr, &schema).unwrap();
        let symbols = SymbolTable::new();
        let (src, tgt) = (symbols.col("SRC"), symbols.col("TRG"));
        let mut names = NameGen::new(&symbols);
        let t = path_to_term(&e, src, tgt, &mut names);
        to_sql(&t, &schema, &symbols)
    }

    #[test]
    fn non_recursive_sql_shape() {
        let sql = translate("owns/isLocatedIn");
        assert!(sql.contains("SELECT DISTINCT SRC, TRG"), "{sql}");
        assert!(sql.contains("FROM owns"), "{sql}");
        assert!(sql.contains("FROM isLocatedIn"), "{sql}");
        assert!(sql.contains("JOIN"), "{sql}");
        assert!(!sql.contains("WITH RECURSIVE"), "{sql}");
    }

    #[test]
    fn recursive_sql_uses_with_recursive() {
        let sql = translate("isLocatedIn+");
        assert!(sql.contains("WITH RECURSIVE"), "{sql}");
        assert!(sql.contains("UNION"), "{sql}");
        // The CTE must declare its positional columns so the recursive
        // reference's `c0 AS ...` projection is valid SQL.
        assert!(sql.contains("fp_x0(c0, c1) AS ("), "{sql}");
        assert!(sql.contains("c0 AS"), "{sql}");
        assert!(!sql.contains("SELECT * FROM fp_"), "{sql}");
    }

    #[test]
    fn semijoin_renders_exists() {
        let sql = translate("livesIn[isLocatedIn]");
        assert!(sql.contains("WHERE EXISTS"), "{sql}");
    }
}
