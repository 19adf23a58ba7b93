//! The property-graph query engine (the paper's GDBMS backend substitute).
//!
//! Evaluates UCQT queries directly over a [`sgq_graph::GraphDatabase`]:
//!
//! * [`patheval`] — seeded pair-set evaluation of path expressions over
//!   CSR adjacency, with semi-naive / frontier-BFS transitive closure,
//! * [`conjunctive`] — a binding-table executor for CQTs (greedy join
//!   ordering, semi-join pushdown of label atoms and bound variables,
//!   early projection),
//! * [`rows`] — the flat row-major table that is both that binding table
//!   and the engine's result type,
//! * [`backend`] — the public [`GraphEngine`] facade used by the harness.

#![warn(missing_docs)]

pub mod backend;
pub mod conjunctive;
pub mod patheval;
pub mod rows;

pub use backend::{GraphEngine, Rows};
pub use patheval::{eval_seeded, EvalCounters, Seeds};
