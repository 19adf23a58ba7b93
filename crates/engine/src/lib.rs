//! The property-graph query engine (the paper's GDBMS backend substitute).
//!
//! Evaluates UCQT queries directly over a [`sgq_graph::GraphDatabase`]:
//!
//! * [`patheval`] — seeded pair-set evaluation of path expressions over
//!   CSR adjacency, every `l+` through `sgq_graph::closure`,
//! * `expand` — the kernel every *chain* CQT runs through (the baseline's
//!   path query and almost every rewritten disjunct): one seeded walk of
//!   `(origin, current)` pairs hop by hop over CSR, the union's disjuncts
//!   merged into a prefix trie, in the direction with the smaller first
//!   frontier,
//! * [`conjunctive`] — a binding-table executor for the CQTs that are not
//!   chains (cycles, branching patterns): greedy join ordering, semi-join
//!   pushdown of label atoms and bound variables, early projection,
//! * [`rows`] — the flat row-major table that is both that binding table
//!   and the engine's result type,
//! * [`backend`] — the public [`GraphEngine`] facade used by the harness.

#![warn(missing_docs)]

pub mod backend;
pub mod conjunctive;
mod expand;
pub mod patheval;
pub mod rows;

pub use backend::{GraphEngine, Rows};
pub use patheval::{eval_seeded, EvalCounters, Seeds};
