//! The paper's primary contribution: **schema-based query rewriting**.
//!
//! Pipeline (§3, Fig. 10's Rewriter module):
//!
//! 1. [`mod@simplify`] — preliminary path simplification, rules R1–R5 (Fig. 6),
//! 2. [`infer`] — the type-inference system `⊢S ϕ : t` (Fig. 8) computing
//!    the compatible-triple set `TS(ϕ)`,
//! 3. [`plc`] — the `PlC` algorithm for transitive closure (Def. 8),
//! 4. `merge` — triple merging `MS(ϕ)` (Def. 9),
//! 5. [`redundant`] — redundant-annotation removal (§3.2.2),
//! 6. `translate` — merged triples back to CQTs (`Q`, Fig. 9), distributed
//!    into the schema-enriched union (Def. 11),
//! 7. [`pipeline`] — the end-to-end rewriter with revert detection (§5.2),
//!    under one configuration ([`RewriteOptions`]: a redundancy rule and
//!    three budgets).
//!
//! Steps 2–6 run on ids into one hash-consed arena per call (`arena`):
//! each distinct annotated expression is added once, with its strip,
//! merge shape, annotation flag and endpoint labels computed then. Trees
//! are built only for what leaves the rewrite, the relations of the
//! rewritten query. The schema-only facts the steps read — each edge
//! label's endpoint labels and the simple paths `PlC` enumerates for
//! `l+` — are `sgq_graph`'s, built once per schema. Nothing is cached per
//! query.

#![warn(missing_docs)]

mod arena;
pub mod infer;
mod merge;
pub mod pipeline;
pub mod plc;
pub mod redundant;
pub mod simplify;
mod translate;
pub mod triple;

pub use infer::infer_triples;
pub use pipeline::{rewrite_path, rewrite_ucqt, RewriteOptions, RewriteOutcome, RewriteReport};
pub use plc::PlusStats;
pub use redundant::RedundancyRule;
pub use simplify::simplify;
pub use triple::Triple;
