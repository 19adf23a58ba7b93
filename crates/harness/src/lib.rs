//! The experiment harness: reproduces every table and figure of the
//! paper's evaluation (§5) and gates the engine's invariants in CI.
//!
//! * [`replay`] — the one replay driver every experiment executes
//!   through: [`Catalogs`](replay::Catalogs) (datasets, parsed catalogs
//!   and relational stores built once per process),
//!   [`Variant`](replay::Variant) (backend × approach × morsel sizing ×
//!   traced × fault plan × memo cold/warm × direct or through a
//!   service), the timeout / mean-of-repeats protocol of §5.1.5, the
//!   bit-identity comparator against a named reference variant, the
//!   table renderer and the JSON emitter,
//! * [`gates`] — the replay-driven experiments, each a variant list plus
//!   a gate predicate: `parallel`, `estimates`, `observe`, `serve`,
//!   `chaos` (CI runs them all, armed, in one
//!   `sgq-experiments … --smoke` process),
//! * [`experiments`] — one function per paper table/figure, each
//!   returning a printable report (the suites replay every catalog
//!   query baseline vs schema-rewritten and read their records off the
//!   passes), plus the `plans` showcase and the Fig. 2 cross-backend
//!   `smoke`,
//! * [`summary`] — box-plot statistics (Tabs. 7/8, Figs. 13/14),
//! * [`records`] — serialisable raw measurements (dumped via
//!   `sgq-experiments --out results.json` so every number is
//!   regenerable).

#![warn(missing_docs)]

pub mod experiments;
pub mod gates;
pub mod records;
pub mod replay;
pub mod summary;

pub use records::RunRecord;
pub use sgq_common::{Approach, Backend};
pub use summary::Summary;
