//! A recursive relational algebra engine in the style of µ-RA — the
//! paper's RDBMS backend substitute (§4 "Translator"/"Backend").
//!
//! * [`symbols`] — the interned column / recursion-variable name space
//!   ([`SymbolTable`]): the RA stack compares `u32` ids everywhere and
//!   resolves strings only at its edges,
//! * [`table`] — set-semantics relations with interned columns and
//!   `Arc`-shared row buffers (clones, renames and scans are O(1)),
//! * [`storage`] — the relational representation of a property graph
//!   (Fig. 11): per-label edge tables, their precomputed endpoint-label
//!   slices and the node tables, handed out zero-copy, plus the
//!   database's per-edge-label forward/reverse CSR adjacency indexes,
//! * [`term`] — the RA term language (σ/π/ρ/⋈/⋉/∪ and the fixpoint µ),
//! * [`optimize`] — µ-RA-style rewritings: semi-join pushdown through
//!   joins and *into fixpoints*, plus greedy join ordering,
//! * [`mod@plan`] — lowering of optimised terms into physical plans with
//!   cost-chosen operators (CSR index joins vs merge vs hash, build
//!   sides, fused filtered scans, cached fixpoint build sides),
//! * [`exec`] — a semi-naive bottom-up interpreter over physical plans
//!   with cooperative timeouts and optional morsel-driven intra-query
//!   parallelism ([`ExecContext::dop`](exec::ExecContext)),
//! * [`parallel`] — morsel partitioning helpers and the scheduler
//!   morsels run on (the workspace's one thread pool, re-exported),
//! * [`cost`] — cardinality estimation over [`sgq_graph::GraphStats`]:
//!   a pure function of the term and the statistics,
//! * [`explain`] — physical plan rendering with per-operator strategy,
//!   estimated cost/rows and actual rows (the paper's Fig. 17, one
//!   level lower).

#![warn(missing_docs)]

pub mod cost;
pub mod exec;
pub mod explain;
pub mod optimize;
pub mod parallel;
pub mod plan;
pub mod storage;
pub mod symbols;
pub mod table;
pub mod term;

pub use exec::{execute, execute_plan, ExecContext};
pub use parallel::TaskScheduler;
pub use plan::{plan, PhysOp, PhysPlan};
pub use storage::RelStore;
pub use symbols::SymbolTable;
pub use table::{Col, Relation};
pub use term::RaTerm;

// Concurrency audit: the serving layer (`sgq_service`) executes prepared
// physical plans against one shared `RelStore` from many worker threads
// (`Arc<RelStore>`, `Arc<PreparedQuery>` holding a `PhysPlan`). The store's
// tables and plans are immutable after load/prepare, and the only mutable
// piece — the `SymbolTable` interner — is internally synchronised, so all
// of these must stay `Send + Sync`. Compile-time assertions so a
// regression fails the build, not a race.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RelStore>();
    assert_send_sync::<SymbolTable>();
    assert_send_sync::<PhysPlan>();
    assert_send_sync::<Relation>();
    assert_send_sync::<RaTerm>();
};
