//! A concurrent query service over the schema-graph-query engines.
//!
//! The paper's pipeline — parse → schema-based rewrite (§3) → optimise →
//! plan (§4) — is pure front-end work; this crate amortises it behind
//! prepared statements and serves many concurrent clients from one
//! loaded database, the way production graph optimisers (e.g. GOpt)
//! serve prepared plans:
//!
//! * [`prepared`] — [`PreparedQuery`]: the front-end runs exactly once
//!   and freezes an immutable, `Send + Sync` artifact (physical plan +
//!   column metadata) shared via `Arc`,
//! * [`cache`] — [`PlanCache`]: a sharded LRU keyed by (canonical query
//!   text, schema version, backend, approach), with
//!   hit/miss/eviction counters and whole-cache invalidation on schema
//!   version bumps,
//! * [`sgq_common::pool::TaskScheduler`], twice: one instance runs the
//!   query jobs behind a bounded queue — a full queue rejects at
//!   admission ([`sgq_common::SgqError::Busy`]) instead of growing
//!   latency, and shutdown drains gracefully — and a second one runs the
//!   morsels of `dop > 1` queries,
//! * [`service`] — [`Service`] / [`Session`]: submit a query string or
//!   parsed expression with per-call options (backend, timeout, row
//!   budget, cache bypass), get rows plus execution stats,
//! * [`metrics`] — [`MetricsRegistry`]: QPS, p50/p95/p99 latency, cache
//!   hit rate, per-error-kind counts and per-operator-kind profiles,
//!   exported as text or JSON.
//!
//! Observability rides on [`sgq_obs`]: a per-service
//! [`Tracer`](sgq_obs::Tracer) samples query lifecycles into phase +
//! operator spans ([`ServiceConfig::tracing`],
//! [`Session::recent_traces`], Chrome-trace export via
//! [`sgq_obs::chrome_traces_json`]), a
//! [`SlowQueryLog`](sgq_obs::SlowQueryLog) captures over-threshold
//! queries ([`Session::drain_slow_queries`]), and
//! [`QueryOptions::analyze`] returns the structured `EXPLAIN ANALYZE` of
//! the production execution.
//!
//! ```
//! use std::sync::Arc;
//! use sgq_service::{QueryOptions, Service, ServiceConfig};
//!
//! let schema = Arc::new(sgq_graph::schema::fig1_yago_schema());
//! let db = Arc::new(sgq_graph::database::fig2_yago_database());
//! let service = Service::new(schema, db, ServiceConfig::with_workers(2));
//!
//! let session = service.session();
//! let resp = session
//!     .execute("livesIn/isLocatedIn+", &QueryOptions::default())
//!     .unwrap();
//! assert!(!resp.rows.is_empty());
//! // The second execution of the same statement is a plan-cache hit.
//! let again = session
//!     .execute("livesIn/isLocatedIn+", &QueryOptions::default())
//!     .unwrap();
//! assert_eq!(again.rows, resp.rows);
//! assert!(service.metrics().cache.hits >= 1);
//! service.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod prepared;
pub mod retry;
pub mod service;

pub use cache::{CacheKey, CacheOutcome, CacheStats, PlanCache};
pub use metrics::{LatencyHistogram, MetricsRegistry, MetricsSnapshot};
pub use prepared::{prepare, Answer, Approach, Backend, PreparedQuery};
pub use retry::{retry_with_backoff, retrying, RetryPolicy};
pub use service::{
    PendingQuery, QueryOptions, QueryResponse, QueryStats, Service, ServiceConfig, Session,
};

// The serving contract: everything shared across sessions and workers
// must be `Send + Sync`. Compile-time assertions (the upstream halves of
// this audit live in `sgq_graph` and `sgq_ra`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<sgq_common::pool::TaskScheduler>();
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<Service>();
    assert_send_sync::<Session>();
    assert_send_sync::<sgq_obs::Tracer>();
    assert_send_sync::<sgq_obs::SlowQueryLog>();
    assert_send_sync::<sgq_obs::QueryTrace>();
};
