//! Robustness acceptance tests for the query service.
//!
//! * Memory budgets: a query exceeding its budget — on either backend —
//!   aborts with `BudgetExceeded` while a concurrent in-budget query on
//!   the same service completes, and the governor balances back to zero.
//! * Deadlines: expiry mid-fixpoint and mid-morsel on the relational
//!   store, and mid-evaluation on the graph backend, yields a
//!   timeout error, a zero governor balance, and a pool that accepts the
//!   next query. The expiry is a `FaultKind::Expire` site, so it strikes
//!   where the test says, not where the wall clock happens to.
//! * Panic containment: an injected worker panic — in the service, on a
//!   morsel worker or inside the graph engine — surfaces to the caller as
//!   `SgqError::Internal`, is counted in metrics, and leaves the worker
//!   healthy.
//! * Fault isolation: a fault plan is a value armed on one service; a
//!   second service in the same process never sees its faults.

use std::sync::{Arc, Barrier};

use sgq_common::fault::{FaultConfig, FaultKind, FaultPlan};
use sgq_datasets::yago::{self, YagoConfig};
use sgq_service::{Backend, QueryOptions, Service, ServiceConfig};

fn service_with(config: ServiceConfig) -> Service {
    let (schema, db) = yago::generate(YagoConfig::tiny());
    Service::new(Arc::new(schema), Arc::new(db), config)
}

/// The directed acceptance test: one query runs under a budget far too
/// small for its intermediate state and must abort with
/// `BudgetExceeded`, while an in-budget query racing it on the same
/// two-worker service completes with the right rows.
#[test]
fn over_budget_query_aborts_while_concurrent_in_budget_query_completes() {
    let service = service_with(ServiceConfig::with_workers(2));
    let session = service.session();
    let opts = QueryOptions::default();

    // Fault-free reference for the in-budget query.
    let expected = session.execute("owns/isLocatedIn+", &opts).unwrap();
    assert!(
        expected.stats.rows_materialized > 0,
        "the reference query must materialise state for the budget to bite"
    );

    let tight = QueryOptions {
        max_memory: Some(16), // 16 bytes: one 4-column row already breaches
        use_cache: false,
        ..Default::default()
    };
    let roomy = QueryOptions {
        use_cache: false,
        ..Default::default()
    };
    let starved = session.submit("owns/isLocatedIn+", &tight).unwrap();
    let healthy = session.submit("influences+", &roomy).unwrap();

    let err = starved.wait().unwrap_err();
    assert!(err.is_budget(), "expected BudgetExceeded, got: {err}");
    let msg = err.to_string();
    assert!(msg.contains("memory budget"), "unactionable message: {msg}");

    let ok = healthy.wait().expect("the in-budget query must complete");
    let reference = session.execute("influences+", &opts).unwrap();
    assert_eq!(ok.rows, reference.rows);

    // The breached charge was released with the query: nothing leaks.
    assert_eq!(service.governor().used(), 0);
    assert_eq!(service.governor().active_queries(), 0);
    let m = service.metrics();
    assert!(m.errors_memory_budget >= 1, "metrics: {m}");

    // And the service still serves.
    assert_eq!(session.execute("influences+", &opts).unwrap().rows, ok.rows);
    service.shutdown();
}

#[test]
fn per_call_override_can_lift_the_configured_budget() {
    let service = service_with(ServiceConfig {
        workers: 1,
        query_memory_limit: 16, // default budget: everything breaches
        ..Default::default()
    });
    let session = service.session();
    let opts = QueryOptions {
        use_cache: false,
        ..Default::default()
    };
    let err = session.execute("owns/isLocatedIn+", &opts).unwrap_err();
    assert!(err.is_budget(), "configured default must apply: {err}");

    // `Some(0)` = unlimited for this call, overriding the config.
    let lifted = QueryOptions {
        max_memory: Some(0),
        use_cache: false,
        ..Default::default()
    };
    session
        .execute("owns/isLocatedIn+", &lifted)
        .expect("per-call override lifts the default budget");
    assert_eq!(service.governor().used(), 0);
    service.shutdown();
}

#[test]
fn graph_queries_are_charged_to_the_governor() {
    let service = service_with(ServiceConfig::with_workers(1));
    let session = service.session();
    let graph = QueryOptions {
        backend: Backend::Graph,
        use_cache: false,
        ..Default::default()
    };
    let reference = session.execute("owns/isLocatedIn+", &graph).unwrap();
    assert!(reference.stats.rows_materialized > 0);

    let tight = QueryOptions {
        max_memory: Some(16), // 16 bytes: the third pair already breaches
        ..graph
    };
    let err = session.execute("owns/isLocatedIn+", &tight).unwrap_err();
    assert!(err.is_budget(), "expected BudgetExceeded, got: {err}");
    assert_eq!(service.governor().used(), 0);
    assert_eq!(service.governor().active_queries(), 0);
    assert!(service.metrics().errors_memory_budget >= 1);

    let next = session.execute("owns/isLocatedIn+", &graph).unwrap();
    assert_eq!(next.rows, reference.rows);
    service.shutdown();
}

/// Expires `query`'s deadline at fault site `site` — mid-execution by
/// construction — and asserts the expiry is graceful:
/// a classified timeout naming the configured limit, a governor back at
/// zero, and a service that answers the same query correctly next.
fn assert_deadline_expiry_is_graceful(
    config: ServiceConfig,
    query: &str,
    opts: &QueryOptions,
    site: &'static str,
) {
    let service = service_with(config);
    let session = service.session();
    // Warm pass (also fills the plan cache): the reference rows.
    let reference = session.execute(query, opts).expect("warm pass");

    let faults = FaultPlan::new(FaultConfig {
        seed: 1,
        probability: 1.0,
        site: Some(site),
        kind: FaultKind::Expire,
    });
    service.set_fault_plan(Some(Arc::clone(&faults)));
    let err = session.execute(query, opts).unwrap_err();
    assert!(err.is_timeout(), "deadline expiry must classify: {err}");
    let limit_ms = ServiceConfig::default().default_timeout_ms;
    assert!(err.to_string().contains(&limit_ms.to_string()), "{err}");
    // (Morsels already in flight may each reach the site once more.)
    assert!(faults.fired()[site] >= 1);
    service.set_fault_plan(None);

    // Partial state of the cancelled query is fully released.
    assert_eq!(service.governor().used(), 0, "governor leaked");
    assert_eq!(service.governor().active_queries(), 0);
    assert_eq!(service.metrics().timeouts, 1);
    // The worker survived: the next query is admitted and runs.
    let next = session.execute(query, opts).expect("pool serves on");
    assert_eq!(next.rows, reference.rows);
    service.shutdown();
}

#[test]
fn deadline_expiry_mid_fixpoint_is_graceful_under_every_layout() {
    let config = ServiceConfig {
        workers: 1,
        ..Default::default()
    };
    // `influences+` is a transitive closure: rounds of a fixpoint.
    let opts = QueryOptions::default();
    assert_deadline_expiry_is_graceful(config, "influences+", &opts, "exec.fixpoint_round");
}

#[test]
fn deadline_expiry_mid_morsel_is_graceful_under_every_layout() {
    let config = ServiceConfig {
        workers: 1,
        // Force every probe to split into 2-row morsels at DOP 4 so the
        // deadline lands inside a parallel section.
        default_dop: 4,
        max_dop: 4,
        parallel_row_threshold: 1,
        morsel_rows: 2,
        ..Default::default()
    };
    let opts = QueryOptions {
        dop: Some(4),
        ..Default::default()
    };
    assert_deadline_expiry_is_graceful(config, "owns/isLocatedIn+", &opts, "exec.morsel");
}

#[test]
fn deadline_expiry_mid_graph_evaluation_is_graceful() {
    let config = ServiceConfig::with_workers(1);
    let opts = QueryOptions {
        backend: Backend::Graph,
        ..Default::default()
    };
    assert_deadline_expiry_is_graceful(config, "owns/isLocatedIn+", &opts, "engine.eval");
}

#[test]
fn deadline_expiry_mid_graph_expansion_is_graceful() {
    let config = ServiceConfig::with_workers(1);
    let opts = QueryOptions {
        backend: Backend::Graph,
        ..Default::default()
    };
    assert_deadline_expiry_is_graceful(config, "owns/isLocatedIn+", &opts, "engine.expand");
}

/// The real-clock path: a deadline that has passed by the time a worker
/// picks the query up expires it at the first poll, on both backends.
#[test]
fn an_already_expired_deadline_is_a_timeout_on_both_backends() {
    let service = service_with(ServiceConfig::with_workers(1));
    let session = service.session();
    for backend in [Backend::Relational, Backend::Graph] {
        let opts = QueryOptions {
            backend,
            timeout_ms: Some(0),
            ..Default::default()
        };
        let err = session.execute("influences+", &opts).unwrap_err();
        assert!(err.is_timeout(), "{backend}: {err}");
        assert_eq!(service.governor().used(), 0);
        let roomy = QueryOptions {
            backend,
            ..Default::default()
        };
        assert!(!session
            .execute("influences+", &roomy)
            .unwrap()
            .rows
            .is_empty());
    }
    service.shutdown();
}

#[test]
fn injected_worker_panic_is_contained_as_internal_error() {
    // A panic on the job's own thread (`service.dispatch`), one on a
    // morsel worker (`exec.morsel`, every operator forced parallel: a
    // join, as a one-label closure runs no morsel), which must travel
    // back to the job before it can be contained, and two inside the
    // graph engine (`engine.eval`, `engine.expand`). On its own thread
    // under a watchdog: a lost morsel panic shows as a query that never
    // answers.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        for (site, backend, query) in [
            ("service.dispatch", Backend::Relational, "influences+"),
            ("exec.morsel", Backend::Relational, "owns/isLocatedIn+"),
            ("engine.eval", Backend::Graph, "influences+"),
            ("engine.expand", Backend::Graph, "influences+"),
        ] {
            let service = service_with(ServiceConfig {
                default_dop: 4,
                max_dop: 4,
                parallel_row_threshold: 1,
                morsel_rows: 2,
                ..ServiceConfig::with_workers(1)
            });
            let session = service.session();
            let opts = QueryOptions {
                backend,
                ..Default::default()
            };
            let reference = session.execute(query, &opts).unwrap();

            let faults = FaultPlan::new(FaultConfig {
                seed: 1,
                probability: 1.0,
                site: Some(site),
                kind: FaultKind::Panic,
            });
            service.set_fault_plan(Some(Arc::clone(&faults)));
            let err = session.execute(query, &opts).unwrap_err();
            assert!(err.is_internal(), "panic must surface as Internal: {err}");
            let msg = err.to_string();
            assert!(msg.contains("worker panicked"), "message: {msg}");
            assert!(msg.contains(site), "payload preserved: {msg}");
            assert!(faults.fired()[site] >= 1);
            service.set_fault_plan(None);

            let m = service.metrics();
            assert_eq!(m.worker_panics, 1, "containment is counted: {m}");
            assert_eq!(service.governor().used(), 0);

            // The same worker serves the next query, disarmed.
            let after = session.execute(query, &opts).unwrap();
            assert_eq!(after.rows, reference.rows);
            service.shutdown();
        }
        done_tx.send(()).unwrap();
    });
    let done = done_rx.recv_timeout(std::time::Duration::from_secs(30));
    assert!(
        done != Err(std::sync::mpsc::RecvTimeoutError::Timeout),
        "a panicking worker hung its query or the shutdown"
    );
    body.join().unwrap();
}

#[test]
fn injected_transients_are_classified_retryable_and_retried_away() {
    let service = service_with(ServiceConfig::with_workers(1));
    let session = service.session();
    let opts = QueryOptions {
        use_cache: false, // visit every fault site on every attempt
        ..Default::default()
    };
    let reference = session.execute("owns/isLocatedIn+", &opts).unwrap();

    service.set_fault_plan(Some(FaultPlan::new(FaultConfig::errors(3, 0.2))));
    let policy = sgq_service::RetryPolicy::unbounded(3);
    let (result, retries) =
        sgq_service::retry_with_backoff(policy, || session.execute("owns/isLocatedIn+", &opts));
    assert_eq!(result.unwrap().rows, reference.rows);
    // p=0.2 across ~10 sites per attempt: some attempt must have failed.
    assert!(retries > 0, "no transient fired at p=0.2");
    let m = service.metrics();
    assert!(m.errors_transient >= 1, "metrics classify transients: {m}");
    assert_eq!(service.governor().used(), 0);
    service.shutdown();
}

/// Two services in one process, driven concurrently: the one armed at
/// p = 1.0 fails every query with a transient, the disarmed one never
/// sees a fault. (At the parent commit the plan was process-global and
/// the disarmed service returned `Transient` too.)
#[test]
fn an_armed_service_never_leaks_faults_into_a_disarmed_one() {
    const ROUNDS: usize = 25;
    let armed = service_with(ServiceConfig::with_workers(1));
    let disarmed = service_with(ServiceConfig::with_workers(1));
    let plan = FaultPlan::new(FaultConfig::errors(11, 1.0));
    armed.set_fault_plan(Some(Arc::clone(&plan)));
    let opts = QueryOptions {
        use_cache: false,
        ..Default::default()
    };
    let reference = disarmed.session().execute("influences+", &opts).unwrap();

    // The barrier makes every round's two queries overlap in time.
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let session = armed.session();
            for _ in 0..ROUNDS {
                barrier.wait();
                let err = session.execute("influences+", &opts).unwrap_err();
                assert!(err.is_transient(), "armed at p=1.0 must fire: {err}");
            }
        });
        s.spawn(|| {
            let session = disarmed.session();
            for _ in 0..ROUNDS {
                barrier.wait();
                let resp = session
                    .execute("influences+", &opts)
                    .expect("a disarmed service is structurally unable to fire");
                assert_eq!(resp.rows, reference.rows);
            }
        });
    });
    assert_eq!(plan.fired().values().sum::<u64>(), ROUNDS as u64);
    assert_eq!(disarmed.metrics().errors_transient, 0);
    assert_eq!(armed.metrics().errors_transient, ROUNDS as u64);
    armed.shutdown();
    disarmed.shutdown();
}
