//! Deterministic fault injection for robustness testing.
//!
//! A *fault point* is a named site in the engine (`"exec.scan"`,
//! `"service.dispatch"`, ...) guarded by the
//! [`faultpoint!`](crate::faultpoint) macro, which takes the caller's
//! `Option<Arc<FaultPlan>>` handle. With no plan — the default, and the
//! only state production code ever sees — a fault point is one
//! predicted-not-taken `Option` check: effectively free, and
//! *structurally* unable to fire. With a [`FaultPlan`], each visit
//! consults the plan's seeded SplitMix64 stream and, with the configured
//! probability, either returns [`SgqError::Transient`] (the common case:
//! a classified, retryable failure), panics (to exercise the serving
//! layer's panic containment) or expires the visiting query's deadline.
//!
//! The plan is a *value*: a service owns its handle and stamps it on the
//! execution context of every query it runs, so two services in one
//! process — one armed, one not — never see each other's faults.
//!
//! Determinism: the decision stream is a single seeded generator
//! consumed in visit order, so a *sequential* workload against one plan
//! replays the exact same fault schedule for the same seed.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::error::{Result, SgqError};
use crate::rng::Rng;

/// What a fault point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return [`SgqError::Transient`] naming the site (retryable).
    Error,
    /// Panic with a message naming the site (exercises containment).
    Panic,
    /// Return [`SgqError::Timeout`]: the visiting query's deadline
    /// expires here, on purpose instead of by wall-clock luck.
    Expire,
}

/// A fault-injection plan's parameters: which sites fire, how often,
/// and how.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the SplitMix64 decision stream.
    pub seed: u64,
    /// Per-visit fire probability in `[0, 1]`.
    pub probability: f64,
    /// Restrict firing to this site (`None` = every site).
    pub site: Option<&'static str>,
    /// What firing does.
    pub kind: FaultKind,
}

impl FaultConfig {
    /// A plan firing [`FaultKind::Error`] at every site with the given
    /// seed and probability.
    pub fn errors(seed: u64, probability: f64) -> Self {
        FaultConfig {
            seed,
            probability,
            site: None,
            kind: FaultKind::Error,
        }
    }
}

/// Per-site counts (fires or visits) of one [`FaultPlan`].
pub type FireReport = BTreeMap<&'static str, u64>;

struct PlanState {
    rng: Rng,
    fired: FireReport,
    visited: FireReport,
}

/// One armed fault plan: the seeded decision stream plus its fire and
/// visit reports. Shared as `Arc<FaultPlan>` between whoever arms it
/// (and later reads the reports) and the service / execution contexts
/// that visit its fault points.
pub struct FaultPlan {
    probability: f64,
    site: Option<&'static str>,
    kind: FaultKind,
    state: Mutex<PlanState>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("probability", &self.probability)
            .field("site", &self.site)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// Builds the plan `config` describes.
    pub fn new(config: FaultConfig) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            probability: config.probability.clamp(0.0, 1.0),
            site: config.site,
            kind: config.kind,
            state: Mutex::new(PlanState {
                rng: Rng::seed_from_u64(config.seed),
                fired: FireReport::new(),
                visited: FireReport::new(),
            }),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, PlanState> {
        // An injected panic releases the guard first (see `check`).
        self.state
            .lock()
            .expect("no code panics while holding the fault-plan lock")
    }

    /// How many times each site fired so far.
    pub fn fired(&self) -> FireReport {
        self.state().fired.clone()
    }

    /// How often execution reached each (unfiltered) site, fired or not.
    pub fn visited(&self) -> FireReport {
        self.state().visited.clone()
    }

    /// The slow path behind [`faultpoint!`](crate::faultpoint): one
    /// visit of `site`, firing with the configured probability.
    pub fn check(&self, site: &'static str) -> Result<()> {
        if self.site.is_some_and(|only| only != site) {
            return Ok(());
        }
        let mut state = self.state();
        *state.visited.entry(site).or_insert(0) += 1;
        if !state.rng.gen_bool(self.probability) {
            return Ok(());
        }
        *state.fired.entry(site).or_insert(0) += 1;
        match self.kind {
            FaultKind::Error => Err(SgqError::Transient { site }),
            FaultKind::Expire => Err(SgqError::Timeout { limit_ms: 0 }),
            FaultKind::Panic => {
                // Release the lock before unwinding so the containment
                // layer can still reach the plan.
                drop(state);
                panic!("injected fault at {site}");
            }
        }
    }
}

/// Guards a named fault-injection site against the caller's
/// `Option<Arc<FaultPlan>>` handle.
///
/// Expands to an `Option` check when the handle is `None` — zero cost on
/// every production path — and to a [`FaultPlan::check`] call (which may
/// return `Err(SgqError::Transient)` via `?`, or panic under a
/// [`FaultKind::Panic`] plan) when a plan is present.
///
/// ```
/// # use std::sync::Arc;
/// # use sgq_common::fault::FaultPlan;
/// # fn scan(faults: &Option<Arc<FaultPlan>>) -> sgq_common::Result<()> {
/// sgq_common::faultpoint!(faults, "exec.scan");
/// # Ok(())
/// # }
/// ```
#[macro_export]
macro_rules! faultpoint {
    ($plan:expr, $site:literal) => {
        if let Some(plan) = &$plan {
            plan.check($site)?;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(faults: &Option<Arc<FaultPlan>>) -> Result<()> {
        faultpoint!(faults, "test.a");
        faultpoint!(faults, "test.b");
        Ok(())
    }

    #[test]
    fn no_plan_is_a_no_op() {
        for _ in 0..100 {
            visit(&None).unwrap();
        }
    }

    #[test]
    fn probability_one_fires_every_visit() {
        let plan = Some(FaultPlan::new(FaultConfig::errors(42, 1.0)));
        let err = visit(&plan).unwrap_err();
        assert_eq!(err, SgqError::Transient { site: "test.a" });
    }

    #[test]
    fn site_filter_restricts_firing() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 7,
            probability: 1.0,
            site: Some("test.b"),
            kind: FaultKind::Error,
        });
        // test.a is visited first but filtered out; test.b fires.
        let err = visit(&Some(Arc::clone(&plan))).unwrap_err();
        assert_eq!(err, SgqError::Transient { site: "test.b" });
        let report = plan.fired();
        assert_eq!(report.get("test.b"), Some(&1));
        assert_eq!(report.get("test.a"), None);
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = Some(FaultPlan::new(FaultConfig::errors(seed, 0.3)));
            (0..64).map(|_| visit(&plan).is_err()).collect()
        };
        let a = run(99);
        let b = run(99);
        let c = run(100);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.iter().any(|&f| f), "p=0.3 over 64 visits fires");
        assert!(!a.iter().all(|&f| f), "...but not every time");
    }

    #[test]
    fn reports_count_per_site() {
        let plan = FaultPlan::new(FaultConfig::errors(5, 1.0));
        let handle = Some(Arc::clone(&plan));
        for _ in 0..3 {
            let _ = visit(&handle);
        }
        assert_eq!(plan.visited().get("test.a"), Some(&3));
        assert_eq!(
            plan.fired().get("test.a"),
            Some(&3),
            "fires on first site only"
        );
        assert_eq!(plan.fired().get("test.b"), None);
    }

    #[test]
    fn two_plans_are_independent() {
        let armed = Some(FaultPlan::new(FaultConfig::errors(1, 1.0)));
        let quiet = Some(FaultPlan::new(FaultConfig::errors(1, 0.0)));
        assert!(visit(&armed).is_err());
        visit(&quiet).unwrap();
        visit(&None).unwrap();
    }

    #[test]
    fn panic_kind_panics_with_the_site_name() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 1,
            probability: 1.0,
            site: None,
            kind: FaultKind::Panic,
        });
        let handle = Some(Arc::clone(&plan));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = visit(&handle);
        }))
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "injected fault at test.a");
        assert_eq!(
            plan.fired().get("test.a"),
            Some(&1),
            "plan survives the panic"
        );
    }
}
