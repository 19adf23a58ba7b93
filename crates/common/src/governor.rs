//! The resource governor: lock-free memory accounting for query
//! execution.
//!
//! A [`ResourceGovernor`] tracks the bytes of materialised intermediate
//! state (`Relation` rows are flat `u32`s, so a relation costs
//! `rows × arity × 4` bytes) across every in-flight query, with two
//! ceilings:
//!
//! * a **per-query** limit — breaching it aborts *that query* with
//!   [`SgqError::BudgetExceeded`] instead of OOM-ing the process;
//! * a **global** limit — breaching it aborts the charging query too,
//!   and *approaching* it (the pressure threshold) is exposed via
//!   [`ResourceGovernor::under_pressure`] so the serving layer can shed
//!   load before the hard ceiling is ever hit.
//!
//! Accounting is a pair of relaxed atomic adds per materialised batch —
//! no locks, safe to call from every morsel worker concurrently. Charges
//! are released wholesale when the query's [`QueryBudget`] drops, so the
//! governor's balance returns to zero once no query is in flight (the
//! chaos harness asserts exactly this after every query).
//!
//! Like the row budget, enforcement is *at materialisation time*: the
//! error fires on the batch that crosses the ceiling, so a query can
//! overshoot by at most one operator's output batch (plus one in-flight
//! morsel per worker under parallel execution).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{Result, SgqError};

/// Bytes charged for a flat-`u32` relation of `rows` rows × `arity`
/// columns — the unit every charging point uses, kept in one place so
/// accounting can never disagree with itself.
#[inline]
pub fn relation_bytes(rows: usize, arity: usize) -> usize {
    rows.saturating_mul(arity).saturating_mul(4)
}

/// Process-wide (or service-wide) memory accounting over all in-flight
/// queries. Construction fixes the ceilings; everything else is
/// lock-free atomics.
#[derive(Debug)]
pub struct ResourceGovernor {
    /// Global ceiling in bytes (0 = unlimited).
    global_limit: usize,
    /// Bytes at which [`ResourceGovernor::under_pressure`] starts
    /// reporting `true` (0 = never).
    pressure_bytes: usize,
    /// Bytes currently charged across every live [`QueryBudget`].
    used: AtomicUsize,
    /// High-water mark of `used`.
    peak: AtomicUsize,
    /// Live [`QueryBudget`]s.
    active: AtomicUsize,
}

impl ResourceGovernor {
    /// A governor with a `global_limit`-byte ceiling (0 = unlimited) and
    /// a pressure threshold at `pressure_factor` of it (clamped to
    /// `[0, 1]`; irrelevant when unlimited).
    pub fn new(global_limit: usize, pressure_factor: f64) -> Arc<Self> {
        let f = pressure_factor.clamp(0.0, 1.0);
        Arc::new(ResourceGovernor {
            global_limit,
            pressure_bytes: if global_limit == 0 {
                0
            } else {
                ((global_limit as f64 * f) as usize).max(1)
            },
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
        })
    }

    /// A governor that only accounts (no ceilings, never under
    /// pressure).
    pub fn unlimited() -> Arc<Self> {
        Self::new(0, 1.0)
    }

    /// Opens a query's budget with a `query_limit`-byte per-query
    /// ceiling (0 = unlimited). Dropping the returned handle releases
    /// everything the query charged.
    pub fn begin(self: &Arc<Self>, query_limit: usize) -> Arc<QueryBudget> {
        self.active.fetch_add(1, Ordering::Relaxed);
        Arc::new(QueryBudget {
            governor: Arc::clone(self),
            limit: query_limit,
            used: AtomicUsize::new(0),
        })
    }

    /// Bytes currently charged across all live queries.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of [`ResourceGovernor::used`] since construction.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// The global ceiling in bytes (0 = unlimited).
    pub fn global_limit(&self) -> usize {
        self.global_limit
    }

    /// Live query budgets (opened, not yet dropped).
    pub fn active_queries(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Whether charged bytes have crossed the pressure threshold — the
    /// serving layer's cue to degrade gracefully (shrink admission)
    /// before the hard ceiling aborts queries.
    pub fn under_pressure(&self) -> bool {
        self.pressure_bytes > 0 && self.used() >= self.pressure_bytes
    }
}

/// One query's slice of the governor: charge on materialisation, release
/// wholesale on drop. Shared by `Arc` between the serial executor and
/// its morsel workers.
#[derive(Debug)]
pub struct QueryBudget {
    governor: Arc<ResourceGovernor>,
    /// Per-query ceiling in bytes (0 = unlimited).
    limit: usize,
    /// Bytes this query has charged.
    used: AtomicUsize,
}

impl QueryBudget {
    /// Charges `bytes` against the query and the governor, failing with
    /// [`SgqError::BudgetExceeded`] when either ceiling is crossed. The
    /// charge sticks even on failure (released on drop), so concurrent
    /// chargers observe a consistent balance while the query unwinds.
    pub fn charge(&self, bytes: usize) -> Result<()> {
        if bytes == 0 {
            return Ok(());
        }
        let query_total = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let global_total = self.governor.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.governor
            .peak
            .fetch_max(global_total, Ordering::Relaxed);
        if self.limit > 0 && query_total > self.limit {
            return Err(SgqError::BudgetExceeded {
                used: query_total,
                limit: self.limit,
            });
        }
        let global_limit = self.governor.global_limit;
        if global_limit > 0 && global_total > global_limit {
            return Err(SgqError::BudgetExceeded {
                used: global_total,
                limit: global_limit,
            });
        }
        Ok(())
    }

    /// Bytes this query has charged so far.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// The per-query ceiling in bytes (0 = unlimited).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The governor this budget charges into.
    pub fn governor(&self) -> &Arc<ResourceGovernor> {
        &self.governor
    }
}

impl Drop for QueryBudget {
    fn drop(&mut self) {
        let charged = *self.used.get_mut();
        self.governor.used.fetch_sub(charged, Ordering::Relaxed);
        self.governor.active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_bytes_is_rows_times_arity_times_four() {
        assert_eq!(relation_bytes(10, 2), 80);
        assert_eq!(relation_bytes(0, 3), 0);
        assert_eq!(relation_bytes(usize::MAX, 2), usize::MAX, "saturates");
    }

    #[test]
    fn per_query_ceiling_aborts_and_releases() {
        let gov = ResourceGovernor::new(0, 0.75);
        let budget = gov.begin(100);
        budget.charge(60).unwrap();
        assert_eq!(budget.used(), 60);
        assert_eq!(gov.used(), 60);
        let err = budget.charge(50).unwrap_err();
        assert!(
            matches!(
                err,
                SgqError::BudgetExceeded {
                    used: 110,
                    limit: 100
                }
            ),
            "got {err}"
        );
        // The failed charge still sticks until release.
        assert_eq!(gov.used(), 110);
        drop(budget);
        assert_eq!(gov.used(), 0, "drop releases the full balance");
        assert_eq!(gov.active_queries(), 0);
        assert_eq!(gov.peak(), 110);
    }

    #[test]
    fn global_ceiling_aborts_the_charging_query() {
        let gov = ResourceGovernor::new(100, 0.5);
        let a = gov.begin(0);
        let b = gov.begin(0);
        a.charge(70).unwrap();
        assert!(gov.under_pressure(), "70 >= 50% of 100");
        let err = b.charge(40).unwrap_err();
        assert!(err.is_budget(), "got {err}");
        drop(b);
        // The surviving query's balance is intact.
        assert_eq!(gov.used(), 70);
        drop(a);
        assert_eq!(gov.used(), 0);
    }

    #[test]
    fn unlimited_governor_only_accounts() {
        let gov = ResourceGovernor::unlimited();
        let budget = gov.begin(0);
        budget.charge(usize::MAX / 2).unwrap();
        assert!(!gov.under_pressure());
        drop(budget);
        assert_eq!(gov.used(), 0);
    }

    #[test]
    fn zero_byte_charges_are_free() {
        let gov = ResourceGovernor::new(1, 1.0);
        let budget = gov.begin(1);
        for _ in 0..1000 {
            budget.charge(0).unwrap();
        }
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn concurrent_charges_balance_to_zero() {
        let gov = ResourceGovernor::new(0, 1.0);
        let threads = 8;
        let per_thread = 1000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let budget = gov.begin(0);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        budget.charge(4).unwrap();
                    }
                    budget.used()
                })
            })
            .collect();
        let mut total = 0;
        for h in handles {
            total += h.join().unwrap();
        }
        assert_eq!(total, threads * per_thread * 4);
        assert_eq!(gov.used(), 0, "every budget dropped, balance zero");
        assert!(gov.peak() >= 4, "peak observed some charge");
    }

    #[test]
    fn pressure_threshold_tracks_the_factor() {
        let gov = ResourceGovernor::new(1000, 0.75);
        let budget = gov.begin(0);
        budget.charge(700).unwrap();
        assert!(!gov.under_pressure());
        budget.charge(50).unwrap();
        assert!(gov.under_pressure(), "750 crosses 75% of 1000");
    }
}
