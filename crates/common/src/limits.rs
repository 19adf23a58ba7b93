//! The limits of one query execution — the one implementation of the
//! paper's §5.1.5 protocol (same timeout, same infeasibility rule) for
//! both backends: the relational interpreter, its inline kernels and
//! morsel tasks, and the graph engine's path evaluation and pattern
//! steps all poll and record through a [`Limits`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{Result, SgqError};
use crate::fault::FaultPlan;
use crate::governor::{relation_bytes, QueryBudget};

/// Deadline, row and memory budgets, fault plan and the shared counters
/// of one execution. The default has no deadline, no budget and no plan:
/// every poll succeeds and every fault site is inert. Clones share the
/// row counter and the cancel flag.
#[derive(Clone, Debug, Default)]
pub struct Limits {
    /// Cooperative deadline (absolute, so queue wait counts against it).
    pub deadline: Option<Instant>,
    /// The timeout reported by [`SgqError::Timeout`], in milliseconds.
    pub limit_ms: u64,
    /// Abort once this many rows have been recorded (0 = unlimited).
    pub max_rows: usize,
    /// Memory budget charged by every [`record`](Limits::record).
    pub budget: Option<Arc<QueryBudget>>,
    /// The fault plan [`fault`](Limits::fault) sites consult.
    pub faults: Option<Arc<FaultPlan>>,
    /// Rows recorded so far.
    pub rows: Arc<AtomicUsize>,
    /// Trips when a poll, a record or a fault site fails, so sibling
    /// tasks stop at their next poll; fresh per execution.
    pub cancelled: Arc<AtomicBool>,
}

const CANCEL_SENTINEL: &str = "parallel section cancelled";

/// The error a task returns when it observed the shared cancel flag
/// (some other task already hit the real limit).
fn cancelled() -> SgqError {
    SgqError::Execution(CANCEL_SENTINEL.into())
}

/// Whether `e` is the cancellation sentinel rather than a real failure;
/// whoever gathers sibling results drops it in favour of the real error.
pub fn is_cancelled(e: &SgqError) -> bool {
    matches!(e, SgqError::Execution(m) if m == CANCEL_SENTINEL)
}

impl Limits {
    /// Trips the cancel flag on the way out with a real error.
    fn cancel(&self, e: SgqError) -> SgqError {
        self.cancelled.store(true, Ordering::Relaxed);
        e
    }

    fn timeout(&self) -> SgqError {
        SgqError::Timeout {
            limit_ms: self.limit_ms,
        }
    }

    /// The cooperative check: exits fast once a sibling tripped the
    /// cancel flag, else checks the deadline.
    pub fn poll(&self) -> Result<()> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(cancelled());
        }
        match self.deadline {
            Some(d) if Instant::now() > d => Err(self.cancel(self.timeout())),
            _ => Ok(()),
        }
    }

    /// Accounts `rows` materialised rows and enforces the row and memory
    /// budgets *at materialisation time*: the error fires on the batch
    /// that crosses the budget, so an oversized operator can overshoot
    /// by at most its own output (a top-level operator would never be
    /// polled again), and a parallel one by the morsels already in
    /// flight (about one per worker). Budget errors are *real* errors,
    /// not cancel sentinels.
    pub fn record(&self, rows: usize, arity: usize) -> Result<()> {
        let total = self.rows.fetch_add(rows, Ordering::Relaxed) + rows;
        if self.max_rows > 0 && total > self.max_rows {
            return Err(self.cancel(SgqError::RowBudget {
                rows: total,
                budget: self.max_rows,
            }));
        }
        match &self.budget {
            Some(budget) => budget
                .charge(relation_bytes(rows, arity))
                .map_err(|e| self.cancel(e)),
            None => Ok(()),
        }
    }

    /// One visit of the fault site `site`: inert without a plan. A firing
    /// [`FaultKind::Expire`](crate::fault::FaultKind::Expire) plan reads
    /// as this execution's own deadline expiring.
    pub fn fault(&self, site: &'static str) -> Result<()> {
        let Some(plan) = &self.faults else {
            return Ok(());
        };
        plan.check(site).map_err(|e| {
            self.cancel(match e {
                SgqError::Timeout { .. } => self.timeout(),
                other => other,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultKind};

    #[test]
    fn cancellation_sentinel_roundtrips() {
        assert!(is_cancelled(&cancelled()));
        assert!(!is_cancelled(&SgqError::Execution("other".into())));
        assert!(!is_cancelled(&SgqError::Timeout { limit_ms: 1 }));
    }

    #[test]
    fn a_breach_cancels_every_clone() {
        let limits = Limits {
            max_rows: 3,
            ..Default::default()
        };
        let sibling = limits.clone();
        limits.record(3, 2).unwrap();
        sibling.poll().unwrap();
        let err = sibling.record(1, 2).unwrap_err();
        assert_eq!(err, SgqError::RowBudget { rows: 4, budget: 3 });
        assert!(is_cancelled(&limits.poll().unwrap_err()));
        assert_eq!(limits.rows.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn an_expire_fault_reads_as_the_deadline_passing() {
        let mut limits = Limits {
            limit_ms: 250,
            ..Default::default()
        };
        limits.fault("test.site").unwrap();
        limits.faults = Some(FaultPlan::new(FaultConfig {
            seed: 1,
            probability: 1.0,
            site: Some("test.site"),
            kind: FaultKind::Expire,
        }));
        limits.fault("test.other").unwrap();
        let err = limits.fault("test.site").unwrap_err();
        assert_eq!(err, SgqError::Timeout { limit_ms: 250 });
        assert!(is_cancelled(&limits.poll().unwrap_err()));
    }
}
