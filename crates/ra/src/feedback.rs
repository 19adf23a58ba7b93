//! The cardinality feedback memo: runtime row counts fed back into the
//! cost model.
//!
//! Execution observes the true cardinality of every *static* plan
//! subtree at the points where rows are already being counted for the
//! materialisation budget — feedback costs no extra pass. Observations
//! are keyed by a structural **fingerprint** of the logical subtree
//! (operator kinds, edge labels, node-label filters and join-key
//! *positions* — see [`crate::cost`]), so the memo is invariant under
//! column renaming and under the physical strategy chosen (a hash join
//! and an index join of the same logical join share one entry).
//!
//! Each entry keeps an exponentially-decayed running estimate: a new
//! observation `r` folds in as
//!
//! ```text
//! w' = w · DECAY + 1          rows' = (rows · w · DECAY + r) / w'
//! ```
//!
//! so repeated observations converge while stale history fades with
//! half-weight per observation ([`DECAY`] = 0.5). The `weight` doubles
//! as a confidence signal: it approaches `1 / (1 - DECAY)` as evidence
//! accumulates.
//!
//! The memo is sharded and lock-free on the read path's fast exit
//! (per-shard mutexes, no global lock), and lives on the shared
//! [`crate::RelStore`] behind interior mutability: every service worker
//! executing against the store feeds the same memo, and a schema change
//! clears it alongside the plan cache.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use sgq_common::FxHashMap;

/// Per-observation decay of the accumulated weight: the previous
/// estimate keeps half its weight when a new observation arrives.
pub const DECAY: f64 = 0.5;

/// Number of independently locked shards (power of two).
const SHARDS: usize = 16;

/// One remembered cardinality: the decayed running row count and the
/// accumulated evidence weight (`>= 1` once observed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Exponentially-decayed observed row count.
    pub rows: f64,
    /// Accumulated evidence weight (confidence); bounded by
    /// `1 / (1 - DECAY)`.
    pub weight: f64,
}

/// The concurrent fingerprint → observed-cardinality map.
#[derive(Debug)]
pub struct FeedbackMemo {
    shards: Vec<Mutex<FxHashMap<u64, Observation>>>,
    enabled: AtomicBool,
}

impl Default for FeedbackMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl FeedbackMemo {
    /// An empty, enabled memo.
    pub fn new() -> Self {
        FeedbackMemo {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            enabled: AtomicBool::new(true),
        }
    }

    fn shard(&self, fp: u64) -> &Mutex<FxHashMap<u64, Observation>> {
        // High bits: the fingerprints are already well-mixed hashes.
        &self.shards[(fp >> 58) as usize % SHARDS]
    }

    /// Whether estimation consults and execution populates the memo.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns feedback on or off (off = cold planning, e.g. for an
    /// ablation baseline). Existing observations are kept.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The remembered observation for `fp`. `None` when never observed
    /// or the memo is disabled.
    pub fn lookup(&self, fp: u64) -> Option<Observation> {
        if !self.is_enabled() {
            return None;
        }
        let shard = self.shard(fp).lock().unwrap_or_else(|e| e.into_inner());
        shard.get(&fp).copied()
    }

    /// Folds an observed row count into the entry for `fp` with the
    /// decay rule above. No-op while disabled.
    pub fn observe(&self, fp: u64, rows: usize) {
        if !self.is_enabled() {
            return;
        }
        let mut shard = self.shard(fp).lock().unwrap_or_else(|e| e.into_inner());
        let entry = shard.entry(fp).or_insert(Observation {
            rows: rows as f64,
            weight: 0.0,
        });
        let carried = entry.weight * DECAY;
        entry.rows = (entry.rows * carried + rows as f64) / (carried + 1.0);
        entry.weight = carried + 1.0;
    }

    /// Drops every observation (schema change: observed cardinalities
    /// are no longer about the current data).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// Distinct fingerprints currently remembered.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether no observation is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_is_remembered_exactly() {
        let memo = FeedbackMemo::new();
        assert!(memo.is_empty());
        assert_eq!(memo.lookup(42), None);
        memo.observe(42, 100);
        let obs = memo.lookup(42).expect("remembered");
        assert_eq!(obs.rows, 100.0);
        assert_eq!(obs.weight, 1.0);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn repeated_observations_decay_towards_recent() {
        let memo = FeedbackMemo::new();
        memo.observe(7, 1000);
        memo.observe(7, 0);
        let obs = memo.lookup(7).unwrap();
        // w' = 1·0.5 + 1 = 1.5, rows' = (1000·0.5 + 0) / 1.5 = 333.3…:
        // the newest observation dominates.
        assert!(
            (obs.rows - 1000.0 / 3.0).abs() < 1e-9,
            "rows = {}",
            obs.rows
        );
        assert!((obs.weight - 1.5).abs() < 1e-12);
        // Converges to the stable value when it repeats.
        for _ in 0..30 {
            memo.observe(7, 10);
        }
        let obs = memo.lookup(7).unwrap();
        assert!((obs.rows - 10.0).abs() < 1e-6, "rows = {}", obs.rows);
        assert!(obs.weight <= 1.0 / (1.0 - DECAY) + 1e-9);
    }

    #[test]
    fn clear_forgets_everything() {
        let memo = FeedbackMemo::new();
        for fp in 0..64u64 {
            memo.observe(fp.wrapping_mul(0x9e37_79b9_7f4a_7c15), 5);
        }
        assert_eq!(memo.len(), 64);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.lookup(0), None);
    }

    #[test]
    fn disabled_memo_neither_records_nor_serves() {
        let memo = FeedbackMemo::new();
        memo.observe(1, 10);
        memo.set_enabled(false);
        memo.observe(2, 10);
        assert_eq!(memo.lookup(1), None, "disabled lookups miss");
        assert_eq!(memo.len(), 1, "disabled observe is a no-op");
        memo.set_enabled(true);
        assert!(memo.lookup(1).is_some(), "observations survive a disable");
    }

    #[test]
    fn concurrent_observers_do_not_lose_counts() {
        let memo = std::sync::Arc::new(FeedbackMemo::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let memo = std::sync::Arc::clone(&memo);
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        memo.observe(i % 8, (t * 10 + 1) as usize);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(memo.len(), 8);
        for fp in 0..8 {
            let obs = memo.lookup(fp).unwrap();
            assert!(obs.rows >= 1.0 && obs.rows <= 31.0, "rows = {}", obs.rows);
        }
    }
}
