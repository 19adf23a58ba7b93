//! The serving metrics registry.
//!
//! Lock-free counters plus a geometric latency histogram, updated by the
//! workers on every completed query and snapshotted on demand:
//! throughput (QPS since start), latency percentiles (p50/p95/p99 from
//! the histogram), error/timeout/rejection counts and the plan cache's
//! hit rate. Snapshots render as a human table ([`std::fmt::Display`])
//! or JSON through the workspace JSON writer
//! ([`sgq_common::json::JsonValue`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sgq_common::json::JsonValue;
use sgq_obs::{OpKindProfile, OpSpan, ProfileRegistry};

use crate::cache::CacheStats;

/// A fixed-bucket geometric latency histogram (microsecond domain).
///
/// Bucket bounds grow by ~19% (`2^(1/4)`), covering 1 µs to ~50 minutes
/// in 128 buckets — percentile estimates are within one bucket ratio of
/// exact, with constant memory and lock-free recording.
#[derive(Debug)]
pub struct LatencyHistogram {
    /// Upper bounds (inclusive), in microseconds, strictly increasing.
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Builds the bucket table.
    pub fn new() -> Self {
        let mut bounds = Vec::new();
        let mut b = 1.0f64;
        while bounds.len() < 128 {
            let bound = b.ceil() as u64;
            if bounds.last().is_none_or(|&prev| bound > prev) {
                bounds.push(bound);
            }
            b *= std::f64::consts::SQRT_2.sqrt(); // 2^(1/4)
        }
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        LatencyHistogram { bounds, counts }
    }

    /// Records one observation.
    pub fn record(&self, micros: u64) {
        let idx = self.bounds.partition_point(|&b| b < micros);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (0 < q <= 1) in microseconds, `None` when empty.
    /// Reports the upper bound of the bucket holding the quantile.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                let bound = self
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| *self.bounds.last().expect("non-empty table"));
                return Some(bound as f64);
            }
        }
        None
    }
}

/// Shared, lock-free serving counters.
#[derive(Debug)]
pub struct MetricsRegistry {
    started: Instant,
    completed: AtomicU64,
    errors: AtomicU64,
    row_budget_errors: AtomicU64,
    memory_budget_errors: AtomicU64,
    transient_errors: AtomicU64,
    worker_panics: AtomicU64,
    degraded_admissions: AtomicU64,
    pressure_replans: AtomicU64,
    timeouts: AtomicU64,
    rejected: AtomicU64,
    total_micros: AtomicU64,
    morsels_executed: AtomicU64,
    parallel_queries: AtomicU64,
    replans: AtomicU64,
    feedback_hits: AtomicU64,
    /// Base-table scan operators executed.
    scans: AtomicU64,
    latency: LatencyHistogram,
    /// Always-on per-operator-kind profile, fed by traced executions.
    ops: ProfileRegistry,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh registry; QPS is measured from this instant.
    pub fn new() -> Self {
        MetricsRegistry {
            started: Instant::now(),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            row_budget_errors: AtomicU64::new(0),
            memory_budget_errors: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            degraded_admissions: AtomicU64::new(0),
            pressure_replans: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
            morsels_executed: AtomicU64::new(0),
            parallel_queries: AtomicU64::new(0),
            replans: AtomicU64::new(0),
            feedback_hits: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            ops: ProfileRegistry::new(),
        }
    }

    /// Records a successful query with its end-to-end latency.
    pub fn record_success(&self, micros: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.latency.record(micros);
    }

    /// Records a failed query by kind: timeouts and admission
    /// rejections keep their dedicated counters; everything else counts
    /// into `errors`, with row-budget, memory-budget and injected
    /// transient failures additionally tallied so snapshots can break
    /// the total down.
    pub fn record_error(&self, err: &sgq_common::SgqError) {
        if err.is_timeout() {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        } else if err.is_busy() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
            if err.is_row_budget() {
                self.row_budget_errors.fetch_add(1, Ordering::Relaxed);
            } else if err.is_budget() {
                self.memory_budget_errors.fetch_add(1, Ordering::Relaxed);
            } else if err.is_transient() {
                self.transient_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records an admission rejection ([`sgq_common::SgqError::Busy`]).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker panic caught and converted to
    /// [`sgq_common::SgqError::Internal`] (the query also lands in the
    /// error counters via [`MetricsRegistry::record_error`]).
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a submission admitted through the degraded (halved)
    /// queue because the governor was under memory pressure.
    pub fn record_degraded_admission(&self) {
        self.degraded_admissions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cached plan dropped under memory pressure because its
    /// estimated output would not fit the governor's headroom.
    pub fn record_pressure_replan(&self) {
        self.pressure_replans.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query's morsel-parallel work: `morsels` is the number of
    /// morsel tasks the executor dispatched (0 for a fully serial query).
    pub fn record_parallel(&self, morsels: usize) {
        if morsels > 0 {
            self.morsels_executed
                .fetch_add(morsels as u64, Ordering::Relaxed);
            self.parallel_queries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a cached plan found stale against the feedback memo and
    /// transparently re-prepared.
    pub fn record_replan(&self) {
        self.replans.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a prepare whose plan drew at least one estimate from the
    /// cardinality feedback memo.
    pub fn record_feedback_hit(&self) {
        self.feedback_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `scans` base-table scan operators executed by one query.
    pub fn record_scans(&self, scans: usize) {
        self.scans.fetch_add(scans as u64, Ordering::Relaxed);
    }

    /// Folds one traced execution's operator spans into the always-on
    /// per-operator-kind profile (one lock per traced query).
    pub fn record_ops(&self, spans: &[OpSpan]) {
        self.ops.record(spans);
    }

    /// Snapshots every counter, folding in the plan cache's stats.
    pub fn snapshot(&self, cache: CacheStats) -> MetricsSnapshot {
        let completed = self.completed.load(Ordering::Relaxed);
        let elapsed_s = self.started.elapsed().as_secs_f64().max(1e-9);
        let to_ms = |micros: Option<f64>| micros.map_or(0.0, |us| us / 1e3);
        let errors = self.errors.load(Ordering::Relaxed);
        let row_budget = self.row_budget_errors.load(Ordering::Relaxed);
        let memory_budget = self.memory_budget_errors.load(Ordering::Relaxed);
        let transient = self.transient_errors.load(Ordering::Relaxed);
        MetricsSnapshot {
            completed,
            errors,
            errors_row_budget: row_budget,
            errors_memory_budget: memory_budget,
            errors_transient: transient,
            errors_other: errors
                .saturating_sub(row_budget)
                .saturating_sub(memory_budget)
                .saturating_sub(transient),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            degraded_admissions: self.degraded_admissions.load(Ordering::Relaxed),
            pressure_replans: self.pressure_replans.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            elapsed_s,
            qps: completed as f64 / elapsed_s,
            mean_ms: if completed == 0 {
                0.0
            } else {
                self.total_micros.load(Ordering::Relaxed) as f64 / completed as f64 / 1e3
            },
            p50_ms: to_ms(self.latency.quantile(0.50)),
            p95_ms: to_ms(self.latency.quantile(0.95)),
            p99_ms: to_ms(self.latency.quantile(0.99)),
            morsels_executed: self.morsels_executed.load(Ordering::Relaxed),
            parallel_queries: self.parallel_queries.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
            feedback_hits: self.feedback_hits.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            op_profiles: self.ops.snapshot(),
            cache,
        }
    }
}

/// A point-in-time view of the registry, renderable as text or JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Successfully completed queries.
    pub completed: u64,
    /// Failed queries (excluding timeouts and rejections).
    pub errors: u64,
    /// Of `errors`: row/pair-budget breaches.
    pub errors_row_budget: u64,
    /// Of `errors`: memory-budget breaches (governor aborts).
    pub errors_memory_budget: u64,
    /// Of `errors`: injected transient faults.
    pub errors_transient: u64,
    /// Of `errors`: everything not broken out above.
    pub errors_other: u64,
    /// Worker panics caught and converted to structured errors.
    pub worker_panics: u64,
    /// Submissions admitted through the degraded (halved) queue while
    /// the governor was under memory pressure.
    pub degraded_admissions: u64,
    /// Cached plans dropped under memory pressure (estimated output
    /// exceeded the governor's headroom) and re-prepared.
    pub pressure_replans: u64,
    /// Queries that exceeded their deadline.
    pub timeouts: u64,
    /// Queries rejected at admission (queue full / busy).
    pub rejected: u64,
    /// Seconds since the registry was created.
    pub elapsed_s: f64,
    /// Completed queries per second since start.
    pub qps: f64,
    /// Mean end-to-end latency (ms).
    pub mean_ms: f64,
    /// Median end-to-end latency (ms).
    pub p50_ms: f64,
    /// 95th percentile latency (ms).
    pub p95_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_ms: f64,
    /// Morsel tasks dispatched by parallel query sections.
    pub morsels_executed: u64,
    /// Queries that ran at least one parallel section.
    pub parallel_queries: u64,
    /// Cached plans found stale against the feedback memo and
    /// transparently re-prepared.
    pub replans: u64,
    /// Prepares whose plan drew an estimate from the feedback memo.
    pub feedback_hits: u64,
    /// Base-table scan operators executed.
    pub scans: u64,
    /// Per-operator-kind runtime totals from traced executions, ordered
    /// by self time (descending).
    pub op_profiles: Vec<OpKindProfile>,
    /// Plan-cache counters.
    pub cache: CacheStats,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object via the workspace writer.
    pub fn to_json(&self) -> String {
        JsonValue::obj([
            ("completed", JsonValue::Int(self.completed)),
            ("errors", JsonValue::Int(self.errors)),
            // The breakdown by kind: timeout and busy map onto their
            // dedicated counters, the rest splits `errors`.
            ("errors_timeout", JsonValue::Int(self.timeouts)),
            ("errors_busy", JsonValue::Int(self.rejected)),
            ("errors_row_budget", JsonValue::Int(self.errors_row_budget)),
            (
                "errors_memory_budget",
                JsonValue::Int(self.errors_memory_budget),
            ),
            ("errors_transient", JsonValue::Int(self.errors_transient)),
            ("errors_other", JsonValue::Int(self.errors_other)),
            ("worker_panics", JsonValue::Int(self.worker_panics)),
            (
                "degraded_admissions",
                JsonValue::Int(self.degraded_admissions),
            ),
            ("pressure_replans", JsonValue::Int(self.pressure_replans)),
            ("timeouts", JsonValue::Int(self.timeouts)),
            ("rejected", JsonValue::Int(self.rejected)),
            ("elapsed_s", JsonValue::Num(self.elapsed_s)),
            ("qps", JsonValue::Num(self.qps)),
            ("mean_ms", JsonValue::Num(self.mean_ms)),
            ("p50_ms", JsonValue::Num(self.p50_ms)),
            ("p95_ms", JsonValue::Num(self.p95_ms)),
            ("p99_ms", JsonValue::Num(self.p99_ms)),
            ("morsels_executed", JsonValue::Int(self.morsels_executed)),
            ("parallel_queries", JsonValue::Int(self.parallel_queries)),
            ("replans", JsonValue::Int(self.replans)),
            ("feedback_hits", JsonValue::Int(self.feedback_hits)),
            ("scans", JsonValue::Int(self.scans)),
            (
                "op_profiles",
                JsonValue::Arr(
                    self.op_profiles
                        .iter()
                        .map(|p| {
                            JsonValue::obj([
                                ("kind", JsonValue::str(p.kind.clone())),
                                ("evals", JsonValue::Int(p.evals)),
                                ("rows", JsonValue::Int(p.rows)),
                                ("self_us", JsonValue::Int(p.self_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cache_hits", JsonValue::Int(self.cache.hits)),
            ("cache_misses", JsonValue::Int(self.cache.misses)),
            ("cache_evictions", JsonValue::Int(self.cache.evictions)),
            (
                "cache_invalidations",
                JsonValue::Int(self.cache.invalidations),
            ),
            ("cache_entries", JsonValue::Int(self.cache.entries as u64)),
            ("cache_hit_rate", JsonValue::Num(self.cache.hit_rate())),
        ])
        .render()
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "queries: {} ok, {} errors ({} row-budget, {} memory-budget, {} transient, \
             {} other), {} timeouts, {} rejected ({:.1} qps over {:.2}s)",
            self.completed,
            self.errors,
            self.errors_row_budget,
            self.errors_memory_budget,
            self.errors_transient,
            self.errors_other,
            self.timeouts,
            self.rejected,
            self.qps,
            self.elapsed_s
        )?;
        if self.worker_panics + self.degraded_admissions + self.pressure_replans > 0 {
            writeln!(
                f,
                "robustness: {} worker panics contained, {} degraded admissions, \
                 {} pressure re-prepares",
                self.worker_panics, self.degraded_admissions, self.pressure_replans
            )?;
        }
        writeln!(
            f,
            "latency: mean {:.3} ms, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
            self.mean_ms, self.p50_ms, self.p95_ms, self.p99_ms
        )?;
        writeln!(
            f,
            "parallel: {} queries ran parallel sections, {} morsels executed",
            self.parallel_queries, self.morsels_executed
        )?;
        writeln!(
            f,
            "feedback: {} memo-informed prepares, {} stale plans re-prepared",
            self.feedback_hits, self.replans
        )?;
        writeln!(f, "scans: {} base-table scans", self.scans)?;
        if !self.op_profiles.is_empty() {
            write!(f, "operators (self time):")?;
            for (i, p) in self.op_profiles.iter().enumerate() {
                write!(
                    f,
                    "{} {} {:.3} ms / {} evals / {} rows",
                    if i == 0 { "" } else { ";" },
                    p.kind,
                    p.self_us as f64 / 1e3,
                    p.evals,
                    p.rows
                )?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "plan cache: {} hits / {} misses ({:.0}% hit rate), {} entries, {} evicted, {} invalidated",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.entries,
            self.cache.evictions,
            self.cache.invalidations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bounds_are_strictly_increasing() {
        let h = LatencyHistogram::new();
        assert!(h.bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(h.counts.len(), h.bounds.len() + 1);
        // Covers well past 30 minutes (1.8e9 µs).
        assert!(*h.bounds.last().unwrap() > 1_800_000_000);
    }

    #[test]
    fn quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
        for micros in [100u64, 200, 300, 400, 1000] {
            h.record(micros);
        }
        assert_eq!(h.total(), 5);
        let p50 = h.quantile(0.5).unwrap();
        // Within one bucket ratio (~19%) of the true median (300).
        assert!((250.0..=380.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= 1000.0, "p99 = {p99}");
        assert!(h.quantile(0.5).unwrap() <= h.quantile(0.99).unwrap());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn outliers_clamp_into_the_last_bucket() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.total(), 1);
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn registry_snapshot_counts() {
        let m = MetricsRegistry::new();
        m.record_success(1_000);
        m.record_success(2_000);
        m.record_error(&sgq_common::SgqError::Timeout { limit_ms: 5 });
        m.record_error(&sgq_common::SgqError::Execution("x".into()));
        m.record_rejected();
        let s = m.snapshot(CacheStats::default());
        assert_eq!(s.completed, 2);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.rejected, 1);
        assert!((s.mean_ms - 1.5).abs() < 1e-9);
        assert!(s.qps > 0.0);
        assert!(s.p50_ms > 0.0 && s.p50_ms <= s.p99_ms);
    }

    #[test]
    fn empty_registry_snapshot_reports_finite_zeroes() {
        // A snapshot before any query completes must not emit NaN/Inf
        // into the JSON writer: 0-sample means and percentiles report 0.0
        // (the writer debug-asserts on non-finite input, so rendering at
        // all proves the guards at the source).
        let m = MetricsRegistry::new();
        let s = m.snapshot(CacheStats::default());
        assert_eq!(s.completed, 0);
        assert_eq!(s.morsels_executed, 0);
        assert_eq!(s.parallel_queries, 0);
        assert_eq!(s.mean_ms, 0.0);
        assert_eq!(s.p50_ms, 0.0);
        assert_eq!(s.p95_ms, 0.0);
        assert_eq!(s.p99_ms, 0.0);
        assert!(s.qps.is_finite() && s.qps >= 0.0);
        let json = s.to_json();
        assert!(!json.contains("null") && !json.contains("NaN"), "{json}");
        assert!(json.contains("\"cache_hit_rate\": 0"), "{json}");
        assert!(json.contains("\"morsels_executed\": 0"), "{json}");
        assert!(json.contains("\"parallel_queries\": 0"), "{json}");
        // The human rendering is equally finite.
        let text = s.to_string();
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let m = MetricsRegistry::new();
        m.record_success(500);
        let json = m.snapshot(CacheStats::default()).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for key in ["\"qps\"", "\"p99_ms\"", "\"cache_hit_rate\""] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn parallel_counters_track_morsel_batches() {
        let m = MetricsRegistry::new();
        m.record_parallel(0); // serial query: no counter movement
        m.record_parallel(8);
        m.record_parallel(3);
        let s = m.snapshot(CacheStats::default());
        assert_eq!(s.morsels_executed, 11);
        assert_eq!(s.parallel_queries, 2);
        let json = s.to_json();
        assert!(json.contains("\"morsels_executed\": 11"), "{json}");
        assert!(json.contains("\"parallel_queries\": 2"), "{json}");
        let text = s.to_string();
        assert!(text.contains("2 queries ran parallel sections"), "{text}");
    }

    #[test]
    fn scan_counter_pins_text_and_json() {
        let m = MetricsRegistry::new();
        m.record_scans(0); // scan-free query: no movement
        m.record_scans(4);
        m.record_scans(5);
        let s = m.snapshot(CacheStats::default());
        assert_eq!(s.scans, 9);
        let json = s.to_json();
        assert!(json.contains("\"scans\": 9,"), "{json}");
        let text = s.to_string();
        assert!(text.contains("scans: 9 base-table scans"), "{text}");
    }

    #[test]
    fn histogram_concurrent_recording_is_lossless() {
        // 8 threads hammer the histogram; every observation must land:
        // the total equals the recorded count exactly (no lost updates).
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        // Spread across buckets, deterministic per thread.
                        h.record(1 + (t * per_thread + i) % 5_000);
                    }
                })
            })
            .collect();
        for hd in handles {
            hd.join().unwrap();
        }
        assert_eq!(h.total(), threads * per_thread);
        // Quantiles are monotone in q over a dense grid.
        let grid: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let qs: Vec<f64> = grid.iter().map(|&q| h.quantile(q).unwrap()).collect();
        assert!(
            qs.windows(2).all(|w| w[0] <= w[1]),
            "quantiles not monotone: {qs:?}"
        );
        // And bracket the observed domain.
        assert!(qs[0] >= 1.0 && *qs.last().unwrap() <= 6_000.0, "{qs:?}");
    }

    #[test]
    fn bucket_edge_values_round_trip() {
        // A value sitting exactly on a bucket's (inclusive) upper bound
        // must be reported back as that same bound by the quantile.
        let bounds: Vec<u64> = LatencyHistogram::new().bounds;
        for &edge in bounds.iter().step_by(7) {
            let h = LatencyHistogram::new();
            h.record(edge);
            assert_eq!(h.total(), 1);
            assert_eq!(
                h.quantile(1.0),
                Some(edge as f64),
                "edge {edge} did not round-trip"
            );
            assert_eq!(h.quantile(0.001), Some(edge as f64));
        }
    }

    #[test]
    fn error_kinds_break_down_in_text_and_json() {
        let m = MetricsRegistry::new();
        m.record_error(&sgq_common::SgqError::Timeout { limit_ms: 5 });
        m.record_error(&sgq_common::SgqError::Busy { capacity: 4 });
        m.record_error(&sgq_common::SgqError::RowBudget {
            rows: 11,
            budget: 10,
        });
        m.record_error(&sgq_common::SgqError::RowBudget {
            rows: 21,
            budget: 20,
        });
        m.record_error(&sgq_common::SgqError::Execution("boom".into()));
        m.record_error(&sgq_common::SgqError::BudgetExceeded { used: 9, limit: 8 });
        m.record_error(&sgq_common::SgqError::Transient { site: "exec.scan" });
        m.record_error(&sgq_common::SgqError::Internal("bug".into()));
        let s = m.snapshot(CacheStats::default());
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.errors, 6);
        assert_eq!(s.errors_row_budget, 2);
        assert_eq!(s.errors_memory_budget, 1);
        assert_eq!(s.errors_transient, 1);
        assert_eq!(s.errors_other, 2, "Execution + Internal");
        let json = s.to_json();
        assert!(json.contains("\"errors_timeout\": 1"), "{json}");
        assert!(json.contains("\"errors_busy\": 1"), "{json}");
        assert!(json.contains("\"errors_row_budget\": 2"), "{json}");
        assert!(json.contains("\"errors_memory_budget\": 1"), "{json}");
        assert!(json.contains("\"errors_transient\": 1"), "{json}");
        assert!(json.contains("\"errors_other\": 2"), "{json}");
        let text = s.to_string();
        assert!(
            text.contains("6 errors (2 row-budget, 1 memory-budget, 1 transient, 2 other)"),
            "{text}"
        );
    }

    #[test]
    fn robustness_counters_pin_text_and_json() {
        let m = MetricsRegistry::new();
        // The robustness line only renders when something happened.
        let quiet = m.snapshot(CacheStats::default());
        assert!(!quiet.to_string().contains("robustness"), "{quiet}");
        m.record_worker_panic();
        m.record_degraded_admission();
        m.record_degraded_admission();
        m.record_pressure_replan();
        let s = m.snapshot(CacheStats::default());
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.degraded_admissions, 2);
        assert_eq!(s.pressure_replans, 1);
        let json = s.to_json();
        assert!(json.contains("\"worker_panics\": 1"), "{json}");
        assert!(json.contains("\"degraded_admissions\": 2"), "{json}");
        assert!(json.contains("\"pressure_replans\": 1"), "{json}");
        let text = s.to_string();
        assert!(
            text.contains(
                "robustness: 1 worker panics contained, 2 degraded admissions, \
                 1 pressure re-prepares"
            ),
            "{text}"
        );
    }

    #[test]
    fn op_profiles_merge_into_snapshot_text_and_json() {
        let m = MetricsRegistry::new();
        m.record_ops(&[
            sgq_obs::OpSpan {
                node: 0,
                kind: "HashJoin",
                start_us: 0,
                dur_us: 120,
                self_us: 100,
                est_rows: 8.0,
                rows: 16,
            },
            sgq_obs::OpSpan {
                node: 1,
                kind: "EdgeScan",
                start_us: 0,
                dur_us: 20,
                self_us: 20,
                est_rows: 4.0,
                rows: 4,
            },
        ]);
        let s = m.snapshot(CacheStats::default());
        assert_eq!(s.op_profiles.len(), 2);
        assert_eq!(s.op_profiles[0].kind, "HashJoin", "self-time order");
        let json = s.to_json();
        assert!(
            json.contains(
                "\"op_profiles\": [{\"kind\": \"HashJoin\", \"evals\": 1, \
                 \"rows\": 16, \"self_us\": 100}"
            ),
            "{json}"
        );
        let text = s.to_string();
        assert!(
            text.contains("operators (self time): HashJoin 0.100 ms / 1 evals / 16 rows"),
            "{text}"
        );
        // An empty registry renders no operator section at all.
        let empty = MetricsRegistry::new().snapshot(CacheStats::default());
        assert!(!empty.to_string().contains("operators"), "{empty}");
        assert!(empty.to_json().contains("\"op_profiles\": []"));
    }

    #[test]
    fn display_is_human_readable() {
        let m = MetricsRegistry::new();
        m.record_success(1_000);
        let text = m.snapshot(CacheStats::default()).to_string();
        assert!(text.contains("qps"), "{text}");
        assert!(text.contains("plan cache"), "{text}");
    }
}
