//! Morsel-driven intra-query parallelism: the morsel partitioning
//! helpers.
//!
//! The executor splits the probe side of a large join into fixed-size
//! **morsels** — contiguous row ranges over the shared `Arc`-backed row
//! buffer ([`crate::table::Relation`]), so partitioning is pointer
//! arithmetic, never a copy — and runs each morsel as one task of a
//! scatter-gather batch on a [`TaskScheduler`] (no work stealing:
//! morsels are uniform enough that a single FIFO balances fine).
//!
//! **Ownership.** The scheduler is injectable through
//! [`crate::exec::ExecContext::set_scheduler`]: the query service lends
//! every query one shared scheduler (so intra-query threads stay capped
//! service-wide no matter how many queries run), and any caller that
//! executes many plans should lend one too. A context at `dop > 1` that
//! was lent none spawns a `dop`-worker scheduler at its first parallel
//! section and joins it when the context drops. A query's degree of
//! parallelism caps how many of its morsels are in flight at once
//! ([`TaskScheduler::run`]'s `dop`), not how many threads exist.
//!
//! **Cancellation.** Morsel tasks poll and record through the
//! execution's [`sgq_common::Limits`]: the first task to breach a limit
//! trips its cancel flag, and every other task exits at its next poll
//! with the cancellation sentinel, which the caller discards in favour
//! of the real error.

pub use sgq_common::pool::TaskScheduler;

/// Default morsel size cap, in probe rows. Large enough that per-morsel
/// scheduling and merge overhead (~tens of µs) disappears against the
/// per-row operator work, small enough to keep a morsel's output in
/// cache and cancellation latency bounded.
pub const MORSEL_ROWS: usize = 65_536;

/// Smallest morsel worth scheduling: below this the per-morsel overhead
/// is measurable against the row work.
pub(crate) const MIN_MORSEL_ROWS: usize = 4_096;

/// Morsels targeted per worker, for load balancing: stragglers cost at
/// most 1/this of a worker's share.
pub(crate) const MORSELS_PER_WORKER: usize = 4;

/// Splits `rows` into contiguous `(start, end)` morsel ranges of at
/// most `morsel` rows (the last range may be shorter).
pub(crate) fn morsel_ranges(rows: usize, morsel: usize) -> Vec<(usize, usize)> {
    let morsel = morsel.max(1);
    (0..rows.div_ceil(morsel))
        .map(|i| (i * morsel, ((i + 1) * morsel).min(rows)))
        .collect()
}

/// The morsel size for a `rows`-row probe at degree-of-parallelism
/// `dop`, capped at `cap`: aim for [`MORSELS_PER_WORKER`] morsels per
/// worker, never below [`MIN_MORSEL_ROWS`] (unless the cap says so —
/// tests shrink the cap to force many morsels on tiny data).
pub(crate) fn morsel_size(rows: usize, dop: usize, cap: usize) -> usize {
    rows.div_ceil(dop.max(1) * MORSELS_PER_WORKER)
        .max(MIN_MORSEL_ROWS)
        .min(cap.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn morsel_ranges_cover_exactly() {
        assert_eq!(morsel_ranges(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(morsel_ranges(8, 4), vec![(0, 4), (4, 8)]);
        assert_eq!(morsel_ranges(3, 100), vec![(0, 3)]);
        assert!(morsel_ranges(0, 4).is_empty());
    }

    #[test]
    fn morsel_size_balances_and_respects_cap() {
        // Large probe: MORSELS_PER_WORKER morsels per worker.
        assert_eq!(morsel_size(500_000, 4, MORSEL_ROWS), 31_250);
        // Huge probe: capped at the configured morsel size.
        assert_eq!(morsel_size(10_000_000, 4, MORSEL_ROWS), MORSEL_ROWS);
        // Small probe: floored at MIN_MORSEL_ROWS so overhead stays paid off.
        assert_eq!(morsel_size(10_000, 8, MORSEL_ROWS), MIN_MORSEL_ROWS);
        // A tiny test cap wins over the floor (forces many morsels).
        assert_eq!(morsel_size(10, 2, 3), 3);
    }

    #[test]
    fn run_returns_results_in_task_order() {
        let sched = TaskScheduler::new(4);
        let tasks: Vec<_> = (0..37usize).map(|i| move || i * i).collect();
        let results = sched.run(4, tasks);
        assert_eq!(results, (0..37usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_caps_in_flight_tasks_at_dop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sched = TaskScheduler::new(8);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..32)
            .map(|_| {
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                move || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        sched.run(2, tasks);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "dop=2 must bound concurrent morsels, saw {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn run_with_more_tasks_than_workers_completes() {
        let sched = TaskScheduler::new(1);
        let results = sched.run(7, (0..100usize).map(|i| move || i).collect());
        assert_eq!(results.len(), 100);
        assert!(results.iter().enumerate().all(|(i, &v)| i == v));

        // A batch with a panicking task completes too: the panic is
        // caught on the worker and re-raised on the caller, and the
        // scheduler serves the next batch. Under a watchdog, because the
        // failure mode is `run` never returning.
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            type Task = Box<dyn FnOnce() -> usize + Send>;
            let tasks: Vec<Task> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("morsel panic")),
                Box::new(|| 3),
            ];
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.run(2, tasks)));
            let message = caught.map_err(|p| p.downcast_ref::<&str>().copied());
            tx.send((message, sched.run(2, vec![|| 7usize]))).unwrap();
        });
        let (message, next) = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("`run` hangs on a panicking task");
        assert_eq!(message, Err(Some("morsel panic")));
        assert_eq!(next, vec![7]);
        caller.join().unwrap();
    }
}
