//! The one thread pool: a fixed set of `std::thread` workers over one
//! FIFO, serving two task classes.
//!
//! * **Jobs** ([`TaskScheduler::try_submit_capped`]) are fire-and-forget
//!   closures admitted against a queue bound. The bound is the admission
//!   control: a full queue fails *immediately* with [`SgqError::Busy`]
//!   instead of letting latency grow without bound. The serving layer
//!   runs its queries this way.
//! * **Scatter-gather** ([`TaskScheduler::run`]) submits a batch, keeps
//!   at most `dop` of it in flight, blocks until the batch is done and
//!   returns the results in task order. It bypasses the queue bound (the
//!   in-flight cap already bounds it) and is how the executor runs the
//!   morsels of one operator.
//!
//! A caller that blocks in `run` from inside a job must use a *second*
//! instance for the batch: on one FIFO its tasks would queue behind
//! other jobs waiting for the same thing.
//!
//! Shutdown is graceful: [`TaskScheduler::shutdown`] stops admitting,
//! lets the workers drain everything already queued (somebody is waiting
//! on each task) and joins the threads. Dropping the pool does the same.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::{Result, SgqError};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a task is enqueued or shutdown begins.
    available: Condvar,
    /// The admission bound for jobs (`usize::MAX`: unbounded).
    capacity: usize,
    /// Panics that escaped a task and were contained by a worker.
    panics: AtomicU64,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // No task runs under the lock, so a poisoned queue is still valid.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Runs `f`, turning a panic into its payload — the pool's single
/// containment point, for escaped job panics and scatter-gather tasks
/// alike.
fn contain<T>(f: impl FnOnce() -> T) -> std::result::Result<T, Box<dyn Any + Send>> {
    catch_unwind(AssertUnwindSafe(f))
}

/// A fixed-size pool of worker threads over one FIFO of tasks.
pub struct TaskScheduler {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl std::fmt::Debug for TaskScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskScheduler")
            .field("workers", &self.workers)
            .field("capacity", &self.shared.capacity)
            .field("queued", &self.shared.lock().tasks.len())
            .finish()
    }
}

impl TaskScheduler {
    /// Spawns `workers` threads (clamped to at least 1) with no admission
    /// bound — the scatter-gather configuration.
    pub fn new(workers: usize) -> Self {
        Self::bounded(workers, usize::MAX)
    }

    /// Spawns `workers` threads over a queue admitting at most
    /// `queue_capacity` waiting jobs (both clamped to at least 1).
    pub fn bounded(workers: usize, queue_capacity: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            capacity: queue_capacity.max(1),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sgq-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        TaskScheduler {
            shared,
            handles: Mutex::new(handles),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues `task` unless `limit` tasks already wait or the pool is
    /// shut down.
    fn push(&self, limit: usize, task: Task) -> Result<()> {
        {
            let mut q = self.shared.lock();
            if q.shutdown {
                return Err(SgqError::Execution("worker pool is shut down".into()));
            }
            if q.tasks.len() >= limit {
                return Err(SgqError::Busy { capacity: limit });
            }
            q.tasks.push_back(task);
        }
        self.shared.available.notify_one();
        Ok(())
    }

    /// Enqueues a job, or rejects it right away: [`SgqError::Busy`] when
    /// the queue is at capacity, an execution error after shutdown.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<()> {
        self.try_submit_capped(self.shared.capacity, job)
    }

    /// Like [`TaskScheduler::try_submit`] but admitting only while the
    /// queue is shorter than `min(cap, capacity)` — the degradation
    /// hook: under memory pressure the service shrinks the *effective*
    /// queue without reconfiguring the pool. `Busy` reports the
    /// effective bound the caller actually hit.
    pub fn try_submit_capped(&self, cap: usize, job: impl FnOnce() + Send + 'static) -> Result<()> {
        self.push(cap.clamp(1, self.shared.capacity), Box::new(job))
    }

    /// Panics that escaped a job and were contained by a worker since
    /// the pool started: the worker survived and kept draining the queue.
    pub fn panic_count(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Scatter-gather: runs `tasks` on the workers with at most `dop`
    /// in flight at once, blocking until all complete, and returns their
    /// results in task order. The in-flight cap is what honours a
    /// query's degree of parallelism on a pool shared by many queries.
    ///
    /// A panicking task does not hang the batch: its unwind is caught on
    /// the worker and reported as that task's result; nothing further is
    /// submitted, the tasks in flight are awaited, and the first payload
    /// is re-raised *here*, on the calling thread.
    pub fn run<T, F>(&self, dop: usize, tasks: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let cap = dop.max(1);
        let (tx, rx) = mpsc::channel();
        let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(tasks.len()).collect();
        let mut pending = tasks.into_iter().enumerate();
        let mut in_flight = 0usize;
        let mut panic = None;
        loop {
            while in_flight < cap && panic.is_none() {
                let Some((i, task)) = pending.next() else {
                    break;
                };
                let tx = tx.clone();
                // The receiver outlives the batch, so the send only
                // fails if this thread is itself unwinding.
                let report = move || {
                    let _ = tx.send((i, contain(task)));
                };
                self.push(usize::MAX, Box::new(report))
                    .expect("scatter-gather needs a pool that is not shut down");
                in_flight += 1;
            }
            if in_flight == 0 {
                break;
            }
            let (i, result) = rx
                .recv()
                .expect("a sender is held here and every queued task reports");
            in_flight -= 1;
            match result {
                Ok(v) => out[i] = Some(v),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        out.into_iter()
            .map(|v| v.expect("every task reported"))
            .collect()
    }

    /// Graceful shutdown: stops admission, drains the queued tasks, joins
    /// every worker. Idempotent; later submissions fail.
    pub fn shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.available.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            // Workers contain task panics, so a join error has no cause
            // left to report, and `Drop` must not panic.
            let _ = h.join();
        }
    }
}

impl Drop for TaskScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut q = shared.lock();
            loop {
                // Draining has priority over the shutdown flag, so tasks
                // admitted before shutdown still run to completion.
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // A panicking task must not take the worker down with it: the
        // thread would silently stop draining and every later submission
        // would queue forever. Scatter-gather tasks report their own
        // panics and the service's jobs reply `SgqError::Internal`; this
        // backstop covers a panic escaping such a wrapper (whatever
        // sender it held is dropped by the unwind, so the waiting side
        // sees a disconnect, not a hang) and counts it.
        if contain(task).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn jobs_run_on_workers() {
        let pool = TaskScheduler::bounded(2, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let c = Arc::clone(&counter);
            pool.try_submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let pool = TaskScheduler::bounded(1, 1);
        // Block the single worker on a gate so the queue state is
        // deterministic: one running job, one queued job, then rejection.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (running_tx, running_rx) = mpsc::channel::<()>();
        pool.try_submit(move || {
            running_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        running_rx.recv().unwrap(); // worker is now blocked inside the job
        pool.try_submit(|| {}).unwrap(); // fills the queue slot
        let err = pool.try_submit(|| {}).unwrap_err();
        assert!(err.is_busy(), "expected Busy, got {err}");
        gate_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = TaskScheduler::bounded(1, 16);
        let counter = Arc::new(AtomicUsize::new(0));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (running_tx, running_rx) = mpsc::channel::<()>();
        pool.try_submit(move || {
            running_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        running_rx.recv().unwrap();
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            pool.try_submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Unblock, then shut down: all ten queued jobs must still run.
        gate_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let pool = TaskScheduler::bounded(1, 1);
        pool.shutdown();
        let err = pool.try_submit(|| {}).unwrap_err();
        assert!(matches!(err, SgqError::Execution(_)), "got {err}");
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = TaskScheduler::bounded(1, 8);
        assert_eq!(pool.panic_count(), 0);
        pool.try_submit(|| panic!("job panic must be contained"))
            .unwrap();
        // The single worker must survive and run the next job.
        let (tx, rx) = mpsc::channel();
        pool.try_submit(move || tx.send(42).unwrap()).unwrap();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok(42),
            "worker died on a panicking job"
        );
        pool.shutdown();
        assert_eq!(pool.panic_count(), 1, "the contained panic is counted");
    }

    #[test]
    fn panicking_job_drops_its_sender_instead_of_hanging() {
        // The regression for the swallowed-panic bug: a caller waiting
        // on a panicked job's response channel must get a prompt
        // disconnect, never a hang.
        let pool = TaskScheduler::bounded(1, 8);
        let (tx, rx) = mpsc::channel::<i32>();
        pool.try_submit(move || {
            let _keep = tx; // dropped by the unwind
            panic!("boom");
        })
        .unwrap();
        let err = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert!(
            matches!(err, Err(mpsc::RecvTimeoutError::Disconnected)),
            "expected disconnect, got {err:?}"
        );
        // And the worker still serves the next job.
        let (tx2, rx2) = mpsc::channel();
        pool.try_submit(move || tx2.send(7).unwrap()).unwrap();
        assert_eq!(rx2.recv_timeout(std::time::Duration::from_secs(10)), Ok(7));
        // Checked only after job 2 ran: the sender drops mid-unwind,
        // strictly before the same worker counts the panic and moves on.
        assert_eq!(pool.panic_count(), 1);
        pool.shutdown();
    }

    #[test]
    fn capped_submit_shrinks_the_effective_queue() {
        let pool = TaskScheduler::bounded(1, 8);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (running_tx, running_rx) = mpsc::channel::<()>();
        pool.try_submit(move || {
            running_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        running_rx.recv().unwrap(); // worker blocked; queue empty
        pool.try_submit_capped(2, || {}).unwrap();
        pool.try_submit_capped(2, || {}).unwrap();
        // Effective bound of 2 trips even though the real capacity is 8,
        // and Busy reports the bound the caller actually hit.
        let err = pool.try_submit_capped(2, || {}).unwrap_err();
        assert!(matches!(err, SgqError::Busy { capacity: 2 }), "got {err}");
        // The full-capacity path still admits.
        pool.try_submit(|| {}).unwrap();
        // A cap above capacity clamps down to the configured bound.
        for _ in 0..5 {
            let _ = pool.try_submit_capped(100, || {});
        }
        let err = pool.try_submit_capped(100, || {}).unwrap_err();
        assert!(matches!(err, SgqError::Busy { capacity: 8 }), "got {err}");
        gate_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn jobs_run_in_parallel() {
        let pool = TaskScheduler::bounded(4, 8);
        // Four jobs that can only finish when all four are running at
        // once: a rendezvous proves genuine parallelism.
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let (done_tx, done_rx) = mpsc::channel();
        for _ in 0..4 {
            let b = Arc::clone(&barrier);
            let tx = done_tx.clone();
            pool.try_submit(move || {
                b.wait();
                tx.send(()).unwrap();
            })
            .unwrap();
        }
        for _ in 0..4 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("all four jobs rendezvous");
        }
        pool.shutdown();
    }
}
