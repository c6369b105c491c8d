//! A persistent worker pool for `'static` jobs.
//!
//! The fork-join entry points in this crate spawn scoped threads per loop
//! (like a non-reusing OpenMP runtime). Long-lived components — the Spark
//! executor emulation, the per-buffer transfer threads of the cloud
//! plug-in — instead keep a [`ThreadPool`] alive and feed it boxed jobs.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared in-flight counter plus the condvar that announces it hit zero.
struct IdleTracker {
    in_flight: AtomicUsize,
    lock: Mutex<()>,
    idle: Condvar,
}

/// Fixed-size pool of worker threads consuming jobs from a shared queue.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    tracker: Arc<IdleTracker>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        let tracker = Arc::new(IdleTracker {
            in_flight: AtomicUsize::new(0),
            lock: Mutex::new(()),
            idle: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|idx| {
                let rx = rx.clone();
                let tracker = Arc::clone(&tracker);
                std::thread::Builder::new()
                    .name(format!("parfor-worker-{idx}"))
                    .spawn(move || {
                        for job in rx.iter() {
                            job();
                            if tracker.in_flight.fetch_sub(1, Ordering::Release) == 1 {
                                // Take the lock before notifying so a
                                // wait_idle caller can't re-check the count
                                // and block between our decrement and the
                                // wake-up.
                                let _guard = tracker.lock.lock().unwrap_or_else(|p| p.into_inner());
                                tracker.idle.notify_all();
                            }
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            tx: Some(tx),
            workers,
            tracker,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue a job. Panics if called after [`ThreadPool::shutdown`].
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.tracker.in_flight.fetch_add(1, Ordering::Acquire);
        self.tx
            .as_ref()
            .expect("pool already shut down")
            .send(Box::new(job))
            .expect("worker threads exited early");
    }

    /// Enqueue a job and get a handle to its result.
    pub fn submit<T, F>(&self, job: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = unbounded();
        self.execute(move || {
            // Receiver may be dropped; result loss is fine then.
            let _ = tx.send(job());
        });
        TaskHandle { rx }
    }

    /// Number of jobs submitted but not yet finished.
    pub fn pending(&self) -> usize {
        self.tracker.in_flight.load(Ordering::Acquire)
    }

    /// Block (sleeping, not spinning) until the queue drains. Used by
    /// tests and the transfer manager's flush path.
    pub fn wait_idle(&self) {
        let mut guard = self.tracker.lock.lock().unwrap_or_else(|p| p.into_inner());
        while self.tracker.in_flight.load(Ordering::Acquire) != 0 {
            guard = self
                .tracker
                .idle
                .wait(guard)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stop accepting jobs and join the workers after the queue drains.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(tx) = self.tx.take() {
            drop(tx);
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Handle to a value produced by [`ThreadPool::submit`].
pub struct TaskHandle<T> {
    rx: Receiver<T>,
}

impl<T> TaskHandle<T> {
    /// Block until the job finishes and take its result.
    ///
    /// Panics if the job itself panicked (its sender was dropped).
    pub fn join(self) -> T {
        self.rx.recv().expect("pool job panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn submit_returns_results() {
        let pool = ThreadPool::new(2);
        let handles: Vec<_> = (0..16u64).map(|i| pool.submit(move || i * i)).collect();
        let results: Vec<u64> = handles.into_iter().map(TaskHandle::join).collect();
        assert_eq!(results, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_drains_queue() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                std::thread::sleep(std::time::Duration::from_micros(100));
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn wait_idle_on_idle_pool_returns_immediately() {
        let pool = ThreadPool::new(2);
        pool.wait_idle(); // no jobs ever submitted — must not block
        pool.execute(|| {});
        pool.wait_idle();
        pool.wait_idle(); // second wait after drain must also be a no-op
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn wait_idle_blocks_until_slow_jobs_finish() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                c.fetch_add(1, Ordering::Release);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Acquire), 8);
    }

    #[test]
    fn zero_threads_becomes_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.submit(|| 7).join(), 7);
    }

    #[test]
    fn jobs_run_concurrently() {
        // Two jobs that must overlap in time to finish: each waits for the
        // other's side effect.
        let pool = ThreadPool::new(2);
        let flag = Arc::new(AtomicU64::new(0));
        let f1 = Arc::clone(&flag);
        let h1 = pool.submit(move || {
            f1.fetch_add(1, Ordering::SeqCst);
            while f1.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            true
        });
        let f2 = Arc::clone(&flag);
        let h2 = pool.submit(move || {
            f2.fetch_add(1, Ordering::SeqCst);
            while f2.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            true
        });
        assert!(h1.join() && h2.join());
    }
}
