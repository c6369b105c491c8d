//! Executors: worker-node processes running tasks on core slots.
//!
//! One [`Executor`] models one Spark executor JVM on a worker node. It
//! owns `slots` OS threads — `slots = cores / spark.task.cpus`, matching
//! the paper's configuration of two vCPUs per task. Slot threads *pull*
//! work from the shared [`Dispatcher`](crate::scheduler::Dispatcher)
//! (own queue → central queue → steal → rescue), so a slow executor
//! naturally claims fewer tasks instead of stalling its static share.
//! Executors can be killed (fault injection): a killed executor stops
//! claiming, its in-flight tasks still report, and whatever was seeded
//! on its queue is rescued by alive peers.

use crate::scheduler::{Claimed, Dispatcher, ExecutorShared, TaskUnit};
use crossbeam::channel::Sender;
use std::any::Any;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Result of a task attempt.
pub(crate) struct TaskResult {
    pub job: u64,
    pub task: usize,
    pub attempt: usize,
    pub executor: usize,
    pub speculative: bool,
    pub stolen: bool,
    pub outcome: Result<Box<dyn Any + Send>, String>,
    pub seconds: f64,
}

/// Liveness snapshot of an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorStatus {
    /// Claiming and running tasks.
    Alive,
    /// Killed; stops claiming until revived.
    Dead,
    /// Alive but blacklisted by the quarantine policy: it stops
    /// claiming for the penalty window while peers rescue its queue.
    Quarantined,
}

pub(crate) struct Executor {
    pub id: usize,
    shared: Arc<ExecutorShared>,
    dispatcher: Arc<Dispatcher>,
    threads: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spawn an executor with `slots` concurrent task slots claiming from
    /// `dispatcher`, reporting results on `results`.
    pub fn spawn(
        id: usize,
        slots: usize,
        dispatcher: Arc<Dispatcher>,
        results: Sender<TaskResult>,
    ) -> Executor {
        let shared = Arc::clone(dispatcher.executor(id));
        let threads = (0..slots.max(1))
            .map(|slot| {
                let dispatcher = Arc::clone(&dispatcher);
                let results = results.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("executor-{id}-slot-{slot}"))
                    .spawn(move || slot_loop(id, &dispatcher, &shared, &results))
                    .expect("spawn executor slot thread")
            })
            .collect();
        Executor {
            id,
            shared,
            dispatcher,
            threads,
        }
    }

    /// Current status.
    pub fn status(&self) -> ExecutorStatus {
        if !self.shared.is_alive() {
            ExecutorStatus::Dead
        } else if self.dispatcher.is_quarantined(self.id) {
            ExecutorStatus::Quarantined
        } else {
            ExecutorStatus::Alive
        }
    }

    /// Kill the executor: it stops claiming; queued work is rescued by
    /// peers, in-flight tasks still report.
    pub fn kill(&self) {
        self.shared.set_alive(false);
        self.dispatcher.poke();
    }

    /// Bring a killed executor back (Spark restarts executors on healthy
    /// nodes).
    pub fn revive(&self) {
        self.shared.set_alive(true);
        self.dispatcher.poke();
    }

    /// Emulate a straggler: every task on this executor takes `factor ×`
    /// its nominal runtime (noisy neighbor, thermal throttling, …).
    pub fn set_slow_factor(&self, factor: f64) {
        self.shared.set_slow_factor(factor);
    }

    /// Join the slot threads (the dispatcher must be shut down first).
    pub fn shutdown(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn slot_loop(
    id: usize,
    dispatcher: &Dispatcher,
    shared: &ExecutorShared,
    results: &Sender<TaskResult>,
) {
    loop {
        shared.heartbeat();
        let unit = match dispatcher.claim(id) {
            Claimed::Run(unit) => unit,
            Claimed::Shutdown => return,
        };
        shared.heartbeat();
        let TaskUnit {
            job,
            task,
            attempt,
            speculative,
            stolen,
            inject_failure,
            runner,
        } = unit;
        let t0 = Instant::now();
        // A panicking kernel body is the moral equivalent of a native
        // crash in the JNI region: contain it to the task.
        let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_failure {
                panic!("injected task failure");
            }
            runner(task)
        })) {
            Ok(value) => Ok(value),
            Err(panic) => Err(panic_message(panic)),
        };
        let slow = shared.slow_factor();
        if slow > 1.0 {
            std::thread::sleep(t0.elapsed().mul_f64(slow - 1.0));
        }
        dispatcher.finished(id);
        let _ = results.send(TaskResult {
            job,
            task,
            attempt,
            executor: id,
            speculative,
            stolen,
            outcome,
            seconds: t0.elapsed().as_secs_f64(),
        });
    }
}

fn panic_message(panic: Box<dyn Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{JobOptions, JobSpec, Runner};
    use crossbeam::channel::{unbounded, Receiver};
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Rig {
        dispatcher: Arc<Dispatcher>,
        execs: Vec<Executor>,
        rx: Receiver<TaskResult>,
    }

    fn rig(executors: usize, slots: usize) -> Rig {
        let dispatcher = Arc::new(Dispatcher::new(
            (0..executors)
                .map(|_| Arc::new(ExecutorShared::new()))
                .collect(),
        ));
        let (tx, rx) = unbounded();
        let execs = (0..executors)
            .map(|id| Executor::spawn(id, slots, Arc::clone(&dispatcher), tx.clone()))
            .collect();
        Rig {
            dispatcher,
            execs,
            rx,
        }
    }

    impl Rig {
        fn run(&self, job: u64, partitions: usize, runner: Runner) -> Vec<TaskResult> {
            self.dispatcher
                .submit_job(JobSpec {
                    job,
                    partitions,
                    options: JobOptions::default(),
                    runner,
                })
                .unwrap();
            let out: Vec<TaskResult> = (0..partitions)
                .map(|_| {
                    let r = self.rx.recv().expect("result");
                    self.dispatcher.attempt_settled(job, r.task, r.executor);
                    self.dispatcher.mark_completed(job, r.task);
                    r
                })
                .collect();
            self.dispatcher.clear_job(job);
            out
        }

        fn teardown(self) {
            self.dispatcher.shutdown();
            for e in self.execs {
                e.shutdown();
            }
        }
    }

    #[test]
    fn runs_tasks_and_reports_results() {
        let rig = rig(1, 2);
        let results = rig.run(
            0,
            1,
            Arc::new(|t| Box::new(t as i32 + 42) as Box<dyn Any + Send>),
        );
        assert_eq!(results[0].executor, 0);
        let boxed = results.into_iter().next().unwrap().outcome.unwrap();
        assert_eq!(*boxed.downcast::<i32>().unwrap(), 42);
        rig.teardown();
    }

    #[test]
    fn panicking_task_is_contained() {
        let rig = rig(1, 1);
        let r = rig.run(0, 1, Arc::new(|_| panic!("kernel fault")));
        assert!(r[0].outcome.as_ref().unwrap_err().contains("kernel fault"));
        // The executor survives and runs the next job.
        let r2 = rig.run(1, 1, Arc::new(|_| Box::new(7u8) as Box<dyn Any + Send>));
        assert!(r2[0].outcome.is_ok());
        rig.teardown();
    }

    #[test]
    fn dead_executor_stops_claiming_until_revived() {
        let rig = rig(1, 1);
        rig.execs[0].kill();
        assert_eq!(rig.execs[0].status(), ExecutorStatus::Dead);
        assert!(matches!(
            rig.dispatcher.submit_job(JobSpec {
                job: 0,
                partitions: 1,
                options: JobOptions::default(),
                runner: Arc::new(|_| Box::new(()) as Box<dyn Any + Send>),
            }),
            Err(crate::SparkError::NoExecutors)
        ));
        rig.execs[0].revive();
        assert_eq!(rig.execs[0].status(), ExecutorStatus::Alive);
        let r = rig.run(1, 1, Arc::new(|_| Box::new(1i32) as Box<dyn Any + Send>));
        assert!(r[0].outcome.is_ok());
        rig.teardown();
    }

    #[test]
    fn slots_run_concurrently() {
        let rig = rig(1, 4);
        let gate = Arc::new(AtomicUsize::new(0));
        let runner: Runner = {
            let gate = Arc::clone(&gate);
            Arc::new(move |_| {
                gate.fetch_add(1, Ordering::SeqCst);
                while gate.load(Ordering::SeqCst) < 4 {
                    std::thread::yield_now();
                }
                Box::new(()) as Box<dyn Any + Send>
            })
        };
        let results = rig.run(0, 4, runner);
        assert!(results.iter().all(|r| r.outcome.is_ok()));
        rig.teardown();
    }

    #[test]
    fn slow_factor_stretches_task_runtime() {
        let rig = rig(1, 1);
        rig.execs[0].set_slow_factor(8.0);
        let r = rig.run(
            0,
            1,
            Arc::new(|_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                Box::new(()) as Box<dyn Any + Send>
            }),
        );
        assert!(
            r[0].seconds >= 0.035,
            "5ms task on an 8x-slow executor took {}s",
            r[0].seconds
        );
        rig.teardown();
    }
}
