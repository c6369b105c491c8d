//! The driver: configuration, executor pool, elastic task scheduler.

use crate::broadcast::{Broadcast, BroadcastStats};
use crate::executor::{Executor, TaskResult};
use crate::metrics::{JobMetrics, TaskMetric};
use crate::rdd::Rdd;
use crate::scheduler::{Dispatcher, ExecutorShared, JobOptions, JobSpec, Runner};
use crate::{Data, SparkError};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the driver wakes to check liveness and stragglers while
/// waiting for results.
const DRIVER_TICK: Duration = Duration::from_millis(5);

/// Cluster configuration — the `spark.*` properties §IV of the paper
/// tunes (`spark.task.cpus=2`, `spark.cores.max`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparkConf {
    /// Number of executors (one per worker node in the paper's setup).
    pub executors: usize,
    /// vCPUs managed by each executor.
    pub cores_per_executor: usize,
    /// vCPUs assigned to each task (`spark.task.cpus`). The paper uses 2
    /// because one dedicated core = two hyper-threaded vCPUs.
    pub task_cpus: usize,
    /// Attempts per task before the job fails (Spark default: 4).
    pub max_task_attempts: usize,
}

impl SparkConf {
    /// Single-executor local mode with `cores` slots.
    pub fn local(cores: usize) -> SparkConf {
        SparkConf {
            executors: 1,
            cores_per_executor: cores.max(1),
            task_cpus: 1,
            max_task_attempts: 4,
        }
    }

    /// Paper-style cluster: `executors` worker nodes, `vcpus` vCPUs each,
    /// 2 vCPUs per task.
    pub fn cluster(executors: usize, vcpus: usize) -> SparkConf {
        let executors = executors.max(1);
        let vcpus = vcpus.max(2);
        SparkConf {
            executors,
            cores_per_executor: vcpus,
            task_cpus: 2,
            max_task_attempts: 4,
        }
    }

    /// Task slots per executor.
    pub fn slots_per_executor(&self) -> usize {
        (self.cores_per_executor / self.task_cpus).max(1)
    }

    /// Total task slots in the cluster.
    pub fn total_slots(&self) -> usize {
        self.executors * self.slots_per_executor()
    }
}

struct Inner {
    conf: SparkConf,
    executors: Vec<Executor>,
    dispatcher: Arc<Dispatcher>,
    results: Mutex<Receiver<TaskResult>>,
    job_lock: Mutex<()>,
    job_counter: AtomicU64,
    stopped: AtomicBool,
    job_options: Mutex<JobOptions>,
    metrics: Mutex<Vec<JobMetrics>>,
}

/// The driver node: cheap to clone, shared by every RDD it creates.
#[derive(Clone)]
pub struct SparkContext {
    inner: Arc<Inner>,
}

impl SparkContext {
    /// Start a cluster per `conf` (executor threads spawn immediately).
    pub fn new(conf: SparkConf) -> SparkContext {
        let (tx, rx) = unbounded();
        let dispatcher = Arc::new(Dispatcher::new(
            (0..conf.executors)
                .map(|_| Arc::new(ExecutorShared::new()))
                .collect(),
        ));
        let executors = (0..conf.executors)
            .map(|id| {
                Executor::spawn(
                    id,
                    conf.slots_per_executor(),
                    Arc::clone(&dispatcher),
                    tx.clone(),
                )
            })
            .collect();
        SparkContext {
            inner: Arc::new(Inner {
                conf,
                executors,
                dispatcher,
                results: Mutex::new(rx),
                job_lock: Mutex::new(()),
                job_counter: AtomicU64::new(0),
                stopped: AtomicBool::new(false),
                job_options: Mutex::new(JobOptions::default()),
                metrics: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The configuration this context runs with.
    pub fn conf(&self) -> &SparkConf {
        &self.inner.conf
    }

    /// Scheduling policy for subsequent jobs (mode, speculation,
    /// quarantine). Persists until set again.
    pub fn set_job_options(&self, options: JobOptions) {
        *self.inner.job_options.lock() = options;
    }

    /// Current scheduling policy.
    pub fn job_options(&self) -> JobOptions {
        self.inner.job_options.lock().clone()
    }

    /// Distribute a collection into an RDD with `partitions` partitions.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, partitions: usize) -> Rdd<T> {
        Rdd::source(self.clone(), data, partitions)
    }

    /// Broadcast a read-only value to every executor, recording the
    /// BitTorrent-style distribution statistics for `size_bytes` of
    /// payload.
    pub fn broadcast<T: Data>(&self, value: T, size_bytes: u64) -> Broadcast<T> {
        Broadcast::new(
            value,
            BroadcastStats::torrent(size_bytes, self.inner.conf.executors),
        )
    }

    /// Kill executor `idx` (fault injection). It stops claiming work;
    /// queued tasks are rescued by alive peers via dynamic dispatch.
    pub fn kill_executor(&self, idx: usize) {
        self.inner.executors[idx].kill();
    }

    /// Revive a killed executor.
    pub fn revive_executor(&self, idx: usize) {
        self.inner.executors[idx].revive();
    }

    /// Make executor `idx` run every task `factor ×` slower (straggler
    /// injection for scheduler tests and benches). `1.0` restores it.
    pub fn set_executor_slow_factor(&self, idx: usize, factor: f64) {
        self.inner.executors[idx].set_slow_factor(factor);
    }

    /// Status of executor `idx`.
    pub fn executor_status(&self, idx: usize) -> crate::ExecutorStatus {
        self.inner.executors[idx].status()
    }

    /// Make the next `n` task *attempts* fail (deterministic retry tests).
    pub fn fail_next_tasks(&self, n: usize) {
        self.inner.dispatcher.inject_failures(n);
    }

    /// Metrics of every job run so far, oldest first.
    pub fn job_metrics(&self) -> Vec<JobMetrics> {
        self.job_metrics_since(0)
    }

    /// Number of jobs run so far.
    pub fn job_count(&self) -> usize {
        self.inner.metrics.lock().len()
    }

    /// Metrics of the jobs after the first `n`, oldest first (none when
    /// fewer than `n` have run): what a caller that noted [`job_count`]
    /// reads back, without copying the history before it.
    ///
    /// [`job_count`]: SparkContext::job_count
    pub fn job_metrics_since(&self, n: usize) -> Vec<JobMetrics> {
        let jobs = self.inner.metrics.lock();
        jobs.get(n..).unwrap_or_default().to_vec()
    }

    /// Metrics of the most recent job.
    pub fn last_job_metrics(&self) -> Option<JobMetrics> {
        self.inner.metrics.lock().last().cloned()
    }

    /// Stop the context: running jobs finish their in-flight tasks, new
    /// jobs are rejected. Idempotent.
    pub fn stop(&self) {
        self.inner.stopped.store(true, Ordering::SeqCst);
    }

    /// Run one task per partition of `lineage` and invoke
    /// `on_partition(index, partition)` on the driver thread the moment
    /// each partition's first successful attempt lands — in *arrival*
    /// order, while the remaining tasks are still executing — handing the
    /// partition over: nothing of it is kept here. This is what lets
    /// driver-side merging overlap the tail of the map phase instead of
    /// waiting behind a full-collect barrier.
    ///
    /// Tasks are dispatched through the elastic scheduler: executors pull
    /// from the job's queues per the configured [`ScheduleMode`]
    /// (see [`SparkContext::set_job_options`]), idle executors steal, and
    /// straggling tasks get speculative duplicates. Failed tasks are
    /// retried up to `max_task_attempts`, recomputing from lineage (the
    /// Spark fault-tolerance contract). First-writer-wins dedup keeps the
    /// handed-over partitions bitwise-identical across every mode,
    /// speculation included.
    ///
    /// [`ScheduleMode`]: crate::ScheduleMode
    pub(crate) fn run_job<T: Data, F>(
        &self,
        lineage: Arc<dyn Fn(usize) -> Vec<T> + Send + Sync>,
        partitions: usize,
        mut on_partition: F,
    ) -> Result<(), SparkError>
    where
        F: FnMut(usize, Vec<T>),
    {
        if self.inner.stopped.load(Ordering::SeqCst) {
            return Err(SparkError::ContextStopped);
        }
        let _guard = self.inner.job_lock.lock();
        let job = self.inner.job_counter.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();

        let options = self.inner.job_options.lock().clone();
        let runner: Runner = Arc::new(move |task| Box::new(lineage(task)) as Box<dyn Any + Send>);
        self.inner.dispatcher.submit_job(JobSpec {
            job,
            partitions,
            options: options.clone(),
            runner,
        })?;

        let driven = self.drive_job(job, partitions, &options, &mut on_partition);
        let steals = self.inner.dispatcher.clear_job(job);
        let mut metrics = driven?;

        metrics.steals = steals;
        metrics.wall_seconds = t0.elapsed().as_secs_f64();
        metrics.job_id = job;
        self.inner.metrics.lock().push(metrics);
        Ok(())
    }

    /// Consume results for `job` until every partition has succeeded,
    /// handling retries, stall detection and speculation.
    fn drive_job<T: Data, F>(
        &self,
        job: u64,
        partitions: usize,
        options: &JobOptions,
        on_partition: &mut F,
    ) -> Result<JobMetrics, SparkError>
    where
        F: FnMut(usize, Vec<T>),
    {
        let dispatcher = &self.inner.dispatcher;
        // First writer wins: a task's later successes are dropped.
        let mut finished = vec![false; partitions];
        let mut done = 0usize;
        let mut attempts_used = vec![1usize; partitions];
        let mut spec_launched = vec![false; partitions];
        let mut completed_seconds: Vec<f64> = Vec::with_capacity(partitions);
        let mut metrics = JobMetrics::from_tasks(job, 0.0, Vec::with_capacity(partitions));
        options.tenant.clone_into(&mut metrics.tenant);
        let trips_before = dispatcher.total_quarantine_trips();
        let misses_before = dispatcher.total_heartbeat_misses();

        let results = self.inner.results.lock();
        while done < partitions {
            let result = match results.recv_timeout(DRIVER_TICK) {
                Ok(result) => result,
                Err(RecvTimeoutError::Disconnected) => return Err(SparkError::NoExecutors),
                Err(RecvTimeoutError::Timeout) => {
                    if dispatcher.job_stalled(job) {
                        return Err(SparkError::NoExecutors);
                    }
                    self.check_heartbeats(options);
                    self.maybe_speculate(
                        job,
                        options,
                        partitions,
                        done,
                        &completed_seconds,
                        &attempts_used,
                        &mut spec_launched,
                        &mut metrics,
                    );
                    continue;
                }
            };
            if result.job != job {
                // Stale result from an earlier job that errored out
                // mid-flight; drop it.
                continue;
            }
            let TaskResult {
                task,
                attempt,
                executor,
                speculative,
                stolen,
                outcome,
                seconds,
                ..
            } = result;
            dispatcher.attempt_settled(job, task, executor);
            match outcome {
                Ok(boxed) => {
                    if !finished[task] {
                        dispatcher.mark_completed(job, task);
                        let part = boxed
                            .downcast::<Vec<T>>()
                            .expect("task produced the lineage element type");
                        finished[task] = true;
                        done += 1;
                        on_partition(task, *part);
                        let pos = completed_seconds.partition_point(|&s| s < seconds);
                        completed_seconds.insert(pos, seconds);
                        if spec_launched[task] {
                            if speculative {
                                metrics.spec_wins += 1;
                            } else {
                                metrics.spec_losses += 1;
                            }
                        }
                        metrics.tasks.push(TaskMetric {
                            task,
                            attempt,
                            executor,
                            seconds,
                            speculative,
                            stolen,
                        });
                    }
                }
                Err(err) => {
                    metrics.failed_attempts += 1;
                    dispatcher.record_task_failure(executor);
                    if finished[task] {
                        continue; // a newer attempt already succeeded
                    }
                    if speculative {
                        // A failed duplicate never counts against the
                        // task's attempt budget; allow another later.
                        spec_launched[task] = false;
                        continue;
                    }
                    if attempts_used[task] >= self.inner.conf.max_task_attempts {
                        return Err(SparkError::TaskFailed {
                            task,
                            attempts: attempts_used[task],
                            last_error: err,
                        });
                    }
                    attempts_used[task] += 1;
                    dispatcher.enqueue_retry(job, task, attempt + 1);
                }
            }
        }
        drop(results);

        metrics.task_attempts = attempts_used;
        metrics.quarantine_trips = dispatcher.total_quarantine_trips() - trips_before;
        metrics.heartbeat_misses = dispatcher.total_heartbeat_misses() - misses_before;
        Ok(metrics)
    }

    /// Score executors whose slot threads have not stamped a heartbeat
    /// within the configured window while they still hold running tasks.
    /// A wedged task (native hang, stuck I/O) keeps `running > 0` without
    /// any slot progressing, which is exactly the signature a heartbeat
    /// catches that task-failure scoring cannot.
    fn check_heartbeats(&self, options: &JobOptions) {
        let window = options.heartbeat_miss;
        if window == Duration::ZERO {
            return;
        }
        for id in 0..self.inner.conf.executors {
            let shared = self.inner.dispatcher.executor(id);
            if shared.is_alive() && shared.running() > 0 && shared.beat_age() > window {
                self.inner.dispatcher.record_heartbeat_miss(id, window);
            }
        }
    }

    /// Launch duplicates for running tasks slower than `spec_factor ×`
    /// the median completed task. Requires half the job done so the
    /// median is meaningful, and at most one outstanding copy per task.
    #[allow(clippy::too_many_arguments)]
    fn maybe_speculate(
        &self,
        job: u64,
        options: &JobOptions,
        partitions: usize,
        done: usize,
        completed_seconds: &[f64],
        attempts_used: &[usize],
        spec_launched: &mut [bool],
        metrics: &mut JobMetrics,
    ) {
        if options.spec_factor <= 0.0 || done >= partitions || done < (partitions / 2).max(1) {
            return;
        }
        let median = completed_seconds[completed_seconds.len() / 2];
        // 1ms floor: don't speculate on microsecond jitter.
        let threshold = Duration::from_secs_f64((options.spec_factor * median).max(1e-3));
        for (task, _running_on) in self.inner.dispatcher.overdue_tasks(job, threshold) {
            if spec_launched[task] {
                continue;
            }
            spec_launched[task] = true;
            metrics.spec_launched += 1;
            self.inner
                .dispatcher
                .enqueue_speculative(job, task, attempts_used[task]);
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.dispatcher.shutdown();
        for e in self.executors.drain(..) {
            e.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_metrics_since_reads_only_the_tail() {
        let sc = SparkContext::new(SparkConf::cluster(2, 2));
        assert_eq!(sc.job_count(), 0);
        assert!(sc.job_metrics_since(0).is_empty());
        for _ in 0..3 {
            sc.parallelize(vec![1u8, 2, 3], 2).collect().unwrap();
        }
        let all = sc.job_metrics();
        assert_eq!((sc.job_count(), all.len()), (3, 3));
        for n in 0..=3 {
            // Exactly the jobs after the first `n`; none at `n == len`.
            assert_eq!(sc.job_metrics_since(n), all[n..], "since {n}");
        }
        // Past the end is "nothing yet", not a panic.
        assert!(sc.job_metrics_since(4).is_empty());
        assert!(sc.job_metrics_since(usize::MAX).is_empty());
        sc.stop();
    }
}
