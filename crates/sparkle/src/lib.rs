#![warn(missing_docs)]

//! `sparkle` — the subset of Spark the paper's offload job uses, built
//! from scratch.
//!
//! OmpCloud executes an offloaded OpenMP loop as one Spark job: the
//! *driver* builds an RDD over the loop's tiles, *executors* on worker
//! nodes apply the loop body as a `map`, and the driver rebuilds every
//! output from the partitions as they arrive (paper §III-C). This crate
//! reproduces the Spark machinery that job needs:
//!
//! * [`Rdd`] — `parallelize`, one `map`, and `collect` or
//!   `for_each_partition`; its *lineage* (a pure recompute function per
//!   partition) provides fault tolerance: a lost task is simply
//!   recomputed elsewhere;
//! * [`SparkContext`] — the driver: owns executor threads, dispatches
//!   tasks through an elastic pull-based scheduler ([`ScheduleMode`]:
//!   static, dynamic, or work-stealing, with optional speculative
//!   re-execution of stragglers — see [`JobOptions`]), retries failed
//!   tasks up to `max_task_attempts`, and records [`JobMetrics`];
//! * [`Broadcast`] — shared read-only values with BitTorrent-style
//!   distribution accounting (the mechanism Spark uses for the matrix `B`
//!   every worker needs in full);
//! * fault injection — kill an executor mid-job or fail the next `n`
//!   tasks, and watch the job still complete correctly.
//!
//! ```
//! use sparkle::{SparkConf, SparkContext};
//!
//! let sc = SparkContext::new(SparkConf::local(4));
//! let rdd = sc.parallelize((0..1000i64).collect::<Vec<_>>(), 8);
//! let doubled = rdd.map(|x| x * 2).collect().unwrap();
//! assert_eq!(doubled.iter().sum::<i64>(), 999 * 1000);
//! sc.stop();
//! ```

mod broadcast;
mod context;
mod executor;
mod metrics;
mod rdd;
mod scheduler;
pub mod wfq;

pub use broadcast::{Broadcast, BroadcastStats};
pub use context::{SparkConf, SparkContext};
pub use executor::ExecutorStatus;
pub use metrics::{JobMetrics, TaskMetric};
pub use rdd::Rdd;
pub use scheduler::{JobOptions, QuarantineConfig, ScheduleMode};
pub use wfq::WfqQueue;

use std::fmt;

/// Marker bound for element types an RDD can hold.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}

/// Errors surfaced by job execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparkError {
    /// A task failed on every allowed attempt.
    TaskFailed {
        /// Partition index of the failed task.
        task: usize,
        /// Attempts consumed.
        attempts: usize,
        /// Error message of the final attempt.
        last_error: String,
    },
    /// The job was submitted after [`SparkContext::stop`].
    ContextStopped,
    /// No executor is alive to run tasks.
    NoExecutors,
}

impl fmt::Display for SparkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparkError::TaskFailed {
                task,
                attempts,
                last_error,
            } => {
                write!(
                    f,
                    "task {task} failed after {attempts} attempts: {last_error}"
                )
            }
            SparkError::ContextStopped => write!(f, "spark context is stopped"),
            SparkError::NoExecutors => write!(f, "no alive executors"),
        }
    }
}

impl std::error::Error for SparkError {}
