//! Job instrumentation — the measurements behind the "Spark overhead"
//! bars of Fig. 5, plus the elastic scheduler's behavior counters
//! (attempts, steals, speculation) so tests and benches can assert *how*
//! a job was scheduled, not only how long it took.

/// One successful task attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskMetric {
    /// Partition index.
    pub task: usize,
    /// Attempt number that succeeded (0 = first try).
    pub attempt: usize,
    /// Executor that ran it.
    pub executor: usize,
    /// Wall time of the attempt in seconds.
    pub seconds: f64,
    /// The winning attempt was a speculative duplicate.
    pub speculative: bool,
    /// The winning attempt was stolen from (or rescued off) another
    /// executor's queue.
    pub stolen: bool,
}

impl TaskMetric {
    /// A plain first-attempt metric (tests, synthetic fixtures).
    pub fn simple(task: usize, attempt: usize, executor: usize, seconds: f64) -> TaskMetric {
        TaskMetric {
            task,
            attempt,
            executor,
            seconds,
            speculative: false,
            stolen: false,
        }
    }
}

/// Aggregate metrics of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// Job id (monotone per context).
    pub job_id: u64,
    /// Tenant the job ran for (`"default"` outside multi-tenant use).
    pub tenant: String,
    /// Wall time from submission to last result.
    pub wall_seconds: f64,
    /// Successful task attempts, in completion order.
    pub tasks: Vec<TaskMetric>,
    /// Attempts launched per partition (1 = clean first try), indexed by
    /// partition. Speculative duplicates are not counted here.
    pub task_attempts: Vec<usize>,
    /// Task claims served from another executor's queue (steals plus
    /// dead-executor rescues).
    pub steals: usize,
    /// Speculative duplicates launched.
    pub spec_launched: usize,
    /// Tasks whose speculative duplicate finished first.
    pub spec_wins: usize,
    /// Tasks whose original attempt beat its speculative duplicate.
    pub spec_losses: usize,
    /// Task attempts that failed (retried originals and lost
    /// speculative duplicates alike).
    pub failed_attempts: usize,
    /// Executors blacklisted by the quarantine policy during this job.
    pub quarantine_trips: usize,
    /// Heartbeat windows an executor missed while holding running tasks.
    pub heartbeat_misses: usize,
    /// Tasks whose winning attempt ran on the executor their locality
    /// hint named (tile residency from an earlier map phase paid off).
    pub locality_hits: usize,
    /// Tasks that carried a locality hint but ran elsewhere.
    pub locality_misses: usize,
}

impl JobMetrics {
    pub(crate) fn from_tasks(job_id: u64, wall_seconds: f64, tasks: Vec<TaskMetric>) -> JobMetrics {
        JobMetrics {
            job_id,
            tenant: "default".to_string(),
            wall_seconds,
            tasks,
            task_attempts: Vec::new(),
            steals: 0,
            spec_launched: 0,
            spec_wins: 0,
            spec_losses: 0,
            failed_attempts: 0,
            quarantine_trips: 0,
            heartbeat_misses: 0,
            locality_hits: 0,
            locality_misses: 0,
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Tasks that needed more than one attempt.
    pub fn retried_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| t.attempt > 0).count()
    }

    /// Successful attempts that ran somewhere other than the queue they
    /// were seeded on.
    pub fn stolen_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| t.stolen).count()
    }

    /// Sum of task wall times (total compute consumed).
    pub fn total_task_seconds(&self) -> f64 {
        self.tasks.iter().map(|t| t.seconds).sum()
    }

    /// Longest task (the straggler that bounds the makespan).
    pub fn max_task_seconds(&self) -> f64 {
        self.tasks.iter().map(|t| t.seconds).fold(0.0, f64::max)
    }

    /// How many distinct executors participated.
    pub fn executors_used(&self) -> usize {
        let mut ids: Vec<usize> = self.tasks.iter().map(|t| t.executor).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Cluster utilization in [0, 1]: busy task-seconds over the
    /// wall-time capacity of `total_slots` slots. Low utilization on a
    /// short job is scheduling overhead; on a long job it is imbalance.
    pub fn utilization(&self, total_slots: usize) -> f64 {
        let capacity = self.wall_seconds * total_slots.max(1) as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.total_task_seconds() / capacity).min(1.0)
        }
    }

    /// Conservation law of speculative execution: every launched
    /// duplicate either wins its race or loses it — nothing dangles.
    pub fn speculation_balanced(&self) -> bool {
        self.spec_wins + self.spec_losses == self.spec_launched
    }

    /// Highest executor id that ran a winning attempt, if any task ran.
    /// The oracle bounds this by the configured worker count.
    pub fn max_executor_id(&self) -> Option<usize> {
        self.tasks.iter().map(|t| t.executor).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobMetrics {
        JobMetrics::from_tasks(
            7,
            1.0,
            vec![
                TaskMetric::simple(0, 0, 0, 0.5),
                TaskMetric::simple(1, 1, 1, 0.8),
                TaskMetric::simple(2, 0, 0, 0.2),
            ],
        )
    }

    #[test]
    fn aggregates() {
        let m = sample();
        assert_eq!(m.task_count(), 3);
        assert_eq!(m.retried_tasks(), 1);
        assert!((m.total_task_seconds() - 1.5).abs() < 1e-12);
        assert!((m.max_task_seconds() - 0.8).abs() < 1e-12);
        assert_eq!(m.executors_used(), 2);
    }

    #[test]
    fn utilization_is_busy_seconds_over_slot_capacity() {
        let m = sample();
        // 1.5 busy seconds over 1.0s x 4 slots.
        assert!((m.utilization(4) - 0.375).abs() < 1e-12);
        assert_eq!(m.utilization(0), m.utilization(1));
    }

    #[test]
    fn empty_job_is_well_defined() {
        let m = JobMetrics::from_tasks(0, 0.1, vec![]);
        assert_eq!(m.task_count(), 0);
        assert_eq!(m.max_task_seconds(), 0.0);
        assert_eq!(m.stolen_tasks(), 0);
        assert_eq!(
            (m.steals, m.spec_launched, m.spec_wins, m.spec_losses),
            (0, 0, 0, 0)
        );
        assert_eq!((m.quarantine_trips, m.heartbeat_misses), (0, 0));
    }

    #[test]
    fn scheduler_counters_are_reported() {
        let mut m = sample();
        m.tasks[1].stolen = true;
        m.tasks[2].speculative = true;
        m.steals = 2;
        m.spec_launched = 1;
        m.spec_wins = 1;
        assert_eq!(m.stolen_tasks(), 1);
        assert_eq!(m.spec_wins + m.spec_losses, m.spec_launched);
    }
}
