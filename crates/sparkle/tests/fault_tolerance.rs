//! Fault-tolerance and scheduling behaviour of the sparkle engine:
//! lineage-based recomputation must make executor failures and task
//! crashes invisible to the job's result.

use sparkle::{ExecutorStatus, SparkConf, SparkContext, SparkError};

fn cluster(executors: usize, vcpus: usize) -> SparkContext {
    SparkContext::new(SparkConf::cluster(executors, vcpus))
}

#[test]
fn injected_task_failures_are_retried_transparently() {
    let sc = cluster(4, 4);
    sc.fail_next_tasks(3);
    let out = sc
        .parallelize((0..1000i64).collect::<Vec<_>>(), 16)
        .map(|x| x + 1)
        .collect()
        .unwrap();
    assert_eq!(out, (1..=1000).collect::<Vec<i64>>());
    let metrics = sc.last_job_metrics().unwrap();
    assert!(
        metrics.retried_tasks() >= 1,
        "at least one task must have been retried"
    );
    assert!(
        metrics.failed_attempts >= metrics.retried_tasks(),
        "every retried task implies at least one failed attempt"
    );
    sc.stop();
}

#[test]
fn too_many_failures_fail_the_job() {
    let sc = cluster(2, 4);
    // 4 attempts allowed; poison far more attempts than the job has.
    sc.fail_next_tasks(1000);
    let err = sc.parallelize(vec![1, 2, 3], 2).collect().unwrap_err();
    assert!(matches!(err, SparkError::TaskFailed { .. }));
    // The context stays usable afterwards.
    sc.fail_next_tasks(0);
    assert_eq!(
        sc.parallelize(vec![1, 2, 3], 2).collect().unwrap(),
        vec![1, 2, 3]
    );
    sc.stop();
}

#[test]
fn killed_executor_mid_workload_results_still_correct() {
    let sc = cluster(4, 2);
    let rdd = sc
        .parallelize((0..10_000i64).collect::<Vec<_>>(), 64)
        .map(|x| x * 2);

    // Kill one executor; whatever was seeded on its queue is rescued by
    // the survivors through dynamic dispatch.
    sc.kill_executor(0);
    assert_eq!(sc.executor_status(0), ExecutorStatus::Dead);
    let sum: i64 = rdd.collect().unwrap().iter().sum();
    assert_eq!(sum, (0..10_000i64).map(|x| x * 2).sum::<i64>());

    let metrics = sc.last_job_metrics().unwrap();
    assert!(
        metrics.executors_used() <= 3,
        "dead executor must not produce results"
    );
    sc.stop();
}

#[test]
fn killed_executor_mid_job_work_is_rescued_without_retries() {
    // Regression: before pull-based dispatch, a mid-job kill left the
    // executor's statically-assigned partitions to fail and re-enter the
    // retry sweep. With elastic dispatch the dead executor just stops
    // claiming and its queued work is rescued by peers — no attempt is
    // ever burned.
    let sc = cluster(4, 2);
    let killer = {
        let sc = sc.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            sc.kill_executor(0);
        })
    };
    let out = sc
        .parallelize((0..200i64).collect::<Vec<_>>(), 100)
        .map(|x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            x * 3
        })
        .collect()
        .unwrap();
    killer.join().unwrap();
    assert_eq!(out, (0..200i64).map(|x| x * 3).collect::<Vec<_>>());
    let metrics = sc.last_job_metrics().unwrap();
    assert_eq!(metrics.task_count(), 100);
    assert_eq!(
        metrics.retried_tasks(),
        0,
        "mid-job kill must be absorbed by dispatch, not the retry sweep"
    );
    assert_eq!(sc.executor_status(0), ExecutorStatus::Dead);
    sc.stop();
}

#[test]
fn all_executors_dead_is_an_error() {
    let sc = cluster(2, 2);
    sc.kill_executor(0);
    sc.kill_executor(1);
    let err = sc.parallelize(vec![1u8], 1).collect().unwrap_err();
    assert_eq!(err, SparkError::NoExecutors);
    sc.revive_executor(0);
    assert_eq!(sc.parallelize(vec![1u8], 1).collect().unwrap(), vec![1]);
    sc.stop();
}

#[test]
fn panicking_kernel_body_fails_job_not_process() {
    let sc = cluster(2, 2);
    let rdd = sc.parallelize((0..8i32).collect::<Vec<_>>(), 4).map(|x| {
        if x == 5 {
            panic!("simulated native fault in loop body");
        }
        x
    });
    let err = rdd.collect().unwrap_err();
    match err {
        SparkError::TaskFailed { last_error, .. } => {
            assert!(last_error.contains("simulated native fault"));
        }
        other => panic!("unexpected error {other}"),
    }
    sc.stop();
}

#[test]
fn stopped_context_rejects_jobs() {
    let sc = cluster(2, 2);
    sc.stop();
    assert_eq!(
        sc.parallelize(vec![1], 1).collect().unwrap_err(),
        SparkError::ContextStopped
    );
}

#[test]
fn work_spreads_across_executors() {
    let sc = cluster(4, 2);
    // Tasks that take long enough for the round-robin to matter.
    let out = sc
        .parallelize((0..64u64).collect::<Vec<_>>(), 32)
        .map(|x| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            x
        })
        .collect()
        .unwrap();
    assert_eq!(out.len(), 64);
    let metrics = sc.last_job_metrics().unwrap();
    assert!(
        metrics.executors_used() >= 2,
        "expected spread, used {}",
        metrics.executors_used()
    );
    assert_eq!(metrics.task_count(), 32);
    sc.stop();
}

#[test]
fn successive_jobs_reuse_the_cluster() {
    // OmpCloud regions with several parallel loops run successive
    // map-reduce jobs on one context (paper §III-D).
    let sc = cluster(3, 2);
    let stage1 = sc
        .parallelize((0..100i64).collect::<Vec<_>>(), 6)
        .map(|x| x + 1);
    let v1 = stage1.collect().unwrap();
    let stage2 = sc.parallelize(v1, 6).map(|x| x * 3);
    let v2 = stage2.collect().unwrap();
    assert_eq!(v2[0], 3);
    assert_eq!(v2[99], 300);
    assert_eq!(sc.job_metrics().len(), 2);
    sc.stop();
}

#[test]
fn conf_slot_math_matches_paper_setup() {
    // 16 workers x 32 vCPU, task.cpus = 2 -> 16 slots per executor,
    // 256 total (the paper's largest configuration).
    let conf = SparkConf::cluster(16, 32);
    assert_eq!(conf.slots_per_executor(), 16);
    assert_eq!(conf.total_slots(), 256);
}
