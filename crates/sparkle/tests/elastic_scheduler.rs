//! Behaviour of the elastic map-phase scheduler: dynamic dispatch,
//! work stealing, locality hints and speculative re-execution — asserted
//! through `JobMetrics` counters, not just timing.

use sparkle::{JobOptions, ScheduleMode, SparkConf, SparkContext, SparkError};
use std::time::Duration;

/// `executors` workers with one task slot each (2 vCPUs, task.cpus=2).
fn cluster(executors: usize) -> SparkContext {
    SparkContext::new(SparkConf::cluster(executors, 2))
}

fn options(mode: ScheduleMode, spec_factor: f64) -> JobOptions {
    JobOptions {
        mode,
        spec_factor,
        ..JobOptions::default()
    }
}

/// A deterministic float kernel: the same partition must produce the
/// same bits no matter which executor (or attempt) computes it.
fn kernel(x: i64) -> f64 {
    let v = x as f64;
    (v * 0.125 + 1.0).sqrt() * (v + 0.5).ln_1p() - v / 3.0
}

#[test]
fn dynamic_dispatch_lets_fast_executors_claim_more() {
    let sc = cluster(2);
    sc.set_executor_slow_factor(0, 10.0);
    sc.set_job_options(options(ScheduleMode::Dynamic, 0.0));
    let out = sc
        .parallelize((0..16i64).collect::<Vec<_>>(), 16)
        .map(|x| {
            std::thread::sleep(Duration::from_millis(2));
            x
        })
        .collect()
        .unwrap();
    assert_eq!(out.len(), 16);
    let metrics = sc.last_job_metrics().unwrap();
    let on_slow = metrics.tasks.iter().filter(|t| t.executor == 0).count();
    let on_fast = metrics.tasks.iter().filter(|t| t.executor == 1).count();
    assert!(
        on_fast > on_slow,
        "fast executor must out-claim the straggler (fast {on_fast} vs slow {on_slow})"
    );
    sc.stop();
}

#[test]
fn stealing_rebalances_seeded_queues() {
    let sc = cluster(2);
    sc.set_executor_slow_factor(0, 10.0);
    sc.set_job_options(options(ScheduleMode::Stealing, 0.0));
    let out = sc
        .parallelize((0..16i64).collect::<Vec<_>>(), 16)
        .map(|x| {
            std::thread::sleep(Duration::from_millis(2));
            x
        })
        .collect()
        .unwrap();
    assert_eq!(out.len(), 16);
    let metrics = sc.last_job_metrics().unwrap();
    assert!(
        metrics.steals >= 1,
        "idle executor must steal from the loaded one"
    );
    assert!(
        metrics.stolen_tasks() >= 1,
        "some winning attempts must be stolen ones"
    );
    sc.stop();
}

#[test]
fn speculation_beats_a_straggler_and_is_accounted() {
    let sc = cluster(4);
    sc.set_executor_slow_factor(0, 50.0);
    sc.set_job_options(options(ScheduleMode::Stealing, 2.0));
    let out = sc
        .parallelize((0..12i64).collect::<Vec<_>>(), 12)
        .map(|x| {
            std::thread::sleep(Duration::from_millis(4));
            kernel(x)
        })
        .collect()
        .unwrap();
    assert_eq!(out, (0..12i64).map(kernel).collect::<Vec<_>>());
    let metrics = sc.last_job_metrics().unwrap();
    assert!(
        metrics.spec_launched >= 1,
        "the 50x straggler must trigger speculation"
    );
    assert_eq!(
        metrics.spec_wins + metrics.spec_losses,
        metrics.spec_launched,
        "every speculative race must resolve"
    );
    assert!(
        metrics.spec_wins >= 1,
        "a duplicate on a fast executor must beat a 4ms-task-turned-200ms straggler"
    );
    // Counter-based tail-cut proof: every task finished, the straggler's
    // partition was won by a duplicate on a healthy executor, and no
    // winning attempt took the 50x-slowed path. (A wall-clock threshold
    // here was flaky under CI load.)
    assert_eq!(metrics.task_count(), 12, "every partition completed");
    assert!(
        metrics.tasks.iter().any(|t| t.speculative),
        "some winning attempt must be the speculative duplicate"
    );
    let slow_wins = metrics
        .tasks
        .iter()
        .filter(|t| t.executor == 0 && t.speculative)
        .count();
    assert_eq!(
        slow_wins, 0,
        "no speculative win should come from the slowed executor itself"
    );
    sc.stop();
}

#[test]
fn results_are_bitwise_identical_across_modes_and_speculation() {
    let reference: Vec<u64> = (0..64i64).map(|x| kernel(x).to_bits()).collect();
    for mode in [
        ScheduleMode::Static,
        ScheduleMode::Dynamic,
        ScheduleMode::Stealing,
    ] {
        for spec_factor in [0.0, 1.5] {
            let sc = cluster(3);
            // A straggler makes stealing/speculation actually engage.
            sc.set_executor_slow_factor(0, 20.0);
            sc.set_job_options(options(mode, spec_factor));
            let out = sc
                .parallelize((0..64i64).collect::<Vec<_>>(), 32)
                .map(|x| {
                    std::thread::sleep(Duration::from_millis(1));
                    kernel(x)
                })
                .collect()
                .unwrap();
            let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits, reference,
                "bitwise parity violated under mode={mode} spec_factor={spec_factor}"
            );
            let metrics = sc.last_job_metrics().unwrap();
            assert_eq!(
                metrics.task_count(),
                32,
                "first-writer-wins dedup must hold"
            );
            sc.stop();
        }
    }
}

#[test]
fn locality_hints_pin_tasks_inside_the_wait_window() {
    let sc = cluster(2);
    sc.set_job_options(JobOptions {
        mode: ScheduleMode::Stealing,
        locality_wait: Duration::from_millis(500),
        ..JobOptions::default()
    });
    sc.set_next_job_locality(vec![Some(1); 8]);
    let out = sc
        .parallelize((0..8i64).collect::<Vec<_>>(), 8)
        .map(|x| x + 1)
        .collect()
        .unwrap();
    assert_eq!(out, (1..=8i64).collect::<Vec<_>>());
    let metrics = sc.last_job_metrics().unwrap();
    assert!(
        metrics.tasks.iter().all(|t| t.executor == 1),
        "hinted tasks must run on their resident executor within the wait window"
    );
    assert_eq!((metrics.locality_hits, metrics.locality_misses), (8, 0));
    // Hints are consumed: the next job spreads normally again.
    let out = sc
        .parallelize((0..32i64).collect::<Vec<_>>(), 16)
        .map(|x| {
            std::thread::sleep(Duration::from_millis(1));
            x
        })
        .collect()
        .unwrap();
    assert_eq!(out.len(), 32);
    let metrics = sc.last_job_metrics().unwrap();
    assert!(
        metrics.executors_used() >= 2,
        "stale hints must not leak onto later jobs"
    );
    assert_eq!((metrics.locality_hits, metrics.locality_misses), (0, 0));
    sc.stop();
}

#[test]
fn expired_locality_wait_releases_hinted_tasks_to_thieves() {
    let sc = cluster(2);
    sc.set_job_options(JobOptions {
        mode: ScheduleMode::Stealing,
        locality_wait: Duration::from_millis(5),
        ..JobOptions::default()
    });
    // Pin everything to the slow executor with a tiny wait: after it
    // expires, the idle peer must take over most of the work.
    sc.set_executor_slow_factor(0, 20.0);
    sc.set_next_job_locality(vec![Some(0); 16]);
    let out = sc
        .parallelize((0..16i64).collect::<Vec<_>>(), 16)
        .map(|x| {
            std::thread::sleep(Duration::from_millis(2));
            x
        })
        .collect()
        .unwrap();
    assert_eq!(out.len(), 16);
    let metrics = sc.last_job_metrics().unwrap();
    assert!(
        metrics.tasks.iter().any(|t| t.executor == 1),
        "expired delay-scheduling window must allow stealing"
    );
    // Every hinted task is a hit or a miss; the stolen ones are misses.
    assert_eq!(metrics.locality_hits + metrics.locality_misses, 16);
    assert!(metrics.locality_misses >= 1);
    sc.stop();
}

#[test]
fn killing_every_executor_mid_job_errors_instead_of_hanging() {
    let sc = cluster(2);
    let killer = {
        let sc = sc.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(8));
            sc.kill_executor(0);
            sc.kill_executor(1);
        })
    };
    let result = sc
        .parallelize((0..64i64).collect::<Vec<_>>(), 64)
        .map(|x| {
            std::thread::sleep(Duration::from_millis(2));
            x
        })
        .collect();
    killer.join().unwrap();
    assert_eq!(result.unwrap_err(), SparkError::NoExecutors);
    // Revival restores service.
    sc.revive_executor(0);
    assert_eq!(sc.parallelize(vec![9i64], 1).collect().unwrap(), vec![9]);
    sc.stop();
}

#[test]
fn static_mode_still_completes_and_spreads() {
    let sc = cluster(4);
    sc.set_job_options(options(ScheduleMode::Static, 0.0));
    let out = sc
        .parallelize((0..32i64).collect::<Vec<_>>(), 16)
        .map(|x| {
            std::thread::sleep(Duration::from_millis(1));
            x * 2
        })
        .collect()
        .unwrap();
    assert_eq!(out, (0..32i64).map(|x| x * 2).collect::<Vec<_>>());
    let metrics = sc.last_job_metrics().unwrap();
    assert!(metrics.executors_used() >= 2);
    assert_eq!(
        metrics.steals, 0,
        "static mode must not steal from alive executors"
    );
    sc.stop();
}
