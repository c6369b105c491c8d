//! Measures the elastic map-phase scheduler against static partition
//! assignment under an injected straggler — the Fig. 5 "map phase is
//! bound by the slowest worker" problem, attacked with dynamic dispatch,
//! work stealing and speculative re-execution.
//!
//! The cluster is 8 single-slot executors; executor 0 runs every task
//! 8x slower (noisy neighbour / failing disk). Each mode runs the same
//! 32-task map job many times and reports p50/p95/p99 of the map-phase
//! wall time, plus the scheduler counters (steals, speculative copies).
//! A cloudsim projection of the same scenario at paper scale rides
//! along for calibration.
//!
//! Usage: `cargo run --release -p ompcloud-bench --bin straggler_scheduler
//!         [-- --json PATH] [--smoke]` (default PATH: BENCH_scheduler.json)

use cloudsim::{stage_makespan_stragglers, DispatchPolicy, StragglerScenario};
use jsonlite::{Json, ToJson};
use sparkle::{JobOptions, ScheduleMode, SparkConf, SparkContext};
use std::time::Duration;

const EXECUTORS: usize = 8;
const TASKS: usize = 32;
const TASK_MS: u64 = 2;
const SLOW_FACTOR: f64 = 8.0;

/// A deterministic float kernel: bitwise parity across modes is part of
/// the benchmark's contract, not just speed.
fn kernel(x: i64) -> f64 {
    let v = x as f64;
    (v * 0.375 + 2.0).sqrt() * (v + 1.5).ln() - v / 7.0
}

struct ModeResult {
    mode: String,
    p50_s: f64,
    p95_s: f64,
    p99_s: f64,
    mean_s: f64,
    steals: u64,
    spec_launched: u64,
    spec_wins: u64,
}

impl ToJson for ModeResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mode", self.mode.to_json()),
            ("p50_s", self.p50_s.to_json()),
            ("p95_s", self.p95_s.to_json()),
            ("p99_s", self.p99_s.to_json()),
            ("mean_s", self.mean_s.to_json()),
            ("steals", self.steals.to_json()),
            ("spec_launched", self.spec_launched.to_json()),
            ("spec_wins", self.spec_wins.to_json()),
        ])
    }
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn run_mode(label: &str, mode: ScheduleMode, spec_factor: f64, reps: usize) -> ModeResult {
    let reference: Vec<u64> = (0..TASKS as i64).map(|x| kernel(x).to_bits()).collect();
    let mut walls = Vec::with_capacity(reps);
    let (mut steals, mut spec_launched, mut spec_wins) = (0u64, 0u64, 0u64);
    for _ in 0..reps {
        // A fresh cluster per repetition: no residual queue state, and
        // the straggler is re-injected from scratch.
        let sc = SparkContext::new(SparkConf::cluster(EXECUTORS, 2));
        sc.set_executor_slow_factor(0, SLOW_FACTOR);
        sc.set_job_options(JobOptions {
            mode,
            spec_factor,
            ..JobOptions::default()
        });
        let out = sc
            .parallelize((0..TASKS as i64).collect::<Vec<_>>(), TASKS)
            .map(|x| {
                std::thread::sleep(Duration::from_millis(TASK_MS));
                kernel(x)
            })
            .collect()
            .expect("map job");
        let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, reference, "bitwise parity violated in mode {label}");
        let m = sc.last_job_metrics().expect("job metrics");
        assert_eq!(m.task_count(), TASKS, "first-writer-wins dedup must hold");
        walls.push(m.wall_seconds);
        steals += m.steals as u64;
        spec_launched += m.spec_launched as u64;
        spec_wins += m.spec_wins as u64;
        sc.stop();
    }
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite walls"));
    ModeResult {
        mode: label.to_string(),
        p50_s: percentile(&walls, 50.0),
        p95_s: percentile(&walls, 95.0),
        p99_s: percentile(&walls, 99.0),
        mean_s: walls.iter().sum::<f64>() / walls.len() as f64,
        steals,
        spec_launched,
        spec_wins,
    }
}

/// Cloudsim projection of the same scenario: 32 uniform tasks, 8 cores,
/// 1 straggler at 8x, per policy.
fn model_projection() -> Json {
    let scenario = StragglerScenario {
        slow_cores: 1,
        slow_factor: SLOW_FACTOR,
    };
    let base = TASK_MS as f64 / 1000.0;
    let project =
        |policy| stage_makespan_stragglers(TASKS, EXECUTORS, base, 0.03, scenario, policy);
    Json::obj([
        ("static_s", project(DispatchPolicy::Static).to_json()),
        ("dynamic_s", project(DispatchPolicy::Dynamic).to_json()),
        (
            "speculative_s",
            project(DispatchPolicy::Speculative { spec_factor: 1.5 }).to_json(),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_scheduler.json".to_string());
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps = if smoke { 5 } else { 40 };

    println!(
        "Elastic map-phase scheduler under a straggler — {EXECUTORS} executors, 1 slow at \
         {SLOW_FACTOR}x, {TASKS} x {TASK_MS}ms tasks, {reps} reps per mode\n"
    );

    let modes = [
        ("static", ScheduleMode::Static, 0.0),
        ("dynamic", ScheduleMode::Dynamic, 0.0),
        ("stealing", ScheduleMode::Stealing, 0.0),
        ("stealing+spec", ScheduleMode::Stealing, 1.5),
    ];
    let results: Vec<ModeResult> = modes
        .iter()
        .map(|(label, mode, spec)| run_mode(label, *mode, *spec, reps))
        .collect();

    for r in &results {
        println!(
            "{:>14}: p50 {:7.2}ms  p95 {:7.2}ms  p99 {:7.2}ms  (steals {}, spec {}/{} won)",
            r.mode,
            r.p50_s * 1e3,
            r.p95_s * 1e3,
            r.p99_s * 1e3,
            r.steals,
            r.spec_wins,
            r.spec_launched,
        );
    }

    let static_p95 = results[0].p95_s;
    let best_p95 = results[3].p95_s;
    let improvement_p95 = (1.0 - best_p95 / static_p95) * 100.0;
    println!("\np95 map-phase improvement (stealing+spec vs static): {improvement_p95:.1}%");

    let doc = Json::obj([
        ("benchmark", "straggler_scheduler".to_json()),
        ("executors", (EXECUTORS as u64).to_json()),
        ("tasks", (TASKS as u64).to_json()),
        ("task_ms", TASK_MS.to_json()),
        ("slow_factor", SLOW_FACTOR.to_json()),
        ("repetitions", (reps as u64).to_json()),
        ("modes", results.to_json()),
        ("improvement_p95_pct", improvement_p95.to_json()),
        ("model_projection", model_projection()),
    ]);
    std::fs::write(&json_path, jsonlite::to_string_pretty(&doc)).expect("write json");
    println!("wrote {json_path}");
}
