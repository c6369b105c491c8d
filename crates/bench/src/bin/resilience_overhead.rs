//! Measures what retries cost a fan-in region when something goes
//! wrong, beside the same region when nothing does.
//!
//! Two legs over the same fan-in region on a latency store, both on the
//! one transfer path there is (wire crc32 ledger verified on every
//! download, retry policy armed with 2 ms backoff):
//!
//! * `on`    — zero faults injected.
//! * `chaos` — a seeded 5%-transient fault plan; reported as p50/p95
//!   wall time so the tail cost of retries is visible.
//!
//! (Until PR 24 a third leg, `off`, ran with `verify-integrity = no` and
//! zero backoff; its three-run medians against `on` are in
//! EXPERIMENTS.md "Knob diet, second cut".)
//!
//! Usage: `cargo run --release -p ompcloud-bench --bin resilience_overhead
//!         [-- --json PATH]` (default PATH: BENCH_resilience.json)

use cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, LatencyStore, OpFilter, S3Store, StoreHandle,
    Trigger,
};
use jsonlite::{Json, ToJson};
use omp_model::prelude::*;
use ompcloud::{CloudConfig, CloudDevice, CloudRuntime};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_BUFS: usize = 24;
const N: usize = 128;
const LATENCY_MS: u64 = 2;
const CLEAN_REPS: usize = 20;
const CHAOS_REPS: usize = 20;
const CHAOS_SEED: u64 = 42;

struct ModeResult {
    mode: String,
    mean_s: f64,
    median_s: f64,
    p95_s: f64,
    retries: u64,
    refetches: u64,
}

impl ToJson for ModeResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mode", self.mode.to_json()),
            ("mean_s", self.mean_s.to_json()),
            ("median_s", self.median_s.to_json()),
            ("p95_s", self.p95_s.to_json()),
            ("retries", self.retries.to_json()),
            ("refetches", self.refetches.to_json()),
        ])
    }
}

fn region(device: DeviceSelector) -> TargetRegion {
    let mut builder = TargetRegion::builder("fan_in").device(device);
    for k in 0..N_BUFS {
        builder = builder.map_to(format!("x{k}"));
    }
    builder
        .map_from("y")
        .parallel_for(N, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let mut acc = 0.0f32;
                    for k in 0..N_BUFS {
                        acc += ins.view::<f32>(&format!("x{k}"))[i];
                    }
                    outs.view_mut::<f32>("y")[i] = acc;
                })
        })
        .build()
        .expect("valid region")
}

fn env() -> DataEnv {
    let mut env = DataEnv::new();
    for k in 0..N_BUFS {
        env.insert("x".to_string() + &k.to_string(), {
            (0..N * 32)
                .map(|i| ((i + k) % 17) as f32)
                .collect::<Vec<_>>()
        });
    }
    env.insert("y", vec![0.0f32; N]);
    env
}

fn config() -> CloudConfig {
    CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        min_compression_size: 1024,
        io_threads: 32,
        backoff_base_ms: 2,
        backoff_cap_ms: 50,
        ..CloudConfig::default()
    }
}

fn p95(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64) * 0.95).ceil() as usize;
    sorted[idx.min(sorted.len()) - 1]
}

/// Run `reps` offloads through `make_store`'s stores, returning wall
/// times plus summed resilience counters.
fn run_mode(mode: &str, reps: usize, make_store: impl Fn(usize) -> StoreHandle) -> ModeResult {
    let mut times = Vec::with_capacity(reps);
    let (mut retries, mut refetches) = (0u64, 0u64);
    // One discarded warm-up rep: thread pools and allocator caches make
    // whichever mode runs first look slower otherwise.
    for rep in 0..reps + 1 {
        let rt = CloudRuntime::with_device(CloudDevice::with_store(config(), make_store(rep)));
        let mut e = env();
        let t0 = Instant::now();
        rt.offload(&region(CloudRuntime::cloud_selector()), &mut e)
            .expect("offload");
        let elapsed = t0.elapsed().as_secs_f64();
        let expected: f32 = (0..N_BUFS).map(|k| (k % 17) as f32).sum();
        assert_eq!(e.get::<f32>("y").unwrap()[0], expected);
        if rep > 0 {
            times.push(elapsed);
            if let Some(report) = rt.cloud().last_report() {
                retries += u64::from(report.resilience.transient_retries);
                refetches += u64::from(report.resilience.corruption_refetches);
            }
        }
        rt.shutdown();
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ModeResult {
        mode: mode.into(),
        mean_s: times.iter().sum::<f64>() / reps as f64,
        median_s: times[reps / 2],
        p95_s: p95(&times),
        retries,
        refetches,
    }
}

fn latency_store() -> StoreHandle {
    Arc::new(LatencyStore::new(
        Arc::new(S3Store::standalone("bench")),
        Duration::from_millis(LATENCY_MS),
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_resilience.json".to_string());

    println!(
        "Resilience-layer overhead — {N_BUFS} buffers, {LATENCY_MS}ms/op injected \
         latency, {CLEAN_REPS} clean + {CHAOS_REPS} chaos runs\n"
    );

    let on = run_mode("on", CLEAN_REPS, |_| latency_store());
    let chaos = run_mode("chaos", CHAOS_REPS, |rep| {
        let plan = FaultPlan::new(CHAOS_SEED.wrapping_add(rep as u64)).rule(FaultRule::new(
            OpFilter::Any,
            Trigger::Probability(0.05),
            FaultKind::Transient,
        ));
        Arc::new(ChaosStore::new(latency_store(), plan))
    });

    // Medians, not means: per-run wall times are tens of milliseconds,
    // where scheduler noise dominates a mean but barely moves a median.
    let chaos_tail_pct = (chaos.p95_s / on.median_s - 1.0) * 100.0;

    for r in [&on, &chaos] {
        println!(
            "{:>6}: median {:6.3}s  mean {:6.3}s  p95 {:6.3}s  ({} retries, {} re-fetches)",
            r.mode, r.median_s, r.mean_s, r.p95_s, r.retries, r.refetches
        );
    }
    println!("\nchaos p95 vs clean median: {chaos_tail_pct:+.1}%");
    assert!(
        chaos.retries > 0,
        "the 5% transient plan must actually exercise the retry path"
    );

    let doc = Json::obj([
        ("benchmark", "resilience_overhead".to_json()),
        ("n_buffers", (N_BUFS as u64).to_json()),
        ("latency_ms", LATENCY_MS.to_json()),
        ("clean_repetitions", (CLEAN_REPS as u64).to_json()),
        ("chaos_repetitions", (CHAOS_REPS as u64).to_json()),
        ("chaos_seed", CHAOS_SEED.to_json()),
        ("on", on.to_json()),
        ("chaos", chaos.to_json()),
        ("chaos_tail_pct", chaos_tail_pct.to_json()),
    ]);
    std::fs::write(&json_path, jsonlite::to_string_pretty(&doc)).expect("write json");
    println!("wrote {json_path}");
}
