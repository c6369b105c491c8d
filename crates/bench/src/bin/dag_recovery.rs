//! Measures what lineage-based recovery buys: a K-stage dependent chain
//! whose resident intermediate is killed (driver copy AND durable store
//! key) after stage `KILL_AFTER` commits, versus the same chain run
//! clean. Stage `k` reads `y{k}` and writes a fresh `y{k+1}`: a
//! `map(from:)` → `map(to:)` hand-off, which a `taskwait` does not fuse,
//! so every hand-off is a resident version that can be lost. Recovery re-executes only the producing region, so its extra
//! cost must stay well under a whole-chain restart.
//!
//! Two configurations over the same iterative region on a latency
//! store:
//!
//! * `clean`    — the K-stage `depend`/`nowait` chain, no fault: the
//!   baseline wall time and also the price of restarting the chain from
//!   scratch (the strategy this PR replaces).
//! * `recovery` — the same chain with the resident buffer destroyed
//!   mid-flight: the consumer's fetch misses, the runtime replays the
//!   one producing stage pinned to its recorded input version, and the
//!   chain finishes cloud-side.
//!
//! The machine-checked gate (here *and* from the emitted JSON in CI):
//! the recovery overhead — recovery median minus clean median — must be
//! <= 0.5x the clean chain itself. Both runs must be bitwise identical
//! to the sequential host chain, and exactly one lineage recompute (and
//! zero stage fallbacks) must be counted.
//!
//! Usage: `cargo run --release -p ompcloud-bench --bin dag_recovery
//!         [-- --json PATH]` (default PATH: BENCH_lineage.json)

use cloud_storage::{LatencyStore, S3Store, StoreHandle};
use jsonlite::{Json, ToJson};
use omp_model::prelude::*;
use ompcloud::{
    CloudConfig, CloudDevice, CloudRuntime, DataflowSummary, ResidentFault, ResidentFaultKind,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 64 * 1024;
const K: usize = 4;
/// DAG epoch after whose commit the resident buffer is destroyed.
const KILL_AFTER: usize = 1;
const LATENCY_MS: u64 = 2;
const REPS: usize = 7;
/// The machine-checked gate: recovery overhead vs the clean chain
/// (a whole-chain restart would cost 1.0x by definition).
const GATE_RATIO: f64 = 0.5;

struct ModeResult {
    mode: String,
    median_s: f64,
    mean_s: f64,
    /// The `DagReport`'s counters (deterministic; read off the warm-up).
    dataflow: DataflowSummary,
}

impl ToJson for ModeResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mode", self.mode.to_json()),
            ("median_s", self.median_s.to_json()),
            ("mean_s", self.mean_s.to_json()),
            (
                "lineage_recomputes",
                self.dataflow.lineage_recomputes.to_json(),
            ),
            ("stage_fallbacks", self.dataflow.stage_fallbacks.to_json()),
            ("resident_repairs", self.dataflow.resident_repairs.to_json()),
        ])
    }
}

/// The chain's variables: stage `k` reads `Y[k]` and writes `Y[k + 1]`.
const Y: [&str; K + 1] = ["y0", "y1", "y2", "y3", "y4"];

/// One chain stage: an elementwise rewrite of `y{idx}` into `y{idx+1}`
/// with a stage-dependent constant, exact in f32 so the host chain is
/// bitwise comparable.
fn stage(idx: usize, device: DeviceSelector, deferred: bool) -> TargetRegion {
    let (read, write) = (Y[idx], Y[idx + 1]);
    let mut b = TargetRegion::builder(format!("recovery-stage-{idx}"))
        .device(device)
        .map_to(read)
        .map_from(write);
    if deferred {
        b = b.depend_in(read).depend_out(write).nowait();
    }
    b.parallel_for(N, move |l| {
        l.partition(read, PartitionSpec::rows(1))
            .partition(write, PartitionSpec::rows(1))
            .body(move |i, ins, outs| {
                let y = ins.view::<f32>(read);
                outs.view_mut::<f32>(write)[i] = y[i] * 0.5 + idx as f32;
            })
    })
    .build()
    .expect("valid stage")
}

fn env() -> DataEnv {
    let mut e = DataEnv::new();
    e.insert(Y[0], (0..N).map(|i| (i % 251) as f32).collect::<Vec<_>>());
    for y in &Y[1..] {
        e.insert(*y, vec![0.0f32; N]);
    }
    e
}

/// Every version the chain writes, the intermediates included: each is
/// a `map(from:)` the host is owed.
fn outputs(e: &DataEnv) -> Vec<Vec<f32>> {
    Y[1..]
        .iter()
        .map(|y| e.get::<f32>(y).unwrap().to_vec())
        .collect()
}

fn config() -> CloudConfig {
    CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        min_compression_size: usize::MAX, // raw wire: bytes == payload
        // Wall-clock speculation would add jitter to the timed medians.
        spec_factor: 0.0,
        ..CloudConfig::default()
    }
}

fn store() -> StoreHandle {
    Arc::new(LatencyStore::new(
        Arc::new(S3Store::standalone("bench")),
        Duration::from_millis(LATENCY_MS),
    ))
}

/// Run the chained DAG `REPS` timed times (plus one warm-up), with the
/// resident kill armed per run when `faulted`.
fn run_chain(mode: &str, faulted: bool, expected: &[Vec<f32>]) -> ModeResult {
    let mut times = Vec::with_capacity(REPS);
    let mut dataflow = DataflowSummary::default();
    for rep in 0..REPS + 1 {
        let rt = CloudRuntime::with_device(CloudDevice::with_store(config(), store()));
        if faulted {
            rt.cloud().inject_resident_fault(ResidentFault {
                var: Y[KILL_AFTER + 1].into(),
                after_epoch: KILL_AFTER,
                kind: ResidentFaultKind::DropAll,
            });
        }
        let mut e = env();
        let t0 = Instant::now();
        for k in 0..K {
            rt.offload_nowait(stage(k, CloudRuntime::cloud_selector(), true));
        }
        let dag = rt.taskwait(&mut e).expect("taskwait");
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(outputs(&e), expected, "{mode} diverged");
        assert!(
            dag.profiles.iter().all(|p| p.fallback_from.is_none()),
            "{mode}: chain fell back"
        );
        let want = u32::from(faulted);
        assert_eq!(
            dag.dataflow.lineage_recomputes, want,
            "{mode}: expected {want} recompute(s), saw {}",
            dag.dataflow.lineage_recomputes
        );
        assert_eq!(
            dag.dataflow.stage_fallbacks, 0,
            "{mode}: stage left the cloud"
        );
        if rep > 0 {
            times.push(elapsed);
        } else {
            // Recovery counters are deterministic; read them once.
            dataflow = dag.dataflow;
        }
        rt.shutdown();
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ModeResult {
        mode: mode.into(),
        median_s: times[times.len() / 2],
        mean_s: times.iter().sum::<f64>() / times.len() as f64,
        dataflow,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_lineage.json".to_string());

    println!(
        "Lineage recovery — {K}-stage chain over {N}×f32, resident kill after \
         stage {KILL_AFTER}, {LATENCY_MS}ms/op injected latency, {REPS} timed runs per mode\n"
    );

    // Bitwise reference: the same chain on the sequential host device.
    let mut reference = env();
    let host = DeviceRegistry::with_host_only();
    for k in 0..K {
        host.offload(&stage(k, DeviceSelector::Default, false), &mut reference)
            .expect("host reference");
    }
    let expected = outputs(&reference);

    let clean = run_chain("clean", false, &expected);
    let recovery = run_chain("recovery", true, &expected);

    let extra_s = (recovery.median_s - clean.median_s).max(0.0);
    let overhead_ratio = extra_s / clean.median_s;

    for r in [&clean, &recovery] {
        println!(
            "{:>8}: median {:6.3}s  mean {:6.3}s  ({} recomputes, {} stage \
             fallbacks, {} repairs)",
            r.mode,
            r.median_s,
            r.mean_s,
            r.dataflow.lineage_recomputes,
            r.dataflow.stage_fallbacks,
            r.dataflow.resident_repairs
        );
    }
    println!(
        "\nrecovery overhead: {extra_s:.3}s = {overhead_ratio:.3}x the clean chain \
         (gate <= {GATE_RATIO}x; a whole-chain restart costs 1.0x)"
    );

    // --- Machine-checked gates --------------------------------------
    assert_eq!(
        recovery.dataflow.lineage_recomputes, 1,
        "exactly one producer replay regenerates the killed buffer"
    );
    assert_eq!(
        recovery.dataflow.stage_fallbacks, 0,
        "recovery must stay cloud-side"
    );
    assert!(
        overhead_ratio <= GATE_RATIO,
        "recovering one stage of {K} cost {overhead_ratio:.3}x the clean chain, \
         gate is {GATE_RATIO}x (restart = 1.0x)"
    );

    let doc = Json::obj([
        ("benchmark", "dag_recovery".to_json()),
        ("n", (N as u64).to_json()),
        ("stages", (K as u64).to_json()),
        ("kill_after", (KILL_AFTER as u64).to_json()),
        ("latency_ms", LATENCY_MS.to_json()),
        ("repetitions", (REPS as u64).to_json()),
        ("clean", clean.to_json()),
        ("recovery", recovery.to_json()),
        ("recovery_extra_s", extra_s.to_json()),
        ("overhead_ratio", overhead_ratio.to_json()),
        ("overhead_gate", GATE_RATIO.to_json()),
        ("gate_passed", (overhead_ratio <= GATE_RATIO).to_json()),
    ]);
    std::fs::write(&json_path, jsonlite::to_string_pretty(&doc)).expect("write json");
    println!("wrote {json_path}");
}
