//! Lineage-based DAG recovery, end to end: lost or damaged resident
//! buffers are regenerated by re-executing only their producing
//! region(s), failed stages fall back to the host individually (the
//! rest of the chain stays cloud-side), and stale resident versions are
//! never served. Every scenario asserts bitwise identity against the
//! eager host chain. Laws about a per-stage hand-off run on a relay
//! chain, whose stages a `taskwait` cannot fuse into one region.
//!
//! All configs pin `spec_factor: 0.0`: speculation triggers on
//! wall-clock medians, so under machine load it launches duplicate
//! tasks whose extra store ops would shift seeded fault schedules
//! between otherwise identical runs.

use cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, LatencyStore, ObjectStore, OpFilter, S3Store,
    StorageError, StoreHandle, Trigger,
};
use omp_model::prelude::*;
use ompcloud::{
    CloudConfig, CloudDevice, CloudRuntime, DataflowSummary, ResidentFault, ResidentFaultKind,
};
use std::sync::Arc;
use std::time::Duration;

fn recovery_config() -> CloudConfig {
    CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        min_compression_size: 64,
        spec_factor: 0.0,
        ..CloudConfig::default()
    }
}

/// The relay chain's variables: stage `s` reads `Y[s]` and writes a
/// fresh `Y[s + 1]`.
const Y: [&str; 7] = ["y0", "y1", "y2", "y3", "y4", "y5", "y6"];

/// Stage `s` of the relay chain: `Y[s+1][i] = 2*Y[s][i] + 1`. Each
/// hand-off is `map(from: Y[s+1])` → `map(to: Y[s+1])`, which no two
/// regions can share one driver environment for, so every stage is its
/// own group and every hand-off a resident version. `cloud` makes it a
/// `nowait` DAG member; otherwise it is the eager host reference.
fn relay_stage(n: usize, stage: usize, cloud: bool) -> TargetRegion {
    let (read, write) = (Y[stage], Y[stage + 1]);
    let mut b = TargetRegion::builder(format!("relay-{stage}"))
        .map_to(read)
        .map_from(write);
    if cloud {
        b = b
            .device(CloudRuntime::cloud_selector())
            .depend_in(read)
            .depend_out(write)
            .nowait();
    }
    b.parallel_for(n, move |l| {
        l.partition(read, PartitionSpec::rows(1))
            .partition(write, PartitionSpec::rows(1))
            .body(move |i, ins, outs| {
                let y = ins.view::<f32>(read);
                outs.view_mut::<f32>(write)[i] = 2.0 * y[i] + 1.0;
            })
    })
    .build()
    .unwrap()
}

fn relay_env(n: usize) -> DataEnv {
    let mut env = DataEnv::new();
    env.insert(Y[0], (0..n).map(|i| (i % 17) as f32).collect::<Vec<_>>());
    for y in &Y[1..] {
        env.insert(*y, vec![0.0f32; n]);
    }
    env
}

/// Host reference: stages `0..k` of the relay chain run eagerly on the
/// host device.
fn host_chain(n: usize, k: usize) -> DataEnv {
    let registry = DeviceRegistry::with_host_only();
    let mut env = relay_env(n);
    for stage in 0..k {
        registry
            .offload(&relay_stage(n, stage, false), &mut env)
            .unwrap();
    }
    env
}

/// `Y[1..=k]` of `env` equal the host chain's: the last version and
/// every intermediate, which escapes at the drain.
fn assert_relay_matches_host(env: &DataEnv, n: usize, k: usize) {
    let want = host_chain(n, k);
    for y in &Y[1..=k] {
        assert_eq!(
            env.get::<f32>(y).unwrap(),
            want.get::<f32>(y).unwrap(),
            "'{y}' differs from the host chain"
        );
    }
}

fn run_chain(runtime: &CloudRuntime, n: usize, k: usize) -> (DataEnv, DagReport) {
    let mut env = relay_env(n);
    for stage in 0..k {
        runtime.offload_nowait(relay_stage(n, stage, true));
    }
    let dag = runtime.taskwait(&mut env).unwrap();
    (env, dag)
}

fn assert_no_resident_leaks(runtime: &CloudRuntime) {
    let leftovers = runtime.cloud().store().list("");
    assert!(
        leftovers.iter().all(|k| !k.contains("/dataflow/")),
        "resident keys leaked: {leftovers:?}"
    );
}

/// The acceptance scenario: kill `y2`'s resident state (driver copy AND
/// durable key) after stage 1 of a K=4 relay chain. Stage 2's hinted fetch
/// misses, the runtime re-executes only stage 1 — pinned to the exact
/// input version it consumed — and the chain finishes cloud-side.
#[test]
fn lost_resident_buffer_recomputes_only_its_producer() {
    let (n, k) = (32, 4);
    let runtime = CloudRuntime::new(recovery_config());
    runtime.cloud().inject_resident_fault(ResidentFault {
        var: Y[2].into(),
        after_epoch: 1,
        kind: ResidentFaultKind::DropAll,
    });

    let (env, dag) = run_chain(&runtime, n, k);

    assert_relay_matches_host(&env, n, k);
    assert_eq!(dag.profiles.len(), k);
    for p in &dag.profiles {
        assert!(p.device.starts_with("cloud"), "stage ran on {}", p.device);
        assert!(p.fallback_from.is_none(), "whole-chain fallback engaged");
    }
    // Exactly one producer replay, no stage left the cloud, and the
    // downstream stages still consumed resident buffers: one hit per
    // hand-off (the failed attempt and the replay's pinned read count
    // none), one elided download per hand-off plus the replay's.
    assert_eq!(
        dag.dataflow,
        DataflowSummary {
            resident_hits: (k - 1) as u32,
            elided_downloads: k as u32,
            lineage_recomputes: 1,
            ..DataflowSummary::default()
        }
    );
    assert_no_resident_leaks(&runtime);
    runtime.shutdown();
}

/// A driver-side copy damaged in place (durable copy intact) is
/// repaired from the store on the next read — no recompute, no
/// fallback, and the corruption never reaches a kernel.
#[test]
fn corrupted_driver_copy_repairs_from_durable_store() {
    let (n, k) = (32, 4);
    let runtime = CloudRuntime::new(recovery_config());
    runtime.cloud().inject_resident_fault(ResidentFault {
        var: Y[2].into(),
        after_epoch: 1,
        kind: ResidentFaultKind::CorruptDriver,
    });

    let (env, dag) = run_chain(&runtime, n, k);

    assert_relay_matches_host(&env, n, k);
    assert_eq!(
        dag.dataflow,
        DataflowSummary {
            resident_hits: (k - 1) as u32,
            elided_downloads: (k - 1) as u32,
            resident_repairs: 1,
            ..DataflowSummary::default()
        }
    );
    assert_eq!(
        dag.profiles[2].dataflow.resident_repairs, 1,
        "the repair is reported by the stage that read the damaged copy"
    );
    for p in &dag.profiles {
        assert!(p.fallback_from.is_none());
    }
    assert_no_resident_leaks(&runtime);
    runtime.shutdown();
}

/// A vanished driver-side entry whose durable key survives is
/// reinstated from the lineage ledger — cheaper than a recompute.
#[test]
fn dropped_driver_entry_reinstates_from_lineage() {
    let (n, k) = (32, 3);
    let runtime = CloudRuntime::new(recovery_config());
    runtime.cloud().inject_resident_fault(ResidentFault {
        var: Y[2].into(),
        after_epoch: 1,
        kind: ResidentFaultKind::DropDriver,
    });

    let (env, dag) = run_chain(&runtime, n, k);

    assert_relay_matches_host(&env, n, k);
    // The durable copy made a replay moot: the vanished entry is one
    // miss, reinstated by one repair.
    assert_eq!(
        dag.dataflow,
        DataflowSummary {
            resident_hits: (k - 1) as u32,
            resident_misses: 1,
            elided_downloads: (k - 1) as u32,
            resident_repairs: 1,
            ..DataflowSummary::default()
        }
    );
    assert_no_resident_leaks(&runtime);
    runtime.shutdown();
}

/// Store-level expiry (the `/dataflow/` key lifecycled away mid-chain)
/// composes with a dropped driver entry: the durable copy is gone too,
/// so only a lineage recompute can regenerate the buffer.
#[test]
fn expired_store_key_escalates_to_lineage_recompute() {
    let (n, k) = (32, 3);
    let plan = FaultPlan::new(7).rule(
        FaultRule::new(OpFilter::Get, Trigger::FirstN(1), FaultKind::Expire).on_keys("/dataflow/"),
    );
    let inner = Arc::new(S3Store::standalone("dag-expire"));
    let chaos = Arc::new(ChaosStore::new(inner, plan));
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(
        recovery_config(),
        chaos.clone() as _,
    ));
    runtime.cloud().inject_resident_fault(ResidentFault {
        var: Y[2].into(),
        after_epoch: 1,
        kind: ResidentFaultKind::DropDriver,
    });

    let (env, dag) = run_chain(&runtime, n, k);

    assert_relay_matches_host(&env, n, k);
    assert_eq!(chaos.stats().expirations, 1, "the expiry never fired");
    assert_eq!(
        dag.dataflow.lineage_recomputes, 1,
        "expired key forced a replay"
    );
    assert_eq!(dag.dataflow.stage_fallbacks, 0);
    for p in &dag.profiles {
        assert!(p.fallback_from.is_none());
    }
    assert_no_resident_leaks(&runtime);
    runtime.shutdown();
}

/// `recovery-depth = 0` disables lineage replay: the loss is contained
/// by replaying the producer on the host and superseding its resident
/// state. The chain still finishes bitwise-correct — proof the stale
/// (pre-loss) version was never served — and only the damaged stage
/// paid a fallback.
#[test]
fn recovery_depth_zero_contains_loss_without_serving_stale_data() {
    let (n, k) = (32, 4);
    let config = CloudConfig {
        recovery_depth: 0,
        ..recovery_config()
    };
    let runtime = CloudRuntime::new(config);
    runtime.cloud().inject_resident_fault(ResidentFault {
        var: Y[2].into(),
        after_epoch: 1,
        kind: ResidentFaultKind::DropAll,
    });

    let (env, dag) = run_chain(&runtime, n, k);

    // Bitwise equal to the host: the stale (pre-loss) version never
    // leaked into the chain.
    assert_relay_matches_host(&env, n, k);
    assert_eq!(
        dag.dataflow.lineage_recomputes, 0,
        "depth 0 must not replay"
    );
    assert!(dag.dataflow.stage_fallbacks >= 1, "loss was not contained");
    assert_eq!(dag.profiles.len(), k, "whole-chain restart engaged");
    assert_no_resident_leaks(&runtime);
    runtime.shutdown();
}

/// A stage whose commit dies (storage outage scoped to its resident
/// put) falls back to the host *alone*: its outputs are adopted back as
/// resident keys and every downstream stage stays cloud-side.
#[test]
fn failed_stage_falls_back_alone_and_downstream_stays_cloud_side() {
    let (n, k) = (32, 4);
    let plan = FaultPlan::new(11).rule(
        FaultRule::new(OpFilter::Put, Trigger::FirstN(1), FaultKind::Unavailable)
            .on_keys("/dataflow/"),
    );
    let inner = Arc::new(S3Store::standalone("dag-contain"));
    let chaos = Arc::new(ChaosStore::new(inner, plan));
    let config = CloudConfig {
        // One injected outage must not trip the breaker and take the
        // rest of the chain down with it.
        breaker_threshold: 10,
        ..recovery_config()
    };
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(config, chaos as _));

    let (env, dag) = run_chain(&runtime, n, k);

    assert_relay_matches_host(&env, n, k);
    assert_eq!(
        dag.dataflow.stage_fallbacks, 1,
        "one stage fell back, and was counted once"
    );
    assert_eq!(dag.profiles.len(), k);
    let host_stages = dag
        .profiles
        .iter()
        .filter(|p| p.device.starts_with("host"))
        .count();
    assert_eq!(host_stages, 1, "containment leaked past the failed stage");
    assert!(
        dag.profiles[k - 1].device.starts_with("cloud"),
        "downstream did not stay cloud-side"
    );
    assert_no_resident_leaks(&runtime);
    runtime.shutdown();
}

/// One home per counter: what a DAG drained by an implicit barrier
/// counted rides on the eager region's profile and nowhere else — the
/// next DAG, the next region and the next tenant report only themselves.
#[test]
fn drained_dag_counters_do_not_resurface_in_the_next_dag() {
    let (n, k) = (32, 3);
    let runtime = CloudRuntime::new(recovery_config());
    runtime.cloud().inject_resident_fault(ResidentFault {
        var: Y[2].into(),
        after_epoch: 1,
        kind: ResidentFaultKind::CorruptDriver,
    });
    let mut env = relay_env(n);
    env.insert("z", vec![0.0f32; n]);
    for stage in 0..k {
        runtime.offload_nowait(relay_stage(n, stage, true));
    }
    // An eager cloud region reading the chain's last version: its
    // implicit barrier drains the chain, whose third stage repairs the
    // damaged copy.
    let eager = TargetRegion::builder("observe")
        .device(CloudRuntime::cloud_selector())
        .map_to(Y[k])
        .map_from("z")
        .parallel_for(n, move |l| {
            l.partition("z", PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    outs.view_mut::<f32>("z")[i] = ins.view::<f32>(Y[k])[i];
                })
        })
        .build()
        .unwrap();
    let profile = runtime.offload(&eager, &mut env).unwrap();
    assert_eq!(
        env.get::<f32>("z").unwrap(),
        host_chain(n, k).get::<f32>(Y[k]).unwrap()
    );
    assert_eq!(
        profile.dataflow,
        DataflowSummary {
            resident_hits: 2,
            elided_downloads: 2,
            resident_repairs: 1,
            ..DataflowSummary::default()
        },
        "the barrier's counters ride on the eager profile"
    );

    // A second, clean chain continuing from the first: nothing in it
    // was damaged.
    for stage in k..2 * k {
        runtime.offload_nowait(relay_stage(n, stage, true));
    }
    let dag = runtime.taskwait(&mut env).unwrap();
    assert_relay_matches_host(&env, n, 2 * k);
    assert_eq!(
        dag.dataflow,
        DataflowSummary {
            resident_hits: 2,
            elided_downloads: 2,
            ..DataflowSummary::default()
        },
        "a drained DAG's repair resurfaced in the next one"
    );
    assert!(dag
        .profiles
        .iter()
        .all(|p| p.dataflow.resident_repairs == 0));
    assert_no_resident_leaks(&runtime);
    runtime.shutdown();
}

// ---------------------------------------------------------------------
// The laws a resident commit must keep however its put is scheduled:
// every single store fault is contained, the store sees the same
// `(op, key)` sequence, and the put's retries are counted once. Written
// against the synchronous commit; the relay chain keeps that sequence,
// and the shapes that fuse have sequences of their own.
// ---------------------------------------------------------------------

/// The DAG shapes the laws are stated over.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `Y[s+1] = 2 Y[s] + 1`, four times over: three resident hand-offs
    /// that no fusion removes.
    Relay,
    /// `y = 2y + 1`, four times over: one fused group, no hand-off.
    Chain,
    /// One producer (`t = x + 1`), two consumers (`a = 2t`, `b = t + 3`)
    /// that fuse into one group; `t` comes home at the drain.
    FanOut,
    /// `y = 2y + 1`, then `y = y + w` with `w` a fresh input, then
    /// `y = 2y + 1`: one fused group whose stage-in packs `w` with `y`.
    FreshInput,
}

const SHAPES: [Shape; 4] = [Shape::Relay, Shape::Chain, Shape::FanOut, Shape::FreshInput];

/// `write[i] = f(reads[0][i], reads[1][i], ..)` as a one-loop region. The
/// cloud leg is a `nowait` DAG member depending on everything it maps;
/// the host leg is the eager reference.
fn stage(
    name: &str,
    n: usize,
    reads: &'static [&'static str],
    write: &'static str,
    f: fn(&[f32]) -> f32,
    cloud: bool,
) -> TargetRegion {
    let inout = reads.contains(&write);
    let inputs = || reads.iter().filter(move |r| **r != write);
    let mut b = TargetRegion::builder(name);
    for r in inputs() {
        b = b.map_to(*r);
    }
    b = match inout {
        true => b.map_tofrom(write),
        false => b.map_from(write),
    };
    if cloud {
        b = b.device(CloudRuntime::cloud_selector()).nowait();
        for r in inputs() {
            b = b.depend_in(*r);
        }
        b = match inout {
            true => b.depend_inout(write),
            false => b.depend_out(write),
        };
    }
    b.parallel_for(n, move |l| {
        l.partition(write, PartitionSpec::rows(1))
            .body(move |i, ins, outs| {
                let args: Vec<f32> = reads.iter().map(|r| ins.view::<f32>(r)[i]).collect();
                outs.view_mut::<f32>(write)[i] = f(&args);
            })
    })
    .build()
    .unwrap()
}

impl Shape {
    fn regions(self, n: usize, cloud: bool) -> Vec<TargetRegion> {
        let step: fn(&[f32]) -> f32 = |a| 2.0 * a[0] + 1.0;
        match self {
            Shape::Relay => (0..4).map(|s| relay_stage(n, s, cloud)).collect(),
            Shape::Chain => (0..4)
                .map(|s| stage(&format!("chain-{s}"), n, &["y"], "y", step, cloud))
                .collect(),
            Shape::FanOut => vec![
                stage("produce", n, &["x"], "t", |a| a[0] + 1.0, cloud),
                stage("left", n, &["t"], "a", |a| 2.0 * a[0], cloud),
                stage("right", n, &["t"], "b", |a| a[0] + 3.0, cloud),
            ],
            Shape::FreshInput => vec![
                stage("first", n, &["y"], "y", step, cloud),
                stage("mix", n, &["y", "w"], "y", |a| a[0] + a[1], cloud),
                stage("last", n, &["y"], "y", step, cloud),
            ],
        }
    }

    /// Every variable any shape maps, so one environment serves all.
    fn env(n: usize) -> DataEnv {
        let mut env = relay_env(n);
        env.insert("y", (0..n).map(|i| (i % 17) as f32).collect::<Vec<_>>());
        env.insert("x", (0..n).map(|i| (i % 5) as f32).collect::<Vec<_>>());
        env.insert("w", (0..n).map(|i| (i % 3) as f32).collect::<Vec<_>>());
        for out in ["t", "a", "b"] {
            env.insert(out, vec![0.0f32; n]);
        }
        env
    }

    /// The eager host run of the same regions.
    fn host_reference(self, n: usize) -> DataEnv {
        let registry = DeviceRegistry::with_host_only();
        let mut env = Shape::env(n);
        for region in self.regions(n, false) {
            registry.offload(&region, &mut env).unwrap();
        }
        env
    }

    /// Put + get ops of one clean run: inputs up and back, one put per
    /// resident hand-off between groups, escaping outputs up and back.
    fn clean_ops(self) -> u64 {
        match self {
            Shape::Relay => 2 + 3 + 2,
            Shape::Chain => 2 + 2,
            Shape::FanOut => 2 + 1 + 2,
            Shape::FreshInput => 2 + 2,
        }
    }
}

fn run_dag(
    runtime: &CloudRuntime,
    shape: Shape,
    n: usize,
) -> (DataEnv, Result<DagReport, OmpError>) {
    let mut env = Shape::env(n);
    for region in shape.regions(n, true) {
        runtime.offload_nowait(region);
    }
    let outcome = runtime.taskwait(&mut env);
    (env, outcome)
}

fn assert_bitwise(env: &DataEnv, want: &DataEnv, ctx: &str) {
    for var in ["y", "t", "a", "b"].iter().chain(&Y[1..]) {
        assert_eq!(
            env.get::<f32>(var).unwrap(),
            want.get::<f32>(var).unwrap(),
            "{ctx}: '{var}' differs from the host run"
        );
    }
}

/// A runtime over `ChaosStore(LatencyStore(bucket))`: the latency makes
/// a put take real time, so whatever runs beside it really does.
struct Rig {
    runtime: CloudRuntime,
    chaos: Arc<ChaosStore>,
    wan: Arc<LatencyStore>,
    bucket: S3Store,
}

impl Rig {
    fn new(plan: FaultPlan, config: CloudConfig) -> Rig {
        let bucket = S3Store::standalone("dag-laws");
        let wan = Arc::new(LatencyStore::new(
            Arc::new(bucket.clone()),
            Duration::from_millis(1),
        ));
        let chaos = Arc::new(ChaosStore::new(wan.clone() as StoreHandle, plan));
        let device = CloudDevice::with_store(config, chaos.clone() as StoreHandle);
        Rig {
            runtime: CloudRuntime::with_device(device),
            chaos,
            wan,
            bucket,
        }
    }

    fn assert_nothing_left(&self, ctx: &str) {
        let left: Vec<String> = self
            .bucket
            .list("")
            .into_iter()
            .filter(|k| k.contains("/dataflow/") || k.contains("_tmp/"))
            .collect();
        assert!(left.is_empty(), "{ctx}: left behind {left:?}");
    }
}

fn sweep_config() -> CloudConfig {
    CloudConfig {
        // A dead store fails every stage of a DAG; the clean DAG after
        // it must still find the breaker closed.
        breaker_threshold: 10,
        ..recovery_config()
    }
}

/// Fault-point sweep: for every data-path op k of a clean run, once an
/// outage of exactly op k and once a store that dies at op k and stays
/// dead until the DAG is over. Whatever the fault hits — an input
/// round trip, a resident put, the escaping output — the DAG ends
/// bitwise equal to the host run (or in a typed error), a single fault
/// costs at most one stage, nothing resident or staged outlives the
/// window, and the runtime is fit for the next DAG.
#[test]
fn every_store_fault_point_is_contained_and_leaves_nothing_behind() {
    let n = 32;
    for shape in SHAPES {
        let want = shape.host_reference(n);
        let clean = Rig::new(FaultPlan::new(0), sweep_config());
        let (env, dag) = run_dag(&clean.runtime, shape, n);
        assert!(
            !dag.unwrap().any_fallback(),
            "{shape:?}: clean run fell back"
        );
        assert_bitwise(&env, &want, &format!("{shape:?}, clean"));
        let ops = clean.wan.put_count() + clean.wan.get_count();
        assert_eq!(
            ops,
            shape.clean_ops(),
            "{shape:?}: data-path ops of a clean run"
        );
        clean.assert_nothing_left(&format!("{shape:?}, clean"));
        clean.runtime.shutdown();

        for k in 0..ops {
            for kind in [FaultKind::Unavailable, FaultKind::Kill] {
                let ctx = format!("{shape:?}, {kind:?} from op {k}");
                let rule = FaultRule::new(OpFilter::Any, Trigger::OpIndex(k), kind);
                let rig = Rig::new(FaultPlan::new(k).rule(rule), sweep_config());
                let (env, outcome) = run_dag(&rig.runtime, shape, n);
                assert!(
                    rig.chaos.stats().total() >= 1,
                    "{ctx}: the fault never fired"
                );
                rig.chaos.revive();
                // `Err` is an `OmpError` by type; anything else is a panic.
                if let Ok(dag) = outcome {
                    assert_bitwise(&env, &want, &ctx);
                    if kind == FaultKind::Unavailable {
                        assert!(
                            dag.dataflow.stage_fallbacks <= 1,
                            "{ctx}: one fault cost {} stages",
                            dag.dataflow.stage_fallbacks
                        );
                        let failed = dag.profiles.iter().position(|p| p.fallback_from.is_some());
                        let downstream = failed.map_or(&[][..], |i| &dag.profiles[i + 1..]);
                        assert!(
                            downstream.iter().all(|p| p.device.starts_with("cloud")),
                            "{ctx}: containment leaked past the failed stage"
                        );
                        rig.assert_nothing_left(&ctx);
                    }
                }
                // What a dead store could not delete, the next DAG's
                // orphan sweep does.
                let (env, dag) = run_dag(&rig.runtime, shape, n);
                let dag = dag.unwrap_or_else(|e| panic!("{ctx}: next clean DAG failed: {e}"));
                assert!(!dag.any_fallback(), "{ctx}: next clean DAG fell back");
                assert_bitwise(&env, &want, &format!("{ctx}, next clean DAG"));
                rig.assert_nothing_left(&format!("{ctx}, next clean DAG"));
                rig.runtime.shutdown();
            }
        }
    }
}

/// A store that logs the data-path ops it sees — every put and get,
/// and the deletes of resident keys — in the order it sees them.
struct OpLog {
    inner: S3Store,
    log: std::sync::Mutex<Vec<String>>,
}

impl OpLog {
    fn note(&self, op: &str, key: &str) {
        // A region's commit root is named after the wire crcs of its
        // inputs; the law is about order, not about the codec.
        let key = match key.find("region-") {
            Some(at) => {
                let rest = &key[at + "region-".len()..];
                let tail = rest.find('/').map_or("", |p| &rest[p..]);
                format!("{}region-#{tail}", &key[..at])
            }
            None => key.to_string(),
        };
        self.log.lock().unwrap().push(format!("{op} {key}"));
    }
}

impl ObjectStore for OpLog {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        // Journal markers ride their own writer thread and land when
        // they land; they are no part of the region's op sequence.
        if !key.contains("/journal/") {
            self.note("put", key);
        }
        self.inner.put(key, data)
    }
    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.note("get", key);
        self.inner.get(key)
    }
    fn delete(&self, key: &str) -> Result<(), StorageError> {
        if key.contains("/dataflow/") {
            self.note("del", key);
        }
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn size(&self, key: &str) -> Option<u64> {
        self.inner.size(key)
    }
    fn checksum(&self, key: &str) -> Option<u32> {
        self.inner.checksum(key)
    }
    fn kind(&self) -> &'static str {
        "op-log"
    }
}

fn logged_ops(shape: Shape, config: CloudConfig) -> Vec<String> {
    let n = 32;
    let store = Arc::new(OpLog {
        inner: S3Store::standalone("op-log"),
        log: std::sync::Mutex::new(Vec::new()),
    });
    let device = CloudDevice::with_store(config, store.clone() as StoreHandle);
    let runtime = CloudRuntime::with_device(device);
    let (env, dag) = run_dag(&runtime, shape, n);
    assert!(!dag.unwrap().any_fallback());
    assert_bitwise(&env, &shape.host_reference(n), &format!("{shape:?}"));
    runtime.shutdown();
    let log = store.log.lock().unwrap().clone();
    log
}

/// Store-op sequence law: the exact `(op, key)` list the store sees for
/// each DAG shape. A seeded fault schedule fires on an op index, so the
/// list is what "the same schedule hits the same op" means. The relay
/// chain's lists are those captured on the chain `y = 2y + 1` when a
/// resident commit still waited for its put, and before that chain
/// fused; only the variable names differ. The fused shapes' lists were
/// captured when fusion landed.
#[test]
fn the_store_sees_the_same_ops_in_the_same_order() {
    let relay = [
        "put jobs/job-0/in/y0",
        "get jobs/job-0/in/y0",
        "put jobs/dataflow/dag-0/v0/y1",
        "put jobs/dataflow/dag-0/v1/y2",
        "put jobs/dataflow/dag-0/v2/y3",
        "put jobs/job-3/out/y4",
        "get jobs/job-3/out/y4",
        "del jobs/dataflow/dag-0/v0/y1",
        "del jobs/dataflow/dag-0/v1/y2",
        "del jobs/dataflow/dag-0/v2/y3",
    ];
    assert_eq!(logged_ops(Shape::Relay, recovery_config()), relay);

    // Checkpoint mode: every region ends in its manifest put, after its
    // resident put and after its staged outputs are up and back.
    let checkpointed = [
        "put jobs/job-0/in/y0",
        "get jobs/job-0/in/y0",
        "put jobs/dataflow/dag-0/v0/y1",
        "put jobs/region-#/manifest",
        "put jobs/dataflow/dag-0/v1/y2",
        "put jobs/region-#/manifest",
        "put jobs/dataflow/dag-0/v2/y3",
        "put jobs/region-#/manifest",
        "put jobs/region-#/_tmp/out/y4",
        "get jobs/region-#/_tmp/out/y4",
        "put jobs/region-#/manifest",
        "del jobs/dataflow/dag-0/v0/y1",
        "del jobs/dataflow/dag-0/v1/y2",
        "del jobs/dataflow/dag-0/v2/y3",
    ];
    let config = CloudConfig {
        checkpoint: true,
        ..recovery_config()
    };
    assert_eq!(logged_ops(Shape::Relay, config), checkpointed);

    let chain = [
        "put jobs/job-0/in/y",
        "get jobs/job-0/in/y",
        "put jobs/job-0/out/y",
        "get jobs/job-0/out/y",
    ];
    assert_eq!(logged_ops(Shape::Chain, recovery_config()), chain);

    // The fused consumers' two small outputs travel as one pack.
    let fan_out = [
        "put jobs/job-0/in/x",
        "get jobs/job-0/in/x",
        "put jobs/dataflow/dag-0/v0/t",
        "put jobs/job-1/out/pack2-15e87871",
        "get jobs/job-1/out/pack2-15e87871",
        "del jobs/dataflow/dag-0/v0/t",
    ];
    assert_eq!(logged_ops(Shape::FanOut, recovery_config()), fan_out);

    // `y` and the fresh `w` travel up as one pack.
    let fresh_input = [
        "put jobs/job-0/in/pack2-6a006e52",
        "get jobs/job-0/in/pack2-6a006e52",
        "put jobs/job-0/out/y",
        "get jobs/job-0/out/y",
    ];
    assert_eq!(
        logged_ops(Shape::FreshInput, recovery_config()),
        fresh_input
    );

    // A fused checkpointed chain is one region: one manifest put.
    let checkpointed_chain = [
        "put jobs/job-0/in/y",
        "get jobs/job-0/in/y",
        "put jobs/region-#/_tmp/out/y",
        "get jobs/region-#/_tmp/out/y",
        "put jobs/region-#/manifest",
    ];
    let config = CloudConfig {
        checkpoint: true,
        ..recovery_config()
    };
    assert_eq!(logged_ops(Shape::Chain, config), checkpointed_chain);
}

/// What the retry layer did for the resident puts of a DAG, read off the
/// stage profiles' `resilience:` notes — the only per-stage record a
/// `taskwait` hands back.
fn noted_retries(dag: &DagReport) -> u32 {
    dag.profiles
        .iter()
        .flat_map(|p| &p.notes)
        .filter_map(|note| note.strip_prefix("resilience: "))
        .filter_map(|rest| rest.split(' ').next()?.parse::<u32>().ok())
        .sum()
}

/// Accounting law: a resident put's retries reach the DAG's stage
/// reports exactly once, whichever stage books them.
#[test]
fn resident_put_retries_are_counted_exactly_once() {
    let (n, k) = (32, 4);
    // Put attempts on resident keys: #0 fails, #1 is its retry, #2
    // fails, #3 is its retry, #4 (the last hand-off) is clean.
    let blip = |at| {
        FaultRule::new(OpFilter::Put, Trigger::OpIndex(at), FaultKind::Transient)
            .on_keys("/dataflow/")
    };
    let plan = FaultPlan::new(3).rule(blip(0)).rule(blip(2));
    let rig = Rig::new(plan, recovery_config());
    let (env, dag) = run_chain(&rig.runtime, n, k);
    assert_relay_matches_host(&env, n, k);
    assert_eq!(rig.chaos.stats().transient, 2, "both blips fired");
    assert!(!dag.any_fallback(), "a retried put is no failure");
    assert_eq!(noted_retries(&dag), 2, "every retry counted, none twice");
    rig.assert_nothing_left("retried resident puts");
    rig.runtime.shutdown();
}
