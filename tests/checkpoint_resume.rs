//! Tile-granular checkpoint/resume with atomic output commit.
//!
//! A seeded chaos plan kills the storage endpoint after exactly K tile
//! completion markers have been journaled. The interrupted run cannot
//! commit (outputs stage to `_tmp/` keys; the manifest put is the atomic
//! commit point and the endpoint is dead by then), so it escalates to
//! host fallback with a `ResumeExhausted` classification. A second run
//! over the same store — same region name, tile plan, and input crc32s,
//! hence the same region fingerprint — resumes from the journal,
//! replaying only the `N - K` unfinished tiles, and produces bitwise
//! identical outputs. After the commit no `_tmp/` staging objects or
//! journal markers remain.

use ompcloud_suite::cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, ObjectStore, OpFilter, S3Store, Trigger,
};
use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::omp_model::FallbackReason;
use ompcloud_suite::ompcloud::CloudDevice;
use ompcloud_suite::prelude::*;
use std::sync::Arc;

const CHAOS_SEED: u64 = 42;
const KILL_AFTER_MARKERS: u64 = 3;

fn checkpoint_config() -> CloudConfig {
    CloudConfig {
        workers: 4,
        vcpus_per_worker: 4,
        task_cpus: 2, // 8 slots -> 8 tiles for a trip count of 16
        max_retries: 1,
        backoff_base_ms: 0,
        breaker_threshold: 5,
        checkpoint: true,
        checkpoint_max_resumes: 0, // recovery spans *runs*, not in-run retries
        ..CloudConfig::default()
    }
}

fn offload_gemm(runtime: &CloudRuntime) -> (ExecProfile, Vec<f32>) {
    offload_gemm_with(runtime, 0.0)
}

/// The same GEMM with `bump` added to one element of input `A`.
fn offload_gemm_with(runtime: &CloudRuntime, bump: f32) -> (ExecProfile, Vec<f32>) {
    let mut case = kernels::build(
        BenchId::Gemm,
        16,
        DataKind::Dense,
        3,
        CloudRuntime::cloud_selector(),
    );
    case.env.get_mut::<f32>("A").unwrap()[7] += bump;
    let profile = runtime.offload(&case.region, &mut case.env).unwrap();
    (profile, case.env.get::<f32>("C").unwrap().to_vec())
}

/// A store whose endpoint dies after `KILL_AFTER_MARKERS` journal puts.
fn killed_mid_region(base: &Arc<S3Store>) -> Arc<ChaosStore> {
    let plan = FaultPlan::new(CHAOS_SEED).rule(
        FaultRule::new(
            OpFilter::Put,
            Trigger::OpIndex(KILL_AFTER_MARKERS),
            FaultKind::Kill,
        )
        .on_keys("journal/"),
    );
    Arc::new(ChaosStore::new(Arc::clone(base) as _, plan))
}

#[test]
fn kill_mid_region_resumes_only_unfinished_tiles() {
    // Run A: clean checkpointed offload on its own store — the reference
    // outputs, and proof the zero-fault path journals and commits.
    let store_a: Arc<S3Store> = Arc::new(S3Store::standalone("checkpoint-ref"));
    let runtime_a = CloudRuntime::with_device(CloudDevice::with_store(
        checkpoint_config(),
        Arc::clone(&store_a) as _,
    ));
    let (profile_a, expected) = offload_gemm(&runtime_a);
    assert!(profile_a.fallback_from.is_none(), "{:?}", profile_a.notes);
    let report_a = runtime_a.cloud().last_report().unwrap();
    let n_tiles = report_a.loops.iter().map(|l| l.tiles).sum::<usize>() as u64;
    assert!(
        n_tiles > KILL_AFTER_MARKERS,
        "kill index must interrupt the region ({n_tiles} tiles)"
    );
    assert_eq!(report_a.resilience.tiles_resumed, 0);
    assert_eq!(report_a.resilience.tiles_replayed, 0);
    assert_eq!(report_a.resilience.commits_published, 1);
    assert!(
        !store_a.list("").iter().any(|k| k.contains("/_tmp/")),
        "committed region must leave no staging objects"
    );
    runtime_a.shutdown();

    // Run B: same region over a chaos-wrapped store. The Kill rule fires
    // on the (K+1)-th journal marker put, so exactly K markers land and
    // everything afterwards — remaining markers, output staging, the
    // manifest — hits a dead endpoint. With an in-run resume budget of
    // zero the device reports the budget exhausted and the registry
    // recovers the region on the host.
    let base: Arc<S3Store> = Arc::new(S3Store::standalone("checkpoint-shared"));
    let chaos = killed_mid_region(&base);
    let runtime_b = CloudRuntime::with_device(CloudDevice::with_store(checkpoint_config(), chaos));
    let (profile_b, results_b) = offload_gemm(&runtime_b);
    assert_eq!(results_b, expected, "host fallback must still be correct");
    assert!(profile_b.fallback_from.is_some(), "{:?}", profile_b.notes);
    assert_eq!(
        profile_b.fallback_reason,
        Some(FallbackReason::ResumeExhausted),
        "{:?}",
        profile_b.notes
    );
    runtime_b.shutdown();

    let markers = base
        .list("jobs/journal/")
        .iter()
        .filter(|k| k.contains("/tile-"))
        .count() as u64;
    assert_eq!(
        markers, KILL_AFTER_MARKERS,
        "the seeded kill admits exactly K completion markers"
    );

    // Run C: a fresh device (fresh process, endpoint back) over the same
    // base store. The region fingerprint matches, so the K journaled
    // tiles are restored on the driver and only N-K re-execute.
    let runtime_c = CloudRuntime::with_device(CloudDevice::with_store(
        checkpoint_config(),
        Arc::clone(&base) as _,
    ));
    let (profile_c, results_c) = offload_gemm(&runtime_c);
    assert!(
        profile_c.fallback_from.is_none(),
        "resume run must complete on the cloud: {:?}",
        profile_c.notes
    );
    assert_eq!(
        results_c, expected,
        "resumed outputs must be bitwise identical"
    );
    let report_c = runtime_c.cloud().last_report().unwrap();
    assert_eq!(report_c.resilience.tiles_resumed as u64, KILL_AFTER_MARKERS);
    assert_eq!(
        report_c.resilience.tiles_replayed as u64,
        n_tiles - KILL_AFTER_MARKERS,
        "only the unfinished tiles replay"
    );
    assert_eq!(report_c.resilience.commits_published, 1);
    assert!(report_c.resilience.recovered());
    assert!(
        profile_c
            .notes
            .iter()
            .any(|n| n.contains("checkpoint resume")),
        "{:?}",
        profile_c.notes
    );

    // Commit hygiene: no staged `_tmp/` objects and no journal markers
    // survive a committed region.
    let leftovers: Vec<String> = base
        .list("")
        .into_iter()
        .filter(|k| k.contains("/_tmp/") || k.contains("journal/"))
        .collect();
    assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
    runtime_c.shutdown();
}

#[test]
fn a_journal_over_other_data_is_not_resumed() {
    // The region fingerprint is built from the inputs' wire crc32s, which
    // every put records: a journal left by an interrupted run over
    // *other* data must never be restored into this one.
    let config = checkpoint_config;
    // Interrupted run: K tiles journaled, then host fallback.
    let base: Arc<S3Store> = Arc::new(S3Store::standalone("checkpoint-other-data"));
    let runtime =
        CloudRuntime::with_device(CloudDevice::with_store(config(), killed_mid_region(&base)));
    let (profile, _) = offload_gemm(&runtime);
    assert!(profile.fallback_from.is_some(), "{:?}", profile.notes);
    runtime.shutdown();
    assert!(
        base.list("jobs/journal/")
            .iter()
            .any(|k| k.contains("/tile-")),
        "the interrupted run left completion markers behind"
    );

    // What the region must compute over the changed input, on the host.
    let mut host_case = kernels::build(
        BenchId::Gemm,
        16,
        DataKind::Dense,
        3,
        DeviceSelector::Kind(DeviceKind::Host),
    );
    host_case.env.get_mut::<f32>("A").unwrap()[7] += 1.0;
    HostDevice::sequential()
        .execute(&host_case.region, &mut host_case.env)
        .unwrap();
    let expected = host_case.env.get::<f32>("C").unwrap().to_vec();

    // Fresh device over the same store, one input element changed: a
    // different region as far as the journal is concerned.
    let runtime =
        CloudRuntime::with_device(CloudDevice::with_store(config(), Arc::clone(&base) as _));
    let (profile, results) = offload_gemm_with(&runtime, 1.0);
    assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
    let report = runtime.cloud().last_report().unwrap();
    assert_eq!(
        report.resilience.tiles_resumed, 0,
        "no tile computed over the old input may be restored"
    );
    assert_eq!(results, expected, "bitwise-equal to the host");
    runtime.shutdown();
}

/// `s = 0.7 + Σ x[i]` over 64 f32 terms of mixed sign and magnitude
/// ~1e7, so the grouping of the tiles' partial sums changes the rounded
/// result. Iteration 0 sleeps 30 ms, so tile 0 finishes last.
fn offload_float_sum(runtime: &CloudRuntime) -> (ExecProfile, u32) {
    let region = TargetRegion::builder("float-sum")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_tofrom("s")
        .parallel_for(64, |l| {
            l.reduction("s", RedOp::Sum).body(|i, ins, outs| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                let x = ins.view::<f32>("x");
                outs.view_mut::<f32>("s").update(0, |v| v + x[i]);
            })
        })
        .build()
        .unwrap();
    let mut env = DataEnv::new();
    let x: Vec<f32> = (0..64)
        .map(|i| {
            if i % 7 == 0 {
                3.3e7 + i as f32
            } else {
                -0.37 * i as f32 - 1.1e7
            }
        })
        .collect();
    env.insert("x", x);
    env.insert("s", vec![0.7f32]);
    let profile = runtime.offload(&region, &mut env).unwrap();
    (profile, env.get::<f32>("s").unwrap()[0].to_bits())
}

#[test]
fn a_resumed_float_reduction_has_the_clean_runs_bits() {
    // Clean run: the reference bits.
    let store = Arc::new(S3Store::standalone("checkpoint-sum-ref"));
    let clean = CloudRuntime::with_device(CloudDevice::with_store(checkpoint_config(), store));
    let (profile, expected) = offload_float_sum(&clean);
    assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
    clean.shutdown();

    // Interrupted after K markers, then resumed over the same store: the
    // K restored tiles and the replayed ones fold in tile order, as the
    // clean run's did.
    let base: Arc<S3Store> = Arc::new(S3Store::standalone("checkpoint-sum-shared"));
    let killed = CloudRuntime::with_device(CloudDevice::with_store(
        checkpoint_config(),
        killed_mid_region(&base),
    ));
    let (profile, _) = offload_float_sum(&killed);
    assert!(profile.fallback_from.is_some(), "{:?}", profile.notes);
    killed.shutdown();
    let resumed = CloudRuntime::with_device(CloudDevice::with_store(
        checkpoint_config(),
        Arc::clone(&base) as _,
    ));
    let (profile, bits) = offload_float_sum(&resumed);
    assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
    let report = resumed.cloud().last_report().unwrap();
    assert_eq!(report.resilience.tiles_resumed as u64, KILL_AFTER_MARKERS);
    assert_eq!(bits, expected, "resumed {bits:#x}, clean {expected:#x}");
    resumed.shutdown();
}

#[test]
fn two_small_outputs_commit_as_one_staged_object() {
    // A checkpointed region with two small outputs: they stage as one
    // object under the region's `_tmp/out/`, the manifest names both,
    // and both come home. Then the same region against a store that
    // dies on the manifest put: only `_tmp/` orphans are left, and the
    // next region start collects them.
    let region = || {
        TargetRegion::builder("two-outputs")
            .device(CloudRuntime::cloud_selector())
            .map_to("x")
            .map_from("double")
            .map_from("square")
            .parallel_for(64, |l| {
                l.partition("double", PartitionSpec::rows(1))
                    .partition("square", PartitionSpec::rows(1))
                    .body(|i, ins, outs| {
                        let x = ins.view::<f32>("x")[i];
                        outs.view_mut::<f32>("double")[i] = 2.0 * x;
                        outs.view_mut::<f32>("square")[i] = x * x;
                    })
            })
            .build()
            .unwrap()
    };
    let fresh_env = || {
        let mut env = DataEnv::new();
        env.insert("x", (0..64).map(|i| i as f32).collect::<Vec<_>>());
        env.insert("double", vec![0.0f32; 64]);
        env.insert("square", vec![0.0f32; 64]);
        env
    };
    let check = |env: &DataEnv| {
        assert_eq!(env.get::<f32>("double").unwrap()[9], 18.0);
        assert_eq!(env.get::<f32>("square").unwrap()[9], 81.0);
    };

    // The manifest put is the commit point; kill the endpoint on it.
    let base: Arc<S3Store> = Arc::new(S3Store::standalone("checkpoint-two-outputs"));
    let plan = FaultPlan::new(CHAOS_SEED)
        .rule(FaultRule::new(OpFilter::Put, Trigger::Always, FaultKind::Kill).on_keys("/manifest"));
    let chaos = Arc::new(ChaosStore::new(Arc::clone(&base) as _, plan));
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(checkpoint_config(), chaos));
    let mut env = fresh_env();
    let profile = runtime.offload(&region(), &mut env).unwrap();
    assert!(profile.fallback_from.is_some(), "{:?}", profile.notes);
    check(&env);
    runtime.shutdown();
    let staged: Vec<String> = base
        .list("")
        .into_iter()
        .filter(|k| k.contains("/_tmp/"))
        .collect();
    assert_eq!(staged.len(), 1, "both outputs in one object: {staged:?}");
    assert!(staged[0].contains("/_tmp/out/"), "{staged:?}");
    assert!(
        !base.list("").iter().any(|k| k.ends_with("/manifest")),
        "never committed"
    );

    // Endpoint back: the next region start sweeps the orphan, the region
    // commits, and nothing staged or journaled outlives the commit.
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(
        checkpoint_config(),
        Arc::clone(&base) as _,
    ));
    let mut env = fresh_env();
    let profile = runtime.offload(&region(), &mut env).unwrap();
    assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
    check(&env);
    let report = runtime.cloud().last_report().unwrap();
    assert_eq!(report.resilience.orphans_collected, 1);
    assert_eq!(report.resilience.commits_published, 1);
    assert_eq!(
        report.download.items.len(),
        1,
        "two outputs, one object read back"
    );
    let leftovers: Vec<String> = base
        .list("")
        .into_iter()
        .filter(|k| k.contains("/_tmp/") || k.contains("journal/") || k.ends_with("/manifest"))
        .collect();
    assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
    runtime.shutdown();
}

#[test]
fn orphaned_staging_objects_are_collected_at_region_start() {
    // Plant a crashed region's residue by hand: staged outputs with no
    // manifest (uncommitted) next to a committed region's set.
    let store: Arc<S3Store> = Arc::new(S3Store::standalone("orphan-gc"));
    store
        .put("jobs/region-dead/_tmp/out/C", vec![1, 2, 3])
        .unwrap();
    store
        .put("jobs/region-dead/_tmp/out/D", vec![4, 5])
        .unwrap();
    store.put("jobs/region-live/_tmp/out/C", vec![6]).unwrap();
    store.put("jobs/region-live/manifest", vec![0]).unwrap();

    let runtime = CloudRuntime::with_device(CloudDevice::with_store(
        checkpoint_config(),
        Arc::clone(&store) as _,
    ));
    let (profile, _) = offload_gemm(&runtime);
    assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
    let report = runtime.cloud().last_report().unwrap();
    assert_eq!(
        report.resilience.orphans_collected, 2,
        "both uncommitted staging objects go; the committed region stays"
    );
    assert!(!store.exists("jobs/region-dead/_tmp/out/C"));
    assert!(!store.exists("jobs/region-dead/_tmp/out/D"));
    assert!(store.exists("jobs/region-live/_tmp/out/C"));
    runtime.shutdown();
}

#[test]
fn checkpoint_off_leaves_no_journal_or_staging_keys() {
    let store: Arc<S3Store> = Arc::new(S3Store::standalone("checkpoint-off"));
    let config = CloudConfig {
        checkpoint: false,
        ..checkpoint_config()
    };
    let runtime =
        CloudRuntime::with_device(CloudDevice::with_store(config, Arc::clone(&store) as _));
    let (profile, _) = offload_gemm(&runtime);
    assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
    let report = runtime.cloud().last_report().unwrap();
    assert_eq!(report.resilience.commits_published, 0);
    assert_eq!(report.resilience.tiles_resumed, 0);
    assert!(!report.resilience.recovered());
    assert!(
        !store
            .list("")
            .iter()
            .any(|k| k.contains("/_tmp/") || k.contains("journal/")),
        "non-checkpointed offloads must not touch journal or staging keys"
    );
    runtime.shutdown();
}
