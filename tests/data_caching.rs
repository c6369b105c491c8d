//! The §VI-future-work extension: device-side data caching. Repeated
//! offloads with unchanged inputs must skip the upload entirely, changed
//! inputs must invalidate, and results must stay correct either way.

use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::prelude::*;

fn cached_runtime() -> CloudRuntime {
    CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        data_caching: true,
        min_compression_size: 64,
        ..CloudConfig::default()
    })
}

/// A caching runtime over a store whose `LatencyStore` op counters see
/// every put/get crossing the "WAN".
fn counted_runtime(
    bucket: &str,
) -> (
    CloudRuntime,
    std::sync::Arc<ompcloud_suite::cloud_storage::LatencyStore>,
) {
    use ompcloud_suite::cloud_storage::{LatencyStore, S3Store, StoreHandle};
    use ompcloud_suite::ompcloud::CloudDevice;
    use std::sync::Arc;

    let store = Arc::new(LatencyStore::new(
        Arc::new(S3Store::standalone(bucket)),
        std::time::Duration::ZERO,
    ));
    let handle: StoreHandle = store.clone();
    let config = CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        data_caching: true,
        min_compression_size: 64,
        ..CloudConfig::default()
    };
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(config, handle));
    (runtime, store)
}

#[test]
fn second_offload_of_same_inputs_skips_upload() {
    let runtime = cached_runtime();

    let mut case1 = kernels::build(
        BenchId::Gemm,
        16,
        DataKind::Dense,
        9,
        CloudRuntime::cloud_selector(),
    );
    runtime.offload(&case1.region, &mut case1.env).unwrap();
    let first = runtime.cloud().last_report().unwrap();
    assert!(
        first.upload.wire_bytes() > 0,
        "first offload uploads everything"
    );

    // A fresh case with the same seed regenerates identical A, B and the
    // same *initial* C, so all three inputs hit the cache and nothing is
    // uploaded at all.
    let mut case2 = kernels::build(
        BenchId::Gemm,
        16,
        DataKind::Dense,
        9,
        CloudRuntime::cloud_selector(),
    );
    runtime.offload(&case2.region, &mut case2.env).unwrap();
    let second = runtime.cloud().last_report().unwrap();
    assert_eq!(second.upload.wire_bytes(), 0, "everything cached");
    assert!(second
        .profile
        .notes
        .iter()
        .any(|n| n.contains("data caching") && n.contains("3 of 3")));
    let (hits, _) = runtime.cloud().cache_stats();
    assert_eq!(hits, 3, "A, B and the initial C hit");

    // Results identical both times.
    assert_eq!(
        case1.env.get::<f32>("C").unwrap(),
        case2.env.get::<f32>("C").unwrap()
    );
    runtime.shutdown();
}

#[test]
fn changed_input_invalidates_and_recomputes() {
    let runtime = cached_runtime();
    let n = 12;

    let mut case = kernels::build(
        BenchId::MatMul,
        n,
        DataKind::Dense,
        1,
        CloudRuntime::cloud_selector(),
    );
    runtime.offload(&case.region, &mut case.env).unwrap();
    let c_before = case.env.get::<f32>("C").unwrap().to_vec();

    // Change one element of A: the cache must not serve the stale copy.
    let region = kernels::matmul::region(n, CloudRuntime::cloud_selector());
    let mut env = kernels::matmul::env(n, DataKind::Dense, 1);
    env.get_mut::<f32>("A").unwrap()[0] += 1000.0;
    runtime.offload(&region, &mut env).unwrap();
    let c_after = env.get::<f32>("C").unwrap().to_vec();
    assert_ne!(c_before, c_after, "changed input must change the result");

    // Reference without any caching.
    let plain = CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        ..CloudConfig::default()
    });
    let mut ref_env = kernels::matmul::env(n, DataKind::Dense, 1);
    ref_env.get_mut::<f32>("A").unwrap()[0] += 1000.0;
    plain
        .offload(
            &kernels::matmul::region(n, CloudRuntime::cloud_selector()),
            &mut ref_env,
        )
        .unwrap();
    assert_eq!(c_after, ref_env.get::<f32>("C").unwrap());
    plain.shutdown();
    runtime.shutdown();
}

#[test]
fn mutating_one_buffer_reuploads_only_that_buffer() {
    // Invalidation granularity, observed as storage traffic: an
    // iterative region with two inputs where only one is mutated between
    // offloads must re-upload exactly that buffer.
    let (runtime, store) = counted_runtime("counted");

    let region = || {
        TargetRegion::builder("saxpy2")
            .device(CloudRuntime::cloud_selector())
            .map_to("x")
            .map_to("y")
            .map_from("out")
            .parallel_for(64, |l| {
                l.partition("out", PartitionSpec::rows(1))
                    .body(|i, ins, outs| {
                        outs.view_mut::<f32>("out")[i] =
                            ins.view::<f32>("x")[i] + ins.view::<f32>("y")[i];
                    })
            })
            .build()
            .unwrap()
    };
    let env_with = |bump: f32| {
        let mut env = DataEnv::new();
        env.insert("x", (0..64).map(|i| i as f32).collect::<Vec<_>>());
        env.insert(
            "y",
            (0..64).map(|i| i as f32 * 2.0 + bump).collect::<Vec<_>>(),
        );
        env.insert("out", vec![0.0f32; 64]);
        env
    };

    // First offload stages both inputs.
    let mut env = env_with(0.0);
    runtime.offload(&region(), &mut env).unwrap();

    // Unchanged rerun: both inputs hit the cache; only the output put
    // remains.
    store.reset_counts();
    let mut env = env_with(0.0);
    runtime.offload(&region(), &mut env).unwrap();
    let unchanged_puts = store.put_count();

    // Mutate y only: exactly one additional put (y's re-upload); x still
    // rides its cached object.
    store.reset_counts();
    let mut env = env_with(5.0);
    runtime.offload(&region(), &mut env).unwrap();
    assert_eq!(
        store.put_count(),
        unchanged_puts + 1,
        "only the mutated buffer may cross the wire again"
    );
    assert_eq!(env.get::<f32>("out").unwrap()[3], 3.0 + (6.0 + 5.0));
    // Cache hits are still *read* from storage each offload — the cache
    // saves uploads, not driver fetches.
    assert!(store.get_count() >= 2, "driver fetches every input");
    runtime.shutdown();
}

#[test]
fn mutating_one_of_many_small_inputs_reuploads_only_that_one() {
    // 32 small inputs travel as a few packed objects. Cache hits must
    // still resolve by variable: after one input changes, exactly one
    // more put than an unchanged rerun crosses the wire, and the other 31
    // are served out of the objects the first offload staged — one get
    // per object, not per input.
    const INPUTS: usize = 32;
    const LEN: usize = 16 * 1024; // 64 KiB of f32 each
    let (runtime, store) = counted_runtime("counted-many");

    let names: Vec<String> = (0..INPUTS).map(|k| format!("x{k:02}")).collect();
    let region = {
        let names = names.clone();
        let mut b = TargetRegion::builder("fanin").device(CloudRuntime::cloud_selector());
        for name in &names {
            b = b.map_to(name.clone());
        }
        b.map_from("y")
            .parallel_for(LEN, move |l| {
                l.partition("y", PartitionSpec::rows(1))
                    .body(move |i, ins, outs| {
                        outs.view_mut::<f32>("y")[i] =
                            names.iter().map(|n| ins.view::<f32>(n)[i]).sum();
                    })
            })
            .build()
            .unwrap()
    };
    // Small integers (exact sums), no two inputs alike.
    let env_with = |bump: f32| {
        let mut env = DataEnv::new();
        for (k, name) in names.iter().enumerate() {
            let x: Vec<f32> = (0..LEN)
                .map(|i| ((i + 3 * k) % 89 + 100 * k) as f32)
                .collect();
            env.insert(name, x);
        }
        env.get_mut::<f32>("x17").unwrap()[5] += bump;
        env.insert("y", vec![0.0f32; LEN]);
        env
    };
    let y5 = |env: &DataEnv| env.get::<f32>("y").unwrap()[5];

    let mut env = env_with(0.0);
    runtime.offload(&region, &mut env).unwrap();
    let clean = y5(&env);
    let staged = runtime.cloud().store().list("").len();
    assert!(
        staged < 8,
        "32 small inputs share a few objects, found {staged}"
    );

    store.reset_counts();
    let mut env = env_with(0.0);
    runtime.offload(&region, &mut env).unwrap();
    assert_eq!(y5(&env), clean);
    let (unchanged_puts, unchanged_gets) = (store.put_count(), store.get_count());
    assert_eq!(unchanged_puts, 1, "only the output is written");

    store.reset_counts();
    let mut env = env_with(7.0);
    runtime.offload(&region, &mut env).unwrap();
    assert_eq!(y5(&env), clean + 7.0, "the changed element reached the sum");
    assert_eq!(
        store.put_count(),
        unchanged_puts + 1,
        "only the mutated input may cross the wire again"
    );
    assert_eq!(
        store.get_count(),
        unchanged_gets + 1,
        "unchanged inputs still come out of their old objects"
    );
    let (hits, _) = runtime.cloud().cache_stats();
    assert_eq!(hits as usize, INPUTS + (INPUTS - 1));
    runtime.shutdown();
}

/// A stage-in that fails has put nothing, so it must leave nothing a
/// later offload would trust. Only job 0's inputs fail to land; the
/// store is healthy afterwards. Round 0 falls back to the host; round 1
/// must then be a cache *miss* that uploads in full and succeeds —
/// recording a cache entry at plan time instead made rounds 1–2 fetch
/// `jobs/job-0/in/…` keys that were never written, and opened the
/// breaker on a healthy store. With `delta-transfers` on, the delta base
/// must be just as untouched by the failed round.
#[test]
fn failed_stage_in_poisons_neither_the_cache_nor_the_delta_base() {
    use ompcloud_suite::cloud_storage::{
        ChaosStore, FaultKind, FaultPlan, FaultRule, OpFilter, S3Store, Trigger,
    };
    use ompcloud_suite::ompcloud::{CloudDevice, UploadAction};
    use std::sync::Arc;

    let mut reference = kernels::build(
        BenchId::Gemm,
        16,
        DataKind::Dense,
        9,
        DeviceSelector::Default,
    );
    DeviceRegistry::with_host_only()
        .offload(&reference.region, &mut reference.env)
        .unwrap();
    let expected = reference.env.get::<f32>("C").unwrap().to_vec();

    for delta_transfers in [false, true] {
        let plan = FaultPlan::new(11).rule(
            FaultRule::new(OpFilter::Put, Trigger::Always, FaultKind::Unavailable)
                .on_keys("job-0/in/"),
        );
        let chaos = Arc::new(ChaosStore::new(
            Arc::new(S3Store::standalone("poison")),
            plan,
        ));
        let config = CloudConfig {
            workers: 2,
            vcpus_per_worker: 4,
            task_cpus: 2,
            data_caching: true,
            delta_transfers,
            max_retries: 1,
            backoff_base_ms: 0,
            breaker_threshold: 3,
            ..CloudConfig::default()
        };
        let runtime = CloudRuntime::with_device(CloudDevice::with_store(config, chaos));
        for round in 0..5 {
            let mut case = kernels::build(
                BenchId::Gemm,
                16,
                DataKind::Dense,
                9,
                CloudRuntime::cloud_selector(),
            );
            let profile = runtime.offload(&case.region, &mut case.env).unwrap();
            assert_eq!(case.env.get::<f32>("C").unwrap(), &expected[..]);
            if round == 0 {
                assert!(profile.fallback_from.is_some(), "job 0's inputs never land");
                continue;
            }
            assert!(
                profile.fallback_from.is_none(),
                "delta={delta_transfers} round {round} fell back on a healthy store: {:?}",
                profile.notes
            );
            if round == 1 {
                let report = runtime.cloud().last_report().unwrap();
                assert!(report.upload.wire_bytes() > 0, "round 1 must upload");
                for name in ["A", "B", "C"] {
                    let decision = report.map_plan.decision_for(name).unwrap();
                    assert!(
                        matches!(decision.upload, UploadAction::Full { .. }),
                        "delta={delta_transfers}: '{name}' trusted the failed round: {decision:?}"
                    );
                }
            }
        }
        assert!(!runtime.cloud().breakers().default_breaker().is_open());
        assert_eq!(
            runtime
                .cloud()
                .breakers()
                .default_breaker()
                .total_failures(),
            1
        );
        runtime.shutdown();
    }
}

/// Two byte-identical inputs share one staged object (the second is a
/// dedupe alias of the first), and the cache remembers that object for
/// both. On the next offload both hit — on the *same* key — and each
/// must still get its payload.
#[test]
fn deduped_inputs_both_hit_the_cache_on_their_shared_object() {
    let region = TargetRegion::builder("dedupe-pair")
        .device(CloudRuntime::cloud_selector())
        .map_to("a")
        .map_to("b")
        .map_from("y")
        .parallel_for(8, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let (a, b) = (ins.view::<f32>("a"), ins.view::<f32>("b"));
                    outs.view_mut::<f32>("y")[i] = a[i] + b[i] + 1.0;
                })
        })
        .build()
        .unwrap();
    let runtime = cached_runtime();
    for round in 0..2 {
        let mut env = DataEnv::new();
        env.insert("a", vec![2.0f32; 256]);
        env.insert("b", vec![2.0f32; 256]);
        env.insert("y", vec![0.0f32; 8]);
        let profile = runtime.offload(&region, &mut env).unwrap();
        assert!(
            profile.fallback_from.is_none(),
            "round {round}: {:?}",
            profile.notes
        );
        assert_eq!(env.get::<f32>("y").unwrap(), &[5.0f32; 8]);
    }
    assert_eq!(runtime.cloud().cache_stats().0, 2, "a and b hit in round 1");
    runtime.shutdown();
}

#[test]
fn caching_off_by_default_never_hits() {
    let runtime = CloudRuntime::new(CloudConfig {
        workers: 1,
        vcpus_per_worker: 2,
        task_cpus: 2,
        ..CloudConfig::default()
    });
    for _ in 0..2 {
        let mut case = kernels::build(
            BenchId::MatMul,
            8,
            DataKind::Dense,
            1,
            CloudRuntime::cloud_selector(),
        );
        runtime.offload(&case.region, &mut case.env).unwrap();
    }
    assert_eq!(runtime.cloud().cache_stats(), (0, 0));
    runtime.shutdown();
}

#[test]
fn clear_cache_forces_full_upload() {
    let runtime = cached_runtime();
    let mut case = kernels::build(
        BenchId::MatMul,
        12,
        DataKind::Dense,
        2,
        CloudRuntime::cloud_selector(),
    );
    runtime.offload(&case.region, &mut case.env).unwrap();
    runtime.cloud().clear_upload_cache();

    let mut case2 = kernels::build(
        BenchId::MatMul,
        12,
        DataKind::Dense,
        2,
        CloudRuntime::cloud_selector(),
    );
    runtime.offload(&case2.region, &mut case2.env).unwrap();
    let report = runtime.cloud().last_report().unwrap();
    assert!(
        !report
            .profile
            .notes
            .iter()
            .any(|n| n.contains("data caching")),
        "no hits after clear"
    );
    runtime.shutdown();
}

#[test]
fn iterative_workload_amortizes_transfers() {
    // The motivating pattern: repeated kernels over a static dataset
    // (e.g. parameter sweeps). Only the first iteration pays for the
    // upload of the big input.
    let runtime = cached_runtime();
    let n = 16;
    let mut wire_bytes = Vec::new();
    for _ in 0..4 {
        let region = kernels::syrk::region(n, CloudRuntime::cloud_selector());
        let mut env = kernels::syrk::env(n, DataKind::Dense, 7);
        runtime.offload(&region, &mut env).unwrap();
        wire_bytes.push(runtime.cloud().last_report().unwrap().upload.wire_bytes());
    }
    assert!(wire_bytes[1] < wire_bytes[0], "{wire_bytes:?}");
    // Every iteration regenerates the same initial buffers, so from the
    // second offload on, nothing crosses the wire at all.
    assert_eq!(wire_bytes[1], 0, "{wire_bytes:?}");
    assert_eq!(wire_bytes[2], 0, "{wire_bytes:?}");
    assert_eq!(wire_bytes[3], 0, "{wire_bytes:?}");
    runtime.shutdown();
}

/// With caching on, a job leaves behind only the inputs the upload cache
/// references (a pack if any of its members is) and its outputs. Eight
/// delta rounds over a slowly changing `x` (its patches go), then, on a
/// device without delta, five rounds in which `x` changes whole (each
/// superseded `x` goes, and the pack `w` shares with the first `x` stays
/// for `w`). Outputs match the host's bit for bit, and the cache hits
/// exactly as often as it did before anything was swept.
#[test]
fn caching_keeps_only_what_the_cache_references() {
    const LEN: usize = 8 * 1024;
    let region = |device: DeviceSelector| {
        TargetRegion::builder("weighted")
            .device(device)
            .map_to("w")
            .map_to("x")
            .map_from("y")
            .parallel_for(LEN, |l| {
                l.partition("y", PartitionSpec::rows(1))
                    .body(|i, ins, outs| {
                        outs.view_mut::<f32>("y")[i] =
                            ins.view::<f32>("w")[i] * ins.view::<f32>("x")[i] + 1.0;
                    })
            })
            .build()
            .unwrap()
    };
    // `x` of round `round`: a few elements move every delta round, all
    // of them every whole round.
    let env_for = |round: usize, whole: bool| {
        let mut env = DataEnv::new();
        env.insert("w", (0..LEN).map(|i| (i % 7) as f32).collect::<Vec<_>>());
        let x = (0..LEN).map(|i| {
            let moved = whole || i % 1024 < round;
            (i % 13) as f32 + if moved { round as f32 } else { 0.0 }
        });
        env.insert("x", x.collect::<Vec<_>>());
        env.insert("y", vec![0.0f32; LEN]);
        env
    };
    let host = DeviceRegistry::with_host_only();
    for (delta_transfers, rounds) in [(true, 8), (false, 5)] {
        let runtime = CloudRuntime::new(CloudConfig {
            workers: 2,
            vcpus_per_worker: 4,
            task_cpus: 2,
            data_caching: true,
            delta_transfers,
            delta_tile_bytes: 1024,
            ..CloudConfig::default()
        });
        for round in 0..rounds {
            let mut env = env_for(round, !delta_transfers);
            let mut want = env_for(round, !delta_transfers);
            let profile = runtime
                .offload(&region(CloudRuntime::cloud_selector()), &mut env)
                .unwrap();
            assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
            host.offload(&region(DeviceSelector::Default), &mut want)
                .unwrap();
            let (got, want) = (env.get::<f32>("y").unwrap(), want.get::<f32>("y").unwrap());
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                "delta={delta_transfers} round {round}: y differs from the host's"
            );
            // Every job's output stays. Of the inputs, the first job's
            // pack holds `w` (and the first `x`); after a whole round `x`
            // lives in that round's job instead.
            let keys = runtime.cloud().store().list("");
            let (mut outputs, mut inputs): (Vec<&str>, Vec<&str>) = keys
                .iter()
                .map(String::as_str)
                .partition(|k| k.contains("/out/"));
            let want_outputs: Vec<String> = (0..=round)
                .map(|job| format!("jobs/job-{job}/out/y"))
                .collect();
            outputs.sort();
            assert_eq!(
                outputs, want_outputs,
                "delta={delta_transfers} round {round}"
            );
            inputs.sort();
            let pack = inputs
                .iter()
                .position(|k| k.starts_with("jobs/job-0/in/pack2-"));
            assert!(
                pack.is_some(),
                "delta={delta_transfers} round {round}: {keys:?}"
            );
            inputs.remove(pack.unwrap());
            let x = format!("jobs/job-{round}/in/x");
            let want_x: &[&str] = match !delta_transfers && round > 0 {
                true => &[&x],
                false => &[],
            };
            assert_eq!(
                inputs, want_x,
                "delta={delta_transfers} round {round}: {keys:?}"
            );
        }
        // Delta rounds find `w` clean and `x` changed: nothing hits. Whole
        // rounds hit `w` every time after the first.
        let hits_and_misses = if delta_transfers {
            (0, 2 + 7)
        } else {
            (4, 2 + 4)
        };
        assert_eq!(runtime.cloud().cache_stats(), hits_and_misses);
        runtime.shutdown();
    }
}
