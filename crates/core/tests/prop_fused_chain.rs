//! Property test of chain fusion: a `taskwait` over K random fusable
//! `nowait` regions — `map(tofrom: y)` stages, some sharing a
//! `map(to: w)` input, one of them with two loops, each loop with its
//! own trip count over `y` partitioned `rows(r)` — runs them as one
//! multi-loop region. Its result is bitwise the eager host leg's and
//! the unfused path's (the same regions drained one `taskwait` each),
//! and it costs the store ops of one region.

use cloud_storage::{LatencyStore, S3Store, StoreHandle};
use omp_model::prelude::*;
use ompcloud::{CloudConfig, CloudDevice, CloudRuntime};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// One stage: which loops it runs (trip counts; a second entry makes it
/// the multi-loop member) and whether it reads the shared `w`.
#[derive(Debug, Clone)]
struct Stage {
    trips: Vec<usize>,
    reads_w: bool,
    partition_w: bool,
}

/// Stage `s` as a region. Loop 0 is `y = y/2 + w + s` over its rows,
/// loop 1 (if any) is `y = y + 1`. `cloud` makes it a `nowait` DAG
/// member; otherwise it is the eager host reference.
fn stage_region(s: usize, stage: &Stage, r: usize, cloud: bool) -> TargetRegion {
    let mut b = TargetRegion::builder(format!("fuse-{s}")).map_tofrom("y");
    if stage.reads_w {
        b = b.map_to("w");
    }
    if cloud {
        b = b
            .device(CloudRuntime::cloud_selector())
            .depend_inout("y")
            .nowait();
        if stage.reads_w {
            b = b.depend_in("w");
        }
    }
    for (l, &trips) in stage.trips.iter().enumerate() {
        let (reads_w, partition_w) = (stage.reads_w, stage.partition_w);
        b = b.parallel_for(trips, move |mut lb| {
            lb = lb.partition("y", PartitionSpec::rows(r));
            if reads_w && partition_w {
                lb = lb.partition("w", PartitionSpec::rows(1));
            }
            lb.body(move |i, ins, outs| {
                let y = ins.view::<f32>("y");
                let add = match (l, reads_w) {
                    (0, true) => ins.view::<f32>("w")[i] + s as f32,
                    (0, false) => s as f32,
                    _ => 1.0,
                };
                let scale = if l == 0 { 0.5 } else { 1.0 };
                let mut out = outs.view_mut::<f32>("y");
                for j in i * r..(i + 1) * r {
                    out[j] = y[j] * scale + add;
                }
            })
        });
    }
    b.build().unwrap()
}

fn env(n: usize, r: usize, seed: u32) -> DataEnv {
    let mut env = DataEnv::new();
    let y: Vec<f32> = (0..n * r)
        .map(|i| ((i as u32).wrapping_mul(seed | 1).wrapping_add(7) % 251) as f32)
        .collect();
    env.insert("y", y);
    env.insert("w", (0..n).map(|i| (i % 13) as f32).collect::<Vec<_>>());
    env
}

/// A runtime over a store that counts its puts and gets.
fn counted_runtime() -> (CloudRuntime, Arc<LatencyStore>) {
    let store = Arc::new(LatencyStore::new(
        Arc::new(S3Store::standalone("fuse")),
        Duration::ZERO,
    ));
    let config = CloudConfig {
        workers: 2,
        vcpus_per_worker: 2,
        task_cpus: 1,
        min_compression_size: 128,
        spec_factor: 0.0,
        ..CloudConfig::default()
    };
    let device = CloudDevice::with_store(config, Arc::clone(&store) as StoreHandle);
    (CloudRuntime::with_device(device), store)
}

fn ops(store: &LatencyStore) -> u64 {
    store.put_count() + store.get_count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_fused_chain_equals_host_and_unfused_and_costs_one_region(
        n in 1usize..24,
        r in 1usize..4,
        k in 2usize..6,
        trips in proptest::collection::vec(any::<u32>(), 6),
        reads_w in proptest::collection::vec(any::<bool>(), 6),
        partition_w in proptest::collection::vec(any::<bool>(), 6),
        multi in 0usize..5,
        second_trips in any::<u32>(),
        seed in any::<u32>(),
    ) {
        // K stages over `y` of `n * r` elements. `w` is shared: the first
        // and the last stage read it. One stage runs a second loop.
        let mut stages: Vec<Stage> = (0..k)
            .map(|s| Stage {
                trips: vec![1 + trips[s] as usize % n],
                reads_w: reads_w[s] || s == 0 || s == k - 1,
                partition_w: partition_w[s],
            })
            .collect();
        stages[multi % k].trips.push(1 + second_trips as usize % n);

        // Eager host leg.
        let host = DeviceRegistry::with_host_only();
        let mut host_env = env(n, r, seed);
        for (s, stage) in stages.iter().enumerate() {
            host.offload(&stage_region(s, stage, r, false), &mut host_env).unwrap();
        }

        // Fused: one taskwait over the whole chain.
        let (runtime, store) = counted_runtime();
        let mut fused_env = env(n, r, seed);
        for (s, stage) in stages.iter().enumerate() {
            runtime.offload_nowait(stage_region(s, stage, r, true));
        }
        let dag = runtime.taskwait(&mut fused_env).unwrap();
        let fused_ops = ops(&store);
        prop_assert_eq!(dag.profiles.len(), 1, "the chain did not fuse");
        prop_assert!(!dag.any_fallback());
        // Unfused: the same regions drained one taskwait each.
        let mut unfused_env = env(n, r, seed);
        for (s, stage) in stages.iter().enumerate() {
            runtime.offload_nowait(stage_region(s, stage, r, true));
            let one = runtime.taskwait(&mut unfused_env).unwrap();
            prop_assert_eq!(one.profiles.len(), 1);
        }
        runtime.shutdown();

        for var in ["y", "w"] {
            let host = host_env.get_erased(var).unwrap().to_bytes();
            prop_assert_eq!(
                fused_env.get_erased(var).unwrap().to_bytes(), host.clone(),
                "fused '{}' differs from the host leg", var
            );
            prop_assert_eq!(
                unfused_env.get_erased(var).unwrap().to_bytes(), host,
                "unfused '{}' differs from the host leg", var
            );
        }

        // One region mapping the chain's union costs the same store ops.
        let (runtime, store) = counted_runtime();
        let one = TargetRegion::builder("one")
            .device(CloudRuntime::cloud_selector())
            .map_tofrom("y")
            .map_to("w")
            .parallel_for(n, move |l| {
                l.partition("y", PartitionSpec::rows(r))
                    .body(move |i, ins, outs| {
                        let y = ins.view::<f32>("y");
                        let mut out = outs.view_mut::<f32>("y");
                        for j in i * r..(i + 1) * r {
                            out[j] = y[j] + ins.view::<f32>("w")[i];
                        }
                    })
            })
            .build()
            .unwrap();
        runtime.offload(&one, &mut env(n, r, seed)).unwrap();
        prop_assert_eq!(fused_ops, ops(&store), "store ops of the fused chain");
        runtime.shutdown();
    }
}
