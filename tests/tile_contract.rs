//! The outlined loop body runs once per tile (PAPER.md step 4: one JNI
//! call per tile): on the cloud a `tile_body` is called exactly once for
//! each tile of Algorithm 1's plan, with exactly that tile's range. The
//! host devices and `execute_loop_chunked` are held to the same contract
//! by `omp-model`'s own tests.

use ompcloud_suite::ompcloud::tiling::tile_plan;
use ompcloud_suite::prelude::*;
use std::ops::Range;
use std::sync::{Arc, Mutex};

#[test]
fn the_cloud_calls_a_tile_body_once_per_tile_with_its_range() {
    for (workers, vcpus, task_cpus) in [(1, 1, 1), (2, 2, 1), (4, 8, 2)] {
        let config = CloudConfig {
            workers,
            vcpus_per_worker: vcpus,
            task_cpus,
            ..CloudConfig::default()
        };
        let tiles_of = |n| tile_plan(n, config.total_slots(), config.tile_size);
        let rt = CloudRuntime::new(config.clone());
        for n in [1, 7, 33, 130] {
            let calls: Arc<Mutex<Vec<Range<usize>>>> = Arc::default();
            let seen = Arc::clone(&calls);
            let region = TargetRegion::builder("tile-contract")
                .device(CloudRuntime::cloud_selector())
                .map_to("x")
                .map_from("y")
                .parallel_for(n, move |l| {
                    l.partition("x", PartitionSpec::rows(1))
                        .partition("y", PartitionSpec::rows(1))
                        .tile_body(move |iters, ins, outs| {
                            seen.lock().unwrap().push(iters.clone());
                            let x = ins.view::<u32>("x");
                            let mut y = outs.view_mut::<u32>("y");
                            for i in iters {
                                y[i] = x[i] + 1;
                            }
                        })
                })
                .build()
                .unwrap();
            let mut env = DataEnv::new();
            env.insert("x", (0..n as u32).collect::<Vec<_>>());
            env.insert("y", vec![0u32; n]);
            rt.offload(&region, &mut env).unwrap();
            let mut calls = calls.lock().unwrap().clone();
            calls.sort_by_key(|r| r.start);
            let shape = format!("{workers}x{vcpus}/{task_cpus}, n={n}");
            assert_eq!(calls, tiles_of(n), "{shape}");
            let want: Vec<u32> = (1..=n as u32).collect();
            assert_eq!(env.get::<u32>("y").unwrap(), &want[..], "{shape}");
        }
        rt.shutdown();
    }
}
