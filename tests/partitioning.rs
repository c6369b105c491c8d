//! Listing-2 semantics: the `target data map` partitioning extension.
//! Partitioned variables travel as per-tile blocks; unpartitioned ones
//! are broadcast; tiling readjusts partition bounds dynamically.

use ompcloud_suite::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn runtime(slots_workers: usize, vcpus: usize) -> CloudRuntime {
    CloudRuntime::new(CloudConfig {
        workers: slots_workers,
        vcpus_per_worker: vcpus,
        task_cpus: 2,
        ..CloudConfig::default()
    })
}

fn region(n: usize, partition_a: bool) -> TargetRegion {
    let builder = TargetRegion::builder("part-test")
        .device(CloudRuntime::cloud_selector())
        .map_to("A")
        .map_to("B")
        .map_from("C");
    builder
        .parallel_for(n, move |mut l| {
            if partition_a {
                l = l.partition("A", PartitionSpec::rows(n));
            }
            l.partition("C", PartitionSpec::rows(n))
                .body(move |i, ins, outs| {
                    let a = ins.view::<f32>("A");
                    let b = ins.view::<f32>("B");
                    let mut c = outs.view_mut::<f32>("C");
                    for j in 0..n {
                        c[i * n + j] = a[i * n + j] + b[j];
                    }
                })
        })
        .build()
        .unwrap()
}

fn env(n: usize) -> DataEnv {
    let mut e = DataEnv::new();
    e.insert("A", (0..n * n).map(|i| i as f32).collect::<Vec<_>>());
    e.insert("B", (0..n).map(|i| (i * 100) as f32).collect::<Vec<_>>());
    e.insert("C", vec![0.0f32; n * n]);
    e
}

#[test]
fn partitioned_a_moves_exactly_one_copy() {
    let rt = runtime(2, 4);
    let n = 16;
    let mut e = env(n);
    rt.offload(&region(n, true), &mut e).unwrap();
    let report = rt.cloud().last_report().unwrap();
    // A scattered exactly once across the tiles; B broadcast.
    assert_eq!(report.loops[0].scatter_bytes, (n * n * 4) as u64);
    assert_eq!(report.loops[0].broadcast.bytes, (n * 4) as u64);
    rt.shutdown();
}

#[test]
fn unpartitioned_a_is_broadcast_to_every_worker() {
    let rt = runtime(2, 4);
    let n = 16;
    let mut e = env(n);
    rt.offload(&region(n, false), &mut e).unwrap();
    let report = rt.cloud().last_report().unwrap();
    assert_eq!(report.loops[0].scatter_bytes, 0);
    // A and B both broadcast now.
    assert_eq!(report.loops[0].broadcast.bytes, ((n * n + n) * 4) as u64);
    // BitTorrent accounting: driver egress is one copy, peers serve the rest.
    let stats = report.loops[0].broadcast;
    assert_eq!(stats.driver_egress, stats.bytes);
    assert_eq!(
        stats.peer_traffic,
        stats.bytes * (stats.executors as u64 - 1)
    );
    rt.shutdown();
}

#[test]
fn results_identical_with_and_without_partitioning() {
    let n = 16;
    let rt = runtime(2, 4);
    let mut e1 = env(n);
    rt.offload(&region(n, true), &mut e1).unwrap();
    let mut e2 = env(n);
    rt.offload(&region(n, false), &mut e2).unwrap();
    assert_eq!(e1.get::<f32>("C").unwrap(), e2.get::<f32>("C").unwrap());
    rt.shutdown();
}

#[test]
fn tile_bounds_readjust_to_cluster_size() {
    // "the lower and upper bounds of the partitions will also be
    // readjusted dynamically according to the tiling size" (§III-C).
    let spec = PartitionSpec::rows(8);
    // A 64-iteration loop on 4 slots -> 16-iteration tiles covering
    // 128-element blocks of an 8-elements-per-iteration variable.
    let tiles = ompcloud_suite::ompcloud::tiling::tile_ranges(64, 4);
    assert_eq!(tiles.len(), 4);
    for (t, iters) in tiles.iter().enumerate() {
        let hull = spec.range_for_tile(iters.clone(), 64 * 8).unwrap();
        assert_eq!(hull, (t * 128)..((t + 1) * 128));
    }
}

#[test]
fn partition_out_of_bounds_fails_cleanly() {
    let rt = runtime(1, 2);
    let n = 8;
    // Claim a partition stride larger than the variable.
    let bad = TargetRegion::builder("oob")
        .device(CloudRuntime::cloud_selector())
        .map_to("A")
        .map_from("C")
        .parallel_for(n, move |l| {
            l.partition("A", PartitionSpec::rows(n * 2))
                .body(|_, _, _| {})
        })
        .build()
        .unwrap();
    let mut e = DataEnv::new();
    e.insert("A", vec![0.0f32; n * n]);
    e.insert("C", vec![0.0f32; n]);
    let err = rt.offload(&bad, &mut e).unwrap_err();
    assert!(
        matches!(err, OmpError::PartitionOutOfBounds { .. }),
        "{err:?}"
    );
    rt.shutdown();
}

#[test]
fn an_out_of_range_output_partition_fails_before_any_task_runs() {
    // Tasks allocate their own output buffers, but the driver still
    // checks every tile's output hull while it builds the tiles: only
    // the last tile's hull of `C` is out of range, and no tile runs.
    static ITERATIONS: AtomicUsize = AtomicUsize::new(0);
    let rt = runtime(2, 4);
    let n = 64;
    let bad = TargetRegion::builder("oob-out")
        .device(CloudRuntime::cloud_selector())
        .map_to("A")
        .map_from("C")
        .parallel_for(n, |l| {
            l.partition("A", PartitionSpec::rows(1))
                .partition("C", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    ITERATIONS.fetch_add(1, Ordering::SeqCst);
                    outs.view_mut::<f32>("C")[i] = ins.view::<f32>("A")[i];
                })
        })
        .build()
        .unwrap();
    let mut e = DataEnv::new();
    e.insert("A", vec![1.0f32; n]);
    e.insert("C", vec![0.0f32; n - 1]);
    let err = rt.offload(&bad, &mut e).unwrap_err();
    assert!(
        matches!(err, OmpError::PartitionOutOfBounds { .. }),
        "{err:?}"
    );
    assert_eq!(ITERATIONS.load(Ordering::SeqCst), 0, "a tile ran");
    assert!(e.get::<f32>("C").unwrap().iter().all(|&c| c == 0.0));
    rt.shutdown();
}

#[test]
fn column_style_partition_with_offset() {
    // Listing 2 allows any linear bounds, not just row blocks: take
    // blocks of 4 starting at a constant offset 8: A[4i+8 : 4i+12].
    let n = 8usize;
    let spec = PartitionSpec::new(LinearExpr::new(4, 8), LinearExpr::new(4, 12));
    let rt = runtime(2, 4);
    let region = TargetRegion::builder("offset")
        .device(CloudRuntime::cloud_selector())
        .map_to("A")
        .map_from("y")
        .parallel_for(n, move |l| {
            l.partition("A", spec)
                .partition("y", PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    let a = ins.view::<f32>("A");
                    let mut y = outs.view_mut::<f32>("y");
                    // Sum of this iteration's block.
                    y[i] = (0..4).map(|k| a[4 * i + 8 + k]).sum();
                })
        })
        .build()
        .unwrap();
    let mut e = DataEnv::new();
    e.insert("A", (0..4 * n + 16).map(|i| i as f32).collect::<Vec<_>>());
    e.insert("y", vec![0.0f32; n]);
    rt.offload(&region, &mut e).unwrap();
    let y = e.get::<f32>("y").unwrap();
    for (i, &v) in y.iter().enumerate() {
        let expected: f32 = (0..4).map(|k| (4 * i + 8 + k) as f32).sum();
        assert_eq!(v, expected, "i={i}");
    }
    rt.shutdown();
}
