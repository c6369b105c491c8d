//! Eq. 8's reconstruction runs on the driver: `MergeAcc` rebuilds every
//! output class from the tiles as they arrive — indexed writes,
//! bitwise-OR for unpartitioned outputs, and the declared reduction
//! operator — and folds reduction partials in tile order, so a float
//! reduction has the same bits however the tiles finish.

use ompcloud_suite::kernels::{self, DataKind};
use ompcloud_suite::prelude::*;
use std::time::Duration;

fn runtime() -> CloudRuntime {
    CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        ..CloudConfig::default()
    })
}

/// Unpartitioned output -> bitwise-OR reconstruction.
#[test]
fn bitor_output_is_rebuilt_on_the_driver() {
    let n = 48;
    let region = TargetRegion::builder("scale")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("y") // unpartitioned: replicated private buffers
        .parallel_for(n, |l| {
            l.body(|i, ins, outs| {
                let x = ins.view::<f32>("x");
                outs.view_mut::<f32>("y")[i] = x[i] * 7.0 + 1.0;
            })
        })
        .build()
        .unwrap();
    let rt = runtime();
    let mut env = DataEnv::new();
    env.insert("x", (0..n).map(|i| i as f32).collect::<Vec<_>>());
    env.insert("y", vec![0.0f32; n]);
    rt.offload(&region, &mut env).unwrap();
    let expected: Vec<f32> = (0..n).map(|i| i as f32 * 7.0 + 1.0).collect();
    assert_eq!(env.get::<f32>("y").unwrap(), &expected[..]);
    assert_eq!(expected[5], 36.0);
    rt.shutdown();
}

/// Declared reduction variable, original value included once.
#[test]
fn reduction_var_includes_the_original_once() {
    let n = 300;
    let region = TargetRegion::builder("sum")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_tofrom("s")
        .parallel_for(n, |l| {
            l.reduction("s", RedOp::Sum).body(|i, ins, outs| {
                let x = ins.view::<i64>("x");
                outs.view_mut::<i64>("s").update(0, |v| v + x[i]);
            })
        })
        .build()
        .unwrap();
    let rt = runtime();
    let mut env = DataEnv::new();
    env.insert("x", (0..n as i64).collect::<Vec<_>>());
    env.insert("s", vec![500i64]);
    rt.offload(&region, &mut env).unwrap();
    assert_eq!(
        env.get::<i64>("s").unwrap()[0],
        500 + (0..n as i64).sum::<i64>()
    );
    rt.shutdown();
}

/// Mixed region: a partitioned output by indexed writes and a reduction,
/// in one loop.
#[test]
fn mixed_outputs_in_one_loop() {
    let rt = runtime();
    let n = 64;
    let region = TargetRegion::builder("mixed")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("y")
        .map_tofrom("max")
        .parallel_for(n, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .reduction("max", RedOp::Max)
                .body(|i, ins, outs| {
                    let x = ins.view::<i32>("x");
                    outs.view_mut::<i32>("y")[i] = -x[i];
                    outs.view_mut::<i32>("max").update(0, |m| m.max(x[i]));
                })
        })
        .build()
        .unwrap();
    let mut env = DataEnv::new();
    let x: Vec<i32> = (0..n as i32).map(|i| (i * 37) % 101).collect();
    let expected_max = *x.iter().max().unwrap();
    env.insert("x", x.clone());
    env.insert("y", vec![0i32; n]);
    env.insert("max", vec![i32::MIN]);
    rt.offload(&region, &mut env).unwrap();
    assert_eq!(env.get::<i32>("max").unwrap()[0], expected_max);
    for (i, &v) in env.get::<i32>("y").unwrap().iter().enumerate() {
        assert_eq!(v, -x[i]);
    }
    rt.shutdown();
}

/// All eight paper benchmarks validate against the host.
#[test]
fn all_benchmarks_pass_on_the_driver_merge() {
    let rt = runtime();
    let host = DeviceRegistry::with_host_only();
    for &id in ompcloud_suite::kernels::ALL {
        let mut cloud = kernels::build(id, 14, DataKind::Dense, 5, CloudRuntime::cloud_selector());
        let mut reference = kernels::build(id, 14, DataKind::Dense, 5, DeviceSelector::Default);
        host.offload(&reference.region, &mut reference.env).unwrap();
        rt.offload(&cloud.region, &mut cloud.env).unwrap();
        for var in cloud.outputs {
            assert_eq!(
                cloud.env.get_erased(var).unwrap(),
                reference.env.get_erased(var).unwrap(),
                "{} '{var}'",
                id.name()
            );
        }
    }
    rt.shutdown();
}

/// `s` after the probe region below, on a 4 x 8 vCPU cluster with
/// `task-cpus` 2 (16 tiles of 4 iterations): the sum folded in tile
/// order. The executor-side reduce that was the default before the
/// driver merge took every output produced exactly these bits on every
/// run; the arrival-order merge it could be switched to gave
/// `0xcd7bc533`, `0xcd7bc534` or `0xcd7bc535` from run to run.
const PROBE_BITS: u32 = 0xcd7b_c533;

/// `reduction(+: s)` over 64 f32 terms of mixed sign and magnitude
/// ~1e7, so the grouping of the partial sums changes the rounded
/// result. Iteration `straggler` sleeps 30 ms, so its tile arrives last.
fn probe_region(straggler: usize) -> (TargetRegion, DataEnv) {
    let region = TargetRegion::builder("fold-order-probe")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_tofrom("s")
        .parallel_for(64, move |l| {
            l.reduction("s", RedOp::Sum).body(move |i, ins, outs| {
                if i == straggler {
                    std::thread::sleep(Duration::from_millis(30));
                }
                let x = ins.view::<f32>("x");
                outs.view_mut::<f32>("s").update(0, |v| v + x[i]);
            })
        })
        .build()
        .unwrap();
    let x: Vec<f32> = (0..64)
        .map(|i| {
            if i % 7 == 0 {
                3.3e7 + i as f32
            } else {
                -0.37 * i as f32 - 1.1e7
            }
        })
        .collect();
    let mut env = DataEnv::new();
    env.insert("x", x);
    env.insert("s", vec![0.7f32]);
    (region, env)
}

#[test]
fn a_float_reduction_has_one_result_whichever_tile_straggles() {
    let rt = CloudRuntime::new(CloudConfig {
        workers: 4,
        vcpus_per_worker: 8,
        task_cpus: 2,
        ..CloudConfig::default()
    });
    for straggler in [0, 30, 63] {
        for run in 0..3 {
            let (region, mut env) = probe_region(straggler);
            rt.offload(&region, &mut env).unwrap();
            let bits = env.get::<f32>("s").unwrap()[0].to_bits();
            assert_eq!(
                bits, PROBE_BITS,
                "straggler {straggler}, run {run}: {bits:#x}"
            );
        }
    }
    rt.shutdown();
}

/// The probe's loop written as a tile body: one call per tile, folding
/// the tile's terms into its partial in ascending order — the partial the
/// per-iteration body builds, so the same bits on every device.
#[test]
fn a_tile_body_reduction_has_the_per_iteration_bits() {
    let (row_region, env) = probe_region(usize::MAX);
    let tile_region = TargetRegion::builder("fold-order-probe")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_tofrom("s")
        .parallel_for(64, |l| {
            l.reduction("s", RedOp::Sum).tile_body(|iters, ins, outs| {
                let x = ins.view::<f32>("x");
                let mut s = outs.view_mut::<f32>("s");
                for i in iters {
                    s.update(0, |v| v + x[i]);
                }
            })
        })
        .build()
        .unwrap();
    let rt = CloudRuntime::new(CloudConfig {
        workers: 4,
        vcpus_per_worker: 8,
        task_cpus: 2,
        ..CloudConfig::default()
    });
    let s_after = |region: &TargetRegion, device: &str| {
        let mut env = env.clone();
        match device {
            "host-seq" => HostDevice::sequential().execute(region, &mut env),
            "host-3t" => HostDevice::threaded(3).execute(region, &mut env),
            _ => rt.offload(region, &mut env),
        }
        .unwrap();
        env.get::<f32>("s").unwrap()[0].to_bits()
    };
    for device in ["host-seq", "host-3t", "cloud"] {
        let bits = s_after(&row_region, device);
        assert_eq!(s_after(&tile_region, device), bits, "{device}");
        if device == "cloud" {
            assert_eq!(bits, PROBE_BITS);
        }
    }
    rt.shutdown();
}
