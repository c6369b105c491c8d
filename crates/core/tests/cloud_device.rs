//! End-to-end tests of the cloud device: the full eight-step workflow
//! against the in-process Spark cluster and in-memory cloud storage.

use omp_model::prelude::*;
use omp_model::Construct;
use ompcloud::{CloudConfig, CloudRuntime};

fn small_config() -> CloudConfig {
    CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        min_compression_size: 64,
        ..CloudConfig::default()
    }
}

fn matmul_region(n: usize, device: DeviceSelector) -> TargetRegion {
    TargetRegion::builder("matmul")
        .device(device)
        .map_to("A")
        .map_to("B")
        .map_from("C")
        .parallel_for(n, move |l| {
            l.partition("A", PartitionSpec::rows(n))
                .partition("C", PartitionSpec::rows(n))
                .flops_per_iter(2.0 * (n * n) as f64)
                .body(move |i, ins, outs| {
                    let a = ins.view::<f32>("A");
                    let b = ins.view::<f32>("B");
                    let mut c = outs.view_mut::<f32>("C");
                    for j in 0..n {
                        let mut sum = 0.0f32;
                        for k in 0..n {
                            sum += a[i * n + k] * b[k * n + j];
                        }
                        c[i * n + j] = sum;
                    }
                })
        })
        .build()
        .unwrap()
}

fn matmul_env(n: usize) -> DataEnv {
    let mut env = DataEnv::new();
    env.insert(
        "A",
        (0..n * n)
            .map(|i| ((i * 7) % 11) as f32)
            .collect::<Vec<_>>(),
    );
    env.insert(
        "B",
        (0..n * n)
            .map(|i| ((i * 3) % 13) as f32)
            .collect::<Vec<_>>(),
    );
    env.insert("C", vec![0.0f32; n * n]);
    env
}

fn host_reference(n: usize) -> Vec<f32> {
    let region = matmul_region(n, DeviceSelector::Default);
    let mut env = matmul_env(n);
    DeviceRegistry::with_host_only()
        .offload(&region, &mut env)
        .unwrap();
    env.get::<f32>("C").unwrap().to_vec()
}

#[test]
fn cloud_offload_matches_host_execution() {
    let n = 24;
    let runtime = CloudRuntime::new(small_config());
    let region = matmul_region(n, CloudRuntime::cloud_selector());
    let mut env = matmul_env(n);
    let profile = runtime.offload(&region, &mut env).unwrap();

    assert_eq!(env.get::<f32>("C").unwrap(), host_reference(n).as_slice());
    assert!(profile.device.starts_with("cloud"));
    assert_eq!(
        profile.tasks, 4,
        "24 iterations tiled onto the 4 cluster slots"
    );
    assert_eq!(profile.bytes_to_device, (2 * n * n * 4) as u64, "A and B");
    assert_eq!(profile.bytes_from_device, (n * n * 4) as u64);
    runtime.shutdown();
}

#[test]
fn offload_report_details_the_job() {
    let n = 16;
    let runtime = CloudRuntime::new(small_config());
    let region = matmul_region(n, CloudRuntime::cloud_selector());
    let mut env = matmul_env(n);
    runtime.offload(&region, &mut env).unwrap();

    let report = runtime.cloud().last_report().expect("report recorded");
    assert_eq!(report.loops.len(), 1);
    let l = &report.loops[0];
    assert_eq!(l.tiles, 4);
    // B is broadcast (unpartitioned input); A scattered with the tiles.
    assert_eq!(l.broadcast.bytes, (n * n * 4) as u64);
    assert_eq!(l.scatter_bytes, (n * n * 4) as u64);
    assert_eq!(
        l.collect_bytes,
        (n * n * 4) as u64,
        "C comes back exactly once"
    );
    assert!(report.upload.raw_bytes() > 0);
    runtime.shutdown();
}

#[test]
fn buffers_actually_travel_through_cloud_storage() {
    // With data caching on, the staged objects persist after the offload
    // (they are the cache)...
    let config = CloudConfig {
        data_caching: true,
        ..small_config()
    };
    let runtime = CloudRuntime::new(config);
    let region = matmul_region(8, CloudRuntime::cloud_selector());
    let mut env = matmul_env(8);
    runtime.offload(&region, &mut env).unwrap();
    let keys = runtime.cloud().store().list("");
    // (A and B are small: they share one object in the job's `in/`.)
    assert!(
        keys.iter().any(|k| k.contains("/in/")),
        "inputs staged: {keys:?}"
    );
    assert!(
        keys.iter().any(|k| k.contains("/out/C")),
        "outputs staged: {keys:?}"
    );
    runtime.shutdown();

    // ...without caching, the per-job objects are cleaned up once the
    // host has the results (storage hygiene).
    let runtime = CloudRuntime::new(small_config());
    let mut env = matmul_env(8);
    runtime.offload(&region, &mut env).unwrap();
    assert!(
        runtime.cloud().store().list("").is_empty(),
        "staged objects removed after the offload"
    );
    runtime.shutdown();
}

#[test]
fn unreachable_cloud_falls_back_to_host() {
    let config = CloudConfig {
        simulate_unreachable: true,
        ..small_config()
    };
    let runtime = CloudRuntime::new(config);
    let region = matmul_region(12, CloudRuntime::cloud_selector());
    let mut env = matmul_env(12);
    let profile = runtime.offload(&region, &mut env).unwrap();

    assert!(
        profile.device.starts_with("host"),
        "fell back to {}",
        profile.device
    );
    assert!(profile
        .notes
        .iter()
        .any(|n| n.contains("performed locally")));
    assert_eq!(env.get::<f32>("C").unwrap(), host_reference(12).as_slice());
    runtime.shutdown();
}

#[test]
fn synchronization_constructs_are_rejected() {
    let runtime = CloudRuntime::new(small_config());
    for construct in [
        Construct::Atomic,
        Construct::Barrier,
        Construct::Critical,
        Construct::Flush,
        Construct::Master,
    ] {
        let region = TargetRegion::builder("sync")
            .device(CloudRuntime::cloud_selector())
            .map_from("y")
            .uses(construct)
            .parallel_for(4, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        env.insert("y", vec![0.0f32; 4]);
        let err = runtime.offload(&region, &mut env).unwrap_err();
        assert!(
            matches!(err, OmpError::UnsupportedConstruct { .. }),
            "{construct} must be rejected, got {err:?}"
        );
    }
    runtime.shutdown();
}

#[test]
fn multi_loop_region_runs_successive_stages() {
    // 2MM-style: E = A*B, then D = E*C, one target region, two loops.
    let n = 12;
    let runtime = CloudRuntime::new(small_config());
    let region = TargetRegion::builder("2mm")
        .device(CloudRuntime::cloud_selector())
        .map_to("A")
        .map_to("B")
        .map_to("Cm")
        .map_tofrom("E")
        .map_from("D")
        .parallel_for(n, move |l| {
            l.partition("A", PartitionSpec::rows(n))
                .partition("E", PartitionSpec::rows(n))
                .body(move |i, ins, outs| {
                    let a = ins.view::<f32>("A");
                    let b = ins.view::<f32>("B");
                    let mut e = outs.view_mut::<f32>("E");
                    for j in 0..n {
                        let mut s = 0.0;
                        for k in 0..n {
                            s += a[i * n + k] * b[k * n + j];
                        }
                        e[i * n + j] = s;
                    }
                })
        })
        .parallel_for(n, move |l| {
            l.partition("E", PartitionSpec::rows(n))
                .partition("D", PartitionSpec::rows(n))
                .body(move |i, ins, outs| {
                    let e = ins.view::<f32>("E");
                    let c = ins.view::<f32>("Cm");
                    let mut d = outs.view_mut::<f32>("D");
                    for j in 0..n {
                        let mut s = 0.0;
                        for k in 0..n {
                            s += e[i * n + k] * c[k * n + j];
                        }
                        d[i * n + j] = s;
                    }
                })
        })
        .build()
        .unwrap();

    let mut env = DataEnv::new();
    env.insert("A", (0..n * n).map(|i| (i % 5) as f32).collect::<Vec<_>>());
    env.insert("B", (0..n * n).map(|i| (i % 7) as f32).collect::<Vec<_>>());
    env.insert("Cm", (0..n * n).map(|i| (i % 3) as f32).collect::<Vec<_>>());
    env.insert("E", vec![0.0f32; n * n]);
    env.insert("D", vec![0.0f32; n * n]);

    // Host reference with the same region on the host device.
    let mut href = env.clone();
    let mut host_region = region.clone();
    host_region.device = DeviceSelector::Default;
    DeviceRegistry::with_host_only()
        .offload(&host_region, &mut href)
        .unwrap();

    runtime.offload(&region, &mut env).unwrap();
    assert_eq!(env.get::<f32>("D").unwrap(), href.get::<f32>("D").unwrap());
    assert_eq!(env.get::<f32>("E").unwrap(), href.get::<f32>("E").unwrap());

    let report = runtime.cloud().last_report().unwrap();
    assert_eq!(report.loops.len(), 2, "two map-reduce stages");
    runtime.shutdown();
}

#[test]
fn reduction_region_offloads_correctly() {
    let n = 500;
    let runtime = CloudRuntime::new(small_config());
    let region = TargetRegion::builder("dot")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_to("y")
        .map_tofrom("s")
        .parallel_for(n, |l| {
            l.reduction("s", RedOp::Sum).body(|i, ins, outs| {
                let x = ins.view::<f64>("x");
                let y = ins.view::<f64>("y");
                outs.view_mut::<f64>("s").update(0, |v| v + x[i] * y[i]);
            })
        })
        .build()
        .unwrap();
    let mut env = DataEnv::new();
    env.insert("x", (0..n).map(|i| i as f64).collect::<Vec<_>>());
    env.insert("y", vec![3.0f64; n]);
    env.insert("s", vec![10.0f64]);
    runtime.offload(&region, &mut env).unwrap();
    let expected = 10.0 + (0..n).map(|i| i as f64 * 3.0).sum::<f64>();
    assert!((env.get::<f64>("s").unwrap()[0] - expected).abs() < 1e-9);
    runtime.shutdown();
}

#[test]
fn unpartitioned_output_bitor_reconstruction() {
    // No partition spec on y: workers return full-size buffers merged
    // with bitwise OR (Eq. 8).
    let n = 64;
    let runtime = CloudRuntime::new(small_config());
    let region = TargetRegion::builder("scale")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("y")
        .parallel_for(n, |l| {
            l.body(|i, ins, outs| {
                let x = ins.view::<f32>("x");
                outs.view_mut::<f32>("y")[i] = x[i] * 5.0;
            })
        })
        .build()
        .unwrap();
    let mut env = DataEnv::new();
    env.insert("x", (0..n).map(|i| i as f32).collect::<Vec<_>>());
    env.insert("y", vec![0.0f32; n]);
    runtime.offload(&region, &mut env).unwrap();
    let y = env.get::<f32>("y").unwrap();
    for (i, &v) in y.iter().enumerate() {
        assert_eq!(v, i as f32 * 5.0);
    }
    runtime.shutdown();
}

#[test]
fn ec2_autostart_bills_the_fleet() {
    let config = CloudConfig {
        ec2_autostart: true,
        ..small_config()
    };
    let runtime = CloudRuntime::new(config);
    let region = matmul_region(8, CloudRuntime::cloud_selector());
    let mut env = matmul_env(8);
    let profile = runtime.offload(&region, &mut env).unwrap();
    assert!(profile.notes.iter().any(|n| n.contains("ec2 autostart")));
    let report = runtime.cloud().last_report().unwrap();
    let cost = report.cost.expect("cost recorded");
    assert_eq!(cost.instances, 3, "driver + 2 workers");
    runtime.shutdown();
}

#[test]
fn successive_offloads_reuse_the_device() {
    let runtime = CloudRuntime::new(small_config());
    for n in [8usize, 12, 16] {
        let region = matmul_region(n, CloudRuntime::cloud_selector());
        let mut env = matmul_env(n);
        runtime.offload(&region, &mut env).unwrap();
        assert_eq!(
            env.get::<f32>("C").unwrap(),
            host_reference(n).as_slice(),
            "n={n}"
        );
    }
    runtime.shutdown();
}
