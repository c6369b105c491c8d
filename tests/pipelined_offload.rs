//! The pipelined offload engine must (a) provably overlap transfer work
//! that the paper's barrier sequence runs back to back (asserted through
//! the overlap ledger, not wall-clock races), (b) report honest overlap
//! accounting, and (c) stay bitwise-identical to the sequential host for
//! every output class.

use ompcloud_suite::cloud_storage::{LatencyStore, S3Store};
use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::ompcloud::CloudDevice;
use ompcloud_suite::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Runtime over an in-memory S3 bucket wrapped in `per_op` of injected
/// round-trip latency per put/get.
fn wan_runtime(config: CloudConfig, per_op: Duration) -> CloudRuntime {
    let store = Arc::new(LatencyStore::new(
        Arc::new(S3Store::standalone("wan")),
        per_op,
    ));
    CloudRuntime::with_device(CloudDevice::with_store(config, store))
}

/// A region with many independent `map(to:)` buffers — the shape where
/// batch barriers between upload, driver fetch, store and download cost
/// the most wall time.
fn fan_in_region(n_bufs: usize, n: usize, device: DeviceSelector) -> TargetRegion {
    let mut builder = TargetRegion::builder("fan_in").device(device);
    for k in 0..n_bufs {
        builder = builder.map_to(format!("x{k}"));
    }
    builder
        .map_from("y")
        .parallel_for(n, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    let mut acc = 0.0f32;
                    for k in 0..n_bufs {
                        acc += ins.view::<f32>(&format!("x{k}"))[i];
                    }
                    outs.view_mut::<f32>("y")[i] = acc;
                })
        })
        .build()
        .unwrap()
}

fn fan_in_env(n_bufs: usize, n: usize) -> DataEnv {
    let mut env = DataEnv::new();
    for k in 0..n_bufs {
        env.insert(
            format!("x{k}"),
            (0..n).map(|i| (i + k) as f32).collect::<Vec<_>>(),
        );
    }
    env.insert("y", vec![0.0f32; n]);
    env
}

/// Run `region` on the paper's 1-core baseline (a device runs what it is
/// handed, whatever the region's selector) and return `var`'s bytes.
fn host_bytes(region: &TargetRegion, mut env: DataEnv, var: &str) -> Vec<u8> {
    HostDevice::sequential().execute(region, &mut env).unwrap();
    env.get_erased(var).unwrap().to_bytes()
}

#[test]
fn fan_in_transfers_overlap_under_wan_latency() {
    // 48 input buffers over a 10ms-per-op store. The paper's sequence
    // puts a full barrier between the upload and the driver fetch, and
    // another between the output store and the download; the pipeline
    // fetches each object the moment its put lands and sizes the I/O
    // pool independently of the CPU pool.
    let n_bufs = 48;
    let n = 64;
    let rt = wan_runtime(
        CloudConfig {
            workers: 2,
            vcpus_per_worker: 4,
            task_cpus: 2,
            io_threads: 64,
            ..CloudConfig::default()
        },
        Duration::from_millis(10),
    );
    let region = fan_in_region(n_bufs, n, CloudRuntime::cloud_selector());
    let mut env = fan_in_env(n_bufs, n);
    let profile = rt.offload(&region, &mut env).unwrap();
    // The counter-based claim of pipelining: work provably ran
    // concurrently, and what overlapped is bounded by the busy time that
    // existed to hide. (A wall-clock race against a barrier sequence
    // would be load-dependent and flaky; the overlap ledger is not.)
    assert!(
        profile.overlap_s > 0.0,
        "pipelined run must report overlapped work, got {profile}"
    );
    assert!(
        profile.overlap_s <= profile.total_s() + 1e-9,
        "overlap is time saved and can never exceed the wall: {profile}"
    );
    rt.shutdown();

    assert_eq!(
        env.get_erased("y").unwrap().to_bytes(),
        host_bytes(&region, fan_in_env(n_bufs, n), "y"),
        "the cloud result must agree bitwise with the host's"
    );
}

#[test]
fn overlap_accounting_is_populated_and_consistent() {
    let cfg = CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        io_threads: 16,
        min_compression_size: 1024,
        ..CloudConfig::default()
    };
    let rt = wan_runtime(cfg, Duration::from_millis(5));

    // One large compressible buffer alongside small ones exercises both
    // the CPU stage (compression) and the I/O stage (latency-bound).
    let region = TargetRegion::builder("axpy")
        .device(CloudRuntime::cloud_selector())
        .map_to("big")
        .map_to("x")
        .map_from("y")
        .parallel_for(32, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let big = ins.view::<f32>("big");
                    let x = ins.view::<f32>("x");
                    outs.view_mut::<f32>("y")[i] = big[i] + 2.0 * x[i];
                })
        })
        .build()
        .unwrap();
    let mut env = DataEnv::new();
    env.insert("big", vec![1.0f32; 64 * 1024]);
    env.insert("x", (0..32).map(|i| i as f32).collect::<Vec<_>>());
    env.insert("y", vec![0.0f32; 32]);

    let profile = rt.offload(&region, &mut env).unwrap();
    let report = rt.cloud().last_report().expect("offload leaves a report");

    assert!(
        profile.store_busy_s > 0.0,
        "latency store makes I/O busy time visible"
    );
    assert!(
        profile.compress_busy_s > 0.0,
        "the 256 KiB zero buffer was compressed"
    );
    assert!(
        profile.overlap_s > 0.0,
        "put/get chains across 3 buffers must overlap"
    );
    // Overlap is time saved, so it can never exceed the busy time that
    // was available to hide.
    assert!(
        profile.overlap_s
            <= profile.compress_busy_s + profile.store_busy_s + profile.overhead_s + 1e-9,
        "overlap ({}) must be covered by busy time",
        profile.overlap_s
    );
    assert_eq!(report.profile, profile);
    assert_eq!(env.get::<f32>("y").unwrap()[4], 1.0 + 8.0);
    rt.shutdown();
}

/// The streaming collect must be bitwise-identical to the sequential
/// host for indexed, bitwise-OR and reduction outputs.
#[test]
fn streamed_merge_matches_the_host_for_all_kernels() {
    for id in [
        BenchId::Gemm,
        BenchId::Syrk,
        BenchId::Covar,
        BenchId::MatMul,
    ] {
        for kind in [DataKind::Dense, DataKind::Sparse] {
            let rt = CloudRuntime::new(CloudConfig {
                workers: 2,
                vcpus_per_worker: 4,
                task_cpus: 2,
                ..CloudConfig::default()
            });
            let mut case = kernels::build(id, 16, kind, 7, CloudRuntime::cloud_selector());
            let mut host_env = case.env.clone();
            rt.offload(&case.region, &mut case.env)
                .unwrap_or_else(|e| panic!("{} offload failed: {e}", id.name()));
            rt.shutdown();
            HostDevice::sequential()
                .execute(&case.region, &mut host_env)
                .unwrap();
            for var in case.outputs {
                assert_eq!(
                    case.env.get_erased(var).unwrap().to_bytes(),
                    host_env.get_erased(var).unwrap().to_bytes(),
                    "{} '{var}' ({}): cloud and host must agree bitwise",
                    id.name(),
                    kind.label()
                );
            }
        }
    }
}

/// A declared reduction variable through the streaming path.
#[test]
fn streamed_merge_preserves_reduction_semantics() {
    let n = 256;
    let dot = TargetRegion::builder("dot")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_tofrom("s")
        .parallel_for(n, |l| {
            l.reduction("s", RedOp::Sum).body(|i, ins, outs| {
                let x = ins.view::<f32>("x");
                outs.view_mut::<f32>("s")[0] += x[i] * 2.0;
            })
        })
        .build()
        .unwrap();
    let fresh_env = || {
        let mut env = DataEnv::new();
        env.insert("x", vec![0.5f32; n]);
        env.insert("s", vec![10.0f32]);
        env
    };
    let host_s = host_bytes(&dot, fresh_env(), "s");
    let rt = CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        ..CloudConfig::default()
    });
    let mut env = fresh_env();
    rt.offload(&dot, &mut env).unwrap();
    rt.shutdown();
    assert_eq!(env.get_erased("s").unwrap().to_bytes(), host_s);
    assert_eq!(env.get::<f32>("s").unwrap()[0], 10.0 + n as f32);
}
