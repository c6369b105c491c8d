//! Every benchmark of the paper's evaluation (§IV), offloaded to the
//! in-process cloud on both dense and sparse inputs, validated against
//! the handwritten sequential references.

use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::prelude::*;

fn cloud() -> CloudRuntime {
    CloudRuntime::new(CloudConfig {
        workers: 3,
        vcpus_per_worker: 4,
        task_cpus: 2,
        min_compression_size: 256,
        ..CloudConfig::default()
    })
}

/// Run one case on the cloud and on the sequential host; outputs must
/// agree bit-for-bit (same arithmetic order per iteration).
fn check(id: BenchId, n: usize, kind: DataKind, runtime: &CloudRuntime) {
    let mut cloud_case = kernels::build(id, n, kind, 99, CloudRuntime::cloud_selector());
    let mut host_case = kernels::build(id, n, kind, 99, DeviceSelector::Default);
    let host_registry = DeviceRegistry::with_host_only();

    runtime
        .offload(&cloud_case.region, &mut cloud_case.env)
        .unwrap_or_else(|e| {
            panic!("{} cloud offload failed: {e}", id.name());
        });
    host_registry
        .offload(&host_case.region, &mut host_case.env)
        .unwrap();

    for var in cloud_case.outputs {
        let got = cloud_case.env.get_erased(var).unwrap();
        let expected = host_case.env.get_erased(var).unwrap();
        assert_eq!(
            got,
            expected,
            "{} output '{var}' ({})",
            id.name(),
            kind.label()
        );
    }
}

#[test]
fn polybench_kernels_dense() {
    let runtime = cloud();
    for id in [
        BenchId::Syrk,
        BenchId::Syr2k,
        BenchId::Covar,
        BenchId::Gemm,
        BenchId::TwoMm,
        BenchId::ThreeMm,
    ] {
        check(id, 20, DataKind::Dense, &runtime);
    }
    runtime.shutdown();
}

#[test]
fn polybench_kernels_sparse() {
    let runtime = cloud();
    for id in [
        BenchId::Syrk,
        BenchId::Syr2k,
        BenchId::Covar,
        BenchId::Gemm,
        BenchId::TwoMm,
        BenchId::ThreeMm,
    ] {
        check(id, 20, DataKind::Sparse, &runtime);
    }
    runtime.shutdown();
}

#[test]
fn mgbench_kernels() {
    let runtime = cloud();
    check(BenchId::MatMul, 24, DataKind::Dense, &runtime);
    check(BenchId::MatMul, 24, DataKind::Sparse, &runtime);
    check(BenchId::Collinear, 40, DataKind::Dense, &runtime);
    runtime.shutdown();
}

#[test]
fn kernels_match_handwritten_references() {
    // The host device itself is validated against fully independent
    // sequential implementations (not just cloud-vs-host agreement).
    let n = 16;
    let registry = DeviceRegistry::with_host_only();

    let mut gemm_case = kernels::build(
        BenchId::Gemm,
        n,
        DataKind::Dense,
        5,
        DeviceSelector::Default,
    );
    let mut expected = gemm_case.env.get::<f32>("C").unwrap().to_vec();
    kernels::gemm::sequential(
        n,
        gemm_case.env.get::<f32>("A").unwrap(),
        gemm_case.env.get::<f32>("B").unwrap(),
        &mut expected,
    );
    registry
        .offload(&gemm_case.region, &mut gemm_case.env)
        .unwrap();
    kernels::assert_close(
        gemm_case.env.get::<f32>("C").unwrap(),
        &expected,
        1e-3,
        "gemm",
    );

    let mut syrk_case = kernels::build(
        BenchId::Syrk,
        n,
        DataKind::Dense,
        5,
        DeviceSelector::Default,
    );
    let mut expected = syrk_case.env.get::<f32>("C").unwrap().to_vec();
    kernels::syrk::sequential(n, syrk_case.env.get::<f32>("A").unwrap(), &mut expected);
    registry
        .offload(&syrk_case.region, &mut syrk_case.env)
        .unwrap();
    kernels::assert_close(
        syrk_case.env.get::<f32>("C").unwrap(),
        &expected,
        1e-3,
        "syrk",
    );
}

#[test]
fn every_kernel_is_bit_equal_to_its_sequential_reference() {
    // All eight kernels, dense and sparse, at sizes that are no multiple
    // of any vector width, on both host devices and on the cloud: every
    // output must carry the bits of the handwritten `sequential()`
    // reference — a tolerance would let a reordered summation through,
    // and with it different wire bytes, codec choices and delta ledgers.
    let runtime = cloud();
    for &id in kernels::ALL {
        for kind in [DataKind::Dense, DataKind::Sparse] {
            for n in [1, 7, 33, 130] {
                let mut want = kernels::build(id, n, kind, 9, DeviceSelector::Default).env;
                kernels::run_host(id, n, &mut want);
                for device in ["host-seq", "host-3t", "cloud"] {
                    let mut case = kernels::build(id, n, kind, 9, CloudRuntime::cloud_selector());
                    let profile = match device {
                        "host-seq" => HostDevice::sequential().execute(&case.region, &mut case.env),
                        "host-3t" => HostDevice::threaded(3).execute(&case.region, &mut case.env),
                        _ => runtime.offload(&case.region, &mut case.env),
                    }
                    .unwrap_or_else(|e| panic!("{} n={n} on {device}: {e}", id.name()));
                    assert_eq!(profile.fallback_from, None, "{} n={n}", id.name());
                    for var in case.outputs {
                        assert!(
                            case.env.get_erased(var).unwrap().to_bytes()
                                == want.get_erased(var).unwrap().to_bytes(),
                            "{} {} n={n} on {device}: '{var}' differs in bits from sequential()",
                            id.name(),
                            kind.label()
                        );
                    }
                }
            }
        }
    }
    runtime.shutdown();
}

#[test]
fn different_cluster_shapes_same_results() {
    // The tiling adapts to the cluster size without recompilation; the
    // numbers must not depend on it (same per-iteration arithmetic).
    let mut reference: Option<Vec<f32>> = None;
    for (workers, vcpus) in [(1usize, 2usize), (2, 4), (5, 8)] {
        let runtime = CloudRuntime::new(CloudConfig {
            workers,
            vcpus_per_worker: vcpus,
            task_cpus: 2,
            ..CloudConfig::default()
        });
        let mut case = kernels::build(
            BenchId::Gemm,
            24,
            DataKind::Dense,
            42,
            CloudRuntime::cloud_selector(),
        );
        runtime.offload(&case.region, &mut case.env).unwrap();
        let c = case.env.get::<f32>("C").unwrap().to_vec();
        match &reference {
            None => reference = Some(c),
            Some(r) => assert_eq!(&c, r, "cluster {workers}x{vcpus}"),
        }
        runtime.shutdown();
    }
}
