//! Accounting invariants of the measurement surface: byte counts, task
//! counts and timing buckets must be consistent across devices and
//! report layers — the numbers the figure harnesses are built on.

use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::prelude::*;

fn runtime() -> CloudRuntime {
    CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        min_compression_size: 64,
        ..CloudConfig::default()
    })
}

#[test]
fn byte_counts_match_the_data_environment() {
    let rt = runtime();
    for &id in ompcloud_suite::kernels::ALL {
        let mut case = kernels::build(id, 16, DataKind::Dense, 3, CloudRuntime::cloud_selector());
        let expect_to: u64 = case
            .region
            .input_maps()
            .map(|m| case.env.get_erased(&m.name).unwrap().byte_len() as u64)
            .sum();
        let expect_from: u64 = case
            .region
            .output_maps()
            .map(|m| case.env.get_erased(&m.name).unwrap().byte_len() as u64)
            .sum();
        let profile = rt.offload(&case.region, &mut case.env).unwrap();
        // What the device moves is what its map plan says it moves: every
        // mapped input in full, less the one elision these kernels offer.
        // 3MM's `E` and `F` are both zero-initialised `tofrom`
        // intermediates of n x n f32 — byte-identical twins — so `F`
        // aliases `E`'s staged object and 16 x 16 x 4 bytes stay home.
        let deduped: u64 = match id {
            BenchId::ThreeMm => 16 * 16 * 4,
            _ => 0,
        };
        let plan = rt.cloud().last_report().unwrap().map_plan;
        assert_eq!(plan.upload_bytes_saved(), deduped, "{} twins", id.name());
        assert_eq!(profile.bytes_to_device, plan.upload_bytes());
        assert_eq!(
            profile.bytes_to_device,
            expect_to - deduped,
            "{} inputs",
            id.name()
        );
        assert_eq!(
            profile.bytes_from_device,
            expect_from,
            "{} outputs",
            id.name()
        );
        assert!(profile.wire_bytes_to <= expect_to + 1024 * case.region.maps.len() as u64);
    }
    rt.shutdown();
}

#[test]
fn task_counts_equal_tiles_across_loops() {
    let rt = runtime(); // 4 slots
    let mut case = kernels::build(
        BenchId::ThreeMm,
        20,
        DataKind::Dense,
        1,
        CloudRuntime::cloud_selector(),
    );
    let profile = rt.offload(&case.region, &mut case.env).unwrap();
    // Three loops of 20 iterations on 4 slots: 3 x 4 tiles.
    assert_eq!(profile.tasks, 12);
    let report = rt.cloud().last_report().unwrap();
    assert_eq!(report.total_tiles(), 12);
    assert_eq!(report.loops.len(), 3);
    rt.shutdown();
}

#[test]
fn timing_buckets_are_nonnegative_and_compose() {
    let rt = runtime();
    let mut case = kernels::build(
        BenchId::Gemm,
        24,
        DataKind::Sparse,
        9,
        CloudRuntime::cloud_selector(),
    );
    let p = rt.offload(&case.region, &mut case.env).unwrap();
    assert!(p.host_comm_s >= 0.0 && p.overhead_s >= 0.0 && p.compute_s >= 0.0);
    let total = p.total_s();
    assert!((total - (p.host_comm_s + p.overhead_s + p.compute_s)).abs() < 1e-12);
    assert!(p.device_s() <= total);
    assert!(p.compute_fraction() >= 0.0 && p.compute_fraction() <= 1.0);
    rt.shutdown();
}

#[test]
fn sparse_inputs_shrink_the_wire_not_the_raw_count() {
    let rt = runtime();
    let mut dense = kernels::build(
        BenchId::MatMul,
        32,
        DataKind::Dense,
        7,
        CloudRuntime::cloud_selector(),
    );
    let p_dense = rt.offload(&dense.region, &mut dense.env).unwrap();
    let mut sparse = kernels::build(
        BenchId::MatMul,
        32,
        DataKind::Sparse,
        7,
        CloudRuntime::cloud_selector(),
    );
    let p_sparse = rt.offload(&sparse.region, &mut sparse.env).unwrap();
    assert_eq!(
        p_dense.bytes_to_device, p_sparse.bytes_to_device,
        "same raw bytes"
    );
    assert!(
        p_sparse.wire_bytes_to < p_dense.wire_bytes_to / 2,
        "sparse wire {} vs dense {}",
        p_sparse.wire_bytes_to,
        p_dense.wire_bytes_to
    );
    rt.shutdown();
}

#[test]
fn host_devices_report_zero_host_comm() {
    let registry = DeviceRegistry::with_host_only();
    let mut case = kernels::build(
        BenchId::Gemm,
        16,
        DataKind::Dense,
        2,
        DeviceSelector::Default,
    );
    let p = registry.offload(&case.region, &mut case.env).unwrap();
    assert_eq!(
        p.host_comm_s, 0.0,
        "host execution has no host-target transfers"
    );
    assert_eq!(p.bytes_to_device, 0);
    assert!(p.compute_s > 0.0);
}
