//! The blocked kernels (COVAR and the matmul family: GEMM, Mat-mul, 2MM,
//! 3MM) keep `sequential()`'s bits at ragged shapes: tiles whose row
//! count is no multiple of the register block's rows, and widths that are
//! no multiple of its columns, so every edge of the nest runs. Tiles are
//! cut by `execute_loop_chunked` (at most 1, 3 and 5 rows) and by
//! Algorithm 1 on a one-slot and a 16-slot cluster.

use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::omp_model::chunk::execute_loop_chunked;
use ompcloud_suite::prelude::*;

const BLOCKED: [BenchId; 5] = [
    BenchId::Covar,
    BenchId::Gemm,
    BenchId::MatMul,
    BenchId::TwoMm,
    BenchId::ThreeMm,
];
const SIZES: [usize; 4] = [1, 7, 33, 130];

/// `sequential()`'s outputs for `id` at size `n`.
fn reference(id: BenchId, n: usize, kind: DataKind) -> DataEnv {
    let mut want = kernels::build(id, n, kind, 9, DeviceSelector::Default).env;
    kernels::run_host(id, n, &mut want);
    want
}

fn assert_same_bits(id: BenchId, n: usize, got: &DataEnv, want: &DataEnv, how: &str) {
    for var in kernels::build(id, 1, DataKind::Dense, 0, DeviceSelector::Default).outputs {
        assert!(
            got.get_erased(var).unwrap().to_bytes() == want.get_erased(var).unwrap().to_bytes(),
            "{} n={n} {how}: '{var}' differs in bits from sequential()",
            id.name()
        );
    }
}

#[test]
fn blocked_kernels_keep_their_bits_in_ragged_chunks() {
    for id in BLOCKED {
        for kind in [DataKind::Dense, DataKind::Sparse] {
            for n in SIZES {
                let want = reference(id, n, kind);
                for rows in [1, 3, 5] {
                    let mut case = kernels::build(id, n, kind, 9, DeviceSelector::Default);
                    for loop_ in &case.region.loops {
                        execute_loop_chunked(&case.region, loop_, &mut case.env, n.div_ceil(rows))
                            .unwrap();
                    }
                    let how = format!("{} tiles of <= {rows} rows", kind.label());
                    assert_same_bits(id, n, &case.env, &want, &how);
                }
            }
        }
    }
}

#[test]
fn blocked_kernels_keep_their_bits_on_one_slot_and_sixteen() {
    for (workers, vcpus, task_cpus) in [(1, 1, 1), (4, 8, 2)] {
        let rt = CloudRuntime::new(CloudConfig {
            workers,
            vcpus_per_worker: vcpus,
            task_cpus,
            ..CloudConfig::default()
        });
        for id in BLOCKED {
            for n in SIZES {
                let want = reference(id, n, DataKind::Dense);
                let mut case =
                    kernels::build(id, n, DataKind::Dense, 9, CloudRuntime::cloud_selector());
                let profile = rt.offload(&case.region, &mut case.env).unwrap();
                assert_eq!(profile.fallback_from, None, "{} n={n}", id.name());
                let how = format!("on {workers}x{vcpus}/{task_cpus}");
                assert_same_bits(id, n, &case.env, &want, &how);
            }
        }
        rt.shutdown();
    }
}
