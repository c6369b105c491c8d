//! A uniform harness surface over the eight evaluation benchmarks, so
//! tests and benches can sweep "every benchmark of §IV" in one loop.

use crate::data::DataKind;
use crate::{collinear, covar, gemm, matmul, syr2k, syrk, three_mm, two_mm};
use omp_model::{DataEnv, DeviceSelector, TargetRegion};

/// The benchmark set of the paper's evaluation (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchId {
    /// PolyBench SYRK.
    Syrk,
    /// PolyBench SYR2K.
    Syr2k,
    /// PolyBench COVAR.
    Covar,
    /// PolyBench GEMM.
    Gemm,
    /// PolyBench 2MM.
    TwoMm,
    /// PolyBench 3MM.
    ThreeMm,
    /// MgBench Mat-mul.
    MatMul,
    /// MgBench Collinear-list.
    Collinear,
}

/// All eight benchmarks, in the paper's Fig. 4 order.
pub const ALL: &[BenchId] = &[
    BenchId::Syrk,
    BenchId::Syr2k,
    BenchId::Covar,
    BenchId::Gemm,
    BenchId::TwoMm,
    BenchId::ThreeMm,
    BenchId::MatMul,
    BenchId::Collinear,
];

impl BenchId {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            BenchId::Syrk => "SYRK",
            BenchId::Syr2k => "SYR2K",
            BenchId::Covar => "COVAR",
            BenchId::Gemm => "GEMM",
            BenchId::TwoMm => "2MM",
            BenchId::ThreeMm => "3MM",
            BenchId::MatMul => "Mat-mul",
            BenchId::Collinear => "Collinear-list",
        }
    }

    /// Which suite the benchmark comes from.
    pub fn suite(self) -> &'static str {
        match self {
            BenchId::MatMul | BenchId::Collinear => "MgBench",
            _ => "PolyBench",
        }
    }
}

/// A constructed benchmark instance: region + data + what to validate.
pub struct BenchCase {
    /// Which benchmark this is.
    pub id: BenchId,
    /// The offloadable region.
    pub region: TargetRegion,
    /// The input data environment.
    pub env: DataEnv,
    /// Output variable names to compare against a reference run.
    pub outputs: &'static [&'static str],
}

/// Build one benchmark at problem size `n` (matrix dimension / point
/// count; COVAR uses `m = 2n` observations).
pub fn build(
    id: BenchId,
    n: usize,
    kind: DataKind,
    seed: u64,
    device: DeviceSelector,
) -> BenchCase {
    match id {
        BenchId::Syrk => BenchCase {
            id,
            region: syrk::region(n, device),
            env: syrk::env(n, kind, seed),
            outputs: syrk::OUTPUTS,
        },
        BenchId::Syr2k => BenchCase {
            id,
            region: syr2k::region(n, device),
            env: syr2k::env(n, kind, seed),
            outputs: syr2k::OUTPUTS,
        },
        BenchId::Covar => BenchCase {
            id,
            region: covar::region(n, 2 * n, device),
            env: covar::env(n, 2 * n, kind, seed),
            outputs: covar::OUTPUTS,
        },
        BenchId::Gemm => BenchCase {
            id,
            region: gemm::region(n, device),
            env: gemm::env(n, kind, seed),
            outputs: gemm::OUTPUTS,
        },
        BenchId::TwoMm => BenchCase {
            id,
            region: two_mm::region(n, device),
            env: two_mm::env(n, kind, seed),
            outputs: two_mm::OUTPUTS,
        },
        BenchId::ThreeMm => BenchCase {
            id,
            region: three_mm::region(n, device),
            env: three_mm::env(n, kind, seed),
            outputs: three_mm::OUTPUTS,
        },
        BenchId::MatMul => BenchCase {
            id,
            region: matmul::region(n, device),
            env: matmul::env(n, kind, seed),
            outputs: matmul::OUTPUTS,
        },
        BenchId::Collinear => BenchCase {
            id,
            region: collinear::region(n, device),
            env: collinear::env(n, seed),
            outputs: collinear::OUTPUTS,
        },
    }
}

/// Build every benchmark at size `n`.
pub fn build_all(n: usize, kind: DataKind, seed: u64, device: DeviceSelector) -> Vec<BenchCase> {
    ALL.iter()
        .map(|&id| build(id, n, kind, seed, device))
        .collect()
}

/// Run the handwritten sequential reference of `id` at size `n`
/// directly against `env`'s buffers — the uniform host-oracle entry
/// point the conformance harness diffs device executions against. Reads
/// the same variables [`build`] installs and updates the benchmark's
/// `OUTPUTS` in place; intermediate buffers (`mean`, `tmp`, ...) are
/// left untouched.
pub fn run_host(id: BenchId, n: usize, env: &mut DataEnv) {
    let take = |env: &DataEnv, name: &str| -> Vec<f32> {
        env.get::<f32>(name)
            .unwrap_or_else(|_| panic!("{} input {name} missing", id.name()))
            .to_vec()
    };
    match id {
        BenchId::Syrk => {
            let a = take(env, "A");
            syrk::sequential(n, &a, env.get_mut::<f32>("C").unwrap());
        }
        BenchId::Syr2k => {
            let (a, b) = (take(env, "A"), take(env, "B"));
            syr2k::sequential(n, &a, &b, env.get_mut::<f32>("C").unwrap());
        }
        BenchId::Covar => {
            let data = take(env, "data");
            covar::sequential(n, 2 * n, &data, env.get_mut::<f32>("cov").unwrap());
        }
        BenchId::Gemm => {
            let (a, b) = (take(env, "A"), take(env, "B"));
            gemm::sequential(n, &a, &b, env.get_mut::<f32>("C").unwrap());
        }
        BenchId::TwoMm => {
            let (a, b, c) = (take(env, "A"), take(env, "B"), take(env, "Cm"));
            two_mm::sequential(n, &a, &b, &c, env.get_mut::<f32>("D").unwrap());
        }
        BenchId::ThreeMm => {
            let (a, b, c, d) = (
                take(env, "A"),
                take(env, "B"),
                take(env, "Cm"),
                take(env, "Dm"),
            );
            three_mm::sequential(n, &a, &b, &c, &d, env.get_mut::<f32>("G").unwrap());
        }
        BenchId::MatMul => {
            let (a, b) = (take(env, "A"), take(env, "B"));
            matmul::sequential(n, &a, &b, env.get_mut::<f32>("C").unwrap());
        }
        BenchId::Collinear => {
            let p = take(env, "points");
            collinear::sequential(n, &p, env.get_mut::<u32>("count").unwrap());
        }
    }
}

/// Total flops of one benchmark at size `n` (COVAR uses `m = 2n`).
pub fn flops(id: BenchId, n: usize) -> f64 {
    match id {
        BenchId::Syrk => syrk::flops(n),
        BenchId::Syr2k => syr2k::flops(n),
        BenchId::Covar => covar::flops(n, 2 * n),
        BenchId::Gemm => gemm::flops(n),
        BenchId::TwoMm => two_mm::flops(n),
        BenchId::ThreeMm => three_mm::flops(n),
        BenchId::MatMul => matmul::flops(n),
        BenchId::Collinear => collinear::flops(n),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use omp_model::{Device, HostDevice};

    /// Offload `id` on the sequential and on a three-thread host device,
    /// dense and sparse, at sizes that are no multiple of any vector
    /// width, and require every output to equal the handwritten
    /// `sequential()` reference bit for bit: a loop body may be reordered
    /// for speed only while each output element still sees the same
    /// floating-point operations in the same order.
    pub(crate) fn assert_bits_match_reference(id: BenchId) {
        for kind in [DataKind::Dense, DataKind::Sparse] {
            for n in [1, 7, 33, 130] {
                let mut want = build(id, n, kind, 9, DeviceSelector::Default).env;
                run_host(id, n, &mut want);
                for device in [HostDevice::sequential(), HostDevice::threaded(3)] {
                    let mut case = build(id, n, kind, 9, DeviceSelector::Default);
                    device.execute(&case.region, &mut case.env).unwrap();
                    for var in case.outputs {
                        assert!(
                            case.env.get_erased(var).unwrap().to_bytes()
                                == want.get_erased(var).unwrap().to_bytes(),
                            "{} {} n={n} on {}: '{var}' differs in bits from sequential()",
                            id.name(),
                            kind.label(),
                            device.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_eight_build_and_validate() {
        for case in build_all(10, DataKind::Dense, 1, DeviceSelector::Default) {
            assert!(!case.region.loops.is_empty(), "{}", case.id.name());
            assert!(!case.outputs.is_empty());
            for out in case.outputs {
                assert!(
                    case.env.contains(out),
                    "{}: output {out} in env",
                    case.id.name()
                );
            }
        }
    }

    #[test]
    fn names_and_suites() {
        assert_eq!(BenchId::ThreeMm.name(), "3MM");
        assert_eq!(BenchId::Collinear.suite(), "MgBench");
        assert_eq!(BenchId::Gemm.suite(), "PolyBench");
        assert_eq!(ALL.len(), 8);
    }

    #[test]
    fn flops_are_positive_and_ordered() {
        // 3MM does three matmuls, 2MM two, matmul one.
        let n = 64;
        assert!(flops(BenchId::ThreeMm, n) > flops(BenchId::TwoMm, n));
        assert!(flops(BenchId::TwoMm, n) > flops(BenchId::MatMul, n));
        for &id in ALL {
            assert!(flops(id, n) > 0.0);
        }
    }
}
