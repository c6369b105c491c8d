//! PolyBench GEMM: `C := alpha*A*B + beta*C`.
//!
//! Offloaded exactly as Listing 1/2 of the paper: the parallel loop runs
//! over the rows of `C`; `A` and `C` are partitioned by row blocks
//! (`map(to: A[i*N:(i+1)*N])`), `B` is deliberately *not* partitioned —
//! its access pattern depends on the inner loop counter — and therefore
//! broadcast whole to every worker.

use crate::data::{matrix, DataKind};
use crate::matmul::product_row;
use omp_model::prelude::*;
use omp_model::TargetRegion;

/// PolyBench `alpha` scalar.
pub const ALPHA: f32 = 1.5;
/// PolyBench `beta` scalar.
pub const BETA: f32 = 1.2;

/// Floating-point operations for an `n x n` GEMM.
pub fn flops(n: usize) -> f64 {
    // Per C element: n multiply-adds plus the alpha/beta scaling.
    (n * n) as f64 * (2.0 * n as f64 + 3.0)
}

/// The offloadable target region.
pub fn region(n: usize, device: DeviceSelector) -> TargetRegion {
    TargetRegion::builder("gemm")
        .device(device)
        .map_to("A")
        .map_to("B")
        .map_tofrom("C")
        .parallel_for(n, move |l| {
            l.partition("A", PartitionSpec::rows(n))
                .partition("C", PartitionSpec::rows(n))
                .flops_per_iter(flops(n) / n as f64)
                .body(move |i, ins, outs| {
                    product_row(n, i, ins, outs, ["A", "B", "C"]);
                    let row = i * n..(i + 1) * n;
                    let mut c = outs.view_mut::<f32>("C");
                    let c_in = ins.view::<f32>("C").slice(row.clone());
                    for (c, &c_in) in c.slice_mut(row).iter_mut().zip(c_in) {
                        *c = ALPHA * *c + BETA * c_in;
                    }
                })
        })
        .build()
        .expect("gemm region is valid")
}

/// Input environment for an `n x n` instance.
pub fn env(n: usize, kind: DataKind, seed: u64) -> DataEnv {
    let mut e = DataEnv::new();
    e.insert("A", matrix(n, n, kind, seed));
    e.insert("B", matrix(n, n, kind, seed.wrapping_add(1)));
    e.insert("C", matrix(n, n, kind, seed.wrapping_add(2)));
    e
}

/// Handwritten sequential reference.
pub fn sequential(n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = ALPHA * acc + BETA * c[i * n + j];
        }
    }
}

/// Output variables to validate.
pub const OUTPUTS: &[&str] = &["C"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{tests::assert_bits_match_reference, BenchId};

    #[test]
    fn host_offload_matches_reference() {
        assert_bits_match_reference(BenchId::Gemm);
    }

    #[test]
    fn flops_matches_triple_loop() {
        assert_eq!(flops(10) as u64, 100 * 23);
    }
}
