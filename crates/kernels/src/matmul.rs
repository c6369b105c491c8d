//! MgBench Mat-mul: plain `C = A * B` (Listing 1 of the paper).

use crate::data::{matrix, DataKind};
use omp_model::prelude::*;
use omp_model::TargetRegion;

/// Floating-point operations for an `n x n` matmul.
pub fn flops(n: usize) -> f64 {
    (n * n) as f64 * 2.0 * n as f64
}

/// The loop body `c[i][..] = a[i][..] × b` over `n x n` matrices mapped
/// under the names `[a, b, c]`: the nest every `row of A × matrix` loop of
/// this crate shares (GEMM, Mat-mul, both of 2MM, all three of 3MM).
///
/// `k` is the outer loop and `j` the inner one (PolyBench 4's own `gemm.c`
/// order), so the inner loop walks `c[i]` and one row of `b` contiguously
/// and vectorizes across `j`. Each `c[i][j]` still starts from `+0.0` and
/// takes its products `k` ascending, one multiply and one add each — the
/// operations of `acc += a[i][k] * b[k][j]` in the same order — so it
/// carries the bits of the `j`-outer `sequential()` references. Keep it
/// so: no `mul_add`, no skipped zero operand, no partial sums.
pub(crate) fn product_row(n: usize, i: usize, ins: &Inputs, outs: &mut Outputs, vars: [&str; 3]) {
    let [a, b, c] = vars;
    let row = i * n..(i + 1) * n;
    let a_row = ins.view::<f32>(a).slice(row.clone());
    let b = ins.view::<f32>(b).slice(0..n * n);
    let mut c = outs.view_mut::<f32>(c);
    let c_row = c.slice_mut(row);
    c_row.fill(0.0);
    for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
        for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row) {
            *c_ij += a_ik * b_kj;
        }
    }
}

/// The offloadable target region (Listing 1 + the Listing 2 partition).
pub fn region(n: usize, device: DeviceSelector) -> TargetRegion {
    TargetRegion::builder("matmul")
        .device(device)
        .map_to("A")
        .map_to("B")
        .map_from("C")
        .parallel_for(n, move |l| {
            l.partition("A", PartitionSpec::rows(n))
                .partition("C", PartitionSpec::rows(n))
                .flops_per_iter(flops(n) / n as f64)
                .body(move |i, ins, outs| product_row(n, i, ins, outs, ["A", "B", "C"]))
        })
        .build()
        .expect("matmul region is valid")
}

/// Input environment for an `n x n` instance.
pub fn env(n: usize, kind: DataKind, seed: u64) -> DataEnv {
    let mut e = DataEnv::new();
    e.insert("A", matrix(n, n, kind, seed));
    e.insert("B", matrix(n, n, kind, seed.wrapping_add(1)));
    e.insert("C", vec![0.0f32; n * n]);
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
            c[i * n + j] = acc;
        }
    }
}

/// Output variables to validate.
pub const OUTPUTS: &[&str] = &["C"];

#[cfg(test)]
mod tests {
    use crate::case::{tests::assert_bits_match_reference, BenchId};

    #[test]
    fn host_offload_matches_reference() {
        assert_bits_match_reference(BenchId::MatMul);
    }
}
