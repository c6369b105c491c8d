//! PolyBench SYR2K: symmetric rank-2k update
//! `C := alpha*A*Bᵀ + alpha*B*Aᵀ + beta*C`.
//!
//! Like SYRK, both `A` and `B` are read in full by every iteration and
//! therefore broadcast; only `C` rows are partitioned.

use crate::data::{matrix, DataKind};
use crate::syrk::row_dots;
use omp_model::prelude::*;
use omp_model::TargetRegion;

/// PolyBench `alpha` scalar.
pub const ALPHA: f32 = 1.5;
/// PolyBench `beta` scalar.
pub const BETA: f32 = 1.2;

/// Floating-point operations for an `n x n` SYR2K.
pub fn flops(n: usize) -> f64 {
    (n * n) as f64 * (4.0 * n as f64 + 3.0)
}

/// The offloadable target region.
pub fn region(n: usize, device: DeviceSelector) -> TargetRegion {
    TargetRegion::builder("syr2k")
        .device(device)
        .map_to("A")
        .map_to("B")
        .map_tofrom("C")
        .parallel_for(n, move |l| {
            l.partition("C", PartitionSpec::rows(n))
                .flops_per_iter(flops(n) / n as f64)
                .body(move |i, ins, outs| {
                    let row = i * n..(i + 1) * n;
                    let a = ins.view::<f32>("A").slice(0..n * n);
                    let b = ins.view::<f32>("B").slice(0..n * n);
                    let mut c = outs.view_mut::<f32>("C");
                    let c_row = c.slice_mut(row.clone());
                    row_dots([(&a[row.clone()], b), (&b[row.clone()], a)], c_row);
                    for (c, &c_in) in c_row.iter_mut().zip(ins.view::<f32>("C").slice(row)) {
                        *c = ALPHA * *c + BETA * c_in;
                    }
                })
        })
        .build()
        .expect("syr2k region is valid")
}

/// Input environment for an `n x n` instance.
pub fn env(n: usize, kind: DataKind, seed: u64) -> DataEnv {
    let mut e = DataEnv::new();
    e.insert("A", matrix(n, n, kind, seed));
    e.insert("B", matrix(n, n, kind, seed.wrapping_add(1)));
    e.insert("C", matrix(n, n, kind, seed.wrapping_add(2)));
    e
}

/// Handwritten sequential reference; `c` is updated in place.
pub fn sequential(n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[j * n + k] + b[i * n + k] * a[j * n + k];
            }
            c[i * n + j] = ALPHA * acc + BETA * c[i * n + j];
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
        assert_bits_match_reference(BenchId::Syr2k);
    }
}
