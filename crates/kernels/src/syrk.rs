//! PolyBench SYRK: symmetric rank-k update `C := alpha*A*Aᵀ + beta*C`.
//!
//! Iteration `i` computes row `i` of `C` but reads *every* row of `A`
//! (`C[i][j] = Σ_k A[i][k] * A[j][k]`), so `A` cannot be partitioned and
//! is broadcast whole — the reason SYRK shows the largest Spark overhead
//! in the paper's Fig. 4 (17 % at 8 cores growing to 69 % at 256).

use crate::data::{matrix, DataKind};
use omp_model::prelude::*;
use omp_model::TargetRegion;

/// PolyBench `alpha` scalar.
pub const ALPHA: f32 = 1.5;
/// PolyBench `beta` scalar.
pub const BETA: f32 = 1.2;

/// Floating-point operations for an `n x n` SYRK.
pub fn flops(n: usize) -> f64 {
    (n * n) as f64 * (2.0 * n as f64 + 3.0)
}

/// Outputs computed side by side by [`row_dots`]. Four measured fastest at
/// `n = 384`: two is 1.1x slower, eight 1.2-1.6x, sixteen (SYR2K) 3x —
/// past four the rows and sums no longer fit the registers.
const LANES: usize = 4;

/// `out[j] = Σ_k Σ_p x_p[k] · M_p[j][k]` for `pairs` of a row `x_p` and a
/// row-major `n x n` matrix `M_p`, `n = out.len()`: the row·row dot
/// products of SYRK (one pair) and SYR2K (two).
///
/// One such sum is a chain of dependent adds that may not be reassociated
/// — each `out[j]` takes its terms `k` ascending from `+0.0`, a term's
/// products added left to right, as the `sequential()` references do — so
/// [`LANES`] outputs are summed at once and their independent chains
/// overlap.
pub(crate) fn row_dots<const P: usize>(pairs: [(&[f32], &[f32]); P], out: &mut [f32]) {
    let n = out.len();
    for (block, out) in out.chunks_mut(LANES).enumerate() {
        // A lane past the last row recomputes that row and is dropped,
        // which spares a tail loop.
        let rows: [[&[f32]; LANES]; P] = std::array::from_fn(|p| {
            std::array::from_fn(|lane| {
                let j = (block * LANES + lane).min(n - 1);
                &pairs[p].1[j * n..][..n]
            })
        });
        let xs: [&[f32]; P] = std::array::from_fn(|p| &pairs[p].0[..n]);
        let mut acc = [0.0f32; LANES];
        for k in 0..n {
            for lane in 0..LANES {
                let mut term = xs[0][k] * rows[0][lane][k];
                for p in 1..P {
                    term += xs[p][k] * rows[p][lane][k];
                }
                acc[lane] += term;
            }
        }
        out.copy_from_slice(&acc[..out.len()]);
    }
}

/// The offloadable target region.
pub fn region(n: usize, device: DeviceSelector) -> TargetRegion {
    TargetRegion::builder("syrk")
        .device(device)
        .map_to("A")
        .map_tofrom("C")
        .parallel_for(n, move |l| {
            l.partition("C", PartitionSpec::rows(n))
                .flops_per_iter(flops(n) / n as f64)
                .body(move |i, ins, outs| {
                    let row = i * n..(i + 1) * n;
                    let a = ins.view::<f32>("A").slice(0..n * n);
                    let mut c = outs.view_mut::<f32>("C");
                    let c_row = c.slice_mut(row.clone());
                    row_dots([(&a[row.clone()], a)], c_row);
                    for (c, &c_in) in c_row.iter_mut().zip(ins.view::<f32>("C").slice(row)) {
                        *c = ALPHA * *c + BETA * c_in;
                    }
                })
        })
        .build()
        .expect("syrk region is valid")
}

/// Input environment for an `n x n` instance.
pub fn env(n: usize, kind: DataKind, seed: u64) -> DataEnv {
    let mut e = DataEnv::new();
    e.insert("A", matrix(n, n, kind, seed));
    e.insert("C", matrix(n, n, kind, seed.wrapping_add(1)));
    e
}

/// Handwritten sequential reference; `c` is updated in place.
pub fn sequential(n: usize, a: &[f32], c: &mut [f32]) {
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * a[j * n + k];
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
        assert_bits_match_reference(BenchId::Syrk);
    }

    #[test]
    fn result_is_symmetric_when_beta_terms_are() {
        // alpha*A*Aᵀ is symmetric; with C starting symmetric the result
        // stays symmetric.
        let n = 10;
        let mut e = DataEnv::new();
        e.insert("A", matrix(n, n, DataKind::Dense, 2));
        e.insert("C", vec![0.5f32; n * n]);
        DeviceRegistry::with_host_only()
            .offload(&region(n, DeviceSelector::Default), &mut e)
            .unwrap();
        let c = e.get::<f32>("C").unwrap();
        for i in 0..n {
            for j in 0..n {
                assert!((c[i * n + j] - c[j * n + i]).abs() < 1e-4);
            }
        }
    }
}
