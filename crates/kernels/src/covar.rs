//! PolyBench COVAR: covariance matrix of an `m x n` observation matrix
//! (`m` observations of `n` variables).
//!
//! Two `parallel for` loops in one target region: the first computes the
//! per-variable means (partitioned output), the second the covariance
//! rows (`cov[i][j] = Σ_k (D[k][i]-mean[i])(D[k][j]-mean[j]) / (m-1)`).
//! The data matrix is read column-wise by every iteration of the second
//! loop, so it is broadcast whole.

use crate::data::{matrix, DataKind};
use omp_model::prelude::*;
use omp_model::TargetRegion;

/// Floating-point operations (dominated by the O(n² m) second loop).
pub fn flops(n: usize, m: usize) -> f64 {
    (n * m) as f64 + (n * n) as f64 * (3.0 * m as f64 + 1.0)
}

/// The offloadable target region over an `m x n` data matrix.
pub fn region(n: usize, m: usize, device: DeviceSelector) -> TargetRegion {
    TargetRegion::builder("covar")
        .device(device)
        .map_to("data")
        .map_tofrom("mean")
        .map_from("cov")
        .parallel_for(n, move |l| {
            l.partition("mean", PartitionSpec::rows(1))
                .flops_per_iter((2 * m) as f64)
                .body(move |i, ins, outs| {
                    let d = ins.view::<f32>("data").slice(0..m * n);
                    let mut acc = 0.0f32;
                    for d_k in d.chunks_exact(n) {
                        acc += d_k[i];
                    }
                    outs.view_mut::<f32>("mean")[i] = acc / m as f32;
                })
        })
        .parallel_for(n, move |l| {
            l.partition("cov", PartitionSpec::rows(n))
                .flops_per_iter((n * (3 * m + 1)) as f64)
                .body(move |i, ins, outs| {
                    let d = ins.view::<f32>("data").slice(0..m * n);
                    let mean = ins.view::<f32>("mean").slice(0..n);
                    let mut cov = outs.view_mut::<f32>("cov");
                    let cov_row = cov.slice_mut(i * n..(i + 1) * n);
                    // Observation `k` outermost, so the inner loop walks one
                    // row of `data`, `mean` and `cov` contiguously. Every
                    // `cov[i][j]` still sums its `m` products `k` ascending
                    // from `+0.0` and is divided once at the end: the bits
                    // of `sequential()`'s `j`-outer nest.
                    cov_row.fill(0.0);
                    for d_k in d.chunks_exact(n) {
                        let d_ki = d_k[i] - mean[i];
                        for ((c, &d_kj), &mean_j) in cov_row.iter_mut().zip(d_k).zip(mean) {
                            *c += d_ki * (d_kj - mean_j);
                        }
                    }
                    let denom = (m.max(2) - 1) as f32;
                    for c in cov_row {
                        *c /= denom;
                    }
                })
        })
        .build()
        .expect("covar region is valid")
}

/// Input environment: `m x n` observations.
pub fn env(n: usize, m: usize, kind: DataKind, seed: u64) -> DataEnv {
    let mut e = DataEnv::new();
    e.insert("data", matrix(m, n, kind, seed));
    e.insert("mean", vec![0.0f32; n]);
    e.insert("cov", vec![0.0f32; n * n]);
    e
}

/// Handwritten sequential reference. The covariance rows stream:
/// observation `k` outer and a contiguous `j` inner, so every
/// `cov[i][j]` still sums its `m` products `k` ascending from `+0.0` —
/// the bits of the textbook `j`-outer nest.
pub fn sequential(n: usize, m: usize, data: &[f32], cov: &mut [f32]) {
    let mut mean = vec![0.0f32; n];
    for (i, mu) in mean.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for k in 0..m {
            acc += data[k * n + i];
        }
        *mu = acc / m as f32;
    }
    let denom = (m.max(2) - 1) as f32;
    for (i, cov_row) in cov[..n * n].chunks_exact_mut(n).enumerate() {
        cov_row.fill(0.0);
        for d_k in data[..m * n].chunks_exact(n) {
            let d_ki = d_k[i] - mean[i];
            for ((c, &d_kj), &mean_j) in cov_row.iter_mut().zip(d_k).zip(&mean) {
                *c += d_ki * (d_kj - mean_j);
            }
        }
        cov_row.iter_mut().for_each(|c| *c /= denom);
    }
}

/// Output variables to validate.
pub const OUTPUTS: &[&str] = &["cov"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{tests::assert_bits_match_reference, BenchId};

    /// The textbook nest `sequential()` must equal bit for bit.
    fn naive(n: usize, m: usize, data: &[f32], cov: &mut [f32]) {
        let mut mean = vec![0.0f32; n];
        for (i, mu) in mean.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for k in 0..m {
                acc += data[k * n + i];
            }
            *mu = acc / m as f32;
        }
        let denom = (m.max(2) - 1) as f32;
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..m {
                    acc += (data[k * n + i] - mean[i]) * (data[k * n + j] - mean[j]);
                }
                cov[i * n + j] = acc / denom;
            }
        }
    }

    #[test]
    fn host_offload_matches_reference() {
        assert_bits_match_reference(BenchId::Covar);
    }

    #[test]
    fn sequential_equals_the_textbook_nest_bitwise() {
        for kind in [DataKind::Dense, DataKind::Sparse] {
            for n in [1, 7, 33, 130] {
                let data = matrix(2 * n, n, kind, 5);
                let (mut got, mut want) = (vec![f32::NAN; n * n], vec![f32::NAN; n * n]);
                sequential(n, 2 * n, &data, &mut got);
                naive(n, 2 * n, &data, &mut want);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{} n={n}", kind.label());
            }
        }
    }

    #[test]
    fn covariance_of_constant_columns_is_zero() {
        let (n, m) = (4, 10);
        let mut e = DataEnv::new();
        e.insert("data", vec![3.5f32; n * m]);
        e.insert("mean", vec![0.0f32; n]);
        e.insert("cov", vec![1.0f32; n * n]);
        DeviceRegistry::with_host_only()
            .offload(&region(n, m, DeviceSelector::Default), &mut e)
            .unwrap();
        assert!(e.get::<f32>("cov").unwrap().iter().all(|&x| x.abs() < 1e-6));
        assert!(e
            .get::<f32>("mean")
            .unwrap()
            .iter()
            .all(|&x| (x - 3.5).abs() < 1e-6));
    }
}
