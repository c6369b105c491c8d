//! PolyBench COVAR: covariance matrix of an `m x n` observation matrix
//! (`m` observations of `n` variables).
//!
//! Two `parallel for` loops in one target region: the first computes the
//! per-variable means (partitioned output), the second the covariance
//! rows (`cov[i][j] = Σ_k (D[k][i]-mean[i])(D[k][j]-mean[j]) / (m-1)`).
//! The data matrix is read column-wise by every iteration of the second
//! loop, so it is broadcast whole.
//!
//! A covariance tile centres 64 observations at a time into a
//! scratch panel (at most 128 KiB) and runs the crate's blocked
//! matrix-product nest (`matmul::add_panel`) over it, carrying its sums
//! through `cov` between panels. Blocking never changes an element's own
//! arithmetic: every `cov[i][j]` starts from `+0.0`, takes its products
//! `(D[k][i]-mean[i])(D[k][j]-mean[j])` `k` ascending, one multiply and
//! one add each, and is divided once at the end — the bits of the
//! textbook nest `sequential()` is checked against.

use crate::data::{matrix, DataKind};
use crate::matmul::{add_panel, K_PANEL};
use omp_model::prelude::*;
use omp_model::TargetRegion;

/// Bound on a covariance tile's scratch panel.
const PANEL_BYTES: usize = 128 << 10;

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
                .tile_body(move |cols, ins, outs| {
                    // Observation `k` outermost, so the inner loop walks
                    // the tile's columns of one row of `data` contiguously.
                    let d = ins.view::<f32>("data").slice(0..m * n);
                    let mut mean = outs.view_mut::<f32>("mean");
                    let mean = mean.slice_mut(cols.clone());
                    mean.fill(0.0);
                    for d_k in d.chunks_exact(n) {
                        for (acc, &d_ki) in mean.iter_mut().zip(&d_k[cols.clone()]) {
                            *acc += d_ki;
                        }
                    }
                    for mu in mean {
                        *mu /= m as f32;
                    }
                })
        })
        .parallel_for(n, move |l| {
            l.partition("cov", PartitionSpec::rows(n))
                .flops_per_iter((n * (3 * m + 1)) as f64)
                .tile_body(move |rows, ins, outs| {
                    let d = ins.view::<f32>("data").slice(0..m * n);
                    let mean = ins.view::<f32>("mean").slice(0..n);
                    let mut cov = outs.view_mut::<f32>("cov");
                    let cov = cov.slice_mut(rows.start * n..rows.end * n);
                    cov.fill(0.0);
                    let i0 = rows.start;
                    let kp = (PANEL_BYTES / (4 * n.max(1))).clamp(1, K_PANEL);
                    let panel_len = kp * n.max(1);
                    // The tile's scratch: one panel of mean-centred
                    // observations, both the rows' and the columns' factors
                    // of every product.
                    let mut panel = vec![0.0f32; panel_len];
                    for d_p in d.chunks(panel_len) {
                        let panel = &mut panel[..d_p.len()];
                        for (p_k, d_k) in panel.chunks_exact_mut(n).zip(d_p.chunks_exact(n)) {
                            for ((p, &d_kj), &mean_j) in p_k.iter_mut().zip(d_k).zip(mean) {
                                *p = d_kj - mean_j;
                            }
                        }
                        let panel = &*panel;
                        add_panel(|k, r| panel[k * n + i0 + r], panel, n, cov);
                    }
                    let denom = (m.max(2) - 1) as f32;
                    for c in cov {
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
