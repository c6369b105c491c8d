//! MgBench Collinear-list: for each point `i`, count the pairs `(j, k)`
//! collinear with it (|cross product| below a tolerance).
//!
//! The dataset is tiny (two floats per point) while the computation is
//! O(n³) — the paper's demonstration that "cloud offloading scales well
//! when the dataset size stays small according to the computation".

use crate::data::points;
use omp_model::prelude::*;
use omp_model::TargetRegion;

/// Collinearity tolerance on the cross product.
pub const EPS: f32 = 1e-2;

/// Approximate floating-point operations for `n` points.
pub fn flops(n: usize) -> f64 {
    // n iterations x (n²/2 pairs) x ~8 flops per collinearity test.
    n as f64 * (n as f64 * n as f64 / 2.0) * 8.0
}

/// The offloadable target region over `n` points.
pub fn region(n: usize, device: DeviceSelector) -> TargetRegion {
    TargetRegion::builder("collinear-list")
        .device(device)
        .map_to("points")
        .map_from("count")
        .parallel_for(n, move |l| {
            l.partition("count", PartitionSpec::rows(1))
                .flops_per_iter(flops(n) / n as f64)
                .body(move |i, ins, outs| {
                    let p = ins.view::<f32>("points").slice(0..2 * n);
                    let mut count = outs.view_mut::<u32>("count");
                    let (xi, yi) = (p[2 * i], p[2 * i + 1]);
                    let mut c = 0u32;
                    for j in 0..n {
                        if j == i {
                            continue;
                        }
                        let (xj, yj) = (p[2 * j], p[2 * j + 1]);
                        for k in (j + 1)..n {
                            if k == i {
                                continue;
                            }
                            let (xk, yk) = (p[2 * k], p[2 * k + 1]);
                            let cross = (xj - xi) * (yk - yi) - (xk - xi) * (yj - yi);
                            if cross.abs() < EPS {
                                c += 1;
                            }
                        }
                    }
                    count[i] = c;
                })
        })
        .build()
        .expect("collinear region is valid")
}

/// Input environment for `n` points.
pub fn env(n: usize, seed: u64) -> DataEnv {
    let mut e = DataEnv::new();
    e.insert("points", points(n, seed));
    e.insert("count", vec![0u32; n]);
    e
}

/// Handwritten sequential reference.
pub fn sequential(n: usize, p: &[f32], count: &mut [u32]) {
    for i in 0..n {
        let (xi, yi) = (p[2 * i], p[2 * i + 1]);
        let mut c = 0u32;
        for j in 0..n {
            if j == i {
                continue;
            }
            let (xj, yj) = (p[2 * j], p[2 * j + 1]);
            for k in (j + 1)..n {
                if k == i {
                    continue;
                }
                let (xk, yk) = (p[2 * k], p[2 * k + 1]);
                let cross = (xj - xi) * (yk - yi) - (xk - xi) * (yj - yi);
                if cross.abs() < EPS {
                    c += 1;
                }
            }
        }
        count[i] = c;
    }
}

/// Output variables to validate.
pub const OUTPUTS: &[&str] = &["count"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{tests::assert_bits_match_reference, BenchId};

    #[test]
    fn host_offload_matches_reference() {
        assert_bits_match_reference(BenchId::Collinear);
        // The planted line guarantees some collinear triples exist.
        let n = 48;
        let mut count = vec![0u32; n];
        sequential(n, &points(n, 77), &mut count);
        assert!(count.iter().any(|&c| c > 0), "expected collinear triples");
    }

    #[test]
    fn three_points_on_a_line() {
        let mut e = DataEnv::new();
        e.insert("points", vec![0.0f32, 0.0, 1.0, 1.0, 2.0, 2.0]);
        e.insert("count", vec![0u32; 3]);
        DeviceRegistry::with_host_only()
            .offload(&region(3, DeviceSelector::Default), &mut e)
            .unwrap();
        assert_eq!(e.get::<u32>("count").unwrap(), &[1, 1, 1]);
    }
}
