//! PolyBench 3MM: `G := (A*B) * (C*D)`, three matmul stages
//! (`E = A*B`, `F = C*D`, `G = E*F`) inside one target region — the
//! benchmark with the paper's headline speedups (143x/97x/86x on 256
//! cores).

use crate::data::{matrix, DataKind};
use crate::matmul::product_rows;
use omp_model::prelude::*;
use omp_model::TargetRegion;

/// Floating-point operations for an `n x n` 3MM.
pub fn flops(n: usize) -> f64 {
    3.0 * (n * n) as f64 * 2.0 * n as f64
}

/// The offloadable target region.
pub fn region(n: usize, device: DeviceSelector) -> TargetRegion {
    TargetRegion::builder("3mm")
        .device(device)
        .map_to("A")
        .map_to("B")
        .map_to("Cm")
        .map_to("Dm")
        .map_tofrom("E")
        .map_tofrom("F")
        .map_from("G")
        .parallel_for(n, move |l| {
            l.partition("A", PartitionSpec::rows(n))
                .partition("E", PartitionSpec::rows(n))
                .flops_per_iter(2.0 * (n * n) as f64)
                .tile_body(move |rows, ins, outs| product_rows(n, rows, ins, outs, ["A", "B", "E"]))
        })
        .parallel_for(n, move |l| {
            l.partition("Cm", PartitionSpec::rows(n))
                .partition("F", PartitionSpec::rows(n))
                .flops_per_iter(2.0 * (n * n) as f64)
                .tile_body(move |rows, ins, outs| {
                    product_rows(n, rows, ins, outs, ["Cm", "Dm", "F"])
                })
        })
        .parallel_for(n, move |l| {
            l.partition("E", PartitionSpec::rows(n))
                .partition("G", PartitionSpec::rows(n))
                .flops_per_iter(2.0 * (n * n) as f64)
                .tile_body(move |rows, ins, outs| product_rows(n, rows, ins, outs, ["E", "F", "G"]))
        })
        .build()
        .expect("3mm region is valid")
}

/// Input environment for an `n x n` instance.
pub fn env(n: usize, kind: DataKind, seed: u64) -> DataEnv {
    let mut e = DataEnv::new();
    e.insert("A", matrix(n, n, kind, seed));
    e.insert("B", matrix(n, n, kind, seed.wrapping_add(1)));
    e.insert("Cm", matrix(n, n, kind, seed.wrapping_add(2)));
    e.insert("Dm", matrix(n, n, kind, seed.wrapping_add(3)));
    e.insert("E", vec![0.0f32; n * n]);
    e.insert("F", vec![0.0f32; n * n]);
    e.insert("G", vec![0.0f32; n * n]);
    e
}

/// Handwritten sequential reference.
pub fn sequential(n: usize, a: &[f32], b: &[f32], c: &[f32], d: &[f32], g: &mut [f32]) {
    let mut e = vec![0.0f32; n * n];
    let mut f = vec![0.0f32; n * n];
    let mm = |x: &[f32], y: &[f32], z: &mut [f32]| {
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += x[i * n + k] * y[k * n + j];
                }
                z[i * n + j] = acc;
            }
        }
    };
    mm(a, b, &mut e);
    mm(c, d, &mut f);
    mm(&e, &f, g);
}

/// Output variables to validate.
pub const OUTPUTS: &[&str] = &["G"];

#[cfg(test)]
mod tests {
    use crate::case::{tests::assert_bits_match_reference, BenchId};

    #[test]
    fn host_offload_matches_reference() {
        assert_bits_match_reference(BenchId::ThreeMm);
    }
}
