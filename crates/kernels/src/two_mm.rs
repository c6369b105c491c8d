//! PolyBench 2MM: `D := alpha*A*B*C + beta*D`, computed as
//! `tmp = alpha*A*B` followed by `D = tmp*C + beta*D`.
//!
//! Two `parallel for` loops inside one target region — on the cloud
//! device they become two successive map-reduce stages with `tmp`
//! staying in cluster memory (§III-D).

use crate::data::{matrix, DataKind};
use crate::matmul::product_rows;
use omp_model::prelude::*;
use omp_model::TargetRegion;

/// PolyBench `alpha` scalar.
pub const ALPHA: f32 = 1.5;
/// PolyBench `beta` scalar.
pub const BETA: f32 = 1.2;

/// Floating-point operations for an `n x n` 2MM.
pub fn flops(n: usize) -> f64 {
    // Stage 1: n^2 * (2n + 1); stage 2: n^2 * (2n + 2).
    (n * n) as f64 * (4.0 * n as f64 + 3.0)
}

/// The offloadable target region.
pub fn region(n: usize, device: DeviceSelector) -> TargetRegion {
    TargetRegion::builder("2mm")
        .device(device)
        .map_to("A")
        .map_to("B")
        .map_to("Cm")
        .map_tofrom("tmp")
        .map_tofrom("D")
        .parallel_for(n, move |l| {
            l.partition("A", PartitionSpec::rows(n))
                .partition("tmp", PartitionSpec::rows(n))
                .flops_per_iter((n * (2 * n + 1)) as f64)
                .tile_body(move |rows, ins, outs| {
                    let span = rows.start * n..rows.end * n;
                    product_rows(n, rows, ins, outs, ["A", "B", "tmp"]);
                    for t in outs.view_mut::<f32>("tmp").slice_mut(span) {
                        *t *= ALPHA;
                    }
                })
        })
        .parallel_for(n, move |l| {
            l.partition("tmp", PartitionSpec::rows(n))
                .partition("D", PartitionSpec::rows(n))
                .flops_per_iter((n * (2 * n + 2)) as f64)
                .tile_body(move |rows, ins, outs| {
                    let span = rows.start * n..rows.end * n;
                    product_rows(n, rows, ins, outs, ["tmp", "Cm", "D"]);
                    let mut d = outs.view_mut::<f32>("D");
                    let d_in = ins.view::<f32>("D").slice(span.clone());
                    for (d, &d_in) in d.slice_mut(span).iter_mut().zip(d_in) {
                        *d += BETA * d_in;
                    }
                })
        })
        .build()
        .expect("2mm region is valid")
}

/// Input environment for an `n x n` instance.
pub fn env(n: usize, kind: DataKind, seed: u64) -> DataEnv {
    let mut e = DataEnv::new();
    e.insert("A", matrix(n, n, kind, seed));
    e.insert("B", matrix(n, n, kind, seed.wrapping_add(1)));
    e.insert("Cm", matrix(n, n, kind, seed.wrapping_add(2)));
    e.insert("D", matrix(n, n, kind, seed.wrapping_add(3)));
    e.insert("tmp", vec![0.0f32; n * n]);
    e
}

/// Handwritten sequential reference; `d` is updated in place.
pub fn sequential(n: usize, a: &[f32], b: &[f32], c: &[f32], d: &mut [f32]) {
    let mut tmp = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            tmp[i * n + j] = ALPHA * acc;
        }
    }
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += tmp[i * n + k] * c[k * n + j];
            }
            d[i * n + j] = acc + BETA * d[i * n + j];
        }
    }
}

/// Output variables to validate.
pub const OUTPUTS: &[&str] = &["D"];

#[cfg(test)]
mod tests {
    use crate::case::{tests::assert_bits_match_reference, BenchId};

    #[test]
    fn host_offload_matches_reference() {
        assert_bits_match_reference(BenchId::TwoMm);
    }
}
