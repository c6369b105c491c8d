//! MgBench Mat-mul: plain `C = A * B` (Listing 1 of the paper), and the
//! blocked nest every matrix-product loop of this crate runs.
//!
//! A tile body computes all its rows at once, in register blocks of
//! `R` rows by `J` columns with `k` innermost over panels of `B`'s rows.
//! Blocking changes which element is worked on when, never an element's
//! own arithmetic: each `c[i][j]` starts from `+0.0` and takes its
//! products `k` ascending, one multiply and one add each — the
//! operations of `acc += a[i][k] * b[k][j]` in the same order, carried
//! through `c` between panels — so it has the bits of the `j`-outer
//! `sequential()` references. Keep it so: no `mul_add`, no skipped zero
//! operand, no partial sums. GEMM's `alpha`/`beta` scaling runs once,
//! after the last panel.

use crate::data::{matrix, DataKind};
use omp_model::prelude::*;
use omp_model::TargetRegion;
use std::ops::Range;

/// Floating-point operations for an `n x n` matmul.
pub fn flops(n: usize) -> f64 {
    (n * n) as f64 * 2.0 * n as f64
}

/// Rows and columns of one register block of [`add_panel`]: 32
/// accumulators. A tile's last `rows % R` rows run the same nest with one
/// row, `R * J` columns wide so that as many sums are in flight; the
/// columns past the last full block run it one column wide.
const R: usize = 4;
const J: usize = 8;
/// Products (`k` values) per panel: 64 rows of an `n = 384` matrix stay
/// in L2 while every register block of a tile passes over them.
pub(crate) const K_PANEL: usize = 64;

/// `c[r][j] += x(k, r) * y[k][j]` for every row `r` of `c` (rows of `n`),
/// every column `j` and every `k` of the panel `y` (at most [`K_PANEL`]
/// rows of `n`), `k` ascending: one multiply and one add per product,
/// carried between panels through `c`.
///
/// The rows run in `R x J` register blocks with `k` innermost: a block
/// copies its rows' factors `x(k, r)` out once, loads each `y` element
/// once for `R` rows, and the compiler vectorises the plain `J`-wide
/// accumulator rows across `j`.
pub(crate) fn add_panel(x: impl Fn(usize, usize) -> f32, y: &[f32], n: usize, c: &mut [f32]) {
    let mut blocks = c.chunks_exact_mut(R * n);
    let mut r0 = 0;
    for c in blocks.by_ref() {
        add_rows::<R, J>(|k, r| x(k, r0 + r), y, n, c);
        r0 += R;
    }
    for c in blocks.into_remainder().chunks_exact_mut(n) {
        add_rows::<1, { R * J }>(|k, _| x(k, r0), y, n, c);
        r0 += 1;
    }
}

/// [`add_panel`] over `RB` rows of `c`, in blocks `W` columns wide.
fn add_rows<const RB: usize, const W: usize>(
    x: impl Fn(usize, usize) -> f32,
    y: &[f32],
    n: usize,
    c: &mut [f32],
) {
    let mut xs = [[0.0f32; RB]; K_PANEL];
    let xs = &mut xs[..y.len() / n];
    for (k, x_k) in xs.iter_mut().enumerate() {
        for (r, x_kr) in x_k.iter_mut().enumerate() {
            *x_kr = x(k, r);
        }
    }
    let wide = n / W * W;
    for j in (0..wide).step_by(W) {
        add_block::<RB, W>(xs, y, n, j, c);
    }
    for j in wide..n {
        add_block::<RB, 1>(xs, y, n, j, c);
    }
}

/// [`add_panel`] over the `RB x W` block of `c` at column `j`, `xs[k]`
/// holding the block's row factors at `k`.
fn add_block<const RB: usize, const W: usize>(
    xs: &[[f32; RB]],
    y: &[f32],
    n: usize,
    j: usize,
    c: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; RB];
    for (r, acc) in acc.iter_mut().enumerate() {
        acc.copy_from_slice(&c[r * n + j..][..W]);
    }
    for (k, x_k) in xs.iter().enumerate() {
        let y_k: &[f32; W] = y[k * n + j..][..W].try_into().expect("a slice of W");
        for (acc, &x_kr) in acc.iter_mut().zip(x_k) {
            for (a, &y_kj) in acc.iter_mut().zip(y_k) {
                *a += x_kr * y_kj;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        c[r * n + j..][..W].copy_from_slice(acc);
    }
}

/// The tile body `c[rows][..] = a[rows][..] × b` over `n x n` matrices
/// mapped under the names `[a, b, c]`: the nest every `rows of A × matrix`
/// loop of this crate shares (GEMM, Mat-mul, both of 2MM, all three of
/// 3MM). `b` goes by in panels of [`K_PANEL`] rows, each through
/// [`add_panel`].
pub(crate) fn product_rows(
    n: usize,
    rows: Range<usize>,
    ins: &Inputs,
    outs: &mut Outputs,
    vars: [&str; 3],
) {
    let [a, b, c] = vars;
    let span = rows.start * n..rows.end * n;
    let a = ins.view::<f32>(a).slice(span.clone());
    let b = ins.view::<f32>(b).slice(0..n * n);
    let mut c = outs.view_mut::<f32>(c);
    let c = c.slice_mut(span);
    c.fill(0.0);
    for (p, b_p) in b.chunks((K_PANEL * n).max(1)).enumerate() {
        let k0 = p * K_PANEL;
        add_panel(|k, r| a[r * n + k0 + k], b_p, n, c);
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
                .tile_body(move |rows, ins, outs| product_rows(n, rows, ins, outs, ["A", "B", "C"]))
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
