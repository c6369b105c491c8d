//! What the worker-side shim costs per iteration — the JNI-overhead
//! analogue Algorithm 1's tiling exists to amortise.
//!
//! A loop body resolves its variables by name (`ins.view::<T>(name)`,
//! `outs.view_mut::<T>(name)`), and bodies written the natural way do so
//! on every iteration. This prints ns/iteration (and ns/view) of one
//! tile run through the shared per-tile loop (`omp_model::chunk::
//! run_chunk`) for bodies that look up 1, 3 and 32 variables, beside two
//! floors of the 1-variable body: its views hoisted out of the loop, and
//! the raw loop over plain slices.
//!
//! A body whose inner loop runs over *elements* pays the view per element
//! instead: `a[g]` translates a global index and checks it against the
//! tile's partition on every access. The second table prints ns per
//! multiply-add of the paper kernels' two inner loops (a `row x matrix`
//! update and a COVAR row, n = 384) written three ways — the `j`-outer
//! nest over indexed views the kernels used to be, the same nest turned
//! `k`-outer but still indexed (the order alone is not the fix: the check
//! per element keeps the inner loop scalar), and the kernels' bodies as
//! they are now, `k`-outer over `VarView::slice` — beside the same loop
//! over plain slices.
//!
//! It asserts only that every variant of a computation produces the same
//! bits.
//!
//! Run with: `cargo run --release --example shim_overhead`

use ompcloud_suite::kernels::{covar, matmul, matrix, DataKind};
use ompcloud_suite::omp_model::chunk::run_chunk;
use ompcloud_suite::omp_model::{DeviceSelector, ErasedVec, Inputs, LoopBody, Outputs};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Iterations per tile; 32 `f32` inputs of this length (2 MiB) stay in L2.
const TILE: usize = 1 << 14;
/// Timed repetitions per variant; the fastest is reported.
const REPS: usize = 25;
const FANIN: usize = 32;

fn input(k: usize) -> Vec<f32> {
    (0..TILE).map(|i| ((i * 7 + k * 13) % 251) as f32).collect()
}

/// The input table one tile's shim call sees: one `TILE`-long column per
/// name.
fn inputs(names: &[String]) -> Inputs {
    let mut ins = Inputs::new();
    for (k, name) in names.iter().enumerate() {
        ins.add(name.clone(), 0, Arc::new(ErasedVec::from_vec(input(k))));
    }
    ins
}

/// Fastest of `REPS` runs of `tile` over `ins` and a fresh `len`-element
/// output `out`, in ns per unit of `work`, and the output bits of the last
/// run. The output starts as garbage, so a body leaning on a zeroed
/// buffer shows.
fn time(
    ins: &Inputs,
    (out, len): (&str, usize),
    work: usize,
    tile: impl Fn(&Inputs, &mut Outputs),
) -> (f64, Vec<u32>) {
    let mut best = f64::INFINITY;
    let mut bits = Vec::new();
    for _ in 0..REPS {
        let mut outs = Outputs::new();
        outs.add(out, 0, ErasedVec::from_vec(vec![7.0f32; len]));
        let t = Instant::now();
        tile(black_box(ins), black_box(&mut outs));
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / work as f64);
        let parts = outs.into_parts();
        let y = parts[0].data.as_slice::<f32>().expect("an f32 output");
        bits = y.iter().map(|v| v.to_bits()).collect();
    }
    (best, bits)
}

/// `time` per iteration of a `TILE`-iteration tile writing `y`.
fn time_tile(names: &[String], tile: impl Fn(&Inputs, &mut Outputs)) -> (f64, Vec<u32>) {
    time(&inputs(names), ("y", TILE), TILE, tile)
}

fn through_shim(names: &[String], body: LoopBody) -> (f64, Vec<u32>) {
    time_tile(names, |ins, outs| run_chunk(&body, 0..TILE, ins, outs))
}

/// Matrix dimension of the element-loop table: the benchmark's GEMM and
/// COVAR size.
const N: usize = 384;
/// COVAR observations (the kernels' `m = 2n`).
const M: usize = 2 * N;
/// Output rows per timed tile.
const ROWS: usize = 8;

/// Four ways to compute rows `0..ROWS` of the `N`-wide output `out` from
/// `ins`, `inner` multiply-adds per output element: ns per multiply-add
/// of each, after checking that all four produce the same bits.
fn element_loop_row(
    ins: &Inputs,
    out: &str,
    inner: usize,
    bodies: [LoopBody; 3],
    raw: impl Fn(&Inputs, &mut [f32]),
) -> [f64; 4] {
    let time =
        |tile: &dyn Fn(&Inputs, &mut Outputs)| time(ins, (out, ROWS * N), ROWS * N * inner, tile);
    let [(jk, want), (kj, kj_bits), (sliced, sliced_bits)] =
        bodies.map(|body| time(&|ins, outs| run_chunk(&body, 0..ROWS, ins, outs)));
    let (floor, raw_bits) = time(&|ins, outs| raw(ins, outs.view_mut::<f32>(out).local_mut()));
    assert!(want == kj_bits, "{out}: turning the loops changed the bits");
    assert!(
        want == sliced_bits,
        "{out}: the sliced body changed the bits"
    );
    assert!(
        want == raw_bits,
        "{out}: the raw loop computes something else"
    );
    [jk, kj, sliced, floor]
}

/// The `row x matrix` update `C[i][..] = A[i][..] x B` (Mat-mul; GEMM, 2MM
/// and 3MM share its loop nest).
fn matmul_row() -> [f64; 4] {
    // A run-time size, as a kernel's captured `n` is.
    let n = black_box(N);
    let mut ins = Inputs::new();
    for (name, seed) in [("A", 1), ("B", 2)] {
        let data = matrix(n, n, DataKind::Dense, seed);
        ins.add(name, 0, Arc::new(ErasedVec::from_vec(data)));
    }
    let jk: LoopBody = Arc::new(move |i, ins, outs| {
        let a = ins.view::<f32>("A");
        let b = ins.view::<f32>("B");
        let mut c = outs.view_mut::<f32>("C");
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    });
    let kj: LoopBody = Arc::new(move |i, ins, outs| {
        let a = ins.view::<f32>("A");
        let b = ins.view::<f32>("B");
        let mut c = outs.view_mut::<f32>("C");
        for j in 0..n {
            c[i * n + j] = 0.0;
        }
        for k in 0..n {
            for j in 0..n {
                c[i * n + j] += a[i * n + k] * b[k * n + j];
            }
        }
    });
    let sliced = matmul::region(n, DeviceSelector::Default).loops[0]
        .body
        .clone();
    element_loop_row(&ins, "C", n, [jk, kj, sliced], |ins, c| {
        let a = ins.view::<f32>("A").local();
        let b = ins.view::<f32>("B").local();
        for (a_row, c_row) in a.chunks_exact(n).zip(c.chunks_exact_mut(n)) {
            c_row.fill(0.0);
            for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                for (c, &b_kj) in c_row.iter_mut().zip(b_row) {
                    *c += a_ik * b_kj;
                }
            }
        }
    })
}

/// COVAR's second loop: row `i` of the covariance of `M` observations.
fn covar_row() -> [f64; 4] {
    let (n, m) = (black_box(N), black_box(M));
    let data = matrix(m, n, DataKind::Dense, 3);
    let mean: Vec<f32> = (0..n)
        .map(|i| data.iter().skip(i).step_by(n).sum::<f32>() / m as f32)
        .collect();
    let mut ins = Inputs::new();
    ins.add("data", 0, Arc::new(ErasedVec::from_vec(data)));
    ins.add("mean", 0, Arc::new(ErasedVec::from_vec(mean)));
    let denom = (m - 1) as f32;
    let jk: LoopBody = Arc::new(move |i, ins, outs| {
        let d = ins.view::<f32>("data");
        let mean = ins.view::<f32>("mean");
        let mut cov = outs.view_mut::<f32>("cov");
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..m {
                acc += (d[k * n + i] - mean[i]) * (d[k * n + j] - mean[j]);
            }
            cov[i * n + j] = acc / denom;
        }
    });
    let kj: LoopBody = Arc::new(move |i, ins, outs| {
        let d = ins.view::<f32>("data");
        let mean = ins.view::<f32>("mean");
        let mut cov = outs.view_mut::<f32>("cov");
        for j in 0..n {
            cov[i * n + j] = 0.0;
        }
        for k in 0..m {
            for j in 0..n {
                cov[i * n + j] += (d[k * n + i] - mean[i]) * (d[k * n + j] - mean[j]);
            }
        }
        for j in 0..n {
            cov[i * n + j] /= denom;
        }
    });
    let sliced = covar::region(n, m, DeviceSelector::Default).loops[1]
        .body
        .clone();
    element_loop_row(&ins, "cov", m, [jk, kj, sliced], move |ins, cov| {
        let d = ins.view::<f32>("data").local();
        let mean = ins.view::<f32>("mean").local();
        for (i, cov_row) in cov.chunks_exact_mut(n).enumerate() {
            cov_row.fill(0.0);
            for d_k in d.chunks_exact(n) {
                let d_ki = d_k[i] - mean[i];
                for ((c, &d_kj), &mean_j) in cov_row.iter_mut().zip(d_k).zip(mean) {
                    *c += d_ki * (d_kj - mean_j);
                }
            }
            for c in cov_row {
                *c /= denom;
            }
        }
    })
}

fn main() {
    let names = |n: usize| -> Vec<String> { (0..n).map(|k| format!("x{k:02}")).collect() };
    let mut rows: Vec<(&str, usize, f64)> = Vec::new();

    // 1 variable, 2 views: the benchmark's `chain-k4` stage.
    let one = vec!["y".to_string()];
    let (ns, chain) = through_shim(
        &one,
        Arc::new(|i, ins, outs| {
            let y = ins.view::<f32>("y");
            outs.view_mut::<f32>("y")[i] = y[i] * 0.5 + 3.0;
        }),
    );
    rows.push(("1 variable (chain stage)", 2, ns));
    let (ns, hoisted) = time_tile(&one, |ins, outs| {
        let y = ins.view::<f32>("y");
        let mut out = outs.view_mut::<f32>("y");
        for i in 0..TILE {
            out[i] = y[i] * 0.5 + 3.0;
        }
    });
    rows.push(("  its views hoisted", 0, ns));
    let (ns, raw) = time_tile(&one, |ins, outs| {
        let y = ins.view::<f32>("y").local();
        let mut out = outs.view_mut::<f32>("y");
        for (o, v) in out.local_mut().iter_mut().zip(y) {
            *o = v * 0.5 + 3.0;
        }
    });
    rows.push(("  raw loop over slices", 0, ns));
    assert_eq!(chain, hoisted, "hoisting the views changed the output");
    assert_eq!(chain, raw, "the raw loop computes something else");

    // 3 variables, 3 views: two inputs and the output.
    let two = names(2);
    let (ns, three) = through_shim(
        &two,
        Arc::new(|i, ins, outs| {
            let sum = ins.view::<f32>("x00")[i] + ins.view::<f32>("x01")[i];
            outs.view_mut::<f32>("y")[i] = sum;
        }),
    );
    rows.push(("3 variables", 3, ns));
    let want: Vec<u32> = (input(0).iter().zip(&input(1)))
        .map(|(a, b)| (a + b).to_bits())
        .collect();
    assert_eq!(three, want, "3-variable body");

    // 32 inputs, 33 views: the benchmark's `fanin-latency` body. Its names
    // are run-time strings, so each lookup hashes; the literal names above
    // hash at compile time. The same body over one input tells the cost
    // of that apart from the cost of a larger table.
    let columns: Vec<Vec<f32>> = (0..FANIN).map(input).collect();
    for (what, inputs) in [("32 inputs (fan-in)", FANIN), ("  same body, 1 input", 1)] {
        let many = names(inputs);
        let body_names = many.clone();
        let (ns, fanin) = through_shim(
            &many,
            Arc::new(move |i, ins, outs| {
                let mut acc = 0.0f32;
                for name in &body_names {
                    acc += ins.view::<f32>(name)[i];
                }
                outs.view_mut::<f32>("y")[i] = acc;
            }),
        );
        rows.push((what, inputs + 1, ns));
        let want: Vec<u32> = (0..TILE)
            .map(|i| columns[..inputs].iter().fold(0.0f32, |acc, c| acc + c[i]))
            .map(f32::to_bits)
            .collect();
        assert_eq!(fanin, want, "fan-in body over {inputs}");
    }

    println!("shim overhead, {TILE} iterations per tile, fastest of {REPS}:");
    println!("{:<28} {:>12} {:>10}", "body", "ns/iteration", "ns/view");
    for (what, views, ns) in &rows {
        let per_view = match views {
            0 => "-".to_string(),
            v => format!("{:.1}", ns / *v as f64),
        };
        println!("{what:<28} {ns:>12.1} {per_view:>10}");
    }
    let per_view = |row: usize| rows[row].2 / rows[row].1 as f64;
    println!(
        "per-view cost at 32 inputs: {:.2}x the 1-variable body's, {:.2}x the same body's at 1 input",
        per_view(4) / per_view(0),
        per_view(4) / per_view(5)
    );

    println!("\nelement loops, n = {N}, {ROWS} output rows per tile, ns per multiply-add:");
    println!(
        "{:<24} {:>11} {:>11} {:>11} {:>11}",
        "inner loop", "j-k indexed", "k-j indexed", "k-j slices", "raw slices"
    );
    for (what, ns) in [
        ("row x matrix (Mat-mul)", matmul_row()),
        ("COVAR row, m = 2n", covar_row()),
    ] {
        println!(
            "{what:<24} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
            ns[0], ns[1], ns[2], ns[3]
        );
    }
}
