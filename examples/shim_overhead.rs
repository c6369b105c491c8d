//! What the worker-side shim costs per iteration — the JNI-overhead
//! analogue Algorithm 1's tiling exists to amortise.
//!
//! A loop body resolves its variables by name (`ins.view::<T>(name)`,
//! `outs.view_mut::<T>(name)`), and bodies written the natural way do so
//! on every iteration. This prints ns/iteration (and ns/view) of one
//! tile run through the shared per-tile loop (`omp_model::chunk::
//! run_chunk`) for bodies that look up 1, 3 and 32 variables, beside two
//! floors of the 1-variable body: its views hoisted out of the loop, and
//! the raw loop over plain slices. The fan-in body also runs over one
//! input (by a run-time and by a literal name) and over 32 nine-byte
//! names that share their first seven bytes.
//!
//! A body whose inner loop runs over *elements* pays the view per element
//! instead: `a[g]` translates a global index and checks it against the
//! tile's partition on every access. The second table prints ns per
//! multiply-add of the paper kernels' two inner loops (a `row x matrix`
//! update and a COVAR row, n = 384) as per-row bodies written three ways —
//! the `j`-outer nest over indexed views, the same nest turned `k`-outer
//! but still indexed (the order alone is not the fix: the check per
//! element keeps the inner loop scalar), and `k`-outer over
//! `VarView::slice` (the row body) — beside the same loop over plain
//! slices.
//!
//! The body is called once per tile with the tile's range, so a kernel
//! can reuse what it loads across rows. The third table prints ns per
//! multiply-add of the row body (one call per row, through
//! `LoopBuilder::body`) beside the kernels' own tile bodies, which block
//! rows x columns: COVAR's covariance loop over a 96-row tile (the
//! benchmark's tile) and over a 1-row tile (shorter than one register
//! block, so its centred panel serves one row), and a 96-row GEMM block.
//!
//! It asserts only that every variant of a computation produces the same
//! bits.
//!
//! Run with: `cargo run --release --example shim_overhead`

use ompcloud_suite::kernels::{covar, gemm, matrix, DataKind};
use ompcloud_suite::omp_model::chunk::run_chunk;
use ompcloud_suite::omp_model::{
    DeviceSelector, ErasedVec, Inputs, LoopBody, Outputs, TargetRegion,
};
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

/// The loop body `LoopBuilder::body` makes of the per-iteration `f`.
fn per_row(f: impl Fn(usize, &Inputs, &mut Outputs) + Send + Sync + 'static) -> LoopBody {
    let region = TargetRegion::builder("shim").parallel_for(1, |l| l.body(f));
    region.build().expect("a valid region").loops.remove(0).body
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

/// `N x N` matrices `A`, `B` and `C`.
fn matmul_inputs() -> Inputs {
    let mut ins = Inputs::new();
    for (name, seed) in [("A", 1), ("B", 2), ("C", 3)] {
        let data = matrix(N, N, DataKind::Dense, seed);
        ins.add(name, 0, Arc::new(ErasedVec::from_vec(data)));
    }
    ins
}

/// The row body of `C[i][..] = A[i][..] x B`: `k`-outer over
/// `VarView::slice`, each `C[i][j]` from `+0.0`, `k` ascending.
fn product_row(n: usize, i: usize, ins: &Inputs, outs: &mut Outputs) {
    let row = i * n..(i + 1) * n;
    let a_row = ins.view::<f32>("A").slice(row.clone());
    let b = ins.view::<f32>("B").slice(0..n * n);
    let mut c = outs.view_mut::<f32>("C");
    let c_row = c.slice_mut(row);
    c_row.fill(0.0);
    for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
        for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row) {
            *c_ij += a_ik * b_kj;
        }
    }
}

/// The `row x matrix` update `C[i][..] = A[i][..] x B` (Mat-mul; GEMM, 2MM
/// and 3MM share its loop nest).
fn matmul_row() -> [f64; 4] {
    // A run-time size, as a kernel's captured `n` is.
    let n = black_box(N);
    let ins = matmul_inputs();
    let jk = per_row(move |i, ins, outs| {
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
    let kj = per_row(move |i, ins, outs| {
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
    let sliced = per_row(move |i, ins, outs| product_row(n, i, ins, outs));
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

/// `M x N` observations `data` and their column means `mean`.
fn covar_inputs() -> Inputs {
    let data = matrix(M, N, DataKind::Dense, 3);
    let mean: Vec<f32> = (0..N)
        .map(|i| data.iter().skip(i).step_by(N).sum::<f32>() / M as f32)
        .collect();
    let mut ins = Inputs::new();
    ins.add("data", 0, Arc::new(ErasedVec::from_vec(data)));
    ins.add("mean", 0, Arc::new(ErasedVec::from_vec(mean)));
    ins
}

/// The row body of COVAR's covariance loop: observation `k` outer over
/// `VarView::slice`, each `cov[i][j]` from `+0.0`, `k` ascending, divided
/// once at the end.
fn covar_row_body(n: usize, m: usize, i: usize, ins: &Inputs, outs: &mut Outputs) {
    let d = ins.view::<f32>("data").slice(0..m * n);
    let mean = ins.view::<f32>("mean").slice(0..n);
    let mut cov = outs.view_mut::<f32>("cov");
    let cov_row = cov.slice_mut(i * n..(i + 1) * n);
    cov_row.fill(0.0);
    for d_k in d.chunks_exact(n) {
        let d_ki = d_k[i] - mean[i];
        for ((c, &d_kj), &mean_j) in cov_row.iter_mut().zip(d_k).zip(mean) {
            *c += d_ki * (d_kj - mean_j);
        }
    }
    let denom = (m - 1) as f32;
    for c in cov_row {
        *c /= denom;
    }
}

/// COVAR's second loop: row `i` of the covariance of `M` observations.
fn covar_row() -> [f64; 4] {
    let (n, m) = (black_box(N), black_box(M));
    let ins = covar_inputs();
    let denom = (m - 1) as f32;
    let jk = per_row(move |i, ins, outs| {
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
    let kj = per_row(move |i, ins, outs| {
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
    let sliced = per_row(move |i, ins, outs| covar_row_body(n, m, i, ins, outs));
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

/// Rows of the tile table's large tiles: the benchmark's 384 rows over 4
/// tiles.
const TILE_ROWS: usize = 96;

/// ns per multiply-add of the row body and the tile body over rows
/// `0..rows` of the `N`-wide output `out`, `inner` multiply-adds per
/// element, after checking that both produce the same bits.
fn row_vs_tile(
    ins: &Inputs,
    out: &str,
    inner: usize,
    rows: usize,
    bodies: [LoopBody; 2],
) -> [f64; 2] {
    let [(row, want), (tile, got)] = bodies.map(|body| {
        let work = rows * N * inner;
        time(ins, (out, rows * N), work, |ins, outs| {
            run_chunk(&body, 0..rows, ins, outs)
        })
    });
    assert!(
        want == got,
        "{out}, {rows} rows: the tile body changed the bits"
    );
    [row, tile]
}

/// The tile table: COVAR's covariance loop over a large and a 1-row tile,
/// and a GEMM row block.
fn tiles() -> Vec<(String, [f64; 2])> {
    let (n, m) = (black_box(N), black_box(M));
    let covar_ins = covar_inputs();
    let covar = |rows: usize| {
        let row = per_row(move |i, ins, outs| covar_row_body(n, m, i, ins, outs));
        let tile = covar::region(n, m, DeviceSelector::Default)
            .loops
            .remove(1)
            .body;
        row_vs_tile(&covar_ins, "cov", m, rows, [row, tile])
    };
    let gemm_row = per_row(move |i, ins, outs| {
        product_row(n, i, ins, outs);
        let row = i * n..(i + 1) * n;
        let mut c = outs.view_mut::<f32>("C");
        let c_in = ins.view::<f32>("C").slice(row.clone());
        for (c, &c_in) in c.slice_mut(row).iter_mut().zip(c_in) {
            *c = gemm::ALPHA * *c + gemm::BETA * c_in;
        }
    });
    let gemm_tile = gemm::region(n, DeviceSelector::Default)
        .loops
        .remove(0)
        .body;
    vec![
        (format!("COVAR, {TILE_ROWS}-row tile"), covar(TILE_ROWS)),
        ("COVAR, 1-row tile".into(), covar(1)),
        (
            format!("GEMM, {TILE_ROWS}-row block"),
            row_vs_tile(&matmul_inputs(), "C", n, TILE_ROWS, [gemm_row, gemm_tile]),
        ),
    ]
}

fn main() {
    let names = |n: usize| -> Vec<String> { (0..n).map(|k| format!("x{k:02}")).collect() };
    let mut rows: Vec<(&str, usize, f64)> = Vec::new();

    // 1 variable, 2 views: the benchmark's `chain-k4` stage.
    let one = vec!["y".to_string()];
    let (ns, chain) = through_shim(
        &one,
        per_row(|i, ins, outs| {
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
        per_row(|i, ins, outs| {
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
    // are run-time strings, so each lookup builds the name's word; a
    // literal name's word is a constant. The same body over one input
    // tells the cost of that apart from the cost of a larger table, and
    // over one literal input the cost of the word itself. Names past
    // seven bytes that share their first seven share a word, so they also
    // compare their bytes.
    let columns: Vec<Vec<f32>> = (0..FANIN).map(input).collect();
    let want = |inputs: usize| -> Vec<u32> {
        (0..TILE)
            .map(|i| columns[..inputs].iter().fold(0.0f32, |acc, c| acc + c[i]))
            .map(f32::to_bits)
            .collect()
    };
    let fan_in = |many: Vec<String>| -> f64 {
        let body_names = many.clone();
        let (ns, fanin) = through_shim(
            &many,
            per_row(move |i, ins, outs| {
                let mut acc = 0.0f32;
                for name in &body_names {
                    acc += ins.view::<f32>(name)[i];
                }
                outs.view_mut::<f32>("y")[i] = acc;
            }),
        );
        assert_eq!(fanin, want(many.len()), "fan-in body over {many:?}");
        ns
    };
    rows.push(("32 inputs (fan-in)", FANIN + 1, fan_in(names(FANIN))));
    rows.push(("  same body, 1 input", 2, fan_in(names(1))));
    let (ns, literal) = through_shim(
        &names(1),
        per_row(|i, ins, outs| {
            let acc = 0.0f32 + ins.view::<f32>("x00")[i];
            outs.view_mut::<f32>("y")[i] = acc;
        }),
    );
    assert_eq!(literal, want(1), "fan-in body over one literal name");
    rows.push(("  same, 1 literal name", 2, ns));
    let long: Vec<String> = (0..FANIN).map(|k| format!("column_{k:02}")).collect();
    rows.push(("  32 inputs, 9-byte names", FANIN + 1, fan_in(long)));

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
        "per-view cost at 32 inputs: {:.2}x the 1-variable body's, {:.2}x the same body's at 1 input; \
         9-byte names {:.2}x 3-byte ones",
        per_view(4) / per_view(0),
        per_view(4) / per_view(5),
        per_view(7) / per_view(4)
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

    println!("\ntiles, n = {N}, ns per multiply-add (row body: one call per row):");
    println!(
        "{:<24} {:>11} {:>11} {:>11}",
        "tile", "row body", "tile body", "row / tile"
    );
    for (what, [row, tile]) in tiles() {
        println!("{what:<24} {row:>11.3} {tile:>11.3} {:>11.2}", row / tile);
    }
}
