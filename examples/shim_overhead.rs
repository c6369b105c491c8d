//! What the worker-side shim costs per iteration — the JNI-overhead
//! analogue Algorithm 1's tiling exists to amortise.
//!
//! A loop body resolves its variables by name (`ins.view::<T>(name)`,
//! `outs.view_mut::<T>(name)`), and bodies written the natural way do so
//! on every iteration. This prints ns/iteration (and ns/view) of one
//! tile run through the shared per-tile loop (`omp_model::chunk::
//! run_chunk`) for bodies that look up 1, 3 and 32 variables, beside two
//! floors of the 1-variable body: its views hoisted out of the loop, and
//! the raw loop over plain slices. It asserts only that every variant of
//! a computation produces the same bits.
//!
//! Run with: `cargo run --release --example shim_overhead`

use ompcloud_suite::omp_model::chunk::run_chunk;
use ompcloud_suite::omp_model::{ErasedVec, Inputs, LoopBody, Outputs};
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

/// The tables one tile's shim call sees: `names` as inputs, `y` as output.
fn tables(names: &[String]) -> (Inputs, Outputs) {
    let mut ins = Inputs::new();
    for (k, name) in names.iter().enumerate() {
        ins.add(name.clone(), 0, Arc::new(ErasedVec::from_vec(input(k))));
    }
    let mut outs = Outputs::new();
    outs.add("y", 0, ErasedVec::from_vec(vec![0.0f32; TILE]));
    (ins, outs)
}

fn output_bits(outs: Outputs) -> Vec<u32> {
    let parts = outs.into_parts();
    let y = parts.iter().find(|p| p.name == "y").expect("y is mapped");
    let y = y.data.as_slice::<f32>().expect("y is f32");
    y.iter().map(|v| v.to_bits()).collect()
}

/// Fastest of `REPS` runs of `tile` over fresh tables, in ns/iteration,
/// and the output of the last run.
fn time(names: &[String], tile: impl Fn(&Inputs, &mut Outputs)) -> (f64, Vec<u32>) {
    let mut best = f64::INFINITY;
    let mut bits = Vec::new();
    for _ in 0..REPS {
        let (ins, mut outs) = tables(names);
        let t = Instant::now();
        tile(black_box(&ins), black_box(&mut outs));
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / TILE as f64);
        bits = output_bits(outs);
    }
    (best, bits)
}

fn through_shim(names: &[String], body: LoopBody) -> (f64, Vec<u32>) {
    time(names, |ins, outs| run_chunk(&body, 0..TILE, ins, outs))
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
    let (ns, hoisted) = time(&one, |ins, outs| {
        let y = ins.view::<f32>("y");
        let mut out = outs.view_mut::<f32>("y");
        for i in 0..TILE {
            out[i] = y[i] * 0.5 + 3.0;
        }
    });
    rows.push(("  its views hoisted", 0, ns));
    let (ns, raw) = time(&one, |ins, outs| {
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
}
