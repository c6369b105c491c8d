//! What the per-plane entropy stage buys on the buffers the benchmark
//! offloads: for every byte plane of a buffer, the match stage alone (what
//! `Shuffle4Lz77` spent on it) beside the coder `Planes4` picks for it, and
//! for the whole buffer both frame formats, single-threaded, cut into the
//! 256 KiB stream chunks the wire path cuts a buffer of 1 MiB and more
//! into. Both formats are sealed by this build, so one run compares them
//! under the same machine phase. It asserts only that every frame decodes
//! to its input.
//!
//! Run with: `cargo run --release --example plane_codec`

use ompcloud_suite::gzlite::{compress, decompress, shuffle::shuffle, Codec};
use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::omp_model::{DeviceKind, DeviceSelector};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per cell; the fastest is reported.
const REPS: usize = 9;
const STREAM_THRESHOLD: usize = 1 << 20;
const STREAM_CHUNK: usize = 256 << 10;

fn bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// The chain workload's `y` after `stages` regions.
fn chain(stages: usize) -> Vec<u8> {
    let mut x = 2017u64;
    let y: Vec<f32> = (0..256 * 1024)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((x >> 33) % 251) as f32;
            (0..stages).fold(y, |y, k| y * 0.5 + k as f32)
        })
        .collect();
    bytes(&y)
}

/// A paper kernel's `input` as mapped and its `output` as computed.
fn kernel(id: BenchId, kind: DataKind, input: &str, output: &str) -> [Vec<u8>; 2] {
    let cloud = DeviceSelector::Kind(DeviceKind::Cloud);
    let mut case = kernels::build(id, 384, kind, 2017, cloud);
    let before = bytes(case.env.get::<f32>(input).expect("kernel input"));
    kernels::run_host(id, 384, &mut case.env);
    [
        before,
        bytes(case.env.get::<f32>(output).expect("kernel output")),
    ]
}

/// Fastest of `REPS` runs of `f`, in ms, and its last result.
fn time<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        last = Some(black_box(f()));
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, last.expect("REPS > 0"))
}

fn entropy(plane: &[u8]) -> f64 {
    let mut hist = [0usize; 256];
    plane.iter().for_each(|&b| hist[b as usize] += 1);
    let sum: f64 = hist
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| c as f64 / plane.len() as f64)
        .map(|p| p * p.log2())
        .sum();
    0.0 - sum
}

/// The frames the wire path cuts `data` into, sealed with `codec`.
fn seal(data: &[u8], codec: Codec) -> Vec<Vec<u8>> {
    let chunk = if data.len() >= STREAM_THRESHOLD {
        STREAM_CHUNK
    } else {
        data.len()
    };
    data.chunks(chunk).map(|c| compress(c, codec)).collect()
}

fn open(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for frame in frames {
        out.extend_from_slice(&decompress(frame).expect("a frame this build sealed"));
    }
    out
}

/// The plane mode a one-plane-four-times `Planes4` frame chose.
fn mode(frame: &[u8]) -> &'static str {
    let header = 5
        + frame[5..]
            .iter()
            .position(|&b| b < 0x80)
            .expect("length varint")
        + 1;
    match (frame[4], frame[header]) {
        (0, _) | (5, 0) => "stored",
        (5, 1) => "huffman",
        (5, 2) => "lz77",
        other => unreachable!("codec and plane mode {other:?}"),
    }
}

fn main() {
    let mut buffers: Vec<(String, Vec<u8>)> = (0..=4)
        .map(|s| (format!("chain y, stage {s}"), chain(s)))
        .collect();
    for (name, id, kind, input, output) in [
        ("gemm dense", BenchId::Gemm, DataKind::Dense, "A", "C"),
        ("gemm sparse", BenchId::Gemm, DataKind::Sparse, "A", "C"),
        ("covar", BenchId::Covar, DataKind::Dense, "data", "cov"),
    ] {
        let [before, after] = kernel(id, kind, input, output);
        buffers.push((format!("{name} in ({input})"), before));
        buffers.push((format!("{name} out ({output})"), after));
    }

    println!("per plane: the match stage alone | the coder Planes4 picks ({REPS} reps, fastest)");
    println!(
        "{:<22} {:>5} {:>5} | {:>7} {:>6} | {:<8} {:>7} {:>6}",
        "buffer", "plane", "bits", "lz ms", "ratio", "mode", "ms", "ratio"
    );
    for (name, data) in &buffers {
        let n = data.len() / 4;
        let shuffled = shuffle(data, 4);
        for (k, plane) in shuffled.chunks_exact(n).enumerate() {
            // `Planes4` over this plane four times, interleaved: a quarter
            // of it is this plane's share, its shuffle included.
            let four: Vec<u8> = plane.iter().flat_map(|&b| [b; 4]).collect();
            let (lz_ms, lz) = time(|| compress(plane, Codec::Lz77));
            let (ms, coded) = time(|| compress(&four, Codec::Planes4));
            assert_eq!(decompress(&lz).expect("lz77 frame"), plane);
            assert_eq!(decompress(&coded).expect("planes frame"), four);
            println!(
                "{:<22} {:>5} {:>5.2} | {:>7.2} {:>6.3} | {:<8} {:>7.2} {:>6.3}",
                if k == 0 { name } else { "" },
                k,
                entropy(plane),
                lz_ms,
                lz.len() as f64 / n as f64,
                mode(&coded),
                ms / 4.0,
                coded.len() as f64 / four.len() as f64,
            );
        }
    }

    println!("\nper buffer, one thread: Shuffle4Lz77 frames | Planes4 frames");
    println!(
        "{:<22} {:>8} | {:>7} {:>7} {:>6} | {:>7} {:>7} {:>6} | {:>5} {:>5}",
        "buffer",
        "bytes",
        "enc ms",
        "dec ms",
        "ratio",
        "enc ms",
        "dec ms",
        "ratio",
        "enc x",
        "dec x"
    );
    for (name, data) in &buffers {
        let cells = [Codec::Shuffle4Lz77, Codec::Planes4].map(|codec| {
            let (enc_ms, frames) = time(|| seal(data, codec));
            let (dec_ms, back) = time(|| open(&frames));
            assert_eq!(&back, data, "{name} through {codec}");
            let wire: usize = frames.iter().map(Vec::len).sum();
            (enc_ms, dec_ms, wire as f64 / data.len() as f64)
        });
        let [old, new] = cells;
        println!(
            "{:<22} {:>8} | {:>7.2} {:>7.2} {:>6.3} | {:>7.2} {:>7.2} {:>6.3} | {:>5.2} {:>5.2}",
            name,
            data.len(),
            old.0,
            old.1,
            old.2,
            new.0,
            new.1,
            new.2,
            old.0 / new.0,
            old.1 / new.1,
        );
    }
}
