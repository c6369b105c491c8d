//! Seeded payloads of the classes the offload path carries, shared by the
//! codec-choice table in `lib.rs` and the encoder differential in
//! `lz77.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn f32_bytes(values: impl Iterator<Item = f32>) -> Vec<u8> {
    values.flat_map(f32::to_le_bytes).collect()
}

/// Uniform random `f32` in `[0, 1)`: only the exponent plane compresses.
pub fn dense_f32(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    f32_bytes((0..len / 4).map(|_| rng.gen_range(0.0f32..1.0)))
}

/// `f32` with 5 % non-zero entries, the paper's sparse matrices.
pub fn sparse_f32(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    f32_bytes((0..len / 4).map(|_| {
        if rng.gen_bool(0.05) {
            rng.gen_range(0.0f32..1.0)
        } else {
            0.0
        }
    }))
}

/// Integers below 251 stored as `f32`, after `stages` rounds of
/// `y * 0.5 + k`: half the bytes are zero, in runs of two.
pub fn integer_f32(len: usize, seed: u64, stages: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    f32_bytes((0..len / 4).map(|_| {
        let y = f32::from(rng.gen_range(0u8..251));
        (0..stages).fold(y, |y, k| y * 0.5 + k as f32)
    }))
}

/// Uniform random `f64` in `[0, 1)`.
pub fn dense_f64(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len / 8)
        .flat_map(|_| rng.gen_range(0.0f64..1.0).to_le_bytes())
        .collect()
}

/// Words drawn from a small vocabulary.
pub fn text(len: usize, seed: u64) -> Vec<u8> {
    const WORDS: [&str; 18] = [
        "the",
        "cloud",
        "as",
        "an",
        "openmp",
        "offloading",
        "device",
        "spark",
        "cluster",
        "kernel",
        "matrix",
        "target",
        "map",
        "to",
        "from",
        "region",
        "storage",
        "compress",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        out.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())].as_bytes());
        out.push(b' ');
    }
    out.truncate(len);
    out
}

/// Uniform random bytes.
pub fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

/// Small closed-form inputs behind `tests/golden/parent_frames.txt`: the
/// frames there were sealed from exactly these bytes.
pub fn golden_inputs() -> Vec<(&'static str, Vec<u8>)> {
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    vec![
        ("zeros", vec![0u8; 600]),
        (
            "text",
            b"the cloud as an openmp offloading device "
                .iter()
                .copied()
                .cycle()
                .take(500)
                .collect(),
        ),
        (
            "sparse",
            f32_bytes((0..150).map(|i| if i % 17 == 0 { i as f32 * 0.25 } else { 0.0 })),
        ),
        (
            "dense",
            f32_bytes((0..150u32).map(|i| ((i * i * 7919 + 13) % 10007) as f32 / 10007.0)),
        ),
        (
            "integers",
            f32_bytes((0..150).map(|i| ((i * 7 + 3) % 251) as f32)),
        ),
        (
            "f64",
            (0..80u64)
                .flat_map(|i| {
                    (((i * i * 104_729 + 7) % 1_000_003) as f64 / 1_000_003.0).to_le_bytes()
                })
                .collect(),
        ),
        (
            "noise",
            (0..300)
                .map(|_| {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (lcg >> 33) as u8
                })
                .collect(),
        ),
    ]
}
