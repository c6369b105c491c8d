//! The payload matrix of the codec bench (`benches/codec.rs`) and the
//! codec gates (`tests/codec_gates.rs`): three entropy classes and the
//! three classes an offload actually carries, at three sizes.

use ompcloud_kernels::data::{matrix, DataKind};

/// Payload sizes, with the labels the reports use.
pub const SIZES: [(usize, &str); 3] = [(4 << 10, "4KiB"), (256 << 10, "256KiB"), (4 << 20, "4MiB")];

/// Payload classes: `zeros`, `text` and `random` span the entropy range;
/// `dense-f32`, `sparse-f32` (the paper's two matrix classes) and
/// `integer-f32` (small integers stored as floats, half zero bytes in
/// runs of two) are what mapped buffers hold.
pub const KINDS: [&str; 6] = [
    "zeros",
    "text",
    "random",
    "dense-f32",
    "sparse-f32",
    "integer-f32",
];

/// `n` bytes of class `kind`; the same bytes on every call.
pub fn payload(kind: &str, n: usize) -> Vec<u8> {
    let floats = |kind| {
        matrix(1, n / 4, kind, 7)
            .into_iter()
            .flat_map(f32::to_le_bytes)
            .collect()
    };
    match kind {
        "zeros" => vec![0u8; n],
        "text" => {
            // Log-like lines: repetitive structure with drifting fields,
            // the shape LZ77 was built for.
            let mut out = Vec::with_capacity(n + 64);
            let mut i = 0usize;
            while out.len() < n {
                out.extend_from_slice(
                    format!(
                        "ts={:010} level=info worker={:03} msg=tile committed\n",
                        i * 37,
                        i % 96
                    )
                    .as_bytes(),
                );
                i += 1;
            }
            out.truncate(n);
            out
        }
        "random" => lcg_bytes(n).collect(),
        "dense-f32" => floats(DataKind::Dense),
        "sparse-f32" => floats(DataKind::Sparse),
        "integer-f32" => lcg_bytes(n / 4)
            .flat_map(|b| f32::from(b % 251).to_le_bytes())
            .collect(),
        other => unreachable!("unknown payload kind {other}"),
    }
}

/// LCG noise: incompressible, exercises the Store bail-out.
fn lcg_bytes(n: usize) -> impl Iterator<Item = u8> {
    let mut x = 0x2545F4914F6CDD1Du64;
    (0..n).map(move |_| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u8
    })
}
