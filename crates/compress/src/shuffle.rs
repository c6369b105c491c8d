//! Byte-shuffle filter for fixed-width numeric data.
//!
//! Little-endian floats interleave high-entropy mantissa bytes with
//! low-entropy exponent bytes, which defeats LZ matching. Transposing
//! the buffer into byte *planes* (all first bytes, then all second
//! bytes, …) groups the repetitive exponent bytes into long runs that
//! LZ77 eats happily — the classic HDF5 "shuffle" filter. This is what
//! lets *dense* float matrices compress at all, the behaviour the
//! paper's evaluation relies on for its dense/sparse comparison.

/// Transpose `data` into `stride` byte planes. The tail
/// (`len % stride` bytes) is appended unmodified.
pub fn shuffle(data: &[u8], stride: usize) -> Vec<u8> {
    let mut out = vec![0u8; data.len()];
    match stride {
        4 => shuffle_fixed::<4>(data, &mut out),
        8 => shuffle_fixed::<8>(data, &mut out),
        _ => {
            let stride = stride.max(1);
            let n = data.len() / stride;
            for (i, element) in data.chunks_exact(stride).enumerate() {
                for (plane, &byte) in element.iter().enumerate() {
                    out[plane * n + i] = byte;
                }
            }
            out[n * stride..].copy_from_slice(&data[n * stride..]);
        }
    }
    out
}

/// Inverse of [`shuffle`].
pub fn unshuffle(data: &[u8], stride: usize) -> Vec<u8> {
    let mut out = vec![0u8; data.len()];
    match stride {
        4 => unshuffle_fixed::<4>(data, &mut out),
        8 => unshuffle_fixed::<8>(data, &mut out),
        _ => {
            let stride = stride.max(1);
            let n = data.len() / stride;
            for (i, element) in out.chunks_exact_mut(stride).enumerate() {
                for (plane, byte) in element.iter_mut().enumerate() {
                    *byte = data[plane * n + i];
                }
            }
            out[n * stride..].copy_from_slice(&data[n * stride..]);
        }
    }
    out
}

/// The `K` planes of a buffer of `n` elements, as slices of equal length.
fn planes<const K: usize>(body: &[u8], n: usize) -> [&[u8]; K] {
    std::array::from_fn(|plane| &body[plane * n..(plane + 1) * n])
}

fn shuffle_fixed<const K: usize>(data: &[u8], out: &mut [u8]) {
    let n = data.len() / K;
    let (body, tail) = data.split_at(n * K);
    let (mut rest, out_tail) = out.split_at_mut(n * K);
    out_tail.copy_from_slice(tail);
    for plane in 0..K {
        let (this, after) = rest.split_at_mut(n);
        for (dst, element) in this.iter_mut().zip(body.chunks_exact(K)) {
            *dst = element[plane];
        }
        rest = after;
    }
}

fn unshuffle_fixed<const K: usize>(data: &[u8], out: &mut [u8]) {
    let n = data.len() / K;
    let (body, tail) = data.split_at(n * K);
    let (out_body, out_tail) = out.split_at_mut(n * K);
    out_tail.copy_from_slice(tail);
    let planes = planes::<K>(body, n);
    for (i, element) in out_body.chunks_exact_mut(K).enumerate() {
        for (byte, plane) in element.iter_mut().zip(planes) {
            *byte = plane[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_strides_and_tails() {
        for len in [0usize, 1, 3, 4, 5, 16, 17, 1000] {
            for stride in [1usize, 2, 4, 8] {
                let data: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
                assert_eq!(
                    unshuffle(&shuffle(&data, stride), stride),
                    data,
                    "len={len} stride={stride}"
                );
            }
        }
    }

    #[test]
    fn planes_are_grouped() {
        // Two f32-like elements: [a0 a1 a2 a3, b0 b1 b2 b3].
        let data = [10, 11, 12, 13, 20, 21, 22, 23];
        assert_eq!(shuffle(&data, 4), vec![10, 20, 11, 21, 12, 22, 13, 23]);
    }

    #[test]
    fn exponent_plane_becomes_a_run() {
        // Floats in [1.0, 2.0): identical exponent byte 0x3F in plane 3.
        let data: Vec<u8> = (0..256)
            .flat_map(|i| (1.0f32 + i as f32 / 256.0).to_le_bytes())
            .collect();
        let shuffled = shuffle(&data, 4);
        let plane3 = &shuffled[3 * 256..4 * 256];
        assert!(plane3.iter().all(|&b| b == 0x3F), "exponent plane uniform");
    }
}
