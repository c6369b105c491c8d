//! The byte planes of a shuffled buffer, each coded on its own.
//!
//! One matcher pass over all planes spends most of its time on the one or
//! two that compress — a sign/exponent plane of 1 bit a byte has no long
//! repeats, only a skewed histogram — so each plane picks its own coder
//! from its exact byte counts ([`choose`]).
//!
//! Payload of a planes frame of stride `K` and original length `len`:
//! ```text
//! K × ( mode u8 | coded_len varint | coded bytes ) | len % K tail bytes
//! ```
//! Every plane decodes to `len / K` bytes; mode 0 is the plane itself,
//! 1 a [`huffman`] plane, 2 an [`lz77`] token stream.

use crate::{huffman, lz77, shuffle, varint, Error, ProbeStats};

/// Plane modes, in the order [`choose`] tries them: cheapest decoder
/// first — except that the matcher comes last. Between 0.1 and 3 bits a
/// byte it is the slow encoder this container exists to avoid; below that
/// its runs of hundreds of bytes beat the one bit a symbol a prefix code
/// cannot go under.
const STORED: u8 = 0;
const HUFFMAN: u8 = 1;
const LZ77: u8 = 2;

/// Share of a plane a dearer coder must save to take it from a cheaper
/// one: the probe's 2 % of the buffer, as a share of one `f32` plane. A
/// 7.4-bit mantissa plane stays stored rather than decode a third slower
/// for 2 % of the buffer.
const MARGIN: f64 = 0.08;

/// Bytes from the middle of a plane that the encoder parses for repeats:
/// half a probe window, which shows any period up to 1 KiB and costs a
/// twentieth of the encode.
const SAMPLE: usize = 2048;

/// Bytes a Huffman plane takes: its table, and per symbol the entropy
/// plus what whole-bit codes waste — never under one bit.
fn huffman_model(h: f64, n: usize) -> f64 {
    huffman::TABLE_BYTES as f64 + (h + 0.04).max(1.0) / 8.0 * n as f64
}

/// The coder for a plane of `n` bytes counted in `hist`, of which a greedy
/// parse expects the matcher to keep the share `parsed`, and the bytes
/// that coder is expected to keep. The probe sums this over sampled byte
/// counts, with no parse; the encoder obeys it on exact ones.
pub(crate) fn choose(hist: &[u32; 256], n: usize, parsed: f64) -> (u8, f64) {
    let h = ProbeStats::entropy(hist, n);
    let mut best = (STORED, n as f64);
    for candidate in [
        (HUFFMAN, huffman_model(h, n)),
        (LZ77, ProbeStats::lz_model(h, n).min(parsed * n as f64)),
    ] {
        if candidate.1 < best.1 - MARGIN * n as f64 {
            best = candidate;
        }
    }
    best
}

/// Shuffle `input` by `stride` and code each plane by [`choose`].
pub(crate) fn encode(input: &[u8], stride: usize) -> Vec<u8> {
    let shuffled = shuffle::shuffle(input, stride);
    let n = input.len() / stride;
    let mut out = Vec::with_capacity(input.len() / 2 + 64);
    for plane in (0..stride).map(|k| &shuffled[k * n..(k + 1) * n]) {
        let hists = huffman::histogram(plane);
        // Byte counts cannot see a ramp or a period: parse a sample too.
        let sample = &plane[n.saturating_sub(SAMPLE) / 2..][..n.min(SAMPLE)];
        let parsed = crate::greedy_parse(sample, 0, &mut [u32::MAX; 4096]) as f64;
        let mode = choose(&huffman::total(&hists), n, parsed / SAMPLE.min(n) as f64).0;
        let coded = match mode {
            // A one-symbol plane, which has no prefix code, never lands
            // here: its matcher estimate undercuts any table by more than
            // the margin.
            HUFFMAN => Some(huffman::encode(plane, &hists)),
            LZ77 => Some(lz77::encode(plane)),
            _ => None,
        };
        let coded = coded.as_deref().unwrap_or(plane);
        out.push(mode);
        varint::write(&mut out, coded.len() as u64);
        out.extend_from_slice(coded);
    }
    out.extend_from_slice(&shuffled[stride * n..]);
    out
}

/// Decode a payload written by [`encode`]. `original_len` comes from an
/// untrusted header: each plane reserves only what its own coded bytes
/// justify.
pub(crate) fn decode(payload: &[u8], original_len: usize, stride: usize) -> Result<Vec<u8>, Error> {
    let n = original_len / stride;
    let mut shuffled = crate::output_buffer(original_len, payload.len());
    let mut pos = 0;
    for k in 1..=stride {
        let mode = *payload.get(pos).ok_or(Error::Truncated)?;
        pos += 1;
        let coded_len = varint::read_len(payload, &mut pos)?;
        // A length past `usize` is past the payload too.
        let end = pos.saturating_add(coded_len);
        let coded = payload.get(pos..end).ok_or(Error::Truncated)?;
        pos = end;
        match mode {
            STORED => shuffled.extend_from_slice(coded),
            HUFFMAN => huffman::decode(coded, n, &mut shuffled)?,
            LZ77 => shuffled.extend_from_slice(&lz77::decode(coded, n)?),
            _ => return Err(Error::Malformed("unknown plane mode")),
        }
        if shuffled.len() != k * n {
            return Err(Error::Malformed("plane of the wrong length"));
        }
    }
    // A tail of the wrong length is the frame's length mismatch.
    shuffled.extend_from_slice(&payload[pos..]);
    Ok(shuffle::unshuffle(&shuffled, stride))
}
