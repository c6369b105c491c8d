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
//!
//! Neither direction holds a shuffled copy of the buffer. The encoder
//! gathers one plane at a time into a plane-sized scratch and codes it
//! straight into the frame; the decoder reads stored planes where they
//! lie in the payload, decodes the others into a scratch each, checks
//! every plane's length, and only then sizes the output and interleaves
//! all `K` planes into it in one pass.

use crate::{huffman, lz77, shuffle, varint, Error, ProbeStats};
use std::borrow::Cow;

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

/// Append the payload of a planes frame of `input` to `out`: each of its
/// `K` byte planes coded by [`choose`], then the tail.
pub(crate) fn encode<const K: usize>(input: &[u8], out: &mut Vec<u8>) {
    let n = input.len() / K;
    let (body, tail) = input.split_at(K * n);
    let mut plane = Vec::with_capacity(n);
    for k in 0..K {
        plane.clear();
        shuffle::gather::<K>(body, k, &mut plane);
        let hists = huffman::histogram(&plane);
        // Byte counts cannot see a ramp or a period: parse a sample too.
        let sample = &plane[n.saturating_sub(SAMPLE) / 2..][..n.min(SAMPLE)];
        let parsed = crate::greedy_parse(sample, 0, &mut [u32::MAX; 4096]) as f64;
        let mode = choose(&huffman::total(&hists), n, parsed / SAMPLE.min(n) as f64).0;
        out.push(mode);
        match mode {
            // A one-symbol plane, which has no prefix code, never lands
            // here: its matcher estimate undercuts any table by more than
            // the margin.
            HUFFMAN => {
                let code = huffman::Code::new(&hists);
                varint::write(out, code.coded_len() as u64);
                code.encode(&plane, out);
            }
            LZ77 => {
                // The token stream's length is known only once it is
                // written: write it, then slide its length in front.
                let start = out.len();
                lz77::encode(&plane, out);
                let coded_len = out.len() - start;
                varint::write(out, coded_len as u64);
                out[start..].rotate_right(varint::len(coded_len as u64));
            }
            _ => {
                varint::write(out, n as u64);
                out.extend_from_slice(&plane);
            }
        }
    }
    out.extend_from_slice(tail);
}

/// Decode a payload written by [`encode`]. `original_len` comes from an
/// untrusted header: each plane reserves only what its own coded bytes
/// justify, and the output is sized only once every plane has decoded to
/// the length the header implies.
pub(crate) fn decode<const K: usize>(
    payload: &[u8],
    original_len: usize,
) -> Result<Vec<u8>, Error> {
    let n = original_len / K;
    let mut planes: [Cow<[u8]>; K] = std::array::from_fn(|_| Cow::Borrowed(&[][..]));
    let mut pos = 0;
    for plane in &mut planes {
        let mode = *payload.get(pos).ok_or(Error::Truncated)?;
        pos += 1;
        let coded_len = varint::read_len(payload, &mut pos)?;
        // A length past `usize` is past the payload too.
        let end = pos.saturating_add(coded_len);
        let coded = payload.get(pos..end).ok_or(Error::Truncated)?;
        pos = end;
        *plane = match mode {
            STORED => Cow::Borrowed(coded),
            HUFFMAN => {
                let mut decoded = Vec::new();
                huffman::decode(coded, n, &mut decoded)?;
                Cow::Owned(decoded)
            }
            LZ77 => Cow::Owned(lz77::decode(coded, n)?),
            _ => return Err(Error::Malformed("unknown plane mode")),
        };
        if plane.len() != n {
            return Err(Error::Malformed("plane of the wrong length"));
        }
    }
    let tail = &payload[pos..];
    if tail.len() != original_len % K {
        return Err(Error::LengthMismatch {
            declared: original_len,
            actual: (K * n).saturating_add(tail.len()),
        });
    }
    let mut out = vec![0u8; original_len];
    let (body, out_tail) = out.split_at_mut(K * n);
    shuffle::interleave::<K>(planes.each_ref().map(|plane| &plane[..]), body);
    out_tail.copy_from_slice(tail);
    Ok(out)
}
