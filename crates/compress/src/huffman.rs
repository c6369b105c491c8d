//! Order-0 canonical Huffman coding of one byte plane — the entropy coder
//! gzip puts behind its match stage, here put behind the byte shuffle
//! instead: a sign/exponent plane holds a handful of symbols in no
//! repeating order, which a matcher walks chains over and a prefix code
//! simply counts.
//!
//! Coded plane: [`TABLE_BYTES`] of code lengths (one nibble per symbol, the
//! even symbol in the low nibble, 0 = absent, at most [`MAX_BITS`]), then
//! the codes packed from bit 0 of each byte upwards. Codes are canonical
//! (shorter first, then by symbol) and complete, so the lengths alone
//! rebuild them and every bit pattern decodes.

use crate::{varint, Error};

/// Longest code. Twelve bits keep the decoder's table at 8 KiB and let
/// four symbols go between two refills of a 64-bit buffer.
const MAX_BITS: usize = 12;
const LUT_SIZE: usize = 1 << MAX_BITS;
/// Size of the code-length table that opens a coded plane.
pub(crate) const TABLE_BYTES: usize = 128;

/// Code length per symbol of a Huffman code for `hist`, which must count
/// at least two distinct symbols, limited to [`MAX_BITS`].
fn code_lengths(hist: &[u32; 256]) -> [u8; 256] {
    let mut leaves: Vec<(u32, u8)> = (0..=255u8)
        .map(|symbol| (hist[symbol as usize], symbol))
        .filter(|leaf| leaf.0 > 0)
        .collect();
    leaves.sort_unstable();
    let m = leaves.len();
    assert!(m >= 2, "a one-symbol plane has no prefix code");
    // Two-queue merge: with the leaves in ascending order, inner nodes are
    // born in ascending order too, so the two lightest nodes are always at
    // the front of one of the two queues.
    let mut weight: Vec<u64> = leaves.iter().map(|leaf| u64::from(leaf.0)).collect();
    let mut parent = vec![0usize; 2 * m - 1];
    let (mut leaf, mut inner) = (0, m);
    for node in m..2 * m - 1 {
        let mut sum = 0;
        for _ in 0..2 {
            let next = if leaf < m && (inner == node || weight[leaf] <= weight[inner]) {
                &mut leaf
            } else {
                &mut inner
            };
            sum += weight[*next];
            parent[*next] = node;
            *next += 1;
        }
        weight.push(sum);
    }
    // Depths from the root down, counted per length; leaves deeper than
    // the limit are folded onto it, which over-subscribes the code.
    let mut depth = vec![0usize; 2 * m - 1];
    let mut count = [0usize; MAX_BITS + 1];
    for node in (0..2 * m - 2).rev() {
        depth[node] = depth[parent[node]] + 1;
        if node < m {
            count[depth[node].min(MAX_BITS)] += 1;
        }
    }
    // Each round frees one unit of 2^-MAX_BITS: the longest code under the
    // limit grows a bit, and a code at the limit moves in beside it.
    let kraft: usize = (1..=MAX_BITS)
        .map(|len| count[len] << (MAX_BITS - len))
        .sum();
    for _ in LUT_SIZE..kraft {
        let len = (1..MAX_BITS).rev().find(|&len| count[len] > 0);
        let len = len.expect("an over-subscribed code has a code under the limit");
        count[MAX_BITS] -= 1;
        count[len] -= 1;
        count[len + 1] += 2;
    }
    // Rarest symbols take the longest codes.
    let mut lengths = [0u8; 256];
    let mut leaves = leaves.iter();
    for len in (1..=MAX_BITS).rev() {
        for leaf in leaves.by_ref().take(count[len]) {
            lengths[leaf.1 as usize] = len as u8;
        }
    }
    lengths
}

/// The canonical code of each symbol, bit-reversed so that its first bit
/// is bit 0. `Err` unless `lengths` describe a complete prefix code within
/// [`MAX_BITS`] — which also rules out an empty and a one-symbol table.
fn canonical_codes(lengths: &[u8; 256]) -> Result<[u16; 256], Error> {
    let mut count = [0usize; MAX_BITS + 1];
    for &len in lengths.iter().filter(|&&len| len > 0) {
        *count
            .get_mut(len as usize)
            .ok_or(Error::Malformed("huffman code longer than the limit"))? += 1;
    }
    let kraft: usize = (1..=MAX_BITS)
        .map(|len| count[len] << (MAX_BITS - len))
        .sum();
    if kraft != LUT_SIZE {
        return Err(Error::Malformed(
            "huffman code lengths are not a complete code",
        ));
    }
    // First code of each length: the codes of all shorter lengths, one bit on.
    let mut next = [0usize; MAX_BITS + 1];
    for len in 1..=MAX_BITS {
        next[len] = (next[len - 1] + count[len - 1]) << 1;
    }
    Ok(std::array::from_fn(|symbol| {
        match lengths[symbol] as usize {
            0 => 0,
            len => {
                next[len] += 1;
                ((next[len] - 1) as u16).reverse_bits() >> (16 - len)
            }
        }
    }))
}

/// A plane is cut into this many quarters, each coded as a bit stream of
/// its own, so that the decoder keeps as many independent table look-ups
/// in flight: one stream decodes at the latency of a look-up per symbol.
const STREAMS: usize = 4;

/// Length of every quarter but the last of a plane of `n` bytes.
fn quarter_len(n: usize) -> usize {
    n.div_ceil(STREAMS).max(1)
}

/// Byte counts of each quarter of `plane`, taken in step so that a run of
/// one symbol does not serialize on a single counter.
pub(crate) fn histogram(plane: &[u8]) -> [[u32; 256]; STREAMS] {
    let mut hists = [[0u32; 256]; STREAMS];
    let mut quarters = plane.chunks(quarter_len(plane.len()));
    let quarters: [&[u8]; STREAMS] = std::array::from_fn(|_| quarters.next().unwrap_or_default());
    for i in 0..quarters[0].len() {
        for (hist, quarter) in hists.iter_mut().zip(quarters) {
            if let Some(&byte) = quarter.get(i) {
                hist[byte as usize] += 1;
            }
        }
    }
    hists
}

/// Byte counts of the whole plane.
pub(crate) fn total(hists: &[[u32; 256]; STREAMS]) -> [u32; 256] {
    std::array::from_fn(|symbol| hists.iter().map(|hist| hist[symbol]).sum())
}

/// The prefix code of one plane, built from its quarters' byte counts,
/// and what each quarter's bit stream will take.
pub(crate) struct Code {
    lengths: [u8; 256],
    codes: [u16; 256],
    stream_lens: [usize; STREAMS],
}

impl Code {
    /// The code for a plane whose quarters' byte counts are `hists`; they
    /// must count at least two distinct symbols.
    pub(crate) fn new(hists: &[[u32; 256]; STREAMS]) -> Code {
        let lengths = code_lengths(&total(hists));
        let codes = canonical_codes(&lengths).expect("our own lengths are a complete code");
        let stream_lens = hists.map(|hist| {
            let bits: usize = (0..256)
                .map(|s| hist[s] as usize * lengths[s] as usize)
                .sum();
            bits.div_ceil(8)
        });
        Code {
            lengths,
            codes,
            stream_lens,
        }
    }

    /// Bytes [`Code::encode`] appends.
    pub(crate) fn coded_len(&self) -> usize {
        let lens = &self.stream_lens[..STREAMS - 1];
        TABLE_BYTES
            + lens
                .iter()
                .map(|&len| varint::len(len as u64))
                .sum::<usize>()
            + self.stream_lens.iter().sum::<usize>()
    }

    /// Append the coded `plane` — the plane whose counts built this code.
    pub(crate) fn encode(&self, plane: &[u8], out: &mut Vec<u8>) {
        let (lengths, codes) = (&self.lengths, &self.codes);
        out.reserve(self.coded_len() + 8);
        out.extend(lengths.chunks_exact(2).map(|pair| pair[0] | pair[1] << 4));
        for &stream_len in &self.stream_lens[..STREAMS - 1] {
            varint::write(out, stream_len as u64);
        }
        for (stream_len, quarter) in self
            .stream_lens
            .into_iter()
            .zip(plane.chunks(quarter_len(plane.len())))
        {
            // Every store writes the whole accumulator; only its full bytes count.
            let mut pos = out.len();
            out.resize(pos + stream_len + 8, 0);
            let (mut acc, mut held) = (0u64, 0usize);
            for quad in quarter.chunks(4) {
                for &byte in quad {
                    acc |= u64::from(codes[byte as usize]) << held;
                    held += lengths[byte as usize] as usize;
                }
                out[pos..pos + 8].copy_from_slice(&acc.to_le_bytes());
                pos += held / 8;
                acc >>= held & !7;
                held &= 7;
            }
            out.truncate(out.len() - 8);
        }
    }
}

/// One bit stream being read: `pos` bytes of it are in `acc` or behind it,
/// `held` bits of them still unread; past its end it reads as zeros.
#[derive(Default)]
struct Reader<'a> {
    stream: &'a [u8],
    acc: u64,
    held: usize,
    pos: usize,
}

impl Reader<'_> {
    /// Decode up to four symbols — as many as fit between two refills.
    #[inline(always)]
    fn quad(&mut self, lut: &[u16; LUT_SIZE], quad: &mut [u8]) {
        let word = match self.stream.get(self.pos..self.pos + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
            // Fewer than eight bytes are left: zeros behind them.
            None => self.stream[self.pos.min(self.stream.len())..]
                .iter()
                .rev()
                .fold(0, |word, &byte| word << 8 | u64::from(byte)),
        };
        self.acc |= word << self.held;
        self.pos += (63 - self.held) / 8;
        self.held |= 56;
        for byte in quad {
            let entry = lut[self.acc as usize % LUT_SIZE];
            *byte = entry as u8;
            self.acc >>= entry >> 8;
            self.held -= usize::from(entry >> 8);
        }
    }

    /// Decode `rest` of a quarter; the last code must end in the stream's
    /// last byte.
    fn finish(mut self, lut: &[u16; LUT_SIZE], rest: &mut [u8]) -> Result<(), Error> {
        for quad in rest.chunks_mut(4) {
            self.quad(lut, quad);
        }
        if (self.pos * 8 - self.held).div_ceil(8) != self.stream.len() {
            return Err(Error::Malformed("huffman stream of the wrong length"));
        }
        Ok(())
    }
}

/// Decode the `n` symbols of a plane coded by [`encode`] onto `out`. `n`
/// comes from an untrusted header: nothing is reserved until the payload
/// is seen to hold a bit for every symbol.
pub(crate) fn decode(coded: &[u8], n: usize, out: &mut Vec<u8>) -> Result<(), Error> {
    let table = coded.get(..TABLE_BYTES).ok_or(Error::Truncated)?;
    let lengths: [u8; 256] = std::array::from_fn(|s| table[s / 2] >> (s % 2 * 4) & 0xF);
    let codes = canonical_codes(&lengths)?;
    let mut pos = TABLE_BYTES;
    let mut stream_lens = [0; STREAMS - 1];
    for stream_len in &mut stream_lens {
        *stream_len = varint::read_len(coded, &mut pos)?;
    }
    let mut rest = &coded[pos..];
    if rest.len() < n.div_ceil(8) {
        return Err(Error::Truncated);
    }
    let mut streams = [rest; STREAMS];
    for (stream, stream_len) in streams.iter_mut().zip(stream_lens) {
        (*stream, rest) = rest.split_at_checked(stream_len).ok_or(Error::Truncated)?;
    }
    streams[STREAMS - 1] = rest;
    // Every `MAX_BITS` pattern, to the symbol whose code opens it and that
    // code's length.
    let mut lut = [0u16; LUT_SIZE];
    for symbol in (0..256).filter(|&s| lengths[s] > 0) {
        let entry = symbol as u16 | u16::from(lengths[symbol]) << 8;
        for slot in lut[codes[symbol] as usize..]
            .iter_mut()
            .step_by(1 << lengths[symbol])
        {
            *slot = entry;
        }
    }
    crate::grow(out, n)?;
    let start = out.len();
    out.resize(start + n, 0);
    let mut quarters = out[start..].chunks_mut(quarter_len(n));
    let quarters: [&mut [u8]; STREAMS] =
        std::array::from_fn(|_| quarters.next().unwrap_or_default());
    let [mut r0, mut r1, mut r2, mut r3] = streams.map(|stream| Reader {
        stream,
        ..Reader::default()
    });
    // All four in step for as long as the last, never the longest, lasts.
    // Four named readers, not an array of them, stay in registers: an
    // array decoded no faster than a single stream.
    let step = quarters[STREAMS - 1].len() / 4 * 4;
    let [(a, a_rest), (b, b_rest), (c, c_rest), (d, d_rest)] =
        quarters.map(|q| q.split_at_mut(step));
    let quads = |quarter| <[u8]>::chunks_exact_mut(quarter, 4);
    for (((a, b), c), d) in quads(a).zip(quads(b)).zip(quads(c)).zip(quads(d)) {
        r0.quad(&lut, a);
        r1.quad(&lut, b);
        r2.quad(&lut, c);
        r3.quad(&lut, d);
    }
    r0.finish(&lut, a_rest)?;
    r1.finish(&lut, b_rest)?;
    r2.finish(&lut, c_rest)?;
    r3.finish(&lut, d_rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(plane: &[u8]) -> Vec<u8> {
        let code = Code::new(&histogram(plane));
        let mut coded = vec![0xAA];
        code.encode(plane, &mut coded);
        let coded = coded.split_off(1);
        assert_eq!(coded.len(), code.coded_len());
        let mut out = vec![0xEE];
        decode(&coded, plane.len(), &mut out).unwrap();
        assert_eq!(&out[1..], plane);
        coded
    }

    #[test]
    fn skewed_plane_costs_about_its_entropy() {
        // p = 1/2, 1/4, 1/8, 1/8: exactly 1.75 bits a symbol.
        let plane: Vec<u8> = (0..8000u32)
            .map(|i| [7, 7, 7, 7, 9, 9, 200, 3][i as usize % 8])
            .collect();
        // Four streams of 2000 symbols, and the lengths of three.
        assert_eq!(roundtrip(&plane).len(), TABLE_BYTES + 3 * 2 + 4 * 438);
    }

    #[test]
    fn counts_steeper_than_the_limit_still_make_a_complete_code() {
        // Fibonacci counts want a 24-bit code for the rarest symbol.
        let mut plane = Vec::new();
        let (mut a, mut b) = (1usize, 1usize);
        for symbol in 0..24u8 {
            plane.extend(std::iter::repeat_n(symbol, a));
            (a, b) = (b, a + b);
        }
        let hists = histogram(&plane);
        let lengths = code_lengths(&total(&hists));
        assert_eq!(*lengths.iter().max().unwrap() as usize, MAX_BITS);
        assert!(canonical_codes(&lengths).is_ok());
        roundtrip(&plane);
    }

    proptest! {
        #[test]
        fn any_plane_of_two_symbols_or_more_roundtrips(
            mut plane in proptest::collection::vec(any::<u8>(), 2..3000),
            spread in 1u8..=255,
        ) {
            for byte in &mut plane {
                *byte %= spread;
            }
            plane[0] = 0;
            plane[1] = 255;
            roundtrip(&plane);
        }
    }
}
