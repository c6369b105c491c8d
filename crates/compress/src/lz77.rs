//! Greedy LZ77 with hash-chain match finding — the match stage of DEFLATE
//! without the entropy coder, which keeps decode trivially fast.
//!
//! Token stream: repeated `(literal_len: varint, literal_bytes...,
//! match_len: varint, match_dist: varint)` groups. A `match_len` of 0 marks
//! "no match" (only valid for the final group). Distances are 1-based and
//! bounded by [`WINDOW`].

use crate::{varint, Error};
use std::cell::RefCell;

/// Sliding-window size (32 KiB, like DEFLATE).
pub const WINDOW: usize = 32 * 1024;
const WINDOW_MASK: usize = WINDOW - 1;
/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Maximum match length (keeps the greedy search bounded).
const MAX_MATCH: usize = 1 << 16;
/// Hash table size (power of two).
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// How many chain links to follow before giving up (speed/ratio knob).
const MAX_CHAIN: usize = 32;
/// Table positions are `u32` offsets into one segment, so an input of any
/// length is encoded as consecutive segments that share the token stream;
/// a match never reaches back across a segment start.
const SEGMENT: usize = 1 << 30;
/// "No position" in `head`. Never a real offset: `SEGMENT < u32::MAX`.
const NONE: u32 = u32::MAX;
/// After `1 << MISS_SHIFT` consecutive positions without a match the scan
/// advances `1 + (misses >> MISS_SHIFT)` bytes a time, up to `MAX_STRIDE`,
/// so incompressible planes are sampled instead of searched. Any match
/// resets it.
const MISS_SHIFT: u32 = 6;
const MAX_STRIDE: usize = 8;
/// A match longer than this indexes only its first and last
/// `LONG_MATCH_INDEX / 2` positions: the interior of a long run repeats
/// what those already offer.
const LONG_MATCH_INDEX: usize = 64;

/// The 256 KiB of match tables, kept per thread: allocating and filling
/// them per 256 KiB stream chunk cost as much as encoding a sparse chunk.
struct Tables {
    /// `head[h]` = most recent segment offset whose next 4 bytes hash to `h`.
    head: Box<[u32; HASH_SIZE]>,
    /// `prev[p % WINDOW]` = the offset before `p` in `p`'s chain. Only
    /// read through `head`, so it needs no reset between inputs.
    prev: Box<[u32; WINDOW]>,
}

impl Tables {
    /// Put offset `at` of `seg` at the head of its chain. No offset may be
    /// indexed twice: its chain link would point at itself.
    #[inline]
    fn insert(&mut self, seg: &[u8], at: usize) {
        let h = hash(word(seg, at));
        self.prev[at & WINDOW_MASK] = self.head[h];
        self.head[h] = at as u32;
    }
}

thread_local! {
    static TABLES: RefCell<Tables> = RefCell::new(Tables {
        head: Box::new([NONE; HASH_SIZE]),
        prev: Box::new([NONE; WINDOW]),
    });
}

#[inline]
fn word(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
fn hash(word: u32) -> usize {
    (word.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `limit`; `a < b` and `b + limit <= data.len()`.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let (x, y) = (&data[a..a + limit], &data[b..b + limit]);
    let mut n = 0;
    for (cx, cy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = u64::from_le_bytes(cx.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(cy.try_into().expect("8 bytes"));
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < limit && x[n] == y[n] {
        n += 1;
    }
    n
}

/// Bytes a `(len, dist)` match adds to the stream — its two varints and
/// the literal header of the group it opens — when that is shorter than
/// the `len` literals it replaces.
#[inline]
pub(crate) fn token_cost(len: usize, dist: usize) -> Option<usize> {
    let cost = varint::len(len as u64) + varint::len(dist as u64) + 1;
    (len > cost).then_some(cost)
}

fn flush(out: &mut Vec<u8>, lits: &[u8], match_len: usize, dist: usize) {
    varint::write(out, lits.len() as u64);
    out.extend_from_slice(lits);
    varint::write(out, match_len as u64);
    if match_len > 0 {
        varint::write(out, dist as u64);
    }
}

/// Append the LZ77 token stream of `input` to `out`.
pub fn encode(input: &[u8], out: &mut Vec<u8>) {
    encode_segmented(input, SEGMENT, out)
}

fn encode_segmented(input: &[u8], segment: usize, out: &mut Vec<u8>) {
    let start = out.len();
    let mut lit_start = 0usize;
    TABLES.with(|tables| {
        let tables = &mut *tables.borrow_mut();
        for base in (0..input.len()).step_by(segment) {
            let end = input.len().min(base + segment);
            tables.head.fill(NONE);
            lit_start = encode_segment(input, base, end, lit_start, tables, out);
        }
    });
    if lit_start < input.len() || out.len() == start {
        flush(out, &input[lit_start..], 0, 0);
    }
}

/// Encode `input[base..end]`, with `input[lit_start..base]` still pending
/// as literals; returns the new `lit_start`.
fn encode_segment(
    input: &[u8],
    base: usize,
    end: usize,
    mut lit_start: usize,
    tables: &mut Tables,
    out: &mut Vec<u8>,
) -> usize {
    let seg = &input[base..end];
    // Last offset with 4 bytes to hash.
    let Some(last) = seg.len().checked_sub(MIN_MATCH) else {
        return lit_start;
    };
    let mut i = 0usize;
    let mut misses = 0usize;
    while i <= last {
        let cur = word(seg, i);
        let limit = (seg.len() - i).min(MAX_MATCH);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut cand = tables.head[hash(cur)];
        tables.insert(seg, i);
        let mut chain = MAX_CHAIN;
        while cand != NONE {
            let c = cand as usize;
            let dist = i - c;
            if dist > WINDOW {
                break;
            }
            // A longer match must agree on the 4 bytes ending at
            // `best_len` and on the first 4; both are one load.
            let probe = best_len - (MIN_MATCH - 1);
            if word(seg, c + probe) == word(seg, i + probe) && word(seg, c) == cur {
                let len = common_prefix(seg, c, i, limit);
                if len > best_len && token_cost(len, dist).is_some() {
                    best_len = len;
                    best_dist = dist;
                    if len >= limit {
                        break;
                    }
                }
            }
            chain -= 1;
            // `prev[c]` was overwritten by `i` itself when `dist == WINDOW`.
            if chain == 0 || dist == WINDOW {
                break;
            }
            cand = tables.prev[c & WINDOW_MASK];
        }

        if best_dist == 0 {
            misses += 1;
            i += (1 + (misses >> MISS_SHIFT)).min(MAX_STRIDE);
            continue;
        }
        // `i` is indexed already; the rest of the match is indexed below so
        // later data can refer back into it.
        let index_from = i + 1;
        let match_end = i + best_len;
        // The match may start earlier than where the scan found it — a
        // strided scan lands inside matches, and a chain too long to walk
        // hides them: take back the pending literals that the bytes before
        // the candidate repeat too (they stay unindexed, like every
        // skipped byte).
        while base + i > lit_start
            && i > best_dist
            && best_len < MAX_MATCH
            && seg[i - 1] == seg[i - 1 - best_dist]
        {
            i -= 1;
            best_len += 1;
        }
        misses = 0;
        flush(out, &input[lit_start..base + i], best_len, best_dist);
        let stop = match_end.min(last + 1);
        let (skip_from, skip_to) = if stop - index_from <= LONG_MATCH_INDEX {
            (stop, stop)
        } else {
            let half = LONG_MATCH_INDEX / 2;
            (index_from + half, stop - half)
        };
        for at in (index_from..skip_from).chain(skip_to..stop) {
            tables.insert(seg, at);
        }
        i = match_end;
        lit_start = base + i;
    }
    lit_start
}

/// Decode an LZ77 token stream produced by [`encode`]. `expected_len` comes
/// from an untrusted header: it bounds the output, but memory is reserved
/// only as far as the payload and its validated tokens justify.
pub fn decode(payload: &[u8], expected_len: usize) -> Result<Vec<u8>, Error> {
    let mut out = crate::output_buffer(expected_len, payload.len());
    let mut pos = 0;
    while pos < payload.len() {
        let lit_len = varint::read_len(payload, &mut pos)?;
        if lit_len > expected_len - out.len() {
            return Err(Error::Malformed("lz77 literals exceed declared length"));
        }
        let lit_end = pos
            .checked_add(lit_len)
            .ok_or(Error::Malformed("lz77 literal overflow"))?;
        let lits = payload.get(pos..lit_end).ok_or(Error::Truncated)?;
        out.extend_from_slice(lits);
        pos = lit_end;

        let match_len = varint::read_len(payload, &mut pos)?;
        if match_len == 0 {
            continue;
        }
        let dist = varint::read_len(payload, &mut pos)?;
        if dist == 0 || dist > out.len() {
            return Err(Error::Malformed("lz77 distance out of range"));
        }
        if match_len > expected_len - out.len() {
            return Err(Error::Malformed("lz77 match exceeds declared length"));
        }
        crate::grow(&mut out, match_len)?;
        let start = out.len() - dist;
        // An overlapping match (`dist < match_len`, the RLE idiom) repeats
        // the `dist` bytes before it: each round copies everything produced
        // since `start`, a whole number of periods, so the span doubles.
        let mut copied = 0;
        while copied < match_len {
            let span = (dist + copied).min(match_len - copied);
            out.extend_from_within(start..start + span);
            copied += span;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode(data, &mut out);
        out
    }
    use crate::{shuffle, testdata};
    use proptest::prelude::*;

    /// The encoder as it stood before the match stage was rewritten, kept
    /// as the size reference for [`never_larger_than_the_previous_encoder`].
    fn reference_encode(input: &[u8]) -> Vec<u8> {
        let hash4 = |data: &[u8]| hash(word(data, 0));
        let mut out = Vec::new();
        if input.is_empty() {
            return out;
        }
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; WINDOW];
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i < input.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= input.len() {
                let mut cand = head[hash4(&input[i..])];
                let mut chain = 0;
                while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
                    if best_len == 0 || input.get(cand + best_len) == input.get(i + best_len) {
                        let limit = (input.len() - i).min(MAX_MATCH);
                        let mut len = 0;
                        while len < limit && input[cand + len] == input[i + len] {
                            len += 1;
                        }
                        if len >= MIN_MATCH && len > best_len {
                            best_len = len;
                            best_dist = i - cand;
                            if len >= limit {
                                break;
                            }
                        }
                    }
                    cand = prev[cand % WINDOW];
                    chain += 1;
                }
            }
            let end = if best_len >= MIN_MATCH {
                flush(&mut out, &input[lit_start..i], best_len, best_dist);
                lit_start = i + best_len;
                lit_start
            } else {
                i + 1
            };
            while i < end {
                if i + MIN_MATCH <= input.len() {
                    let h = hash4(&input[i..]);
                    prev[i % WINDOW] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        }
        if lit_start < input.len() || out.is_empty() {
            flush(&mut out, &input[lit_start..], 0, 0);
        }
        out
    }

    /// The decoder as released before this one: one `push` per match byte.
    /// Frames already in cloud storage were written for it, and peers still
    /// running it must read ours.
    fn reference_decode(payload: &[u8], expected_len: usize) -> Result<Vec<u8>, Error> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < payload.len() {
            let lit_len = varint::read(payload, &mut pos)? as usize;
            if out.len() + lit_len > expected_len {
                return Err(Error::Malformed("lz77 literals exceed declared length"));
            }
            out.extend_from_slice(payload.get(pos..pos + lit_len).ok_or(Error::Truncated)?);
            pos += lit_len;
            let match_len = varint::read(payload, &mut pos)? as usize;
            if match_len == 0 {
                continue;
            }
            let dist = varint::read(payload, &mut pos)? as usize;
            if dist == 0 || dist > out.len() || out.len() + match_len > expected_len {
                return Err(Error::Malformed("lz77 match out of range"));
            }
            let start = out.len() - dist;
            for k in 0..match_len {
                out.push(out[start + k]);
            }
        }
        Ok(out)
    }

    fn roundtrip(data: &[u8]) {
        let enc = encoded(data);
        assert_eq!(
            decode(&enc, data.len()).unwrap(),
            data,
            "len {}",
            data.len()
        );
        assert_eq!(reference_decode(&enc, data.len()).unwrap(), data);
    }

    /// Every payload class as the match stage meets it: text and noise
    /// raw, numeric data raw and as the byte planes of the shuffle codecs.
    fn payload_classes(len: usize, seed: u64) -> Vec<(String, Vec<u8>)> {
        let mut numeric = vec![
            ("dense f32".to_string(), testdata::dense_f32(len, seed)),
            ("sparse f32".to_string(), testdata::sparse_f32(len, seed)),
            ("f64".to_string(), testdata::dense_f64(len, seed)),
            ("zeros".to_string(), vec![0u8; len]),
        ];
        for stages in 0..=4 {
            numeric.push((
                format!("integer f32 after {stages} stages"),
                testdata::integer_f32(len, seed, stages),
            ));
        }
        let mut classes = vec![
            ("text".to_string(), testdata::text(len, seed)),
            ("noise".to_string(), testdata::noise(len, seed)),
        ];
        for (name, data) in numeric {
            for stride in [4, 8] {
                classes.push((
                    format!("{name}, stride-{stride} planes"),
                    shuffle::shuffle(&data, stride),
                ));
            }
            classes.push((name, data));
        }
        classes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The rewritten match stage speaks the same token stream (both
        /// decoders read it back) and pays for its speed with at most 1 %
        /// of the previous encoder's size (and 16 bytes, for inputs of a
        /// few hundred) on any payload class.
        #[test]
        fn never_larger_than_the_previous_encoder(seed in any::<u64>(), len in 1usize..160_000) {
            for (name, data) in payload_classes(len, seed) {
                let new = encoded(&data);
                let old = reference_encode(&data);
                prop_assert!(
                    new.len() * 100 <= old.len() * 101 + 1600,
                    "{name} ({} bytes): {} vs {} before", data.len(), new.len(), old.len()
                );
                prop_assert_eq!(&decode(&new, data.len()).unwrap(), &data);
                prop_assert_eq!(&reference_decode(&new, data.len()).unwrap(), &data);
                prop_assert_eq!(&decode(&old, data.len()).unwrap(), &data);
            }
        }

        /// Segment boundaries (how inputs of 4 GiB and more keep `u32`
        /// table offsets) lose matches across them and nothing else.
        #[test]
        fn any_segment_length_roundtrips(
            data in proptest::collection::vec(0u8..4, 0..3000),
            segment in 1usize..700,
        ) {
            let mut enc = Vec::new();
            encode_segmented(&data, segment, &mut enc);
            prop_assert_eq!(&decode(&enc, data.len()).unwrap(), &data);
            prop_assert_eq!(&reference_decode(&enc, data.len()).unwrap(), &data);
        }
    }

    /// Coding each plane on its own does not cost bytes against one match
    /// pass over all of them: on every payload class as the offload path
    /// hands it to a codec, at one probe window, one stream chunk and the
    /// largest single frame, the planes frame is at most 1 % (and 64
    /// bytes, and a code-length table per plane, which is what shows at
    /// 4 KiB) larger than the `ShuffleKLz77` frame. The classes that are
    /// byte planes already are left out: shuffled a second time, each of
    /// their planes changes character part-way, which one pass of the
    /// matcher follows and one table per plane cannot (up to 23 % more
    /// bytes on the integer class). No codec meets them — they are what
    /// the match stage is handed inside one.
    #[test]
    fn planes_frames_are_never_larger_than_shuffled_lz77_frames() {
        use crate::{compress, huffman::TABLE_BYTES, Codec};
        for len in [4 << 10, 256 << 10, 1 << 20] {
            let classes = payload_classes(len, 2017);
            for (name, data) in classes.iter().filter(|(name, _)| !name.ends_with("planes")) {
                for (planes, shuffled, stride) in [
                    (Codec::Planes4, Codec::Shuffle4Lz77, 4),
                    (Codec::Planes8, Codec::Shuffle8Lz77, 8),
                ] {
                    let new = compress(data, planes).len();
                    let old = compress(data, shuffled).len();
                    assert!(
                        new * 100 <= old * 101 + (64 + TABLE_BYTES * stride) * 100,
                        "{name} ({len} bytes): {planes} {new} vs {shuffled} {old}"
                    );
                }
            }
        }
    }

    /// `reference_encode` is the previous release's encoder, not a cousin:
    /// it reproduces the frames that release sealed, byte for byte.
    #[test]
    fn reference_encoder_reproduces_the_previous_release() {
        let inputs = testdata::golden_inputs();
        let mut checked = 0;
        for line in include_str!("../tests/golden/parent_frames.txt")
            .lines()
            .filter(|line| !line.starts_with('#'))
        {
            let fields: Vec<&str> = line.split(' ').collect();
            // The codec byte follows the magic; 00 is a stored fallback.
            let planes = match (fields[1], &fields[2][8..10]) {
                ("lz77", "02") => 1,
                ("shuffle4", "03") => 4,
                ("shuffle8", "04") => 8,
                _ => continue,
            };
            let data = &inputs
                .iter()
                .find(|(name, _)| *name == fields[0])
                .unwrap()
                .1;
            let payload = reference_encode(&shuffle::shuffle(data, planes));
            let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
            // Frame = magic, codec, length varint (2 bytes here), payload, crc.
            assert_eq!(&fields[2][14..fields[2].len() - 8], hex, "{line}");
            checked += 1;
        }
        assert!(checked >= 10, "{checked} frames compared");
    }

    #[test]
    fn overlapping_matches_decode_for_every_distance() {
        // dist < len, dist == len and dist > len, around the doubling fill.
        for dist in 1..=9usize {
            for match_len in 1..=40usize {
                let seed: Vec<u8> = (0..dist as u8).map(|b| b + 1).collect();
                let mut payload = Vec::new();
                flush(&mut payload, &seed, match_len, dist);
                let expected: Vec<u8> = seed
                    .iter()
                    .copied()
                    .cycle()
                    .take(dist + match_len)
                    .collect();
                assert_eq!(decode(&payload, expected.len()).unwrap(), expected);
            }
        }
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[]);
        roundtrip(&[1]);
        roundtrip(&[1, 2, 3]);
        roundtrip(&[0, 0, 0, 0]);
    }

    #[test]
    fn overlapping_match_rle_idiom() {
        let data = vec![b'a'; 5000];
        let enc = encoded(&data);
        assert!(enc.len() < 40, "run of 5000 became {}", enc.len());
        roundtrip(&data);
    }

    #[test]
    fn periodic_pattern() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 97) as u8).collect();
        let enc = encoded(&data);
        assert!(enc.len() < data.len() / 8);
        roundtrip(&data);
    }

    #[test]
    fn long_range_match_within_window() {
        let mut data = vec![0u8; 0];
        let phrase = b"offloading kernels to the spark cluster";
        data.extend_from_slice(phrase);
        data.extend(std::iter::repeat_n(7u8, 20_000));
        data.extend_from_slice(phrase);
        roundtrip(&data);
    }

    #[test]
    fn match_beyond_window_not_used() {
        // Same phrase separated by > WINDOW incompressible bytes: must still
        // roundtrip (correctness), even though the second phrase cannot
        // reference the first.
        let mut x: u64 = 99;
        let mut data = Vec::new();
        data.extend_from_slice(b"unique-phrase-at-the-start");
        for _ in 0..WINDOW + 100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.push((x >> 33) as u8);
        }
        data.extend_from_slice(b"unique-phrase-at-the-start");
        roundtrip(&data);
    }

    #[test]
    fn bad_distance_rejected() {
        let mut payload = Vec::new();
        varint::write(&mut payload, 1);
        payload.push(b'x');
        varint::write(&mut payload, 5); // match_len
        varint::write(&mut payload, 10); // dist > produced bytes
        assert!(decode(&payload, 100).is_err());
    }

    #[test]
    fn bomb_guard() {
        let mut payload = Vec::new();
        varint::write(&mut payload, 1);
        payload.push(b'x');
        varint::write(&mut payload, 1_000_000);
        varint::write(&mut payload, 1);
        assert!(decode(&payload, 10).is_err());
    }
}
