#![warn(missing_docs)]

//! `gzlite` — a small, dependency-free byte codec used by OmpCloud-rs
//! wherever the original OmpCloud system shelled out to gzip.
//!
//! The ICPP'17 paper compresses every offloaded buffer larger than a
//! configurable threshold before shipping it to cloud storage, and its
//! evaluation (Fig. 5) hinges on the fact that *sparse* matrices compress
//! much better than *dense* ones. This crate reproduces that behaviour with
//! two real codecs built from scratch:
//!
//! * [`Codec::ZeroRle`] — run-length encoding of zero bytes. Sparse
//!   float matrices are mostly `0x00` bytes, so this is both very fast and
//!   very effective on them, mirroring the paper's observation that "sparse
//!   matrices are compressed faster with better compression rate".
//! * [`Codec::Lz77`] — a greedy hash-chain LZ77 with varint-coded tokens,
//!   the general-purpose workhorse (a simplified DEFLATE match stage).
//!
//! [`Codec::Planes4`] / [`Codec::Planes8`] transpose the buffer into byte
//! planes and give each plane its own coder — stored, order-0 Huffman or
//! the match stage — which is what makes dense and integer-valued floats
//! compressible at all. ([`Codec::Shuffle4Lz77`] / [`Codec::Shuffle8Lz77`],
//! one match pass over all planes, are what earlier releases wrote; they
//! still decode.)
//!
//! [`compress_auto`] samples the input, estimates what each codec would
//! keep ([`probe`]) and picks the smallest, which is what the OmpCloud
//! transfer threads use by default.
//!
//! Every frame is self-describing (magic, codec id, original length) and
//! integrity-checked with a from-scratch CRC-32 so that corrupted transfers
//! surface as [`Error::ChecksumMismatch`] instead of silent data damage.
//!
//! ```
//! let data = vec![0u8; 4096];
//! let frame = gzlite::compress_auto(&data);
//! assert!(frame.len() < data.len() / 10);
//! assert_eq!(gzlite::decompress(&frame).unwrap(), data);
//! ```

mod crc32;
mod frame;
mod huffman;
mod lz77;
mod planes;
mod rle;
pub mod shuffle;
pub mod stream;
mod varint;

pub use crc32::{crc32, crc32_append};
pub use frame::{FRAME_OVERHEAD, MAGIC};
pub use stream::{
    compress_stream, decompress_stream, decompress_stream_parallel, is_stream, STREAM_MAGIC,
};

use std::fmt;

/// Identifies the compression algorithm stored inside a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Raw passthrough; used when compression would expand the input.
    Store,
    /// Zero-byte run-length encoding (fast path for sparse numeric data).
    ZeroRle,
    /// Greedy hash-chain LZ77 with varint token coding.
    Lz77,
    /// Byte-shuffle with stride 4 (f32/i32 planes) followed by LZ77 —
    /// the filter that makes dense float data compressible.
    Shuffle4Lz77,
    /// Byte-shuffle with stride 8 (f64/i64 planes) followed by LZ77.
    Shuffle8Lz77,
    /// Byte-shuffle with stride 4, each plane stored, Huffman-coded or
    /// LZ77-matched on its own. What the probe picks for `f32`/`i32` data.
    Planes4,
    /// The same with stride 8 (f64/i64 planes).
    Planes8,
}

impl Codec {
    fn id(self) -> u8 {
        match self {
            Codec::Store => 0,
            Codec::ZeroRle => 1,
            Codec::Lz77 => 2,
            Codec::Shuffle4Lz77 => 3,
            Codec::Shuffle8Lz77 => 4,
            Codec::Planes4 => 5,
            Codec::Planes8 => 6,
        }
    }

    fn from_id(id: u8) -> Option<Codec> {
        match id {
            0 => Some(Codec::Store),
            1 => Some(Codec::ZeroRle),
            2 => Some(Codec::Lz77),
            3 => Some(Codec::Shuffle4Lz77),
            4 => Some(Codec::Shuffle8Lz77),
            5 => Some(Codec::Planes4),
            6 => Some(Codec::Planes8),
            _ => None,
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codec::Store => write!(f, "store"),
            Codec::ZeroRle => write!(f, "zero-rle"),
            Codec::Lz77 => write!(f, "lz77"),
            Codec::Shuffle4Lz77 => write!(f, "shuffle4+lz77"),
            Codec::Shuffle8Lz77 => write!(f, "shuffle8+lz77"),
            Codec::Planes4 => write!(f, "planes4"),
            Codec::Planes8 => write!(f, "planes8"),
        }
    }
}

/// Errors surfaced while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Frame does not start with [`MAGIC`].
    BadMagic,
    /// Frame declares a codec id this build does not know.
    UnknownCodec(u8),
    /// Frame ended in the middle of a token or header field.
    Truncated,
    /// A varint field exceeded its domain.
    Malformed(&'static str),
    /// Payload decoded fine but the CRC-32 trailer disagrees.
    ChecksumMismatch {
        /// CRC-32 recorded in the frame trailer.
        expected: u32,
        /// CRC-32 of the decoded payload.
        actual: u32,
    },
    /// The decoded length differs from the length declared in the header.
    LengthMismatch {
        /// Length declared in the frame header.
        declared: usize,
        /// Length actually decoded.
        actual: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BadMagic => write!(f, "bad frame magic"),
            Error::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            Error::Truncated => write!(f, "truncated frame"),
            Error::Malformed(what) => write!(f, "malformed frame: {what}"),
            Error::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            Error::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length mismatch: header declared {declared}, decoded {actual}"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

/// Compress `input` with an explicitly chosen codec.
///
/// If the chosen codec expands the data, the frame silently falls back to
/// [`Codec::Store`], so the result is never more than [`FRAME_OVERHEAD`]
/// bytes larger than the input.
pub fn compress(input: &[u8], codec: Codec) -> Vec<u8> {
    seal_frame(input, codec, crc32(input))
}

/// [`compress`] with the frame crc supplied: `crc` must be
/// `crc32(input)`, which the caller already holds. Every encoder appends
/// its payload straight behind the frame header.
fn seal_frame(input: &[u8], codec: Codec, crc: u32) -> Vec<u8> {
    let encode: fn(&[u8], &mut Vec<u8>) = match codec {
        Codec::Store => return frame::seal(Codec::Store, input.len(), input, crc),
        Codec::ZeroRle => rle::encode,
        Codec::Lz77 => lz77::encode,
        Codec::Shuffle4Lz77 => |input, out| lz77::encode(&shuffle::shuffle(input, 4), out),
        Codec::Shuffle8Lz77 => |input, out| lz77::encode(&shuffle::shuffle(input, 8), out),
        Codec::Planes4 => planes::encode::<4>,
        Codec::Planes8 => planes::encode::<8>,
    };
    let mut frame = frame::begin(codec, input.len(), input.len() / 2 + 64);
    let header = frame.len();
    encode(input, &mut frame);
    if frame.len() - header >= input.len() {
        return frame::seal(Codec::Store, input.len(), input, crc);
    }
    frame::end(&mut frame, crc);
    // The frame outlives the call (the store keeps it): return the slack.
    frame.shrink_to_fit();
    frame
}

/// Compress `input`, picking a codec from a cheap per-buffer entropy
/// sample ([`probe`]), the strategy used by the OmpCloud transfer threads.
pub fn compress_auto(input: &[u8]) -> Vec<u8> {
    compress(input, probe(input))
}

/// Bytes a greedy parse of `history[from..]` keeps, matching against one
/// earlier candidate per hash slot of `table` — a cheap stand-in for the
/// LZ77 match stage that catches data which repeats (text, periodic
/// records, ramps) though its byte entropy looks incompressible.
fn greedy_parse(history: &[u8], from: usize, table: &mut [u32; 4096]) -> usize {
    let word = |at: usize| u32::from_le_bytes(history[at..at + 4].try_into().expect("4 bytes"));
    let (mut pos, mut kept) = (from, 0);
    while pos + 4 <= history.len() {
        let here = word(pos);
        let slot = (here.wrapping_mul(2654435761) >> 20) as usize;
        let cand = table[slot] as usize;
        table[slot] = pos as u32;
        if cand < pos && word(cand) == here {
            let len = history[cand..]
                .iter()
                .zip(&history[pos..])
                .take_while(|(a, b)| a == b)
                .count();
            if let Some(cost) = lz77::token_cost(len, pos - cand) {
                kept += cost;
                pos += len;
                continue;
            }
        }
        kept += 1;
        pos += 1;
    }
    kept + history.len().saturating_sub(pos)
}

/// What one pass over a (possibly windowed) sample measured: enough to
/// estimate every codec's output size without running any of them.
struct ProbeStats {
    total: usize,
    hist: [u32; 256],
    hist4: [[u32; 256]; 4],
    hist8: [[u32; 256]; 8],
    /// Bytes zero-RLE would drop: each zero run of at least
    /// [`rle::MIN_ZERO_RUN`] collapses to its two varints.
    rle_saved: usize,
    /// Size of a greedy single-candidate LZ77 parse of the sample, an
    /// upper bound on what the real match stage keeps.
    lz_bytes: usize,
}

impl ProbeStats {
    fn new() -> Self {
        ProbeStats {
            total: 0,
            hist: [0; 256],
            hist4: [[0; 256]; 4],
            hist8: [[0; 256]; 8],
            rle_saved: 0,
            lz_bytes: 0,
        }
    }

    /// Accumulate one window. `window` must start at an 8-byte-aligned
    /// offset of the original buffer so the stride-4/8 planes keep their
    /// phase across windows.
    fn scan(&mut self, window: &[u8], table: &mut [u32; 4096], history: &mut Vec<u8>) {
        self.total += window.len();
        let mut zero_run = 0usize;
        let mut end_zero_run = |run: usize| {
            if run >= rle::MIN_ZERO_RUN {
                self.rle_saved += run - 2;
            }
        };
        for (i, &b) in window.iter().enumerate() {
            if b == 0 {
                zero_run += 1;
            } else {
                end_zero_run(zero_run);
                zero_run = 0;
            }
            self.hist[b as usize] += 1;
            self.hist4[i & 3][b as usize] += 1;
            self.hist8[i & 7][b as usize] += 1;
        }
        end_zero_run(zero_run);
        let base = history.len();
        history.extend_from_slice(window);
        self.lz_bytes += greedy_parse(history, base, table);
    }

    fn entropy(hist: &[u32; 256], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let n = total as f64;
        let mut h = 0.0;
        for &c in hist.iter() {
            if c > 0 {
                let p = f64::from(c) / n;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Bytes the LZ77 match stage keeps of `n` bytes whose order-0
    /// entropy is `h` bits. With no entropy coder behind it, the longest
    /// string a 32 KiB window repeats is about `15 / h` symbols and its
    /// token costs about 4 bytes, so the kept share rises linearly with
    /// `h` and reaches "everything" near 3.2 bits. The coefficients are
    /// fitted on the exponent, mantissa and zero planes of the payload
    /// classes in `probe_decision_table`, where they land within 0.03 of
    /// the real size.
    fn lz_model(h: f64, n: usize) -> f64 {
        (0.02 + 0.31 * h).min(1.0) * n as f64
    }

    /// What the planes codec keeps: [`planes::choose`] summed over the
    /// byte planes a shuffle makes, on their byte counts alone — what
    /// repeats inside a plane is the encoder's to find.
    fn shuffled_model<const K: usize>(planes: &[[u32; 256]; K]) -> f64 {
        planes
            .iter()
            .map(|plane| {
                let n: usize = plane.iter().map(|&c| c as usize).sum();
                planes::choose(plane, n, f64::INFINITY).1
            })
            .sum()
    }

    /// Rank the codecs by estimated output size, cheapest codec first. A
    /// candidate displaces the best so far only by undercutting it by
    /// [`MARGIN`] of the buffer: the estimates are no finer than that, so
    /// near-ties go to the cheaper codec and a codec that saves almost
    /// nothing loses to [`Codec::Store`].
    fn decide(&self) -> Codec {
        const MARGIN: f64 = 0.02;
        let raw = self.total as f64;
        let lz = Self::lz_model(Self::entropy(&self.hist, self.total), self.total)
            .min(self.lz_bytes as f64);
        let mut best = (Codec::Store, raw);
        for candidate in [
            (Codec::ZeroRle, raw - self.rle_saved as f64),
            (Codec::Lz77, lz),
            (Codec::Planes4, Self::shuffled_model(&self.hist4)),
            (Codec::Planes8, Self::shuffled_model(&self.hist8)),
        ] {
            if candidate.1 < best.1 - MARGIN * raw {
                best = candidate;
            }
        }
        best.0
    }
}

/// Inspect a cheap sample of `input` and guess the best codec for the
/// whole buffer. Exposed so the transfer manager can report its
/// decision.
///
/// One streaming pass over at most 16 KiB of windows spread through the
/// buffer measures, per candidate, what it would keep: the exact
/// zero-RLE size (long zero *runs* — integer-valued floats are half zero
/// bytes in runs of two, which RLE cannot use), a greedy LZ77 parse, and
/// the order-0 entropy of the mixed stream and of each stride-4/8 byte
/// plane. The smallest estimate wins; see DESIGN §12 for the table.
pub fn probe(input: &[u8]) -> Codec {
    const WINDOW: usize = 4 * 1024;
    const WINDOWS: usize = 4;
    let mut stats = ProbeStats::new();
    let mut table = Box::new([u32::MAX; 4096]);
    let mut history = Vec::with_capacity(WINDOW * WINDOWS);
    if input.len() <= WINDOW * WINDOWS {
        stats.scan(input, &mut table, &mut history);
    } else {
        // Spread windows through the buffer; align starts to 8 bytes so
        // the stride planes keep a consistent phase.
        let last = input.len() - WINDOW;
        for k in 0..WINDOWS {
            let start = (last * k / (WINDOWS - 1)) & !7;
            stats.scan(&input[start..start + WINDOW], &mut table, &mut history);
        }
    }
    stats.decide()
}

/// Wire-encoding policy handed down by the transfer layer.
///
/// This is the **single decision point** for wire compression: the
/// transfer manager delegates the raw-or-codec choice entirely to
/// [`plan_wire`] instead of second-guessing the codec with its own
/// `min_compression_size` gate. A payload that is compressed at all is
/// one `GZL1` frame, whatever its size: cutting it into a chunked
/// [`stream`] costs each chunk its own probe, frame and crc pass, and the
/// match window restarts at every chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePolicy {
    /// Buffers smaller than this ship raw — frame overhead and probe cost
    /// would dominate any gain.
    pub min_compression_size: usize,
    /// Worker threads for decoding a chunked `GZS1` stream, which older
    /// builds wrote (0 or 1 = sequential). A frame is sealed and opened on
    /// the calling thread.
    pub threads: usize,
}

impl Default for WirePolicy {
    fn default() -> Self {
        WirePolicy {
            min_compression_size: 1024,
            threads: 1,
        }
    }
}

/// The shape [`plan_wire`] chose for a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePlan {
    /// Ship the payload raw, uncompressed.
    Raw,
    /// Seal one frame with the given codec.
    Single(Codec),
}

/// Decide how `payload` should travel on the wire under `policy`.
///
/// Per-buffer adaptive: every payload above the size floor gets its own
/// entropy probe, and a buffer that probes incompressible ships raw
/// whatever its size. The old behavior (one global threshold deciding
/// raw vs compressed by size alone) over-compressed high-entropy buffers
/// and under-compressed small structured ones.
pub fn plan_wire(payload: &[u8], policy: &WirePolicy) -> WirePlan {
    if payload.len() < policy.min_compression_size {
        return WirePlan::Raw;
    }
    match probe(payload) {
        Codec::Store => WirePlan::Raw,
        codec => WirePlan::Single(codec),
    }
}

/// Encode `payload` for the wire per `policy`. Returns `None` when the
/// payload should ship raw (too small, probed incompressible, or the
/// encoded form failed to shrink).
pub fn encode_wire(payload: &[u8], policy: &WirePolicy) -> Option<Vec<u8>> {
    encode_planned(payload, policy, || crc32(payload))
}

/// [`encode_wire`] for a caller that already holds `crc32(payload)`
/// (`crc`): the frame carries it instead of a second pass over the
/// bytes. A wrong `crc` seals a frame that fails its check on decode.
pub fn encode_wire_with_crc(payload: &[u8], policy: &WirePolicy, crc: u32) -> Option<Vec<u8>> {
    encode_planned(payload, policy, || crc)
}

fn encode_planned(
    payload: &[u8],
    policy: &WirePolicy,
    crc: impl FnOnce() -> u32,
) -> Option<Vec<u8>> {
    match plan_wire(payload, policy) {
        WirePlan::Raw => None,
        WirePlan::Single(codec) => {
            let frame = seal_frame(payload, codec, crc());
            (frame.len() < payload.len()).then_some(frame)
        }
    }
}

/// Most a decoder reserves per payload byte on the word of a frame header
/// alone; beyond that the output grows as tokens are validated.
const RESERVE_PER_PAYLOAD_BYTE: usize = 64;

/// An empty output buffer for a payload whose (untrusted) header declares
/// `expected_len` decoded bytes.
fn output_buffer(expected_len: usize, payload_len: usize) -> Vec<u8> {
    Vec::with_capacity(expected_len.min(payload_len.saturating_mul(RESERVE_PER_PAYLOAD_BYTE)))
}

/// Make room for `additional` bytes a validated token is about to produce;
/// a length no allocation can satisfy is the frame's fault, not ours.
fn grow(out: &mut Vec<u8>, additional: usize) -> Result<(), Error> {
    out.try_reserve(additional)
        .map_err(|_| Error::Malformed("decoded length exceeds available memory"))
}

/// Decode a frame produced by [`compress`] / [`compress_auto`].
pub fn decompress(frame_bytes: &[u8]) -> Result<Vec<u8>, Error> {
    let parsed = frame::open(frame_bytes)?;
    let len = parsed.original_len;
    let out = match parsed.codec {
        Codec::Store => parsed.payload.to_vec(),
        Codec::ZeroRle => rle::decode(parsed.payload, len)?,
        Codec::Lz77 => lz77::decode(parsed.payload, len)?,
        Codec::Shuffle4Lz77 => shuffle::unshuffle(&lz77::decode(parsed.payload, len)?, 4),
        Codec::Shuffle8Lz77 => shuffle::unshuffle(&lz77::decode(parsed.payload, len)?, 8),
        Codec::Planes4 => planes::decode::<4>(parsed.payload, len)?,
        Codec::Planes8 => planes::decode::<8>(parsed.payload, len)?,
    };
    if out.len() != parsed.original_len {
        return Err(Error::LengthMismatch {
            declared: parsed.original_len,
            actual: out.len(),
        });
    }
    let actual = crc32(&out);
    if actual != parsed.checksum {
        return Err(Error::ChecksumMismatch {
            expected: parsed.checksum,
            actual,
        });
    }
    Ok(out)
}

/// Which codec a sealed frame used (handy for transfer reports).
pub fn frame_codec(frame_bytes: &[u8]) -> Result<Codec, Error> {
    Ok(frame::open(frame_bytes)?.codec)
}

/// Compression statistics for a single sealed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Size of the original buffer in bytes.
    pub raw_len: usize,
    /// Size of the sealed frame in bytes (header + payload + trailer).
    pub frame_len: usize,
    /// Codec selected for the frame.
    pub codec: Codec,
}

impl Stats {
    /// Compression ratio `frame/raw`; 1.0 means "no gain".
    pub fn ratio(&self) -> f64 {
        if self.raw_len == 0 {
            1.0
        } else {
            self.frame_len as f64 / self.raw_len as f64
        }
    }
}

/// Compress and report [`Stats`] in one call.
pub fn compress_with_stats(input: &[u8]) -> (Vec<u8>, Stats) {
    let frame = compress_auto(input);
    let codec = frame_codec(&frame).expect("frame we just sealed is valid");
    let stats = Stats {
        raw_len: input.len(),
        frame_len: frame.len(),
        codec,
    };
    (frame, stats)
}

// Test modules last: `scripts/production-lines.sh` counts a file's
// lines up to its first `#[cfg(test)]`.
#[cfg(test)]
mod testdata;

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_CODECS: [Codec; 7] = [
        Codec::Store,
        Codec::ZeroRle,
        Codec::Lz77,
        Codec::Shuffle4Lz77,
        Codec::Shuffle8Lz77,
        Codec::Planes4,
        Codec::Planes8,
    ];

    fn roundtrip(data: &[u8], codec: Codec) {
        let frame = compress(data, codec);
        assert_eq!(decompress(&frame).unwrap(), data, "codec {codec}");
    }

    #[test]
    fn empty_input_roundtrips_all_codecs() {
        for codec in ALL_CODECS {
            roundtrip(&[], codec);
        }
    }

    #[test]
    fn single_byte_roundtrips() {
        for codec in ALL_CODECS {
            roundtrip(&[42], codec);
        }
    }

    #[test]
    fn zeros_compress_well_with_rle() {
        let data = vec![0u8; 1 << 16];
        let frame = compress(&data, Codec::ZeroRle);
        assert!(
            frame.len() < 64,
            "65536 zero bytes became {} bytes",
            frame.len()
        );
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn repetitive_text_compresses_with_lz77() {
        let data: Vec<u8> = b"the cloud as an openmp offloading device "
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        let frame = compress(&data, Codec::Lz77);
        assert!(frame.len() < data.len() / 4, "got {}", frame.len());
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn incompressible_data_falls_back_to_store() {
        // A linear congruential stream has essentially no repeats at byte
        // granularity, so both codecs should give up.
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let frame = compress_auto(&data);
        assert_eq!(frame_codec(&frame).unwrap(), Codec::Store);
        assert!(frame.len() <= data.len() + FRAME_OVERHEAD);
        assert_eq!(decompress(&frame).unwrap(), data);
    }

    /// The codec each payload class of the offload path must reach, at
    /// every size from one probe window to a streamed chunk.
    #[test]
    fn probe_decision_table() {
        for len in [4 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024 + 40] {
            for seed in [1, 2017, 0xC0FFEE] {
                let mut table = vec![
                    (
                        "sparse f32",
                        testdata::sparse_f32(len, seed),
                        Codec::ZeroRle,
                    ),
                    ("zeros", vec![0u8; len], Codec::ZeroRle),
                    ("dense f32", testdata::dense_f32(len, seed), Codec::Planes4),
                    ("f64", testdata::dense_f64(len, seed), Codec::Planes8),
                    ("text", testdata::text(len, seed), Codec::Lz77),
                    ("noise", testdata::noise(len, seed), Codec::Store),
                ];
                for stages in 0..=4 {
                    table.push((
                        "integer-valued f32",
                        testdata::integer_f32(len, seed, stages),
                        Codec::Planes4,
                    ));
                }
                for (class, data, want) in table {
                    assert_eq!(probe(&data), want, "{class}, {len} bytes, seed {seed}");
                }
            }
        }
    }

    /// The ranking is by size: the codec the probe picks is within a few
    /// percent of the best any codec reaches on the whole buffer.
    #[test]
    fn probe_choice_is_close_to_the_smallest_frame() {
        let len = 256 * 1024;
        let mut classes = vec![
            testdata::sparse_f32(len, 3),
            testdata::dense_f32(len, 3),
            testdata::dense_f64(len, 3),
            testdata::text(len, 3),
            testdata::noise(len, 3),
        ];
        classes.extend((0..=4).map(|stages| testdata::integer_f32(len, 3, stages)));
        for (i, data) in classes.iter().enumerate() {
            let best = ALL_CODECS
                .map(|codec| compress(data, codec).len())
                .into_iter()
                .min()
                .expect("seven codecs");
            let chosen = compress_auto(data).len();
            assert!(
                chosen as f64 <= best as f64 + 0.03 * len as f64,
                "class {i}: probe's codec gives {chosen}, the best {best}"
            );
        }
    }

    #[test]
    fn plan_wire_is_per_buffer_adaptive() {
        let policy = WirePolicy::default();
        // Below the floor: always raw, no probe.
        assert_eq!(plan_wire(&[0u8; 512], &policy), WirePlan::Raw);
        // Large but incompressible: raw.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let noise: Vec<u8> = (0..32 * 1024)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        assert_eq!(plan_wire(&noise, &policy), WirePlan::Raw);
        // Compressible: one sealed frame at any size.
        for len in [8 * 1024, 4 * 1024 * 1024] {
            let zeros = vec![0u8; len];
            assert!(matches!(plan_wire(&zeros, &policy), WirePlan::Single(_)));
            let wire = encode_wire(&zeros, &policy).expect("zeros compress");
            assert_eq!(wire[..4], MAGIC, "{len} bytes are one frame");
            assert_eq!(decompress(&wire).unwrap(), zeros);
        }
    }

    #[test]
    fn a_supplied_crc_seals_the_same_frame() {
        let policy = WirePolicy::default();
        let data: Vec<u8> = (0..64 * 1024u32)
            .flat_map(|i| (i / 7).to_le_bytes())
            .collect();
        let sealed = encode_wire(&data, &policy).expect("compressible");
        let with_crc = encode_wire_with_crc(&data, &policy, crc32(&data));
        assert_eq!(with_crc.as_ref(), Some(&sealed));
        // A wrong crc is caught by the frame's own check.
        let wrong = encode_wire_with_crc(&data, &policy, crc32(&data) ^ 1).unwrap();
        assert!(matches!(
            decompress(&wrong),
            Err(Error::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_payload_is_detected() {
        let data = vec![7u8; 1024];
        let mut frame = compress(&data, Codec::ZeroRle);
        let idx = frame.len() / 2;
        frame[idx] ^= 0xFF;
        assert!(decompress(&frame).is_err());
    }

    #[test]
    fn corrupted_magic_is_detected() {
        let mut frame = compress_auto(&[1, 2, 3]);
        frame[0] ^= 0xFF;
        assert_eq!(decompress(&frame), Err(Error::BadMagic));
    }

    #[test]
    fn truncated_frame_is_detected() {
        let frame = compress(&vec![9u8; 512], Codec::Lz77);
        for cut in [0, 1, frame.len() / 2, frame.len() - 1] {
            assert!(decompress(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn stats_report_ratio() {
        let (_, stats) = compress_with_stats(&vec![0u8; 10_000]);
        assert_eq!(stats.raw_len, 10_000);
        assert!(stats.ratio() < 0.02);
        assert_eq!(stats.codec, Codec::ZeroRle);
    }

    #[test]
    fn shuffle_codec_roundtrips() {
        let floats: Vec<u8> = (0..4096)
            .flat_map(|i| (0.5f32 + (i as f32).sin()).to_le_bytes())
            .collect();
        for codec in ALL_CODECS {
            let frame = compress(&floats, codec);
            assert_eq!(decompress(&frame).unwrap(), floats, "{codec}");
        }
    }

    #[test]
    fn shuffle_makes_dense_floats_compressible() {
        // Uniform random floats in [0,1): plain LZ77 finds nothing, the
        // byte-shuffled exponent/high-mantissa planes do compress.
        let mut x: u64 = 7;
        let dense: Vec<u8> = (0..1 << 16)
            .flat_map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = (x >> 40) as f32 / (1u64 << 24) as f32;
                v.to_le_bytes()
            })
            .collect();
        let plain = compress(&dense, Codec::Lz77);
        let shuffled = compress(&dense, Codec::Shuffle4Lz77);
        assert_eq!(
            frame_codec(&plain).unwrap(),
            Codec::Store,
            "plain LZ77 gives up"
        );
        assert_eq!(frame_codec(&shuffled).unwrap(), Codec::Shuffle4Lz77);
        assert!(
            shuffled.len() < dense.len() * 95 / 100,
            "shuffled {} vs raw {}",
            shuffled.len(),
            dense.len()
        );
        // The auto-probe picks the shuffle for such data, with each plane
        // coded on its own: the exponent plane's skew is worth more to a
        // prefix code than to the matcher.
        let auto = compress_auto(&dense);
        assert_eq!(frame_codec(&auto).unwrap(), Codec::Planes4);
        assert!(auto.len() < shuffled.len());
        assert_eq!(decompress(&auto).unwrap(), dense);
    }

    /// Byte counts cannot see what repeats: the low planes of a ramp hold
    /// every byte value equally often, in a period or in runs. The
    /// encoder's parse of each plane hands them to the matcher, as one
    /// match pass over all planes used to find them.
    #[test]
    fn planes_that_repeat_without_being_skewed_go_to_the_matcher() {
        let ramps: [Vec<u8>; 3] = [
            (0..1 << 16)
                .flat_map(|i| (i as f32).to_le_bytes())
                .collect(),
            (0..1 << 16)
                .flat_map(|i: i32| (3 * i).to_le_bytes())
                .collect(),
            (0..1 << 15)
                .flat_map(|i| f64::from(i).to_le_bytes())
                .collect(),
        ];
        for ramp in ramps {
            let frame = compress_auto(&ramp);
            assert!(matches!(
                frame_codec(&frame).unwrap(),
                Codec::Planes4 | Codec::Planes8
            ));
            assert!(frame.len() < ramp.len() / 30, "ramp kept {}", frame.len());
            assert_eq!(decompress(&frame).unwrap(), ramp);
        }
    }

    #[test]
    fn sparse_beats_dense_ratio() {
        // This is the asymmetry the paper's Fig. 5 is built on.
        let sparse = {
            let mut v = vec![0u8; 32_768];
            for i in (0..v.len()).step_by(40) {
                v[i] = (i % 251) as u8;
            }
            v
        };
        let dense: Vec<u8> = (0..32_768u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let (_, s_sparse) = compress_with_stats(&sparse);
        let (_, s_dense) = compress_with_stats(&dense);
        assert!(s_sparse.ratio() < s_dense.ratio());
        assert!(s_sparse.ratio() < 0.3);
    }
}
