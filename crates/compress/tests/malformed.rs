//! Malformed-input fuzz over the two wire decoders: whatever bytes arrive
//! from the store, `decompress` / `decompress_stream` return `Err` (or the
//! original content) — never a panic, never an allocation sized by a
//! header alone.

use gzlite::{compress, compress_stream, decompress, decompress_stream, Codec};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Most a decoder may reserve per input byte on the word of a header.
const RESERVE_FACTOR: usize = 64;
/// Allocations that do not scale with the input (error values, the frame
/// index of a stream).
const RESERVE_SLACK: usize = 4096;

thread_local! {
    /// Largest single allocation this thread was granted since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Recording;

fn record(granted: *mut u8, size: usize) {
    if !granted.is_null() {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; recording the size touches only a `const`
// thread-local `Cell`, which neither allocates nor has a destructor.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let ptr = unsafe { System.alloc(layout) };
        record(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        let ptr = unsafe { System.realloc(ptr, layout, new_size) };
        record(ptr, new_size);
        ptr
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

type Decoded = Result<Vec<u8>, gzlite::Error>;

/// Decode `bytes` both ways; neither may panic. Returns the largest
/// allocation either decoder was granted.
fn decode_both(bytes: &[u8]) -> (Decoded, Decoded, usize) {
    LARGEST.with(|l| l.set(0));
    let frame = decompress(bytes);
    let stream = decompress_stream(bytes);
    (frame, stream, LARGEST.with(Cell::get))
}

fn varint(mut value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
    out
}

fn frame(codec_id: u8, declared_len: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = b"GZL1".to_vec();
    out.push(codec_id);
    out.extend(varint(declared_len));
    out.extend_from_slice(payload);
    out.extend_from_slice(&[0; 4]);
    out
}

fn sample(kind: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| match kind % 3 {
            0 => 0,
            1 => (i % 13) as u8,
            _ => (i as u32).wrapping_mul(2654435761).to_le_bytes()[3],
        })
        .collect()
}

const CODECS: [Codec; 7] = [
    Codec::Store,
    Codec::ZeroRle,
    Codec::Lz77,
    Codec::Shuffle4Lz77,
    Codec::Shuffle8Lz77,
    Codec::Planes4,
    Codec::Planes8,
];

#[test]
fn hostile_declared_length_is_an_error_not_an_allocation() {
    // The 18-byte frame that used to abort the process with "memory
    // allocation of 1152921504606846976 bytes failed".
    for codec_id in 0..=6u8 {
        for declared in [1u64 << 60, u64::MAX, 1 << 40, 1 << 32, 70_000] {
            for payload in [&[][..], &[1, 7, 0][..], &[0x80, 0x80][..]] {
                let bytes = frame(codec_id, declared, payload);
                let (frame, stream, largest) = decode_both(&bytes);
                assert!(frame.is_err(), "codec {codec_id} declared {declared}");
                assert!(stream.is_err());
                assert!(
                    largest <= RESERVE_FACTOR * bytes.len() + RESERVE_SLACK,
                    "codec {codec_id} declared {declared}: reserved {largest} for {} input bytes",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn hostile_token_lengths_and_distances_are_errors() {
    let huge = varint(1 << 59);
    let mut cases: Vec<(u8, Vec<u8>)> = Vec::new();
    // lz77: one literal, then a match far longer than memory / beyond the
    // output / at distance zero / reaching before the start.
    for (len, dist) in [
        (&huge[..], &[1u8][..]),
        (&[5], &[0]),
        (&[5], &[9]),
        (&huge, &huge),
    ] {
        for codec_id in [2u8, 3, 4] {
            let mut payload = vec![1, b'x'];
            payload.extend_from_slice(len);
            payload.extend_from_slice(dist);
            cases.push((codec_id, payload));
        }
    }
    // lz77: a literal run longer than the payload, and longer than `usize`.
    cases.push((2, [&huge[..], b"abc"].concat()));
    cases.push((2, [&varint(u64::MAX)[..], b"abc"].concat()));
    // rle: a zero run, and a literal run, longer than memory.
    cases.push((1, [&huge[..], &[0]].concat()));
    cases.push((1, [&[0][..], &huge, b"abc"].concat()));
    cases.push((1, [&varint(u64::MAX)[..], &varint(u64::MAX)].concat()));
    for (codec_id, payload) in cases {
        for declared in [1u64 << 60, 100] {
            let bytes = frame(codec_id, declared, &payload);
            let (frame, stream, largest) = decode_both(&bytes);
            assert!(frame.is_err(), "codec {codec_id} payload {payload:?}");
            assert!(stream.is_err());
            assert!(largest <= RESERVE_FACTOR * bytes.len() + RESERVE_SLACK);
        }
    }
}

#[test]
fn hostile_stream_counts_and_frame_lengths_are_errors() {
    for count in [1u64 << 60, u64::MAX, 1 << 20] {
        for frame_len in [0u64, 1 << 60, u64::MAX] {
            let mut bytes = b"GZS1".to_vec();
            bytes.extend(varint(count));
            bytes.extend(varint(frame_len));
            bytes.extend_from_slice(b"GZL1");
            let (frame, stream, largest) = decode_both(&bytes);
            assert!(
                frame.is_err() && stream.is_err(),
                "count {count} frame_len {frame_len}"
            );
            assert!(largest <= RESERVE_FACTOR * bytes.len() + RESERVE_SLACK);
        }
    }
}

/// A buffer whose byte planes (of either stride) are, in turn, constant,
/// noise and skewed: a planes frame of it holds a matched, a stored and a
/// Huffman-coded plane.
fn three_mode_input(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9u32;
    (0..len)
        .map(|i| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            match i % 4 {
                0 => 0,
                1 => (x >> 24) as u8,
                _ => [7, 7, 7, 7, 9, 9, 200, 3][(x >> 29) as usize],
            }
        })
        .collect()
}

/// The plane modes of a sealed planes frame, read off the documented
/// layout: `stride x (mode, coded_len varint, coded bytes)`.
fn plane_modes(frame: &[u8], stride: usize) -> Vec<u8> {
    let read_varint = |pos: &mut usize| {
        let mut value = 0usize;
        for shift in (0..).step_by(7) {
            value |= usize::from(frame[*pos] & 0x7F) << shift;
            *pos += 1;
            if frame[*pos - 1] < 0x80 {
                break;
            }
        }
        value
    };
    let mut pos = 5;
    read_varint(&mut pos);
    (0..stride)
        .map(|_| {
            let mode = frame[pos];
            pos += 1;
            pos += read_varint(&mut pos);
            mode
        })
        .collect()
}

/// Every truncation and every single-bit flip of a frame that exercises all
/// three plane decoders: an error or the original bytes, never a panic,
/// never memory the damaged bytes do not justify.
#[test]
fn damaged_planes_frames_never_panic_or_lie() {
    for (codec, stride) in [(Codec::Planes4, 4), (Codec::Planes8, 8)] {
        let data = three_mode_input(4099);
        let valid = compress(&data, codec);
        let mut modes = plane_modes(&valid, stride);
        modes.sort_unstable();
        modes.dedup();
        assert_eq!(modes, [0, 1, 2], "{codec} frame lacks a plane mode");
        assert_eq!(decompress(&valid).unwrap(), data);
        let budget = RESERVE_FACTOR * valid.len().max(data.len()) + RESERVE_SLACK;
        for cut in 0..valid.len() {
            let (frame, stream, largest) = decode_both(&valid[..cut]);
            assert!(frame.is_err() && stream.is_err(), "{codec} cut at {cut}");
            assert!(
                largest <= budget,
                "{codec} cut at {cut}: reserved {largest}"
            );
        }
        for bit in 0..valid.len() * 8 {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let (frame, stream, largest) = decode_both(&flipped);
            assert!(stream.is_err());
            if let Ok(decoded) = frame {
                assert_eq!(decoded, data, "{codec} bit {bit} flipped: a lie");
            }
            assert!(largest <= budget, "{codec} bit {bit}: reserved {largest}");
        }
    }
}

/// A stride-4 planes frame over `n` elements `[symbol, 0, 0, 0]`: plane 0
/// is `plane0` verbatim (mode, length and all), the other three are
/// stored zeros, and the crc is right — so a decoder that let a forbidden
/// `plane0` through would return `Ok`.
fn planes_frame(n: usize, symbol: u8, plane0: &[u8]) -> Vec<u8> {
    let data: Vec<u8> = (0..4 * n)
        .map(|i| if i % 4 == 0 { symbol } else { 0 })
        .collect();
    let mut out = b"GZL1\x05".to_vec();
    out.extend(varint(data.len() as u64));
    out.extend_from_slice(plane0);
    for _ in 0..3 {
        out.push(0);
        out.extend(varint(n as u64));
        out.extend(std::iter::repeat_n(0u8, n));
    }
    out.extend_from_slice(&gzlite::crc32(&data).to_le_bytes());
    out
}

/// A Huffman plane: mode byte, length, the code-length table giving
/// `lengths[k]` to symbol `k`, the three stream lengths, the streams.
fn huffman_plane(lengths: &[u8], streams: [&[u8]; 4]) -> Vec<u8> {
    let mut coded = vec![0u8; 128];
    for (symbol, len) in lengths.iter().enumerate() {
        coded[symbol / 2] |= len << (symbol % 2 * 4);
    }
    for stream in &streams[..3] {
        coded.extend(varint(stream.len() as u64));
    }
    coded.extend(streams.concat());
    let mut plane = vec![1];
    plane.extend(varint(coded.len() as u64));
    plane.extend(coded);
    plane
}

fn assert_rejected(bytes: &[u8], what: &str) {
    let (frame, stream, largest) = decode_both(bytes);
    assert!(frame.is_err(), "{what}: decoded to {frame:?}");
    assert!(stream.is_err());
    assert!(
        largest <= RESERVE_FACTOR * bytes.len() + RESERVE_SLACK,
        "{what}: reserved {largest} for {} input bytes",
        bytes.len()
    );
}

#[test]
fn hostile_plane_headers_are_errors() {
    const N: usize = 64;
    let zeros = [0u8; N];
    // All-zero streams decode, if at all, to symbol 0 throughout. With two
    // 1-bit codes or four 2-bit codes they are valid: the baselines.
    let one_bit = huffman_plane(&[1, 1], [&zeros[..2]; 4]);
    let two_bit = huffman_plane(&[2, 2, 2, 2], [&zeros[..4]; 4]);
    for valid in [&one_bit, &two_bit] {
        assert_eq!(
            decompress(&planes_frame(N, 0, valid)).unwrap(),
            [0u8; 4 * N]
        );
    }
    let mut steep: Vec<u8> = (1..=13).collect();
    steep.push(13);
    for (what, lengths) in [
        ("all-zero table", &[][..]),
        ("single-symbol table", &[1]),
        ("incomplete table", &[1, 2]),
        ("over-subscribed table", &[1, 1, 1]),
        ("code over the length limit", &steep),
        ("length nibble 15", &[1, 15]),
    ] {
        for stream in [&zeros[..2], &zeros[..4], &zeros[..16]] {
            assert_rejected(
                &planes_frame(N, 0, &huffman_plane(lengths, [stream; 4])),
                what,
            );
        }
    }
    // The bit stream ends inside the last symbols, or goes on after them,
    // in the last quarter and in an earlier one.
    for (what, streams) in [
        (
            "last stream short",
            [&zeros[..4], &zeros[..4], &zeros[..4], &zeros[..3]],
        ),
        (
            "last stream long",
            [&zeros[..4], &zeros[..4], &zeros[..4], &zeros[..5]],
        ),
        (
            "first stream short",
            [&zeros[..3], &zeros[..4], &zeros[..4], &zeros[..4]],
        ),
        (
            "second stream long",
            [&zeros[..4], &zeros[..5], &zeros[..4], &zeros[..4]],
        ),
        ("no streams", [&[][..]; 4]),
    ] {
        assert_rejected(
            &planes_frame(N, 0, &huffman_plane(&[2, 2, 2, 2], streams)),
            what,
        );
    }
    // Plane and stream lengths that are absent, short, far past the payload
    // or past `usize`, under every mode including ones that do not exist.
    for mode in [0u8, 1, 2, 3, 255] {
        for coded_len in [0u64, 1, 1 << 20, u64::MAX] {
            let mut plane = vec![mode];
            plane.extend(varint(coded_len));
            assert_rejected(&planes_frame(N, 0, &plane), "plane length");
            // The same in front of a plane's worth of real bytes.
            plane.extend_from_slice(&two_bit[2..]);
            assert_rejected(&planes_frame(N, 0, &plane), "plane length");
        }
        for stream_len in [1u64 << 20, u64::MAX] {
            let mut coded = vec![0x22, 0x22];
            coded.resize(128, 0);
            coded.extend(varint(stream_len));
            coded.extend_from_slice(&[4, 4]);
            coded.extend_from_slice(&zeros[..16]);
            let mut plane = vec![mode];
            plane.extend(varint(coded.len() as u64));
            plane.extend(coded);
            assert_rejected(&planes_frame(N, 0, &plane), "stream length");
        }
    }
    // A valid plane under a header that declares far more: a Huffman plane
    // of n bytes needs n / 8 bytes of payload, so nothing is reserved.
    for declared in [1u64 << 26, 1 << 40, u64::MAX] {
        let mut bytes = b"GZL1\x05".to_vec();
        bytes.extend(varint(declared));
        bytes.extend_from_slice(&two_bit);
        bytes.extend_from_slice(&[0; 4]);
        assert_rejected(&bytes, "declared length");
    }
}

proptest! {
    /// Any bytes at all.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_both(&bytes);
        // The same bytes behind each magic reach the payload decoders.
        for magic in [b"GZL1", b"GZS1"] {
            let _ = decode_both(&[&magic[..], &bytes].concat());
        }
    }

    /// A valid frame and a valid stream, truncated anywhere or with any one
    /// byte changed: an error, or the original content.
    #[test]
    fn damaged_frames_never_panic_or_lie(
        kind in any::<u8>(),
        len in 0usize..3000,
        codec in 0usize..7,
        at in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let data = sample(kind, len);
        for valid in [compress(&data, CODECS[codec]), compress_stream(&data, 700)] {
            let cut = (valid.len() as f64 * at) as usize;
            let (frame, stream, _) = decode_both(&valid[..cut]);
            prop_assert!(frame.is_err() && stream.is_err(), "cut at {cut} of {}", valid.len());
            let mut flipped = valid.clone();
            flipped[cut.min(valid.len() - 1)] ^= mask;
            let (frame, stream, largest) = decode_both(&flipped);
            for decoded in [frame, stream].into_iter().flatten() {
                prop_assert_eq!(&decoded, &data);
            }
            // A flipped length byte must not buy memory: nothing here
            // decodes to more than the sample, so nothing larger than the
            // input's share is ever justified.
            prop_assert!(
                largest <= RESERVE_FACTOR * flipped.len().max(len) + RESERVE_SLACK,
                "reserved {largest} for {} input bytes", flipped.len()
            );
        }
    }
}
