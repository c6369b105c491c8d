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

const CODECS: [Codec; 5] = [
    Codec::Store,
    Codec::ZeroRle,
    Codec::Lz77,
    Codec::Shuffle4Lz77,
    Codec::Shuffle8Lz77,
];

#[test]
fn hostile_declared_length_is_an_error_not_an_allocation() {
    // The 18-byte frame that used to abort the process with "memory
    // allocation of 1152921504606846976 bytes failed".
    for codec_id in 0..=4u8 {
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
        codec in 0usize..5,
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
