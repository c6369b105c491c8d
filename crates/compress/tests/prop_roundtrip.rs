//! Property-based tests: every byte sequence must roundtrip through every
//! codec, and frames must never silently decode corrupted data.

use gzlite::{compress, compress_auto, decompress, Codec};
use proptest::prelude::*;

/// Every length around the strides, on bytes skewed enough that the
/// longer inputs take the Huffman coder: the tail behind the last whole
/// element and the ragged last quarter of a plane both round-trip.
#[test]
fn planes_roundtrip_at_every_small_length() {
    for codec in [Codec::Planes4, Codec::Planes8] {
        for len in (0..70).chain(4000..4070) {
            let data: Vec<u8> = (0..len)
                .map(|i| [1, 1, 1, 2, 1, 3, 1, 1, 2][i % 9])
                .collect();
            let frame = compress(&data, codec);
            assert_eq!(decompress(&frame).unwrap(), data, "{codec} {len}");
            assert!(len < 4000 || frame.len() < len / 2, "{codec} {len}: stored");
        }
    }
}

proptest! {
    #[test]
    fn roundtrip_store(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let frame = compress(&data, Codec::Store);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn roundtrip_rle(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let frame = compress(&data, Codec::ZeroRle);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn roundtrip_lz77(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let frame = compress(&data, Codec::Lz77);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn roundtrip_shuffle4(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let frame = compress(&data, Codec::Shuffle4Lz77);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    #[test]
    fn roundtrip_shuffle8(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let frame = compress(&data, Codec::Shuffle8Lz77);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    /// Both planes codecs over arbitrary bytes — lengths that are no
    /// multiple of the stride and the empty input included — as drawn
    /// (stored planes) and masked down to a few symbols a byte, which is
    /// what sends planes to the Huffman coder and, at mask 0, the matcher.
    #[test]
    fn roundtrip_planes(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        mask in any::<u8>(),
    ) {
        let masked: Vec<u8> = data.iter().map(|byte| byte & mask).collect();
        for codec in [Codec::Planes4, Codec::Planes8] {
            for input in [&data, &masked] {
                let frame = compress(input, codec);
                prop_assert_eq!(&decompress(&frame).unwrap(), input);
            }
        }
    }

    #[test]
    fn roundtrip_auto(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let frame = compress_auto(&data);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    /// Sparse-ish data (zero runs interleaved with noise) exercises the RLE
    /// literal/zero-run boundary logic.
    #[test]
    fn roundtrip_sparse_shape(
        runs in proptest::collection::vec((0usize..64, proptest::collection::vec(any::<u8>(), 0..16)), 0..64)
    ) {
        let mut data = Vec::new();
        for (zeros, lits) in &runs {
            data.extend(std::iter::repeat_n(0u8, *zeros));
            data.extend_from_slice(lits);
        }
        let frame = compress_auto(&data);
        prop_assert_eq!(decompress(&frame).unwrap(), data);
    }

    /// Flipping any single byte of a frame must never yield a successful
    /// decode to *different* content (CRC catches payload corruption).
    #[test]
    fn corruption_never_silently_accepted(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        flip_at_frac in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let frame = compress_auto(&data);
        let mut bad = frame.clone();
        let idx = ((bad.len() - 1) as f64 * flip_at_frac) as usize;
        bad[idx] ^= flip_mask;
        if let Ok(decoded) = decompress(&bad) {
            // The flip hit dead space or cancelled out; content must match.
            prop_assert_eq!(decoded, data);
        } // Err(_) = corruption detected, which is the expected outcome.
    }

    /// compress is deterministic: same input, same frame.
    #[test]
    fn deterministic(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(compress_auto(&data), compress_auto(&data));
    }

    /// Chunked streams roundtrip for every chunk size, including sizes
    /// larger than the input and sizes of one byte.
    #[test]
    fn stream_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..2048,
    ) {
        let stream = gzlite::compress_stream(&data, chunk);
        prop_assert_eq!(gzlite::decompress_stream(&stream).unwrap(), data);
    }

    /// Parallel chunked encoding is byte-identical to sequential encoding,
    /// and parallel decode reads sequential streams (and vice versa).
    #[test]
    fn parallel_stream_matches_sequential(
        data in proptest::collection::vec(any::<u8>(), 0..8192),
        chunk in 1usize..2048,
        threads in 1usize..9,
    ) {
        let sequential = gzlite::compress_stream(&data, chunk);
        let parallel = gzlite::compress_stream_parallel(&data, chunk, threads);
        prop_assert_eq!(&parallel, &sequential);
        prop_assert_eq!(gzlite::decompress_stream_parallel(&sequential, threads).unwrap(), data.clone());
        prop_assert_eq!(gzlite::decompress_stream(&parallel).unwrap(), data);
    }

    /// Interop with legacy single-chunk frames in both directions: a
    /// single GZL1 frame is not a stream (old wire payloads decode on the
    /// old path), and a chunked stream never masquerades as a frame.
    #[test]
    fn chunked_and_legacy_frames_interoperate(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
    ) {
        // Legacy frame still decodes, and is not mistaken for a stream.
        let legacy = compress_auto(&data);
        prop_assert!(!gzlite::is_stream(&legacy));
        prop_assert_eq!(decompress(&legacy).unwrap(), data.clone());
        // New chunked stream decodes via the stream path only.
        let chunked = gzlite::compress_stream_parallel(&data, 512, 4);
        prop_assert!(gzlite::is_stream(&chunked));
        prop_assert!(decompress(&chunked).is_err(), "stream is not a bare frame");
        prop_assert_eq!(gzlite::decompress_stream(&chunked).unwrap(), data);
    }
}
