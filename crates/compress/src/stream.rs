//! Multi-frame streams: large buffers split into independently framed
//! chunks.
//!
//! A 1 GB matrix compressed as one frame must be decoded as one piece;
//! chunked streams bound the working set, let transfer threads pipeline
//! compression with transmission, and map naturally onto S3 multipart
//! uploads / Azure block lists. Layout:
//!
//! ```text
//! +------+---------------------+--------------------------------+
//! | GZS1 | chunk_count varint  | (frame_len varint, frame)* ... |
//! +------+---------------------+--------------------------------+
//! ```
//!
//! Each inner frame is a regular [`crate::compress_auto`] frame with its
//! own codec choice and CRC, so a stream can mix RLE chunks (a zero
//! plane of a matrix) with stored chunks (an incompressible region).

use crate::{varint, Error};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Stream magic: "GZS1".
pub const STREAM_MAGIC: [u8; 4] = *b"GZS1";

/// Default chunk size for streamed compression (4 MiB, matching Spark's
/// TorrentBroadcast block size).
pub const DEFAULT_CHUNK: usize = 4 * 1024 * 1024;

/// Compress `input` as a multi-frame stream of `chunk_size`-byte chunks.
pub fn compress_stream(input: &[u8], chunk_size: usize) -> Vec<u8> {
    compress_stream_parallel(input, chunk_size, 1)
}

/// Compress `input` as a multi-frame stream, fanning per-chunk encoding
/// across up to `threads` workers. Chunks are compressed independently
/// and assembled in order, so the output is **byte-identical** to
/// [`compress_stream`] regardless of thread count.
pub fn compress_stream_parallel(input: &[u8], chunk_size: usize, threads: usize) -> Vec<u8> {
    let chunk_size = chunk_size.max(1);
    let chunks: Vec<&[u8]> = if input.is_empty() {
        Vec::new()
    } else {
        input.chunks(chunk_size).collect()
    };
    let workers = threads.max(1).min(chunks.len());
    let frames: Vec<Vec<u8>> = if workers <= 1 {
        chunks.iter().map(|c| crate::compress_auto(c)).collect()
    } else {
        let mut frames: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];
        let next = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<u8>)>();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let chunks = &chunks;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks.len() {
                        break;
                    }
                    if tx.send((i, crate::compress_auto(chunks[i]))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, frame) in rx {
                frames[i] = frame;
            }
        });
        frames
    };
    let mut out = Vec::with_capacity(input.len() / 4 + 64);
    out.extend_from_slice(&STREAM_MAGIC);
    varint::write(&mut out, frames.len() as u64);
    for frame in &frames {
        varint::write(&mut out, frame.len() as u64);
        out.extend_from_slice(frame);
    }
    out
}

/// Decode a stream produced by [`compress_stream`].
pub fn decompress_stream(stream: &[u8]) -> Result<Vec<u8>, Error> {
    decompress_stream_parallel(stream, 1)
}

/// Decode a stream, fanning per-chunk decoding across up to `threads`
/// workers. Chunk boundaries are parsed sequentially (cheap), payload
/// decode + crc verification runs in parallel; errors are reported in
/// chunk order so the result is deterministic.
pub fn decompress_stream_parallel(stream: &[u8], threads: usize) -> Result<Vec<u8>, Error> {
    if stream.len() < STREAM_MAGIC.len() || stream[..STREAM_MAGIC.len()] != STREAM_MAGIC {
        return Err(Error::BadMagic);
    }
    let mut pos = STREAM_MAGIC.len();
    let count = varint::read_len(stream, &mut pos)?;
    // The count is untrusted; every frame it announces takes a length byte.
    let mut frames: Vec<&[u8]> = Vec::with_capacity(count.min(stream.len() - pos));
    for _ in 0..count {
        let frame_len = varint::read_len(stream, &mut pos)?;
        let end = pos
            .checked_add(frame_len)
            .ok_or(Error::Malformed("frame length overflow"))?;
        frames.push(stream.get(pos..end).ok_or(Error::Truncated)?);
        pos = end;
    }
    if pos != stream.len() {
        return Err(Error::Malformed("trailing bytes after final frame"));
    }
    let workers = threads.max(1).min(frames.len());
    if workers <= 1 {
        let mut out = Vec::new();
        for frame in frames {
            out.extend_from_slice(&crate::decompress(frame)?);
        }
        return Ok(out);
    }
    let mut decoded: Vec<Option<Result<Vec<u8>, Error>>> =
        (0..frames.len()).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<Vec<u8>, Error>)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let frames = &frames;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= frames.len() {
                    break;
                }
                if tx.send((i, crate::decompress(frames[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            decoded[i] = Some(result);
        }
    });
    let mut out = Vec::new();
    for result in decoded {
        out.extend_from_slice(&result.expect("every chunk decoded")?);
    }
    Ok(out)
}

/// True when `bytes` starts with the stream magic.
pub fn is_stream(bytes: &[u8]) -> bool {
    bytes.len() >= STREAM_MAGIC.len() && bytes[..STREAM_MAGIC.len()] == STREAM_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_chunks() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let stream = compress_stream(&data, 16 * 1024);
        assert!(is_stream(&stream));
        assert_eq!(decompress_stream(&stream).unwrap(), data);
        assert!(stream.len() < data.len() / 4, "periodic data compresses");
    }

    #[test]
    fn roundtrip_empty_and_single_chunk() {
        assert_eq!(
            decompress_stream(&compress_stream(&[], 1024)).unwrap(),
            Vec::<u8>::new()
        );
        let small = vec![7u8; 100];
        assert_eq!(
            decompress_stream(&compress_stream(&small, 1024)).unwrap(),
            small
        );
    }

    #[test]
    fn exact_chunk_boundary() {
        let data = vec![1u8; 4096];
        let stream = compress_stream(&data, 1024); // exactly 4 chunks
        assert_eq!(decompress_stream(&stream).unwrap(), data);
    }

    #[test]
    fn mixed_compressibility_chunks() {
        // First half zeros (RLE), second half LCG noise (store).
        let mut data = vec![0u8; 64 * 1024];
        let mut x = 12345u64;
        for b in &mut data[32 * 1024..] {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (x >> 33) as u8;
        }
        let stream = compress_stream(&data, 8 * 1024);
        assert_eq!(decompress_stream(&stream).unwrap(), data);
        // Better than storing everything, worse than all-zero.
        assert!(stream.len() < data.len());
        assert!(stream.len() > data.len() / 4);
    }

    #[test]
    fn corruption_in_any_chunk_is_detected() {
        let data = vec![9u8; 20_000];
        let stream = compress_stream(&data, 4096);
        for idx in [8usize, stream.len() / 2, stream.len() - 2] {
            let mut bad = stream.clone();
            bad[idx] ^= 0xA5;
            assert!(decompress_stream(&bad).is_err(), "flip at {idx}");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let stream = compress_stream(&vec![3u8; 10_000], 2048);
        assert!(decompress_stream(&stream[..stream.len() - 3]).is_err());
        assert!(decompress_stream(&stream[..3]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut stream = compress_stream(&vec![3u8; 1000], 512);
        stream.extend_from_slice(b"junk");
        assert_eq!(
            decompress_stream(&stream),
            Err(Error::Malformed("trailing bytes after final frame"))
        );
    }

    #[test]
    fn plain_frame_is_not_a_stream() {
        let frame = crate::compress_auto(&[1, 2, 3]);
        assert!(!is_stream(&frame));
    }

    fn mixed_payload(len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        let mut x = 99u64;
        for b in &mut data[len / 3..2 * len / 3] {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (x >> 33) as u8;
        }
        for (i, b) in data[2 * len / 3..].iter_mut().enumerate() {
            *b = (i % 17) as u8;
        }
        data
    }

    #[test]
    fn parallel_compress_is_byte_identical_to_sequential() {
        let data = mixed_payload(300_000);
        let sequential = compress_stream(&data, 16 * 1024);
        for threads in [1, 2, 3, 8, 64] {
            let parallel = compress_stream_parallel(&data, 16 * 1024, threads);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn parallel_decompress_roundtrips() {
        let data = mixed_payload(300_000);
        let stream = compress_stream_parallel(&data, 16 * 1024, 4);
        for threads in [1, 2, 7, 32] {
            assert_eq!(
                decompress_stream_parallel(&stream, threads).unwrap(),
                data,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_decompress_detects_corruption() {
        let data = mixed_payload(100_000);
        let stream = compress_stream_parallel(&data, 8 * 1024, 4);
        for idx in [8usize, stream.len() / 2, stream.len() - 2] {
            let mut bad = stream.clone();
            bad[idx] ^= 0xA5;
            assert!(
                decompress_stream_parallel(&bad, 4).is_err(),
                "flip at {idx}"
            );
        }
    }
}
