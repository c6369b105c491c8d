//! The wire codec's two deterministic gates over the payload matrix the
//! codec benches share ([`ompcloud_bench::payloads`]): every cell
//! round-trips bit for bit through the wire path as `TransferManager`
//! drives it, and no cell ships more of its raw bytes than its class's
//! ceiling. Throughput is the machine's and is not gated; the
//! benchmark's `compress.*` layer rows and `examples/plane_codec.rs`
//! report it.

use gzlite::WirePolicy;
use ompcloud_bench::payloads::{payload, KINDS, SIZES};

/// Most a cell of each payload class may keep of its raw bytes: the ratio
/// of its 4 KiB cell (the worst: its frame carries a header and its window
/// never fills) when the class was added, plus a twentieth — for
/// `dense-f32` and `integer-f32` when their planes got an entropy stage
/// (0.840 and 0.344; 0.910 and 0.417 before it), so that gain is gated
/// too. A codec or probe change that makes a class ship more bytes than
/// this fails here.
fn ratio_ceiling(kind: &str) -> f64 {
    match kind {
        "zeros" => 0.01,
        "text" => 0.23,
        "random" => 1.0,
        "dense-f32" => 0.89,
        "sparse-f32" => 0.09,
        "integer-f32" => 0.37,
        other => unreachable!("unknown payload kind {other}"),
    }
}

#[test]
fn every_cell_round_trips_and_stays_under_its_ratio_ceiling() {
    let threads = 2;
    // The wire path exactly as TransferManager drives it: cheap probe,
    // chunked parallel frames above the stream threshold.
    let policy = WirePolicy {
        min_compression_size: 1,
        stream_threshold: 256 << 10,
        stream_chunk: 256 << 10,
        threads,
    };
    for kind in KINDS {
        for (size, label) in SIZES {
            let data = payload(kind, size);
            // A `None` plan ships the staging buffer itself: ratio 1,
            // nothing to decode.
            let Some(wire) = gzlite::encode_wire(&data, &policy) else {
                assert!(ratio_ceiling(kind) >= 1.0, "{kind} {label} shipped raw");
                continue;
            };
            let back = match gzlite::is_stream(&wire) {
                true => gzlite::decompress_stream_parallel(&wire, threads),
                false => gzlite::decompress(&wire),
            };
            assert_eq!(back.as_deref(), Ok(&data[..]), "{kind} {label} round trip");
            let ratio = wire.len() as f64 / size as f64;
            assert!(
                ratio <= ratio_ceiling(kind),
                "{kind} {label}: ratio {ratio:.3} over its ceiling {}",
                ratio_ceiling(kind)
            );
        }
    }
}
