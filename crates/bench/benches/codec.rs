//! Criterion micro-benchmarks of the gzlite codec — the compression
//! stage of the paper's host-target transfers (§III-A).
//!
//! The groups sweep 4 KiB / 256 KiB / 4 MiB payloads across the classes
//! of `ompcloud_bench::payloads` for crc32 and the wire encode/decode
//! paths, all with `Throughput::Bytes` so criterion reports MB/s
//! directly. The machine-checkable gates (round trip, ratio ceiling per
//! class) are `tests/codec_gates.rs`; these benches are for profiling
//! individual cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ompcloud_bench::payloads::{payload, KINDS, SIZES};

fn wire_policy() -> gzlite::WirePolicy {
    gzlite::WirePolicy {
        min_compression_size: 1,
        stream_threshold: 256 << 10,
        stream_chunk: 256 << 10,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8),
    }
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/crc32");
    group.sample_size(20);
    for kind in ["zeros", "random"] {
        for (size, size_label) in SIZES {
            let data = payload(kind, size);
            group.throughput(Throughput::Bytes(size as u64));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{kind}/{size_label}")),
                &data,
                |b, data| b.iter(|| gzlite::crc32(std::hint::black_box(data))),
            );
        }
    }
    group.finish();
}

fn bench_wire_encode(c: &mut Criterion) {
    let policy = wire_policy();
    let mut group = c.benchmark_group("codec/wire_encode");
    group.sample_size(20);
    for kind in KINDS {
        for (size, size_label) in SIZES {
            let data = payload(kind, size);
            group.throughput(Throughput::Bytes(size as u64));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{kind}/{size_label}")),
                &data,
                |b, data| b.iter(|| gzlite::encode_wire(std::hint::black_box(data), &policy)),
            );
        }
    }
    group.finish();
}

fn bench_wire_decode(c: &mut Criterion) {
    let policy = wire_policy();
    let mut group = c.benchmark_group("codec/wire_decode");
    group.sample_size(20);
    for kind in KINDS {
        for (size, size_label) in SIZES {
            let data = payload(kind, size);
            let Some(wire) = gzlite::encode_wire(&data, &policy) else {
                continue; // incompressible cells ship raw; nothing to decode
            };
            group.throughput(Throughput::Bytes(size as u64));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{kind}/{size_label}")),
                &wire,
                |b, wire| {
                    b.iter(|| {
                        if gzlite::is_stream(wire) {
                            gzlite::decompress_stream_parallel(wire, policy.threads).unwrap()
                        } else {
                            gzlite::decompress(wire).unwrap()
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_crc32, bench_wire_encode, bench_wire_decode);
criterion_main!(benches);
