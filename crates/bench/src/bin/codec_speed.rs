//! Wire-path codec throughput and ratio ledger.
//!
//! Measures the hot primitives of the host-target transfer stage across a
//! payload matrix (4 KiB / 256 KiB / 4 MiB × zeros / text-like / random /
//! dense f32 / sparse f32 / integer-valued f32; see
//! [`ompcloud_bench::payloads`]):
//!
//! * **crc32** — the slice-by-16 checksum every frame and the integrity
//!   ledger use;
//! * **encode** — the wire path as `TransferManager` drives it
//!   ([`gzlite::encode_wire`]: one probe, one frame or a chunked stream)
//!   plus the ledger CRC of the wire bytes;
//! * **decode** — the matching `decompress` / `decompress_stream_parallel`;
//! * **ratio** — wire bytes ÷ raw bytes.
//!
//! Writes `BENCH_codec.json` with one row per cell and the byte-weighted
//! aggregates. `--check` is deterministic: it exits non-zero unless every
//! cell round-trips bit for bit and stays under its class's ratio ceiling
//! (throughput is reported, never gated — it is the machine's). `--smoke`
//! shrinks dwell times for CI.
//!
//! Usage: `cargo run --release -p ompcloud-bench --bin codec_speed
//!         [-- --smoke] [-- --check] [-- --json PATH]`

use gzlite::WirePolicy;
use jsonlite::{Json, ToJson};
use ompcloud_bench::payloads::{payload, KINDS, SIZES};
use std::time::Instant;

/// Most a cell of each payload class may keep of its raw bytes: the ratio
/// of its 4 KiB cell (the worst: its frame carries a header and its window
/// never fills) when the class was added, plus a twentieth — for
/// `dense-f32` and `integer-f32` when their planes got an entropy stage
/// (0.840 and 0.344; 0.910 and 0.417 before it), so that gain is gated
/// too. A codec or probe change that makes a class ship more bytes than
/// this fails `--check`.
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

/// Run `f` repeatedly until it has consumed `dwell_ms` of wall time,
/// returning throughput in MB/s over `bytes` per call.
fn measure<F: FnMut()>(bytes: usize, dwell_ms: u64, mut f: F) -> f64 {
    // Warm-up call (table init, allocator warm-up).
    f();
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed().as_millis() < dwell_ms as u128 || calls < 3 {
        f();
        calls += 1;
    }
    (bytes as f64 * calls as f64) / t0.elapsed().as_secs_f64() / 1e6
}

fn decode(wire: &[u8], threads: usize) -> Result<Vec<u8>, gzlite::Error> {
    if gzlite::is_stream(wire) {
        gzlite::decompress_stream_parallel(wire, threads)
    } else {
        gzlite::decompress(wire)
    }
}

struct Cell {
    payload: &'static str,
    size_label: &'static str,
    size: usize,
    crc_mb_s: f64,
    encode_mb_s: f64,
    /// 0 for a cell that ships raw: there is nothing to decode.
    decode_mb_s: f64,
    ratio: f64,
    roundtrip: bool,
}

impl Cell {
    fn under_ceiling(&self) -> bool {
        self.ratio <= ratio_ceiling(self.payload)
    }
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("payload", self.payload.to_json()),
            ("size", self.size_label.to_json()),
            ("bytes", (self.size as u64).to_json()),
            ("crc32_mb_s", self.crc_mb_s.to_json()),
            ("encode_mb_s", self.encode_mb_s.to_json()),
            ("decode_mb_s", self.decode_mb_s.to_json()),
            ("ratio", self.ratio.to_json()),
            ("ratio_ceiling", ratio_ceiling(self.payload).to_json()),
            ("roundtrip", self.roundtrip.to_json()),
        ])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_codec.json".to_string());

    let dwell_ms: u64 = if smoke { 15 } else { 150 };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    // The wire path exactly as TransferManager drives it: cheap probe,
    // chunked parallel frames above the stream threshold.
    let policy = WirePolicy {
        min_compression_size: 1,
        stream_threshold: 256 << 10,
        stream_chunk: 256 << 10,
        threads,
    };

    println!(
        "codec throughput, {} dwell {dwell_ms}ms/cell, {threads} codec threads\n",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:<12} {:>7} | {:>9} {:>9} {:>9} | {:>6} {:>7}",
        "payload", "size", "crc MB/s", "enc MB/s", "dec MB/s", "ratio", "ceiling"
    );

    let mut cells = Vec::new();
    for kind in KINDS {
        for (size, size_label) in SIZES {
            let data = payload(kind, size);
            let crc_mb_s = measure(size, dwell_ms, || {
                std::hint::black_box(gzlite::crc32(std::hint::black_box(&data)));
            });
            // encode_wire plus the ledger CRC; a Raw plan ships the staging
            // buffer itself, so only the ledger CRC is paid.
            let encode_mb_s = measure(size, dwell_ms, || {
                match gzlite::encode_wire(std::hint::black_box(&data), &policy) {
                    Some(wire) => std::hint::black_box(gzlite::crc32(&wire)),
                    None => std::hint::black_box(gzlite::crc32(&data)),
                };
            });
            let wire = gzlite::encode_wire(&data, &policy);
            let (decode_mb_s, ratio, roundtrip) = match &wire {
                Some(wire) => (
                    measure(size, dwell_ms, || {
                        std::hint::black_box(decode(std::hint::black_box(wire), threads)).ok();
                    }),
                    wire.len() as f64 / size as f64,
                    decode(wire, threads).is_ok_and(|back| back == data),
                ),
                None => (0.0, 1.0, true),
            };
            let cell = Cell {
                payload: kind,
                size_label,
                size,
                crc_mb_s,
                encode_mb_s,
                decode_mb_s,
                ratio,
                roundtrip,
            };
            println!(
                "{:<12} {:>7} | {:>9.0} {:>9.0} {:>9.0} | {:>6.3} {:>7.2}{}{}",
                kind,
                size_label,
                crc_mb_s,
                encode_mb_s,
                decode_mb_s,
                ratio,
                ratio_ceiling(kind),
                if cell.under_ceiling() { "" } else { "  OVER" },
                if roundtrip { "" } else { "  CORRUPT" },
            );
            cells.push(cell);
        }
    }

    // Byte-weighted aggregate: total bytes over total time, so the big
    // payloads dominate like they do on the wire.
    let agg = |f: fn(&Cell) -> f64| {
        let timed = cells.iter().filter(|c| f(c) > 0.0);
        let bytes: f64 = timed.clone().map(|c| c.size as f64).sum();
        let secs: f64 = timed.map(|c| c.size as f64 / (f(c) * 1e6)).sum();
        bytes / secs / 1e6
    };
    let (crc, encode, decode_agg) = (
        agg(|c| c.crc_mb_s),
        agg(|c| c.encode_mb_s),
        agg(|c| c.decode_mb_s),
    );
    let roundtrip_pass = cells.iter().all(|c| c.roundtrip);
    let ratio_pass = cells.iter().all(Cell::under_ceiling);
    println!("\naggregate MB/s: crc32 {crc:.0}, encode {encode:.0}, decode {decode_agg:.0}");

    let doc = Json::obj([
        ("benchmark", "codec_speed".to_json()),
        ("mode", if smoke { "smoke" } else { "full" }.to_json()),
        ("codec_threads", (threads as u64).to_json()),
        ("crc32_mb_s", crc.to_json()),
        ("encode_mb_s", encode.to_json()),
        ("decode_mb_s", decode_agg.to_json()),
        (
            "gate",
            Json::obj([
                ("roundtrip_pass", roundtrip_pass.to_json()),
                ("ratio_pass", ratio_pass.to_json()),
            ]),
        ),
        ("cells", Json::arr(cells.iter().map(ToJson::to_json))),
    ]);
    std::fs::write(&json_path, jsonlite::to_string_pretty(&doc)).expect("write json");
    println!("wrote {json_path}");

    if check && !(roundtrip_pass && ratio_pass) {
        eprintln!("FAIL: a cell did not round-trip or shipped more than its ratio ceiling");
        std::process::exit(1);
    }
}
