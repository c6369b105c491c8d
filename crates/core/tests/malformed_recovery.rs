//! Malformed journal payloads: whatever bytes come back in place of a
//! tile marker, `recovery::decode_tile` / `decode_parts` return `None`
//! (or parts, when the damage stayed inside a data payload) — never a
//! panic, never an allocation sized by a count or length field alone.
//! Same law, same recording allocator as `cloud-storage`'s
//! `tests/malformed_pack.rs`.
//!
//! The second half holds `core`'s other two decoders to it:
//! `DeltaLedger::apply_patch` (`DPT1` patches, fetched from the store)
//! and `TunedProfile::from_ini` (a file `sparkle-offload autotune` wrote
//! some other day).

use omp_model::view::OutPart;
use omp_model::ErasedVec;
use ompcloud::recovery::{decode_parts, decode_tile, encode_parts, encode_tile};
use ompcloud::{DeltaDiff, DeltaLedger, TunedProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations that do not scale with the payload.
const SLACK: usize = 1024;

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

const HULL: (usize, usize) = (250, 500);

fn parts() -> Vec<OutPart> {
    vec![
        OutPart {
            name: "y".into(),
            base: 128,
            data: ErasedVec::F64((0..40).map(f64::from).collect()),
            touched: true,
        },
        OutPart {
            name: "flags".into(),
            base: 0,
            data: ErasedVec::U8(vec![0xff, 0x01, 0x7f]),
            touched: false,
        },
    ]
}

/// Decode `bytes` both ways — as a parts payload and as a tile marker
/// with a hull in front — and return whether either decoded, plus the
/// largest allocation the two calls were granted.
fn decode_both(bytes: &[u8]) -> (bool, bool, usize) {
    let mut marker = Vec::with_capacity(16 + bytes.len());
    marker.extend_from_slice(&(HULL.0 as u64).to_le_bytes());
    marker.extend_from_slice(&(HULL.1 as u64).to_le_bytes());
    marker.extend_from_slice(bytes);
    LARGEST.with(|l| l.set(0));
    let as_parts = decode_parts(bytes).is_some();
    let as_tile = decode_tile(&marker).is_some();
    (as_parts, as_tile, LARGEST.with(Cell::get))
}

/// Nothing reserved beyond what the bytes present justify. An `OutPart`
/// record is larger in memory than the 22 bytes its emptiest form takes
/// on the wire, hence the factor.
fn assert_bounded(largest: usize, input: usize, what: &str) {
    assert!(
        largest <= 4 * input + SLACK,
        "{what}: {largest} bytes reserved for a {input}-byte payload"
    );
}

#[test]
fn the_intact_payload_reads_back() {
    let good = encode_parts(&parts());
    let decoded = decode_parts(&good).unwrap();
    assert_eq!(decoded.len(), 2);
    for (a, b) in parts().iter().zip(&decoded) {
        assert_eq!(
            (a.name.as_str(), a.base, a.touched),
            (b.name.as_str(), b.base, b.touched)
        );
        assert_eq!(a.data.to_bytes(), b.data.to_bytes());
    }
    let (hull, decoded) = decode_tile(&encode_tile(HULL, &parts())).unwrap();
    assert_eq!((hull, decoded.len()), (HULL, 2));
}

#[test]
fn every_truncation_decodes_to_none() {
    let good = encode_parts(&parts());
    for cut in 0..good.len() {
        let (as_parts, as_tile, largest) = decode_both(&good[..cut]);
        assert!(!as_parts && !as_tile, "cut at {cut} decoded");
        assert_bounded(largest, cut, "truncated");
    }
    // A marker cut inside its hull header.
    let marker = encode_tile(HULL, &parts());
    for cut in 0..16 {
        assert!(decode_tile(&marker[..cut]).is_none());
    }
}

#[test]
fn every_bit_flip_is_rejected_or_stays_inside_a_payload() {
    let good = encode_parts(&parts());
    for at in 0..good.len() {
        for bit in 0..8 {
            let mut bytes = good.clone();
            bytes[at] ^= 1 << bit;
            let (as_parts, as_tile, largest) = decode_both(&bytes);
            assert_eq!(as_parts, as_tile, "byte {at} bit {bit}");
            assert_bounded(largest, bytes.len(), "bit flip");
        }
    }
    // The hull header: any flip that inverts the hull is structural.
    let marker = encode_tile(HULL, &parts());
    for at in 0..16 {
        for bit in 0..8 {
            let mut bytes = marker.clone();
            bytes[at] ^= 1 << bit;
            if let Some(((start, end), _)) = decode_tile(&bytes) {
                assert!(start <= end);
            }
        }
    }
}

#[test]
fn inflated_counts_and_lengths_decode_to_none() {
    let good = encode_parts(&parts());
    // count u32 | first part: name_len u32 | "y" | base u64 | touched u8
    // | tag u8 | data_len u64 | data …
    let count_at = 0;
    let name_len_at = 4;
    let data_len_at = 4 + 4 + 1 + 8 + 1 + 1;
    let data_len = 40 * 8u64;
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    for count in [0u32, 1, 3, 1 << 20, u32::MAX] {
        let mut p = good.clone();
        p[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        cases.push(("count", p));
    }
    for name_len in [0u32, 2, good.len() as u32, 1 << 24, u32::MAX] {
        let mut p = good.clone();
        p[name_len_at..name_len_at + 4].copy_from_slice(&name_len.to_le_bytes());
        cases.push(("name length", p));
    }
    for len in [0u64, data_len + 8, 1 << 40, u64::MAX, u64::MAX - data_len] {
        let mut p = good.clone();
        p[data_len_at..data_len_at + 8].copy_from_slice(&len.to_le_bytes());
        cases.push(("data length", p));
    }
    // A count with nothing behind it, and nothing at all.
    cases.push(("bare count", u32::MAX.to_le_bytes().to_vec()));
    cases.push(("empty", Vec::new()));
    for (what, bytes) in cases {
        let (as_parts, as_tile, largest) = decode_both(&bytes);
        assert!(!as_parts && !as_tile, "{what} decoded: {bytes:?}");
        assert_bounded(largest, bytes.len(), what);
    }
}

// ---------------------------------------------------------------------
// `DPT1` delta patches
// ---------------------------------------------------------------------

const PATCH_TILE: usize = 16;
const PATCH_BASE_LEN: usize = 100;
/// "DPT1" | u32 tile_bytes | u32 total_tiles | u64 full_len | u32 full_crc
/// | u32 n_dirty
const PATCH_HEADER: usize = 28;

/// A ledger holding a 100-byte base of `x` (seven 16-byte tiles, the last
/// one short), the next round's payload, and the patch between them:
/// tiles 0, 2 and 6 dirty.
fn ledger_and_patch() -> (DeltaLedger, Vec<u8>, Vec<u8>) {
    let mut ledger = DeltaLedger::new(PATCH_TILE);
    let base: Vec<u8> = (0..PATCH_BASE_LEN).map(|i| (i * 7 % 251) as u8).collect();
    ledger.commit("x", &base);
    let mut next = base;
    next[3] ^= 0x55;
    next[40] = 0;
    next[99] ^= 1;
    let DeltaDiff::Dirty(dirty) = ledger.diff("x", &next) else {
        panic!("three tiles changed");
    };
    assert_eq!(dirty, [0, 2, 6]);
    let patch = ledger.encode_patch(&next, &dirty);
    (ledger, next, patch)
}

/// `apply_patch` of `patch`, and that it reserved nothing out of
/// proportion. Copying the committed base is legitimate — the ledger owns
/// it and the header had to match its geometry first — so it is taken
/// off the largest allocation before the bound is applied.
fn apply_bounded(ledger: &DeltaLedger, patch: &[u8], what: &str) -> Result<Vec<u8>, String> {
    LARGEST.with(|l| l.set(0));
    let result = ledger.apply_patch("x", patch);
    let beyond_base = LARGEST.with(Cell::get).saturating_sub(PATCH_BASE_LEN);
    assert_bounded(beyond_base, patch.len(), what);
    result
}

#[test]
fn the_intact_patch_applies() {
    let (ledger, next, patch) = ledger_and_patch();
    assert_eq!(patch.len(), PATCH_HEADER + 3 * 4 + 2 * PATCH_TILE + 4);
    assert_eq!(apply_bounded(&ledger, &patch, "intact").unwrap(), next);
}

#[test]
fn every_truncation_of_a_patch_is_an_error() {
    let (ledger, _, patch) = ledger_and_patch();
    for cut in 0..patch.len() {
        let result = apply_bounded(&ledger, &patch[..cut], "truncated");
        assert!(result.is_err(), "cut at {cut} applied");
    }
}

#[test]
fn every_bit_flip_in_a_patch_is_an_error() {
    // The header fields one by one, then the tile indices and payloads:
    // a structural field fails its own check, and whatever still parses
    // reconstructs a payload the patch's full crc32 does not match.
    let (ledger, _, patch) = ledger_and_patch();
    for at in 0..patch.len() {
        for bit in 0..8 {
            let mut bytes = patch.clone();
            bytes[at] ^= 1 << bit;
            let result = apply_bounded(&ledger, &bytes, "bit flip");
            assert!(result.is_err(), "byte {at} bit {bit} applied");
        }
    }
}

#[test]
fn oversized_patch_counts_are_errors() {
    let (ledger, _, patch) = ledger_and_patch();
    let (tile_bytes_at, total_tiles_at, full_len_at, n_dirty_at) = (4, 8, 12, 24);
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    for v in [0u32, 1, 1 << 20, u32::MAX] {
        for (what, at) in [
            ("tile bytes", tile_bytes_at),
            ("total tiles", total_tiles_at),
            ("dirty count", n_dirty_at),
        ] {
            let mut p = patch.clone();
            p[at..at + 4].copy_from_slice(&v.to_le_bytes());
            cases.push((what, p));
        }
    }
    for len in [0u64, 101, 1 << 40, u64::MAX] {
        let mut p = patch.clone();
        p[full_len_at..full_len_at + 8].copy_from_slice(&len.to_le_bytes());
        cases.push(("full length", p));
    }
    // A huge dirty count with nothing behind the header, and a tile
    // index past the end.
    let mut bare = patch[..PATCH_HEADER].to_vec();
    bare[n_dirty_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    cases.push(("bare dirty count", bare));
    let mut far = patch.clone();
    far[PATCH_HEADER..PATCH_HEADER + 4].copy_from_slice(&7u32.to_le_bytes());
    cases.push(("tile index", far));
    for (what, bytes) in cases {
        let result = apply_bounded(&ledger, &bytes, what);
        assert!(result.is_err(), "{what} applied: {bytes:?}");
    }
    // No base to patch, and a ledger cut to another granularity.
    assert!(ledger.apply_patch("y", &patch).is_err());
    let mut other = DeltaLedger::new(PATCH_TILE * 2);
    other.commit("x", &[0u8; PATCH_BASE_LEN]);
    assert!(other.apply_patch("x", &patch).is_err());
}

// ---------------------------------------------------------------------
// Autotune profiles
// ---------------------------------------------------------------------

fn profile() -> TunedProfile {
    TunedProfile {
        tile_size: 4096,
        io_threads: 4,
        min_compression_size: 1024,
        throughput_mb_s: 123.456,
    }
}

/// `from_ini` of `text`, and that it reserved nothing out of proportion.
fn parse_bounded(text: &str) -> Result<TunedProfile, omp_model::OmpError> {
    LARGEST.with(|l| l.set(0));
    let result = TunedProfile::from_ini(text);
    assert_bounded(LARGEST.with(Cell::get), text.len(), "profile");
    result
}

#[test]
fn every_truncation_of_a_profile_is_an_error_or_a_valid_profile() {
    let text = profile().to_ini();
    assert_eq!(parse_bounded(&text).unwrap().tile_size, 4096);
    // Text carries no length or checksum: a cut inside the last required
    // value (`1024` → `10`) or anywhere in the optional throughput line
    // still reads as a profile. Everything shorter must not.
    let last_key = "min-compression-size = ";
    let complete = text.find(last_key).unwrap() + last_key.len() + 1;
    for cut in 0..text.len() {
        // A cut inside the header comment's dash is not UTF-8:
        // `TunedProfile::load` fails that at `read_to_string`.
        let Ok(prefix) = std::str::from_utf8(&text.as_bytes()[..cut]) else {
            continue;
        };
        if let Ok(p) = parse_bounded(prefix) {
            assert!(cut >= complete, "cut at {cut} parsed");
            assert_eq!((p.tile_size, p.io_threads), (4096, 4));
            assert!(p.throughput_mb_s.is_finite() && p.throughput_mb_s >= 0.0);
        }
    }
}

#[test]
fn missing_negative_zero_and_overflowing_profile_values_are_errors() {
    let with = |key: &str, value: &str| -> String {
        let mut out = String::new();
        for line in profile().to_ini().lines() {
            match line.split_once(" = ") {
                Some((k, _)) if k == key => out.push_str(&format!("{k} = {value}\n")),
                _ => out.push_str(&format!("{line}\n")),
            }
        }
        out
    };
    let required = ["tile-size", "io-threads", "min-compression-size"];
    for key in required {
        let without: String = (profile().to_ini().lines())
            .filter(|l| !l.starts_with(key))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse_bounded(&without).is_err(), "{key} missing");
        for bad in [
            "",
            "-1",
            "-0.5",
            "4.5",
            "0x10",
            "18446744073709551616",
            "1e3",
            "four",
        ] {
            assert!(parse_bounded(&with(key, bad)).is_err(), "{key} = {bad}");
        }
    }
    // Zero worker threads cannot move a byte; zero for the other two is a
    // setting (auto tiling, compress everything).
    assert!(parse_bounded(&with("io-threads", "0")).is_err());
    assert!(parse_bounded(&with("tile-size", "0")).is_ok());
    assert!(parse_bounded(&with("min-compression-size", "0")).is_ok());
    // The throughput is optional, but a number when present.
    for bad in ["-1.0", "nan", "inf", "-inf", "1e999", "fast", ""] {
        let text = with("throughput-mb-s", bad);
        assert!(parse_bounded(&text).is_err(), "throughput-mb-s = {bad}");
    }
    assert!(parse_bounded("").is_err());
    assert!(parse_bounded("[profile]\n").is_err());
    assert!(parse_bounded("tile-size = 1\nio-threads = 1\nmin-compression-size = 1\n").is_err());
}
