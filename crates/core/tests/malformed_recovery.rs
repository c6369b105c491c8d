//! Malformed journal payloads: whatever bytes come back in place of a
//! tile marker, `recovery::decode_tile` / `decode_parts` return `None`
//! (or parts, when the damage stayed inside a data payload) — never a
//! panic, never an allocation sized by a count or length field alone.
//! Same law, same recording allocator as `cloud-storage`'s
//! `tests/malformed_pack.rs`.

use omp_model::view::OutPart;
use omp_model::ErasedVec;
use ompcloud::recovery::{decode_parts, decode_tile, encode_parts, encode_tile};
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
