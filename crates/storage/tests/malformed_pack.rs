//! Malformed packs: whatever bytes come back from the store in place of
//! a pack, `download` returns `StorageError::Corrupted` (or buffers, when
//! the damage stayed inside a payload and verification is off) — never a
//! panic, never an allocation sized by a header field alone. Same law,
//! same recording allocator as `gzlite`'s `tests/malformed.rs`. The
//! commit manifest (`CommitManifest::from_bytes`, reached through
//! `read_manifest`) is held to the same law at the end of this file.

use cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, ObjectStore, OpFilter, RetryPolicy, S3Store,
    StorageError, StoreHandle, TransferConfig, TransferManager, Trigger,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Allocations that do not scale with the object (error strings, the
/// request's own key vectors, the retry session).
const SLACK: usize = 4096;

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

const MEMBERS: usize = 5;
const MEMBER_LEN: usize = 300;

fn member_keys() -> Vec<String> {
    (0..MEMBERS).map(|i| format!("job-0/in/m{i}")).collect()
}

fn member(i: usize) -> Vec<u8> {
    (0..MEMBER_LEN).map(|j| (i * 31 + j) as u8).collect()
}

/// A manager that has staged one pack of [`MEMBERS`] buffers, stored
/// raw (no codec) so the stored bytes *are* the pack; returns the pack's
/// key with it. With `verify` off nothing but the pack parser stands
/// between damaged bytes and the caller.
fn staged(verify: bool) -> (TransferManager, S3Store, String) {
    let bucket = S3Store::standalone("malformed-pack");
    let manager = TransferManager::new(
        Arc::new(bucket.clone()),
        TransferConfig {
            min_compression_size: usize::MAX,
            verify_integrity: verify,
            retry: RetryPolicy::default().without_backoff(),
            ..TransferConfig::default()
        },
    );
    let items: Vec<(String, Vec<u8>)> = member_keys()
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, member(i)))
        .collect();
    manager.upload(items).unwrap();
    let keys = bucket.list("");
    assert_eq!(keys.len(), 1, "one pack: {keys:?}");
    (manager, bucket, keys[0].clone())
}

/// Download every member with the stored pack replaced by `bytes`.
/// Returns the outcome and the largest allocation the call was granted
/// (a single object is fetched on the calling thread).
fn download_tampered(
    manager: &TransferManager,
    bucket: &S3Store,
    pack_key: &str,
    bytes: Vec<u8>,
) -> (Result<Vec<Vec<u8>>, StorageError>, usize) {
    bucket.put(pack_key, bytes).unwrap();
    let keys = member_keys();
    LARGEST.with(|l| l.set(0));
    let outcome = manager.download(keys);
    let largest = LARGEST.with(Cell::get);
    (
        outcome.map(|(payloads, _)| payloads.into_iter().map(|(_, p)| p.to_vec()).collect()),
        largest,
    )
}

/// Corrupted, and nothing reserved beyond what the bytes present
/// justify: the object itself plus the pool's power-of-two rounding.
fn assert_rejected(outcome: &Result<Vec<Vec<u8>>, StorageError>, largest: usize, stored: usize) {
    assert!(
        matches!(outcome, Err(StorageError::Corrupted(_))),
        "{outcome:?}"
    );
    assert!(
        largest <= 2 * stored + SLACK,
        "{largest} bytes reserved for a {stored}-byte object"
    );
}

#[test]
fn the_intact_pack_reads_back() {
    let (manager, bucket, pack_key) = staged(false);
    let pack = bucket.get(&pack_key).unwrap();
    let (outcome, _) = download_tampered(&manager, &bucket, &pack_key, pack);
    let payloads = outcome.unwrap();
    for (i, p) in payloads.iter().enumerate() {
        assert_eq!(p, &member(i));
    }
}

#[test]
fn every_truncation_is_corruption() {
    let (manager, bucket, pack_key) = staged(false);
    let pack = bucket.get(&pack_key).unwrap();
    for cut in (0..pack.len()).step_by(7) {
        let (outcome, largest) =
            download_tampered(&manager, &bucket, &pack_key, pack[..cut].to_vec());
        assert_rejected(&outcome, largest, cut);
    }
}

#[test]
fn hostile_counts_and_lengths_are_corruption() {
    let (manager, bucket, pack_key) = staged(false);
    let pack = bucket.get(&pack_key).unwrap();
    // "OPK1" | count u32 | first entry: name_len u32 | "m0" | len u64 …
    let count_at = 4;
    let name_len_at = 8;
    let len_at = 8 + 4 + 2;
    let mut cases: Vec<Vec<u8>> = Vec::new();
    for count in [0u32, 4, 6, 1 << 20, u32::MAX] {
        let mut p = pack.clone();
        p[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        cases.push(p);
    }
    for name_len in [0u32, 3, 1 << 24, u32::MAX] {
        let mut p = pack.clone();
        p[name_len_at..name_len_at + 4].copy_from_slice(&name_len.to_le_bytes());
        cases.push(p);
    }
    for len in [
        0u64,
        MEMBER_LEN as u64 + 1,
        1 << 40,
        u64::MAX,
        u64::MAX - MEMBER_LEN as u64,
    ] {
        let mut p = pack.clone();
        p[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        cases.push(p);
    }
    // Not a pack at all, where the ledger says one is.
    cases.push(b"GZL1 but not really".to_vec());
    cases.push(Vec::new());
    for bytes in cases {
        let stored = bytes.len();
        let (outcome, largest) = download_tampered(&manager, &bucket, &pack_key, bytes);
        assert_rejected(&outcome, largest, stored);
    }
}

#[test]
fn at_rest_damage_is_caught_by_the_ledger_when_verification_is_on() {
    // With verification on the wire crc goes first: any change to the
    // stored pack, payload bytes included, exhausts the re-fetch budget.
    let (manager, bucket, pack_key) = staged(true);
    let pack = bucket.get(&pack_key).unwrap();
    for at in [0, 5, 20, pack.len() / 2, pack.len() - 1] {
        let mut p = pack.clone();
        p[at] ^= 0x04;
        let (outcome, largest) = download_tampered(&manager, &bucket, &pack_key, p);
        assert_rejected(&outcome, largest, pack.len());
    }
}

#[test]
fn in_flight_damage_heals_through_the_refetch_budget() {
    // The directory is damaged on the first read only (no ledger check:
    // verification off), so it is the pack parser that reports
    // `Corrupted`, and the retry session that reads again.
    let bucket = S3Store::standalone("malformed-pack-flight");
    let plan = FaultPlan::new(3).rule(
        FaultRule::new(OpFilter::Get, Trigger::OpIndex(0), FaultKind::Corrupt).on_keys("/in/"),
    );
    let chaos = Arc::new(ChaosStore::new(Arc::new(bucket.clone()), plan));
    let manager = TransferManager::new(
        Arc::clone(&chaos) as StoreHandle,
        TransferConfig {
            min_compression_size: usize::MAX,
            verify_integrity: false,
            retry: RetryPolicy::default().without_backoff(),
            ..TransferConfig::default()
        },
    );
    // Empty payloads: the pack is all header, so the flipped bit cannot
    // land anywhere the parser does not look.
    let items: Vec<(String, Vec<u8>)> =
        member_keys().into_iter().map(|k| (k, Vec::new())).collect();
    manager.upload(items).unwrap();
    let (payloads, report) = manager.download(member_keys()).unwrap();
    assert!(payloads.iter().all(|(_, p)| p.is_empty()));
    assert_eq!(chaos.stats().corruptions, 1);
    assert_eq!(report.total_refetches(), 1, "healed by one re-fetch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Bit flips and overwritten words anywhere in the stored pack:
    /// `Corrupted`, or — when the directory still adds up, as it does
    /// when only payload bytes changed — one buffer per key, cut from the
    /// bytes present. Never a panic, never an oversized reservation.
    #[test]
    fn random_damage_never_panics(
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        word in (any::<bool>(), any::<usize>(), any::<u32>()),
    ) {
        let (manager, bucket, pack_key) = staged(false);
        let mut pack = bucket.get(&pack_key).unwrap();
        for (at, mask) in flips {
            let at = at % pack.len();
            pack[at] ^= mask;
        }
        if let (true, at, value) = word {
            let at = at % (pack.len() - 4);
            pack[at..at + 4].copy_from_slice(&value.to_le_bytes());
        }
        let stored = pack.len();
        let (outcome, largest) = download_tampered(&manager, &bucket, &pack_key, pack);
        match outcome {
            Ok(payloads) => {
                prop_assert_eq!(payloads.len(), MEMBERS);
                prop_assert!(payloads.iter().map(Vec::len).sum::<usize>() <= stored);
            }
            Err(e) => prop_assert!(matches!(e, StorageError::Corrupted(_)), "{:?}", e),
        }
        prop_assert!(largest <= 2 * stored + SLACK, "{} bytes reserved", largest);
    }
}

const REGION: &str = "jobs/region-00c0ffee";
const OUTPUTS: [&str; 3] = ["out/y", "out/z", "out/flags"];

/// A manager that has staged three outputs of [`REGION`] and published
/// their commit manifest; returns the manifest's key with it.
fn committed(verify: bool) -> (TransferManager, S3Store, String) {
    let bucket = S3Store::standalone("malformed-manifest");
    let manager = TransferManager::new(
        Arc::new(bucket.clone()),
        TransferConfig {
            min_compression_size: usize::MAX,
            verify_integrity: verify,
            retry: RetryPolicy::default().without_backoff(),
            ..TransferConfig::default()
        },
    );
    let items: Vec<(String, Vec<u8>)> = OUTPUTS
        .iter()
        .enumerate()
        .map(|(i, name)| (TransferManager::staged_key(REGION, name), member(i)))
        .collect();
    manager.upload(items).unwrap();
    let names: Vec<String> = OUTPUTS.iter().map(|n| n.to_string()).collect();
    let manifest = manager.publish_manifest(REGION, &names).unwrap();
    assert_eq!(manifest.entries.len(), OUTPUTS.len());
    (manager, bucket, TransferManager::manifest_key(REGION))
}

/// Read the manifest with the stored object replaced by `bytes`: the
/// names it listed (or the error) and the largest allocation granted.
fn read_tampered(
    manager: &TransferManager,
    bucket: &S3Store,
    key: &str,
    bytes: Vec<u8>,
) -> (Result<Vec<String>, StorageError>, usize) {
    bucket.put(key, bytes).unwrap();
    LARGEST.with(|l| l.set(0));
    let outcome = manager.read_manifest(REGION);
    let largest = LARGEST.with(Cell::get);
    (
        outcome.map(|m| m.entries.into_iter().map(|e| e.name).collect()),
        largest,
    )
}

/// The manifest is line-oriented text closed by an `end <count> <crc>`
/// line, so damage reads back as `Corrupted` — or, should a flip slip
/// past the closing crc, as a manifest of no more entries than lines
/// present.
fn assert_manifest_law(
    outcome: &Result<Vec<String>, StorageError>,
    largest: usize,
    bytes: &[u8],
    what: &str,
) {
    match outcome {
        Ok(names) => {
            let lines = bytes
                .split(|b| *b == b'\n')
                .filter(|l| !l.is_empty())
                .count();
            assert!(names.len() <= lines, "{what}: {names:?} from {lines} lines");
        }
        Err(e) => assert!(matches!(e, StorageError::Corrupted(_)), "{what}: {e:?}"),
    }
    assert!(
        largest <= 2 * bytes.len() + SLACK,
        "{what}: {largest} bytes reserved for a {}-byte manifest",
        bytes.len()
    );
}

#[test]
fn the_intact_manifest_reads_back() {
    let (manager, bucket, key) = committed(false);
    let good = bucket.get(&key).unwrap();
    let (outcome, _) = read_tampered(&manager, &bucket, &key, good);
    assert_eq!(outcome.unwrap(), OUTPUTS);
}

#[test]
fn truncated_and_bit_flipped_manifests_never_panic() {
    let (manager, bucket, key) = committed(false);
    let good = bucket.get(&key).unwrap();
    for cut in 0..good.len() {
        let bytes = good[..cut].to_vec();
        let (outcome, largest) = read_tampered(&manager, &bucket, &key, bytes.clone());
        assert_manifest_law(&outcome, largest, &bytes, "truncated");
    }
    for at in 0..good.len() {
        // 0x04 keeps the byte ASCII; 0x80 breaks the utf-8.
        for mask in [0x04u8, 0x80] {
            let mut bytes = good.clone();
            bytes[at] ^= mask;
            let (outcome, largest) = read_tampered(&manager, &bucket, &key, bytes.clone());
            assert_manifest_law(&outcome, largest, &bytes, "bit flip");
            if mask == 0x80 {
                assert!(outcome.is_err(), "non-utf-8 manifest accepted");
            }
        }
    }
}

#[test]
fn a_manifest_cut_anywhere_is_corruption() {
    // Without its closing line, a manifest cut after its second entry
    // reads as a well-formed manifest of two outputs.
    let (manager, bucket, key) = committed(false);
    let good = bucket.get(&key).unwrap();
    let line_ends = (0..good.len())
        .filter(|&at| good[at] == b'\n')
        .map(|at| at + 1);
    let cuts = line_ends
        .filter(|&end| end < good.len())
        .map(|cut| (cut, "line boundary"));
    for (cut, what) in cuts.chain((0..good.len()).map(|cut| (cut, "byte"))) {
        let (outcome, _) = read_tampered(&manager, &bucket, &key, good[..cut].to_vec());
        assert!(
            matches!(outcome, Err(StorageError::Corrupted(_))),
            "cut at {what} {cut} of {}: {outcome:?}",
            good.len()
        );
    }
}

#[test]
fn structurally_hostile_manifests_are_corruption() {
    let (manager, bucket, key) = committed(false);
    let cases: Vec<Vec<u8>> = vec![
        b"out/y\n".to_vec(),
        b"out/y\tjobs/region-00c0ffee/_tmp/out/y\n".to_vec(),
        b"out/y\tkey\tnot-hex!\n".to_vec(),
        b"out/y\tkey\t123456789\n".to_vec(),
        b"out/y\tkey\t\n".to_vec(),
        vec![0xff, 0xfe, 0x00, 0x9e],
        [
            b"out/y\tkey\t".to_vec(),
            vec![b'f'; 1 << 16],
            b"\n".to_vec(),
        ]
        .concat(),
    ];
    for bytes in cases {
        let (outcome, largest) = read_tampered(&manager, &bucket, &key, bytes.clone());
        assert!(
            matches!(outcome, Err(StorageError::Corrupted(_))),
            "{:?} -> {outcome:?}",
            String::from_utf8_lossy(&bytes[..bytes.len().min(40)])
        );
        assert_manifest_law(&outcome, largest, &bytes, "hostile");
    }
}

#[test]
fn any_change_to_the_manifest_is_caught_by_the_ledger_when_verification_is_on() {
    let (manager, bucket, key) = committed(true);
    let good = bucket.get(&key).unwrap();
    for at in [0, 3, good.len() / 2, good.len() - 1] {
        let mut bytes = good.clone();
        bytes[at] ^= 0x04;
        let (outcome, _) = read_tampered(&manager, &bucket, &key, bytes);
        assert!(
            matches!(outcome, Err(StorageError::Corrupted(_))),
            "{outcome:?}"
        );
    }
    let cut = good[..good.len() / 2].to_vec();
    let (outcome, _) = read_tampered(&manager, &bucket, &key, cut);
    assert!(
        matches!(outcome, Err(StorageError::Corrupted(_))),
        "{outcome:?}"
    );
}
