//! The transfer layer's object layout, from outside: whatever mix of
//! buffers a batch holds, callers get back exactly the `(key, payload)`
//! pairs they handed over, the store sees one op per *object*, and a
//! batch without two small buffers is written exactly as it always was.

use cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, LatencyStore, ObjectStore, OpFilter, PoolBuf,
    RetryPolicy, S3Store, StoreHandle, TransferConfig, TransferManager, Trigger,
};
use conformance::rng;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The layout rule's constant, restated: the raw-size cut of a pack
/// member. A pack itself has no cap.
const CUT: usize = 128 * 1024;

/// A manager over a store that counts its puts and gets.
fn counted_manager() -> (TransferManager, Arc<LatencyStore>, S3Store) {
    let bucket = S3Store::standalone("packing");
    let counted = Arc::new(LatencyStore::new(Arc::new(bucket.clone()), Duration::ZERO));
    let manager = TransferManager::new(
        Arc::clone(&counted) as StoreHandle,
        TransferConfig {
            retry: RetryPolicy::default().without_backoff(),
            ..TransferConfig::default()
        },
    );
    (manager, counted, bucket)
}

/// Store objects the layout rule gives a batch of buffers of raw
/// lengths `lens` that share one key directory: each buffer over the cut
/// is an object of its own, and the small ones are one pack between them
/// — or, when there is only one, an object of its own as well.
fn expected_objects(lens: &[usize]) -> usize {
    let small = lens.iter().filter(|&&len| len <= CUT).count();
    lens.len() - small + small.min(1)
}

/// Buffer `i` of a case: compressible or not by turns, `len` bytes.
fn payload(i: usize, len: usize, seed: u64) -> Vec<u8> {
    if i.is_multiple_of(2) {
        rng::bytes(len, seed + i as u64)
    } else {
        let mut p = rng::sparse_f32_bytes(len + 4, 0.05, seed + i as u64);
        p.truncate(len);
        p
    }
}

/// The sizes that matter, picked by `kind`, varied by `fine`: empty,
/// tiny, the benchmark's 64 KiB, the cut and its neighbours, far too
/// large to pack, and (two kinds in nine, so that most cases hold more
/// than one MiB of small buffers) a fan-in of 16–32 buffers of about
/// 64 KiB.
fn lens_of(kind: usize, fine: usize) -> Vec<usize> {
    match kind {
        0 => vec![0],
        1 => vec![1 + fine % 2_000],
        2 => vec![60_000 + fine % 10_000],
        3 => vec![CUT - 1],
        4 => vec![CUT],
        5 => vec![CUT + 1],
        6 => vec![200_000 + fine % 200_000],
        _ => (0..16 + fine % 17)
            .map(|j| 60_000 + fine.wrapping_add(j) % 10_000)
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Empty buffers, buffers at the cut ± 1, and small-buffer totals on
    /// both sides of one MiB (eight buffers at the cut, or a fan-in):
    /// both ways up and both ways down return every buffer bitwise, in
    /// request order, for one put and one get per object.
    #[test]
    fn any_mix_round_trips_with_one_op_per_object(
        sizes in proptest::collection::vec((0usize..9, any::<usize>()), 0..13),
        seed in any::<u64>(),
    ) {
        let lens: Vec<usize> =
            sizes.iter().flat_map(|&(kind, fine)| lens_of(kind, fine)).collect();
        let items: Vec<(String, Vec<u8>)> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (format!("job-0/in/v{i}"), payload(i, len, seed)))
            .collect();
        let objects = expected_objects(&lens);

        // upload, then download in reverse request order.
        let (manager, counted, bucket) = counted_manager();
        let up = manager.upload(items.clone()).unwrap();
        prop_assert_eq!(up.items.len(), objects);
        prop_assert_eq!(counted.put_count(), objects as u64);
        prop_assert_eq!(bucket.list("").len(), objects);
        prop_assert_eq!(up.raw_bytes(), lens.iter().sum::<usize>() as u64);
        let wanted: Vec<String> = items.iter().rev().map(|(k, _)| k.clone()).collect();
        let (back, down) = manager.download(wanted).unwrap();
        prop_assert_eq!(down.items.len(), objects);
        prop_assert_eq!(counted.get_count(), objects as u64);
        for ((key, want), (got_key, got)) in items.iter().rev().zip(&back) {
            prop_assert_eq!(got_key, key);
            prop_assert!(got == want, "{} changed on the way", key);
        }
        prop_assert_eq!(up.wire_bytes(), down.wire_bytes());

        // The fused pipeline lays the batch out the same way.
        let (manager, counted, bucket) = counted_manager();
        let (back, report) = manager.upload_fetch_pipelined(items.clone(), vec![], 2).unwrap();
        prop_assert_eq!((report.items.len(), report.put_objects), (objects, objects));
        prop_assert_eq!((counted.put_count(), counted.get_count()), (objects as u64, objects as u64));
        prop_assert_eq!(bucket.list("").len(), objects);
        prop_assert_eq!(back.len(), items.len());
        for ((key, want), (got_key, got)) in items.iter().zip(&back) {
            prop_assert_eq!(got_key, key);
            prop_assert!(got == want, "{} changed on the way", key);
        }
        // Staged by the pipeline, read by key later (an upload-cache hit).
        if let Some((key, want)) = items.last() {
            let (again, _) = manager
                .upload_fetch_pipelined(Vec::<(String, Vec<u8>)>::new(), vec![key.clone()], 2)
                .unwrap();
            prop_assert!(&again[0].1 == want);
        }
    }
}

type Batch = Vec<(String, Vec<u8>)>;

/// The batches of the golden fixture: none holds two small buffers, so
/// each buffer must be the object the previous release wrote for it.
fn golden_batches() -> Vec<(&'static str, Batch)> {
    let dense = |len, seed| rng::bytes(len, seed);
    let sparse = |len, seed| rng::sparse_f32_bytes(len, 0.05, seed);
    vec![
        ("lone-small", vec![("g/in/a".to_string(), sparse(4_096, 1))]),
        ("lone-empty", vec![("g/in/e".to_string(), Vec::new())]),
        (
            "small-among-large",
            vec![
                ("g/in/big0".to_string(), sparse(300_000, 2)),
                ("g/in/small".to_string(), sparse(65_536, 3)),
                ("g/in/big1".to_string(), dense(CUT + 1, 4)),
            ],
        ),
        (
            "streamed",
            vec![("g/out/y".to_string(), sparse(1_500_000, 5))],
        ),
        (
            "small-per-directory",
            vec![
                ("g/in/x".to_string(), sparse(2_000, 6)),
                ("g/out/x".to_string(), sparse(2_000, 7)),
            ],
        ),
    ]
}

/// `batch key length crc32` of every object each golden batch leaves in
/// the store, through `upload` and through `upload_fetch_pipelined`.
fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, batch) in golden_batches() {
        for pipelined in [false, true] {
            let (manager, _, bucket) = counted_manager();
            if pipelined {
                manager
                    .upload_fetch_pipelined(batch.clone(), vec![], 2)
                    .unwrap();
            } else {
                manager.upload(batch.clone()).unwrap();
            }
            for key in bucket.list("") {
                let bytes = bucket.get(&key).unwrap();
                lines.push(format!(
                    "{name}{} {key} {} {:08x}",
                    if pipelined { "+fetch" } else { "" },
                    bytes.len(),
                    gzlite::crc32(&bytes)
                ));
            }
        }
    }
    lines
}

#[test]
fn batches_without_two_small_buffers_are_written_as_before() {
    let golden: Vec<&str> = include_str!("golden/parent_objects.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .collect();
    let lines = golden_lines();
    assert_eq!(
        lines,
        golden,
        "objects differ from the previous release's:\n{}",
        lines.join("\n")
    );
}

/// `count` buffers of `len` bytes under `job-0/in/`, drawn by [`payload`].
fn fan_in(count: usize, len: usize, seed: u64) -> Batch {
    (0..count)
        .map(|i| (format!("job-0/in/x{i}"), payload(i, len, seed)))
        .collect()
}

/// The one object `bucket` holds, which must be a single `GZL1` frame —
/// neither raw nor cut into a `GZS1` chunked stream.
fn assert_one_frame(bucket: &S3Store) {
    let keys = bucket.list("");
    assert_eq!(keys.len(), 1, "one object: {keys:?}");
    let stored = bucket.get(&keys[0]).unwrap();
    assert_eq!(stored[..4], gzlite::MAGIC, "{} is not one frame", keys[0]);
    assert!(!gzlite::is_stream(&stored));
}

fn assert_round_trip(items: &Batch, back: &[(String, PoolBuf)]) {
    assert_eq!(back.len(), items.len());
    for ((key, want), (got_key, got)) in items.iter().zip(back) {
        assert_eq!(got_key, key);
        assert!(got[..] == want[..], "{key} changed on the way");
    }
}

/// The benchmark's fan-in: 32 inputs of 64 KiB, two MiB of small
/// buffers in one directory, cost one put and one get — one round trip
/// — both through `upload` + `download` and through the fused pipeline.
#[test]
fn a_batch_of_many_small_buffers_costs_one_round_trip() {
    let items = fan_in(32, 64 * 1024, 2017);
    let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();

    let (manager, counted, bucket) = counted_manager();
    manager.upload(items.clone()).unwrap();
    let (back, _) = manager.download(keys).unwrap();
    assert_eq!((counted.put_count(), counted.get_count()), (1, 1));
    assert_one_frame(&bucket);
    assert_round_trip(&items, &back);

    let (manager, counted, bucket) = counted_manager();
    let (back, _) = manager
        .upload_fetch_pipelined(items.clone(), vec![], 2)
        .unwrap();
    assert_eq!((counted.put_count(), counted.get_count()), (1, 1));
    assert_one_frame(&bucket);
    assert_round_trip(&items, &back);
}

/// Eight MiB of small buffers — 64 members at the cut — are still one
/// object, sealed as one frame, and come back bitwise.
#[test]
fn an_eight_mib_batch_of_small_buffers_is_one_frame() {
    let items = fan_in(64, CUT, 7);
    let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();
    let (manager, counted, bucket) = counted_manager();
    let up = manager.upload(items.clone()).unwrap();
    assert_eq!(up.items.len(), 1);
    assert_eq!(up.raw_bytes(), 8 << 20);
    assert_one_frame(&bucket);
    let (back, _) = manager.download(keys).unwrap();
    assert_eq!((counted.put_count(), counted.get_count()), (1, 1));
    assert_round_trip(&items, &back);
}

/// Upload and read back `items` through two transient puts and a
/// corrupt get, scoped to `/in/` like the conformance plans: the pack
/// lives in its members' directory, so the rules hit it; every member
/// still comes back bitwise, and each injected fault is one counted
/// retry — a whole-pack re-fetch included.
fn assert_pack_heals_under_faults(items: Batch) {
    let plan = FaultPlan::new(2017)
        .rule(
            FaultRule::new(OpFilter::Put, Trigger::FirstN(2), FaultKind::Transient).on_keys("/in/"),
        )
        .rule(
            FaultRule::new(OpFilter::Get, Trigger::OpIndex(0), FaultKind::Corrupt).on_keys("/in/"),
        );
    let bucket = S3Store::standalone("packing-chaos");
    let chaos = Arc::new(ChaosStore::new(Arc::new(bucket.clone()), plan));
    let manager = TransferManager::new(
        Arc::clone(&chaos) as StoreHandle,
        TransferConfig {
            retry: RetryPolicy::default().without_backoff(),
            ..TransferConfig::default()
        },
    );
    let (back, report) = manager
        .upload_fetch_pipelined(items.clone(), vec![], 2)
        .unwrap();
    assert_eq!(bucket.list("").len(), 1, "small buffers, one object");
    assert_round_trip(&items, &back);
    let stats = chaos.stats();
    assert_eq!((stats.transient, stats.corruptions), (2, 1), "{stats:?}");
    assert_eq!(u64::from(report.total_retries()), stats.transient);
    assert_eq!(u64::from(report.total_refetches()), stats.corruptions);
}

#[test]
fn a_pack_heals_under_faults_scoped_to_its_directory() {
    assert_pack_heals_under_faults(fan_in(6, 20_000, 99));
}

#[test]
fn a_fan_in_sized_pack_heals_under_faults_scoped_to_its_directory() {
    assert_pack_heals_under_faults(fan_in(32, 64 * 1024, 99));
}

/// A decoded payload enters the byte pool when the caller drops it, and
/// the pool shelves a buffer by its capacity: one that grew past its
/// length while decoding would land a class above every checkout of its
/// size and pile up there. The payload is shaped like an XOR delta patch
/// — 192 KiB of zeros, one byte set every 16 KiB — so it compresses far
/// more than 64x, the case in which the decoder's output outgrows its
/// first reservation by doubling.
#[test]
fn a_downloaded_payload_holds_no_spare_capacity() {
    let (manager, _, _) = counted_manager();
    let mut sparse = vec![0u8; 192 * 1024];
    for (i, byte) in sparse.iter_mut().step_by(16 * 1024).enumerate() {
        *byte = 1 + i as u8;
    }
    let key = "job/in/patch".to_string();
    manager.upload(vec![(key.clone(), sparse.clone())]).unwrap();
    let (payloads, _) = manager.download(vec![key]).unwrap();
    let (_, payload) = &payloads[0];
    assert_eq!(payload[..], sparse[..]);
    assert_eq!(payload.capacity(), payload.len());
}
