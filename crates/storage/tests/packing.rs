//! The transfer layer's object layout, from outside: whatever mix of
//! buffers a batch holds, callers get back exactly the `(key, payload)`
//! pairs they handed over, the store sees one op per *object*, and a
//! batch without two small buffers is written exactly as it always was.

use cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, LatencyStore, ObjectStore, OpFilter, RetryPolicy,
    S3Store, StoreHandle, TransferConfig, TransferManager, Trigger,
};
use conformance::rng;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The layout rule's constants, restated: the raw-size cut of a pack
/// member and the cap a pack stays strictly under (`stream_threshold`).
const CUT: usize = 128 * 1024;
const CAP: usize = 1024 * 1024;

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

/// Store objects the layout rule gives a batch of `(key, raw length)`
/// buffers that share one key directory: a small buffer joins the open
/// pack while the pack (8-byte header, `12 + name` bytes of directory per
/// member, payloads) stays under the cap, else opens the next.
fn expected_objects(items: &[(String, usize)]) -> usize {
    let mut objects = 0;
    let mut open: Option<usize> = None;
    for (key, len) in items {
        let name = key.rsplit('/').next().unwrap();
        let cost = 12 + name.len() + len;
        if *len <= CUT && 8 + cost < CAP {
            match open {
                Some(bytes) if bytes + cost < CAP => {
                    open = Some(bytes + cost);
                    continue;
                }
                _ => open = Some(8 + cost),
            }
        }
        objects += 1;
    }
    objects
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

/// One of the sizes that matter, picked by `kind`, varied by `fine`:
/// empty, tiny, the benchmark's 64 KiB, the cut and its neighbours, and
/// far too large to pack.
fn len_of(kind: usize, fine: usize) -> usize {
    match kind {
        0 => 0,
        1 => 1 + fine % 2_000,
        2 => 60_000 + fine % 10_000,
        3 => CUT - 1,
        4 => CUT,
        5 => CUT + 1,
        _ => 200_000 + fine % 200_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Empty buffers, buffers at the cut ± 1, totals on both sides of the
    /// pack cap (eight buffers at the cut are one MiB): both ways up and
    /// both ways down return every buffer bitwise, in request order, for
    /// one put and one get per object.
    #[test]
    fn any_mix_round_trips_with_one_op_per_object(
        sizes in proptest::collection::vec((0usize..7, any::<usize>()), 0..11),
        seed in any::<u64>(),
    ) {
        let lens: Vec<usize> = sizes.iter().map(|&(kind, fine)| len_of(kind, fine)).collect();
        let items: Vec<(String, Vec<u8>)> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (format!("job-0/in/v{i}"), payload(i, len, seed)))
            .collect();
        let shape: Vec<(String, usize)> =
            items.iter().map(|(k, p)| (k.clone(), p.len())).collect();
        let objects = expected_objects(&shape);

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

#[test]
fn a_pack_heals_under_faults_scoped_to_its_directory() {
    // Transient puts and a corrupt get, scoped to `/in/` like the
    // conformance plans: the pack lives in its members' directory, so the
    // rules hit it; every member still comes back bitwise, and each
    // injected fault is one counted retry.
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
    let items: Vec<(String, Vec<u8>)> = (0..6)
        .map(|i| (format!("job-0/in/x{i}"), payload(i, 20_000, 99)))
        .collect();
    let (back, report) = manager
        .upload_fetch_pipelined(items.clone(), vec![], 2)
        .unwrap();
    assert_eq!(bucket.list("").len(), 1, "six small buffers, one object");
    for ((key, want), (got_key, got)) in items.iter().zip(&back) {
        assert_eq!(got_key, key);
        assert!(got == want, "{key} changed on the way");
    }
    let stats = chaos.stats();
    assert_eq!((stats.transient, stats.corruptions), (2, 1), "{stats:?}");
    assert_eq!(u64::from(report.total_retries()), stats.transient);
    assert_eq!(u64::from(report.total_refetches()), stats.corruptions);
}
