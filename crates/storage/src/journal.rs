//! Write-ahead region journal: per-tile completion markers in the
//! object store.
//!
//! PR 3 made mid-flight failures survivable but wasteful — one tripped
//! breaker discards every completed tile and re-executes the whole
//! region on the host. The tiling pass already cuts a region into
//! independent tiles, which makes the tile the natural recovery granule
//! (OMPC recovers per-task, Spark per-partition, for the same reason).
//! As each tile's output is collected, the driver appends a marker
//! object carrying the serialized tile result; a later run of the
//! *same* region finds the markers and dispatches only the unfinished
//! tiles.
//!
//! "Same region" is decided by a [`RegionFingerprint`] — a
//! deterministic hash of the region name, every loop's bounds, and the
//! crc32 of every input buffer (from the transfer integrity ledger).
//! Any drift in code shape or input data changes the fingerprint, so a
//! journal can never resurrect stale results into a different
//! computation. The tile *plan* is not part of the identity: markers
//! carry their tile's iteration hull, and the restore path replays a
//! marker only where the current plan cuts the same hull, so journals
//! survive a `tile-size` re-tune between runs.
//!
//! Marker writes are advisory, not transactional: they ride a single
//! background writer thread (off the region's critical path, and — one
//! thread, sequential puts — deterministic under a seeded
//! [`ChaosStore`](crate::ChaosStore) op schedule), they are written at
//! most once with no retry, and a failed write only means that tile
//! will be re-executed on resume. Output *correctness* never depends on
//! the journal; that is the manifest commit's job
//! (`TransferManager::publish_manifest`). Each marker frames its
//! payload with a crc32 so a torn or bit-flipped marker is detected on
//! read and simply ignored.

use crate::StoreHandle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Deterministic identity of one offloaded region execution: FNV-1a 64
/// over the region name, loop bounds, and input crc32s. Equal
/// fingerprints ⇒ the journal's tile markers are replayable (subject to
/// the per-marker hull check against the current tile plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionFingerprint {
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl RegionFingerprint {
    /// Start a fingerprint from the region's name.
    pub fn new(region: &str) -> RegionFingerprint {
        let mut fp = RegionFingerprint { hash: FNV_OFFSET };
        fp.feed(b"region");
        fp.feed(region.as_bytes());
        fp
    }

    /// Fold one loop's shape in: the trip count. The *tile plan* is
    /// deliberately excluded — re-tiling the same loop (a different
    /// `tile-size` knob, a resized cluster) must land on the same
    /// journal so completed work survives the re-plan. Plan safety is
    /// the markers' job: each one carries its tile's iteration hull and
    /// is only replayed where the current plan cuts the same hull.
    pub fn add_loop(&mut self, trip_count: usize) {
        self.feed(b"loop");
        self.feed(&(trip_count as u64).to_le_bytes());
    }

    /// Fold one input buffer in: name plus content crc32 (from the
    /// transfer integrity ledger). Feed inputs in a fixed order.
    pub fn add_input(&mut self, name: &str, crc: u32) {
        self.feed(b"input");
        self.feed(name.as_bytes());
        self.feed(&crc.to_le_bytes());
    }

    /// 16-digit lowercase hex form, used as the journal key segment.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }

    fn feed(&mut self, bytes: &[u8]) {
        // Length-prefix every field so ("ab","c") ≠ ("a","bc").
        for b in (bytes.len() as u64)
            .to_le_bytes()
            .iter()
            .chain(bytes.iter())
        {
            self.hash ^= u64::from(*b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }
}

enum WriterMsg {
    Record { key: String, frame: Vec<u8> },
}

struct Writer {
    tx: Sender<WriterMsg>,
    handle: JoinHandle<()>,
}

/// Append-only journal for one region fingerprint, backed by any
/// [`ObjectStore`](crate::ObjectStore). Markers live under
/// `<prefix>/journal/<fingerprint>/loop-<j>/tile-<k>` — outside any
/// per-job prefix, so storage hygiene for a finished job never deletes
/// the evidence a crashed one left behind.
pub struct RegionJournal {
    store: StoreHandle,
    root: String,
    writer: Mutex<Option<Writer>>,
    errors: Arc<AtomicU64>,
}

impl RegionJournal {
    /// Open (or create) the journal for `fp` under `prefix` (the
    /// store-wide key prefix, possibly empty).
    pub fn open(store: StoreHandle, prefix: &str, fp: &RegionFingerprint) -> RegionJournal {
        let root = if prefix.is_empty() {
            format!("journal/{}", fp.hex())
        } else {
            format!("{prefix}/journal/{}", fp.hex())
        };
        RegionJournal {
            store,
            root,
            writer: Mutex::new(None),
            errors: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The key prefix all of this journal's markers live under.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Tile payloads already journaled for loop `loop_idx`, keyed by
    /// tile index. Markers that fail to fetch or fail their crc check
    /// are skipped — the tile just re-executes. Never errors: an
    /// unreadable journal degrades to "resume nothing".
    pub fn completed(&self, loop_idx: usize) -> Vec<(usize, Vec<u8>)> {
        let dir = format!("{}/loop-{loop_idx}/", self.root);
        let mut tiles = Vec::new();
        for key in self.store.list(&dir) {
            let Some(tile) = key
                .strip_prefix(&dir)
                .and_then(|rest| rest.strip_prefix("tile-"))
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            let Ok(frame) = self.store.get(&key) else {
                continue;
            };
            if let Some(payload) = unframe(&frame) {
                tiles.push((tile, payload));
            }
        }
        tiles.sort_by_key(|(tile, _)| *tile);
        tiles
    }

    /// Queue a completion marker for `(loop_idx, tile)`. Returns
    /// immediately; the put happens on the journal's single background
    /// writer thread, in submission order.
    pub fn record(&self, loop_idx: usize, tile: usize, payload: Vec<u8>) {
        let key = format!("{}/loop-{loop_idx}/tile-{tile:05}", self.root);
        let frame = frame(payload);
        let mut guard = self.writer.lock().unwrap();
        if guard.is_none() {
            *guard = Some(self.spawn_writer());
        }
        // The writer only goes away between regions (drain/drop), never
        // while records are still being produced.
        let _ = guard
            .as_ref()
            .expect("journal writer present")
            .tx
            .send(WriterMsg::Record { key, frame });
    }

    /// Wait for every queued marker to land (or fail), then return the
    /// cumulative write-error count. Safe to call with no writer
    /// running; `record` after `drain` starts a fresh writer.
    pub fn drain(&self) -> u64 {
        let writer = self.writer.lock().unwrap().take();
        if let Some(Writer { tx, handle }) = writer {
            drop(tx); // close the channel so the thread exits when empty
            let _ = handle.join();
        }
        self.errors.load(Ordering::Relaxed)
    }

    /// Delete every marker under this journal's root — called after the
    /// region commits, when the evidence is no longer needed. Best
    /// effort: a failed delete leaves a marker the *next* fingerprint
    /// match would resume from, which is harmless (same region, same
    /// inputs, same tile results).
    pub fn clear(&self) {
        for key in self.store.list(&self.root) {
            let _ = self.store.delete(&key);
        }
    }

    fn spawn_writer(&self) -> Writer {
        let (tx, rx) = channel::<WriterMsg>();
        let store = Arc::clone(&self.store);
        let errors = Arc::clone(&self.errors);
        let handle = std::thread::Builder::new()
            .name("region-journal".into())
            .spawn(move || {
                while let Ok(WriterMsg::Record { key, frame }) = rx.recv() {
                    if store.put(&key, frame).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
            .expect("spawn journal writer");
        Writer { tx, handle }
    }
}

impl Drop for RegionJournal {
    fn drop(&mut self) {
        // Never leak the writer thread; pending markers get their
        // chance to land even when the caller forgot to drain.
        self.drain();
    }
}

/// Marker wire format: `crc32(payload) LE ‖ payload`.
fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut framed = Vec::with_capacity(payload.len() + 4);
    framed.extend_from_slice(&gzlite::crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    framed
}

fn unframe(frame: &[u8]) -> Option<Vec<u8>> {
    if frame.len() < 4 {
        return None;
    }
    let stored = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    let payload = &frame[4..];
    (gzlite::crc32(payload) == stored).then(|| payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosStore, FaultKind, FaultPlan, FaultRule, OpFilter, Trigger};
    use crate::s3::S3Store;

    fn fp() -> RegionFingerprint {
        let mut fp = RegionFingerprint::new("axpy");
        fp.add_loop(1024);
        fp.add_input("x", 0xDEAD_BEEF);
        fp
    }

    #[test]
    fn fingerprint_is_deterministic_and_sensitive() {
        assert_eq!(fp().hex(), fp().hex());
        assert_eq!(fp().hex().len(), 16);
        let mut other = RegionFingerprint::new("axpy");
        other.add_loop(1024);
        other.add_input("x", 0xDEAD_BEEE); // one input bit of crc differs
        assert_ne!(fp().hex(), other.hex());
        let mut longer = RegionFingerprint::new("axpy");
        longer.add_loop(1025); // different trip count
        longer.add_input("x", 0xDEAD_BEEF);
        assert_ne!(fp().hex(), longer.hex());
    }

    #[test]
    fn record_drain_completed_roundtrip() {
        let store: StoreHandle = Arc::new(S3Store::standalone("journal"));
        let journal = RegionJournal::open(Arc::clone(&store), "jobs", &fp());
        journal.record(0, 3, vec![3; 9]);
        journal.record(0, 1, vec![1; 9]);
        journal.record(2, 0, vec![7; 4]);
        assert_eq!(journal.drain(), 0);
        assert_eq!(
            journal.completed(0),
            vec![(1, vec![1; 9]), (3, vec![3; 9])],
            "sorted by tile, loops kept apart"
        );
        assert_eq!(journal.completed(2), vec![(0, vec![7; 4])]);
        assert!(journal.completed(1).is_empty());
        assert!(store.list("jobs/journal/").len() == 3, "lives under prefix");
        journal.clear();
        assert!(journal.completed(0).is_empty());
        assert!(store.list("jobs/journal/").is_empty());
    }

    #[test]
    fn corrupt_marker_is_skipped_not_replayed() {
        let store: StoreHandle = Arc::new(S3Store::standalone("journal"));
        let journal = RegionJournal::open(Arc::clone(&store), "", &fp());
        journal.record(0, 0, vec![5; 16]);
        journal.record(0, 1, vec![6; 16]);
        journal.drain();
        let key = format!("{}/loop-0/tile-00001", journal.root());
        let mut bytes = store.get(&key).unwrap();
        bytes[7] ^= 0x10;
        store.put(&key, bytes).unwrap();
        assert_eq!(
            journal.completed(0),
            vec![(0, vec![5; 16])],
            "the damaged marker must not resurrect a bad tile"
        );
    }

    #[test]
    fn kill_mid_journal_preserves_exactly_the_landed_markers() {
        // The checkpoint/resume scenario: the store dies on the 3rd
        // marker put. Because one writer thread puts sequentially, the
        // surviving marker count is exactly the op index — the
        // determinism the resume test leans on.
        let inner = S3Store::standalone("journal");
        let plan = FaultPlan::new(42).rule(
            FaultRule::new(OpFilter::Put, Trigger::OpIndex(2), FaultKind::Kill).on_keys("journal/"),
        );
        let chaos = Arc::new(ChaosStore::new(Arc::new(inner.clone()), plan));
        let journal = RegionJournal::open(chaos, "", &fp());
        for tile in 0..6 {
            journal.record(0, tile, vec![tile as u8; 8]);
        }
        assert!(journal.drain() >= 1, "the kill surfaces as write errors");
        // A fresh journal over the revived store resumes from exactly
        // the two landed markers.
        let after = RegionJournal::open(Arc::new(inner), "", &fp());
        let tiles: Vec<usize> = after.completed(0).into_iter().map(|(t, _)| t).collect();
        assert_eq!(tiles, vec![0, 1]);
    }
}
