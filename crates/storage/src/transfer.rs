//! The host-side transfer engine of the cloud plug-in.
//!
//! Per §III-A of the paper: "Our cloud plugin automatically creates a new
//! thread for transmitting each offloaded data (possibly after gzip
//! compression if the data size is larger than a predefined minimal
//! compression size)." This module keeps that shape per *store object*,
//! with one engine for every batch (`TransferManager::run_batch`):
//! workers seal objects — each one `GZL1` frame, or raw when the codec's
//! probe finds nothing to gain, whatever its size — and a bounded pool
//! runs their puts and gets one store op at a time, with transparent
//! decompression on the way back (a chunked `GZS1` stream that an older
//! build left in the store still decodes). It reports per-object raw/wire
//! byte counts and timings, the raw material of the Fig. 5
//! "host-target communication" bars.
//!
//! An object is usually one buffer. The exception is the one layout
//! decision this module makes next to the codec's: the buffers of a batch
//! that are small enough for a store round trip to cost more than their
//! bytes travel together as one pack (`TransferManager::layout` has the
//! rule, `pack.rs` the format). Callers never see it: they hand over and
//! get back the same logical `(key, payload)` pairs either way.
//!
//! Every store operation runs under a [`RetryPolicy`] session:
//! exponential backoff with decorrelated jitter on transient faults,
//! per-op/whole-transfer deadlines, and a separate bounded re-fetch
//! budget for corruption. Downloads are verified end to end: the wire
//! bytes of every put are recorded in a crc32 ledger (falling back to the
//! backend's own [`checksum`](ObjectStore::checksum) for objects staged
//! elsewhere) and checked on get before decompression — a mismatch
//! surfaces as retryable [`StorageError::Corrupted`], never as silent
//! bad data.

use crate::pack;
use crate::pool::{BytePool, PoolBuf};
use crate::retry::{RetryPolicy, RetryStats};
use crate::{StorageError, StoreHandle};
use gzlite::MAGIC;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of the transfer engine.
#[derive(Debug, Clone)]
pub struct TransferConfig {
    /// Compress buffers at least this large (bytes). `usize::MAX`
    /// disables compression. A compressed object is one `GZL1` frame at
    /// any size.
    pub min_compression_size: usize,
    /// Worker threads fanned over the chunks of one chunked `GZS1`
    /// object, which older builds wrote for buffers of 1 MiB and more,
    /// when it is read back. 0 or 1 = sequential.
    pub codec_threads: usize,
    /// Retry/backoff/deadline policy applied to every store operation.
    pub retry: RetryPolicy,
    /// Verify the crc32 of the wire bytes on every download against the
    /// upload-time ledger (or the backend checksum). Mismatches surface
    /// as retryable [`StorageError::Corrupted`]. No configuration file
    /// reaches this — a `CloudDevice` always verifies; `false` is the
    /// seam the decoder-law tests (`tests/malformed_pack.rs`) use to put
    /// damaged bytes in front of the pack and manifest parsers, which
    /// the crc would otherwise turn away first.
    pub verify_integrity: bool,
    /// The I/O width of [`TransferManager::upload`] and
    /// [`TransferManager::download`] (at most this many store ops in
    /// flight), and the most objects any batch seals at once.
    pub max_threads: usize,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            // The reference OmpCloud uses a ~1 KiB floor: tiny buffers are
            // cheaper to send raw than to compress.
            min_compression_size: 1024,
            codec_threads: 4,
            retry: RetryPolicy::default(),
            verify_integrity: true,
            max_threads: 16,
        }
    }
}

impl TransferConfig {
    /// The wire-encoding policy this config hands the codec — the single
    /// decision point for raw or compressed (see [`gzlite::plan_wire`]).
    pub fn wire_policy(&self) -> gzlite::WirePolicy {
        gzlite::WirePolicy {
            min_compression_size: self.min_compression_size,
            threads: self.codec_threads.max(1),
        }
    }
}

/// Outcome of one store object's transfer: a buffer, or a pack of
/// small ones (see `TransferManager::layout`).
#[derive(Debug, Clone, PartialEq)]
pub struct ItemReport {
    /// Storage key of the object.
    pub key: String,
    /// Uncompressed size of the buffer(s) it carried.
    pub raw_bytes: u64,
    /// Bytes that actually hit the store.
    pub wire_bytes: u64,
    /// Whether the payload was compressed.
    pub compressed: bool,
    /// Time spent working on this item: compression, store op(s),
    /// verification and decompression — not time it waited for a worker.
    pub seconds: f64,
    /// Transient-fault retries performed.
    pub retries: u32,
    /// Corruption-triggered re-fetches performed.
    pub refetches: u32,
    /// Ops that overran their deadline (slow successes included).
    pub timeouts: u32,
    /// Time spent sleeping in retry backoff.
    pub backoff_s: f64,
}

impl ItemReport {
    fn new(key: String, raw_bytes: u64, wire_bytes: u64, compressed: bool) -> ItemReport {
        ItemReport {
            key,
            raw_bytes,
            wire_bytes,
            compressed,
            seconds: 0.0,
            retries: 0,
            refetches: 0,
            timeouts: 0,
            backoff_s: 0.0,
        }
    }

    fn fold_stats(&mut self, stats: RetryStats) {
        self.retries += stats.retries;
        self.refetches += stats.refetches;
        self.timeouts += stats.timeouts;
        self.backoff_s += stats.backoff.as_secs_f64();
    }
}

/// Aggregate outcome of a batch transfer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferReport {
    /// Per-object details.
    pub items: Vec<ItemReport>,
    /// Wall time of the whole batch (threads overlap, so this is less
    /// than the sum of item times).
    pub wall_seconds: f64,
}

impl TransferReport {
    /// Total uncompressed bytes.
    pub fn raw_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.raw_bytes).sum()
    }

    /// Total bytes on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.wire_bytes).sum()
    }

    /// Achieved compression ratio (wire/raw); 1.0 when nothing shrank.
    pub fn ratio(&self) -> f64 {
        let raw = self.raw_bytes();
        if raw == 0 {
            1.0
        } else {
            self.wire_bytes() as f64 / raw as f64
        }
    }

    /// Transient-fault retries across the batch.
    pub fn total_retries(&self) -> u32 {
        self.items.iter().map(|i| i.retries).sum()
    }

    /// Corruption re-fetches across the batch.
    pub fn total_refetches(&self) -> u32 {
        self.items.iter().map(|i| i.refetches).sum()
    }

    /// Deadline overruns across the batch.
    pub fn total_timeouts(&self) -> u32 {
        self.items.iter().map(|i| i.timeouts).sum()
    }

    /// Seconds slept in retry backoff across the batch.
    pub fn total_backoff_s(&self) -> f64 {
        self.items.iter().map(|i| i.backoff_s).sum()
    }
}

/// Outcome of a fused two-stage pipeline run ([`TransferManager::upload_fetch_pipelined`]).
///
/// It is a [`TransferReport`] — which it dereferences to, for the
/// per-object items, the wall time and the byte/retry totals — plus the
/// per-stage busy accounting only a pipeline has.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineReport {
    /// Per-object details — uploaded-and-fetched objects first (in
    /// request order), then fetch-only ones — and the wall time of the
    /// whole pipeline.
    pub transfer: TransferReport,
    /// How many of `items` were written by this run: the first
    /// `put_objects` of them.
    pub put_objects: usize,
    /// Aggregate CPU busy time summed over every compression worker
    /// (compression + decompression). With `cpu_workers` threads busy
    /// simultaneously this can exceed `wall_seconds`; use
    /// [`cpu_path_seconds`](Self::cpu_path_seconds) for a wall-comparable
    /// figure.
    pub cpu_busy_seconds: f64,
    /// Aggregate storage busy time summed over every I/O worker
    /// (puts + gets). See `cpu_busy_seconds` for the caveat.
    pub io_busy_seconds: f64,
    /// Compression-stage pool width the busy time was summed over.
    pub cpu_workers: usize,
    /// I/O-stage pool width the busy time was summed over.
    pub io_workers: usize,
    /// Union of the compression stage's busy intervals, in seconds.
    cpu_path: f64,
    /// Union of the storage stage's busy intervals, in seconds.
    io_path: f64,
}

impl std::ops::Deref for PipelineReport {
    type Target = TransferReport;

    fn deref(&self) -> &TransferReport {
        &self.transfer
    }
}

impl PipelineReport {
    /// The report of the objects this run wrote, each with its read-back
    /// folded in; fetch-only objects (already staged by an earlier run)
    /// are left out. Same wall time.
    pub fn into_puts(self) -> TransferReport {
        let mut puts = self.transfer;
        puts.items.truncate(self.put_objects);
        puts
    }

    /// Critical-path seconds of the compression stage: the seconds in
    /// which at least one of its workers was sealing or decoding — the
    /// union of their busy intervals, whatever width the batch was given.
    pub fn cpu_path_seconds(&self) -> f64 {
        self.cpu_path
    }

    /// Critical-path seconds of the storage stage: the seconds in which at
    /// least one store op was in flight (see
    /// [`cpu_path_seconds`](Self::cpu_path_seconds)).
    pub fn io_path_seconds(&self) -> f64 {
        self.io_path
    }

    /// Wall time saved versus running the compression and storage stages
    /// back to back at the same pool widths: sum of per-stage critical
    /// paths minus the pipelined wall. Clamped to `[0, wall_seconds]` —
    /// overlap can never exceed the time the pipeline actually ran.
    pub fn overlap_seconds(&self) -> f64 {
        (self.cpu_path_seconds() + self.io_path_seconds() - self.wall_seconds)
            .max(0.0)
            .min(self.wall_seconds)
    }
}

/// Payloads (in request order) plus the batch report. Payloads are
/// pool-backed: dropping one checks its allocation into the manager's
/// [`BytePool`] for reuse as encode staging.
pub type DownloadResult = (Vec<(String, PoolBuf)>, TransferReport);

/// Payloads (put items first, then fetch-only items, each in request
/// order) plus the pipeline report.
pub type PipelineResult = (Vec<(String, PoolBuf)>, PipelineReport);

/// One committed output in a [`CommitManifest`]: logical name, the
/// staged `_tmp/` key the bytes are read back by, and the wire crc32
/// recorded at upload of the object holding them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Logical output name (e.g. `out/y`).
    pub name: String,
    /// Staged object key the bytes live under.
    pub key: String,
    /// crc32 of the wire bytes of the staged object (the output's own,
    /// or the pack it shares with the region's other small outputs).
    pub wire_crc: u32,
}

/// The commit record of a two-phase output publish. Outputs are staged
/// under `<region>/_tmp/` while the region runs; putting this manifest
/// at `<region>/manifest` is the single atomic step that flips the
/// region to committed. A crash before the manifest leaves only `_tmp/`
/// orphans (collected by [`TransferManager::collect_orphans`]); a crash
/// after it leaves a fully readable region — there is no in-between.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitManifest {
    /// Committed outputs, in publish order.
    pub entries: Vec<ManifestEntry>,
}

impl CommitManifest {
    /// Serialize as `name\tkey\tcrc` lines, closed by an `end <count>
    /// <crc32 of the lines before it>` line: a manifest cut at a line
    /// boundary must not read back as a shorter one.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("{}\t{}\t{:08x}\n", e.name, e.key, e.wire_crc));
        }
        let crc = gzlite::crc32(out.as_bytes());
        out.push_str(&format!("end {} {crc:08x}\n", self.entries.len()));
        out.into_bytes()
    }

    fn from_bytes(key: &str, bytes: &[u8]) -> Result<CommitManifest, StorageError> {
        let corrupted = |why: String| StorageError::Corrupted(format!("{key}: {why}"));
        let text =
            std::str::from_utf8(bytes).map_err(|_| corrupted("manifest is not utf-8".into()))?;
        // The last line, newline included, is the closing line.
        let body_len = bytes[..bytes.len().saturating_sub(1)]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |at| at + 1);
        let (body, end) = text.split_at(body_len);
        let mut entries = Vec::new();
        for line in body.lines() {
            let mut fields = line.split('\t');
            let (Some(name), Some(obj), Some(crc)) = (fields.next(), fields.next(), fields.next())
            else {
                return Err(corrupted(format!("malformed manifest line: {line}")));
            };
            let wire_crc = u32::from_str_radix(crc, 16)
                .map_err(|_| corrupted(format!("bad crc in manifest line: {line}")))?;
            entries.push(ManifestEntry {
                name: name.to_string(),
                key: obj.to_string(),
                wire_crc,
            });
        }
        let closing = format!(
            "end {} {:08x}\n",
            entries.len(),
            gzlite::crc32(body.as_bytes())
        );
        if end != closing {
            return Err(corrupted(format!(
                "manifest does not end in `{}`",
                closing.trim_end()
            )));
        }
        Ok(CommitManifest { entries })
    }
}

/// Largest buffer, in raw bytes, that may join a pack.
///
/// A buffer belongs in a pack when the time its bytes spend on the link
/// is small next to the one op latency a separate object would cost.
/// `latency × bandwidth` is 5 ms × 40 MB/s = 200 KB on the slowest link
/// we model (and unbounded on the latency-only ones), so at 128 KiB and
/// under a round trip always costs more than the bytes do. The cut is on
/// raw size: it must not depend on what the codec makes of the content.
/// It bounds a member, not a pack: a directory's small buffers share one
/// pack however many of them a batch holds.
const PACK_MEMBER_MAX: usize = 128 * 1024;

/// The busy intervals of one stage of a batch, from all its workers.
#[derive(Default)]
struct Busy(parking_lot::Mutex<Vec<(Instant, Instant)>>);

impl Busy {
    /// Record the interval from `start` until now, and return its length.
    fn since(&self, start: Instant) -> Duration {
        let end = Instant::now();
        self.0.lock().push((start, end));
        end - start
    }

    /// The intervals' summed length and the length of their union, in
    /// seconds.
    fn seconds(self) -> (f64, f64) {
        let mut spans = self.0.into_inner();
        spans.sort_unstable();
        let (mut sum, mut union, mut reach) = (Duration::ZERO, Duration::ZERO, None);
        for (start, end) in spans {
            sum += end - start;
            union += end.saturating_duration_since(reach.map_or(start, |r: Instant| r.max(start)));
            reach = reach.max(Some(end));
        }
        (sum.as_secs_f64(), union.as_secs_f64())
    }
}

/// The bytes of one buffer on its way up.
enum Payload {
    /// A staging buffer the batch owns.
    Staged(PoolBuf),
    /// A buffer shared with the caller, with its crc32 (a write-behind
    /// put's: the caller's fingerprint already holds it).
    Shared(Arc<Vec<u8>>, u32),
}

impl Payload {
    fn bytes(&self) -> &[u8] {
        match self {
            Payload::Staged(buf) => buf,
            Payload::Shared(bytes, _) => bytes,
        }
    }

    /// Take the bytes, leaving an empty payload behind.
    fn take(&mut self) -> Payload {
        std::mem::replace(self, Payload::Staged(PoolBuf::default()))
    }
}

/// One logical buffer of a batch: the position of its payload in the
/// result, the key the caller knows it by and, on the way up, its bytes.
struct Member {
    slot: usize,
    key: String,
    payload: Payload,
}

/// One store object of a batch: a buffer on its own (`key` is the
/// member's) or a pack of several (`key` is the pack's own).
struct StoreObject {
    key: String,
    members: Vec<Member>,
}

impl StoreObject {
    fn single(member: Member) -> StoreObject {
        StoreObject {
            key: member.key.clone(),
            members: vec![member],
        }
    }

    fn is_pack(&self) -> bool {
        self.members.len() > 1 || self.members[0].key != self.key
    }
}

/// The buffers one store object yielded, each with its result position
/// and key.
type Yield = Vec<(usize, String, PoolBuf)>;

/// Split `key` into its directory (with the trailing `/`, or empty) and
/// the name under it.
fn split_dir(key: &str) -> (&str, &str) {
    key.split_at(key.rfind('/').map_or(0, |p| p + 1))
}

/// Whether `key` is `prefix` or lies under it, matching whole path
/// segments: `job-1` covers `job-1/in/A`, not `job-10/in/A`. An empty
/// prefix covers everything.
fn covers(prefix: &str, key: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    prefix.is_empty()
        || key
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// What the manager remembers of the objects it wrote.
#[derive(Default)]
struct Ledger {
    /// crc32 of the wire bytes of every object this manager uploaded —
    /// the reference downloads are verified against.
    crcs: HashMap<String, u32>,
    /// Key of every packed buffer → key of the pack holding it. A packed
    /// buffer has no store object of its own; this is the only way back.
    packed: HashMap<String, String>,
}

impl Ledger {
    /// The store object holding the buffer known as `key`.
    fn object_of<'a>(&'a self, key: &'a str) -> &'a str {
        self.packed.get(key).map_or(key, String::as_str)
    }

    /// Forget every object (and every member of a pack) `gone` names.
    fn forget(&mut self, gone: impl Fn(&str) -> bool) {
        self.crcs.retain(|key, _| !gone(key));
        self.packed
            .retain(|member, pack| !gone(member) && !gone(pack));
    }
}

/// What the owner of a write-behind put is told when it settles.
type OnSettled = Box<dyn FnOnce(&TransferManager, Result<&TransferReport, &StorageError>) + Send>;

/// The write-behind put not settled yet: the thread running it, and whom
/// to tell.
type Pending = (JoinHandle<Result<TransferReport, StorageError>>, OnSettled);

/// Moves batches of named buffers between host memory and a cloud store.
pub struct TransferManager {
    store: StoreHandle,
    config: TransferConfig,
    ledger: parking_lot::Mutex<Ledger>,
    /// Staging-buffer pool shared with callers: encode staging checks
    /// out, decoded download payloads check back in on drop.
    pool: Arc<BytePool>,
    /// Key prefixes currently protected from orphan collection — the
    /// live dataflow sessions whose resident intermediates have no
    /// commit manifest by design.
    leases: parking_lot::Mutex<std::collections::HashSet<String>>,
    /// The write-behind put not settled yet (see
    /// [`upload_behind`](Self::upload_behind)). Held across a settle, so
    /// no op of this manager can slip in front of the put it waits for;
    /// the put itself never takes it.
    behind: parking_lot::Mutex<Option<Pending>>,
}

impl TransferManager {
    /// Transfer engine over `store`.
    pub fn new(store: StoreHandle, config: TransferConfig) -> Self {
        TransferManager {
            store,
            config,
            ledger: parking_lot::Mutex::new(Ledger::default()),
            pool: BytePool::new(),
            leases: parking_lot::Mutex::new(std::collections::HashSet::new()),
            behind: parking_lot::Mutex::default(),
        }
    }

    /// The store this manager writes to.
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    /// The staging-buffer pool. Callers serialize tiles into buffers
    /// checked out of this pool and hand them to [`upload`](Self::upload)
    /// — the allocation cycles back after the put instead of being freed.
    pub fn pool(&self) -> &Arc<BytePool> {
        &self.pool
    }

    /// Drop what the ledger holds on `prefix` and everything under it
    /// (whole path segments: `job-1` leaves `job-10` alone) — call when
    /// the objects themselves are deleted, so the ledger doesn't grow
    /// without bound across offloads.
    pub fn forget_prefix(&self, prefix: &str) {
        self.ledger.lock().forget(|key| covers(prefix, key));
    }

    /// Delete every object under `prefix` (whole path segments, as
    /// [`forget_prefix`](Self::forget_prefix)) and forget them. Best
    /// effort: an object whose delete fails stays for the next sweep.
    pub fn delete_prefix(&self, prefix: &str) {
        for key in self.store.list(prefix) {
            if covers(prefix, &key) {
                let _ = self.store.delete(&key);
            }
        }
        self.forget_prefix(prefix);
    }

    /// The wire crc32 this manager recorded when it uploaded the object
    /// holding `key` (for a packed buffer: its pack), if any. Region
    /// fingerprints are built from these — the "input crc32s from the
    /// integrity ledger" of the recovery design.
    pub fn ledger_crc(&self, key: &str) -> Option<u32> {
        let ledger = self.ledger.lock();
        ledger.crcs.get(ledger.object_of(key)).copied()
    }

    /// Key of the store object holding the buffer known as `key`: the
    /// key itself, or its pack's — the key transfer reports name.
    pub fn object_key(&self, key: &str) -> String {
        self.ledger.lock().object_of(key).to_string()
    }

    /// The staged key output `name` uploads to before `region` commits.
    pub fn staged_key(region: &str, name: &str) -> String {
        format!("{region}/_tmp/{name}")
    }

    /// The key whose existence marks `region` as committed.
    pub fn manifest_key(region: &str) -> String {
        format!("{region}/manifest")
    }

    /// Phase two of the output commit: publish the manifest naming every
    /// staged output of `region`. Call only after all staged puts have
    /// landed; this single put is the atomic commit point.
    pub fn publish_manifest(
        &self,
        region: &str,
        names: &[String],
    ) -> Result<CommitManifest, StorageError> {
        self.settle()?;
        let entries = names
            .iter()
            .map(|name| {
                let key = Self::staged_key(region, name);
                let wire_crc = self.ledger_crc(&key).ok_or_else(|| {
                    StorageError::NotFound(format!("{key}: output was never staged"))
                })?;
                Ok(ManifestEntry {
                    name: name.clone(),
                    key,
                    wire_crc,
                })
            })
            .collect::<Result<_, StorageError>>()?;
        let manifest = CommitManifest { entries };
        let key = Self::manifest_key(region);
        self.put_wire(&key, &[], manifest.to_bytes(), None, &Busy::default())?;
        Ok(manifest)
    }

    /// Whether `region` has a committed (manifest-published) output set.
    pub fn is_committed(&self, region: &str) -> bool {
        self.store.exists(&Self::manifest_key(region))
    }

    /// Fetch and parse `region`'s commit manifest.
    pub fn read_manifest(&self, region: &str) -> Result<CommitManifest, StorageError> {
        self.settle()?;
        let key = Self::manifest_key(region);
        let idle = Busy::default();
        let (manifest, ..) = self.fetch_with_retry(&key, (&idle, &idle), |bytes| {
            CommitManifest::from_bytes(&key, &bytes)
        })?;
        Ok(manifest)
    }

    /// Take a lease on `root`: every key under it is protected from
    /// [`collect_orphans`](Self::collect_orphans) until
    /// [`release`](Self::release). A dataflow session leases its
    /// `…/dataflow/dag-N` root while regions produce and consume
    /// resident intermediates there — those keys have no commit
    /// manifest by design, and the lease is what distinguishes a live
    /// chain from a crashed one.
    pub fn lease(&self, root: &str) {
        self.leases.lock().insert(root.to_string());
    }

    /// Release the lease on `root`. The holder deletes its own keys on
    /// a clean shutdown; after a crash (process gone, lease gone with
    /// it — leases are in-memory by construction) the next
    /// [`collect_orphans`](Self::collect_orphans) sweeps them.
    pub fn release(&self, root: &str) {
        self.leases.lock().remove(root);
    }

    /// Whether `key` sits under an active lease. Matches whole path
    /// segments — a lease on `…/dag-1` does not shadow `…/dag-10`.
    pub fn is_leased(&self, key: &str) -> bool {
        self.leases.lock().iter().any(|root| covers(root, key))
    }

    /// Garbage-collect staged outputs of crashed regions: every
    /// `…/_tmp/…` object under `prefix` whose region has no manifest is
    /// deleted, and every `…/dataflow/dag-N/…` resident intermediate
    /// whose dataflow root is not actively [leased](Self::lease) is
    /// swept with it (a crashed DAG run must leak no resident keys).
    /// Returns the number of orphans removed. Best effort — a failed
    /// delete is skipped, and the caller must not run this concurrently
    /// with a region that is still staging (a mid-upload region is
    /// indistinguishable from a crashed one).
    pub fn collect_orphans(&self, prefix: &str) -> usize {
        // A listing cannot fail; the put's owner has been told.
        let _ = self.settle();
        let mut by_region: HashMap<String, Vec<String>> = HashMap::new();
        let mut dataflow_orphans: Vec<String> = Vec::new();
        for key in self.store.list(prefix) {
            if let Some(pos) = key.find("/_tmp/") {
                by_region
                    .entry(key[..pos].to_string())
                    .or_default()
                    .push(key);
            } else if let Some(pos) = key.find("/dataflow/") {
                // Root = `…/dataflow/dag-N` — the lease unit.
                let seg_start = pos + "/dataflow/".len();
                let root_end = key[seg_start..]
                    .find('/')
                    .map(|p| seg_start + p)
                    .unwrap_or(key.len());
                if !self.is_leased(&key[..root_end]) {
                    dataflow_orphans.push(key);
                }
            }
        }
        let mut removed = 0;
        let mut sweep = |key: String| {
            if self.store.delete(&key).is_ok() {
                self.ledger.lock().forget(|k| k == key);
                removed += 1;
            }
        };
        for (region, keys) in by_region {
            if !self.is_committed(&region) {
                keys.into_iter().for_each(&mut sweep);
            }
        }
        for key in dataflow_orphans {
            // Re-check the lease at delete time: a chain may have leased
            // this root between the listing above and now, and sweeping
            // a live DAG's resident keys would fail its consumers. The
            // listing-time check is only a pre-filter.
            if !self.is_leased(&key) {
                sweep(key);
            }
        }
        removed
    }

    /// The object layout of a batch — the one decision this layer makes
    /// beside the codec's [`gzlite::plan_wire`]: which buffers get a
    /// store object of their own and which share a pack.
    ///
    /// Every buffer of at most [`PACK_MEMBER_MAX`] raw bytes joins the
    /// one pack of its key directory, in request order, however many
    /// there are: the pack has no size cap, since [`seal`](Self::seal)
    /// makes it one frame at any size. A pack lives in its members' key
    /// directory, so everything that selects objects by path (orphan
    /// collection, leases, per-job cleanup, scoped fault rules) treats it
    /// as it would its members. Every other buffer — and a small one
    /// alone in its directory — is the object it always was, under its
    /// own key.
    fn layout(&self, items: Vec<(String, Payload)>) -> Vec<StoreObject> {
        let mut objects: Vec<StoreObject> = Vec::with_capacity(items.len());
        // Key directory → index into `objects` of its pack.
        let mut packs: HashMap<String, usize> = HashMap::new();
        for (slot, (key, payload)) in items.into_iter().enumerate() {
            if payload.bytes().len() <= PACK_MEMBER_MAX {
                let at = *packs
                    .entry(split_dir(&key).0.to_string())
                    .or_insert(objects.len());
                if at < objects.len() {
                    objects[at].members.push(Member { slot, key, payload });
                    continue;
                }
            }
            objects.push(StoreObject::single(Member { slot, key, payload }));
        }
        for object in objects.iter_mut().filter(|o| o.members.len() > 1) {
            // Named after its exact member list: one key never holds two
            // different directories over time.
            let names: Vec<&str> = object.members.iter().map(|m| split_dir(&m.key).1).collect();
            let (dir, _) = split_dir(&object.key);
            object.key = format!(
                "{dir}pack{}-{:08x}",
                names.len(),
                gzlite::crc32(names.join("\0").as_bytes())
            );
        }
        objects
    }

    /// The store objects holding `keys`, each listed once with the
    /// buffers wanted of it; `slot0` is the result position of the first
    /// key.
    fn locate(&self, keys: Vec<String>, slot0: usize) -> Vec<StoreObject> {
        use std::collections::hash_map::Entry;
        let ledger = self.ledger.lock();
        let mut objects: Vec<StoreObject> = Vec::with_capacity(keys.len());
        let mut packs: HashMap<&str, usize> = HashMap::new();
        for (i, key) in keys.into_iter().enumerate() {
            let pack = ledger.packed.get(&key).map(String::as_str);
            let member = Member {
                slot: slot0 + i,
                key,
                payload: Payload::Staged(PoolBuf::default()),
            };
            match pack.map(|pack| (pack, packs.entry(pack))) {
                None => objects.push(StoreObject::single(member)),
                Some((_, Entry::Occupied(at))) => objects[*at.get()].members.push(member),
                Some((pack, Entry::Vacant(at))) => {
                    at.insert(objects.len());
                    objects.push(StoreObject {
                        key: pack.to_string(),
                        members: vec![member],
                    });
                }
            }
        }
        objects
    }

    /// Encode `object` for the wire, consuming its members' payloads: a
    /// single buffer as it is, a pack serialized into one pooled buffer
    /// (each member's staging buffer cycles back to the pool as it is
    /// copied in). The codec picks raw or one frame for either, at any
    /// size. A shared buffer is sealed where it is, its frame carrying the
    /// crc32 it came with, and copied only to travel raw. Returns the wire
    /// bytes, whether they are compressed, and their crc32 when it is
    /// already known.
    fn seal(&self, object: &mut StoreObject) -> (Vec<u8>, bool, Option<u32>) {
        let policy = self.config.wire_policy();
        let payload = if object.is_pack() {
            let entries = object
                .members
                .iter()
                .map(|m| (split_dir(&m.key).1, m.payload.bytes().len()));
            let total = pack::HEADER_LEN
                + entries
                    .clone()
                    .map(|(name, len)| pack::entry_len(name) + len)
                    .sum::<usize>();
            let mut buf = self.pool.get(total);
            pack::write_directory(&mut buf, entries);
            for member in &mut object.members {
                buf.extend_from_slice(member.payload.take().bytes());
            }
            Payload::Staged(buf)
        } else {
            object.members[0].payload.take()
        };
        // One decision point: the codec's probe, under `policy`.
        match payload {
            Payload::Staged(buf) => match gzlite::encode_wire(&buf, &policy) {
                // `buf` drops here: the staging allocation checks back
                // into the pool while the sealed wire bytes travel on.
                Some(wire) => (wire, true, None),
                // Raw path: the store retains the vector itself.
                None => (buf.detach(), false, None),
            },
            Payload::Shared(bytes, crc) => match gzlite::encode_wire_with_crc(&bytes, &policy, crc)
            {
                Some(wire) => (wire, true, None),
                None => (Arc::unwrap_or_clone(bytes), false, Some(crc)),
            },
        }
    }

    /// Cut the buffers wanted of `object` out of its decoded `pack`, in
    /// member order. Anything wrong with the pack is corruption.
    fn unpack(&self, object: &StoreObject, pack: &[u8]) -> Result<Vec<PoolBuf>, StorageError> {
        let corrupted = |why: &str| StorageError::Corrupted(format!("{}: {why}", object.key));
        // First request of each name; a repeated key copies from it.
        let mut wanted: HashMap<&str, usize> = HashMap::new();
        for (i, member) in object.members.iter().enumerate() {
            wanted.entry(split_dir(&member.key).1).or_insert(i);
        }
        let mut found: Vec<Option<PoolBuf>> = object.members.iter().map(|_| None).collect();
        for (name, bytes) in pack::members(pack).map_err(corrupted)? {
            if let Some(&i) = wanted.get(name) {
                let mut buf = self.pool.get(bytes.len());
                buf.extend_from_slice(bytes);
                found[i] = Some(buf);
            }
        }
        for i in 0..found.len() {
            let first = wanted[split_dir(&object.members[i].key).1];
            if first != i {
                found[i] = found[first].clone();
            }
        }
        found
            .into_iter()
            .map(|buf| buf.ok_or_else(|| corrupted("a packed buffer is missing from its pack")))
            .collect()
    }

    /// Put `wire` under `key` with retries and record it in the ledger:
    /// its crc32 (`crc`, or computed here), and `key` as the home of every
    /// one of `members` that goes by another key (the members of a pack).
    /// The payload is cloned only while another retry is still permitted —
    /// the terminal attempt moves it.
    fn put_wire(
        &self,
        key: &str,
        members: &[Member],
        wire: Vec<u8>,
        crc: Option<u32>,
        io_busy: &Busy,
    ) -> Result<RetryStats, StorageError> {
        // Recorded whether or not downloads verify against it: region
        // fingerprints and commit manifests are built from these.
        let crc = crc.unwrap_or_else(|| gzlite::crc32(&wire));
        let mut sess = self.config.retry.session(key);
        let mut wire = Some(wire);
        loop {
            let attempt = if sess.may_retry() {
                wire.as_ref()
                    .cloned()
                    .expect("payload kept while retryable")
            } else {
                // No further retry can be granted, so the payload is
                // never needed again: move it.
                wire.take().expect("terminal attempt")
            };
            let t = Instant::now();
            let result = sess.run(|| self.store.put(key, attempt));
            io_busy.since(t);
            match result {
                Ok(()) => {
                    let mut ledger = self.ledger.lock();
                    ledger.packed.remove(key);
                    ledger.crcs.insert(key.to_string(), crc);
                    for member in members.iter().filter(|m| m.key != key) {
                        ledger.crcs.remove(&member.key);
                        ledger.packed.insert(member.key.clone(), key.to_string());
                    }
                    return Ok(sess.stats());
                }
                Err(e) => sess.on_error(e)?,
            }
        }
    }

    /// Get `key` with retries, verify integrity, decompress, and `open`
    /// the payload. Store time lands on `io` and verification,
    /// decompression and opening on `cpu` (the pipelined accounting). Returns `(opened, wire_bytes, compressed, stats)`.
    fn fetch_with_retry<T>(
        &self,
        key: &str,
        (io, cpu): (&Busy, &Busy),
        open: impl Fn(Vec<u8>) -> Result<T, StorageError>,
    ) -> Result<(T, u64, bool, RetryStats), StorageError> {
        let mut sess = self.config.retry.session(key);
        loop {
            let t = Instant::now();
            let fetched = sess.run(|| self.store.get(key));
            io.since(t);
            let wire = match fetched {
                Ok(w) => w,
                Err(e) => {
                    sess.on_error(e)?;
                    continue;
                }
            };
            let t = Instant::now();
            let opened =
                self.verify_and_decode(key, wire)
                    .and_then(|(payload, wire_bytes, compressed)| {
                        Ok((open(payload)?, wire_bytes, compressed))
                    });
            cpu.since(t);
            match opened {
                Ok((opened, wire_bytes, compressed)) => {
                    return Ok((opened, wire_bytes, compressed, sess.stats()))
                }
                // Corruption is retryable through the re-fetch budget: an
                // in-flight bit flip heals on the next read, at-rest
                // damage exhausts the budget and surfaces `Corrupted`.
                Err(e) => sess.on_error(e)?,
            }
        }
    }

    /// Fetch `object` once and hand out the buffers wanted of it, with
    /// the report of the read (`seconds` left to the caller).
    fn fetch_object(
        &self,
        object: StoreObject,
        timers: (&Busy, &Busy),
    ) -> Result<(ItemReport, Yield), StorageError> {
        let (payloads, wire_bytes, compressed, stats) =
            self.fetch_with_retry(&object.key, timers, |payload| {
                if object.is_pack() {
                    self.unpack(&object, &payload)
                } else {
                    Ok(vec![self.pool.adopt(payload)])
                }
            })?;
        let raw_bytes = payloads.iter().map(|p| p.len() as u64).sum();
        let mut report = ItemReport::new(object.key, raw_bytes, wire_bytes, compressed);
        report.fold_stats(stats);
        let payloads = object
            .members
            .into_iter()
            .zip(payloads)
            .map(|(m, payload)| (m.slot, m.key, payload))
            .collect();
        Ok((report, payloads))
    }

    /// Check the wire bytes against the ledger (or backend checksum) and
    /// decompress. Returns `(payload, wire_bytes, compressed)`.
    fn verify_and_decode(
        &self,
        key: &str,
        wire: Vec<u8>,
    ) -> Result<(Vec<u8>, u64, bool), StorageError> {
        let wire_bytes = wire.len() as u64;
        if self.config.verify_integrity {
            let expected = self
                .ledger
                .lock()
                .crcs
                .get(key)
                .copied()
                .or_else(|| self.store.checksum(key));
            if let Some(expected) = expected {
                let actual = gzlite::crc32(&wire);
                if actual != expected {
                    return Err(StorageError::Corrupted(format!(
                        "{key}: wire crc32 {actual:#010x} != recorded {expected:#010x}"
                    )));
                }
            }
        }
        let (payload, compressed) = decode_wire(key, wire, self.config.wire_policy().threads)?;
        Ok((payload, wire_bytes, compressed))
    }

    /// Upload a batch of `(key, payload)` buffers, at most `max_threads`
    /// store ops in flight (see [`run_batch`](Self::run_batch)). Blocks
    /// until every object landed; the report has one item per object.
    ///
    /// Payloads may be plain `Vec<u8>`s or [`PoolBuf`]s checked out of
    /// [`pool`](Self::pool); pooled staging buffers cycle back to the
    /// pool as soon as their wire form is sealed.
    pub fn upload<B: Into<PoolBuf>>(
        &self,
        items: Vec<(String, B)>,
    ) -> Result<TransferReport, StorageError> {
        self.settle()?;
        self.upload_now(
            items
                .into_iter()
                .map(|(k, b)| (k, Payload::Staged(b.into())))
                .collect(),
        )
    }

    /// [`upload`](Self::upload) without the settle: what a write-behind
    /// put runs, being the put everyone else settles.
    fn upload_now(&self, items: Vec<(String, Payload)>) -> Result<TransferReport, StorageError> {
        let puts = self.layout(items);
        let width = self.config.max_threads;
        let (_, report) = self.run_batch(Instant::now(), puts, false, Vec::new(), width)?;
        Ok(report.transfer)
    }

    /// Write-behind [`upload`](Self::upload): start `items`' put on a
    /// thread of its own, named `write-behind`, and return. At most one
    /// such put is ever pending, and it is *settled* — joined, and
    /// `on_settled` told its outcome — immediately before this manager
    /// issues its next store operation of any kind: a transfer, a
    /// manifest read or write, an orphan listing, the next write-behind
    /// put (whose `Err` is then the previous put's, with nothing of this
    /// one started). The store thus sees the ops of a synchronous caller
    /// in the same order; only the wall-clock moment of the put moves,
    /// and a failed put surfaces as the error of exactly the next
    /// operation. Deletes by key prefix do not settle: whoever deletes
    /// keys a pending put may be writing calls [`settle`](Self::settle)
    /// first, and so does whoever needs the put's thread gone.
    ///
    /// The buffers stay shared with the caller, each with its crc32,
    /// which the caller already holds: the put seals a buffer where it is,
    /// with that crc as its frame's, and copies it only to hand the store
    /// a raw-wire object.
    pub fn upload_behind(
        self: &Arc<Self>,
        items: Vec<(String, Arc<Vec<u8>>, u32)>,
        on_settled: impl FnOnce(&TransferManager, Result<&TransferReport, &StorageError>)
            + Send
            + 'static,
    ) -> Result<(), StorageError> {
        let mut behind = self.behind.lock();
        self.settle_in(&mut behind)?;
        let manager = Arc::clone(self);
        let put = std::thread::Builder::new()
            .name("write-behind".into())
            .spawn(move || {
                let shared = items
                    .into_iter()
                    .map(|(key, bytes, crc)| (key, Payload::Shared(bytes, crc)));
                manager.upload_now(shared.collect())
            })
            .expect("spawn a write-behind put");
        *behind = Some((put, Box::new(on_settled)));
        Ok(())
    }

    /// Join the pending write-behind put, if there is one, tell its
    /// owner, and return its error. Every operation of this manager that
    /// touches the store starts here.
    pub fn settle(&self) -> Result<(), StorageError> {
        self.settle_in(&mut self.behind.lock())
    }

    fn settle_in(&self, behind: &mut Option<Pending>) -> Result<(), StorageError> {
        let Some((put, on_settled)) = behind.take() else {
            return Ok(());
        };
        let outcome = put.join().unwrap_or_else(|_| {
            Err(StorageError::Unavailable(
                "write-behind put panicked before it finished".into(),
            ))
        });
        on_settled(self, outcome.as_ref());
        outcome.map(drop)
    }

    /// Download a batch of keys, transparently decompressing gzlite
    /// frames and unpacking packed buffers (a pack is fetched once for
    /// all the keys it holds), at most `max_threads` store ops in
    /// flight. Returns the payloads in the order requested plus a report
    /// with one item per store object read.
    pub fn download(&self, keys: Vec<String>) -> Result<DownloadResult, StorageError> {
        self.settle()?;
        let gets = self.locate(keys, 0);
        let width = self.config.max_threads;
        let (payloads, report) = self.run_batch(Instant::now(), Vec::new(), false, gets, width)?;
        Ok((payloads, report.transfer))
    }

    /// Fused upload + driver fetch: each staged object is read back (and
    /// decompressed) once its put has landed, instead of waiting for the
    /// whole upload batch, with at most `io_threads` store ops in flight
    /// (see [`run_batch`](Self::run_batch)).
    ///
    /// `put_items` travel the full compress → put → get → decompress
    /// chain; `fetch_only` keys (already staged, e.g. upload-cache hits)
    /// skip straight to the get. Returns `(key, payload)` pairs —
    /// `put_items` first in request order, then `fetch_only` in request
    /// order — plus per-stage busy-time accounting and one report item
    /// per store object (written objects first).
    pub fn upload_fetch_pipelined<B: Into<PoolBuf>>(
        &self,
        put_items: Vec<(String, B)>,
        fetch_only: Vec<String>,
        io_threads: usize,
    ) -> Result<PipelineResult, StorageError> {
        let put_items: Vec<(String, Payload)> = put_items
            .into_iter()
            .map(|(k, b)| (k, Payload::Staged(b.into())))
            .collect();
        let t0 = Instant::now();
        if put_items.is_empty() && fetch_only.is_empty() {
            return Ok((Vec::new(), PipelineReport::default()));
        }
        // Inside the wall: the caller waited on the store either way.
        self.settle()?;
        let gets = self.locate(fetch_only, put_items.len());
        self.run_batch(t0, self.layout(put_items), true, gets, io_threads)
    }

    /// The one engine every batch runs on: a pool of compression workers
    /// seals `puts` and feeds a pool of `width` store-I/O workers through
    /// a channel, so object *N+1* compresses while object *N* is in
    /// flight to the store.
    ///
    /// The I/O stage schedules store *ops*, not objects: one job is one
    /// put or one get, taken first in, first out by whichever worker is
    /// free, so at most `width` ops are in flight and no worker idles
    /// while an op waits. `gets` go straight to the I/O stage. With
    /// `read_back`, the only ordering between ops is an object's own: its
    /// get is queued by the worker whose put of it just landed, behind
    /// whatever is already waiting, and a put that fails queues no get.
    /// Without, a put finishes its object's report item itself. A batch
    /// of one store object runs its seal, put and get on the calling
    /// thread.
    ///
    /// Returns the buffers read, in slot order, and one report item per
    /// store object — `puts` first, then `gets`, each in order — whose
    /// `seconds` is the time workers spent on that object, queue waits
    /// excluded; `t0` starts the wall.
    fn run_batch(
        &self,
        t0: Instant,
        puts: Vec<StoreObject>,
        read_back: bool,
        gets: Vec<StoreObject>,
        width: usize,
    ) -> Result<PipelineResult, StorageError> {
        use crossbeam::channel::Sender;
        use std::sync::atomic::AtomicUsize;

        /// One store op waiting for an I/O worker.
        struct IoJob {
            idx: usize,
            object: StoreObject,
            /// Time workers have spent on this object so far.
            busy: Duration,
            op: IoOp,
        }

        enum IoOp {
            /// Put the sealed wire form of `raw_bytes`. With `then`, queue
            /// the object's get through it: each put to be read back
            /// holds a sender of its own, so the channel disconnects —
            /// and the workers leave — once the last such put has queued
            /// its get, failed, or been dropped by a panicking worker's
            /// unwind: nothing is counted.
            Put {
                wire: Vec<u8>,
                raw_bytes: u64,
                compressed: bool,
                crc: Option<u32>,
                then: Option<Sender<IoJob>>,
            },
            /// Get a staged object; `put_*` is what its put, if this batch
            /// made one, adds to the report.
            Get {
                put_stats: RetryStats,
                put_compressed: bool,
            },
        }

        type Outcome = Result<(ItemReport, Yield), StorageError>;
        let put_objects = puts.len();
        let outcomes: Vec<parking_lot::Mutex<Option<Outcome>>> = (0..put_objects + gets.len())
            .map(|_| parking_lot::Mutex::new(None))
            .collect();
        let cpu_busy = Busy::default();
        let io_busy = Busy::default();
        let cpu_threads = put_objects.clamp(1, self.config.max_threads.max(1));
        let io_threads = width.clamp(1, outcomes.len().max(1));
        let queue: Vec<parking_lot::Mutex<Option<StoreObject>>> = puts
            .into_iter()
            .map(|o| parking_lot::Mutex::new(Some(o)))
            .collect();
        let next = AtomicUsize::new(0);
        let (tx, rx) = crossbeam::channel::unbounded::<IoJob>();

        // Stage A: seal each object and queue its put.
        let seal_stage = |tx: Sender<IoJob>| loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = queue.get(idx) else {
                return;
            };
            let mut object = slot.lock().take().expect("claimed once");
            let t = Instant::now();
            let members = object.members.iter();
            let raw_bytes = members.map(|m| m.payload.bytes().len() as u64).sum();
            let (wire, compressed, crc) = self.seal(&mut object);
            let busy = cpu_busy.since(t);
            let then = read_back.then(|| tx.clone());
            let op = IoOp::Put {
                wire,
                raw_bytes,
                compressed,
                crc,
                then,
            };
            let _ = tx.send(IoJob {
                idx,
                object,
                busy,
                op,
            });
        };

        // Stage B: store I/O, one op at a time; decompression time is
        // attributed back to the CPU stage.
        let io_stage = || {
            for IoJob {
                idx,
                object,
                busy,
                op,
            } in rx.iter()
            {
                let t = Instant::now();
                let outcome = match op {
                    IoOp::Put {
                        wire,
                        raw_bytes,
                        compressed,
                        crc,
                        then,
                    } => {
                        let wire_bytes = wire.len() as u64;
                        let put = self.put_wire(&object.key, &object.members, wire, crc, &io_busy);
                        match (put, then) {
                            (Ok(put_stats), Some(then)) => {
                                let op = IoOp::Get {
                                    put_stats,
                                    put_compressed: compressed,
                                };
                                let busy = busy + t.elapsed();
                                let _ = then.send(IoJob {
                                    idx,
                                    object,
                                    busy,
                                    op,
                                });
                                continue;
                            }
                            (put, _) => put.map(|stats| {
                                let mut report =
                                    ItemReport::new(object.key, raw_bytes, wire_bytes, compressed);
                                report.fold_stats(stats);
                                report.seconds = (busy + t.elapsed()).as_secs_f64();
                                (report, Yield::new())
                            }),
                        }
                    }
                    IoOp::Get {
                        put_stats,
                        put_compressed,
                    } => {
                        let timers = (&io_busy, &cpu_busy);
                        self.fetch_object(object, timers)
                            .map(|(mut report, payloads)| {
                                report.compressed |= put_compressed;
                                report.fold_stats(put_stats);
                                report.seconds = (busy + t.elapsed()).as_secs_f64();
                                (report, payloads)
                            })
                    }
                };
                *outcomes[idx].lock() = Some(outcome);
            }
        };

        for (i, object) in gets.into_iter().enumerate() {
            let op = IoOp::Get {
                put_stats: RetryStats::default(),
                put_compressed: false,
            };
            let _ = tx.send(IoJob {
                idx: put_objects + i,
                object,
                busy: Duration::ZERO,
                op,
            });
        }
        if outcomes.len() <= 1 {
            // One object: its ops run in order on the calling thread.
            seal_stage(tx);
            io_stage();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..io_threads {
                    scope.spawn(io_stage);
                }
                for _ in 0..cpu_threads {
                    let tx = tx.clone();
                    scope.spawn(move || seal_stage(tx));
                }
                // The sealing workers' clones and the waiting puts' keep
                // the channel alive; dropping the original lets the I/O
                // stage drain and exit.
                drop(tx);
            });
        }

        let (cpu_busy_seconds, cpu_path) = cpu_busy.seconds();
        let (io_busy_seconds, io_path) = io_busy.seconds();
        let mut items = Vec::with_capacity(outcomes.len());
        let mut payloads = Vec::new();
        for outcome in outcomes {
            let (report, fetched) = outcome.into_inner().expect("every object ran")?;
            items.push(report);
            payloads.extend(fetched);
        }
        payloads.sort_unstable_by_key(|(slot, ..)| *slot);
        Ok((
            payloads
                .into_iter()
                .map(|(_, key, buf)| (key, buf))
                .collect(),
            PipelineReport {
                transfer: TransferReport {
                    items,
                    wall_seconds: t0.elapsed().as_secs_f64(),
                },
                put_objects,
                cpu_busy_seconds,
                io_busy_seconds,
                cpu_workers: cpu_threads,
                io_workers: io_threads,
                cpu_path,
                io_path,
            },
        ))
    }
}

/// Transparently decompress wire bytes: a single frame, a chunked
/// stream an older build wrote (chunk decode fanned over `threads`
/// workers) — both with internal CRCs — or raw passthrough. Returns the
/// payload and whether it was compressed on the wire.
fn decode_wire(key: &str, wire: Vec<u8>, threads: usize) -> Result<(Vec<u8>, bool), StorageError> {
    if gzlite::is_stream(&wire) {
        let decoded = gzlite::decompress_stream_parallel(&wire, threads)
            .map_err(|e| StorageError::Corrupted(format!("{key}: {e}")))?;
        Ok((decoded, true))
    } else if wire.len() >= MAGIC.len() && wire[..MAGIC.len()] == MAGIC {
        let decoded = gzlite::decompress(&wire)
            .map_err(|e| StorageError::Corrupted(format!("{key}: {e}")))?;
        Ok((decoded, true))
    } else {
        Ok((wire, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosStore, FaultKind, FaultPlan, FaultRule, OpFilter, Trigger};
    use crate::s3::S3Store;
    use crate::ObjectStore;
    use std::sync::Arc;
    use std::time::Duration;

    fn manager(min_compress: usize) -> (TransferManager, S3Store) {
        let store = S3Store::standalone("xfer");
        let tm = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                min_compression_size: min_compress,
                retry: RetryPolicy::default().without_backoff(),
                ..Default::default()
            },
        );
        (tm, store)
    }

    /// Manager whose store runs a chaos plan; retries don't sleep.
    fn chaos_manager(min_compress: usize, plan: FaultPlan) -> (TransferManager, S3Store) {
        let store = S3Store::standalone("xfer");
        let chaos = ChaosStore::new(Arc::new(store.clone()), plan);
        let tm = TransferManager::new(
            Arc::new(chaos),
            TransferConfig {
                min_compression_size: min_compress,
                retry: RetryPolicy::default().without_backoff(),
                ..Default::default()
            },
        );
        (tm, store)
    }

    #[test]
    fn upload_download_roundtrip() {
        let (tm, _) = manager(64);
        let a = vec![0u8; 10_000]; // compresses hard
        let b: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let report = tm
            .upload(vec![("in/A".into(), a.clone()), ("in/B".into(), b.clone())])
            .unwrap();
        assert_eq!(report.items.len(), 1, "two small buffers, one object");
        assert_eq!(report.raw_bytes(), 15_000, "raw bytes are the buffers'");
        assert!(
            report.ratio() < 1.0,
            "sparse member should shrink the batch"
        );

        let (payloads, dreport) = tm.download(vec!["in/A".into(), "in/B".into()]).unwrap();
        assert_eq!(payloads[0].0, "in/A");
        assert_eq!(payloads[0].1, a);
        assert_eq!(payloads[1].0, "in/B");
        assert_eq!(payloads[1].1, b);
        assert_eq!(dreport.items.len(), 1, "both came out of one get");
        assert_eq!(dreport.total_refetches(), 0, "clean run never re-fetches");
    }

    #[test]
    fn small_buffers_skip_compression() {
        let (tm, store) = manager(1024);
        let data = vec![0u8; 100]; // would compress, but below threshold
        tm.upload(vec![("k".into(), data.clone())]).unwrap();
        assert_eq!(store.get("k").unwrap(), data, "stored raw");
    }

    #[test]
    fn large_buffers_are_compressed_on_the_wire() {
        let (tm, store) = manager(1024);
        let data = vec![0u8; 100_000];
        let report = tm.upload(vec![("k".into(), data.clone())]).unwrap();
        assert!(report.items[0].compressed);
        assert!(report.items[0].wire_bytes < 1000);
        assert!(store.size("k").unwrap() < 1000, "stored compressed");
        let (payloads, _) = tm.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, data);
    }

    #[test]
    fn incompressible_large_buffer_falls_back_to_raw() {
        let (tm, _) = manager(1024);
        let mut x: u64 = 1;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let report = tm.upload(vec![("k".into(), data.clone())]).unwrap();
        assert!(!report.items[0].compressed);
        assert_eq!(report.items[0].wire_bytes, data.len() as u64);
        let (payloads, _) = tm.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, data);
    }

    #[test]
    fn transient_faults_are_retried() {
        let (tm, store) = manager(usize::MAX);
        store.service().inject_transient_faults(2);
        let report = tm.upload(vec![("k".into(), vec![1, 2, 3])]).unwrap();
        assert_eq!(report.items[0].retries, 2);
        assert_eq!(store.get("k").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn retry_budget_exhaustion_errors() {
        let store = S3Store::standalone("xfer");
        let tm = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                retry: RetryPolicy {
                    max_retries: 1,
                    ..RetryPolicy::default()
                }
                .without_backoff(),
                ..Default::default()
            },
        );
        store.service().inject_transient_faults(10);
        assert!(tm.upload(vec![("k".into(), vec![1])]).is_err());
    }

    #[test]
    fn backoff_sleeps_between_retries() {
        let store = S3Store::standalone("xfer");
        let tm = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                retry: RetryPolicy {
                    backoff_base: Duration::from_millis(5),
                    backoff_cap: Duration::from_millis(20),
                    ..RetryPolicy::default()
                },
                ..Default::default()
            },
        );
        store.service().inject_transient_faults(2);
        let t = std::time::Instant::now();
        let report = tm.upload(vec![("k".into(), vec![1, 2, 3])]).unwrap();
        assert_eq!(report.items[0].retries, 2);
        assert!(
            t.elapsed() >= Duration::from_millis(10),
            "two retries sleep at least 2 x base"
        );
        assert!(report.total_backoff_s() >= 0.010);
    }

    #[test]
    fn in_flight_corruption_heals_via_refetch() {
        // The chaos plan flips one bit of the first get's response only;
        // the integrity check catches it and the re-fetch returns the
        // intact object.
        let plan = FaultPlan::new(42).rule(FaultRule::new(
            OpFilter::Get,
            Trigger::OpIndex(0),
            FaultKind::Corrupt,
        ));
        let (tm, _) = chaos_manager(usize::MAX, plan);
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        tm.upload(vec![("k".into(), data.clone())]).unwrap();
        let (payloads, report) = tm.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, data, "healed payload is bitwise intact");
        assert_eq!(report.items[0].refetches, 1, "exactly one re-fetch");
        assert_eq!(report.items[0].retries, 0, "corruption uses its own budget");
    }

    #[test]
    fn at_rest_corruption_exhausts_refetch_budget_and_errors() {
        // Every read of the damaged object disagrees with the ledger;
        // the bounded re-fetch budget runs dry and surfaces `Corrupted`
        // instead of silent bad data.
        let (tm, store) = manager(usize::MAX);
        let data = vec![7u8; 512];
        tm.upload(vec![("k".into(), data)]).unwrap();
        let mut stored = store.get("k").unwrap();
        stored[100] ^= 0x10;
        store.put("k", stored).unwrap();
        let err = tm.download(vec!["k".into()]).unwrap_err();
        assert!(matches!(err, StorageError::Corrupted(_)), "{err:?}");
    }

    #[test]
    fn integrity_check_can_be_disabled() {
        // With verification off, at-rest damage in a raw (uncompressed)
        // object is NOT caught — the seam really gates the check.
        let store = S3Store::standalone("xfer");
        let tm = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                min_compression_size: usize::MAX,
                verify_integrity: false,
                retry: RetryPolicy::default().without_backoff(),
                ..Default::default()
            },
        );
        tm.upload(vec![("k".into(), vec![7u8; 64])]).unwrap();
        let mut stored = store.get("k").unwrap();
        stored[3] ^= 0x40;
        store.put("k", stored.clone()).unwrap();
        let (payloads, _) = tm.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, stored, "damage passes through unchecked");
    }

    #[test]
    fn backend_checksum_verifies_objects_staged_elsewhere() {
        // A second manager (empty ledger) downloads an object staged by
        // the first: the backend checksum still catches in-flight damage.
        let store = S3Store::standalone("xfer");
        let stager = TransferManager::new(
            Arc::new(store.clone()),
            TransferConfig {
                min_compression_size: usize::MAX,
                ..Default::default()
            },
        );
        stager.upload(vec![("k".into(), vec![9u8; 256])]).unwrap();

        let plan = FaultPlan::new(5).rule(FaultRule::new(
            OpFilter::Get,
            Trigger::OpIndex(0),
            FaultKind::Corrupt,
        ));
        let chaos = ChaosStore::new(Arc::new(store.clone()), plan);
        let reader = TransferManager::new(
            Arc::new(chaos),
            TransferConfig {
                min_compression_size: usize::MAX,
                retry: RetryPolicy::default().without_backoff(),
                ..Default::default()
            },
        );
        let (payloads, report) = reader.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, vec![9u8; 256]);
        assert_eq!(report.total_refetches(), 1, "caught via backend checksum");
    }

    #[test]
    fn slow_faults_are_classified_as_timeouts() {
        let plan = FaultPlan::new(6)
            .rule(FaultRule::new(
                OpFilter::Get,
                Trigger::OpIndex(0),
                FaultKind::Delay(Duration::from_millis(12)),
            ))
            .rule(FaultRule::new(
                OpFilter::Get,
                Trigger::OpIndex(0),
                FaultKind::Transient,
            ));
        let store = S3Store::standalone("xfer");
        let chaos = ChaosStore::new(Arc::new(store.clone()), plan);
        let tm = TransferManager::new(
            Arc::new(chaos),
            TransferConfig {
                min_compression_size: usize::MAX,
                retry: RetryPolicy {
                    op_deadline: Duration::from_millis(4),
                    ..RetryPolicy::default()
                }
                .without_backoff(),
                ..Default::default()
            },
        );
        tm.upload(vec![("k".into(), vec![1u8; 32])]).unwrap();
        let (payloads, report) = tm.download(vec!["k".into()]).unwrap();
        assert_eq!(payloads[0].1, vec![1u8; 32]);
        assert!(
            report.items[0].timeouts >= 1,
            "slow failure counted as timeout: {:?}",
            report.items[0]
        );
        assert_eq!(report.items[0].retries, 1, "timeout was retried");
    }

    #[test]
    fn forget_prefix_matches_whole_path_segments() {
        // `job-1` must not take `job-10` with it — neither its ledger
        // entries, nor its packed buffers, nor (delete_prefix) its objects.
        let (tm, store) = manager(usize::MAX);
        for job in ["job-1", "job-10"] {
            tm.upload(vec![
                (format!("{job}/in/a"), vec![1u8; 32]),
                (format!("{job}/in/b"), vec![2u8; 32]),
                (format!("{job}/out/y"), vec![3u8; 32]),
            ])
            .unwrap();
        }
        assert_eq!(store.list("").len(), 4, "a pack and a lone object per job");
        tm.forget_prefix("job-1");
        assert_eq!(tm.ledger_crc("job-1/in/a"), None);
        assert_eq!(tm.ledger_crc("job-1/out/y"), None);
        assert!(
            tm.ledger_crc("job-10/in/a").is_some(),
            "packed neighbour kept"
        );
        assert!(
            tm.ledger_crc("job-10/out/y").is_some(),
            "lone neighbour kept"
        );
        // A trailing slash names the same directory.
        tm.forget_prefix("job-10/out/");
        assert_eq!(tm.ledger_crc("job-10/out/y"), None);

        tm.delete_prefix("job-1");
        assert!(store.list("job-1/").is_empty());
        assert_eq!(store.list("job-10/").len(), 2, "neighbour's objects kept");
        let (payloads, _) = tm.download(vec!["job-10/in/b".into()]).unwrap();
        assert_eq!(payloads[0].1, vec![2u8; 32]);
        // A full key is a prefix of itself only.
        tm.forget_prefix("job-10/in/b");
        assert!(tm.download(vec!["job-10/in/b".into()]).is_err());
        assert!(tm.download(vec!["job-10/in/a".into()]).is_ok());
    }

    #[test]
    fn many_buffers_upload_in_parallel_and_keep_order() {
        let (tm, _) = manager(usize::MAX);
        // Each too large to share an object with the others.
        const LEN: usize = PACK_MEMBER_MAX + 1;
        let items: Vec<(String, Vec<u8>)> = (0..40)
            .map(|i| (format!("k{i:02}"), vec![i as u8; LEN]))
            .collect();
        let report = tm.upload(items).unwrap();
        assert_eq!(report.items.len(), 40);
        for (i, item) in report.items.iter().enumerate() {
            assert_eq!(item.key, format!("k{i:02}"), "report preserves order");
        }
        let (payloads, _) = tm
            .download((0..40).map(|i| format!("k{i:02}")).collect())
            .unwrap();
        for (i, (_, p)) in payloads.iter().enumerate() {
            assert_eq!(p, &vec![i as u8; LEN]);
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (tm, _) = manager(64);
        let report = tm.upload(Vec::<(String, Vec<u8>)>::new()).unwrap();
        assert!(report.items.is_empty());
        assert_eq!(report.ratio(), 1.0);
    }

    #[test]
    fn download_missing_key_errors() {
        let (tm, _) = manager(64);
        assert!(matches!(
            tm.download(vec!["nope".into()]),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn big_buffers_are_one_frame() {
        let (tm, store) = manager(64);
        // Past the 1 MiB that older builds cut into a chunked stream.
        let data = vec![0u8; 3 * 1024 * 1024 / 2];
        let report = tm.upload(vec![("big".into(), data.clone())]).unwrap();
        assert!(report.items[0].compressed);
        let stored = store.get("big").unwrap();
        assert_eq!(stored[..4], MAGIC, "stored as one frame");
        assert!(!gzlite::is_stream(&stored));
        let (payloads, _) = tm.download(vec!["big".into()]).unwrap();
        assert_eq!(payloads[0].1, data);
    }

    #[test]
    fn a_chunked_stream_an_older_build_wrote_still_downloads() {
        let (tm, store) = manager(64);
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let stream = gzlite::compress_stream(&data, 64 * 1024);
        assert!(gzlite::is_stream(&stream));
        // Staged by the older build: this manager's ledger never saw it,
        // so the get verifies against the backend's checksum.
        store.put("old/y", stream.clone()).unwrap();
        let (payloads, report) = tm.download(vec!["old/y".into()]).unwrap();
        assert!(payloads[0].1[..] == data[..], "bit-exact");
        assert!(report.items[0].compressed);
        assert_eq!(report.items[0].wire_bytes, stream.len() as u64);
    }

    #[test]
    fn the_cpu_path_is_at_least_the_longest_seal() {
        // One large compressible buffer and three tiny ones, each in a
        // directory of its own: four objects, four sealing workers. The
        // stage was busy for at least the large object's seal, however
        // many workers the batch was given; dividing the summed busy time
        // by the pool width reported about a third of it.
        let large: Vec<u8> = (0..4 * 1024 * 1024u32)
            .map(|i| ((i / 3) % 97) as u8)
            .collect();
        let policy = TransferConfig::default().wire_policy();
        let seal = (0..3)
            .map(|_| {
                let t = Instant::now();
                gzlite::encode_wire(&large, &policy).expect("compressible");
                t.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min);
        let mut items = vec![("big/y".to_string(), large)];
        items.extend((0..3).map(|i| (format!("tiny{i}/x"), vec![i as u8; 16])));
        let (tm, _) = manager(64);
        let (_, report) = tm.upload_fetch_pipelined(items, vec![], 4).unwrap();
        assert_eq!(report.cpu_workers, 4);
        assert!(
            report.cpu_path_seconds() >= seal,
            "cpu path {:.4} s < one seal {seal:.4} s: {report:?}",
            report.cpu_path_seconds()
        );
        assert!(report.cpu_path_seconds() <= report.cpu_busy_seconds + 1e-9);
        assert!(report.io_path_seconds() <= report.io_busy_seconds + 1e-9);
    }

    #[test]
    fn pipelined_upload_fetch_matches_serial_roundtrip() {
        let (tm, store) = manager(64);
        let items: Vec<(String, Vec<u8>)> = (0..12)
            .map(|i| {
                let payload: Vec<u8> = (0..4096u32)
                    .map(|j| ((j.wrapping_mul(i + 1)) >> 3) as u8)
                    .collect();
                (format!("in/v{i:02}"), payload)
            })
            .collect();
        let (payloads, report) = tm.upload_fetch_pipelined(items.clone(), vec![], 4).unwrap();
        assert_eq!(payloads.len(), items.len());
        for ((key, expected), (got_key, got)) in items.iter().zip(&payloads) {
            assert_eq!(got_key, key, "request order preserved");
            assert_eq!(got, expected, "put + get round-trips bitwise");
        }
        assert_eq!((report.items.len(), report.put_objects), (1, 1));
        assert_eq!(report.raw_bytes(), 12 * 4096);
        // Objects really landed in the store (same wire form the serial
        // download path would read).
        let (serial, _) = tm
            .download(items.iter().map(|(k, _)| k.clone()).collect())
            .unwrap();
        assert_eq!(serial, payloads);
        assert_eq!(store.list("in/").len(), 1, "the twelve share one object");
    }

    #[test]
    fn pipelined_path_retries_and_heals_under_chaos() {
        // The two faults are scoped to different objects, so they can
        // never land on the same get (a transient error would hide the
        // corruption it preempts): every second op on `c03` fails once —
        // its put lands, its get is retried — and the first get of `c07`
        // comes back corrupted.
        let plan = FaultPlan::new(77)
            .rule(
                FaultRule::new(OpFilter::Any, Trigger::EveryNth(2), FaultKind::Transient)
                    .on_keys("in/c03"),
            )
            .rule(
                FaultRule::new(OpFilter::Get, Trigger::OpIndex(0), FaultKind::Corrupt)
                    .on_keys("in/c07"),
            );
        let (tm, _) = chaos_manager(64, plan);
        // Ten objects of their own: the fault schedule counts store ops.
        let items: Vec<(String, Vec<u8>)> = (0..10)
            .map(|i| {
                let payload: Vec<u8> = (0..PACK_MEMBER_MAX as u32 + 2048)
                    .map(|j| ((j ^ (i * 37)) % 253) as u8)
                    .collect();
                (format!("in/c{i:02}"), payload)
            })
            .collect();
        let (payloads, report) = tm.upload_fetch_pipelined(items.clone(), vec![], 3).unwrap();
        for ((key, expected), (got_key, got)) in items.iter().zip(&payloads) {
            assert_eq!(got_key, key);
            assert_eq!(got, expected, "bitwise intact under chaos");
        }
        assert!(report.total_retries() > 0, "transient faults really fired");
        assert!(report.total_refetches() > 0, "corruption really fired");
    }

    #[test]
    fn pipelined_fetch_only_reads_staged_objects() {
        let (tm, _) = manager(64);
        let staged = vec![7u8; 5000];
        tm.upload(vec![("cached/x".into(), staged.clone())])
            .unwrap();
        let fresh = vec![1u8; 3000];
        let (payloads, report) = tm
            .upload_fetch_pipelined(
                vec![("new/y".into(), fresh.clone())],
                vec!["cached/x".into()],
                2,
            )
            .unwrap();
        // Put items first, then fetch-only, each in request order.
        assert_eq!(payloads[0].0, "new/y");
        assert_eq!(payloads[0].1, fresh);
        assert_eq!(payloads[1].0, "cached/x");
        assert_eq!(payloads[1].1, staged);
        assert!(
            report.items[1].compressed,
            "staged object decompressed on fetch"
        );
    }

    #[test]
    fn pipeline_accounting_is_wall_normalized() {
        // Regression: busy seconds are summed over every pool worker, so
        // the old overlap (cpu_busy + io_busy - wall) reported ~20x the
        // wall on wide pools. Path seconds are the union of a stage's
        // busy intervals, and overlap is clamped to the wall.
        let (tm, _) = manager(64);
        let items: Vec<(String, Vec<u8>)> = (0..16)
            .map(|i| (format!("k{i:02}"), vec![(i % 251) as u8; 32 * 1024]))
            .collect();
        let (_, report) = tm.upload_fetch_pipelined(items, vec![], 4).unwrap();
        assert!(report.cpu_workers >= 1 && report.io_workers >= 1);
        assert!(
            report.overlap_seconds() <= report.wall_seconds + 1e-9,
            "overlap {} must not exceed wall {}",
            report.overlap_seconds(),
            report.wall_seconds
        );
        assert!(report.cpu_path_seconds() <= report.cpu_busy_seconds + 1e-12);
        assert!(report.io_path_seconds() <= report.io_busy_seconds + 1e-12);
    }

    #[test]
    fn pipelined_empty_batch_is_a_noop() {
        let (tm, _) = manager(64);
        let (payloads, report) = tm
            .upload_fetch_pipelined(Vec::<(String, Vec<u8>)>::new(), vec![], 4)
            .unwrap();
        assert!(payloads.is_empty());
        assert!(report.items.is_empty());
        assert_eq!(report.overlap_seconds(), 0.0);
    }

    #[test]
    fn pipelined_missing_fetch_key_errors() {
        let (tm, _) = manager(64);
        let result =
            tm.upload_fetch_pipelined(vec![("a".into(), vec![1, 2, 3])], vec!["missing".into()], 2);
        assert!(matches!(result, Err(StorageError::NotFound(_))));
    }

    #[test]
    fn sparse_vs_dense_wire_asymmetry() {
        // The core effect behind Fig. 5's sparse/dense split.
        let (tm, _) = manager(64);
        let sparse = {
            let mut v = vec![0u8; 65_536];
            for i in (0..v.len()).step_by(80) {
                v[i] = 1;
            }
            v
        };
        let dense = conformance::rng::bytes(65_536, 11);
        let rs = tm.upload(vec![("s".into(), sparse)]).unwrap();
        let rd = tm.upload(vec![("d".into(), dense)]).unwrap();
        assert!(
            rs.ratio() < rd.ratio(),
            "sparse ({:.3}) must beat dense ({:.3})",
            rs.ratio(),
            rd.ratio()
        );
    }

    #[test]
    fn pooled_staging_roundtrip_is_bitwise_clean() {
        let (tm, _) = manager(64);
        // Pollute the pool with junk from a "previous tile".
        for _ in 0..4 {
            let mut junk = tm.pool().get(8192);
            junk.extend_from_slice(&[0xEE; 8192]);
        }
        // Encode a real tile into a pooled staging buffer and roundtrip.
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 7) as u8).collect();
        let mut staged = tm.pool().get(data.len());
        staged.extend_from_slice(&data);
        tm.upload(vec![("tile".to_string(), staged)]).unwrap();
        let (payloads, _) = tm.download(vec!["tile".into()]).unwrap();
        assert_eq!(
            payloads[0].1, data,
            "no stale pool bytes leaked into the put"
        );
    }

    #[test]
    fn staging_buffers_cycle_through_the_pool() {
        let (tm, _) = manager(64);
        {
            let mut staged = tm.pool().get(16 * 1024);
            staged.extend_from_slice(&vec![0u8; 16 * 1024]); // compresses
            tm.upload(vec![("a".to_string(), staged)]).unwrap();
        }
        // Compressed path: the staging allocation checked back in after
        // the wire form replaced it.
        assert!(tm.pool().stats().returns >= 1, "{:?}", tm.pool().stats());
        let before = tm.pool().stats();
        let staged = tm.pool().get(16 * 1024);
        assert!(staged.is_empty());
        assert_eq!(
            tm.pool().stats().hits,
            before.hits + 1,
            "next tile reuses the allocation"
        );
        // Download payloads check in when the caller drops them.
        let (payloads, _) = tm.download(vec!["a".into()]).unwrap();
        let before = tm.pool().stats();
        drop(payloads);
        assert!(tm.pool().stats().returns > before.returns);
    }

    #[test]
    fn two_phase_commit_roundtrip() {
        let (tm, store) = manager(64);
        let names = vec!["out/y".to_string(), "out/z".to_string()];
        tm.upload(vec![
            (TransferManager::staged_key("job-0", "out/y"), vec![1; 32]),
            (TransferManager::staged_key("job-0", "out/z"), vec![2; 32]),
        ])
        .unwrap();
        assert!(!tm.is_committed("job-0"), "staged but not yet committed");

        let manifest = tm.publish_manifest("job-0", &names).unwrap();
        assert!(tm.is_committed("job-0"));
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.entries[0].name, "out/y");
        assert_eq!(manifest.entries[0].key, "job-0/_tmp/out/y");
        assert_eq!(
            manifest.entries[0].wire_crc,
            tm.ledger_crc("job-0/_tmp/out/y").unwrap()
        );
        assert_eq!(tm.read_manifest("job-0").unwrap(), manifest);
        // The manifest resolves: its keys read back the staged outputs,
        // though the two small ones share one staged object.
        let keys = manifest.entries.iter().map(|e| e.key.clone()).collect();
        let (outputs, _) = tm.download(keys).unwrap();
        assert_eq!(outputs[0].1, vec![1; 32]);
        assert_eq!(outputs[1].1, vec![2; 32]);

        // Committed regions are never garbage-collected.
        assert_eq!(tm.collect_orphans(""), 0);
        assert_eq!(store.list("job-0/_tmp/").len(), 1);
    }

    #[test]
    fn orphaned_staging_is_collected_only_without_a_manifest() {
        let (tm, store) = manager(64);
        // A crashed region: two staged tiles, no manifest.
        tm.upload(vec![
            (TransferManager::staged_key("job-1", "out/a"), vec![3; 16]),
            (TransferManager::staged_key("job-1", "out/b"), vec![4; 16]),
        ])
        .unwrap();
        // A committed region next to it.
        tm.upload(vec![(
            TransferManager::staged_key("job-2", "out/a"),
            vec![5; 16],
        )])
        .unwrap();
        tm.publish_manifest("job-2", &["out/a".to_string()])
            .unwrap();

        assert_eq!(tm.collect_orphans(""), 1, "the two tiles share an object");
        assert!(store.list("job-1/_tmp/").is_empty(), "orphans removed");
        assert_eq!(store.list("job-2/_tmp/").len(), 1, "committed data kept");
        assert_eq!(
            tm.ledger_crc("job-1/_tmp/out/a"),
            None,
            "ledger entries go with the orphans"
        );
    }

    #[test]
    fn leased_dataflow_keys_survive_orphan_collection() {
        let (tm, store) = manager(64);
        let root = "omp/dataflow/dag-0";
        tm.lease(root);
        tm.upload(vec![
            (format!("{root}/y"), vec![1u8; 64]),
            (format!("{root}/t"), vec![2u8; 64]),
        ])
        .unwrap();
        assert!(tm.is_leased(&format!("{root}/y")));
        assert_eq!(tm.collect_orphans(""), 0, "live chain is protected");
        assert_eq!(store.list(root).len(), 1, "two small buffers, one object");

        // Clean shutdown path: the holder releases after deleting its
        // own keys; leftovers from a *crashed* chain (lease gone) are
        // swept by the next region start.
        tm.release(root);
        assert!(!tm.is_leased(&format!("{root}/y")));
        assert_eq!(tm.collect_orphans(""), 1, "crashed chain leaks nothing");
        assert!(store.list(root).is_empty());
        assert_eq!(tm.ledger_crc(&format!("{root}/y")), None);
    }

    /// Regression for the orphan-GC TOCTOU: the collector lists a
    /// root's keys while it is unleased (a crashed chain's leftovers),
    /// but a new chain may re-lease that root and overwrite the keys
    /// before the collector gets to its deletes. The delete-time lease
    /// re-check must protect the live chain — under the old listing-time
    /// check alone, this test's downloads fail intermittently.
    #[test]
    fn orphan_gc_never_sweeps_a_released_chain() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (tm, _store) = manager(16);
        let root = "omp/dataflow/dag-0";
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let tm_ref = &tm;
            let done_ref = &done;
            let gc = s.spawn(move || {
                while !done_ref.load(Ordering::Relaxed) {
                    tm_ref.collect_orphans("");
                    std::thread::yield_now();
                }
            });
            for round in 0..200u8 {
                // The previous round's "crash" left this root's keys as
                // genuine orphans — the collector may hold them in a
                // sweep list right now. Leasing must protect the fresh
                // upload that lands under the same keys.
                tm.lease(root);
                let key = format!("{root}/v0/y");
                tm.upload(vec![(key.clone(), vec![round; 64])]).unwrap();
                let (payloads, _) = tm.download(vec![key.clone()]).unwrap_or_else(|e| {
                    panic!("round {round}: leased resident key swept by concurrent GC: {e}")
                });
                assert_eq!(&payloads[0].1[..], &[round; 64][..]);
                // Simulate a crash: release without cleanup, leaving the
                // key for the collector.
                tm.release(root);
            }
            done.store(true, Ordering::Relaxed);
            gc.join().unwrap();
        });
    }

    #[test]
    fn orphan_collection_scopes_dataflow_leases_per_dag() {
        let (tm, store) = manager(64);
        tm.lease("omp/dataflow/dag-1");
        tm.upload(vec![
            ("omp/dataflow/dag-0/y".to_string(), vec![1u8; 32]), // crashed
            ("omp/dataflow/dag-1/y".to_string(), vec![2u8; 32]), // live
        ])
        .unwrap();
        assert_eq!(tm.collect_orphans(""), 1, "only the unleased dag is swept");
        assert!(!store.exists("omp/dataflow/dag-0/y"));
        assert!(store.exists("omp/dataflow/dag-1/y"));
        // `dag-1` must not shadow `dag-10`: the lease unit is the full
        // path segment, not a string prefix of it.
        tm.upload(vec![("omp/dataflow/dag-10/y".to_string(), vec![3u8; 32])])
            .unwrap();
        assert_eq!(tm.collect_orphans(""), 1);
        assert!(!store.exists("omp/dataflow/dag-10/y"));
    }

    #[test]
    fn kill_between_staging_and_manifest_never_commits() {
        // The crash the protocol exists for: every staged put lands,
        // the store dies on the manifest publish. The region must read
        // as uncommitted, and the next start must sweep the leftovers.
        let plan = FaultPlan::new(31).rule(
            FaultRule::new(OpFilter::Put, Trigger::Always, FaultKind::Kill).on_keys("/manifest"),
        );
        let (tm, store) = chaos_manager(64, plan);
        tm.upload(vec![(
            TransferManager::staged_key("job-3", "out/y"),
            vec![9; 64],
        )])
        .unwrap();
        assert!(tm
            .publish_manifest("job-3", &["out/y".to_string()])
            .is_err());
        assert!(!store.exists("job-3/manifest"), "commit never visible");
        assert_eq!(store.list("job-3/_tmp/").len(), 1, "torn staging left");

        // Next region start, store back up: GC sweeps the orphan.
        let tm2 = TransferManager::new(Arc::new(store.clone()), TransferConfig::default());
        assert_eq!(tm2.collect_orphans(""), 1);
        assert!(store.list("job-3/").is_empty());
    }
}
