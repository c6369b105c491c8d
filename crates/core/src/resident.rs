//! The device's resident store: producer outputs of the active dataflow
//! DAG that stay cloud-side for their consumers, and the one recovery
//! ladder every read of them climbs.
//!
//! A kept output lives twice: durably, under a versioned object-store
//! key (`<root>/v<epoch>/<var>`), and as a decoded driver-side copy that
//! serves consumers and host escapes even while the store is down. The
//! lineage ledger remembers every version ever committed, so a lost
//! driver copy can be refetched and a recovery replay can pin the exact
//! version a region originally consumed.
//!
//! **Write-behind.** A commit installs the driver copy and the lineage
//! entry at once and hands the durable put to a `write-behind` thread of
//! the transfer manager ([`TransferManager::upload_behind`]): the
//! consumer's map phase runs beside it. The version is *pending* until
//! the put is settled — immediately before the device's next store
//! operation, so the store sees the ops a synchronous commit would
//! issue, in the same order. A pending version serves a plain hit; every
//! rung that reads the durable copy, and everything that deletes
//! resident keys, settles first. A put that failed leaves the driver copy (it is what the
//! consumer and a host escape read) and turns the lineage entry into a
//! tombstone: a later repair or pin of it is a typed loss, never a read
//! of the version before it.
//!
//! **Lock rule.** All of it — resident entries, lineage, the puts
//! settled since the last report, the armed test fault — sits behind one
//! lock, and no method holds that lock across a [`TransferManager`] or
//! object-store call, a settle included: a method snapshots what it
//! needs, releases, does its I/O, and re-locks to record the result. An
//! entry that changed in between wins over what the I/O brought back.

use crate::cache::Fingerprint;
use cloud_storage::{StorageError, TransferManager, TransferReport};
use omp_model::{ErasedVec, OmpError, ResidentLossReason, TypeTag};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Durable metadata of one committed resident version: enough to
/// re-fetch and verify its store copy.
#[derive(Clone)]
pub(crate) struct Version {
    /// Object-store key the producer committed the buffer under (region
    /// fingerprints are tied to it).
    pub key: String,
    /// Element type of the buffer.
    pub tag: TypeTag,
    /// Fingerprint of the decoded bytes, checked on every read of the
    /// driver-side copy and of a re-fetched durable one.
    pub fp: Fingerprint,
    /// Bytes on the wire of the store object holding the key, as
    /// recorded when the commit's put settled; 0 while it is pending.
    pub wire_len: u64,
}

/// The newest committed version of one variable, with its driver-side
/// decoded copy.
struct ResidentBuf {
    version: Version,
    /// Shared with whoever it is served to, and with the write-behind
    /// thread while the version's put is pending.
    bytes: Arc<Vec<u8>>,
    /// DAG epoch (region index) that produced this version.
    epoch: usize,
}

/// Which rung of the recovery ladder served a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    /// The driver-side copy was intact.
    Hit,
    /// The driver-side copy was damaged and repaired from the durable
    /// key.
    Repaired,
    /// The driver-side entry had vanished and was reinstated from the
    /// newest lineage version.
    Reinstated,
    /// An exact lineage version, read from its durable key.
    Pinned,
}

impl Rung {
    /// Did serving the read take a repair from the durable copy?
    pub(crate) fn repaired(self) -> bool {
        matches!(self, Rung::Repaired | Rung::Reinstated)
    }
}

/// One resident buffer as the ladder served it: the version (for a
/// [`Rung::Pinned`] read its `wire_len` is that of the fetch just made),
/// its decoded payload, and how far up the ladder the read had to go.
pub(crate) struct Served {
    pub version: Version,
    pub bytes: Arc<Vec<u8>>,
    pub rung: Rung,
}

/// A one-shot resident-buffer fault to arm via
/// [`CloudDevice::inject_resident_fault`](crate::CloudDevice::inject_resident_fault):
/// after the region with DAG epoch `after_epoch` commits its kept
/// outputs, `var`'s resident state is damaged once. Drives
/// deterministic recovery tests without relying on store-level chaos
/// timing (a store decorator cannot reach the driver-side copy).
pub struct ResidentFault {
    /// Variable whose resident copy is damaged.
    pub var: String,
    /// Fires after the region with this DAG epoch commits.
    pub after_epoch: usize,
    /// What breaks.
    pub kind: ResidentFaultKind,
}

/// What [`ResidentFault`] breaks.
pub enum ResidentFaultKind {
    /// Flip bits in the driver-side copy; the durable store copy stays
    /// good, so the next read repairs it (exercises `resident_repairs`).
    CorruptDriver,
    /// Drop the driver-side entry; the durable copy stays good, so the
    /// next read reinstates it from the lineage ledger.
    DropDriver,
    /// Drop the driver-side entry AND delete the version's store key —
    /// only a lineage recompute of the producer can regenerate it.
    DropAll,
}

#[derive(Default)]
struct State {
    /// Newest committed version per variable.
    resident: HashMap<String, ResidentBuf>,
    /// Every version (variable, epoch) ever committed. Versioned keys
    /// are retained until the DAG ends, so recovery replays can pin
    /// ancestor versions. `None`: the version's put failed — it was
    /// never durable, and it still is the newest the variable had.
    lineage: HashMap<(String, usize), Option<Version>>,
    /// The resident puts settled since the last report — the next
    /// offload to finish books their retries with its own.
    settled_puts: TransferReport,
    armed_fault: Option<ResidentFault>,
}

/// Device-resident intermediate buffers of the active dataflow DAG. See
/// the module docs for the lock rule.
#[derive(Default)]
pub(crate) struct ResidentStore {
    /// Shared with the settle callback of the pending put.
    state: Arc<Mutex<State>>,
}

/// Fetch a version's durable store copy and verify it against the
/// recorded fingerprint. `None` when the key is gone or every copy fails
/// verification — the ladder then reports a typed loss rather than an
/// infrastructure failure, so the DAG scheduler recomputes the producer
/// instead of the breaker counting a fault.
fn fetch_durable(transfer: &TransferManager, version: &Version) -> Option<(Arc<Vec<u8>>, u64)> {
    let (payloads, report) = transfer.download(vec![version.key.clone()]).ok()?;
    let (_, buf) = payloads.into_iter().next()?;
    (Fingerprint::of(&buf) == version.fp).then(|| (Arc::new(buf.to_vec()), report.wire_bytes()))
}

impl ResidentStore {
    /// The one recovery ladder every resident read climbs. Without a
    /// `pin` the newest version of `var` is served: an intact driver copy
    /// as is; a damaged one repaired from its durable key (never
    /// silently replaced by a stale host value); a vanished entry
    /// reinstated from the newest lineage version. With `pin = Some(epoch)`
    /// the exact version that epoch produced is read from its durable
    /// lineage copy — what a recovery replay consumes (the host
    /// environment and the newest entry have both moved past it). When
    /// the durable copy is gone too the loss is typed, so the DAG
    /// scheduler can recompute the producer — one producer deeper for a
    /// pinned ancestor.
    pub(crate) fn serve(
        &self,
        transfer: &TransferManager,
        var: &str,
        pin: Option<usize>,
    ) -> Result<Served, OmpError> {
        if pin.is_none() {
            let st = self.state.lock();
            // The shared buffer is handed out as it is; re-checking its
            // fingerprint on every read is the rot detector.
            if let Some(rb) = st.resident.get(var) {
                if Fingerprint::of(&rb.bytes) == rb.version.fp {
                    return Ok(Served {
                        version: rb.version.clone(),
                        bytes: Arc::clone(&rb.bytes),
                        rung: Rung::Hit,
                    });
                }
            }
        }
        // Every other rung reads a durable copy, and a pending version
        // has none yet: wait for its put. The put's own failure is told
        // to the lineage, where the lookup below finds it.
        let _ = transfer.settle();
        let (version, epoch, rung) = {
            let st = self.state.lock();
            match (pin, st.resident.get(var)) {
                (Some(epoch), _) => {
                    let pinned = st.lineage.get(&(var.to_string(), epoch));
                    (pinned.cloned().flatten(), epoch, Rung::Pinned)
                }
                (None, Some(rb)) => (Some(rb.version.clone()), rb.epoch, Rung::Repaired),
                (None, None) => {
                    let newest = st
                        .lineage
                        .iter()
                        .filter(|((v, _), _)| v == var)
                        .max_by_key(|((_, epoch), _)| *epoch);
                    let epoch = newest.map_or(0, |((_, epoch), _)| *epoch);
                    (newest.and_then(|(_, v)| v.clone()), epoch, Rung::Reinstated)
                }
            }
        };
        // An entry whose every copy fails its check is an integrity
        // loss; anything that is simply not there any more is a miss.
        let durable = version.and_then(|v| Some((fetch_durable(transfer, &v)?, v)));
        let ((bytes, fetched_wire), mut version) =
            durable.ok_or_else(|| OmpError::ResidentLoss {
                var: var.to_string(),
                reason: match rung {
                    Rung::Repaired => ResidentLossReason::Integrity,
                    _ => ResidentLossReason::Miss,
                },
            })?;
        let mut st = self.state.lock();
        match rung {
            Rung::Repaired => {
                if let Some(rb) = st.resident.get_mut(var) {
                    if rb.version.key == version.key {
                        rb.bytes = Arc::clone(&bytes);
                    }
                }
            }
            Rung::Reinstated => {
                st.resident
                    .entry(var.to_string())
                    .or_insert_with(|| ResidentBuf {
                        version: version.clone(),
                        bytes: Arc::clone(&bytes),
                        epoch,
                    });
            }
            _ => version.wire_len = fetched_wire,
        }
        Ok(Served {
            version,
            bytes,
            rung,
        })
    }

    /// Commit `bufs` resident as version `epoch` of the DAG rooted at
    /// `root`: the driver-side copies and the lineage entries now, one
    /// put under the versioned keys (ancestor versions survive until the
    /// DAG ends, so lineage recovery can pin them) behind the caller's
    /// back. The foreground pays one serialization and one crc per
    /// buffer, then settles the previous commit's put — whose failure is
    /// the `Err`, with nothing of this commit installed or queued. The put
    /// seals the serialized bytes where they are, with the fingerprint's
    /// crc as its frame's: no second crc pass and no staging copy.
    pub(crate) fn commit(
        &self,
        transfer: &Arc<TransferManager>,
        root: &str,
        epoch: usize,
        bufs: Vec<(&str, &ErasedVec)>,
    ) -> Result<(), StorageError> {
        let staged: Vec<(String, ResidentBuf)> = bufs
            .into_iter()
            .map(|(name, buf)| {
                let bytes = Arc::new(buf.to_bytes());
                let version = Version {
                    key: format!("{root}/v{epoch}/{name}"),
                    tag: buf.tag(),
                    fp: Fingerprint::of(&bytes),
                    wire_len: 0,
                };
                let rb = ResidentBuf {
                    version,
                    bytes,
                    epoch,
                };
                (name.to_string(), rb)
            })
            .collect();
        let items = staged
            .iter()
            .map(|(_, rb)| {
                let Version { key, fp, .. } = &rb.version;
                (key.clone(), Arc::clone(&rb.bytes), fp.crc)
            })
            .collect();
        let names: Vec<String> = staged.iter().map(|(name, _)| name.clone()).collect();
        let state = Arc::clone(&self.state);
        transfer.upload_behind(items, move |transfer, put| {
            let st = &mut *state.lock();
            for name in names {
                // Gone if the variable was invalidated, or the DAG ended,
                // while the put was on its way.
                let Some(entry) = st.lineage.get_mut(&(name.clone(), epoch)) else {
                    continue;
                };
                let (Some(version), Ok(put)) = (entry.as_mut(), put) else {
                    *entry = None;
                    continue;
                };
                // The wire length is that of the store object holding
                // the buffer: small outputs of one region share an
                // object, and fetching one fetches it whole.
                let object = transfer.object_key(&version.key);
                let item = put.items.iter().find(|item| item.key == object);
                version.wire_len = item.map_or(0, |item| item.wire_bytes);
                if let Some(rb) = st.resident.get_mut(&name) {
                    if rb.version.key == version.key {
                        rb.version.wire_len = version.wire_len;
                    }
                }
            }
            if let Ok(put) = put {
                st.settled_puts.items.extend(put.items.iter().cloned());
            }
        })?;
        let mut st = self.state.lock();
        for (name, rb) in staged {
            st.lineage
                .insert((name.clone(), epoch), Some(rb.version.clone()));
            // A recovery replay (or a re-adopted stage) regenerates an
            // old version; a newer committed one stays authoritative.
            if !matches!(st.resident.get(&name), Some(cur) if cur.epoch > epoch) {
                st.resident.insert(name, rb);
            }
        }
        Ok(())
    }

    /// The resident puts settled since the last report: an offload takes
    /// them as it publishes its own, so each put's retries are counted
    /// exactly once, by the region that waited for it.
    pub(crate) fn take_settled_puts(&self) -> TransferReport {
        std::mem::take(&mut self.state.lock().settled_puts)
    }

    /// Drop `vars` and every durable version of them: a host-side write
    /// superseded the variable, and it must never be reinstated from a
    /// stale lineage copy.
    pub(crate) fn invalidate(&self, transfer: &TransferManager, vars: &[String]) {
        // A put still on its way could land after the delete below.
        let _ = transfer.settle();
        let mut keys: Vec<String> = Vec::new();
        {
            let mut st = self.state.lock();
            for var in vars {
                keys.extend(st.resident.remove(var).map(|rb| rb.version.key));
                st.lineage.retain(|(v, _), version| {
                    if v == var {
                        keys.extend(version.take().map(|version| version.key));
                    }
                    v != var
                });
            }
        }
        for key in keys {
            delete_key(transfer, &key);
        }
    }

    /// The DAG window closed: settle its last put — the caller deletes
    /// the keys with the DAG's root next — and forget every entry,
    /// version and unreported put.
    pub(crate) fn end_dag(&self, transfer: &TransferManager) {
        let _ = transfer.settle();
        let mut st = self.state.lock();
        st.resident.clear();
        st.lineage.clear();
        st.settled_puts = TransferReport::default();
    }

    /// Arm a one-shot fault (replacing any armed one).
    pub(crate) fn arm(&self, fault: ResidentFault) {
        self.state.lock().armed_fault = Some(fault);
    }

    /// Fire the armed fault if it targets `epoch`.
    pub(crate) fn fire_armed(&self, transfer: &TransferManager, epoch: usize) {
        if !matches!(&self.state.lock().armed_fault, Some(f) if f.after_epoch == epoch) {
            return;
        }
        // The fault damages a committed version: wait until it is one.
        let _ = transfer.settle();
        let dropped_key = {
            let mut st = self.state.lock();
            let Some(fault) = st.armed_fault.take() else {
                return;
            };
            match fault.kind {
                ResidentFaultKind::CorruptDriver => {
                    if let Some(b) = st
                        .resident
                        .get_mut(&fault.var)
                        .and_then(|rb| Arc::make_mut(&mut rb.bytes).first_mut())
                    {
                        *b ^= 0xff;
                    }
                    None
                }
                ResidentFaultKind::DropDriver => {
                    st.resident.remove(&fault.var);
                    None
                }
                ResidentFaultKind::DropAll => {
                    st.resident.remove(&fault.var).map(|rb| rb.version.key)
                }
            }
        };
        if let Some(key) = dropped_key {
            delete_key(transfer, &key);
        }
    }
}

/// Delete one resident key and what the integrity ledger holds on it.
fn delete_key(transfer: &TransferManager, key: &str) {
    let _ = transfer.store().delete(key);
    transfer.forget_prefix(key);
}

#[cfg(test)]
mod tests {
    //! The ladder, one test per rung and exit, and the write-behind
    //! commit's laws, over an in-memory store and no cluster.
    //!
    //! The lock rule is checked twice over. A probe store tries the lock
    //! on every foreground op. And a settle's callback takes the lock
    //! itself, so a method that held it across the settle of a pending
    //! put would deadlock — every test below that settles one is a test
    //! of that.

    use super::*;
    use cloud_storage::{ObjectStore, S3Store, StoreHandle, TransferConfig};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    const ROOT: &str = "dataflow/dag-0";

    /// A store that checks the lock rule and the settle law from the far
    /// side. On every foreground op it tries the resident store's lock,
    /// which must be free, and looks for a write-behind put still inside
    /// the store, which there must not be. It can keep such a put inside
    /// (held until released, or just slow), and fail it.
    struct LockProbe {
        inner: S3Store,
        watched: Arc<ResidentStore>,
        held_across_an_op: AtomicBool,
        ops: AtomicU64,
        /// While set, a put waits inside the store.
        hold_puts: AtomicBool,
        /// What a put takes inside the store, in ms.
        slow_put_ms: AtomicU64,
        put_inside: AtomicBool,
        /// A foreground op reached the store while a put was inside it.
        overtaken: AtomicBool,
        fail_puts: AtomicBool,
        /// Puts still to fail with a transient (retried) error.
        blips: AtomicU64,
    }

    impl LockProbe {
        /// Returns whether the op is the writer thread's.
        fn probe(&self) -> bool {
            self.ops.fetch_add(1, Ordering::SeqCst);
            // A write-behind put runs beside a foreground that takes the
            // lock as it pleases; both rules bind the foreground's ops.
            let behind = std::thread::current().name() == Some("write-behind");
            if !behind && self.watched.state.try_lock().is_none() {
                self.held_across_an_op.store(true, Ordering::SeqCst);
            }
            if !behind && self.put_inside.load(Ordering::SeqCst) {
                self.overtaken.store(true, Ordering::SeqCst);
            }
            behind
        }
    }

    impl ObjectStore for LockProbe {
        fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
            self.put_inside.store(self.probe(), Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(
                self.slow_put_ms.load(Ordering::SeqCst),
            ));
            while self.hold_puts.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.put_inside.store(false, Ordering::SeqCst);
            if self.fail_puts.load(Ordering::SeqCst) {
                return Err(StorageError::Unavailable(format!("probe: {key} refused")));
            }
            let blip = |left: u64| left.checked_sub(1);
            if self
                .blips
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, blip)
                .is_ok()
            {
                return Err(StorageError::Transient(format!("probe: blip on {key}")));
            }
            self.inner.put(key, data)
        }
        fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
            self.probe();
            self.inner.get(key)
        }
        fn delete(&self, key: &str) -> Result<(), StorageError> {
            self.probe();
            self.inner.delete(key)
        }
        fn exists(&self, key: &str) -> bool {
            self.probe();
            self.inner.exists(key)
        }
        fn list(&self, prefix: &str) -> Vec<String> {
            self.probe();
            self.inner.list(prefix)
        }
        fn size(&self, key: &str) -> Option<u64> {
            self.probe();
            self.inner.size(key)
        }
        fn kind(&self) -> &'static str {
            "lock-probe"
        }
    }

    struct Rig {
        resident: Arc<ResidentStore>,
        transfer: Arc<TransferManager>,
        bucket: S3Store,
        probe: Arc<LockProbe>,
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            self.probe.hold_puts.store(false, Ordering::SeqCst);
            let _ = self.transfer.settle();
        }
    }

    impl Rig {
        fn new() -> Rig {
            let resident = Arc::new(ResidentStore::default());
            let bucket = S3Store::standalone("resident");
            let probe = Arc::new(LockProbe {
                inner: bucket.clone(),
                watched: Arc::clone(&resident),
                held_across_an_op: AtomicBool::new(false),
                ops: AtomicU64::new(0),
                hold_puts: AtomicBool::new(false),
                slow_put_ms: AtomicU64::new(0),
                put_inside: AtomicBool::new(false),
                overtaken: AtomicBool::new(false),
                fail_puts: AtomicBool::new(false),
                blips: AtomicU64::new(0),
            });
            let transfer = Arc::new(TransferManager::new(
                Arc::clone(&probe) as StoreHandle,
                TransferConfig::default(),
            ));
            Rig {
                resident,
                transfer,
                bucket,
                probe,
            }
        }

        /// Commit `value` × 64 as version `epoch` of `var`; the put is
        /// on its way when this returns.
        fn commit(&self, var: &str, epoch: usize, value: f32) {
            self.try_commit(var, epoch, value).unwrap();
        }

        fn try_commit(&self, var: &str, epoch: usize, value: f32) -> Result<(), StorageError> {
            let buf = ErasedVec::F32(vec![value; 64]);
            self.resident
                .commit(&self.transfer, ROOT, epoch, vec![(var, &buf)])
        }

        /// Commit with the put held inside the store until `hold_puts`
        /// is cleared (or the rig drops); returns once it is in there.
        fn commit_held(&self, var: &str, epoch: usize, value: f32) {
            self.probe.hold_puts.store(true, Ordering::SeqCst);
            self.commit(var, epoch, value);
            while !self.probe.put_inside.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        /// Commit with a put that takes its time: whatever store op the
        /// caller issues next meets it inside the store, unless it waits.
        fn commit_slowly(&self, var: &str, epoch: usize, value: f32) {
            self.probe.slow_put_ms.store(20, Ordering::SeqCst);
            self.commit(var, epoch, value);
        }

        fn damage(&self, var: &str, after_epoch: usize, kind: ResidentFaultKind) {
            self.resident.arm(ResidentFault {
                var: var.to_string(),
                after_epoch,
                kind,
            });
            self.resident.fire_armed(&self.transfer, after_epoch);
        }

        fn serve(&self, var: &str) -> Result<Served, OmpError> {
            self.resident.serve(&self.transfer, var, None)
        }

        fn assert_lock_rule(&self) {
            assert!(
                !self.probe.held_across_an_op.load(Ordering::SeqCst),
                "the resident lock was held across a store op"
            );
            assert!(
                !self.probe.overtaken.load(Ordering::SeqCst),
                "a store op was issued before the pending put had landed"
            );
        }
    }

    fn payload(value: f32) -> Vec<u8> {
        ErasedVec::F32(vec![value; 64]).to_bytes()
    }

    fn assert_loss(outcome: Result<Served, OmpError>, var: &str, reason: ResidentLossReason) {
        match outcome {
            Err(OmpError::ResidentLoss { var: v, reason: r }) => {
                assert_eq!((v.as_str(), r), (var, reason));
            }
            Err(other) => panic!("expected a typed loss, got {other}"),
            Ok(served) => panic!("expected a typed loss, got rung {:?}", served.rung),
        }
    }

    #[test]
    fn an_intact_driver_copy_is_served_as_is() {
        let rig = Rig::new();
        rig.commit("x", 0, 1.5);
        rig.transfer.settle().unwrap();
        let ops_before = rig.probe.ops.load(Ordering::SeqCst);
        let served = rig.serve("x").unwrap();
        assert_eq!(
            rig.probe.ops.load(Ordering::SeqCst),
            ops_before,
            "a hit touches no store"
        );
        assert_eq!(served.rung, Rung::Hit);
        assert_eq!(*served.bytes, payload(1.5));
        assert_eq!(served.version.key, format!("{ROOT}/v0/x"));
        assert_eq!(served.version.tag, TypeTag::F32);
        assert!(
            served.version.wire_len > 0,
            "the settled put's wire length is on record"
        );
        rig.assert_lock_rule();
    }

    #[test]
    fn a_pending_version_is_a_hit_that_touches_no_store_and_does_not_wait() {
        let rig = Rig::new();
        rig.commit_held("x", 0, 1.5);
        let ops_before = rig.probe.ops.load(Ordering::SeqCst);
        let served = rig.serve("x").unwrap();
        assert_eq!(served.rung, Rung::Hit);
        assert_eq!(*served.bytes, payload(1.5));
        assert_eq!(served.version.wire_len, 0, "not known before the put lands");
        assert_eq!(rig.probe.ops.load(Ordering::SeqCst), ops_before);
        assert!(rig.bucket.list(ROOT).is_empty(), "the put is still held");
        // The same buffer, not a copy of it.
        let again = rig.serve("x").unwrap();
        assert!(Arc::ptr_eq(&served.bytes, &again.bytes));
        rig.probe.hold_puts.store(false, Ordering::SeqCst);
        rig.transfer.settle().unwrap();
        assert!(rig.serve("x").unwrap().version.wire_len > 0);
        rig.assert_lock_rule();
    }

    #[test]
    fn a_damaged_driver_copy_is_repaired_from_the_durable_key() {
        let rig = Rig::new();
        rig.commit("x", 0, 2.0);
        rig.damage("x", 0, ResidentFaultKind::CorruptDriver);
        let served = rig.serve("x").unwrap();
        assert_eq!(served.rung, Rung::Repaired);
        assert!(served.rung.repaired());
        assert_eq!(*served.bytes, payload(2.0));
        // The repair sticks: the next read is a plain hit.
        assert_eq!(rig.serve("x").unwrap().rung, Rung::Hit);
        rig.assert_lock_rule();
    }

    #[test]
    fn a_vanished_entry_is_reinstated_from_the_newest_lineage_version() {
        let rig = Rig::new();
        rig.commit("x", 0, 1.0);
        rig.commit("x", 3, 4.0);
        rig.damage("x", 3, ResidentFaultKind::DropDriver);
        let served = rig.serve("x").unwrap();
        assert_eq!(served.rung, Rung::Reinstated);
        assert_eq!(*served.bytes, payload(4.0), "epoch 3, not epoch 0");
        assert_eq!(served.version.key, format!("{ROOT}/v3/x"));
        assert_eq!(rig.serve("x").unwrap().rung, Rung::Hit);
        rig.assert_lock_rule();
    }

    #[test]
    fn every_durable_rung_waits_for_a_pending_version() {
        // Break the driver copy behind the ladder's back (the armed
        // fault would settle the put itself), then read while the put is
        // still inside the store: a read that did not wait overtakes it
        // and finds no durable copy.
        type Break = fn(&mut State);
        let cases: [(Break, Option<usize>, Rung); 3] = [
            (
                |st| Arc::make_mut(&mut st.resident.get_mut("x").unwrap().bytes)[0] ^= 0xff,
                None,
                Rung::Repaired,
            ),
            (|st| drop(st.resident.remove("x")), None, Rung::Reinstated),
            (|_| (), Some(0), Rung::Pinned),
        ];
        for (damage, pin, rung) in cases {
            let rig = Rig::new();
            rig.commit_slowly("x", 0, 3.0);
            damage(&mut rig.resident.state.lock());
            let served = rig.resident.serve(&rig.transfer, "x", pin).unwrap();
            assert_eq!(served.rung, rung);
            assert_eq!(*served.bytes, payload(3.0));
            assert!(
                served.version.wire_len > 0,
                "{rung:?}: settled before it was read"
            );
            rig.assert_lock_rule();
        }
    }

    #[test]
    fn damaged_with_the_durable_copy_gone_is_an_integrity_loss() {
        let rig = Rig::new();
        rig.commit("x", 0, 2.0);
        rig.damage("x", 0, ResidentFaultKind::CorruptDriver);
        rig.transfer.delete_prefix(ROOT);
        assert_loss(rig.serve("x"), "x", ResidentLossReason::Integrity);
        rig.assert_lock_rule();
    }

    #[test]
    fn missing_with_the_durable_copy_gone_is_a_miss() {
        let rig = Rig::new();
        rig.commit("x", 0, 2.0);
        rig.damage("x", 0, ResidentFaultKind::DropAll);
        assert!(rig.bucket.list(ROOT).is_empty(), "DropAll deletes the key");
        assert_loss(rig.serve("x"), "x", ResidentLossReason::Miss);
        assert_loss(rig.serve("never"), "never", ResidentLossReason::Miss);
        rig.assert_lock_rule();
    }

    #[test]
    fn a_pinned_epoch_is_served_from_its_durable_copy_or_lost() {
        let rig = Rig::new();
        rig.commit("x", 0, 1.0);
        rig.commit("x", 1, 2.0);
        let pinned = rig.resident.serve(&rig.transfer, "x", Some(0)).unwrap();
        assert_eq!(pinned.rung, Rung::Pinned);
        assert!(!pinned.rung.repaired());
        assert_eq!(*pinned.bytes, payload(1.0), "the old version, exactly");
        assert!(pinned.version.wire_len > 0, "wire bytes of the fetch");
        assert_eq!(*rig.serve("x").unwrap().bytes, payload(2.0));
        // Only lineage versions can be pinned, and only while durable.
        let unknown = rig.resident.serve(&rig.transfer, "x", Some(7));
        assert_loss(unknown, "x", ResidentLossReason::Miss);
        rig.transfer.delete_prefix(&format!("{ROOT}/v0"));
        let gone = rig.resident.serve(&rig.transfer, "x", Some(0));
        assert_loss(gone, "x", ResidentLossReason::Miss);
        rig.assert_lock_rule();
    }

    #[test]
    fn a_replayed_older_epoch_never_displaces_a_newer_version() {
        let rig = Rig::new();
        rig.commit("x", 2, 9.0);
        // A recovery replay regenerates epoch 1 after epoch 2 committed.
        rig.commit("x", 1, 5.0);
        assert_eq!(*rig.serve("x").unwrap().bytes, payload(9.0));
        // The replayed version is in the lineage all the same.
        let replayed = rig.resident.serve(&rig.transfer, "x", Some(1)).unwrap();
        assert_eq!(*replayed.bytes, payload(5.0));
        rig.assert_lock_rule();
    }

    #[test]
    fn a_failed_put_surfaces_at_the_next_commit_which_installs_nothing() {
        let rig = Rig::new();
        rig.probe.fail_puts.store(true, Ordering::SeqCst);
        rig.commit("x", 0, 1.0);
        let refused = rig.try_commit("x", 1, 2.0).unwrap_err();
        assert!(matches!(refused, StorageError::Unavailable(_)), "{refused}");
        assert!(rig.transfer.settle().is_ok(), "told once");
        // Epoch 0's driver copy still serves; nothing of epoch 1 exists.
        assert_eq!(*rig.serve("x").unwrap().bytes, payload(1.0));
        let never = rig.resident.serve(&rig.transfer, "x", Some(1));
        assert_loss(never, "x", ResidentLossReason::Miss);
        rig.assert_lock_rule();
    }

    #[test]
    fn a_failed_put_leaves_the_driver_copy_and_no_version_to_fall_back_to() {
        let rig = Rig::new();
        rig.commit("x", 0, 1.0);
        rig.transfer.settle().unwrap();
        rig.probe.fail_puts.store(true, Ordering::SeqCst);
        rig.commit("x", 1, 2.0);
        assert!(rig.transfer.settle().is_err());
        rig.probe.fail_puts.store(false, Ordering::SeqCst);
        // The consumer and a host escape read the driver copy.
        let served = rig.serve("x").unwrap();
        assert_eq!((served.rung, &*served.bytes), (Rung::Hit, &payload(2.0)));
        // The version was never durable: a pin of it is a typed loss,
        // while its ancestor is as pinnable as ever.
        let lost = rig.resident.serve(&rig.transfer, "x", Some(1));
        assert_loss(lost, "x", ResidentLossReason::Miss);
        let ancestor = rig.resident.serve(&rig.transfer, "x", Some(0)).unwrap();
        assert_eq!(*ancestor.bytes, payload(1.0));
        // With the driver copy gone too the variable is lost — epoch 0
        // is not "the newest version", and must not be served as one.
        rig.damage("x", 1, ResidentFaultKind::DropDriver);
        assert_loss(rig.serve("x"), "x", ResidentLossReason::Miss);
        rig.assert_lock_rule();
    }

    #[test]
    fn invalidate_removes_every_lineage_versions_key() {
        let rig = Rig::new();
        rig.commit("x", 0, 1.0);
        rig.commit("x", 1, 2.0);
        rig.commit("y", 1, 3.0);
        rig.resident.invalidate(&rig.transfer, &["x".to_string()]);
        assert_eq!(rig.bucket.list(ROOT), vec![format!("{ROOT}/v1/y")]);
        assert_loss(rig.serve("x"), "x", ResidentLossReason::Miss);
        assert_eq!(rig.serve("y").unwrap().rung, Rung::Hit);
        rig.assert_lock_rule();
    }

    #[test]
    fn whatever_deletes_resident_keys_settles_first() {
        // Each deleter runs while the put is inside the store. One that
        // did not wait would delete nothing, and the late put would bring
        // the key back.
        type Deleter = fn(&Rig);
        let deleters: [Deleter; 3] = [
            |rig| rig.resident.invalidate(&rig.transfer, &["x".to_string()]),
            |rig| {
                rig.resident.end_dag(&rig.transfer);
                rig.transfer.delete_prefix(ROOT);
            },
            |rig| rig.damage("x", 0, ResidentFaultKind::DropAll),
        ];
        for delete in deleters {
            let rig = Rig::new();
            rig.commit_slowly("x", 0, 1.0);
            delete(&rig);
            let _ = rig.transfer.settle();
            assert!(
                rig.bucket.list(ROOT).is_empty(),
                "a late put resurrected the key"
            );
            assert_loss(rig.serve("x"), "x", ResidentLossReason::Miss);
            rig.assert_lock_rule();
        }
    }

    #[test]
    fn settled_puts_are_handed_over_once_and_cleared_with_the_dag() {
        let rig = Rig::new();
        rig.probe.blips.store(2, Ordering::SeqCst);
        rig.commit("x", 0, 1.0);
        assert_eq!(
            rig.resident.take_settled_puts().total_retries(),
            0,
            "nothing is booked before the put is settled"
        );
        rig.transfer.settle().unwrap();
        assert_eq!(rig.resident.take_settled_puts().total_retries(), 2);
        assert_eq!(
            rig.resident.take_settled_puts().total_retries(),
            0,
            "taken once"
        );
        rig.probe.blips.store(1, Ordering::SeqCst);
        rig.commit("x", 1, 2.0);
        rig.resident.end_dag(&rig.transfer);
        assert_eq!(rig.resident.take_settled_puts().total_retries(), 0);
        assert_loss(rig.serve("x"), "x", ResidentLossReason::Miss);
    }
}
