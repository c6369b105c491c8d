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
//! **Lock rule.** All of it — resident entries, lineage, the retry
//! accounting carried from an adoption to the next offload's report, the
//! armed test fault — sits behind one lock, and no method holds that lock across a
//! [`TransferManager`] or object-store call: a method snapshots what it
//! needs, releases, does its I/O, and re-locks to record the result. An
//! entry that changed in between wins over what the I/O brought back.

use crate::cache::Fingerprint;
use crate::report::ResilienceSummary;
use cloud_storage::{StorageError, TransferManager, TransferReport};
use omp_model::{ErasedVec, OmpError, ResidentLossReason, TypeTag};
use parking_lot::Mutex;
use std::collections::HashMap;

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
    fp: Fingerprint,
    /// Bytes on the wire of the store object holding the key, as
    /// recorded at commit.
    pub wire_len: u64,
}

/// The newest committed version of one variable, with its driver-side
/// decoded copy.
struct ResidentBuf {
    version: Version,
    bytes: Vec<u8>,
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
    pub bytes: Vec<u8>,
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
    /// ancestor versions.
    lineage: HashMap<(String, usize), Version>,
    /// What the retry layer did for resident adoptions since the last
    /// offload — the next offload's [`ResilienceSummary`] starts from it.
    carried_resilience: ResilienceSummary,
    armed_fault: Option<ResidentFault>,
}

/// Device-resident intermediate buffers of the active dataflow DAG. See
/// the module docs for the lock rule.
#[derive(Default)]
pub(crate) struct ResidentStore {
    state: Mutex<State>,
}

/// Fetch a version's durable store copy and verify it against the
/// recorded fingerprint. `None` when the key is gone or every copy fails
/// verification — the ladder then reports a typed loss rather than an
/// infrastructure failure, so the DAG scheduler recomputes the producer
/// instead of the breaker counting a fault.
fn fetch_durable(transfer: &TransferManager, version: &Version) -> Option<(Vec<u8>, u64)> {
    let (payloads, report) = transfer.download(vec![version.key.clone()]).ok()?;
    let (_, buf) = payloads.into_iter().next()?;
    (Fingerprint::of(&buf) == version.fp).then(|| (buf.to_vec(), report.wire_bytes()))
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
        let (version, epoch, rung) = {
            let st = self.state.lock();
            match (pin, st.resident.get(var)) {
                (Some(epoch), _) => {
                    let pinned = st.lineage.get(&(var.to_string(), epoch));
                    (pinned.cloned(), epoch, Rung::Pinned)
                }
                (None, Some(rb)) if Fingerprint::of(&rb.bytes) == rb.version.fp => {
                    return Ok(Served {
                        version: rb.version.clone(),
                        bytes: rb.bytes.clone(),
                        rung: Rung::Hit,
                    });
                }
                (None, Some(rb)) => (Some(rb.version.clone()), rb.epoch, Rung::Repaired),
                (None, None) => {
                    let newest = st
                        .lineage
                        .iter()
                        .filter(|((v, _), _)| v == var)
                        .max_by_key(|((_, epoch), _)| *epoch);
                    let epoch = newest.map_or(0, |((_, epoch), _)| *epoch);
                    (newest.map(|(_, v)| v.clone()), epoch, Rung::Reinstated)
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
                        rb.bytes = bytes.clone();
                    }
                }
            }
            Rung::Reinstated => {
                st.resident
                    .entry(var.to_string())
                    .or_insert_with(|| ResidentBuf {
                        version: version.clone(),
                        bytes: bytes.clone(),
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
    /// `root`: one put under the versioned keys (ancestor versions
    /// survive until the DAG ends, so lineage recovery can pin them),
    /// then the lineage entries and the driver-side copies. Returns the
    /// put's report.
    pub(crate) fn commit(
        &self,
        transfer: &TransferManager,
        root: &str,
        epoch: usize,
        bufs: Vec<(&str, &ErasedVec)>,
    ) -> Result<TransferReport, StorageError> {
        let mut staged: Vec<(&str, ResidentBuf)> = Vec::with_capacity(bufs.len());
        let mut items: Vec<(String, Vec<u8>)> = Vec::with_capacity(bufs.len());
        for (name, buf) in bufs {
            let bytes = buf.to_bytes();
            let key = format!("{root}/v{epoch}/{name}");
            items.push((key.clone(), bytes.clone()));
            let version = Version {
                key,
                tag: buf.tag(),
                fp: Fingerprint::of(&bytes),
                wire_len: 0,
            };
            staged.push((
                name,
                ResidentBuf {
                    version,
                    bytes,
                    epoch,
                },
            ));
        }
        let put = transfer.upload(items)?;
        for (_, rb) in &mut staged {
            // The wire length is that of the store object holding the
            // buffer: small outputs of one region share an object, and
            // fetching one fetches it whole.
            let object = transfer.object_key(&rb.version.key);
            rb.version.wire_len = put
                .items
                .iter()
                .find(|item| item.key == object)
                .map_or(0, |item| item.wire_bytes);
        }
        let mut st = self.state.lock();
        for (name, rb) in staged {
            st.lineage
                .insert((name.to_string(), epoch), rb.version.clone());
            // A recovery replay (or a re-adopted stage) regenerates an
            // old version; a newer committed one stays authoritative.
            if !matches!(st.resident.get(name), Some(cur) if cur.epoch > epoch) {
                st.resident.insert(name.to_string(), rb);
            }
        }
        Ok(put)
    }

    /// A stage that fell back to the host had its outputs adopted
    /// resident by `put`: carry the put's retry accounting into the next
    /// offload's report — adoption happens between offloads, and this is
    /// the only record of its retries. (The fallback itself is counted
    /// by the DAG scheduler that decided it.)
    pub(crate) fn note_adoption(&self, put: &TransferReport) {
        self.state.lock().carried_resilience.absorb(put);
    }

    /// The retry accounting carried since the last offload; an offload
    /// takes it as it starts.
    pub(crate) fn take_resilience(&self) -> ResilienceSummary {
        std::mem::take(&mut self.state.lock().carried_resilience)
    }

    /// Drop `vars` and every durable version of them: a host-side write
    /// superseded the variable, and it must never be reinstated from a
    /// stale lineage copy.
    pub(crate) fn invalidate(&self, transfer: &TransferManager, vars: &[String]) {
        let mut keys: Vec<String> = Vec::new();
        {
            let mut st = self.state.lock();
            for var in vars {
                keys.extend(st.resident.remove(var).map(|rb| rb.version.key));
                st.lineage.retain(|(v, _), version| {
                    if v == var {
                        keys.push(version.key.clone());
                    }
                    v != var
                });
            }
        }
        for key in keys {
            delete_key(transfer, &key);
        }
    }

    /// The DAG window closed: forget every entry, version and carried
    /// retry count (the caller deletes the keys with the DAG's root).
    pub(crate) fn end_dag(&self) {
        let mut st = self.state.lock();
        st.resident.clear();
        st.lineage.clear();
        st.carried_resilience = ResilienceSummary::default();
    }

    /// Arm a one-shot fault (replacing any armed one).
    pub(crate) fn arm(&self, fault: ResidentFault) {
        self.state.lock().armed_fault = Some(fault);
    }

    /// Fire the armed fault if it targets `epoch`.
    pub(crate) fn fire_armed(&self, transfer: &TransferManager, epoch: usize) {
        let dropped_key = {
            let mut st = self.state.lock();
            if !matches!(&st.armed_fault, Some(f) if f.after_epoch == epoch) {
                return;
            }
            let fault = st.armed_fault.take().expect("matched just above");
            match fault.kind {
                ResidentFaultKind::CorruptDriver => {
                    if let Some(b) = st
                        .resident
                        .get_mut(&fault.var)
                        .and_then(|rb| rb.bytes.first_mut())
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
    //! The ladder, one test per rung and exit, over an in-memory store
    //! and no cluster.

    use super::*;
    use cloud_storage::{ObjectStore, S3Store, StoreHandle, TransferConfig};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const ROOT: &str = "dataflow/dag-0";

    /// A store that checks the lock rule from the far side: on every op
    /// it tries the resident store's lock, which must be free.
    struct LockProbe {
        inner: S3Store,
        watched: Arc<ResidentStore>,
        held_across_an_op: AtomicBool,
        ops: AtomicU64,
    }

    impl LockProbe {
        fn probe(&self) {
            self.ops.fetch_add(1, Ordering::SeqCst);
            if self.watched.state.try_lock().is_none() {
                self.held_across_an_op.store(true, Ordering::SeqCst);
            }
        }
    }

    impl ObjectStore for LockProbe {
        fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
            self.probe();
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
        transfer: TransferManager,
        bucket: S3Store,
        probe: Arc<LockProbe>,
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
            });
            let transfer =
                TransferManager::new(Arc::clone(&probe) as StoreHandle, TransferConfig::default());
            Rig {
                resident,
                transfer,
                bucket,
                probe,
            }
        }

        /// Commit `value` × 64 as version `epoch` of `var`.
        fn commit(&self, var: &str, epoch: usize, value: f32) {
            let buf = ErasedVec::F32(vec![value; 64]);
            self.resident
                .commit(&self.transfer, ROOT, epoch, vec![(var, &buf)])
                .unwrap();
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
        let ops_before = rig.probe.ops.load(Ordering::SeqCst);
        let served = rig.serve("x").unwrap();
        assert_eq!(
            rig.probe.ops.load(Ordering::SeqCst),
            ops_before,
            "a hit touches no store"
        );
        assert_eq!(served.rung, Rung::Hit);
        assert_eq!(served.bytes, payload(1.5));
        assert_eq!(served.version.key, format!("{ROOT}/v0/x"));
        assert_eq!(served.version.tag, TypeTag::F32);
        assert!(
            served.version.wire_len > 0,
            "the commit's wire length is on record"
        );
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
        assert_eq!(served.bytes, payload(2.0));
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
        assert_eq!(served.bytes, payload(4.0), "epoch 3, not epoch 0");
        assert_eq!(served.version.key, format!("{ROOT}/v3/x"));
        assert_eq!(rig.serve("x").unwrap().rung, Rung::Hit);
        rig.assert_lock_rule();
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
        assert_eq!(pinned.bytes, payload(1.0), "the old version, exactly");
        assert!(pinned.version.wire_len > 0, "wire bytes of the fetch");
        assert_eq!(rig.serve("x").unwrap().bytes, payload(2.0));
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
        assert_eq!(rig.serve("x").unwrap().bytes, payload(9.0));
        // The replayed version is in the lineage all the same.
        let replayed = rig.resident.serve(&rig.transfer, "x", Some(1)).unwrap();
        assert_eq!(replayed.bytes, payload(5.0));
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
    fn adoption_retries_are_handed_over_once_and_cleared_with_the_dag() {
        let rig = Rig::new();
        let buf = ErasedVec::F32(vec![1.0; 64]);
        let mut put = rig
            .resident
            .commit(&rig.transfer, ROOT, 0, vec![("x", &buf)])
            .unwrap();
        put.items[0].retries = 2;
        rig.resident.note_adoption(&put);
        assert_eq!(rig.resident.take_resilience().transient_retries, 2);
        assert_eq!(
            rig.resident.take_resilience().transient_retries,
            0,
            "taken once"
        );
        rig.resident.note_adoption(&put);
        rig.resident.end_dag();
        assert_eq!(rig.resident.take_resilience().transient_retries, 0);
        assert_loss(rig.serve("x"), "x", ResidentLossReason::Miss);
    }
}
