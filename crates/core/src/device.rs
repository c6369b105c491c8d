//! The cloud device plug-in — "the cloud as yet another device available
//! from the local computer".
//!
//! Implements the target-specific plug-in interface of the accelerator
//! model (Fig. 2, gray boxes) for Spark clusters, executing the paper's
//! eight-step workflow (Fig. 1):
//!
//! 1. initialize the cloud device from the configuration file;
//! 2. ship the `map(to:)` buffers to cloud storage (compressed, one
//!    transfer thread per store object — small buffers share one);
//! 3. the driver reads the inputs back from storage;
//! 4. the driver tiles the loop and distributes `RDD_IN` across workers;
//! 5. workers run the loop body through the JNI shim;
//! 6. the driver reconstructs the outputs;
//! 7. the driver writes them to cloud storage;
//! 8. the host reads them back and resumes execution.
//!
//! Per §III-D the device rejects regions using `atomic`, `flush`,
//! `barrier`, `critical` or `master` — map-reduce has no shared-memory
//! synchronization — and when the cluster is unreachable the wrapper
//! falls back to host execution automatically.

use crate::breaker::{BreakerBank, CircuitBreaker};
use crate::cache::{CacheDecision, Fingerprint, ResidencyMap, UploadCache};
use crate::config::CloudConfig;
use crate::mapopt::{DeltaDiff, DownloadAction, ElideReason, MapDecision, MapPlan, UploadAction};
use crate::offload::{run_spark_job, JobOutcome};
use crate::recovery::RegionRecovery;
use crate::report::{DataflowSummary, OffloadReport, ResilienceSummary};
use crate::scope::Residency;
use cloud_storage::{
    AzureBlobStore, DownloadResult, HdfsStore, PoolBuf, RegionFingerprint, RegionJournal, S3Store,
    StorageError, StorageUri, StoreHandle, TransferConfig, TransferManager, TransferReport,
};
use cloudsim::Fleet;
use omp_model::{
    Construct, DagReport, DataEnv, DataflowHints, Device, DeviceKind, ErasedVec, ExecProfile,
    MapDir, MaterializeReport, OmpError, ResidentLossReason, TargetRegion, TypeTag,
};
use parking_lot::Mutex;
use sparkle::{SparkConf, SparkContext};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// The Spark-cluster offloading device.
pub struct CloudDevice {
    name: String,
    config: CloudConfig,
    store: StoreHandle,
    transfer: TransferManager,
    sc: Mutex<Option<SparkContext>>,
    job_counter: AtomicU64,
    started_at: Instant,
    last_report: Mutex<Option<OffloadReport>>,
    upload_cache: Mutex<UploadCache>,
    residency: Mutex<Residency>,
    tile_residency: Mutex<ResidencyMap>,
    /// Per-tenant circuit breakers: one tenant's failure streak opens
    /// its own breaker, never another tenant's.
    breakers: BreakerBank,
    /// Device-resident intermediate buffers of the active dataflow DAG,
    /// keyed by variable name: the producer's committed output key in
    /// the object store plus a driver-side decoded copy (so consumers
    /// and host escapes stay serviceable even when the store is down).
    resident: Mutex<HashMap<String, ResidentBuf>>,
    /// Lineage ledger of the active DAG: every version (variable, epoch)
    /// ever committed resident, with enough metadata to re-fetch and
    /// verify its durable store copy. Versioned keys are retained until
    /// `end_dataflow`, so recovery replays can pin ancestor versions.
    lineage: Mutex<HashMap<(String, usize), LineageMeta>>,
    /// Stage fallbacks contained via [`Device::adopt_resident`] since the
    /// last published report; folded into the next offload's
    /// [`DataflowSummary`] (adoption happens between offloads).
    pending_stage_fallbacks: AtomicU32,
    /// Lineage recomputes handed over by an implicit-barrier
    /// [`Device::absorb_dag_report`]; folded into the next report.
    pending_lineage_recomputes: AtomicU32,
    /// Resident repairs handed over by an implicit-barrier
    /// [`Device::absorb_dag_report`]; folded into the next report.
    pending_resident_repairs: AtomicU64,
    /// What the retry layer did for resident adoptions since the last
    /// offload — the next offload's [`ResilienceSummary`] starts from it.
    pending_resilience: Mutex<ResilienceSummary>,
    /// Armed one-shot resident fault (deterministic recovery tests).
    armed_fault: Mutex<Option<ResidentFault>>,
    /// Dirty-tile delta ledger for iterative regions: the last payload
    /// committed cloud-side per variable, at `delta-tile-bytes`
    /// granularity. Commits happen only after cluster materialization,
    /// so transient faults can never corrupt the base (see
    /// [`crate::mapopt::DeltaLedger`]).
    delta: Mutex<crate::mapopt::DeltaLedger>,
}

/// One device-resident producer output.
struct ResidentBuf {
    /// Object-store key the producer committed the buffer under.
    key: String,
    /// Element type of the buffer.
    tag: TypeTag,
    /// Fingerprint of the decoded bytes, checked on every read of the
    /// driver-side copy.
    fp: Fingerprint,
    /// Bytes on the wire when the producer staged the key (reported by
    /// [`MaterializeReport::wire_bytes`] when the buffer escapes).
    wire_len: u64,
    /// Driver-side decoded copy.
    bytes: Vec<u8>,
    /// DAG epoch (region index) that produced this version.
    epoch: usize,
}

/// Durable metadata of one committed resident version, kept in the
/// lineage ledger so lost driver-side copies can be repaired and
/// recovery replays can pin the exact versions a region consumed.
#[derive(Clone)]
struct LineageMeta {
    key: String,
    tag: TypeTag,
    fp: Fingerprint,
    wire_len: u64,
}

/// A one-shot resident-buffer fault to arm via
/// [`CloudDevice::inject_resident_fault`]: after the region with DAG
/// epoch `after_epoch` commits its kept outputs, `var`'s resident state
/// is damaged once. Drives deterministic recovery tests without relying
/// on store-level chaos timing.
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

/// How one offload attempt failed: infrastructure failures (storage,
/// transfers) feed the circuit breaker and surface as
/// `DeviceUnavailable`, so the registry's host fallback re-runs the
/// region; application failures (a panicking kernel, a missing variable)
/// propagate as-is — re-running them on the host would just fail again.
enum ExecFailure {
    Infra(OmpError),
    App(OmpError),
}

impl CloudDevice {
    /// Device over an explicit storage backend (shared with other
    /// devices/tests).
    pub fn with_store(config: CloudConfig, store: StoreHandle) -> CloudDevice {
        let transfer = TransferManager::new(
            StoreHandle::clone(&store),
            TransferConfig {
                min_compression_size: config.min_compression_size,
                retry: config.retry_policy(),
                verify_integrity: config.verify_integrity,
                codec_threads: config.io_threads,
                ..TransferConfig::default()
            },
        );
        let breakers = BreakerBank::new(config.breaker_threshold);
        let delta_tile = config.delta_tile_bytes;
        CloudDevice {
            name: format!("cloud-{:?}", config.provider).to_ascii_lowercase(),
            config,
            store,
            transfer,
            sc: Mutex::new(None),
            job_counter: AtomicU64::new(0),
            started_at: Instant::now(),
            last_report: Mutex::new(None),
            upload_cache: Mutex::new(UploadCache::new()),
            residency: Mutex::new(Residency::default()),
            tile_residency: Mutex::new(ResidencyMap::new()),
            breakers,
            resident: Mutex::new(HashMap::new()),
            lineage: Mutex::new(HashMap::new()),
            pending_stage_fallbacks: AtomicU32::new(0),
            pending_lineage_recomputes: AtomicU32::new(0),
            pending_resident_repairs: AtomicU64::new(0),
            pending_resilience: Mutex::new(ResilienceSummary::default()),
            armed_fault: Mutex::new(None),
            delta: Mutex::new(crate::mapopt::DeltaLedger::new(delta_tile)),
        }
    }

    /// Device with a fresh in-memory backend matching the configured
    /// storage URI (S3 bucket or HDFS cluster).
    pub fn from_config(config: CloudConfig) -> CloudDevice {
        let store: StoreHandle = match &config.storage {
            StorageUri::S3 { bucket, .. } => std::sync::Arc::new(S3Store::standalone(bucket)),
            StorageUri::Hdfs { .. } => HdfsStore::with_defaults(config.workers.max(3)),
            StorageUri::Azure {
                account, container, ..
            } => std::sync::Arc::new(AzureBlobStore::standalone(account, container)),
        };
        Self::with_store(config, store)
    }

    /// The device configuration.
    pub fn config(&self) -> &CloudConfig {
        &self.config
    }

    /// The storage backend offloaded buffers travel through.
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    /// Detailed report of the most recent offload.
    pub fn last_report(&self) -> Option<OffloadReport> {
        self.last_report.lock().clone()
    }

    /// `(hits, misses)` of the upload cache (only moves when
    /// `data-caching` is enabled).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.upload_cache.lock().stats()
    }

    /// The default tenant's circuit breaker — the single-tenant view of
    /// the device's fault state.
    pub fn breaker(&self) -> &CircuitBreaker {
        self.breakers.default_breaker()
    }

    /// The per-tenant breaker bank guarding this device.
    pub fn breakers(&self) -> &BreakerBank {
        &self.breakers
    }

    /// Is `tenant`'s breaker open? Other tenants' fault streaks never
    /// show up here.
    pub fn breaker_open_for(&self, tenant: &str) -> bool {
        self.breakers.is_open_for(tenant)
    }

    /// Has the default tenant's breaker tripped (too many consecutive
    /// failed offloads)? A degraded device reports itself unavailable,
    /// so regions fall back to the host until an operator
    /// [`CircuitBreaker::reset`].
    pub fn is_degraded(&self) -> bool {
        self.breakers.default_breaker().is_open()
    }

    /// Drop every cached upload fingerprint (e.g. after clearing the
    /// storage bucket out of band).
    pub fn clear_upload_cache(&self) {
        self.upload_cache.lock().clear();
    }

    /// Tiles with known executor residency from previous map phases
    /// (feeds the elastic scheduler's locality hints).
    pub fn resident_tiles(&self) -> usize {
        self.tile_residency.lock().len()
    }

    /// Forget all tile residency (e.g. after the cluster restarted and
    /// executor page caches are cold).
    pub fn clear_tile_residency(&self) {
        self.tile_residency.lock().clear();
    }

    /// Scheduler metrics of every Spark job this device has run, oldest
    /// first. Empty before the first offload (the cluster connection is
    /// lazy). The conformance oracle checks its conservation laws —
    /// speculation accounting, executor bounds, dispatched-task counts —
    /// against these.
    pub fn job_metrics(&self) -> Vec<sparkle::JobMetrics> {
        self.sc
            .lock()
            .as_ref()
            .map(|sc| sc.job_metrics())
            .unwrap_or_default()
    }

    /// Crate-internal accessors for the target-data scope machinery.
    pub(crate) fn residency(&self) -> &Mutex<Residency> {
        &self.residency
    }

    pub(crate) fn tile_residency(&self) -> &Mutex<ResidencyMap> {
        &self.tile_residency
    }

    pub(crate) fn transfer_ref(&self) -> &TransferManager {
        &self.transfer
    }

    pub(crate) fn spark_context(&self) -> SparkContext {
        self.context()
    }

    pub(crate) fn name_str(&self) -> &str {
        &self.name
    }

    /// Workflow step 1: lazily connect to the cluster.
    fn context(&self) -> SparkContext {
        let mut guard = self.sc.lock();
        guard
            .get_or_insert_with(|| {
                if self.config.verbose {
                    eprintln!(
                        "[ompcloud] connecting to {} ({} workers x {} vCPUs, storage {})",
                        self.config.spark_driver,
                        self.config.workers,
                        self.config.vcpus_per_worker,
                        self.config.storage
                    );
                }
                let mut conf =
                    SparkConf::cluster(self.config.workers, self.config.vcpus_per_worker);
                conf.task_cpus = self.config.task_cpus;
                SparkContext::new(conf)
            })
            .clone()
    }

    /// Seconds since the device was created — the virtual billing clock
    /// for autostarted fleets.
    fn now_s(&self) -> f64 {
        self.started_at.elapsed().as_secs_f64()
    }

    /// Arm a one-shot resident-buffer fault: after the dataflow region
    /// with `fault.after_epoch` commits its kept outputs, the fault
    /// fires once. Deterministic companion to store-level chaos rules
    /// for the recovery tests.
    pub fn inject_resident_fault(&self, fault: ResidentFault) {
        *self.armed_fault.lock() = Some(fault);
    }

    /// Fire the armed fault if it targets this epoch.
    fn apply_armed_fault(&self, epoch: usize) {
        let fault = {
            let mut g = self.armed_fault.lock();
            match &*g {
                Some(f) if f.after_epoch == epoch => g.take(),
                _ => None,
            }
        };
        let Some(f) = fault else { return };
        let mut resident = self.resident.lock();
        match f.kind {
            ResidentFaultKind::CorruptDriver => {
                if let Some(rb) = resident.get_mut(&f.var) {
                    if let Some(b) = rb.bytes.first_mut() {
                        *b ^= 0xff;
                    }
                }
            }
            ResidentFaultKind::DropDriver => {
                resident.remove(&f.var);
            }
            ResidentFaultKind::DropAll => {
                if let Some(rb) = resident.remove(&f.var) {
                    let _ = self.store.delete(&rb.key);
                    self.transfer.forget_prefix(&rb.key);
                }
            }
        }
    }

    /// Fetch a resident version's durable store copy and verify it
    /// against the recorded fingerprint. `None` when the key is gone or
    /// every copy fails verification — the caller escalates to lineage
    /// recovery rather than feeding the breaker.
    fn fetch_durable(&self, key: &str, fp: Fingerprint) -> Option<(Vec<u8>, u64)> {
        let (payloads, report) = self.transfer.download(vec![key.to_string()]).ok()?;
        let (_, buf) = payloads.into_iter().next()?;
        if Fingerprint::of(&buf) != fp {
            return None;
        }
        Some((buf.to_vec(), report.wire_bytes()))
    }

    /// Reinstate a variable whose driver-side entry vanished from its
    /// newest durable lineage version. Returns the served payload.
    fn reinstate_from_lineage(&self, var: &str) -> Option<(TypeTag, Vec<u8>, String, u64)> {
        let newest = {
            let lineage = self.lineage.lock();
            lineage
                .iter()
                .filter(|((v, _), _)| v == var)
                .max_by_key(|((_, e), _)| *e)
                .map(|((_, e), m)| (*e, m.clone()))
        };
        let (epoch, meta) = newest?;
        let (bytes, _) = self.fetch_durable(&meta.key, meta.fp)?;
        self.resident.lock().insert(
            var.to_string(),
            ResidentBuf {
                key: meta.key.clone(),
                tag: meta.tag,
                fp: meta.fp,
                wire_len: meta.wire_len,
                bytes: bytes.clone(),
                epoch,
            },
        );
        Some((meta.tag, bytes, meta.key, meta.wire_len))
    }

    /// Commit `bufs` device-resident as version `epoch` of the DAG rooted
    /// at `root`: one put under the versioned keys (ancestor versions
    /// survive until `end_dataflow`, so lineage recovery can pin them),
    /// then the lineage entries and the driver-side copies. Returns the
    /// put's report.
    fn commit_resident(
        &self,
        root: &str,
        epoch: usize,
        bufs: Vec<(&str, &ErasedVec)>,
    ) -> Result<TransferReport, StorageError> {
        let mut staged: Vec<(&str, ResidentBuf)> = Vec::with_capacity(bufs.len());
        let mut items: Vec<(String, Vec<u8>)> = Vec::with_capacity(bufs.len());
        for (name, buf) in bufs {
            let mut bytes = Vec::with_capacity(buf.byte_len());
            buf.write_bytes_into(&mut bytes);
            let key = format!("{root}/v{epoch}/{name}");
            items.push((key.clone(), bytes.clone()));
            staged.push((
                name,
                ResidentBuf {
                    key,
                    tag: buf.tag(),
                    fp: Fingerprint::of(&bytes),
                    wire_len: 0,
                    bytes,
                    epoch,
                },
            ));
        }
        let put = self.transfer.upload(items)?;
        let mut resident = self.resident.lock();
        let mut lineage = self.lineage.lock();
        for (name, mut rb) in staged {
            // The wire length is that of the store object holding the
            // buffer: small outputs of one region share an object, and
            // fetching one fetches it whole.
            let object = self.transfer.object_key(&rb.key);
            rb.wire_len = put
                .items
                .iter()
                .find(|item| item.key == object)
                .map_or(0, |item| item.wire_bytes);
            lineage.insert(
                (name.to_string(), epoch),
                LineageMeta {
                    key: rb.key.clone(),
                    tag: rb.tag,
                    fp: rb.fp,
                    wire_len: rb.wire_len,
                },
            );
            match resident.get(name) {
                // A recovery replay (or a re-adopted stage) regenerates
                // an old version; a newer committed one stays
                // authoritative.
                Some(cur) if cur.epoch > epoch => {}
                _ => {
                    resident.insert(name.to_string(), rb);
                }
            }
        }
        Ok(put)
    }

    /// Shut the in-process cluster down (tests/examples hygiene).
    pub fn shutdown(&self) {
        if let Some(sc) = self.sc.lock().take() {
            sc.stop();
        }
        // A new cluster starts with cold executor caches.
        self.tile_residency.lock().clear();
    }
}

impl Device for CloudDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Cloud
    }

    fn is_available(&self) -> bool {
        !self.config.simulate_unreachable && !self.breakers.default_breaker().is_open()
    }

    fn degraded(&self) -> bool {
        // Unavailable *because of us*: the breaker opened after
        // consecutive failed offloads. Lets the registry record
        // `BreakerOpen` instead of a generic `Unavailable` fallback.
        self.breakers.default_breaker().is_open()
    }

    fn available_for(&self, tenant: &str) -> bool {
        // Tenant-scoped availability: only *this* tenant's failure
        // streak can close the device to it.
        !self.config.simulate_unreachable && !self.breakers.is_open_for(tenant)
    }

    fn degraded_for(&self, tenant: &str) -> bool {
        self.breakers.is_open_for(tenant)
    }

    fn absorb_dag_report(&self, report: &DagReport) {
        // An implicit barrier drained deferred regions; their recovery
        // counters would otherwise vanish with the discarded DagReport.
        // Park them until the next published OffloadReport.
        if report.stage_fallbacks > 0 {
            self.pending_stage_fallbacks
                .fetch_add(report.stage_fallbacks, Ordering::SeqCst);
        }
        if report.lineage_recomputes > 0 {
            self.pending_lineage_recomputes
                .fetch_add(report.lineage_recomputes, Ordering::SeqCst);
        }
        if report.resident_repairs > 0 {
            self.pending_resident_repairs
                .fetch_add(report.resident_repairs, Ordering::SeqCst);
        }
    }

    fn supports(&self, construct: Construct) -> bool {
        // §III-D: no shared-memory synchronization on a distributed
        // map-reduce substrate.
        matches!(construct, Construct::ParallelFor)
    }

    fn execute(&self, region: &TargetRegion, env: &mut DataEnv) -> Result<ExecProfile, OmpError> {
        self.execute_with_hints(region, env, &DataflowHints::default())
    }

    fn supports_dataflow(&self) -> bool {
        self.config.dataflow
    }

    fn execute_dataflow(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
        hints: &DataflowHints,
    ) -> Result<ExecProfile, OmpError> {
        self.execute_with_hints(region, env, hints)
    }

    fn materialize_resident(
        &self,
        vars: &[String],
        env: &mut DataEnv,
    ) -> Result<MaterializeReport, OmpError> {
        let t = Instant::now();
        let mut report = MaterializeReport::default();
        for var in vars {
            // The driver-side copy serves the escape even when the store
            // is unreachable; its fingerprint guards against corruption.
            let state = {
                let resident = self.resident.lock();
                resident.get(var).map(|rb| {
                    let intact = Fingerprint::of(&rb.bytes) == rb.fp;
                    (
                        rb.key.clone(),
                        rb.tag,
                        rb.fp,
                        rb.wire_len,
                        rb.bytes.clone(),
                        intact,
                    )
                })
            };
            match state {
                Some((_, tag, _, wire_len, bytes, true)) => {
                    env.write_back(var, ErasedVec::from_bytes(tag, &bytes))?;
                    report.vars.push(var.clone());
                    report.wire_bytes += wire_len;
                }
                // Damaged driver copy: repair it from the durable store
                // copy before serving — never silently fall back to a
                // stale host value.
                Some((key, tag, fp, wire_len, _, false)) => match self.fetch_durable(&key, fp) {
                    Some((bytes, _)) => {
                        env.write_back(var, ErasedVec::from_bytes(tag, &bytes))?;
                        if let Some(rb) = self.resident.lock().get_mut(var) {
                            rb.bytes = bytes;
                        }
                        report.vars.push(var.clone());
                        report.wire_bytes += wire_len;
                        report.repairs += 1;
                    }
                    None => {
                        return Err(OmpError::ResidentLoss {
                            var: var.clone(),
                            reason: ResidentLossReason::Integrity,
                        })
                    }
                },
                // Missing entry (deleted, GC'd, crashed): reinstate from
                // the newest durable lineage version, or report a typed
                // loss so the DAG scheduler can recompute the producer.
                None => match self.reinstate_from_lineage(var) {
                    Some((tag, bytes, _, wire_len)) => {
                        env.write_back(var, ErasedVec::from_bytes(tag, &bytes))?;
                        report.vars.push(var.clone());
                        report.wire_bytes += wire_len;
                        report.repairs += 1;
                    }
                    None => {
                        return Err(OmpError::ResidentLoss {
                            var: var.clone(),
                            reason: ResidentLossReason::Miss,
                        })
                    }
                },
            }
        }
        report.seconds = t.elapsed().as_secs_f64();
        Ok(report)
    }

    fn materialize_pinned(
        &self,
        pins: &[(String, usize)],
        env: &mut DataEnv,
    ) -> Result<MaterializeReport, OmpError> {
        let t = Instant::now();
        let mut report = MaterializeReport::default();
        for (var, epoch) in pins {
            let meta = self.lineage.lock().get(&(var.clone(), *epoch)).cloned();
            let served =
                meta.and_then(|m| self.fetch_durable(&m.key, m.fp).map(|(b, w)| (m.tag, b, w)));
            match served {
                Some((tag, bytes, wire)) => {
                    env.write_back(var, ErasedVec::from_bytes(tag, &bytes))?;
                    report.vars.push(var.clone());
                    report.wire_bytes += wire;
                }
                None => {
                    return Err(OmpError::ResidentLoss {
                        var: var.clone(),
                        reason: ResidentLossReason::Miss,
                    })
                }
            }
        }
        report.seconds = t.elapsed().as_secs_f64();
        Ok(report)
    }

    fn adopt_resident(
        &self,
        vars: &[String],
        env: &DataEnv,
        dag: &str,
        epoch: usize,
    ) -> Result<(), OmpError> {
        let root = self.dataflow_root(dag);
        // The fallen stage may have died before its first offload leased
        // the DAG root; adopted keys need the same orphan-GC protection.
        if !self.transfer.is_leased(&root) {
            self.transfer.lease(&root);
        }
        let bufs = vars
            .iter()
            .map(|name| Ok((name.as_str(), &**env.get_erased(name)?)))
            .collect::<Result<Vec<_>, OmpError>>()?;
        let put = self
            .commit_resident(&root, epoch, bufs)
            .map_err(|e| OmpError::Plugin {
                device: self.name.clone(),
                detail: format!("resident adoption failed: {e}"),
            })?;
        self.pending_resilience.lock().absorb(&put);
        self.pending_stage_fallbacks.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn recovery_depth(&self) -> usize {
        self.config.recovery_depth
    }

    fn invalidate_resident(&self, vars: &[String]) {
        let mut resident = self.resident.lock();
        let mut lineage = self.lineage.lock();
        for var in vars {
            if let Some(rb) = resident.remove(var) {
                let _ = self.store.delete(&rb.key);
                self.transfer.forget_prefix(&rb.key);
            }
            // Every durable version goes with it: a superseded variable
            // must never be reinstated from a stale lineage copy.
            lineage.retain(|(v, _), meta| {
                if v == var {
                    let _ = self.store.delete(&meta.key);
                    self.transfer.forget_prefix(&meta.key);
                    false
                } else {
                    true
                }
            });
        }
    }

    fn end_dataflow(&self, dag: &str) {
        let root = self.dataflow_root(dag);
        self.transfer.release(&root);
        self.transfer.delete_prefix(&root);
        self.resident.lock().clear();
        self.lineage.lock().clear();
        self.pending_stage_fallbacks.store(0, Ordering::SeqCst);
        self.pending_lineage_recomputes.store(0, Ordering::SeqCst);
        self.pending_resident_repairs.store(0, Ordering::SeqCst);
        *self.pending_resilience.lock() = ResilienceSummary::default();
    }
}

impl CloudDevice {
    /// Root of the resident keys of one dataflow DAG — the unit the
    /// [`TransferManager`] lease protects from orphan collection.
    fn dataflow_root(&self, dag: &str) -> String {
        let p = self.config.storage.key_prefix();
        if p.is_empty() {
            format!("dataflow/{dag}")
        } else {
            format!("{p}/dataflow/{dag}")
        }
    }

    /// Breaker-wrapped offload shared by [`Device::execute`] (no hints)
    /// and [`Device::execute_dataflow`].
    fn execute_with_hints(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
        hints: &DataflowHints,
    ) -> Result<ExecProfile, OmpError> {
        match self.try_execute(region, env, hints) {
            Ok(profile) => Ok(profile),
            Err(ExecFailure::App(e)) => Err(e),
            Err(ExecFailure::Infra(e)) => {
                // A mid-flight infrastructure failure: count it against
                // the *owning tenant's* breaker and surface
                // `DeviceUnavailable`, so the registry re-runs the
                // region on the host. The data environment is untouched
                // — outputs are only written back after the whole
                // offload succeeded.
                let breaker = self.breakers.breaker_for(region.tenant.as_str());
                let tripped = breaker.record_failure();
                let reason = if tripped {
                    format!(
                        "offload aborted ({e}); breaker OPEN for tenant '{}' after {} \
                         consecutive failures — degraded for that tenant until one of its \
                         offloads succeeds or the breaker is reset",
                        region.tenant,
                        breaker.consecutive_failures()
                    )
                } else {
                    format!("offload aborted ({e})")
                };
                if self.config.verbose {
                    eprintln!("[ompcloud] {}: {reason}", self.name);
                }
                Err(OmpError::DeviceUnavailable {
                    device: self.name.clone(),
                    reason,
                })
            }
        }
    }
}

impl CloudDevice {
    /// Ship a batch through cloud storage and read it back: the one
    /// host↔cloud data path, shared by a region's inputs (steps 2+3),
    /// its outputs (steps 7+8) and the boundaries of a `target data`
    /// scope. `put_items` are compressed, put and — each as soon as its
    /// put lands — fetched back; `fetch_only` keys (staged by an earlier
    /// offload) are only fetched; never more than `io-threads` store ops
    /// are in flight. Books the pipeline's wall, stage-busy and overlap
    /// time on `profile` and its retry counters on `resilience`. Returns
    /// the payloads (put items first, then `fetch_only`, each in request
    /// order) and the report of the objects written.
    pub(crate) fn round_trip(
        &self,
        put_items: Vec<(String, PoolBuf)>,
        fetch_only: Vec<String>,
        profile: &mut ExecProfile,
        resilience: &mut ResilienceSummary,
    ) -> Result<DownloadResult, StorageError> {
        let (payloads, report) =
            self.transfer
                .upload_fetch_pipelined(put_items, fetch_only, self.config.io_threads)?;
        resilience.absorb(&report);
        profile.host_comm_s += report.wall_seconds;
        profile.overlap_s += report.overlap_seconds();
        profile.compress_busy_s += report.cpu_path_seconds();
        profile.store_busy_s += report.io_path_seconds();
        Ok((payloads, report.into_puts()))
    }

    /// The eight-step offload workflow. Infrastructure errors come back
    /// as [`ExecFailure::Infra`] so the caller can feed the breaker.
    /// Inside a dataflow DAG, `hints` names the inputs already resident
    /// from a producer region (upload elided) and the outputs a later
    /// consumer will read in place (download elided).
    fn try_execute(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
        hints: &DataflowHints,
    ) -> Result<ExecProfile, ExecFailure> {
        let mut profile = ExecProfile::new(self.name.clone());
        let mut resilience = std::mem::take(&mut *self.pending_resilience.lock());
        let mut dataflow = DataflowSummary::default();
        let job_id = self.job_counter.fetch_add(1, Ordering::SeqCst);
        let prefix = {
            let p = self.config.storage.key_prefix();
            if p.is_empty() {
                format!("job-{job_id}")
            } else {
                format!("{p}/job-{job_id}")
            }
        };

        // Optional pay-as-you-go fleet around the offload.
        let mut fleet = None;
        if self.config.ec2_autostart {
            let itype = cloudsim::instance_type(&self.config.instance_type)
                .expect("validated by CloudConfig");
            let mut f = Fleet::new();
            f.launch(itype, self.config.workers + 1, self.now_s());
            profile.note(format!(
                "ec2 autostart: launched {} x {} (driver + {} workers)",
                self.config.workers + 1,
                itype.name,
                self.config.workers
            ));
            fleet = Some(f);
        }

        let sc = self.context();

        // Region start, checkpoint mode: garbage-collect staged `_tmp/`
        // outputs of regions that crashed between staging and manifest
        // publish. Safe here — this run has staged nothing yet, and a
        // region with a manifest is committed and skipped.
        let base_prefix = self.config.storage.key_prefix().to_string();
        if self.config.checkpoint {
            let orphans = self.transfer.collect_orphans(&base_prefix);
            if orphans > 0 {
                resilience.orphans_collected = orphans as u32;
                profile.note(format!(
                    "checkpoint: collected {orphans} orphaned staging objects of uncommitted regions"
                ));
            }
        }

        // Dataflow session begin (first hinted region of a DAG): lease
        // the DAG's resident-key root so orphan collection cannot sweep
        // a live chain, then sweep the unleased leftovers of crashed
        // chains before producing new resident keys.
        if let Some(dag) = hints.dag.as_deref() {
            let root = self.dataflow_root(dag);
            if !self.transfer.is_leased(&root) {
                self.transfer.lease(&root);
                let orphans = self.transfer.collect_orphans(&base_prefix);
                if orphans > 0 {
                    resilience.orphans_collected += orphans as u32;
                    profile.note(format!(
                        "dataflow: collected {orphans} resident keys leaked by crashed chains"
                    ));
                }
            }
        }

        // Step 2: ship inputs to cloud storage (one thread per store
        // object, compression above the configured threshold). With data caching
        // enabled (§VI extension), unchanged variables are skipped and
        // the job reuses their previously staged objects.
        let mut upload_items: Vec<(String, PoolBuf)> = Vec::new();
        let mut staged_keys: Vec<(String, String)> = Vec::new(); // (var, key)
        let mut cached_keys: Vec<String> = Vec::new();
        // (var, tag, bytes, key) of inputs served device-resident: the
        // host upload is elided entirely — the cluster environment is
        // built from the producer's driver-side copy, and the region
        // fingerprint from the producer's committed key.
        let mut resident_payloads: Vec<(String, TypeTag, Vec<u8>, String)> = Vec::new();
        // Map-transfer optimizer state. `staged_kind` marks staged
        // objects the materialization step must special-case (narrowed
        // prefixes, delta patches); absent means a plain full payload.
        enum StagedKind {
            Narrowed,
            Patch,
        }
        let mut plan = MapPlan {
            enabled: self.config.map_optimize,
            decisions: Vec::new(),
        };
        let mut staged_kind: HashMap<String, StagedKind> = HashMap::new();
        // (var, tag, crc32 of full payload) of inputs whose delta diff
        // came back clean: zero bytes travel, the cluster copy comes
        // from the ledger.
        let mut delta_clean: Vec<(String, TypeTag, u32)> = Vec::new();
        // (alias var, source var, source key) of deduped uploads: the
        // alias shares the source's staged object.
        let mut alias_pairs: Vec<(String, String, String)> = Vec::new();
        // (var, key, tag, index into upload_items) of fresh full-payload
        // uploads — the dedupe candidates.
        let mut fresh_uploads: Vec<(String, String, TypeTag, usize)> = Vec::new();
        let keep = |name: &str| hints.keep_resident.iter().any(|v| v == name);
        let download_for = |dir: MapDir, name: &str, full_bytes: u64| -> DownloadAction {
            if !dir.is_output() {
                DownloadAction::Elided {
                    reason: ElideReason::DeadFrom,
                    full_bytes,
                }
            } else if keep(name) {
                DownloadAction::Resident { full_bytes }
            } else {
                DownloadAction::Full { bytes: full_bytes }
            }
        };
        {
            let mut cache = self.upload_cache.lock();
            for m in region.input_maps() {
                // Recovery replays pin inputs to the exact versions the
                // region originally consumed; they come straight from
                // the durable lineage copies, never the host environment
                // (which has moved past them).
                let pinned = hints
                    .pinned_inputs
                    .iter()
                    .find(|(v, _)| v == &m.name)
                    .map(|(_, e)| *e);
                if let Some(e) = pinned {
                    let meta = self.lineage.lock().get(&(m.name.clone(), e)).cloned();
                    let served = meta.and_then(|meta| {
                        self.fetch_durable(&meta.key, meta.fp)
                            .map(|(b, _)| (meta.tag, b, meta.key))
                    });
                    match served {
                        Some((tag, bytes, key)) => {
                            resident_payloads.push((m.name.clone(), tag, bytes, key));
                            dataflow.resident_hits += 1;
                            continue;
                        }
                        // The pinned ancestor version is gone too: a
                        // typed loss lets the scheduler recurse one
                        // producer deeper.
                        None => {
                            return Err(ExecFailure::App(OmpError::ResidentLoss {
                                var: m.name.clone(),
                                reason: ResidentLossReason::Miss,
                            }))
                        }
                    }
                }
                if hints.resident_inputs.iter().any(|v| v == &m.name) {
                    enum ResidentState {
                        Hit(TypeTag, Vec<u8>, String),
                        Damaged(String, Fingerprint),
                        Missing,
                    }
                    let state = {
                        let resident = self.resident.lock();
                        match resident.get(&m.name) {
                            Some(rb) if Fingerprint::of(&rb.bytes) == rb.fp => {
                                ResidentState::Hit(rb.tag, rb.bytes.clone(), rb.key.clone())
                            }
                            Some(rb) => ResidentState::Damaged(rb.key.clone(), rb.fp),
                            None => ResidentState::Missing,
                        }
                    };
                    match state {
                        ResidentState::Hit(tag, bytes, key) => {
                            resident_payloads.push((m.name.clone(), tag, bytes, key));
                            dataflow.resident_hits += 1;
                            continue;
                        }
                        // A damaged driver copy must not fall through —
                        // the host environment is stale for a variable
                        // whose producer succeeded on the device. Repair
                        // it from the durable store copy.
                        ResidentState::Damaged(key, fp) => match self.fetch_durable(&key, fp) {
                            Some((bytes, _)) => {
                                let mut resident = self.resident.lock();
                                if let Some(rb) = resident.get_mut(&m.name) {
                                    rb.bytes = bytes.clone();
                                    resident_payloads.push((m.name.clone(), rb.tag, bytes, key));
                                    dataflow.resident_hits += 1;
                                    dataflow.resident_repairs += 1;
                                    continue;
                                }
                                return Err(ExecFailure::App(OmpError::ResidentLoss {
                                    var: m.name.clone(),
                                    reason: ResidentLossReason::Integrity,
                                }));
                            }
                            None => {
                                return Err(ExecFailure::App(OmpError::ResidentLoss {
                                    var: m.name.clone(),
                                    reason: ResidentLossReason::Integrity,
                                }))
                            }
                        },
                        // Missing entry: the scheduler hinted this input
                        // resident, so it was lost (chaos, racing GC).
                        // Try the durable lineage copy; failing that,
                        // report a typed loss for lineage recovery.
                        ResidentState::Missing => {
                            dataflow.resident_misses += 1;
                            match self.reinstate_from_lineage(&m.name) {
                                Some((tag, bytes, key, _)) => {
                                    resident_payloads.push((m.name.clone(), tag, bytes, key));
                                    dataflow.resident_hits += 1;
                                    dataflow.resident_repairs += 1;
                                    continue;
                                }
                                None => {
                                    return Err(ExecFailure::App(OmpError::ResidentLoss {
                                        var: m.name.clone(),
                                        reason: ResidentLossReason::Miss,
                                    }))
                                }
                            }
                        }
                    }
                }
                let buf = env.get_erased(&m.name)?;
                let full_bytes = buf.byte_len() as u64;
                let full_elems = buf.len();
                let tag = buf.tag();
                // Serialize into a pooled staging buffer: the allocation
                // is recycled across tiles once the wire form is sealed.
                let mut bytes = self.transfer.pool().get(buf.byte_len());
                buf.write_bytes_into(&mut bytes);
                let fresh_key = format!("{prefix}/in/{}", m.name);
                let download = download_for(m.dir, &m.name, full_bytes);
                let cache_fp = self.config.data_caching.then(|| Fingerprint::of(&bytes));
                if let Some(fp) = cache_fp {
                    if let CacheDecision::Hit { storage_key } = cache.check(&m.name, fp) {
                        // Unchanged since the last offload: the staged
                        // object is reused wholesale. Raw-byte accounting
                        // keeps counting the full payload (the device
                        // still consumes it); only the wire is spared.
                        profile.bytes_to_device += full_bytes;
                        staged_keys.push((m.name.clone(), storage_key.clone()));
                        cached_keys.push(storage_key);
                        plan.decisions.push(MapDecision {
                            var: m.name.clone(),
                            dir: m.dir,
                            upload: UploadAction::Cached { full_bytes },
                            download,
                        });
                        continue;
                    }
                }
                if self.config.map_optimize {
                    // Dedupe: a byte-identical same-typed buffer already
                    // in this job's upload set is shared, not re-shipped.
                    let dup = fresh_uploads
                        .iter()
                        .find(|(_, _, t, idx)| *t == tag && upload_items[*idx].1[..] == bytes[..]);
                    if let Some((src_var, src_key, _, _)) = dup {
                        let (src_var, src_key) = (src_var.clone(), src_key.clone());
                        if let Some(fp) = cache_fp {
                            // The alias rides the source's staged object.
                            cache.record(&m.name, fp, src_key.clone());
                        }
                        alias_pairs.push((m.name.clone(), src_var.clone(), src_key));
                        plan.decisions.push(MapDecision {
                            var: m.name.clone(),
                            dir: m.dir,
                            upload: UploadAction::Elided {
                                reason: ElideReason::Dedup { of: src_var },
                                full_bytes,
                            },
                            download,
                        });
                        continue;
                    }
                    // Narrowing: a `map(to)` input partitioned in every
                    // loop travels only up to its iteration hull; the
                    // cluster copy is padded back to full length.
                    // `tofrom` buffers are exempt (their untouched tail
                    // must round-trip bit-exactly through the merge), and
                    // so are delta rounds (the ledger models full
                    // payloads).
                    if m.dir == MapDir::To && !self.config.delta_transfers {
                        if let Some(n) = crate::mapopt::narrow_len(region, &m.name, full_elems) {
                            let nbytes = n * (buf.byte_len() / full_elems);
                            let mut nb = self.transfer.pool().get(nbytes);
                            buf.write_range_bytes_into(0..n, &mut nb);
                            profile.bytes_to_device += nbytes as u64;
                            staged_kind.insert(m.name.clone(), StagedKind::Narrowed);
                            staged_keys.push((m.name.clone(), fresh_key.clone()));
                            upload_items.push((fresh_key, nb));
                            plan.decisions.push(MapDecision {
                                var: m.name.clone(),
                                dir: m.dir,
                                upload: UploadAction::Narrowed {
                                    bytes: nbytes as u64,
                                    full_bytes,
                                },
                                download,
                            });
                            continue;
                        }
                    }
                    // Delta: diff against the last committed payload and
                    // ship only the dirty tiles.
                    if self.config.delta_transfers {
                        let ledger = self.delta.lock();
                        match ledger.diff(&m.name, &bytes) {
                            DeltaDiff::Clean => {
                                drop(ledger);
                                delta_clean.push((m.name.clone(), tag, gzlite::crc32(&bytes)));
                                plan.decisions.push(MapDecision {
                                    var: m.name.clone(),
                                    dir: m.dir,
                                    upload: UploadAction::DeltaClean { full_bytes },
                                    download,
                                });
                                continue;
                            }
                            DeltaDiff::Dirty(dirty) => {
                                let total_tiles = ledger.tile_count(bytes.len()) as u32;
                                let patch = ledger.encode_patch(&bytes, &dirty);
                                drop(ledger);
                                if patch.len() < bytes.len() {
                                    let patch_bytes = patch.len() as u64;
                                    profile.bytes_to_device += patch_bytes;
                                    staged_kind.insert(m.name.clone(), StagedKind::Patch);
                                    staged_keys.push((m.name.clone(), fresh_key.clone()));
                                    plan.decisions.push(MapDecision {
                                        var: m.name.clone(),
                                        dir: m.dir,
                                        upload: UploadAction::Delta {
                                            dirty_tiles: dirty.len() as u32,
                                            total_tiles,
                                            bytes: patch_bytes,
                                            full_bytes,
                                        },
                                        download,
                                    });
                                    upload_items.push((fresh_key, patch.into()));
                                    continue;
                                }
                                // A patch this large loses to a plain
                                // upload: fall through.
                            }
                            DeltaDiff::NoBase => {}
                        }
                    }
                }
                if let Some(fp) = cache_fp {
                    cache.record(&m.name, fp, fresh_key.clone());
                }
                profile.bytes_to_device += full_bytes;
                plan.decisions.push(MapDecision {
                    var: m.name.clone(),
                    dir: m.dir,
                    upload: UploadAction::Full { bytes: full_bytes },
                    download,
                });
                fresh_uploads.push((m.name.clone(), fresh_key.clone(), tag, upload_items.len()));
                staged_keys.push((m.name.clone(), fresh_key.clone()));
                upload_items.push((fresh_key, bytes));
            }
        }
        // Decision records for inputs served resident and for the map
        // kinds that never upload: `from`-only (the classic dead `to`
        // transfer) and `alloc` scratch.
        for (name, _, bytes, _) in &resident_payloads {
            let m = region
                .maps
                .iter()
                .find(|m| m.name == *name)
                .expect("resident inputs are mapped");
            let full_bytes = bytes.len() as u64;
            plan.decisions.push(MapDecision {
                var: name.clone(),
                dir: m.dir,
                upload: UploadAction::Resident { full_bytes },
                download: download_for(m.dir, name, full_bytes),
            });
        }
        for m in region.maps.iter().filter(|m| !m.dir.is_input()) {
            let full_bytes = env.get_erased(&m.name)?.byte_len() as u64;
            let (upload, download) = if m.dir.is_alloc() {
                (
                    UploadAction::Elided {
                        reason: ElideReason::AllocOnly,
                        full_bytes,
                    },
                    DownloadAction::Elided {
                        reason: ElideReason::AllocOnly,
                        full_bytes,
                    },
                )
            } else {
                (
                    UploadAction::Elided {
                        reason: ElideReason::DeadTo,
                        full_bytes,
                    },
                    download_for(m.dir, &m.name, full_bytes),
                )
            };
            plan.decisions.push(MapDecision {
                var: m.name.clone(),
                dir: m.dir,
                upload,
                download,
            });
        }
        let cache_hits = cached_keys.len();

        // Steps 2+3, fused: each input object is fetched back the moment
        // its put lands, while later buffers are still compressing —
        // where the paper puts a barrier between upload and read-back.
        let (fetched, upload) = self
            .round_trip(upload_items, cached_keys, &mut profile, &mut resilience)
            .map_err(infra)?;
        profile.wire_bytes_to = upload.wire_bytes();
        if cache_hits > 0 {
            profile.note(format!(
                "data caching: {cache_hits} of {} input buffers unchanged, upload skipped",
                staged_keys.len()
            ));
        }

        // Step 3 (driver side): materialize the cluster data environment
        // from the fetched payloads. The pipeline returns put items first
        // and cache hits last, so look payloads up by key rather than
        // relying on arrival order.
        let t_driver = Instant::now();
        let mut by_key: HashMap<String, PoolBuf> = fetched.into_iter().collect();
        let mut cluster_env = DataEnv::new();
        let delta_on = self.config.map_optimize && self.config.delta_transfers;
        for (name, key) in &staged_keys {
            let host = env.get_erased(name)?;
            let tag = host.tag();
            let bytes = by_key.remove(key).expect("every staged input was fetched");
            match staged_kind.get(name.as_str()) {
                // Narrowed prefix: pad back to full length. The tail is
                // never read by the region (that is what made the
                // narrowing legal), so identity values are fine.
                Some(StagedKind::Narrowed) => {
                    let mut v = ErasedVec::identity(tag, host.len(), omp_model::RedOp::BitOr);
                    v.write_at(0, &ErasedVec::from_bytes(tag, &bytes));
                    cluster_env.insert_erased(name, v);
                }
                // Delta patch: reconstruct the full payload against the
                // committed base, then — and only then — commit the new
                // payload as the next round's base.
                Some(StagedKind::Patch) => {
                    let full = self.delta.lock().apply_patch(name, &bytes).map_err(|e| {
                        ExecFailure::Infra(OmpError::Plugin {
                            device: "cloud".into(),
                            detail: format!("delta patch for '{name}' failed to apply: {e}"),
                        })
                    })?;
                    self.delta.lock().commit(name, &full);
                    cluster_env.insert_erased(name, ErasedVec::from_bytes(tag, &full));
                }
                // Plain full payload. With delta transfers on, the
                // fetched (hence verified) payload becomes the base the
                // next round diffs against — committing here, after
                // materialization, is what keeps transient upload faults
                // from ever corrupting the ledger.
                None => {
                    if delta_on {
                        self.delta.lock().commit(name, &bytes);
                    }
                    cluster_env.insert_erased(name, ErasedVec::from_bytes(tag, &bytes));
                }
            }
        }
        // Delta-clean inputs never left the host: the cluster copy is
        // the ledger's committed payload (byte-identical by definition).
        for (name, tag, _) in &delta_clean {
            let payload = self
                .delta
                .lock()
                .payload(name)
                .expect("a clean diff implies a committed base")
                .to_vec();
            cluster_env.insert_erased(name, ErasedVec::from_bytes(*tag, &payload));
        }
        // Dedupe aliases share the source's materialized buffer — and
        // seed the delta ledger with it, so a later delta round diffs
        // the alias against this committed payload instead of paying a
        // fresh full upload.
        for (alias, src, _) in &alias_pairs {
            let v = ErasedVec::clone(cluster_env.get_erased(src)?);
            if delta_on {
                self.delta.lock().commit(alias, &v.to_bytes());
            }
            cluster_env.insert_erased(alias, v);
        }
        // Resident inputs never crossed the host link: the cluster reads
        // the producer's output in place (here: the driver-side copy of
        // the committed key).
        for (name, tag, bytes, _) in &resident_payloads {
            cluster_env.insert_erased(name, ErasedVec::from_bytes(*tag, bytes));
        }
        if dataflow.resident_hits > 0 {
            profile.note(format!(
                "dataflow: {} input(s) consumed device-resident, upload elided",
                dataflow.resident_hits
            ));
        }
        // Output-only and alloc variables: the driver allocates them
        // full-size (paper Fig. 3 step 7); sizes come with the job
        // submission. Neither kind's host contents ever cross the wire.
        for m in region
            .maps
            .iter()
            .filter(|m| m.dir.is_output() || m.dir.is_alloc())
        {
            if !cluster_env.contains(&m.name) {
                let host = env.get_erased(&m.name)?;
                cluster_env.insert_erased(
                    &m.name,
                    ErasedVec::identity(host.tag(), host.len(), omp_model::RedOp::BitOr),
                );
            }
        }
        profile.overhead_s += t_driver.elapsed().as_secs_f64();
        if plan.enabled && plan.any() {
            profile.note(format!("map optimizer: {plan}"));
        }

        // Checkpoint mode: derive the region's deterministic identity —
        // name, tile plan, and the staged inputs' wire crc32s from the
        // integrity ledger — and open its write-ahead journal. A second
        // run over the same inputs lands on the same journal and resumes
        // whatever the first one finished.
        let recovery = if self.config.checkpoint {
            // An input this manager staged always has its wire crc on
            // record; a fingerprint blind to one would let a journal
            // written over other data pass for this region's.
            let wire_crc = |key: &str| {
                self.transfer.ledger_crc(key).ok_or_else(|| {
                    infra(StorageError::NotFound(format!(
                        "{key}: staged input has no wire crc on record"
                    )))
                })
            };
            let mut fp = RegionFingerprint::new(&region.name);
            for l in &region.loops {
                fp.add_loop(l.trip_count);
            }
            for (name, key) in &staged_keys {
                fp.add_input(name, wire_crc(key)?);
            }
            // Cloud-sourced inputs: the fingerprint is tied to the
            // producer's committed key, so a resumed run only lands on
            // this journal if it consumes the same resident bytes.
            for (name, _, _, key) in &resident_payloads {
                fp.add_input(name, wire_crc(key)?);
            }
            // Delta-clean inputs have no staged key this round; their
            // identity is the committed payload's own crc32.
            for (name, _, crc) in &delta_clean {
                fp.add_input(name, *crc);
            }
            // Dedupe aliases ride their source's staged object.
            for (alias, _, src_key) in &alias_pairs {
                fp.add_input(alias, wire_crc(src_key)?);
            }
            let journal = RegionJournal::open(StoreHandle::clone(&self.store), &base_prefix, &fp);
            let commit_root = if base_prefix.is_empty() {
                format!("region-{}", fp.hex())
            } else {
                format!("{base_prefix}/region-{}", fp.hex())
            };
            Some((RegionRecovery::new(journal), commit_root))
        } else {
            None
        };

        // Steps 4–8 under the resume budget: tile/distribute/map/
        // reconstruct, stage the outputs, commit, read them back. An
        // infrastructure failure inside this window retries the whole
        // block — the journal turns the retry into a replay of only the
        // unfinished tiles. Application errors propagate immediately.
        let jobs_before = sc.job_metrics().len();
        let max_resumes = if self.config.checkpoint {
            self.config.checkpoint_max_resumes
        } else {
            0
        };
        let mut resumes = 0usize;
        let mut cluster_env = Some(cluster_env);
        let (outcome, (out_payloads, download)) = loop {
            // The inputs are copied only while a resume could still need
            // them again; the last attempt (the only one, with
            // checkpointing off) takes them.
            let attempt_env = if resumes < max_resumes {
                cluster_env.clone()
            } else {
                cluster_env.take()
            };
            let attempt = self.run_and_commit(
                &sc,
                region,
                attempt_env.expect("kept until the last attempt"),
                &prefix,
                recovery.as_ref(),
                hints,
                &mut profile,
                &mut resilience,
            );
            match attempt {
                Ok(done) => break done,
                Err(ExecFailure::Infra(e)) if resumes < max_resumes => {
                    resumes += 1;
                    resilience.resume_attempts += 1;
                    if self.config.verbose {
                        eprintln!(
                            "[ompcloud] {}: offload interrupted ({e}); resume attempt \
                             {resumes}/{max_resumes} from the region journal",
                            self.name
                        );
                    }
                }
                Err(ExecFailure::Infra(e)) => {
                    if let Some((rec, _)) = &recovery {
                        rec.finish();
                        // The journal stays: a later run resumes from it.
                        return Err(ExecFailure::Infra(OmpError::Plugin {
                            device: "cloud".into(),
                            detail: format!(
                                "{} after {resumes} resume attempts: {e}",
                                omp_model::RESUME_EXHAUSTED
                            ),
                        }));
                    }
                    return Err(ExecFailure::Infra(e));
                }
                Err(e) => return Err(e),
            }
        };
        for l in &outcome.loops {
            resilience.tiles_resumed += l.tiles_resumed as u32;
            resilience.tiles_replayed += l.tiles_replayed as u32;
        }
        for m in &sc.job_metrics()[jobs_before..] {
            resilience.quarantine_trips += m.quarantine_trips as u32;
            resilience.heartbeat_misses += m.heartbeat_misses as u32;
        }
        if resilience.tiles_resumed > 0 {
            profile.note(format!(
                "checkpoint resume: {} tiles restored from the region journal, {} replayed",
                resilience.tiles_resumed, resilience.tiles_replayed
            ));
        }
        if resilience.quarantine_trips > 0 {
            profile.note(format!(
                "quarantine: {} executor trips, {} heartbeat misses",
                resilience.quarantine_trips, resilience.heartbeat_misses
            ));
        }
        // Only escaping outputs come home; resident ones stay on the
        // device for their consumer (the DAG drain materializes whatever
        // survives).
        let kept = |name: &str| hints.keep_resident.iter().any(|v| v == name);
        for (m, (_, bytes)) in region
            .output_maps()
            .filter(|m| !kept(&m.name))
            .zip(out_payloads)
        {
            let tag = env.get_erased(&m.name)?.tag();
            env.write_back(&m.name, ErasedVec::from_bytes(tag, &bytes))?;
        }
        dataflow.elided_downloads = region.output_maps().filter(|m| kept(&m.name)).count() as u32;
        if dataflow.elided_downloads > 0 {
            profile.note(format!(
                "dataflow: {} output(s) kept device-resident, download elided",
                dataflow.elided_downloads
            ));
        }
        if hints.recovery {
            dataflow.lineage_recomputes = 1;
            profile.note(
                "lineage recovery: producing region re-executed to regenerate a lost \
                 resident buffer"
                    .to_string(),
            );
        }
        dataflow.stage_fallbacks = self.pending_stage_fallbacks.swap(0, Ordering::SeqCst);
        // Counters absorbed from an implicit-barrier DagReport: the
        // drained regions' recoveries surface in this report instead of
        // vanishing with the discarded barrier result.
        dataflow.lineage_recomputes += self.pending_lineage_recomputes.swap(0, Ordering::SeqCst);
        dataflow.resident_repairs += self.pending_resident_repairs.swap(0, Ordering::SeqCst) as u32;
        if dataflow.resident_repairs > 0 {
            profile.note(format!(
                "dataflow: {} resident input(s) repaired from the durable store copy",
                dataflow.resident_repairs
            ));
        }
        profile.resident_repairs = dataflow.resident_repairs as u64;
        if dataflow.any() {
            sc.annotate_dataflow(
                dataflow.resident_hits as u64,
                dataflow.resident_misses as u64,
                dataflow.elided_downloads as u64,
                dataflow.lineage_recomputes as u64,
                dataflow.stage_fallbacks as u64,
                dataflow.resident_repairs as u64,
            );
        }
        if plan.any() {
            sc.annotate_map_plan(
                plan.uploads_elided() as u64,
                plan.downloads_elided() as u64,
                plan.narrowed() as u64,
                plan.delta_rounds() as u64,
                plan.delta_dirty_tiles() as u64,
                plan.upload_bytes_saved(),
            );
        }
        profile.wire_bytes_from = download.wire_bytes();
        if profile.overlap_s > 0.0 {
            profile.note(format!(
                "pipelined offload: {:.3}s of transfer/merge work overlapped",
                profile.overlap_s
            ));
        }

        // Pay-as-you-go teardown.
        let cost = fleet.map(|mut f| {
            f.stop_all(self.now_s());
            let report = f.cost_report(self.now_s());
            profile.note(format!("ec2 autostop: {report}"));
            report
        });

        // Storage hygiene: staged per-job objects are garbage once the
        // host has read the results back — unless data caching is on, in
        // which case the staged inputs are the cache. The integrity
        // ledger forgets deleted objects with them.
        if !self.config.data_caching {
            self.transfer.delete_prefix(&prefix);
        }
        // Checkpoint hygiene: the results are home, so the journal's
        // markers and the committed region objects (staged outputs plus
        // manifest) are garbage regardless of data caching.
        if let Some((rec, root)) = &recovery {
            rec.finish();
            rec.clear();
            self.transfer.delete_prefix(root);
        }

        if resilience.total_events() > 0 {
            profile.note(format!(
                "resilience: {} transient retries, {} corruption re-fetches, {} timeouts, \
                 {:.3}s backoff",
                resilience.transient_retries,
                resilience.corruption_refetches,
                resilience.timeouts,
                resilience.backoff_seconds
            ));
        }
        // Snapshot the streak this success ends, then close the owning
        // tenant's breaker — a success for tenant A says nothing about
        // tenant B's outages.
        let breaker = self.breakers.breaker_for(region.tenant.as_str());
        resilience.breaker_consecutive_failures = breaker.consecutive_failures();
        resilience.breaker_tripped = breaker.is_open();
        breaker.record_success();

        if self.config.verbose {
            eprintln!("[ompcloud] {}: {profile}", region.name);
        }
        *self.last_report.lock() = Some(OffloadReport {
            tenant: region.tenant.to_string(),
            profile: profile.clone(),
            loops: outcome.loops,
            upload,
            download,
            cost,
            resilience,
            dataflow,
            map_plan: plan,
        });
        Ok(profile)
    }

    /// One attempt at workflow steps 4–8: run the Spark job (replaying
    /// only tiles the journal doesn't already hold), stage the outputs,
    /// commit, and read them back. In checkpoint mode outputs go to the
    /// region's `_tmp/` staging keys and a single manifest put is the
    /// atomic commit point; otherwise they go straight to their final
    /// per-job keys, exactly as before.
    #[allow(clippy::too_many_arguments)]
    fn run_and_commit(
        &self,
        sc: &SparkContext,
        region: &TargetRegion,
        cluster_env: DataEnv,
        prefix: &str,
        recovery: Option<&(RegionRecovery, String)>,
        hints: &DataflowHints,
        profile: &mut ExecProfile,
        resilience: &mut ResilienceSummary,
    ) -> Result<(JobOutcome, DownloadResult), ExecFailure> {
        // Steps 4–6: tile, distribute, map, reconstruct. Part of the
        // driver-side merge ran concurrently with the map phase;
        // `l.overlap_s` reports how much.
        let rec = recovery.map(|(r, _)| r);
        let outcome = run_spark_job(
            sc,
            &self.config,
            region,
            cluster_env,
            &self.tile_residency,
            rec,
        )?;
        for l in &outcome.loops {
            profile.tasks += l.tiles as u64;
            profile.compute_s += l.compute_s;
            profile.overhead_s += l.overhead_s;
            profile.overlap_s += l.overlap_s;
        }

        // Outputs a later DAG member consumes stay device-resident: the
        // driver commits them under the DAG's leased dataflow root (a
        // cloud-internal write — no host-side transfer) and keeps a
        // decoded copy for host escapes. The host download is elided.
        let kept = |name: &str| hints.keep_resident.iter().any(|v| v == name);
        if let Some(dag) = hints.dag.as_deref() {
            let root = self.dataflow_root(dag);
            let bufs = region
                .output_maps()
                .filter(|m| kept(&m.name))
                .map(|m| Ok((m.name.as_str(), &**outcome.env.get_erased(&m.name)?)))
                .collect::<Result<Vec<_>, OmpError>>()?;
            if !bufs.is_empty() {
                let t = Instant::now();
                let put = self
                    .commit_resident(&root, hints.epoch, bufs)
                    .map_err(infra)?;
                profile.overhead_s += t.elapsed().as_secs_f64();
                resilience.absorb(&put);
            }
            if !hints.recovery {
                self.apply_armed_fault(hints.epoch);
            }
        }

        // Steps 7+8, fused: the driver writes the (escaping) outputs to
        // cloud storage and the host downloads each the moment its put
        // lands, so the read-back overlaps the tail of the store writes.
        let key_for = |name: &str| match recovery {
            Some((_, root)) => TransferManager::staged_key(root, &format!("out/{name}")),
            None => format!("{prefix}/out/{name}"),
        };
        let mut out_bytes = 0u64;
        let mut out_items = Vec::new();
        for m in region.output_maps().filter(|m| !kept(&m.name)) {
            let buf = outcome.env.get_erased(&m.name)?;
            out_bytes += buf.byte_len() as u64;
            let mut staging = self.transfer.pool().get(buf.byte_len());
            buf.write_bytes_into(&mut staging);
            out_items.push((key_for(&m.name), staging));
        }
        // Assigned, not accumulated: a resumed attempt stages the same
        // outputs again and must not double-count them.
        profile.bytes_from_device = out_bytes;
        let staged_out = self
            .round_trip(out_items, Vec::new(), profile, resilience)
            .map_err(infra)?;

        // Phase two of the commit: every staged put has landed, so one
        // manifest put atomically flips the region to committed. A crash
        // anywhere before this line leaves only `_tmp/` orphans for the
        // next region start to collect.
        if let Some((rec, root)) = recovery {
            // Flush the journal first: every queued marker lands (or
            // fails) strictly before the manifest put, so a fault
            // schedule indexed on journal writes can never race past
            // the commit point.
            rec.finish();
            let names: Vec<String> = region
                .output_maps()
                .filter(|m| !kept(&m.name))
                .map(|m| format!("out/{}", m.name))
                .collect();
            self.transfer
                .publish_manifest(root, &names)
                .map_err(infra)?;
            resilience.commits_published += 1;
        }
        Ok((outcome, staged_out))
    }
}

impl From<OmpError> for ExecFailure {
    fn from(e: OmpError) -> ExecFailure {
        ExecFailure::App(e)
    }
}

/// A storage error as the plug-in error the host sees.
pub(crate) fn storage_err(e: StorageError) -> OmpError {
    OmpError::Plugin {
        device: "cloud".into(),
        detail: e.to_string(),
    }
}

/// Map a storage error to an infrastructure failure (breaker-feeding).
fn infra(e: StorageError) -> ExecFailure {
    ExecFailure::Infra(storage_err(e))
}
