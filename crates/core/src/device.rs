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
//! One region goes through them as five stages, each handing the next a
//! typed value (`CloudDevice::try_execute`): **plan** (which bytes have
//! to move, decided before anything does) → **stage_in** (steps 2–3) →
//! **run** (steps 4–6) → **commit** (step 7 and the durable commit
//! points) → **stage_out** (step 8, hygiene, the published report).
//!
//! Per §III-D the device rejects regions using `atomic`, `flush`,
//! `barrier`, `critical` or `master` — map-reduce has no shared-memory
//! synchronization — and when the cluster is unreachable the wrapper
//! falls back to host execution automatically.

use crate::breaker::BreakerBank;
use crate::cache::UploadCache;
use crate::config::CloudConfig;
use crate::mapopt::{
    allocate_outputs, DeltaLedger, InputPlan, InputSource, PlanSite, StagePlan, TransferMemory,
};
use crate::offload::{run_spark_job, JobOutcome};
use crate::recovery::RegionRecovery;
use crate::report::OffloadReport;
use crate::resident::{ResidentFault, ResidentStore, Rung};
use cloud_storage::{
    AzureBlobStore, HdfsStore, PipelineReport, PipelineResult, PoolBuf, RegionFingerprint,
    RegionJournal, S3Store, StorageError, StorageUri, StoreHandle, TransferConfig, TransferManager,
    TransferReport,
};
use cloudsim::Fleet;
use omp_model::{
    Availability, Construct, DataEnv, DataflowDevice, DataflowHints, Device, DeviceKind, ErasedVec,
    ExecProfile, MaterializeReport, OmpError, TargetRegion,
};
use parking_lot::Mutex;
use sparkle::{SparkConf, SparkContext};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The Spark-cluster offloading device.
pub struct CloudDevice {
    pub(crate) name: String,
    config: CloudConfig,
    store: StoreHandle,
    /// Shared with the thread of a pending write-behind put, which
    /// [`shutdown`](Self::shutdown) and drop join.
    pub(crate) transfer: Arc<TransferManager>,
    sc: Mutex<Option<SparkContext>>,
    job_counter: AtomicU64,
    started_at: Instant,
    last_report: Mutex<Option<OffloadReport>>,
    /// What earlier offloads left cloud-side that a later one need not
    /// re-send: the upload cache and the dirty-tile delta ledger.
    /// Entries are written only after cluster materialization, so a
    /// failed or faulty transfer is never trusted (see
    /// [`TransferMemory::materialize`]).
    memory: Mutex<TransferMemory>,
    /// The open `target data` scope's device-side environment (one scope
    /// at a time, like a single OpenMP device data environment).
    pub(crate) residency: Mutex<Option<DataEnv>>,
    /// Per-tenant circuit breakers: one tenant's failure streak opens
    /// its own breaker, never another tenant's.
    breakers: BreakerBank,
    /// Device-resident intermediate buffers of the active dataflow DAG
    /// and their lineage.
    resident: ResidentStore,
}

/// How one offload attempt failed: infrastructure failures (storage,
/// transfers) feed the circuit breaker and surface as
/// `DeviceUnavailable`, so the registry's host fallback re-runs the
/// region; application failures (a panicking kernel, a missing variable,
/// a lost resident buffer) propagate as-is — re-running them on the host
/// would just fail again, or is the DAG scheduler's call to make.
enum ExecFailure {
    Infra(OmpError),
    /// An infrastructure failure that outlasted the checkpoint resume
    /// budget: counted and surfaced like `Infra`, and marked as such on
    /// the `DeviceUnavailable` the registry classifies.
    ResumeExhausted(OmpError),
    App(OmpError),
}

/// One offload on its way through the stages: the report it publishes
/// at the end, which every stage books what it did straight onto; the
/// key prefix of the job's staged objects; and the pay-as-you-go fleet
/// around it.
struct RegionRun {
    report: OffloadReport,
    prefix: String,
    fleet: Option<Fleet>,
}

impl RegionRun {
    /// Book one round trip through the store: the pipeline's wall,
    /// stage-busy and overlap time on the profile, its retry counters on
    /// the resilience summary. Returns the report of the objects
    /// written.
    fn book_transfer(&mut self, pipeline: PipelineReport) -> TransferReport {
        let report = &mut self.report;
        report.resilience.absorb(&pipeline);
        report.profile.host_comm_s += pipeline.wall_seconds;
        report.profile.overlap_s += pipeline.overlap_seconds();
        report.profile.compress_busy_s += pipeline.cpu_path_seconds();
        report.profile.store_busy_s += pipeline.io_path_seconds();
        pipeline.into_puts()
    }
}

/// The checkpoint identity of a region: its write-ahead journal and the
/// root its staged outputs and commit manifest live under.
struct Journal {
    recovery: RegionRecovery,
    commit_root: String,
}

impl CloudDevice {
    /// Device over an explicit storage backend (shared with other
    /// devices/tests).
    pub fn with_store(config: CloudConfig, store: StoreHandle) -> CloudDevice {
        let transfer = Arc::new(TransferManager::new(
            StoreHandle::clone(&store),
            TransferConfig {
                min_compression_size: config.min_compression_size,
                retry: config.retry_policy(),
                codec_threads: config.io_threads,
                ..TransferConfig::default()
            },
        ));
        CloudDevice {
            name: format!("cloud-{:?}", config.provider).to_ascii_lowercase(),
            store,
            transfer,
            sc: Mutex::new(None),
            job_counter: AtomicU64::new(0),
            started_at: Instant::now(),
            last_report: Mutex::new(None),
            memory: Mutex::new(TransferMemory {
                cache: UploadCache::new(),
                delta: DeltaLedger::new(config.delta_tile_bytes),
            }),
            residency: Mutex::new(None),
            breakers: BreakerBank::new(config.breaker_threshold),
            resident: ResidentStore::default(),
            config,
        }
    }

    /// Device with a fresh in-memory backend matching the configured
    /// storage URI (S3 bucket or HDFS cluster).
    pub fn from_config(config: CloudConfig) -> CloudDevice {
        let store: StoreHandle = match &config.storage {
            StorageUri::S3 { bucket, .. } => Arc::new(S3Store::standalone(bucket)),
            StorageUri::Hdfs { .. } => HdfsStore::with_defaults(config.workers.max(3)),
            StorageUri::Azure {
                account, container, ..
            } => Arc::new(AzureBlobStore::standalone(account, container)),
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
        self.memory.lock().cache.stats()
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

    /// Drop every cached upload fingerprint (e.g. after clearing the
    /// storage bucket out of band).
    pub fn clear_upload_cache(&self) {
        self.memory.lock().cache.clear();
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
        self.resident.arm(fault);
    }

    /// Settle the pending write-behind put, joining its thread, and shut
    /// the in-process cluster down (tests/examples hygiene; dropping the
    /// device settles too). The device stays usable: the cluster
    /// restarts on demand.
    pub fn shutdown(&self) {
        // Its owner has been told how the put ended.
        let _ = self.transfer.settle();
        if let Some(sc) = self.sc.lock().take() {
            sc.stop();
        }
    }

    /// Root of the resident keys of one dataflow DAG — the unit the
    /// [`TransferManager`] lease protects from orphan collection.
    fn dataflow_root(&self, dag: &str) -> String {
        self.config.storage.key_under(&format!("dataflow/{dag}"))
    }
}

impl Drop for CloudDevice {
    /// A pending write-behind put's thread holds the transfer manager;
    /// never leak either.
    fn drop(&mut self) {
        let _ = self.transfer.settle();
    }
}

impl Device for CloudDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Cloud
    }

    fn availability(&self, tenant: &str) -> Availability {
        // Tenant-scoped: only *this* tenant's failure streak can close
        // the device to it. Unavailable *because of us* — the breaker
        // opened after consecutive failed offloads — lets the registry
        // record `BreakerOpen` instead of a generic `Unavailable`.
        if self.breakers.is_open_for(tenant) {
            Availability::BreakerOpen
        } else if self.config.simulate_unreachable {
            Availability::Down
        } else {
            Availability::Up
        }
    }

    fn supports(&self, construct: Construct) -> bool {
        // §III-D: no shared-memory synchronization on a distributed
        // map-reduce substrate.
        matches!(construct, Construct::ParallelFor)
    }

    fn execute(&self, region: &TargetRegion, env: &mut DataEnv) -> Result<ExecProfile, OmpError> {
        self.execute_dataflow(region, env, &DataflowHints::default())
    }

    fn dataflow(&self) -> Option<&dyn DataflowDevice> {
        self.config.dataflow.then_some(self as &dyn DataflowDevice)
    }
}

impl DataflowDevice for CloudDevice {
    /// The breaker-wrapped offload ([`Device::execute`] is this with no
    /// hints).
    fn execute_dataflow(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
        hints: &DataflowHints,
    ) -> Result<ExecProfile, OmpError> {
        let (e, resume_exhausted) = match self.try_execute(region, env, hints) {
            Ok(profile) => return Ok(profile),
            Err(ExecFailure::App(e)) => return Err(e),
            Err(ExecFailure::Infra(e)) => (e, false),
            Err(ExecFailure::ResumeExhausted(e)) => (e, true),
        };
        // A mid-flight infrastructure failure: count it against the
        // *owning tenant's* breaker and surface `DeviceUnavailable`, so
        // the registry re-runs the region on the host. The data
        // environment is untouched — outputs are only written back after
        // the whole offload succeeded.
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
            resume_exhausted,
        })
    }

    fn materialize(
        &self,
        reads: &[(String, Option<usize>)],
        env: &mut DataEnv,
    ) -> Result<MaterializeReport, OmpError> {
        let t = Instant::now();
        // A buffer comes home with what its store object weighs, which a
        // pending version does not know yet.
        let _ = self.transfer.settle();
        let mut report = MaterializeReport::default();
        for (var, pin) in reads {
            let served = self.resident.serve(&self.transfer, var, *pin)?;
            let value = ErasedVec::from_bytes(served.version.tag, &served.bytes);
            env.write_back(var, value)?;
            report.vars.push(var.clone());
            report.wire_bytes += served.version.wire_len;
            report.repairs += u32::from(served.rung.repaired());
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
        self.resident
            .commit(&self.transfer, &root, epoch, bufs)
            .map_err(|e| OmpError::Plugin {
                device: self.name.clone(),
                detail: format!("resident adoption failed: {e}"),
            })
    }

    fn recovery_depth(&self) -> usize {
        self.config.recovery_depth
    }

    fn invalidate_resident(&self, vars: &[String]) {
        self.resident.invalidate(&self.transfer, vars);
    }

    fn end_dataflow(&self, dag: &str) {
        let root = self.dataflow_root(dag);
        self.resident.end_dag(&self.transfer);
        self.transfer.release(&root);
        self.transfer.delete_prefix(&root);
    }
}

impl CloudDevice {
    /// Ship a batch through cloud storage and read it back: the one
    /// host↔cloud data path, shared by a region's inputs (steps 2+3),
    /// its outputs (steps 7+8) and the boundaries of a `target data`
    /// scope. `put_items` are compressed, put and — each as soon as its
    /// put lands — fetched back; `fetch_only` keys (staged by an earlier
    /// offload) are only fetched; never more than `io-threads` store ops
    /// are in flight. Returns the payloads (put items first, then
    /// `fetch_only`, each in request order) and the pipeline's report,
    /// which a region books with [`RegionRun::book_transfer`].
    pub(crate) fn round_trip(
        &self,
        put_items: Vec<(String, PoolBuf)>,
        fetch_only: Vec<String>,
    ) -> Result<PipelineResult, StorageError> {
        self.transfer
            .upload_fetch_pipelined(put_items, fetch_only, self.config.io_threads)
    }

    /// The eight-step offload workflow as five stages. Infrastructure
    /// errors come back as [`ExecFailure::Infra`] so the caller can feed
    /// the breaker. Inside a dataflow DAG, `hints` names the inputs
    /// already resident from a producer region (upload elided) and the
    /// outputs a later consumer will read in place (download elided).
    fn try_execute(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
        hints: &DataflowHints,
    ) -> Result<ExecProfile, ExecFailure> {
        let mut run = self.open_region(region, hints);
        let plan = self.plan(region, env, hints, &mut run)?;
        let (cluster_env, journal) = self.stage_in(region, env, plan, &mut run)?;
        // Steps 4–8 under the resume budget: an infrastructure failure
        // inside this window retries the whole block, and the journal
        // turns the retry into a replay of only the unfinished tiles.
        let journal = journal.as_ref();
        let home = self.with_resume_budget(cluster_env, journal, &mut run, |inputs, run| {
            let recovery = journal.map(|j| &j.recovery);
            let profile = &mut run.report.profile;
            let outcome = self.run(region, inputs, recovery, profile)?;
            self.commit(region, hints, outcome, journal, run)
        })?;
        self.stage_out(region, env, hints, journal, home, run)
    }

    /// Before the stages: name the job, start the pay-as-you-go fleet,
    /// and collect what crashed runs left behind.
    fn open_region(&self, region: &TargetRegion, hints: &DataflowHints) -> RegionRun {
        let job_id = self.job_counter.fetch_add(1, Ordering::SeqCst);
        let mut run = RegionRun {
            report: OffloadReport {
                tenant: region.tenant.to_string(),
                profile: ExecProfile::new(self.name.clone()),
                ..OffloadReport::default()
            },
            prefix: self.config.storage.key_under(&format!("job-{job_id}")),
            fleet: None,
        };
        let report = &mut run.report;
        if self.config.ec2_autostart {
            let itype = cloudsim::instance_type(&self.config.instance_type)
                .expect("validated by CloudConfig");
            let mut fleet = Fleet::new();
            fleet.launch(itype, self.config.workers + 1, self.now_s());
            report.profile.note(format!(
                "ec2 autostart: launched {} x {} (driver + {} workers)",
                self.config.workers + 1,
                itype.name,
                self.config.workers
            ));
            run.fleet = Some(fleet);
        }

        // Region start, checkpoint mode: garbage-collect staged `_tmp/`
        // outputs of regions that crashed between staging and manifest
        // publish. Safe here — this run has staged nothing yet, and a
        // region with a manifest is committed and skipped.
        let base_prefix = self.config.storage.key_prefix();
        if self.config.checkpoint {
            let orphans = self.transfer.collect_orphans(base_prefix);
            if orphans > 0 {
                report.resilience.orphans_collected = orphans as u32;
                report.profile.note(format!(
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
                let orphans = self.transfer.collect_orphans(base_prefix);
                if orphans > 0 {
                    report.resilience.orphans_collected += orphans as u32;
                    report.profile.note(format!(
                        "dataflow: collected {orphans} resident keys leaked by crashed chains"
                    ));
                }
            }
        }
        run
    }

    /// Stage 1: decide where the cluster's copy of every mapped variable
    /// comes from. Inputs a producer region left resident (or a recovery
    /// replay pins to an exact version) are served by the resident
    /// store's recovery ladder; the rest are the map-transfer
    /// optimizer's call. Nothing is put and no cache or ledger entry is
    /// written here — a repair of the resident store's own driver copy
    /// and the cache's hit/miss counters are the only state this moves.
    fn plan(
        &self,
        region: &TargetRegion,
        env: &DataEnv,
        hints: &DataflowHints,
        run: &mut RegionRun,
    ) -> Result<StagePlan, ExecFailure> {
        let dataflow = &mut run.report.profile.dataflow;
        let mut resident = HashMap::new();
        for m in region.input_maps() {
            let pin = hints.pinned_inputs.iter().find(|(v, _)| v == &m.name);
            if pin.is_none() && !hints.resident_inputs.contains(&m.name) {
                continue;
            }
            let pin = pin.map(|(_, epoch)| *epoch);
            let served = self.resident.serve(&self.transfer, &m.name, pin)?;
            // One hit per hand-off: a replay's pinned read re-reads what
            // the original run already counted.
            dataflow.resident_hits += u32::from(served.rung != Rung::Pinned);
            // The scheduler hinted the input resident, so a vanished
            // entry was lost (chaos, racing GC) before it was reinstated.
            dataflow.resident_misses += u32::from(served.rung == Rung::Reinstated);
            dataflow.resident_repairs += u32::from(served.rung.repaired());
            resident.insert(m.name.clone(), served);
        }
        let site = PlanSite {
            config: &self.config,
            prefix: &run.prefix,
            pool: self.transfer.pool(),
        };
        let plan = self
            .memory
            .lock()
            .plan(region, env, hints, resident, &site)?;
        run.report.profile.bytes_to_device = plan.map_plan.device_input_bytes();
        Ok(plan)
    }

    /// Stage 2 (workflow steps 2+3, fused): each input object is fetched
    /// back the moment its put lands, while later buffers are still
    /// compressing — where the paper puts a barrier between upload and
    /// read-back. Then the driver materializes the cluster data
    /// environment, and only then are cache and delta entries recorded,
    /// the region's fingerprint derived and its journal opened.
    fn stage_in(
        &self,
        region: &TargetRegion,
        env: &DataEnv,
        plan: StagePlan,
        run: &mut RegionRun,
    ) -> Result<(DataEnv, Option<Journal>), ExecFailure> {
        // Every host-sourced input is either put this round or a cache
        // hit fetched from where an earlier round put it.
        let (puts, cache_hits) = (plan.uploads.len(), plan.fetch_only.len());
        let (fetched, pipeline) = self
            .round_trip(plan.uploads, plan.fetch_only)
            .map_err(infra)?;
        run.report.upload = run.book_transfer(pipeline);
        let report = &mut run.report;
        report.map_plan = plan.map_plan;
        report.profile.wire_bytes_to = report.upload.wire_bytes();
        if cache_hits > 0 {
            report.profile.note(format!(
                "data caching: {cache_hits} of {} input buffers unchanged, upload skipped",
                puts + cache_hits
            ));
        }

        // Step 3 (driver side). The pipeline returns put items first and
        // cache hits last, so payloads are looked up by key rather than
        // by arrival order.
        let t_driver = Instant::now();
        let fetched: HashMap<String, PoolBuf> = fetched.into_iter().collect();
        let mut cluster_env = self
            .memory
            .lock()
            .materialize(&plan.inputs, fetched, self.config.delta_transfers)
            .map_err(|detail| {
                ExecFailure::Infra(OmpError::Plugin {
                    device: "cloud".into(),
                    detail,
                })
            })?;
        allocate_outputs(&mut cluster_env, env, &region.maps)?;
        if report.profile.dataflow.resident_hits > 0 {
            report.profile.note(format!(
                "dataflow: {} input(s) consumed device-resident, upload elided",
                report.profile.dataflow.resident_hits
            ));
        }
        report.profile.overhead_s += t_driver.elapsed().as_secs_f64();
        if report.map_plan.any() {
            report
                .profile
                .note(format!("map optimizer: {}", report.map_plan));
        }
        let journal = match self.config.checkpoint {
            true => Some(self.open_journal(region, &plan.inputs)?),
            false => None,
        };
        Ok((cluster_env, journal))
    }

    /// Checkpoint mode: derive the region's deterministic identity —
    /// name, loop shapes, and the staged inputs' wire crc32s from the
    /// integrity ledger — and open its write-ahead journal. A second run
    /// over the same inputs lands on the same journal and resumes
    /// whatever the first one finished.
    fn open_journal(
        &self,
        region: &TargetRegion,
        inputs: &[InputPlan],
    ) -> Result<Journal, ExecFailure> {
        // An input this manager staged always has its wire crc on
        // record; a fingerprint blind to one would let a journal written
        // over other data pass for this region's.
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
        // The fold order is part of the journal's key. It is map order
        // within each way an input can be sourced, host-staged inputs
        // first — kept as the first checkpointing release wrote it, so
        // the keys a region lands on do not move.
        let rank = |source: &InputSource| match source {
            InputSource::Staged { .. } | InputSource::Cached { .. } => 0,
            InputSource::Resident { .. } => 1,
            InputSource::DeltaClean { .. } => 2,
            InputSource::Alias { .. } | InputSource::NotUploaded => 3,
        };
        let mut ordered: Vec<&InputPlan> = inputs.iter().collect();
        ordered.sort_by_key(|input| rank(&input.source));
        for input in ordered {
            let crc = match &input.source {
                // The staged object's wire crc — for a resident input
                // the producer's committed key, so a resumed run only
                // lands on this journal if it consumes the same resident
                // bytes; for a dedupe alias its source's object.
                InputSource::Staged { key, .. }
                | InputSource::Cached { key }
                | InputSource::Resident { key, .. }
                | InputSource::Alias { key, .. } => wire_crc(key)?,
                // No staged key this round: the committed payload's own
                // crc32 is the identity.
                InputSource::DeltaClean { crc } => *crc,
                InputSource::NotUploaded => continue,
            };
            fp.add_input(&input.var, crc);
        }
        let base_prefix = self.config.storage.key_prefix();
        let journal = RegionJournal::open(StoreHandle::clone(&self.store), base_prefix, &fp);
        let commit_root = format!("region-{}", fp.hex());
        Ok(Journal {
            recovery: RegionRecovery::new(journal),
            commit_root: self.config.storage.key_under(&commit_root),
        })
    }

    /// Run `attempt` (stages `run` + `commit`) until it succeeds or the
    /// checkpoint resume budget is spent. Application errors propagate
    /// immediately; with checkpointing off there is one attempt.
    fn with_resume_budget<T>(
        &self,
        cluster_env: DataEnv,
        journal: Option<&Journal>,
        run: &mut RegionRun,
        mut attempt: impl FnMut(DataEnv, &mut RegionRun) -> Result<T, ExecFailure>,
    ) -> Result<T, ExecFailure> {
        let sc = self.context();
        let jobs_before = sc.job_count();
        let max_resumes = journal.map_or(0, |_| self.config.checkpoint_max_resumes);
        let mut resumes = 0usize;
        let mut cluster_env = Some(cluster_env);
        let done = loop {
            // The inputs are copied only while a resume could still need
            // them again; the last attempt (the only one, with
            // checkpointing off) takes them.
            let attempt_env = if resumes < max_resumes {
                cluster_env.clone()
            } else {
                cluster_env.take()
            };
            match attempt(attempt_env.expect("kept until the last attempt"), run) {
                Ok(done) => break done,
                Err(ExecFailure::Infra(e)) if resumes < max_resumes => {
                    resumes += 1;
                    run.report.resilience.resume_attempts += 1;
                    if self.config.verbose {
                        eprintln!(
                            "[ompcloud] {}: offload interrupted ({e}); resume attempt \
                             {resumes}/{max_resumes} from the region journal",
                            self.name
                        );
                    }
                }
                Err(ExecFailure::Infra(e)) => {
                    let Some(journal) = journal else {
                        return Err(ExecFailure::Infra(e));
                    };
                    journal.recovery.finish();
                    // The journal stays: a later run resumes from it.
                    return Err(ExecFailure::ResumeExhausted(OmpError::Plugin {
                        device: "cloud".into(),
                        detail: format!(
                            "resume budget exhausted after {resumes} resume attempts: {e}"
                        ),
                    }));
                }
                Err(e) => return Err(e),
            }
        };
        for m in &sc.job_metrics_since(jobs_before) {
            run.report.resilience.quarantine_trips += m.quarantine_trips as u32;
            run.report.resilience.heartbeat_misses += m.heartbeat_misses as u32;
        }
        Ok(done)
    }

    /// Stage 3 (workflow steps 4–6): tile, distribute, map, reconstruct
    /// — replaying only tiles `recovery`'s journal doesn't already hold.
    /// Part of the driver-side merge runs concurrently with the map
    /// phase; `l.overlap_s` reports how much. A `target data` scope runs
    /// its regions through this stage too, against its resident
    /// environment.
    pub(crate) fn run(
        &self,
        region: &TargetRegion,
        cluster_env: DataEnv,
        recovery: Option<&RegionRecovery>,
        profile: &mut ExecProfile,
    ) -> Result<JobOutcome, OmpError> {
        let outcome = run_spark_job(&self.context(), &self.config, region, cluster_env, recovery)?;
        for l in &outcome.loops {
            profile.tasks += l.tiles as u64;
            profile.compute_s += l.compute_s;
            profile.overhead_s += l.overhead_s;
            profile.overlap_s += l.overlap_s;
        }
        Ok(outcome)
    }

    /// Stage 4 (workflow step 7 and the commit points): make the outputs
    /// durable and read the escaping ones back, returned in
    /// `output_maps` order. Outputs a later DAG member consumes are
    /// committed resident; the rest go through the store to the host —
    /// in checkpoint mode to the region's `_tmp/` staging keys, with a
    /// single manifest put as the atomic commit point, otherwise
    /// straight to their final per-job keys.
    fn commit(
        &self,
        region: &TargetRegion,
        hints: &DataflowHints,
        outcome: JobOutcome,
        journal: Option<&Journal>,
        run: &mut RegionRun,
    ) -> Result<Vec<(String, PoolBuf)>, ExecFailure> {
        // Kept outputs stay device-resident: the driver commits them
        // under the DAG's leased dataflow root (a cloud-internal write —
        // no host-side transfer) and keeps a decoded copy for host
        // escapes. The host download is elided.
        if let Some(dag) = hints.dag.as_deref() {
            let bufs = region
                .output_maps()
                .filter(|m| hints.keeps(&m.name))
                .map(|m| Ok((m.name.as_str(), &**outcome.env.get_erased(&m.name)?)))
                .collect::<Result<Vec<_>, OmpError>>()?;
            if !bufs.is_empty() {
                // Foreground staging plus the wait, if any, for the
                // previous commit's put; this one's runs beside the
                // consumer and is booked by whoever settles it.
                let t = Instant::now();
                self.resident
                    .commit(&self.transfer, &self.dataflow_root(dag), hints.epoch, bufs)
                    .map_err(infra)?;
                run.report.profile.overhead_s += t.elapsed().as_secs_f64();
            }
            if !hints.recovery {
                self.resident.fire_armed(&self.transfer, hints.epoch);
            }
        }

        // Steps 7+8, fused: the driver writes the escaping outputs to
        // cloud storage and the host downloads each the moment its put
        // lands, so the read-back overlaps the tail of the store writes.
        let escaping = || region.output_maps().filter(|m| !hints.keeps(&m.name));
        let mut out_bytes = 0u64;
        let mut out_items = Vec::new();
        for m in escaping() {
            let buf = outcome.env.get_erased(&m.name)?;
            out_bytes += buf.byte_len() as u64;
            let mut staging = self.transfer.pool().get(buf.byte_len());
            buf.write_bytes_into(&mut staging);
            let key = match journal {
                Some(j) => TransferManager::staged_key(&j.commit_root, &format!("out/{}", m.name)),
                None => format!("{}/out/{}", run.prefix, m.name),
            };
            out_items.push((key, staging));
        }
        // Assigned, not accumulated: a resumed attempt stages the same
        // outputs again and must not double-count them.
        run.report.profile.bytes_from_device = out_bytes;
        let (home, pipeline) = self.round_trip(out_items, Vec::new()).map_err(infra)?;
        run.report.download = run.book_transfer(pipeline);

        // Phase two of the commit: every staged put has landed, so one
        // manifest put atomically flips the region to committed. A crash
        // anywhere before this line leaves only `_tmp/` orphans for the
        // next region start to collect.
        if let Some(j) = journal {
            // Flush the journal first: every queued marker lands (or
            // fails) strictly before the manifest put, so a fault
            // schedule indexed on journal writes can never race past
            // the commit point.
            j.recovery.finish();
            let names: Vec<String> = escaping().map(|m| format!("out/{}", m.name)).collect();
            self.transfer
                .publish_manifest(&j.commit_root, &names)
                .map_err(infra)?;
            run.report.resilience.commits_published += 1;
        }
        run.report.loops = outcome.loops;
        Ok(home)
    }

    /// Stage 5 (workflow step 8 and everything after): write the
    /// escaping outputs `home` back into the host environment, delete
    /// what the offload staged, close the owning tenant's breaker and
    /// publish the report. Resident outputs stay on the device for their
    /// consumer (the DAG drain materializes whatever survives).
    fn stage_out(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
        hints: &DataflowHints,
        journal: Option<&Journal>,
        home: Vec<(String, PoolBuf)>,
        run: RegionRun,
    ) -> Result<ExecProfile, ExecFailure> {
        let RegionRun {
            mut report,
            prefix,
            fleet,
        } = run;
        for l in &report.loops {
            report.resilience.tiles_resumed += l.tiles_resumed as u32;
            report.resilience.tiles_replayed += l.tiles_replayed as u32;
        }
        // Resident puts this region (or an adoption before it) waited
        // for: their retries are counted here, once.
        report.resilience.absorb(&self.resident.take_settled_puts());
        let resilience = report.resilience;
        if resilience.tiles_resumed > 0 {
            report.profile.note(format!(
                "checkpoint resume: {} tiles restored from the region journal, {} replayed",
                resilience.tiles_resumed, resilience.tiles_replayed
            ));
        }
        if resilience.quarantine_trips > 0 {
            report.profile.note(format!(
                "quarantine: {} executor trips, {} heartbeat misses",
                resilience.quarantine_trips, resilience.heartbeat_misses
            ));
        }
        let escaping = region.output_maps().filter(|m| !hints.keeps(&m.name));
        for (m, (_, bytes)) in escaping.zip(home) {
            let tag = env.get_erased(&m.name)?.tag();
            env.write_back(&m.name, ErasedVec::from_bytes(tag, &bytes))?;
        }
        Self::close_dataflow(region, hints, &mut report.profile);
        report.profile.wire_bytes_from = report.download.wire_bytes();
        if report.profile.overlap_s > 0.0 {
            report.profile.note(format!(
                "pipelined offload: {:.3}s of transfer/merge work overlapped",
                report.profile.overlap_s
            ));
        }

        // Pay-as-you-go teardown.
        report.cost = fleet.map(|mut f| {
            f.stop_all(self.now_s());
            let cost = f.cost_report(self.now_s());
            report.profile.note(format!("ec2 autostop: {cost}"));
            cost
        });

        // Storage hygiene: staged per-job objects are garbage once the
        // host has read the results back — all of them, or with data
        // caching on the inputs the cache does not reference. The
        // integrity ledger forgets deleted objects with them.
        if self.config.data_caching {
            self.keep_only_cached(prefix);
        } else {
            self.transfer.delete_prefix(&prefix);
        }
        // Checkpoint hygiene: the results are home, so the journal's
        // markers and the committed region objects (staged outputs plus
        // manifest) are garbage regardless of data caching.
        if let Some(j) = journal {
            j.recovery.finish();
            j.recovery.clear();
            self.transfer.delete_prefix(&j.commit_root);
        }

        if resilience.total_events() > 0 {
            report.profile.note(format!(
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
        report.resilience.breaker_consecutive_failures = breaker.consecutive_failures();
        report.resilience.breaker_tripped = breaker.is_open();
        breaker.record_success();

        if self.config.verbose {
            eprintln!("[ompcloud] {}: {}", region.name, report.profile);
        }
        let profile = report.profile.clone();
        *self.last_report.lock() = Some(report);
        Ok(profile)
    }

    /// Data-caching hygiene, after `prefix`'s job: under each job prefix
    /// an input object stays only while the upload cache references it
    /// (a pack while it references any member). Delta patches and
    /// superseded inputs are deleted and forgotten; outputs stay, as they
    /// always did with caching on. A job the cache no longer references
    /// holds nothing a later sweep could delete, so it is not listed
    /// again.
    fn keep_only_cached(&self, prefix: String) {
        let (keep, jobs) = {
            let mut memory = self.memory.lock();
            memory.cache.jobs.insert(prefix);
            let keep: HashSet<String> = memory
                .cache
                .keys()
                .map(|k| self.transfer.object_key(k))
                .collect();
            (keep, memory.cache.jobs.clone())
        };
        for job in jobs {
            let (kept, rest): (Vec<String>, Vec<String>) = self
                .store
                .list(&format!("{job}/"))
                .into_iter()
                .partition(|key| keep.contains(key));
            let outputs = format!("{job}/out/");
            for key in rest.iter().filter(|key| !key.starts_with(&outputs)) {
                let _ = self.store.delete(key);
                self.transfer.forget_prefix(key);
            }
            if kept.is_empty() {
                self.memory.lock().cache.jobs.remove(&job);
            }
        }
    }

    /// The dataflow half of stage-out: count what stayed resident and
    /// note what the plan stage's resident reads had to repair.
    fn close_dataflow(region: &TargetRegion, hints: &DataflowHints, profile: &mut ExecProfile) {
        profile.dataflow.elided_downloads = region
            .output_maps()
            .filter(|m| hints.keeps(&m.name))
            .count() as u32;
        if profile.dataflow.elided_downloads > 0 {
            profile.note(format!(
                "dataflow: {} output(s) kept device-resident, download elided",
                profile.dataflow.elided_downloads
            ));
        }
        if profile.dataflow.resident_repairs > 0 {
            profile.note(format!(
                "dataflow: {} resident input(s) repaired from the durable store copy",
                profile.dataflow.resident_repairs
            ));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Fingerprint;
    use crate::mapopt::{ElideReason, MapPlan, UploadAction};
    use cloud_storage::LatencyStore;
    use omp_model::PartitionSpec;
    use std::sync::Arc;
    use std::time::Duration;

    /// A device over a store that counts every put and get.
    fn counted_device(config: CloudConfig) -> (CloudDevice, Arc<LatencyStore>) {
        let store = Arc::new(LatencyStore::new(
            Arc::new(S3Store::standalone("plan")),
            Duration::ZERO,
        ));
        let device = CloudDevice::with_store(config, Arc::clone(&store) as StoreHandle);
        (device, store)
    }

    /// Run the plan stage alone (no cluster is ever connected).
    fn plan_once(
        device: &CloudDevice,
        region: &TargetRegion,
        env: &DataEnv,
        hints: &DataflowHints,
    ) -> (MapPlan, u64) {
        let mut run = device.open_region(region, hints);
        match device.plan(region, env, hints, &mut run) {
            Ok(plan) => (plan.map_plan, run.report.profile.bytes_to_device),
            Err(ExecFailure::Infra(e) | ExecFailure::ResumeExhausted(e) | ExecFailure::App(e)) => {
                panic!("plan failed: {e}")
            }
        }
    }

    fn upload_of<'p>(plan: &'p MapPlan, var: &str) -> &'p UploadAction {
        &plan.decision_for(var).expect("mapped").upload
    }

    /// `a` and `b` byte-identical, `c` in and out, `y` out only, `t`
    /// scratch; `x` partitioned so that only a prefix is ever read.
    fn region() -> TargetRegion {
        TargetRegion::builder("plan-only")
            .map_to("a")
            .map_to("b")
            .map_tofrom("c")
            .map_to("x")
            .map_from("y")
            .map_alloc("t")
            .parallel_for(4, |l| {
                l.partition("x", PartitionSpec::rows(2))
                    .partition("y", PartitionSpec::rows(1))
                    .body(|_, _, _| {})
            })
            .build()
            .unwrap()
    }

    fn env() -> DataEnv {
        let mut env = DataEnv::new();
        env.insert("a", vec![1.0f32; 256]);
        env.insert("b", vec![1.0f32; 256]);
        env.insert("c", vec![2.0f32; 256]);
        env.insert("x", (0..64).map(|i| i as f32).collect::<Vec<f32>>());
        env.insert("y", vec![0.0f32; 4]);
        env.insert("t", vec![0.0f32; 16]);
        env
    }

    #[test]
    fn plan_puts_nothing_and_records_nothing() {
        let config = CloudConfig {
            data_caching: true,
            ..CloudConfig::default()
        };
        let (device, store) = counted_device(config);
        let (region, env, hints) = (region(), env(), DataflowHints::default());
        // Planning twice over the same inputs decides the same: the
        // first plan left no cache entry a second one could hit.
        for round in 0..2 {
            let (plan, to_device) = plan_once(&device, &region, &env, &hints);
            assert_eq!(
                upload_of(&plan, "a"),
                &UploadAction::Full { bytes: 1024 },
                "round {round}"
            );
            assert_eq!(upload_of(&plan, "c"), &UploadAction::Full { bytes: 1024 });
            assert!(matches!(
                upload_of(&plan, "b"),
                UploadAction::Elided { reason: ElideReason::Dedup { of }, .. } if of == "a"
            ));
            assert_eq!(
                upload_of(&plan, "x"),
                &UploadAction::Narrowed {
                    bytes: 32,
                    full_bytes: 256
                }
            );
            assert!(matches!(
                upload_of(&plan, "y"),
                UploadAction::Elided {
                    reason: ElideReason::DeadTo,
                    ..
                }
            ));
            assert!(matches!(
                upload_of(&plan, "t"),
                UploadAction::Elided {
                    reason: ElideReason::AllocOnly,
                    ..
                }
            ));
            assert_eq!(to_device, plan.upload_bytes());
            assert_eq!(to_device, 1024 + 1024 + 32);
        }
        assert_eq!((store.put_count(), store.get_count()), (0, 0));
        assert_eq!(device.cache_stats(), (0, 8), "four inputs missed twice");
    }

    #[test]
    fn plan_reads_the_delta_base_without_moving_it() {
        let config = CloudConfig {
            delta_transfers: true,
            delta_tile_bytes: 256,
            ..CloudConfig::default()
        };
        let (device, store) = counted_device(config);
        let (region, env, hints) = (region(), env(), DataflowHints::default());
        // No base yet: everything travels in full, twice over.
        for _ in 0..2 {
            let (plan, to_device) = plan_once(&device, &region, &env, &hints);
            assert_eq!(upload_of(&plan, "c"), &UploadAction::Full { bytes: 1024 });
            assert_eq!(upload_of(&plan, "x"), &UploadAction::Full { bytes: 256 });
            assert_eq!(to_device, plan.upload_bytes());
        }
        // With a base (as a completed stage-in would leave one): `x` is
        // clean, `c` has one dirty tile of four.
        {
            let mut memory = device.memory.lock();
            memory
                .delta
                .commit("x", &env.get_erased("x").unwrap().to_bytes());
            let mut c = env.get_erased("c").unwrap().to_bytes();
            c[300] ^= 0xff;
            memory.delta.commit("c", &c);
        }
        let (plan, to_device) = plan_once(&device, &region, &env, &hints);
        assert_eq!(
            upload_of(&plan, "x"),
            &UploadAction::DeltaClean { full_bytes: 256 }
        );
        assert_eq!(
            upload_of(&plan, "c"),
            &UploadAction::Delta {
                dirty_tiles: 1,
                total_tiles: 4,
                bytes: 28 + 4 + 256,
                full_bytes: 1024
            }
        );
        assert_eq!(to_device, plan.upload_bytes());
        assert_eq!((store.put_count(), store.get_count()), (0, 0));
    }

    #[test]
    fn resident_and_cached_inputs_ship_nothing() {
        let config = CloudConfig {
            data_caching: true,
            ..CloudConfig::default()
        };
        let (device, store) = counted_device(config);
        let (region, env) = (region(), env());
        // `c` was left resident by a producer; `a` is in the cache.
        let root = device.dataflow_root("dag-0");
        let produced = ErasedVec::F32(vec![7.0; 256]);
        device
            .resident
            .commit(&device.transfer, &root, 0, vec![("c", &produced)])
            .unwrap();
        device.transfer.settle().unwrap();
        let a = env.get_erased("a").unwrap().to_bytes();
        device
            .memory
            .lock()
            .cache
            .record("a", Fingerprint::of(&a), "jobs/job-9/in/a".into());
        let puts_before = store.put_count();
        let hints = DataflowHints {
            resident_inputs: vec!["c".into()],
            ..DataflowHints::default()
        };
        let (plan, to_device) = plan_once(&device, &region, &env, &hints);
        assert_eq!(
            upload_of(&plan, "c"),
            &UploadAction::Resident { full_bytes: 1024 }
        );
        assert_eq!(
            upload_of(&plan, "a"),
            &UploadAction::Cached { full_bytes: 1024 }
        );
        // `b` has no fresh twin this round: `a` is not being uploaded.
        assert_eq!(upload_of(&plan, "b"), &UploadAction::Full { bytes: 1024 });
        assert_eq!(plan.upload_bytes(), 1024 + 32, "b and x's prefix");
        // The device still consumes a cache hit in full off the store;
        // only the host's put is spared.
        assert_eq!(to_device, plan.upload_bytes() + 1024);
        assert_eq!(store.put_count(), puts_before);
    }
}
