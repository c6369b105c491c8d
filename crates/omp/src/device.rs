//! Device plug-ins and the target-agnostic offloading wrapper.
//!
//! This mirrors the libomptarget architecture of the paper's Fig. 2: a
//! *target-agnostic wrapper* (the [`DeviceRegistry`]) detects devices,
//! checks capabilities, and dispatches the region to a *target-specific
//! plug-in* (any [`Device`] implementation). The host device is always
//! device 0; the cloud plug-in lives in the `ompcloud` crate and registers
//! itself here.

use crate::clause::Construct;
use crate::env::DataEnv;
use crate::error::OmpError;
use crate::profile::{ExecProfile, FallbackReason};
use crate::region::TargetRegion;
use crate::tenant::{AdmissionController, TenancyPolicy};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Broad class of a device (what `device(CLOUD)` selects on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// The initial device — the local machine.
    Host,
    /// A cloud Spark cluster reachable through the network.
    Cloud,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeviceKind::Host => "host",
            DeviceKind::Cloud => "cloud",
        })
    }
}

/// The `device(...)` clause of a target region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceSelector {
    /// Whatever the registry's default device is.
    #[default]
    Default,
    /// A specific device number (libomptarget-style).
    Id(usize),
    /// The first available device of a kind — `device(CLOUD)`.
    Kind(DeviceKind),
}

impl std::fmt::Display for DeviceSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceSelector::Default => write!(f, "default"),
            DeviceSelector::Id(id) => write!(f, "#{id}"),
            DeviceSelector::Kind(k) => write!(f, "{k}"),
        }
    }
}

/// Dataflow directives the registry's region-DAG scheduler hands a
/// device along with a deferred region. Devices that keep buffers
/// resident (object-store keys, device memory) use these to skip host
/// round-trips; the default [`Device`] implementations ignore them.
#[derive(Debug, Clone, Default)]
pub struct DataflowHints {
    /// Input variables an earlier DAG region left resident on this
    /// device — source them from the resident copy instead of
    /// uploading from the host environment (which may be stale for
    /// exactly these variables).
    pub resident_inputs: Vec<String>,
    /// Output variables a later DAG region will consume — keep them
    /// resident and skip the host download; the registry materializes
    /// whatever still matters when the DAG drains.
    pub keep_resident: Vec<String>,
    /// Identity of the DAG window (e.g. `dag-3`), used as the lease
    /// root for resident keys. `None` outside a DAG.
    pub dag: Option<String>,
    /// Position of this region in the DAG (its *epoch*). Devices stage
    /// kept outputs under version-scoped keys (`v{epoch}/{var}`) so
    /// earlier versions survive for lineage recovery.
    pub epoch: usize,
    /// Inputs that must be sourced from an exact earlier version
    /// (`(var, producing epoch)`) rather than the latest resident entry
    /// or the host environment — set on lineage-recovery replays.
    pub pinned_inputs: Vec<(String, usize)>,
    /// This execution is a lineage-recovery replay of an already-run
    /// region: regenerate the kept outputs, but never clobber resident
    /// entries of *newer* epochs.
    pub recovery: bool,
}

impl DataflowHints {
    /// Does a later DAG region consume output `var` in place?
    pub fn keeps(&self, var: &str) -> bool {
        self.keep_resident.iter().any(|v| v == var)
    }
}

/// What a [`Device::materialize_resident`] call actually moved back to
/// the host.
#[derive(Debug, Clone, Default)]
pub struct MaterializeReport {
    /// Variables written back to the host environment.
    pub vars: Vec<String>,
    /// Wire bytes downloaded to produce them.
    pub wire_bytes: u64,
    /// Wall seconds the downloads took.
    pub seconds: f64,
    /// Driver-side resident copies that were damaged and repaired from
    /// the durable store copy while serving this materialization.
    pub repairs: u64,
}

impl MaterializeReport {
    /// Fold another report into this one.
    pub fn merge(&mut self, other: MaterializeReport) {
        self.vars.extend(other.vars);
        self.wire_bytes += other.wire_bytes;
        self.seconds += other.seconds;
        self.repairs += other.repairs;
    }
}

/// Result of draining the registry's region DAG at a `taskwait`.
#[derive(Debug, Default)]
pub struct DagReport {
    /// Execution profiles of the deferred regions, in schedule order.
    pub profiles: Vec<ExecProfile>,
    /// Buffers that escaped the DAG — materialized to the host at the
    /// drain (final sinks) or mid-DAG (host fallback, cross-device
    /// reads) — with the bytes/seconds those downloads cost.
    pub drain: MaterializeReport,
    /// Producing regions re-executed to regenerate a lost resident
    /// buffer (lineage recovery).
    pub lineage_recomputes: u32,
    /// Stages re-executed on the host individually — a mid-flight
    /// device failure or an unrecoverable resident loss contained to
    /// one stage while downstream stages stayed cloud-side.
    pub stage_fallbacks: u32,
    /// Damaged driver-side resident copies repaired from their durable
    /// store copy instead of recomputed.
    pub resident_repairs: u64,
}

impl DagReport {
    /// Did any deferred region fall back to the host?
    pub fn any_fallback(&self) -> bool {
        self.profiles.iter().any(|p| p.fallback_from.is_some())
    }
}

/// A target-specific offloading plug-in.
pub trait Device: Send + Sync {
    /// Unique human-readable name.
    fn name(&self) -> &str;

    /// What kind of device this is.
    fn kind(&self) -> DeviceKind;

    /// Is the device reachable right now? Cloud devices cannot be detected
    /// automatically (they are not physically attached), so this typically
    /// checks configuration/connection state.
    fn is_available(&self) -> bool {
        true
    }

    /// Is the device up but *degraded* — e.g. its circuit breaker open
    /// after consecutive failed offloads? The registry uses this to
    /// record *why* a fallback happened: an unavailable-and-degraded
    /// device fell back because the breaker is open, not because the
    /// endpoint vanished.
    fn degraded(&self) -> bool {
        false
    }

    /// Is the device reachable for `tenant`'s submissions? Multi-tenant
    /// devices keep fault state (circuit breakers) per tenant, so one
    /// tenant's open breaker must not make the device look down for
    /// everyone else. The default collapses to the shared
    /// [`Device::is_available`].
    fn available_for(&self, tenant: &str) -> bool {
        let _ = tenant;
        self.is_available()
    }

    /// Tenant-scoped [`Device::degraded`]: is the device degraded for
    /// *this tenant* (its breaker open), regardless of other tenants'
    /// fault state?
    fn degraded_for(&self, tenant: &str) -> bool {
        let _ = tenant;
        self.degraded()
    }

    /// An implicit barrier (an eager region draining the pending DAG)
    /// produced `report` on this device's behalf. Devices that build
    /// offload reports fold the drain/recovery counters into their own
    /// accounting so the next report reflects them instead of dropping
    /// them on the floor. Default: ignore.
    fn absorb_dag_report(&self, report: &DagReport) {
        let _ = report;
    }

    /// Can this device execute regions using `construct`?
    fn supports(&self, construct: Construct) -> bool;

    /// Execute the region against the environment, returning the timing
    /// profile. Called by the wrapper after capability checks pass.
    fn execute(&self, region: &TargetRegion, env: &mut DataEnv) -> Result<ExecProfile, OmpError>;

    /// Can this device keep buffers resident across DAG regions? When
    /// false the registry never passes dataflow hints and never tracks
    /// residency for it.
    fn supports_dataflow(&self) -> bool {
        false
    }

    /// Execute a deferred region with dataflow hints. The default
    /// ignores the hints — correct for devices without residency.
    fn execute_dataflow(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
        hints: &DataflowHints,
    ) -> Result<ExecProfile, OmpError> {
        let _ = hints;
        self.execute(region, env)
    }

    /// Download the named resident variables into the host environment
    /// (a buffer escaping the DAG: final sink, host read, or a consumer
    /// about to run on the host). Unknown names are skipped.
    fn materialize_resident(
        &self,
        vars: &[String],
        env: &mut DataEnv,
    ) -> Result<MaterializeReport, OmpError> {
        let _ = (vars, env);
        Ok(MaterializeReport::default())
    }

    /// Drop resident entries for the named variables — a host-side
    /// write superseded them, so consumers must re-source from the host.
    fn invalidate_resident(&self, vars: &[String]) {
        let _ = vars;
    }

    /// How many transitive producer re-executions the DAG scheduler may
    /// spend regenerating one lost resident buffer before containing
    /// the loss with a host regeneration instead (the `recovery-depth`
    /// knob of cloud devices).
    fn recovery_depth(&self) -> usize {
        2
    }

    /// Adopt host-environment copies of `vars` as this device's
    /// resident versions for DAG `dag` at `epoch`. Called after a stage
    /// fell back to the host, so downstream consumers can stay on the
    /// device instead of re-uploading. Devices without durable
    /// residency refuse; the registry then supersedes the variables.
    fn adopt_resident(
        &self,
        vars: &[String],
        env: &DataEnv,
        dag: &str,
        epoch: usize,
    ) -> Result<(), OmpError> {
        let _ = (vars, env, dag, epoch);
        Err(OmpError::Plugin {
            device: self.name().to_string(),
            detail: "resident adoption not supported".into(),
        })
    }

    /// Download exact resident *versions* (`(var, producing epoch)`)
    /// into the host environment — used when replaying a region on the
    /// host against the inputs it originally consumed. Devices without
    /// versioned residency refuse.
    fn materialize_pinned(
        &self,
        pins: &[(String, usize)],
        env: &mut DataEnv,
    ) -> Result<MaterializeReport, OmpError> {
        let _ = (pins, env);
        Err(OmpError::Plugin {
            device: self.name().to_string(),
            detail: "versioned residency not supported".into(),
        })
    }

    /// A DAG window closed: release the lease on its resident keys and
    /// delete them. Called by the registry after every `taskwait`,
    /// success or failure.
    fn end_dataflow(&self, dag: &str) {
        let _ = dag;
    }
}

/// Deferred `nowait` regions accumulated between `taskwait`s. Shared
/// across registry clones: the DAG belongs to the program, not to one
/// handle. `admitted` is kept parallel to `pending`: whether each
/// region holds an admission slot that `taskwait` must return.
#[derive(Default)]
struct DagState {
    pending: Vec<TargetRegion>,
    admitted: Vec<bool>,
    next_id: u64,
}

/// The target-agnostic offloading wrapper: device table + dispatch.
#[derive(Clone, Default)]
pub struct DeviceRegistry {
    devices: Vec<Arc<dyn Device>>,
    default_device: usize,
    dag: Arc<Mutex<DagState>>,
    tenancy: Option<Arc<AdmissionController>>,
}

impl DeviceRegistry {
    /// Empty registry (no devices — even `omp_get_num_devices() == 0`).
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// Registry holding only the sequential host device, the state of a
    /// program before any plug-in registers.
    pub fn with_host_only() -> Self {
        let mut r = DeviceRegistry::new();
        r.register(Arc::new(crate::host::HostDevice::sequential()));
        r
    }

    /// Register a device and return its device number.
    pub fn register(&mut self, device: Arc<dyn Device>) -> usize {
        self.devices.push(device);
        self.devices.len() - 1
    }

    /// `omp_get_num_devices()`.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Device by number.
    pub fn device(&self, id: usize) -> Option<&Arc<dyn Device>> {
        self.devices.get(id)
    }

    /// `omp_set_default_device(id)`.
    pub fn set_default(&mut self, id: usize) -> Result<(), OmpError> {
        if id >= self.devices.len() {
            return Err(OmpError::NoDevice(format!("#{id}")));
        }
        self.default_device = id;
        Ok(())
    }

    /// `omp_get_default_device()`.
    pub fn default_device(&self) -> usize {
        self.default_device
    }

    /// Turn on multi-tenant admission control: every
    /// [`DeviceRegistry::offload`] passes the admission gate before any
    /// work is queued or dispatched, answering with typed
    /// [`OmpError::Rejected`] backpressure instead of queueing without
    /// bound.
    pub fn set_tenancy(&mut self, policy: TenancyPolicy) {
        self.tenancy = Some(Arc::new(AdmissionController::new(policy)));
    }

    /// The admission gate, when tenancy is enabled.
    pub fn tenancy(&self) -> Option<&Arc<AdmissionController>> {
        self.tenancy.as_ref()
    }

    /// Resolve a selector to a concrete device.
    pub fn resolve(&self, selector: DeviceSelector) -> Result<(usize, &Arc<dyn Device>), OmpError> {
        match selector {
            DeviceSelector::Default => self
                .devices
                .get(self.default_device)
                .map(|d| (self.default_device, d))
                .ok_or_else(|| OmpError::NoDevice("default".into())),
            DeviceSelector::Id(id) => self
                .devices
                .get(id)
                .map(|d| (id, d))
                .ok_or_else(|| OmpError::NoDevice(format!("#{id}"))),
            DeviceSelector::Kind(kind) => self
                .devices
                .iter()
                .enumerate()
                .find(|(_, d)| d.kind() == kind)
                .ok_or_else(|| OmpError::NoDevice(kind.to_string())),
        }
    }

    /// The `__tgt_target`-equivalent entry point: dispatch a region.
    ///
    /// Offloading is dynamic (§III): when the selected device is
    /// *unavailable* the computation falls back to the host device. When
    /// the device is available but the region uses a construct it cannot
    /// run (e.g. `barrier` on the cloud), that is a hard error — silent
    /// fallback would hide a semantic mismatch.
    pub fn offload(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
    ) -> Result<ExecProfile, OmpError> {
        // The admission gate comes first: a refused submission queues
        // nothing and runs nothing — the caller gets typed backpressure
        // instead of unbounded queueing.
        if let Some(gate) = &self.tenancy {
            if let Err(reason) = gate.admit(&region.tenant) {
                return Err(OmpError::Rejected {
                    tenant: region.tenant.to_string(),
                    reason,
                });
            }
        }
        // `nowait` defers the region into the DAG; its real profile
        // arrives with the `taskwait` report. The admission slot stays
        // held until that drain returns it.
        if region.nowait {
            {
                let mut dag = self.dag.lock();
                dag.pending.push(region.clone());
                dag.admitted.push(self.tenancy.is_some());
            }
            let mut profile = ExecProfile::new("deferred");
            profile.note(format!(
                "nowait: region '{}' deferred into the region DAG; results land at taskwait",
                region.name
            ));
            return Ok(profile);
        }
        let result = self.offload_eager(region, env);
        if let Some(gate) = &self.tenancy {
            gate.complete(&region.tenant);
        }
        result
    }

    /// Run an eager (non-`nowait`) region: drain the pending DAG (the
    /// implicit barrier), dispatch, and merge the barrier's drain and
    /// recovery counters into the returned profile — the barrier ran on
    /// this submission's behalf, so its work must not vanish with the
    /// local `DagReport`.
    fn offload_eager(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
    ) -> Result<ExecProfile, OmpError> {
        // An eager region is an implicit barrier on the pending DAG —
        // its buffers may alias pending writes, so drain first.
        let barrier = if !self.dag.lock().pending.is_empty() {
            Some(self.taskwait(env)?)
        } else {
            None
        };
        let mut profile = self.dispatch_eager(region, env)?;
        if let Some(report) = barrier {
            if let Ok((_, device)) = self.resolve(region.device) {
                device.absorb_dag_report(&report);
            }
            profile.wire_bytes_from += report.drain.wire_bytes;
            profile.host_comm_s += report.drain.seconds;
            profile.resident_repairs += report.resident_repairs;
            profile.note(format!(
                "implicit barrier drained {} deferred region(s): \
                 {} variable(s) materialized, {} lineage recompute(s), {} stage fallback(s)",
                report.profiles.len(),
                report.drain.vars.len(),
                report.lineage_recomputes,
                report.stage_fallbacks
            ));
        }
        Ok(profile)
    }

    /// Capability-check and dispatch an eager region to its device,
    /// falling back to the host when the device cannot take it. Fault
    /// state is tenant-scoped: the submission is judged against *its*
    /// tenant's breaker, not anyone else's.
    fn dispatch_eager(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
    ) -> Result<ExecProfile, OmpError> {
        // `if(false)` regions run on the host, per the OpenMP standard.
        if !region.offload_if {
            let host = self
                .devices
                .iter()
                .find(|d| d.kind() == DeviceKind::Host && d.is_available())
                .ok_or_else(|| OmpError::NoDevice("host (if-clause fallback)".into()))?;
            let mut profile = host.execute(region, env)?;
            profile.note("if(...) clause evaluated false; executed on the host");
            return Ok(profile);
        }
        let (_, device) = self.resolve(region.device)?;
        for &c in &region.constructs {
            if !device.supports(c) {
                return Err(OmpError::UnsupportedConstruct {
                    device: device.name().to_string(),
                    construct: c,
                });
            }
        }
        let tenant = region.tenant.as_str();
        if device.available_for(tenant) {
            // Mid-flight degradation: a device that starts the region but
            // cannot finish it (storage outage, breaker tripping open)
            // reports `DeviceUnavailable`. The abort is clean — target
            // plug-ins only write host buffers in their final write-back
            // step — so the region re-executes on the host from intact
            // inputs. Any other error is a hard failure: re-running a
            // region that, say, panicked in user code would hide a bug.
            match device.execute(region, env) {
                Err(OmpError::DeviceUnavailable { reason, .. })
                    if device.kind() != DeviceKind::Host =>
                {
                    // Distinguish "checkpoint resume was tried and its
                    // budget ran out" from an ordinary mid-flight abort.
                    let kind = if reason.contains(crate::profile::RESUME_EXHAUSTED) {
                        FallbackReason::ResumeExhausted
                    } else {
                        FallbackReason::MidFlight
                    };
                    return self.host_fallback(
                        region,
                        env,
                        device.as_ref(),
                        kind,
                        &format!("failed mid-flight ({reason})"),
                    );
                }
                result => return result,
            }
        }
        // Dynamic fallback: run locally when the cloud cannot be reached.
        // A device that is unreachable *because its own breaker opened*
        // records the breaker, not a vanished endpoint.
        let (kind, why) = if device.degraded_for(tenant) {
            (
                FallbackReason::BreakerOpen,
                "unavailable (circuit breaker open)",
            )
        } else {
            (FallbackReason::Unavailable, "unavailable")
        };
        self.host_fallback(region, env, device.as_ref(), kind, why)
    }

    /// Defer a region into the registry's region DAG. It executes at
    /// the next [`DeviceRegistry::taskwait`], in dependency order, with
    /// `depend(in:/out:)` edges deciding which buffers stay
    /// device-resident between regions.
    pub fn offload_nowait(&self, region: TargetRegion) {
        let mut dag = self.dag.lock();
        dag.pending.push(region);
        // Direct pushes bypass the admission gate (they carry no typed
        // rejection channel), so they hold no slot to return.
        dag.admitted.push(false);
    }

    /// Deferred regions waiting for the next `taskwait`.
    pub fn pending_regions(&self) -> usize {
        self.dag.lock().pending.len()
    }

    /// The `#pragma omp taskwait` of the region DAG: execute every
    /// deferred region in dependency order, let dependent regions
    /// consume each other's outputs device-resident, and materialize
    /// whatever escapes the DAG back into `env`. Resident keys are
    /// released on every exit path.
    pub fn taskwait(&self, env: &mut DataEnv) -> Result<DagReport, OmpError> {
        let (regions, admitted, dag_tag) = {
            let mut dag = self.dag.lock();
            if dag.pending.is_empty() {
                return Ok(DagReport::default());
            }
            let id = dag.next_id;
            dag.next_id += 1;
            (
                std::mem::take(&mut dag.pending),
                std::mem::take(&mut dag.admitted),
                format!("dag-{id}"),
            )
        };
        let mut participants: Vec<usize> = Vec::new();
        let result = self.run_dag(&regions, &dag_tag, env, &mut participants);
        // Success or failure, the DAG window is over: every
        // participating device releases its lease and deletes its
        // resident keys, so a failed chain leaks nothing.
        for &d in &participants {
            if let Some(dev) = self.devices.get(d) {
                dev.end_dataflow(&dag_tag);
            }
        }
        // …and every admitted region returns its admission slot, so a
        // failed chain cannot wedge its tenant's window either.
        if let Some(gate) = &self.tenancy {
            for (region, held) in regions.iter().zip(&admitted) {
                if *held {
                    gate.complete(&region.tenant);
                }
            }
        }
        result
    }

    /// Walk the deferred regions. Submission order is already a
    /// topological order of the version DAG — a version's writer always
    /// precedes its readers — so the scheduler executes in that order;
    /// the depend edges decide *residency*, not reordering. Lineage
    /// (which region produced which version, against which pinned
    /// inputs) is recorded as the walk proceeds, so a lost resident
    /// buffer can be regenerated by re-executing only its producer.
    fn run_dag(
        &self,
        regions: &[TargetRegion],
        dag_tag: &str,
        env: &mut DataEnv,
        participants: &mut Vec<usize>,
    ) -> Result<DagReport, OmpError> {
        // Read/write sets per region (validation guarantees depend vars
        // carry compatible map clauses, so these are subsets of the
        // regions' input/output map sets).
        let reads: Vec<Vec<String>> = regions
            .iter()
            .map(|r| r.depend_reads().map(str::to_string).collect())
            .collect();
        let writes: Vec<Vec<String>> = regions
            .iter()
            .map(|r| r.depend_writes().map(str::to_string).collect())
            .collect();
        // Keep a produced version resident when any later region
        // touches the variable again: a reader consumes it in place;
        // the next writer makes this version dead (nobody ever
        // downloads it).
        let keeps: Vec<Vec<String>> = writes
            .iter()
            .enumerate()
            .map(|(i, ws)| {
                ws.iter()
                    .filter(|v| {
                        regions[i + 1..]
                            .iter()
                            .any(|r| r.depend_reads().chain(r.depend_writes()).any(|d| d == **v))
                    })
                    .cloned()
                    .collect()
            })
            .collect();
        let pins = vec![Vec::new(); regions.len()];
        let run = DagRun {
            registry: self,
            regions,
            dag_tag,
            reads,
            writes,
            keeps,
            resident_on: HashMap::new(),
            producer: HashMap::new(),
            pins,
            report: DagReport::default(),
            participants,
        };
        run.run(env)
    }

    /// The first available host device.
    fn host_device(&self) -> Result<&Arc<dyn Device>, OmpError> {
        self.devices
            .iter()
            .find(|d| d.kind() == DeviceKind::Host && d.is_available())
            .ok_or_else(|| OmpError::NoDevice("host".into()))
    }

    /// Re-execute `region` on the host after `device` could not run it,
    /// recording the event — and its classified reason — in the returned
    /// profile.
    fn host_fallback(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
        device: &dyn Device,
        kind: FallbackReason,
        why: &str,
    ) -> Result<ExecProfile, OmpError> {
        let host = self
            .devices
            .iter()
            .find(|d| d.kind() == DeviceKind::Host && d.is_available())
            .ok_or_else(|| OmpError::DeviceUnavailable {
                device: device.name().to_string(),
                reason: format!("device {why} and no host device registered for fallback"),
            })?;
        let mut profile = host.execute(region, env)?;
        profile.fallback_from = Some(device.name().to_string());
        profile.fallback_reason = Some(kind);
        profile.note(format!(
            "device '{}' {why}; computation performed locally on '{}'",
            device.name(),
            host.name()
        ));
        Ok(profile)
    }
}

/// One `taskwait`'s DAG walk: residency + lineage bookkeeping plus the
/// recovery machinery that survives resident-buffer loss (re-execute
/// only the producer) and per-stage device failures (contain the
/// fallback to one stage, re-adopt its outputs resident).
struct DagRun<'a> {
    registry: &'a DeviceRegistry,
    regions: &'a [TargetRegion],
    dag_tag: &'a str,
    /// depend-read set per region.
    reads: Vec<Vec<String>>,
    /// depend-write set per region.
    writes: Vec<Vec<String>>,
    /// Outputs each region keeps resident (touched by a later region).
    keeps: Vec<Vec<String>>,
    /// Which device currently holds each variable's latest version.
    resident_on: HashMap<String, usize>,
    /// Lineage: the epoch (region index) that produced each variable's
    /// current resident version.
    producer: HashMap<String, usize>,
    /// Lineage: the version-pinned resident inputs each region consumed
    /// when it ran, recorded for recovery replays.
    pins: Vec<Vec<(String, usize)>>,
    report: DagReport,
    participants: &'a mut Vec<usize>,
}

impl DagRun<'_> {
    fn run(mut self, env: &mut DataEnv) -> Result<DagReport, OmpError> {
        for i in 0..self.regions.len() {
            self.exec_region(i, env)?;
        }
        // DAG drain: anything still resident is owed to the host — its
        // map(from:) contract — as exactly one download of the final
        // version per variable.
        let mut leftover: Vec<String> = self.resident_on.keys().cloned().collect();
        leftover.sort();
        self.materialize_vars(&leftover, env)?;
        self.report.drain.vars.sort();
        Ok(self.report)
    }

    fn exec_region(&mut self, i: usize, env: &mut DataEnv) -> Result<(), OmpError> {
        let region = &self.regions[i];
        let (dev_idx, device) = self.registry.resolve(region.device)?;
        let device = Arc::clone(device);
        for &c in &region.constructs {
            if !device.supports(c) {
                return Err(OmpError::UnsupportedConstruct {
                    device: device.name().to_string(),
                    construct: c,
                });
            }
        }
        let dataflow = device.supports_dataflow();
        // Inputs resident on a *different* device escape here: bring
        // them home before this region reads them. The holder keeps
        // its copy — same-device consumers may still hit it.
        let foreign: Vec<String> = self.reads[i]
            .iter()
            .filter(|v| self.resident_on.get(*v).is_some_and(|&d| d != dev_idx))
            .cloned()
            .collect();
        if !foreign.is_empty() {
            self.materialize_vars(&foreign, env)?;
        }

        // Host paths (if-clause, unavailable device) read the host
        // environment, which is stale for resident variables. The
        // availability check is tenant-scoped: only *this* tenant's
        // breaker can push its stages off the device.
        let run_on_host = !region.offload_if || !device.available_for(region.tenant.as_str());
        if run_on_host {
            let local: Vec<String> = self.reads[i]
                .iter()
                .filter(|v| self.resident_on.contains_key(*v))
                .cloned()
                .collect();
            self.materialize_vars(&local, env)?;
            let profile = if !region.offload_if {
                let host = self.registry.host_device()?;
                let mut p = host.execute(region, env)?;
                p.note("if(...) clause evaluated false; executed on the host");
                p
            } else {
                let (kind, why) = if device.degraded_for(region.tenant.as_str()) {
                    (
                        FallbackReason::BreakerOpen,
                        "unavailable (circuit breaker open)",
                    )
                } else {
                    (FallbackReason::Unavailable, "unavailable")
                };
                self.report.stage_fallbacks += 1;
                self.registry
                    .host_fallback(region, env, device.as_ref(), kind, why)?
            };
            self.supersede_writes(i);
            self.report.profiles.push(profile);
            return Ok(());
        }

        let mut hints = if dataflow {
            if !self.participants.contains(&dev_idx) {
                self.participants.push(dev_idx);
            }
            DataflowHints {
                resident_inputs: self.reads[i]
                    .iter()
                    .filter(|v| self.resident_on.get(*v) == Some(&dev_idx))
                    .cloned()
                    .collect(),
                keep_resident: self.keeps[i].clone(),
                dag: Some(self.dag_tag.to_string()),
                epoch: i,
                pinned_inputs: Vec::new(),
                recovery: false,
            }
        } else {
            DataflowHints::default()
        };
        // Lineage: record the exact versions this region consumes, so a
        // recovery replay can pin them.
        self.pins[i] = hints
            .resident_inputs
            .iter()
            .filter_map(|v| self.producer.get(v).map(|&e| (v.clone(), e)))
            .collect();

        let mut loss_rounds = 0usize;
        loop {
            match device.execute_dataflow(region, env, &hints) {
                Ok(profile) => {
                    if dataflow {
                        for v in &hints.keep_resident {
                            self.resident_on.insert(v.clone(), dev_idx);
                            self.producer.insert(v.clone(), i);
                        }
                        // Versions downloaded eagerly (no later consumer)
                        // are home: any stale residency is superseded.
                        for v in self.writes[i]
                            .iter()
                            .filter(|v| !hints.keep_resident.contains(v))
                        {
                            self.producer.remove(v);
                            if let Some(d) = self.resident_on.remove(v) {
                                if d != dev_idx {
                                    if let Some(dev) = self.registry.devices.get(d) {
                                        dev.invalidate_resident(std::slice::from_ref(v));
                                    }
                                }
                            }
                        }
                    } else {
                        self.supersede_writes(i);
                    }
                    self.report.resident_repairs += profile.resident_repairs;
                    self.report.profiles.push(profile);
                    return Ok(());
                }
                Err(OmpError::ResidentLoss { var, .. }) if dataflow => {
                    // Lineage recovery: re-execute only the producing
                    // region(s) to regenerate the lost version, then
                    // retry this stage against the repaired residency.
                    loss_rounds += 1;
                    if loss_rounds <= self.reads[i].len().max(1)
                        && self.recover_var(&var, env, device.recovery_depth())
                    {
                        continue;
                    }
                    // Recovery refused or budget exhausted: contain the
                    // loss by regenerating the variable on the host and
                    // retrying with it host-sourced — the stage itself
                    // stays on the device.
                    if let Some(&j) = self.producer.get(&var) {
                        self.host_replay(j, env)?;
                    } else {
                        self.resident_on.remove(&var);
                    }
                    hints.resident_inputs.retain(|v| v != &var);
                    self.pins[i].retain(|(v, _)| v != &var);
                    continue;
                }
                Err(OmpError::DeviceUnavailable { reason, .. })
                    if device.kind() != DeviceKind::Host =>
                {
                    // Per-stage containment: this stage falls back to
                    // the host individually. The host re-run needs fresh
                    // inputs for anything still resident from earlier
                    // regions; afterwards its kept outputs are adopted
                    // back as resident keys so downstream stages stay
                    // cloud-side.
                    let local: Vec<String> = self.reads[i]
                        .iter()
                        .filter(|v| self.resident_on.contains_key(*v))
                        .cloned()
                        .collect();
                    self.materialize_vars(&local, env)?;
                    let kind = if reason.contains(crate::profile::RESUME_EXHAUSTED) {
                        FallbackReason::ResumeExhausted
                    } else {
                        FallbackReason::MidFlight
                    };
                    let profile = self.registry.host_fallback(
                        region,
                        env,
                        device.as_ref(),
                        kind,
                        &format!("failed mid-flight ({reason})"),
                    )?;
                    self.report.stage_fallbacks += 1;
                    let adopted = dataflow
                        && !hints.keep_resident.is_empty()
                        && device.available_for(region.tenant.as_str())
                        && device
                            .adopt_resident(&hints.keep_resident, env, self.dag_tag, i)
                            .is_ok();
                    if adopted {
                        for v in &hints.keep_resident {
                            self.resident_on.insert(v.clone(), dev_idx);
                            self.producer.insert(v.clone(), i);
                        }
                        // Outputs with no later consumer are home; any
                        // stale residency — including this device's own
                        // pre-failure copy — is superseded.
                        for v in self.writes[i]
                            .iter()
                            .filter(|v| !hints.keep_resident.contains(v))
                            .cloned()
                            .collect::<Vec<_>>()
                        {
                            self.producer.remove(&v);
                            if let Some(d) = self.resident_on.remove(&v) {
                                if let Some(dev) = self.registry.devices.get(d) {
                                    dev.invalidate_resident(std::slice::from_ref(&v));
                                }
                            }
                        }
                    } else {
                        self.supersede_writes(i);
                    }
                    self.report.profiles.push(profile);
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Regenerate `var`'s resident version by re-executing its
    /// producing region (transitively, within `depth`). Returns whether
    /// the version is resident again.
    fn recover_var(&mut self, var: &str, env: &mut DataEnv, depth: usize) -> bool {
        match self.producer.get(var).copied() {
            Some(j) => self.recover_region(j, env, depth),
            None => false,
        }
    }

    /// Re-execute region `j` on its device as a recovery replay: inputs
    /// pinned to the versions it originally consumed, kept outputs
    /// re-staged under their original epoch. Recurses (within `depth`)
    /// when a pinned ancestor version is itself lost.
    fn recover_region(&mut self, j: usize, env: &mut DataEnv, depth: usize) -> bool {
        if depth == 0 {
            return false;
        }
        let Ok((_, device)) = self.registry.resolve(self.regions[j].device) else {
            return false;
        };
        let device = Arc::clone(device);
        if !device.supports_dataflow() || !device.available_for(self.regions[j].tenant.as_str()) {
            return false;
        }
        let hints = DataflowHints {
            resident_inputs: Vec::new(),
            keep_resident: self.keeps[j].clone(),
            dag: Some(self.dag_tag.to_string()),
            epoch: j,
            pinned_inputs: self.pins[j].clone(),
            recovery: true,
        };
        let mut rounds = 0usize;
        loop {
            match device.execute_dataflow(&self.regions[j], env, &hints) {
                Ok(profile) => {
                    self.report.lineage_recomputes += 1;
                    self.report.resident_repairs += profile.resident_repairs;
                    return true;
                }
                Err(OmpError::ResidentLoss { var, .. }) => {
                    // A pinned ancestor version is gone too: regenerate
                    // it one level deeper, then retry this replay.
                    rounds += 1;
                    let pinned_epoch = hints
                        .pinned_inputs
                        .iter()
                        .find(|(v, _)| v == &var)
                        .map(|&(_, e)| e);
                    if rounds <= hints.pinned_inputs.len().max(1)
                        && pinned_epoch.is_some_and(|e| self.recover_region(e, env, depth - 1))
                    {
                        continue;
                    }
                    return false;
                }
                Err(_) => return false,
            }
        }
    }

    /// Regenerate region `j`'s outputs on the host: version-pinned
    /// inputs come from the device's durable copies (recursing up the
    /// lineage when a pin is gone), everything else from the host
    /// environment. The host result supersedes any resident copy of the
    /// region's still-current writes — stale device versions are never
    /// served again.
    fn host_replay(&mut self, j: usize, env: &mut DataEnv) -> Result<(), OmpError> {
        let device = self
            .registry
            .resolve(self.regions[j].device)
            .ok()
            .map(|(_, d)| Arc::clone(d));
        for (var, e) in self.pins[j].clone() {
            let served = device.as_ref().is_some_and(|d| {
                match d.materialize_pinned(std::slice::from_ref(&(var.clone(), e)), env) {
                    Ok(rep) => {
                        self.report.resident_repairs += rep.repairs;
                        self.report.drain.wire_bytes += rep.wire_bytes;
                        self.report.drain.seconds += rep.seconds;
                        true
                    }
                    Err(_) => false,
                }
            });
            if !served {
                // The pinned version is unrecoverable: regenerate it on
                // the host too. Epochs strictly decrease, so this
                // terminates at a region with no pinned inputs.
                self.host_replay(e, env)?;
            }
        }
        let host = self.registry.host_device()?;
        host.execute(&self.regions[j], env)?;
        self.report.stage_fallbacks += 1;
        for v in self.writes[j].clone() {
            // Only supersede versions this region still owns — a later
            // writer's newer resident version stays authoritative.
            if self.producer.get(&v).copied() == Some(j) {
                self.producer.remove(&v);
                if let Some(d) = self.resident_on.remove(&v) {
                    if let Some(dev) = self.registry.devices.get(d) {
                        dev.invalidate_resident(std::slice::from_ref(&v));
                    }
                }
            }
        }
        Ok(())
    }

    /// A host write superseded region `i`'s outputs: drop and
    /// invalidate any resident copies so consumers re-source from the
    /// host.
    fn supersede_writes(&mut self, i: usize) {
        for v in self.writes[i].clone() {
            self.producer.remove(&v);
            if let Some(d) = self.resident_on.remove(&v) {
                if let Some(dev) = self.registry.devices.get(d) {
                    dev.invalidate_resident(std::slice::from_ref(&v));
                }
            }
        }
    }

    /// Materialize `vars` into `env` from whichever devices hold them,
    /// folding the download cost into the drain report. A resident loss
    /// triggers lineage recovery and a retry; an unrecoverable loss is
    /// contained by regenerating the variable on the host.
    fn materialize_vars(&mut self, vars: &[String], env: &mut DataEnv) -> Result<(), OmpError> {
        let mut by_dev: HashMap<usize, Vec<String>> = HashMap::new();
        for v in vars {
            if let Some(&d) = self.resident_on.get(v) {
                by_dev.entry(d).or_default().push(v.clone());
            }
        }
        let mut dev_ids: Vec<usize> = by_dev.keys().copied().collect();
        dev_ids.sort_unstable();
        for d in dev_ids {
            let mut names = by_dev.remove(&d).expect("key listed above");
            names.sort();
            let Some(device) = self.registry.devices.get(d).map(Arc::clone) else {
                continue;
            };
            let mut loss_rounds = 0usize;
            while !names.is_empty() {
                match device.materialize_resident(&names, env) {
                    Ok(rep) => {
                        self.report.resident_repairs += rep.repairs;
                        self.report.drain.merge(rep);
                        break;
                    }
                    Err(OmpError::ResidentLoss { var, .. }) => {
                        loss_rounds += 1;
                        if loss_rounds <= names.len()
                            && self.recover_var(&var, env, device.recovery_depth())
                        {
                            // Retry the whole group — re-materializing
                            // an already-served name is idempotent.
                            continue;
                        }
                        // Terminal: regenerate on the host instead; the
                        // host copy is authoritative, so the name no
                        // longer needs materializing.
                        if let Some(&j) = self.producer.get(&var) {
                            self.host_replay(j, env)?;
                        } else {
                            self.resident_on.remove(&var);
                        }
                        names.retain(|v| v != &var);
                        self.report.drain.vars.push(var);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::TargetRegion;
    use parking_lot::Mutex;

    /// Minimal fake device for wrapper tests.
    struct FakeDevice {
        name: String,
        kind: DeviceKind,
        available: bool,
        degraded: bool,
        supports_barrier: bool,
        /// When set, `execute` fails with `DeviceUnavailable` carrying
        /// this reason — models a device that accepts the region but
        /// degrades mid-flight.
        fail_midflight: Option<String>,
        /// Tenant whose (per-tenant) breaker is open: the device refuses
        /// that tenant's submissions while serving everyone else.
        tripped_for: Option<String>,
        executions: Mutex<usize>,
    }

    impl Device for FakeDevice {
        fn name(&self) -> &str {
            &self.name
        }
        fn kind(&self) -> DeviceKind {
            self.kind
        }
        fn is_available(&self) -> bool {
            self.available
        }
        fn degraded(&self) -> bool {
            self.degraded
        }
        fn supports(&self, c: Construct) -> bool {
            c != Construct::Barrier || self.supports_barrier
        }
        fn available_for(&self, tenant: &str) -> bool {
            self.available && self.tripped_for.as_deref() != Some(tenant)
        }
        fn degraded_for(&self, tenant: &str) -> bool {
            self.degraded || self.tripped_for.as_deref() == Some(tenant)
        }
        fn execute(
            &self,
            _region: &TargetRegion,
            _env: &mut DataEnv,
        ) -> Result<ExecProfile, OmpError> {
            *self.executions.lock() += 1;
            if let Some(reason) = &self.fail_midflight {
                return Err(OmpError::DeviceUnavailable {
                    device: self.name.clone(),
                    reason: reason.clone(),
                });
            }
            Ok(ExecProfile::new(self.name.clone()))
        }
    }

    fn fake(name: &str, kind: DeviceKind, available: bool) -> Arc<FakeDevice> {
        Arc::new(FakeDevice {
            name: name.into(),
            kind,
            available,
            degraded: false,
            supports_barrier: kind == DeviceKind::Host,
            fail_midflight: None,
            tripped_for: None,
            executions: Mutex::new(0),
        })
    }

    fn failing_midflight(name: &str, kind: DeviceKind) -> Arc<FakeDevice> {
        Arc::new(FakeDevice {
            name: name.into(),
            kind,
            available: true,
            degraded: false,
            supports_barrier: kind == DeviceKind::Host,
            fail_midflight: Some("storage endpoint lost".into()),
            tripped_for: None,
            executions: Mutex::new(0),
        })
    }

    fn trivial_region(selector: DeviceSelector) -> TargetRegion {
        TargetRegion::builder("t")
            .device(selector)
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap()
    }

    #[test]
    fn registry_counts_devices() {
        let mut r = DeviceRegistry::with_host_only();
        assert_eq!(r.num_devices(), 1);
        r.register(fake("cloud-0", DeviceKind::Cloud, true));
        assert_eq!(r.num_devices(), 2);
    }

    #[test]
    fn resolve_by_kind_finds_cloud() {
        let mut r = DeviceRegistry::with_host_only();
        let cloud = fake("cloud-0", DeviceKind::Cloud, true);
        r.register(cloud);
        let (id, d) = r.resolve(DeviceSelector::Kind(DeviceKind::Cloud)).unwrap();
        assert_eq!(id, 1);
        assert_eq!(d.name(), "cloud-0");
    }

    #[test]
    fn resolve_missing_kind_errors() {
        let r = DeviceRegistry::with_host_only();
        assert!(matches!(
            r.resolve(DeviceSelector::Kind(DeviceKind::Cloud)),
            Err(OmpError::NoDevice(_))
        ));
    }

    #[test]
    fn offload_dispatches_to_selected_device() {
        let mut r = DeviceRegistry::with_host_only();
        let cloud = fake("cloud-0", DeviceKind::Cloud, true);
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        let mut env = DataEnv::new();
        let p = r
            .offload(
                &trivial_region(DeviceSelector::Kind(DeviceKind::Cloud)),
                &mut env,
            )
            .unwrap();
        assert_eq!(p.device, "cloud-0");
        assert_eq!(*cloud.executions.lock(), 1);
    }

    #[test]
    fn unavailable_cloud_falls_back_to_host() {
        let mut r = DeviceRegistry::new();
        let host = fake("host", DeviceKind::Host, true);
        let cloud = fake("cloud-0", DeviceKind::Cloud, false);
        r.register(Arc::clone(&host) as Arc<dyn Device>);
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        let mut env = DataEnv::new();
        let p = r
            .offload(
                &trivial_region(DeviceSelector::Kind(DeviceKind::Cloud)),
                &mut env,
            )
            .unwrap();
        assert_eq!(p.device, "host");
        assert_eq!(*cloud.executions.lock(), 0);
        assert_eq!(*host.executions.lock(), 1);
        assert!(p.notes.iter().any(|n| n.contains("performed locally")));
        assert_eq!(p.fallback_reason, Some(FallbackReason::Unavailable));
    }

    #[test]
    fn degraded_device_fallback_is_classified_as_breaker_open() {
        let mut r = DeviceRegistry::new();
        let host = fake("host", DeviceKind::Host, true);
        r.register(Arc::clone(&host) as Arc<dyn Device>);
        r.register(Arc::new(FakeDevice {
            name: "cloud-0".into(),
            kind: DeviceKind::Cloud,
            available: false,
            degraded: true,
            supports_barrier: false,
            fail_midflight: None,
            tripped_for: None,
            executions: Mutex::new(0),
        }) as Arc<dyn Device>);
        let mut env = DataEnv::new();
        let p = r
            .offload(
                &trivial_region(DeviceSelector::Kind(DeviceKind::Cloud)),
                &mut env,
            )
            .unwrap();
        assert_eq!(p.fallback_from.as_deref(), Some("cloud-0"));
        assert_eq!(p.fallback_reason, Some(FallbackReason::BreakerOpen));
        assert!(p.notes.iter().any(|n| n.contains("circuit breaker open")));
    }

    #[test]
    fn exhausted_resume_budget_is_classified_distinctly() {
        let mut r = DeviceRegistry::new();
        let host = fake("host", DeviceKind::Host, true);
        r.register(Arc::clone(&host) as Arc<dyn Device>);
        r.register(Arc::new(FakeDevice {
            name: "cloud-0".into(),
            kind: DeviceKind::Cloud,
            available: true,
            degraded: false,
            supports_barrier: false,
            fail_midflight: Some(format!(
                "{} after 2 attempts (data unavailable)",
                crate::profile::RESUME_EXHAUSTED
            )),
            tripped_for: None,
            executions: Mutex::new(0),
        }) as Arc<dyn Device>);
        let mut env = DataEnv::new();
        let p = r
            .offload(
                &trivial_region(DeviceSelector::Kind(DeviceKind::Cloud)),
                &mut env,
            )
            .unwrap();
        assert_eq!(p.fallback_reason, Some(FallbackReason::ResumeExhausted));
        assert!(p.notes.iter().any(|n| n.contains("failed mid-flight")));
    }

    #[test]
    fn midflight_failure_recovers_on_host() {
        let mut r = DeviceRegistry::new();
        let host = fake("host", DeviceKind::Host, true);
        let cloud = failing_midflight("cloud-0", DeviceKind::Cloud);
        r.register(Arc::clone(&host) as Arc<dyn Device>);
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        let mut env = DataEnv::new();
        let p = r
            .offload(
                &trivial_region(DeviceSelector::Kind(DeviceKind::Cloud)),
                &mut env,
            )
            .unwrap();
        assert_eq!(p.device, "host");
        assert_eq!(*cloud.executions.lock(), 1, "the cloud was attempted");
        assert_eq!(*host.executions.lock(), 1, "the host recovered it");
        assert_eq!(p.fallback_from.as_deref(), Some("cloud-0"));
        assert_eq!(p.fallback_reason, Some(FallbackReason::MidFlight));
        assert!(p
            .notes
            .iter()
            .any(|n| n.contains("failed mid-flight") && n.contains("storage endpoint lost")));
    }

    #[test]
    fn midflight_failure_on_host_itself_is_terminal() {
        let mut r = DeviceRegistry::new();
        r.register(failing_midflight("host", DeviceKind::Host) as Arc<dyn Device>);
        let mut env = DataEnv::new();
        assert!(matches!(
            r.offload(
                &trivial_region(DeviceSelector::Kind(DeviceKind::Host)),
                &mut env,
            ),
            Err(OmpError::DeviceUnavailable { .. })
        ));
    }

    #[test]
    fn unsupported_construct_is_hard_error() {
        let mut r = DeviceRegistry::with_host_only();
        r.register(fake("cloud-0", DeviceKind::Cloud, true));
        let region = TargetRegion::builder("sync")
            .device(DeviceSelector::Kind(DeviceKind::Cloud))
            .uses(Construct::Barrier)
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        assert!(matches!(
            r.offload(&region, &mut env),
            Err(OmpError::UnsupportedConstruct { .. })
        ));
    }

    #[test]
    fn if_clause_false_runs_on_host() {
        let mut r = DeviceRegistry::with_host_only();
        let cloud = fake("cloud-0", DeviceKind::Cloud, true);
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        let region = TargetRegion::builder("small")
            .device(DeviceSelector::Kind(DeviceKind::Cloud))
            .offload_if(false)
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        let p = r.offload(&region, &mut env).unwrap();
        assert!(p.device.starts_with("host"));
        assert_eq!(*cloud.executions.lock(), 0);
        assert!(p.notes.iter().any(|n| n.contains("if(...)")));
    }

    #[test]
    fn set_default_validates_id() {
        let mut r = DeviceRegistry::with_host_only();
        assert!(r.set_default(0).is_ok());
        assert!(r.set_default(5).is_err());
    }

    /// Records every dataflow interaction so the tests can assert the
    /// registry's DAG bookkeeping without a real resident store.
    #[derive(Default)]
    struct DataflowLog {
        hints: Vec<DataflowHints>,
        materialized: Vec<Vec<String>>,
        pinned: Vec<Vec<(String, usize)>>,
        adopted: Vec<(Vec<String>, usize)>,
        invalidated: Vec<String>,
        ended: Vec<String>,
        /// (profiles, drained wire bytes, stage fallbacks) of every
        /// barrier report handed to `absorb_dag_report`.
        absorbed: Vec<(usize, u64, u32)>,
    }

    struct DataflowFake {
        name: String,
        log: Mutex<DataflowLog>,
        fail_on_call: Option<usize>,
        calls: Mutex<usize>,
        /// One-shot fault: the Nth `execute_dataflow` call fails with
        /// `ResidentLoss` for this variable, then the fault clears —
        /// models a resident key lost between two stages.
        lose_resident_on_call: Mutex<Option<(usize, String)>>,
        depth: usize,
        adopt_ok: bool,
    }

    impl DataflowFake {
        fn bare(name: &str) -> DataflowFake {
            DataflowFake {
                name: name.into(),
                log: Mutex::new(DataflowLog::default()),
                fail_on_call: None,
                calls: Mutex::new(0),
                lose_resident_on_call: Mutex::new(None),
                depth: 2,
                adopt_ok: true,
            }
        }

        fn new(name: &str) -> Arc<DataflowFake> {
            Arc::new(DataflowFake::bare(name))
        }
    }

    impl Device for DataflowFake {
        fn name(&self) -> &str {
            &self.name
        }
        fn kind(&self) -> DeviceKind {
            DeviceKind::Cloud
        }
        fn supports(&self, c: Construct) -> bool {
            c == Construct::ParallelFor
        }
        fn execute(
            &self,
            _region: &TargetRegion,
            _env: &mut DataEnv,
        ) -> Result<ExecProfile, OmpError> {
            Ok(ExecProfile::new(self.name.clone()))
        }
        fn supports_dataflow(&self) -> bool {
            true
        }
        fn execute_dataflow(
            &self,
            region: &TargetRegion,
            env: &mut DataEnv,
            hints: &DataflowHints,
        ) -> Result<ExecProfile, OmpError> {
            self.log.lock().hints.push(hints.clone());
            let call = {
                let mut c = self.calls.lock();
                *c += 1;
                *c - 1
            };
            if self.fail_on_call == Some(call) {
                return Err(OmpError::DeviceUnavailable {
                    device: self.name.clone(),
                    reason: "storage endpoint lost".into(),
                });
            }
            let lost = {
                let mut slot = self.lose_resident_on_call.lock();
                match &*slot {
                    Some((c, _)) if *c == call => slot.take().map(|(_, v)| v),
                    _ => None,
                }
            };
            if let Some(var) = lost {
                return Err(OmpError::ResidentLoss {
                    var,
                    reason: crate::error::ResidentLossReason::Miss,
                });
            }
            self.execute(region, env)
        }
        fn materialize_resident(
            &self,
            vars: &[String],
            _env: &mut DataEnv,
        ) -> Result<MaterializeReport, OmpError> {
            self.log.lock().materialized.push(vars.to_vec());
            Ok(MaterializeReport {
                vars: vars.to_vec(),
                wire_bytes: vars.len() as u64,
                seconds: 0.0,
                repairs: 0,
            })
        }
        fn materialize_pinned(
            &self,
            pins: &[(String, usize)],
            _env: &mut DataEnv,
        ) -> Result<MaterializeReport, OmpError> {
            self.log.lock().pinned.push(pins.to_vec());
            Ok(MaterializeReport {
                vars: pins.iter().map(|(v, _)| v.clone()).collect(),
                wire_bytes: pins.len() as u64,
                seconds: 0.0,
                repairs: 0,
            })
        }
        fn adopt_resident(
            &self,
            vars: &[String],
            _env: &DataEnv,
            _dag: &str,
            epoch: usize,
        ) -> Result<(), OmpError> {
            if !self.adopt_ok {
                return Err(OmpError::Plugin {
                    device: self.name.clone(),
                    detail: "adoption refused".into(),
                });
            }
            self.log.lock().adopted.push((vars.to_vec(), epoch));
            Ok(())
        }
        fn recovery_depth(&self) -> usize {
            self.depth
        }
        fn invalidate_resident(&self, vars: &[String]) {
            self.log.lock().invalidated.extend(vars.iter().cloned());
        }
        fn end_dataflow(&self, dag: &str) {
            self.log.lock().ended.push(dag.to_string());
        }
        fn absorb_dag_report(&self, report: &DagReport) {
            self.log.lock().absorbed.push((
                report.profiles.len(),
                report.drain.wire_bytes,
                report.stage_fallbacks,
            ));
        }
    }

    fn chain_region(name: &str, var: &str) -> TargetRegion {
        TargetRegion::builder(name)
            .device(DeviceSelector::Kind(DeviceKind::Cloud))
            .map_tofrom(var)
            .depend_inout(var)
            .nowait()
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap()
    }

    #[test]
    fn nowait_regions_defer_until_taskwait() {
        let mut r = DeviceRegistry::with_host_only();
        let cloud = fake("cloud-0", DeviceKind::Cloud, true);
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        let mut env = DataEnv::new();
        let p = r.offload(&chain_region("s1", "y"), &mut env).unwrap();
        assert_eq!(p.device, "deferred");
        assert_eq!(*cloud.executions.lock(), 0, "not executed yet");
        assert_eq!(r.pending_regions(), 1);
        let report = r.taskwait(&mut env).unwrap();
        assert_eq!(report.profiles.len(), 1);
        assert_eq!(*cloud.executions.lock(), 1);
        assert_eq!(r.pending_regions(), 0);
        // An empty taskwait is a no-op.
        assert!(r.taskwait(&mut env).unwrap().profiles.is_empty());
    }

    #[test]
    fn iterative_chain_hints_keep_intermediates_resident() {
        let mut r = DeviceRegistry::with_host_only();
        let cloud = DataflowFake::new("cloud-0");
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        for i in 0..3 {
            r.offload_nowait(chain_region(&format!("it{i}"), "y"));
        }
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert_eq!(report.profiles.len(), 3);
        let log = cloud.log.lock();
        assert_eq!(log.hints.len(), 3);
        assert!(
            log.hints[0].resident_inputs.is_empty(),
            "first has no producer"
        );
        assert_eq!(log.hints[0].keep_resident, vec!["y"]);
        assert_eq!(log.hints[1].resident_inputs, vec!["y"]);
        assert_eq!(log.hints[1].keep_resident, vec!["y"]);
        assert_eq!(log.hints[2].resident_inputs, vec!["y"]);
        assert!(
            log.hints[2].keep_resident.is_empty(),
            "the last version escapes: the device downloads it eagerly"
        );
        assert!(log.materialized.is_empty(), "nothing left to drain");
        assert_eq!(log.ended, vec!["dag-0"], "lease released exactly once");
        assert!(log.hints.iter().all(|h| h.dag.as_deref() == Some("dag-0")));
    }

    #[test]
    fn two_stage_pipeline_materializes_intermediate_at_drain() {
        let mut r = DeviceRegistry::with_host_only();
        let cloud = DataflowFake::new("cloud-0");
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        let stage1 = TargetRegion::builder("stage1")
            .device(DeviceSelector::Kind(DeviceKind::Cloud))
            .map_to("x")
            .map_from("t")
            .depend_out("t")
            .nowait()
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        let stage2 = TargetRegion::builder("stage2")
            .device(DeviceSelector::Kind(DeviceKind::Cloud))
            .map_to("t")
            .map_from("y")
            .depend_in("t")
            .depend_out("y")
            .nowait()
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        r.offload_nowait(stage1);
        r.offload_nowait(stage2);
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        let log = cloud.log.lock();
        assert_eq!(log.hints[0].keep_resident, vec!["t"]);
        assert_eq!(log.hints[1].resident_inputs, vec!["t"]);
        assert!(log.hints[1].keep_resident.is_empty());
        // `t` was never superseded, so its final (only) version comes
        // home once, at the drain.
        assert_eq!(log.materialized, vec![vec!["t".to_string()]]);
        assert_eq!(report.drain.vars, vec!["t"]);
        assert_eq!(report.drain.wire_bytes, 1);
    }

    #[test]
    fn consumer_fallback_materializes_inputs_and_supersedes_writes() {
        let mut r = DeviceRegistry::new();
        let host = fake("host", DeviceKind::Host, true);
        r.register(Arc::clone(&host) as Arc<dyn Device>);
        let cloud = Arc::new(DataflowFake {
            fail_on_call: Some(1), // the consumer dies mid-flight
            ..DataflowFake::bare("cloud-0")
        });
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        r.offload_nowait(chain_region("producer", "y"));
        r.offload_nowait(chain_region("consumer", "y"));
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert_eq!(report.profiles.len(), 2);
        assert!(report.profiles[1].fallback_from.is_some());
        assert_eq!(report.stage_fallbacks, 1);
        let log = cloud.log.lock();
        // The host re-run read `y` from the resident copy first…
        assert_eq!(log.materialized, vec![vec!["y".to_string()]]);
        // …and its write superseded the resident version. The consumer
        // is the chain's last stage, so there is nothing to adopt back.
        assert_eq!(log.invalidated, vec!["y"]);
        assert!(log.adopted.is_empty());
        assert_eq!(log.ended, vec!["dag-0"]);
        assert_eq!(report.drain.vars, vec!["y"], "mid-DAG escape is reported");
    }

    #[test]
    fn failed_producer_adopts_host_outputs_and_keeps_consumer_cloud_side() {
        let mut r = DeviceRegistry::new();
        let host = fake("host", DeviceKind::Host, true);
        r.register(Arc::clone(&host) as Arc<dyn Device>);
        let cloud = Arc::new(DataflowFake {
            fail_on_call: Some(0), // the producer dies mid-flight
            ..DataflowFake::bare("cloud-0")
        });
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        r.offload_nowait(chain_region("producer", "y"));
        r.offload_nowait(chain_region("consumer", "y"));
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert!(report.profiles[0].fallback_from.is_some());
        assert!(report.profiles[1].fallback_from.is_none());
        assert_eq!(report.stage_fallbacks, 1, "the failure stayed contained");
        let log = cloud.log.lock();
        // Per-stage containment: the host-recomputed output was adopted
        // back as a resident key, so the consumer still sources it from
        // the device instead of re-uploading from the host.
        assert_eq!(log.adopted, vec![(vec!["y".to_string()], 0)]);
        assert_eq!(
            log.hints[1].resident_inputs,
            vec!["y"],
            "the consumer stays cloud-side against the adopted copy"
        );
        assert!(log.materialized.is_empty());
    }

    #[test]
    fn failed_producer_without_adoption_leaves_consumer_sourcing_from_host() {
        let mut r = DeviceRegistry::new();
        let host = fake("host", DeviceKind::Host, true);
        r.register(Arc::clone(&host) as Arc<dyn Device>);
        let cloud = Arc::new(DataflowFake {
            fail_on_call: Some(0), // the producer dies mid-flight
            adopt_ok: false,       // …and the device refuses re-uploads
            ..DataflowFake::bare("cloud-0")
        });
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        r.offload_nowait(chain_region("producer", "y"));
        r.offload_nowait(chain_region("consumer", "y"));
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert!(report.profiles[0].fallback_from.is_some());
        assert!(report.profiles[1].fallback_from.is_none());
        assert_eq!(report.stage_fallbacks, 1);
        let log = cloud.log.lock();
        assert!(log.adopted.is_empty());
        assert!(
            log.hints[1].resident_inputs.is_empty(),
            "nothing is resident after the producer fell back — the consumer uploads from the host"
        );
        assert!(log.materialized.is_empty());
    }

    #[test]
    fn resident_loss_triggers_lineage_recompute() {
        let mut r = DeviceRegistry::with_host_only();
        let cloud = Arc::new(DataflowFake {
            // Stage 1's first attempt finds `y`'s resident copy gone.
            lose_resident_on_call: Mutex::new(Some((1, "y".to_string()))),
            ..DataflowFake::bare("cloud-0")
        });
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        for i in 0..3 {
            r.offload_nowait(chain_region(&format!("it{i}"), "y"));
        }
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert_eq!(report.profiles.len(), 3, "recovery replays add no profiles");
        assert_eq!(report.lineage_recomputes, 1, "only the producer re-ran");
        assert_eq!(report.stage_fallbacks, 0, "no stage left the device");
        assert!(report.profiles.iter().all(|p| p.fallback_from.is_none()));
        let log = cloud.log.lock();
        // stage0, stage1 (loss), recovery of stage0, stage1 retry, stage2.
        assert_eq!(log.hints.len(), 5);
        assert!(log.hints[2].recovery, "third call is the lineage replay");
        assert_eq!(log.hints[2].epoch, 0, "…of the producing region");
        assert!(!log.hints[3].recovery);
        assert_eq!(
            log.hints[3].resident_inputs,
            vec!["y"],
            "the retried stage sources the regenerated resident copy"
        );
        assert_eq!(
            log.hints[4].resident_inputs,
            vec!["y"],
            "downstream stages stay cloud-side"
        );
        assert!(log.materialized.is_empty(), "no mid-DAG host escape");
    }

    #[test]
    fn recovery_budget_exhausted_contains_loss_with_host_replay() {
        let mut r = DeviceRegistry::new();
        let host = fake("host", DeviceKind::Host, true);
        r.register(Arc::clone(&host) as Arc<dyn Device>);
        let cloud = Arc::new(DataflowFake {
            lose_resident_on_call: Mutex::new(Some((1, "y".to_string()))),
            depth: 0, // recovery-depth budget disallows any replay
            ..DataflowFake::bare("cloud-0")
        });
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        r.offload_nowait(chain_region("producer", "y"));
        r.offload_nowait(chain_region("consumer", "y"));
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert_eq!(report.lineage_recomputes, 0, "budget forbade the replay");
        assert_eq!(
            report.stage_fallbacks, 1,
            "the producer was replayed on the host instead"
        );
        assert!(
            report.profiles.iter().all(|p| p.fallback_from.is_none()),
            "host replays do not surface as whole-stage fallbacks"
        );
        let log = cloud.log.lock();
        // The host-regenerated version superseded the stale resident copy…
        assert_eq!(log.invalidated, vec!["y"]);
        // …and the consumer retried with `y` host-sourced.
        let last = log.hints.last().unwrap();
        assert!(!last.recovery);
        assert!(last.resident_inputs.is_empty());
        assert!(
            log.hints.iter().all(|h| !h.recovery),
            "no device-side replay was attempted"
        );
    }

    #[test]
    fn admission_gate_rejects_and_releases() {
        let mut r = DeviceRegistry::with_host_only();
        r.set_tenancy(TenancyPolicy {
            admission_window: 1,
            max_pending: 0,
            shed_watermark: 1.0,
            weights: Vec::new(),
        });
        let mut env = DataEnv::new();
        // Eager regions return their slot on every exit path, so a
        // window of one never blocks sequential submission.
        r.offload(&trivial_region(DeviceSelector::Default), &mut env)
            .unwrap();
        r.offload(&trivial_region(DeviceSelector::Default), &mut env)
            .unwrap();
        // A deferred region holds its slot until the taskwait drains it.
        let nw = TargetRegion::builder("nw")
            .nowait()
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        r.offload(&nw, &mut env).unwrap();
        let err = r.offload(&nw, &mut env).unwrap_err();
        assert_eq!(
            err,
            OmpError::Rejected {
                tenant: "default".into(),
                reason: crate::tenant::RejectReason::QuotaExceeded,
            }
        );
        r.taskwait(&mut env).unwrap();
        r.offload(&nw, &mut env).unwrap();
        r.taskwait(&mut env).unwrap();
        let gate = r.tenancy().unwrap();
        assert_eq!(gate.total_inflight(), 0);
        let stats = gate.stats();
        let s = &stats.iter().find(|(n, _)| n == "default").unwrap().1;
        assert_eq!(s.admitted, 4);
        assert_eq!(s.completed, 4);
        assert_eq!(s.rejected_quota, 1);
    }

    #[test]
    fn tenant_scoped_breaker_isolates_tenants() {
        let mut r = DeviceRegistry::new();
        let host = fake("host", DeviceKind::Host, true);
        r.register(Arc::clone(&host) as Arc<dyn Device>);
        r.register(Arc::new(FakeDevice {
            name: "cloud-0".into(),
            kind: DeviceKind::Cloud,
            available: true,
            degraded: false,
            supports_barrier: false,
            fail_midflight: None,
            tripped_for: Some("hog".into()),
            executions: Mutex::new(0),
        }) as Arc<dyn Device>);
        let mut env = DataEnv::new();
        let mk = |tenant: &str| {
            TargetRegion::builder("t")
                .device(DeviceSelector::Kind(DeviceKind::Cloud))
                .tenant(tenant)
                .parallel_for(1, |l| l.body(|_, _, _| {}))
                .build()
                .unwrap()
        };
        // The hog's breaker is open: its submissions fall back, and the
        // fallback is classified as breaker-caused.
        let p = r.offload(&mk("hog"), &mut env).unwrap();
        assert_eq!(p.fallback_reason, Some(FallbackReason::BreakerOpen));
        // Another tenant's view of the same device is untouched.
        let p = r.offload(&mk("bob"), &mut env).unwrap();
        assert_eq!(p.device, "cloud-0");
        assert!(p.fallback_from.is_none());
    }

    #[test]
    fn implicit_barrier_merges_drain_into_eager_profile() {
        let mut r = DeviceRegistry::with_host_only();
        let cloud = DataflowFake::new("cloud-0");
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        let stage1 = TargetRegion::builder("stage1")
            .device(DeviceSelector::Kind(DeviceKind::Cloud))
            .map_to("x")
            .map_from("t")
            .depend_out("t")
            .nowait()
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        let stage2 = TargetRegion::builder("stage2")
            .device(DeviceSelector::Kind(DeviceKind::Cloud))
            .map_to("t")
            .map_from("y")
            .depend_in("t")
            .depend_out("y")
            .nowait()
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        r.offload_nowait(stage1);
        r.offload_nowait(stage2);
        let mut env = DataEnv::new();
        let p = r
            .offload(
                &trivial_region(DeviceSelector::Kind(DeviceKind::Cloud)),
                &mut env,
            )
            .unwrap();
        assert_eq!(p.device, "cloud-0");
        assert_eq!(
            p.wire_bytes_from, 1,
            "the drained intermediate's download is accounted to the eager region"
        );
        assert!(p.notes.iter().any(|n| n.contains("implicit barrier")));
        let log = cloud.log.lock();
        assert_eq!(
            log.absorbed,
            vec![(2, 1, 0)],
            "the device absorbed the barrier report"
        );
    }

    #[test]
    fn breaker_opening_mid_taskwait_keeps_drain_counters_on_host_fallback() {
        let mut r = DeviceRegistry::new();
        let host = fake("host", DeviceKind::Host, true);
        r.register(Arc::clone(&host) as Arc<dyn Device>);
        let cloud = Arc::new(DataflowFake {
            fail_on_call: Some(1), // the consumer dies mid-taskwait
            ..DataflowFake::bare("cloud-0")
        });
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        r.offload_nowait(chain_region("producer", "y"));
        r.offload_nowait(chain_region("consumer", "y"));
        let mut env = DataEnv::new();
        // The eager region itself runs on the host — the shape that used
        // to drop the barrier's DagReport (and its drain counters) on
        // the floor.
        let eager = TargetRegion::builder("eager")
            .device(DeviceSelector::Kind(DeviceKind::Cloud))
            .offload_if(false)
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        let p = r.offload(&eager, &mut env).unwrap();
        assert!(p.device.starts_with("host"));
        assert_eq!(p.wire_bytes_from, 1, "the mid-DAG escape's bytes survive");
        assert!(p.notes.iter().any(|n| n.contains("1 stage fallback(s)")));
        assert_eq!(cloud.log.lock().absorbed, vec![(2, 1, 1)]);
    }
}
