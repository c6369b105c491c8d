//! The plug-in interface: what a device is, and what it reports.
//!
//! This mirrors the libomptarget architecture of the paper's Fig. 2: a
//! *target-agnostic wrapper* (the [`DeviceRegistry`](crate::DeviceRegistry),
//! `registry.rs`) detects devices, checks capabilities, and dispatches
//! the region to a *target-specific plug-in* — any [`Device`]
//! implementation, six entry points like libomptarget's handful. A device
//! that can keep buffers resident between the regions of a
//! `depend`/`nowait` DAG additionally hands out a [`DataflowDevice`]; the
//! DAG scheduler (`dag.rs`) talks to nothing else. The host device is
//! always device 0; the cloud plug-in lives in the `ompcloud` crate and
//! registers itself here.

use crate::clause::Construct;
use crate::env::DataEnv;
use crate::error::OmpError;
use crate::profile::{DataflowSummary, ExecProfile};
use crate::region::TargetRegion;

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
/// [`DataflowDevice`] along with a deferred region. Devices that keep
/// buffers resident (object-store keys, device memory) use these to skip
/// host round-trips. The default — what an eager region is dispatched
/// with — names nothing resident and nothing to keep.
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

/// What one [`DataflowDevice::materialize`] call moved back to the host.
/// The return value of that call, not a report: the DAG scheduler books
/// it onto its [`DagReport`].
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
    pub repairs: u32,
}

/// Result of draining the registry's region DAG at a `taskwait`.
#[derive(Debug, Default)]
pub struct DagReport {
    /// Execution profiles of the deferred regions, in schedule order.
    pub profiles: Vec<ExecProfile>,
    /// Buffers that escaped the DAG — materialized to the host at the
    /// drain (final sinks) or mid-DAG (host fallback, cross-device
    /// reads) — with the bytes/seconds those downloads cost. Its
    /// `repairs` stay zero: they are counted with every other repair, in
    /// `dataflow`.
    pub drain: MaterializeReport,
    /// Dataflow counters of the whole DAG, a sum: `profiles[*].dataflow`,
    /// the profiles of recovery replays (which appear nowhere else), the
    /// repairs made while materializing, and the stage fallbacks and
    /// lineage recomputes the scheduler decided.
    pub dataflow: DataflowSummary,
}

impl DagReport {
    /// Did any deferred region fall back to the host?
    pub fn any_fallback(&self) -> bool {
        self.profiles.iter().any(|p| p.fallback_from.is_some())
    }
}

/// Can a device take a tenant's region right now? The registry turns
/// anything but `Up` into a host fallback whose
/// [`FallbackReason`](crate::FallbackReason) says which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Availability {
    /// Reachable: the registry dispatches to it.
    Up,
    /// Unreachable (configuration, connection state): the fallback
    /// records a vanished endpoint.
    Down,
    /// Up, but closed to this tenant by the device itself — its circuit
    /// breaker opened after the tenant's consecutive failed offloads.
    /// The fallback records the breaker, not a vanished endpoint.
    BreakerOpen,
}

/// A target-specific offloading plug-in.
pub trait Device: Send + Sync {
    /// Unique human-readable name.
    fn name(&self) -> &str;

    /// What kind of device this is.
    fn kind(&self) -> DeviceKind;

    /// Can this device execute regions using `construct`?
    fn supports(&self, construct: Construct) -> bool;

    /// Execute the region against the environment, returning the timing
    /// profile. Called by the wrapper after capability checks pass.
    fn execute(&self, region: &TargetRegion, env: &mut DataEnv) -> Result<ExecProfile, OmpError>;

    /// Is the device reachable for `tenant`'s submissions? Cloud devices
    /// cannot be detected automatically (they are not physically
    /// attached), so this typically checks configuration/connection
    /// state. Multi-tenant devices keep fault state (circuit breakers)
    /// per tenant, so one tenant's open breaker must not make the device
    /// look down for everyone else.
    fn availability(&self, tenant: &str) -> Availability {
        let _ = tenant;
        Availability::Up
    }

    /// The device's dataflow capability, when it can keep buffers
    /// resident across DAG regions. `None`: the registry never passes it
    /// dataflow hints and never tracks residency for it.
    fn dataflow(&self) -> Option<&dyn DataflowDevice> {
        None
    }
}

/// What a device that keeps buffers resident between the regions of a
/// DAG offers the DAG scheduler.
pub trait DataflowDevice {
    /// Execute a region with dataflow hints. With
    /// `DataflowHints::default()` — an eager region: nothing resident,
    /// nothing to keep — this is [`Device::execute`].
    fn execute_dataflow(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
        hints: &DataflowHints,
    ) -> Result<ExecProfile, OmpError>;

    /// Download resident variables into the host environment: the newest
    /// version of a variable (`None` — a buffer escaping the DAG: final
    /// sink, host read, or a consumer about to run on the host), or the
    /// exact version an epoch produced (`Some(epoch)` — replaying a
    /// region on the host against the inputs it originally consumed).
    fn materialize(
        &self,
        reads: &[(String, Option<usize>)],
        env: &mut DataEnv,
    ) -> Result<MaterializeReport, OmpError>;

    /// Drop resident entries for the named variables — a host-side
    /// write superseded them, so consumers must re-source from the host.
    fn invalidate_resident(&self, vars: &[String]);

    /// Adopt host-environment copies of `vars` as this device's
    /// resident versions for DAG `dag` at `epoch`. Called after a stage
    /// fell back to the host, so downstream consumers can stay on the
    /// device instead of re-uploading. On a refusal the registry
    /// supersedes the variables.
    fn adopt_resident(
        &self,
        vars: &[String],
        env: &DataEnv,
        dag: &str,
        epoch: usize,
    ) -> Result<(), OmpError>;

    /// How many transitive producer re-executions the DAG scheduler may
    /// spend regenerating one lost resident buffer before containing
    /// the loss with a host regeneration instead (the `recovery-depth`
    /// knob of cloud devices).
    fn recovery_depth(&self) -> usize;

    /// A DAG window closed: release the lease on its resident keys and
    /// delete them. Called by the registry after every `taskwait`,
    /// success or failure.
    fn end_dataflow(&self, dag: &str);
}
