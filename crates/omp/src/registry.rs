//! The target-agnostic offloading wrapper: the device table, the
//! admission gate, and the one dispatch step every region — eager or
//! deferred — goes through on its way to a device or back to the host.

use crate::dag::{fuse, DagRun};
use crate::device::{Availability, DagReport, DataflowHints, Device, DeviceKind, DeviceSelector};
use crate::env::DataEnv;
use crate::error::OmpError;
use crate::profile::{ExecProfile, FallbackReason};
use crate::region::TargetRegion;
use crate::tenant::{AdmissionController, TenancyPolicy};
use parking_lot::Mutex;
use std::sync::Arc;

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
    /// implicit barrier), dispatch, and add the barrier's drain and
    /// dataflow counters to the returned profile — the barrier ran on
    /// this submission's behalf, so its work must not vanish with the
    /// local `DagReport`. They go nowhere else: the next DAG starts its
    /// report from zero.
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
        // The degenerate dispatch: nothing resident, nothing to keep,
        // nothing to bring home before a host run.
        let mut profile = self.dispatch(region, env, &DataflowHints::default(), &mut |_| Ok(()))?;
        if let Some(report) = barrier {
            profile.wire_bytes_from += report.drain.wire_bytes;
            profile.host_comm_s += report.drain.seconds;
            profile.dataflow += report.dataflow;
            profile.note(format!(
                "implicit barrier drained {} deferred region(s): \
                 {} variable(s) materialized, {} lineage recompute(s), {} stage fallback(s)",
                report.profiles.len(),
                report.drain.vars.len(),
                report.dataflow.lineage_recomputes,
                report.dataflow.stage_fallbacks
            ));
        }
        Ok(profile)
    }

    /// The one dispatch step: run `region` on its device, or fall back
    /// to the host. Capability check → `if(false)` host arm →
    /// tenant-scoped availability → execute → mid-flight classification
    /// → host fallback. An eager region and a DAG stage differ only in
    /// what they pass: `hints` (what is resident, what to keep — handed
    /// to a [`DataflowDevice`](crate::DataflowDevice), ignored
    /// otherwise) and `bring_home`, called once before any *host*
    /// execution so the DAG walk can first download the inputs the host
    /// environment holds stale. Fault state is tenant-scoped: the
    /// submission is judged against *its* tenant's breaker, not anyone
    /// else's.
    pub(crate) fn dispatch(
        &self,
        region: &TargetRegion,
        env: &mut DataEnv,
        hints: &DataflowHints,
        bring_home: &mut dyn FnMut(&mut DataEnv) -> Result<(), OmpError>,
    ) -> Result<ExecProfile, OmpError> {
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
        // `if(false)` regions run on the host, per the OpenMP standard.
        if !region.offload_if {
            bring_home(env)?;
            let host = self
                .host_device(tenant)
                .ok_or_else(|| OmpError::NoDevice("host (if-clause fallback)".into()))?;
            let mut profile = host.execute(region, env)?;
            profile.note("if(...) clause evaluated false; executed on the host");
            return Ok(profile);
        }
        // Dynamic fallback: run locally when the cloud cannot be reached.
        // A device that is unreachable *because its own breaker opened*
        // records the breaker, not a vanished endpoint.
        let (kind, why) = match device.availability(tenant) {
            Availability::Down => (FallbackReason::Unavailable, "unavailable".to_string()),
            Availability::BreakerOpen => (
                FallbackReason::BreakerOpen,
                "unavailable (circuit breaker open)".to_string(),
            ),
            Availability::Up => {
                let result = match device.dataflow() {
                    Some(dataflow) => dataflow.execute_dataflow(region, env, hints),
                    None => device.execute(region, env),
                };
                // Mid-flight degradation: a device that starts the region
                // but cannot finish it (storage outage, breaker tripping
                // open) reports `DeviceUnavailable`. The abort is clean —
                // target plug-ins only write host buffers in their final
                // write-back step — so the region re-executes on the host
                // from intact inputs. Any other error is a hard failure:
                // re-running a region that, say, panicked in user code
                // would hide a bug.
                match result {
                    Err(OmpError::DeviceUnavailable {
                        reason,
                        resume_exhausted,
                        ..
                    }) if device.kind() != DeviceKind::Host => {
                        // Distinguish "checkpoint resume was tried and its
                        // budget ran out" from an ordinary mid-flight abort.
                        let kind = match resume_exhausted {
                            true => FallbackReason::ResumeExhausted,
                            false => FallbackReason::MidFlight,
                        };
                        (kind, format!("failed mid-flight ({reason})"))
                    }
                    result => return result,
                }
            }
        };
        bring_home(env)?;
        self.host_fallback(region, env, device.as_ref(), kind, &why)
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
    /// deferred region in dependency order — a run of regions that can
    /// share one driver environment as one multi-loop region — let
    /// dependent regions consume each other's outputs device-resident,
    /// and materialize
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
        let groups = fuse(self, &regions);
        let mut participants: Vec<usize> = Vec::new();
        let result = DagRun::new(self, &groups, &dag_tag, &mut participants).run(env);
        // Success or failure, the DAG window is over: every
        // participating device releases its lease and deletes its
        // resident keys, so a failed chain leaks nothing.
        for &d in &participants {
            if let Some(dataflow) = self.devices.get(d).and_then(|dev| dev.dataflow()) {
                dataflow.end_dataflow(&dag_tag);
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

    /// The first host device that is up for `tenant` — where `if(false)`
    /// regions, fallbacks and the DAG's host replays run.
    pub(crate) fn host_device(&self, tenant: &str) -> Option<&Arc<dyn Device>> {
        self.devices
            .iter()
            .find(|d| d.kind() == DeviceKind::Host && d.availability(tenant) == Availability::Up)
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
        let host = self.host_device(region.tenant.as_str()).ok_or_else(|| {
            OmpError::DeviceUnavailable {
                device: device.name().to_string(),
                reason: format!("device {why} and no host device registered for fallback"),
                resume_exhausted: false,
            }
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::clause::Construct;
    use crate::device::{DataflowDevice, MaterializeReport};
    use crate::profile::DataflowSummary;

    /// Minimal fake device for wrapper tests.
    pub(crate) struct FakeDevice {
        name: String,
        kind: DeviceKind,
        /// What the device answers every tenant but `tripped_for`.
        availability: Availability,
        /// When set, `execute` fails with `DeviceUnavailable` carrying
        /// this reason — models a device that accepts the region but
        /// degrades mid-flight.
        fail_midflight: Option<String>,
        /// Whether that failure says the resume budget ran out.
        resume_exhausted: bool,
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
        fn supports(&self, c: Construct) -> bool {
            c != Construct::Barrier || self.kind == DeviceKind::Host
        }
        fn availability(&self, tenant: &str) -> Availability {
            if self.tripped_for.as_deref() == Some(tenant) {
                Availability::BreakerOpen
            } else {
                self.availability
            }
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
                    resume_exhausted: self.resume_exhausted,
                });
            }
            Ok(ExecProfile::new(self.name.clone()))
        }
    }

    fn bare(name: &str, kind: DeviceKind) -> FakeDevice {
        FakeDevice {
            name: name.into(),
            kind,
            availability: Availability::Up,
            fail_midflight: None,
            resume_exhausted: false,
            tripped_for: None,
            executions: Mutex::new(0),
        }
    }

    pub(crate) fn fake(name: &str, kind: DeviceKind) -> Arc<FakeDevice> {
        Arc::new(bare(name, kind))
    }

    fn trivial_region(selector: DeviceSelector) -> TargetRegion {
        TargetRegion::builder("t")
            .device(selector)
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap()
    }

    const CLOUD: DeviceSelector = DeviceSelector::Kind(DeviceKind::Cloud);

    #[test]
    fn registry_counts_devices() {
        let mut r = DeviceRegistry::with_host_only();
        assert_eq!(r.num_devices(), 1);
        r.register(fake("cloud-0", DeviceKind::Cloud));
        assert_eq!(r.num_devices(), 2);
    }

    #[test]
    fn resolve_by_kind_finds_cloud() {
        let mut r = DeviceRegistry::with_host_only();
        r.register(fake("cloud-0", DeviceKind::Cloud));
        let (id, d) = r.resolve(CLOUD).unwrap();
        assert_eq!(id, 1);
        assert_eq!(d.name(), "cloud-0");
    }

    #[test]
    fn resolve_missing_kind_errors() {
        let r = DeviceRegistry::with_host_only();
        assert!(matches!(r.resolve(CLOUD), Err(OmpError::NoDevice(_))));
    }

    #[test]
    fn set_default_validates_id() {
        let mut r = DeviceRegistry::with_host_only();
        assert!(r.set_default(0).is_ok());
        assert!(r.set_default(5).is_err());
    }

    /// What one dispatch is expected to leave behind.
    #[derive(Debug, PartialEq)]
    struct Ran {
        /// `(device, fallback_from, fallback_reason)` of the profile, or
        /// the error.
        outcome: Result<(String, Option<String>, Option<FallbackReason>), OmpError>,
        cloud_runs: usize,
        host_runs: usize,
    }

    /// One row of the parity table: a cloud fake, a region aimed at it,
    /// and what dispatching the one at the other must produce — on both
    /// paths.
    struct Row {
        outcome: &'static str,
        cloud: FakeDevice,
        region: fn() -> crate::region::TargetRegionBuilder,
        want: Ran,
        /// Substrings the profile's notes must carry.
        notes: &'static [&'static str],
    }

    fn on_host(from: &str, why: FallbackReason, cloud_runs: usize) -> Ran {
        Ran {
            outcome: Ok(("host".into(), Some(from.into()), Some(why))),
            cloud_runs,
            host_runs: 1,
        }
    }

    fn parity_table() -> Vec<Row> {
        let region = || TargetRegion::builder("t").device(CLOUD);
        let cloud = || bare("cloud-0", DeviceKind::Cloud);
        vec![
            Row {
                outcome: "runs on the device",
                cloud: cloud(),
                region,
                want: Ran {
                    outcome: Ok(("cloud-0".into(), None, None)),
                    cloud_runs: 1,
                    host_runs: 0,
                },
                notes: &[],
            },
            Row {
                outcome: "if(false)",
                cloud: cloud(),
                region: || TargetRegion::builder("t").device(CLOUD).offload_if(false),
                want: Ran {
                    outcome: Ok(("host".into(), None, None)),
                    cloud_runs: 0,
                    host_runs: 1,
                },
                notes: &["if(...)"],
            },
            Row {
                outcome: "device down",
                cloud: FakeDevice {
                    availability: Availability::Down,
                    ..cloud()
                },
                region,
                want: on_host("cloud-0", FallbackReason::Unavailable, 0),
                notes: &["performed locally"],
            },
            Row {
                outcome: "breaker open for the submitting tenant",
                cloud: FakeDevice {
                    tripped_for: Some("hog".into()),
                    ..cloud()
                },
                region: || TargetRegion::builder("t").device(CLOUD).tenant("hog"),
                want: on_host("cloud-0", FallbackReason::BreakerOpen, 0),
                notes: &["circuit breaker open"],
            },
            Row {
                outcome: "breaker open for another tenant only",
                cloud: FakeDevice {
                    tripped_for: Some("hog".into()),
                    ..cloud()
                },
                region: || TargetRegion::builder("t").device(CLOUD).tenant("bob"),
                want: Ran {
                    outcome: Ok(("cloud-0".into(), None, None)),
                    cloud_runs: 1,
                    host_runs: 0,
                },
                notes: &[],
            },
            Row {
                outcome: "mid-flight DeviceUnavailable",
                cloud: FakeDevice {
                    fail_midflight: Some("storage endpoint lost".into()),
                    ..cloud()
                },
                region,
                want: on_host("cloud-0", FallbackReason::MidFlight, 1),
                notes: &["failed mid-flight", "storage endpoint lost"],
            },
            Row {
                outcome: "mid-flight with the resume budget exhausted",
                cloud: FakeDevice {
                    fail_midflight: Some("data unavailable".into()),
                    resume_exhausted: true,
                    ..cloud()
                },
                region,
                want: on_host("cloud-0", FallbackReason::ResumeExhausted, 1),
                notes: &["failed mid-flight"],
            },
            Row {
                outcome: "unsupported construct",
                cloud: cloud(),
                region: || {
                    TargetRegion::builder("t")
                        .device(CLOUD)
                        .uses(Construct::Barrier)
                },
                want: Ran {
                    outcome: Err(OmpError::UnsupportedConstruct {
                        device: "cloud-0".into(),
                        construct: Construct::Barrier,
                    }),
                    cloud_runs: 0,
                    host_runs: 0,
                },
                notes: &[],
            },
        ]
    }

    /// Eager and deferred regions share the dispatch step: for every
    /// outcome it can have, the same region run eagerly and as `nowait`
    /// followed by `taskwait` lands on the same device, with the same
    /// fallback record, the same executions and the same error.
    #[test]
    fn eager_and_deferred_dispatch_agree_on_every_outcome() {
        for deferred in [false, true] {
            for row in parity_table() {
                let path = if deferred { "deferred" } else { "eager" };
                let ctx = format!("{} ({path})", row.outcome);
                let mut r = DeviceRegistry::new();
                let host = fake("host", DeviceKind::Host);
                let cloud = Arc::new(row.cloud);
                r.register(Arc::clone(&host) as Arc<dyn Device>);
                r.register(Arc::clone(&cloud) as Arc<dyn Device>);
                let mut builder = (row.region)().parallel_for(1, |l| l.body(|_, _, _| {}));
                if deferred {
                    builder = builder.nowait();
                }
                let region = builder.build().unwrap();
                let mut env = DataEnv::new();
                let profile = if deferred {
                    assert_eq!(r.offload(&region, &mut env).unwrap().device, "deferred");
                    assert_eq!(*cloud.executions.lock(), 0, "{ctx}: ran before taskwait");
                    r.taskwait(&mut env).map(|mut report| {
                        assert_eq!(report.profiles.len(), 1, "{ctx}");
                        let profile = report.profiles.remove(0);
                        // Only a DAG stage that fell back counts one.
                        assert_eq!(
                            report.dataflow.stage_fallbacks,
                            u32::from(profile.fallback_from.is_some()),
                            "{ctx}"
                        );
                        profile
                    })
                } else {
                    r.offload(&region, &mut env)
                };
                for want in row.notes {
                    let notes = &profile.as_ref().unwrap().notes;
                    assert!(notes.iter().any(|n| n.contains(want)), "{ctx}: {notes:?}");
                }
                let got = Ran {
                    outcome: profile.map(|p| (p.device, p.fallback_from, p.fallback_reason)),
                    cloud_runs: *cloud.executions.lock(),
                    host_runs: *host.executions.lock(),
                };
                assert_eq!(got, row.want, "{ctx}");
            }
        }
    }

    #[test]
    fn midflight_failure_on_host_itself_is_terminal() {
        let mut r = DeviceRegistry::new();
        r.register(Arc::new(FakeDevice {
            fail_midflight: Some("storage endpoint lost".into()),
            ..bare("host", DeviceKind::Host)
        }));
        let mut env = DataEnv::new();
        assert!(matches!(
            r.offload(
                &trivial_region(DeviceSelector::Kind(DeviceKind::Host)),
                &mut env,
            ),
            Err(OmpError::DeviceUnavailable { .. })
        ));
    }

    /// Records every dataflow interaction so the tests can assert the
    /// registry's DAG bookkeeping without a real resident store. Its
    /// profiles count one resident hit per hinted input and one elided
    /// download per kept output, like a real device's.
    #[derive(Default)]
    pub(crate) struct DataflowLog {
        pub hints: Vec<DataflowHints>,
        pub materialized: Vec<Vec<(String, Option<usize>)>>,
        pub adopted: Vec<(Vec<String>, usize)>,
        pub invalidated: Vec<String>,
        pub ended: Vec<String>,
    }

    pub(crate) struct DataflowFake {
        pub name: String,
        pub log: Mutex<DataflowLog>,
        pub fail_on_call: Option<usize>,
        pub calls: Mutex<usize>,
        /// One-shot fault: the Nth `execute_dataflow` call fails with
        /// `ResidentLoss` for this variable, then the fault clears —
        /// models a resident key lost between two stages.
        pub lose_resident_on_call: Mutex<Option<(usize, String)>>,
        pub depth: usize,
        pub adopt_ok: bool,
    }

    impl DataflowFake {
        pub(crate) fn bare(name: &str) -> DataflowFake {
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

        pub(crate) fn new(name: &str) -> Arc<DataflowFake> {
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
            region: &TargetRegion,
            env: &mut DataEnv,
        ) -> Result<ExecProfile, OmpError> {
            self.execute_dataflow(region, env, &DataflowHints::default())
        }
        fn dataflow(&self) -> Option<&dyn DataflowDevice> {
            Some(self)
        }
    }

    impl DataflowDevice for DataflowFake {
        fn execute_dataflow(
            &self,
            _region: &TargetRegion,
            _env: &mut DataEnv,
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
                    resume_exhausted: false,
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
            let mut profile = ExecProfile::new(self.name.clone());
            profile.dataflow.resident_hits = hints.resident_inputs.len() as u32;
            profile.dataflow.elided_downloads = hints.keep_resident.len() as u32;
            Ok(profile)
        }
        fn materialize(
            &self,
            reads: &[(String, Option<usize>)],
            _env: &mut DataEnv,
        ) -> Result<MaterializeReport, OmpError> {
            self.log.lock().materialized.push(reads.to_vec());
            Ok(MaterializeReport {
                vars: reads.iter().map(|(v, _)| v.clone()).collect(),
                wire_bytes: reads.len() as u64,
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
    }

    pub(crate) fn chain_region(name: &str, var: &str) -> TargetRegion {
        TargetRegion::builder(name)
            .device(CLOUD)
            .map_tofrom(var)
            .depend_inout(var)
            .nowait()
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap()
    }

    /// The first writer of `var` (`map(from:)`, `depend(out:)`). Its
    /// hand-off to a [`chain_region`] is `from` → `tofrom`, which does
    /// not fuse: the pair runs as two groups.
    pub(crate) fn producer_region(name: &str, var: &str) -> TargetRegion {
        TargetRegion::builder(name)
            .device(CLOUD)
            .map_from(var)
            .depend_out(var)
            .nowait()
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap()
    }

    /// Stage `s` of a relay chain: reads `y{s}`, writes a fresh `y{s+1}`.
    /// Its hand-off is `map(from:)` → `map(to:)`, so no two stages fuse.
    pub(crate) fn relay_region(stage: usize) -> TargetRegion {
        let (read, write) = (format!("y{stage}"), format!("y{}", stage + 1));
        TargetRegion::builder(format!("relay-{stage}"))
            .device(CLOUD)
            .map_to(read.clone())
            .map_from(write.clone())
            .depend_in(read)
            .depend_out(write)
            .nowait()
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap()
    }

    /// `stage1` produces `t` from `x`; `stage2` consumes it into `y`.
    /// `t` is never superseded, so it comes home at the drain.
    pub(crate) fn two_stage_pipeline() -> [TargetRegion; 2] {
        let stage1 = TargetRegion::builder("stage1")
            .device(CLOUD)
            .map_to("x")
            .map_from("t")
            .depend_out("t");
        let stage2 = TargetRegion::builder("stage2")
            .device(CLOUD)
            .map_to("t")
            .map_from("y")
            .depend_in("t")
            .depend_out("y");
        [stage1, stage2].map(|b| {
            b.nowait()
                .parallel_for(1, |l| l.body(|_, _, _| {}))
                .build()
                .unwrap()
        })
    }

    #[test]
    fn nowait_regions_defer_until_taskwait() {
        let mut r = DeviceRegistry::with_host_only();
        let cloud = fake("cloud-0", DeviceKind::Cloud);
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
    fn implicit_barrier_adds_the_drained_dag_to_the_eager_profile() {
        let mut r = DeviceRegistry::with_host_only();
        let cloud = DataflowFake::new("cloud-0");
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        for stage in two_stage_pipeline() {
            r.offload_nowait(stage);
        }
        let mut env = DataEnv::new();
        let p = r.offload(&trivial_region(CLOUD), &mut env).unwrap();
        assert_eq!(p.device, "cloud-0");
        assert_eq!(
            p.wire_bytes_from, 1,
            "the drained intermediate's download is accounted to the eager region"
        );
        assert_eq!(
            p.dataflow,
            DataflowSummary {
                resident_hits: 1,
                elided_downloads: 1,
                ..DataflowSummary::default()
            },
            "the barrier's counters ride on the eager profile"
        );
        assert!(p.notes.iter().any(|n| n.contains("implicit barrier")));
        // The eager region itself was dispatched with nothing resident
        // and nothing to keep.
        let log = cloud.log.lock();
        let eager = log.hints.last().unwrap();
        assert!(eager.dag.is_none() && eager.keep_resident.is_empty());
        drop(log);
        // …and the barrier's counters went nowhere else: the next DAG
        // reports only itself.
        r.offload_nowait(chain_region("next", "y"));
        let next = r.taskwait(&mut env).unwrap();
        assert_eq!(next.dataflow, DataflowSummary::default());
    }

    #[test]
    fn breaker_opening_mid_taskwait_keeps_drain_counters_on_host_fallback() {
        let mut r = DeviceRegistry::new();
        r.register(fake("host", DeviceKind::Host));
        let cloud = Arc::new(DataflowFake {
            fail_on_call: Some(1), // the consumer dies mid-taskwait
            ..DataflowFake::bare("cloud-0")
        });
        r.register(Arc::clone(&cloud) as Arc<dyn Device>);
        r.offload_nowait(producer_region("producer", "y"));
        r.offload_nowait(chain_region("consumer", "y"));
        let mut env = DataEnv::new();
        // The eager region itself runs on the host — the shape that used
        // to drop the barrier's DagReport (and its drain counters) on
        // the floor.
        let eager = TargetRegion::builder("eager")
            .device(CLOUD)
            .offload_if(false)
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        let p = r.offload(&eager, &mut env).unwrap();
        assert!(p.device.starts_with("host"));
        assert_eq!(p.wire_bytes_from, 1, "the mid-DAG escape's bytes survive");
        assert!(p.notes.iter().any(|n| n.contains("1 stage fallback(s)")));
        assert_eq!(p.dataflow.stage_fallbacks, 1);
    }
}
