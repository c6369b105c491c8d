//! The differential runner: execute one [`CaseSpec`] on both legs and
//! collect everything the oracle needs.
//!
//! The cloud leg builds a fresh local-sim `S3Store` (optionally wrapped
//! in a [`LatencyStore`] and a [`ChaosStore`]) and drives the region
//! through `CloudRuntime`; the host leg re-builds the *same* region and
//! data and runs them on the sequential host device. Mapped-from
//! variables must come back bitwise identical — the generator only
//! draws programs whose results are order-independent (disjoint indexed
//! writes, bitwise-OR merges, and exact-lattice reductions), so any
//! byte of divergence is a real merge/transfer/scheduling bug, not
//! floating-point noise. Kernel cases are additionally diffed against
//! the handwritten sequential references with a small tolerance.

use crate::gen::{CaseKind, CaseSpec, ResidentFaultFlavor};
use crate::oracle;
use cloud_storage::{ChaosStats, ChaosStore, LatencyStore, ObjectStore, S3Store, StoreHandle};
use omp_model::{
    DagReport, DataEnv, DeviceRegistry, DeviceSelector, ExecProfile, PartitionSpec, TargetRegion,
};
use ompcloud::{CloudDevice, CloudRuntime, OffloadReport, ResidentFault, ResidentFaultKind};
use ompcloud_kernels as kernels;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Tolerance for the kernel-vs-sequential-reference comparison. The
/// strict check is cloud-vs-host bitwise equality; this one only guards
/// against both legs agreeing on a *wrong* answer.
const HOST_ORACLE_TOL: f32 = 1e-1;

/// Did the case pass?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every check held.
    Pass,
    /// At least one check failed (see [`CaseOutcome::failures`]).
    Fail,
}

/// Everything one case execution produced.
#[derive(Debug)]
pub struct CaseOutcome {
    /// The case that ran.
    pub spec: CaseSpec,
    /// Human-readable descriptions of every failed check (empty = pass).
    pub failures: Vec<String>,
    /// The cloud leg fell back to the host mid-flight.
    pub fell_back: bool,
    /// The chaos store's kill latch was tripped.
    pub killed: bool,
    /// Faults the chaos store actually injected, when chaos was on.
    pub chaos: Option<ChaosStats>,
}

impl CaseOutcome {
    /// Overall verdict.
    pub fn verdict(&self) -> Verdict {
        if self.failures.is_empty() {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }
}

/// Execute `spec` on both legs and run every oracle over the results.
pub fn run_case(spec: &CaseSpec) -> CaseOutcome {
    let mut failures = Vec::new();

    // --- Cloud leg -------------------------------------------------
    let base = Arc::new(S3Store::standalone("conformance"));
    let mut handle: StoreHandle = base.clone();
    if spec.latency_us > 0 {
        handle = Arc::new(LatencyStore::new(
            handle,
            Duration::from_micros(spec.latency_us),
        ));
    }
    let chaos_store = spec.fault_plan().map(|plan| {
        let cs = Arc::new(ChaosStore::new(handle.clone(), plan));
        handle = cs.clone();
        cs
    });

    let runtime = CloudRuntime::with_device(CloudDevice::with_store(spec.config(), handle));
    if let Some(rf) = &spec.resident_fault {
        // Arm the device-side half of the fault: Rot damages the driver
        // copy in place (the durable key repairs it); Expire drops the
        // driver entry and lets the store plan above delete the durable
        // key under the reinstating fetch.
        runtime.cloud().inject_resident_fault(ResidentFault {
            var: "y".into(),
            after_epoch: rf.stage,
            kind: match rf.flavor {
                ResidentFaultFlavor::Rot => ResidentFaultKind::CorruptDriver,
                ResidentFaultFlavor::Expire => ResidentFaultKind::DropDriver,
            },
        });
    }
    let mut cloud_env = spec.build_env();
    let mut dag_report: Option<DagReport> = None;
    let cloud_profile: Option<ExecProfile> = if spec.chain > 1 {
        // Chained leg: queue the whole depend/nowait DAG, then drain it
        // with one taskwait. The oracle audits the DagReport.
        let regions = spec.build_chain_regions(CloudRuntime::cloud_selector(), true);
        match catch_unwind(AssertUnwindSafe(|| {
            for r in regions {
                runtime.offload_nowait(r);
            }
            runtime.taskwait(&mut cloud_env)
        })) {
            Ok(Ok(dag)) => {
                let last = dag.profiles.last().cloned();
                dag_report = Some(dag);
                last
            }
            Ok(Err(e)) => {
                failures.push(format!("cloud leg failed outright: {e}"));
                None
            }
            Err(_) => {
                failures.push("cloud leg panicked".to_string());
                None
            }
        }
    } else {
        let cloud_region = spec.build_region(CloudRuntime::cloud_selector());
        match catch_unwind(AssertUnwindSafe(|| {
            runtime.offload(&cloud_region, &mut cloud_env)
        })) {
            Ok(Ok(profile)) => Some(profile),
            Ok(Err(e)) => {
                failures.push(format!("cloud leg failed outright: {e}"));
                None
            }
            Err(_) => {
                failures.push("cloud leg panicked".to_string());
                None
            }
        }
    };
    let fell_back = dag_report
        .as_ref()
        .map(|d| d.profiles.iter().any(|p| p.fallback_from.is_some()))
        .unwrap_or_else(|| {
            cloud_profile
                .as_ref()
                .is_some_and(|p| p.fallback_from.is_some())
        });
    let report: Option<OffloadReport> = runtime.cloud().last_report();
    let jobs = runtime.cloud().job_metrics();
    runtime.shutdown();

    let killed = chaos_store.as_ref().is_some_and(|cs| cs.is_killed());
    let chaos_stats = chaos_store.as_ref().map(|cs| cs.stats());
    // Revive a killed store so the leftover listing below sees reality.
    if let Some(cs) = &chaos_store {
        cs.revive();
    }
    let leftovers: Vec<String> = base
        .list("")
        .into_iter()
        .filter(|k| k.contains("/_tmp/") || k.contains("journal/") || k.contains("/dataflow/"))
        .collect();

    // --- Host leg --------------------------------------------------
    let host_registry = DeviceRegistry::with_host_only();
    let mut host_env = spec.build_env();
    for host_region in spec.build_chain_regions(DeviceSelector::Default, false) {
        if let Err(e) = host_registry.offload(&host_region, &mut host_env) {
            failures.push(format!("host leg failed: {e}"));
            break;
        }
    }

    // --- Differential check ----------------------------------------
    if cloud_profile.is_some() {
        for name in spec.output_names() {
            match (cloud_env.get_erased(&name), host_env.get_erased(&name)) {
                (Ok(c), Ok(h)) => {
                    if c.to_bytes() != h.to_bytes() {
                        failures.push(format!(
                            "output '{name}' diverged between cloud and host legs"
                        ));
                    }
                }
                _ => failures.push(format!("output '{name}' missing from an execution leg")),
            }
        }
    }

    // --- Sequential-reference oracle (kernel cases) -----------------
    if let CaseKind::Kernel { id, .. } = &spec.kind {
        let mut oracle_env = spec.build_env();
        kernels::run_host(*id, spec.n, &mut oracle_env);
        for name in spec.output_names() {
            match (host_env.get::<f32>(&name), oracle_env.get::<f32>(&name)) {
                (Ok(h), Ok(o)) => {
                    let diff = kernels::max_abs_diff(h, o);
                    if diff > HOST_ORACLE_TOL {
                        failures.push(format!(
                            "kernel {} output '{name}' off the sequential reference by {diff}",
                            id.name()
                        ));
                    }
                }
                // Non-f32 outputs (collinear's u32 count) must be exact.
                _ => {
                    let h = host_env.get_erased(&name).map(|v| v.to_bytes());
                    let o = oracle_env.get_erased(&name).map(|v| v.to_bytes());
                    if h.ok() != o.ok() {
                        failures.push(format!(
                            "kernel {} output '{name}' differs from the sequential reference",
                            id.name()
                        ));
                    }
                }
            }
        }
    }

    // --- Tenancy leg ------------------------------------------------
    if spec.tenancy.is_some() {
        failures.extend(run_tenancy_leg(spec, &host_env));
    }

    // --- Map-elision / delta leg ------------------------------------
    if spec.map_elide.is_some() {
        failures.extend(run_map_elide_leg(spec));
    }

    // --- Invariant oracles ------------------------------------------
    failures.extend(oracle::check(&oracle::OracleInput {
        spec,
        profile: cloud_profile.as_ref(),
        report: report.as_ref(),
        jobs: &jobs,
        dag: dag_report.as_ref(),
        fell_back,
        killed,
        chaos: chaos_stats,
        leftovers: &leftovers,
    }));

    CaseOutcome {
        spec: spec.clone(),
        failures,
        fell_back,
        killed,
        chaos: chaos_stats,
    }
}

/// The hog's throwaway region: distinct variable names (`hogx`/`hogy`)
/// keep the scoped fault plan off the bystander's staged objects.
fn hog_region(round: usize) -> TargetRegion {
    TargetRegion::builder(format!("hog-{round}"))
        .device(CloudRuntime::cloud_selector())
        .tenant("hog")
        .map_to("hogx")
        .map_from("hogy")
        .parallel_for(8, |l| {
            l.partition("hogy", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let x = ins.view::<f32>("hogx");
                    outs.view_mut::<f32>("hogy")[i] = 2.0 * x[i];
                })
        })
        .build()
        .expect("hog region must validate")
}

/// The tenancy leg: hammer a "hog" tenant with a scoped fault plan on a
/// fresh device, then run the case's own region as tenant "bob" on the
/// same device. The hog's streak must stay the hog's problem — see
/// [`oracle::check_tenancy`] for the breaker laws; the bitwise check
/// against the host leg happens here.
fn run_tenancy_leg(spec: &CaseSpec, host_env: &DataEnv) -> Vec<String> {
    let tn = spec.tenancy.expect("caller checked");
    let mut failures = Vec::new();

    // The generated config, hardened for the leg: a hair-trigger
    // breaker (two strikes), no retry ladder, no checkpoint resumes —
    // every hog round is exactly one deterministic breaker strike.
    let mut config = spec.config();
    config.breaker_threshold = 2;
    config.max_retries = 0;
    config.backoff_base_ms = 0;
    config.backoff_cap_ms = 0;
    config.checkpoint = false;
    config.checkpoint_max_resumes = 0;

    let plan = spec.hog_fault_plan().expect("tenancy cases carry a plan");
    let chaos = Arc::new(ChaosStore::new(
        Arc::new(S3Store::standalone("conformance-tenant")),
        plan,
    ));
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(config, chaos.clone() as _));

    let mut hog_env = DataEnv::new();
    hog_env.insert("hogx", (0..8).map(|i| i as f32).collect::<Vec<f32>>());
    hog_env.insert("hogy", vec![0.0f32; 8]);
    let mut hog_fallbacks = 0usize;
    for round in 0..tn.hog_rounds {
        match runtime.offload(&hog_region(round), &mut hog_env) {
            Ok(p) if p.fallback_from.is_some() => hog_fallbacks += 1,
            Ok(_) => {}
            Err(e) => failures.push(format!("tenancy leg: hog round {round} errored: {e}")),
        }
    }

    let mut bob_region = spec.build_region(CloudRuntime::cloud_selector());
    bob_region.tenant = "bob".into();
    let mut bob_env = spec.build_env();
    let bob_profile = match catch_unwind(AssertUnwindSafe(|| {
        runtime.offload(&bob_region, &mut bob_env)
    })) {
        Ok(Ok(profile)) => profile,
        Ok(Err(e)) => {
            failures.push(format!("tenancy leg: bystander failed outright: {e}"));
            runtime.shutdown();
            return failures;
        }
        Err(_) => {
            failures.push("tenancy leg: bystander panicked".to_string());
            runtime.shutdown();
            return failures;
        }
    };

    let bob_report = runtime.cloud().last_report();
    failures.extend(oracle::check_tenancy(&oracle::TenancyObservation {
        hog_rounds: tn.hog_rounds,
        hog_fallbacks,
        injected: chaos.stats().unavailable,
        hog_breaker_open: runtime.cloud().breaker_open_for("hog"),
        bob_breaker_open: runtime.cloud().breaker_open_for("bob"),
        bob_profile: &bob_profile,
        bob_report: bob_report.as_ref(),
    }));
    runtime.shutdown();

    // The bystander's outputs must match the host leg bit for bit —
    // co-tenant chaos is invisible to bob's data, not just his timing.
    for name in spec.output_names() {
        match (bob_env.get_erased(&name), host_env.get_erased(&name)) {
            (Ok(b), Ok(h)) => {
                if b.to_bytes() != h.to_bytes() {
                    failures.push(format!(
                        "tenancy leg: bystander output '{name}' diverged from the host leg"
                    ));
                }
            }
            _ => failures.push(format!(
                "tenancy leg: output '{name}' missing from an execution leg"
            )),
        }
    }
    failures
}

/// The map-elision leg: re-run the case's region on a fresh device with
/// the transfer optimizer armed (and, for delta cases, dirty-tile
/// transfers with the spec's tile size), bit-flipping one element of
/// `x0` between rounds identically on both legs. Every round must stay
/// bitwise identical to the host, and the published [`MapPlan`]s must
/// satisfy the exact byte-conservation laws of
/// [`oracle::check_map_elision`].
///
/// [`MapPlan`]: ompcloud::MapPlan
fn run_map_elide_leg(spec: &CaseSpec) -> Vec<String> {
    let me = spec.map_elide.expect("caller checked");
    let mut failures = Vec::new();

    // The generated config with every knob that could blur the byte
    // laws pinned off: no upload cache (a cache hit would mask a delta
    // round), no checkpoint resumes.
    let mut config = spec.config();
    config.data_caching = false;
    config.checkpoint = false;
    config.checkpoint_max_resumes = 0;
    if me.rounds > 0 {
        config.delta_transfers = true;
        config.delta_tile_bytes = me.tile_bytes;
    }

    let runtime = CloudRuntime::with_device(CloudDevice::with_store(
        config,
        Arc::new(S3Store::standalone("conformance-mapopt")),
    ));
    let host = DeviceRegistry::with_host_only();
    let region = spec.build_region(CloudRuntime::cloud_selector());
    let host_region = spec.build_region(DeviceSelector::Default);
    let mut cloud_env = spec.build_env();
    let mut host_env = spec.build_env();

    let mut rounds = Vec::new();
    for r in 0..me.rounds.max(1) {
        let dirty_elem = (r > 0).then(|| r * 11 % spec.n);
        if let Some(elem) = dirty_elem {
            // Flip one mantissa bit of x0[elem] on both legs: the byte
            // pattern is guaranteed to change, the value stays finite.
            for env in [&mut cloud_env, &mut host_env] {
                let mut v = env.get::<f32>("x0").expect("x0 exists").to_vec();
                v[elem] = f32::from_bits(v[elem].to_bits() ^ 1);
                env.insert("x0", v);
            }
        }
        let profile = match runtime.offload(&region, &mut cloud_env) {
            Ok(p) => p,
            Err(e) => {
                failures.push(format!("map-elide leg: cloud round {r} errored: {e}"));
                break;
            }
        };
        if let Err(e) = host.offload(&host_region, &mut host_env) {
            failures.push(format!("map-elide leg: host round {r} errored: {e}"));
            break;
        }
        for name in spec.output_names() {
            match (cloud_env.get_erased(&name), host_env.get_erased(&name)) {
                (Ok(c), Ok(h)) => {
                    if c.to_bytes() != h.to_bytes() {
                        failures.push(format!(
                            "map-elide leg: output '{name}' diverged from the host on round {r}"
                        ));
                    }
                }
                _ => failures.push(format!(
                    "map-elide leg: output '{name}' missing from a leg on round {r}"
                )),
            }
        }
        match runtime.cloud().last_report() {
            Some(report) => rounds.push(oracle::MapElideRound {
                plan: report.map_plan,
                bytes_to_device: profile.bytes_to_device,
                bytes_from_device: profile.bytes_from_device,
                dirty_elem,
            }),
            None => failures.push(format!("map-elide leg: round {r} published no report")),
        }
    }
    runtime.shutdown();
    failures.extend(oracle::check_map_elision(spec, &rounds));
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::CaseSpec;

    #[test]
    fn a_trivial_clean_case_passes() {
        // Find an early chaos-free synthetic case and run it end to end.
        let spec = (0..64)
            .map(|c| CaseSpec::generate(1, c))
            .find(|s| s.chaos.is_none() && s.latency_us == 0)
            .expect("a clean case in 64 draws");
        let out = run_case(&spec);
        assert_eq!(out.verdict(), Verdict::Pass, "failures: {:?}", out.failures);
        assert!(!out.fell_back);
    }

    /// A clean chained case passes every law — in particular the
    /// residency byte-conservation and counter laws, and the bitwise
    /// host-vs-cloud equality across resident-key reuse.
    #[test]
    fn a_clean_chained_case_elides_every_hand_off() {
        let spec = (0..400)
            .map(|c| CaseSpec::generate(3, c))
            .find(|s| s.chain > 1 && s.chaos.is_none() && s.latency_us == 0)
            .expect("a clean chained case in 400 draws");
        let out = run_case(&spec);
        assert_eq!(out.verdict(), Verdict::Pass, "failures: {:?}", out.failures);
        assert!(!out.fell_back);
    }

    /// Resident-fault cases recover in place: bitwise-correct outputs,
    /// no fallback, and the recovery laws of the oracle all hold.
    #[test]
    fn resident_fault_cases_recover_without_falling_back() {
        for flavor in [ResidentFaultFlavor::Rot, ResidentFaultFlavor::Expire] {
            let spec = (0..2000)
                .map(|c| CaseSpec::generate(7, c))
                .find(|s| {
                    s.resident_fault
                        .as_ref()
                        .is_some_and(|r| r.flavor == flavor)
                })
                .unwrap_or_else(|| panic!("no {flavor:?} case in 2000 draws"));
            let out = run_case(&spec);
            assert_eq!(
                out.verdict(),
                Verdict::Pass,
                "{flavor:?} ({}): {:?}",
                spec.summary(),
                out.failures
            );
            assert!(!out.fell_back, "{flavor:?} case fell back to the host");
        }
    }

    /// Co-tenant cases pass: the hog's hammering opens only the hog's
    /// breaker and the bystander re-run stays bitwise-identical.
    #[test]
    fn a_tenancy_case_isolates_the_bystander() {
        let spec = (0..200)
            .map(|c| CaseSpec::generate(2, c))
            .find(|s| s.tenancy.is_some() && s.chaos.is_none() && s.latency_us == 0)
            .expect("a clean tenancy case in 200 draws");
        let out = run_case(&spec);
        assert_eq!(
            out.verdict(),
            Verdict::Pass,
            "{}: {:?}",
            spec.summary(),
            out.failures
        );
    }

    /// Map-elide cases pass: delta rounds and elisions conserve bytes
    /// exactly and every round stays bitwise identical to the host.
    #[test]
    fn map_elide_cases_conserve_bytes_exactly() {
        // One delta case (iterative rounds) and one elision-only case
        // with the alloc scratch, so both sub-shapes execute.
        let delta = (0..2000)
            .map(|c| CaseSpec::generate(6, c))
            .find(|s| s.map_elide.is_some_and(|m| m.rounds > 0))
            .expect("a delta map-elide case in 2000 draws");
        let alloc = (0..2000)
            .map(|c| CaseSpec::generate(6, c))
            .find(|s| {
                s.map_elide
                    .is_some_and(|m| m.rounds == 0 && m.alloc_scratch)
            })
            .expect("an alloc-scratch map-elide case in 2000 draws");
        for spec in [delta, alloc] {
            let out = run_case(&spec);
            assert_eq!(
                out.verdict(),
                Verdict::Pass,
                "{}: {:?}",
                spec.summary(),
                out.failures
            );
        }
    }

    /// Chained cases stay bitwise-correct under injected faults too —
    /// residency must never trade correctness for elision.
    #[test]
    fn a_chaotic_chained_case_still_matches_the_host() {
        let spec = (0..400)
            .map(|c| CaseSpec::generate(4, c))
            .find(|s| s.chain > 1 && s.chaos.is_some())
            .expect("a chaotic chained case in 400 draws");
        let out = run_case(&spec);
        assert_eq!(out.verdict(), Verdict::Pass, "failures: {:?}", out.failures);
    }
}
