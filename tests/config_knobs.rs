//! Configuration keys that no other suite, bench or conformance axis
//! ever gives a value but their default, set here from INI text through
//! `CloudConfig::from_str` and observed end to end on a `CloudDevice` /
//! `OffloadService` — the DESIGN "Configuration ledger" names these
//! tests as the reason each key stays.

use ompcloud_suite::cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, OpFilter, S3Store, StoreHandle, Trigger,
};
use ompcloud_suite::omp_model::{FallbackReason, RejectReason};
use ompcloud_suite::ompcloud::OffloadService;
use ompcloud_suite::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 64;
const CLUSTER: &str = "[cluster]\nworkers = 2\nvcpus-per-worker = 4\ntask-cpus = 2\n";

/// `y[i] = 2 x[i] + 1`; iteration 0 first sleeps `stall`.
fn region(tenant: &str, stall: Duration) -> TargetRegion {
    TargetRegion::builder("knobs")
        .device(CloudRuntime::cloud_selector())
        .tenant(tenant)
        .map_to("x")
        .map_from("y")
        .parallel_for(N, move |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    if i == 0 {
                        std::thread::sleep(stall);
                    }
                    outs.view_mut::<f32>("y")[i] = 2.0 * ins.view::<f32>("x")[i] + 1.0;
                })
        })
        .build()
        .unwrap()
}

fn env() -> DataEnv {
    let mut env = DataEnv::new();
    env.insert("x", (0..N).map(|i| i as f32 * 0.25).collect::<Vec<_>>());
    env.insert("y", vec![0.0f32; N]);
    env
}

/// `y` as the host computes it: the reference every leg is held to.
fn host_y() -> Vec<u8> {
    let mut env = env();
    // A device runs what it is handed, whatever the region's selector.
    HostDevice::sequential()
        .execute(&region("default", Duration::ZERO), &mut env)
        .unwrap();
    env.get_erased("y").unwrap().to_bytes()
}

/// A runtime configured by `ini` (plus the small cluster) over a chaos
/// store executing `plan`.
fn runtime_over(ini: &str, plan: FaultPlan) -> (CloudRuntime, Arc<ChaosStore>) {
    let config = CloudConfig::from_str(&format!("{CLUSTER}{ini}")).unwrap();
    let bucket: StoreHandle = Arc::new(S3Store::standalone("knobs"));
    let chaos = Arc::new(ChaosStore::new(bucket, plan));
    let device = CloudDevice::with_store(config, Arc::clone(&chaos) as StoreHandle);
    (CloudRuntime::with_device(device), chaos)
}

/// `op-deadline-ms`: an op that fails after running past the deadline is
/// a timeout, retried like any transient fault and counted as one.
#[test]
fn op_deadline_classifies_a_slow_failed_op_as_a_retried_timeout() {
    // The first put is held 40 ms and then fails.
    let slow_then_failed = || {
        FaultPlan::new(1)
            .rule(FaultRule::new(
                OpFilter::Put,
                Trigger::OpIndex(0),
                FaultKind::Delay(Duration::from_millis(40)),
            ))
            .rule(FaultRule::new(
                OpFilter::Put,
                Trigger::OpIndex(0),
                FaultKind::Transient,
            ))
    };
    let backoff = "backoff-base-ms = 1\nbackoff-cap-ms = 2\n";
    for (deadline_ms, want_timeouts) in [(10, 1), (0, 0)] {
        let ini = format!("[resilience]\nop-deadline-ms = {deadline_ms}\n{backoff}");
        let (rt, chaos) = runtime_over(&ini, slow_then_failed());
        let mut env = env();
        let profile = rt
            .offload(&region("default", Duration::ZERO), &mut env)
            .unwrap();
        assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
        assert_eq!(env.get_erased("y").unwrap().to_bytes(), host_y());
        let stats = chaos.stats();
        assert_eq!((stats.delays, stats.transient), (1, 1), "the fault fired");
        let resilience = rt.cloud().last_report().unwrap().resilience;
        assert_eq!(resilience.transient_retries, 1, "op-deadline {deadline_ms}");
        assert_eq!(
            resilience.timeouts, want_timeouts,
            "op-deadline-ms = {deadline_ms}"
        );
        rt.shutdown();
    }
}

/// `transfer-deadline-ms`: once an op's retries have spent the budget the
/// failure is terminal — the region aborts cleanly to the host instead
/// of sleeping through the rest of a huge retry budget.
#[test]
fn transfer_deadline_expiry_is_terminal_and_falls_back_to_the_host() {
    let every_put_fails = FaultPlan::new(2).rule(FaultRule::new(
        OpFilter::Put,
        Trigger::Always,
        FaultKind::Transient,
    ));
    // 100 000 retries of 2-4 ms each would take minutes.
    let ini = "[resilience]\ntransfer-deadline-ms = 50\nmax-retries = 100000\n\
               backoff-base-ms = 2\nbackoff-cap-ms = 4\n";
    let (rt, chaos) = runtime_over(ini, every_put_fails);
    let mut env = env();
    let started = Instant::now();
    let profile = rt
        .offload(&region("default", Duration::ZERO), &mut env)
        .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the deadline did not bound the retries: {:?}",
        started.elapsed()
    );
    assert_eq!(profile.fallback_reason, Some(FallbackReason::MidFlight));
    assert!(
        profile
            .notes
            .iter()
            .any(|n| n.contains("transfer deadline 50ms exhausted")),
        "{:?}",
        profile.notes
    );
    assert_eq!(env.get_erased("y").unwrap().to_bytes(), host_y());
    assert!(chaos.stats().transient > 1, "the put was retried first");
    assert_eq!(chaos.list(""), Vec::<String>::new(), "left behind");
    rt.shutdown();
}

/// `quarantine-heartbeat-ms` and `quarantine-threshold`: an executor
/// holding a task that stamps no progress for a heartbeat window is
/// scored a miss (0.5), which at a threshold of 0.5 benches it — and the
/// region still completes, bitwise the host's.
#[test]
fn a_stalled_executor_misses_heartbeats_and_is_quarantined() {
    let ini = "[resilience]\nquarantine-heartbeat-ms = 20\nquarantine-threshold = 0.5\n";
    let stall = Duration::from_millis(150);
    let (rt, _) = runtime_over(ini, FaultPlan::new(3));
    let mut env = env();
    let profile = rt.offload(&region("default", stall), &mut env).unwrap();
    assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
    assert_eq!(env.get_erased("y").unwrap().to_bytes(), host_y());
    let resilience = rt.cloud().last_report().unwrap().resilience;
    assert!(resilience.heartbeat_misses > 0, "{resilience:?}");
    assert!(resilience.quarantine_trips > 0, "{resilience:?}");
    rt.shutdown();

    // Heartbeats are off by default: the same stall scores nothing.
    let (rt, _) = runtime_over("", FaultPlan::new(3));
    rt.offload(&region("default", stall), &mut env).unwrap();
    let resilience = rt.cloud().last_report().unwrap().resilience;
    assert_eq!(
        (resilience.heartbeat_misses, resilience.quarantine_trips),
        (0, 0)
    );
    rt.shutdown();
}

/// The whole `[tenancy]` section from INI text: the per-tenant window,
/// the global cap, watermark shedding by weight, and the weights
/// reaching the fair queue.
#[test]
fn the_tenancy_section_gates_and_orders_an_offload_service() {
    // Shedding starts at ceil(3 x 0.5) = 2 pending regions.
    let tenancy = |enabled: &str| {
        CloudConfig::from_str(&format!(
            "{CLUSTER}[tenancy]\nenabled = {enabled}\nadmission-window = 1\nmax-pending = 3\n\
             shed-watermark = 0.5\nweights = gold:4, plat:4\n"
        ))
        .unwrap()
    };
    let service = OffloadService::new(tenancy("yes"));
    let submit = |tenant: &str| service.submit(region(tenant, Duration::ZERO));
    let rejected = |tenant: &str, reason| {
        Err(OmpError::Rejected {
            tenant: tenant.to_string(),
            reason,
        })
    };
    assert_eq!(submit("bronze"), Ok(()));
    assert_eq!(
        submit("bronze"),
        rejected("bronze", RejectReason::QuotaExceeded),
        "admission-window = 1"
    );
    assert_eq!(submit("gold"), Ok(()), "one pending: below the watermark");
    assert_eq!(
        submit("tin"),
        rejected("tin", RejectReason::Degraded),
        "two pending: weight 1 is shed while weight-4 gold is active"
    );
    assert_eq!(submit("plat"), Ok(()), "weight 4 is not shed");
    assert_eq!(
        submit("iron"),
        rejected("iron", RejectReason::QueueFull),
        "max-pending = 3"
    );

    let mut envs: HashMap<String, DataEnv> = ["bronze", "gold", "plat"]
        .into_iter()
        .map(|tenant| (tenant.to_string(), env()))
        .collect();
    let outcomes = service.drain(&mut envs);
    let order: Vec<&str> = outcomes.iter().map(|o| o.tenant.as_str()).collect();
    assert_eq!(
        order,
        ["gold", "plat", "bronze"],
        "equal costs: the weight-4 tenants finish first, though bronze queued first"
    );
    for outcome in &outcomes {
        assert!(outcome.result.is_ok(), "{outcome:?}");
        let y = envs[&outcome.tenant].get_erased("y").unwrap().to_bytes();
        assert_eq!(y, host_y(), "{}", outcome.tenant);
    }
    assert_eq!(submit("bronze"), Ok(()), "draining returned the slot");
    service.shutdown();

    // `enabled = no`: the section is inert, the service admits by the
    // default policy.
    let service = OffloadService::new(tenancy("no"));
    for _ in 0..4 {
        assert_eq!(service.submit(region("bronze", Duration::ZERO)), Ok(()));
    }
    service.shutdown();
}
