//! Mid-flight degradation: a cloud device whose storage endpoint is
//! permanently down must not wedge the program. Each offload aborts
//! cleanly, re-executes on the host with correct results, and after the
//! breaker threshold the device reports itself degraded so later
//! regions skip the cloud without burning a retry budget.

use ompcloud_suite::cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, OpFilter, S3Store, Trigger,
};
use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::omp_model::Availability;
use ompcloud_suite::ompcloud::CloudDevice;
use ompcloud_suite::prelude::*;
use std::sync::Arc;

fn dead_storage_runtime() -> CloudRuntime {
    let config = CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        max_retries: 1,
        backoff_base_ms: 0,
        breaker_threshold: 2,
        ..CloudConfig::default()
    };
    let inner = Arc::new(S3Store::standalone("dead-endpoint"));
    let plan = FaultPlan::new(7).rule(FaultRule::new(
        OpFilter::Any,
        Trigger::Always,
        FaultKind::Unavailable,
    ));
    let chaos = Arc::new(ChaosStore::new(inner, plan));
    CloudRuntime::with_device(CloudDevice::with_store(config, chaos))
}

fn offload_once(runtime: &CloudRuntime) -> (ExecProfile, Vec<f32>) {
    let mut case = kernels::build(
        BenchId::Gemm,
        12,
        DataKind::Dense,
        3,
        CloudRuntime::cloud_selector(),
    );
    let profile = runtime.offload(&case.region, &mut case.env).unwrap();
    (profile, case.env.get::<f32>("C").unwrap().to_vec())
}

#[test]
fn permanently_failing_store_degrades_to_host_with_correct_results() {
    let runtime = dead_storage_runtime();

    let mut reference = kernels::build(
        BenchId::Gemm,
        12,
        DataKind::Dense,
        3,
        DeviceSelector::Default,
    );
    DeviceRegistry::with_host_only()
        .offload(&reference.region, &mut reference.env)
        .unwrap();
    let expected = reference.env.get::<f32>("C").unwrap().to_vec();

    // Offload 1: the cloud is attempted, aborts mid-flight, the host
    // recovers it. One failure is below the threshold of 2.
    let (p1, r1) = offload_once(&runtime);
    assert_eq!(r1, expected);
    assert!(p1.fallback_from.is_some(), "{:?}", p1.notes);
    assert!(
        p1.notes.iter().any(|n| n.contains("failed mid-flight")),
        "{:?}",
        p1.notes
    );
    assert!(!runtime.cloud().breakers().default_breaker().is_open());
    assert_eq!(
        runtime
            .cloud()
            .breakers()
            .default_breaker()
            .total_failures(),
        1
    );

    // Offload 2: second consecutive failure trips the breaker open.
    let (p2, r2) = offload_once(&runtime);
    assert_eq!(r2, expected);
    assert!(p2.fallback_from.is_some());
    assert!(
        runtime.cloud().breakers().default_breaker().is_open(),
        "breaker must be open now"
    );
    assert_eq!(
        runtime.cloud().availability("default"),
        Availability::BreakerOpen
    );
    assert_eq!(runtime.cloud().breakers().default_breaker().trips(), 1);

    // Offload 3: the degraded device is skipped outright — no new
    // failure is recorded, the host runs the region immediately.
    let (p3, r3) = offload_once(&runtime);
    assert_eq!(r3, expected);
    assert!(p3.fallback_from.is_some());
    assert!(
        p3.notes.iter().any(|n| n.contains("unavailable")),
        "degraded device should be skipped before execution: {:?}",
        p3.notes
    );
    assert_eq!(
        runtime
            .cloud()
            .breakers()
            .default_breaker()
            .total_failures(),
        2,
        "an open breaker must short-circuit the cloud attempt"
    );
    runtime.shutdown();
}

#[test]
fn breaker_closes_again_when_the_endpoint_recovers() {
    let config = CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        max_retries: 1,
        backoff_base_ms: 0,
        breaker_threshold: 1,
        ..CloudConfig::default()
    };
    // Fail exactly the first store op: the first offload dies and trips
    // the single-failure breaker; every later op succeeds.
    let inner = Arc::new(S3Store::standalone("flappy-endpoint"));
    let plan = FaultPlan::new(11).rule(FaultRule::new(
        OpFilter::Any,
        Trigger::OpIndex(0),
        FaultKind::Unavailable,
    ));
    let chaos = Arc::new(ChaosStore::new(inner, plan));
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(config, chaos));

    let (p1, _) = offload_once(&runtime);
    assert!(p1.fallback_from.is_some());
    assert!(runtime.cloud().breakers().default_breaker().is_open());

    // Operator reset (or a half-open probe policy) re-arms the device;
    // the endpoint is healthy again so the offload lands on the cloud.
    runtime.cloud().breakers().default_breaker().reset();
    assert_eq!(runtime.cloud().availability("default"), Availability::Up);
    let (p2, _) = offload_once(&runtime);
    assert!(p2.fallback_from.is_none(), "{:?}", p2.notes);
    assert!(!runtime.cloud().breakers().default_breaker().is_open());
    runtime.shutdown();
}
