//! Per-tenant fault isolation, end to end: a seeded fault schedule
//! hammering one tenant's offloads must leave a co-located tenant
//! completely untouched — same device, same store, same scheduler.
//! The victim's streak opens *its* breaker; the bystander keeps running
//! cloud-side with no fallbacks, a closed breaker, and outputs bitwise
//! identical to a solo (chaos-free) run.

use cloud_storage::{ChaosStore, FaultKind, FaultPlan, FaultRule, OpFilter, S3Store, Trigger};
use omp_model::prelude::*;
use omp_model::{FallbackReason, PartitionSpec};
use ompcloud::{CloudConfig, CloudDevice, CloudRuntime};
use std::sync::Arc;

fn isolation_config() -> CloudConfig {
    CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        min_compression_size: 64,
        spec_factor: 0.0,
        breaker_threshold: 2,
        // Keep injected outages cheap: no retry ladder per failed op.
        max_retries: 0,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
        ..CloudConfig::default()
    }
}

/// `out[i] = 3*in[i] + i` for the given tenant, on its own variables
/// (distinct names keep the fault schedule scoped to one tenant's
/// staged objects).
fn region(name: &str, tenant: &str, in_var: &'static str, out_var: &'static str) -> TargetRegion {
    const N: usize = 16;
    TargetRegion::builder(name)
        .device(CloudRuntime::cloud_selector())
        .tenant(tenant)
        .map_to(in_var)
        .map_from(out_var)
        .parallel_for(N, move |l| {
            l.partition(out_var, PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    let x = ins.view::<f32>(in_var);
                    outs.view_mut::<f32>(out_var)[i] = 3.0 * x[i] + i as f32;
                })
        })
        .build()
        .unwrap()
}

fn env_with(in_var: &str, out_var: &str) -> DataEnv {
    let mut env = DataEnv::new();
    env.insert(
        in_var,
        (0..16).map(|i| (i * i % 13) as f32).collect::<Vec<f32>>(),
    );
    env.insert(out_var, vec![0.0f32; 16]);
    env
}

#[test]
fn chaos_on_tenant_a_never_touches_tenant_b() {
    // Every store op touching hog's staged input fails; bob's keys are
    // never matched.
    let plan = FaultPlan::new(5).rule(
        FaultRule::new(OpFilter::Any, Trigger::Always, FaultKind::Unavailable).on_keys("/in/hx"),
    );
    let inner = Arc::new(S3Store::standalone("tenant-iso"));
    let chaos = Arc::new(ChaosStore::new(inner, plan));
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(
        isolation_config(),
        chaos.clone() as _,
    ));

    // Interleave: hog, bob, hog, bob, hog, bob. The first two hog
    // offloads die mid-flight (threshold 2 opens hog's breaker); the
    // third is refused up front as BreakerOpen. All three fall back to
    // the host and still produce correct results.
    let mut hog_env = env_with("hx", "hy");
    let mut bob_env = env_with("bx", "by");
    let mut bob_reports = Vec::new();
    for round in 0..3 {
        let hp = runtime
            .offload(
                &region(&format!("hog-{round}"), "hog", "hx", "hy"),
                &mut hog_env,
            )
            .unwrap();
        assert!(
            hp.fallback_from.is_some(),
            "hog round {round} should have fallen back"
        );
        if round == 2 {
            assert_eq!(
                hp.fallback_reason,
                Some(FallbackReason::BreakerOpen),
                "third submission is refused by hog's open breaker"
            );
        }

        let bp = runtime
            .offload(
                &region(&format!("bob-{round}"), "bob", "bx", "by"),
                &mut bob_env,
            )
            .unwrap();
        assert!(
            bp.fallback_from.is_none(),
            "bob round {round} was dragged off the cloud: {:?}",
            bp.fallback_reason
        );
        assert!(bp.device.starts_with("cloud"), "bob ran on {}", bp.device);
        bob_reports.push(runtime.cloud().last_report().expect("bob's report"));
    }

    // Chaos really fired — this scenario exercised the fault path.
    assert!(chaos.stats().unavailable > 0, "no fault was injected");

    // Breaker isolation: hog's open, bob's (and the default) closed.
    assert!(runtime.cloud().breaker_open_for("hog"));
    assert!(!runtime.cloud().breaker_open_for("bob"));
    assert!(
        !runtime.cloud().breakers().default_breaker().is_open(),
        "default tenant clean"
    );

    // Bob's reports carry bob's scoped fault state: no stage fallbacks,
    // no tripped breaker, and the tenant tag.
    for report in &bob_reports {
        assert_eq!(report.tenant, "bob");
        assert_eq!(report.profile.dataflow.stage_fallbacks, 0);
        assert!(!report.resilience.breaker_tripped);
        assert_eq!(report.resilience.breaker_consecutive_failures, 0);
    }

    // Bitwise identity: bob's outputs match a solo run with no chaos
    // and no co-tenant.
    let solo = CloudRuntime::new(isolation_config());
    let mut solo_env = env_with("bx", "by");
    for round in 0..3 {
        solo.offload(
            &region(&format!("bob-{round}"), "bob", "bx", "by"),
            &mut solo_env,
        )
        .unwrap();
    }
    assert_eq!(
        bob_env.get::<f32>("by").unwrap(),
        solo_env.get::<f32>("by").unwrap(),
        "co-tenancy under chaos changed bob's bits"
    );
    // Hog's host-fallback results are correct too — shedding the cloud
    // never corrupts data.
    assert_eq!(
        hog_env.get::<f32>("hy").unwrap(),
        solo_env.get::<f32>("by").unwrap(),
        "host fallback diverged from the reference"
    );

    solo.shutdown();
    runtime.shutdown();
}

#[test]
fn a_success_closes_only_the_owning_tenants_breaker() {
    let plan = FaultPlan::new(6).rule(
        FaultRule::new(OpFilter::Any, Trigger::FirstN(2), FaultKind::Unavailable).on_keys("/in/hx"),
    );
    let inner = Arc::new(S3Store::standalone("tenant-iso-close"));
    let chaos = Arc::new(ChaosStore::new(inner, plan));
    let runtime =
        CloudRuntime::with_device(CloudDevice::with_store(isolation_config(), chaos as _));

    let mut hog_env = env_with("hx", "hy");
    let mut bob_env = env_with("bx", "by");
    // Two injected failures in one offload (retries disabled → the op
    // fails, the offload aborts, one breaker strike). Two offloads trip
    // hog's breaker.
    for round in 0..2 {
        runtime
            .offload(
                &region(&format!("hog-{round}"), "hog", "hx", "hy"),
                &mut hog_env,
            )
            .unwrap();
    }
    assert!(runtime.cloud().breaker_open_for("hog"));

    // A bob success must not close hog's breaker.
    runtime
        .offload(&region("bob-0", "bob", "bx", "by"), &mut bob_env)
        .unwrap();
    assert!(
        runtime.cloud().breaker_open_for("hog"),
        "bob's success closed hog's breaker"
    );

    // A hog success (faults exhausted after FirstN(2)) closes it again.
    let hp = runtime
        .offload(&region("hog-redeemed", "hog", "hx", "hy"), &mut hog_env)
        .unwrap();
    if hp.fallback_from.is_none() {
        assert!(!runtime.cloud().breaker_open_for("hog"));
    }
    runtime.shutdown();
}
