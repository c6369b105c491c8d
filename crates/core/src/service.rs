//! The multi-tenant offload service: admission control in front,
//! weighted fair scheduling behind.
//!
//! A [`CloudRuntime`] serves one program; an [`OffloadService`] serves
//! many *tenants* sharing one cloud device. Submissions pass an
//! admission gate (per-tenant window, global cap, watermark shedding —
//! see [`omp_model::AdmissionController`]) and then wait in a weighted
//! fair queue ([`sparkle::WfqQueue`]), so a bursty tenant's backlog
//! delays its own later work, not its neighbours'. Fault state stays
//! per tenant end to end: the device's circuit breakers, the
//! scheduler's quarantine scores and the recovery counters are all
//! keyed by the submitting tenant.

use crate::config::CloudConfig;
use crate::runtime::CloudRuntime;
use omp_model::{AdmissionController, DataEnv, ExecProfile, OmpError, TargetRegion, TenancyPolicy};
use parking_lot::Mutex;
use sparkle::WfqQueue;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-tenant service counters (admission stats live on the
/// [`AdmissionController`]; these cover the execution side).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceTenantStats {
    /// Regions accepted into the queue.
    pub accepted: u64,
    /// Regions rejected at admission.
    pub rejected: u64,
    /// Regions completed (on any device).
    pub completed: u64,
    /// Regions that fell back to the host (tenant-scoped breaker open,
    /// device unavailable, or mid-flight failure).
    pub host_fallbacks: u64,
    /// Regions that failed outright.
    pub failed: u64,
}

/// One completed submission, as reported by [`OffloadService::drain`].
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The submitting tenant.
    pub tenant: String,
    /// The region name.
    pub region: String,
    /// The offload result.
    pub result: Result<ExecProfile, OmpError>,
}

/// A shared offload endpoint for N tenants over one cloud device.
pub struct OffloadService {
    runtime: CloudRuntime,
    gate: Arc<AdmissionController>,
    queue: Mutex<WfqQueue<TargetRegion>>,
    stats: Mutex<HashMap<String, ServiceTenantStats>>,
}

impl OffloadService {
    /// A service over a fresh runtime built from `config`. The
    /// `[tenancy]` section supplies the admission policy and fair-share
    /// weights; with tenancy disabled the service still queues fairly
    /// but admits everything.
    pub fn new(config: CloudConfig) -> OffloadService {
        let policy = config.tenancy_policy().unwrap_or_default();
        Self::with_policy(config, policy)
    }

    /// A service with an explicit admission/fairness policy (tests,
    /// benches).
    pub fn with_policy(config: CloudConfig, policy: TenancyPolicy) -> OffloadService {
        let mut queue = WfqQueue::new();
        for (tenant, weight) in &policy.weights {
            queue.set_weight(tenant, *weight);
        }
        OffloadService {
            runtime: CloudRuntime::new(config),
            gate: Arc::new(AdmissionController::new(policy)),
            queue: Mutex::new(queue),
            stats: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying runtime (reports, device access).
    pub fn runtime(&self) -> &CloudRuntime {
        &self.runtime
    }

    /// The admission gate (windows, rejection counters).
    pub fn admission(&self) -> &AdmissionController {
        &self.gate
    }

    /// Submit a region for its tenant. Rejected submissions return
    /// [`OmpError::Rejected`] immediately — the caller sees typed
    /// backpressure instead of an unbounded queue.
    pub fn submit(&self, region: TargetRegion) -> Result<(), OmpError> {
        let tenant = region.tenant.as_str().to_string();
        if let Err(reason) = self.gate.admit(&region.tenant) {
            self.stats
                .lock()
                .entry(tenant.clone())
                .or_default()
                .rejected += 1;
            return Err(OmpError::Rejected { tenant, reason });
        }
        self.stats
            .lock()
            .entry(tenant.clone())
            .or_default()
            .accepted += 1;
        let cost = region
            .loops
            .iter()
            .map(|l| l.trip_count.max(1))
            .sum::<usize>()
            .max(1) as f64;
        self.queue.lock().push(&tenant, cost, region);
        Ok(())
    }

    /// Regions waiting in the fair queue.
    pub fn queued(&self) -> usize {
        self.queue.lock().len()
    }

    /// Regions waiting for `tenant` specifically.
    pub fn queued_for(&self, tenant: &str) -> usize {
        self.queue.lock().queued_for(tenant)
    }

    /// Pop and execute every queued region in weighted-fair order,
    /// running each against its tenant's environment in `envs` (missing
    /// entries get a fresh empty [`DataEnv`], which surfaces the
    /// region's own errors rather than panicking). Admission slots are
    /// released as each region settles, success or not — the gate can
    /// never leak a slot and wedge a tenant.
    pub fn drain(&self, envs: &mut HashMap<String, DataEnv>) -> Vec<ServiceOutcome> {
        let mut outcomes = Vec::new();
        loop {
            let popped = self.queue.lock().pop();
            let Some((tenant, region)) = popped else {
                break;
            };
            let env = envs.entry(tenant.clone()).or_default();
            let result = self.runtime.offload(&region, env).and_then(|deferred| {
                if !region.nowait {
                    return Ok(deferred);
                }
                // Drained now, against its own tenant's env: left
                // pending, the chain would run inside the next eager
                // region's barrier, whosever that is.
                let dag = self.runtime.taskwait(env)?;
                Ok(dag.profiles.into_iter().last().unwrap_or(deferred))
            });
            self.gate.complete(&region.tenant);
            {
                let mut stats = self.stats.lock();
                let entry = stats.entry(tenant.clone()).or_default();
                match &result {
                    Ok(profile) => {
                        entry.completed += 1;
                        if profile.fallback_from.is_some() {
                            entry.host_fallbacks += 1;
                        }
                    }
                    Err(_) => entry.failed += 1,
                }
            }
            outcomes.push(ServiceOutcome {
                tenant,
                region: region.name.clone(),
                result,
            });
        }
        outcomes
    }

    /// Execution-side counters per tenant, sorted by name.
    pub fn stats(&self) -> Vec<(String, ServiceTenantStats)> {
        let mut v: Vec<_> = self
            .stats
            .lock()
            .iter()
            .map(|(k, s)| (k.clone(), *s))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Stop the underlying cluster.
    pub fn shutdown(&self) {
        self.runtime.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_model::prelude::*;
    use omp_model::{PartitionSpec, RejectReason, TenancyPolicy};

    fn small_config() -> CloudConfig {
        CloudConfig {
            workers: 2,
            vcpus_per_worker: 4,
            ..CloudConfig::default()
        }
    }

    fn double_region(name: &str, tenant: &str, n: usize) -> TargetRegion {
        doubling(name, tenant, ["x", "y"], n)
    }

    /// `y = 2·x` over `n` elements, for variables named `[x, y]`.
    fn doubling(name: &str, tenant: &str, [x, y]: [&'static str; 2], n: usize) -> TargetRegion {
        TargetRegion::builder(name)
            .device(DeviceSelector::Kind(DeviceKind::Cloud))
            .tenant(tenant)
            .map_to(x)
            .map_from(y)
            .parallel_for(n, move |l| {
                l.partition(y, PartitionSpec::rows(1))
                    .body(move |i, ins, outs| {
                        outs.view_mut::<f32>(y)[i] = 2.0 * ins.view::<f32>(x)[i];
                    })
            })
            .build()
            .unwrap()
    }

    fn env(n: usize) -> DataEnv {
        let mut env = DataEnv::new();
        env.insert("x", (0..n as u32).map(|i| i as f32).collect::<Vec<f32>>());
        env.insert("y", vec![0.0f32; n]);
        env
    }

    #[test]
    fn service_runs_tenants_against_their_own_envs() {
        let service = OffloadService::with_policy(small_config(), TenancyPolicy::default());
        service.submit(double_region("a1", "alice", 4)).unwrap();
        service.submit(double_region("b1", "bob", 4)).unwrap();
        assert_eq!(service.queued(), 2);

        let mut envs = HashMap::new();
        envs.insert("alice".to_string(), env(4));
        envs.insert("bob".to_string(), env(4));
        let outcomes = service.drain(&mut envs);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        for tenant in ["alice", "bob"] {
            let y = envs[tenant].get::<f32>("y").unwrap();
            assert_eq!(y, &[0.0, 2.0, 4.0, 6.0], "{tenant}'s outputs");
        }
        let stats = service.stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|(_, s)| s.completed == 1 && s.failed == 0));
        service.shutdown();
    }

    #[test]
    fn admission_window_rejects_with_typed_reason() {
        let policy = TenancyPolicy {
            admission_window: 1,
            ..TenancyPolicy::default()
        };
        let service = OffloadService::with_policy(small_config(), policy);
        service.submit(double_region("q1", "acme", 2)).unwrap();
        let err = service.submit(double_region("q2", "acme", 2)).unwrap_err();
        assert_eq!(
            err,
            OmpError::Rejected {
                tenant: "acme".to_string(),
                reason: RejectReason::QuotaExceeded,
            }
        );
        // Draining releases the slot; the tenant can submit again.
        let mut envs = HashMap::new();
        envs.insert("acme".to_string(), env(2));
        service.drain(&mut envs);
        service.submit(double_region("q3", "acme", 2)).unwrap();
        let (_, stats) = &service.stats()[0];
        assert_eq!((stats.accepted, stats.rejected), (2, 1));
        service.shutdown();
    }

    #[test]
    fn a_nowait_region_runs_against_its_own_tenants_env() {
        // Alice's `nowait` region used to stay deferred until the next
        // eager region's barrier drained it — bob's, against bob's env.
        let service = OffloadService::with_policy(small_config(), TenancyPolicy::default());
        let mut deferred = doubling("a1", "alice", ["xa", "ya"], 4);
        deferred.nowait = true;
        service.submit(deferred).unwrap();
        service
            .submit(doubling("b1", "bob", ["xb", "yb"], 4))
            .unwrap();
        let mut envs = HashMap::new();
        for (tenant, [x, y], scale) in [("alice", ["xa", "ya"], 1.0), ("bob", ["xb", "yb"], 10.0)] {
            let mut env = DataEnv::new();
            env.insert(x, (0..4).map(|i| i as f32 * scale).collect::<Vec<f32>>());
            env.insert(y, vec![0.0f32; 4]);
            envs.insert(tenant.to_string(), env);
        }
        let outcomes = service.drain(&mut envs);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.result.is_ok(), "{}: {:?}", o.tenant, o.result);
        }
        assert_eq!(
            envs["alice"].get::<f32>("ya").unwrap(),
            &[0.0, 2.0, 4.0, 6.0]
        );
        assert_eq!(
            envs["bob"].get::<f32>("yb").unwrap(),
            &[0.0, 20.0, 40.0, 60.0]
        );
        assert_eq!(service.runtime().pending_regions(), 0);
        service.shutdown();
    }

    #[test]
    fn drain_pops_in_weighted_fair_order() {
        let service = OffloadService::with_policy(small_config(), TenancyPolicy::default());
        // Hog queues a burst first, then a light tenant one region.
        for i in 0..6 {
            service
                .submit(double_region(&format!("hog{i}"), "hog", 2))
                .unwrap();
        }
        service.submit(double_region("light0", "light", 2)).unwrap();
        let mut envs = HashMap::new();
        envs.insert("hog".to_string(), env(2));
        envs.insert("light".to_string(), env(2));
        let outcomes = service.drain(&mut envs);
        let light_pos = outcomes
            .iter()
            .position(|o| o.tenant == "light")
            .expect("light ran");
        assert!(
            light_pos <= 1,
            "light tenant waited behind {light_pos} hog regions"
        );
        service.shutdown();
    }
}
