//! User-level runtime routines over a process-global registry.
//!
//! libomptarget exposes `omp_get_num_devices()` and friends against global
//! runtime state; this module provides the same convenience layer. Library
//! code should prefer passing a [`DeviceRegistry`] explicitly — the global
//! is for application `main`s and the examples.

use crate::device::Device;
use crate::env::DataEnv;
use crate::error::OmpError;
use crate::profile::ExecProfile;
use crate::region::TargetRegion;
use crate::registry::DeviceRegistry;
use parking_lot::RwLock;
use std::sync::{Arc, OnceLock};

fn global() -> &'static RwLock<DeviceRegistry> {
    static REGISTRY: OnceLock<RwLock<DeviceRegistry>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(DeviceRegistry::with_host_only()))
}

/// `omp_get_num_devices()` — number of registered devices.
pub fn omp_get_num_devices() -> usize {
    global().read().num_devices()
}

/// `omp_get_default_device()`.
pub fn omp_get_default_device() -> usize {
    global().read().default_device()
}

/// `omp_set_default_device(id)`.
pub fn omp_set_default_device(id: usize) -> Result<(), OmpError> {
    global().write().set_default(id)
}

/// `omp_is_initial_device(id)` — true when `id` is the host.
pub fn omp_is_initial_device(id: usize) -> bool {
    global()
        .read()
        .device(id)
        .map(|d| d.kind() == crate::device::DeviceKind::Host)
        .unwrap_or(false)
}

/// Register a device plug-in with the global registry; returns its number.
pub fn register_device(device: Arc<dyn Device>) -> usize {
    global().write().register(device)
}

/// `__tgt_target`-style entry point against the global registry.
pub fn tgt_target(region: &TargetRegion, env: &mut DataEnv) -> Result<ExecProfile, OmpError> {
    // Clone the registry handle out of the lock so long-running offloads
    // don't block registration from other threads.
    let registry = global().read().clone();
    registry.offload(region, env)
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests share the process-global registry, so they only assert
    // monotone/idempotent properties.

    #[test]
    fn global_registry_has_host() {
        assert!(omp_get_num_devices() >= 1);
        assert!(omp_is_initial_device(0));
    }

    #[test]
    fn default_device_roundtrip() {
        let before = omp_get_default_device();
        omp_set_default_device(0).unwrap();
        assert_eq!(omp_get_default_device(), 0);
        omp_set_default_device(before).unwrap();
    }

    #[test]
    fn invalid_default_rejected() {
        assert!(omp_set_default_device(usize::MAX).is_err());
    }

    #[test]
    fn tgt_target_runs_on_host() {
        let region = TargetRegion::builder("noop")
            .map_from("y")
            .parallel_for(4, |l| {
                l.body(|i, _, outs| {
                    let mut y = outs.view_mut::<f32>("y");
                    y[i] = i as f32;
                })
            })
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        env.insert("y", vec![0.0f32; 4]);
        let p = tgt_target(&region, &mut env).unwrap();
        assert!(p.device.starts_with("host"));
        assert_eq!(env.get::<f32>("y").unwrap(), &[0.0, 1.0, 2.0, 3.0]);
    }
}
