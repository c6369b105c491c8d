//! `#pragma omp target data` scopes: persistent device residency.
//!
//! OpenMP 4.5 structures repeated offloads with a `target data` region:
//!
//! ```c
//! #pragma omp target data map(to: A[:N]) map(from: C[:N])
//! {
//!     #pragma omp target ...   // uses A, C — no transfer
//!     #pragma omp target ...   // uses A, C — no transfer
//! }                            // C copied back here
//! ```
//!
//! Inside the scope, mapped variables live on the device; the enclosed
//! `target` regions run against that resident state without any
//! host-target transfers, and `map(from:)` variables come home only at
//! scope exit. Where the [`crate::cache`] extension skips re-*uploads*
//! of unchanged inputs, a target-data scope also eliminates the output
//! round-trips between consecutive regions — the full fix for the
//! host-communication costs the paper's §VI contemplates.

use crate::device::{storage_err, CloudDevice};
use crate::mapopt::allocate_outputs;
use crate::runtime::CloudRuntime;
use omp_model::{DataEnv, ErasedVec, ExecProfile, MapClause, MapDir, OmpError, TargetRegion};

/// Transfer statistics of a scope's enter/exit boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScopeStats {
    /// Raw bytes shipped to the device at scope entry.
    pub bytes_in: u64,
    /// Raw bytes shipped back at scope exit.
    pub bytes_out: u64,
    /// Target regions executed against the resident data.
    pub regions_run: u64,
}

/// An open `target data` region. Created by
/// [`CloudRuntime::target_data`]; must be closed with
/// [`TargetDataScope::close`] to copy `map(from:)` variables home.
/// Dropping the scope without closing releases the device residency and
/// discards un-downloaded outputs (a diagnostic is recorded on the
/// device).
pub struct TargetDataScope<'rt> {
    runtime: &'rt CloudRuntime,
    maps: Vec<MapClause>,
    stats: ScopeStats,
    closed: bool,
}

impl std::fmt::Debug for TargetDataScope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetDataScope")
            .field("maps", &self.maps)
            .field("stats", &self.stats)
            .field("closed", &self.closed)
            .finish()
    }
}

impl<'rt> TargetDataScope<'rt> {
    pub(crate) fn enter(
        runtime: &'rt CloudRuntime,
        env: &DataEnv,
        maps: Vec<MapClause>,
    ) -> Result<TargetDataScope<'rt>, OmpError> {
        let bytes_in = runtime.cloud().scope_enter(env, &maps)?;
        Ok(TargetDataScope {
            runtime,
            maps,
            stats: ScopeStats {
                bytes_in,
                ..Default::default()
            },
            closed: false,
        })
    }

    /// Offload a region against the resident device data. Every variable
    /// the region maps must be covered by the scope.
    pub fn offload(&mut self, region: &TargetRegion) -> Result<ExecProfile, OmpError> {
        for m in &region.maps {
            if !self.maps.iter().any(|sm| sm.name == m.name) {
                return Err(OmpError::Plugin {
                    device: "cloud".into(),
                    detail: format!(
                        "region '{}' maps variable '{}' which the target-data scope does not hold",
                        region.name, m.name
                    ),
                });
            }
        }
        let profile = self.runtime.cloud().scope_offload(region)?;
        self.stats.regions_run += 1;
        Ok(profile)
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> ScopeStats {
        self.stats
    }

    /// End the scope: copy every `map(from:)`/`map(tofrom:)` variable
    /// back into `env` and release the device residency.
    pub fn close(mut self, env: &mut DataEnv) -> Result<ScopeStats, OmpError> {
        self.stats.bytes_out = self.runtime.cloud().scope_exit(env, &self.maps)?;
        self.closed = true;
        Ok(self.stats)
    }
}

impl Drop for TargetDataScope<'_> {
    fn drop(&mut self) {
        if !self.closed {
            self.runtime.cloud().scope_abandon();
        }
    }
}

impl CloudDevice {
    /// Root of a scope's staged objects: like every key the device
    /// writes, under the configured storage prefix, so devices sharing a
    /// bucket never stage — or clean up — each other's objects.
    fn scope_root(&self) -> String {
        self.config().storage.key_under("target-data")
    }

    /// Stage the scope's input variables on the device and allocate its
    /// outputs. Returns raw bytes shipped.
    pub(crate) fn scope_enter(&self, env: &DataEnv, maps: &[MapClause]) -> Result<u64, OmpError> {
        let mut residency = self.residency.lock();
        if residency.is_some() {
            return Err(OmpError::Plugin {
                device: "cloud".into(),
                detail: "a target-data scope is already open on this device".into(),
            });
        }
        // Ship the inputs through cloud storage and read them back,
        // exactly as an offload's stage-in does; the outputs are
        // allocated full-size on the driver.
        let root = self.scope_root();
        let mut items = Vec::new();
        let mut bytes_in = 0u64;
        for m in maps {
            let buf = env.get_erased(&m.name)?;
            if m.dir.is_input() {
                bytes_in += buf.byte_len() as u64;
                items.push((format!("{root}/{}", m.name), buf.to_bytes().into()));
            }
        }
        // A boundary publishes no profile or report of its own — its
        // ledger is [`ScopeStats`] — so the time and retry accounting of
        // the round trip is dropped, here and at exit.
        let (payloads, _) = self.round_trip(items, Vec::new()).map_err(storage_err)?;
        let mut resident = DataEnv::new();
        for (m, (_, bytes)) in maps.iter().filter(|m| m.dir.is_input()).zip(payloads) {
            let tag = env.get_erased(&m.name)?.tag();
            resident.insert_erased(&m.name, ErasedVec::from_bytes(tag, &bytes));
        }
        allocate_outputs(&mut resident, env, maps)?;
        *residency = Some(resident);
        Ok(bytes_in)
    }

    /// Run a region against the resident environment (no host-target
    /// transfers).
    pub(crate) fn scope_offload(&self, region: &TargetRegion) -> Result<ExecProfile, OmpError> {
        let mut residency = self.residency.lock();
        let resident = residency.take().ok_or_else(|| OmpError::Plugin {
            device: "cloud".into(),
            detail: "no open target-data scope".into(),
        })?;
        // Residency is lost on failure; the scope must be re-entered
        // (matching OpenMP's undefined device state after an error).
        let mut profile = ExecProfile::new(format!("{}+resident", self.name));
        let outcome = self.run(region, resident, None, &mut profile)?;
        profile.note("target-data scope: no host-target transfers".to_string());
        *residency = Some(outcome.env);
        Ok(profile)
    }

    /// Copy the scope's outputs back and release the residency. Returns
    /// raw bytes shipped home.
    pub(crate) fn scope_exit(
        &self,
        env: &mut DataEnv,
        maps: &[MapClause],
    ) -> Result<u64, OmpError> {
        let mut residency = self.residency.lock();
        let resident = residency.take().ok_or_else(|| OmpError::Plugin {
            device: "cloud".into(),
            detail: "no open target-data scope".into(),
        })?;
        let outputs = || maps.iter().filter(|m| m.dir.is_output());
        let root = self.scope_root();
        let mut bytes_out = 0u64;
        let mut items = Vec::new();
        for m in outputs() {
            let buf = resident.get_erased(&m.name)?;
            bytes_out += buf.byte_len() as u64;
            items.push((format!("{root}/out/{}", m.name), buf.to_bytes().into()));
        }
        let (payloads, _) = self.round_trip(items, Vec::new()).map_err(storage_err)?;
        for (m, (_, bytes)) in outputs().zip(payloads) {
            let tag = env.get_erased(&m.name)?.tag();
            env.write_back(&m.name, ErasedVec::from_bytes(tag, &bytes))?;
        }
        // Storage hygiene: the scope's staging area is garbage now.
        self.transfer.delete_prefix(&root);
        Ok(bytes_out)
    }

    /// Release residency without downloading anything (dropped scope).
    pub(crate) fn scope_abandon(&self) {
        *self.residency.lock() = None;
    }
}

impl CloudRuntime {
    /// Open a `target data` scope over `env` with the given map clauses
    /// (`(name, dir)` pairs).
    pub fn target_data(
        &self,
        env: &DataEnv,
        maps: &[(&str, MapDir)],
    ) -> Result<TargetDataScope<'_>, OmpError> {
        let clauses = maps.iter().map(|(n, d)| MapClause::new(*n, *d)).collect();
        TargetDataScope::enter(self, env, clauses)
    }
}
