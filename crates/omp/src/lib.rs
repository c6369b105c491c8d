#![warn(missing_docs)]

//! `omp-model` — an OpenMP 4.5 accelerator-model runtime in the
//! libomptarget mold.
//!
//! The ICPP'17 OmpCloud system plugs a cloud Spark cluster into the
//! modular offloading stack of LLVM/libomptarget (the paper's Fig. 2):
//!
//! 1. a **fat binary** carrying host code plus outlined target kernels —
//!    here, a [`TargetRegion`] value holding map clauses and loop-body
//!    closures;
//! 2. a **target-agnostic offloading wrapper** — here, the
//!    [`DeviceRegistry`] with its capability checks, dynamic availability
//!    fallback, and `omp_*` user-level routines ([`api`]);
//! 3. **target-specific plug-ins** — implementations of the six-method
//!    [`Device`] trait, plus the [`DataflowDevice`] capability for
//!    devices that keep buffers resident between the regions of a
//!    `depend`/`nowait` DAG. This crate ships the host plug-in
//!    ([`HostDevice`], both the sequential baseline and the *OmpThread*
//!    multi-threaded baseline); the cloud plug-in lives in the
//!    `ompcloud` crate.
//!
//! The programmatic region builder plays the role of the compiler: the
//! pragmas of the paper's Listing 1 become
//!
//! ```
//! use omp_model::prelude::*;
//!
//! let n = 4usize;
//! // #pragma omp target device(CLOUD) map(to: A,B) map(from: C)
//! // #pragma omp parallel for
//! let region = TargetRegion::builder("matmul")
//!     .device(DeviceSelector::Default)
//!     .map_to("A").map_to("B").map_from("C")
//!     .parallel_for(n, |l| {
//!         // #pragma omp target data map(to: A[i*N:(i+1)*N]) ...
//!         l.partition("A", PartitionSpec::rows(n))
//!          .partition("C", PartitionSpec::rows(n))
//!          .body(move |i, ins, outs| {
//!              let a = ins.view::<f32>("A");
//!              let b = ins.view::<f32>("B");
//!              let mut c = outs.view_mut::<f32>("C");
//!              for j in 0..n {
//!                  let mut sum = 0.0;
//!                  for k in 0..n { sum += a[i*n + k] * b[k*n + j]; }
//!                  c[i*n + j] = sum;
//!              }
//!          })
//!     })
//!     .build()
//!     .unwrap();
//!
//! let mut env = DataEnv::new();
//! env.insert("A", vec![1.0f32; n * n]);
//! env.insert("B", vec![1.0f32; n * n]);
//! env.insert("C", vec![0.0f32; n * n]);
//!
//! let registry = DeviceRegistry::with_host_only();
//! let profile = registry.offload(&region, &mut env).unwrap();
//! assert_eq!(env.get::<f32>("C").unwrap()[0], n as f32);
//! assert!(profile.total_s() >= 0.0);
//! ```

pub mod api;
pub mod chunk;
pub mod clause;
mod dag;
pub mod device;
pub mod env;
pub mod erased;
pub mod error;
pub mod host;
pub mod partition;
pub mod pod;
pub mod profile;
pub mod region;
pub mod registry;
pub mod tenant;
pub mod view;

pub use clause::{
    Construct, DependClause, DependDir, MapClause, MapDir, PartitionMap, ReductionClause,
};
pub use device::{
    Availability, DagReport, DataflowDevice, DataflowHints, Device, DeviceKind, DeviceSelector,
    MaterializeReport,
};
pub use env::DataEnv;
pub use erased::{ErasedSlice, ErasedVec, RedOp};
pub use error::{OmpError, ResidentLossReason};
pub use host::HostDevice;
pub use partition::{LinearExpr, PartitionSpec};
pub use pod::{Pod, TypeTag};
pub use profile::{DataflowSummary, ExecProfile, FallbackReason};
pub use region::{LoopBody, ParallelLoop, TargetRegion, TargetRegionBuilder};
pub use registry::DeviceRegistry;
pub use tenant::{AdmissionController, RejectReason, TenancyPolicy, TenantId, TenantStats};
pub use view::{Inputs, Outputs, VarView, VarViewMut};

/// Everything a kernel author needs in scope.
pub mod prelude {
    pub use crate::clause::{Construct, DependDir, MapDir};
    pub use crate::device::{DagReport, Device, DeviceKind, DeviceSelector};
    pub use crate::env::DataEnv;
    pub use crate::erased::{ErasedVec, RedOp};
    pub use crate::error::{OmpError, ResidentLossReason};
    pub use crate::host::HostDevice;
    pub use crate::partition::{LinearExpr, PartitionSpec};
    pub use crate::profile::ExecProfile;
    pub use crate::region::TargetRegion;
    pub use crate::registry::DeviceRegistry;
    pub use crate::tenant::{RejectReason, TenancyPolicy, TenantId};
    pub use crate::view::{Inputs, Outputs};
}
