#![warn(missing_docs)]

//! `ompcloud` — *The Cloud as an OpenMP Offloading Device* (ICPP 2017).
//!
//! This crate is the paper's primary contribution: a cloud device plug-in
//! for the OpenMP accelerator model that makes a Spark cluster look like
//! one more `device(...)` target next to GPUs and DSPs. A program runs
//! locally; when an annotated region is reached, the runtime ships the
//! mapped buffers to cloud storage, generates and submits a map-reduce
//! job that executes the loop body across the workers, reconstructs the
//! outputs, and resumes local execution — transparently, driven by a
//! cluster configuration file instead of recompilation.
//!
//! The pieces, mirroring the paper's section structure:
//!
//! * [`CloudConfig`] + the INI reader — §III-A's runtime configuration
//!   file (provider, Spark driver address, storage URI, credentials);
//! * [`CloudDevice`] — the target-specific plug-in executing the
//!   eight-step offloading workflow of Fig. 1;
//! * [`offload`] — Spark job generation: `RDD_IN`/`RDD_OUT` construction,
//!   broadcast vs scatter splitting, and output reconstruction
//!   (Eqs. 1–10, Fig. 3);
//! * [`tiling`] — Algorithm 1, loop tiling to the cluster size;
//! * [`plan`] — deriving `cloudsim` job plans from real regions so the
//!   figure harnesses can project laptop-scale runs onto the paper's
//!   cluster;
//! * [`CloudRuntime`] — the one-call facade a compiled program would use.
//!
//! Data partitioning follows §III-B: `map(to: A[i*N:(i+1)*N])`-style
//! clauses (the `PartitionSpec` type of `omp-model`) route variable
//! blocks to the workers that use them; everything else is broadcast via
//! the BitTorrent-style protocol accounted in `sparkle`.

pub mod breaker;
pub mod cache;
pub mod config;
pub mod device;
pub mod ini;
pub mod mapopt;
pub mod offload;
pub mod plan;
pub mod recovery;
pub mod report;
pub mod resident;
pub mod runtime;
pub mod scope;
pub mod service;
pub mod tiling;

pub use breaker::{BreakerBank, CircuitBreaker, DEFAULT_TENANT};
pub use cache::{CacheDecision, Fingerprint, UploadCache};
pub use config::{CloudConfig, Provider};
pub use device::CloudDevice;
pub use mapopt::{
    narrow_len, DeltaDiff, DeltaLedger, DownloadAction, ElideReason, MapDecision, MapPlan,
    UploadAction,
};
pub use offload::LoopStats;
pub use omp_model::DataflowSummary;
pub use plan::{derive_plan, measure_ratio, PlanRatios};
pub use recovery::RegionRecovery;
pub use report::{OffloadReport, ResilienceSummary};
pub use resident::{ResidentFault, ResidentFaultKind};
pub use runtime::CloudRuntime;
pub use scope::{ScopeStats, TargetDataScope};
pub use service::{OffloadService, ServiceOutcome, ServiceTenantStats};
