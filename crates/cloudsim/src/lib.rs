#![warn(missing_docs)]

//! `cloudsim` — cloud infrastructure simulation for OmpCloud-rs.
//!
//! The ICPP'17 evaluation ran on AWS: a Spark cluster of seventeen
//! c3.8xlarge instances, an Internet WAN between the laptop and the
//! region, and S3/HDFS storage. None of that hardware is available here,
//! so this crate simulates it:
//!
//! * [`des`] — a deterministic discrete-event engine (virtual clock,
//!   event queue, capacity resources);
//! * [`net`] — bandwidth/latency links and DES-integrated shared links;
//! * [`ec2`] — the instance catalog the paper used, lifecycle state
//!   machines with boot delays, and 2017-era per-hour billing (the
//!   "pay for just the amount of computational resources used" part);
//! * [`model`] — the calibrated performance model projecting an offload
//!   [`model::JobPlan`] onto 8–256 worker cores, producing the Fig. 4
//!   speedup curves and the Fig. 5 load decomposition.
//!
//! ```
//! use cloudsim::model::{JobPlan, OffloadModel, StagePlan};
//!
//! let plan = JobPlan {
//!     name: "demo".into(),
//!     bytes_to: 1 << 30,
//!     bytes_from: 1 << 30,
//!     ratio_to: 0.75,
//!     ratio_from: 0.75,
//!     stages: vec![StagePlan {
//!         trip_count: 16384,
//!         flops: 8.8e12,
//!         broadcast_raw: 1 << 30,
//!         scatter_raw: 1 << 30,
//!         collect_partitioned_raw: 1 << 30,
//!         collect_replicated_raw: 0,
//!         intra_ratio: 0.75,
//!     }],
//! };
//! let model = OffloadModel::default();
//! let series = model.speedup_series(&plan, &[8, 64, 256]);
//! assert!(series[2].computation > series[0].computation);
//! ```

pub mod des;
pub mod ec2;
pub mod model;
pub mod net;
pub mod timeline;
pub mod traffic;

pub use des::{Resource, Sim, SimTime};
pub use ec2::{instance_type, CostReport, Fleet, Instance, InstanceState, InstanceType, CATALOG};
pub use model::{
    stage_makespan_stragglers, Breakdown, ClusterParams, DispatchPolicy, JobPlan, ModelOptions,
    OffloadModel, SpeedupPoint, StagePlan, StragglerScenario,
};
pub use net::{Link, SharedLink};
pub use timeline::{simulate_job, PhaseKind, Span, Timeline};
pub use traffic::{Arrival, Burst, SplitMix64, TenantLoad, TrafficModel};
