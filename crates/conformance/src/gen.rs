//! `RegionGen`: deterministic generation of random target regions and
//! device configurations from a `(seed, case)` pair.
//!
//! Every case is a pure function of its seed — no clocks, no global
//! state — so `CONFORMANCE_SEED=<s> CONFORMANCE_CASE=<n>` replays the exact region,
//! data, tile plan, schedule, and fault plan that failed. The sampled
//! space covers the axes the paper's semantic-transparency claim ranges
//! over: kernel vs. synthetic bodies, `map(to/from/tofrom)` clauses,
//! user partition specs vs. unpartitioned bitwise-OR merge, reduction
//! operators, tile plans (workers x vCPUs x task.cpus), all schedule
//! modes with and without speculation, distributed vs. driver-side
//! reduce, I/O pool widths and compression thresholds, checkpoint/resume
//! budgets, and seeded storage fault plans.
//!
//! Reductions deserve one note: the cloud's collect absorbs
//! partial results in *arrival* order, so bitwise host equivalence for
//! `Sum`/`Prod` is only guaranteed when the arithmetic is exact. The
//! generator therefore feeds reduction cases lattice-valued data
//! (multiples of 0.25 with bounded magnitude; see [`crate::rng`]) —
//! exactness makes any absorb order produce identical bits.

use crate::rng::SplitMix64;
use cloud_storage::{FaultKind, FaultPlan, FaultRule, OpFilter, Trigger};
use omp_model::{DataEnv, DeviceSelector, PartitionSpec, RedOp, TargetRegion};
use omp_parfor::Schedule;
use ompcloud::CloudConfig;
use ompcloud_kernels::{self as kernels, BenchId, DataKind, ALL};
use sparkle::ScheduleMode;
use std::time::Duration;

/// What the generated region computes.
#[derive(Clone, Debug, PartialEq)]
pub enum CaseKind {
    /// A Polybench/collinearity kernel from `crates/kernels`.
    Kernel {
        /// Which benchmark.
        id: BenchId,
        /// Dense or sparse input data.
        data: DataKind,
    },
    /// A synthetic region with randomized clauses.
    Synthetic(SyntheticSpec),
}

/// Output/merge shape of a synthetic region's first loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OutFlavor {
    /// `f32` output partitioned with `PartitionSpec::rows(rows)` —
    /// indexed merge of disjoint hulls.
    Indexed {
        /// Rows per partition block.
        rows: usize,
    },
    /// Unpartitioned `u32` output — merged by bitwise OR over
    /// zero-identity copies.
    BitOr,
    /// Scalar `f32` reduction variable with the given operator.
    Reduce(RedOp),
    /// Scalar `u32` `reduction(|:)` variable.
    ReduceBits,
    /// A partitioned `f32` output *and* a `Sum` reduction in one loop.
    Mixed {
        /// Rows per partition block of the indexed output.
        rows: usize,
    },
}

/// A synthetic region: `inputs` mapped-to vectors feeding one or two
/// parallel loops.
#[derive(Clone, Debug, PartialEq)]
pub struct SyntheticSpec {
    /// Number of `map(to:)` input vectors `x0..x{inputs-1}`.
    pub inputs: usize,
    /// Output/merge shape of the first loop.
    pub flavor: OutFlavor,
    /// Trip count of an optional second loop writing `z`; 0 for none.
    pub second_n: usize,
    /// Optional OpenMP `schedule(...)` clause on the first loop.
    pub loop_schedule: Option<LoopSched>,
}

/// Loop-level schedule clause (overrides the cluster-scope mode).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoopSched {
    /// `schedule(dynamic, chunk)`.
    Dynamic(usize),
    /// `schedule(guided, min_chunk)`.
    Guided(usize),
}

/// Seeded storage fault plan attached to a case.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSpec {
    /// Which fault pattern to inject.
    pub flavor: ChaosFlavor,
    /// Extra latency injected on every 2nd op, in microseconds (0 = none).
    pub delay_us: u64,
    /// Seed of the `FaultPlan` (feeds probabilistic triggers).
    pub seed: u64,
}

/// The fault patterns the generator draws from. Each flavor keeps one
/// *error* mechanism active so the oracle can state exact conservation
/// laws about the resilience counters it should produce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChaosFlavor {
    /// Transient put failures on data keys, every `every`-th matching op.
    /// Scoped so a failed op's retry (the next matching index) always
    /// succeeds: retries == injected faults.
    Transient {
        /// `Trigger::EveryNth` period (>= 3).
        every: u64,
    },
    /// In-flight corruption of every `every`-th get of a staged input —
    /// healed by integrity re-fetch.
    CorruptGet {
        /// `Trigger::EveryNth` period (>= 3).
        every: u64,
    },
    /// Latching endpoint death after `after_puts` matching puts. If it
    /// fires mid-region the device must fall back to the host with
    /// intact outputs.
    Kill {
        /// `Trigger::OpIndex` threshold.
        after_puts: u64,
    },
    /// The first `first_n` staging puts fail (endpoint brownout), forcing
    /// an in-run checkpoint resume that restores every journaled tile.
    Brownout {
        /// `Trigger::FirstN` count.
        first_n: u64,
    },
    /// Only the delay rule — pure timing jitter, no errors.
    DelayOnly,
}

/// Deterministic resident-buffer damage armed on the cloud device for
/// chained cases. Drawn only when `chain > 1` and storage chaos is off,
/// so the lineage-recovery laws in the oracle stay exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ResidentFaultFlavor {
    /// The driver-side copy rots in place after the stage commits; the
    /// durable store copy stays good, so the next read repairs it
    /// (`resident_repairs`, no recompute, no fallback).
    Rot,
    /// The driver-side entry is dropped AND the first durable
    /// `/dataflow/` fetch expires the key under the reader: only a
    /// lineage recompute of the producer can regenerate the buffer.
    Expire,
}

/// Where and how a chained case's resident buffer is damaged.
#[derive(Clone, Debug, PartialEq)]
pub struct ResidentFaultSpec {
    /// What breaks.
    pub flavor: ResidentFaultFlavor,
    /// DAG epoch after whose commit the fault fires. Always < chain - 1,
    /// so a downstream consumer exists to trip over the damage.
    pub stage: usize,
    /// Seed of the expiry fault plan (Expire flavor only).
    pub seed: u64,
}

/// Co-tenant pressure armed on a case: the region re-runs as tenant
/// "bob" on a device shared with a "hog" tenant whose staged inputs are
/// hammered by a scoped fault plan. The hog's streak must open *its*
/// breaker and fall back to the host every round, while bob stays
/// cloud-side with a closed breaker and outputs bitwise identical to
/// the host leg. Drawn only for single-region cases so the bystander
/// run stays one `offload` call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenancySpec {
    /// Hog offloads submitted before the bystander runs (>= 2, the
    /// tenancy leg's breaker threshold, so the breaker always opens).
    pub hog_rounds: usize,
    /// Seed of the hog-scoped fault plan.
    pub seed: u64,
}

/// Map-elision / delta-transfer pressure armed on a case: the region
/// gains a poisoned `map(alloc)` scratch buffer the body stages
/// through, and/or re-executes for several rounds with dirty-tile
/// delta transfers armed, bit-flipping one element of `x0` between
/// rounds. The oracle states exact byte-conservation laws over the
/// resulting [`ompcloud::MapPlan`]s: elided buffers move zero bytes,
/// a delta round moves exactly the dirty tiles' patch. Drawn only for
/// chaos-free, tenant-free, single-region synthetic indexed cases so
/// those laws stay exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapElideSpec {
    /// Add a `map(alloc)` scratch buffer `tmp` (NaN-poisoned host-side:
    /// its bytes must never cross the link in either direction).
    pub alloc_scratch: bool,
    /// Delta re-execution rounds (0 = a single elision-only run).
    pub rounds: usize,
    /// Delta ledger tile size in bytes (only meaningful when
    /// `rounds > 0`).
    pub tile_bytes: usize,
}

/// One fully-specified conformance case: everything needed to build the
/// region + data twice (cloud and host) and the device configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseSpec {
    /// Harness seed this case was derived from.
    pub seed: u64,
    /// Case index under that seed.
    pub case: u64,
    /// Region shape.
    pub kind: CaseKind,
    /// Problem size (matrix dimension for kernels, trip count for
    /// synthetic regions).
    pub n: usize,
    /// Seed of the input data streams.
    pub data_seed: u64,
    /// Cluster tile plan: workers.
    pub workers: usize,
    /// Cluster tile plan: vCPUs per worker.
    pub vcpus: usize,
    /// Cluster tile plan: cpus per task.
    pub task_cpus: usize,
    /// Cluster-scope schedule mode.
    pub mode: ScheduleMode,
    /// Speculation trigger factor (0 = off).
    pub spec_factor: f64,
    /// Distributed reduce on/off.
    pub distributed_reduce: bool,
    /// Compression threshold in bytes.
    pub min_compression_size: usize,
    /// I/O pool width of the transfer pipeline.
    pub io_threads: usize,
    /// Checkpoint/journal mode on/off.
    pub checkpoint: bool,
    /// In-run resume budget (checkpoint mode only).
    pub resume_budget: usize,
    /// Per-op storage latency in microseconds (0 = no latency wrapper).
    pub latency_us: u64,
    /// Optional seeded fault plan.
    pub chaos: Option<ChaosSpec>,
    /// Number of dependent target regions (1 = a single region, no
    /// DAG). When > 1, the case runs as a `depend`/`nowait` chain: the
    /// base region produces `y`, and each extra stage rewrites `y`
    /// elementwise, so intermediate versions stay cloud-resident.
    pub chain: usize,
    /// Optional resident-buffer damage armed on the device (chained,
    /// chaos-free cases only).
    pub resident_fault: Option<ResidentFaultSpec>,
    /// Optional co-tenant pressure (single-region cases only).
    pub tenancy: Option<TenancySpec>,
    /// Optional map-elision / delta-transfer pressure (clean synthetic
    /// indexed single-region cases only).
    pub map_elide: Option<MapElideSpec>,
}

const KERNEL_SIZES: &[usize] = &[4, 6, 8, 12, 16];
const IO_THREADS: &[usize] = &[4, 8, 16, 32];
const COMPRESSION_THRESHOLDS: &[usize] = &[64, 1024, 1 << 30];
const ROWS_CHOICES: &[usize] = &[1, 2, 3, 5, 8];

impl CaseSpec {
    /// Derive case `case` of `seed`. Pure: same inputs, same spec.
    pub fn generate(seed: u64, case: u64) -> CaseSpec {
        let mut rng = SplitMix64::derive(seed, case);
        let data_seed = rng.next_u64();

        let workers = rng.gen_usize(1, 5);
        let vcpus = rng.gen_usize(1, 5);
        let task_cpus = rng.gen_usize(1, vcpus + 1);

        let (mode, spec_factor) = match rng.gen_usize(0, 4) {
            0 => (ScheduleMode::Static, 0.0),
            1 => (ScheduleMode::Dynamic, 0.0),
            2 => (ScheduleMode::Stealing, 0.0),
            _ => (
                ScheduleMode::Stealing,
                1.5 + 0.5 * rng.gen_usize(0, 2) as f64,
            ),
        };

        // Two draws that used to pick the serial-transfer and
        // barrier-collect paths: still consumed, so every later draw of
        // every pinned seed stays where it was.
        let _ = (rng.gen_bool(0.75), rng.gen_bool(0.5));
        let distributed_reduce = rng.gen_bool(0.5);
        let io_threads = IO_THREADS[rng.gen_usize(0, IO_THREADS.len())];
        let min_compression_size = COMPRESSION_THRESHOLDS[rng.gen_usize(0, 3)];
        let mut checkpoint = rng.gen_bool(0.3);
        let mut resume_budget = if checkpoint { rng.gen_usize(0, 3) } else { 0 };
        let latency_us = if rng.gen_bool(0.2) {
            rng.gen_range(300, 1500)
        } else {
            0
        };

        let kind = if rng.gen_bool(0.4) {
            CaseKind::Kernel {
                id: ALL[rng.gen_usize(0, ALL.len())],
                data: if rng.gen_bool(0.5) {
                    DataKind::Dense
                } else {
                    DataKind::Sparse
                },
            }
        } else {
            let flavor = match rng.gen_usize(0, 100) {
                0..=34 => OutFlavor::Indexed {
                    rows: ROWS_CHOICES[rng.gen_usize(0, ROWS_CHOICES.len())],
                },
                35..=49 => OutFlavor::BitOr,
                50..=74 => match rng.gen_usize(0, 5) {
                    0 => OutFlavor::Reduce(RedOp::Sum),
                    1 => OutFlavor::Reduce(RedOp::Prod),
                    2 => OutFlavor::Reduce(RedOp::Min),
                    3 => OutFlavor::Reduce(RedOp::Max),
                    _ => OutFlavor::ReduceBits,
                },
                _ => OutFlavor::Mixed {
                    rows: ROWS_CHOICES[rng.gen_usize(0, ROWS_CHOICES.len())],
                },
            };
            CaseKind::Synthetic(SyntheticSpec {
                inputs: rng.gen_usize(1, 13),
                flavor,
                second_n: if rng.gen_bool(0.25) {
                    rng.gen_usize(8, 49)
                } else {
                    0
                },
                loop_schedule: match rng.gen_usize(0, 8) {
                    0 => Some(LoopSched::Dynamic(rng.gen_usize(1, 5))),
                    1 => Some(LoopSched::Guided(rng.gen_usize(1, 4))),
                    _ => None,
                },
            })
        };
        let n = match kind {
            CaseKind::Kernel { .. } => KERNEL_SIZES[rng.gen_usize(0, KERNEL_SIZES.len())],
            CaseKind::Synthetic(_) => rng.gen_usize(8, 97),
        };

        let chaos = if rng.gen_bool(0.4) {
            let flavor = match rng.gen_usize(0, 10) {
                0..=3 => ChaosFlavor::Transient {
                    every: rng.gen_range(3, 6),
                },
                4..=6 => ChaosFlavor::CorruptGet {
                    every: rng.gen_range(3, 7),
                },
                7 => ChaosFlavor::Kill {
                    after_puts: rng.gen_range(2, 8),
                },
                8 => {
                    // A brownout only makes sense with a journal to
                    // resume from and enough budget to outlast it.
                    // `Unavailable` is not retried at the op level, so in
                    // the worst case each attempt consumes a single fault:
                    // the budget must cover one resume per injected fault.
                    let first_n = rng.gen_range(3, 5);
                    checkpoint = true;
                    resume_budget = resume_budget.max(first_n as usize);
                    ChaosFlavor::Brownout { first_n }
                }
                _ => ChaosFlavor::DelayOnly,
            };
            let delay_us = if flavor == ChaosFlavor::DelayOnly || rng.gen_bool(0.3) {
                rng.gen_range(50, 400)
            } else {
                0
            };
            Some(ChaosSpec {
                flavor,
                delay_us,
                seed: rng.next_u64(),
            })
        } else {
            None
        };

        // Chained-region cases: only for synthetic indexed-merge shapes,
        // whose `y` output is a plain f32 vector every follow-up stage
        // can rewrite elementwise with exact arithmetic.
        let chain = match &kind {
            CaseKind::Synthetic(s)
                if matches!(s.flavor, OutFlavor::Indexed { .. }) && rng.gen_bool(0.35) =>
            {
                rng.gen_usize(2, 4)
            }
            _ => 1,
        };

        // Resident-fault axis, drawn strictly after every existing axis
        // so earlier seeds keep generating byte-identical cases. Only
        // chaos-free chains get one: layering storage chaos on top would
        // blur the exact recovery laws the oracle states.
        let resident_fault = if chain > 1 && chaos.is_none() && rng.gen_bool(0.5) {
            Some(ResidentFaultSpec {
                flavor: if rng.gen_bool(0.5) {
                    ResidentFaultFlavor::Rot
                } else {
                    ResidentFaultFlavor::Expire
                },
                stage: rng.gen_usize(0, chain - 1),
                seed: rng.next_u64(),
            })
        } else {
            None
        };

        // Tenancy axis, drawn strictly after every existing axis so
        // earlier seeds keep generating byte-identical cases. Single-
        // region cases only: the bystander leg re-runs the region with
        // one `offload` call next to a hammered co-tenant.
        let tenancy = if chain == 1 && rng.gen_bool(0.25) {
            Some(TenancySpec {
                hog_rounds: rng.gen_usize(2, 5),
                seed: rng.next_u64(),
            })
        } else {
            None
        };

        // Map-elision axis, drawn strictly after every existing axis so
        // earlier seeds keep generating byte-identical cases. Restricted
        // to clean (no chaos, no co-tenant), single-region synthetic
        // indexed shapes: those re-execute deterministically round over
        // round, so the oracle's byte-conservation laws stay exact.
        let map_elide = match &kind {
            CaseKind::Synthetic(s)
                if matches!(s.flavor, OutFlavor::Indexed { .. })
                    && chain == 1
                    && chaos.is_none()
                    && tenancy.is_none()
                    && rng.gen_bool(0.5) =>
            {
                Some(MapElideSpec {
                    alloc_scratch: rng.gen_bool(0.5),
                    rounds: if rng.gen_bool(0.6) {
                        rng.gen_usize(2, 5)
                    } else {
                        0
                    },
                    tile_bytes: [64, 128, 256][rng.gen_usize(0, 3)],
                })
            }
            _ => None,
        };

        CaseSpec {
            seed,
            case,
            kind,
            n,
            data_seed,
            workers,
            vcpus,
            task_cpus,
            mode,
            spec_factor,
            distributed_reduce,
            min_compression_size,
            io_threads,
            checkpoint,
            resume_budget,
            latency_us,
            chaos,
            chain,
            resident_fault,
            tenancy,
            map_elide,
        }
    }

    /// The cloud device configuration for this case.
    pub fn config(&self) -> CloudConfig {
        let mut c = CloudConfig {
            workers: self.workers,
            vcpus_per_worker: self.vcpus,
            task_cpus: self.task_cpus,
            schedule: self.mode,
            spec_factor: self.spec_factor,
            distributed_reduce: self.distributed_reduce,
            min_compression_size: self.min_compression_size,
            io_threads: self.io_threads,
            checkpoint: self.checkpoint,
            checkpoint_max_resumes: self.resume_budget,
            locality_wait_ms: 0,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            breaker_threshold: 8,
            ..CloudConfig::default()
        };
        match self.chaos.as_ref().map(|ch| ch.flavor) {
            Some(ChaosFlavor::Transient { .. }) => c.max_retries = 4,
            Some(ChaosFlavor::CorruptGet { .. }) => c.max_refetches = 4,
            Some(ChaosFlavor::Kill { .. }) => c.max_retries = 1,
            Some(ChaosFlavor::Brownout { .. }) => {
                c.max_retries = 1;
                c.breaker_threshold = 16;
            }
            _ => {}
        }
        c
    }

    /// The seeded fault plan for this case, if any. Scoping rules keep
    /// the oracle's conservation laws exact: error rules match only data
    /// keys (`/in/`, `/out/`) or journal/staging keys, never both, and
    /// `EveryNth` periods >= 3 guarantee a failed op's immediate retry
    /// lands on a non-firing index.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        // A resident Expire fault is store-level too: the first durable
        // `/dataflow/` fetch deletes the key under the reader. It is
        // only drawn on chaos-free cases, so the plan carries exactly
        // one error mechanism either way.
        if let Some(rf) = &self.resident_fault {
            if rf.flavor == ResidentFaultFlavor::Expire {
                return Some(
                    FaultPlan::new(rf.seed).rule(
                        FaultRule::new(OpFilter::Get, Trigger::FirstN(1), FaultKind::Expire)
                            .on_keys("/dataflow/"),
                    ),
                );
            }
        }
        let ch = self.chaos.as_ref()?;
        let mut plan = FaultPlan::new(ch.seed);
        match ch.flavor {
            ChaosFlavor::Transient { every } => {
                plan = plan
                    .rule(
                        FaultRule::new(
                            OpFilter::Put,
                            Trigger::EveryNth(every),
                            FaultKind::Transient,
                        )
                        .on_keys("/in/"),
                    )
                    .rule(
                        FaultRule::new(
                            OpFilter::Put,
                            Trigger::EveryNth(every),
                            FaultKind::Transient,
                        )
                        .on_keys("/out/"),
                    );
            }
            ChaosFlavor::CorruptGet { every } => {
                plan = plan.rule(
                    FaultRule::new(OpFilter::Get, Trigger::EveryNth(every), FaultKind::Corrupt)
                        .on_keys("/in/"),
                );
            }
            ChaosFlavor::Kill { after_puts } => {
                let keys = if self.checkpoint { "journal/" } else { "/in/" };
                plan = plan.rule(
                    FaultRule::new(OpFilter::Put, Trigger::OpIndex(after_puts), FaultKind::Kill)
                        .on_keys(keys),
                );
            }
            ChaosFlavor::Brownout { first_n } => {
                plan = plan.rule(
                    FaultRule::new(
                        OpFilter::Put,
                        Trigger::FirstN(first_n),
                        FaultKind::Unavailable,
                    )
                    .on_keys("_tmp/"),
                );
            }
            ChaosFlavor::DelayOnly => {}
        }
        if ch.delay_us > 0 {
            plan = plan.rule(FaultRule::new(
                OpFilter::Any,
                Trigger::EveryNth(2),
                FaultKind::Delay(Duration::from_micros(ch.delay_us)),
            ));
        }
        Some(plan)
    }

    /// The hog-scoped fault plan of the tenancy leg: every store op
    /// touching the hog's staged input (`/in/hogx`) fails as
    /// `Unavailable`. No generated case variable is named `hogx`, so
    /// the bystander's keys are never matched.
    pub fn hog_fault_plan(&self) -> Option<FaultPlan> {
        let tn = self.tenancy.as_ref()?;
        Some(
            FaultPlan::new(tn.seed).rule(
                FaultRule::new(OpFilter::Any, Trigger::Always, FaultKind::Unavailable)
                    .on_keys("/in/hogx"),
            ),
        )
    }

    /// Build the target region for `device`. Called once per execution
    /// leg with different device selectors; everything else is identical.
    pub fn build_region(&self, device: DeviceSelector) -> TargetRegion {
        match &self.kind {
            CaseKind::Kernel { id, data } => {
                kernels::build(*id, self.n, *data, self.data_seed, device).region
            }
            CaseKind::Synthetic(s) => self.synthetic_region(s, device),
        }
    }

    /// Build the full region chain for `device`. Index 0 is the base
    /// region; later stages rewrite `y` elementwise. With `deferred`
    /// the regions carry `depend`/`nowait` clauses for the registry's
    /// DAG path (cloud leg); without, they are plain eager regions run
    /// one `offload` at a time (host leg). Single-region cases return
    /// exactly `[build_region(device)]`.
    pub fn build_chain_regions(&self, device: DeviceSelector, deferred: bool) -> Vec<TargetRegion> {
        let mut regions = Vec::with_capacity(self.chain);
        let mut base = self.build_region(device);
        if self.chain > 1 && deferred {
            base.depends
                .push(omp_model::DependClause::new("y", omp_model::DependDir::Out));
            base.nowait = true;
        }
        regions.push(base);
        let y_len = match &self.kind {
            CaseKind::Synthetic(s) => match s.flavor {
                OutFlavor::Indexed { rows } => self.n * rows,
                _ => 0,
            },
            CaseKind::Kernel { .. } => 0,
        };
        for stage in 1..self.chain {
            let mut b =
                TargetRegion::builder(format!("conf-{}-{}-stage{stage}", self.seed, self.case))
                    .device(device)
                    .map_tofrom("y");
            if deferred {
                b = b.depend_inout("y").nowait();
            }
            let region = b
                .parallel_for(y_len, move |l| {
                    l.partition("y", PartitionSpec::rows(1))
                        .body(move |i, ins, outs| {
                            let y = ins.view::<f32>("y");
                            outs.view_mut::<f32>("y")[i] = y[i] * 0.5 + stage as f32;
                        })
                })
                .build()
                .expect("chain stage must validate");
            regions.push(region);
        }
        regions
    }

    /// Build the input environment. Identical for both legs.
    pub fn build_env(&self) -> DataEnv {
        match &self.kind {
            CaseKind::Kernel { id, data } => {
                kernels::build(*id, self.n, *data, self.data_seed, DeviceSelector::Default).env
            }
            CaseKind::Synthetic(s) => self.synthetic_env(s),
        }
    }

    /// Names of the mapped-from variables whose final bytes the
    /// differential check compares.
    pub fn output_names(&self) -> Vec<String> {
        match &self.kind {
            CaseKind::Kernel { id, .. } => {
                kernels::build(*id, self.n, DataKind::Dense, 0, DeviceSelector::Default)
                    .outputs
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            }
            CaseKind::Synthetic(s) => {
                let mut names = Vec::new();
                match s.flavor {
                    OutFlavor::Indexed { .. } | OutFlavor::BitOr => names.push("y".to_string()),
                    OutFlavor::Reduce(_) | OutFlavor::ReduceBits => names.push("s".to_string()),
                    OutFlavor::Mixed { .. } => {
                        names.push("y".to_string());
                        names.push("s".to_string());
                    }
                }
                if s.second_n > 0 {
                    names.push("z".to_string());
                }
                names
            }
        }
    }

    fn synthetic_region(&self, s: &SyntheticSpec, device: DeviceSelector) -> TargetRegion {
        let n = self.n;
        let k = s.inputs;
        let names: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();
        let mut b =
            TargetRegion::builder(format!("conf-{}-{}", self.seed, self.case)).device(device);
        for name in &names {
            b = b.map_to(name.clone());
        }
        match s.flavor {
            OutFlavor::Indexed { .. } | OutFlavor::BitOr => b = b.map_from("y"),
            OutFlavor::Reduce(_) | OutFlavor::ReduceBits => b = b.map_tofrom("s"),
            OutFlavor::Mixed { .. } => b = b.map_from("y").map_tofrom("s"),
        }
        if s.second_n > 0 {
            b = b.map_from("z");
        }
        // Map-elide cases stage `acc` through an alloc-only scratch
        // buffer: zero bytes may cross the link for it, and its
        // NaN-poisoned host contents must never reach the kernel.
        let scratch = self.map_elide.is_some_and(|m| m.alloc_scratch);
        if scratch {
            b = b.map_alloc("tmp");
        }
        let flavor = s.flavor;
        let loop_schedule = s.loop_schedule;
        let body_names = names.clone();
        let mut b = b.parallel_for(n, move |mut l| {
            l = match loop_schedule {
                Some(LoopSched::Dynamic(chunk)) => l.schedule(Schedule::Dynamic { chunk }),
                Some(LoopSched::Guided(min_chunk)) => l.schedule(Schedule::Guided { min_chunk }),
                None => l,
            };
            match flavor {
                OutFlavor::Indexed { rows } => {
                    let names = body_names.clone();
                    l.partition("y", PartitionSpec::rows(rows))
                        .body(move |i, ins, outs| {
                            let mut acc = 0.0f32;
                            for (j, name) in names.iter().enumerate() {
                                acc += ins.view::<f32>(name)[i] * (j + 1) as f32;
                            }
                            if scratch {
                                outs.view_mut::<f32>("tmp")[i] = acc;
                                acc = outs.view_mut::<f32>("tmp")[i];
                            }
                            let mut y = outs.view_mut::<f32>("y");
                            for k in 0..rows {
                                y[i * rows + k] = acc + k as f32 * 0.5;
                            }
                        })
                }
                OutFlavor::BitOr => {
                    let names = body_names.clone();
                    l.body(move |i, ins, outs| {
                        let mut acc = 0x9E37_79B9u32 ^ i as u32;
                        for name in &names {
                            acc = acc.rotate_left(5) ^ ins.view::<f32>(name)[i].to_bits();
                        }
                        outs.view_mut::<u32>("y")[i] = acc;
                    })
                }
                OutFlavor::Reduce(op) => {
                    let names = body_names.clone();
                    l.reduction("s", op).body(move |i, ins, outs| {
                        let mut s = outs.view_mut::<f32>("s");
                        match op {
                            RedOp::Sum => {
                                let mut acc = 0.0f32;
                                for name in &names {
                                    acc += ins.view::<f32>(name)[i];
                                }
                                s[0] += acc;
                            }
                            RedOp::Prod => {
                                let x = ins.view::<f32>(&names[0])[i];
                                s[0] *= if x < 0.0 { -1.0 } else { 1.0 };
                            }
                            RedOp::Min => {
                                let x = ins.view::<f32>(&names[0])[i];
                                s[0] = s[0].min(x);
                            }
                            RedOp::Max => {
                                let x = ins.view::<f32>(&names[0])[i];
                                s[0] = s[0].max(x);
                            }
                            RedOp::BitOr => unreachable!("f32 reductions never use BitOr"),
                        }
                    })
                }
                OutFlavor::ReduceBits => {
                    let names = body_names.clone();
                    l.reduction("s", RedOp::BitOr).body(move |i, ins, outs| {
                        let x = ins.view::<f32>(&names[0])[i];
                        outs.view_mut::<u32>("s")[0] |= x.to_bits().rotate_left(i as u32 % 7);
                    })
                }
                OutFlavor::Mixed { rows } => {
                    let names = body_names.clone();
                    l.partition("y", PartitionSpec::rows(rows))
                        .reduction("s", RedOp::Sum)
                        .body(move |i, ins, outs| {
                            let mut acc = 0.0f32;
                            for (j, name) in names.iter().enumerate() {
                                acc += ins.view::<f32>(name)[i] * (j + 1) as f32;
                            }
                            {
                                let mut y = outs.view_mut::<f32>("y");
                                for k in 0..rows {
                                    y[i * rows + k] = acc + k as f32 * 0.5;
                                }
                            }
                            let x0 = ins.view::<f32>(&names[0])[i];
                            outs.view_mut::<f32>("s")[0] += x0;
                        })
                }
            }
        });
        if s.second_n > 0 {
            let x0 = names[0].clone();
            b = b.parallel_for(s.second_n, move |l| {
                let x0 = x0.clone();
                l.partition("z", PartitionSpec::rows(2))
                    .body(move |i, ins, outs| {
                        let x = ins.view::<f32>(&x0);
                        let v = x[i % x.len()] * 2.0 + i as f32;
                        let mut z = outs.view_mut::<f32>("z");
                        z[2 * i] = v;
                        z[2 * i + 1] = v + 1.0;
                    })
            });
        }
        b.build().expect("generated region must validate")
    }

    fn synthetic_env(&self, s: &SyntheticSpec) -> DataEnv {
        let n = self.n;
        // Reductions over f32 need exact (lattice) data for order
        // independence; everything else takes arbitrary uniform floats.
        let lattice = matches!(s.flavor, OutFlavor::Reduce(_) | OutFlavor::Mixed { .. });
        let mut env = DataEnv::new();
        for i in 0..s.inputs {
            let mut r = SplitMix64::derive(self.data_seed, i as u64);
            let v: Vec<f32> = (0..n)
                .map(|_| {
                    if lattice {
                        r.lattice_f32()
                    } else {
                        r.next_f32()
                    }
                })
                .collect();
            env.insert(format!("x{i}"), v);
        }
        match s.flavor {
            // Partitioned outputs: iteration `i` owns rows
            // `[i*rows, (i+1)*rows)`, so the buffer is `n * rows` long.
            OutFlavor::Indexed { rows } | OutFlavor::Mixed { rows } => {
                env.insert("y", vec![0.0f32; n * rows]);
            }
            OutFlavor::BitOr => env.insert("y", vec![0u32; n]),
            _ => {}
        }
        match s.flavor {
            OutFlavor::Reduce(op) => {
                let init = match op {
                    RedOp::Sum => 1.5f32,
                    RedOp::Prod => 1.0,
                    RedOp::Min => 4.0,
                    RedOp::Max => -4.0,
                    RedOp::BitOr => 0.0,
                };
                env.insert("s", vec![init]);
            }
            OutFlavor::ReduceBits => env.insert("s", vec![0u32]),
            OutFlavor::Mixed { .. } => env.insert("s", vec![1.5f32]),
            _ => {}
        }
        if s.second_n > 0 {
            env.insert("z", vec![0.0f32; 2 * s.second_n]);
        }
        if self.map_elide.is_some_and(|m| m.alloc_scratch) {
            // Poisoned on purpose: alloc scratch never crosses the link,
            // so these bytes must be invisible to both legs.
            env.insert("tmp", vec![f32::NAN; n]);
        }
        env
    }

    /// Stable label of the schedule axis, for coverage accounting.
    pub fn schedule_label(&self) -> &'static str {
        match (self.mode, self.spec_factor > 0.0) {
            (ScheduleMode::Static, _) => "static",
            (ScheduleMode::Dynamic, _) => "dynamic",
            (ScheduleMode::Stealing, false) => "stealing",
            (ScheduleMode::Stealing, true) => "stealing+spec",
        }
    }

    /// One-line deterministic description (safe to diff across runs).
    pub fn summary(&self) -> String {
        let kind = match &self.kind {
            CaseKind::Kernel { id, data } => format!("kernel:{}/{}", id.name(), data.label()),
            CaseKind::Synthetic(s) => format!(
                "synthetic:{:?}x{}{}",
                s.flavor,
                s.inputs,
                if s.second_n > 0 { "+loop2" } else { "" }
            ),
        };
        let chaos = match &self.chaos {
            None => "chaos:off".to_string(),
            Some(c) => format!("chaos:{:?}", c.flavor),
        };
        let resident = match &self.resident_fault {
            None => String::new(),
            Some(r) => format!(" resident:{:?}@{}", r.flavor, r.stage),
        };
        let tenancy = match &self.tenancy {
            None => String::new(),
            Some(t) => format!(" tenancy:hog*{}", t.hog_rounds),
        };
        let map_elide = match &self.map_elide {
            None => String::new(),
            Some(m) => format!(
                " mapopt:rounds={}/t{}{}",
                m.rounds,
                m.tile_bytes,
                if m.alloc_scratch { "+alloc" } else { "" }
            ),
        };
        format!(
            "case {}: {kind} chain={} n={} plan={}x{}x{} sched={} dred={} ckpt={}/{} lat={}us {chaos}{resident}{tenancy}{map_elide}",
            self.case,
            self.chain,
            self.n,
            self.workers,
            self.vcpus,
            self.task_cpus,
            self.schedule_label(),
            self.distributed_reduce,
            self.checkpoint,
            self.resume_budget,
            self.latency_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for case in 0..64 {
            assert_eq!(CaseSpec::generate(7, case), CaseSpec::generate(7, case));
        }
        assert_ne!(CaseSpec::generate(7, 0), CaseSpec::generate(8, 0));
    }

    #[test]
    fn two_hundred_cases_cover_every_axis() {
        let specs: Vec<CaseSpec> = (0..200).map(|c| CaseSpec::generate(7, c)).collect();
        for label in ["static", "dynamic", "stealing", "stealing+spec"] {
            assert!(
                specs.iter().any(|s| s.schedule_label() == label),
                "schedule mode {label} never generated"
            );
        }
        assert!(specs.iter().any(|s| s.chaos.is_some()));
        assert!(specs.iter().any(|s| s.chaos.is_none()));
        assert!(specs
            .iter()
            .any(|s| matches!(s.kind, CaseKind::Kernel { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.kind, CaseKind::Synthetic(_))));
        assert!(specs.iter().any(|s| s.checkpoint));
        assert!(specs.iter().any(|s| s.latency_us > 0));
        assert!(
            specs.iter().any(|s| s.chain > 1),
            "no chained-region case generated"
        );
        assert!(specs.iter().any(|s| s.chain > 1 && s.chaos.is_some()));
        assert!(
            specs.iter().any(|s| s.tenancy.is_some()),
            "no co-tenant case generated"
        );
        // Resident faults sit behind three coin flips (chained, chaos-
        // free, armed), so the flavor sweep needs a wider window.
        let wide: Vec<CaseSpec> = (0..1000).map(|c| CaseSpec::generate(7, c)).collect();
        for flavor in [ResidentFaultFlavor::Rot, ResidentFaultFlavor::Expire] {
            assert!(
                wide.iter().any(|s| s
                    .resident_fault
                    .as_ref()
                    .is_some_and(|r| r.flavor == flavor)),
                "resident fault flavor {flavor:?} never generated"
            );
        }
        // Map-elide variants likewise sit behind several gates.
        assert!(
            wide.iter()
                .any(|s| s.map_elide.is_some_and(|m| m.rounds > 0)),
            "no delta-round map-elide case generated"
        );
        assert!(
            wide.iter()
                .any(|s| s.map_elide.is_some_and(|m| m.rounds == 0)),
            "no elision-only map-elide case generated"
        );
        assert!(
            wide.iter()
                .any(|s| s.map_elide.is_some_and(|m| m.alloc_scratch)),
            "no alloc-scratch map-elide case generated"
        );
    }

    #[test]
    fn map_elide_only_strikes_clean_single_region_indexed_cases() {
        let mut found = 0;
        for case in 0..2000 {
            let spec = CaseSpec::generate(7, case);
            let Some(me) = spec.map_elide else { continue };
            found += 1;
            assert_eq!(spec.chain, 1, "map-elide on a chained case");
            assert!(spec.chaos.is_none(), "map-elide layered on chaos");
            assert!(spec.tenancy.is_none(), "map-elide layered on tenancy");
            assert!(
                matches!(
                    &spec.kind,
                    CaseKind::Synthetic(s) if matches!(s.flavor, OutFlavor::Indexed { .. })
                ),
                "map-elide on a non-indexed case"
            );
            assert!(me.rounds == 0 || (2..5).contains(&me.rounds));
            assert!([64, 128, 256].contains(&me.tile_bytes));
            // The alloc scratch must be reflected in the built region
            // and environment so both legs execute the same program.
            let region = spec.build_region(DeviceSelector::Default);
            let env = spec.build_env();
            assert_eq!(
                region.maps.iter().any(|m| m.name == "tmp"),
                me.alloc_scratch
            );
            assert_eq!(env.get_erased("tmp").is_ok(), me.alloc_scratch);
        }
        assert!(found > 0, "no map-elide case in 2000 draws");
    }

    #[test]
    fn resident_faults_only_strike_chained_chaos_free_cases() {
        for case in 0..2000 {
            let spec = CaseSpec::generate(7, case);
            let Some(rf) = &spec.resident_fault else {
                continue;
            };
            assert!(spec.chain > 1, "resident fault on a single-region case");
            assert!(spec.chaos.is_none(), "resident fault layered on chaos");
            assert!(
                rf.stage < spec.chain - 1,
                "resident fault at stage {} of a {}-chain has no consumer",
                rf.stage,
                spec.chain
            );
            if rf.flavor == ResidentFaultFlavor::Expire {
                assert!(spec.fault_plan().is_some(), "Expire needs a store plan");
            } else {
                assert!(spec.fault_plan().is_none());
            }
        }
    }

    #[test]
    fn tenancy_only_strikes_single_region_cases() {
        let mut found = 0;
        for case in 0..2000 {
            let spec = CaseSpec::generate(7, case);
            let Some(tn) = &spec.tenancy else { continue };
            found += 1;
            assert_eq!(spec.chain, 1, "co-tenant pressure on a chained case");
            assert!(
                (2..5).contains(&tn.hog_rounds),
                "hog_rounds {} outside [2, 5)",
                tn.hog_rounds
            );
            let plan = spec.hog_fault_plan().expect("tenancy cases carry a plan");
            drop(plan);
        }
        assert!(found > 0, "no tenancy case in 2000 draws");
    }

    #[test]
    fn chained_cases_build_consistent_legs() {
        let mut found = 0;
        for case in 0..400 {
            let spec = CaseSpec::generate(9, case);
            if spec.chain < 2 {
                continue;
            }
            found += 1;
            let deferred = spec.build_chain_regions(DeviceSelector::Default, true);
            let eager = spec.build_chain_regions(DeviceSelector::Default, false);
            assert_eq!(deferred.len(), spec.chain);
            assert_eq!(eager.len(), spec.chain);
            assert!(deferred.iter().all(|r| r.nowait));
            assert!(deferred.iter().all(|r| !r.depends.is_empty()));
            assert!(eager.iter().all(|r| !r.nowait && r.depends.is_empty()));
            // Every stage past the base rewrites y over its full length.
            let y_len = spec.build_env().get::<f32>("y").unwrap().len();
            for r in &deferred[1..] {
                assert_eq!(r.loops[0].trip_count, y_len);
            }
            if found >= 5 {
                return;
            }
        }
        panic!("too few chained cases in 400 draws");
    }

    #[test]
    fn regions_build_for_both_legs() {
        for case in 0..40 {
            let spec = CaseSpec::generate(11, case);
            let cloud = spec.build_region(DeviceSelector::Default);
            let host = spec.build_region(DeviceSelector::Default);
            assert_eq!(cloud.loops.len(), host.loops.len());
            let env = spec.build_env();
            for name in spec.output_names() {
                assert!(
                    env.get_erased(&name).is_ok(),
                    "output {name} missing from env"
                );
            }
        }
    }

    #[test]
    fn brownout_cases_force_checkpoint_and_budget() {
        for case in 0..2000 {
            let spec = CaseSpec::generate(3, case);
            if let Some(ChaosSpec {
                flavor: ChaosFlavor::Brownout { .. },
                ..
            }) = spec.chaos
            {
                assert!(spec.checkpoint);
                assert!(spec.resume_budget >= 2);
                assert_eq!(spec.config().max_retries, 1);
                return;
            }
        }
        panic!("no brownout case in 2000 draws");
    }
}
