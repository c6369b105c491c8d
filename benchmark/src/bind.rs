//! Every call this benchmark makes into a repo crate is in this file.
//!
//! Two kinds of call. Through the *facade*, as a compiled program would:
//! `CloudConfig::from_str` on INI text, `CloudDevice::with_store`,
//! `CloudRuntime::{with_device, offload, offload_nowait, taskwait, cloud,
//! shutdown}`, the `ExecProfile` / `OffloadReport` / `DagReport` /
//! `JobMetrics` reports, the `ObjectStore` trait, `LatencyStore`,
//! `S3Store::standalone`, `HostDevice`, and `ompcloud_kernels::{build,
//! run_host, flops}`. And *directly* into single layers for the per-layer
//! numbers: `gzlite::{plan_wire, encode_wire, decompress,
//! decompress_stream, is_stream, crc32}`, `TransferManager::{new,
//! upload_fetch_pipelined, download}`, `SparkContext` / `SparkConf`, and
//! `DeltaLedger::{commit, diff}`.
//!
//! Nothing here names a `CloudConfig` field, `run_spark_job` or the
//! inside of `try_execute`: those are about to change, and a change to
//! them must not have to edit the benchmark. The rest of the benchmark
//! sees plain numbers and the opaque types defined here.

pub use jsonlite::Json;

use crate::trace::Recorder;
use crate::workloads::{
    Kernel, Shape, SplitMix, Workload, CHAIN_LEN, CHAIN_STAGES, FANIN_INPUTS, FANIN_LEN,
    ITER_DIRTY_TILES, ITER_TILE_ELEMS, ITER_TRIPS, ITER_W_LEN, ITER_X_LEN, KERNEL_N,
};
use cloud_storage::{
    LatencyStore, ObjectStore, S3Store, StorageError, StoreHandle, TransferConfig, TransferManager,
};
use omp_model::{
    DagReport, DataEnv, Device, DeviceKind, DeviceSelector, ExecProfile, HostDevice, OmpError,
    PartitionSpec, TargetRegion,
};
use ompcloud::{CloudConfig, CloudDevice, CloudRuntime, DeltaLedger};
use ompcloud_kernels::{BenchId, DataKind};
use sparkle::{SparkConf, SparkContext};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster shape of every workload, sized for a 2-core box.
pub const WORKERS: usize = 2;
pub const VCPUS_PER_WORKER: usize = 2;
pub const TASK_CPUS: usize = 1;
pub const IO_THREADS: usize = 2;

/// Tolerance of a paper kernel's output against `run_host`: the cloud
/// path sums in tile order, the reference in loop order.
const KERNEL_TOLERANCE: f32 = 1e-3;
/// A compression floor no buffer reaches: the codec never runs.
const NO_CODEC_INI: &str = "min-compression-size = 4000000000\n";

// ---------------------------------------------------------------------
// Units of work
// ---------------------------------------------------------------------

/// One unit of work: the region(s) to offload and the data they map.
#[derive(Clone)]
pub struct Unit {
    regions: Vec<TargetRegion>,
    env: DataEnv,
    /// Variables the first region maps `to`/`tofrom`, in clause order.
    inputs: Vec<String>,
    outputs: Vec<&'static str>,
    kernel: Option<BenchId>,
    /// Drain as a `nowait` DAG with one `taskwait`.
    dag: bool,
}

/// Draws unit `i` of a workload from `seed + i`.
pub struct Generator {
    shape: Shape,
    seed: u64,
    issued: u64,
    /// The iterative shape's carried state: `x` as of the last round.
    x: Vec<f32>,
    w: Vec<f32>,
}

impl Generator {
    pub fn new(shape: Shape, seed: u64) -> Generator {
        let (mut x, mut w) = (Vec::new(), Vec::new());
        if shape == Shape::Iterative {
            let mut rng = SplitMix(seed);
            x = (0..ITER_X_LEN).map(|_| rng.unit_f32()).collect();
            w = (0..ITER_W_LEN).map(|_| rng.unit_f32()).collect();
        }
        Generator {
            shape,
            seed,
            issued: 0,
            x,
            w,
        }
    }

    pub fn next_unit(&mut self) -> Unit {
        let unit_seed = self.seed.wrapping_add(self.issued);
        let round = self.issued;
        self.issued += 1;
        let cloud = DeviceSelector::Kind(DeviceKind::Cloud);
        match self.shape {
            Shape::Kernel { kernel, sparse } => {
                let id = match kernel {
                    Kernel::Gemm => BenchId::Gemm,
                    Kernel::Covar => BenchId::Covar,
                };
                let kind = if sparse {
                    DataKind::Sparse
                } else {
                    DataKind::Dense
                };
                let case = ompcloud_kernels::build(id, KERNEL_N, kind, unit_seed, cloud);
                Unit::new(
                    vec![case.region],
                    case.env,
                    case.outputs.to_vec(),
                    Some(id),
                    false,
                )
            }
            Shape::Chain => {
                let mut rng = SplitMix(unit_seed);
                let mut env = DataEnv::new();
                // Small integers: four halvings stay exact in f32, so the
                // host chain is bitwise comparable.
                let y: Vec<f32> = (0..CHAIN_LEN).map(|_| rng.below(251) as f32).collect();
                env.insert("y", y);
                let stages = (0..CHAIN_STAGES).map(|k| chain_stage(k, cloud)).collect();
                Unit::new(stages, env, vec!["y"], None, true)
            }
            Shape::FanIn => {
                let mut rng = SplitMix(unit_seed);
                let mut env = DataEnv::new();
                for (k, name) in fanin_names().into_iter().enumerate() {
                    // A short repeating pattern with a random phase and
                    // stride, lifted by 100 k: small integers, and no two
                    // inputs alike (twins would be deduped, not sent).
                    let (phase, stride) = (rng.below(97), 1 + rng.below(7));
                    let x: Vec<f32> = (0..FANIN_LEN as u64)
                        .map(|i| ((i * stride + phase) % 97 + 100 * k as u64) as f32)
                        .collect();
                    env.insert(name, x);
                }
                env.insert("y", vec![0.0f32; FANIN_LEN]);
                Unit::new(vec![fanin_region(cloud)], env, vec!["y"], None, false)
            }
            Shape::Iterative => {
                if round > 0 {
                    let mut rng = SplitMix(unit_seed);
                    let tiles = (ITER_X_LEN / ITER_TILE_ELEMS) as u64;
                    let mut dirty: Vec<usize> = Vec::with_capacity(ITER_DIRTY_TILES);
                    while dirty.len() < ITER_DIRTY_TILES {
                        let tile = rng.below(tiles) as usize;
                        if !dirty.contains(&tile) {
                            dirty.push(tile);
                        }
                    }
                    for tile in dirty {
                        let elem =
                            tile * ITER_TILE_ELEMS + rng.below(ITER_TILE_ELEMS as u64) as usize;
                        // [1, 2) is never drawn otherwise: the element changes.
                        self.x[elem] = rng.unit_f32() + 1.0;
                    }
                }
                let mut env = DataEnv::new();
                env.insert("x", self.x.clone());
                env.insert("w", self.w.clone());
                env.insert("y", vec![0.0f32; ITER_TRIPS]);
                Unit::new(vec![iterative_region(cloud)], env, vec!["y"], None, false)
            }
        }
    }
}

fn fanin_names() -> Vec<String> {
    (0..FANIN_INPUTS).map(|k| format!("x{k:02}")).collect()
}

/// Stage `k` of the chain: an elementwise rewrite of `y`, exact in f32.
fn chain_stage(k: usize, device: DeviceSelector) -> TargetRegion {
    TargetRegion::builder(format!("chain-stage-{k}"))
        .device(device)
        .map_tofrom("y")
        .depend_inout("y")
        .nowait()
        .parallel_for(CHAIN_LEN, move |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    let y = ins.view::<f32>("y");
                    outs.view_mut::<f32>("y")[i] = y[i] * 0.5 + k as f32;
                })
        })
        .build()
        .expect("chain stage is a valid region")
}

/// `y[i] = sum over the 32 inputs of x_k[i]` (small integers: exact).
fn fanin_region(device: DeviceSelector) -> TargetRegion {
    let names = fanin_names();
    let mut b = TargetRegion::builder("fanin").device(device);
    for name in &names {
        b = b.map_to(name.clone());
    }
    b.map_from("y")
        .parallel_for(FANIN_LEN, move |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    let mut acc = 0.0f32;
                    for name in &names {
                        acc += ins.view::<f32>(name)[i];
                    }
                    outs.view_mut::<f32>("y")[i] = acc;
                })
        })
        .build()
        .expect("fan-in is a valid region")
}

/// `y[i] = w[i] + sum of x[i*SPAN .. (i+1)*SPAN]`, summed in index order
/// inside one iteration, so host and cloud agree bitwise.
fn iterative_region(device: DeviceSelector) -> TargetRegion {
    const SPAN: usize = ITER_X_LEN / ITER_TRIPS;
    TargetRegion::builder("iterative")
        .device(device)
        .map_to("x")
        .map_to("w")
        .map_from("y")
        .parallel_for(ITER_TRIPS, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let x = ins.view::<f32>("x");
                    let w = ins.view::<f32>("w");
                    let mut acc = w[i];
                    for j in 0..SPAN {
                        acc += x[i * SPAN + j];
                    }
                    outs.view_mut::<f32>("y")[i] = acc;
                })
        })
        .build()
        .expect("iterative round is a valid region")
}

/// What a unit's outputs must equal, and what computing that cost.
pub struct Reference {
    outputs: Vec<(&'static str, Vec<f32>)>,
    /// 0 = bitwise.
    tolerance: f32,
    /// Seconds `run_host` took (paper kernels; 0 otherwise).
    pub kernel_reference_s: f64,
    /// Seconds the regions took on `HostDevice::sequential()`
    /// (synthetic shapes, whose reference that run is; 0 otherwise).
    pub host_seq_s: f64,
}

impl Unit {
    fn new(
        regions: Vec<TargetRegion>,
        env: DataEnv,
        outputs: Vec<&'static str>,
        kernel: Option<BenchId>,
        dag: bool,
    ) -> Unit {
        let inputs = regions[0].input_maps().map(|m| m.name.clone()).collect();
        Unit {
            regions,
            env,
            inputs,
            outputs,
            kernel,
            dag,
        }
    }

    fn output_values(&self) -> Result<Vec<(&'static str, Vec<f32>)>, String> {
        self.outputs
            .iter()
            .map(|&name| {
                self.env
                    .get::<f32>(name)
                    .map(|v| (name, v.to_vec()))
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// The host reference of this unit, computed on a copy of its data:
    /// `run_host` (raw loops) for a paper kernel, compared within 1e-3;
    /// the same regions on `HostDevice::sequential()` for the synthetic
    /// shapes, compared bitwise.
    pub fn reference(&self) -> Result<Reference, String> {
        let mut copy = self.clone();
        let t = Instant::now();
        match self.kernel {
            Some(id) => {
                ompcloud_kernels::run_host(id, KERNEL_N, &mut copy.env);
                Ok(Reference {
                    kernel_reference_s: t.elapsed().as_secs_f64(),
                    host_seq_s: 0.0,
                    outputs: copy.output_values()?,
                    tolerance: KERNEL_TOLERANCE,
                })
            }
            None => {
                let host_seq_s = copy.run_on_host(1)?;
                Ok(Reference {
                    kernel_reference_s: 0.0,
                    host_seq_s,
                    outputs: copy.output_values()?,
                    tolerance: 0.0,
                })
            }
        }
    }

    /// Do this unit's outputs, as they stand now, equal the reference?
    pub fn matches(&self, reference: &Reference) -> bool {
        let Ok(actual) = self.output_values() else {
            return false;
        };
        actual
            .iter()
            .zip(&reference.outputs)
            .all(|((_, got), (_, want))| {
                got.len() == want.len()
                    && got.iter().zip(want).all(|(g, w)| {
                        if reference.tolerance == 0.0 {
                            g.to_bits() == w.to_bits()
                        } else {
                            (g - w).abs() <= reference.tolerance
                        }
                    })
            })
    }

    /// Run the regions on the host device with `threads` threads (1 =
    /// the plain sequential baseline); returns the wall seconds.
    pub fn run_on_host(&mut self, threads: usize) -> Result<f64, String> {
        let device = if threads <= 1 {
            HostDevice::sequential()
        } else {
            HostDevice::threaded(threads)
        };
        let t = Instant::now();
        for region in &self.regions {
            device
                .execute(region, &mut self.env)
                .map_err(|e| e.to_string())?;
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// Selftest: make one output element wrong.
    pub fn flip_output_element(&mut self) {
        let name = self.outputs[0];
        let out = self.env.get_mut::<f32>(name).expect("output is f32");
        out[out.len() / 2] += 1.0;
    }

    /// Serialized `(name, bytes)` of the mapped inputs.
    pub fn input_buffers(&self) -> Vec<(String, Vec<u8>)> {
        self.buffers(self.inputs.iter().map(String::as_str))
    }

    /// Serialized `(name, bytes)` of the outputs as they stand now.
    pub fn output_buffers(&self) -> Vec<(String, Vec<u8>)> {
        self.buffers(self.outputs.iter().copied())
    }

    fn buffers<'a>(&self, names: impl Iterator<Item = &'a str>) -> Vec<(String, Vec<u8>)> {
        names
            .filter_map(|n| {
                self.env
                    .get_erased(n)
                    .ok()
                    .map(|b| (n.to_string(), b.to_bytes()))
            })
            .collect()
    }

    /// Floating-point operations of the unit (computed from the kernel's
    /// flop model; 0 for the synthetic shapes).
    pub fn flops(&self) -> f64 {
        self.kernel
            .map_or(0.0, |id| ompcloud_kernels::flops(id, KERNEL_N))
    }
}

// ---------------------------------------------------------------------
// The offload path through the facade
// ---------------------------------------------------------------------

/// Which store and codec a session's offloads cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// The workload as defined.
    Full,
    /// Ablation: the bare in-memory store.
    NoWan,
    /// Ablation: the bare store and no compression.
    NoWanNoCodec,
}

/// `ObjectStore` decorator between the cloud device and the store: the
/// one place every byte the offload path moves can be seen from outside.
struct SpanStore {
    inner: StoreHandle,
    recorder: Arc<Recorder>,
}

impl ObjectStore for SpanStore {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        let (t0, bytes) = (self.recorder.now(), data.len() as u64);
        let result = self.inner.put(key, data);
        self.recorder.store_op("put", key, bytes, t0);
        result
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let t0 = self.recorder.now();
        let result = self.inner.get(key);
        let bytes = result.as_ref().map_or(0, |d| d.len() as u64);
        self.recorder.store_op("get", key, bytes, t0);
        result
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        let t0 = self.recorder.now();
        let result = self.inner.delete(key);
        self.recorder.store_op("delete", key, 0, t0);
        result
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let t0 = self.recorder.now();
        let keys = self.inner.list(prefix);
        self.recorder.store_op("list", prefix, 0, t0);
        keys
    }

    fn size(&self, key: &str) -> Option<u64> {
        self.inner.size(key)
    }

    fn checksum(&self, key: &str) -> Option<u32> {
        self.inner.checksum(key)
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// The workload's store: in-memory S3, behind its latency and bandwidth
/// unless the leg strips the WAN.
fn store_for(workload: &Workload, leg: Leg) -> StoreHandle {
    let bare: StoreHandle = Arc::new(S3Store::standalone("bench"));
    if leg != Leg::Full || workload.latency_ms == 0 {
        return bare;
    }
    let wan = LatencyStore::new(bare, Duration::from_millis(workload.latency_ms));
    Arc::new(match workload.bandwidth {
        Some(bw) => wan.with_bandwidth(bw),
        None => wan,
    })
}

/// One configured runtime: store, cloud device, host devices.
pub struct Session {
    runtime: CloudRuntime,
    recorder: Arc<Recorder>,
}

/// What an offload returned, untouched until the clock has stopped.
pub enum Raw {
    Region(Result<ExecProfile, OmpError>),
    Dag(Result<DagReport, OmpError>),
}

/// What one unit's reports say, as plain numbers.
#[derive(Debug, Clone, Default)]
pub struct UnitInfo {
    /// The offload returned `Err`.
    pub error: Option<String>,
    /// Some region of the unit ran on the host instead of the cloud.
    pub fell_back: bool,
    pub host_comm_s: f64,
    pub overhead_s: f64,
    pub compute_s: f64,
    pub overlap_s: f64,
    pub compress_busy_s: f64,
    /// Sum of `ExecProfile::total_s()` over the unit's regions.
    pub profile_total_s: f64,
    pub bytes_to_device: f64,
    pub bytes_from_device: f64,
    /// From the `OffloadReport` of the unit's last region.
    pub merge_s: f64,
    pub scatter_bytes: f64,
    pub broadcast_bytes: f64,
    pub collect_bytes: f64,
    pub uploads_elided: f64,
    pub delta_dirty_tiles: f64,
    pub retries: f64,
    /// Regions of a DAG unit that moved no byte to the device: every
    /// input was served from a producer's cloud-resident output.
    pub resident_regions: f64,
}

/// Scheduler totals over a run of jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobTotals {
    pub jobs: f64,
    pub tasks: f64,
    pub steals: f64,
    pub speculated: f64,
    pub failed_attempts: f64,
}

impl Session {
    /// Build the runtime the way a program would at start-up: INI text →
    /// `CloudConfig`, a store, `CloudDevice::with_store`, the registry.
    /// `extra_offload_ini` adds `[offload]` keys (the selftest's
    /// `simulate-unreachable`).
    pub fn open(
        workload: &Workload,
        leg: Leg,
        recorder: Arc<Recorder>,
        extra_offload_ini: &str,
    ) -> Result<Session, String> {
        let ini = format!(
            "[cloud]\nprovider = local\nstorage = s3://bench/jobs\n\
             [cluster]\nworkers = {WORKERS}\nvcpus-per-worker = {VCPUS_PER_WORKER}\n\
             task-cpus = {TASK_CPUS}\n\
             [offload]\nio-threads = {IO_THREADS}\n{}{}{}",
            workload.offload_ini,
            if leg == Leg::NoWanNoCodec {
                NO_CODEC_INI
            } else {
                ""
            },
            extra_offload_ini,
        );
        let config = CloudConfig::from_str(&ini).map_err(|e| e.to_string())?;
        let store: StoreHandle = Arc::new(SpanStore {
            inner: store_for(workload, leg),
            recorder: Arc::clone(&recorder),
        });
        let runtime = CloudRuntime::with_device(CloudDevice::with_store(config, store));
        Ok(Session { runtime, recorder })
    }

    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Offload one unit and block until its outputs are back: the timed
    /// call. A DAG unit is timed from its first `offload_nowait` to the
    /// return of `taskwait`.
    pub fn offload(&self, unit: &mut Unit) -> Raw {
        if unit.dag {
            for region in &unit.regions {
                self.runtime.offload_nowait(region.clone());
            }
            Raw::Dag(self.runtime.taskwait(&mut unit.env))
        } else {
            Raw::Region(self.runtime.offload(&unit.regions[0], &mut unit.env))
        }
    }

    /// Read the unit's reports (after the clock has stopped).
    pub fn inspect(&self, raw: Raw) -> UnitInfo {
        let mut info = UnitInfo::default();
        let profiles = match raw {
            Raw::Region(Ok(profile)) => vec![profile],
            Raw::Dag(Ok(report)) => {
                info.resident_regions = report
                    .profiles
                    .iter()
                    .filter(|p| p.bytes_to_device == 0)
                    .count() as f64;
                report.profiles
            }
            Raw::Region(Err(e)) | Raw::Dag(Err(e)) => {
                info.error = Some(e.to_string());
                return info;
            }
        };
        for p in &profiles {
            info.fell_back |= p.fallback_from.is_some();
            info.host_comm_s += p.host_comm_s;
            info.overhead_s += p.overhead_s;
            info.compute_s += p.compute_s;
            info.overlap_s += p.overlap_s;
            info.compress_busy_s += p.compress_busy_s;
            info.profile_total_s += p.total_s();
            info.bytes_to_device += p.bytes_to_device as f64;
            info.bytes_from_device += p.bytes_from_device as f64;
        }
        if let Some(report) = self.runtime.cloud().last_report() {
            for l in &report.loops {
                info.merge_s += l.merge_s;
                info.scatter_bytes += l.scatter_bytes as f64;
                info.broadcast_bytes += l.broadcast.bytes as f64;
                info.collect_bytes += l.collect_bytes as f64;
            }
            info.uploads_elided = f64::from(report.map_plan.uploads_elided());
            info.delta_dirty_tiles = f64::from(report.map_plan.delta_dirty_tiles());
            info.retries =
                f64::from(report.upload.total_retries() + report.download.total_retries());
        }
        info
    }

    /// Spark jobs this session's device has run so far.
    pub fn job_count(&self) -> usize {
        self.runtime.cloud().job_metrics().len()
    }

    /// Scheduler totals of every job after the first `skip`.
    pub fn job_totals(&self, skip: usize) -> JobTotals {
        let mut t = JobTotals::default();
        for m in self.runtime.cloud().job_metrics().iter().skip(skip) {
            t.jobs += 1.0;
            t.tasks += m.task_count() as f64;
            t.steals += m.steals as f64;
            t.speculated += m.spec_launched as f64;
            t.failed_attempts += m.failed_attempts as f64;
        }
        t
    }

    /// Stop the in-process cluster.
    pub fn close(self) {
        self.runtime.shutdown();
    }
}

// ---------------------------------------------------------------------
// Direct calls into single layers
// ---------------------------------------------------------------------

/// Single-thread codec work over a set of buffers.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecProbe {
    pub raw_bytes: f64,
    pub wire_bytes: f64,
    pub buffers: f64,
    /// Buffers `plan_wire` sends raw.
    pub raw_buffers: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    /// Raw bytes of the buffers that were encoded (and decoded).
    pub coded_bytes: f64,
    pub crc_s: f64,
}

/// `plan_wire`, `encode_wire`, decode and `crc32` over each buffer, on
/// this thread, with the transfer layer's default wire policy.
pub fn codec_probe(
    buffers: &[(String, Vec<u8>)],
    recorder: &Recorder,
) -> Result<CodecProbe, String> {
    let policy = gzlite::WirePolicy {
        threads: 1,
        ..gzlite::WirePolicy::default()
    };
    let mut probe = CodecProbe::default();
    for (_, raw) in buffers {
        let len = raw.len() as u64;
        probe.buffers += 1.0;
        probe.raw_bytes += len as f64;

        let t0 = recorder.now();
        let plan = gzlite::plan_wire(raw, &policy);
        recorder.span("compress.plan_wire", "", len, t0);
        if plan == gzlite::WirePlan::Raw {
            probe.raw_buffers += 1.0;
        }

        let t0 = recorder.now();
        let wire = gzlite::encode_wire(raw, &policy);
        let encode_s = recorder.now() - t0;
        recorder.span("compress.encode_wire", "", len, t0);

        match wire {
            Some(wire) => {
                probe.wire_bytes += wire.len() as f64;
                probe.coded_bytes += len as f64;
                probe.encode_s += encode_s;
                let t0 = recorder.now();
                let decoded = if gzlite::is_stream(&wire) {
                    gzlite::decompress_stream(&wire)
                } else {
                    gzlite::decompress(&wire)
                }
                .map_err(|e| format!("decode of a fresh frame failed: {e}"))?;
                probe.decode_s += recorder.now() - t0;
                recorder.span("compress.decompress", "", len, t0);
                if &decoded != raw {
                    return Err("codec round trip changed the payload".into());
                }
            }
            None => probe.wire_bytes += len as f64,
        }

        let t0 = recorder.now();
        std::hint::black_box(gzlite::crc32(std::hint::black_box(raw)));
        probe.crc_s += recorder.now() - t0;
        recorder.span("compress.crc32", "", len, t0);
    }
    Ok(probe)
}

/// `upload_fetch_pipelined` of `inputs`, then `download` of the same
/// keys, against a fresh store with the workload's latency and
/// bandwidth. Returns `(upload_s, download_s)`.
pub fn transfer_probe(
    workload: &Workload,
    inputs: Vec<(String, Vec<u8>)>,
    recorder: &Recorder,
) -> Result<(f64, f64), String> {
    let manager = TransferManager::new(
        store_for(workload, Leg::Full),
        TransferConfig {
            codec_threads: IO_THREADS,
            ..TransferConfig::default()
        },
    );
    let bytes: u64 = inputs.iter().map(|(_, b)| b.len() as u64).sum();
    let items: Vec<(String, Vec<u8>)> = inputs
        .into_iter()
        .map(|(name, b)| (format!("probe/in/{name}"), b))
        .collect();
    let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();

    let t0 = recorder.now();
    manager
        .upload_fetch_pipelined(items, Vec::new(), IO_THREADS)
        .map_err(|e| e.to_string())?;
    let upload_s = recorder.now() - t0;
    recorder.span("storage.upload_fetch_pipelined", "in", bytes, t0);

    let t0 = recorder.now();
    manager.download(keys).map_err(|e| e.to_string())?;
    let download_s = recorder.now() - t0;
    recorder.span("storage.download", "in", bytes, t0);
    Ok((upload_s, download_s))
}

/// Wall seconds of `reps` identity-map jobs of `tiles` one-element
/// partitions on a fresh context with the benchmark's cluster shape: the
/// scheduling floor of one job.
pub fn dispatch_probe(tiles: usize, reps: usize, recorder: &Recorder) -> Result<Vec<f64>, String> {
    let sc = SparkContext::new(SparkConf {
        task_cpus: TASK_CPUS,
        ..SparkConf::cluster(WORKERS, VCPUS_PER_WORKER)
    });
    let tiles = tiles.max(1);
    let rdd = sc.parallelize((0..tiles as u64).collect::<Vec<u64>>(), tiles);
    let mut walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = recorder.now();
        let out = rdd
            .map(std::hint::black_box::<u64>)
            .collect()
            .map_err(|e| format!("{e:?}"))?;
        walls.push(recorder.now() - t0);
        recorder.span("sparkle.identity_job", "", tiles as u64, t0);
        if out.len() != tiles {
            return Err(format!("identity job returned {} of {tiles}", out.len()));
        }
    }
    sc.stop();
    Ok(walls)
}

/// Seconds `DeltaLedger::diff` takes to compare `next` against a
/// committed `base` at 64 KiB tiles, and the dirty tiles it found.
pub fn delta_diff_probe(base: &[u8], next: &[u8], recorder: &Recorder) -> (f64, usize) {
    let mut ledger = DeltaLedger::new(ITER_TILE_ELEMS * 4);
    ledger.commit("x", base);
    let t0 = recorder.now();
    let diff = std::hint::black_box(ledger.diff("x", std::hint::black_box(next)));
    let seconds = recorder.now() - t0;
    recorder.span("core.delta_diff", "", next.len() as u64, t0);
    let dirty = match diff {
        ompcloud::DeltaDiff::Dirty(tiles) => tiles.len(),
        _ => 0,
    };
    (seconds, dirty)
}
