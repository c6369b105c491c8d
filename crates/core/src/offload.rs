//! Driver-side Spark job generation and execution — Eqs. 1–10 and Fig. 3
//! of the paper.
//!
//! For each `parallel for` of the target region the driver:
//!
//! 1. tiles the iteration space to the cluster size (Algorithm 1);
//! 2. builds `RDD_IN = ∪ {tile, V_IN(tile)}`: partitioned variables are
//!    sliced to each tile's hull and travel inside the RDD elements,
//!    unpartitioned variables are broadcast once per worker (Eqs. 1–3);
//! 3. applies the loop body as a `map` over the RDD — the worker-side
//!    shim plays the role of the JNI bridge, wrapping the byte partitions
//!    into typed views and invoking the native kernel per iteration
//!    (Eqs. 4–7);
//! 4. reconstructs each output variable: indexed writes for partitioned
//!    outputs, bitwise-OR for unpartitioned ones, or the declared
//!    reduction operator (Eqs. 8–10).
//!
//! Successive loops become successive map-reduce jobs over the same
//! cluster state, with intermediate variables staying in driver memory
//! (§III-D: "successive map-reduce transformations within the Spark
//! job").

use crate::cache::{Fingerprint, ResidencyMap};
use crate::config::CloudConfig;
use crate::tiling;
use omp_model::chunk::{chunk_outputs, merge_policy, run_chunk, MergeAcc, MergePolicy};
use omp_model::view::OutPart;
use omp_model::RedOp;
use omp_model::{
    DataEnv, ErasedSlice, ErasedVec, Inputs, OmpError, Outputs, ParallelLoop, TargetRegion,
};
use parking_lot::Mutex;
use sparkle::{BroadcastStats, JobOptions, SparkContext, SparkError};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One element of `RDD_IN`: a tile of iterations together with the
/// partitioned variable blocks it needs (Eq. 3) and the pre-allocated
/// private output buffers it will fill.
#[derive(Clone)]
struct TileDesc {
    /// Global tile index within the loop (stable across resume: a
    /// partial run dispatches a subset of tiles, so the RDD partition
    /// index no longer identifies the tile).
    tile_id: usize,
    iter_start: usize,
    iter_end: usize,
    /// `(var, base element, block)` for every partitioned input. The
    /// block is a zero-copy view sharing the driver's staged buffer.
    inputs: Vec<(String, usize, ErasedSlice)>,
    /// Identity/prefilled private buffer per output.
    outputs: Outputs,
}

/// One element of `RDD_OUT`: the tile's private output buffers (Eq. 7).
#[derive(Clone)]
struct TileOut {
    tile_id: usize,
    parts: Vec<OutPart>,
}

/// Per-loop execution statistics, feeding the offload report.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopStats {
    /// Tiles (= Spark tasks = JNI invocations) the loop ran as.
    pub tiles: usize,
    /// Broadcast distribution statistics for the unpartitioned inputs.
    pub broadcast: BroadcastStats,
    /// Bytes scattered to workers inside RDD elements.
    pub scatter_bytes: u64,
    /// Bytes of private outputs collected back to the driver.
    pub collect_bytes: u64,
    /// Parallel computation time (longest task of the map phase).
    pub compute_s: f64,
    /// Scheduling + collection overhead observed by the driver.
    pub overhead_s: f64,
    /// Driver time spent merging collected tile outputs.
    pub merge_s: f64,
    /// Portion of `merge_s` that ran concurrently with still-executing
    /// map tasks.
    pub overlap_s: f64,
    /// Tiles restored from the region journal instead of re-executed.
    pub tiles_resumed: usize,
    /// Tiles this run executed while resuming an interrupted region
    /// (0 when the journal was empty — a fresh run).
    pub tiles_replayed: usize,
}

/// Result of running all loops of a region on the cluster.
#[derive(Debug)]
pub struct JobOutcome {
    /// Cluster-side environment holding the final outputs.
    pub env: DataEnv,
    /// Per-loop statistics.
    pub loops: Vec<LoopStats>,
}

/// Execute every `parallel for` of `region` as successive Spark jobs
/// against `cluster_env` (the driver's copy of the uploaded inputs plus
/// zero-initialized output variables). `verified` holds the fingerprint
/// of each input stage-in has already checked.
pub fn run_spark_job(
    sc: &SparkContext,
    config: &CloudConfig,
    region: &TargetRegion,
    mut cluster_env: DataEnv,
    verified: &HashMap<String, Fingerprint>,
    residency: &Mutex<ResidencyMap>,
    recovery: Option<&crate::recovery::RegionRecovery>,
) -> Result<JobOutcome, OmpError> {
    let mut loops = Vec::with_capacity(region.loops.len());
    for (loop_idx, loop_) in region.loops.iter().enumerate() {
        let stats = run_loop(
            sc,
            config,
            region,
            loop_,
            loop_idx,
            &mut cluster_env,
            verified,
            residency,
            recovery,
        )?;
        loops.push(stats);
    }
    Ok(JobOutcome {
        env: cluster_env,
        loops,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_loop(
    sc: &SparkContext,
    config: &CloudConfig,
    region: &TargetRegion,
    loop_: &ParallelLoop,
    loop_idx: usize,
    cluster_env: &mut DataEnv,
    verified: &HashMap<String, Fingerprint>,
    residency: &Mutex<ResidencyMap>,
    recovery: Option<&crate::recovery::RegionRecovery>,
) -> Result<LoopStats, OmpError> {
    let t0 = Instant::now();
    let slots = config.total_slots();
    let tiles = tiling::tile_plan(loop_.trip_count, slots, config.tile_size);

    // Split the inputs: partitioned variables travel inside RDD elements,
    // the rest is broadcast whole (Eq. 2 / Listing 2 semantics). Each
    // variable's buffer is looked up once here instead of once per tile.
    let mut bcast_vars: HashMap<String, Arc<ErasedVec>> = HashMap::new();
    let mut bcast_bytes = 0u64;
    let mut scatter_specs = Vec::new();
    for m in region.input_maps() {
        let buf = cluster_env.get_erased(&m.name)?;
        match loop_.partitions.get(&m.name).filter(|s| s.is_indexed()) {
            Some(spec) => scatter_specs.push((m.name.clone(), *spec, Arc::clone(buf))),
            None => {
                bcast_bytes += buf.byte_len() as u64;
                bcast_vars.insert(m.name.clone(), Arc::clone(buf));
            }
        }
    }

    // Build RDD_IN (Eqs. 1–3): one element per tile. Partitioned inputs
    // become zero-copy slices of the shared staged buffers, so a tile
    // row costs O(outputs) instead of O(input bytes); rows are built in
    // parallel on the host pool because output pre-allocation (identity
    // buffers, prefilled hulls) is still O(bytes).
    let scatter_bytes = AtomicU64::new(0);
    let env: &DataEnv = cluster_env;
    let desc_slots: Vec<std::sync::Mutex<Option<Result<TileDesc, OmpError>>>> = (0..tiles.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    let build_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(tiles.len().max(1));
    omp_parfor::parallel_for_chunks(
        build_threads,
        tiles.len(),
        omp_parfor::Schedule::default(),
        |range| {
            for t in range {
                let iters = tiles[t].clone();
                let built = (|| {
                    let mut inputs = Vec::with_capacity(scatter_specs.len());
                    for (name, spec, buf) in &scatter_specs {
                        let hull = spec.range_for_tile(iters.clone(), buf.len())?;
                        let block = ErasedSlice::new(Arc::clone(buf), hull.clone());
                        scatter_bytes.fetch_add(block.byte_len() as u64, Ordering::Relaxed);
                        inputs.push((name.clone(), hull.start, block));
                    }
                    let outputs = chunk_outputs(region, loop_, env, iters.clone())?;
                    Ok(TileDesc {
                        tile_id: t,
                        iter_start: iters.start,
                        iter_end: iters.end,
                        inputs,
                        outputs,
                    })
                })();
                *desc_slots[t].lock().expect("slot lock") = Some(built);
            }
        },
    );
    let mut descs = Vec::with_capacity(tiles.len());
    for slot in desc_slots {
        descs.push(
            slot.into_inner()
                .expect("slot lock")
                .expect("slot filled")?,
        );
    }
    let scatter_bytes = scatter_bytes.into_inner();

    // Checkpoint/resume: tiles an interrupted earlier run already
    // completed are restored from the region journal and absorbed below
    // instead of re-executed; only the remainder is dispatched. The
    // fingerprint no longer pins the tile plan, so each marker's
    // recorded iteration hull is checked against what the current plan
    // cuts for that tile id — a marker from a differently-tiled run is
    // simply ignored and its iterations re-execute.
    let mut restored: Vec<(usize, (usize, usize), Vec<OutPart>)> = recovery
        .map(|r| r.restored_tiles(loop_idx))
        .unwrap_or_default();
    restored.retain(|(t, hull, _)| {
        tiles
            .get(*t)
            .is_some_and(|iters| (iters.start, iters.end) == *hull)
    });
    let restored_ids: HashSet<usize> = restored.iter().map(|(t, _, _)| *t).collect();
    let total_tiles = descs.len();
    let pending: Vec<TileDesc> = descs
        .into_iter()
        .filter(|d| !restored_ids.contains(&d.tile_id))
        .collect();
    let tiles_resumed = total_tiles - pending.len();
    let tiles_replayed = if tiles_resumed > 0 { pending.len() } else { 0 };

    if config.verbose {
        eprintln!(
            "[ompcloud] {}: loop {loop_idx}: {} iterations tiled to {} tasks on {} slots ({} B scattered, {} B broadcast{})",
            region.name,
            loop_.trip_count,
            total_tiles,
            slots,
            scatter_bytes,
            bcast_bytes,
            if tiles_resumed > 0 {
                format!(", {tiles_resumed} tiles resumed from journal")
            } else {
                String::new()
            }
        );
    }

    // Elastic scheduling of the map phase. The cluster-scope schedule
    // comes from the config knobs; an explicit `schedule(...)` clause on
    // the loop overrides the mode, reusing the host worksharing types at
    // cluster scope (dynamic -> dynamic dispatch, guided -> stealing).
    let mut options = JobOptions {
        mode: config.schedule,
        spec_factor: config.spec_factor,
        locality_wait: Duration::from_millis(config.locality_wait_ms),
        quarantine: config.quarantine_config(),
        heartbeat_miss: Duration::from_millis(config.quarantine_heartbeat_ms),
        tenant: region.tenant.to_string(),
    };
    if loop_.schedule != omp_parfor::Schedule::default() {
        options.mode = loop_.schedule.into();
    }
    sc.set_job_options(options);

    // Locality hints from the previous offload of the same data: a tile
    // whose scattered inputs were last deserialized on executor `e` is
    // seeded there and shielded from thieves for the delay-scheduling
    // window. Whole-variable fingerprints guard against mutation between
    // offloads — a changed buffer silently drops its stale residency.
    // What stage-in has just checked against its fingerprint (`verified`:
    // a resident input) is not checksummed again — by the first loop,
    // that is: a later one may read what an earlier one rewrote.
    let scatter_fps: HashMap<String, Fingerprint> = scatter_specs
        .iter()
        .map(|(name, _, buf)| {
            let known = verified.get(name).filter(|_| loop_idx == 0).copied();
            let fp = known.unwrap_or_else(|| Fingerprint::of_erased(buf));
            (name.clone(), fp)
        })
        .collect();
    let tile_hulls: Vec<Vec<(String, usize, usize)>> = pending
        .iter()
        .map(|d| {
            d.inputs
                .iter()
                .map(|(name, base, block)| (name.clone(), *base, *base + block.len()))
                .collect()
        })
        .collect();
    {
        let mut res = residency.lock();
        for (name, fp) in &scatter_fps {
            res.refresh_var(name, *fp);
        }
        if !res.is_empty() {
            let hints: Vec<Option<usize>> = tile_hulls
                .iter()
                .map(|hulls| {
                    hulls
                        .iter()
                        .filter_map(|(name, s, e)| {
                            res.lookup(name, *scatter_fps.get(name)?, *s, *e)
                        })
                        .next()
                })
                .collect();
            if hints.iter().any(Option::is_some) {
                sc.set_next_job_locality(hints);
            }
        }
    }

    // Broadcast the shared inputs (BitTorrent-style accounting).
    let bcast = sc.broadcast(bcast_vars, bcast_bytes);
    let bcast_stats = bcast.stats();
    let bcast_handle = bcast.handle();

    // The map transformation (Eqs. 4–7): worker-side JNI shim.
    let body = Arc::clone(&loop_.body);
    let ntiles = pending.len().max(1);
    let rdd = sc.parallelize(pending, ntiles);
    let mapped = rdd.map(move |tile: TileDesc| {
        let tile_id = tile.tile_id;
        // Fill the tile's input table once — scattered blocks at their
        // hull base, broadcast buffers whole — then make the one "JNI
        // invocation": the per-tile loop the host device runs too.
        let mut ins = Inputs::new();
        for (name, base, block) in tile.inputs {
            ins.add_slice(name, base, block);
        }
        for (name, buf) in bcast_handle.iter() {
            ins.add(name.clone(), 0, Arc::clone(buf));
        }
        let mut outs = tile.outputs;
        run_chunk(&body, tile.iter_start..tile.iter_end, &ins, &mut outs);
        TileOut {
            tile_id,
            parts: outs.into_parts(),
        }
    });

    // Cache RDD_OUT so the reconstruction actions below reuse the map
    // results instead of re-running the kernels.
    let out_rdd = mapped.cache();

    // The distributed reduce (when enabled) combines every non-indexed
    // output on the executors, so the driver-side merge must skip those
    // variables. The set is known *before* the job runs: a variable no
    // tile touches is skipped by `absorb` and left unwritten by the
    // reduce alike, so pre-computing the set is equivalent to the old
    // post-collect filter — and it lets the merge start streaming.
    // When resuming, restored tiles exist only on the driver — they can't
    // contribute to an executor-side reduce — so the whole loop merges
    // driver-side. Fresh runs keep the configured behavior.
    let use_dist_reduce = config.distributed_reduce && tiles_resumed == 0;
    let mut dist_reduce_vars: HashSet<String> = HashSet::new();
    if use_dist_reduce {
        for m in region.output_maps() {
            if merge_policy(loop_, &m.name) != MergePolicy::Indexed {
                dist_reduce_vars.insert(m.name.clone());
            }
        }
    }

    // Reconstruction (Eqs. 8–10), driver side: indexed writes absorbed
    // into the accumulator as each tile *arrives*, overlapping the tail
    // of the map phase — where the paper collects everything first.
    let mut acc = MergeAcc::new(region, loop_, cluster_env)?;
    let mut collect_bytes = 0u64;
    let mut merge_s = 0.0f64;
    let mut last_absorb_s = 0.0f64;
    // Restored tiles are absorbed first (absorption order is irrelevant:
    // indexed writes are disjoint, reductions commute). They were never
    // collected from the cluster this run, so they don't count toward
    // `collect_bytes`.
    for (_tile, _hull, parts) in &restored {
        acc.absorb(parts.clone());
    }
    out_rdd
        .for_each_partition(|_p, tile_outs: &[TileOut]| {
            let ta = Instant::now();
            for tile_out in tile_outs {
                if let Some(rec) = recovery {
                    let iters = &tiles[tile_out.tile_id];
                    rec.record_tile(
                        loop_idx,
                        tile_out.tile_id,
                        (iters.start, iters.end),
                        &tile_out.parts,
                    );
                }
                collect_bytes += tile_out
                    .parts
                    .iter()
                    .map(|p| p.data.byte_len() as u64)
                    .sum::<u64>();
                let parts = tile_out
                    .parts
                    .iter()
                    .filter(|p| !dist_reduce_vars.contains(&p.name))
                    .cloned()
                    .collect::<Vec<_>>();
                acc.absorb(parts);
            }
            last_absorb_s = ta.elapsed().as_secs_f64();
            merge_s += last_absorb_s;
        })
        .map_err(spark_err)?;
    let metrics = sc.last_job_metrics();
    // Record where each tile's inputs ended up: the winning attempt's
    // executor deserialized them, so the next offload over unchanged
    // data can hint the tile back to that executor.
    if let Some(m) = metrics.as_ref() {
        let mut res = residency.lock();
        for t in &m.tasks {
            if let Some(hulls) = tile_hulls.get(t.task) {
                for (name, s, e) in hulls {
                    if let Some(fp) = scatter_fps.get(name) {
                        res.record(name, *fp, *s, *e, t.executor);
                    }
                }
            }
        }
    }
    acc.finish(cluster_env)?;

    // Distributed `REDUCE(RDD_OUT, l, op)` on the executors, exactly
    // Eq. 8 — reuses the cached map results filled in by the collect.
    if use_dist_reduce {
        for m in region.output_maps() {
            if !dist_reduce_vars.contains(&m.name) {
                continue;
            }
            let policy = merge_policy(loop_, &m.name);
            let op = match policy {
                MergePolicy::Indexed => continue,
                MergePolicy::BitOr => RedOp::BitOr,
                MergePolicy::Reduce(op) => op,
            };
            let name = m.name.clone();
            let var = name.clone();
            let partials = out_rdd
                .map(move |tile: TileOut| {
                    tile.parts
                        .into_iter()
                        .find(|p| p.name == var && p.touched)
                        .map(|p| p.data)
                })
                .reduce(move |a, b| match (a, b) {
                    (Some(mut x), Some(y)) => {
                        x.reduce_assign(&y, op);
                        Some(x)
                    }
                    (x, None) => x,
                    (None, y) => y,
                })
                .map_err(spark_err)?
                .flatten();
            if let Some(mut combined) = partials {
                if let MergePolicy::Reduce(op) = policy {
                    // OpenMP reductions include the original value once.
                    let original = (**cluster_env.get_erased(&name)?).clone();
                    combined.reduce_assign(&original, op);
                }
                cluster_env.write_back(&name, combined)?;
            }
        }
    }

    let wall = t0.elapsed().as_secs_f64();
    let compute_s = metrics
        .as_ref()
        .map(|m| m.max_task_seconds())
        .unwrap_or(0.0);
    // Every absorb except the final arrival's ran while map tasks were
    // still in flight.
    let overlap_s = (merge_s - last_absorb_s).max(0.0);
    Ok(LoopStats {
        tiles: tiles.len(),
        broadcast: bcast_stats,
        scatter_bytes,
        collect_bytes,
        compute_s,
        overhead_s: (wall - compute_s).max(0.0),
        merge_s,
        overlap_s,
        tiles_resumed,
        tiles_replayed,
    })
}

fn spark_err(e: SparkError) -> OmpError {
    OmpError::Plugin {
        device: "cloud".into(),
        detail: e.to_string(),
    }
}
