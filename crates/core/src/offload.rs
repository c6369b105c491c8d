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
//!    into typed views and invoking the native kernel once per tile
//!    (Eqs. 4–7);
//! 4. reconstructs each output variable: indexed writes for partitioned
//!    outputs, bitwise-OR for unpartitioned ones, or the declared
//!    reduction operator (Eqs. 8–10).
//!
//! Successive loops become successive map-reduce jobs over the same
//! cluster state, with intermediate variables staying in driver memory
//! (§III-D: "successive map-reduce transformations within the Spark
//! job").

use crate::config::CloudConfig;
use crate::tiling;
use omp_model::chunk::{chunk_outputs, merge_policy, run_chunk, MergeAcc, MergePolicy};
use omp_model::view::OutPart;
use omp_model::{DataEnv, ErasedSlice, ErasedVec, Inputs, OmpError, ParallelLoop, TargetRegion};
use sparkle::{BroadcastStats, JobOptions, SparkContext, SparkError};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One element of `RDD_IN`: a tile of iterations together with the
/// partitioned variable blocks it needs (Eq. 3). Its private output
/// buffers are not in it: the task that fills them allocates them
/// (`chunk_outputs` over the tile's iterations), so a descriptor is
/// O(inputs) to build, clone and ship, and a retried or speculated
/// attempt starts from fresh buffers.
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
/// zero-initialized output variables).
pub fn run_spark_job(
    sc: &SparkContext,
    config: &CloudConfig,
    region: &TargetRegion,
    mut cluster_env: DataEnv,
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
            recovery,
        )?;
        loops.push(stats);
    }
    Ok(JobOutcome {
        env: cluster_env,
        loops,
    })
}

fn run_loop(
    sc: &SparkContext,
    config: &CloudConfig,
    region: &TargetRegion,
    loop_: &ParallelLoop,
    loop_idx: usize,
    cluster_env: &mut DataEnv,
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
    // row costs O(inputs + outputs). The outputs' hulls are only checked
    // here — a bad partition fails on the driver before any task runs —
    // and each task allocates its own buffers.
    let out_specs: Vec<_> = region
        .output_maps()
        .filter(|m| merge_policy(loop_, &m.name) == MergePolicy::Indexed)
        .map(|m| {
            let spec = *loop_
                .partitions
                .get(&m.name)
                .expect("indexed implies a spec");
            Ok((spec, cluster_env.get_erased(&m.name)?.len()))
        })
        .collect::<Result<_, OmpError>>()?;
    let mut scatter_bytes = 0u64;
    let mut descs = Vec::with_capacity(tiles.len());
    for (t, iters) in tiles.iter().enumerate() {
        for (spec, len) in &out_specs {
            spec.range_for_tile(iters.clone(), *len)?;
        }
        let mut inputs = Vec::with_capacity(scatter_specs.len());
        for (name, spec, buf) in &scatter_specs {
            let hull = spec.range_for_tile(iters.clone(), buf.len())?;
            let block = ErasedSlice::new(Arc::clone(buf), hull.clone());
            scatter_bytes += block.byte_len() as u64;
            inputs.push((name.clone(), hull.start, block));
        }
        descs.push(TileDesc {
            tile_id: t,
            iter_start: iters.start,
            iter_end: iters.end,
            inputs,
        });
    }

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
        quarantine: config.quarantine_config(),
        heartbeat_miss: Duration::from_millis(config.quarantine_heartbeat_ms),
        tenant: region.tenant.to_string(),
    };
    if loop_.schedule != omp_parfor::Schedule::default() {
        options.mode = loop_.schedule.into();
    }
    sc.set_job_options(options);

    // Broadcast the shared inputs (BitTorrent-style accounting).
    let bcast = sc.broadcast(bcast_vars, bcast_bytes);
    let bcast_stats = bcast.stats();
    let bcast_handle = bcast.handle();

    // The map transformation (Eqs. 4–7): worker-side JNI shim. The task
    // shares the region and the driver's environment (buffer handles, no
    // bytes) to allocate its outputs the way the host device does.
    let shared = Arc::new((region.clone(), cluster_env.clone()));
    let ntiles = pending.len().max(1);
    let rdd = sc.parallelize(pending, ntiles);
    let mapped = rdd.map(move |tile: TileDesc| {
        let (region, env) = &*shared;
        let loop_ = &region.loops[loop_idx];
        let tile_id = tile.tile_id;
        let iters = tile.iter_start..tile.iter_end;
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
        let mut outs = chunk_outputs(region, loop_, env, iters.clone())
            .expect("output hulls were checked when the tiles were built");
        run_chunk(&loop_.body, iters, &ins, &mut outs);
        TileOut {
            tile_id,
            parts: outs.into_parts(),
        }
    });

    // Reconstruction (Eqs. 8–10), driver side: every output is absorbed
    // into the accumulator as each tile *arrives*, overlapping the tail
    // of the map phase — where the paper collects everything first — and
    // the tile is dropped once absorbed. Reduction parts fold in tile
    // order (`MergeAcc`), so their bits do not depend on arrival order.
    let mut acc = MergeAcc::new(region, loop_, cluster_env)?;
    let mut collect_bytes = 0u64;
    let mut merge_s = 0.0f64;
    let mut last_absorb_s = 0.0f64;
    // Restored tiles enter the same tile order by their id. They were
    // never collected from the cluster this run, so they don't count
    // toward `collect_bytes`.
    for (tile, _hull, parts) in restored {
        acc.absorb(tile, parts);
    }
    mapped
        .for_each_partition(|_p, tile_outs: Vec<TileOut>| {
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
                acc.absorb(tile_out.tile_id, tile_out.parts);
            }
            last_absorb_s = ta.elapsed().as_secs_f64();
            merge_s += last_absorb_s;
        })
        .map_err(spark_err)?;
    let metrics = sc.last_job_metrics();
    acc.finish(cluster_env)?;

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

#[cfg(test)]
mod tests {
    use super::*;
    use omp_model::chunk::execute_loop_chunked;
    use omp_model::{DeviceSelector, PartitionSpec};
    use sparkle::SparkConf;
    use std::sync::atomic::{AtomicBool, Ordering};

    const LEN: usize = 6 * 1024;

    /// `y[i] = y[i] * 0.5 + 1`, which a retry would apply twice to the
    /// elements an earlier attempt wrote if it found that attempt's
    /// buffer. The first run of iteration 100 kills executor 0 and then
    /// fails its attempt, after writing the tile's elements before it;
    /// every 256th iteration naps, so a tile on the slowed executor 1
    /// lags long enough to be speculated.
    fn halving(sc: SparkContext, fired: Arc<AtomicBool>) -> TargetRegion {
        TargetRegion::builder("halving")
            .device(DeviceSelector::Default)
            .map_tofrom("y")
            .parallel_for(LEN, move |l| {
                l.partition("y", PartitionSpec::rows(1))
                    .body(move |i, ins, outs| {
                        if i % 256 == 0 {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        let y = ins.view::<f32>("y")[i];
                        outs.view_mut::<f32>("y")[i] = y * 0.5 + 1.0;
                        if i == 100 && !fired.swap(true, Ordering::SeqCst) {
                            sc.kill_executor(0);
                            panic!("the attempt dies mid-tile");
                        }
                    })
            })
            .build()
            .expect("a valid region")
    }

    #[test]
    fn a_retried_or_speculated_tile_starts_from_fresh_outputs() {
        let config = CloudConfig {
            workers: 3,
            vcpus_per_worker: 4,
            task_cpus: 2,
            spec_factor: 1.5,
            ..CloudConfig::default()
        };
        let sc = SparkContext::new(SparkConf::cluster(3, 4));
        sc.set_executor_slow_factor(1, 20.0);
        let fired = Arc::new(AtomicBool::new(false));
        let region = halving(sc.clone(), Arc::clone(&fired));
        let mut env = DataEnv::new();
        env.insert("y", (0..LEN).map(|i| i as f32).collect::<Vec<_>>());
        let mut host = env.clone();

        let outcome = run_spark_job(&sc, &config, &region, env, None).unwrap();
        let metrics = sc.last_job_metrics().expect("one job ran");
        // Iteration 100 is tile 0's; its first attempt died there.
        assert!(fired.load(Ordering::SeqCst));
        let tile0 = metrics.tasks.iter().find(|t| t.task == 0);
        assert!(tile0.is_some_and(|t| t.attempt >= 1), "{metrics:?}");
        assert!(metrics.spec_launched >= 1, "{metrics:?}");

        execute_loop_chunked(&region, &region.loops[0], &mut host, 1).unwrap();
        let cloud = outcome.env.get::<f32>("y").unwrap();
        let host = host.get::<f32>("y").unwrap();
        assert!(
            cloud
                .iter()
                .zip(host)
                .all(|(c, h)| c.to_bits() == h.to_bits()),
            "the cloud's y differs from the host's"
        );
        sc.stop();
    }
}
