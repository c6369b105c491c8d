//! The two kinds of run of one workload: the timed run (tracing off, the
//! end-to-end metrics) and the traced run (spans on, ablation legs and
//! direct layer calls, the per-layer metrics).
//!
//! Load shape of both: a closed loop with one client. An OpenMP host
//! thread blocks at a `target` region, so unit `i + 1` is issued only
//! when unit `i` has returned. Inputs and the host reference of a unit
//! are made before its clock starts and its outputs are checked after
//! the clock stops.

use crate::bind::{self, Generator, Json, Leg, Reference, Session, Unit, UnitInfo};
use crate::proc;
use crate::stats::{interval_union, mean, median, percentile, tail_percentile};
use crate::trace::{self, Recorder, StoreCounts};
use crate::workloads::{Shape, Workload};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Fresh processes a timed run has set up besides itself; `setup_s` is the
/// median over all of them, each the first set-up its process ever made.
pub const SETUP_CHILDREN: usize = 2;
/// Timed units every run measures at least, and the fixed window over
/// which the exact store counts are taken: the same seed then gives the
/// same `wire_bytes_per_unit` and `store_ops_per_unit` however many more
/// units the time budget allowed.
pub const EXACT_WINDOW: usize = 20;
/// Units every leg of the traced run measures at least: the fewest for
/// which the tail rule reports p75 (ten samples beyond it).
pub const TRACED_MIN_UNITS: usize = 40;
/// Share of the traced run's seconds spent in the interleaved legs; the
/// rest is left to the direct layer calls.
const TRACED_LEG_SHARE: f64 = 0.85;
/// A paper kernel runs its host legs on every this-many-th unit (they
/// cost as much as the offload itself).
const HOST_LEG_EVERY: usize = 4;
/// Identity jobs the scheduling-floor probe runs.
const DISPATCH_REPS: usize = 30;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// No unit failed.
    pub correct: bool,
    /// Units offloaded or run on a host leg, warm-up included.
    pub attempted: u64,
    /// Units that returned `Err`, fell back to the host, or whose
    /// outputs differ from the host reference.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::Str(m.unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// How long a run measures, and the fewest units it measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_units: usize,
}

/// Ways the selftest breaks a run to see the oracle catch it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sabotage {
    /// Make the output of this timed unit wrong after it returns.
    pub flip_unit: Option<usize>,
    /// Configure the cloud as unreachable: every unit falls back.
    pub unreachable: bool,
}

struct Sample {
    wall_s: f64,
    cpu_s: f64,
    ok: bool,
    info: UnitInfo,
    counts: StoreCounts,
}

/// Offload `unit` on `session`, timed, then inspect and verify it.
fn run_unit(
    session: &Session,
    mut unit: Unit,
    reference: &Reference,
    index: u64,
    flip: bool,
) -> (Sample, Unit) {
    let recorder = session.recorder();
    let before = recorder.counts();
    recorder.begin_unit(index);
    let cpu0 = proc::cpu_seconds();
    let t = Instant::now();
    let raw = session.offload(&mut unit);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = proc::cpu_seconds() - cpu0;
    recorder.end_unit();
    let counts = recorder.counts().since(&before);
    let info = session.inspect(raw);
    if flip {
        unit.flip_output_element();
    }
    let ok = info.error.is_none() && !info.fell_back && unit.matches(reference);
    if let Some(e) = &info.error {
        eprintln!("unit {index}: offload failed: {e}");
    }
    let sample = Sample {
        wall_s,
        cpu_s,
        ok,
        info,
        counts,
    };
    (sample, unit)
}

fn walls(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.wall_s).collect()
}

fn failures(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| !s.ok).count() as u64
}

/// What one set-up cost, and how its warm-up units fared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    /// INI parse, store, device and registry, executor start and the
    /// warm-up units; not the making of their inputs and references.
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Set the workload up: open a session and run the warm-up units.
fn set_up(
    workload: &Workload,
    seed: u64,
    extra_ini: &str,
) -> Result<(Session, Generator, Setup), String> {
    let t = Instant::now();
    let session = Session::open(
        workload,
        Leg::Full,
        Arc::new(Recorder::counting()),
        extra_ini,
    )?;
    let mut setup = Setup {
        seconds: t.elapsed().as_secs_f64(),
        attempted: 0,
        failed: 0,
    };
    let mut generator = Generator::new(workload.shape, seed);
    for i in 0..workload.warmup_units() {
        let unit = generator.next_unit();
        let reference = unit.reference()?;
        let (sample, _) = run_unit(&session, unit, &reference, i as u64, false);
        setup.seconds += sample.wall_s;
        setup.attempted += 1;
        setup.failed += u64::from(!sample.ok);
    }
    Ok((session, generator, setup))
}

/// Set the workload up and tear it down again. What a process started
/// for nothing else runs: its cost is that of a cold start (first executor
/// start, lazy initialisation, first touch of every page).
pub fn cold_setup(workload: &Workload, seed: u64) -> Result<Setup, String> {
    let (session, _, setup) = set_up(workload, seed, "")?;
    session.close();
    Ok(setup)
}

/// The timed run: tracing off, the end-to-end metrics. `other_setups` are
/// the cold set-ups of other processes; `setup_s` is the median of them
/// and this run's own, which is cold in the first run of a process.
pub fn timed_run(
    workload: &Workload,
    seed: u64,
    budget: Budget,
    sabotage: Sabotage,
    other_setups: &[Setup],
) -> Result<RunResult, String> {
    let extra_ini = if sabotage.unreachable {
        "simulate-unreachable = true\n"
    } else {
        ""
    };
    let (session, mut generator, own_setup) = set_up(workload, seed, extra_ini)?;
    let setups: Vec<Setup> = other_setups
        .iter()
        .copied()
        .chain(std::iter::once(own_setup))
        .collect();
    let mut attempted: u64 = setups.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = setups.iter().map(|s| s.failed).sum();
    let setup_seconds: Vec<f64> = setups.iter().map(|s| s.seconds).collect();

    let mut samples: Vec<Sample> = Vec::new();
    let mut timed_s = 0.0;
    while timed_s < budget.seconds || samples.len() < budget.min_units {
        let unit = generator.next_unit();
        let reference = unit.reference()?;
        let index = (workload.warmup_units() + samples.len()) as u64;
        let flip = sabotage.flip_unit == Some(samples.len());
        let (sample, _) = run_unit(&session, unit, &reference, index, flip);
        timed_s += sample.wall_s;
        samples.push(sample);
    }
    session.close();
    attempted += samples.len() as u64;
    failed += failures(&samples);

    let units = samples.len() as f64;
    let window = &samples[..samples.len().min(EXACT_WINDOW)];
    let window_bytes: u64 = window.iter().map(|s| s.counts.bytes()).sum();
    let window_ops: u64 = window.iter().map(|s| s.counts.ops()).sum();
    let cpu_s: f64 = samples.iter().map(|s| s.cpu_s).sum();
    let metrics = vec![
        metric("offload_wall_s", median(&walls(&samples)), "s"),
        metric("units_per_s", units / timed_s, "1/s"),
        metric("cpu_s_per_unit", cpu_s / units, "s"),
        metric(
            "wire_bytes_per_unit",
            window_bytes as f64 / window.len() as f64,
            "bytes",
        ),
        metric(
            "store_ops_per_unit",
            window_ops as f64 / window.len() as f64,
            "count",
        ),
        metric("peak_rss_mb", proc::peak_rss_mb(), "MiB"),
        metric("setup_s", median(&setup_seconds), "s"),
    ];
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// One interleaved leg of the traced run.
struct LegRun {
    session: Session,
    samples: Vec<Sample>,
    jobs_before: usize,
}

impl LegRun {
    fn open(workload: &Workload, leg: Leg, recorder: Recorder) -> Result<LegRun, String> {
        Ok(LegRun {
            session: Session::open(workload, leg, Arc::new(recorder), "")?,
            samples: Vec::new(),
            jobs_before: 0,
        })
    }

    fn median_wall(&self) -> f64 {
        median(&walls(&self.samples))
    }
}

/// Offload `unit` once on every leg, alternating which side of each
/// pair goes first; returns the unit as the first leg's offload left it.
fn run_round(legs: &mut [LegRun; 4], unit: &Unit, reference: &Reference, index: usize) -> Unit {
    let order = if index.is_multiple_of(2) {
        [0, 1, 2, 3]
    } else {
        [1, 0, 3, 2]
    };
    let mut offloaded = None;
    for l in order {
        let (sample, after) = run_unit(
            &legs[l].session,
            unit.clone(),
            reference,
            index as u64,
            false,
        );
        legs[l].samples.push(sample);
        offloaded.get_or_insert(after);
    }
    offloaded.expect("four legs ran")
}

fn median_of(samples: &[Sample], field: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(field).collect::<Vec<f64>>())
}

fn mean_of(samples: &[Sample], field: impl Fn(&Sample) -> f64) -> f64 {
    mean(&samples.iter().map(field).collect::<Vec<f64>>())
}

/// `num / den`, or 0 when the denominator never occurred.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: the per-layer metrics, measured from outside.
///
/// Four sessions take the same units in turn — the workload as defined
/// with spans off and with spans on (their difference is the tracing
/// overhead), the bare store (`nowan`), and the bare store without the
/// codec (`nowan-nocodec`) — so one host reference serves four offloads
/// and drift over the run falls on all legs alike. Then each layer's
/// public functions are called directly on the last unit's buffers.
/// Spans are written to `trace_path` as Chrome-trace events at the end.
pub fn traced_run(
    workload: &Workload,
    seed: u64,
    budget: Budget,
    trace_path: Option<&Path>,
) -> Result<RunResult, String> {
    let mut legs = [
        LegRun::open(workload, Leg::Full, Recorder::counting())?,
        LegRun::open(workload, Leg::Full, Recorder::tracing())?,
        LegRun::open(workload, Leg::NoWan, Recorder::counting())?,
        LegRun::open(workload, Leg::NoWanNoCodec, Recorder::counting())?,
    ];
    const PLAIN: usize = 0;
    const TRACED: usize = 1;
    const NOWAN: usize = 2;
    const NOCODEC: usize = 3;

    let is_kernel = matches!(workload.shape, Shape::Kernel { .. });
    let mut generator = Generator::new(workload.shape, seed);
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let warmup = workload.warmup_units();
    for index in 0..warmup {
        let unit = generator.next_unit();
        let reference = unit.reference()?;
        run_round(&mut legs, &unit, &reference, index);
    }
    // The first unit a runtime ever offloads (round 0 of the iterative
    // workload): what a unit costs in bytes before anything is cached.
    let cold_unit_bytes = legs[TRACED].samples[0].counts.bytes() as f64;
    for leg in &mut legs {
        attempted += leg.samples.len() as u64;
        failed += failures(&leg.samples);
        leg.samples.clear();
        leg.jobs_before = leg.session.job_count();
    }

    let mut reference_s = Vec::new();
    let mut host_seq_s = Vec::new();
    let mut host_threads_s = Vec::new();
    // The last unit as generated and as the offload left it.
    let mut last_unit = None;
    let mut spent = 0.0;
    let mut measured = 0usize;
    while spent < budget.seconds * TRACED_LEG_SHARE || measured < budget.min_units {
        let unit = generator.next_unit();
        let reference = unit.reference()?;
        let offloaded = run_round(&mut legs, &unit, &reference, warmup + measured);
        spent += legs.iter().map(|l| l.samples[measured].wall_s).sum::<f64>();

        // Host legs. The sequential host run of a synthetic shape is its
        // reference: already run, already timed. A paper kernel's host
        // legs cost as much as its offload, so they run on a few units.
        let on_schedule = measured.is_multiple_of(HOST_LEG_EVERY);
        let mut host_leg = |threads: usize, walls: &mut Vec<f64>| -> Result<(), String> {
            let mut on_host = unit.clone();
            let wall = on_host.run_on_host(threads)?;
            attempted += 1;
            failed += u64::from(!on_host.matches(&reference));
            spent += wall;
            walls.push(wall);
            Ok(())
        };
        if is_kernel {
            reference_s.push(reference.kernel_reference_s);
            if on_schedule {
                host_leg(1, &mut host_seq_s)?;
            }
        } else {
            host_seq_s.push(reference.host_seq_s);
        }
        if on_schedule {
            host_leg(proc::nproc(), &mut host_threads_s)?;
        }
        last_unit = Some((unit, offloaded));
        measured += 1;
    }
    for leg in &legs {
        attempted += leg.samples.len() as u64;
        failed += failures(&leg.samples);
    }

    // Direct layer calls, one span per call, under the last unit.
    let recorder = legs[TRACED].session.recorder();
    let (before, after) = last_unit.ok_or("traced run measured no unit")?;
    let mut buffers = before.input_buffers();
    buffers.extend(after.output_buffers());
    let codec = bind::codec_probe(&buffers, recorder)?;
    let (upload_s, download_s) = bind::transfer_probe(workload, before.input_buffers(), recorder)?;
    let jobs = legs[TRACED].session.job_totals(legs[TRACED].jobs_before);
    let tiles_per_job = ratio(jobs.tasks, jobs.jobs).round().max(1.0) as usize;
    let dispatch = bind::dispatch_probe(tiles_per_job, DISPATCH_REPS, recorder)?;
    let delta_diff_mb_s = if workload.shape == Shape::Iterative {
        // Diff the next round's `x` against this round's.
        let base = before.input_buffers().swap_remove(0).1;
        let next = generator.next_unit().input_buffers().swap_remove(0).1;
        let (seconds, dirty) = bind::delta_diff_probe(&base, &next, recorder);
        if dirty == 0 {
            return Err("delta diff found no dirty tile between two rounds".into());
        }
        ratio(next.len() as f64 / 1e6, seconds)
    } else {
        0.0
    };

    // Folds.
    let plain = &legs[PLAIN];
    let traced = &legs[TRACED];
    let units = traced.samples.len() as f64;
    let wall_plain = plain.median_wall();
    let wall_traced = traced.median_wall();
    let wall_nowan = legs[NOWAN].median_wall();
    let wall_nocodec = legs[NOCODEC].median_wall();
    let plain_walls = walls(&plain.samples);
    let tail_pct = tail_percentile(plain_walls.len());

    let spans = recorder.spans();
    let by_unit = trace::store_intervals_by_unit(&spans);
    let mut busy = Vec::new();
    let mut idle = Vec::new();
    let mut max_inflight = 0usize;
    for (i, s) in traced.samples.iter().enumerate() {
        let (b, peak) = by_unit
            .get(&((warmup + i) as u64))
            .map_or((0.0, 0), |iv| interval_union(iv));
        busy.push(b);
        idle.push((s.wall_s - b).max(0.0));
        max_inflight = max_inflight.max(peak);
    }

    let put_ops = mean_of(&traced.samples, |s| s.counts.puts as f64);
    let get_ops = mean_of(&traced.samples, |s| s.counts.gets as f64);
    let put_bytes = mean_of(&traced.samples, |s| s.counts.put_bytes as f64);
    let get_bytes = mean_of(&traced.samples, |s| s.counts.get_bytes as f64);
    let wan_floor_s = if workload.latency_ms == 0 {
        0.0
    } else {
        let rounds = ((put_ops + get_ops) / bind::IO_THREADS as f64).ceil();
        workload
            .bandwidth
            .map_or(0.0, |bw| (put_bytes + get_bytes) / bw)
            + rounds * workload.latency_ms as f64 / 1e3
    };

    let host_seq = median(&host_seq_s);
    let kernel_reference_s = if is_kernel { median(&reference_s) } else { 0.0 };
    let compute_s = median_of(&traced.samples, |s| s.info.compute_s);
    let unattributed_s = median_of(&traced.samples, |s| s.wall_s - s.info.profile_total_s);
    let flops = before.flops();

    let metrics = vec![
        metric(
            "omp.offload_wall_tail_s",
            percentile(&plain_walls, tail_pct),
            "s",
        ),
        metric("omp.offload_wall_tail_pct", tail_pct, "%"),
        metric("omp.host_seq_s", host_seq, "s"),
        metric(
            "omp.speedup_vs_host_seq",
            ratio(host_seq, wall_plain),
            "ratio",
        ),
        metric(
            "omp.view_overhead_ratio",
            ratio(host_seq, kernel_reference_s),
            "ratio",
        ),
        metric(
            "omp.dag_barrier_s",
            if workload.shape == Shape::Chain {
                unattributed_s
            } else {
                0.0
            },
            "s",
        ),
        metric("parfor.host_threads_s", median(&host_threads_s), "s"),
        metric(
            "compress.encode_mb_s",
            ratio(codec.coded_bytes / 1e6, codec.encode_s),
            "MB/s",
        ),
        metric(
            "compress.decode_mb_s",
            ratio(codec.coded_bytes / 1e6, codec.decode_s),
            "MB/s",
        ),
        metric(
            "compress.crc32_mb_s",
            ratio(codec.raw_bytes / 1e6, codec.crc_s),
            "MB/s",
        ),
        metric(
            "compress.ratio",
            ratio(codec.wire_bytes, codec.raw_bytes),
            "ratio",
        ),
        metric(
            "compress.raw_frac",
            ratio(codec.raw_buffers, codec.buffers),
            "fraction",
        ),
        metric(
            "compress.busy_s",
            median_of(&traced.samples, |s| s.info.compress_busy_s),
            "s",
        ),
        metric("compress.exposed_s", wall_nowan - wall_nocodec, "s"),
        metric("storage.put_ops", put_ops, "count"),
        metric("storage.get_ops", get_ops, "count"),
        metric("storage.put_bytes", put_bytes, "bytes"),
        metric("storage.get_bytes", get_bytes, "bytes"),
        metric("storage.cold_unit_bytes", cold_unit_bytes, "bytes"),
        metric("storage.busy_s", median(&busy), "s"),
        metric("storage.idle_s", median(&idle), "s"),
        metric("storage.max_inflight", max_inflight as f64, "count"),
        metric(
            "storage.retries",
            mean_of(&traced.samples, |s| s.info.retries),
            "count",
        ),
        metric("storage.wan_exposed_s", wall_plain - wall_nowan, "s"),
        metric("storage.upload_s", upload_s, "s"),
        metric("storage.download_s", download_s, "s"),
        metric("storage.wan_floor_s", wan_floor_s, "s"),
        metric("sparkle.tasks", jobs.tasks / units, "count"),
        metric("sparkle.steals", jobs.steals / units, "count"),
        metric("sparkle.speculated", jobs.speculated / units, "count"),
        metric(
            "sparkle.failed_attempts",
            jobs.failed_attempts / units,
            "count",
        ),
        metric(
            "sparkle.scatter_bytes",
            mean_of(&traced.samples, |s| s.info.scatter_bytes),
            "bytes",
        ),
        metric(
            "sparkle.broadcast_bytes",
            mean_of(&traced.samples, |s| s.info.broadcast_bytes),
            "bytes",
        ),
        metric(
            "sparkle.collect_bytes",
            mean_of(&traced.samples, |s| s.info.collect_bytes),
            "bytes",
        ),
        metric("sparkle.dispatch_s", median(&dispatch), "s"),
        metric(
            "core.host_comm_s",
            median_of(&traced.samples, |s| s.info.host_comm_s),
            "s",
        ),
        metric(
            "core.overhead_s",
            median_of(&traced.samples, |s| s.info.overhead_s),
            "s",
        ),
        metric("core.compute_s", compute_s, "s"),
        metric(
            "core.overlap_s",
            median_of(&traced.samples, |s| s.info.overlap_s),
            "s",
        ),
        metric("core.unattributed_s", unattributed_s, "s"),
        metric("core.floor_s", wall_nocodec, "s"),
        metric(
            "core.merge_s",
            median_of(&traced.samples, |s| s.info.merge_s),
            "s",
        ),
        metric(
            "core.bytes_to_device",
            mean_of(&traced.samples, |s| s.info.bytes_to_device),
            "bytes",
        ),
        metric(
            "core.bytes_from_device",
            mean_of(&traced.samples, |s| s.info.bytes_from_device),
            "bytes",
        ),
        metric(
            "core.uploads_elided",
            mean_of(&traced.samples, |s| s.info.uploads_elided),
            "count",
        ),
        metric(
            "core.delta_dirty_tiles",
            mean_of(&traced.samples, |s| s.info.delta_dirty_tiles),
            "count",
        ),
        metric(
            "core.resident_hits",
            mean_of(&traced.samples, |s| s.info.resident_regions),
            "count",
        ),
        metric("core.delta_diff_mb_s", delta_diff_mb_s, "MB/s"),
        metric("kernels.reference_s", kernel_reference_s, "s"),
        metric("kernels.flops", flops, "count"),
        metric("kernels.gflops", ratio(flops / 1e9, compute_s), "GFLOP/s"),
        metric(
            "trace.overhead_frac",
            wall_traced / wall_plain - 1.0,
            "fraction",
        ),
        metric(
            "trace.spans",
            spans
                .iter()
                .filter(|s| s.unit >= warmup as u64 && !s.name.contains('.'))
                .count() as f64
                / units,
            "count",
        ),
    ];

    if let Some(path) = trace_path {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, trace::chrome_trace(&spans).pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for leg in legs {
        leg.session.close();
    }
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{end_to_end_specs, per_layer_specs, Spec};
    use crate::workloads::find;

    /// Five measured units, however long they take.
    const FIVE_UNITS: Budget = Budget {
        seconds: 0.0,
        min_units: 5,
    };

    fn names_and_units(specs: &[Spec]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.clone(), s.unit.clone()))
            .collect()
    }

    fn emitted(result: &RunResult) -> Vec<(String, String)> {
        result
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn traced_counts_repeat_for_a_seed_and_move_with_another() {
        // The iterative workload: the fastest, and the one whose generator
        // carries state from unit to unit.
        let w = find("iterative-delta").unwrap();
        let a = traced_run(w, 7, FIVE_UNITS, None).unwrap();
        let b = traced_run(w, 7, FIVE_UNITS, None).unwrap();
        let other = traced_run(w, 8, FIVE_UNITS, None).unwrap();
        for r in [&a, &b, &other] {
            assert!(r.correct, "{} of {} units failed", r.failed, r.attempted);
        }
        for exact in [
            "storage.put_bytes",
            "storage.get_bytes",
            "storage.put_ops",
            "storage.get_ops",
            "sparkle.tasks",
            "core.delta_dirty_tiles",
        ] {
            assert_eq!(
                a.value(exact),
                b.value(exact),
                "{exact} differs for one seed"
            );
        }
        assert_ne!(
            a.value("storage.put_bytes"),
            other.value("storage.put_bytes")
        );
        assert_eq!(a.value("storage.put_ops"), other.value("storage.put_ops"));
        assert_eq!(emitted(&a), names_and_units(&per_layer_specs()));
    }

    #[test]
    fn timed_exact_counts_repeat_for_a_seed_and_move_with_another() {
        let w = find("iterative-delta").unwrap();
        let elsewhere = cold_setup(w, 7).unwrap();
        let a = timed_run(w, 7, FIVE_UNITS, Sabotage::default(), &[elsewhere]).unwrap();
        let b = timed_run(w, 7, FIVE_UNITS, Sabotage::default(), &[]).unwrap();
        let other = timed_run(w, 8, FIVE_UNITS, Sabotage::default(), &[]).unwrap();
        assert!(a.correct && b.correct && other.correct);
        // Two set-ups of four warm-up units (round 0 and three more), then
        // five timed units.
        assert_eq!(a.attempted, 2 * 4 + 5);
        assert_eq!(b.attempted, 4 + 5);
        for exact in ["wire_bytes_per_unit", "store_ops_per_unit"] {
            assert_eq!(
                a.value(exact),
                b.value(exact),
                "{exact} differs for one seed"
            );
        }
        assert_ne!(
            a.value("wire_bytes_per_unit"),
            other.value("wire_bytes_per_unit")
        );
        assert_eq!(emitted(&a), names_and_units(&end_to_end_specs()));
        assert!(
            a.metrics.iter().all(|m| m.value > 0.0),
            "an end-to-end metric is 0"
        );
    }

    #[test]
    fn workloads_are_the_contract_s() {
        let doc = crate::json::parse(crate::check::BENCHMARK_JSON).unwrap();
        let listed: Vec<(&str, &str)> = crate::json::items(&doc, "workloads")
            .iter()
            .map(|w| {
                (
                    crate::json::text(w, "name").unwrap(),
                    crate::json::text(w, "why").unwrap(),
                )
            })
            .collect();
        let defined: Vec<(&str, &str)> = crate::workloads::ALL
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(listed, defined);
    }
}
