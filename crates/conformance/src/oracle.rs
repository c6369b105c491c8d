//! Invariant oracles over `OffloadReport` / `JobMetrics`: conservation
//! laws that must hold for *every* case regardless of timing, data, or
//! schedule. Each law is stated over counters, never wall-clock ratios,
//! so the oracle is as deterministic as the generator.
//!
//! The laws, roughly grouped:
//!
//! * **Fallback discipline** — the cloud leg only falls back to the
//!   host when faults were injected, and a tripped kill latch always
//!   ends in a fallback.
//! * **Tile accounting** — every loop plans `tile_ranges(trip, slots)`
//!   tiles; a resumed run restores + replays exactly that many; the
//!   profile's task counter matches on fresh runs.
//! * **Overlap bounds** — pipelined overlap is time *saved*, so it can
//!   never exceed the total wall time nor the busy time that was
//!   available to overlap. (This is the oracle that catches the
//!   un-normalized busy-sum regression.)
//! * **Fault bookkeeping** — with chaos off every resilience counter is
//!   zero; each chaos flavor is scoped so the counter it drives equals
//!   the faults the store actually injected.
//! * **Hygiene** — a committed region leaves no `_tmp/` staging or
//!   journal objects behind.
//! * **Scheduler sanity** — speculation races balance, executor ids
//!   stay inside the configured cluster, utilization is a fraction.

use crate::gen::{CaseKind, CaseSpec, ChaosFlavor, OutFlavor, ResidentFaultFlavor};
use cloud_storage::ChaosStats;
use omp_model::{DagReport, ExecProfile};
use ompcloud::tiling::tile_plan;
use ompcloud::{DownloadAction, ElideReason, MapPlan, OffloadReport, UploadAction};
use sparkle::JobMetrics;

/// Slack for comparing sums of f64 timing counters.
const EPS: f64 = 1e-9;

/// Everything the oracle looks at for one case.
pub struct OracleInput<'a> {
    /// The case that ran.
    pub spec: &'a CaseSpec,
    /// The cloud configuration the case actually executed with — the
    /// generated config, possibly with an autotuned profile applied.
    /// Tile accounting must plan with these knobs, not the spec's.
    pub config: &'a ompcloud::CloudConfig,
    /// Profile the cloud leg returned (`None` if it errored/panicked).
    pub profile: Option<&'a ExecProfile>,
    /// The cloud device's report (`None` when the offload never
    /// completed on the cloud).
    pub report: Option<&'a OffloadReport>,
    /// Spark job metrics of the cloud leg, in submission order.
    pub jobs: &'a [JobMetrics],
    /// The DAG report, when the case chained dependent regions
    /// (`spec.chain > 1`) and the taskwait completed.
    pub dag: Option<&'a DagReport>,
    /// The registry fell back to the host mid-flight.
    pub fell_back: bool,
    /// The chaos store's kill latch tripped.
    pub killed: bool,
    /// Faults actually injected, when chaos was on.
    pub chaos: Option<ChaosStats>,
    /// Staging/journal keys still in the base store after the run.
    pub leftovers: &'a [String],
}

/// Run every invariant; returns one message per violated law.
pub fn check(input: &OracleInput<'_>) -> Vec<String> {
    let mut f = Vec::new();
    let spec = input.spec;

    if input.killed && !input.fell_back {
        f.push("kill latch tripped but the offload did not fall back to the host".into());
    }
    if input.fell_back && spec.chaos.is_none() {
        f.push("fell back to the host with no faults injected".into());
    }
    if matches!(
        spec.chaos.as_ref().map(|c| c.flavor),
        Some(ChaosFlavor::Brownout { .. })
    ) && input.fell_back
    {
        f.push("brownout within the resume budget must finish on the cloud, not fall back".into());
    }

    if spec.chain > 1 {
        check_chained(input, &mut f);
        return f;
    }

    let Some(profile) = input.profile else {
        return f; // the exec layer already recorded the hard failure
    };
    if input.fell_back {
        // Host execution produced the outputs; the cloud-side report is
        // stale or absent, so no cloud accounting to audit.
        return f;
    }

    let Some(report) = input.report else {
        f.push("cloud leg completed but the device published no report".into());
        return f;
    };
    let res = &report.resilience;

    // --- Tile accounting -------------------------------------------
    let region = spec.build_region(omp_model::DeviceSelector::Default);
    let slots = input.config.total_slots();
    let planned: Vec<usize> = region
        .loops
        .iter()
        .map(|l| tile_plan(l.trip_count, slots, input.config.tile_size).len())
        .collect();
    if report.loops.len() != region.loops.len() {
        f.push(format!(
            "report covers {} loops, region has {}",
            report.loops.len(),
            region.loops.len()
        ));
    }
    for (i, (l, &want)) in report.loops.iter().zip(&planned).enumerate() {
        if l.tiles != want {
            f.push(format!(
                "loop {i}: {} tiles ran, tile plan says {want}",
                l.tiles
            ));
        }
        if l.tiles_resumed > 0 && l.tiles_resumed + l.tiles_replayed != l.tiles {
            f.push(format!(
                "loop {i}: resumed {} + replayed {} != {} planned tiles",
                l.tiles_resumed, l.tiles_replayed, l.tiles
            ));
        }
        if l.overlap_s > l.merge_s + EPS {
            f.push(format!(
                "loop {i}: overlapped merge time {:.6}s exceeds total merge time {:.6}s",
                l.overlap_s, l.merge_s
            ));
        }
    }
    let total_tiles: usize = planned.iter().sum();
    if res.resume_attempts == 0 && report.profile.tasks != total_tiles as u64 {
        f.push(format!(
            "profile counted {} tasks, tile plan says {total_tiles}",
            report.profile.tasks
        ));
    }

    // --- Overlap bounds --------------------------------------------
    // Overlap is wall time *saved* by running stages concurrently: it
    // can never exceed the elapsed time itself, nor the (normalized)
    // busy time that existed to overlap with.
    let p = &report.profile;
    if p.overlap_s > p.total_s() + EPS {
        f.push(format!(
            "overlap {:.6}s exceeds total offload time {:.6}s",
            p.overlap_s,
            p.total_s()
        ));
    }
    // The busy-time and per-loop bounds compare against the last
    // attempt's loop stats, so they only apply to fresh (unresumed) runs
    // where the profile accumulators cover exactly one attempt.
    if res.resume_attempts == 0 {
        let loop_merge: f64 = report.loops.iter().map(|l| l.merge_s).sum();
        let overlappable = p.compress_busy_s + p.store_busy_s + loop_merge;
        if p.overlap_s > overlappable + EPS {
            f.push(format!(
                "overlap {:.6}s exceeds overlappable busy time {:.6}s",
                p.overlap_s, overlappable
            ));
        }
    }

    // --- Fault bookkeeping -----------------------------------------
    match spec.chaos.as_ref().map(|c| c.flavor) {
        None | Some(ChaosFlavor::DelayOnly) => {
            if res.transient_retries != 0 || res.corruption_refetches != 0 || res.timeouts != 0 {
                f.push(format!(
                    "no error faults injected but resilience counted {} retries / {} refetches / {} timeouts",
                    res.transient_retries, res.corruption_refetches, res.timeouts
                ));
            }
            if res.resume_attempts != 0 {
                f.push(format!(
                    "no faults injected but {} resume attempts recorded",
                    res.resume_attempts
                ));
            }
        }
        Some(ChaosFlavor::Transient { .. }) => {
            let injected = input.chaos.map(|s| s.transient).unwrap_or(0);
            if u64::from(res.transient_retries) != injected {
                f.push(format!(
                    "{} transient faults injected but {} retries recorded",
                    injected, res.transient_retries
                ));
            }
            if res.corruption_refetches != 0 {
                f.push("transient-only plan but corruption re-fetches recorded".into());
            }
        }
        Some(ChaosFlavor::CorruptGet { .. }) => {
            let injected = input.chaos.map(|s| s.corruptions).unwrap_or(0);
            if u64::from(res.corruption_refetches) != injected {
                f.push(format!(
                    "{} corruptions injected but {} re-fetches recorded",
                    injected, res.corruption_refetches
                ));
            }
            if res.transient_retries != 0 {
                f.push("corrupt-get-only plan but transient retries recorded".into());
            }
        }
        Some(ChaosFlavor::Brownout { .. }) => {
            let injected = input.chaos.map(|s| s.unavailable).unwrap_or(0);
            if injected > 0 && res.resume_attempts == 0 {
                f.push(format!(
                    "{injected} brownout faults injected but no resume attempt recorded"
                ));
            }
        }
        Some(ChaosFlavor::Kill { .. }) => {
            // Reached only when the kill never fired (too few matching
            // puts) — then the run must look clean.
            if input.killed {
                f.push("kill latch tripped yet the cloud leg claims success".into());
            }
        }
    }
    if res.tiles_resumed > 0 && res.resume_attempts == 0 {
        // Every case starts from an empty store, so journaled tiles can
        // only be restored by an in-run resume attempt.
        f.push(format!(
            "{} tiles restored without any resume attempt",
            res.tiles_resumed
        ));
    }

    // --- Commit discipline -----------------------------------------
    let want_commits = u32::from(spec.checkpoint);
    if res.resume_attempts == 0 && res.commits_published != want_commits {
        f.push(format!(
            "{} manifests published, checkpoint={} expects {want_commits}",
            res.commits_published, spec.checkpoint
        ));
    }
    if res.commits_published < want_commits {
        f.push("checkpointed region finished without publishing a manifest".into());
    }

    // --- Hygiene ----------------------------------------------------
    if !input.leftovers.is_empty() {
        f.push(format!(
            "committed region left {} staging/journal objects behind: {:?}",
            input.leftovers.len(),
            &input.leftovers[..input.leftovers.len().min(4)]
        ));
    }

    // --- Scheduler sanity ------------------------------------------
    if res.resume_attempts == 0 && input.jobs.len() < region.loops.len() {
        f.push(format!(
            "{} spark jobs ran for {} parallel loops",
            input.jobs.len(),
            region.loops.len()
        ));
    }
    per_job_sanity(spec, input.jobs, &mut f);

    // Suppress an unused warning path: profile and report.profile are
    // the same execution; sanity-check they agree on the device.
    if profile.device != p.device {
        f.push(format!(
            "returned profile ran on '{}' but the report says '{}'",
            profile.device, p.device
        ));
    }

    f
}

/// Per-job scheduler invariants shared by the single-region and chained
/// paths: speculation balance, executor bounds, utilization, and the
/// spec-off-no-duplicates law.
fn per_job_sanity(spec: &CaseSpec, jobs: &[JobMetrics], f: &mut Vec<String>) {
    for m in jobs {
        if !m.speculation_balanced() {
            f.push(format!(
                "job {}: {} speculative launches but {} wins + {} losses",
                m.job_id, m.spec_launched, m.spec_wins, m.spec_losses
            ));
        }
        if let Some(max) = m.max_executor_id() {
            if max >= spec.workers {
                f.push(format!(
                    "job {}: executor id {max} outside the {}-worker cluster",
                    m.job_id, spec.workers
                ));
            }
        }
        let util = m.utilization(spec.workers * spec.vcpus);
        if !(0.0..=1.0).contains(&util) {
            f.push(format!(
                "job {}: utilization {util} outside [0, 1]",
                m.job_id
            ));
        }
        if spec.spec_factor == 0.0 && m.spec_launched > 0 {
            f.push(format!(
                "job {}: speculation disabled but {} duplicates launched",
                m.job_id, m.spec_launched
            ));
        }
    }
}

/// Everything the tenancy leg observed: a "hog" tenant hammered by a
/// scoped fault plan sharing a device with the bystander "bob", who ran
/// the case's own region.
pub struct TenancyObservation<'a> {
    /// Hog offloads submitted (>= 2, the leg's breaker threshold).
    pub hog_rounds: usize,
    /// How many of them fell back to the host.
    pub hog_fallbacks: usize,
    /// Faults the chaos store actually injected (all hog-scoped).
    pub injected: u64,
    /// Hog's breaker state after the leg.
    pub hog_breaker_open: bool,
    /// Bob's breaker state after the leg.
    pub bob_breaker_open: bool,
    /// Bob's returned profile.
    pub bob_profile: &'a ExecProfile,
    /// The device report published for bob's offload.
    pub bob_report: Option<&'a OffloadReport>,
}

/// Breaker-isolation laws of the tenancy leg. The bitwise bystander
/// check lives in the exec layer (it needs the raw buffers); these laws
/// cover the fault-state bookkeeping.
pub fn check_tenancy(obs: &TenancyObservation<'_>) -> Vec<String> {
    let mut f = Vec::new();
    if obs.injected == 0 {
        f.push("tenancy leg injected no faults on the hog".into());
    }
    if obs.hog_fallbacks != obs.hog_rounds {
        f.push(format!(
            "hammered hog fell back {} of {} rounds; every round must shed to the host",
            obs.hog_fallbacks, obs.hog_rounds
        ));
    }
    if !obs.hog_breaker_open {
        f.push(format!(
            "{} hog failures against threshold 2 left the hog breaker closed",
            obs.hog_rounds
        ));
    }
    if obs.bob_breaker_open {
        f.push("the hog's streak opened the bystander's breaker".into());
    }
    if let Some(from) = &obs.bob_profile.fallback_from {
        f.push(format!(
            "bystander was dragged off the cloud (fell back from '{from}')"
        ));
    }
    match obs.bob_report {
        None => f.push("bystander completed but the device published no report".into()),
        Some(report) => {
            if report.tenant != "bob" {
                f.push(format!(
                    "bystander's report is tagged for tenant '{}'",
                    report.tenant
                ));
            }
            if report.profile.dataflow.stage_fallbacks != 0 {
                f.push(format!(
                    "bystander's report counts {} stage fallbacks from the hog's faults",
                    report.profile.dataflow.stage_fallbacks
                ));
            }
            if report.resilience.breaker_tripped {
                f.push("bystander's report claims its breaker tripped".into());
            }
        }
    }
    f
}

/// Laws for chained (`depend`/`nowait`) cases. The per-loop tile and
/// fault accounting of the single-region path reads the *last* region's
/// report, which no longer covers the whole execution; instead the DAG
/// path audits residency: byte conservation across stages and the
/// dataflow counters the `DagReport` sums over the chain.
fn check_chained(input: &OracleInput<'_>, f: &mut Vec<String>) {
    let spec = input.spec;
    let Some(dag) = input.dag else {
        if input.profile.is_some() {
            f.push("chained case completed but produced no DagReport".into());
        }
        return; // hard failure already recorded by the exec layer
    };
    if dag.profiles.len() != spec.chain {
        f.push(format!(
            "DAG ran {} regions, the case chains {}",
            dag.profiles.len(),
            spec.chain
        ));
    }
    if input.fell_back {
        // Host execution finished (part of) the chain; residency
        // accounting does not apply. Fallback discipline already ran.
        return;
    }

    // --- Hygiene (includes resident dataflow keys) ------------------
    if !input.leftovers.is_empty() {
        f.push(format!(
            "committed chain left {} staging/journal/resident objects behind: {:?}",
            input.leftovers.len(),
            &input.leftovers[..input.leftovers.len().min(4)]
        ));
    }

    per_job_sanity(spec, input.jobs, f);

    // --- Lineage recovery laws --------------------------------------
    // A resident fault must be absorbed by the recovery layer, never by
    // a fallback: Rot is repaired from the durable copy (no recompute),
    // Expire forces exactly one producer replay.
    let counted = dag.dataflow;
    if let Some(rf) = &spec.resident_fault {
        match rf.flavor {
            ResidentFaultFlavor::Rot => {
                if counted.resident_repairs < 1 {
                    f.push("resident rot fired but no durable repair was counted".into());
                }
                if counted.lineage_recomputes != 0 {
                    f.push(format!(
                        "resident rot triggered {} recomputes; the durable copy repairs it",
                        counted.lineage_recomputes
                    ));
                }
            }
            ResidentFaultFlavor::Expire => {
                if counted.lineage_recomputes != 1 {
                    f.push(format!(
                        "expired resident buffer replayed {} producers, expected exactly 1",
                        counted.lineage_recomputes
                    ));
                }
            }
        }
        if counted.stage_fallbacks != 0 {
            f.push(format!(
                "resident fault pushed {} stages to the host; recovery must keep the chain cloud-side",
                counted.stage_fallbacks
            ));
        }
    } else if spec.chaos.is_none()
        && (counted.lineage_recomputes != 0
            || counted.stage_fallbacks != 0
            || counted.resident_repairs != 0)
    {
        f.push(format!(
            "undisturbed chain counted recovery work: {} recomputes, {} stage fallbacks, {} repairs",
            counted.lineage_recomputes, counted.stage_fallbacks, counted.resident_repairs
        ));
    }

    // The stage regions rewrite exactly the indexed "y" buffer.
    let y_len = match &spec.kind {
        CaseKind::Synthetic(s) => match s.flavor {
            OutFlavor::Indexed { rows } => spec.n * rows,
            _ => 0,
        },
        CaseKind::Kernel { .. } => 0,
    };

    // The residency laws below are exact only on undisturbed runs:
    // chaos-driven retries/resumes may legitimately re-upload resident
    // copies or re-run a consumer.
    if spec.chaos.is_some() {
        return;
    }

    // --- Residency byte conservation -------------------------------
    // Every intermediate hand-off stays in the store: consumers upload
    // nothing (their only input is the producer's resident output) and
    // interior producers download nothing (their only output is kept
    // resident). Only the final stage pays the download for `y`.
    for (i, p) in dag.profiles.iter().enumerate() {
        if i > 0 && p.bytes_to_device != 0 {
            f.push(format!(
                "chain stage {i}: re-uploaded {} bytes for a cloud-resident input",
                p.bytes_to_device
            ));
        }
        if i > 0 && i + 1 < dag.profiles.len() && p.bytes_from_device != 0 {
            f.push(format!(
                "chain stage {i}: downloaded {} bytes for an output consumed on-device",
                p.bytes_from_device
            ));
        }
    }
    if let Some(last) = dag.profiles.last() {
        let want = (y_len * std::mem::size_of::<f32>()) as u64;
        if last.bytes_from_device != want {
            f.push(format!(
                "final chain stage downloaded {} bytes, the escaping 'y' holds {want}",
                last.bytes_from_device
            ));
        }
    }
    // Every mapped-from buffer escapes through its owning region (the
    // intermediates are superseded in place), so the drain is empty.
    if !dag.drain.vars.is_empty() {
        f.push(format!(
            "clean chain drained {:?} at taskwait; every sink should flush through its region",
            dag.drain.vars
        ));
    }

    // --- Dataflow counters -----------------------------------------
    // Each of the `chain - 1` hand-offs is one elided download on the
    // producer side and exactly one resident-input hit on the consumer
    // side. An Expire recovery replays one producer as an extra job whose
    // kept output is likewise elided; its pinned read is not a hit.
    let (elided, hits) = (counted.elided_downloads, counted.resident_hits);
    let handoffs = (spec.chain - 1) as u32;
    let recovery_jobs = u32::from(matches!(
        spec.resident_fault.as_ref().map(|r| r.flavor),
        Some(ResidentFaultFlavor::Expire)
    ));
    if elided != handoffs + recovery_jobs {
        f.push(format!(
            "{handoffs}-hand-off chain elided {elided} downloads, expected {}",
            handoffs + recovery_jobs
        ));
    }
    if hits != handoffs {
        f.push(format!(
            "{handoffs}-hand-off chain counted {hits} resident hits"
        ));
    }
}

/// One round of a map-elide case's delta leg: the device's per-variable
/// transfer decisions plus the profile's raw byte counters.
pub struct MapElideRound {
    /// The [`MapPlan`] the device published for the round.
    pub plan: MapPlan,
    /// `bytes_to_device` the round's profile counted.
    pub bytes_to_device: u64,
    /// `bytes_from_device` the round's profile counted.
    pub bytes_from_device: u64,
    /// Element of `x0` bit-flipped before the round (`None` on the
    /// first round — and only then).
    pub dirty_elem: Option<usize>,
}

/// Exact byte-conservation laws of the map-transfer optimizer, checked
/// per re-execution round of the map-elide leg:
///
/// * the profile's raw byte counters equal the plan's own sums — every
///   decision accounted, none double-counted;
/// * `map(from)`-only outputs never upload (dead `to`), `map(alloc)`
///   scratch moves zero bytes in either direction;
/// * the first round has no committed base, so every input travels in
///   full (or dedupes against a byte-identical sibling);
/// * a later round moves exactly the mutated tile's patch bytes for
///   `x0` — `28 B header + 4 B index + tile` — and zero bytes for every
///   untouched input (a clean delta round), falling back to the full
///   buffer only when the patch would not be smaller.
pub fn check_map_elision(spec: &CaseSpec, rounds: &[MapElideRound]) -> Vec<String> {
    let mut f = Vec::new();
    let Some(me) = spec.map_elide else {
        return f;
    };
    let CaseKind::Synthetic(syn) = &spec.kind else {
        f.push("map-elide case is not synthetic".into());
        return f;
    };
    let OutFlavor::Indexed { rows } = syn.flavor else {
        f.push("map-elide case is not indexed".into());
        return f;
    };
    let x_bytes = (spec.n * 4) as u64;
    let y_bytes = (spec.n * rows * 4) as u64;

    for (r, round) in rounds.iter().enumerate() {
        let plan = &round.plan;
        if round.bytes_to_device != plan.upload_bytes() {
            f.push(format!(
                "map-elide round {r}: profile uploaded {} bytes, the plan accounts for {}",
                round.bytes_to_device,
                plan.upload_bytes()
            ));
        }
        if round.bytes_from_device != plan.download_bytes() {
            f.push(format!(
                "map-elide round {r}: profile downloaded {} bytes, the plan accounts for {}",
                round.bytes_from_device,
                plan.download_bytes()
            ));
        }

        // `from`-only outputs: dead upload, full download.
        let mut outputs = vec![("y", y_bytes)];
        if syn.second_n > 0 {
            outputs.push(("z", (2 * syn.second_n * 4) as u64));
        }
        for (name, bytes) in outputs {
            let Some(d) = plan.decision_for(name) else {
                f.push(format!(
                    "map-elide round {r}: no decision for output '{name}'"
                ));
                continue;
            };
            if !matches!(
                &d.upload,
                UploadAction::Elided {
                    reason: ElideReason::DeadTo,
                    ..
                }
            ) {
                f.push(format!(
                    "map-elide round {r}: '{name}' is from-only but its upload was {:?}",
                    d.upload
                ));
            }
            if !matches!(&d.download, DownloadAction::Full { bytes: b } if *b == bytes) {
                f.push(format!(
                    "map-elide round {r}: '{name}' must download {bytes} bytes, got {:?}",
                    d.download
                ));
            }
        }
        if me.alloc_scratch {
            match plan.decision_for("tmp") {
                None => f.push(format!("map-elide round {r}: no decision for alloc 'tmp'")),
                Some(d) => {
                    let up_ok = matches!(
                        &d.upload,
                        UploadAction::Elided {
                            reason: ElideReason::AllocOnly,
                            ..
                        }
                    );
                    let down_ok = matches!(
                        &d.download,
                        DownloadAction::Elided {
                            reason: ElideReason::AllocOnly,
                            ..
                        }
                    );
                    if !up_ok || !down_ok {
                        f.push(format!(
                            "map-elide round {r}: alloc 'tmp' moved bytes: {:?} / {:?}",
                            d.upload, d.download
                        ));
                    }
                }
            }
        }

        // Inputs: dead download always; uploads follow the round.
        for i in 0..syn.inputs {
            let name = format!("x{i}");
            let Some(d) = plan.decision_for(&name) else {
                f.push(format!(
                    "map-elide round {r}: no decision for input '{name}'"
                ));
                continue;
            };
            if !matches!(
                &d.download,
                DownloadAction::Elided {
                    reason: ElideReason::DeadFrom,
                    ..
                }
            ) {
                f.push(format!(
                    "map-elide round {r}: '{name}' is never read back but its download was {:?}",
                    d.download
                ));
            }
            match (round.dirty_elem, i) {
                // First round: no base to diff against.
                (None, _) => {
                    let full =
                        matches!(&d.upload, UploadAction::Full { bytes } if *bytes == x_bytes);
                    let dedup = matches!(
                        &d.upload,
                        UploadAction::Elided {
                            reason: ElideReason::Dedup { .. },
                            ..
                        }
                    );
                    if !full && !dedup {
                        f.push(format!(
                            "map-elide round {r}: '{name}' has no committed base yet \
                             but shipped {:?} instead of the full {x_bytes} bytes",
                            d.upload
                        ));
                    }
                }
                // x0 was bit-flipped at one element: exactly one tile is
                // dirty, and the patch is header + index + that tile —
                // unless the patch would not be smaller than the buffer,
                // in which case the device ships it whole.
                (Some(elem), 0) => {
                    let tile = elem * 4 / me.tile_bytes;
                    let tile_len = me.tile_bytes.min(spec.n * 4 - tile * me.tile_bytes) as u64;
                    let want = 28 + 4 + tile_len;
                    let total = (spec.n * 4).div_ceil(me.tile_bytes) as u32;
                    if want < x_bytes {
                        let ok = matches!(
                            &d.upload,
                            UploadAction::Delta {
                                dirty_tiles: 1,
                                total_tiles,
                                bytes,
                                ..
                            } if *total_tiles == total && *bytes == want
                        );
                        if !ok {
                            f.push(format!(
                                "map-elide round {r}: one dirty tile of 'x0' must ship a \
                                 {want}-byte patch ({total} tiles), got {:?}",
                                d.upload
                            ));
                        }
                    } else if !matches!(&d.upload, UploadAction::Full { bytes } if *bytes == x_bytes)
                    {
                        f.push(format!(
                            "map-elide round {r}: 'x0' patch ({want} B) is no smaller than \
                             the buffer ({x_bytes} B), expected a full upload, got {:?}",
                            d.upload
                        ));
                    }
                }
                // Untouched inputs: a clean delta round, zero bytes.
                (Some(_), _) => {
                    if !matches!(&d.upload, UploadAction::DeltaClean { .. }) {
                        f.push(format!(
                            "map-elide round {r}: untouched '{name}' must ship nothing \
                             (clean delta), got {:?}",
                            d.upload
                        ));
                    }
                }
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use crate::exec::run_case;
    use crate::gen::CaseSpec;

    /// The oracle passes real clean executions (smoke over a few cases).
    #[test]
    fn clean_cases_satisfy_every_law() {
        let mut ran = 0;
        for c in 0..24 {
            let spec = CaseSpec::generate(5, c);
            if spec.chaos.is_some() || spec.latency_us > 0 {
                continue;
            }
            let out = run_case(&spec);
            assert!(
                out.failures.is_empty(),
                "case {c} ({}): {:?}",
                spec.summary(),
                out.failures
            );
            ran += 1;
        }
        assert!(ran > 0, "no clean case among the first 24");
    }
}
