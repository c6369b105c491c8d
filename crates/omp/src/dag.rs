//! One `taskwait`'s walk over the deferred regions. The walk first
//! fuses each maximal run of consecutive regions that can share one
//! driver environment into one multi-loop region — a *group* — so the
//! versions handed between them never leave driver memory (§III-D's
//! successive map-reduce jobs within one Spark job). Over the groups it
//! keeps the residency and lineage bookkeeping, plus the recovery
//! machinery that survives resident-buffer loss (re-execute only the
//! producer) and per-stage device failures (contain the fallback to one
//! group, re-adopt its outputs resident). Every group goes through the
//! registry's one dispatch step; what this module adds is what is
//! resident where.

use crate::clause::DependDir;
use crate::device::{Availability, DagReport, DataflowDevice, DataflowHints, MaterializeReport};
use crate::env::DataEnv;
use crate::error::OmpError;
use crate::profile::{ExecProfile, FallbackReason};
use crate::region::TargetRegion;
use crate::registry::DeviceRegistry;
use std::collections::HashMap;

/// Merge each maximal run of consecutive fusable regions into one
/// region: its loops are the members' loops in submission order, its
/// maps and depends the members' unions. A region joins the group
/// before it when both resolve to the same device and that device
/// offers dataflow, both have the same tenant and `if(true)`, and every
/// variable both map is mapped the same way, all `to` or all `tofrom`,
/// and reduced by no member. A `from` → `to` hand-off does not fuse:
/// the merged `tofrom` would upload a host value no loop reads.
pub(crate) fn fuse(registry: &DeviceRegistry, regions: &[TargetRegion]) -> Vec<TargetRegion> {
    let mut groups: Vec<TargetRegion> = Vec::with_capacity(regions.len());
    for r in regions {
        match groups.last_mut() {
            Some(g) if fusable(registry, g, r) => {
                g.name = format!("{}+{}", g.name, r.name);
                for m in &r.maps {
                    if !g.maps.iter().any(|x| x.name == m.name) {
                        g.maps.push(m.clone());
                    }
                }
                for d in &r.depends {
                    match g.depends.iter_mut().find(|x| x.var == d.var) {
                        Some(x) if x.dir != d.dir => x.dir = DependDir::InOut,
                        Some(_) => {}
                        None => g.depends.push(d.clone()),
                    }
                }
                g.loops.extend(r.loops.iter().cloned());
                g.constructs.extend(r.constructs.iter().copied());
            }
            _ => groups.push(r.clone()),
        }
    }
    groups
}

fn fusable(registry: &DeviceRegistry, group: &TargetRegion, next: &TargetRegion) -> bool {
    let dataflow_device = |r: &TargetRegion| {
        let (idx, device) = registry.resolve(r.device).ok()?;
        device.dataflow().map(|_| idx)
    };
    let shared_ok = next.maps.iter().all(|m| {
        group
            .maps
            .iter()
            .find(|g| g.name == m.name)
            .is_none_or(|g| {
                g.dir == m.dir
                    && m.dir.is_input()
                    && !group
                        .loops
                        .iter()
                        .chain(&next.loops)
                        .any(|l| l.reduction_for(&m.name).is_some())
            })
    });
    group.tenant == next.tenant
        && group.offload_if
        && next.offload_if
        && dataflow_device(group).is_some_and(|d| dataflow_device(next) == Some(d))
        && shared_ok
}

/// The state of one DAG walk.
pub(crate) struct DagRun<'a> {
    registry: &'a DeviceRegistry,
    /// The groups ([`fuse`]), one epoch each, in submission order.
    regions: &'a [TargetRegion],
    dag_tag: &'a str,
    /// depend-read set per region.
    reads: Vec<Vec<String>>,
    /// depend-write set per region.
    writes: Vec<Vec<String>>,
    /// Outputs each region keeps resident (touched by a later region).
    keeps: Vec<Vec<String>>,
    /// Which device currently holds each variable's latest version.
    resident_on: HashMap<String, usize>,
    /// Lineage: the epoch (region index) that produced each variable's
    /// current resident version.
    producer: HashMap<String, usize>,
    /// Lineage: the version-pinned resident inputs each region consumed
    /// when it ran, recorded for recovery replays.
    pins: Vec<Vec<(String, usize)>>,
    report: DagReport,
    /// Devices that were handed dataflow hints and owe an
    /// `end_dataflow` when the window closes.
    participants: &'a mut Vec<usize>,
}

impl<'a> DagRun<'a> {
    pub(crate) fn new(
        registry: &'a DeviceRegistry,
        regions: &'a [TargetRegion],
        dag_tag: &'a str,
        participants: &'a mut Vec<usize>,
    ) -> DagRun<'a> {
        // Read/write sets per region (validation guarantees depend vars
        // carry compatible map clauses, so these are subsets of the
        // regions' input/output map sets).
        let reads: Vec<Vec<String>> = regions
            .iter()
            .map(|r| r.depend_reads().map(str::to_string).collect())
            .collect();
        let writes: Vec<Vec<String>> = regions
            .iter()
            .map(|r| r.depend_writes().map(str::to_string).collect())
            .collect();
        // Keep a produced version resident when any later region
        // touches the variable again: a reader consumes it in place;
        // the next writer makes this version dead (nobody ever
        // downloads it).
        let keeps: Vec<Vec<String>> = writes
            .iter()
            .enumerate()
            .map(|(i, ws)| {
                ws.iter()
                    .filter(|v| {
                        regions[i + 1..]
                            .iter()
                            .any(|r| r.depend_reads().chain(r.depend_writes()).any(|d| d == **v))
                    })
                    .cloned()
                    .collect()
            })
            .collect();
        DagRun {
            registry,
            regions,
            dag_tag,
            reads,
            writes,
            keeps,
            resident_on: HashMap::new(),
            producer: HashMap::new(),
            pins: vec![Vec::new(); regions.len()],
            report: DagReport::default(),
            participants,
        }
    }

    /// Walk the groups ([`fuse`]). Submission order is already a
    /// topological order of the version DAG — a version's writer always
    /// precedes its readers — so the walk executes in that order; the
    /// depend edges decide *residency* between groups, and fusion
    /// decides which hand-offs never become a resident version at all.
    /// Each group is one epoch: one resident commit, one profile, one
    /// host fallback. Lineage (which group produced which version,
    /// against which pinned inputs) is recorded as the walk proceeds, so
    /// a lost resident buffer can be regenerated by re-executing only
    /// its producer.
    pub(crate) fn run(mut self, env: &mut DataEnv) -> Result<DagReport, OmpError> {
        for i in 0..self.regions.len() {
            self.exec_region(i, env)?;
        }
        // DAG drain: anything still resident is owed to the host — its
        // map(from:) contract — as exactly one download of the final
        // version per variable.
        let mut leftover: Vec<String> = self.resident_on.keys().cloned().collect();
        leftover.sort();
        self.materialize_vars(&leftover, env)?;
        self.report.drain.vars.sort();
        Ok(self.report)
    }

    fn exec_region(&mut self, i: usize, env: &mut DataEnv) -> Result<(), OmpError> {
        let region = &self.regions[i];
        let (dev_idx, device) = self.registry.resolve(region.device)?;
        let dataflow = device.dataflow();
        // Inputs resident on a *different* device escape here: bring
        // them home before this region reads them. The holder keeps
        // its copy — same-device consumers may still hit it.
        let foreign: Vec<String> = self.reads[i]
            .iter()
            .filter(|v| self.resident_on.get(*v).is_some_and(|&d| d != dev_idx))
            .cloned()
            .collect();
        self.materialize_vars(&foreign, env)?;

        let mut hints = DataflowHints::default();
        if dataflow.is_some() {
            if !self.participants.contains(&dev_idx) {
                self.participants.push(dev_idx);
            }
            hints = DataflowHints {
                resident_inputs: self.reads[i]
                    .iter()
                    .filter(|v| self.resident_on.get(*v) == Some(&dev_idx))
                    .cloned()
                    .collect(),
                keep_resident: self.keeps[i].clone(),
                dag: Some(self.dag_tag.to_string()),
                epoch: i,
                ..DataflowHints::default()
            };
        }
        // Lineage: record the exact versions this region consumes, so a
        // recovery replay can pin them.
        self.pins[i] = hints
            .resident_inputs
            .iter()
            .filter_map(|v| self.producer.get(v).map(|&e| (v.clone(), e)))
            .collect();

        let profile = self.dispatch_recovering(i, env, &mut hints, dataflow)?;

        // Per-stage containment: a stage that fell back to the host —
        // before it started or mid-flight — fell back alone, and counts
        // once. After a mid-flight failure its kept outputs are adopted
        // back as resident keys, so downstream stages stay cloud-side.
        self.report.dataflow.stage_fallbacks += u32::from(profile.fallback_from.is_some());
        let on_device = profile.fallback_from.is_none() && region.offload_if;
        let adopted = matches!(
            profile.fallback_reason,
            Some(FallbackReason::MidFlight | FallbackReason::ResumeExhausted)
        ) && !hints.keep_resident.is_empty()
            && device.availability(region.tenant.as_str()) == Availability::Up
            && dataflow.is_some_and(|d| {
                d.adopt_resident(&hints.keep_resident, env, self.dag_tag, i)
                    .is_ok()
            });
        let kept: &[String] = if on_device || adopted {
            &hints.keep_resident
        } else {
            &[]
        };
        for v in kept {
            self.resident_on.insert(v.clone(), dev_idx);
            self.producer.insert(v.clone(), i);
        }
        // Every other output is home — downloaded eagerly (no later
        // consumer) or written by the host run — so any stale residency
        // is superseded. The device that just ran the region is spared
        // the invalidation: its older version can no longer be hinted,
        // and goes with the DAG's root at `end_dataflow` without costing
        // a clean chain a store delete per version.
        let spare = on_device.then_some(dev_idx);
        for v in self.writes[i].clone() {
            if !kept.contains(&v) {
                self.supersede(&v, spare);
            }
        }
        self.report.dataflow += profile.dataflow;
        self.report.profiles.push(profile);
        Ok(())
    }

    /// Send region `i` through the registry's dispatch step, answering
    /// each resident loss it reports with lineage recovery and a retry.
    fn dispatch_recovering(
        &mut self,
        i: usize,
        env: &mut DataEnv,
        hints: &mut DataflowHints,
        dataflow: Option<&dyn DataflowDevice>,
    ) -> Result<ExecProfile, OmpError> {
        let (registry, region) = (self.registry, &self.regions[i]);
        let mut loss_rounds = 0usize;
        loop {
            // Host paths (if-clause, unavailable or failing device) read
            // the host environment, which is stale for resident
            // variables: the dispatch step brings those home first.
            let outcome = registry.dispatch(region, env, hints, &mut |env| {
                let reads = self.reads[i].clone();
                self.materialize_vars(&reads, env)
            });
            match (outcome, dataflow) {
                (Err(OmpError::ResidentLoss { var, .. }), Some(dataflow)) => {
                    // Lineage recovery: re-execute only the producing
                    // region(s) to regenerate the lost version, then
                    // retry this stage against the repaired residency.
                    loss_rounds += 1;
                    if loss_rounds <= self.reads[i].len().max(1)
                        && self.recover_var(&var, env, dataflow.recovery_depth())
                    {
                        continue;
                    }
                    // Recovery refused or budget exhausted: contain the
                    // loss by regenerating the variable on the host and
                    // retrying with it host-sourced — the stage itself
                    // stays on the device.
                    self.regenerate_on_host(&var, env)?;
                    hints.resident_inputs.retain(|v| v != &var);
                    self.pins[i].retain(|(v, _)| v != &var);
                }
                (outcome, _) => return outcome,
            }
        }
    }

    /// Regenerate `var`'s resident version by re-executing its
    /// producing region (transitively, within `depth`). Returns whether
    /// the version is resident again.
    fn recover_var(&mut self, var: &str, env: &mut DataEnv, depth: usize) -> bool {
        match self.producer.get(var).copied() {
            Some(j) => self.recover_region(j, env, depth),
            None => false,
        }
    }

    /// Re-execute region `j` on its device as a recovery replay: inputs
    /// pinned to the versions it originally consumed, kept outputs
    /// re-staged under their original epoch. Recurses (within `depth`)
    /// when a pinned ancestor version is itself lost.
    fn recover_region(&mut self, j: usize, env: &mut DataEnv, depth: usize) -> bool {
        if depth == 0 {
            return false;
        }
        let (registry, region) = (self.registry, &self.regions[j]);
        let Ok((_, device)) = registry.resolve(region.device) else {
            return false;
        };
        let Some(dataflow) = device.dataflow() else {
            return false;
        };
        if device.availability(region.tenant.as_str()) != Availability::Up {
            return false;
        }
        let hints = DataflowHints {
            resident_inputs: Vec::new(),
            keep_resident: self.keeps[j].clone(),
            dag: Some(self.dag_tag.to_string()),
            epoch: j,
            pinned_inputs: self.pins[j].clone(),
            recovery: true,
        };
        let mut rounds = 0usize;
        loop {
            match dataflow.execute_dataflow(region, env, &hints) {
                Ok(profile) => {
                    // The replay's profile appears nowhere else: what it
                    // counted joins the DAG's sum here.
                    self.report.dataflow.lineage_recomputes += 1;
                    self.report.dataflow += profile.dataflow;
                    return true;
                }
                Err(OmpError::ResidentLoss { var, .. }) => {
                    // A pinned ancestor version is gone too: regenerate
                    // it one level deeper, then retry this replay.
                    rounds += 1;
                    let pinned_epoch = hints
                        .pinned_inputs
                        .iter()
                        .find(|(v, _)| v == &var)
                        .map(|&(_, e)| e);
                    if rounds <= hints.pinned_inputs.len().max(1)
                        && pinned_epoch.is_some_and(|e| self.recover_region(e, env, depth - 1))
                    {
                        continue;
                    }
                    return false;
                }
                Err(_) => return false,
            }
        }
    }

    /// Terminal rung for a lost `var`: regenerate it on the host by
    /// replaying its producer there; with no producer on record the
    /// host copy already is the newest, so only the residency goes.
    fn regenerate_on_host(&mut self, var: &str, env: &mut DataEnv) -> Result<(), OmpError> {
        match self.producer.get(var).copied() {
            Some(j) => self.host_replay(j, env),
            None => {
                self.resident_on.remove(var);
                Ok(())
            }
        }
    }

    /// Regenerate region `j`'s outputs on the host: version-pinned
    /// inputs come from the device's durable copies (recursing up the
    /// lineage when a pin is gone), everything else from the host
    /// environment. The host result supersedes any resident copy of the
    /// region's still-current writes — stale device versions are never
    /// served again.
    fn host_replay(&mut self, j: usize, env: &mut DataEnv) -> Result<(), OmpError> {
        let (registry, region) = (self.registry, &self.regions[j]);
        let dataflow = registry
            .resolve(region.device)
            .ok()
            .and_then(|(_, device)| device.dataflow());
        for (var, e) in self.pins[j].clone() {
            match dataflow.and_then(|d| d.materialize(&[(var, Some(e))], env).ok()) {
                Some(rep) => self.book(rep),
                // The pinned version is unrecoverable: regenerate it on
                // the host too. Epochs strictly decrease, so this
                // terminates at a region with no pinned inputs.
                None => self.host_replay(e, env)?,
            }
        }
        let host = registry
            .host_device(region.tenant.as_str())
            .ok_or_else(|| OmpError::NoDevice("host".into()))?;
        host.execute(region, env)?;
        self.report.dataflow.stage_fallbacks += 1;
        for v in self.writes[j].clone() {
            // Only supersede versions this region still owns — a later
            // writer's newer resident version stays authoritative.
            if self.producer.get(&v) == Some(&j) {
                self.supersede(&v, None);
            }
        }
        Ok(())
    }

    /// The host holds a newer `var` than any device: forget who produced
    /// and who holds its resident version, and have the holder — unless
    /// it is `spare` — drop its copy, so consumers re-source from the
    /// host.
    fn supersede(&mut self, var: &str, spare: Option<usize>) {
        self.producer.remove(var);
        let holder = self.resident_on.remove(var).filter(|d| Some(*d) != spare);
        let holder = holder.and_then(|d| self.registry.device(d)?.dataflow());
        if let Some(dataflow) = holder {
            dataflow.invalidate_resident(&[var.to_string()]);
        }
    }

    /// Book what one device materialization cost: bytes and seconds on
    /// the drain, repairs with every other repair.
    fn book(&mut self, rep: MaterializeReport) {
        self.report.drain.wire_bytes += rep.wire_bytes;
        self.report.drain.seconds += rep.seconds;
        self.report.dataflow.resident_repairs += rep.repairs;
    }

    /// Materialize those of `vars` that are resident into `env` from
    /// whichever devices hold them — they escape the DAG here, which
    /// the drain report records. A resident loss triggers lineage
    /// recovery and a retry; an unrecoverable loss is contained by
    /// regenerating the variable on the host.
    fn materialize_vars(&mut self, vars: &[String], env: &mut DataEnv) -> Result<(), OmpError> {
        let mut by_dev: HashMap<usize, Vec<(String, Option<usize>)>> = HashMap::new();
        for v in vars {
            if let Some(&d) = self.resident_on.get(v) {
                by_dev.entry(d).or_default().push((v.clone(), None));
            }
        }
        let mut dev_ids: Vec<usize> = by_dev.keys().copied().collect();
        dev_ids.sort_unstable();
        for d in dev_ids {
            let mut names = by_dev.remove(&d).expect("key listed above");
            names.sort();
            let registry = self.registry;
            let Some(dataflow) = registry.device(d).and_then(|dev| dev.dataflow()) else {
                continue;
            };
            let mut loss_rounds = 0usize;
            while !names.is_empty() {
                match dataflow.materialize(&names, env) {
                    Ok(mut rep) => {
                        self.report.drain.vars.append(&mut rep.vars);
                        self.book(rep);
                        break;
                    }
                    Err(OmpError::ResidentLoss { var, .. }) => {
                        loss_rounds += 1;
                        if loss_rounds <= names.len()
                            && self.recover_var(&var, env, dataflow.recovery_depth())
                        {
                            // Retry the whole group — re-materializing
                            // an already-served name is idempotent.
                            continue;
                        }
                        // Terminal: regenerate on the host instead; the
                        // host copy is authoritative, so the name no
                        // longer needs materializing.
                        self.regenerate_on_host(&var, env)?;
                        names.retain(|(v, _)| v != &var);
                        self.report.drain.vars.push(var);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceKind};
    use crate::erased::RedOp;
    use crate::profile::DataflowSummary;
    use crate::registry::tests::{
        chain_region, fake, producer_region, relay_region, two_stage_pipeline, DataflowFake,
    };
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// A registry over a fake host and `cloud`.
    fn registry_with(cloud: &Arc<DataflowFake>) -> DeviceRegistry {
        let mut r = DeviceRegistry::new();
        r.register(fake("host", DeviceKind::Host));
        r.register(Arc::clone(cloud) as Arc<dyn Device>);
        r
    }

    fn names(groups: &[TargetRegion]) -> Vec<&str> {
        groups.iter().map(|g| g.name.as_str()).collect()
    }

    #[test]
    fn a_tofrom_chain_fuses_into_one_group_of_its_loops() {
        let cloud = DataflowFake::new("cloud-0");
        let r = registry_with(&cloud);
        let chain: Vec<TargetRegion> = (0..3)
            .map(|i| chain_region(&format!("it{i}"), "y"))
            .collect();
        let groups = fuse(&r, &chain);
        assert_eq!(names(&groups), vec!["it0+it1+it2"]);
        assert_eq!(groups[0].loops.len(), 3);
        assert_eq!(groups[0].maps.len(), 1, "maps are a union");
        assert_eq!(groups[0].depends.len(), 1, "depends are a union");

        for region in chain {
            r.offload_nowait(region);
        }
        let report = r.taskwait(&mut DataEnv::new()).unwrap();
        assert_eq!(report.profiles.len(), 1, "one profile per group");
        let log = cloud.log.lock();
        assert_eq!(log.hints.len(), 1);
        assert!(log.hints[0].resident_inputs.is_empty());
        assert!(
            log.hints[0].keep_resident.is_empty(),
            "no hand-off leaves the group, so nothing is committed"
        );
        assert!(log.materialized.is_empty() && log.invalidated.is_empty());
        assert_eq!(log.ended, vec!["dag-0"]);
        assert!(!report.dataflow.any());
    }

    #[test]
    fn fusion_stops_where_one_driver_environment_cannot_hold_the_run() {
        let cloud = DataflowFake::new("cloud-0");
        let r = registry_with(&cloud);
        let y = |name: &str| chain_region(name, "y");
        // A `from` → `to` hand-off of a fresh variable.
        assert_eq!(
            names(&fuse(&r, &[relay_region(0), relay_region(1)])),
            vec!["relay-0", "relay-1"]
        );
        // Another tenant, or an `if(false)` member.
        let mut other = y("b");
        other.tenant = "bob".into();
        assert_eq!(names(&fuse(&r, &[y("a"), other])), vec!["a", "b"]);
        let mut host = y("b");
        host.offload_if = false;
        assert_eq!(
            names(&fuse(&r, &[y("a"), host, y("c")])),
            vec!["a", "b", "c"]
        );
        // A reduction on the shared variable.
        let mut reduced = y("b");
        reduced.loops[0]
            .reductions
            .push(crate::clause::ReductionClause {
                var: "y".into(),
                op: RedOp::Sum,
            });
        assert_eq!(names(&fuse(&r, &[y("a"), reduced])), vec!["a", "b"]);
        // A device with no dataflow.
        let mut plain = DeviceRegistry::new();
        plain.register(fake("host", DeviceKind::Host));
        plain.register(fake("cloud-0", DeviceKind::Cloud));
        assert_eq!(names(&fuse(&plain, &[y("a"), y("b")])), vec!["a", "b"]);
        // Disjoint variables fuse; a run breaks and a new one starts
        // after an unfusable member.
        let [produce, consume] = two_stage_pipeline();
        let z = chain_region("c", "z");
        assert_eq!(
            names(&fuse(&r, &[y("a"), y("b"), produce, consume, z])),
            vec!["a+b+stage1", "stage2+c"]
        );
    }

    #[test]
    fn relay_chain_hints_keep_intermediates_resident() {
        let cloud = DataflowFake::new("cloud-0");
        let r = registry_with(&cloud);
        for i in 0..3 {
            r.offload_nowait(relay_region(i));
        }
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert_eq!(report.profiles.len(), 3);
        let log = cloud.log.lock();
        assert_eq!(log.hints.len(), 3);
        assert!(
            log.hints[0].resident_inputs.is_empty(),
            "first has no producer"
        );
        assert_eq!(log.hints[0].keep_resident, vec!["y1"]);
        assert_eq!(log.hints[1].resident_inputs, vec!["y1"]);
        assert_eq!(log.hints[1].keep_resident, vec!["y2"]);
        assert_eq!(log.hints[2].resident_inputs, vec!["y2"]);
        assert!(
            log.hints[2].keep_resident.is_empty(),
            "the last version escapes: the device downloads it eagerly"
        );
        assert_eq!(
            log.materialized,
            vec![vec![("y1".to_string(), None), ("y2".to_string(), None)]],
            "each intermediate is a `map(from:)` owed to the host: one drain"
        );
        assert!(log.invalidated.is_empty(), "nothing was superseded");
        assert_eq!(log.ended, vec!["dag-0"], "lease released exactly once");
        assert!(log.hints.iter().all(|h| h.dag.as_deref() == Some("dag-0")));
        // The DAG's counters are the sum of its stages': one hit and one
        // elided download per hand-off.
        assert_eq!(
            report.dataflow,
            DataflowSummary {
                resident_hits: 2,
                elided_downloads: 2,
                ..DataflowSummary::default()
            }
        );
    }

    #[test]
    fn two_stage_pipeline_materializes_intermediate_at_drain() {
        let cloud = DataflowFake::new("cloud-0");
        let r = registry_with(&cloud);
        for stage in two_stage_pipeline() {
            r.offload_nowait(stage);
        }
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        let log = cloud.log.lock();
        assert_eq!(log.hints[0].keep_resident, vec!["t"]);
        assert_eq!(log.hints[1].resident_inputs, vec!["t"]);
        assert!(log.hints[1].keep_resident.is_empty());
        // `t` was never superseded, so its final (only) version comes
        // home once, at the drain.
        assert_eq!(log.materialized, vec![vec![("t".to_string(), None)]]);
        assert_eq!(report.drain.vars, vec!["t"]);
        assert_eq!(report.drain.wire_bytes, 1);
    }

    #[test]
    fn consumer_fallback_materializes_inputs_and_supersedes_writes() {
        let cloud = Arc::new(DataflowFake {
            fail_on_call: Some(1), // the consumer dies mid-flight
            ..DataflowFake::bare("cloud-0")
        });
        let r = registry_with(&cloud);
        r.offload_nowait(producer_region("producer", "y"));
        r.offload_nowait(chain_region("consumer", "y"));
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert_eq!(report.profiles.len(), 2);
        assert!(report.profiles[1].fallback_from.is_some());
        assert_eq!(report.dataflow.stage_fallbacks, 1);
        let log = cloud.log.lock();
        // The host re-run read `y` from the resident copy first…
        assert_eq!(log.materialized, vec![vec![("y".to_string(), None)]]);
        // …and its write superseded the resident version. The consumer
        // is the chain's last stage, so there is nothing to adopt back.
        assert_eq!(log.invalidated, vec!["y"]);
        assert!(log.adopted.is_empty());
        assert_eq!(log.ended, vec!["dag-0"]);
        assert_eq!(report.drain.vars, vec!["y"], "mid-DAG escape is reported");
    }

    #[test]
    fn failed_producer_adopts_host_outputs_and_keeps_consumer_cloud_side() {
        let cloud = Arc::new(DataflowFake {
            fail_on_call: Some(0), // the producer dies mid-flight
            ..DataflowFake::bare("cloud-0")
        });
        let r = registry_with(&cloud);
        r.offload_nowait(producer_region("producer", "y"));
        r.offload_nowait(chain_region("consumer", "y"));
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert!(report.profiles[0].fallback_from.is_some());
        assert!(report.profiles[1].fallback_from.is_none());
        assert_eq!(
            report.dataflow.stage_fallbacks, 1,
            "the failure stayed contained, and was counted once"
        );
        let log = cloud.log.lock();
        // Per-stage containment: the host-recomputed output was adopted
        // back as a resident key, so the consumer still sources it from
        // the device instead of re-uploading from the host.
        assert_eq!(log.adopted, vec![(vec!["y".to_string()], 0)]);
        assert_eq!(
            log.hints[1].resident_inputs,
            vec!["y"],
            "the consumer stays cloud-side against the adopted copy"
        );
        assert!(log.materialized.is_empty());
    }

    #[test]
    fn failed_producer_without_adoption_leaves_consumer_sourcing_from_host() {
        let cloud = Arc::new(DataflowFake {
            fail_on_call: Some(0), // the producer dies mid-flight
            adopt_ok: false,       // …and the device refuses re-uploads
            ..DataflowFake::bare("cloud-0")
        });
        let r = registry_with(&cloud);
        r.offload_nowait(producer_region("producer", "y"));
        r.offload_nowait(chain_region("consumer", "y"));
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert!(report.profiles[0].fallback_from.is_some());
        assert!(report.profiles[1].fallback_from.is_none());
        assert_eq!(report.dataflow.stage_fallbacks, 1);
        let log = cloud.log.lock();
        assert!(log.adopted.is_empty());
        assert!(
            log.hints[1].resident_inputs.is_empty(),
            "nothing is resident after the producer fell back — the consumer uploads from the host"
        );
        assert!(log.materialized.is_empty());
    }

    #[test]
    fn resident_loss_triggers_lineage_recompute() {
        let cloud = Arc::new(DataflowFake {
            // Stage 1's first attempt finds `y1`'s resident copy gone.
            lose_resident_on_call: Mutex::new(Some((1, "y1".to_string()))),
            ..DataflowFake::bare("cloud-0")
        });
        let r = registry_with(&cloud);
        for i in 0..3 {
            r.offload_nowait(relay_region(i));
        }
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert_eq!(report.profiles.len(), 3, "recovery replays add no profiles");
        assert!(report.profiles.iter().all(|p| p.fallback_from.is_none()));
        // Only the producer re-ran and no stage left the device. The
        // failed attempt published no profile, so each hand-off is still
        // one hit; the replay's elided download joins the three stages'
        // two.
        assert_eq!(
            report.dataflow,
            DataflowSummary {
                resident_hits: 2,
                elided_downloads: 3,
                lineage_recomputes: 1,
                ..DataflowSummary::default()
            }
        );
        let log = cloud.log.lock();
        // stage0, stage1 (loss), recovery of stage0, stage1 retry, stage2.
        assert_eq!(log.hints.len(), 5);
        assert!(log.hints[2].recovery, "third call is the lineage replay");
        assert_eq!(log.hints[2].epoch, 0, "…of the producing region");
        assert!(!log.hints[3].recovery);
        assert_eq!(
            log.hints[3].resident_inputs,
            vec!["y1"],
            "the retried stage sources the regenerated resident copy"
        );
        assert_eq!(
            log.hints[4].resident_inputs,
            vec!["y2"],
            "downstream stages stay cloud-side"
        );
        assert_eq!(
            log.materialized,
            vec![vec![("y1".to_string(), None), ("y2".to_string(), None)]],
            "no mid-DAG host escape; the intermediates come home at the drain"
        );
    }

    #[test]
    fn recovery_budget_exhausted_contains_loss_with_host_replay() {
        let cloud = Arc::new(DataflowFake {
            lose_resident_on_call: Mutex::new(Some((1, "y".to_string()))),
            depth: 0, // recovery-depth budget disallows any replay
            ..DataflowFake::bare("cloud-0")
        });
        let r = registry_with(&cloud);
        r.offload_nowait(producer_region("producer", "y"));
        r.offload_nowait(chain_region("consumer", "y"));
        let mut env = DataEnv::new();
        let report = r.taskwait(&mut env).unwrap();
        assert_eq!(
            report.dataflow.lineage_recomputes, 0,
            "budget forbade the replay"
        );
        assert_eq!(
            report.dataflow.stage_fallbacks, 1,
            "the producer was replayed on the host instead"
        );
        assert!(
            report.profiles.iter().all(|p| p.fallback_from.is_none()),
            "host replays do not surface as whole-stage fallbacks"
        );
        let log = cloud.log.lock();
        // The host-regenerated version superseded the stale resident copy…
        assert_eq!(log.invalidated, vec!["y"]);
        // …and the consumer retried with `y` host-sourced.
        let last = log.hints.last().unwrap();
        assert!(!last.recovery);
        assert!(last.resident_inputs.is_empty());
        assert!(
            log.hints.iter().all(|h| !h.recovery),
            "no device-side replay was attempted"
        );
    }
}
