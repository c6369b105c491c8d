//! Target regions — the runtime image of an annotated code fragment.
//!
//! When Clang lowers Listing 1 of the paper, the `target` + `map` +
//! `parallel for` pragmas become a runtime descriptor plus an outlined
//! loop-body function embedded in the fat binary. [`TargetRegion`] is that
//! descriptor: map clauses, one or more parallel loops (a region may hold
//! *several* `parallel for` loops, executed as successive map-reduce
//! stages on the cloud device, §III-D), partition specs, reductions, and
//! the set of synchronization constructs the region uses — which the
//! device plug-in checks against its capabilities.

use crate::clause::{
    Construct, DependClause, DependDir, MapClause, MapDir, PartitionMap, ReductionClause,
};
use crate::device::DeviceSelector;
use crate::erased::RedOp;
use crate::error::OmpError;
use crate::partition::PartitionSpec;
use crate::tenant::TenantId;
use crate::view::{Inputs, Outputs};
use omp_parfor::Schedule;
use std::collections::HashSet;
use std::sync::Arc;

/// The outlined loop body: called once per iteration with the iteration
/// index and views of the mapped variables.
pub type LoopBody = Arc<dyn Fn(usize, &Inputs, &mut Outputs) + Send + Sync + 'static>;

/// One `parallel for` loop inside a target region.
#[derive(Clone)]
pub struct ParallelLoop {
    /// Trip count `N` of the DOALL loop.
    pub trip_count: usize,
    /// Listing-2 style per-iteration partitioning of mapped variables.
    pub partitions: PartitionMap,
    /// `reduction(op: var)` clauses.
    pub reductions: Vec<ReductionClause>,
    /// Outlined loop body.
    pub body: LoopBody,
    /// Optional cost hint (floating-point operations per iteration) used
    /// by the performance model; ignored by functional execution.
    pub flops_per_iter: Option<f64>,
    /// OpenMP `schedule(...)` clause. Honored by the host device's
    /// worksharing; the cloud device tiles with Algorithm 1 instead
    /// (task granularity there is dictated by JNI/dispatch costs).
    pub schedule: Schedule,
}

impl std::fmt::Debug for ParallelLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelLoop")
            .field("trip_count", &self.trip_count)
            .field("partitions", &self.partitions)
            .field("reductions", &self.reductions)
            .field("flops_per_iter", &self.flops_per_iter)
            .finish_non_exhaustive()
    }
}

impl ParallelLoop {
    /// Reduction clause attached to `var`, if any.
    pub fn reduction_for(&self, var: &str) -> Option<&ReductionClause> {
        self.reductions.iter().find(|r| r.var == var)
    }
}

/// A complete `#pragma omp target` region.
#[derive(Debug, Clone)]
pub struct TargetRegion {
    /// Human-readable kernel name (used in logs and reports).
    pub name: String,
    /// Which device the `device(...)` clause selects.
    pub device: DeviceSelector,
    /// The region's `map` clauses.
    pub maps: Vec<MapClause>,
    /// Parallel loops, executed in order.
    pub loops: Vec<ParallelLoop>,
    /// Constructs used inside the region (capability checking).
    pub constructs: HashSet<Construct>,
    /// OpenMP `if(...)` clause result: when false, the region runs on
    /// the host regardless of the `device(...)` clause (the standard's
    /// conditional-offload semantics; useful when the problem is too
    /// small to amortize the transfer).
    pub offload_if: bool,
    /// `depend(in:/out:/inout:)` clauses — inter-region dataflow edges
    /// over mapped variables. Only meaningful on deferred (`nowait`)
    /// regions scheduled through the registry's region DAG.
    pub depends: Vec<DependClause>,
    /// `nowait`: defer execution into the registry's region DAG; the
    /// region runs (in dependency order) at the next `taskwait`.
    pub nowait: bool,
    /// Tenant submitting this region. Admission control, circuit
    /// breakers, and quarantine scores are scoped to this identity so
    /// one client's faults never bleed into another's. Defaults to the
    /// shared `"default"` tenant for single-program use.
    pub tenant: TenantId,
}

impl TargetRegion {
    /// Start building a region named `name`.
    pub fn builder(name: impl Into<String>) -> TargetRegionBuilder {
        TargetRegionBuilder {
            name: name.into(),
            device: DeviceSelector::Default,
            maps: Vec::new(),
            loops: Vec::new(),
            constructs: HashSet::from([Construct::ParallelFor]),
            offload_if: true,
            depends: Vec::new(),
            nowait: false,
            tenant: TenantId::default(),
        }
    }

    /// Map clauses that move data *to* the device.
    pub fn input_maps(&self) -> impl Iterator<Item = &MapClause> {
        self.maps.iter().filter(|m| m.dir.is_input())
    }

    /// Map clauses that move data *from* the device.
    pub fn output_maps(&self) -> impl Iterator<Item = &MapClause> {
        self.maps.iter().filter(|m| m.dir.is_output())
    }

    /// Map clauses for device-side scratch (`map(alloc: ...)`): the
    /// variable exists on the device for the region's lifetime but never
    /// crosses the wire in either direction.
    pub fn alloc_maps(&self) -> impl Iterator<Item = &MapClause> {
        self.maps.iter().filter(|m| m.dir.is_alloc())
    }

    /// Variables this region declares a read dependence on
    /// (`depend(in:)` / `depend(inout:)`).
    pub fn depend_reads(&self) -> impl Iterator<Item = &str> {
        self.depends
            .iter()
            .filter(|d| d.dir.is_read())
            .map(|d| d.var.as_str())
    }

    /// Variables this region declares a write dependence on
    /// (`depend(out:)` / `depend(inout:)`).
    pub fn depend_writes(&self) -> impl Iterator<Item = &str> {
        self.depends
            .iter()
            .filter(|d| d.dir.is_write())
            .map(|d| d.var.as_str())
    }
}

/// Builder for [`TargetRegion`] — the programmatic equivalent of writing
/// the pragmas of Listings 1 and 2.
pub struct TargetRegionBuilder {
    name: String,
    device: DeviceSelector,
    maps: Vec<MapClause>,
    loops: Vec<ParallelLoop>,
    constructs: HashSet<Construct>,
    offload_if: bool,
    depends: Vec<DependClause>,
    nowait: bool,
    tenant: TenantId,
}

impl TargetRegionBuilder {
    /// `device(...)` clause.
    pub fn device(mut self, device: DeviceSelector) -> Self {
        self.device = device;
        self
    }

    /// `map(to: name)`.
    pub fn map_to(mut self, name: impl Into<String>) -> Self {
        self.maps.push(MapClause::new(name, MapDir::To));
        self
    }

    /// `map(from: name)`.
    pub fn map_from(mut self, name: impl Into<String>) -> Self {
        self.maps.push(MapClause::new(name, MapDir::From));
        self
    }

    /// `map(tofrom: name)`.
    pub fn map_tofrom(mut self, name: impl Into<String>) -> Self {
        self.maps.push(MapClause::new(name, MapDir::ToFrom));
        self
    }

    /// `map(alloc: name)` — device-side scratch, zero bytes moved.
    pub fn map_alloc(mut self, name: impl Into<String>) -> Self {
        self.maps.push(MapClause::new(name, MapDir::Alloc));
        self
    }

    /// Declare that the region uses `construct` (so devices can refuse).
    pub fn uses(mut self, construct: Construct) -> Self {
        self.constructs.insert(construct);
        self
    }

    /// OpenMP `if(condition)` clause: when `condition` is false the
    /// region executes on the host.
    pub fn offload_if(mut self, condition: bool) -> Self {
        self.offload_if = condition;
        self
    }

    /// `depend(in: var)` — consume the latest version of `var` produced
    /// by an earlier region in the same DAG window.
    pub fn depend_in(mut self, var: impl Into<String>) -> Self {
        self.depends.push(DependClause::new(var, DependDir::In));
        self
    }

    /// `depend(out: var)` — produce a new version of `var` for later
    /// regions to consume.
    pub fn depend_out(mut self, var: impl Into<String>) -> Self {
        self.depends.push(DependClause::new(var, DependDir::Out));
        self
    }

    /// `depend(inout: var)` — read the latest version, write the next.
    pub fn depend_inout(mut self, var: impl Into<String>) -> Self {
        self.depends.push(DependClause::new(var, DependDir::InOut));
        self
    }

    /// `nowait`: defer the region into the registry's region DAG; it
    /// executes at the next `taskwait`, in dependency order.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// Submit on behalf of `tenant` — scopes admission, breaker, and
    /// quarantine state to that identity.
    pub fn tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Add a `parallel for` loop with `trip_count` iterations, configured
    /// through the closure.
    pub fn parallel_for<F>(mut self, trip_count: usize, configure: F) -> Self
    where
        F: FnOnce(LoopBuilder) -> LoopBuilder,
    {
        let lb = configure(LoopBuilder {
            trip_count,
            partitions: PartitionMap::none(),
            reductions: Vec::new(),
            body: None,
            flops_per_iter: None,
            schedule: Schedule::default(),
        });
        self.loops.push(ParallelLoop {
            trip_count: lb.trip_count,
            partitions: lb.partitions,
            reductions: lb.reductions,
            body: lb.body.unwrap_or_else(|| Arc::new(|_, _, _| {})),
            flops_per_iter: lb.flops_per_iter,
            schedule: lb.schedule,
        });
        self
    }

    /// Validate and produce the region.
    pub fn build(self) -> Result<TargetRegion, OmpError> {
        if self.loops.is_empty() {
            return Err(OmpError::InvalidRegion(format!(
                "region '{}' contains no parallel loops",
                self.name
            )));
        }
        let mut seen = HashSet::new();
        for m in &self.maps {
            if !seen.insert(m.name.clone()) {
                return Err(OmpError::InvalidRegion(format!(
                    "variable '{}' appears in more than one map clause",
                    m.name
                )));
            }
        }
        for (li, l) in self.loops.iter().enumerate() {
            if l.trip_count == 0 {
                return Err(OmpError::InvalidRegion(format!(
                    "loop {li} of region '{}' has a zero trip count",
                    self.name
                )));
            }
            for (var, _) in l.partitions.iter() {
                if !seen.contains(var) {
                    return Err(OmpError::InvalidRegion(format!(
                        "loop {li} partitions '{var}' which is not mapped"
                    )));
                }
                if self.maps.iter().any(|m| m.name == var && m.dir.is_alloc()) {
                    return Err(OmpError::InvalidRegion(format!(
                        "loop {li} partitions '{var}' which is mapped 'alloc' \
                         (scratch is private per tile, not scattered)"
                    )));
                }
            }
            for r in &l.reductions {
                let clause = self.maps.iter().find(|m| m.name == r.var);
                match clause {
                    None => {
                        return Err(OmpError::InvalidRegion(format!(
                            "loop {li} reduces '{}' which is not mapped",
                            r.var
                        )))
                    }
                    Some(m) if !m.dir.is_output() => {
                        return Err(OmpError::InvalidRegion(format!(
                            "loop {li} reduces '{}' which is mapped '{}' (must be from/tofrom)",
                            r.var, m.dir
                        )))
                    }
                    Some(_) => {}
                }
                if l.partitions.get(&r.var).is_some() {
                    return Err(OmpError::InvalidRegion(format!(
                        "'{}' cannot be both partitioned and a reduction variable",
                        r.var
                    )));
                }
            }
        }
        let mut dep_seen = HashSet::new();
        for d in &self.depends {
            if !dep_seen.insert((d.var.clone(), d.dir)) {
                return Err(OmpError::InvalidRegion(format!(
                    "variable '{}' appears twice in depend({}: ...) clauses",
                    d.var, d.dir
                )));
            }
            let clause = self.maps.iter().find(|m| m.name == d.var);
            match clause {
                None => {
                    return Err(OmpError::InvalidRegion(format!(
                        "depend({}: {}) names a variable with no map clause",
                        d.dir, d.var
                    )))
                }
                Some(m) if d.dir.is_read() && !m.dir.is_input() => {
                    return Err(OmpError::InvalidRegion(format!(
                        "depend({}: {}) reads a variable mapped '{}' (must be to/tofrom)",
                        d.dir, d.var, m.dir
                    )))
                }
                Some(m) if d.dir.is_write() && !m.dir.is_output() => {
                    return Err(OmpError::InvalidRegion(format!(
                        "depend({}: {}) writes a variable mapped '{}' (must be from/tofrom)",
                        d.dir, d.var, m.dir
                    )))
                }
                Some(_) => {}
            }
        }
        Ok(TargetRegion {
            name: self.name,
            device: self.device,
            maps: self.maps,
            loops: self.loops,
            constructs: self.constructs,
            offload_if: self.offload_if,
            depends: self.depends,
            nowait: self.nowait,
            tenant: self.tenant,
        })
    }
}

/// Builder for a single [`ParallelLoop`].
pub struct LoopBuilder {
    trip_count: usize,
    partitions: PartitionMap,
    reductions: Vec<ReductionClause>,
    body: Option<LoopBody>,
    flops_per_iter: Option<f64>,
    schedule: Schedule,
}

impl LoopBuilder {
    /// Listing-2 `target data map` partition of `var`.
    pub fn partition(mut self, var: impl Into<String>, spec: PartitionSpec) -> Self {
        self.partitions.set(var, spec);
        self
    }

    /// `reduction(op: var)` clause.
    pub fn reduction(mut self, var: impl Into<String>, op: RedOp) -> Self {
        self.reductions.push(ReductionClause {
            var: var.into(),
            op,
        });
        self
    }

    /// Cost hint for the performance model.
    pub fn flops_per_iter(mut self, flops: f64) -> Self {
        self.flops_per_iter = Some(flops);
        self
    }

    /// OpenMP `schedule(static|dynamic|guided[, chunk])` clause.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The outlined loop body.
    pub fn body<F>(mut self, f: F) -> Self
    where
        F: Fn(usize, &Inputs, &mut Outputs) + Send + Sync + 'static,
    {
        self.body = Some(Arc::new(f));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_region(n: usize) -> Result<TargetRegion, OmpError> {
        TargetRegion::builder("matmul")
            .device(DeviceSelector::Default)
            .map_to("A")
            .map_to("B")
            .map_from("C")
            .parallel_for(n, |l| {
                l.partition("A", PartitionSpec::rows(n))
                    .partition("C", PartitionSpec::rows(n))
                    .body(|_, _, _| {})
            })
            .build()
    }

    #[test]
    fn builds_valid_region() {
        let r = matmul_region(4).unwrap();
        assert_eq!(r.maps.len(), 3);
        assert_eq!(r.loops.len(), 1);
        assert_eq!(r.input_maps().count(), 2);
        assert_eq!(r.output_maps().count(), 1);
        assert!(r.constructs.contains(&Construct::ParallelFor));
    }

    #[test]
    fn rejects_empty_region() {
        let err = TargetRegion::builder("empty")
            .map_to("A")
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn rejects_zero_trip_count() {
        let err = TargetRegion::builder("z")
            .parallel_for(0, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn rejects_duplicate_maps() {
        let err = TargetRegion::builder("dup")
            .map_to("A")
            .map_from("A")
            .parallel_for(1, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn rejects_partition_of_unmapped_var() {
        let err = TargetRegion::builder("p")
            .map_to("A")
            .parallel_for(4, |l| {
                l.partition("X", PartitionSpec::rows(1)).body(|_, _, _| {})
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn rejects_reduction_on_input_only_var() {
        let err = TargetRegion::builder("r")
            .map_to("A")
            .parallel_for(4, |l| l.reduction("A", RedOp::Sum).body(|_, _, _| {}))
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn alloc_maps_are_neither_inputs_nor_outputs() {
        let r = TargetRegion::builder("scratch")
            .map_to("x")
            .map_alloc("tmp")
            .map_from("y")
            .parallel_for(4, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        assert_eq!(r.input_maps().count(), 1);
        assert_eq!(r.output_maps().count(), 1);
        assert_eq!(
            r.alloc_maps().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            vec!["tmp"]
        );
    }

    #[test]
    fn rejects_partitioned_alloc_var() {
        let err = TargetRegion::builder("scratch")
            .map_alloc("tmp")
            .parallel_for(4, |l| {
                l.partition("tmp", PartitionSpec::rows(1))
                    .body(|_, _, _| {})
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn rejects_reduction_on_alloc_var() {
        let err = TargetRegion::builder("scratch")
            .map_alloc("tmp")
            .parallel_for(4, |l| l.reduction("tmp", RedOp::Sum).body(|_, _, _| {}))
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn rejects_partitioned_reduction_var() {
        let err = TargetRegion::builder("pr")
            .map_from("S")
            .parallel_for(4, |l| {
                l.partition("S", PartitionSpec::rows(1))
                    .reduction("S", RedOp::Sum)
                    .body(|_, _, _| {})
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn depend_nowait_round_trips_through_builder() {
        let r = TargetRegion::builder("stage2")
            .map_to("t")
            .map_from("y")
            .depend_in("t")
            .depend_out("y")
            .nowait()
            .parallel_for(4, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        assert!(r.nowait);
        assert_eq!(r.depend_reads().collect::<Vec<_>>(), vec!["t"]);
        assert_eq!(r.depend_writes().collect::<Vec<_>>(), vec!["y"]);
    }

    #[test]
    fn depend_inout_is_both_read_and_write() {
        let r = TargetRegion::builder("iter")
            .map_tofrom("y")
            .depend_inout("y")
            .parallel_for(4, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        assert_eq!(r.depend_reads().collect::<Vec<_>>(), vec!["y"]);
        assert_eq!(r.depend_writes().collect::<Vec<_>>(), vec!["y"]);
    }

    #[test]
    fn rejects_depend_on_unmapped_var() {
        let err = TargetRegion::builder("d")
            .map_to("A")
            .depend_in("X")
            .parallel_for(4, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn rejects_depend_direction_map_mismatch() {
        // depend(out:) on an input-only map: the region cannot produce
        // a version of a variable it never writes back.
        let err = TargetRegion::builder("d")
            .map_to("A")
            .map_from("B")
            .depend_out("A")
            .parallel_for(4, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
        let err = TargetRegion::builder("d")
            .map_to("A")
            .map_from("B")
            .depend_in("B")
            .parallel_for(4, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn rejects_duplicate_depend_clause() {
        let err = TargetRegion::builder("d")
            .map_tofrom("y")
            .depend_in("y")
            .depend_in("y")
            .parallel_for(4, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap_err();
        assert!(matches!(err, OmpError::InvalidRegion(_)));
    }

    #[test]
    fn tenant_round_trips_through_builder() {
        let r = matmul_region(4).unwrap();
        assert!(r.tenant.is_default());
        let r = TargetRegion::builder("t")
            .map_to("A")
            .tenant("acme")
            .parallel_for(2, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        assert_eq!(r.tenant.as_str(), "acme");
    }

    #[test]
    fn multi_loop_region_builds() {
        // 2MM-style: two successive matmuls in one target region.
        let r = TargetRegion::builder("2mm")
            .map_to("A")
            .map_to("B")
            .map_to("C")
            .map_from("D")
            .parallel_for(8, |l| l.body(|_, _, _| {}))
            .parallel_for(8, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        assert_eq!(r.loops.len(), 2);
    }
}
