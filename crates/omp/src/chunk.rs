//! Chunked execution of a parallel loop, shared by every device plug-in.
//!
//! Both the host device and the cloud plug-in execute a loop as a set of
//! iteration *chunks* (the cloud calls them tiles, Algorithm 1). For each
//! chunk the runtime builds input views (partitioned variables sliced to
//! the chunk's hull, everything else shared whole), allocates private
//! output buffers, runs the body, and finally merges the private outputs
//! back — by indexed writes for partitioned outputs, by bitwise-OR for
//! unpartitioned ones, or with the user's reduction operator (Eqs. 8–10).

use crate::clause::MapDir;
use crate::env::DataEnv;
use crate::erased::{ErasedSlice, ErasedVec, RedOp};
use crate::error::OmpError;
use crate::region::{LoopBody, ParallelLoop, TargetRegion};
use crate::view::{Inputs, Outputs};
use std::ops::Range;
use std::sync::Arc;

/// How a private chunk output merges into the final variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Partitioned output: the driver writes the block at its offset.
    Indexed,
    /// Unpartitioned output: disjoint writes stitched with bitwise OR.
    BitOr,
    /// Declared reduction variable: combined with the operator.
    Reduce(RedOp),
}

/// Merge policy of `var` within `loop_`.
pub fn merge_policy(loop_: &ParallelLoop, var: &str) -> MergePolicy {
    if let Some(r) = loop_.reduction_for(var) {
        MergePolicy::Reduce(r.op)
    } else if loop_
        .partitions
        .get(var)
        .map(|s| s.is_indexed())
        .unwrap_or(false)
    {
        MergePolicy::Indexed
    } else {
        MergePolicy::BitOr
    }
}

/// Build the input views for one chunk from host-side buffers.
///
/// Partitioned inputs are *sliced* down to the chunk hull as zero-copy
/// [`ErasedSlice`] views of the shared buffer (this range is the data
/// that would travel to the worker); unpartitioned inputs are shared
/// whole (broadcast).
pub fn chunk_inputs(
    region: &TargetRegion,
    loop_: &ParallelLoop,
    env: &DataEnv,
    iters: Range<usize>,
) -> Result<Inputs, OmpError> {
    let mut inputs = Inputs::new();
    for m in region.input_maps() {
        let buf = env.get_erased(&m.name)?;
        match loop_.partitions.get(&m.name).filter(|s| s.is_indexed()) {
            Some(spec) => {
                let hull = spec.range_for_tile(iters.clone(), buf.len())?;
                inputs.add_slice(&m.name, hull.start, ErasedSlice::new(Arc::clone(buf), hull));
            }
            None => inputs.add(&m.name, 0, Arc::clone(buf)),
        }
    }
    Ok(inputs)
}

/// Allocate the private output buffers for one chunk.
///
/// * `Indexed` `tofrom` outputs cover only the chunk hull and are
///   pre-filled with the original values so partially-written variables
///   keep untouched elements. `Indexed` `from`-only outputs get a
///   zero-bit hull instead: the region never reads their initial
///   contents, so shipping them to the worker would be a dead `to`
///   transfer.
/// * `BitOr` outputs cover the whole variable, zero-bit initialized.
/// * `Reduce` outputs cover the whole variable, identity initialized.
/// * `alloc` scratch covers the whole variable, zero-bit initialized,
///   private to the chunk and never merged back.
pub fn chunk_outputs(
    region: &TargetRegion,
    loop_: &ParallelLoop,
    env: &DataEnv,
    iters: Range<usize>,
) -> Result<Outputs, OmpError> {
    let mut outputs = Outputs::new();
    for m in region
        .maps
        .iter()
        .filter(|m| m.dir.is_output() || m.dir.is_alloc())
    {
        let buf = env.get_erased(&m.name)?;
        if m.dir.is_alloc() {
            outputs.add(
                &m.name,
                0,
                ErasedVec::identity(buf.tag(), buf.len(), RedOp::BitOr),
            );
            continue;
        }
        match merge_policy(loop_, &m.name) {
            MergePolicy::Indexed => {
                let spec = loop_.partitions.get(&m.name).expect("indexed implies spec");
                let hull = spec.range_for_tile(iters.clone(), buf.len())?;
                if m.dir == MapDir::ToFrom {
                    outputs.add(&m.name, hull.start, buf.slice_copy(hull));
                } else {
                    let len = hull.end - hull.start;
                    outputs.add(
                        &m.name,
                        hull.start,
                        ErasedVec::identity(buf.tag(), len, RedOp::BitOr),
                    );
                }
            }
            MergePolicy::BitOr => {
                outputs.add(
                    &m.name,
                    0,
                    ErasedVec::identity(buf.tag(), buf.len(), RedOp::BitOr),
                );
            }
            MergePolicy::Reduce(op) => {
                outputs.add(&m.name, 0, ErasedVec::identity(buf.tag(), buf.len(), op));
            }
        }
    }
    Ok(outputs)
}

/// Run the loop body over every iteration of the chunk: the one "JNI
/// invocation" per tile, on the host and on a cluster worker alike. It
/// takes the body rather than the loop because that is all a map task
/// owns.
pub fn run_chunk(body: &LoopBody, iters: Range<usize>, inputs: &Inputs, outputs: &mut Outputs) {
    for i in iters {
        body(i, inputs, outputs);
    }
}

/// Driver-side accumulator reconstructing the final value of every output
/// variable of one loop from the private chunk buffers (Eq. 8).
///
/// A variable no chunk ever wrote (possible in multi-loop regions where
/// each loop writes a subset of the mapped outputs) keeps its previous
/// value instead of being overwritten with merge identities.
pub struct MergeAcc {
    accs: Vec<AccSlot>,
    /// `map(alloc:)` scratch names: chunk parts for these are dropped on
    /// absorb instead of merged — scratch never flows back to the host.
    alloc: Vec<String>,
}

struct AccSlot {
    name: String,
    policy: MergePolicy,
    acc: ErasedVec,
    touched: bool,
}

impl MergeAcc {
    /// Prepare accumulators for every output variable of `loop_`.
    pub fn new(
        region: &TargetRegion,
        loop_: &ParallelLoop,
        env: &DataEnv,
    ) -> Result<Self, OmpError> {
        let mut accs = Vec::new();
        for m in region.output_maps() {
            let buf = env.get_erased(&m.name)?;
            let policy = merge_policy(loop_, &m.name);
            let acc = match policy {
                // Start tofrom accumulators from the original so
                // partially-covered variables keep their untouched
                // elements; from-only initial contents are dead (never
                // read by the region) and start zero-bit instead.
                MergePolicy::Indexed if m.dir == MapDir::ToFrom => (**buf).clone(),
                MergePolicy::Indexed => ErasedVec::identity(buf.tag(), buf.len(), RedOp::BitOr),
                MergePolicy::BitOr => ErasedVec::identity(buf.tag(), buf.len(), RedOp::BitOr),
                MergePolicy::Reduce(op) => ErasedVec::identity(buf.tag(), buf.len(), op),
            };
            accs.push(AccSlot {
                name: m.name.clone(),
                policy,
                acc,
                touched: false,
            });
        }
        Ok(MergeAcc {
            accs,
            alloc: region.alloc_maps().map(|m| m.name.clone()).collect(),
        })
    }

    /// Absorb the private outputs of one finished chunk
    /// ([`Outputs::into_parts`]).
    pub fn absorb(&mut self, parts: Vec<crate::view::OutPart>) {
        for part in parts {
            if self.alloc.contains(&part.name) {
                continue;
            }
            let slot = self
                .accs
                .iter_mut()
                .find(|s| s.name == part.name)
                .unwrap_or_else(|| panic!("chunk produced unknown output '{}'", part.name));
            if !part.touched {
                continue;
            }
            slot.touched = true;
            match slot.policy {
                MergePolicy::Indexed => slot.acc.write_at(part.base, &part.data),
                MergePolicy::BitOr => slot.acc.reduce_assign(&part.data, RedOp::BitOr),
                MergePolicy::Reduce(op) => slot.acc.reduce_assign(&part.data, op),
            }
        }
    }

    /// Write the reconstructed outputs back into the data environment.
    /// Reduction variables are combined with their original host value
    /// (OpenMP reduction semantics include the initial value once);
    /// variables the loop never wrote are left alone.
    pub fn finish(self, env: &mut DataEnv) -> Result<(), OmpError> {
        for AccSlot {
            name,
            policy,
            mut acc,
            touched,
        } in self.accs
        {
            if !touched {
                continue;
            }
            if let MergePolicy::Reduce(op) = policy {
                let original = (**env.get_erased(&name)?).clone();
                acc.reduce_assign(&original, op);
            }
            env.write_back(&name, acc)?;
        }
        Ok(())
    }
}

/// Convenience: run one whole loop sequentially against a data
/// environment in `chunk_count` chunks and merge the result. This is the
/// reference execution path every device is tested against.
pub fn execute_loop_chunked(
    region: &TargetRegion,
    loop_: &ParallelLoop,
    env: &mut DataEnv,
    chunk_count: usize,
) -> Result<(), OmpError> {
    let mut acc = MergeAcc::new(region, loop_, env)?;
    for iters in omp_parfor::split_even(loop_.trip_count, chunk_count) {
        let inputs = chunk_inputs(region, loop_, env, iters.clone())?;
        let mut outputs = chunk_outputs(region, loop_, env, iters.clone())?;
        run_chunk(&loop_.body, iters, &inputs, &mut outputs);
        acc.absorb(outputs.into_parts());
    }
    acc.finish(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSelector;
    use crate::partition::PartitionSpec;
    use crate::region::TargetRegion;

    /// y[i] = 2 * x[i], x partitioned per iteration, y partitioned too.
    fn scale_region(n: usize, partitioned: bool) -> TargetRegion {
        TargetRegion::builder("scale")
            .device(DeviceSelector::Default)
            .map_to("x")
            .map_from("y")
            .parallel_for(n, |mut l| {
                if partitioned {
                    l = l
                        .partition("x", PartitionSpec::rows(1))
                        .partition("y", PartitionSpec::rows(1));
                }
                l.body(|i, ins, outs| {
                    let x = ins.view::<f32>("x");
                    let mut y = outs.view_mut::<f32>("y");
                    y[i] = 2.0 * x[i];
                })
            })
            .build()
            .unwrap()
    }

    fn env_with_x(n: usize) -> DataEnv {
        let mut env = DataEnv::new();
        env.insert("x", (0..n).map(|i| i as f32).collect::<Vec<_>>());
        env.insert("y", vec![0.0f32; n]);
        env
    }

    #[test]
    fn chunked_execution_matches_expected_partitioned() {
        for chunks in [1, 2, 3, 7, 16] {
            let region = scale_region(16, true);
            let mut env = env_with_x(16);
            execute_loop_chunked(&region, &region.loops[0], &mut env, chunks).unwrap();
            let y = env.get::<f32>("y").unwrap();
            for (i, &v) in y.iter().enumerate() {
                assert_eq!(v, 2.0 * i as f32, "chunks={chunks}");
            }
        }
    }

    #[test]
    fn chunked_execution_matches_expected_bitor() {
        for chunks in [1, 4, 5] {
            let region = scale_region(16, false);
            let mut env = env_with_x(16);
            execute_loop_chunked(&region, &region.loops[0], &mut env, chunks).unwrap();
            let y = env.get::<f32>("y").unwrap();
            for (i, &v) in y.iter().enumerate() {
                assert_eq!(v, 2.0 * i as f32, "chunks={chunks}");
            }
        }
    }

    #[test]
    fn merge_policies_selected_correctly() {
        let region = scale_region(4, true);
        assert_eq!(merge_policy(&region.loops[0], "y"), MergePolicy::Indexed);
        let region = scale_region(4, false);
        assert_eq!(merge_policy(&region.loops[0], "y"), MergePolicy::BitOr);
    }

    #[test]
    fn reduction_sums_across_chunks_and_includes_original() {
        // s[0] = initial + sum over i of x[i]
        let region = TargetRegion::builder("dot")
            .map_to("x")
            .map_tofrom("s")
            .parallel_for(10, |l| {
                l.reduction("s", RedOp::Sum).body(|i, ins, outs| {
                    let x = ins.view::<f32>("x");
                    let mut s = outs.view_mut::<f32>("s");
                    s.update(0, |v| v + x[i]);
                })
            })
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        env.insert("x", (0..10).map(|i| i as f32).collect::<Vec<_>>());
        env.insert("s", vec![100.0f32]);
        execute_loop_chunked(&region, &region.loops[0], &mut env, 3).unwrap();
        assert_eq!(env.get::<f32>("s").unwrap()[0], 100.0 + 45.0);
    }

    #[test]
    fn partitioned_tofrom_preserves_untouched_elements() {
        // Loop writes only the first half of y; partitioned tofrom must
        // keep the second half intact.
        let region = TargetRegion::builder("half")
            .map_tofrom("y")
            .parallel_for(4, |l| {
                l.partition("y", PartitionSpec::rows(1)).body(|i, _, outs| {
                    let mut y = outs.view_mut::<f32>("y");
                    y[i] = 1.0;
                })
            })
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        env.insert("y", vec![9.0f32; 8]);
        execute_loop_chunked(&region, &region.loops[0], &mut env, 2).unwrap();
        assert_eq!(
            env.get::<f32>("y").unwrap(),
            &[1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0]
        );
    }

    #[test]
    fn partitioned_from_only_output_does_not_ship_initial_contents() {
        // y is map(from): its host-side initial contents are dead. The
        // chunk hull must start zero-bit, not carry a copy of them.
        let region = scale_region(4, true);
        let mut env = DataEnv::new();
        env.insert("x", vec![0.0f32; 4]);
        env.insert("y", vec![7.0f32; 4]);
        let outs = chunk_outputs(&region, &region.loops[0], &env, 1..3).unwrap();
        let parts = outs.into_parts();
        let y = parts.iter().find(|p| p.name == "y").unwrap();
        assert_eq!(y.base, 1);
        assert_eq!(y.data.as_slice::<f32>().unwrap(), &[0.0, 0.0]);
    }

    #[test]
    fn alloc_scratch_is_private_and_never_merged() {
        // tmp is map(alloc): each chunk sees fresh zeroed scratch, uses
        // it as an intermediate, and the host copy stays untouched.
        let region = TargetRegion::builder("scratch")
            .map_to("x")
            .map_alloc("tmp")
            .map_from("y")
            .parallel_for(8, |l| {
                l.partition("y", PartitionSpec::rows(1))
                    .body(|i, ins, outs| {
                        let x = ins.view::<f32>("x");
                        {
                            let mut tmp = outs.view_mut::<f32>("tmp");
                            tmp[i] = x[i] + 1.0;
                        }
                        let staged = outs.view_mut::<f32>("tmp")[i];
                        outs.view_mut::<f32>("y")[i] = 2.0 * staged;
                    })
            })
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        env.insert("x", (0..8).map(|i| i as f32).collect::<Vec<_>>());
        env.insert("tmp", vec![55.0f32; 8]);
        env.insert("y", vec![0.0f32; 8]);
        execute_loop_chunked(&region, &region.loops[0], &mut env, 3).unwrap();
        for (i, &v) in env.get::<f32>("y").unwrap().iter().enumerate() {
            assert_eq!(v, 2.0 * (i as f32 + 1.0));
        }
        // The alloc var's host copy is exactly what it was.
        assert_eq!(env.get::<f32>("tmp").unwrap(), &[55.0f32; 8]);
    }

    #[test]
    fn partitioned_inputs_are_sliced_to_hull() {
        let region = scale_region(8, true);
        let env = env_with_x(8);
        let ins = chunk_inputs(&region, &region.loops[0], &env, 2..5).unwrap();
        let x = ins.view::<f32>("x");
        assert_eq!(x.base(), 2);
        assert_eq!(x.len(), 3);
        assert_eq!(x[4], 4.0);
    }

    #[test]
    fn unpartitioned_inputs_are_shared_whole() {
        let region = scale_region(8, false);
        let env = env_with_x(8);
        let ins = chunk_inputs(&region, &region.loops[0], &env, 2..5).unwrap();
        let x = ins.view::<f32>("x");
        assert_eq!(x.base(), 0);
        assert_eq!(x.len(), 8);
    }
}
