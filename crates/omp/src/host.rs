//! The host device plug-in: runs target regions on the local machine.
//!
//! With one thread this is the sequential baseline every speedup in the
//! paper is normalized against; with `n` threads it is the *OmpThread*
//! configuration (traditional multi-threaded OpenMP `parallel for`).
//! It supports every synchronization construct, since the host is a
//! shared-memory machine.

use crate::chunk::{chunk_inputs, chunk_outputs, run_chunk, MergeAcc};
use crate::clause::Construct;
use crate::device::{Device, DeviceKind};
use crate::env::DataEnv;
use crate::error::OmpError;
use crate::profile::ExecProfile;
use crate::region::TargetRegion;
use omp_parfor::Schedule;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Chunk list for one loop instance under its schedule clause.
///
/// Dynamic and guided schedules are realized by pre-computing the chunk
/// boundaries their online counterparts would produce and letting the
/// worker pool claim chunks from a shared cursor — same work division,
/// deterministic merge order.
fn schedule_chunks(n: usize, threads: usize, schedule: Schedule) -> Vec<std::ops::Range<usize>> {
    match schedule {
        Schedule::Static { chunk: None } => omp_parfor::split_even(n, threads),
        Schedule::Static { chunk: Some(c) } | Schedule::Dynamic { chunk: c } => {
            let c = c.max(1);
            (0..n.div_ceil(c))
                .map(|k| (k * c)..((k + 1) * c).min(n))
                .collect()
        }
        Schedule::Guided { min_chunk } => {
            let min_chunk = min_chunk.max(1);
            let mut out = Vec::new();
            let mut start = 0;
            while start < n {
                let remaining = n - start;
                let c = (remaining / (2 * threads.max(1)))
                    .max(min_chunk)
                    .min(remaining);
                out.push(start..start + c);
                start += c;
            }
            out
        }
    }
}

/// Local-machine execution of target regions.
pub struct HostDevice {
    name: String,
    threads: usize,
}

impl HostDevice {
    /// Single-threaded host device (the paper's 1-core baseline).
    pub fn sequential() -> Self {
        HostDevice {
            name: "host-seq".into(),
            threads: 1,
        }
    }

    /// Multi-threaded host device (*OmpThread* with `threads` threads).
    pub fn threaded(threads: usize) -> Self {
        let threads = threads.max(1);
        HostDevice {
            name: format!("host-{threads}t"),
            threads,
        }
    }

    /// Number of worker threads this device uses.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Device for HostDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Host
    }

    fn supports(&self, _construct: Construct) -> bool {
        true
    }

    fn execute(&self, region: &TargetRegion, env: &mut DataEnv) -> Result<ExecProfile, OmpError> {
        let mut profile = ExecProfile::new(self.name.clone());
        let start = Instant::now();
        let mut compute_s = 0.0;

        for loop_ in &region.loops {
            let chunks = schedule_chunks(loop_.trip_count, self.threads, loop_.schedule);
            profile.tasks += chunks.len() as u64;
            let mut acc = MergeAcc::new(region, loop_, env)?;

            let t_par = Instant::now();
            if chunks.len() == 1 || self.threads == 1 {
                for iters in chunks {
                    let inputs = chunk_inputs(region, loop_, env, iters.clone())?;
                    let mut outputs = chunk_outputs(region, loop_, env, iters.clone())?;
                    run_chunk(&loop_.body, iters, &inputs, &mut outputs);
                    acc.absorb(outputs.into_parts());
                }
                compute_s += t_par.elapsed().as_secs_f64();
            } else {
                // Worksharing: `threads` workers claim chunk *indices*
                // from a shared cursor and build their views lazily, so
                // live memory stays O(threads x buffer) even under
                // fine-grained dynamic schedules. Results land in
                // per-chunk slots so the merge order is deterministic
                // regardless of which thread ran which chunk.
                let cursor = AtomicUsize::new(0);
                let mut slots: Vec<Option<Result<crate::view::Outputs, OmpError>>> = Vec::new();
                slots.resize_with(chunks.len(), || None);
                let slots = parking_lot::Mutex::new(&mut slots);
                let env_ref: &DataEnv = env;
                let chunks_ref = &chunks;
                let panicked = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..self.threads)
                        .map(|_| {
                            let cursor = &cursor;
                            let slots = &slots;
                            scope.spawn(move || loop {
                                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                                if idx >= chunks_ref.len() {
                                    return;
                                }
                                let iters = chunks_ref[idx].clone();
                                let result = chunk_inputs(region, loop_, env_ref, iters.clone())
                                    .and_then(|inputs| {
                                        let mut outputs =
                                            chunk_outputs(region, loop_, env_ref, iters.clone())?;
                                        run_chunk(&loop_.body, iters, &inputs, &mut outputs);
                                        Ok(outputs)
                                    });
                                slots.lock()[idx] = Some(result);
                            })
                        })
                        .collect();
                    handles.into_iter().any(|h| h.join().is_err())
                });
                if panicked {
                    return Err(OmpError::Plugin {
                        device: self.name.clone(),
                        detail: "kernel body panicked in a worker thread".into(),
                    });
                }
                compute_s += t_par.elapsed().as_secs_f64();
                for slot in slots.into_inner().iter_mut() {
                    let outputs = slot.take().expect("all chunks ran")?;
                    acc.absorb(outputs.into_parts());
                }
            }
            acc.finish(env)?;
        }

        profile.compute_s = compute_s;
        profile.overhead_s = (start.elapsed().as_secs_f64() - compute_s).max(0.0);
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSelector;
    use crate::erased::RedOp;
    use crate::partition::PartitionSpec;

    /// Tiny matmul region used to compare thread counts.
    fn matmul_region(n: usize) -> TargetRegion {
        TargetRegion::builder("matmul")
            .device(DeviceSelector::Default)
            .map_to("A")
            .map_to("B")
            .map_from("C")
            .parallel_for(n, move |l| {
                l.partition("A", PartitionSpec::rows(n))
                    .partition("C", PartitionSpec::rows(n))
                    .body(move |i, ins, outs| {
                        let a = ins.view::<f32>("A");
                        let b = ins.view::<f32>("B");
                        let mut c = outs.view_mut::<f32>("C");
                        for j in 0..n {
                            let mut sum = 0.0;
                            for k in 0..n {
                                sum += a[i * n + k] * b[k * n + j];
                            }
                            c[i * n + j] = sum;
                        }
                    })
            })
            .build()
            .unwrap()
    }

    fn matmul_env(n: usize) -> DataEnv {
        let mut env = DataEnv::new();
        env.insert("A", (0..n * n).map(|i| (i % 7) as f32).collect::<Vec<_>>());
        env.insert(
            "B",
            (0..n * n).map(|i| ((i * 3) % 5) as f32).collect::<Vec<_>>(),
        );
        env.insert("C", vec![0.0f32; n * n]);
        env
    }

    fn reference_matmul(env: &DataEnv, n: usize) -> Vec<f32> {
        let a = env.get::<f32>("A").unwrap();
        let b = env.get::<f32>("B").unwrap();
        let mut c = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    c[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn sequential_matches_reference() {
        let n = 12;
        let region = matmul_region(n);
        let mut env = matmul_env(n);
        let expected = reference_matmul(&env, n);
        let p = HostDevice::sequential().execute(&region, &mut env).unwrap();
        assert_eq!(env.get::<f32>("C").unwrap(), expected.as_slice());
        assert_eq!(p.tasks, 1);
    }

    #[test]
    fn threaded_matches_sequential_for_all_thread_counts() {
        let n = 16;
        for threads in [2, 3, 4, 8, 17] {
            let region = matmul_region(n);
            let mut env = matmul_env(n);
            let expected = reference_matmul(&env, n);
            HostDevice::threaded(threads)
                .execute(&region, &mut env)
                .unwrap();
            assert_eq!(
                env.get::<f32>("C").unwrap(),
                expected.as_slice(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn reduction_region_parallel_matches() {
        let n = 1000usize;
        let region = TargetRegion::builder("dot")
            .map_to("x")
            .map_to("y")
            .map_tofrom("s")
            .parallel_for(n, |l| {
                l.reduction("s", RedOp::Sum).body(|i, ins, outs| {
                    let x = ins.view::<f64>("x");
                    let y = ins.view::<f64>("y");
                    let mut s = outs.view_mut::<f64>("s");
                    s.update(0, |v| v + x[i] * y[i]);
                })
            })
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        env.insert("x", (0..n).map(|i| i as f64).collect::<Vec<_>>());
        env.insert("y", vec![2.0f64; n]);
        env.insert("s", vec![0.0f64]);
        HostDevice::threaded(4).execute(&region, &mut env).unwrap();
        let expected: f64 = (0..n).map(|i| i as f64 * 2.0).sum();
        assert!((env.get::<f64>("s").unwrap()[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn all_schedule_clauses_give_identical_results() {
        let n = 100usize;
        let mut reference: Option<Vec<f32>> = None;
        for sched in [
            Schedule::Static { chunk: None },
            Schedule::Static { chunk: Some(7) },
            Schedule::Dynamic { chunk: 3 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let region = TargetRegion::builder("sched")
                .map_to("x")
                .map_from("y")
                .parallel_for(n, move |l| {
                    l.partition("y", PartitionSpec::rows(1))
                        .schedule(sched)
                        .body(|i, ins, outs| {
                            let x = ins.view::<f32>("x");
                            outs.view_mut::<f32>("y")[i] = x[i] * 3.0 + 1.0;
                        })
                })
                .build()
                .unwrap();
            let mut env = DataEnv::new();
            env.insert("x", (0..n).map(|i| i as f32).collect::<Vec<_>>());
            env.insert("y", vec![0.0f32; n]);
            HostDevice::threaded(4).execute(&region, &mut env).unwrap();
            let y = env.get::<f32>("y").unwrap().to_vec();
            match &reference {
                None => reference = Some(y),
                Some(r) => assert_eq!(&y, r, "{sched:?}"),
            }
        }
    }

    #[test]
    fn dynamic_schedule_creates_many_tasks() {
        let n = 64usize;
        let region = TargetRegion::builder("dyn")
            .map_from("y")
            .parallel_for(n, |l| {
                l.schedule(Schedule::Dynamic { chunk: 4 })
                    .body(|i, _, outs| {
                        outs.view_mut::<u32>("y")[i] = i as u32;
                    })
            })
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        env.insert("y", vec![0u32; n]);
        let p = HostDevice::threaded(4).execute(&region, &mut env).unwrap();
        assert_eq!(p.tasks, 16, "64 iterations in chunks of 4");
        assert!(env
            .get::<u32>("y")
            .unwrap()
            .iter()
            .enumerate()
            .all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn schedule_chunks_cover_exactly() {
        for sched in [
            Schedule::Static { chunk: None },
            Schedule::Static { chunk: Some(5) },
            Schedule::Dynamic { chunk: 9 },
            Schedule::Guided { min_chunk: 3 },
        ] {
            for n in [1usize, 10, 97, 256] {
                let chunks = schedule_chunks(n, 4, sched);
                let mut next = 0;
                for c in &chunks {
                    assert_eq!(c.start, next, "{sched:?} n={n}");
                    assert!(!c.is_empty());
                    next = c.end;
                }
                assert_eq!(next, n, "{sched:?} n={n}");
            }
        }
    }

    #[test]
    fn host_supports_all_constructs() {
        let d = HostDevice::sequential();
        for c in [
            Construct::ParallelFor,
            Construct::Atomic,
            Construct::Barrier,
            Construct::Critical,
            Construct::Flush,
            Construct::Master,
        ] {
            assert!(d.supports(c));
        }
    }

    #[test]
    fn multi_loop_region_chains_results() {
        // loop 1: t[i] = x[i] + 1; loop 2: y[i] = t[i] * 2.
        let n = 64;
        let region = TargetRegion::builder("chain")
            .map_to("x")
            .map_tofrom("t")
            .map_from("y")
            .parallel_for(n, |l| {
                l.partition("t", PartitionSpec::rows(1))
                    .body(|i, ins, outs| {
                        let x = ins.view::<f32>("x");
                        let mut t = outs.view_mut::<f32>("t");
                        t[i] = x[i] + 1.0;
                    })
            })
            .parallel_for(n, |l| {
                l.partition("y", PartitionSpec::rows(1))
                    .body(|i, ins, outs| {
                        let t = ins.view::<f32>("t");
                        let mut y = outs.view_mut::<f32>("y");
                        y[i] = t[i] * 2.0;
                    })
            })
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        env.insert("x", (0..n).map(|i| i as f32).collect::<Vec<_>>());
        env.insert("t", vec![0.0f32; n]);
        env.insert("y", vec![0.0f32; n]);
        HostDevice::threaded(3).execute(&region, &mut env).unwrap();
        let y = env.get::<f32>("y").unwrap();
        for (i, &v) in y.iter().enumerate() {
            assert_eq!(v, (i as f32 + 1.0) * 2.0);
        }
    }
}
