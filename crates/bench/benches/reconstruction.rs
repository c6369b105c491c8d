//! Criterion benchmarks of the Eq.-8 reconstruction: the three merge
//! policies, and a whole offload through the driver-side merge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omp_model::prelude::*;
use omp_model::TargetRegion;
use omp_model::{ErasedVec, RedOp, TypeTag};
use ompcloud::{CloudConfig, CloudRuntime};

fn bench_erased_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruct/erased-merge");
    group.sample_size(20);
    let n = 1 << 18; // 1 MiB of f32
    for (label, op) in [
        ("bitor", RedOp::BitOr),
        ("sum", RedOp::Sum),
        ("max", RedOp::Max),
    ] {
        let src = ErasedVec::from_vec(vec![1.5f32; n]);
        group.bench_with_input(BenchmarkId::from_parameter(label), &op, |b, &op| {
            let mut acc = ErasedVec::identity(TypeTag::F32, n, op);
            b.iter(|| acc.reduce_assign(std::hint::black_box(&src), op))
        });
    }
    group.bench_function("indexed-write", |b| {
        let mut acc = ErasedVec::identity(TypeTag::F32, n, RedOp::BitOr);
        let part = ErasedVec::from_vec(vec![2.0f32; n / 8]);
        b.iter(|| acc.write_at(std::hint::black_box(n / 2), &part))
    });
    group.finish();
}

fn region(n: usize) -> TargetRegion {
    // Unpartitioned output: exercises the replicated-collect paths.
    TargetRegion::builder("recon")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("y")
        .parallel_for(n, |l| {
            l.body(|i, ins, outs| {
                let x = ins.view::<f32>("x");
                outs.view_mut::<f32>("y")[i] = x[i] + 1.0;
            })
        })
        .build()
        .unwrap()
}

fn bench_reduce_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruct/offload");
    group.sample_size(10);
    let n = 512;
    group.bench_function("driver-merge", |b| {
        let rt = CloudRuntime::new(CloudConfig {
            workers: 2,
            vcpus_per_worker: 4,
            task_cpus: 2,
            ..CloudConfig::default()
        });
        let r = region(n);
        b.iter(|| {
            let mut env = DataEnv::new();
            env.insert("x", vec![1.0f32; n]);
            env.insert("y", vec![0.0f32; n]);
            rt.offload(&r, &mut env).unwrap()
        });
        rt.shutdown();
    });
    group.finish();
}

criterion_group!(benches, bench_erased_merge, bench_reduce_paths);
criterion_main!(benches);
