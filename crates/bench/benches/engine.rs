//! Criterion benchmarks of the sparkle engine primitives: job scheduling
//! throughput, map + collect execution, broadcast handling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparkle::{SparkConf, SparkContext};

fn bench_job_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/dispatch");
    group.sample_size(20);
    for &partitions in &[4usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(partitions),
            &partitions,
            |b, &parts| {
                let sc = SparkContext::new(SparkConf::cluster(4, 4));
                let rdd = sc.parallelize(vec![1u64; parts], parts);
                b.iter(|| rdd.collect().unwrap());
                sc.stop();
            },
        );
    }
    group.finish();
}

fn bench_map_collect(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/map_collect");
    group.sample_size(20);
    group.bench_function("sum 100k i64 over 16 tasks", |b| {
        let sc = SparkContext::new(SparkConf::cluster(4, 8));
        let rdd = sc.parallelize((0..100_000i64).collect::<Vec<_>>(), 16);
        b.iter(|| rdd.map(|x| x * 3).collect().unwrap().iter().sum::<i64>());
        sc.stop();
    });
    group.finish();
}

fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/broadcast");
    group.sample_size(20);
    group.bench_function("16MiB value to 16 tasks", |b| {
        let sc = SparkContext::new(SparkConf::cluster(4, 8));
        let value = vec![0.5f32; 4 << 20];
        let bytes = (value.len() * 4) as u64;
        let rdd = sc.parallelize((0..16usize).collect::<Vec<_>>(), 16);
        b.iter(|| {
            let bc = sc.broadcast(value.clone(), bytes);
            let handle = bc.handle();
            rdd.map(move |i| handle[i] as f64)
                .collect()
                .unwrap()
                .iter()
                .sum::<f64>()
        });
        sc.stop();
    });
    group.finish();
}

fn bench_parfor_schedules(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/parfor");
    group.sample_size(20);
    let data: Vec<f64> = (0..1_000_000).map(|i| i as f64).collect();
    for (label, sched) in [
        ("static", omp_parfor::Schedule::Static { chunk: None }),
        ("dynamic64", omp_parfor::Schedule::Dynamic { chunk: 64 }),
        ("guided", omp_parfor::Schedule::Guided { min_chunk: 64 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &sched, |b, &sched| {
            b.iter(|| {
                omp_parfor::parallel_reduce(
                    4,
                    data.len(),
                    sched,
                    0.0f64,
                    |i| data[i].sqrt(),
                    |a, b| a + b,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_job_dispatch,
    bench_map_collect,
    bench_broadcast,
    bench_parfor_schedules
);
criterion_main!(benches);
