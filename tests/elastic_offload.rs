//! The elastic map-phase scheduler exercised through the *full* offload
//! path (CloudConfig knobs, upload, tiling, map, reconstruction): every
//! schedule mode, with and without speculation racing duplicate
//! attempts, must produce bitwise-identical outputs.

use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::prelude::*;
use ompcloud_suite::sparkle::ScheduleMode;

fn runtime(schedule: ScheduleMode, spec_factor: f64) -> CloudRuntime {
    CloudRuntime::new(CloudConfig {
        workers: 4,
        vcpus_per_worker: 2,
        task_cpus: 2,
        schedule,
        spec_factor,
        ..CloudConfig::default()
    })
}

#[test]
fn offload_is_bitwise_identical_across_schedule_modes_and_speculation() {
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for schedule in [
        ScheduleMode::Static,
        ScheduleMode::Dynamic,
        ScheduleMode::Stealing,
    ] {
        for spec_factor in [0.0, 1.5] {
            let rt = runtime(schedule, spec_factor);
            let mut case = kernels::build(
                BenchId::Gemm,
                16,
                DataKind::Dense,
                3,
                CloudRuntime::cloud_selector(),
            );
            rt.offload(&case.region, &mut case.env).unwrap();
            let outs: Vec<Vec<u8>> = case
                .outputs
                .iter()
                .map(|v| case.env.get_erased(v).unwrap().to_bytes())
                .collect();
            match &reference {
                None => reference = Some(outs),
                Some(r) => assert_eq!(
                    r, &outs,
                    "bitwise parity violated at schedule={schedule} spec_factor={spec_factor}"
                ),
            }
            rt.shutdown();
        }
    }
}

#[test]
fn schedule_knob_parses_through_the_config_file() {
    let cfg = CloudConfig::from_str(
        "[cloud]\nprovider = aws\n[offload]\nschedule = dynamic\nspec-factor = 2\n",
    )
    .unwrap();
    let rt = CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 2,
        task_cpus: 2,
        ..cfg
    });
    let mut case = kernels::build(
        BenchId::MatMul,
        12,
        DataKind::Dense,
        5,
        CloudRuntime::cloud_selector(),
    );
    rt.offload(&case.region, &mut case.env).unwrap();
    let metrics = rt.cloud();
    assert_eq!(metrics.config().schedule, ScheduleMode::Dynamic);
    assert!((metrics.config().spec_factor - 2.0).abs() < 1e-12);
    rt.shutdown();
}

#[test]
fn loop_schedule_clause_overrides_the_cluster_mode() {
    // A `schedule(dynamic)` clause on the loop must reach the cluster
    // scheduler even when the config says static — the parfor Schedule
    // types are reused at cluster scope.
    let rt = runtime(ScheduleMode::Static, 0.0);
    let region = TargetRegion::builder("sched")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("y")
        .parallel_for(64, |l| {
            l.schedule(Schedule::Dynamic { chunk: 1 })
                .partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    outs.view_mut::<f32>("y")[i] = ins.view::<f32>("x")[i] * 2.0;
                })
        })
        .build()
        .unwrap();
    let mut env = DataEnv::new();
    env.insert("x", (0..64).map(|i| i as f32).collect::<Vec<_>>());
    env.insert("y", vec![0.0f32; 64]);
    rt.offload(&region, &mut env).unwrap();
    assert_eq!(env.get::<f32>("y").unwrap()[10], 20.0);
    rt.shutdown();
}
