//! The worker-side shim's variable tables, end to end: a body that
//! resolves 32 inputs by name on every iteration — half of them scattered
//! (so each tile's table holds slices with a non-zero base), half
//! broadcast, in three element types — gives the same bits on the cloud,
//! where the map task fills the tables from the tile's RDD element, as on
//! the host, where `chunk_inputs`/`chunk_outputs` fill them.

use ompcloud_suite::prelude::*;

const N: usize = 1000;
const F32_INPUTS: usize = 30;

fn f32_names() -> Vec<String> {
    (0..F32_INPUTS).map(|k| format!("x{k:02}")).collect()
}

/// `y[i] = d[i] + Σ x_k[i]` in f64, `m[i] = b[i] ^ i` in u8: 32 input
/// lookups and 2 output lookups per iteration.
fn region(device: DeviceSelector) -> TargetRegion {
    let names = f32_names();
    let mut b = TargetRegion::builder("shim-tables").device(device);
    for name in names.iter().map(String::as_str).chain(["d", "b"]) {
        b = b.map_to(name);
    }
    b.map_from("y")
        .map_from("m")
        .parallel_for(N, move |mut l| {
            // Even-numbered inputs and the f64 one travel per tile.
            for name in names.iter().step_by(2) {
                l = l.partition(name, PartitionSpec::rows(1));
            }
            l.partition("d", PartitionSpec::rows(1))
                .partition("y", PartitionSpec::rows(1))
                .partition("m", PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    let mut acc = ins.view::<f64>("d")[i];
                    for name in &names {
                        acc += f64::from(ins.view::<f32>(name)[i]);
                    }
                    outs.view_mut::<f64>("y")[i] = acc;
                    outs.view_mut::<u8>("m")[i] = ins.view::<u8>("b")[i] ^ i as u8;
                })
        })
        .build()
        .unwrap()
}

fn env() -> DataEnv {
    let mut e = DataEnv::new();
    for (k, name) in f32_names().into_iter().enumerate() {
        let x: Vec<f32> = (0..N).map(|i| ((i * (k + 3)) % 97) as f32 * 0.37).collect();
        e.insert(name, x);
    }
    e.insert(
        "d",
        (0..N).map(|i| i as f64 * 1e-3 + 0.1).collect::<Vec<_>>(),
    );
    e.insert("b", (0..N).map(|i| (i * 7 % 251) as u8).collect::<Vec<_>>());
    e.insert("y", vec![0.0f64; N]);
    e.insert("m", vec![0u8; N]);
    e
}

#[test]
fn host_and_cloud_agree_bitwise_through_32_lookups_per_iteration() {
    let mut host_env = env();
    HostDevice::sequential()
        .execute(&region(DeviceSelector::Default), &mut host_env)
        .unwrap();

    // 4 slots: tiles of 250 iterations, so three of the four tiles see
    // their scattered inputs and both outputs at a non-zero base.
    let rt = CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 2,
        task_cpus: 1,
        ..CloudConfig::default()
    });
    let mut cloud_env = env();
    let profile = rt
        .offload(&region(CloudRuntime::cloud_selector()), &mut cloud_env)
        .unwrap();
    assert!(profile.fallback_from.is_none(), "ran on the host instead");
    let report = rt.cloud().last_report().unwrap();
    assert_eq!(report.loops[0].tiles, 4);
    // 15 f32 inputs and the f64 one scattered, 15 f32 and the u8 broadcast.
    assert_eq!(report.loops[0].scatter_bytes, (N * (15 * 4 + 8)) as u64);
    assert_eq!(report.loops[0].broadcast.bytes, (N * (15 * 4 + 1)) as u64);
    rt.shutdown();

    let bits = |e: &DataEnv| -> Vec<u64> {
        let y = e.get::<f64>("y").unwrap();
        y.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&cloud_env), bits(&host_env));
    assert_eq!(
        cloud_env.get::<u8>("m").unwrap(),
        host_env.get::<u8>("m").unwrap()
    );
    // And the host leg computed what the body says.
    let y = host_env.get::<f64>("y").unwrap();
    assert!(y[N - 1] > 0.1 && y.iter().all(|v| v.is_finite()));
    let m = host_env.get::<u8>("m").unwrap();
    assert_eq!(m[999], (999 * 7 % 251) as u8 ^ 999usize as u8);
}
