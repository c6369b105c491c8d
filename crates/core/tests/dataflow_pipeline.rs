//! End-to-end tests of inter-region dataflow: `depend`/`nowait` chains
//! whose intermediate buffers stay cloud-resident between regions, with
//! host round-trips paid only at the edges of the DAG.

use omp_model::prelude::*;
use ompcloud::{CloudConfig, CloudRuntime, DataflowSummary};

fn small_config() -> CloudConfig {
    CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        min_compression_size: 64,
        ..CloudConfig::default()
    }
}

/// One stage of the iterative chain: `y[i] = 2*y[i] + 1`, Jacobi-style
/// (reads the staged input copy, writes the collected output copy).
fn chain_stage(n: usize, stage: usize, device: DeviceSelector, nowait: bool) -> TargetRegion {
    let mut b = TargetRegion::builder(format!("chain-{stage}"))
        .device(device)
        .map_tofrom("y")
        .parallel_for(n, move |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let y = ins.view::<f32>("y");
                    outs.view_mut::<f32>("y")[i] = 2.0 * y[i] + 1.0;
                })
        });
    if nowait {
        b = b.depend_inout("y").nowait();
    }
    b.build().unwrap()
}

fn chain_env(n: usize) -> DataEnv {
    let mut env = DataEnv::new();
    env.insert("y", (0..n).map(|i| (i % 17) as f32).collect::<Vec<_>>());
    env
}

/// Host reference: the same K stages run eagerly on the host device.
fn host_chain(n: usize, k: usize) -> Vec<f32> {
    let registry = DeviceRegistry::with_host_only();
    let mut env = chain_env(n);
    for stage in 0..k {
        let region = chain_stage(n, stage, DeviceSelector::Default, false);
        registry.offload(&region, &mut env).unwrap();
    }
    env.get::<f32>("y").unwrap().to_vec()
}

#[test]
fn chained_regions_elide_intermediate_round_trips() {
    let n = 32;
    let k = 4;
    let runtime = CloudRuntime::new(small_config());
    let mut env = chain_env(n);

    for stage in 0..k {
        runtime.offload_nowait(chain_stage(n, stage, CloudRuntime::cloud_selector(), true));
    }
    assert_eq!(runtime.pending_regions(), k);
    let dag = runtime.taskwait(&mut env).unwrap();
    assert_eq!(runtime.pending_regions(), 0);

    // Bitwise-identical to the eager host chain.
    assert_eq!(env.get::<f32>("y").unwrap(), host_chain(n, k).as_slice());

    // Exactly one upload (stage 0) and one download (stage K-1) of y;
    // every intermediate hop stayed in the cloud.
    assert_eq!(dag.profiles.len(), k);
    let bytes = (n * 4) as u64;
    assert_eq!(
        dag.profiles[0].bytes_to_device, bytes,
        "first stage uploads y"
    );
    for p in &dag.profiles[1..] {
        assert_eq!(p.bytes_to_device, 0, "a later stage re-uploaded");
    }
    for p in &dag.profiles[..k - 1] {
        assert_eq!(p.bytes_from_device, 0, "an early stage downloaded");
    }
    assert_eq!(
        dag.profiles[k - 1].bytes_from_device,
        bytes,
        "last stage materializes y"
    );
    // All-tofrom chain: the final version came back through the last
    // stage itself, nothing is left for the drain.
    assert!(dag.drain.vars.is_empty(), "drain: {:?}", dag.drain.vars);

    // The DAG's counters are the sum of its stages': exactly one hit
    // and one elided download per hand-off, nothing else.
    assert_eq!(
        dag.dataflow,
        DataflowSummary {
            resident_hits: (k - 1) as u32,
            elided_downloads: (k - 1) as u32,
            ..DataflowSummary::default()
        }
    );
    let report = runtime.cloud().last_report().unwrap();
    assert_eq!(report.profile.dataflow.resident_hits, 1);
    assert_eq!(report.profile.dataflow.resident_misses, 0);

    // Storage hygiene: no resident keys outlive the taskwait.
    let leftovers = runtime.cloud().store().list("");
    assert!(
        leftovers.iter().all(|k| !k.contains("/dataflow/")),
        "resident keys leaked: {leftovers:?}"
    );
    runtime.shutdown();
}

#[test]
fn two_stage_pipeline_materializes_escaping_intermediate_at_drain() {
    // Stage 1 produces t (map_from, consumed by stage 2); stage 2
    // produces y. t escapes the DAG, so it must reach the host exactly
    // once — at the drain, from the resident copy.
    let n = 16;
    let runtime = CloudRuntime::new(small_config());

    let stage1 = TargetRegion::builder("produce")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("t")
        .depend_out("t")
        .nowait()
        .parallel_for(n, |l| {
            l.partition("t", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let x = ins.view::<f32>("x");
                    outs.view_mut::<f32>("t")[i] = x[i] + 1.0;
                })
        })
        .build()
        .unwrap();
    let stage2 = TargetRegion::builder("consume")
        .device(CloudRuntime::cloud_selector())
        .map_to("t")
        .map_from("y")
        .depend_in("t")
        .nowait()
        .parallel_for(n, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let t = ins.view::<f32>("t");
                    outs.view_mut::<f32>("y")[i] = t[i] * 3.0;
                })
        })
        .build()
        .unwrap();

    let mut env = DataEnv::new();
    env.insert("x", (0..n).map(|i| i as f32).collect::<Vec<_>>());
    env.insert("t", vec![0.0f32; n]);
    env.insert("y", vec![0.0f32; n]);

    runtime.offload_nowait(stage1);
    runtime.offload_nowait(stage2);
    let dag = runtime.taskwait(&mut env).unwrap();

    let t = env.get::<f32>("t").unwrap();
    let y = env.get::<f32>("y").unwrap();
    for i in 0..n {
        assert_eq!(t[i], i as f32 + 1.0);
        assert_eq!(y[i], (i as f32 + 1.0) * 3.0);
    }
    assert_eq!(dag.drain.vars, vec!["t".to_string()]);
    assert!(dag.drain.wire_bytes > 0);
    // Stage 2 never uploaded t and stage 1 never downloaded it.
    assert_eq!(dag.profiles[1].bytes_to_device, 0);
    assert_eq!(dag.profiles[0].bytes_from_device, 0);
    runtime.shutdown();
}

#[test]
fn unreachable_cloud_runs_the_chain_on_the_host() {
    let n = 24;
    let k = 3;
    let config = CloudConfig {
        simulate_unreachable: true,
        ..small_config()
    };
    let runtime = CloudRuntime::new(config);
    let mut env = chain_env(n);
    for stage in 0..k {
        runtime.offload_nowait(chain_stage(n, stage, CloudRuntime::cloud_selector(), true));
    }
    let dag = runtime.taskwait(&mut env).unwrap();
    assert_eq!(env.get::<f32>("y").unwrap(), host_chain(n, k).as_slice());
    for p in &dag.profiles {
        assert!(p.device.starts_with("host"), "ran on {}", p.device);
    }
    runtime.shutdown();
}

#[test]
fn dataflow_knob_off_pays_every_round_trip_but_stays_correct() {
    let n = 16;
    let k = 3;
    let config = CloudConfig {
        dataflow: false,
        ..small_config()
    };
    let runtime = CloudRuntime::new(config);
    let mut env = chain_env(n);
    for stage in 0..k {
        runtime.offload_nowait(chain_stage(n, stage, CloudRuntime::cloud_selector(), true));
    }
    let dag = runtime.taskwait(&mut env).unwrap();
    assert_eq!(env.get::<f32>("y").unwrap(), host_chain(n, k).as_slice());
    let bytes = (n * 4) as u64;
    for p in &dag.profiles {
        assert_eq!(p.bytes_to_device, bytes);
        assert_eq!(p.bytes_from_device, bytes);
    }
    let report = runtime.cloud().last_report().unwrap();
    assert!(
        !report.profile.dataflow.any() && !dag.dataflow.any(),
        "no dataflow with the knob off"
    );
    runtime.shutdown();
}

#[test]
fn eager_offload_flushes_pending_nowait_regions_first() {
    // An eager (non-nowait) region reading y must observe the chained
    // updates: the registry issues an implicit taskwait before it runs.
    let n = 8;
    let runtime = CloudRuntime::new(small_config());
    let mut env = chain_env(n);
    env.insert("z", vec![0.0f32; n]);
    for stage in 0..2 {
        runtime.offload_nowait(chain_stage(n, stage, CloudRuntime::cloud_selector(), true));
    }
    let eager = TargetRegion::builder("observe")
        .device(CloudRuntime::cloud_selector())
        .map_to("y")
        .map_from("z")
        .parallel_for(n, |l| {
            l.partition("z", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    outs.view_mut::<f32>("z")[i] = ins.view::<f32>("y")[i];
                })
        })
        .build()
        .unwrap();
    runtime.offload(&eager, &mut env).unwrap();
    assert_eq!(runtime.pending_regions(), 0, "implicit taskwait drained");
    assert_eq!(env.get::<f32>("z").unwrap(), host_chain(n, 2).as_slice());
    runtime.shutdown();
}
