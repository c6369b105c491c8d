//! Failure injection across the stack: executor death mid-offload,
//! transient storage faults, HDFS datanode loss — the offload must
//! either complete correctly or fail loudly, never corrupt data.

use ompcloud_suite::cloud_storage::{HdfsStore, ObjectStore, StoreHandle};
use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::ompcloud::CloudDevice;
use ompcloud_suite::prelude::*;
use std::sync::Arc;

#[test]
fn gemm_survives_transient_storage_faults() {
    let config = CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        ..CloudConfig::default()
    };
    let store = ompcloud_suite::cloud_storage::S3Store::standalone("faulty");
    let device = CloudDevice::with_store(config, Arc::new(store.clone()));
    let runtime = CloudRuntime::with_device(device);

    // Two injected transient faults: the transfer manager retries.
    store.service().inject_transient_faults(2);

    let mut case = kernels::build(
        BenchId::Gemm,
        16,
        DataKind::Dense,
        3,
        CloudRuntime::cloud_selector(),
    );
    let mut reference = kernels::build(
        BenchId::Gemm,
        16,
        DataKind::Dense,
        3,
        DeviceSelector::Default,
    );
    DeviceRegistry::with_host_only()
        .offload(&reference.region, &mut reference.env)
        .unwrap();

    runtime.offload(&case.region, &mut case.env).unwrap();
    assert_eq!(
        case.env.get::<f32>("C").unwrap(),
        reference.env.get::<f32>("C").unwrap()
    );
    runtime.shutdown();
}

#[test]
fn offload_through_hdfs_survives_datanode_loss() {
    let config = CloudConfig::from_str(
        "[cloud]\nstorage = hdfs://namenode:9000/omp\n[cluster]\nworkers = 2\nvcpus-per-worker = 4\n",
    )
    .unwrap();
    let hdfs = HdfsStore::new(4, 2, 4096);
    let device = CloudDevice::with_store(config, StoreHandle::from(hdfs.clone() as Arc<_>));
    let runtime = CloudRuntime::with_device(device);

    let mut case = kernels::build(
        BenchId::MatMul,
        16,
        DataKind::Sparse,
        8,
        CloudRuntime::cloud_selector(),
    );
    // First offload populates blocks across datanodes.
    runtime.offload(&case.region, &mut case.env).unwrap();
    let first = case.env.get::<f32>("C").unwrap().to_vec();

    // Kill one datanode; replication 2 keeps every block readable.
    hdfs.kill_datanode(0);
    let mut case2 = kernels::build(
        BenchId::MatMul,
        16,
        DataKind::Sparse,
        8,
        CloudRuntime::cloud_selector(),
    );
    runtime.offload(&case2.region, &mut case2.env).unwrap();
    assert_eq!(case2.env.get::<f32>("C").unwrap(), first.as_slice());
    runtime.shutdown();
}

#[test]
fn kernel_panic_fails_the_offload_not_the_process() {
    let runtime = CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        ..CloudConfig::default()
    });
    let region = TargetRegion::builder("crashy")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("y")
        .parallel_for(8, |l| {
            l.body(|i, ins, outs| {
                let x = ins.view::<f32>("x");
                if i == 5 {
                    panic!("simulated native crash in JNI region");
                }
                outs.view_mut::<f32>("y")[i] = x[i];
            })
        })
        .build()
        .unwrap();
    let mut env = DataEnv::new();
    env.insert("x", vec![1.0f32; 8]);
    env.insert("y", vec![0.0f32; 8]);
    let err = runtime.offload(&region, &mut env).unwrap_err();
    assert!(matches!(err, OmpError::Plugin { .. }), "{err:?}");
    // The runtime stays usable for the next region.
    let mut case = kernels::build(
        BenchId::MatMul,
        12,
        DataKind::Dense,
        1,
        CloudRuntime::cloud_selector(),
    );
    runtime.offload(&case.region, &mut case.env).unwrap();
    runtime.shutdown();
}

#[test]
fn slice_past_the_hull_fails_like_an_element_read_past_it() {
    // The last iteration reads the row after its own, one row past the
    // hull of its `rows(n)`-partitioned tile: through a slice that must
    // fail the offload exactly as reading one element of that row does —
    // a kernel fault caught at task granularity, no silent host fallback
    // — and leave the runtime usable.
    let n = 8;
    let runtime = CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        ..CloudConfig::default()
    });
    let failure = |sliced: bool| {
        let region = TargetRegion::builder("past-the-hull")
            .device(CloudRuntime::cloud_selector())
            .map_to("A")
            .map_from("y")
            .parallel_for(n, move |l| {
                l.partition("A", PartitionSpec::rows(n))
                    .partition("y", PartitionSpec::rows(1))
                    .body(move |i, ins, outs| {
                        let a = ins.view::<f32>("A");
                        let row = if i + 1 == n { i + 1 } else { i };
                        let row = row * n..(row + 1) * n;
                        outs.view_mut::<f32>("y")[i] = if sliced {
                            a.slice(row).iter().sum()
                        } else {
                            row.map(|g| a[g]).sum()
                        };
                    })
            })
            .build()
            .unwrap();
        let mut env = DataEnv::new();
        env.insert("A", vec![1.0f32; n * n]);
        env.insert("y", vec![0.0f32; n]);
        let err = runtime.offload(&region, &mut env).unwrap_err();
        assert_eq!(env.get::<f32>("y").unwrap(), vec![0.0f32; n], "{err}");
        err
    };
    let (indexed, sliced) = (failure(false), failure(true));
    // Same variant, same task, same attempt count: the texts differ only
    // in what was asked for.
    assert!(matches!(indexed, OmpError::Plugin { .. }), "{indexed:?}");
    assert!(matches!(sliced, OmpError::Plugin { .. }), "{sliced:?}");
    let indexed = indexed.to_string();
    assert!(
        indexed.ends_with("kernel read global element 64 outside its partition [48, 64)"),
        "{indexed}"
    );
    assert_eq!(
        sliced.to_string(),
        indexed.replace("element 64", "elements [64, 72)")
    );
    let mut case = kernels::build(
        BenchId::MatMul,
        12,
        DataKind::Dense,
        1,
        CloudRuntime::cloud_selector(),
    );
    runtime.offload(&case.region, &mut case.env).unwrap();
    runtime.shutdown();
}

#[test]
fn storage_corruption_is_detected_not_propagated() {
    // Flip bytes in a staged (compressed) input object between offloads:
    // the decompression CRC must catch it.
    let config = CloudConfig {
        workers: 1,
        vcpus_per_worker: 2,
        task_cpus: 2,
        min_compression_size: 16,
        ..CloudConfig::default()
    };
    let store = ompcloud_suite::cloud_storage::S3Store::standalone("corrupt");
    let device = CloudDevice::with_store(config, Arc::new(store.clone()));

    // Stage a compressed object by hand and corrupt it, then ask the
    // transfer layer to read it back.
    let tm = ompcloud_suite::cloud_storage::TransferManager::new(
        Arc::new(store.clone()),
        ompcloud_suite::cloud_storage::TransferConfig {
            min_compression_size: 16,
            ..Default::default()
        },
    );
    tm.upload(vec![("k".into(), vec![0u8; 4096])]).unwrap();
    let mut frame = store.get("k").unwrap();
    let mid = frame.len() / 2;
    frame[mid] ^= 0x55;
    store.put("k", frame).unwrap();
    let err = tm.download(vec!["k".into()]).unwrap_err();
    assert!(
        matches!(
            err,
            ompcloud_suite::cloud_storage::StorageError::Corrupted(_)
        ),
        "{err:?}"
    );
    device.shutdown();
}
