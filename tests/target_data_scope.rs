//! `target data` scopes: device residency across multiple target
//! regions, with transfers only at the scope boundaries.

use omp_model::MapDir;
use ompcloud_suite::cloud_storage::{LatencyStore, StorageError, StoreHandle};
use ompcloud_suite::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn runtime() -> CloudRuntime {
    CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        ..CloudConfig::default()
    })
}

fn scale_region(n: usize, factor: f32, src: &'static str, dst: &'static str) -> TargetRegion {
    let mut builder = TargetRegion::builder("scale").device(CloudRuntime::cloud_selector());
    if src != dst {
        builder = builder.map_to(src);
    }
    builder
        .map_tofrom(dst)
        .parallel_for(n, move |l| {
            l.partition(dst, PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    let s = ins.view::<f32>(src);
                    outs.view_mut::<f32>(dst)[i] = s[i] * factor;
                })
        })
        .build()
        .unwrap()
}

#[test]
fn regions_inside_a_scope_transfer_nothing() {
    let rt = runtime();
    let n = 64;
    let mut env = DataEnv::new();
    env.insert("x", (0..n).map(|i| i as f32).collect::<Vec<_>>());
    env.insert("y", vec![0.0f32; n]);

    let mut scope = rt
        .target_data(&env, &[("x", MapDir::To), ("y", MapDir::ToFrom)])
        .unwrap();
    // Two regions against resident data; the second reads the first's
    // output directly from the device.
    let p1 = scope.offload(&scale_region(n, 2.0, "x", "y")).unwrap();
    let p2 = scope.offload(&scale_region(n, 10.0, "y", "y")).unwrap();
    assert_eq!(
        p1.host_comm_s, 0.0,
        "no host-target transfer inside the scope"
    );
    assert_eq!(p2.host_comm_s, 0.0);
    assert!(p1.notes.iter().any(|n| n.contains("target-data")));

    // Host copy is untouched until the scope closes (OpenMP semantics).
    assert_eq!(env.get::<f32>("y").unwrap()[5], 0.0);

    let stats = scope.close(&mut env).unwrap();
    assert_eq!(stats.regions_run, 2);
    assert_eq!(
        stats.bytes_in,
        (2 * n * 4) as u64,
        "x and y(tofrom) shipped in"
    );
    assert_eq!(stats.bytes_out, (n * 4) as u64, "y shipped out");

    let y = env.get::<f32>("y").unwrap();
    for (i, &v) in y.iter().enumerate() {
        assert_eq!(v, i as f32 * 20.0, "y = (x*2)*10");
    }
    rt.shutdown();
}

#[test]
fn scope_results_match_unscoped_offloads() {
    let n = 32;
    let rt = runtime();
    // Unscoped: two separate offloads with full round-trips.
    let mut plain = DataEnv::new();
    plain.insert("x", (0..n).map(|i| (i * 3) as f32).collect::<Vec<_>>());
    plain.insert("y", vec![0.0f32; n]);
    rt.offload(&scale_region(n, 2.0, "x", "y"), &mut plain)
        .unwrap();
    rt.offload(&scale_region(n, 10.0, "y", "y"), &mut plain)
        .unwrap();

    // Scoped.
    let mut scoped = DataEnv::new();
    scoped.insert("x", (0..n).map(|i| (i * 3) as f32).collect::<Vec<_>>());
    scoped.insert("y", vec![0.0f32; n]);
    let mut scope = rt
        .target_data(&scoped, &[("x", MapDir::To), ("y", MapDir::ToFrom)])
        .unwrap();
    scope.offload(&scale_region(n, 2.0, "x", "y")).unwrap();
    scope.offload(&scale_region(n, 10.0, "y", "y")).unwrap();
    scope.close(&mut scoped).unwrap();

    assert_eq!(
        plain.get::<f32>("y").unwrap(),
        scoped.get::<f32>("y").unwrap()
    );
    rt.shutdown();
}

#[test]
fn region_with_unscoped_variable_is_rejected() {
    let rt = runtime();
    let n = 8;
    let mut env = DataEnv::new();
    env.insert("x", vec![1.0f32; n]);
    env.insert("y", vec![0.0f32; n]);
    env.insert("z", vec![0.0f32; n]);

    let mut scope = rt
        .target_data(&env, &[("x", MapDir::To), ("y", MapDir::From)])
        .unwrap();
    let err = scope.offload(&scale_region(n, 1.0, "x", "z")).unwrap_err();
    assert!(matches!(err, OmpError::Plugin { .. }), "{err:?}");
    // The scope is still usable for valid regions.
    let region = TargetRegion::builder("ok")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("y")
        .parallel_for(n, |l| {
            l.body(|i, ins, outs| {
                let x = ins.view::<f32>("x");
                outs.view_mut::<f32>("y")[i] = x[i];
            })
        })
        .build()
        .unwrap();
    scope.offload(&region).unwrap();
    scope.close(&mut env).unwrap();
    assert_eq!(env.get::<f32>("y").unwrap(), vec![1.0f32; n].as_slice());
    rt.shutdown();
}

#[test]
fn only_one_scope_at_a_time() {
    let rt = runtime();
    let mut env = DataEnv::new();
    env.insert("x", vec![1.0f32; 4]);
    let scope = rt.target_data(&env, &[("x", MapDir::To)]).unwrap();
    let err = rt.target_data(&env, &[("x", MapDir::To)]).unwrap_err();
    assert!(matches!(err, OmpError::Plugin { .. }));
    drop(scope); // abandoned without close
                 // A new scope can open afterwards.
    let scope2 = rt.target_data(&env, &[("x", MapDir::To)]).unwrap();
    let mut env2 = env.clone();
    scope2.close(&mut env2).unwrap();
    rt.shutdown();
}

#[test]
fn dropped_scope_discards_outputs() {
    let rt = runtime();
    let n = 16;
    let mut env = DataEnv::new();
    env.insert("x", vec![2.0f32; n]);
    env.insert("y", vec![7.0f32; n]);
    {
        let mut scope = rt
            .target_data(&env, &[("x", MapDir::To), ("y", MapDir::ToFrom)])
            .unwrap();
        scope.offload(&scale_region(n, 5.0, "x", "y")).unwrap();
        // dropped without close
    }
    // Host y keeps its original value.
    assert_eq!(env.get::<f32>("y").unwrap(), vec![7.0f32; n].as_slice());
    // Ordinary offloads still work after the abandon.
    rt.offload(&scale_region(n, 5.0, "x", "y"), &mut env)
        .unwrap();
    assert_eq!(env.get::<f32>("y").unwrap(), vec![10.0f32; n].as_slice());
    rt.shutdown();
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Edge {
    PutStart,
    PutEnd,
    GetStart,
    GetEnd,
}

/// [`ObjectStore`] decorator that logs the start and end of every put
/// and get in one global order, the most ops it ever saw in flight, and
/// every key or prefix any op named.
struct Recorder {
    inner: StoreHandle,
    log: Mutex<Vec<(Edge, String)>>,
    inflight: AtomicUsize,
    max_inflight: AtomicUsize,
    named: Mutex<Vec<String>>,
}

impl Recorder {
    fn over(inner: StoreHandle) -> Arc<Recorder> {
        Arc::new(Recorder {
            inner,
            log: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            max_inflight: AtomicUsize::new(0),
            named: Mutex::new(Vec::new()),
        })
    }

    fn name(&self, key: &str) {
        self.named.lock().unwrap().push(key.into());
    }

    fn record<T>(&self, start: Edge, end: Edge, key: &str, op: impl FnOnce() -> T) -> T {
        self.name(key);
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_inflight.fetch_max(now, Ordering::SeqCst);
        self.log.lock().unwrap().push((start, key.into()));
        let result = op();
        self.log.lock().unwrap().push((end, key.into()));
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        result
    }
}

impl ObjectStore for Recorder {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        self.record(Edge::PutStart, Edge::PutEnd, key, || {
            self.inner.put(key, data)
        })
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.record(Edge::GetStart, Edge::GetEnd, key, || self.inner.get(key))
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.name(key);
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> bool {
        self.name(key);
        self.inner.exists(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.name(prefix);
        self.inner.list(prefix)
    }

    fn size(&self, key: &str) -> Option<u64> {
        self.name(key);
        self.inner.size(key)
    }

    fn checksum(&self, key: &str) -> Option<u32> {
        self.name(key);
        self.inner.checksum(key)
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// A scope boundary is a batch like a region's: it goes through the same
/// op-scheduled pipeline, so `io-threads` bounds the store ops in flight
/// and each object is read back once its own put has returned.
#[test]
fn scope_boundaries_honour_io_threads() {
    // Above the 128 KiB packing cut: every input is its own store object.
    let n = 40_000;
    let inputs = ["a", "b", "c", "d"];
    let mut builder = TargetRegion::builder("sum4").device(CloudRuntime::cloud_selector());
    for name in inputs {
        builder = builder.map_to(name);
    }
    let region = builder
        .map_from("y")
        .parallel_for(n, move |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    let sum: f32 = inputs.iter().map(|v| ins.view::<f32>(v)[i]).sum();
                    outs.view_mut::<f32>("y")[i] = sum * 0.5;
                })
        })
        .build()
        .unwrap();
    let mut env = DataEnv::new();
    for (k, name) in inputs.into_iter().enumerate() {
        let data = (0..n).map(|i| ((i * (k + 3)) % 1013) as f32).collect();
        env.insert::<f32>(name, data);
    }
    env.insert("y", vec![0.0f32; n]);
    // A device runs what it is handed, whatever the region's selector.
    let mut host_env = env.clone();
    HostDevice::sequential()
        .execute(&region, &mut host_env)
        .unwrap();

    // 5 ms per op: ops issued together are in flight together.
    let recorder = Recorder::over(Arc::new(LatencyStore::new(
        Arc::new(S3Store::standalone("scope")),
        Duration::from_millis(5),
    )));
    let config = CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        io_threads: 2,
        ..CloudConfig::default()
    };
    let rt = CloudRuntime::with_device(CloudDevice::with_store(
        config,
        Arc::clone(&recorder) as StoreHandle,
    ));

    let mut maps: Vec<(&str, MapDir)> = inputs.iter().map(|v| (*v, MapDir::To)).collect();
    maps.push(("y", MapDir::From));
    let mut scope = rt.target_data(&env, &maps).unwrap();
    scope.offload(&region).unwrap();
    scope.close(&mut env).unwrap();
    rt.shutdown();

    assert_eq!(
        env.get_erased("y").unwrap().to_bytes(),
        host_env.get_erased("y").unwrap().to_bytes(),
        "the scope's result must agree bitwise with the host's"
    );
    let log = recorder.log.lock().unwrap().clone();
    let count = |edge| log.iter().filter(|e| e.0 == edge).count();
    assert_eq!(
        (count(Edge::PutStart), count(Edge::GetStart)),
        (5, 5),
        "four inputs and one output, each put once and got once: {log:?}"
    );
    assert!(
        recorder.max_inflight.load(Ordering::SeqCst) <= 2,
        "io-threads = 2, yet {} store ops were in flight at once: {log:?}",
        recorder.max_inflight.load(Ordering::SeqCst)
    );
    for (at, (edge, key)) in log.iter().enumerate() {
        if *edge == Edge::GetStart {
            let put_returned = log[..at].contains(&(Edge::PutEnd, key.clone()));
            assert!(put_returned, "{key} was read before its put returned");
        }
    }
}

/// A device on `store` whose configured storage prefix is `prefix`.
fn device_under(prefix: &str, store: StoreHandle) -> CloudRuntime {
    let config = CloudConfig::from_str(&format!(
        "[cloud]\nstorage = s3://shared/{prefix}\n[cluster]\nworkers = 2\nvcpus-per-worker = 4\n"
    ))
    .unwrap();
    CloudRuntime::with_device(CloudDevice::with_store(config, store))
}

fn scope_env(n: usize, seed: usize) -> DataEnv {
    let mut env = DataEnv::new();
    env.insert("x", (0..n).map(|i| (i * seed) as f32).collect::<Vec<_>>());
    env.insert("y", vec![0.0f32; n]);
    env
}

/// Everything a scope stages lives under the configured prefix, like
/// every other key the device writes: nothing lands at the bucket root.
#[test]
fn a_scope_touches_only_keys_under_the_configured_prefix() {
    let n = 64;
    let recorder = Recorder::over(Arc::new(S3Store::standalone("shared")));
    let rt = device_under("tenant-a", Arc::clone(&recorder) as StoreHandle);
    let mut env = scope_env(n, 3);
    let mut scope = rt
        .target_data(&env, &[("x", MapDir::To), ("y", MapDir::ToFrom)])
        .unwrap();
    scope.offload(&scale_region(n, 2.0, "x", "y")).unwrap();
    scope.close(&mut env).unwrap();
    rt.shutdown();

    let named = recorder.named.lock().unwrap().clone();
    assert!(
        named.iter().any(|k| k.contains("target-data")),
        "the scope staged nothing: {named:?}"
    );
    for key in &named {
        assert!(
            key.starts_with("tenant-a/") || key == "tenant-a",
            "'{key}' is outside the configured prefix 'tenant-a': {named:?}"
        );
    }
    assert_eq!(recorder.list(""), Vec::<String>::new(), "left behind");
}

/// Two devices sharing one bucket under prefixes `a` and `b` hold open
/// scopes at once: each stages its own objects, one's exit leaves the
/// other's alone, and both close bitwise equal to the host.
#[test]
fn two_devices_on_one_bucket_hold_scopes_at_once() {
    let n = 64;
    let bucket: StoreHandle = Arc::new(S3Store::standalone("shared"));
    let region = scale_region(n, 2.0, "x", "y");
    let maps = [("x", MapDir::To), ("y", MapDir::ToFrom)];
    let (rt_a, rt_b) = (
        device_under("a", Arc::clone(&bucket)),
        device_under("b", Arc::clone(&bucket)),
    );
    let (mut env_a, mut env_b) = (scope_env(n, 3), scope_env(n, 7));
    let host = |env: &DataEnv| {
        let mut host_env = env.clone();
        HostDevice::sequential()
            .execute(&region, &mut host_env)
            .unwrap();
        host_env.get_erased("y").unwrap().to_bytes()
    };
    let (want_a, want_b) = (host(&env_a), host(&env_b));

    let mut scope_a = rt_a.target_data(&env_a, &maps).unwrap();
    let mut scope_b = rt_b.target_data(&env_b, &maps).unwrap();
    let staged = |prefix: &str| bucket.list(&format!("{prefix}/target-data"));
    // (Inputs this small travel as one pack per scope.)
    let staged_b = staged("b");
    assert!(!staged("a").is_empty() && !staged_b.is_empty());
    scope_a.offload(&region).unwrap();
    scope_b.offload(&region).unwrap();
    scope_a.close(&mut env_a).unwrap();
    assert_eq!(staged("a"), Vec::<String>::new(), "a cleans up its own");
    assert_eq!(staged("b"), staged_b, "a's exit touched b's staged objects");
    scope_b.close(&mut env_b).unwrap();
    assert_eq!(bucket.list(""), Vec::<String>::new(), "left behind");

    assert_eq!(env_a.get_erased("y").unwrap().to_bytes(), want_a);
    assert_eq!(env_b.get_erased("y").unwrap().to_bytes(), want_b);
    rt_a.shutdown();
    rt_b.shutdown();
}
