//! The map-transfer optimizer end to end: iterative dirty-tile delta
//! rounds must stay bitwise identical to the host's (also under storage
//! chaos, which must never corrupt the delta ledger) while moving a
//! fraction of the mapped input bytes, byte-identical twins travel once,
//! and dead and alloc maps move zero bytes.

use ompcloud_suite::cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, ObjectStore, OpFilter, S3Store, StorageError,
    StoreHandle, Trigger,
};
use ompcloud_suite::ompcloud::{DownloadAction, UploadAction};
use ompcloud_suite::prelude::*;
use std::sync::{Arc, Mutex};

const X_LEN: usize = 10_240; // 40 KiB of f32
const TILE_BYTES: usize = 1_024; // 40 tiles
const TILES: usize = X_LEN * 4 / TILE_BYTES;
const ITERS: usize = 64;
const SPAN: usize = X_LEN / ITERS;
const ROUNDS: usize = 5;

fn config(delta_transfers: bool) -> CloudConfig {
    CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        min_compression_size: 64,
        delta_transfers,
        delta_tile_bytes: TILE_BYTES,
        ..CloudConfig::default()
    }
}

/// `y[i] = sum(x[i*SPAN .. (i+1)*SPAN])`, the iterative consumer.
fn region() -> TargetRegion {
    TargetRegion::builder("delta-iter")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("y")
        .parallel_for(ITERS, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let x = ins.view::<f32>("x");
                    let mut y = outs.view_mut::<f32>("y");
                    y[i] = (0..SPAN).map(|j| x[i * SPAN + j]).sum();
                })
        })
        .build()
        .unwrap()
}

fn fresh_env() -> DataEnv {
    let mut env = DataEnv::new();
    env.insert(
        "x",
        (0..X_LEN)
            .map(|i| (i % 97) as f32 * 0.5)
            .collect::<Vec<f32>>(),
    );
    env.insert("y", vec![0.0f32; ITERS]);
    env
}

/// Dirty ~10% of the tiles (4 of 40) before round `r`; round 3 leaves
/// the buffer untouched so a clean delta round occurs mid-sequence.
fn mutate_for_round(env: &mut DataEnv, r: usize) {
    if r == 0 || r == 3 {
        return;
    }
    let mut x = env.get::<f32>("x").unwrap().to_vec();
    for t in 0..4 {
        let tile = (r + t * 10) % TILES;
        let elem = tile * (TILE_BYTES / 4) + r;
        x[elem] += 1.0 + r as f32;
    }
    env.insert("x", x);
}

/// What a device that maps every input in full would move host→cloud
/// for one offload of `region`: the byte length of each `to`/`tofrom`
/// buffer — arithmetic over the data environment, not a second run.
fn mapped_input_bytes(region: &TargetRegion, env: &DataEnv) -> u64 {
    region
        .input_maps()
        .map(|m| env.get_erased(&m.name).unwrap().byte_len() as u64)
        .sum()
}

/// The same region on the host: the reference every round is held to.
fn host_reference(region: &TargetRegion, env: &DataEnv, out: &str) -> Vec<u8> {
    let mut host_env = env.clone();
    // A device runs what it is handed, whatever the region's selector.
    HostDevice::sequential()
        .execute(region, &mut host_env)
        .unwrap();
    host_env.get_erased(out).unwrap().to_bytes()
}

#[test]
fn iterative_delta_rounds_are_bitwise_identical_to_the_host() {
    let reg = region();
    let rt = CloudRuntime::new(config(true));
    let mut env = fresh_env();
    let full_bytes = (X_LEN * 4) as u64;
    assert_eq!(mapped_input_bytes(&reg, &env), full_bytes);

    for r in 0..ROUNDS {
        mutate_for_round(&mut env, r);
        let want = host_reference(&reg, &env, "y");
        let dp = rt.offload(&reg, &mut env).unwrap();
        assert_eq!(
            env.get_erased("y").unwrap().to_bytes(),
            want,
            "round {r}: delta round and host outputs diverged"
        );

        let plan = rt.cloud().last_report().unwrap().map_plan;
        let x_dec = plan.decision_for("x").expect("x is mapped").upload.clone();
        match r {
            0 => {
                assert!(
                    matches!(x_dec, UploadAction::Full { bytes } if bytes == full_bytes),
                    "round 0 has no base to diff against, got {x_dec:?}"
                );
                assert_eq!(dp.bytes_to_device, full_bytes);
            }
            3 => {
                assert!(
                    matches!(x_dec, UploadAction::DeltaClean { .. }),
                    "untouched round must ship nothing, got {x_dec:?}"
                );
                assert_eq!(dp.bytes_to_device, 0, "clean round moved bytes");
            }
            _ => {
                let UploadAction::Delta {
                    dirty_tiles,
                    total_tiles,
                    bytes,
                    ..
                } = x_dec
                else {
                    panic!("round {r}: expected a dirty-tile delta, got {x_dec:?}");
                };
                assert_eq!(dirty_tiles, 4, "round {r} dirtied exactly 4 tiles");
                assert_eq!(total_tiles as usize, TILES);
                // Patch = 28 B header + 4 x (4 B index + tile payload).
                let want = 28 + 4 * (4 + TILE_BYTES as u64);
                assert_eq!(bytes, want, "round {r} patch size");
                assert_eq!(dp.bytes_to_device, want);
            }
        }
    }
    rt.shutdown();
}

/// The iterative sparse-update workload the `map_optimizer` bench gated
/// until PR 24: five rounds over a 256 KiB input with 6 of its 64 delta
/// tiles dirtied between rounds, two byte-identical 16 KiB weight twins
/// and an alloc-only scratch. The rounds together must move at most 0.6x
/// the mapped input bytes, every round bitwise equal to the host.
#[test]
fn five_dirty_tile_rounds_move_at_most_six_tenths_of_the_mapped_input_bytes() {
    const X: usize = 64 * 1024;
    const W: usize = 4 * 1024;
    const TILE: usize = 4 * 1024;
    const DIRTY: usize = 6;
    const N: usize = 256;
    const SPAN: usize = X / N;
    let reg = TargetRegion::builder("mapopt-iter")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_to("a")
        .map_to("b")
        .map_from("y")
        .map_alloc("tmp")
        .parallel_for(N, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let x = ins.view::<f32>("x");
                    let a = ins.view::<f32>("a");
                    let b = ins.view::<f32>("b");
                    {
                        let mut tmp = outs.view_mut::<f32>("tmp");
                        tmp[i] = (0..SPAN).map(|j| x[i * SPAN + j]).sum();
                    }
                    let staged = outs.view_mut::<f32>("tmp")[i];
                    outs.view_mut::<f32>("y")[i] = staged + a[i % W] + b[i % W];
                })
        })
        .build()
        .unwrap();
    let mut env = DataEnv::new();
    let x: Vec<f32> = (0..X).map(|i| (i % 97) as f32 * 0.5).collect();
    env.insert("x", x);
    env.insert("a", vec![0.25f32; W]);
    env.insert("b", vec![0.25f32; W]);
    env.insert("y", vec![0.0f32; N]);
    env.insert("tmp", vec![f32::NAN; N]);

    let rt = CloudRuntime::new(CloudConfig {
        delta_tile_bytes: TILE,
        ..config(true)
    });
    let per_round = mapped_input_bytes(&reg, &env);
    assert_eq!(per_round, ((X + 2 * W) * 4) as u64);
    let patch = 28 + DIRTY as u64 * (4 + TILE as u64);
    let mut moved = 0u64;
    for r in 0..ROUNDS {
        if r > 0 {
            let mut x = env.get::<f32>("x").unwrap().to_vec();
            for t in 0..DIRTY {
                let tile = (r * 5 + t * 11) % (X * 4 / TILE);
                x[tile * (TILE / 4) + r] += 1.0 + r as f32;
            }
            env.insert("x", x);
        }
        let want = host_reference(&reg, &env, "y");
        let profile = rt.offload(&reg, &mut env).unwrap();
        assert_eq!(
            env.get_erased("y").unwrap().to_bytes(),
            want,
            "round {r} diverged from the host"
        );
        let plan = rt.cloud().last_report().unwrap().map_plan;
        let upload = |var| plan.decision_for(var).unwrap().upload.clone();
        if r == 0 {
            // `b` is byte-identical to `a`: it aliases `a`'s object, and
            // the alias seeds the delta ledger, so it never travels.
            assert!(
                matches!(upload("b"), UploadAction::Elided { .. }),
                "b dedupes against a, got {:?}",
                upload("b")
            );
            assert_eq!(profile.bytes_to_device, ((X + W) * 4) as u64);
        } else {
            assert!(matches!(
                upload("x"),
                UploadAction::Delta { dirty_tiles: 6, .. }
            ));
            for twin in ["a", "b"] {
                assert!(matches!(upload(twin), UploadAction::DeltaClean { .. }));
            }
            assert_eq!(profile.bytes_to_device, patch, "round {r}: x's patch alone");
        }
        moved += profile.bytes_to_device;
    }
    rt.shutdown();
    let all = per_round * ROUNDS as u64;
    assert_eq!(moved, ((X + W) * 4) as u64 + (ROUNDS as u64 - 1) * patch);
    assert!(
        moved as f64 <= 0.6 * all as f64,
        "the rounds moved {moved} B of {all} B mapped; the gate is 0.6x"
    );
}

#[test]
fn chaos_faults_never_corrupt_the_delta_ledger() {
    let reg = region();
    // Reference: clean delta runtime over the same schedule.
    let clean_rt = CloudRuntime::new(config(true));
    let mut clean_env = fresh_env();
    let mut reference = Vec::new();
    for r in 0..ROUNDS {
        mutate_for_round(&mut clean_env, r);
        clean_rt.offload(&reg, &mut clean_env).unwrap();
        reference.push(clean_env.get::<f32>("y").unwrap().to_vec());
    }
    clean_rt.shutdown();

    // Same schedule with transient faults on every 4th store op: retries
    // happen *before* ledger commit, so every delta base stays exact.
    let plan = FaultPlan::new(7).rule(FaultRule::new(
        OpFilter::Any,
        Trigger::EveryNth(4),
        FaultKind::Transient,
    ));
    let chaos = std::sync::Arc::new(ChaosStore::new(
        std::sync::Arc::new(S3Store::standalone("mapopt-chaos")),
        plan,
    ));
    let chaos_rt = CloudRuntime::with_device(CloudDevice::with_store(
        CloudConfig {
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            ..config(true)
        },
        chaos.clone(),
    ));
    let mut chaos_env = fresh_env();
    let mut retries = 0u32;
    for (r, want) in reference.iter().enumerate() {
        mutate_for_round(&mut chaos_env, r);
        chaos_rt.offload(&reg, &mut chaos_env).unwrap();
        assert_eq!(
            chaos_env.get::<f32>("y").unwrap().to_vec(),
            *want,
            "round {r}: chaos corrupted a delta round"
        );
        retries += chaos_rt
            .cloud()
            .last_report()
            .unwrap()
            .resilience
            .transient_retries;
    }
    assert!(
        chaos.stats().total() > 0,
        "no faults fired; nothing was tested"
    );
    assert!(retries > 0, "transient faults must surface as retries");
    chaos_rt.shutdown();
}

#[test]
fn dead_and_alloc_maps_move_zero_bytes() {
    // x: read input. y: `from`-only — its (unread) initial contents
    // must NOT be uploaded. tmp: alloc scratch — zero bytes either way.
    let n = 64usize;
    let reg = TargetRegion::builder("dead-maps")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("y")
        .map_alloc("tmp")
        .parallel_for(n, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let x = ins.view::<f32>("x");
                    {
                        let mut tmp = outs.view_mut::<f32>("tmp");
                        tmp[i] = x[i] * 3.0;
                    }
                    let staged = outs.view_mut::<f32>("tmp")[i];
                    outs.view_mut::<f32>("y")[i] = staged + 1.0;
                })
        })
        .build()
        .unwrap();
    let build_env = || {
        let mut e = DataEnv::new();
        e.insert("x", (0..n).map(|i| i as f32).collect::<Vec<f32>>());
        // Poisoned initial contents: they must never reach the kernel.
        e.insert("y", vec![f32::NAN; n]);
        e.insert("tmp", vec![f32::NAN; n]);
        e
    };

    let rt = CloudRuntime::new(config(false));
    let mut env = build_env();
    let profile = rt.offload(&reg, &mut env).unwrap();
    assert_eq!(profile.bytes_to_device, (n * 4) as u64, "only x uploads");
    assert_eq!(
        profile.bytes_from_device,
        (n * 4) as u64,
        "only y downloads"
    );

    let plan = rt.cloud().last_report().unwrap().map_plan;
    let y = plan.decision_for("y").unwrap();
    assert!(
        matches!(y.upload, UploadAction::Elided { .. }),
        "dead `to` elided"
    );
    assert!(matches!(y.download, DownloadAction::Full { .. }));
    let tmp = plan.decision_for("tmp").unwrap();
    assert!(matches!(tmp.upload, UploadAction::Elided { .. }));
    assert!(matches!(tmp.download, DownloadAction::Elided { .. }));
    let x = plan.decision_for("x").unwrap();
    assert!(
        matches!(x.download, DownloadAction::Elided { .. }),
        "x never read back"
    );

    // Cloud result equals the host reference bitwise.
    let host = DeviceRegistry::with_host_only();
    let mut href = build_env();
    let hreg = TargetRegion::builder("dead-maps-host")
        .map_to("x")
        .map_from("y")
        .map_alloc("tmp")
        .parallel_for(n, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let x = ins.view::<f32>("x");
                    {
                        let mut tmp = outs.view_mut::<f32>("tmp");
                        tmp[i] = x[i] * 3.0;
                    }
                    let staged = outs.view_mut::<f32>("tmp")[i];
                    outs.view_mut::<f32>("y")[i] = staged + 1.0;
                })
        })
        .build()
        .unwrap();
    host.offload(&hreg, &mut href).unwrap();
    assert_eq!(env.get::<f32>("y").unwrap(), href.get::<f32>("y").unwrap());
    rt.shutdown();
}

/// A store that remembers the key and wire length of every put.
struct PutSizes {
    inner: S3Store,
    puts: Mutex<Vec<(String, usize)>>,
}

impl ObjectStore for PutSizes {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        self.puts
            .lock()
            .unwrap()
            .push((key.to_string(), data.len()));
        self.inner.put(key, data)
    }
    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.get(key)
    }
    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn size(&self, key: &str) -> Option<u64> {
        self.inner.size(key)
    }
    fn checksum(&self, key: &str) -> Option<u32> {
        self.inner.checksum(key)
    }
    fn kind(&self) -> &'static str {
        "put-sizes"
    }
}

/// A dirty tile travels XORed with the base the cloud already holds, so
/// a tile in which one float changed is nearly all zeros on the wire:
/// three such 64 KiB tiles of a 2 MiB input cost the store a put of well
/// under 2 KiB, while the raw patch (and so `bytes_to_device`) keeps its
/// exact length.
#[test]
fn a_one_float_change_costs_almost_no_wire_bytes() {
    const X: usize = 512 * 1024; // 2 MiB of f32
    const TILE: usize = 64 * 1024;
    const TILE_ELEMS: usize = TILE / 4;
    const N: usize = 64;
    const SPAN: usize = X / N;
    let reg = TargetRegion::builder("one-float")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_from("y")
        .parallel_for(N, |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let x = ins.view::<f32>("x");
                    outs.view_mut::<f32>("y")[i] = (0..SPAN).map(|j| x[i * SPAN + j]).sum();
                })
        })
        .build()
        .unwrap();
    let store = Arc::new(PutSizes {
        inner: S3Store::standalone("one-float"),
        puts: Mutex::new(Vec::new()),
    });
    let rt = CloudRuntime::with_device(CloudDevice::with_store(
        CloudConfig {
            delta_tile_bytes: TILE,
            data_caching: true,
            ..config(true)
        },
        Arc::clone(&store) as StoreHandle,
    ));
    let mut env = DataEnv::new();
    // Pseudo-random floats: the full first upload barely compresses.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let x: Vec<f32> = (0..X)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 40) as f32 / (1u64 << 24) as f32
        })
        .collect();
    env.insert("x", x);
    env.insert("y", vec![0.0f32; N]);
    rt.offload(&reg, &mut env).unwrap();
    for r in 1..=ROUNDS {
        let mut x = env.get::<f32>("x").unwrap().to_vec();
        for t in 0..3 {
            let tile = (r * 7 + t * 11) % (X / TILE_ELEMS);
            x[tile * TILE_ELEMS + r * 97 + t] += 1.0;
        }
        env.insert("x", x);
        let want = host_reference(&reg, &env, "y");
        store.puts.lock().unwrap().clear();
        let profile = rt.offload(&reg, &mut env).unwrap();
        assert_eq!(
            env.get_erased("y").unwrap().to_bytes(),
            want,
            "round {r} diverged from the host"
        );
        assert_eq!(profile.bytes_to_device, 28 + 3 * (4 + TILE as u64));
        let puts = store.puts.lock().unwrap().clone();
        let patch: Vec<_> = puts.iter().filter(|(k, _)| k.ends_with("/in/x")).collect();
        assert_eq!(
            patch.len(),
            1,
            "round {r}: one put of x's patch, got {puts:?}"
        );
        assert!(
            patch[0].1 < 2048,
            "round {r}: the patch put {} B",
            patch[0].1
        );
    }
    rt.shutdown();
}
