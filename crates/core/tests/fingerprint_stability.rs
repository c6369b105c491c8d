//! Property tests pinning the checkpoint identity contract: a region's
//! journal fingerprint depends on *what* is computed (name, loop trip
//! counts, input bytes) and never on *how* it is tiled. Re-tuning the
//! `[offload] tile-size` knob between an interrupted run and its resume
//! must land on the same journal — including when the region's inputs
//! are cloud-resident producer outputs rather than host uploads.

use cloud_storage::{RegionFingerprint, S3Store, StoreHandle, TransferConfig, TransferManager};
use omp_model::prelude::*;
use ompcloud::{tiling, CloudConfig, CloudRuntime};
use proptest::prelude::*;
use std::sync::Arc;

/// The fingerprint exactly as `CloudDevice` derives it: region name,
/// each loop's trip count, then each input's integrity-ledger crc in a
/// fixed order. `tile_size` and `slots` shape the plan the run uses,
/// not the identity of the work.
fn device_fingerprint(
    region: &str,
    trip_counts: &[usize],
    inputs: &[(String, u32)],
) -> RegionFingerprint {
    let mut fp = RegionFingerprint::new(region);
    for &tc in trip_counts {
        fp.add_loop(tc);
    }
    for (name, crc) in inputs {
        fp.add_input(name, *crc);
    }
    fp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fingerprint_is_stable_across_tile_plans(
        name_seed in any::<u64>(),
        name_len in 1usize..12,
        trip_counts in proptest::collection::vec(1usize..10_000, 1..4),
        crcs in proptest::collection::vec(any::<u32>(), 1..5),
        slots_a in 1usize..32,
        slots_b in 1usize..32,
        tile_size_a in 0usize..512,
        tile_size_b in 0usize..512,
    ) {
        let region: String = (0..name_len)
            .map(|i| {
                let c = (name_seed.rotate_left(i as u32 * 7) % 26) as u8;
                (b'a' + c) as char
            })
            .collect();
        let inputs: Vec<(String, u32)> = crcs
            .iter()
            .enumerate()
            .map(|(i, &c)| (format!("v{i}"), c))
            .collect();
        // The two configurations genuinely tile differently...
        let plans_a: Vec<usize> = trip_counts
            .iter()
            .map(|&tc| tiling::tile_plan(tc, slots_a, tile_size_a).len())
            .collect();
        let plans_b: Vec<usize> = trip_counts
            .iter()
            .map(|&tc| tiling::tile_plan(tc, slots_b, tile_size_b).len())
            .collect();
        // ...yet the journal identity is byte-for-byte the same.
        let fp_a = device_fingerprint(&region, &trip_counts, &inputs);
        let fp_b = device_fingerprint(&region, &trip_counts, &inputs);
        prop_assert_eq!(fp_a.hex(), fp_b.hex());
        // Sanity: the property is not vacuous — differing plans do
        // occur across the sampled knob space (when they do, the old
        // tiling-sensitive fingerprint would have diverged).
        if plans_a != plans_b {
            prop_assert_eq!(fp_a.hex(), fp_b.hex(), "re-tiling changed the identity");
        }
    }

    #[test]
    fn resident_input_identity_follows_producer_bytes(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        flip in any::<usize>(),
    ) {
        // Two independent stores (two runs of the DAG) holding the same
        // producer output under the same resident key must give the
        // consumer the same fingerprint...
        let crc_of = |bytes: &[u8]| {
            let store: StoreHandle = Arc::new(S3Store::standalone("fp"));
            let tm = TransferManager::new(store, TransferConfig::default());
            tm.upload(vec![("jobs/dataflow/dag-0/y".to_string(), bytes.to_vec())])
                .unwrap();
            tm.ledger_crc("jobs/dataflow/dag-0/y").expect("ledger entry")
        };
        let same = device_fingerprint("consume", &[64], &[("y".into(), crc_of(&payload))]);
        let again = device_fingerprint("consume", &[64], &[("y".into(), crc_of(&payload))]);
        prop_assert_eq!(same.hex(), again.hex());

        // ...and a producer that committed different bytes must not.
        let mut other = payload.clone();
        let at = flip % other.len();
        other[at] ^= 0x01;
        let differs = device_fingerprint("consume", &[64], &[("y".into(), crc_of(&other))]);
        prop_assert_ne!(same.hex(), differs.hex());
    }
}

/// End-to-end: the same three-stage `depend`/`nowait` relay chain, with
/// checkpointing on (so every region derives its fingerprint, each
/// consumer's from its producer's committed resident key), run under
/// different `tile-size` knobs — outputs stay bitwise identical. Each
/// stage writes a fresh variable (`map(from: y{s+1})` → `map(to:
/// y{s+1})`), so the stages do not fuse and every hand-off is resident.
#[test]
fn chained_offload_is_bitwise_stable_across_tile_size() {
    let n = 48;
    let run = |tile_size: usize| -> Vec<Vec<f32>> {
        let runtime = CloudRuntime::new(CloudConfig {
            workers: 2,
            vcpus_per_worker: 4,
            task_cpus: 2,
            checkpoint: true,
            tile_size,
            min_compression_size: 64,
            ..CloudConfig::default()
        });
        let mut env = DataEnv::new();
        env.insert("y0", (0..n).map(|i| (i % 13) as f32).collect::<Vec<_>>());
        for stage in 0..3 {
            let (read, write) = (format!("y{stage}"), format!("y{}", stage + 1));
            env.insert(write.clone(), vec![0.0f32; n]);
            let region = TargetRegion::builder(format!("stage-{stage}"))
                .device(CloudRuntime::cloud_selector())
                .map_to(read.clone())
                .map_from(write.clone())
                .depend_in(read.clone())
                .depend_out(write.clone())
                .nowait()
                .parallel_for(n, move |l| {
                    l.partition(write.clone(), PartitionSpec::rows(1))
                        .body(move |i, ins, outs| {
                            let y = ins.view::<f32>(&read);
                            outs.view_mut::<f32>(&write)[i] = 0.5 * y[i] + 1.0;
                        })
                })
                .build()
                .unwrap();
            runtime.offload_nowait(region);
        }
        let dag = runtime.taskwait(&mut env).unwrap();
        assert_eq!(dag.profiles.len(), 3, "a relay chain does not fuse");
        let out = (1..=3)
            .map(|s| env.get::<f32>(&format!("y{s}")).unwrap().to_vec())
            .collect();
        runtime.shutdown();
        out
    };
    let a = run(0); // Algorithm 1's split
    let b = run(3);
    let c = run(17);
    assert_eq!(a, b);
    assert_eq!(b, c);
}
