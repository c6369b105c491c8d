//! An output a loop never writes costs that loop no buffer. COVAR's
//! region maps `cov` for the whole region, but only its second loop
//! writes it: the first loop writes `mean`. Under a counting allocator,
//! on the cloud device and on the host device, the two-loop region must
//! allocate exactly as many whole-`cov` buffers as the same region
//! without its first loop — no tile part and no merge accumulator for
//! `cov` while `mean` is computed.
//!
//! Each tile used to get a whole-variable zero buffer for every output
//! the loop leaves unpartitioned, and the driver a whole-variable
//! accumulator for it, all skipped at the end as untouched. Now a tile
//! builds an output on the body's first `view_mut` of it, and the driver
//! builds an accumulator when its first part arrives.
//!
//! A `map(alloc:)` scratch buffer never leaves its tile either: the
//! cloud collects only what the region maps back.
//!
//! A COVAR tile's scratch is bounded: the covariance tile body centres
//! one panel of observations at a time, so what it allocates beyond the
//! output rows it borrows stays at most 128 KiB whatever the tile's
//! height — not a centred copy of the whole 1.18 MB `data`.

use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Held by each test for its whole run, so no other test's allocations
/// land in the counts.
static SERIAL: Mutex<()> = Mutex::new(());

/// Whether allocations are being counted.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes granted while counting.
static GRANTED: AtomicU64 = AtomicU64::new(0);
/// Allocations of exactly one whole `cov` while counting.
static WHOLE_COV: AtomicU64 = AtomicU64::new(0);

/// Variables and observations: `cov` is `N x N`, `data` `M x N`.
const N: usize = 60;
const M: usize = 40;
/// Bytes of a whole `cov`; no other buffer of the region has this size.
const COV_BYTES: usize = N * N * 4;

thread_local! {
    /// Bytes of the output hull the loop body running on this thread
    /// borrows; 0 outside a body that is watched for scratch.
    static HULL_BYTES: Cell<usize> = const { Cell::new(0) };
}
/// The largest allocation a watched body made that was not its output
/// hull.
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Output hulls the watched bodies allocated.
static HULLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn record(granted: *mut u8, size: usize) {
    if granted.is_null() {
        return;
    }
    if COUNTING.load(Ordering::Relaxed) {
        GRANTED.fetch_add(size as u64, Ordering::Relaxed);
        if size == COV_BYTES {
            WHOLE_COV.fetch_add(1, Ordering::Relaxed);
        }
    }
    match HULL_BYTES.try_with(Cell::get).unwrap_or(0) {
        0 => {}
        hull if size == hull => {
            HULLS.fetch_add(1, Ordering::Relaxed);
        }
        _ => {
            LARGEST.fetch_max(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; recording the size touches five statics and a
// const-initialised thread-local `Cell`, none of which allocate or have
// destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let ptr = unsafe { System.alloc(layout) };
        record(ptr, layout.size());
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        record(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        let ptr = unsafe { System.realloc(ptr, layout, new_size) };
        record(ptr, new_size);
        ptr
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// COVAR's region shape: `mean[i]` over the observations, partitioned,
/// then `cov` row by row. Without `mean_loop`, only the second loop.
fn covar_shaped(device: DeviceSelector, mean_loop: bool) -> TargetRegion {
    let b = TargetRegion::builder("covar-shaped")
        .device(device)
        .map_to("data")
        .map_tofrom("mean")
        .map_from("cov");
    let b = if mean_loop {
        b.parallel_for(N, |l| {
            l.partition("mean", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let d = ins.view::<f32>("data");
                    let sum: f32 = (0..M).map(|k| d[k * N + i]).sum();
                    outs.view_mut::<f32>("mean")[i] = sum / M as f32;
                })
        })
    } else {
        b
    };
    b.parallel_for(N, |l| {
        l.partition("cov", PartitionSpec::rows(N))
            .body(|i, ins, outs| {
                let d = ins.view::<f32>("data");
                let mean = ins.view::<f32>("mean");
                let mut cov = outs.view_mut::<f32>("cov");
                for j in 0..N {
                    let s: f32 = (0..M)
                        .map(|k| (d[k * N + i] - mean[i]) * (d[k * N + j] - mean[j]))
                        .sum();
                    cov[i * N + j] = s / (M - 1) as f32;
                }
            })
    })
    .build()
    .expect("a valid region")
}

fn env() -> DataEnv {
    let mut e = DataEnv::new();
    e.insert(
        "data",
        (0..M * N)
            .map(|x| ((x * 37) % 101) as f32 * 0.25)
            .collect::<Vec<_>>(),
    );
    e.insert("mean", vec![0.0f32; N]);
    e.insert("cov", vec![0.0f32; N * N]);
    e
}

/// Whole-`cov` allocations and bytes granted by one `run` of `region`
/// over a fresh environment, and the environment it left.
fn count(run: &dyn Fn(&TargetRegion, &mut DataEnv), region: &TargetRegion) -> (u64, u64, DataEnv) {
    let mut env = env();
    GRANTED.store(0, Ordering::SeqCst);
    WHOLE_COV.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    run(region, &mut env);
    COUNTING.store(false, Ordering::SeqCst);
    let counts = (
        WHOLE_COV.load(Ordering::SeqCst),
        GRANTED.load(Ordering::SeqCst),
    );
    (counts.0, counts.1, env)
}

/// Runs the COVAR-shaped region and its second loop alone through `run`
/// (after a warm-up of each), checks the result, and returns how many
/// more whole-`cov` buffers the region allocated than its second loop.
fn whole_covs_of_the_mean_loop(
    device: &str,
    select: DeviceSelector,
    run: &dyn Fn(&TargetRegion, &mut DataEnv),
) -> i64 {
    let both = covar_shaped(select, true);
    let second = covar_shaped(select, false);
    run(&both, &mut env());
    run(&second, &mut env());
    let (cov_both, bytes, covar_env) = count(run, &both);
    let (cov_second, bytes_second, _) = count(run, &second);
    println!(
        "{device}: one COVAR-shaped unit allocated {bytes} bytes, {cov_both} whole-cov buffers; \
         its second loop alone {bytes_second} bytes, {cov_second} whole-cov buffers"
    );
    // The region computed what it should: mean is exact, and cov row 0
    // holds the first variable's variance.
    let data = env().get::<f32>("data").unwrap().to_vec();
    let mean0 = (0..M).map(|k| data[k * N]).sum::<f32>() / M as f32;
    assert_eq!(covar_env.get::<f32>("mean").unwrap()[0], mean0);
    assert!(covar_env.get::<f32>("cov").unwrap()[0] > 0.0);
    cov_both as i64 - cov_second as i64
}

#[test]
fn the_mean_loop_allocates_no_cov_on_the_cloud_or_the_host() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rt = CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 2,
        task_cpus: 1,
        ..CloudConfig::default()
    });
    let mut extra = vec![(
        "cloud".to_string(),
        whole_covs_of_the_mean_loop("cloud", CloudRuntime::cloud_selector(), &|region, env| {
            rt.offload(region, env).unwrap();
        }),
    )];
    rt.shutdown();
    for threads in [1, 3] {
        let host = HostDevice::threaded(threads);
        let device = format!("host, {threads} thread(s)");
        let covs = whole_covs_of_the_mean_loop(&device, DeviceSelector::Default, &|region, env| {
            host.execute(region, env).unwrap();
        });
        extra.push((device, covs));
    }
    assert!(
        extra.iter().all(|(_, covs)| *covs == 0),
        "whole-cov buffers the mean loop allocated: {extra:?}"
    );
}

#[test]
fn alloc_scratch_is_not_collected_from_the_tiles() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const LEN: usize = 4096;
    let region = TargetRegion::builder("scratch")
        .device(CloudRuntime::cloud_selector())
        .map_to("x")
        .map_alloc("tmp")
        .map_from("y")
        .parallel_for(LEN, |l| {
            l.partition("x", PartitionSpec::rows(1))
                .partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    outs.view_mut::<f32>("tmp")[i] = ins.view::<f32>("x")[i] + 1.0;
                    let staged = outs.view_mut::<f32>("tmp")[i];
                    outs.view_mut::<f32>("y")[i] = 2.0 * staged;
                })
        })
        .build()
        .expect("a valid region");
    let mut env = DataEnv::new();
    env.insert("x", (0..LEN).map(|i| i as f32).collect::<Vec<_>>());
    env.insert("tmp", vec![0.0f32; LEN]);
    env.insert("y", vec![0.0f32; LEN]);
    let rt = CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 2,
        task_cpus: 1,
        ..CloudConfig::default()
    });
    rt.offload(&region, &mut env).unwrap();
    let report = rt
        .cloud()
        .last_report()
        .expect("the region ran on the cloud");
    rt.shutdown();

    let y = env.get::<f32>("y").unwrap();
    assert!(y
        .iter()
        .enumerate()
        .all(|(i, &v)| v == 2.0 * (i as f32 + 1.0)));
    assert_eq!(report.loops.len(), 1);
    assert_eq!(report.loops[0].tiles, 4);
    // `y` alone: 4,096 f32. The four tiles' whole-variable scratch
    // would add 4 x 16,384 B.
    let y_bytes = (LEN * 4) as u64;
    assert_eq!(report.loops[0].collect_bytes, y_bytes);
    assert_eq!(report.profile.bytes_from_device, y_bytes);
}

/// The benchmark's COVAR unit (n = 384, m = 2n) with each loop body
/// watched: the mean loop's hull is one `f32` per row, the covariance
/// loop's `n` per row.
fn watched_covar_unit(n: usize, device: DeviceSelector) -> kernels::BenchCase {
    let mut case = kernels::build(BenchId::Covar, n, DataKind::Dense, 2017, device);
    for (l, row_bytes) in case.region.loops.iter_mut().zip([4, 4 * n]) {
        let body = Arc::clone(&l.body);
        l.body = Arc::new(move |iters, ins, outs| {
            HULL_BYTES.set(iters.len() * row_bytes);
            body(iters, ins, outs);
            HULL_BYTES.set(0);
        });
    }
    case
}

#[test]
fn a_covar_tile_allocates_at_most_128_kib_besides_its_output() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const N: usize = 384;
    const SCRATCH_BOUND: usize = 128 << 10;
    let mut want = kernels::build(
        BenchId::Covar,
        N,
        DataKind::Dense,
        2017,
        DeviceSelector::Default,
    )
    .env;
    kernels::run_host(BenchId::Covar, N, &mut want);
    let rt = CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 2,
        task_cpus: 1,
        ..CloudConfig::default()
    });
    for (device, tiles) in [("cloud", 4), ("host-seq", 1), ("host-3t", 3)] {
        let selector = match device {
            "cloud" => CloudRuntime::cloud_selector(),
            _ => DeviceSelector::Default,
        };
        let mut case = watched_covar_unit(N, selector);
        LARGEST.store(0, Ordering::SeqCst);
        HULLS.store(0, Ordering::SeqCst);
        match device {
            "cloud" => rt.offload(&case.region, &mut case.env),
            "host-seq" => HostDevice::sequential().execute(&case.region, &mut case.env),
            _ => HostDevice::threaded(3).execute(&case.region, &mut case.env),
        }
        .unwrap();
        let largest = LARGEST.load(Ordering::SeqCst);
        println!(
            "{device}: largest allocation of a COVAR tile body besides its output: {largest} B"
        );
        assert_eq!(
            HULLS.load(Ordering::SeqCst),
            2 * tiles,
            "{device}: one hull per tile and loop"
        );
        assert!(largest <= SCRATCH_BOUND, "{device}: {largest} B of scratch");
        assert!(
            case.env.get_erased("cov").unwrap().to_bytes()
                == want.get_erased("cov").unwrap().to_bytes(),
            "{device}: cov differs from sequential()"
        );
    }
    rt.shutdown();
}
