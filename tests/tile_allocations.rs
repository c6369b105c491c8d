//! What one chain stage allocates: a `map(tofrom: y)` region over 1 MiB
//! of `f32`, offloaded to the cloud device on the in-memory store, under
//! a counting allocator. The byte count is every allocation the offload
//! was granted, on every thread, after a warm-up offload has filled the
//! staging pool and started the cluster.
//!
//! Each tile used to carry its private output buffers from the driver:
//! the driver pre-filled them, the RDD source and each task attempt
//! cloned them, and the driver cloned them again before merging. Now the
//! task allocates them itself and the driver merges them in place, and
//! an object of any size is one frame, so the stage allocates about half
//! what it did.

use ompcloud_suite::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Whether allocations are being counted.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes granted while counting.
static GRANTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn record(granted: *mut u8, size: usize) {
    if !granted.is_null() && COUNTING.load(Ordering::Relaxed) {
        GRANTED.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; recording the size touches only two statics,
// which neither allocate nor have destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let ptr = unsafe { System.alloc(layout) };
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

/// Elements of `y`: 1 MiB of `f32`.
const LEN: usize = 256 * 1024;
const MIB: u64 = 1024 * 1024;

/// `y[i] = y[i] * 0.5 + k`, one iteration per element.
fn chain_stage(k: usize) -> TargetRegion {
    TargetRegion::builder(format!("chain-stage-{k}"))
        .device(CloudRuntime::cloud_selector())
        .map_tofrom("y")
        .parallel_for(LEN, move |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    let y = ins.view::<f32>("y");
                    outs.view_mut::<f32>("y")[i] = y[i] * 0.5 + k as f32;
                })
        })
        .build()
        .expect("a valid region")
}

#[test]
fn a_one_mib_chain_stage_allocates_at_most_eight_mib() {
    let rt = CloudRuntime::new(CloudConfig {
        workers: 2,
        vcpus_per_worker: 4,
        task_cpus: 2,
        ..CloudConfig::default()
    });
    let mut env = DataEnv::new();
    env.insert("y", (0..LEN).map(|i| (i % 1000) as f32).collect::<Vec<_>>());
    rt.offload(&chain_stage(0), &mut env).unwrap();

    GRANTED.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    rt.offload(&chain_stage(1), &mut env).unwrap();
    COUNTING.store(false, Ordering::SeqCst);
    let granted = GRANTED.load(Ordering::SeqCst);
    println!(
        "one chain stage allocated {granted} bytes ({:.2} MiB)",
        granted as f64 / MIB as f64
    );

    let want: Vec<f32> = (0..LEN).map(|i| (i % 1000) as f32 * 0.25 + 1.0).collect();
    assert!(env.get::<f32>("y").unwrap() == &want[..]);
    // 7.45 MiB measured; 15.6–16.4 MiB while tiles carried their outputs.
    assert!(granted <= 8 * MIB, "{granted} bytes");
    rt.shutdown();
}
