//! Pay-as-you-go exploration: EC2 instance lifecycle, per-hour billing,
//! and the performance model's answer to "how many cores should I rent
//! for this job?" — the cost/performance analysis the paper's on-the-fly
//! EC2 start/stop feature enables.
//!
//! Run with: `cargo run --release --example cost_explorer`

use ompcloud_suite::cloudsim::model::OffloadModel;
use ompcloud_suite::cloudsim::{instance_type, Fleet};

fn main() {
    let model = OffloadModel::default();
    let itype = instance_type("c3.8xlarge").expect("catalog");
    println!(
        "instance: {} ({} vCPU / {} dedicated cores, {} GiB, ${}/h, {} Gbit/s)\n",
        itype.name,
        itype.vcpus,
        itype.dedicated_cores(),
        itype.mem_gib,
        itype.usd_per_hour,
        itype.network_gbps
    );

    // What does a 1 GiB dense GEMM cost at each cluster size?
    // (plans live in the bench crate for the figure harnesses; here we
    // build the same shape inline)
    let n: u64 = 16384;
    let mat = n * n * 4;
    let plan = ompcloud_suite::cloudsim::model::JobPlan {
        name: "GEMM".into(),
        bytes_to: 3 * mat,
        bytes_from: mat,
        ratio_to: 0.75,
        ratio_from: 0.75,
        stages: vec![ompcloud_suite::cloudsim::model::StagePlan {
            trip_count: n as usize,
            flops: (n * n) as f64 * (2.0 * n as f64 + 3.0),
            broadcast_raw: mat,
            scatter_raw: 2 * mat,
            collect_partitioned_raw: mat,
            collect_replicated_raw: 0,
            intra_ratio: 0.75,
        }],
    };
    println!(
        "{:>7} {:>9} {:>12} {:>12} {:>10}",
        "cores", "workers", "wall time", "billed", "cost"
    );
    println!("{}", "-".repeat(56));
    let mut best: Option<(usize, f64)> = None;
    for cores in [8usize, 16, 32, 64, 128, 256] {
        let workers = cores.div_ceil(16);
        let b = model.breakdown(&plan, cores);
        let wall = b.total_s();

        // Simulate the fleet lifecycle: launch, boot, run, stop.
        let mut fleet = Fleet::new();
        fleet.launch(itype, workers + 1, 0.0); // +1 driver
        let ready = fleet.ready_at();
        fleet.stop_all(ready + wall);
        let report = fleet.cost_report(ready + wall);

        println!(
            "{:>7} {:>9} {:>10.1} m {:>10.0} h ${:>8.2}",
            cores,
            workers,
            wall / 60.0,
            report.billable_hours,
            report.total_usd
        );
        if best.map(|(_, c)| report.total_usd < c).unwrap_or(true) {
            best = Some((cores, report.total_usd));
        }
    }
    let (cores, usd) = best.unwrap();
    println!("\ncheapest configuration: {cores} cores at ${usd:.2} — per-hour billing makes");
    println!("small clusters cheap and large ones fast; the runtime starts and stops the");
    println!("instances around the offload so you pay only for what the job used.");
}
