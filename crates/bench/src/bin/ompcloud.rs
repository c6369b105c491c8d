//! `ompcloud` — command-line driver for the offloading runtime.
//!
//! ```console
//! $ ompcloud validate cluster.conf        # check a configuration file
//! $ ompcloud catalog                      # EC2 instance types + pricing
//! $ ompcloud run gemm --n 48 --workers 2  # offload a benchmark in-process
//! $ ompcloud project 3mm --cores 256      # model a paper-scale run
//! ```

use cloudsim::model::OffloadModel;
use ompcloud::{CloudConfig, CloudRuntime};
use ompcloud_bench::paper;
use ompcloud_kernels::extended::{build_extra, ExtraBench, EXTRA};
use ompcloud_kernels::{build, BenchId, DataKind, ALL};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("validate") => cmd_validate(&args[1..]),
        Some("catalog") => cmd_catalog(),
        Some("run") => cmd_run(&args[1..]),
        Some("project") => cmd_project(&args[1..]),
        Some("list") => cmd_list(),
        _ => {
            eprintln!(
                "usage: ompcloud <command>\n\
                 \n\
                 commands:\n\
                 \x20 validate <conf>                 parse and summarize a cluster configuration file\n\
                 \x20 catalog                         EC2 instance catalog with 2017 pricing\n\
                 \x20 list                            available benchmarks\n\
                 \x20 run <bench> [--n N] [--sparse] [--workers W] [--vcpus V] [--cache]\n\
                 \x20                                 offload a benchmark to the in-process cluster\n\
                 \x20 project <bench> [--cores C] [--sparse]\n\
                 \x20                                 project a paper-scale run with the performance model"
            );
            2
        }
    };
    std::process::exit(code);
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_bench(name: &str) -> Option<BenchId> {
    ALL.iter().copied().find(|id| {
        id.name().eq_ignore_ascii_case(name)
            || id
                .name()
                .replace('-', "")
                .eq_ignore_ascii_case(&name.replace('-', ""))
    })
}

fn cmd_validate(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: ompcloud validate <conf-file>");
        return 2;
    };
    match CloudConfig::from_file(std::path::Path::new(path)) {
        Ok(cfg) => {
            println!("configuration OK:");
            println!("  provider        {:?}", cfg.provider);
            println!("  spark driver    {}", cfg.spark_driver);
            println!("  storage         {}", cfg.storage);
            println!(
                "  cluster         {} workers x {} vCPUs (task-cpus {}, {} slots, {} cores)",
                cfg.workers,
                cfg.vcpus_per_worker,
                cfg.task_cpus,
                cfg.total_slots(),
                cfg.total_cores()
            );
            println!("  compression     >= {} bytes", cfg.min_compression_size);
            println!("  ec2 autostart   {}", cfg.ec2_autostart);
            println!("  data caching    {}", cfg.data_caching);
            println!("  transfers       {} io threads", cfg.io_threads);
            println!(
                "  scheduler       {} dispatch, spec-factor {}, locality wait {} ms",
                cfg.schedule, cfg.spec_factor, cfg.locality_wait_ms
            );
            0
        }
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            1
        }
    }
}

fn cmd_catalog() -> i32 {
    println!(
        "{:<12} {:>6} {:>6} {:>8} {:>10} {:>8}",
        "type", "vCPU", "cores", "mem GiB", "net Gbit/s", "$/hour"
    );
    for t in cloudsim::CATALOG {
        println!(
            "{:<12} {:>6} {:>6} {:>8} {:>10} {:>8.3}",
            t.name,
            t.vcpus,
            t.dedicated_cores(),
            t.mem_gib,
            t.network_gbps,
            t.usd_per_hour
        );
    }
    0
}

fn cmd_list() -> i32 {
    for id in ALL {
        println!("{:<16} [{}]", id.name(), id.suite());
    }
    for id in EXTRA {
        println!("{:<16} [PolyBench, extension]", id.name());
    }
    0
}

fn parse_extra(name: &str) -> Option<ExtraBench> {
    EXTRA
        .iter()
        .copied()
        .find(|id| id.name().eq_ignore_ascii_case(name))
}

fn cmd_run(args: &[String]) -> i32 {
    let bench_name = args.first().cloned().unwrap_or_default();
    let id = parse_bench(&bench_name);
    let extra = parse_extra(&bench_name);
    if id.is_none() && extra.is_none() {
        eprintln!("unknown benchmark; try `ompcloud list`");
        return 2;
    }
    let n: usize = flag_value(args, "--n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(48);
    let workers: usize = flag_value(args, "--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let vcpus: usize = flag_value(args, "--vcpus")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let kind = if has_flag(args, "--sparse") {
        DataKind::Sparse
    } else {
        DataKind::Dense
    };

    let runtime = CloudRuntime::new(CloudConfig {
        workers,
        vcpus_per_worker: vcpus,
        task_cpus: 2,
        data_caching: has_flag(args, "--cache"),
        verbose: has_flag(args, "--verbose"),
        ..CloudConfig::default()
    });
    let (region, env) = match (id, extra) {
        (Some(id), _) => {
            let case = build(id, n, kind, 1, CloudRuntime::cloud_selector());
            (case.region, case.env)
        }
        (None, Some(x)) => {
            let (region, env, _) = build_extra(x, n, kind, 1, CloudRuntime::cloud_selector());
            (region, env)
        }
        (None, None) => unreachable!("validated above"),
    };
    let mut env = env;
    match runtime.offload(&region, &mut env) {
        Ok(profile) => {
            println!("{profile}");
            if let Some(report) = runtime.cloud().last_report() {
                println!("{report}");
            }
            runtime.shutdown();
            0
        }
        Err(e) => {
            eprintln!("offload failed: {e}");
            runtime.shutdown();
            1
        }
    }
}

fn cmd_project(args: &[String]) -> i32 {
    let Some(id) = args.first().and_then(|n| parse_bench(n)) else {
        eprintln!("unknown benchmark; try `ompcloud list`");
        return 2;
    };
    let kind = if has_flag(args, "--sparse") {
        DataKind::Sparse
    } else {
        DataKind::Dense
    };
    let cores: usize = flag_value(args, "--cores")
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let model = OffloadModel::default();
    let plan = paper::plan(id, kind);
    let seq = model.sequential_time(&plan);
    let b = model.breakdown(&plan, cores);
    println!(
        "{} ({} inputs) on {cores} paper-cluster cores:",
        id.name(),
        kind.label()
    );
    println!("  sequential baseline   {:>10.0} s", seq);
    println!("  host-target comm      {:>10.1} s", b.host_comm_s);
    println!("  spark overhead        {:>10.1} s", b.spark_overhead_s);
    println!("  computation           {:>10.1} s", b.compute_s);
    println!(
        "  total                 {:>10.1} s  ({:.1}x speedup)",
        b.total_s(),
        seq / b.total_s()
    );
    0
}
