//! The repo's end-to-end, layer-attributed offload benchmark.
//!
//! ```text
//! ompcloud-benchmark --workload W --seed N --seconds T --trace 0|1 [--out DIR]
//!     one run of one workload; the last line of stdout is its result
//! ompcloud-benchmark run [--seed S] [--workload W] [--out DIR]
//!     every workload: ten timed runs and one traced run, each in a child
//!     process of its own; prints every metric, writes DIR/results.json
//! ompcloud-benchmark check A.json B.json
//!     compare two result sets against the bounds in BENCHMARK.json
//! ompcloud-benchmark selftest
//!     show that the oracle catches a wrong answer and a host fallback
//! ompcloud-benchmark setup --workload W --seed N
//!     what a timed run starts to measure a cold set-up: set the workload
//!     up in this fresh process, print what that cost, exit
//! ```

mod bind;
mod check;
mod harness;
mod json;
mod proc;
mod stats;
mod trace;
mod workloads;

use bind::Json;
use harness::{Budget, RunResult, Sabotage, Setup, EXACT_WINDOW, SETUP_CHILDREN, TRACED_MIN_UNITS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

const DEFAULT_SEED: u64 = 2017;
/// Seeds of successive repetitions of `run` are this far apart, so no
/// two repetitions share a unit (unit `i` draws from `seed + i`).
const SEED_STRIDE: u64 = 100_003;
/// Timed runs of each workload in a result set of `run`: as many as the
/// driver takes a spread from, so that the quartiles `check` judges the
/// baseline's own noise by are not its extremes.
const REPS: u64 = 10;
/// Longest a run keeps the cores busy before its set-up (see
/// `proc::preheat`).
const PREHEAT_MAX: std::time::Duration = std::time::Duration::from_secs(3);

fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or_else(|| format!("unknown argument '{flag}'"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: '{v}' is not a valid value")),
        }
    }
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(", "))
    })
}

/// One run of one workload, as the driver invokes it.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let workload = workload_named(flags.get("workload").ok_or("--workload is required")?)?;
    let seed: u64 = flags.parsed("seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("seconds", check::run_seconds())?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds} must be a non-negative number"));
    }
    let (speedup, spent) = proc::preheat(PREHEAT_MAX);
    eprintln!(
        "pre-heat: {} threads ran {speedup:.2}x as fast as one after {spent:.2} s",
        proc::nproc()
    );
    let result = match flags.get("trace").unwrap_or("0") {
        "0" => {
            // Cold set-ups first, each in a fresh process; this process's
            // own comes last and stays open for the timed units.
            let args = [
                "setup",
                "--workload",
                workload.name,
                "--seed",
                &seed.to_string(),
            ]
            .map(String::from);
            let cold_setups = (0..SETUP_CHILDREN)
                .map(|_| setup_from_json(&child_run(&args)?))
                .collect::<Result<Vec<Setup>, String>>()?;
            harness::timed_run(
                workload,
                seed,
                Budget {
                    seconds,
                    min_units: EXACT_WINDOW,
                },
                Sabotage::default(),
                &cold_setups,
            )?
        }
        "1" => {
            let out = flags.get("out").map_or_else(default_out, PathBuf::from);
            let trace_path = out.join(format!("trace-{}.json", workload.name));
            harness::traced_run(
                workload,
                seed,
                Budget {
                    seconds,
                    min_units: TRACED_MIN_UNITS,
                },
                Some(&trace_path),
            )?
        }
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    println!("{}", json::compact(&result.to_json()));
    Ok(ExitCode::SUCCESS)
}

/// One cold set-up in a process started for it by a timed run.
fn setup(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed"])?;
    let workload = workload_named(flags.get("workload").ok_or("--workload is required")?)?;
    let seed: u64 = flags.parsed("seed", DEFAULT_SEED)?;
    let cost = harness::cold_setup(workload, seed)?;
    let line = Json::obj([
        ("setup_s", Json::Num(cost.seconds)),
        ("attempted", Json::Num(cost.attempted as f64)),
        ("failed", Json::Num(cost.failed as f64)),
    ]);
    println!("{}", json::compact(&line));
    Ok(ExitCode::SUCCESS)
}

/// What `setup` printed.
fn setup_from_json(line: &Json) -> Result<Setup, String> {
    let field = |key: &str| json::num(line, key).ok_or_else(|| format!("set-up child: no '{key}'"));
    Ok(Setup {
        seconds: field("setup_s")?,
        attempted: field("attempted")? as u64,
        failed: field("failed")? as u64,
    })
}

/// The arguments of one run of one workload (what `single` parses).
fn single_args(w: &Workload, seed: u64, seconds: f64, trace: &str, out: &Path) -> Vec<String> {
    [
        ("--workload", w.name.to_string()),
        ("--seed", seed.to_string()),
        ("--seconds", seconds.to_string()),
        ("--trace", trace.to_string()),
        ("--out", out.display().to_string()),
    ]
    .into_iter()
    .flat_map(|(flag, value)| [flag.to_string(), value])
    .collect()
}

/// Run this binary again as a child with `args`; its result line, parsed.
fn child_run(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {args:?} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child {args:?} printed nothing"))?;
    json::parse(last)
}

fn print_metrics(title: &str, specs: &[check::Spec], runs: &[Json]) {
    println!("  {title}");
    for spec in specs {
        let values = check::metric_values(runs, &spec.name);
        if values.is_empty() {
            println!("    {:<28} not measured", spec.name);
            continue;
        }
        let bound = spec
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        let spread = if values.len() > 1 {
            format!(
                "  spread {:.1}% of {} runs",
                stats::spread(&values) * 100.0,
                values.len()
            )
        } else {
            String::new()
        };
        println!(
            "    {:<28} {:>16.6} {:<8}{bound}{spread}",
            spec.name,
            stats::median(&values),
            spec.unit
        );
    }
}

/// Every workload: timed runs and a traced run, each in its own child.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["seed", "workload", "out"])?;
    let seed: u64 = flags.parsed("seed", DEFAULT_SEED)?;
    // Every run measures for as long as the driver's runs do.
    let seconds = check::run_seconds();
    let out = flags.get("out").map_or_else(default_out, PathBuf::from);
    let selected: Vec<&Workload> = match flags.get("workload") {
        Some(name) => vec![workload_named(name)?],
        None => workloads::ALL.iter().collect(),
    };

    println!(
        "ompcloud-benchmark: {} workload(s), seed {seed}, {REPS} timed runs and one traced run \
         of {seconds} s each, nproc {}; closed loop, one client, \
         cluster {}x{} vCPU, task-cpus {}, io-threads {}",
        selected.len(),
        proc::nproc(),
        bind::WORKERS,
        bind::VCPUS_PER_WORKER,
        bind::TASK_CPUS,
        bind::IO_THREADS,
    );
    let mut failed_total = 0.0;
    let mut rows = Vec::new();
    for w in selected {
        println!("\n{} — {}", w.name, w.why);
        let mut runs = Vec::new();
        for rep in 0..REPS {
            let run_seed = seed.wrapping_add(rep * SEED_STRIDE);
            let mut result = child_run(&single_args(w, run_seed, seconds, "0", &out))?;
            if let Json::Obj(pairs) = &mut result {
                pairs.insert(0, ("seed".into(), Json::Num(run_seed as f64)));
            }
            runs.push(result);
        }
        let traced = child_run(&single_args(w, seed, seconds, "1", &out))?;

        print_metrics(
            "end to end (tracing off)",
            &check::end_to_end_specs(),
            &runs,
        );
        let all: Vec<&Json> = runs.iter().chain(std::iter::once(&traced)).collect();
        let sum = |key: &str| all.iter().filter_map(|r| json::num(r, key)).sum::<f64>();
        let (attempted, failed) = (sum("attempted"), sum("failed"));
        println!(
            "    {:<28} {:>16.6} {:<8}  {failed} of {attempted} units",
            "failed_frac",
            failed / attempted.max(1.0),
            "fraction"
        );
        print_metrics(
            "per layer (traced run)",
            &check::per_layer_specs(),
            std::slice::from_ref(&traced),
        );
        failed_total += failed;
        rows.push(Json::obj([
            ("name", Json::Str(w.name.into())),
            ("runs", Json::Arr(runs)),
            ("traced", traced),
        ]));
    }

    let doc = Json::obj([
        ("benchmark", Json::Str("ompcloud-benchmark".into())),
        ("nproc", Json::Num(proc::nproc() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("reps", Json::Num(REPS as f64)),
        ("workloads", Json::Arr(rows)),
    ]);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join("results.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if failed_total > 0.0 {
        eprintln!("{failed_total} unit(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn check_sets(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: check A.json B.json".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    if check::check(&load(a)?, &load(b)?)? {
        println!("check passed: no metric of B is worse than A by more than its bound");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("check FAILED: see the Regression rows above");
        Ok(ExitCode::FAILURE)
    }
}

/// Break a run on purpose, twice, and require the oracle to notice: a
/// benchmark that cannot fail cannot vouch for a pass.
fn selftest() -> Result<ExitCode, String> {
    let budget = Budget {
        seconds: 0.0,
        min_units: 5,
    };
    let mut ok = true;
    let mut expect = |what: &str, result: &RunResult, failed: u64| {
        let pass = result.failed == failed && result.correct == (failed == 0);
        println!(
            "selftest: {what}: failed {} of {} (expected {failed}) — {}",
            result.failed,
            result.attempted,
            if pass { "ok" } else { "WRONG" }
        );
        ok &= pass;
    };
    // One single-region workload and the DAG workload: a fallback shows
    // up in an `ExecProfile` on one and in a `DagReport` on the other.
    for name in ["fanin-latency", "chain-k4"] {
        let w = workload_named(name)?;
        let clean = harness::timed_run(w, DEFAULT_SEED, budget, Sabotage::default(), &[])?;
        expect(&format!("{name}, untouched"), &clean, 0);
        let flipped = harness::timed_run(
            w,
            DEFAULT_SEED,
            budget,
            Sabotage {
                flip_unit: Some(2),
                ..Sabotage::default()
            },
            &[],
        )?;
        expect(&format!("{name}, one output element flipped"), &flipped, 1);
        let fallback = harness::timed_run(
            w,
            DEFAULT_SEED,
            budget,
            Sabotage {
                unreachable: true,
                ..Sabotage::default()
            },
            &[],
        )?;
        expect(
            &format!("{name}, cloud unreachable (silent host fallback)"),
            &fallback,
            fallback.attempted,
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("check") => check_sets(&args[1..]),
        Some("selftest") => selftest(),
        Some("setup") => setup(&args[1..]),
        Some(flag) if flag.starts_with("--") && flag != "--help" => single(&args),
        _ => {
            eprintln!(
                "usage:\n  ompcloud-benchmark --workload W --seed N --seconds T --trace 0|1 [--out DIR]\n  \
                 ompcloud-benchmark run [--seed S] [--workload W] [--out DIR]\n  \
                 ompcloud-benchmark check A.json B.json\n  ompcloud-benchmark selftest"
            );
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ompcloud-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
