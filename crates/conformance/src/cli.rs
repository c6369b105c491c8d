//! The `conformance` binary: sweep N seeded cases under a wall-clock
//! budget, shrink failures, and print one replay recipe per failure.
//!
//! ```text
//! conformance [--cases N] [--seed S] [--case K] [--budget-secs B]
//!             [--no-shrink] [--verbose]
//! ```
//!
//! Environment overrides (used by replay recipes): `CONFORMANCE_SEED`,
//! `CONFORMANCE_CASE`, `CONFORMANCE_SHRINK`. Everything written to
//! stdout is a pure function of `(seed, cases)` — coverage summaries
//! count generated specs, never timing — so two runs with the same
//! arguments produce byte-identical stdout. Budget/progress chatter
//! goes to stderr. Failing recipes are also appended to
//! `CONFORMANCE_FAILURES.txt` (override with `CONFORMANCE_FAILURES_FILE`)
//! so CI can upload them as an artifact.

use crate::exec::run_case;
use crate::gen::{CaseKind, CaseSpec, ResidentFaultFlavor};
use crate::shrink::{apply_named, shrink_with};
use std::io::Write as _;
use std::time::Instant;

struct Args {
    cases: u64,
    seed: u64,
    only_case: Option<u64>,
    budget_secs: Option<u64>,
    shrink: bool,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 200,
        seed: 1,
        only_case: None,
        budget_secs: None,
        shrink: true,
        verbose: false,
    };
    if let Ok(s) = std::env::var("CONFORMANCE_SEED") {
        args.seed = s
            .parse()
            .map_err(|_| format!("bad CONFORMANCE_SEED '{s}'"))?;
    }
    if let Ok(c) = std::env::var("CONFORMANCE_CASE") {
        args.only_case = Some(
            c.parse()
                .map_err(|_| format!("bad CONFORMANCE_CASE '{c}'"))?,
        );
    }
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .and_then(|v| v.parse::<u64>().map_err(|_| format!("bad {name} '{v}'")))
        };
        match a.as_str() {
            "--cases" => args.cases = take("--cases")?,
            "--seed" => args.seed = take("--seed")?,
            "--case" => args.only_case = Some(take("--case")?),
            "--budget-secs" => args.budget_secs = Some(take("--budget-secs")?),
            "--no-shrink" => args.shrink = false,
            "--verbose" => args.verbose = true,
            "--help" | "-h" => {
                return Err("usage: conformance [--cases N] [--seed S] [--case K] \
                            [--budget-secs B] [--no-shrink] [--verbose]"
                    .into())
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

/// Run one possibly-shrunk case and, on failure, produce the replay
/// recipe line.
fn run_and_report(spec: &CaseSpec, shrink: bool) -> Option<String> {
    let outcome = run_case(spec);
    if outcome.failures.is_empty() {
        return None;
    }
    let first = outcome.failures[0].clone();
    let (_, recipe) = if shrink {
        shrink_with(spec, |candidate| !run_case(candidate).failures.is_empty())
    } else {
        (spec.clone(), Vec::new())
    };
    let mut line = format!(
        "CONFORMANCE_SEED={} CONFORMANCE_CASE={}",
        spec.seed, spec.case
    );
    if !recipe.is_empty() {
        line.push_str(&format!(" CONFORMANCE_SHRINK={}", recipe.join(",")));
    }
    line.push_str(&format!("  # {first}"));
    Some(line)
}

/// Entry point of the `conformance` bin; returns the process exit code.
pub fn main() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };

    let shrink_env = std::env::var("CONFORMANCE_SHRINK").unwrap_or_default();
    let start = Instant::now();
    let case_range: Vec<u64> = match args.only_case {
        Some(k) => vec![k],
        None => (0..args.cases).collect(),
    };

    let mut failures: Vec<String> = Vec::new();
    let mut ran = 0u64;
    let mut budget_hit = false;
    // Coverage tallies, from the generated specs only (deterministic).
    let (mut by_sched, mut chaos_on, mut kernels, mut ckpt, mut chained) = (
        std::collections::BTreeMap::<&str, u64>::new(),
        0u64,
        0u64,
        0u64,
        0u64,
    );
    let (mut rot, mut expire, mut tenants) = (0u64, 0u64, 0u64);
    let (mut map_elide, mut delta) = (0u64, 0u64);

    for &case in &case_range {
        if let Some(budget) = args.budget_secs {
            if start.elapsed().as_secs() >= budget {
                budget_hit = true;
                eprintln!("budget of {budget}s exhausted after {ran} cases; stopping early");
                break;
            }
        }
        let mut spec = CaseSpec::generate(args.seed, case);
        if !shrink_env.is_empty() {
            match apply_named(&spec, &shrink_env) {
                Ok(s) => spec = s,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            }
        }
        *by_sched.entry(spec.schedule_label()).or_default() += 1;
        chaos_on += u64::from(spec.chaos.is_some());
        kernels += u64::from(matches!(spec.kind, CaseKind::Kernel { .. }));
        ckpt += u64::from(spec.checkpoint);
        chained += u64::from(spec.chain > 1);
        match spec.resident_fault.as_ref().map(|r| r.flavor) {
            Some(ResidentFaultFlavor::Rot) => rot += 1,
            Some(ResidentFaultFlavor::Expire) => expire += 1,
            None => {}
        }
        tenants += u64::from(spec.tenancy.is_some());
        map_elide += u64::from(spec.map_elide.is_some());
        delta += u64::from(spec.map_elide.is_some_and(|m| m.rounds > 0));
        if args.verbose {
            println!("{}", spec.summary());
        }
        ran += 1;
        if let Some(line) = run_and_report(&spec, args.shrink) {
            println!("FAIL {line}");
            failures.push(line);
            if failures.len() >= 5 {
                eprintln!("stopping after 5 failures");
                break;
            }
        }
    }

    let sched: Vec<String> = by_sched
        .iter()
        .map(|(label, count)| format!("{label}={count}"))
        .collect();
    println!(
        "conformance seed={} cases={} failures={} | sched {} | chaos={} kernel={} checkpoint={} chained={} resident-rot={} resident-expire={} tenants={} map-elide={} delta={}",
        args.seed,
        ran,
        failures.len(),
        sched.join(" "),
        chaos_on,
        kernels,
        ckpt,
        chained,
        rot,
        expire,
        tenants,
        map_elide,
        delta
    );

    if !failures.is_empty() {
        let path = std::env::var("CONFORMANCE_FAILURES_FILE")
            .unwrap_or_else(|_| "CONFORMANCE_FAILURES.txt".into());
        if let Ok(mut fh) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            for line in &failures {
                let _ = writeln!(fh, "{line}");
            }
            eprintln!("replay recipes appended to {path}");
        }
        return 1;
    }
    if budget_hit {
        // Ran out of time without failures: still a pass, CI decides
        // whether the partial sweep suffices.
        eprintln!("partial sweep: {ran} cases, 0 failures");
    }
    0
}
