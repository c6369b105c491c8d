//! `check A.json B.json`: compare two result sets of `run`, metric by
//! metric, against the bounds fixed in `BENCHMARK.json`.

use crate::bind::Json;
use crate::json;
use crate::stats::{median, spread};

/// The contract this build was made against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Counts that repeat exactly for one seed: compared by equality, and a
/// rise of any size is a regression.
const EXACT: [&str; 2] = ["wire_bytes_per_unit", "store_ops_per_unit"];

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse; `None` for a
    /// per-layer metric.
    pub bound: Option<f64>,
}

fn specs(list: &str) -> Vec<Spec> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    json::items(&doc, list)
        .iter()
        .map(|m| Spec {
            name: json::text(m, "name").expect("metric name").to_string(),
            unit: json::text(m, "unit").expect("metric unit").to_string(),
            lower_is_better: json::text(m, "better") == Some("lower"),
            bound: json::num(m, "bound"),
        })
        .collect()
}

pub fn end_to_end_specs() -> Vec<Spec> {
    specs("end_to_end")
}

pub fn per_layer_specs() -> Vec<Spec> {
    specs("per_layer")
}

/// Seconds one run measures for: the driver's, and so `run`'s.
pub fn run_seconds() -> f64 {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    json::num(&doc, "run_seconds").expect("run_seconds in BENCHMARK.json")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and A's own spread is within it too.
    Unchanged,
    Identical,
    Improved,
    /// A's run-to-run spread exceeds the bound: the comparison cannot
    /// tell unchanged from changed.
    Unresolved,
    Regression,
}

/// Compare the runs of one metric. `same_seed` makes the exact counts
/// comparable by equality.
pub fn judge(spec: &Spec, a: &[f64], b: &[f64], same_seed: bool) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse = |x: f64, y: f64| if spec.lower_is_better { y > x } else { y < x };
    if same_seed && EXACT.contains(&spec.name.as_str()) {
        return if mb == ma {
            Verdict::Identical
        } else if worse(ma, mb) {
            Verdict::Regression
        } else {
            Verdict::Improved
        };
    }
    let bound = spec.bound.unwrap_or(0.0);
    let worse_by = if spec.lower_is_better {
        mb - ma
    } else {
        ma - mb
    } / ma.abs();
    if worse_by > bound {
        return Verdict::Regression;
    }
    let b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| worse(y, x)));
    if b_beats_every_a {
        Verdict::Improved
    } else if spread(a) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Every run's value of metric `name`.
pub fn metric_values(runs: &[Json], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| json::get(r, "metrics"))
        .filter_map(|m| json::get(m, name))
        .filter_map(|m| json::num(m, "value"))
        .collect()
}

/// Failed ÷ attempted units of a workload's row: over its timed runs and
/// its traced run, whose ablation and host legs are verified too.
fn failed_frac(workload: &Json) -> f64 {
    let runs = json::items(workload, "runs")
        .iter()
        .chain(json::get(workload, "traced"));
    let sum = |key| runs.clone().filter_map(|r| json::num(r, key)).sum::<f64>();
    let attempted = sum("attempted");
    if attempted > 0.0 {
        sum("failed") / attempted
    } else {
        1.0
    }
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn check(a: &Json, b: &Json) -> Result<bool, String> {
    for key in ["seconds", "reps"] {
        if json::num(a, key) != json::num(b, key) {
            return Err(format!(
                "the sets are not comparable: '{key}' is {:?} in A and {:?} in B",
                json::num(a, key),
                json::num(b, key)
            ));
        }
    }
    let same_seed = json::num(a, "seed").is_some() && json::num(a, "seed") == json::num(b, "seed");
    let (end_to_end, per_layer) = (end_to_end_specs(), per_layer_specs());
    let mut pass = true;
    println!(
        "{:<16} {:<26} {:>8} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A median", "B median", "change", "A spread", "bound"
    );
    for wa in json::items(a, "workloads") {
        let name = json::text(wa, "name").ok_or("workload without a name in A")?;
        let Some(wb) = json::items(b, "workloads")
            .iter()
            .find(|w| json::text(w, "name") == Some(name))
        else {
            println!("{name:<16} missing from B: REGRESSION");
            pass = false;
            continue;
        };
        let (runs_a, runs_b) = (json::items(wa, "runs"), json::items(wb, "runs"));
        for spec in &end_to_end {
            let (va, vb) = (
                metric_values(runs_a, &spec.name),
                metric_values(runs_b, &spec.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{name:<16} {:<26} not measured in both sets: REGRESSION",
                    spec.name
                );
                pass = false;
                continue;
            }
            let verdict = judge(spec, &va, &vb, same_seed);
            pass &= verdict != Verdict::Regression;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{name:<16} {:<26} {:>8} {ma:>14.6} {mb:>14.6} {:>+7.1}% {:>7.1}% {:>5.0}%  {verdict:?}",
                spec.name,
                spec.unit,
                (mb / ma - 1.0) * 100.0,
                spread(&va) * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
            );
        }
        let (fa, fb) = (failed_frac(wa), failed_frac(wb));
        let failed_verdict = if fb > fa { "Regression" } else { "Unchanged" };
        pass &= fb <= fa;
        println!(
            "{name:<16} {:<26} {:>8} {fa:>14.6} {fb:>14.6} {:>8} {:>8} {:>5.0}%  {failed_verdict}",
            "failed_frac", "fraction", "", "", 0.0
        );
        // Per-layer metrics carry no bound: shown side by side.
        let (ta, tb) = (json::get(wa, "traced"), json::get(wb, "traced"));
        if let (Some(ta), Some(tb)) = (ta, tb) {
            let (ta, tb) = (std::slice::from_ref(ta), std::slice::from_ref(tb));
            for spec in &per_layer {
                let (va, vb) = (metric_values(ta, &spec.name), metric_values(tb, &spec.name));
                if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                    println!(
                        "{name:<16} {:<26} {:>8} {x:>14.6} {y:>14.6}",
                        spec.name, spec.unit
                    );
                }
            }
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Spec {
        Spec {
            name: "offload_wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(0.10),
        }
    }

    #[test]
    fn within_bound_and_steady_is_unchanged() {
        let a = [1.00, 1.01, 1.02];
        assert_eq!(
            judge(&timing(), &a, &[1.03, 1.00, 1.04], false),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        let a = [1.00, 1.01, 1.02];
        assert_eq!(
            judge(&timing(), &a, &[1.2, 1.2, 1.2], false),
            Verdict::Regression
        );
        let throughput = Spec {
            name: "units_per_s".into(),
            lower_is_better: false,
            ..timing()
        };
        assert_eq!(
            judge(&throughput, &[10.0, 10.1], &[8.0, 8.1], false),
            Verdict::Regression
        );
        assert_eq!(
            judge(&throughput, &[10.0, 10.1], &[12.0, 12.1], false),
            Verdict::Improved
        );
    }

    #[test]
    fn noisy_baseline_is_unresolved_not_unchanged() {
        let a = [1.0, 1.3, 0.8]; // spread 50% of the median
        assert_eq!(
            judge(&timing(), &a, &[1.0, 1.05, 0.9], false),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&timing(), &a, &[0.5, 0.6, 0.7], false),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_counts_compare_by_equality_for_one_seed() {
        let bytes = Spec {
            name: "wire_bytes_per_unit".into(),
            unit: "bytes".into(),
            lower_is_better: true,
            bound: Some(0.01),
        };
        assert_eq!(
            judge(&bytes, &[1000.0], &[1000.0], true),
            Verdict::Identical
        );
        assert_eq!(
            judge(&bytes, &[1000.0], &[1001.0], true),
            Verdict::Regression
        );
        assert_eq!(judge(&bytes, &[1000.0], &[999.0], true), Verdict::Improved);
        // Another seed draws other data: the bound applies instead.
        assert_eq!(
            judge(&bytes, &[1000.0], &[1001.0], false),
            Verdict::Unchanged
        );
    }

    /// A result set of one workload with one timed run.
    fn result_set(timed_failed: f64, traced_failed: f64) -> Json {
        let run = |failed: f64, metrics: Vec<(String, Json)>| {
            Json::obj([
                ("attempted", Json::Num(100.0)),
                ("failed", Json::Num(failed)),
                ("metrics", Json::Obj(metrics)),
            ])
        };
        let every_metric = end_to_end_specs()
            .iter()
            .map(|s| (s.name.clone(), Json::obj([("value", Json::Num(1.0))])))
            .collect();
        Json::obj([
            ("seed", Json::Num(1.0)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::Str("w".into())),
                    ("runs", Json::Arr(vec![run(timed_failed, every_metric)])),
                    ("traced", run(traced_failed, Vec::new())),
                ])]),
            ),
        ])
    }

    #[test]
    fn a_failure_in_any_leg_fails_the_check() {
        let clean = result_set(0.0, 0.0);
        assert_eq!(check(&clean, &clean), Ok(true));
        assert_eq!(check(&clean, &result_set(1.0, 0.0)), Ok(false));
        // A wrong output or a fallback seen only in the traced run's
        // ablation or host legs counts as well.
        assert_eq!(check(&clean, &result_set(0.0, 1.0)), Ok(false));
        assert_eq!(check(&result_set(0.0, 1.0), &clean), Ok(true));
    }

    #[test]
    fn sets_of_different_length_are_not_compared() {
        let mut longer = result_set(0.0, 0.0);
        if let Json::Obj(pairs) = &mut longer {
            pairs.push(("seconds".into(), Json::Num(20.0)));
        }
        assert!(check(&result_set(0.0, 0.0), &longer).is_err());
    }

    #[test]
    fn contract_lists_parse() {
        let e2e = end_to_end_specs();
        assert!(e2e
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s" && s.lower_is_better));
        assert!(e2e
            .iter()
            .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(per_layer_specs().iter().all(|s| s.bound.is_none()));
    }
}
