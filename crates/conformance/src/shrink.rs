//! Seed shrinking: reduce a failing [`CaseSpec`] to a smaller spec that
//! still fails, then print a replay recipe.
//!
//! Randomized specs cannot be shrunk by re-rolling the seed (any edit
//! changes every later draw), so the shrinker works on the *decoded*
//! spec instead: a fixed list of named, idempotent transforms
//! (`halve_n`, `drop_chaos`, `one_worker`, ...), applied greedily to a
//! fixpoint while the case keeps failing. Because every transform has a
//! stable name, the shrunk case replays exactly as
//! `CONFORMANCE_SEED=<s> CONFORMANCE_CASE=<n> CONFORMANCE_SHRINK=<name,name,...>`:
//! regenerate the original spec from `(seed, case)`, then apply the
//! named transforms in order.

use crate::gen::{CaseKind, CaseSpec, SyntheticSpec};
use sparkle::ScheduleMode;

/// One named, deterministic spec transform. Returns `None` when the
/// transform does not apply (already minimal along that axis).
pub struct Transform {
    /// Stable name used in `CONFORMANCE_SHRINK=` recipes.
    pub name: &'static str,
    /// Apply the transform; `None` = no change possible.
    pub apply: fn(&CaseSpec) -> Option<CaseSpec>,
}

fn synthetic(spec: &CaseSpec) -> Option<&SyntheticSpec> {
    match &spec.kind {
        CaseKind::Synthetic(s) => Some(s),
        CaseKind::Kernel { .. } => None,
    }
}

/// The shrink dimension catalogue, in application order: structural
/// reductions first (smaller problem), then feature removals (fewer
/// moving parts), then scheduling simplifications.
pub const TRANSFORMS: &[Transform] = &[
    Transform {
        name: "halve_n",
        apply: |s| {
            if s.n <= 4 {
                return None;
            }
            let mut t = s.clone();
            t.n = (t.n / 2).max(4);
            Some(t)
        },
    },
    Transform {
        name: "halve_inputs",
        apply: |s| {
            let syn = synthetic(s)?;
            if syn.inputs <= 1 {
                return None;
            }
            let mut syn = syn.clone();
            syn.inputs = (syn.inputs / 2).max(1);
            let mut t = s.clone();
            t.kind = CaseKind::Synthetic(syn);
            Some(t)
        },
    },
    Transform {
        name: "drop_second_loop",
        apply: |s| {
            let syn = synthetic(s)?;
            if syn.second_n == 0 {
                return None;
            }
            let mut syn = syn.clone();
            syn.second_n = 0;
            let mut t = s.clone();
            t.kind = CaseKind::Synthetic(syn);
            Some(t)
        },
    },
    Transform {
        name: "drop_loop_schedule",
        apply: |s| {
            let syn = synthetic(s)?;
            syn.loop_schedule?;
            let mut syn = syn.clone();
            syn.loop_schedule = None;
            let mut t = s.clone();
            t.kind = CaseKind::Synthetic(syn);
            Some(t)
        },
    },
    Transform {
        name: "drop_chaos",
        apply: |s| {
            s.chaos.as_ref()?;
            let mut t = s.clone();
            t.chaos = None;
            Some(t)
        },
    },
    Transform {
        name: "drop_tenancy",
        apply: |s| {
            s.tenancy.as_ref()?;
            let mut t = s.clone();
            t.tenancy = None;
            Some(t)
        },
    },
    Transform {
        name: "drop_map_elide",
        apply: |s| {
            s.map_elide?;
            let mut t = s.clone();
            t.map_elide = None;
            Some(t)
        },
    },
    Transform {
        name: "drop_latency",
        apply: |s| {
            if s.latency_us == 0 {
                return None;
            }
            let mut t = s.clone();
            t.latency_us = 0;
            Some(t)
        },
    },
    Transform {
        name: "drop_checkpoint",
        apply: |s| {
            // Checkpointing stays while a chaos flavor depends on it.
            if !s.checkpoint || s.chaos.is_some() {
                return None;
            }
            let mut t = s.clone();
            t.checkpoint = false;
            t.resume_budget = 0;
            Some(t)
        },
    },
    Transform {
        name: "no_dist_reduce",
        apply: |s| {
            if !s.distributed_reduce {
                return None;
            }
            let mut t = s.clone();
            t.distributed_reduce = false;
            Some(t)
        },
    },
    Transform {
        name: "static_schedule",
        apply: |s| {
            if s.mode == ScheduleMode::Static && s.spec_factor == 0.0 {
                return None;
            }
            let mut t = s.clone();
            t.mode = ScheduleMode::Static;
            t.spec_factor = 0.0;
            Some(t)
        },
    },
    Transform {
        name: "one_worker",
        apply: |s| {
            if s.workers == 1 && s.vcpus == 1 && s.task_cpus == 1 {
                return None;
            }
            let mut t = s.clone();
            t.workers = 1;
            t.vcpus = 1;
            t.task_cpus = 1;
            Some(t)
        },
    },
];

/// Greedily shrink `spec` while `fails` keeps returning `true` for the
/// shrunk candidate. Returns the minimal failing spec and the names of
/// the transforms that got there (the `CONFORMANCE_SHRINK=` recipe; a
/// name may repeat — `halve_n` halves once per application). Bounded:
/// every transform strictly reduces some finite axis, so the fixpoint
/// loop terminates after a few dozen candidate executions.
pub fn shrink_with(
    spec: &CaseSpec,
    mut fails: impl FnMut(&CaseSpec) -> bool,
) -> (CaseSpec, Vec<&'static str>) {
    let mut best = spec.clone();
    let mut recipe = Vec::new();
    let mut progress = true;
    while progress {
        progress = false;
        for t in TRANSFORMS {
            if let Some(candidate) = (t.apply)(&best) {
                if fails(&candidate) {
                    best = candidate;
                    recipe.push(t.name);
                    progress = true;
                }
            }
        }
    }
    (best, recipe)
}

/// Re-apply a `CONFORMANCE_SHRINK=` recipe (comma-separated transform
/// names) to a freshly generated spec. Unknown names are rejected;
/// non-applicable transforms are no-ops, so a recipe replays cleanly
/// even after generator tweaks upstream.
pub fn apply_named(spec: &CaseSpec, recipe: &str) -> Result<CaseSpec, String> {
    let mut out = spec.clone();
    for name in recipe.split(',').filter(|s| !s.is_empty()) {
        let t = TRANSFORMS
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("unknown shrink transform '{name}'"))?;
        if let Some(next) = (t.apply)(&out) {
            out = next;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::CaseSpec;

    fn a_big_spec() -> CaseSpec {
        // Find a synthetic case with plenty to shrink.
        (0..512)
            .map(|c| CaseSpec::generate(9, c))
            .find(|s| {
                matches!(&s.kind, CaseKind::Synthetic(sy) if sy.inputs > 2 && sy.second_n > 0)
                    && s.chaos.is_some()
                    && s.workers > 1
            })
            .expect("a rich case in 512 draws")
    }

    #[test]
    fn shrinks_to_fixpoint_against_an_always_failing_predicate() {
        let spec = a_big_spec();
        let (small, recipe) = shrink_with(&spec, |_| true);
        assert_eq!(small.n, 4);
        assert_eq!(small.workers, 1);
        assert!(small.chaos.is_none());
        assert!(!recipe.is_empty());
        // The recipe replays to the same shrunk spec.
        let replayed = apply_named(&spec, &recipe.join(",")).unwrap();
        assert_eq!(replayed, small);
    }

    #[test]
    fn respects_the_predicate() {
        let spec = a_big_spec();
        let keep_chaos = spec.chaos.clone();
        // Refuse any candidate that drops chaos: it must survive.
        let (small, recipe) = shrink_with(&spec, |c| c.chaos.is_some());
        assert_eq!(small.chaos, keep_chaos);
        assert!(!recipe.contains(&"drop_chaos"));
    }

    #[test]
    fn unknown_transform_names_are_rejected() {
        let spec = CaseSpec::generate(1, 0);
        assert!(apply_named(&spec, "definitely_not_a_transform").is_err());
        assert_eq!(apply_named(&spec, "").unwrap(), spec);
    }
}
