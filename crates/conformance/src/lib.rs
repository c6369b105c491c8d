//! Deterministic differential conformance harness.
//!
//! The paper's offloading claim ("the cloud behaves like any other
//! OpenMP device") is only as strong as the equivalence between the
//! cloud execution and the host execution of the same target region.
//! This crate turns that claim into a falsifiable property and fuzzes
//! it:
//!
//! * [`gen`] draws random-but-reproducible target regions from a seeded
//!   [splitmix64](rng::SplitMix64) stream — benchmark kernels and
//!   synthetic regions, random map sets, partitions, reductions,
//!   schedule modes, and optional seeded fault plans.
//! * [`exec`] runs each case twice — once through [`ompcloud`]'s
//!   `CloudDevice` (local-sim storage, optionally chaos-wrapped) and
//!   once through the host fallback device — and diffs the outputs
//!   bitwise. Kernel cases are additionally compared to the handwritten
//!   sequential references with a small tolerance.
//! * [`oracle`] checks conservation laws on the resulting
//!   `OffloadReport` and `JobMetrics` that must hold regardless of
//!   timing: tile accounting, overlap bounds, retry/refetch consistency
//!   with injected faults, staging hygiene.
//! * [`shrink`] reduces a failing case to a smaller one that still
//!   fails and prints a one-line `CONFORMANCE_SEED=… CONFORMANCE_CASE=…` recipe
//!   that replays it exactly.
//!
//! Everything is deterministic given `(seed, case)`: no wall-clock, no
//! OS randomness. The `conformance` binary (see [`cli`]) sweeps N cases
//! under a time budget and is wired into CI as a smoke test and a
//! nightly soak.

pub mod cli;
pub mod exec;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use exec::{run_case, CaseOutcome, Verdict};
pub use gen::{CaseKind, CaseSpec, ChaosFlavor, ChaosSpec, OutFlavor};
pub use rng::SplitMix64;
pub use shrink::{apply_named, shrink_with, TRANSFORMS};
