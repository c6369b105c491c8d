#![warn(missing_docs)]
// The `sequential()` references are written with explicit indices on
// purpose: they mirror the paper's C loops one-to-one.
#![allow(clippy::needless_range_loop)]

//! `ompcloud-kernels` — the evaluation benchmarks of the ICPP'17 paper.
//!
//! §IV selects eight kernels "which contain only the supported OpenMP
//! constructs and which could benefit the most of cloud offloading":
//! SYRK, SYR2K, COVAR, GEMM, 2MM and 3MM from the Polyhedral Benchmark
//! suite, plus Mat-mul and Collinear-list from MgBench. Each module
//! provides the kernel as an offloadable [`omp_model::TargetRegion`]
//! (with the paper's partition/broadcast split), a handwritten sequential
//! reference, data generators for the dense and sparse input classes, and
//! a flop model for the performance projections.
//!
//! The region bodies take their rows as slices (`VarView::slice`) and run
//! the loop order whose inner loop is contiguous; COVAR and the matmul
//! family are tile bodies that block rows x columns across their tile
//! (`matmul::add_panel`). The references keep the naive order. The two
//! must agree bit for bit (`case::tests`), so a body may reorder loops
//! only while every output element still sees the same floating-point
//! operations in the same order.

pub mod case;
pub mod collinear;
pub mod covar;
pub mod data;
pub mod extended;
pub mod gemm;
pub mod matmul;
pub mod syr2k;
pub mod syrk;
pub mod three_mm;
pub mod two_mm;

pub use case::{build, build_all, flops, run_host, BenchCase, BenchId, ALL};
pub use data::{assert_close, matrix, max_abs_diff, points, DataKind, SPARSE_DENSITY};
pub use extended::{build_extra, ExtraBench, EXTRA};
