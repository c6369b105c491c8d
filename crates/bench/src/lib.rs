//! `ompcloud-bench` — harnesses regenerating the ICPP'17 evaluation.
//!
//! The binaries in `src/bin/` print the paper's figures and in-text
//! tables from the calibrated performance model ([`paper`] holds the
//! paper-scale job plans); the Criterion benches in `benches/` measure
//! the functional engine itself (codec, transfers, RDD machinery, whole
//! offloads at laptop scale, and the ablations called out in DESIGN.md).

pub mod paper;
pub mod payloads;
pub mod table;
