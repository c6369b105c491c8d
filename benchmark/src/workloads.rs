//! The six workloads: what one unit of work is, which store it crosses,
//! and why it is here. The regions themselves are built in `bind.rs`.

/// Paper kernel a unit offloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Gemm,
    Covar,
}

/// What one unit of work is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One target region of a paper kernel at `KERNEL_N`.
    Kernel { kernel: Kernel, sparse: bool },
    /// Four `depend(inout: y)` + `nowait` regions and the `taskwait`.
    Chain,
    /// One region mapping `FANIN_INPUTS` small inputs to one output.
    FanIn,
    /// One more round of the same region on the same runtime, a few
    /// tiles of `x` dirtied since the last round.
    Iterative,
}

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers do the work here, and which do not.
    pub why: &'static str,
    pub shape: Shape,
    /// Per-op round trip of the store; 0 = the bare in-memory store.
    pub latency_ms: u64,
    /// Bytes per second of the store; `None` = no bandwidth term.
    pub bandwidth: Option<f64>,
    /// `[offload]` keys this workload adds to the shared configuration.
    pub offload_ini: &'static str,
}

/// Matrix dimension of the kernel workloads (COVAR: 2n observations).
pub const KERNEL_N: usize = 384;
/// Elements of the chain's `y` (1 MiB of f32) and its stage count.
pub const CHAIN_LEN: usize = 256 * 1024;
pub const CHAIN_STAGES: usize = 4;
/// Inputs of the fan-in region and the elements of each (64 KiB of f32).
pub const FANIN_INPUTS: usize = 32;
pub const FANIN_LEN: usize = 16 * 1024;
/// Iterative region: `x` is 2 MiB of f32 in 32 delta tiles of 64 KiB,
/// three of them dirtied per round; `w` is 256 KiB and never changes.
pub const ITER_X_LEN: usize = 512 * 1024;
pub const ITER_W_LEN: usize = 64 * 1024;
pub const ITER_TILE_ELEMS: usize = 16 * 1024;
pub const ITER_DIRTY_TILES: usize = 3;
pub const ITER_TRIPS: usize = 256;

/// Units run, and not timed, before the first timed unit.
pub const WARMUP_UNITS: usize = 3;

/// The store every `-wan` workload crosses: 5 ms per op, 40 MB/s.
const WAN_LATENCY_MS: u64 = 5;
const WAN_BANDWIDTH: f64 = 40e6;

pub const ALL: [Workload; 6] = [
    Workload {
        name: "dense-wan",
        why: "GEMM n=384 on dense data over a 5 ms / 40 MB/s store: inputs barely compress, so wire bytes over bandwidth dominate; storage does the work and the codec runs but buys nothing",
        shape: Shape::Kernel {
            kernel: Kernel::Gemm,
            sparse: false,
        },
        latency_ms: WAN_LATENCY_MS,
        bandwidth: Some(WAN_BANDWIDTH),
        offload_ini: "",
    },
    Workload {
        name: "sparse-wan",
        why: "same kernel, size and store on 5%-dense data: inputs compress >10x, so the codec earns its time and per-op latency, not bandwidth, is what is left",
        shape: Shape::Kernel {
            kernel: Kernel::Gemm,
            sparse: true,
        },
        latency_ms: WAN_LATENCY_MS,
        bandwidth: Some(WAN_BANDWIDTH),
        offload_ini: "",
    },
    Workload {
        name: "compute-covar",
        why: "COVAR n=384 m=768 (two map-reduce loops) on the bare in-memory store: bypasses the WAN, so kernels, omp views, sparkle scheduling and core tiling/merge do the work; a transfer change must not move it",
        shape: Shape::Kernel {
            kernel: Kernel::Covar,
            sparse: false,
        },
        latency_ms: 0,
        bandwidth: None,
        offload_ini: "",
    },
    Workload {
        name: "chain-k4",
        why: "DAG of four depend(inout)+nowait regions over a 1 MiB buffer on a 2 ms/op store: bytes equal one region's, so only DAG drain, resident hand-off and job turnaround can move it",
        shape: Shape::Chain,
        latency_ms: 2,
        bandwidth: None,
        offload_ini: "",
    },
    Workload {
        name: "fanin-latency",
        why: "one region mapping 32 small 64 KiB inputs on a 10 ms/op store with no bandwidth term: many small ops, so round trips and their overlap dominate; bytes and codec are negligible",
        shape: Shape::FanIn,
        latency_ms: 10,
        bandwidth: None,
        offload_ini: "",
    },
    Workload {
        name: "iterative-delta",
        why: "re-offload of one region, 3 of 32 tiles of a 2 MiB input dirtied per round, delta transfers and caching on, WAN store: the map optimizer and delta ledger do the work, storage and codec little",
        shape: Shape::Iterative,
        latency_ms: WAN_LATENCY_MS,
        bandwidth: Some(WAN_BANDWIDTH),
        offload_ini: "delta-transfers = true\ndata-caching = true\n",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Units that run before the first timed one. The iterative workload
    /// also runs round 0 there: the full upload every later round patches.
    pub fn warmup_units(&self) -> usize {
        WARMUP_UNITS + usize::from(self.shape == Shape::Iterative)
    }
}

/// SplitMix64: the benchmark's own input generator for the synthetic
/// shapes, so unit inputs depend on `--seed` and on nothing else.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform f32 in `[0, 1)` with 24 random mantissa bits.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in &ALL {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(find("no-such").is_none());
    }

    #[test]
    fn splitmix_is_a_function_of_its_seed() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix(9).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(SplitMix(9).next_u64(), SplitMix(10).next_u64());
        let mut r = SplitMix(1);
        for _ in 0..1000 {
            let f = r.unit_f32();
            assert!((0.0..1.0).contains(&f));
            assert!(r.below(7) < 7);
        }
    }
}
