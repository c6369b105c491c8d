//! Algorithm 1: tiling the parallel loop to the cluster size.
//!
//! "Our compiler automatically adjusts the iteration number of the
//! outer-loop according to the cluster size using loop tiling to reduce
//! JNI overhead … since each iteration will require one call to JNI, the
//! closer the number of iterations is to the number of cores, the smaller
//! will be the overhead." The tile size is `⌊N/C⌋` with `C` the number of
//! worker cores, passed at job submission so no recompilation is needed
//! for a different cluster.

use std::ops::Range;

/// Iteration ranges produced by tiling a trip count of `n` to a cluster
/// with `c` task slots (Algorithm 1 of the paper).
///
/// Properties: ranges are contiguous, non-empty, cover `0..n` exactly,
/// and there are `min(n, c)` of them (one JNI call each).
pub fn tile_ranges(n: usize, c: usize) -> Vec<Range<usize>> {
    // The transformed loop `for ii in (0..n).step_by(n / c)` with the
    // inner loop clamped to `min(ii + ⌊N/C⌋ - 1, N-1)` is exactly an
    // even split into min(n, c) contiguous blocks.
    omp_parfor::split_even(n, c.max(1))
}

/// Number of tiles (= Spark tasks = JNI invocations) after tiling.
pub fn tile_count(n: usize, c: usize) -> usize {
    if n == 0 {
        0
    } else {
        n.min(c.max(1))
    }
}

/// Tile `n` iterations honoring an explicit tile size.
///
/// `tile_size` is `[offload] tile-size`; 0 is "auto" — Algorithm 1's
/// even split across the cluster's `c` task slots, the paper's behavior.
/// A positive size instead cuts fixed blocks of `tile_size` iterations
/// (the last one shorter), trading per-task dispatch overhead against
/// transfer granularity. Both call sites that
/// derive a tile plan — the Spark job generator and the checkpoint
/// fingerprint — must go through this function so resumed regions land
/// on the journal their first run wrote.
pub fn tile_plan(n: usize, c: usize, tile_size: usize) -> Vec<Range<usize>> {
    if tile_size == 0 {
        return tile_ranges(n, c);
    }
    let mut out = Vec::with_capacity(n.div_ceil(tile_size));
    let mut start = 0;
    while start < n {
        let end = (start + tile_size).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(n: usize, c: usize) {
        let tiles = tile_ranges(n, c);
        assert_eq!(tiles.len(), tile_count(n, c), "n={n} c={c}");
        let mut next = 0;
        for t in &tiles {
            assert_eq!(t.start, next, "contiguous n={n} c={c}");
            assert!(!t.is_empty(), "non-empty n={n} c={c}");
            next = t.end;
        }
        assert_eq!(next, n, "covers n={n} c={c}");
    }

    #[test]
    fn algorithm1_shapes() {
        for n in [1usize, 7, 16, 100, 16384] {
            for c in [1usize, 8, 16, 63, 256, 100_000] {
                check_cover(n, c);
            }
        }
        check_cover(0, 8);
    }

    #[test]
    fn paper_example_16_iterations() {
        // Fig. 3 uses N = 16 loop iterations; on a 16-slot cluster every
        // slot gets exactly one iteration.
        let tiles = tile_ranges(16, 16);
        assert_eq!(tiles.len(), 16);
        assert!(tiles.iter().all(|t| t.len() == 1));
    }

    #[test]
    fn more_cores_than_iterations_caps_at_n() {
        let tiles = tile_ranges(4, 256);
        assert_eq!(tiles.len(), 4);
    }

    #[test]
    fn tiles_are_balanced() {
        let tiles = tile_ranges(16384, 256);
        assert_eq!(tiles.len(), 256);
        assert!(tiles.iter().all(|t| t.len() == 64));
        let tiles = tile_ranges(100, 8); // 100 = 8*12 + 4
        let sizes: Vec<usize> = tiles.iter().map(|t| t.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert!(sizes.iter().all(|&s| s == 12 || s == 13));
    }

    #[test]
    fn zero_iterations_zero_tiles() {
        assert!(tile_ranges(0, 8).is_empty());
        assert_eq!(tile_count(0, 8), 0);
    }

    #[test]
    fn tile_plan_auto_matches_algorithm1() {
        for n in [0usize, 1, 7, 100, 16384] {
            for c in [1usize, 8, 256] {
                assert_eq!(tile_plan(n, c, 0), tile_ranges(n, c), "n={n} c={c}");
            }
        }
    }

    #[test]
    fn tile_plan_fixed_size_cuts_exact_blocks() {
        let tiles = tile_plan(100, 8, 32);
        assert_eq!(tiles, vec![0..32, 32..64, 64..96, 96..100]);
        // Coverage properties hold for awkward sizes too.
        for (n, size) in [(1usize, 7usize), (7, 7), (8, 7), (16384, 1000)] {
            let tiles = tile_plan(n, 4, size);
            assert_eq!(tiles.len(), n.div_ceil(size));
            let mut next = 0;
            for t in &tiles {
                assert_eq!(t.start, next);
                assert!(!t.is_empty() && t.len() <= size);
                next = t.end;
            }
            assert_eq!(next, n);
        }
        assert!(tile_plan(0, 4, 16).is_empty());
    }
}
