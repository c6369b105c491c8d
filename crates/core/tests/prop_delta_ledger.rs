//! Property tests for the dirty-tile delta ledger: a mutation to ANY
//! byte of ANY tile must mark exactly that tile dirty, an untouched
//! buffer must always produce a zero-byte (clean) delta round, and a
//! patch applied to the committed base must reconstruct the mutated
//! payload bit for bit.

use ompcloud::{DeltaDiff, DeltaLedger};
use proptest::prelude::*;

proptest! {
    /// Flipping a single byte anywhere always dirties exactly the tile
    /// holding it — an exact compare cannot miss a one-byte change.
    #[test]
    fn any_single_byte_mutation_marks_its_tile_dirty(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        tile_bytes in 1usize..512,
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut ledger = DeltaLedger::new(tile_bytes);
        ledger.commit("x", &data);
        let pos = (pos_seed as usize) % data.len();
        let mut mutated = data.clone();
        mutated[pos] ^= flip;
        let diff = ledger.diff("x", &mutated);
        prop_assert_eq!(diff, DeltaDiff::Dirty(vec![pos / tile_bytes]));
    }

    /// An untouched buffer is always a clean round: zero bytes travel.
    #[test]
    fn untouched_buffer_diffs_clean(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        tile_bytes in 1usize..512,
    ) {
        let mut ledger = DeltaLedger::new(tile_bytes);
        ledger.commit("x", &data);
        prop_assert_eq!(ledger.diff("x", &data), DeltaDiff::Clean);
    }

    /// Arbitrary multi-byte mutations: the diff's dirty set is exactly
    /// the set of tiles containing a changed byte, and the encoded patch
    /// reconstructs the mutated payload bit for bit.
    #[test]
    fn patch_roundtrip_reconstructs_any_mutation(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        tile_bytes in 1usize..512,
        edits in proptest::collection::vec((any::<u64>(), 1u8..=255), 1..16),
    ) {
        let mut ledger = DeltaLedger::new(tile_bytes);
        ledger.commit("x", &data);
        let mut mutated = data.clone();
        let mut want_dirty: Vec<usize> = Vec::new();
        for (pos_seed, flip) in &edits {
            let pos = (*pos_seed as usize) % mutated.len();
            mutated[pos] ^= flip;
            let tile = pos / tile_bytes;
            if !want_dirty.contains(&tile) {
                want_dirty.push(tile);
            }
        }
        want_dirty.sort_unstable();
        // XOR pairs can cancel: recompute the truly-changed tiles.
        want_dirty.retain(|&t| {
            let start = t * tile_bytes;
            let end = (start + tile_bytes).min(data.len());
            data[start..end] != mutated[start..end]
        });
        match ledger.diff("x", &mutated) {
            DeltaDiff::Dirty(dirty) => {
                prop_assert_eq!(&dirty, &want_dirty);
                let patch = ledger.encode_patch("x", &mutated, &dirty);
                prop_assert!(DeltaLedger::is_patch(&patch));
                prop_assert_eq!(ledger.apply_patch("x", &patch).unwrap(), mutated);
            }
            DeltaDiff::Clean => prop_assert!(
                want_dirty.is_empty(),
                "diff says clean but tiles {:?} changed", want_dirty
            ),
            DeltaDiff::NoBase => prop_assert!(false, "base was committed"),
        }
    }

    /// Committing the mutated payload makes the next diff clean again —
    /// the ledger converges round over round.
    #[test]
    fn commit_converges_to_clean(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        tile_bytes in 1usize..256,
        pos_seed in any::<u64>(),
    ) {
        let mut ledger = DeltaLedger::new(tile_bytes);
        ledger.commit("x", &data);
        let mut mutated = data.clone();
        let pos = (pos_seed as usize) % mutated.len();
        mutated[pos] = mutated[pos].wrapping_add(1);
        ledger.commit("x", &mutated);
        prop_assert_eq!(ledger.diff("x", &mutated), DeltaDiff::Clean);
    }
}
