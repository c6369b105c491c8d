//! Broadcast variables.
//!
//! When a loop body needs all of a variable (the matrix `B` in the
//! paper's matmul), Spark broadcasts it once per worker instead of once
//! per task, using a BitTorrent-style protocol: the value is cut into
//! chunks, the driver seeds them, and workers exchange chunks among
//! themselves, so driver egress stays O(size) instead of
//! O(size × workers). In-process the value is an `Arc`, but the transfer
//! accounting follows the protocol and feeds the performance model.

use crate::Data;
use std::sync::Arc;

/// Chunk size Spark's TorrentBroadcast uses (4 MiB).
pub const TORRENT_CHUNK: u64 = 4 * 1024 * 1024;

/// Distribution statistics of one broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastStats {
    /// Payload size in bytes.
    pub bytes: u64,
    /// Number of executors that received the value.
    pub executors: usize,
    /// Protocol chunks (`ceil(bytes / TORRENT_CHUNK)`, at least 1).
    pub chunks: u64,
    /// Bytes sent by the driver (torrent: ~one copy of the payload).
    pub driver_egress: u64,
    /// Bytes exchanged worker-to-worker.
    pub peer_traffic: u64,
    /// Exchange rounds until every worker holds every chunk
    /// (`ceil(log2(executors + 1))`).
    pub rounds: u32,
}

impl BroadcastStats {
    /// Statistics for a BitTorrent-style dissemination.
    pub fn torrent(bytes: u64, executors: usize) -> BroadcastStats {
        let executors = executors.max(1);
        let chunks = bytes.div_ceil(TORRENT_CHUNK).max(1);
        // The driver seeds each chunk once; every other copy is served by
        // a peer that already holds it. Total copies = executors, so peer
        // traffic covers executors - 1 of them.
        let driver_egress = bytes;
        let peer_traffic = bytes.saturating_mul(executors as u64 - 1);
        let rounds = (usize::BITS - executors.leading_zeros()).max(1);
        BroadcastStats {
            bytes,
            executors,
            chunks,
            driver_egress,
            peer_traffic,
            rounds,
        }
    }

    /// Statistics for a naive star broadcast (the ablation baseline): the
    /// driver sends a full copy to every executor.
    pub fn star(bytes: u64, executors: usize) -> BroadcastStats {
        let executors = executors.max(1);
        BroadcastStats {
            bytes,
            executors,
            chunks: 1,
            driver_egress: bytes.saturating_mul(executors as u64),
            peer_traffic: 0,
            rounds: 1,
        }
    }
}

/// A read-only value shared with every task.
pub struct Broadcast<T: Data> {
    value: Arc<T>,
    stats: BroadcastStats,
}

impl<T: Data> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Broadcast {
            value: Arc::clone(&self.value),
            stats: self.stats,
        }
    }
}

impl<T: Data> Broadcast<T> {
    pub(crate) fn new(value: T, stats: BroadcastStats) -> Broadcast<T> {
        Broadcast {
            value: Arc::new(value),
            stats,
        }
    }

    /// Access the broadcast value (zero-copy; tasks share the `Arc`).
    pub fn value(&self) -> &T {
        &self.value
    }

    /// Shared handle to the value, for moving into task closures.
    pub fn handle(&self) -> Arc<T> {
        Arc::clone(&self.value)
    }

    /// Distribution statistics.
    pub fn stats(&self) -> BroadcastStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torrent_driver_egress_is_one_copy() {
        let s = BroadcastStats::torrent(1 << 30, 16);
        assert_eq!(s.driver_egress, 1 << 30);
        assert_eq!(s.peer_traffic, 15 << 30);
        assert_eq!(s.chunks, 256);
        assert_eq!(s.rounds, 5); // ceil(log2(17)) = 5
    }

    #[test]
    fn star_driver_egress_scales_with_executors() {
        let s = BroadcastStats::star(1 << 30, 16);
        assert_eq!(s.driver_egress, 16 << 30);
        assert_eq!(s.peer_traffic, 0);
    }

    #[test]
    fn torrent_beats_star_on_driver_egress() {
        for execs in [2usize, 4, 16, 64] {
            let t = BroadcastStats::torrent(1 << 20, execs);
            let s = BroadcastStats::star(1 << 20, execs);
            assert!(t.driver_egress <= s.driver_egress);
        }
    }

    #[test]
    fn tiny_broadcast_is_one_chunk() {
        let s = BroadcastStats::torrent(100, 4);
        assert_eq!(s.chunks, 1);
    }

    #[test]
    fn value_is_shared_not_copied() {
        let b = Broadcast::new(vec![1u8; 1024], BroadcastStats::torrent(1024, 2));
        let h1 = b.handle();
        let h2 = b.clone().handle();
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(b.value().len(), 1024);
    }
}
