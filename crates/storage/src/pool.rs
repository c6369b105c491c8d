//! Size-classed byte-buffer pool for the wire path.
//!
//! Every offloaded tile used to allocate (and free) a staging `Vec<u8>`
//! on serialize, another on compress, and a third on decode — at
//! thousands of tiles per region the allocator shows up right next to
//! the codec in profiles. [`BytePool`] keeps freed buffers on
//! power-of-two "shelves" so the next tile of a similar size reuses the
//! allocation instead: encode staging checks buffers *out*, and decoded
//! download payloads check back *in* once the device has scattered them.
//!
//! Hygiene: a checked-out buffer is always length-zero — [`BytePool::get`]
//! and the check-in path both `clear()` the vector, so no stale bytes
//! from a previous tile can ever leak into a `put` (the capacity is
//! recycled, never the contents).
//!
//! [`PoolBuf`] is the RAII handle: it derefs to `Vec<u8>`, returns its
//! allocation to the pool on drop, and [`PoolBuf::detach`] severs the
//! link when the backing store takes ownership of the bytes (raw,
//! uncompressed puts).

use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Smallest pooled capacity (buffers below this are cheap to malloc).
const MIN_CLASS_BYTES: usize = 1024;
/// Shelves cover 1 KiB .. 64 MiB in power-of-two steps.
const NUM_CLASSES: usize = 17;
/// Bound on retained buffers per shelf, so the pool cannot hoard memory.
const MAX_PER_CLASS: usize = 32;

fn class_bytes(class: usize) -> usize {
    MIN_CLASS_BYTES << class
}

/// Counters exposed by [`BytePool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from a shelf (allocation avoided).
    pub hits: u64,
    /// Checkouts that had to allocate (cold shelf or oversized request).
    pub misses: u64,
    /// Buffers returned to a shelf.
    pub returns: u64,
}

/// Size-classed freelists of `Vec<u8>` allocations.
pub struct BytePool {
    shelves: Vec<Mutex<Vec<Vec<u8>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
}

impl BytePool {
    /// A fresh, empty pool.
    pub fn new() -> Arc<BytePool> {
        Arc::new(BytePool {
            shelves: (0..NUM_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
        })
    }

    /// Smallest shelf whose buffers hold at least `capacity` bytes.
    fn class_up(capacity: usize) -> Option<usize> {
        (0..NUM_CLASSES).find(|&c| class_bytes(c) >= capacity)
    }

    /// Largest shelf whose nominal size a buffer of `capacity` satisfies.
    fn class_down(capacity: usize) -> Option<usize> {
        (0..NUM_CLASSES).rev().find(|&c| class_bytes(c) <= capacity)
    }

    /// Check out an empty buffer with at least `capacity` bytes of
    /// capacity. The buffer is always length zero — contents of previous
    /// checkouts are never observable.
    pub fn get(self: &Arc<Self>, capacity: usize) -> PoolBuf {
        match Self::class_up(capacity) {
            Some(class) => {
                // Serve from the exact shelf, or the next one up — a
                // buffer at most 2× the request is better reused than
                // left idle while we malloc a fresh one.
                let reused = self.shelves[class]
                    .lock()
                    .pop()
                    .or_else(|| self.shelves.get(class + 1).and_then(|s| s.lock().pop()));
                let vec = match reused {
                    Some(mut v) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        v.clear();
                        v
                    }
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        Vec::with_capacity(class_bytes(class))
                    }
                };
                PoolBuf {
                    vec,
                    pool: Some(Arc::downgrade(self)),
                }
            }
            // Oversized request: allocate unpooled (dropping it frees it).
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                PoolBuf {
                    vec: Vec::with_capacity(capacity),
                    pool: None,
                }
            }
        }
    }

    /// Wrap an existing allocation so it checks into this pool on drop —
    /// used for decoded download payloads, whose capacity feeds the next
    /// tile's encode staging. The buffer is shrunk to its length first: a
    /// decoder's output grows by doubling, and a buffer shelved by a
    /// capacity well past its length sits a class above every checkout of
    /// its size, where nothing reuses it.
    pub fn adopt(self: &Arc<Self>, mut vec: Vec<u8>) -> PoolBuf {
        vec.shrink_to_fit();
        PoolBuf {
            vec,
            pool: Some(Arc::downgrade(self)),
        }
    }

    fn check_in(&self, mut vec: Vec<u8>) {
        let Some(class) = Self::class_down(vec.capacity()) else {
            return; // below the smallest class: not worth shelving
        };
        let mut shelf = self.shelves[class].lock();
        if shelf.len() >= MAX_PER_CLASS {
            return; // shelf full: let the allocator have it back
        }
        vec.clear();
        shelf.push(vec);
        self.returns.fetch_add(1, Ordering::Relaxed);
    }

    /// Checkout/return counters (for benches and the transfer report).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
        }
    }
}

/// RAII guard over a pooled (or plain) byte buffer. Derefs to `Vec<u8>`;
/// the allocation returns to its pool on drop unless [`detach`ed](Self::detach).
#[derive(Default)]
pub struct PoolBuf {
    vec: Vec<u8>,
    pool: Option<Weak<BytePool>>,
}

impl PoolBuf {
    /// Sever the pool link and take the bytes — for the raw wire path
    /// where the store retains the vector itself.
    pub fn detach(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.vec)
    }
}

impl From<Vec<u8>> for PoolBuf {
    /// An unpooled buffer — keeps `Vec<u8>` call sites compiling unchanged.
    fn from(vec: Vec<u8>) -> Self {
        PoolBuf { vec, pool: None }
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take().and_then(|w| w.upgrade()) {
            pool.check_in(std::mem::take(&mut self.vec));
        }
    }
}

impl Deref for PoolBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.vec
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }
}

impl std::fmt::Debug for PoolBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolBuf")
            .field("len", &self.vec.len())
            .field("capacity", &self.vec.capacity())
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl Clone for PoolBuf {
    /// Clones the bytes only; the clone is unpooled.
    fn clone(&self) -> Self {
        PoolBuf {
            vec: self.vec.clone(),
            pool: None,
        }
    }
}

impl PartialEq for PoolBuf {
    fn eq(&self, other: &Self) -> bool {
        self.vec == other.vec
    }
}

impl Eq for PoolBuf {}

impl PartialEq<Vec<u8>> for PoolBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.vec == other
    }
}

impl PartialEq<PoolBuf> for Vec<u8> {
    fn eq(&self, other: &PoolBuf) -> bool {
        self == &other.vec
    }
}

impl PartialEq<&[u8]> for PoolBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.vec.as_slice() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total buffers currently shelved.
    fn idle_buffers(pool: &BytePool) -> usize {
        pool.shelves.iter().map(|s| s.lock().len()).sum()
    }

    #[test]
    fn checkout_is_always_empty_even_after_dirty_return() {
        let pool = BytePool::new();
        {
            let mut buf = pool.get(4096);
            buf.extend_from_slice(&[0xAB; 4096]);
        } // returns dirty buffer
        let buf = pool.get(4096);
        assert!(buf.is_empty(), "stale bytes must never be observable");
        assert!(buf.capacity() >= 4096);
        assert_eq!(pool.stats().hits, 1, "allocation was reused");
    }

    #[test]
    fn same_class_reuses_allocation() {
        let pool = BytePool::new();
        let ptr = {
            let buf = pool.get(10_000);
            buf.as_ptr() as usize
        };
        let buf = pool.get(9_000); // same 16 KiB class
        assert_eq!(buf.as_ptr() as usize, ptr, "capacity recycled");
    }

    #[test]
    fn detach_keeps_bytes_and_skips_checkin() {
        let pool = BytePool::new();
        let mut buf = pool.get(2048);
        buf.extend_from_slice(b"payload");
        let vec = buf.detach();
        assert_eq!(vec, b"payload");
        assert_eq!(idle_buffers(&pool), 0, "detached buffer never returns");
    }

    #[test]
    fn adopted_buffers_check_in_on_drop() {
        let pool = BytePool::new();
        drop(pool.adopt(vec![1u8; 8192]));
        assert_eq!(idle_buffers(&pool), 1);
        let buf = pool.get(4096);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 8192, "adopted capacity reused");
    }

    #[test]
    fn oversized_and_tiny_buffers_are_not_pooled() {
        let pool = BytePool::new();
        drop(pool.get(256 * 1024 * 1024)); // over the largest class
        drop(pool.adopt(vec![1u8; 16])); // under the smallest class
        assert_eq!(idle_buffers(&pool), 0);
    }

    #[test]
    fn shelf_capacity_is_bounded() {
        let pool = BytePool::new();
        for _ in 0..100 {
            drop(pool.adopt(vec![0u8; 4096]));
        }
        assert!(idle_buffers(&pool) <= 32 + 1, "shelves bounded per class");
    }

    #[test]
    fn from_vec_is_unpooled() {
        let pool = BytePool::new();
        let buf: PoolBuf = vec![1, 2, 3].into();
        drop(buf);
        assert_eq!(idle_buffers(&pool), 0);
    }

    #[test]
    fn pool_buf_compares_with_vec() {
        let buf: PoolBuf = vec![1u8, 2, 3].into();
        assert_eq!(buf, vec![1u8, 2, 3]);
        assert_eq!(vec![1u8, 2, 3], buf);
        assert_eq!(buf.clone(), buf);
    }

    #[test]
    fn buffers_outlive_a_dropped_pool() {
        let pool = BytePool::new();
        let mut buf = pool.get(2048);
        buf.push(9);
        drop(pool); // weak link: drop after the pool is gone is a no-op
        assert_eq!(*buf, vec![9]);
    }
}
