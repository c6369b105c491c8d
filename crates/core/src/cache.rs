//! Device-side data caching — the paper's stated future work ("we plan
//! to implement data caching to limit the cost of host-target
//! communications", §VI), implemented here as an extension.
//!
//! The cloud device remembers, per variable name, a fingerprint of the
//! last buffer it uploaded and the storage key holding it. When the same
//! variable is offloaded again unchanged — the common pattern of
//! iterative applications calling the same kernel over static inputs —
//! the upload is skipped and the job reuses the staged object. Any
//! content change invalidates the entry.
//!
//! Fingerprints are CRC-32 over the wire form plus the length; cheap
//! relative to a WAN transfer and already computed by the integrity
//! layer. (A production system would use a stronger digest; the cache
//! API is oblivious to the choice.)

use std::collections::{BTreeSet, HashMap};

/// Fingerprint of a buffer's wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// CRC-32 of the little-endian serialization.
    pub crc: u32,
    /// Byte length of the serialization.
    pub len: u64,
}

impl Fingerprint {
    /// Fingerprint `bytes`.
    pub fn of(bytes: &[u8]) -> Fingerprint {
        Fingerprint {
            crc: gzlite::crc32(bytes),
            len: bytes.len() as u64,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    fingerprint: Fingerprint,
    storage_key: String,
}

/// Cache of variables already staged in cloud storage.
#[derive(Debug, Default)]
pub struct UploadCache {
    entries: HashMap<String, Entry>,
    hits: u64,
    misses: u64,
    /// Key prefixes of the finished jobs that may still hold objects
    /// the entries reference.
    pub(crate) jobs: BTreeSet<String>,
}

/// Decision for one buffer about to be uploaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheDecision {
    /// Content unchanged; reuse the staged object at this key.
    Hit {
        /// Key of the previously staged object.
        storage_key: String,
    },
    /// Content new or changed; upload required.
    Miss,
}

impl UploadCache {
    /// Empty cache.
    pub fn new() -> UploadCache {
        UploadCache::default()
    }

    /// Look `var` up against the fingerprint of its current content.
    pub fn check(&mut self, var: &str, fingerprint: Fingerprint) -> CacheDecision {
        match self.entries.get(var) {
            Some(e) if e.fingerprint == fingerprint => {
                self.hits += 1;
                CacheDecision::Hit {
                    storage_key: e.storage_key.clone(),
                }
            }
            _ => {
                self.misses += 1;
                CacheDecision::Miss
            }
        }
    }

    /// Record that `var` with `fingerprint` now lives at `storage_key`.
    pub fn record(&mut self, var: &str, fingerprint: Fingerprint, storage_key: String) {
        self.entries.insert(
            var.to_string(),
            Entry {
                fingerprint,
                storage_key,
            },
        );
    }

    /// Forget one variable (its staged object was deleted or the device
    /// was reset).
    pub fn invalidate(&mut self, var: &str) {
        self.entries.remove(var);
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The storage keys the cached variables live at.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.values().map(|e| e.storage_key.as_str())
    }

    /// Variables currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_then_invalidate() {
        let mut cache = UploadCache::new();
        let fp = Fingerprint::of(b"hello matrices");
        assert_eq!(cache.check("A", fp), CacheDecision::Miss);
        cache.record("A", fp, "jobs/0/in/A".into());
        assert_eq!(
            cache.check("A", fp),
            CacheDecision::Hit {
                storage_key: "jobs/0/in/A".into()
            }
        );
        cache.invalidate("A");
        assert_eq!(cache.check("A", fp), CacheDecision::Miss);
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn content_change_is_a_miss() {
        let mut cache = UploadCache::new();
        let fp1 = Fingerprint::of(b"version one");
        cache.record("A", fp1, "k1".into());
        let fp2 = Fingerprint::of(b"version two");
        assert_eq!(cache.check("A", fp2), CacheDecision::Miss);
        // Re-record with the new content.
        cache.record("A", fp2, "k2".into());
        assert_eq!(
            cache.check("A", fp2),
            CacheDecision::Hit {
                storage_key: "k2".into()
            }
        );
    }

    #[test]
    fn same_content_different_vars_are_independent() {
        let mut cache = UploadCache::new();
        let fp = Fingerprint::of(b"shared bytes");
        cache.record("A", fp, "ka".into());
        assert_eq!(cache.check("B", fp), CacheDecision::Miss);
    }

    #[test]
    fn length_participates_in_the_fingerprint() {
        // Two buffers could collide on CRC; the length guard narrows it.
        let a = Fingerprint { crc: 7, len: 10 };
        let b = Fingerprint { crc: 7, len: 20 };
        assert_ne!(a, b);
    }

    #[test]
    fn clear_empties_everything() {
        let mut cache = UploadCache::new();
        cache.record("A", Fingerprint::of(b"x"), "k".into());
        cache.record("B", Fingerprint::of(b"y"), "k2".into());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }
}
