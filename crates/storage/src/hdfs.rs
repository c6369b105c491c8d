//! An HDFS-like block store: a namenode mapping file paths to block
//! lists, datanodes holding replicated blocks, and reads that survive
//! datanode loss as long as one replica of every block is alive.

use crate::{ObjectStore, StorageError};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default HDFS block size (128 MiB), overridable for tests.
pub const DEFAULT_BLOCK_SIZE: usize = 128 * 1024 * 1024;

type BlockId = u64;

#[derive(Debug, Clone)]
struct FileMeta {
    blocks: Vec<BlockId>,
    len: u64,
    /// Namenode-recorded content checksum, like HDFS file checksums.
    crc: u32,
}

struct DataNode {
    alive: AtomicBool,
    blocks: RwLock<BTreeMap<BlockId, Arc<Vec<u8>>>>,
}

/// The HDFS-like cluster: one namenode plus `n` datanodes.
pub struct HdfsStore {
    block_size: usize,
    replication: usize,
    files: RwLock<BTreeMap<String, FileMeta>>,
    datanodes: Vec<DataNode>,
    next_block: AtomicU64,
    next_placement: AtomicU64,
}

impl HdfsStore {
    /// Cluster with `datanodes` nodes, `replication` replicas per block
    /// and the given block size.
    pub fn new(datanodes: usize, replication: usize, block_size: usize) -> Arc<Self> {
        let datanodes = datanodes.max(1);
        Arc::new(HdfsStore {
            block_size: block_size.max(1),
            replication: replication.clamp(1, datanodes),
            files: RwLock::new(BTreeMap::new()),
            datanodes: (0..datanodes)
                .map(|_| DataNode {
                    alive: AtomicBool::new(true),
                    blocks: RwLock::new(BTreeMap::new()),
                })
                .collect(),
            next_block: AtomicU64::new(0),
            next_placement: AtomicU64::new(0),
        })
    }

    /// Defaults mirroring a small production cluster: 3-way replication,
    /// 128 MiB blocks.
    pub fn with_defaults(datanodes: usize) -> Arc<Self> {
        Self::new(datanodes, 3, DEFAULT_BLOCK_SIZE)
    }

    /// Simulate a datanode crash. Its replicas become unreadable.
    pub fn kill_datanode(&self, idx: usize) {
        self.datanodes[idx].alive.store(false, Ordering::SeqCst);
    }

    /// Total blocks stored across all datanodes (including replicas).
    pub fn total_block_replicas(&self) -> usize {
        self.datanodes.iter().map(|d| d.blocks.read().len()).sum()
    }

    fn place_block(&self, id: BlockId, data: Arc<Vec<u8>>) -> Result<(), StorageError> {
        // Round-robin placement over alive datanodes, `replication` copies
        // on distinct nodes.
        let alive: Vec<usize> = self
            .datanodes
            .iter()
            .enumerate()
            .filter(|(_, d)| d.alive.load(Ordering::SeqCst))
            .map(|(i, _)| i)
            .collect();
        if alive.is_empty() {
            return Err(StorageError::Unavailable("no alive datanodes".into()));
        }
        let start = self.next_placement.fetch_add(1, Ordering::Relaxed) as usize;
        let copies = self.replication.min(alive.len());
        for r in 0..copies {
            let node = alive[(start + r) % alive.len()];
            self.datanodes[node]
                .blocks
                .write()
                .insert(id, Arc::clone(&data));
        }
        Ok(())
    }

    fn read_block(&self, id: BlockId) -> Result<Arc<Vec<u8>>, StorageError> {
        for d in &self.datanodes {
            if !d.alive.load(Ordering::SeqCst) {
                continue;
            }
            if let Some(b) = d.blocks.read().get(&id) {
                return Ok(Arc::clone(b));
            }
        }
        Err(StorageError::Unavailable(format!(
            "all replicas of block {id} are offline"
        )))
    }

    fn drop_blocks(&self, ids: &[BlockId]) {
        for d in &self.datanodes {
            let mut blocks = d.blocks.write();
            for id in ids {
                blocks.remove(id);
            }
        }
    }
}

impl ObjectStore for HdfsStore {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        let len = data.len() as u64;
        let crc = gzlite::crc32(&data);
        let mut block_ids = Vec::new();
        if data.is_empty() {
            // Zero-length files still get a metadata entry, no blocks.
        } else {
            for chunk in data.chunks(self.block_size) {
                let id = self.next_block.fetch_add(1, Ordering::Relaxed);
                self.place_block(id, Arc::new(chunk.to_vec()))?;
                block_ids.push(id);
            }
        }
        let mut files = self.files.write();
        if let Some(old) = files.insert(
            key.to_string(),
            FileMeta {
                blocks: block_ids,
                len,
                crc,
            },
        ) {
            drop(files);
            self.drop_blocks(&old.blocks);
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let meta = self
            .files
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(key.to_string()))?;
        let mut out = Vec::with_capacity(meta.len as usize);
        for id in &meta.blocks {
            out.extend_from_slice(&self.read_block(*id)?);
        }
        if out.len() as u64 != meta.len {
            return Err(StorageError::Corrupted(format!(
                "file {key}: expected {} bytes, reassembled {}",
                meta.len,
                out.len()
            )));
        }
        Ok(out)
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        let meta = self.files.write().remove(key);
        if let Some(meta) = meta {
            self.drop_blocks(&meta.blocks);
        }
        Ok(())
    }

    fn exists(&self, key: &str) -> bool {
        self.files.read().contains_key(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    fn size(&self, key: &str) -> Option<u64> {
        self.files.read().get(key).map(|m| m.len)
    }

    fn checksum(&self, key: &str) -> Option<u32> {
        self.files.read().get(key).map(|m| m.crc)
    }

    fn kind(&self) -> &'static str {
        "hdfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::exercise_contract;

    #[test]
    fn satisfies_object_store_contract() {
        let store = HdfsStore::new(4, 2, 8);
        exercise_contract(store.as_ref());
    }

    #[test]
    fn files_split_into_blocks() {
        let store = HdfsStore::new(3, 1, 10);
        store.put("f", (0..35u8).collect()).unwrap();
        // 35 bytes / 10-byte blocks = 4 blocks, replication 1.
        assert_eq!(store.total_block_replicas(), 4);
        assert_eq!(store.get("f").unwrap(), (0..35u8).collect::<Vec<_>>());
    }

    #[test]
    fn replication_multiplies_block_copies() {
        let store = HdfsStore::new(4, 3, 10);
        store.put("f", vec![1u8; 25]).unwrap(); // 3 blocks x 3 replicas
        assert_eq!(store.total_block_replicas(), 9);
    }

    #[test]
    fn read_survives_datanode_loss_with_replication() {
        let store = HdfsStore::new(3, 2, 4);
        let data: Vec<u8> = (0..64u8).collect();
        store.put("f", data.clone()).unwrap();
        store.kill_datanode(0);
        assert_eq!(store.get("f").unwrap(), data);
    }

    #[test]
    fn read_fails_when_all_replicas_lost() {
        let store = HdfsStore::new(2, 1, 4);
        store.put("f", vec![7u8; 16]).unwrap();
        store.kill_datanode(0);
        store.kill_datanode(1);
        assert!(matches!(store.get("f"), Err(StorageError::Unavailable(_))));
    }

    #[test]
    fn overwrite_releases_old_blocks() {
        let store = HdfsStore::new(2, 1, 4);
        store.put("f", vec![1u8; 16]).unwrap(); // 4 blocks
        assert_eq!(store.total_block_replicas(), 4);
        store.put("f", vec![2u8; 4]).unwrap(); // 1 block
        assert_eq!(store.total_block_replicas(), 1);
        store.delete("f").unwrap();
        assert_eq!(store.total_block_replicas(), 0);
    }

    #[test]
    fn put_with_no_alive_nodes_fails() {
        let store = HdfsStore::new(1, 1, 4);
        store.kill_datanode(0);
        assert!(matches!(
            store.put("f", vec![1]),
            Err(StorageError::Unavailable(_))
        ));
    }

    #[test]
    fn empty_file_roundtrips_without_blocks() {
        let store = HdfsStore::new(2, 2, 4);
        store.put("empty", vec![]).unwrap();
        assert_eq!(store.total_block_replicas(), 0);
        assert_eq!(store.get("empty").unwrap(), Vec::<u8>::new());
        assert_eq!(store.size("empty"), Some(0));
    }
}
