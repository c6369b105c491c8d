//! An Azure-Blob-like store: one container of block blobs in a storage
//! account. The paper's plug-in "also support[s] data offloading to
//! … Microsoft Azure Storage"; this backend gives the configuration
//! layer a third scheme to dispatch on. It keeps no content hash
//! (`ObjectStore::checksum` is the `None` default), so a download is
//! checked against the transfer layer's upload-time crc ledger only.

use crate::{ObjectStore, StorageError};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Default)]
struct Container {
    blobs: BTreeMap<String, Arc<Vec<u8>>>,
}

/// Handle to one container, implementing [`ObjectStore`]. Clones share
/// the container.
#[derive(Clone)]
pub struct AzureBlobStore {
    account: String,
    container: String,
    state: Arc<RwLock<Container>>,
}

impl std::fmt::Debug for AzureBlobStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AzureBlobStore")
            .field("account", &self.account)
            .field("container", &self.container)
            .finish()
    }
}

impl AzureBlobStore {
    /// A fresh, empty container in an account of its own.
    pub fn standalone(account: &str, container: &str) -> AzureBlobStore {
        AzureBlobStore {
            account: account.to_string(),
            container: container.to_string(),
            state: Arc::default(),
        }
    }
}

impl ObjectStore for AzureBlobStore {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        let mut state = self.state.write();
        state.blobs.insert(key.to_string(), Arc::new(data));
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let state = self.state.read();
        let blob = state.blobs.get(key);
        blob.map(|b| b.as_ref().clone())
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.state.write().blobs.remove(key);
        Ok(())
    }

    fn exists(&self, key: &str) -> bool {
        self.state.read().blobs.contains_key(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let state = self.state.read();
        let under = state.blobs.keys().filter(|k| k.starts_with(prefix));
        under.cloned().collect()
    }

    fn size(&self, key: &str) -> Option<u64> {
        self.state.read().blobs.get(key).map(|b| b.len() as u64)
    }

    fn kind(&self) -> &'static str {
        "azure"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::exercise_contract;

    #[test]
    fn satisfies_object_store_contract() {
        exercise_contract(&AzureBlobStore::standalone("acct", "jobs"));
    }

    #[test]
    fn clones_share_the_container_and_containers_are_isolated() {
        let a = AzureBlobStore::standalone("acct", "a");
        let b = AzureBlobStore::standalone("acct", "b");
        a.clone().put("k", vec![1]).unwrap();
        assert!(a.exists("k"));
        assert!(!b.exists("k"));
    }
}
