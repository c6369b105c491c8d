//! An Azure-Blob-like store: one container of block blobs in a storage
//! account. The paper's plug-in "also support[s] data offloading to
//! … Microsoft Azure Storage"; this backend gives the configuration
//! layer a third scheme to dispatch on, with the one Azure-specific
//! notion the offload path can observe — an ETag that changes on every
//! write, identical content included.

use crate::{ObjectStore, StorageError};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Blob {
    data: Arc<Vec<u8>>,
    etag: u64,
}

#[derive(Default)]
struct Container {
    blobs: BTreeMap<String, Blob>,
    /// ETag of the last write.
    last_etag: u64,
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

    /// ETag of a blob (changes on every write).
    pub fn etag(&self, key: &str) -> Option<u64> {
        self.state.read().blobs.get(key).map(|b| b.etag)
    }
}

impl ObjectStore for AzureBlobStore {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        let mut state = self.state.write();
        state.last_etag += 1;
        let (data, etag) = (Arc::new(data), state.last_etag);
        state.blobs.insert(key.to_string(), Blob { data, etag });
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let state = self.state.read();
        let blob = state.blobs.get(key);
        blob.map(|b| b.data.as_ref().clone())
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
        self.state
            .read()
            .blobs
            .get(key)
            .map(|b| b.data.len() as u64)
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

    #[test]
    fn etags_change_on_every_write() {
        let store = AzureBlobStore::standalone("a", "c");
        store.put("k", vec![1]).unwrap();
        let e1 = store.etag("k").unwrap();
        store.put("k", vec![1]).unwrap();
        let e2 = store.etag("k").unwrap();
        assert_ne!(e1, e2, "Azure bumps the ETag even for identical content");
    }
}
