//! An S3-like object service: named buckets of immutable objects with
//! ETags, and injectable transient faults for resilience testing.

use crate::{ObjectStore, StorageError};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Object {
    data: Arc<Vec<u8>>,
    etag: u32,
}

#[derive(Default)]
struct ServiceState {
    buckets: BTreeMap<String, BTreeMap<String, Object>>,
}

/// The whole S3-like service: a set of buckets shared by all handles.
pub struct S3Service {
    state: RwLock<ServiceState>,
    /// Remaining operations that should fail transiently (fault injection).
    faults_remaining: AtomicUsize,
}

impl S3Service {
    /// Empty service.
    pub fn new() -> Arc<Self> {
        Arc::new(S3Service {
            state: RwLock::new(ServiceState::default()),
            faults_remaining: AtomicUsize::new(0),
        })
    }

    /// Create a bucket.
    pub fn create_bucket(self: &Arc<Self>, name: &str) -> Result<S3Store, StorageError> {
        let mut st = self.state.write();
        if st.buckets.contains_key(name) {
            return Err(StorageError::BucketExists(name.to_string()));
        }
        st.buckets.insert(name.to_string(), BTreeMap::new());
        Ok(S3Store {
            service: Arc::clone(self),
            bucket: name.to_string(),
        })
    }

    /// Make the next `n` operations fail with a transient error — the
    /// retry path of the transfer manager is tested against this.
    pub fn inject_transient_faults(&self, n: usize) {
        self.faults_remaining.store(n, Ordering::SeqCst);
    }

    fn maybe_fault(&self) -> Result<(), StorageError> {
        let mut cur = self.faults_remaining.load(Ordering::SeqCst);
        while cur > 0 {
            match self.faults_remaining.compare_exchange(
                cur,
                cur - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Err(StorageError::Transient("injected fault".into())),
                Err(now) => cur = now,
            }
        }
        Ok(())
    }
}

/// Handle to one bucket, implementing [`ObjectStore`].
#[derive(Clone)]
pub struct S3Store {
    service: Arc<S3Service>,
    bucket: String,
}

impl std::fmt::Debug for S3Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("S3Store")
            .field("bucket", &self.bucket)
            .finish_non_exhaustive()
    }
}

impl S3Store {
    /// Create a fresh service with a single bucket in one call — the
    /// common test/example setup.
    pub fn standalone(bucket: &str) -> S3Store {
        S3Service::new()
            .create_bucket(bucket)
            .expect("fresh service")
    }

    /// The service this bucket belongs to.
    pub fn service(&self) -> &Arc<S3Service> {
        &self.service
    }

    /// ETag (content checksum) of an object.
    pub fn etag(&self, key: &str) -> Option<u32> {
        let st = self.service.state.read();
        st.buckets.get(&self.bucket)?.get(key).map(|o| o.etag)
    }

    fn with_bucket_mut<R>(
        &self,
        f: impl FnOnce(&mut BTreeMap<String, Object>) -> R,
    ) -> Result<R, StorageError> {
        let mut st = self.service.state.write();
        let bucket = st
            .buckets
            .get_mut(&self.bucket)
            .ok_or_else(|| StorageError::NoSuchBucket(self.bucket.clone()))?;
        Ok(f(bucket))
    }
}

impl ObjectStore for S3Store {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        self.service.maybe_fault()?;
        let etag = gzlite::crc32(&data);
        let data = Arc::new(data);
        self.with_bucket_mut(|b| {
            b.insert(key.to_string(), Object { data, etag });
        })
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.service.maybe_fault()?;
        let st = self.service.state.read();
        let bucket = st
            .buckets
            .get(&self.bucket)
            .ok_or_else(|| StorageError::NoSuchBucket(self.bucket.clone()))?;
        bucket
            .get(key)
            .map(|o| o.data.as_ref().clone())
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.service.maybe_fault()?;
        self.with_bucket_mut(|b| {
            b.remove(key);
        })
    }

    fn exists(&self, key: &str) -> bool {
        let st = self.service.state.read();
        st.buckets
            .get(&self.bucket)
            .map(|b| b.contains_key(key))
            .unwrap_or(false)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let st = self.service.state.read();
        match st.buckets.get(&self.bucket) {
            Some(b) => b
                .keys()
                .filter(|k| k.starts_with(prefix))
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    fn size(&self, key: &str) -> Option<u64> {
        let st = self.service.state.read();
        st.buckets
            .get(&self.bucket)?
            .get(key)
            .map(|o| o.data.len() as u64)
    }

    fn checksum(&self, key: &str) -> Option<u32> {
        // The ETag of this service is a crc32 of the object's content.
        self.etag(key)
    }

    fn kind(&self) -> &'static str {
        "s3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::exercise_contract;

    #[test]
    fn satisfies_object_store_contract() {
        exercise_contract(&S3Store::standalone("test"));
    }

    #[test]
    fn buckets_are_isolated() {
        let svc = S3Service::new();
        let a = svc.create_bucket("a").unwrap();
        let b = svc.create_bucket("b").unwrap();
        a.put("k", vec![1]).unwrap();
        assert!(!b.exists("k"));
    }

    #[test]
    fn duplicate_bucket_rejected() {
        let svc = S3Service::new();
        svc.create_bucket("x").unwrap();
        assert_eq!(
            svc.create_bucket("x").unwrap_err(),
            StorageError::BucketExists("x".into())
        );
    }

    #[test]
    fn etag_tracks_content() {
        let s = S3Store::standalone("b");
        s.put("k", vec![1, 2, 3]).unwrap();
        let e1 = s.etag("k").unwrap();
        s.put("k", vec![1, 2, 3]).unwrap();
        assert_eq!(s.etag("k").unwrap(), e1, "same content, same etag");
        s.put("k", vec![4]).unwrap();
        assert_ne!(s.etag("k").unwrap(), e1);
    }

    #[test]
    fn injected_faults_surface_and_clear() {
        let s = S3Store::standalone("b");
        s.service().inject_transient_faults(2);
        assert!(s.put("k", vec![1]).unwrap_err().is_transient());
        assert!(s.get("k").unwrap_err().is_transient());
        // Third op succeeds.
        s.put("k", vec![1]).unwrap();
        assert_eq!(s.get("k").unwrap(), vec![1]);
    }

    #[test]
    fn concurrent_puts_from_many_threads() {
        let s = S3Store::standalone("b");
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        s.put(&format!("t{t}/k{i}"), vec![t as u8; 16]).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.list("").len(), 400);
        assert_eq!(s.list("t3/").len(), 50);
    }
}
