//! Keyed operations on pair RDDs: the shuffle surface of the engine.
//!
//! OmpCloud's generated jobs are shuffle-free (map + collect/reduce),
//! but a Spark substrate without `reduceByKey` would not carry the more
//! general map-reduce programs §II positions the system against. The
//! shuffle here is driver-coordinated: map-side combining runs on the
//! executors (one task per input partition), the driver re-buckets the
//! combined pairs by key hash, and the reduce side runs as a second job
//! over the buckets — Spark's two-stage shape with the exchange routed
//! through the driver instead of executor-to-executor block transfers.

use crate::rdd::Rdd;
use crate::{Data, SparkError};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};

/// Deterministic hash-partitioner (fixed-seed SipHash).
fn bucket_of<K: Hash>(key: &K, buckets: usize) -> usize {
    let hasher = BuildHasherDefault::<DefaultHasher>::default();
    (hasher.hash_one(key) % buckets as u64) as usize
}

impl<K, V> Rdd<(K, V)>
where
    K: Data + Eq + Hash,
    V: Data,
{
    /// Combine values sharing a key with `f` (`reduceByKey`): map-side
    /// combining on the executors, hash exchange, reduce-side combining.
    /// The result has `num_partitions` hash partitions.
    pub fn reduce_by_key<F>(&self, num_partitions: usize, f: F) -> Result<Rdd<(K, V)>, SparkError>
    where
        F: Fn(V, V) -> V + Send + Sync + 'static,
    {
        let num_partitions = num_partitions.max(1);
        let f = std::sync::Arc::new(f);

        // Stage 1 (executors): per-partition map-side combine.
        let f1 = std::sync::Arc::clone(&f);
        let combined = self.map_partitions(move |_, pairs| {
            let mut acc: HashMap<K, V> = HashMap::new();
            for (k, v) in pairs {
                match acc.remove(&k) {
                    Some(prev) => {
                        let merged = f1(prev, v);
                        acc.insert(k, merged);
                    }
                    None => {
                        acc.insert(k, v);
                    }
                }
            }
            acc.into_iter().collect::<Vec<_>>()
        });
        let partials = combined.collect_partitions()?;

        // Exchange (driver): bucket combined pairs by key hash.
        let mut buckets: Vec<Vec<(K, V)>> = (0..num_partitions).map(|_| Vec::new()).collect();
        for (k, v) in partials.into_iter().flatten() {
            let b = bucket_of(&k, num_partitions);
            buckets[b].push((k, v));
        }

        // Stage 2 (executors): reduce-side combine per bucket.
        let flat: Vec<(K, V)> = buckets.into_iter().flatten().collect();
        let bucketed = self
            .context()
            .parallelize_by(flat, num_partitions, move |(k, _)| {
                bucket_of(k, num_partitions)
            });
        let f2 = std::sync::Arc::clone(&f);
        let reduced = bucketed.map_partitions(move |_, pairs| {
            let mut acc: HashMap<K, V> = HashMap::new();
            for (k, v) in pairs {
                match acc.remove(&k) {
                    Some(prev) => {
                        let merged = f2(prev, v);
                        acc.insert(k, merged);
                    }
                    None => {
                        acc.insert(k, v);
                    }
                }
            }
            let mut out: Vec<(K, V)> = acc.into_iter().collect();
            // Deterministic output order within a partition.
            out.sort_by(|a, b| {
                let hasher = BuildHasherDefault::<DefaultHasher>::default();
                hasher.hash_one(&a.0).cmp(&hasher.hash_one(&b.0))
            });
            out
        });
        // Materialize so later actions don't redo the shuffle.
        reduced.collect_partitions()?;
        Ok(reduced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SparkConf, SparkContext};

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConf::cluster(2, 4))
    }

    fn word_pairs() -> Vec<(String, u64)> {
        "the cloud as an openmp offloading device the cloud the openmp"
            .split_whitespace()
            .map(|w| (w.to_string(), 1u64))
            .collect()
    }

    #[test]
    fn reduce_by_key_word_count() {
        let sc = ctx();
        let counts: HashMap<String, u64> = sc
            .parallelize(word_pairs(), 4)
            .reduce_by_key(3, |a, b| a + b)
            .unwrap()
            .collect()
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(counts["the"], 3);
        assert_eq!(counts["cloud"], 2);
        assert_eq!(counts["openmp"], 2);
        assert_eq!(counts["device"], 1);
        assert_eq!(counts.len(), 7);
        sc.stop();
    }

    #[test]
    fn all_values_of_a_key_land_in_one_partition() {
        let sc = ctx();
        let reduced = sc
            .parallelize(word_pairs(), 5)
            .reduce_by_key(4, |a, b| a + b)
            .unwrap();
        let parts = reduced.collect_partitions().unwrap();
        assert_eq!(parts.len(), 4);
        let mut seen: HashMap<String, usize> = HashMap::new();
        for (p, part) in parts.iter().enumerate() {
            for (k, _) in part {
                assert!(
                    seen.insert(k.clone(), p).is_none(),
                    "key {k} appears in two partitions"
                );
            }
        }
        sc.stop();
    }

    #[test]
    fn shuffle_is_deterministic() {
        let sc = ctx();
        let rdd = sc.parallelize(word_pairs(), 4);
        let a = rdd
            .reduce_by_key(3, |a, b| a + b)
            .unwrap()
            .collect()
            .unwrap();
        let b = rdd
            .reduce_by_key(3, |a, b| a + b)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(a, b);
        sc.stop();
    }

    #[test]
    fn empty_rdd_shuffles_to_empty() {
        let sc = ctx();
        let out = sc
            .parallelize(Vec::<(u8, u8)>::new(), 4)
            .reduce_by_key(2, |a, _| a)
            .unwrap()
            .collect()
            .unwrap();
        assert!(out.is_empty());
        sc.stop();
    }
}
