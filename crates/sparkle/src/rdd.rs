//! Resilient Distributed Datasets.
//!
//! An [`Rdd`] is a partitioned collection described by its *lineage*: a
//! pure function from partition index to partition contents. Source RDDs
//! close over their data; transformations compose new lineage functions
//! on top. Nothing runs until an action ([`Rdd::collect`], [`Rdd::reduce`],
//! [`Rdd::count`]) schedules one task per partition on the executors.
//! Because lineage is pure, a task lost to an executor failure is
//! recomputed from scratch on another executor — Spark's fault-tolerance
//! story, reproduced here literally.

use crate::context::SparkContext;
use crate::{Data, SparkError};
use parking_lot::Mutex;
use std::sync::Arc;

type Compute<T> = Arc<dyn Fn(usize) -> Vec<T> + Send + Sync>;

/// A partitioned, lazily evaluated, immutable dataset.
type PartitionCache<T> = Arc<Mutex<Option<Vec<Arc<Vec<T>>>>>>;

/// A partitioned, lazily evaluated, immutable dataset.
pub struct Rdd<T: Data> {
    ctx: SparkContext,
    compute: Compute<T>,
    partitions: usize,
    cache: PartitionCache<T>,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            ctx: self.ctx.clone(),
            compute: Arc::clone(&self.compute),
            partitions: self.partitions,
            cache: Arc::clone(&self.cache),
        }
    }
}

impl<T: Data> Rdd<T> {
    pub(crate) fn source(ctx: SparkContext, data: Vec<T>, partitions: usize) -> Rdd<T> {
        let partitions = partitions.max(1);
        let mut parts: Vec<Vec<T>> = omp_parfor::split_even(data.len(), partitions)
            .into_iter()
            .map(|r| data[r].to_vec())
            .collect();
        // Pad with empty partitions when there are fewer elements than
        // requested partitions (Spark does the same).
        while parts.len() < partitions {
            parts.push(Vec::new());
        }
        Self::source_with_partitions(ctx, parts)
    }

    /// Source RDD with explicitly provided partitions (custom
    /// partitioners, shuffle outputs).
    pub(crate) fn source_with_partitions(ctx: SparkContext, parts: Vec<Vec<T>>) -> Rdd<T> {
        let parts: Vec<Arc<Vec<T>>> = parts.into_iter().map(Arc::new).collect();
        let partitions = parts.len().max(1);
        let compute: Compute<T> =
            Arc::new(move |p| parts.get(p).map(|v| v.as_ref().clone()).unwrap_or_default());
        Rdd {
            ctx,
            compute,
            partitions,
            cache: Arc::new(Mutex::new(None)),
        }
    }

    /// The driver context this RDD belongs to.
    pub fn context(&self) -> &SparkContext {
        &self.ctx
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions
    }

    /// The lineage function for one partition (used by the scheduler and
    /// by recomputation on failure).
    pub(crate) fn lineage(&self) -> Compute<T> {
        let cache = Arc::clone(&self.cache);
        let compute = Arc::clone(&self.compute);
        Arc::new(move |p| {
            if let Some(parts) = cache.lock().as_ref() {
                return parts[p].as_ref().clone();
            }
            compute(p)
        })
    }

    /// Element-wise transformation.
    pub fn map<U: Data, F>(&self, f: F) -> Rdd<U>
    where
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        let parent = self.lineage();
        let compute: Compute<U> = Arc::new(move |p| parent(p).into_iter().map(&f).collect());
        Rdd {
            ctx: self.ctx.clone(),
            compute,
            partitions: self.partitions,
            cache: Arc::new(Mutex::new(None)),
        }
    }

    /// Keep elements matching the predicate.
    pub fn filter<F>(&self, f: F) -> Rdd<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let parent = self.lineage();
        let compute: Compute<T> =
            Arc::new(move |p| parent(p).into_iter().filter(|x| f(x)).collect());
        Rdd {
            ctx: self.ctx.clone(),
            compute,
            partitions: self.partitions,
            cache: Arc::new(Mutex::new(None)),
        }
    }

    /// Whole-partition transformation with access to the partition index —
    /// the primitive OmpCloud lowers loop tiles onto.
    pub fn map_partitions<U: Data, F>(&self, f: F) -> Rdd<U>
    where
        F: Fn(usize, Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        let parent = self.lineage();
        let compute: Compute<U> = Arc::new(move |p| f(p, parent(p)));
        Rdd {
            ctx: self.ctx.clone(),
            compute,
            partitions: self.partitions,
            cache: Arc::new(Mutex::new(None)),
        }
    }

    /// One-to-many transformation (`flatMap`).
    pub fn flat_map<U: Data, I, F>(&self, f: F) -> Rdd<U>
    where
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Send + Sync + 'static,
    {
        let parent = self.lineage();
        let compute: Compute<U> = Arc::new(move |p| parent(p).into_iter().flat_map(&f).collect());
        Rdd {
            ctx: self.ctx.clone(),
            compute,
            partitions: self.partitions,
            cache: Arc::new(Mutex::new(None)),
        }
    }

    /// Concatenation of two RDDs: the partitions of `self` followed by
    /// the partitions of `other` (`union`).
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        let left = self.lineage();
        let right = other.lineage();
        let split = self.partitions;
        let compute: Compute<T> =
            Arc::new(move |p| if p < split { left(p) } else { right(p - split) });
        Rdd {
            ctx: self.ctx.clone(),
            compute,
            partitions: self.partitions + other.partitions,
            cache: Arc::new(Mutex::new(None)),
        }
    }

    /// Aggregate with a zero value: partitions fold on the executors,
    /// the driver folds the partials (`fold`).
    ///
    /// Like Spark's `fold`, the zero value is applied once per partition
    /// *and* once at the driver, so it must be a true identity for `f`.
    pub fn fold<F>(&self, zero: T, f: F) -> Result<T, SparkError>
    where
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        let lineage = self.lineage();
        let f = Arc::new(f);
        let f2 = Arc::clone(&f);
        let z = zero.clone();
        let partials = self.ctx.run_job(
            Arc::new(move |p| vec![lineage(p).into_iter().fold(z.clone(), |a, b| f2(a, b))]),
            self.partitions,
        )?;
        Ok(partials.into_iter().flatten().fold(zero, |a, b| f(a, b)))
    }

    /// Remove duplicates (`distinct`), preserving first-seen order.
    /// Requires `Eq + Hash`; implemented as a per-partition dedup plus a
    /// driver-side merge (exact, not probabilistic).
    pub fn distinct(&self) -> Result<Vec<T>, SparkError>
    where
        T: Eq + std::hash::Hash,
    {
        let per_partition = self.map_partitions(|_, v| {
            let mut seen = std::collections::HashSet::new();
            v.into_iter()
                .filter(|x| seen.insert(x.clone()))
                .collect::<Vec<_>>()
        });
        let mut seen = std::collections::HashSet::new();
        Ok(per_partition
            .collect()?
            .into_iter()
            .filter(|x| seen.insert(x.clone()))
            .collect())
    }

    /// First `n` elements in partition order (`take`). Computes only as
    /// many partitions as needed, like Spark's incremental take.
    pub fn take(&self, n: usize) -> Result<Vec<T>, SparkError> {
        let mut out = Vec::with_capacity(n);
        if n == 0 {
            return Ok(out);
        }
        let lineage = self.lineage();
        for p in 0..self.partitions {
            let lineage = Arc::clone(&lineage);
            let mut part = self
                .ctx
                .run_job(
                    Arc::new(move |q| if q == 0 { lineage(p) } else { Vec::new() }),
                    1,
                )?
                .pop()
                .unwrap_or_default();
            if out.len() + part.len() >= n {
                part.truncate(n - out.len());
                out.extend(part);
                break;
            }
            out.extend(part);
        }
        Ok(out)
    }

    /// Materialize this RDD on first action and serve later lineage reads
    /// from memory.
    pub fn cache(&self) -> Rdd<T> {
        self.clone()
    }

    /// Run one task per partition and return all partitions, in order.
    pub fn collect_partitions(&self) -> Result<Vec<Vec<T>>, SparkError> {
        let parts = self.ctx.run_job(self.lineage(), self.partitions)?;
        let mut cache = self.cache.lock();
        if cache.is_none() {
            *cache = Some(parts.iter().map(|p| Arc::new(p.clone())).collect());
        }
        Ok(parts)
    }

    /// Run the job and flatten the partitions.
    pub fn collect(&self) -> Result<Vec<T>, SparkError> {
        Ok(self.collect_partitions()?.into_iter().flatten().collect())
    }

    /// Run one task per partition and invoke `f(index, &partition)` on
    /// the driver as each partition *arrives* (arrival order, not
    /// partition order) — while the remaining tasks are still running.
    /// Fills the cache like [`Rdd::collect_partitions`], so later actions
    /// on this RDD reuse the map results.
    pub fn for_each_partition<F>(&self, f: F) -> Result<(), SparkError>
    where
        F: FnMut(usize, &[T]),
    {
        let parts = self
            .ctx
            .run_job_streaming(self.lineage(), self.partitions, f)?;
        let mut cache = self.cache.lock();
        if cache.is_none() {
            *cache = Some(parts.into_iter().map(Arc::new).collect());
        }
        Ok(())
    }

    /// Number of elements (distributed count, partial sums per task).
    pub fn count(&self) -> Result<usize, SparkError> {
        let lineage = self.lineage();
        let counts = self
            .ctx
            .run_job(Arc::new(move |p| vec![lineage(p).len()]), self.partitions)?;
        Ok(counts.into_iter().flatten().sum())
    }

    /// Distributed reduction: partitions are pre-reduced inside their
    /// tasks (on the executors), the driver folds the partial values.
    /// Returns `None` for an empty dataset.
    pub fn reduce<F>(&self, f: F) -> Result<Option<T>, SparkError>
    where
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        let lineage = self.lineage();
        let f = Arc::new(f);
        let f2 = Arc::clone(&f);
        let partials = self.ctx.run_job(
            Arc::new(move |p| {
                let mut it = lineage(p).into_iter();
                match it.next() {
                    Some(first) => vec![it.fold(first, |a, b| f2(a, b))],
                    None => Vec::new(),
                }
            }),
            self.partitions,
        )?;
        Ok(partials.into_iter().flatten().reduce(|a, b| f(a, b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparkConf;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConf::local(4))
    }

    #[test]
    fn parallelize_collect_roundtrip() {
        let sc = ctx();
        let data: Vec<i32> = (0..100).collect();
        let rdd = sc.parallelize(data.clone(), 7);
        assert_eq!(rdd.num_partitions(), 7);
        assert_eq!(rdd.collect().unwrap(), data);
        sc.stop();
    }

    #[test]
    fn more_partitions_than_elements() {
        let sc = ctx();
        let rdd = sc.parallelize(vec![1, 2, 3], 10);
        assert_eq!(rdd.num_partitions(), 10);
        assert_eq!(rdd.collect().unwrap(), vec![1, 2, 3]);
        assert_eq!(rdd.count().unwrap(), 3);
        sc.stop();
    }

    #[test]
    fn map_filter_chain() {
        let sc = ctx();
        let out = sc
            .parallelize((0..50i64).collect::<Vec<_>>(), 5)
            .map(|x| x * x)
            .filter(|x| x % 2 == 0)
            .collect()
            .unwrap();
        let expected: Vec<i64> = (0..50).map(|x| x * x).filter(|x| x % 2 == 0).collect();
        assert_eq!(out, expected);
        sc.stop();
    }

    #[test]
    fn map_partitions_sees_partition_index() {
        let sc = ctx();
        let rdd = sc.parallelize(vec![0u32; 12], 4);
        let tagged = rdd.map_partitions(|p, v| v.into_iter().map(move |_| p).collect::<Vec<_>>());
        let out = tagged.collect_partitions().unwrap();
        for (p, part) in out.iter().enumerate() {
            assert!(part.iter().all(|&x| x == p));
        }
        sc.stop();
    }

    #[test]
    fn reduce_matches_sequential() {
        let sc = ctx();
        let rdd = sc.parallelize((1..=100u64).collect::<Vec<_>>(), 9);
        assert_eq!(rdd.reduce(|a, b| a + b).unwrap(), Some(5050));
        sc.stop();
    }

    #[test]
    fn reduce_empty_is_none() {
        let sc = ctx();
        let rdd = sc.parallelize(Vec::<u64>::new(), 4);
        assert_eq!(rdd.reduce(|a, b| a + b).unwrap(), None);
        sc.stop();
    }

    #[test]
    fn reduce_with_some_empty_partitions() {
        let sc = ctx();
        let rdd = sc.parallelize(vec![5u64], 8); // 7 empty partitions
        assert_eq!(rdd.reduce(|a, b| a + b).unwrap(), Some(5));
        sc.stop();
    }

    #[test]
    fn count_large() {
        let sc = ctx();
        let rdd = sc.parallelize(vec![0u8; 12345], 16);
        assert_eq!(rdd.count().unwrap(), 12345);
        sc.stop();
    }

    #[test]
    fn lineage_recomputes_deterministically() {
        let sc = ctx();
        let rdd = sc
            .parallelize((0..32i32).collect::<Vec<_>>(), 4)
            .map(|x| x + 1);
        let a = rdd.collect().unwrap();
        let b = rdd.collect().unwrap();
        assert_eq!(a, b);
        sc.stop();
    }

    #[test]
    fn flat_map_expands_elements() {
        let sc = ctx();
        let out = sc
            .parallelize(vec![1u32, 2, 3], 2)
            .flat_map(|x| (0..x).collect::<Vec<_>>())
            .collect()
            .unwrap();
        assert_eq!(out, vec![0, 0, 1, 0, 1, 2]);
        sc.stop();
    }

    #[test]
    fn union_concatenates_in_partition_order() {
        let sc = ctx();
        let a = sc.parallelize(vec![1, 2, 3], 2);
        let b = sc.parallelize(vec![10, 20], 3);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 5);
        assert_eq!(u.collect().unwrap(), vec![1, 2, 3, 10, 20]);
        assert_eq!(u.count().unwrap(), 5);
        sc.stop();
    }

    #[test]
    fn fold_with_zero() {
        let sc = ctx();
        let got = sc
            .parallelize((1..=10i64).collect::<Vec<_>>(), 4)
            .fold(0, |a, b| a + b)
            .unwrap();
        assert_eq!(got, 55);
        // Spark quirk reproduced: the zero is applied once per partition
        // plus once at the driver, so a non-identity zero accumulates.
        assert_eq!(
            sc.parallelize(Vec::<i64>::new(), 4)
                .fold(7, |a, b| a + b)
                .unwrap(),
            7 * 5
        );
        // A true identity zero is safe.
        assert_eq!(
            sc.parallelize(Vec::<i64>::new(), 4)
                .fold(0, |a, b| a + b)
                .unwrap(),
            0
        );
        sc.stop();
    }

    #[test]
    fn distinct_dedups_across_partitions() {
        let sc = ctx();
        let data = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let out = sc.parallelize(data, 4).distinct().unwrap();
        assert_eq!(out.len(), 7);
        let set: std::collections::HashSet<i32> = out.iter().copied().collect();
        assert_eq!(set, [3, 1, 4, 5, 9, 2, 6].into_iter().collect());
        sc.stop();
    }

    #[test]
    fn take_stops_early() {
        let sc = ctx();
        let rdd = sc.parallelize((0..100i32).collect::<Vec<_>>(), 10);
        assert_eq!(rdd.take(5).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(rdd.take(0).unwrap(), Vec::<i32>::new());
        assert_eq!(rdd.take(1000).unwrap().len(), 100);
        sc.stop();
    }

    #[test]
    fn cache_serves_after_first_action() {
        let sc = ctx();
        let rdd = sc
            .parallelize((0..16i32).collect::<Vec<_>>(), 4)
            .map(|x| x * 3)
            .cache();
        let first = rdd.collect().unwrap();
        // Second action reads through the cache (same results).
        let second = rdd.collect().unwrap();
        assert_eq!(first, second);
        sc.stop();
    }
}
