//! Resilient Distributed Datasets — the one shape an offload runs.
//!
//! An [`Rdd`] is a partitioned collection described by its *lineage*: a
//! pure function from partition index to partition contents. A source
//! RDD closes over its data and a [`Rdd::map`] composes on top of it.
//! Nothing runs until an action ([`Rdd::collect`],
//! [`Rdd::for_each_partition`]) schedules one task per partition on the
//! executors. Because lineage is pure, a task lost to an executor failure
//! is recomputed from scratch on another executor — Spark's
//! fault-tolerance story, reproduced here literally.

use crate::context::SparkContext;
use crate::{Data, SparkError};
use std::sync::Arc;

type Compute<T> = Arc<dyn Fn(usize) -> Vec<T> + Send + Sync>;

/// A partitioned, lazily evaluated, immutable dataset.
pub struct Rdd<T: Data> {
    ctx: SparkContext,
    compute: Compute<T>,
    partitions: usize,
}

impl<T: Data> Rdd<T> {
    pub(crate) fn source(ctx: SparkContext, data: Vec<T>, partitions: usize) -> Rdd<T> {
        let partitions = partitions.max(1);
        let ranges = omp_parfor::split_even(data.len(), partitions);
        let mut data = data.into_iter();
        // Partitions past the data stay empty (Spark does the same).
        let parts: Arc<Vec<Vec<T>>> = Arc::new(
            (0..partitions)
                .map(|p| match ranges.get(p) {
                    Some(r) => data.by_ref().take(r.len()).collect(),
                    None => Vec::new(),
                })
                .collect(),
        );
        Rdd {
            ctx,
            compute: Arc::new(move |p| parts[p].clone()),
            partitions,
        }
    }

    /// Element-wise transformation.
    pub fn map<U: Data, F>(&self, f: F) -> Rdd<U>
    where
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        let parent = Arc::clone(&self.compute);
        Rdd {
            ctx: self.ctx.clone(),
            compute: Arc::new(move |p| parent(p).into_iter().map(&f).collect()),
            partitions: self.partitions,
        }
    }

    /// Run the job and return every element, in partition order.
    pub fn collect(&self) -> Result<Vec<T>, SparkError> {
        let mut parts: Vec<Vec<T>> = (0..self.partitions).map(|_| Vec::new()).collect();
        self.for_each_partition(|p, part| parts[p] = part)?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Run one task per partition and hand each partition to
    /// `f(index, partition)` on the driver as it *arrives* (arrival
    /// order, not partition order), while the remaining tasks are still
    /// running. Nothing is kept: a partition is gone once `f` returns.
    pub fn for_each_partition<F>(&self, f: F) -> Result<(), SparkError>
    where
        F: FnMut(usize, Vec<T>),
    {
        self.ctx
            .run_job(Arc::clone(&self.compute), self.partitions, f)
    }
}

#[cfg(test)]
mod tests {
    use crate::{SparkConf, SparkContext};

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConf::local(4))
    }

    #[test]
    fn parallelize_collect_roundtrip() {
        let sc = ctx();
        let data: Vec<i32> = (0..100).collect();
        let rdd = sc.parallelize(data.clone(), 7);
        assert_eq!(rdd.collect().unwrap(), data);
        assert_eq!(sc.last_job_metrics().unwrap().task_count(), 7);
        sc.stop();
    }

    #[test]
    fn more_partitions_than_elements() {
        let sc = ctx();
        let rdd = sc.parallelize(vec![1, 2, 3], 10);
        assert_eq!(rdd.collect().unwrap(), vec![1, 2, 3]);
        assert_eq!(sc.last_job_metrics().unwrap().task_count(), 10);
        sc.stop();
    }

    #[test]
    fn map_chain() {
        let sc = ctx();
        let out = sc
            .parallelize((0..50i64).collect::<Vec<_>>(), 5)
            .map(|x| x * x)
            .map(|x| x + 1)
            .collect()
            .unwrap();
        let expected: Vec<i64> = (0..50).map(|x| x * x + 1).collect();
        assert_eq!(out, expected);
        sc.stop();
    }

    #[test]
    fn for_each_partition_hands_over_every_partition_once() {
        let sc = ctx();
        let rdd = sc.parallelize((0..12u32).collect::<Vec<_>>(), 4);
        let mut seen: [Option<Vec<u32>>; 4] = Default::default();
        rdd.for_each_partition(|p, part| {
            assert!(seen[p].replace(part).is_none(), "partition {p} twice");
        })
        .unwrap();
        let seen: Vec<Vec<u32>> = seen.into_iter().map(Option::unwrap).collect();
        assert_eq!(seen, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]);
        sc.stop();
    }

    #[test]
    fn sum_on_the_driver_matches_sequential() {
        let sc = ctx();
        let rdd = sc.parallelize((1..=100u64).collect::<Vec<_>>(), 9);
        assert_eq!(rdd.collect().unwrap().iter().sum::<u64>(), 5050);
        // Seven of the eight partitions are empty.
        let one = sc.parallelize(vec![5u64], 8).collect().unwrap();
        assert_eq!(one.iter().sum::<u64>(), 5);
        assert!(sc
            .parallelize(Vec::<u64>::new(), 4)
            .collect()
            .unwrap()
            .is_empty());
        sc.stop();
    }

    #[test]
    fn count_large() {
        let sc = ctx();
        let rdd = sc.parallelize(vec![0u8; 12345], 16);
        assert_eq!(rdd.collect().unwrap().len(), 12345);
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
}
