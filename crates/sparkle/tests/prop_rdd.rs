//! Property tests: `map` + `collect` must agree with their `Vec`
//! equivalents for arbitrary data and partition counts, and lineage
//! recomputation must be deterministic under injected failures.

use proptest::prelude::*;
use sparkle::{SparkConf, SparkContext};
use std::sync::OnceLock;

fn ctx() -> &'static SparkContext {
    static SC: OnceLock<SparkContext> = OnceLock::new();
    SC.get_or_init(|| SparkContext::new(SparkConf::cluster(2, 4)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn collect_is_identity(data in proptest::collection::vec(any::<i32>(), 0..200), parts in 1usize..12) {
        let rdd = ctx().parallelize(data.clone(), parts);
        prop_assert_eq!(rdd.collect().unwrap(), data);
    }

    #[test]
    fn map_matches_vec_map(data in proptest::collection::vec(any::<i32>(), 0..200), parts in 1usize..8) {
        let rdd = ctx().parallelize(data.clone(), parts).map(|x| x.wrapping_mul(3).wrapping_sub(1));
        let expected: Vec<i32> = data.iter().map(|x| x.wrapping_mul(3).wrapping_sub(1)).collect();
        prop_assert_eq!(rdd.collect().unwrap(), expected);
    }

    #[test]
    fn count_matches_len(data in proptest::collection::vec(any::<u8>(), 0..300), parts in 1usize..16) {
        prop_assert_eq!(ctx().parallelize(data.clone(), parts).collect().unwrap().len(), data.len());
    }

    #[test]
    fn sum_on_the_driver_matches(data in proptest::collection::vec(-1000i64..1000, 0..200), parts in 1usize..8) {
        let got: i64 = ctx().parallelize(data.clone(), parts).collect().unwrap().iter().sum();
        prop_assert_eq!(got, data.iter().sum::<i64>());
    }

    #[test]
    fn results_stable_under_injected_failures(
        data in proptest::collection::vec(any::<i32>(), 1..100),
        parts in 1usize..6,
        failures in 0usize..3,
    ) {
        let clean = ctx().parallelize(data.clone(), parts).map(|x| x ^ 0x55).collect().unwrap();
        ctx().fail_next_tasks(failures);
        let faulty = ctx().parallelize(data, parts).map(|x| x ^ 0x55).collect().unwrap();
        prop_assert_eq!(clean, faulty);
    }
}
