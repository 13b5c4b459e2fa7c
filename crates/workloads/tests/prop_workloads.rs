//! Property-based tests for the workload generators.

use agentsim_workloads::{Benchmark, ShareGptGenerator, TaskGenerator};
use proptest::prelude::*;

fn benchmark_strategy() -> impl Strategy<Value = Benchmark> {
    prop::sample::select(Benchmark::AGENTIC.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tasks_are_pure_and_well_formed(
        benchmark in benchmark_strategy(),
        seed in 0u64..1_000,
        index in 0u64..10_000,
    ) {
        let g = TaskGenerator::new(benchmark, seed);
        let a = g.task(index);
        let b = g.task(index);
        prop_assert_eq!(&a, &b, "pure function of (benchmark, seed, index)");
        prop_assert!((0.0..=1.0).contains(&a.difficulty));
        prop_assert!(a.hops >= 1);
        prop_assert!(a.user_tokens >= 4);
        prop_assert_eq!(a.user_segment().len(), a.user_tokens as usize);
    }

    #[test]
    fn distinct_indices_give_distinct_queries(
        benchmark in benchmark_strategy(),
        seed in 0u64..100,
        i in 0u64..1_000,
        j in 0u64..1_000,
    ) {
        prop_assume!(i != j);
        let g = TaskGenerator::new(benchmark, seed);
        prop_assert_ne!(g.task(i).user_seed, g.task(j).user_seed);
    }

    #[test]
    fn sharegpt_queries_fit_the_context_budget(
        seed in 0u64..100,
        index in 0u64..2_000,
    ) {
        let q = ShareGptGenerator::new(seed).query(index);
        prop_assert!(q.prompt.len() >= 30, "system prompt + user turn");
        prop_assert!(q.prompt.len() <= 3_000, "inputs bounded");
        prop_assert!((16..=1024).contains(&q.output_tokens));
        prop_assert_eq!(&q, &ShareGptGenerator::new(seed).query(index));
    }

    #[test]
    fn sharegpt_shares_exactly_the_system_prompt(
        seed in 0u64..100,
        i in 0u64..500,
        j in 0u64..500,
    ) {
        prop_assume!(i != j);
        let g = ShareGptGenerator::new(seed);
        let a = g.query(i).prompt;
        let b = g.query(j).prompt;
        let sys = agentsim_workloads::segments::instruction_tokens(Benchmark::ShareGpt) as usize;
        prop_assert!(a.ids().take(sys).eq(b.ids().take(sys)));
        prop_assert_ne!(a.ids().nth(sys), b.ids().nth(sys));
    }
}
