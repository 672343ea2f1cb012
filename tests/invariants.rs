//! Property-based integration tests: invariants that must hold for *any*
//! generated workload, cluster and parallelism assignment.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zerotune::core::features::FeatureMask;
use zerotune::core::graph::encode;
use zerotune::core::optisample::EnumerationStrategy;
use zerotune::core::qerror::q_error;
use zerotune::dspsim::analytical::{simulate, SimConfig};
use zerotune::dspsim::cluster::{Cluster, ClusterType};
use zerotune::dspsim::placement::{place_with, ChainingMode};
use zerotune::query::{ParallelQueryPlan, QueryGenerator, QueryStructure};

fn structure_from_index(i: u8) -> QueryStructure {
    match i % 8 {
        0 => QueryStructure::Linear,
        1 => QueryStructure::TwoWayJoin,
        2 => QueryStructure::ThreeWayJoin,
        3 => QueryStructure::ChainedFilters(2 + i % 3),
        4 => QueryStructure::NWayJoin(4 + i % 3),
        5 => QueryStructure::SpikeDetection,
        6 => QueryStructure::SmartGridLocal,
        _ => QueryStructure::SmartGridGlobal,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any structure × any OptiSample/random assignment yields a valid
    /// PQP whose simulation produces finite positive metrics and a
    /// throughput bounded by the offered rate.
    #[test]
    fn simulation_is_always_well_formed(
        structure_idx in 0u8..8,
        seed in 0u64..10_000,
        workers in 1usize..6,
        random_strategy in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let structure = structure_from_index(structure_idx);
        let generator = if structure.is_seen() {
            QueryGenerator::seen()
        } else {
            QueryGenerator::unseen()
        };
        let plan = generator.generate(structure, &mut rng);
        prop_assert!(plan.validate().is_ok());

        let cluster = Cluster::sample(&ClusterType::ALL, workers, &[1.0, 10.0], &mut rng);
        let strategy = if random_strategy {
            EnumerationStrategy::random()
        } else {
            EnumerationStrategy::opti_sample()
        };
        let parallelism = strategy.assign(&plan, &cluster, &mut rng);
        // Eq. 1 constraints
        prop_assert!(parallelism.iter().all(|&p| p >= 1));
        prop_assert!(parallelism.iter().all(|&p| p <= cluster.total_cores()));

        let pqp = ParallelQueryPlan::with_parallelism(plan, parallelism);
        prop_assert!(pqp.validate().is_ok());

        let metrics = simulate(&pqp, &cluster, &SimConfig::noiseless(), &mut rng);
        prop_assert!(metrics.latency_ms.is_finite() && metrics.latency_ms > 0.0);
        prop_assert!(metrics.throughput.is_finite() && metrics.throughput > 0.0);
        prop_assert!(metrics.throughput <= metrics.offered_rate * 1.0001);
        prop_assert!(metrics.backpressure_scale > 0.0 && metrics.backpressure_scale <= 1.0);
        // rates never increase along the pipeline beyond physical limits
        for op in &metrics.per_op {
            prop_assert!(op.input_rate.is_finite() && op.input_rate >= 0.0);
            prop_assert!(op.utilization.is_finite() && op.utilization >= 0.0);
        }
    }

    /// Graph encodings are structurally sound for any workload: feature
    /// vectors are finite, mapping weights per operator sum to 1, and the
    /// sink is an operator node.
    #[test]
    fn graph_encoding_invariants(
        structure_idx in 0u8..8,
        seed in 0u64..10_000,
        p in 1u32..64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let structure = structure_from_index(structure_idx);
        let generator = QueryGenerator::seen();
        let plan = generator.generate(structure, &mut rng);
        let n = plan.num_ops();
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![p; n]);
        let cluster = Cluster::homogeneous(ClusterType::M510, 3, 10.0);
        let graph = encode(&pqp, &cluster, ChainingMode::Auto, &FeatureMask::all());

        prop_assert_eq!(graph.num_operator_nodes(), n);
        prop_assert!(graph.sink < n);
        for node in &graph.nodes {
            prop_assert!(node.features.iter().all(|f| f.is_finite()));
        }
        for op in 0..n {
            let total: f32 = graph
                .mapping
                .iter()
                .filter(|&&(_, o, _)| o == op)
                .map(|&(_, _, w)| w)
                .sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
        }
    }

    /// Chaining never *increases* the number of deployed tasks, and the
    /// grouping number is consistent with the group partition.
    #[test]
    fn placement_invariants(
        seed in 0u64..10_000,
        p in 1u32..64,
        workers in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = QueryGenerator::seen().generate(QueryStructure::Linear, &mut rng);
        let n = plan.num_ops();
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![p; n]);
        let cluster = Cluster::homogeneous(ClusterType::M510, workers, 10.0);

        let ir = pqp.plan.validate().expect("generated plans seal");
        let never = place_with(&pqp, &ir, &cluster, ChainingMode::Never);
        let always = place_with(&pqp, &ir, &cluster, ChainingMode::Always);
        prop_assert!(always.total_instances() <= never.total_instances());
        // groups partition the operators
        let total_ops: usize = always.groups.iter().map(|g| g.ops.len()).sum();
        prop_assert_eq!(total_ops, n);
        for op in pqp.plan.ops() {
            let g = always.grouping_number(op.id) as usize;
            prop_assert!(g >= 1 && g <= n);
        }
    }

    /// Q-error is symmetric, ≥ 1, and multiplicative.
    #[test]
    fn q_error_properties(a in 1e-6f64..1e9, b in 1e-6f64..1e9) {
        let q = q_error(a, b);
        prop_assert!(q >= 1.0);
        prop_assert!((q - q_error(b, a)).abs() < 1e-9 * q);
        // scaling both by the same factor leaves q unchanged
        let q2 = q_error(a * 7.5, b * 7.5);
        prop_assert!((q - q2).abs() < 1e-6 * q);
    }
}
