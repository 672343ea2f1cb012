//! Sealed plan-IR invariants and the multi-sink end-to-end pipeline.
//!
//! Property-tested over the full generator workload: the cached Kahn
//! order is a valid, deterministic linear extension that matches the
//! slow-path recomputation bitwise; CSR neighbor lists agree with the
//! edge-list scans; and the structural fingerprint is invariant under
//! edge-insertion reordering. The end-to-end test drives the repo's
//! multi-sink shared-subplan benchmark through lint → bounds → simulate
//! → predict → tune.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zerotune::query::{LogicalPlan, ParallelQueryPlan, QueryGenerator, QueryStructure};

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

fn generated_plan(structure_idx: u8, seed: u64) -> LogicalPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let structure = structure_from_index(structure_idx);
    let generator = if structure.is_seen() {
        QueryGenerator::seen()
    } else {
        QueryGenerator::unseen()
    };
    generator.generate(structure, &mut rng)
}

/// Rebuild `plan` with the identical operator list but the edge list
/// rotated by `rot` insertion positions.
fn rebuild_with_rotated_edges(plan: &LogicalPlan, rot: usize) -> LogicalPlan {
    let mut p = LogicalPlan::new(plan.name.clone());
    for op in plan.ops() {
        p.add(op.kind.clone());
    }
    let edges = plan.edges();
    let n = edges.len();
    for k in 0..n {
        let (u, d) = edges[(k + rot) % n];
        p.connect(u, d);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sealed topo order visits every operator exactly once, puts
    /// every edge forward, is deterministic across re-sealing, and is
    /// bitwise the slow-path `LogicalPlan::topo_order`.
    #[test]
    fn topo_order_is_a_deterministic_linear_extension(
        structure_idx in 0u8..8,
        seed in 0u64..10_000,
    ) {
        let plan = generated_plan(structure_idx, seed);
        let ir = plan.validate().expect("generated plans are valid");

        let mut pos = vec![usize::MAX; plan.num_ops()];
        for (k, id) in ir.topo_order().iter().enumerate() {
            prop_assert_eq!(pos[id.idx()], usize::MAX);
            pos[id.idx()] = k;
        }
        prop_assert!(pos.iter().all(|&p| p != usize::MAX));
        for &(u, d) in plan.edges() {
            prop_assert!(
                pos[u.idx()] < pos[d.idx()],
                "edge {:?}->{:?} violates the topo order", u, d
            );
        }

        let ir2 = plan.validate().unwrap();
        prop_assert_eq!(ir.topo_order(), ir2.topo_order());
        prop_assert_eq!(ir.fingerprint(), ir2.fingerprint());
        prop_assert_eq!(
            ir.topo_order().to_vec(),
            plan.topo_order().expect("acyclic")
        );
    }

    /// CSR adjacency slices agree with the slow-path edge-list scans, and
    /// the parallel edge-index arrays point at the right edge records.
    #[test]
    fn csr_neighbors_match_the_edge_list(
        structure_idx in 0u8..8,
        seed in 0u64..10_000,
    ) {
        let plan = generated_plan(structure_idx, seed);
        let ir = plan.validate().expect("generated plans are valid");
        for op in plan.ops() {
            prop_assert_eq!(ir.upstream(op.id), &plan.upstream(op.id)[..]);
            prop_assert_eq!(ir.downstream(op.id), &plan.downstream(op.id)[..]);
            for (&u, &e) in ir.upstream(op.id).iter().zip(ir.upstream_edges(op.id)) {
                prop_assert_eq!(plan.edges()[e as usize], (u, op.id));
            }
            for (&d, &e) in ir.downstream(op.id).iter().zip(ir.downstream_edges(op.id)) {
                prop_assert_eq!(plan.edges()[e as usize], (op.id, d));
            }
        }
    }

    /// The structural fingerprint depends on the edge *set*, not the edge
    /// insertion order — while schemas and join semantics may differ, the
    /// fingerprint and depth metadata must not.
    #[test]
    fn fingerprint_is_invariant_under_edge_insertion_order(
        structure_idx in 0u8..8,
        seed in 0u64..10_000,
        rot in 1usize..7,
    ) {
        let plan = generated_plan(structure_idx, seed);
        prop_assert!(plan.edges().len() >= 2, "every generated plan has at least 2 edges");
        let rotated = rebuild_with_rotated_edges(&plan, rot % plan.edges().len());
        let a = plan.validate().expect("original is valid");
        let b = rotated.validate().expect("rotated edge order is still a valid DAG");
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.depth(), b.depth());
        prop_assert_eq!(a.sinks(), b.sinks());
        prop_assert_eq!(a.sources(), b.sources());
    }
}

/// The multi-sink shared-subplan benchmark runs through the whole stack:
/// lint → bounds → simulate → predict → tune.
#[test]
fn multi_sink_plan_runs_end_to_end() {
    use zerotune::core::dataset::{generate_dataset, GenConfig};
    use zerotune::core::model::{ModelConfig, ZeroTuneModel};
    use zerotune::core::optimizer::{tune, OptimizerConfig};
    use zerotune::core::train::{train, TrainConfig};
    use zerotune::core::CostEstimator;
    use zerotune::dspsim::analytical::{simulate, SimConfig};
    use zerotune::dspsim::cluster::{Cluster, ClusterType};

    let plan = zerotune::query::benchmarks::smart_grid_combined(5_000.0);
    let n = plan.num_ops();
    let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);

    // 1. Lint: the plan and a concrete deployment are clean.
    let pqp = ParallelQueryPlan::with_parallelism(plan.clone(), vec![2; n]);
    let diags = zerotune::core::diagnostics::lint_pqp(&pqp, Some(&cluster));
    assert!(
        diags
            .iter()
            .all(|d| d.severity != zerotune::core::diagnostics::Severity::Error),
        "{diags:?}"
    );

    // 2. Bounds: well-formed report with one latency bracket per sink.
    let ir = pqp.plan.validate().expect("multi-sink plan seals");
    let report = zerotune::core::bounds::analyze_with(
        &pqp,
        &ir,
        &cluster,
        &zerotune::core::bounds::BoundsConfig::default(),
    );
    assert!(report.is_wellformed(), "{report:?}");
    assert_eq!(report.latency_per_sink_ms.len(), 2);

    // 3. Simulate: per-sink latencies inside the brackets.
    let mut rng = StdRng::seed_from_u64(11);
    let m = simulate(&pqp, &cluster, &SimConfig::noiseless(), &mut rng);
    assert_eq!(m.latency_per_sink_ms.len(), 2);
    assert!(report.latency_ms.contains(m.latency_ms));
    for (iv, &l) in report
        .latency_per_sink_ms
        .iter()
        .zip(&m.latency_per_sink_ms)
    {
        assert!(iv.contains(l), "per-sink latency {l} outside {iv:?}");
    }

    // 4. Predict: the GNN encodes and scores the multi-sink graph.
    let data = generate_dataset(&GenConfig::seen(), 200, 21);
    let (train_set, _, _) = data.split(0.9, 0.1, 0);
    let mut model = ZeroTuneModel::new(ModelConfig {
        hidden: 16,
        seed: 21,
    });
    train(
        &mut model,
        &train_set,
        &TrainConfig {
            epochs: 10,
            patience: 0,
            ..TrainConfig::default()
        },
    );
    let enc = zerotune::core::graph::encode(
        &pqp,
        &cluster,
        zerotune::dspsim::ChainingMode::Auto,
        &zerotune::core::FeatureMask::default(),
    );
    let pred = model.predict(&enc);
    assert!(pred.latency_ms.is_finite() && pred.latency_ms > 0.0);
    assert!(pred.throughput.is_finite() && pred.throughput > 0.0);

    // 5. Tune: a feasible parallelism assignment for the multi-sink plan.
    let outcome = tune(&model, &plan, &cluster, &OptimizerConfig::default()).expect("valid plan");
    assert_eq!(outcome.parallelism.len(), n);
    assert!(outcome
        .parallelism
        .iter()
        .all(|&p| p >= 1 && p <= cluster.total_cores()));
    let chosen = ParallelQueryPlan::with_parallelism(plan, outcome.parallelism);
    let m2 = simulate(&chosen, &cluster, &SimConfig::noiseless(), &mut rng);
    assert!(m2.latency_ms.is_finite() && m2.throughput > 0.0);
    assert_eq!(m2.latency_per_sink_ms.len(), 2);
}
