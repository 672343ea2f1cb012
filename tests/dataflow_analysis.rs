//! Monotone dataflow analysis: fixpoint determinism, agreement with the
//! simulators, the ZT7xx lint family (one trigger and one clean test per
//! code), and outcome-neutrality of the key-cardinality lattice cap.
//!
//! Three layers:
//!
//! * **fixpoint determinism** — proptest over generator-seeded plans of
//!   every structure class: solving each analysis twice yields identical
//!   fact maps, and `is_fixpoint` certifies them;
//! * **simulator agreement** — metamorphic checks against both
//!   simulators: throughput saturates once a keyed operator's degree
//!   reaches `ceil(K)` (extra instances are provably idle), and an edge
//!   the analysis brackets at `[0, 0]` carries zero engine tuples;
//! * **search-space capping** — `tune` with `dataflow_cap` on returns the
//!   identical winner (parallelism and both predictions) as with it off,
//!   while visiting no more lattice points.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zerotune::core::dataflow::{
    analyze_plan, is_fixpoint, lint_dataflow_plan, lint_dataflow_pqp, solve, ClassAnalysis,
    KeyAnalysis, KeyDist, RateAnalysis,
};
use zerotune::core::model::{ModelConfig, ZeroTuneModel};
use zerotune::core::optimizer::{tune, OptimizerConfig, SearchSpace};
use zerotune::dspsim::analytical::{propagate_with, simulate, SimConfig};
use zerotune::dspsim::cluster::{Cluster, ClusterType};
use zerotune::dspsim::engine::{run, EngineConfig};
use zerotune::query::operators::SinkOp;
use zerotune::query::{
    AggFunction, AggregateOp, DataType, FilterFunction, FilterOp, LogicalPlan, OpId, OperatorKind,
    ParallelQueryPlan, QueryGenerator, QueryStructure, SourceOp, TupleSchema, WindowPolicy,
    WindowSpec,
};

// --- helpers -------------------------------------------------------------

fn cluster() -> Cluster {
    Cluster::homogeneous(ClusterType::M510, 4, 10.0)
}

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

fn source(rate: f64, ty: DataType, width: usize, k: Option<f64>) -> OperatorKind {
    OperatorKind::Source(SourceOp {
        event_rate: rate,
        schema: TupleSchema::uniform(ty, width),
        key_cardinality: k,
    })
}

fn filter(ty: DataType, selectivity: f64) -> OperatorKind {
    OperatorKind::Filter(FilterOp {
        function: FilterFunction::Gt,
        literal_class: ty,
        selectivity,
    })
}

fn keyed_agg(key: DataType, k: Option<f64>) -> OperatorKind {
    OperatorKind::Aggregate(AggregateOp {
        function: AggFunction::Avg,
        key_class: Some(key),
        agg_class: key,
        window: WindowSpec::tumbling(WindowPolicy::Time, 1_000.0),
        selectivity: 1.0,
        key_cardinality: k,
    })
}

/// source → filter → keyed aggregate (cardinality `k`) → sink.
fn keyed_linear(k: Option<f64>) -> LogicalPlan {
    let mut p = LogicalPlan::new("keyed-linear");
    let s = p.add(source(10_000.0, DataType::Int, 3, None));
    let f = p.add(filter(DataType::Int, 0.8));
    let a = p.add(keyed_agg(DataType::Int, k));
    let snk = p.add(OperatorKind::Sink(SinkOp));
    p.connect(s, f);
    p.connect(f, a);
    p.connect(a, snk);
    p
}

/// A 12-operator chain of keyed aggregates that declare a cardinality:
/// source → (filter → keyed-agg)×5 → sink.
fn keyed_chain(k: f64) -> LogicalPlan {
    let mut p = LogicalPlan::new("keyed-chain12");
    let mut prev = p.add(source(50_000.0, DataType::Int, 3, Some(1_000.0)));
    for _ in 0..5 {
        let f = p.add(filter(DataType::Int, 0.9));
        p.connect(prev, f);
        let a = p.add(keyed_agg(DataType::Int, Some(k)));
        p.connect(f, a);
        prev = a;
    }
    let snk = p.add(OperatorKind::Sink(SinkOp));
    p.connect(prev, snk);
    p
}

fn has(diags: &[zerotune::core::Diagnostic], code: &str) -> bool {
    diags.iter().any(|d| d.code == code)
}

// --- fixpoint determinism ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Solving any of the three analyses twice on the same sealed plan
    /// yields identical fact maps, and the result is a certified
    /// fixpoint — no worklist or iteration-order nondeterminism.
    #[test]
    fn solve_is_deterministic_and_reaches_a_fixpoint(
        structure_idx in 0u8..8,
        seed in 0u64..10_000,
    ) {
        let plan = generated_plan(structure_idx, seed);
        let ir = plan.validate().expect("generated plans seal");
        let n = plan.num_ops();
        let pqp = ParallelQueryPlan::with_parallelism(plan.clone(), vec![2; n]);

        let rate = RateAnalysis { pqp: Some(&pqp) };
        let key = KeyAnalysis { pqp: Some(&pqp) };
        let r1 = solve(&rate, &plan, &ir);
        let r2 = solve(&rate, &plan, &ir);
        prop_assert_eq!(&r1, &r2);
        prop_assert!(is_fixpoint(&rate, &plan, &ir, &r1));

        let k1 = solve(&key, &plan, &ir);
        let k2 = solve(&key, &plan, &ir);
        prop_assert_eq!(&k1, &k2);
        prop_assert!(is_fixpoint(&key, &plan, &ir, &k1));

        let c1 = solve(&ClassAnalysis, &plan, &ir);
        let c2 = solve(&ClassAnalysis, &plan, &ir);
        prop_assert_eq!(&c1, &c2);
        prop_assert!(is_fixpoint(&ClassAnalysis, &plan, &ir, &c1));

        // Plan-level (no deployment) facts must bracket the deployed
        // point facts: the hull is a sound over-approximation.
        let hull = solve(&RateAnalysis { pqp: None }, &plan, &ir);
        for (d, h) in r1.per_op.iter().zip(&hull.per_op) {
            prop_assert!(
                zerotune::core::dataflow::Domain::leq(d, h),
                "deployed fact {d:?} escapes plan-level hull {h:?}"
            );
        }
    }
}

/// Deployed rate facts come from the analytical model's own transfer, so
/// every operator's fact is the point `[r, r]` with `r` bitwise the
/// solver's unthrottled output rate. Deterministic rather than sampled:
/// 200 plans of every structure class, each at degree 1, 2, 3 and 7.
#[test]
fn deployed_rate_facts_equal_the_solver_rates_bit_for_bit() {
    let mut deployments = 0usize;
    let mut mismatched_deployments = 0usize;
    let mut mismatched_ops = Vec::new();
    for structure_idx in 0u8..8 {
        for seed in 0..200u64 {
            let plan = generated_plan(structure_idx, seed);
            let ir = plan.validate().expect("generated plans seal");
            let n = plan.num_ops();
            for degree in [1u32, 2, 3, 7] {
                let pqp = ParallelQueryPlan::with_parallelism(plan.clone(), vec![degree; n]);
                let facts = solve(&RateAnalysis { pqp: Some(&pqp) }, &plan, &ir);
                let solver = propagate_with(&pqp, &ir, 1.0);
                deployments += 1;
                let before = mismatched_ops.len();
                for (op, (fact, &rate)) in facts.per_op.iter().zip(&solver.output).enumerate() {
                    let (lo, hi) = (fact.rate.lo.to_bits(), fact.rate.hi.to_bits());
                    if lo != rate.to_bits() || hi != rate.to_bits() {
                        mismatched_ops.push(format!(
                            "structure {structure_idx} seed {seed} degree {degree} op {op} \
                             ({}): fact {:?} vs solver {rate}",
                            plan.ops()[op].kind.label(),
                            fact.rate
                        ));
                    }
                }
                mismatched_deployments += usize::from(mismatched_ops.len() > before);
            }
        }
    }
    assert_eq!(deployments, 6_400);
    assert!(
        mismatched_ops.is_empty(),
        "{mismatched_deployments} of {deployments} deployments ({} operators) differ; first: {}",
        mismatched_ops.len(),
        mismatched_ops[0]
    );
}

// --- simulator agreement -------------------------------------------------

/// Parallelism beyond `ceil(K)` at a keyed operator is provably idle: a
/// hash partitioner on K distinct keys reaches at most K instances. Both
/// simulators must therefore produce *identical* metrics for degree
/// `ceil(K)` and any degree above it — the saturation the ZT704 cap
/// exploits.
#[test]
fn throughput_saturates_once_degree_reaches_key_cardinality() {
    let plan = keyed_linear(Some(3.0));
    let at_cap = ParallelQueryPlan::with_parallelism(plan.clone(), vec![1, 2, 3, 1]);
    for beyond in [4u32, 6, 8] {
        let over = ParallelQueryPlan::with_parallelism(plan.clone(), vec![1, 2, beyond, 1]);

        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let a1 = simulate(&at_cap, &cluster(), &SimConfig::noiseless(), &mut rng_a);
        let a2 = simulate(&over, &cluster(), &SimConfig::noiseless(), &mut rng_b);
        assert_eq!(
            a1.latency_ms.to_bits(),
            a2.latency_ms.to_bits(),
            "analytical latency must saturate at degree ceil(K)"
        );
        assert_eq!(
            a1.throughput.to_bits(),
            a2.throughput.to_bits(),
            "analytical throughput must saturate at degree ceil(K)"
        );

        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let e1 = run(&at_cap, &cluster(), &EngineConfig::default(), &mut rng_a);
        let e2 = run(&over, &cluster(), &EngineConfig::default(), &mut rng_b);
        assert_eq!(
            e1.sink_rate.to_bits(),
            e2.sink_rate.to_bits(),
            "engine sink rate must saturate at degree ceil(K)"
        );
        assert_eq!(e1.samples, e2.samples);
    }
}

/// An edge the rate analysis brackets at `[0, 0]` (ZT701) really carries
/// no tuples: the discrete-event engine delivers zero samples to the sink
/// behind it while the live branch keeps flowing.
#[test]
fn statically_dead_edges_carry_zero_engine_tuples() {
    let mut p = LogicalPlan::new("dead-branch");
    let s = p.add(source(5_000.0, DataType::Double, 3, None));
    let live = p.add(filter(DataType::Double, 0.5));
    let dead = p.add(filter(DataType::Double, 0.0));
    let live_sink = p.add(OperatorKind::Sink(SinkOp));
    let dead_sink = p.add(OperatorKind::Sink(SinkOp));
    p.connect(s, live);
    p.connect(s, dead);
    p.connect(live, live_sink);
    p.connect(dead, dead_sink);
    let ir = p.validate().expect("multi-sink plan seals");

    let diags = lint_dataflow_plan(&p, &ir);
    assert!(has(&diags, "ZT701"), "{diags:?}");

    let n = p.num_ops();
    let pqp = ParallelQueryPlan::with_parallelism(p.clone(), vec![1; n]);
    let mut rng = StdRng::seed_from_u64(3);
    let metrics = run(&pqp, &cluster(), &EngineConfig::default(), &mut rng);
    let sink_metrics = |op: OpId| {
        metrics
            .per_sink
            .iter()
            .find(|m| m.op == op)
            .expect("every sink is reported")
            .clone()
    };
    let dead_m = sink_metrics(dead_sink);
    assert_eq!(dead_m.samples, 0, "dead sink must see no tuples");
    assert_eq!(dead_m.sink_rate, 0.0);
    let live_m = sink_metrics(live_sink);
    assert!(live_m.samples > 0, "live sink must keep flowing");
    assert!(live_m.sink_rate > 0.0);
}

// --- ZT7xx: trigger + clean per code -------------------------------------

#[test]
fn zt701_clean_on_benchmark_plans() {
    for plan in [
        zerotune::query::benchmarks::spike_detection(10_000.0),
        zerotune::query::benchmarks::smart_grid_combined(1_000.0),
    ] {
        let ir = plan.validate().expect("benchmark seals");
        let diags = lint_dataflow_plan(&plan, &ir);
        assert!(!has(&diags, "ZT701"), "{diags:?}");
    }
}

#[test]
fn zt702_triggers_on_provably_network_throttled_edge() {
    let mut p = LogicalPlan::new("fat-stream");
    let s = p.add(source(100_000.0, DataType::Double, 32, None));
    let a = p.add(keyed_agg(DataType::Double, None));
    let snk = p.add(OperatorKind::Sink(SinkOp));
    p.connect(s, a);
    p.connect(a, snk);
    let ir = p.validate().expect("plan seals");
    let pqp = ParallelQueryPlan::with_parallelism(p, vec![1, 2, 1]);

    // A cluster whose aggregate links move ~1e5 B/s cannot carry the
    // hash edge's ≥ 2.5e7 B/s floor.
    let starved = Cluster::homogeneous(ClusterType::M510, 1, 0.001);
    let diags = lint_dataflow_pqp(&pqp, &ir, Some(&starved));
    assert!(has(&diags, "ZT702"), "{diags:?}");

    // The same deployment on 10 Gb/s links is clean.
    let diags = lint_dataflow_pqp(&pqp, &ir, Some(&cluster()));
    assert!(!has(&diags, "ZT702"), "{diags:?}");
}

#[test]
fn zt703_triggers_on_redundant_repartition() {
    // Two keyed aggregates on the same key class at the same effective
    // degree: the second hash partition re-shuffles an already
    // hash-distributed stream.
    let mut p = LogicalPlan::new("double-hash");
    let s = p.add(source(10_000.0, DataType::Int, 3, None));
    let a1 = p.add(keyed_agg(DataType::Int, None));
    let a2 = p.add(keyed_agg(DataType::Int, None));
    let snk = p.add(OperatorKind::Sink(SinkOp));
    p.connect(s, a1);
    p.connect(a1, a2);
    p.connect(a2, snk);
    let ir = p.validate().expect("plan seals");

    let redundant = ParallelQueryPlan::with_parallelism(p.clone(), vec![1, 2, 2, 1]);
    let diags = lint_dataflow_pqp(&redundant, &ir, None);
    assert!(has(&diags, "ZT703"), "{diags:?}");

    // Different degrees genuinely re-shuffle — clean.
    let reshuffle = ParallelQueryPlan::with_parallelism(p, vec![1, 2, 3, 1]);
    let diags = lint_dataflow_pqp(&reshuffle, &ir, None);
    assert!(!has(&diags, "ZT703"), "{diags:?}");
}

#[test]
fn zt704_triggers_on_parallelism_beyond_key_cardinality() {
    let plan = keyed_linear(Some(3.0));
    let ir = plan.validate().expect("plan seals");

    let over = ParallelQueryPlan::with_parallelism(plan.clone(), vec![1, 2, 8, 1]);
    let diags = lint_dataflow_pqp(&over, &ir, None);
    assert!(has(&diags, "ZT704"), "{diags:?}");

    let at_cap = ParallelQueryPlan::with_parallelism(plan, vec![1, 2, 3, 1]);
    let diags = lint_dataflow_pqp(&at_cap, &ir, None);
    assert!(!has(&diags, "ZT704"), "{diags:?}");
}

#[test]
fn zt705_triggers_on_key_class_missing_from_input_stream() {
    // The aggregate keys on Int but its input stream only carries
    // Double fields.
    let mut p = LogicalPlan::new("key-class-mismatch");
    let s = p.add(source(10_000.0, DataType::Double, 3, None));
    let a = p.add(keyed_agg(DataType::Int, None));
    let snk = p.add(OperatorKind::Sink(SinkOp));
    p.connect(s, a);
    p.connect(a, snk);
    let ir = p.validate().expect("plan seals");
    let diags = lint_dataflow_plan(&p, &ir);
    assert!(has(&diags, "ZT705"), "{diags:?}");

    // Keying on a class the stream does carry is clean — including the
    // second keyed aggregate fed by the first one's output (the key
    // class survives the aggregation).
    let mut p = LogicalPlan::new("key-class-match");
    let s = p.add(source(10_000.0, DataType::Int, 3, None));
    let a1 = p.add(keyed_agg(DataType::Int, None));
    let a2 = p.add(keyed_agg(DataType::Int, None));
    let snk = p.add(OperatorKind::Sink(SinkOp));
    p.connect(s, a1);
    p.connect(a1, a2);
    p.connect(a2, snk);
    let ir = p.validate().expect("plan seals");
    let diags = lint_dataflow_plan(&p, &ir);
    assert!(!has(&diags, "ZT705"), "{diags:?}");
}

/// The partitioning-flow facts behind ZT703: a deployed keyed operator's
/// output stream is hash-distributed on its key class at its *effective*
/// degree, and a rebalance destroys the property.
#[test]
fn key_distribution_facts_track_effective_degrees() {
    let plan = keyed_linear(Some(3.0));
    let ir = plan.validate().expect("plan seals");
    let pqp = ParallelQueryPlan::with_parallelism(plan.clone(), vec![1, 2, 8, 1]);
    let keys = solve(&KeyAnalysis { pqp: Some(&pqp) }, &plan, &ir);
    let agg = OpId(2);
    assert_eq!(
        keys.op(agg).dist,
        KeyDist::Hashed {
            class: DataType::Int,
            degree: 3
        },
        "output distribution must use the capped effective degree, not the raw 8"
    );
    assert_eq!(keys.op(agg).cardinality, Some(3.0));
}

// --- search-space capping ------------------------------------------------

fn lattice_cfg(dataflow_cap: bool) -> OptimizerConfig {
    OptimizerConfig {
        strict: false,
        dataflow_cap,
        search: SearchSpace::Lattice {
            max_degrees_per_op: 2,
            visit_budget: 100_000,
        },
        ..OptimizerConfig::default()
    }
}

/// On the 12-op keyed chain the cap provably removes lattice points
/// (every keyed axis collapses onto its canonical representative) while
/// returning the bitwise-identical winner.
#[test]
fn dataflow_cap_shrinks_the_chain_lattice_without_changing_the_winner() {
    let plan = keyed_chain(1.0);
    let model = ZeroTuneModel::new(ModelConfig {
        hidden: 12,
        seed: 42,
    });
    let capped = tune(&model, &plan, &cluster(), &lattice_cfg(true)).expect("chain tunes");
    let uncapped = tune(&model, &plan, &cluster(), &lattice_cfg(false)).expect("chain tunes");

    assert_eq!(capped.parallelism, uncapped.parallelism);
    assert_eq!(
        capped.predicted_latency_ms.to_bits(),
        uncapped.predicted_latency_ms.to_bits()
    );
    assert_eq!(
        capped.predicted_throughput.to_bits(),
        uncapped.predicted_throughput.to_bits()
    );
    assert!(capped.search_space <= uncapped.search_space);
    assert!(
        capped.dataflow_capped_ops > 0,
        "chain has 5 capped keyed ops"
    );
    assert!(capped.dataflow_points_removed > 0);
    assert_eq!(uncapped.dataflow_capped_ops, 0);
    assert_eq!(uncapped.dataflow_points_removed, 0);
}

#[test]
fn dataflow_cap_is_outcome_neutral_on_benchmark_plans() {
    for (i, plan) in [
        zerotune::query::benchmarks::spike_detection(10_000.0),
        zerotune::query::benchmarks::smart_grid_local(1_000.0),
        zerotune::query::benchmarks::smart_grid_global(1_000.0),
        keyed_linear(Some(3.0)),
        keyed_linear(Some(1.0)),
    ]
    .into_iter()
    .enumerate()
    {
        let model = ZeroTuneModel::new(ModelConfig {
            hidden: 12,
            seed: i as u64,
        });
        let capped = tune(&model, &plan, &cluster(), &lattice_cfg(true)).expect("plan tunes");
        let uncapped = tune(&model, &plan, &cluster(), &lattice_cfg(false)).expect("plan tunes");
        assert_eq!(capped.parallelism, uncapped.parallelism, "plan #{i}");
        assert_eq!(
            capped.predicted_latency_ms.to_bits(),
            uncapped.predicted_latency_ms.to_bits(),
            "plan #{i}"
        );
        assert_eq!(
            capped.predicted_throughput.to_bits(),
            uncapped.predicted_throughput.to_bits(),
            "plan #{i}"
        );
        assert!(capped.search_space <= uncapped.search_space, "plan #{i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Acceptance criterion: capping is outcome-neutral on any
    /// generator-seeded plan (the generator seeds `key_cardinality`, so
    /// this covers capped and uncapped operators alike).
    #[test]
    fn dataflow_cap_is_outcome_neutral_on_generated_plans(
        structure_idx in 0u8..8,
        seed in 0u64..10_000,
        workers in 2usize..5,
    ) {
        let plan = generated_plan(structure_idx, seed);
        let cluster = Cluster::homogeneous(ClusterType::M510, workers, 10.0);
        let model = ZeroTuneModel::new(ModelConfig { hidden: 12, seed });

        let capped = tune(&model, &plan, &cluster, &lattice_cfg(true))
            .expect("generated plans are valid");
        let uncapped = tune(&model, &plan, &cluster, &lattice_cfg(false))
            .expect("generated plans are valid");

        prop_assert_eq!(&capped.parallelism, &uncapped.parallelism);
        prop_assert_eq!(
            capped.predicted_latency_ms.to_bits(),
            uncapped.predicted_latency_ms.to_bits()
        );
        prop_assert_eq!(
            capped.predicted_throughput.to_bits(),
            uncapped.predicted_throughput.to_bits()
        );
        prop_assert!(capped.search_space <= uncapped.search_space);
    }
}

/// The full report wrapper solves all three analyses coherently: rates,
/// keys and classes share the plan's edge indexing.
#[test]
fn analyze_plan_report_is_internally_consistent() {
    let plan = zerotune::query::benchmarks::spike_detection(10_000.0);
    let ir = plan.validate().expect("benchmark seals");
    let report = analyze_plan(&plan, &ir);
    assert_eq!(report.rates.per_edge.len(), plan.edges().len());
    assert_eq!(report.keys.per_edge.len(), plan.edges().len());
    assert_eq!(report.classes.per_edge.len(), plan.edges().len());
    assert_eq!(report.rates.per_op.len(), plan.num_ops());
}
