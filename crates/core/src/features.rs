//! Transferable featurization (Table I of the paper).
//!
//! Every graph node carries a fixed-size feature vector. Operator nodes
//! share a *common block* (parallelism-, partitioning-, grouping- and
//! data-related features) followed by an operator-type-specific block
//! (filter function and literal class, window type/policy/length/slide,
//! aggregation function and classes, join key class). Resource nodes carry
//! the hardware features. Continuous features are log- or range-normalized
//! to keep them in a comparable scale; categorical features are one-hot.
//!
//! [`FeatureMask`] implements the ablation of Exp. 6 by zeroing feature
//! groups while keeping vector dimensions stable.

use zt_dspsim::cluster::NodeSpec;
use zt_dspsim::Deployment;
use zt_query::plan::LogicalOperator;
use zt_query::{DataType, OperatorKind, ParallelQueryPlan, TupleSchema, WindowSpec};

/// Which transferable-feature groups are active (Exp. 6 feature ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeatureMask {
    /// Operator- and data-related features: operator-specific parameters,
    /// selectivity, tuple widths/types, event rate.
    pub operator: bool,
    /// Parallelism-related features: parallelism degree, partitioning
    /// strategy, grouping number.
    pub parallelism: bool,
    /// Resource-related features on physical nodes.
    pub resource: bool,
}

impl FeatureMask {
    /// All features active (the full ZeroTune model).
    pub fn all() -> Self {
        FeatureMask {
            operator: true,
            parallelism: true,
            resource: true,
        }
    }

    /// Only operator-related features (ablation variant 1).
    pub fn operator_only() -> Self {
        FeatureMask {
            operator: true,
            parallelism: false,
            resource: false,
        }
    }

    /// Only parallelism- and resource-related features (ablation
    /// variant 2).
    pub fn parallelism_resource_only() -> Self {
        FeatureMask {
            operator: false,
            parallelism: true,
            resource: true,
        }
    }

    pub fn label(&self) -> &'static str {
        match (self.operator, self.parallelism, self.resource) {
            (true, true, true) => "all",
            (true, false, false) => "operator-only",
            (false, true, true) => "parallelism+resource",
            _ => "custom",
        }
    }
}

impl Default for FeatureMask {
    fn default() -> Self {
        FeatureMask::all()
    }
}

// --- Normalization constants --------------------------------------------

/// Parallelism degrees go up to 128 (Table III categories).
const LOG_P_NORM: f32 = 4.86; // ln(129)
/// Event rates go up to 4 M ev/s in the unseen range.
const LOG_RATE_NORM: f32 = 15.2; // ln(4e6)
/// Window lengths/durations up to 10 000 (ms or tuples).
const LOG_WINDOW_NORM: f32 = 9.22; // ln(10001)
const WIDTH_NORM: f32 = 15.0;
const GROUPING_NORM: f32 = 4.0;

/// Bounds every well-formed feature value falls into: one-hots and
/// fractions live in `[0, 1]`, `log_norm` caps at 2.0, and resource
/// features stay below ~2.5. The diagnostics ZT202 lint flags anything
/// outside this envelope.
pub const FEATURE_MIN: f32 = -1e-3;
pub const FEATURE_MAX: f32 = 2.5;

/// Dimensions of the per-kind feature vectors.
pub const OP_COMMON_DIM: usize = 11;
pub const SOURCE_EXTRA_DIM: usize = 1;
pub const FILTER_EXTRA_DIM: usize = 9;
pub const AGG_EXTRA_DIM: usize = 16;
pub const JOIN_EXTRA_DIM: usize = 9;
pub const SINK_EXTRA_DIM: usize = 0;
pub const RESOURCE_DIM: usize = 5;

#[inline]
fn log_norm(v: f64, norm: f32) -> f32 {
    ((v.max(0.0) + 1.0).ln() as f32 / norm).min(2.0)
}

fn window_block(out: &mut Vec<f32>, w: &WindowSpec) {
    use zt_query::{WindowPolicy, WindowType};
    // window type one-hot
    out.push((w.window_type() == WindowType::Tumbling) as u8 as f32);
    out.push((w.window_type() == WindowType::Sliding) as u8 as f32);
    // window policy one-hot
    out.push((w.policy == WindowPolicy::Count) as u8 as f32);
    out.push((w.policy == WindowPolicy::Time) as u8 as f32);
    out.push(log_norm(w.length, LOG_WINDOW_NORM));
    out.push(log_norm(w.slide.unwrap_or(0.0), LOG_WINDOW_NORM));
}

fn one_hot(out: &mut Vec<f32>, idx: usize, n: usize) {
    for i in 0..n {
        out.push((i == idx) as u8 as f32);
    }
}

fn data_type_one_hot(out: &mut Vec<f32>, dt: Option<DataType>) {
    match dt {
        Some(dt) => one_hot(out, dt.one_hot_index(), 3),
        None => out.extend([0.0, 0.0, 0.0]),
    }
}

/// Feature vector of one *logical* (operator) node.
///
/// Layout: `[common(11) | type-specific extra]` — see module docs.
pub fn operator_features(
    op: &LogicalOperator,
    pqp: &ParallelQueryPlan,
    dep: &Deployment,
    in_schema: &TupleSchema,
    out_schema: &TupleSchema,
    mask: &FeatureMask,
) -> Vec<f32> {
    let mut f = Vec::with_capacity(OP_COMMON_DIM + AGG_EXTRA_DIM);

    // -- parallelism-related (Table I, "operator-parallelism") ---------
    if mask.parallelism {
        // Effective degree: instances beyond the operator's key
        // cardinality never receive tuples, so they carry no cost signal.
        f.push(log_norm(
            pqp.effective_parallelism_of(op.id) as f64,
            LOG_P_NORM,
        ));
        one_hot(&mut f, pqp.input_partitioning(op.id).one_hot_index(), 3);
        f.push(dep.grouping_number(op.id) as f32 / GROUPING_NORM);
    } else {
        f.extend([0.0; 5]);
    }

    // -- data-related (Table I, "data") ---------------------------------
    if mask.operator {
        f.push(in_schema.width() as f32 / WIDTH_NORM);
        f.push(out_schema.width() as f32 / WIDTH_NORM);
        let fr = in_schema.type_fractions();
        f.extend([fr[0] as f32, fr[1] as f32, fr[2] as f32]);
        f.push(op.kind.selectivity() as f32);
    } else {
        f.extend([0.0; 6]);
    }
    debug_assert_eq!(f.len(), OP_COMMON_DIM);

    // -- operator-specific block ----------------------------------------
    let extra_start = f.len();
    match &op.kind {
        OperatorKind::Source(s) => {
            f.push(log_norm(s.event_rate, LOG_RATE_NORM));
        }
        OperatorKind::Filter(flt) => {
            one_hot(&mut f, flt.function.one_hot_index(), 6);
            data_type_one_hot(&mut f, Some(flt.literal_class));
        }
        OperatorKind::Aggregate(a) => {
            window_block(&mut f, &a.window);
            one_hot(&mut f, a.function.one_hot_index(), 4);
            data_type_one_hot(&mut f, Some(a.agg_class));
            data_type_one_hot(&mut f, a.key_class);
        }
        OperatorKind::Join(j) => {
            window_block(&mut f, &j.window);
            data_type_one_hot(&mut f, Some(j.key_class));
        }
        OperatorKind::Sink(_) => {}
    }
    if !mask.operator {
        for v in &mut f[extra_start..] {
            *v = 0.0;
        }
    }
    f
}

/// Feature vector of one *physical* (resource) node.
pub fn resource_features(node: &NodeSpec, node_index: usize, mask: &FeatureMask) -> Vec<f32> {
    if !mask.resource {
        return vec![0.0; RESOURCE_DIM];
    }
    vec![
        node.cores as f32 / 64.0,
        node.cpu_ghz as f32 / 3.0,
        log_norm(node.memory_gb, 6.0), // ln(385) ≈ 5.95
        node.network_gbps as f32 / 10.0,
        node_index as f32 / 16.0,
    ]
}

/// Expected feature dimension per operator kind (common + extra).
pub fn operator_feature_dim(kind: &OperatorKind) -> usize {
    OP_COMMON_DIM
        + match kind {
            OperatorKind::Source(_) => SOURCE_EXTRA_DIM,
            OperatorKind::Filter(_) => FILTER_EXTRA_DIM,
            OperatorKind::Aggregate(_) => AGG_EXTRA_DIM,
            OperatorKind::Join(_) => JOIN_EXTRA_DIM,
            OperatorKind::Sink(_) => SINK_EXTRA_DIM,
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zt_dspsim::cluster::{Cluster, ClusterType};
    use zt_dspsim::placement::{place_with, ChainingMode};
    use zt_query::{QueryGenerator, QueryStructure};

    fn sample_pqp() -> (ParallelQueryPlan, Cluster, Deployment) {
        let mut rng = StdRng::seed_from_u64(1);
        let plan = QueryGenerator::seen().generate(QueryStructure::Linear, &mut rng);
        // Mixed degrees, sized to however many operators the generator drew.
        let par = (0..plan.num_ops())
            .map(|i| if i % 2 == 0 { 2 } else { 4 })
            .collect();
        let pqp = ParallelQueryPlan::with_parallelism(plan, par);
        let cluster = Cluster::homogeneous(ClusterType::M510, 2, 10.0);
        let ir = pqp.plan.validate().expect("generated plan seals");
        let dep = place_with(&pqp, &ir, &cluster, ChainingMode::Auto);
        (pqp, cluster, dep)
    }

    #[test]
    fn feature_dims_match_declared() {
        let (pqp, _cluster, dep) = sample_pqp();
        let ins = pqp.plan.input_schemas();
        let outs = pqp.plan.output_schemas();
        for op in pqp.plan.ops() {
            let f = operator_features(
                op,
                &pqp,
                &dep,
                &ins[op.id.idx()],
                &outs[op.id.idx()],
                &FeatureMask::all(),
            );
            assert_eq!(
                f.len(),
                operator_feature_dim(&op.kind),
                "dim mismatch for {}",
                op.kind.label()
            );
        }
    }

    #[test]
    fn features_are_bounded() {
        let (pqp, cluster, dep) = sample_pqp();
        let ins = pqp.plan.input_schemas();
        let outs = pqp.plan.output_schemas();
        for op in pqp.plan.ops() {
            let f = operator_features(
                op,
                &pqp,
                &dep,
                &ins[op.id.idx()],
                &outs[op.id.idx()],
                &FeatureMask::all(),
            );
            for (i, v) in f.iter().enumerate() {
                assert!(
                    (FEATURE_MIN..=FEATURE_MAX).contains(v),
                    "{} feature {i} out of range: {v}",
                    op.kind.label()
                );
            }
        }
        for (i, node) in cluster.nodes.iter().enumerate() {
            let f = resource_features(node, i, &FeatureMask::all());
            assert_eq!(f.len(), RESOURCE_DIM);
            assert!(f.iter().all(|v| (0.0..=2.5).contains(v)));
        }
    }

    #[test]
    fn parallelism_mask_zeroes_parallelism_block() {
        let (pqp, _c, dep) = sample_pqp();
        let ins = pqp.plan.input_schemas();
        let outs = pqp.plan.output_schemas();
        let op = &pqp.plan.ops()[1]; // filter with parallelism 4
        let masked = operator_features(
            op,
            &pqp,
            &dep,
            &ins[1],
            &outs[1],
            &FeatureMask::operator_only(),
        );
        assert!(masked[..5].iter().all(|&v| v == 0.0));
        // data block still populated
        assert!(masked[5] > 0.0);
        let full = operator_features(op, &pqp, &dep, &ins[1], &outs[1], &FeatureMask::all());
        assert!(full[0] > 0.0, "parallelism feature missing in full mask");
        assert_eq!(masked.len(), full.len());
    }

    #[test]
    fn operator_mask_zeroes_operator_block() {
        let (pqp, _c, dep) = sample_pqp();
        let ins = pqp.plan.input_schemas();
        let outs = pqp.plan.output_schemas();
        let op = &pqp.plan.ops()[1];
        let masked = operator_features(
            op,
            &pqp,
            &dep,
            &ins[1],
            &outs[1],
            &FeatureMask::parallelism_resource_only(),
        );
        assert!(masked[5..].iter().all(|&v| v == 0.0));
        assert!(masked[0] > 0.0);
    }

    #[test]
    fn resource_mask_zeroes_resource_features() {
        let node = ClusterType::C6420.node(0, 10.0);
        let masked = resource_features(&node, 0, &FeatureMask::operator_only());
        assert!(masked.iter().all(|&v| v == 0.0));
        let full = resource_features(&node, 0, &FeatureMask::all());
        assert!(full.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn parallelism_feature_monotone() {
        let (mut pqp, cluster, _dep) = sample_pqp();
        let ir = pqp.plan.validate().expect("generated plan seals");
        let ins = pqp.plan.input_schemas();
        let outs = pqp.plan.output_schemas();
        let mut last = -1.0f32;
        for p in [1u32, 4, 16, 64, 128] {
            pqp.set_parallelism(zt_query::OpId(1), p);
            let dep = place_with(&pqp, &ir, &cluster, ChainingMode::Auto);
            let f = operator_features(
                &pqp.plan.ops()[1].clone(),
                &pqp,
                &dep,
                &ins[1],
                &outs[1],
                &FeatureMask::all(),
            );
            assert!(f[0] > last, "parallelism feature not monotone at p={p}");
            last = f[0];
        }
    }

    #[test]
    fn mask_labels() {
        assert_eq!(FeatureMask::all().label(), "all");
        assert_eq!(FeatureMask::operator_only().label(), "operator-only");
        assert_eq!(
            FeatureMask::parallelism_resource_only().label(),
            "parallelism+resource"
        );
    }
}
