//! The parallel graph representation (Section III-C2 of the paper).
//!
//! A [`GraphEncoding`] has one node per *distinct operator* — parallel
//! instances are aggregated into a single node (the paper's design option
//! (2): per-instance nodes would add thousands of near-duplicate nodes and
//! edges without new information) — plus one node per worker machine.
//! Three edge sets drive the three message-passing phases:
//!
//! 1. **physical** edges between resource nodes (the cluster
//!    interconnect),
//! 2. **operator-resource mapping** edges from each resource to every
//!    operator with instances on it, weighted by the instance fraction
//!    (preserving the per-instance mapping information the paper keeps on
//!    the edges), and
//! 3. **data-flow** edges following the plan topology to the sink, where
//!    the prediction is read out.
//!
//! Note on phase order: the paper passes messages data-flow → physical →
//! mapping; we apply physical → mapping → data-flow so that resource
//! information reaches the *sink* through the data-flow pass (with the
//! paper's order, resource state entering upstream operators after the
//! data-flow pass could never influence the read-out in a single sweep).

use serde::{Deserialize, Serialize};
use zt_dspsim::cluster::Cluster;
use zt_dspsim::placement::{place_with, ChainingMode, Deployment};
use zt_query::{LogicalPlan, OperatorKind, ParallelQueryPlan, PlanIr, TupleSchema};

use crate::features::{operator_features, resource_features, FeatureMask};

/// Node type: selects which encoder MLP embeds the node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum NodeKind {
    Source,
    Filter,
    Aggregate,
    Join,
    Sink,
    Resource,
}

impl NodeKind {
    pub const ALL: [NodeKind; 6] = [
        NodeKind::Source,
        NodeKind::Filter,
        NodeKind::Aggregate,
        NodeKind::Join,
        NodeKind::Sink,
        NodeKind::Resource,
    ];

    fn of(kind: &OperatorKind) -> NodeKind {
        match kind {
            OperatorKind::Source(_) => NodeKind::Source,
            OperatorKind::Filter(_) => NodeKind::Filter,
            OperatorKind::Aggregate(_) => NodeKind::Aggregate,
            OperatorKind::Join(_) => NodeKind::Join,
            OperatorKind::Sink(_) => NodeKind::Sink,
        }
    }
}

/// One node of the encoded graph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphNode {
    pub kind: NodeKind,
    pub features: Vec<f32>,
}

/// A parallel query plan encoded for the GNN.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphEncoding {
    pub nodes: Vec<GraphNode>,
    /// Data-flow edges `(upstream, downstream)` between operator nodes.
    pub data_flow: Vec<(usize, usize)>,
    /// Physical edges between resource nodes.
    pub physical: Vec<(usize, usize)>,
    /// Mapping edges `(resource, operator, weight)`; weight = fraction of
    /// the operator's instances hosted by the resource.
    pub mapping: Vec<(usize, usize, f32)>,
    /// Operator-node indices in topological order.
    pub topo: Vec<usize>,
    /// Index of the sink node (prediction read-out).
    pub sink: usize,
}

impl GraphEncoding {
    /// Number of operator nodes.
    pub fn num_operator_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind != NodeKind::Resource)
            .count()
    }

    /// Number of resource nodes.
    pub fn num_resource_nodes(&self) -> usize {
        self.nodes.len() - self.num_operator_nodes()
    }
}

/// Encode a deployed parallel query plan.
///
/// The deployment (chaining decisions, instance placement) is computed
/// here so the *grouping number* and mapping-edge weights reflect what the
/// scheduler will actually do. A one-shot entry point: it seals the plan
/// once and encodes through [`EncodeContext`]. It keeps this bare-plan
/// signature because the `perfbench` harness imports it.
pub fn encode(
    pqp: &ParallelQueryPlan,
    cluster: &Cluster,
    chaining: ChainingMode,
    mask: &FeatureMask,
) -> GraphEncoding {
    let ir = pqp.plan.validate().expect("encode() requires a valid plan");
    EncodeContext::with_ir(&pqp.plan, &ir, cluster, mask).encode_sealed(pqp, &ir, cluster, chaining)
}

/// Parallelism-independent encoding state, computed once per
/// (plan, cluster, mask) and reused across what-if candidates.
///
/// The optimizer evaluates dozens of parallelism vectors for the *same*
/// logical plan on the *same* cluster; schemas, topological order,
/// data-flow edges and per-worker resource feature vectors never change
/// between candidates, so only the parallelism-dependent operator features
/// and the deployment-dependent edges are recomputed per candidate.
pub struct EncodeContext {
    in_schemas: Vec<TupleSchema>,
    out_schemas: Vec<TupleSchema>,
    data_flow: Vec<(usize, usize)>,
    topo: Vec<usize>,
    sink: usize,
    /// Feature vector of every cluster worker (used or not).
    resource_feats: Vec<Vec<f32>>,
    mask: FeatureMask,
}

impl EncodeContext {
    /// Build the context from the plan's sealed [`PlanIr`] (schemas, topo
    /// order and sink are copied out of the IR instead of being recomputed).
    pub fn with_ir(plan: &LogicalPlan, ir: &PlanIr, cluster: &Cluster, mask: &FeatureMask) -> Self {
        EncodeContext {
            in_schemas: ir.input_schemas().to_vec(),
            out_schemas: ir.output_schemas().to_vec(),
            data_flow: plan
                .edges()
                .iter()
                .map(|&(u, d)| (u.idx(), d.idx()))
                .collect(),
            topo: ir.topo_order().iter().map(|id| id.idx()).collect(),
            sink: ir.sink().idx(),
            resource_feats: cluster
                .nodes
                .iter()
                .enumerate()
                .map(|(i, spec)| resource_features(spec, i, mask))
                .collect(),
            mask: *mask,
        }
    }

    /// Encode one candidate: places the plan, then re-derives only the
    /// parallelism-dependent parts of the encoding.
    pub fn encode_sealed(
        &self,
        pqp: &ParallelQueryPlan,
        ir: &PlanIr,
        cluster: &Cluster,
        chaining: ChainingMode,
    ) -> GraphEncoding {
        let dep = place_with(pqp, ir, cluster, chaining);
        self.encode_with_deployment(pqp, cluster, &dep)
    }

    /// Encode one candidate with an already-computed deployment.
    pub fn encode_with_deployment(
        &self,
        pqp: &ParallelQueryPlan,
        cluster: &Cluster,
        dep: &Deployment,
    ) -> GraphEncoding {
        let plan = &pqp.plan;
        let mut nodes: Vec<GraphNode> = plan
            .ops()
            .iter()
            .map(|op| GraphNode {
                kind: NodeKind::of(&op.kind),
                features: operator_features(
                    op,
                    pqp,
                    dep,
                    &self.in_schemas[op.id.idx()],
                    &self.out_schemas[op.id.idx()],
                    &self.mask,
                ),
            })
            .collect();

        let n_ops = nodes.len();
        // Only materialize resource nodes that actually host instances.
        let mut used = vec![false; cluster.num_workers()];
        for op in plan.ops() {
            for &(node, _) in &dep.instance_counts(op.id) {
                used[node] = true;
            }
        }
        let mut resource_node_of = vec![usize::MAX; cluster.num_workers()];
        for (i, feats) in self.resource_feats.iter().enumerate() {
            if used[i] {
                resource_node_of[i] = nodes.len();
                nodes.push(GraphNode {
                    kind: NodeKind::Resource,
                    features: feats.clone(),
                });
            }
        }

        // Physical edges: a ring over the used resources (the cluster
        // interconnect); a single resource has no physical edges.
        let used_resources: Vec<usize> = resource_node_of
            .iter()
            .copied()
            .filter(|&r| r != usize::MAX)
            .collect();
        let mut physical = Vec::new();
        if used_resources.len() > 1 {
            for w in used_resources.windows(2) {
                physical.push((w[0], w[1]));
                physical.push((w[1], w[0]));
            }
        }

        // Mapping edges: resource -> operator, weighted by instance share.
        // The deployment schedules effective instances, so the share is
        // normalized by the same effective degree.
        let mut mapping = Vec::new();
        for op in plan.ops() {
            let p = pqp.effective_parallelism_of(op.id).max(1) as f32;
            for (node, count) in dep.instance_counts(op.id) {
                mapping.push((resource_node_of[node], op.id.idx(), count as f32 / p));
            }
        }

        GraphEncoding {
            nodes,
            data_flow: self.data_flow.clone(),
            physical,
            mapping,
            topo: self.topo.clone(),
            sink: self.sink,
        }
        .tap_check(n_ops)
    }
}

impl GraphEncoding {
    fn tap_check(self, n_ops: usize) -> Self {
        debug_assert!(self.sink < n_ops);
        debug_assert!(self.data_flow.iter().all(|&(u, d)| u < n_ops && d < n_ops));
        debug_assert!(self
            .mapping
            .iter()
            .all(|&(r, o, w)| r >= n_ops && o < n_ops && (0.0..=1.0001).contains(&w)));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zt_dspsim::cluster::ClusterType;
    use zt_query::{QueryGenerator, QueryStructure};

    fn make(structure: QueryStructure, p: u32, workers: usize) -> GraphEncoding {
        let mut rng = StdRng::seed_from_u64(3);
        let plan = QueryGenerator::seen().generate(structure, &mut rng);
        let n = plan.num_ops();
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![p; n]);
        let cluster = Cluster::homogeneous(ClusterType::M510, workers, 10.0);
        encode(&pqp, &cluster, ChainingMode::Auto, &FeatureMask::all())
    }

    #[test]
    fn linear_graph_shape() {
        let g = make(QueryStructure::Linear, 2, 2);
        // linear chains have 3 or 4 operators depending on the sampled
        // variant (filter-only / agg-only / filter+agg)
        let n = g.num_operator_nodes();
        assert!((3..=4).contains(&n), "linear has {n} operator nodes");
        assert!(g.num_resource_nodes() >= 1);
        assert_eq!(g.data_flow.len(), n - 1);
        assert_eq!(g.topo.len(), n);
        assert_eq!(g.sink, n - 1);
    }

    #[test]
    fn join_graph_has_more_nodes() {
        let g2 = make(QueryStructure::TwoWayJoin, 2, 2);
        let g6 = make(QueryStructure::NWayJoin(6), 2, 2);
        assert!(g6.num_operator_nodes() > g2.num_operator_nodes());
        assert_eq!(g6.num_operator_nodes(), 6 + 6 + 5 + 1 + 1);
    }

    #[test]
    fn mapping_weights_sum_to_one_per_operator() {
        let g = make(QueryStructure::ThreeWayJoin, 4, 3);
        let n_ops = g.num_operator_nodes();
        for op in 0..n_ops {
            let total: f32 = g
                .mapping
                .iter()
                .filter(|&&(_, o, _)| o == op)
                .map(|&(_, _, w)| w)
                .sum();
            assert!((total - 1.0).abs() < 1e-5, "op {op} weights sum {total}");
        }
    }

    #[test]
    fn physical_edges_form_connected_ring() {
        let g = make(QueryStructure::Linear, 8, 4);
        // with several used workers there must be physical edges in both
        // directions
        if g.num_resource_nodes() > 1 {
            assert!(!g.physical.is_empty());
            assert_eq!(g.physical.len() % 2, 0);
        }
    }

    #[test]
    fn single_worker_has_no_physical_edges() {
        let g = make(QueryStructure::Linear, 2, 1);
        assert_eq!(g.num_resource_nodes(), 1);
        assert!(g.physical.is_empty());
    }

    #[test]
    fn node_count_independent_of_parallelism() {
        // This is the point of design option (2): parallel instances are
        // aggregated, so the graph does not grow with the parallelism.
        let g1 = make(QueryStructure::Linear, 1, 2);
        let g64 = make(QueryStructure::Linear, 64, 2);
        assert_eq!(g1.num_operator_nodes(), g64.num_operator_nodes());
    }

    #[test]
    fn parallelism_changes_features_not_structure() {
        let g1 = make(QueryStructure::Linear, 1, 2);
        let g64 = make(QueryStructure::Linear, 64, 2);
        assert_eq!(g1.data_flow, g64.data_flow);
        // but the parallelism feature differs
        assert!(g1.nodes[1].features[0] < g64.nodes[1].features[0]);
    }

    #[test]
    fn context_encoding_matches_direct_encoding() {
        let mut rng = StdRng::seed_from_u64(9);
        let plan = QueryGenerator::seen().generate(QueryStructure::ThreeWayJoin, &mut rng);
        let n = plan.num_ops();
        let cluster = Cluster::homogeneous(ClusterType::M510, 3, 10.0);
        let mask = FeatureMask::all();
        let ir = plan.validate().unwrap();
        let ctx = EncodeContext::with_ir(&plan, &ir, &cluster, &mask);
        let mut pqp = ParallelQueryPlan::new(plan.clone());
        for p in [1u32, 2, 7, 16] {
            pqp.parallelism = vec![p; n];
            pqp.reset_partitioning();
            let cached = ctx.encode_sealed(&pqp, &ir, &cluster, ChainingMode::Auto);
            let direct = encode(&pqp, &cluster, ChainingMode::Auto, &mask);
            assert_eq!(cached.data_flow, direct.data_flow);
            assert_eq!(cached.physical, direct.physical);
            assert_eq!(cached.mapping, direct.mapping);
            assert_eq!(cached.topo, direct.topo);
            assert_eq!(cached.sink, direct.sink);
            assert_eq!(cached.nodes.len(), direct.nodes.len());
            for (a, b) in cached.nodes.iter().zip(direct.nodes.iter()) {
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.features, b.features);
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let g = make(QueryStructure::TwoWayJoin, 2, 2);
        let s = serde_json::to_string(&g).unwrap();
        let back: GraphEncoding = serde_json::from_str(&s).unwrap();
        assert_eq!(back.nodes.len(), g.nodes.len());
        assert_eq!(back.sink, g.sink);
    }
}
