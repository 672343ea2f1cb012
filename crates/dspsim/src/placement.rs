//! Scheduler: operator chaining, slot assignment and data locality.
//!
//! Mirrors the deployment decisions a DSP scheduler (Flink's job/task
//! manager) makes before execution:
//!
//! 1. **Operator chaining.** Adjacent operators connected by a
//!    forward-partitioned edge with equal parallelism can be fused into one
//!    task ("chain group"); fused hand-offs are function calls, paying no
//!    serialization or network cost. The paper's *grouping number* feature
//!    (Table I) is the size of this group. The [`ChainingMode::Auto`]
//!    policy reproduces the behaviour behind Fig. 3 of the paper: with
//!    plenty of free slots the scheduler keeps operators *unchained* to
//!    exploit pipeline parallelism across cores, and switches to fused
//!    execution once the deployment needs a large share of the cluster's
//!    slots — causing the sudden cost improvement the paper highlights at
//!    high parallelism degrees.
//! 2. **Slot assignment.** Every node offers one slot per core. Group
//!    instances are placed round-robin over the slot list, wrapping when
//!    the deployment is larger than the cluster (oversubscription is then
//!    penalized by the node-utilization model in [`crate::analytical`]).
//! 3. **Locality.** For every non-chained edge we compute the fraction of
//!    traffic that stays on the same node (no NIC crossing).

use serde::{Deserialize, Serialize};
use zt_query::{OpId, ParallelQueryPlan, Partitioning, PlanIr};

use crate::cluster::Cluster;

/// Chaining policy of the scheduler.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Default)]
pub enum ChainingMode {
    /// Chain only when the deployment would otherwise need more than
    /// ~90% of the cluster's slots (trades pipeline parallelism for
    /// fusion; see module docs and Fig. 3).
    #[default]
    Auto,
    /// Always chain chainable edges (Flink's default configuration).
    Always,
    /// Never chain.
    Never,
}

/// How data moves across one plan edge at runtime.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum EdgeExchange {
    /// Both operators are fused into the same task: in-process hand-off.
    Chained,
    /// A real exchange; `local_fraction` of the traffic stays on-node.
    Exchange { local_fraction: f64 },
}

impl EdgeExchange {
    pub fn is_chained(&self) -> bool {
        matches!(self, EdgeExchange::Chained)
    }

    pub fn local_fraction(&self) -> f64 {
        match self {
            EdgeExchange::Chained => 1.0,
            EdgeExchange::Exchange { local_fraction } => *local_fraction,
        }
    }
}

/// A set of chained operators deployed as one task with `parallelism`
/// parallel instances.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChainGroup {
    /// Member operators in data-flow order.
    pub ops: Vec<OpId>,
    pub parallelism: u32,
    /// Node index (into the cluster's node list) hosting each instance.
    pub instance_nodes: Vec<usize>,
}

/// The scheduler's output: chain groups, instance placement and edge
/// exchange characteristics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Deployment {
    pub groups: Vec<ChainGroup>,
    /// Group index per operator (indexed by `OpId`).
    pub op_group: Vec<usize>,
    /// Exchange kind per plan edge (parallel to `plan.edges()`).
    pub edge_exchange: Vec<EdgeExchange>,
    /// Total task slots in the cluster (= total cores).
    pub total_slots: usize,
    /// Whether the Auto policy decided to fuse (exposed for tests and the
    /// Fig. 3 micro-benchmark).
    pub chained: bool,
}

impl Deployment {
    /// The paper's *grouping number* feature: how many operators are fused
    /// into `op`'s task.
    pub fn grouping_number(&self, op: OpId) -> u32 {
        self.groups[self.op_group[op.idx()]].ops.len() as u32
    }

    /// Node index of each parallel instance of `op`.
    pub fn instance_nodes(&self, op: OpId) -> &[usize] {
        &self.groups[self.op_group[op.idx()]].instance_nodes
    }

    /// `(node index, #instances)` pairs for `op` — the operator-resource
    /// mapping edges of the paper's graph representation.
    pub fn instance_counts(&self, op: OpId) -> Vec<(usize, u32)> {
        let mut counts: Vec<u32> = Vec::new();
        for &n in self.instance_nodes(op) {
            if counts.len() <= n {
                counts.resize(n + 1, 0);
            }
            counts[n] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect()
    }

    /// Total deployed task instances (after chaining).
    pub fn total_instances(&self) -> usize {
        self.groups.iter().map(|g| g.parallelism as usize).sum()
    }
}

/// Fraction of the slot budget above which [`ChainingMode::Auto`] fuses.
pub const AUTO_CHAIN_SLOT_PRESSURE: f64 = 0.9;

/// Compute the deployment of `pqp` on `cluster` under the given chaining
/// policy, reading the topology from the plan's sealed [`PlanIr`].
pub fn place_with(
    pqp: &ParallelQueryPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    mode: ChainingMode,
) -> Deployment {
    let plan = &pqp.plan;
    let n_ops = plan.num_ops();
    let total_slots: usize = cluster.total_cores() as usize;

    // 1. Structural chain candidates: forward edge + equal parallelism +
    //    the downstream op has exactly this one input. Parallelism here is
    //    the *effective* (physically active) degree — the same notion
    //    `reset_partitioning` uses to assign Forward.
    let candidate = |i: usize| -> bool {
        let (u, d) = plan.edges()[i];
        pqp.partitioning[i] == Partitioning::Forward
            && pqp.effective_parallelism_of(u) == pqp.effective_parallelism_of(d)
            && ir.upstream(d).len() == 1
    };

    // 2. Policy: chain or not. Slot pressure counts the instances that
    //    will actually be scheduled (effective degrees).
    let unchained_instances: u64 = plan
        .ops()
        .iter()
        .map(|op| pqp.effective_parallelism_of(op.id) as u64)
        .sum();
    let chain = match mode {
        ChainingMode::Always => true,
        ChainingMode::Never => false,
        ChainingMode::Auto => {
            unchained_instances as f64 > AUTO_CHAIN_SLOT_PRESSURE * total_slots as f64
        }
    };

    // 3. Union-find over chained edges.
    let mut parent: Vec<usize> = (0..n_ops).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    if chain {
        for i in 0..plan.edges().len() {
            if candidate(i) {
                let (u, d) = plan.edges()[i];
                let ru = find(&mut parent, u.idx());
                let rd = find(&mut parent, d.idx());
                if ru != rd {
                    parent[rd] = ru;
                }
            }
        }
    }

    // Group ids in topological order for stable output.
    let mut group_of_root: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    let mut groups: Vec<ChainGroup> = Vec::new();
    let mut op_group = vec![usize::MAX; n_ops];
    for &id in ir.topo_order() {
        let root = find(&mut parent, id.idx());
        let g = *group_of_root.entry(root).or_insert_with(|| {
            groups.push(ChainGroup {
                ops: Vec::new(),
                // Chained edges require equal *effective* parallelism, so
                // every member of the group schedules this many instances.
                parallelism: pqp.effective_parallelism_of(id),
                instance_nodes: Vec::new(),
            });
            groups.len() - 1
        });
        groups[g].ops.push(id);
        op_group[id.idx()] = g;
    }

    // 4. Slot assignment: round-robin over the slot list, wrapping.
    let mut slot_node: Vec<usize> = Vec::with_capacity(total_slots);
    for (n, spec) in cluster.nodes.iter().enumerate() {
        for _ in 0..spec.cores {
            slot_node.push(n);
        }
    }
    // Interleave slots across nodes (slot 0 of node 0, slot 0 of node 1, …)
    // so low-parallelism deployments spread over machines.
    let mut interleaved: Vec<usize> = Vec::with_capacity(total_slots);
    let max_cores = cluster.nodes.iter().map(|n| n.cores).max().unwrap_or(0);
    for c in 0..max_cores {
        for (n, spec) in cluster.nodes.iter().enumerate() {
            if c < spec.cores {
                interleaved.push(n);
            }
        }
    }
    debug_assert_eq!(interleaved.len(), total_slots);

    let mut offset = 0usize;
    for g in &mut groups {
        g.instance_nodes = (0..g.parallelism as usize)
            .map(|j| interleaved[(offset + j) % total_slots.max(1)])
            .collect();
        offset += g.parallelism as usize;
    }

    // 5. Edge exchange characteristics.
    let edge_exchange = plan
        .edges()
        .iter()
        .enumerate()
        .map(|(i, &(u, d))| {
            if op_group[u.idx()] == op_group[d.idx()] {
                return EdgeExchange::Chained;
            }
            let up_nodes = &groups[op_group[u.idx()]].instance_nodes;
            let down_nodes = &groups[op_group[d.idx()]].instance_nodes;
            let local_fraction = match pqp.partitioning[i] {
                // Forward routes instance k -> instance k.
                Partitioning::Forward => {
                    let pairs = up_nodes.len().min(down_nodes.len()).max(1);
                    let local = up_nodes
                        .iter()
                        .zip(down_nodes.iter())
                        .filter(|(a, b)| a == b)
                        .count();
                    local as f64 / pairs as f64
                }
                // Hash/rebalance route uniformly over all downstream
                // instances: P(local) = Σ_n P(up on n)·P(down on n).
                Partitioning::Rebalance | Partitioning::Hash => {
                    let num_nodes = cluster.num_workers();
                    let mut up_cnt = vec![0f64; num_nodes];
                    let mut down_cnt = vec![0f64; num_nodes];
                    for &n in up_nodes {
                        up_cnt[n] += 1.0;
                    }
                    for &n in down_nodes {
                        down_cnt[n] += 1.0;
                    }
                    let pu = up_nodes.len().max(1) as f64;
                    let pd = down_nodes.len().max(1) as f64;
                    (0..num_nodes)
                        .map(|n| (up_cnt[n] / pu) * (down_cnt[n] / pd))
                        .sum()
                }
            };
            EdgeExchange::Exchange { local_fraction }
        })
        .collect();

    Deployment {
        groups,
        op_group,
        edge_exchange,
        total_slots,
        chained: chain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterType;
    use zt_query::operators::SinkOp;
    use zt_query::{
        AggFunction, AggregateOp, DataType, FilterFunction, FilterOp, LogicalPlan, OperatorKind,
        SourceOp, TupleSchema, WindowPolicy, WindowSpec,
    };

    fn seal(pqp: &ParallelQueryPlan) -> PlanIr {
        pqp.plan.validate().expect("test plan seals")
    }

    fn linear_pqp(p: u32) -> ParallelQueryPlan {
        let mut plan = LogicalPlan::new("linear");
        let s = plan.add(OperatorKind::Source(SourceOp {
            event_rate: 10_000.0,
            schema: TupleSchema::uniform(DataType::Double, 3),
            key_cardinality: None,
        }));
        let f = plan.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Gt,
            literal_class: DataType::Double,
            selectivity: 0.5,
        }));
        let a = plan.add(OperatorKind::Aggregate(AggregateOp {
            window: WindowSpec::tumbling(WindowPolicy::Count, 10.0),
            function: AggFunction::Avg,
            agg_class: DataType::Double,
            key_class: Some(DataType::Int),
            selectivity: 0.2,
            key_cardinality: None,
        }));
        let k = plan.add(OperatorKind::Sink(SinkOp));
        plan.connect(s, f);
        plan.connect(f, a);
        plan.connect(a, k);
        ParallelQueryPlan::with_parallelism(plan, vec![p, p, p, p])
    }

    #[test]
    fn always_mode_chains_forward_edges() {
        let pqp = linear_pqp(2);
        let cluster = Cluster::homogeneous(ClusterType::M510, 2, 10.0);
        let d = place_with(&pqp, &seal(&pqp), &cluster, ChainingMode::Always);
        // source+filter chained; agg+sink chained; hash edge separates them.
        assert_eq!(d.groups.len(), 2);
        assert_eq!(d.grouping_number(OpId(0)), 2);
        assert_eq!(d.grouping_number(OpId(2)), 2);
        assert!(d.edge_exchange[0].is_chained());
        assert!(!d.edge_exchange[1].is_chained());
        assert!(d.edge_exchange[2].is_chained());
    }

    use zt_query::OpId;

    #[test]
    fn never_mode_keeps_ops_separate() {
        let pqp = linear_pqp(2);
        let cluster = Cluster::homogeneous(ClusterType::M510, 2, 10.0);
        let d = place_with(&pqp, &seal(&pqp), &cluster, ChainingMode::Never);
        assert_eq!(d.groups.len(), 4);
        assert!(d.edge_exchange.iter().all(|e| !e.is_chained()));
        assert_eq!(d.grouping_number(OpId(1)), 1);
    }

    #[test]
    fn auto_mode_fuses_under_slot_pressure() {
        let cluster = Cluster::homogeneous(ClusterType::M510, 2, 10.0); // 16 slots
        let low = linear_pqp(2); // 8 instances
        let low = place_with(&low, &seal(&low), &cluster, ChainingMode::Auto);
        assert!(!low.chained);
        assert_eq!(low.groups.len(), 4);
        let high = linear_pqp(8); // 32 instances
        let high = place_with(&high, &seal(&high), &cluster, ChainingMode::Auto);
        assert!(high.chained);
        assert_eq!(high.groups.len(), 2);
    }

    #[test]
    fn instances_spread_across_nodes() {
        let pqp = linear_pqp(4);
        let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
        let d = place_with(&pqp, &seal(&pqp), &cluster, ChainingMode::Never);
        let nodes = d.instance_nodes(OpId(1));
        assert_eq!(nodes.len(), 4);
        // interleaved slots: 4 instances land on 4 distinct nodes
        let distinct: std::collections::HashSet<_> = nodes.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn oversubscription_wraps() {
        let pqp = linear_pqp(64);
        let cluster = Cluster::homogeneous(ClusterType::M510, 2, 10.0); // 16 slots
        let d = place_with(&pqp, &seal(&pqp), &cluster, ChainingMode::Always);
        assert_eq!(d.instance_nodes(OpId(0)).len(), 64);
        // all instances still map to valid nodes
        assert!(d.instance_nodes(OpId(0)).iter().all(|&n| n < 2));
    }

    #[test]
    fn local_fraction_in_unit_interval() {
        for p in [1u32, 2, 4, 16, 64] {
            let pqp = linear_pqp(p);
            let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
            let d = place_with(&pqp, &seal(&pqp), &cluster, ChainingMode::Auto);
            for e in &d.edge_exchange {
                let f = e.local_fraction();
                assert!((0.0..=1.0).contains(&f), "local fraction {f} out of range");
            }
        }
    }

    #[test]
    fn instance_counts_sum_to_parallelism() {
        let pqp = linear_pqp(10);
        let cluster = Cluster::homogeneous(ClusterType::M510, 3, 10.0);
        let d = place_with(&pqp, &seal(&pqp), &cluster, ChainingMode::Never);
        let counts = d.instance_counts(OpId(2));
        let total: u32 = counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn hash_edge_never_chains() {
        let pqp = linear_pqp(32);
        let cluster = Cluster::homogeneous(ClusterType::M510, 1, 10.0);
        let d = place_with(&pqp, &seal(&pqp), &cluster, ChainingMode::Always);
        // edge 1 (filter -> keyed agg) is hash partitioned
        assert!(!d.edge_exchange[1].is_chained());
    }

    #[test]
    fn single_node_cluster_is_fully_local() {
        let pqp = linear_pqp(4);
        let cluster = Cluster::homogeneous(ClusterType::M510, 1, 10.0);
        let d = place_with(&pqp, &seal(&pqp), &cluster, ChainingMode::Never);
        for e in &d.edge_exchange {
            assert!((e.local_fraction() - 1.0).abs() < 1e-12);
        }
    }
}
