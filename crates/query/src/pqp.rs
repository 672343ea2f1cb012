//! Parallel query plans (PQPs).
//!
//! A [`ParallelQueryPlan`] augments a [`LogicalPlan`] with the runtime
//! knobs the paper tunes: a per-operator *parallelism degree* and a
//! per-edge *partitioning strategy* (forward / rebalance / hash, as in
//! Flink). This is the object the cost model predicts on and the optimizer
//! searches over.

use serde::{Deserialize, Serialize};

use crate::params::ParallelismCategory;
use crate::plan::{LogicalPlan, PlanError, PlanIr};
use crate::types::OpId;

/// Strategy for distributing tuples from an upstream instance to the
/// downstream operator's parallel instances ("Partitioning strategy"
/// feature; Flink's forward / rebalance / hash schemes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Partitioning {
    /// One-to-one local forwarding; requires equal parallelism and enables
    /// operator chaining.
    Forward,
    /// Round-robin redistribution across all downstream instances.
    Rebalance,
    /// Key-hash redistribution; required by keyed (stateful) operators.
    Hash,
}

impl Partitioning {
    pub const ALL: [Partitioning; 3] = [
        Partitioning::Forward,
        Partitioning::Rebalance,
        Partitioning::Hash,
    ];

    #[inline]
    pub fn one_hot_index(self) -> usize {
        match self {
            Partitioning::Forward => 0,
            Partitioning::Rebalance => 1,
            Partitioning::Hash => 2,
        }
    }
}

impl std::fmt::Display for Partitioning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Partitioning::Forward => "forward",
            Partitioning::Rebalance => "rebalance",
            Partitioning::Hash => "hash",
        };
        f.write_str(s)
    }
}

/// Errors specific to parallel plans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PqpError {
    Plan(PlanError),
    /// Parallelism must be ≥ 1 (constraint of Eq. 1 in the paper).
    ZeroParallelism(OpId),
    /// A forward edge requires equal parallelism on both ends.
    ForwardMismatch(OpId, OpId),
    /// A keyed operator's input must be hash partitioned.
    MissingHash(OpId),
}

impl std::fmt::Display for PqpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PqpError::Plan(e) => write!(f, "{e}"),
            PqpError::ZeroParallelism(id) => write!(f, "{id} has parallelism 0"),
            PqpError::ForwardMismatch(a, b) => write!(
                f,
                "forward edge {a} -> {b} requires equal parallelism degrees"
            ),
            PqpError::MissingHash(id) => {
                write!(f, "keyed operator {id} requires hash-partitioned input")
            }
        }
    }
}

impl std::error::Error for PqpError {}

impl From<PlanError> for PqpError {
    fn from(e: PlanError) -> Self {
        PqpError::Plan(e)
    }
}

/// A logical plan together with its parallel deployment configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParallelQueryPlan {
    pub plan: LogicalPlan,
    /// Parallelism degree per operator, indexed by [`OpId`].
    pub parallelism: Vec<u32>,
    /// Partitioning strategy per edge, parallel to `plan.edges()`.
    pub partitioning: Vec<Partitioning>,
}

impl ParallelQueryPlan {
    /// Wrap a logical plan with parallelism 1 everywhere and default
    /// partitioning.
    pub fn new(plan: LogicalPlan) -> Self {
        let n = plan.num_ops();
        let mut pqp = ParallelQueryPlan {
            parallelism: vec![1; n],
            partitioning: Vec::new(),
            plan,
        };
        pqp.reset_partitioning();
        pqp
    }

    /// Wrap a plan with explicit per-operator parallelism degrees.
    pub fn with_parallelism(plan: LogicalPlan, parallelism: Vec<u32>) -> Self {
        assert_eq!(plan.num_ops(), parallelism.len());
        let mut pqp = ParallelQueryPlan {
            parallelism,
            partitioning: Vec::new(),
            plan,
        };
        pqp.reset_partitioning();
        pqp
    }

    #[inline]
    pub fn parallelism_of(&self, id: OpId) -> u32 {
        self.parallelism[id.idx()]
    }

    /// Effective (non-idle) parallelism of `id`: the deployed degree capped
    /// at the operator's declared key cardinality when its input is hash
    /// partitioned (see [`OperatorKind::effective_parallelism`]). Equals
    /// the deployed degree whenever no cardinality metadata is declared.
    ///
    /// [`OperatorKind::effective_parallelism`]: crate::operators::OperatorKind::effective_parallelism
    #[inline]
    pub fn effective_parallelism_of(&self, id: OpId) -> u32 {
        self.plan
            .op(id)
            .kind
            .effective_parallelism(self.parallelism[id.idx()])
    }

    /// Set one operator's parallelism and recompute default partitioning
    /// (forward edges may turn into rebalance and vice versa).
    pub fn set_parallelism(&mut self, id: OpId, p: u32) {
        self.parallelism[id.idx()] = p;
        self.reset_partitioning();
    }

    /// Recompute the default (Flink-like) partitioning for every edge:
    /// hash into keyed operators, forward between equal-parallelism
    /// operators, rebalance otherwise.
    ///
    /// Equality is checked on *effective* parallelism (the physically
    /// active instance counts): forwarding is one-to-one between active
    /// instances, so a cardinality-capped operator forwards from its
    /// active instances only. Identical to raw-degree equality whenever no
    /// cardinality metadata is declared.
    pub fn reset_partitioning(&mut self) {
        self.partitioning = self
            .plan
            .edges()
            .iter()
            .map(|&(u, d)| {
                if self.plan.op(d).kind.requires_hash_input() {
                    Partitioning::Hash
                } else if self.effective_parallelism_of(u) == self.effective_parallelism_of(d) {
                    Partitioning::Forward
                } else {
                    Partitioning::Rebalance
                }
            })
            .collect();
    }

    /// Partitioning of the edge `upstream -> downstream`, if it exists.
    pub fn edge_partitioning(&self, upstream: OpId, downstream: OpId) -> Option<Partitioning> {
        self.plan
            .edges()
            .iter()
            .position(|&(u, d)| u == upstream && d == downstream)
            .map(|i| self.partitioning[i])
    }

    /// Partitioning of the (first) input edge of `id`; sources report
    /// `Forward`.
    pub fn input_partitioning(&self, id: OpId) -> Partitioning {
        self.plan
            .edges()
            .iter()
            .position(|&(_, d)| d == id)
            .map_or(Partitioning::Forward, |i| self.partitioning[i])
    }

    /// Total number of parallel operator instances (the deployment's task
    /// count).
    pub fn total_instances(&self) -> u64 {
        self.parallelism.iter().map(|&p| p as u64).sum()
    }

    /// Average parallelism degree per operator; the paper buckets queries
    /// into XS..XL categories on this value (Exp. 2).
    pub fn avg_parallelism(&self) -> f64 {
        if self.parallelism.is_empty() {
            return 0.0;
        }
        self.total_instances() as f64 / self.parallelism.len() as f64
    }

    /// Maximum parallelism degree of any operator.
    pub fn max_parallelism(&self) -> u32 {
        self.parallelism.iter().copied().max().unwrap_or(0)
    }

    /// The paper's parallelism category (XS, S, M, L, XL) of this plan.
    pub fn parallelism_category(&self) -> ParallelismCategory {
        ParallelismCategory::from_avg(self.avg_parallelism())
    }

    /// Validate the underlying plan plus the parallel configuration; on
    /// success returns the plan's sealed [`PlanIr`].
    pub fn validate(&self) -> Result<PlanIr, PqpError> {
        let ir = self.plan.validate()?;
        for op in self.plan.ops() {
            if self.parallelism[op.id.idx()] == 0 {
                return Err(PqpError::ZeroParallelism(op.id));
            }
        }
        for (i, &(u, d)) in self.plan.edges().iter().enumerate() {
            match self.partitioning[i] {
                Partitioning::Forward => {
                    // One-to-one forwarding pairs *active* instances, so the
                    // constraint (like `reset_partitioning`) is on effective
                    // parallelism.
                    if self.effective_parallelism_of(u) != self.effective_parallelism_of(d) {
                        return Err(PqpError::ForwardMismatch(u, d));
                    }
                }
                Partitioning::Rebalance | Partitioning::Hash => {}
            }
            if self.plan.op(d).kind.requires_hash_input()
                && self.partitioning[i] != Partitioning::Hash
            {
                return Err(PqpError::MissingHash(d));
            }
        }
        Ok(ir)
    }
}

impl std::fmt::Display for ParallelQueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "parallel plan `{}`:", self.plan.name)?;
        for op in self.plan.ops() {
            writeln!(
                f,
                "  {} [{} x{}]",
                op.id,
                op.kind.label(),
                self.parallelism[op.id.idx()]
            )?;
        }
        for (i, &(u, d)) in self.plan.edges().iter().enumerate() {
            writeln!(f, "  {} -> {} ({})", u, d, self.partitioning[i])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::*;
    use crate::types::{DataType, TupleSchema};

    fn linear_plan() -> LogicalPlan {
        let mut p = LogicalPlan::new("linear");
        let s = p.add(OperatorKind::Source(SourceOp {
            event_rate: 1000.0,
            schema: TupleSchema::uniform(DataType::Double, 3),
            key_cardinality: None,
        }));
        let f = p.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Gt,
            literal_class: DataType::Double,
            selectivity: 0.4,
        }));
        let a = p.add(OperatorKind::Aggregate(AggregateOp {
            window: WindowSpec::tumbling(WindowPolicy::Count, 10.0),
            function: AggFunction::Avg,
            agg_class: DataType::Double,
            key_class: Some(DataType::Int),
            selectivity: 0.2,
            key_cardinality: None,
        }));
        let k = p.add(OperatorKind::Sink(SinkOp));
        p.connect(s, f);
        p.connect(f, a);
        p.connect(a, k);
        p
    }

    #[test]
    fn default_partitioning() {
        let pqp = ParallelQueryPlan::new(linear_plan());
        assert!(pqp.validate().is_ok());
        // equal parallelism everywhere -> forward, except hash into the
        // keyed aggregate
        assert_eq!(
            pqp.edge_partitioning(OpId(0), OpId(1)),
            Some(Partitioning::Forward)
        );
        assert_eq!(
            pqp.edge_partitioning(OpId(1), OpId(2)),
            Some(Partitioning::Hash)
        );
        assert_eq!(
            pqp.edge_partitioning(OpId(2), OpId(3)),
            Some(Partitioning::Forward)
        );
    }

    #[test]
    fn parallelism_change_updates_partitioning() {
        let mut pqp = ParallelQueryPlan::new(linear_plan());
        pqp.set_parallelism(OpId(1), 4);
        assert!(pqp.validate().is_ok());
        assert_eq!(
            pqp.edge_partitioning(OpId(0), OpId(1)),
            Some(Partitioning::Rebalance)
        );
        assert_eq!(pqp.total_instances(), 1 + 4 + 1 + 1);
        assert!((pqp.avg_parallelism() - 7.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_parallelism_rejected() {
        let mut pqp = ParallelQueryPlan::new(linear_plan());
        pqp.parallelism[1] = 0;
        assert_eq!(pqp.validate(), Err(PqpError::ZeroParallelism(OpId(1))));
    }

    #[test]
    fn forward_mismatch_rejected() {
        let mut pqp = ParallelQueryPlan::new(linear_plan());
        pqp.parallelism[1] = 3; // edge 0->1 is still Forward in the stale vector
        assert_eq!(
            pqp.validate(),
            Err(PqpError::ForwardMismatch(OpId(0), OpId(1)))
        );
    }

    #[test]
    fn hash_requirement_enforced() {
        let mut pqp = ParallelQueryPlan::new(linear_plan());
        pqp.partitioning[1] = Partitioning::Rebalance; // into keyed agg
        assert_eq!(pqp.validate(), Err(PqpError::MissingHash(OpId(2))));
    }

    #[test]
    fn category_from_avg() {
        let mut pqp = ParallelQueryPlan::new(linear_plan());
        assert_eq!(pqp.parallelism_category(), ParallelismCategory::XS);
        for i in 0..4 {
            pqp.parallelism[i] = 40;
        }
        assert_eq!(pqp.parallelism_category(), ParallelismCategory::L);
    }

    #[test]
    fn input_partitioning_for_sources_is_forward() {
        let pqp = ParallelQueryPlan::new(linear_plan());
        assert_eq!(pqp.input_partitioning(OpId(0)), Partitioning::Forward);
        assert_eq!(pqp.input_partitioning(OpId(2)), Partitioning::Hash);
    }
}
