//! Steady-state analytical performance model.
//!
//! Given a [`ParallelQueryPlan`] deployed on a [`Cluster`], the solver
//! computes the two cost metrics of the paper (Definitions 1 and 2):
//!
//! * **End-to-end latency** — the longest source→sink path through the
//!   plan, where each operator contributes M/M/1-style sojourn time
//!   (service inflated by `1/(1−ρ)`), windowed operators add the expected
//!   residence until their window fires, and each non-chained exchange adds
//!   serialization plus (for off-node traffic) network transfer. Constant
//!   `L_in`/`L_out` terms model reading from / writing to external systems.
//! * **Throughput** — the sustained ingestion rate. If any operator
//!   instance or worker node would exceed the utilization target, the
//!   sources are throttled (backpressure) until the bottleneck sits at the
//!   target; throughput is the throttled total source rate.
//!
//! The solver runs a small fixed-point iteration because join service
//! times depend on window contents, which depend on the (possibly
//! throttled) rates.

use rand::Rng;
use serde::{Deserialize, Serialize};
use zt_query::{JoinOp, OpId, OperatorKind, ParallelQueryPlan, Partitioning, PlanIr, TupleSchema};

use crate::cluster::Cluster;
use crate::costmodel::CostModel;
use crate::noise::NoiseConfig;
use crate::placement::{place_with, ChainingMode, Deployment, EdgeExchange};

// --- Shared solver constants ---------------------------------------------
//
// These constants parameterize the latency composition of the solver and
// are also consumed by the static interval analysis in `zt_core::bounds`,
// which must bracket the solver exactly. Keeping them as named `pub const`s
// (instead of inline literals) guarantees the two cannot drift.

/// In-process hand-off latency of a chained (operator-fused) edge, ms.
pub const CHAINED_HOP_MS: f64 = 0.002;
/// Fixed per-exchange overhead (queue hand-off, task wake-up), ms.
pub const EXCHANGE_OVERHEAD_MS: f64 = 0.01;
/// Cap on the in-flight-buffer wait added to exchanges under
/// backpressure, ms (credit-based flow control bounds the buffered data).
pub const INFLIGHT_WAIT_CAP_MS: f64 = 250.0;
/// Cap on the utilization entering the M/M/1 `1/(1 − ρ)` sojourn factor,
/// so throttled-but-saturated operators keep a finite sojourn time.
pub const RHO_CAP: f64 = 0.98;
/// Cap on the aggregate network utilization entering the congestion
/// factor `1/(1 − u_net)`.
pub const NET_UTIL_CAP: f64 = 0.95;

/// Configuration of the analytical simulator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    pub cost: CostModel,
    pub chaining: ChainingMode,
    /// Backpressure throttles sources so the hottest resource sits at this
    /// utilization (Flink's credit-based flow control keeps pipelines just
    /// below saturation).
    pub utilization_target: f64,
    pub noise: NoiseConfig,
    /// Constant external input+output latency (`L_in + L_out` of
    /// Definition 1), ms.
    pub external_io_ms: f64,
    /// Event-time ingestion penalty under backpressure. Definition 1
    /// measures latency from the *production* of a tuple; when the offered
    /// rate exceeds capacity, events queue up in front of the sources, so
    /// the measured latency grows with the excess ratio over the
    /// measurement window. This constant is half a typical measurement
    /// window (ms).
    pub backpressure_ingest_ms: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cost: CostModel::default(),
            chaining: ChainingMode::Auto,
            utilization_target: 0.95,
            noise: NoiseConfig::default(),
            external_io_ms: 1.0,
            backpressure_ingest_ms: 5_000.0,
        }
    }
}

impl SimConfig {
    /// Deterministic configuration without measurement noise.
    pub fn noiseless() -> Self {
        SimConfig {
            noise: NoiseConfig::none(),
            ..SimConfig::default()
        }
    }
}

/// Per-operator solver output.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpMetrics {
    /// Total tuples/s arriving at the operator (after backpressure).
    pub input_rate: f64,
    /// Total tuples/s emitted.
    pub output_rate: f64,
    /// Per-tuple work of one instance, µs (including exchange work).
    pub work_us: f64,
    /// Utilization of the hottest instance.
    pub utilization: f64,
    /// M/M/1 sojourn contribution, ms.
    pub sojourn_ms: f64,
    /// Expected window residence, ms (0 for unwindowed operators).
    pub residence_ms: f64,
}

/// The solver's result for one deployment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// End-to-end latency (Definition 1), ms. For multi-sink plans this
    /// is the *maximum* over [`QueryMetrics::latency_per_sink_ms`].
    pub latency_ms: f64,
    /// Definition-1 latency per sink, in sink-id order (one entry per
    /// sink of the plan; single-sink plans have exactly one, equal to
    /// `latency_ms`).
    #[serde(default)]
    pub latency_per_sink_ms: Vec<f64>,
    /// Sustained throughput (Definition 2), tuples/s.
    pub throughput: f64,
    /// Total offered source rate, tuples/s.
    pub offered_rate: f64,
    /// Source throttle factor ∈ (0, 1]; < 1 means backpressure.
    pub backpressure_scale: f64,
    /// Bottleneck utilization at the *offered* rate (may exceed 1).
    pub bottleneck_utilization: f64,
    pub per_op: Vec<OpMetrics>,
    pub deployment: Deployment,
}

impl QueryMetrics {
    pub fn backpressured(&self) -> bool {
        self.backpressure_scale < 1.0
    }
}

/// Steady-state rates of a plan at one source throttle factor. Public so
/// the interval analysis in `zt_core::bounds` can evaluate the solver's
/// rate transfer function at the endpoints of a throttle interval.
pub struct Rates {
    /// Total input rate per operator.
    pub input: Vec<f64>,
    /// Total output rate per operator.
    pub output: Vec<f64>,
    /// Rate flowing over each plan edge.
    pub edge: Vec<f64>,
}

/// Expected tuples one join instance holds in its left and right windows,
/// given each side's total input rate and the join's effective degree
/// `p`: window contents are per instance (hash co-partitioning splits
/// each stream `p` ways). The solver, the static bounds and the dataflow
/// rate facts all read the window populations from here.
pub fn join_windows(j: &JoinOp, in_l: f64, in_r: f64, p: f64) -> (f64, f64) {
    (
        j.window.tuples_per_window(in_l / p),
        j.window.tuples_per_window(in_r / p),
    )
}

/// Matches per second before selectivity: every arriving tuple meets the
/// whole opposite per-instance window (Def. 5).
fn join_pairs(j: &JoinOp, in_l: f64, in_r: f64, p: f64) -> f64 {
    let (wl, wr) = join_windows(j, in_l, in_r, p);
    in_l * wr + in_r * wl
}

/// Total output rate (tuples/s) of one operator: the per-operator rate
/// transfer every rate in the workspace is derived from. `input` is the
/// summed input rate (a source's own, possibly throttled, event rate),
/// `sides` the left/right input rates of a join (ignored otherwise) and
/// `p` the operator's effective degree (only joins depend on it).
pub fn output_rate(kind: &OperatorKind, input: f64, sides: (f64, f64), p: f64) -> f64 {
    match kind {
        OperatorKind::Source(_) | OperatorKind::Sink(_) => input,
        OperatorKind::Filter(f) => input * f.selectivity,
        // `sel × |W|` groups fire every emission period; amortized this
        // is `in × sel × overlap` results/s (see Def. 6).
        OperatorKind::Aggregate(a) => input * a.selectivity * a.window.overlap_factor(),
        OperatorKind::Join(j) => j.selectivity * join_pairs(j, sides.0, sides.1, p),
    }
}

/// Propagate rates through the sealed plan at a given source throttle
/// factor.
pub fn propagate_with(pqp: &ParallelQueryPlan, ir: &PlanIr, scale: f64) -> Rates {
    let plan = &pqp.plan;
    let n = plan.num_ops();
    let mut input = vec![0f64; n];
    let mut output = vec![0f64; n];
    for &id in ir.topo_order() {
        let i = id.idx();
        let kind = &plan.op(id).kind;
        let up = ir.upstream(id);
        let side = |k: usize| up.get(k).map_or(0.0, |u| output[u.idx()]);
        let sides = (side(0), side(1));
        input[i] = match kind {
            OperatorKind::Source(s) => s.event_rate * scale,
            OperatorKind::Join(_) => sides.0 + sides.1,
            _ => up.iter().map(|u| output[u.idx()]).sum(),
        };
        let p = pqp.effective_parallelism_of(id).max(1) as f64;
        output[i] = output_rate(kind, input[i], sides, p);
    }
    let edge = plan.edges().iter().map(|&(u, _)| output[u.idx()]).collect();
    Rates {
        input,
        output,
        edge,
    }
}

/// Expected tuples in the *opposite* window of one join instance, averaged
/// over arrival sides; 0 for non-joins.
fn join_other_window(pqp: &ParallelQueryPlan, ir: &PlanIr, rates: &Rates, id: OpId) -> f64 {
    let OperatorKind::Join(j) = &pqp.plan.op(id).kind else {
        return 0.0;
    };
    let p = pqp.effective_parallelism_of(id).max(1) as f64;
    let up = ir.upstream(id);
    let in_l = up.first().map_or(0.0, |u| rates.output[u.idx()]);
    let in_r = up.get(1).map_or(0.0, |u| rates.output[u.idx()]);
    join_pairs(j, in_l, in_r, p) / (in_l + in_r).max(1e-9)
}

/// Whether [`work_profile_with`] applies the cost model's hash-skew multiplier
/// to hash-partitioned operators. [`SkewMode::None`] models a perfectly
/// balanced partitioner — the lower envelope used by `zt_core::bounds`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SkewMode {
    Model,
    None,
}

/// Per-instance and per-node utilization profile at one set of rates.
/// Public (like [`Rates`]) for the interval analysis in `zt_core::bounds`.
pub struct WorkProfile {
    /// \[op\] utilization of the hottest instance.
    pub hottest_util: Vec<f64>,
    /// \[node\] demand / cores.
    pub node_util: Vec<f64>,
    /// \[op\] mean per-tuple work µs at 1 GHz.
    pub work_us: Vec<f64>,
}

/// Per-instance and per-node utilization of the sealed plan at the given
/// rates. Per-operator exchange work comes from the IR's O(degree) edge
/// slices.
// The argument list is the solver's full evaluation context; bundling it
// into a struct would obscure that this *is* the transfer function.
#[allow(clippy::too_many_arguments)]
pub fn work_profile_with(
    pqp: &ParallelQueryPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    dep: &Deployment,
    cm: &CostModel,
    rates: &Rates,
    in_schemas: &[TupleSchema],
    out_schemas: &[TupleSchema],
    skew_mode: SkewMode,
) -> WorkProfile {
    let plan = &pqp.plan;
    let n = plan.num_ops();
    let mut hottest = vec![0f64; n];
    let mut node_util = vec![0f64; cluster.num_workers()];
    let mut work_us = vec![0f64; n];

    for op in plan.ops() {
        let id = op.id;
        let i = id.idx();
        let p = pqp.effective_parallelism_of(id).max(1) as f64;
        let nodes = dep.instance_nodes(id);
        let other_w = join_other_window(pqp, ir, rates, id);
        // Skew: hash-partitioned input concentrates load on the hottest
        // instance. The first input edge defines the partitioning, as in
        // `ParallelQueryPlan::input_partitioning`.
        let input_part = ir
            .first_input_edge(id)
            .map_or(Partitioning::Forward, |e| pqp.partitioning[e as usize]);
        let skew = if skew_mode == SkewMode::Model && input_part == Partitioning::Hash {
            cm.hash_skew
        } else {
            1.0
        };

        // Per-tuple exchange work (serialization both directions, hash
        // routing), in µs at 1 GHz, per *input* tuple and *output* tuple.
        // Each accumulator sums its edge subset in insertion order — the
        // same order (and therefore bitwise the same f64 sum) as the old
        // whole-edge-list scan.
        let mut deser_us = 0.0;
        let mut ser_us_total = 0.0;
        for (&u, &e) in ir.upstream(id).iter().zip(ir.upstream_edges(id)) {
            let e = e as usize;
            if dep.edge_exchange[e].is_chained() {
                continue;
            }
            deser_us += cm.serialization_us(&out_schemas[u.idx()]) * rates.edge[e];
        }
        for &e in ir.downstream_edges(id) {
            let e = e as usize;
            if dep.edge_exchange[e].is_chained() {
                continue;
            }
            let mut s = cm.serialization_us(&out_schemas[i]);
            if pqp.partitioning[e] == Partitioning::Hash {
                s += cm.hash_route_us;
            }
            ser_us_total += s * rates.edge[e];
        }

        let srv_us = cm.service_us(
            &op.kind,
            &in_schemas[i],
            &out_schemas[i],
            rates.input[i] / p,
            other_w,
        );

        // Work per second of one instance at 1 GHz, µs/s.
        let inst_work_per_s = (rates.input[i] * srv_us + deser_us + ser_us_total) / p;

        work_us[i] = if rates.input[i] > 0.0 {
            inst_work_per_s * p / rates.input[i]
        } else {
            srv_us
        };

        let mut utils = Vec::with_capacity(nodes.len());
        for &node in nodes {
            let ghz = cluster.nodes[node].cpu_ghz;
            let u = inst_work_per_s / ghz * 1e-6; // fraction of one core
            utils.push(u);
            node_util[node] += u;
        }
        let max_u = utils.iter().copied().fold(0.0f64, f64::max);
        hottest[i] = max_u * skew;
    }

    // Normalize node utilization by core count.
    for (n_idx, spec) in cluster.nodes.iter().enumerate() {
        node_util[n_idx] /= spec.cores.max(1) as f64;
    }

    WorkProfile {
        hottest_util: hottest,
        node_util,
        work_us,
    }
}

/// Run the analytical model. `rng` drives the measurement noise; pass a
/// seeded RNG for reproducible labels.
///
/// A one-shot entry point: it takes a bare plan and seals it once inside
/// [`simulate_core`]. It keeps that signature because the `perfbench`
/// harness imports it.
pub fn simulate<R: Rng + ?Sized>(
    pqp: &ParallelQueryPlan,
    cluster: &Cluster,
    cfg: &SimConfig,
    rng: &mut R,
) -> QueryMetrics {
    let mut metrics = simulate_core(pqp, cluster, cfg);
    apply_noise(&mut metrics, &cfg.noise, rng);
    metrics
}

/// Multiply the two headline metrics by lognormal measurement-noise
/// factors. Draws nothing from `rng` when both σ are zero, so noiseless
/// runs leave the RNG stream untouched (the contract the label cache and
/// the sharded data generator rely on).
pub fn apply_noise<R: Rng + ?Sized>(metrics: &mut QueryMetrics, noise: &NoiseConfig, rng: &mut R) {
    let lf = noise.latency_factor(rng);
    metrics.latency_ms *= lf;
    for l in &mut metrics.latency_per_sink_ms {
        *l *= lf;
    }
    metrics.throughput *= noise.throughput_factor(rng);
}

/// The deterministic part of [`simulate`]: everything except measurement
/// noise. Two calls with the same `(pqp, cluster, cfg)` return identical
/// metrics, which makes the result memoizable — see
/// [`crate::simcache::SimCache`].
pub fn simulate_core(pqp: &ParallelQueryPlan, cluster: &Cluster, cfg: &SimConfig) -> QueryMetrics {
    debug_assert!(pqp.validate().is_ok(), "simulate() requires a valid PQP");
    let _span = zt_telemetry::span("sim.solve");
    zt_telemetry::counter_add("sim.solves", 1);
    let plan = &pqp.plan;
    // Seal the topology once; every traversal below is an O(degree)
    // slice lookup on the IR.
    let ir = plan.validate().expect("simulate() requires a valid plan");
    let dep = place_with(pqp, &ir, cluster, cfg.chaining);
    let in_schemas = ir.input_schemas();
    let out_schemas = ir.output_schemas();
    let cm = &cfg.cost;

    let offered: f64 = ir
        .sources()
        .iter()
        .map(|&s| match &plan.op(s).kind {
            OperatorKind::Source(src) => src.event_rate,
            _ => 0.0,
        })
        .sum();

    // --- Backpressure fixed point -----------------------------------
    let mut scale = 1.0f64;
    let mut bottleneck_at_offered = 0.0f64;
    let mut rates = propagate_with(pqp, &ir, scale);
    let mut profile = work_profile_with(
        pqp,
        &ir,
        cluster,
        &dep,
        cm,
        &rates,
        in_schemas,
        out_schemas,
        SkewMode::Model,
    );
    for iter in 0..6 {
        let u_inst = profile.hottest_util.iter().copied().fold(0.0f64, f64::max);
        let u_node = profile.node_util.iter().copied().fold(0.0f64, f64::max);
        let u = u_inst.max(u_node);
        if iter == 0 {
            bottleneck_at_offered = u;
        }
        if u > cfg.utilization_target {
            scale *= cfg.utilization_target / u;
            rates = propagate_with(pqp, &ir, scale);
            profile = work_profile_with(
                pqp,
                &ir,
                cluster,
                &dep,
                cm,
                &rates,
                in_schemas,
                out_schemas,
                SkewMode::Model,
            );
        } else {
            break;
        }
    }

    // --- Network congestion ------------------------------------------
    let mut remote_bytes_per_s = 0.0f64;
    for (e, &(u, _)) in plan.edges().iter().enumerate() {
        let remote_frac = 1.0 - dep.edge_exchange[e].local_fraction();
        remote_bytes_per_s += rates.edge[e] * out_schemas[u.idx()].bytes() as f64 * remote_frac;
    }
    let agg_link_bytes: f64 = cluster
        .nodes
        .iter()
        .map(|n| n.network_gbps * 1e9 / 8.0)
        .sum();
    let net_util = (remote_bytes_per_s / agg_link_bytes.max(1.0)).min(NET_UTIL_CAP);
    let net_congestion = 1.0 / (1.0 - net_util);

    // --- Per-operator latency contributions --------------------------
    let n = plan.num_ops();
    let mut per_op = Vec::with_capacity(n);
    for op in plan.ops() {
        let i = op.id.idx();
        let p = pqp.effective_parallelism_of(op.id).max(1) as f64;
        let rho = profile.hottest_util[i].min(RHO_CAP);
        // Oversubscribed nodes stretch service times (processor sharing).
        let stretch = dep
            .instance_nodes(op.id)
            .iter()
            .map(|&nd| profile.node_util[nd].max(1.0))
            .fold(1.0f64, f64::max);
        let work_ms = profile.work_us[i] * 1e-3 * stretch
            / cluster
                .nodes
                .get(dep.instance_nodes(op.id)[0])
                .map_or(1.0, |nsp| nsp.cpu_ghz);
        // Queueing acts on processing batches (network buffers), not on
        // single tuples: a batch only fills as fast as tuples arrive, and
        // is handed over after the flush timeout at the latest.
        let inst_rate = rates.input[i] / p;
        let batch = cm
            .batch_tuples
            .min(inst_rate * cm.buffer_timeout_ms * 1e-3 + 1.0);
        let sojourn_ms = work_ms * batch / (1.0 - rho);
        let residence_ms = match op.kind.window() {
            Some(w) => w.emission_period_secs(rates.input[i] / p) / 2.0 * 1e3,
            None => 0.0,
        };
        per_op.push(OpMetrics {
            input_rate: rates.input[i],
            output_rate: rates.output[i],
            work_us: profile.work_us[i],
            utilization: profile.hottest_util[i],
            sojourn_ms,
            residence_ms,
        });
    }

    // --- Edge latency contributions ----------------------------------
    let backpressured = scale < 1.0;
    let mut edge_ms = vec![0f64; plan.edges().len()];
    for (e, &(u, d)) in plan.edges().iter().enumerate() {
        edge_ms[e] = match dep.edge_exchange[e] {
            EdgeExchange::Chained => CHAINED_HOP_MS,
            EdgeExchange::Exchange { local_fraction } => {
                let schema = &out_schemas[u.idx()];
                let ghz = cluster.mean_ghz().max(0.1);
                let serde_ms = 2.0 * cm.serialization_us(schema) / ghz * 1e-3;
                let remote = 1.0 - local_fraction;
                let link = cluster.nodes[0].network_gbps;
                let net_ms = remote * (cm.net_hop_ms + cm.wire_ms(schema, link)) * net_congestion;
                // Buffer batching: tuples wait until their buffer fills or
                // the flush timeout expires. The edge rate is spread over
                // p_u × p_d channels (hash/rebalance) or p channels
                // (forward).
                let pu = pqp.effective_parallelism_of(u).max(1) as f64;
                let pd = pqp.effective_parallelism_of(d).max(1) as f64;
                let channels = match pqp.partitioning[e] {
                    Partitioning::Forward => pu,
                    Partitioning::Rebalance | Partitioning::Hash => pu * pd,
                };
                let channel_rate = (rates.edge[e] / channels).max(1e-9);
                let fill_ms = cm.batch_tuples / channel_rate * 1e3;
                let mut buffer_ms = fill_ms.min(cm.buffer_timeout_ms);
                if backpressured {
                    // Credit-based flow control: in-flight buffers sit
                    // full and drain at the (throttled) channel rate.
                    buffer_ms += (cm.inflight_buffers * fill_ms).min(INFLIGHT_WAIT_CAP_MS);
                }
                serde_ms + net_ms + buffer_ms + EXCHANGE_OVERHEAD_MS
            }
        };
    }

    // --- Longest path (joins wait for the slower input) --------------
    let mut path_ms = vec![0f64; n];
    for &id in ir.topo_order() {
        let i = id.idx();
        let own = per_op[i].sojourn_ms + per_op[i].residence_ms;
        let mut best_in = 0.0f64;
        for (&up, &e) in ir.upstream(id).iter().zip(ir.upstream_edges(id)) {
            best_in = best_in.max(path_ms[up.idx()] + edge_ms[e as usize]);
        }
        path_ms[i] = best_in + own;
    }
    // Definition-1 latency per sink; the headline is the slowest sink
    // (identical to the single value for single-sink plans).
    let mut latency_per_sink_ms: Vec<f64> = ir
        .sinks()
        .iter()
        .map(|s| path_ms[s.idx()] + cfg.external_io_ms)
        .collect();
    // Event-time queueing in front of the sources when the offered rate
    // exceeds the sustainable rate (see SimConfig::backpressure_ingest_ms).
    if scale < 1.0 {
        let ingest_ms = cfg.backpressure_ingest_ms * (1.0 / scale - 1.0);
        for l in &mut latency_per_sink_ms {
            *l += ingest_ms;
        }
    }
    let latency_ms = latency_per_sink_ms
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let throughput = offered * scale;

    QueryMetrics {
        latency_ms,
        latency_per_sink_ms,
        throughput,
        offered_rate: offered,
        backpressure_scale: scale,
        bottleneck_utilization: bottleneck_at_offered,
        per_op,
        deployment: dep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zt_query::operators::SinkOp;
    use zt_query::{
        AggFunction, AggregateOp, DataType, FilterFunction, FilterOp, JoinOp, LogicalPlan,
        SourceOp, WindowPolicy, WindowSpec,
    };

    fn linear_plan(rate: f64, sel: f64) -> LogicalPlan {
        let mut plan = LogicalPlan::new("linear");
        let s = plan.add(OperatorKind::Source(SourceOp {
            event_rate: rate,
            schema: TupleSchema::uniform(DataType::Double, 3),
            key_cardinality: None,
        }));
        let f = plan.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Gt,
            literal_class: DataType::Double,
            selectivity: sel,
        }));
        let a = plan.add(OperatorKind::Aggregate(AggregateOp {
            window: WindowSpec::tumbling(WindowPolicy::Count, 50.0),
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
        plan
    }

    fn pqp(rate: f64, p: u32) -> ParallelQueryPlan {
        ParallelQueryPlan::with_parallelism(linear_plan(rate, 0.5), vec![p, p, p, p])
    }

    fn cluster() -> Cluster {
        Cluster::homogeneous(ClusterType::M510, 4, 10.0)
    }

    #[test]
    fn rates_propagate_with_selectivity() {
        let plan = ParallelQueryPlan::new(linear_plan(1000.0, 0.5));
        let ir = plan.plan.validate().unwrap();
        let r = propagate_with(&plan, &ir, 1.0);
        assert_eq!(r.input[0], 1000.0);
        assert_eq!(r.output[0], 1000.0);
        assert_eq!(r.input[1], 1000.0);
        assert_eq!(r.output[1], 500.0);
        assert_eq!(r.input[2], 500.0);
        // tumbling count window: out = in × sel
        assert!((r.output[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn low_rate_is_not_backpressured() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = simulate(
            &pqp(500.0, 2),
            &cluster(),
            &SimConfig::noiseless(),
            &mut rng,
        );
        assert!(!m.backpressured());
        assert!((m.throughput - 500.0).abs() < 1e-6);
        assert!(m.latency_ms > 0.0 && m.latency_ms.is_finite());
    }

    #[test]
    fn overload_triggers_backpressure() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = simulate(
            &pqp(50_000_000.0, 1),
            &cluster(),
            &SimConfig::noiseless(),
            &mut rng,
        );
        assert!(m.backpressured());
        assert!(m.throughput < 50_000_000.0);
        assert!(m.bottleneck_utilization > 1.0);
    }

    #[test]
    fn more_parallelism_raises_capacity() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SimConfig::noiseless();
        let heavy = 50_000_000.0;
        let t1 = simulate(&pqp(heavy, 1), &cluster(), &cfg, &mut rng).throughput;
        let t8 = simulate(&pqp(heavy, 8), &cluster(), &cfg, &mut rng).throughput;
        assert!(t8 > t1 * 2.0, "t1={t1} t8={t8}");
    }

    #[test]
    fn more_parallelism_lowers_latency_under_load() {
        // At 3M ev/s a single instance is backpressured: events queue in
        // front of the source and event-time latency explodes; scaling
        // out removes the backpressure.
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SimConfig::noiseless();
        let rate = 3_000_000.0;
        let m1 = simulate(&pqp(rate, 1), &cluster(), &cfg, &mut rng);
        let m8 = simulate(&pqp(rate, 8), &cluster(), &cfg, &mut rng);
        assert!(m1.backpressured());
        assert!(
            m8.latency_ms < m1.latency_ms / 10.0,
            "l1={} l8={}",
            m1.latency_ms,
            m8.latency_ms
        );
    }

    #[test]
    fn faster_hardware_is_faster() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SimConfig::noiseless();
        let slow = Cluster::homogeneous(ClusterType::M510, 2, 10.0); // 2.0 GHz, 8 cores
        let fast = Cluster::homogeneous(ClusterType::Rs6525, 2, 10.0); // 2.8 GHz, 64 cores
        let heavy = 20_000_000.0;
        let t_slow = simulate(&pqp(heavy, 8), &slow, &cfg, &mut rng).throughput;
        let t_fast = simulate(&pqp(heavy, 8), &fast, &cfg, &mut rng).throughput;
        assert!(t_fast > t_slow);
    }

    #[test]
    fn chaining_reduces_latency() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut cfg = SimConfig::noiseless();
        let plan = pqp(10_000.0, 4);
        cfg.chaining = ChainingMode::Never;
        let unchained = simulate(&plan, &cluster(), &cfg, &mut rng).latency_ms;
        cfg.chaining = ChainingMode::Always;
        let chained = simulate(&plan, &cluster(), &cfg, &mut rng).latency_ms;
        assert!(
            chained < unchained,
            "chained={chained} unchained={unchained}"
        );
    }

    #[test]
    fn count_window_residence_grows_with_parallelism() {
        // Higher parallelism -> fewer tuples per instance -> count windows
        // fill more slowly (the effect the paper notes for count windows).
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = SimConfig::noiseless();
        let m2 = simulate(&pqp(5_000.0, 2), &cluster(), &cfg, &mut rng);
        let m16 = simulate(&pqp(5_000.0, 16), &cluster(), &cfg, &mut rng);
        let agg = 2usize;
        assert!(m16.per_op[agg].residence_ms > m2.per_op[agg].residence_ms);
    }

    #[test]
    fn join_query_simulates() {
        let mut plan = LogicalPlan::new("join");
        let s1 = plan.add(OperatorKind::Source(SourceOp {
            event_rate: 10_000.0,
            schema: TupleSchema::uniform(DataType::Int, 3),
            key_cardinality: None,
        }));
        let s2 = plan.add(OperatorKind::Source(SourceOp {
            event_rate: 8_000.0,
            schema: TupleSchema::uniform(DataType::Int, 3),
            key_cardinality: None,
        }));
        let j = plan.add(OperatorKind::Join(JoinOp {
            window: WindowSpec::tumbling(WindowPolicy::Time, 1_000.0),
            key_class: DataType::Int,
            selectivity: 0.001,
            key_cardinality: None,
        }));
        let k = plan.add(OperatorKind::Sink(SinkOp));
        plan.connect(s1, j);
        plan.connect(s2, j);
        plan.connect(j, k);
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![2, 2, 4, 2]);
        let mut rng = StdRng::seed_from_u64(8);
        let m = simulate(&pqp, &cluster(), &SimConfig::noiseless(), &mut rng);
        assert!(m.latency_ms.is_finite() && m.latency_ms > 0.0);
        assert!(m.throughput > 0.0);
        // join output reflects both windows
        assert!(m.per_op[2].output_rate > 0.0);
    }

    #[test]
    fn noise_changes_labels_but_not_wildly() {
        let cfg = SimConfig::default();
        let plan = pqp(10_000.0, 4);
        let mut r1 = StdRng::seed_from_u64(10);
        let mut r2 = StdRng::seed_from_u64(11);
        let a = simulate(&plan, &cluster(), &cfg, &mut r1);
        let b = simulate(&plan, &cluster(), &cfg, &mut r2);
        assert_ne!(a.latency_ms, b.latency_ms);
        let ratio = a.latency_ms / b.latency_ms;
        assert!(ratio > 0.5 && ratio < 2.0);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let cfg = SimConfig::default();
        let plan = pqp(10_000.0, 4);
        let a = simulate(&plan, &cluster(), &cfg, &mut StdRng::seed_from_u64(42));
        let b = simulate(&plan, &cluster(), &cfg, &mut StdRng::seed_from_u64(42));
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.throughput, b.throughput);
    }

    #[test]
    fn throughput_never_exceeds_offered_without_noise() {
        let cfg = SimConfig::noiseless();
        let mut rng = StdRng::seed_from_u64(12);
        for rate in [100.0, 10_000.0, 1_000_000.0, 100_000_000.0] {
            for p in [1u32, 4, 16, 64] {
                let m = simulate(&pqp(rate, p), &cluster(), &cfg, &mut rng);
                assert!(m.throughput <= m.offered_rate + 1e-6);
                assert!(m.backpressure_scale > 0.0 && m.backpressure_scale <= 1.0);
            }
        }
    }

    #[test]
    fn single_sink_per_sink_vector_equals_headline() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = simulate(
            &pqp(10_000.0, 2),
            &cluster(),
            &SimConfig::noiseless(),
            &mut rng,
        );
        assert_eq!(m.latency_per_sink_ms, vec![m.latency_ms]);
    }

    #[test]
    fn multi_sink_plan_reports_per_sink_latencies() {
        let plan = zt_query::benchmarks::smart_grid_combined(5_000.0);
        let pqp = ParallelQueryPlan::new(plan);
        let mut rng = StdRng::seed_from_u64(14);
        let m = simulate(&pqp, &cluster(), &SimConfig::noiseless(), &mut rng);
        assert_eq!(m.latency_per_sink_ms.len(), 2);
        // headline = max over the per-sink Definition-1 latencies
        let max = m
            .latency_per_sink_ms
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(m.latency_ms, max);
        assert!(m
            .latency_per_sink_ms
            .iter()
            .all(|l| l.is_finite() && *l > 0.0));
        assert!(m.throughput > 0.0);
    }
}
