//! Interval abstract interpretation over parallel query plans: provable
//! cost bounds without executing the simulator.
//!
//! From a [`ParallelQueryPlan`] + [`Cluster`] + parallelism assignment
//! alone, [`analyze_with`] derives *sound* lower/upper bounds on per-operator
//! arrival rate, service demand, utilization and end-to-end
//! latency/throughput. The abstract domain is the closed interval
//! `[lo, hi] ⊂ [0, ∞]`; the transfer functions mirror the steady-state
//! solver in `zt_dspsim::analytical` — the same rate propagation, the same
//! work profile, the same latency composition — but evaluate each of them
//! over an interval instead of a point.
//!
//! Where does the interval width come from? The solver's only
//! state-dependent decisions are the hash-partitioning **skew** multiplier
//! (the discrete-event engine models a perfectly balanced partitioner, the
//! analytical solver a skewed one) and the **backpressure throttle** the
//! skewed/unskewed utilization implies. The analysis therefore evaluates
//! the shared transfer functions at the envelope's endpoints:
//!
//! 1. The utilization interval at the offered rate is
//!    `[profile(skew off), profile(skew on)]` — the upper endpoint is
//!    *bitwise* the solver's `bottleneck_utilization` because it calls the
//!    very same [`work_profile_with`] the solver calls.
//! 2. The solver's throttle loop converges after a single adjustment
//!    (utilization is sub-linear in the throttle: every rate scales at
//!    most linearly and window/service terms are monotone), so the
//!    backpressure-scale interval is `[target/u_hi, target/u_lo]` clamped
//!    to 1 — again exact against the solver at the lower endpoint.
//! 3. All per-operator quantities are then evaluated by interval
//!    arithmetic over the rate intervals `[rates(scale_lo), rates(1)]`
//!    (rates are monotone in the throttle, so endpoint evaluation is
//!    sound; service/window terms that are *not* monotone in the throttle
//!    — e.g. a join's opposite-window average — use per-term min/max
//!    envelopes instead).
//!
//! Two latency intervals are reported:
//!
//! * [`BoundsReport::latency_ms`] — Definition 1 semantics (what
//!   `simulate_core` returns and the model predicts): pipeline path plus
//!   external I/O plus the event-time ingest penalty under backpressure.
//! * [`BoundsReport::pipeline_ms`] — the source→sink pipeline alone, with
//!   an engine-safe lower bound (the discrete-event engine pays neither
//!   the solver's M/M/1 inflation nor its fixed exchange overheads, so the
//!   pipeline floor only counts per-hop costs both executors provably
//!   pay). `tests/bounds_soundness.rs` locks both brackets against both
//!   executors.
//!
//! Consumers: `optimizer::tune` prunes provably-infeasible and
//! interval-dominated candidates before scoring ([`prune_mask`]), the
//! ZT5xx diagnostics cross-check model predictions against the brackets,
//! and `explain::explain_bounds` renders the per-operator table.

use serde::{Deserialize, Serialize};
use zt_dspsim::analytical::{
    join_windows, propagate_with, work_profile_with, Rates, SimConfig, SkewMode, CHAINED_HOP_MS,
    EXCHANGE_OVERHEAD_MS, INFLIGHT_WAIT_CAP_MS, NET_UTIL_CAP, RHO_CAP,
};
use zt_dspsim::cluster::Cluster;
use zt_dspsim::costmodel::CostModel;
use zt_dspsim::placement::{place_with, ChainingMode, Deployment, EdgeExchange};
use zt_query::{OperatorKind, ParallelQueryPlan, Partitioning, PlanIr};

impl std::ops::Add for Interval {
    type Output = Interval;

    /// Endpoint-wise sum (exact for the monotone latency/work terms).
    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }
}

/// Per-hop hand-off latency the discrete-event engine charges on *every*
/// edge (see `engine.rs`: one scheduler hand-off per routed batch), ms.
/// The solver charges at least [`CHAINED_HOP_MS`] ≥ this on chained edges
/// and [`EXCHANGE_OVERHEAD_MS`] ≥ this on exchanges, so it is a valid
/// pipeline floor for both executors.
const ENGINE_ROUTE_BASE_MS: f64 = 1e-3;

/// A closed non-negative interval `[lo, hi]`, `hi = ∞` allowed.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(
            lo <= hi || lo.is_nan() || hi.is_nan(),
            "inverted interval [{lo}, {hi}]"
        );
        Interval { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Smallest interval containing both operands.
    pub fn hull(self, other: Interval) -> Self {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Multiply by a non-negative scalar.
    pub fn scale(self, k: f64) -> Self {
        debug_assert!(k >= 0.0);
        Interval {
            lo: self.lo * k,
            hi: self.hi * k,
        }
    }

    /// Whether `v` lies inside, up to a relative slack of `1e-9` (the
    /// interval endpoints and the solver compute the same expressions in
    /// slightly different association orders).
    pub fn contains(self, v: f64) -> bool {
        let lo = self.lo - self.lo.abs() * 1e-9 - 1e-12;
        let hi = self.hi + self.hi.abs() * 1e-9 + 1e-12;
        v >= lo && v <= hi
    }

    /// A meaningful (non-vacuous, non-inverted) interval: no NaN
    /// endpoints, `0 ≤ lo ≤ hi`. `hi = ∞` is allowed (count windows at
    /// rate 0 never fire).
    pub fn is_wellformed(self) -> bool {
        !self.lo.is_nan() && !self.hi.is_nan() && self.lo >= 0.0 && self.lo <= self.hi
    }

    pub fn width(self) -> f64 {
        self.hi - self.lo
    }
}

/// Sound brackets for one operator's steady-state metrics — the interval
/// counterpart of [`zt_dspsim::OpMetrics`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpBounds {
    /// Total tuples/s arriving at the operator.
    pub input_rate: Interval,
    /// Total tuples/s emitted.
    pub output_rate: Interval,
    /// Per-tuple work of one instance, µs at 1 GHz.
    pub work_us: Interval,
    /// Utilization of the hottest instance (lower endpoint assumes a
    /// perfectly balanced partitioner, upper applies the skew model).
    pub utilization: Interval,
    /// M/M/1 sojourn contribution, ms.
    pub sojourn_ms: Interval,
    /// Window residence, ms (`[0, full emission period]`; the solver
    /// charges half a period, the engine anywhere from 0 to a period).
    pub residence_ms: Interval,
}

/// Configuration of the bounds analysis — the deterministic subset of
/// [`SimConfig`] (noise has no place in a guaranteed bracket).
#[derive(Clone, Debug)]
pub struct BoundsConfig {
    pub cost: CostModel,
    pub chaining: ChainingMode,
    /// Backpressure utilization target, shared with the solver.
    pub utilization_target: f64,
    /// Constant external input+output latency (`L_in + L_out`), ms.
    pub external_io_ms: f64,
    /// Event-time ingestion penalty under backpressure, ms.
    pub backpressure_ingest_ms: f64,
}

impl From<&SimConfig> for BoundsConfig {
    fn from(cfg: &SimConfig) -> Self {
        BoundsConfig {
            cost: cfg.cost.clone(),
            chaining: cfg.chaining,
            utilization_target: cfg.utilization_target,
            external_io_ms: cfg.external_io_ms,
            backpressure_ingest_ms: cfg.backpressure_ingest_ms,
        }
    }
}

impl Default for BoundsConfig {
    fn default() -> Self {
        BoundsConfig::from(&SimConfig::default())
    }
}

/// Sound lower/upper bounds for one deployment, derived statically.
#[must_use]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BoundsReport {
    /// Total offered source rate, tuples/s (a point — it is read off the
    /// plan).
    pub offered_rate: f64,
    /// The utilization target the scale bracket was derived against.
    pub utilization_target: f64,
    /// Bottleneck utilization at the *offered* rate. The upper endpoint
    /// equals the solver's `bottleneck_utilization` exactly.
    pub utilization: Interval,
    /// Source throttle factor ∈ (0, 1]. The lower endpoint equals the
    /// solver's `backpressure_scale` exactly.
    pub backpressure_scale: Interval,
    /// Sustained throughput, tuples/s. Upper bound is the offered rate —
    /// no executor can ingest more than the sources produce.
    pub throughput: Interval,
    /// End-to-end latency, Definition 1 semantics (pipeline + external
    /// I/O + ingest penalty), ms. For multi-sink plans this is the
    /// endpoint-wise maximum over [`BoundsReport::latency_per_sink_ms`].
    pub latency_ms: Interval,
    /// Per-sink Definition-1 latency brackets, one per plan sink in
    /// sink-id order (a one-element vector equal to `[latency_ms]` for
    /// single-sink plans).
    #[serde(default)]
    pub latency_per_sink_ms: Vec<Interval>,
    /// Source→sink pipeline latency alone (engine-comparable), ms.
    pub pipeline_ms: Interval,
    pub per_op: Vec<OpBounds>,
}

impl BoundsReport {
    /// Provably infeasible: even a perfectly balanced partitioner puts the
    /// bottleneck at ≥ 100% at the offered rate — guaranteed backpressure
    /// collapse on any executor sharing the cost model.
    pub fn infeasible(&self) -> bool {
        self.utilization.lo >= 1.0
    }

    /// Provably feasible: even the skewed upper envelope stays below the
    /// backpressure target, so no executor throttles the sources.
    pub fn definitely_feasible(&self) -> bool {
        self.utilization.hi <= self.utilization_target
    }

    /// Backpressure is certain (though not necessarily collapse): even the
    /// balanced lower envelope exceeds the target.
    pub fn definitely_backpressured(&self) -> bool {
        self.utilization.lo > self.utilization_target
    }

    /// Every interval is non-vacuous and non-inverted (the ZT504 check).
    pub fn is_wellformed(&self) -> bool {
        self.offered_rate.is_finite()
            && self.offered_rate >= 0.0
            && self
                .headline_intervals()
                .iter()
                .all(|(_, iv)| iv.is_wellformed())
            && self.latency_per_sink_ms.iter().all(|iv| iv.is_wellformed())
            && self.per_op.iter().all(|op| {
                op.input_rate.is_wellformed()
                    && op.output_rate.is_wellformed()
                    && op.work_us.is_wellformed()
                    && op.utilization.is_wellformed()
                    && op.sojourn_ms.is_wellformed()
                    && op.residence_ms.is_wellformed()
            })
    }

    /// The named headline intervals, for iteration in lints and rendering.
    pub fn headline_intervals(&self) -> [(&'static str, Interval); 5] {
        [
            ("utilization", self.utilization),
            ("backpressure_scale", self.backpressure_scale),
            ("throughput", self.throughput),
            ("latency_ms", self.latency_ms),
            ("pipeline_ms", self.pipeline_ms),
        ]
    }
}

/// Interval work/utilization profile over the rate envelope.
struct IntervalProfile {
    hottest: Vec<Interval>,
    node_util: Vec<Interval>,
    work_us: Vec<Interval>,
    inst_work_per_s: Vec<Interval>,
}

/// Interval counterpart of the solver's `work_profile_with`, evaluated over
/// the per-operator rate envelope `[rates_lo, rates_hi]`. The lower endpoints
/// assume a perfectly balanced partitioner (skew 1), the upper apply the
/// cost model's hash-skew multiplier — so the result brackets both the
/// analytical solver and the (skew-free) discrete-event engine.
#[allow(clippy::too_many_lines)]
fn interval_profile(
    pqp: &ParallelQueryPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    dep: &Deployment,
    cm: &CostModel,
    rates_lo: &Rates,
    rates_hi: &Rates,
) -> IntervalProfile {
    let plan = &pqp.plan;
    let n = plan.num_ops();
    let in_schemas = ir.input_schemas();
    let out_schemas = ir.output_schemas();
    let mut hottest = vec![Interval::ZERO; n];
    let mut work_us = vec![Interval::ZERO; n];
    let mut inst_work = vec![Interval::ZERO; n];
    let mut node_util = vec![Interval::ZERO; cluster.num_workers()];

    for op in plan.ops() {
        let id = op.id;
        let i = id.idx();
        let p = pqp.effective_parallelism_of(id).max(1) as f64;
        let nodes = dep.instance_nodes(id);
        let skew = if pqp.input_partitioning(id) == Partitioning::Hash {
            cm.hash_skew
        } else {
            1.0
        };
        let in_iv = Interval::new(rates_lo.input[i], rates_hi.input[i]);

        // Opposite-window envelope for joins: the solver's `other_w` is a
        // rate-weighted average of the two per-side window populations, so
        // it lies between the per-side min and max; each side's window is
        // monotone in its (monotone) input rate.
        let other_w = match &plan.op(id).kind {
            OperatorKind::Join(j) => {
                let up = ir.upstream(id);
                let l = up.first().map_or(0, |u| u.idx());
                let r = up.get(1).map_or(0, |u| u.idx());
                let (wl_lo, wr_lo) = join_windows(j, rates_lo.output[l], rates_lo.output[r], p);
                let (wl_hi, wr_hi) = join_windows(j, rates_hi.output[l], rates_hi.output[r], p);
                // The solver divides by max(in_l + in_r, 1e-9): at (near-)
                // zero input the average collapses to ~0, not to a window
                // population, so the lower envelope must drop to 0 there.
                let lo = if rates_lo.output[l] + rates_lo.output[r] <= 1e-9 {
                    0.0
                } else {
                    wl_lo.min(wr_lo)
                };
                Interval::new(lo, wl_hi.max(wr_hi))
            }
            _ => Interval::ZERO,
        };

        // Service demand is monotone in the opposite-window population and
        // independent of everything else that varies over the envelope.
        let srv = Interval::new(
            cm.service_us(
                &op.kind,
                &in_schemas[i],
                &out_schemas[i],
                in_iv.lo / p,
                other_w.lo,
            ),
            cm.service_us(
                &op.kind,
                &in_schemas[i],
                &out_schemas[i],
                in_iv.hi / p,
                other_w.hi,
            ),
        );

        // Exchange work: positive linear combination of edge rates, so the
        // interval sum over per-edge rate envelopes is sound. CSR
        // neighbor lists preserve edge-insertion order, so each interval
        // accumulator sums its edge subset in the same order as the old
        // whole-edge-list scan.
        let mut deser = Interval::ZERO;
        let mut ser = Interval::ZERO;
        for (&u, &e) in ir.upstream(id).iter().zip(ir.upstream_edges(id)) {
            let e = e as usize;
            if dep.edge_exchange[e].is_chained() {
                continue;
            }
            let edge_iv = Interval::new(rates_lo.edge[e], rates_hi.edge[e]);
            deser = deser + edge_iv.scale(cm.serialization_us(&out_schemas[u.idx()]));
        }
        for &e in ir.downstream_edges(id) {
            let e = e as usize;
            if dep.edge_exchange[e].is_chained() {
                continue;
            }
            let edge_iv = Interval::new(rates_lo.edge[e], rates_hi.edge[e]);
            let mut s = cm.serialization_us(&out_schemas[i]);
            if pqp.partitioning[e] == Partitioning::Hash {
                s += cm.hash_route_us;
            }
            ser = ser + edge_iv.scale(s);
        }

        // Work per second of one instance at 1 GHz (µs/s). The product
        // `input × srv` pairs like endpoints — both factors are evaluated
        // at the same end of the throttle envelope.
        let iw = Interval::new(
            (in_iv.lo * srv.lo + deser.lo + ser.lo) / p,
            (in_iv.hi * srv.hi + deser.hi + ser.hi) / p,
        );
        inst_work[i] = iw;

        // Mean per-tuple work: the solver computes `iw × p / input` when
        // input > 0 (its input is exactly `rates_lo.input`, so the branch
        // condition is known precisely), else the bare service demand.
        work_us[i] = if in_iv.lo > 0.0 {
            Interval::new(iw.lo * p / in_iv.hi, iw.hi * p / in_iv.lo)
        } else {
            srv
        };

        let mut max_lo = 0.0f64;
        let mut max_hi = 0.0f64;
        for &node in nodes {
            let ghz = cluster.nodes[node].cpu_ghz;
            let u_lo = iw.lo / ghz * 1e-6;
            let u_hi = iw.hi / ghz * 1e-6;
            node_util[node] = node_util[node] + Interval::new(u_lo, u_hi);
            max_lo = max_lo.max(u_lo);
            max_hi = max_hi.max(u_hi);
        }
        hottest[i] = Interval::new(max_lo, max_hi * skew);
    }

    for (n_idx, spec) in cluster.nodes.iter().enumerate() {
        node_util[n_idx] = node_util[n_idx].scale(1.0 / spec.cores.max(1) as f64);
    }

    IntervalProfile {
        hottest,
        node_util,
        work_us,
        inst_work_per_s: inst_work,
    }
}

/// One-step throttle estimate: the scale that puts `bottleneck` at the
/// target if utilization were linear in the throttle. Utilization is in
/// fact *sub*-linear, so this over-estimates the converged scale — which
/// makes it a sound **upper** endpoint (the exact lower endpoint replays
/// the solver's fixed-point loop instead).
fn scale_for(bottleneck: f64, target: f64) -> f64 {
    if bottleneck > target {
        target / bottleneck
    } else {
        1.0
    }
}

/// Statically derive sound metric brackets for one deployment of the
/// sealed plan `ir`.
///
/// Purely analytical — no simulator execution, no RNG; cost is a handful
/// of `O(ops × edges)` profile evaluations with zero-alloc topology
/// lookups. One IR serves every deployment of the same logical plan.
#[allow(clippy::too_many_lines)]
pub fn analyze_with(
    pqp: &ParallelQueryPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    cfg: &BoundsConfig,
) -> BoundsReport {
    debug_assert!(pqp.validate().is_ok(), "bounds require a valid PQP");
    let _span = zt_telemetry::span("bounds.analyze");
    zt_telemetry::counter_add("bounds.analyses", 1);
    let plan = &pqp.plan;
    let dep = place_with(pqp, ir, cluster, cfg.chaining);
    let in_schemas = ir.input_schemas();
    let out_schemas = ir.output_schemas();
    let cm = &cfg.cost;
    let target = cfg.utilization_target;

    let offered: f64 = ir
        .sources()
        .iter()
        .map(|&s| match &plan.op(s).kind {
            OperatorKind::Source(src) => src.event_rate,
            _ => 0.0,
        })
        .sum();

    // --- Utilization envelope at the offered rate --------------------
    // Point evaluations of the *solver's own* transfer functions, with
    // and without the skew model; the skewed value is bitwise the
    // solver's first-iteration bottleneck.
    let rates_hi = propagate_with(pqp, ir, 1.0);
    let bottleneck = |rates: &Rates, skew: SkewMode| -> f64 {
        let prof = work_profile_with(
            pqp,
            ir,
            cluster,
            &dep,
            cm,
            rates,
            in_schemas,
            out_schemas,
            skew,
        );
        let u_inst = prof.hottest_util.iter().copied().fold(0.0f64, f64::max);
        let u_node = prof.node_util.iter().copied().fold(0.0f64, f64::max);
        u_inst.max(u_node)
    };
    let u_hi = bottleneck(&rates_hi, SkewMode::Model);
    let u_lo = bottleneck(&rates_hi, SkewMode::None);
    let utilization = Interval::new(u_lo.min(u_hi), u_hi);

    // --- Backpressure scale envelope ---------------------------------
    // Lower endpoint: replay the solver's throttle fixed point verbatim
    // (same transfer functions, same iteration budget), so the endpoint —
    // and the rates it induces — are bitwise the solver's. A closed-form
    // `target / u_hi` is only *almost* right: utilization is sub-linear
    // in the throttle, so the solver occasionally takes a second
    // micro-adjustment that lands one ULP below the one-shot value.
    let mut scale_lo = 1.0f64;
    let mut rates_lo = propagate_with(pqp, ir, 1.0);
    for _ in 0..6 {
        let u = bottleneck(&rates_lo, SkewMode::Model);
        if u > target {
            scale_lo *= target / u;
            rates_lo = propagate_with(pqp, ir, scale_lo);
        } else {
            break;
        }
    }
    let scale = Interval::new(scale_lo, scale_for(utilization.lo, target));
    let backpressured = scale.lo < 1.0; // exact: mirrors the solver's branch
    let definitely_bp = scale.hi < 1.0;
    let profile = interval_profile(pqp, ir, cluster, &dep, cm, &rates_lo, &rates_hi);

    // --- Network congestion envelope ----------------------------------
    let agg_link_bytes: f64 = cluster
        .nodes
        .iter()
        .map(|n| n.network_gbps * 1e9 / 8.0)
        .sum();
    let remote_bytes = |rates: &Rates| -> f64 {
        plan.edges()
            .iter()
            .enumerate()
            .map(|(e, &(u, _))| {
                let remote_frac = 1.0 - dep.edge_exchange[e].local_fraction();
                rates.edge[e] * out_schemas[u.idx()].bytes() as f64 * remote_frac
            })
            .sum()
    };
    let congestion_at = |rates: &Rates| -> f64 {
        let net_util = (remote_bytes(rates) / agg_link_bytes.max(1.0)).min(NET_UTIL_CAP);
        1.0 / (1.0 - net_util)
    };
    let cong = Interval::new(congestion_at(&rates_lo), congestion_at(&rates_hi));

    // --- Per-operator brackets ----------------------------------------
    let n = plan.num_ops();
    let mut per_op = Vec::with_capacity(n);
    for op in plan.ops() {
        let i = op.id.idx();
        let p = pqp.effective_parallelism_of(op.id).max(1) as f64;
        let util = profile.hottest[i];
        let rho = Interval::new(util.lo.min(RHO_CAP), util.hi.min(RHO_CAP));
        let stretch = dep
            .instance_nodes(op.id)
            .iter()
            .map(|&nd| profile.node_util[nd])
            .fold(Interval::point(1.0), |acc, nu| {
                Interval::new(acc.lo.max(nu.lo), acc.hi.max(nu.hi))
            });
        let ghz = cluster
            .nodes
            .get(dep.instance_nodes(op.id)[0])
            .map_or(1.0, |nsp| nsp.cpu_ghz);
        let work_ms = Interval::new(
            profile.work_us[i].lo * 1e-3 * stretch.lo / ghz,
            profile.work_us[i].hi * 1e-3 * stretch.hi / ghz,
        );
        let in_iv = Interval::new(rates_lo.input[i], rates_hi.input[i]);
        let batch = Interval::new(
            cm.batch_tuples
                .min(in_iv.lo / p * cm.buffer_timeout_ms * 1e-3 + 1.0),
            cm.batch_tuples
                .min(in_iv.hi / p * cm.buffer_timeout_ms * 1e-3 + 1.0),
        );
        let sojourn = Interval::new(
            work_ms.lo * batch.lo / (1.0 - rho.lo),
            work_ms.hi * batch.hi / (1.0 - rho.hi),
        );
        // Residence: the solver charges half an emission period at its
        // (throttled) per-instance rate; the engine anywhere in
        // [0, one period]. The hull of both is [0, full period at the
        // lowest rate] (count-window periods shrink as rates grow).
        let residence = match op.kind.window() {
            Some(w) => Interval::new(0.0, w.emission_period_secs(in_iv.lo / p) * 1e3),
            None => Interval::ZERO,
        };
        per_op.push(OpBounds {
            input_rate: in_iv,
            output_rate: Interval::new(rates_lo.output[i], rates_hi.output[i]),
            work_us: profile.work_us[i],
            utilization: util,
            sojourn_ms: sojourn,
            residence_ms: residence,
        });
    }
    let _ = &profile.inst_work_per_s;

    // --- Edge brackets -------------------------------------------------
    // `edge_sim` mirrors the solver's exchange formula over the rate and
    // congestion envelopes; `edge_floor` is the per-hop cost *both*
    // executors provably pay (scheduler hand-off + base serde).
    let mut edge_sim = vec![Interval::ZERO; plan.edges().len()];
    let mut edge_floor = vec![0f64; plan.edges().len()];
    let max_ghz = cluster
        .nodes
        .iter()
        .map(|nsp| nsp.cpu_ghz)
        .fold(0.1f64, f64::max);
    for (e, &(u, d)) in plan.edges().iter().enumerate() {
        match dep.edge_exchange[e] {
            EdgeExchange::Chained => {
                edge_sim[e] = Interval::point(CHAINED_HOP_MS);
                edge_floor[e] = ENGINE_ROUTE_BASE_MS.min(CHAINED_HOP_MS);
            }
            EdgeExchange::Exchange { local_fraction } => {
                let schema = &out_schemas[u.idx()];
                let ghz = cluster.mean_ghz().max(0.1);
                let serde_ms = 2.0 * cm.serialization_us(schema) / ghz * 1e-3;
                let remote = 1.0 - local_fraction;
                let link = cluster.nodes[0].network_gbps;
                let per_hop = cm.net_hop_ms + cm.wire_ms(schema, link);
                let pu = pqp.effective_parallelism_of(u).max(1) as f64;
                let pd = pqp.effective_parallelism_of(d).max(1) as f64;
                let channels = match pqp.partitioning[e] {
                    Partitioning::Forward => pu,
                    Partitioning::Rebalance | Partitioning::Hash => pu * pd,
                };
                // Buffer fill time falls as the rate rises: the lowest
                // rate yields the largest fill.
                let fill_lo = cm.batch_tuples / (rates_hi.edge[e] / channels).max(1e-9) * 1e3;
                let fill_hi = cm.batch_tuples / (rates_lo.edge[e] / channels).max(1e-9) * 1e3;
                let mut buf_lo = fill_lo.min(cm.buffer_timeout_ms);
                let mut buf_hi = fill_hi.min(cm.buffer_timeout_ms);
                if backpressured {
                    buf_hi += (cm.inflight_buffers * fill_hi).min(INFLIGHT_WAIT_CAP_MS);
                }
                if definitely_bp {
                    buf_lo += (cm.inflight_buffers * fill_lo).min(INFLIGHT_WAIT_CAP_MS);
                }
                edge_sim[e] = Interval::new(
                    serde_ms + remote * per_hop * cong.lo + buf_lo + EXCHANGE_OVERHEAD_MS,
                    serde_ms + remote * per_hop * cong.hi + buf_hi + EXCHANGE_OVERHEAD_MS,
                );
                // Both executors pay the hand-off plus twice the base
                // serialization cost; the engine charges the latter at the
                // sending node's clock, so the cluster's fastest clock
                // floors it.
                edge_floor[e] = ENGINE_ROUTE_BASE_MS + 2.0 * cm.ser_base_us / max_ghz * 1e-3;
            }
        }
    }

    // --- Longest source→sink path over intervals ----------------------
    // Interval DP: the max over incoming alternatives brackets the max
    // over any point choice inside the brackets.
    let mut path = vec![Interval::ZERO; n];
    let mut floor_path = vec![0f64; n];
    for &id in ir.topo_order() {
        let i = id.idx();
        let own = per_op[i].sojourn_ms + per_op[i].residence_ms;
        let mut best = Interval::ZERO;
        let mut best_floor = 0.0f64;
        for (&up, &e) in ir.upstream(id).iter().zip(ir.upstream_edges(id)) {
            let e = e as usize;
            let via = path[up.idx()] + edge_sim[e];
            best = Interval::new(best.lo.max(via.lo), best.hi.max(via.hi));
            best_floor = best_floor.max(floor_path[up.idx()] + edge_floor[e]);
        }
        path[i] = best + own;
        floor_path[i] = best_floor;
    }
    // Headline brackets take the endpoint-wise maximum over the per-sink
    // intervals — exactly the solver's `max` over per-sink point values,
    // and bitwise the old single-sink expressions when there is one sink.
    let pipeline_ms = ir
        .sinks()
        .iter()
        .map(|s| {
            let si = s.idx();
            Interval::new(floor_path[si].min(path[si].hi), path[si].hi)
        })
        .fold(
            Interval::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            |acc, iv| Interval::new(acc.lo.max(iv.lo), acc.hi.max(iv.hi)),
        );

    // --- Definition 1 assembly -----------------------------------------
    let ingest = Interval::new(
        if definitely_bp {
            cfg.backpressure_ingest_ms * (1.0 / scale.hi - 1.0)
        } else {
            0.0
        },
        if backpressured {
            cfg.backpressure_ingest_ms * (1.0 / scale.lo - 1.0)
        } else {
            0.0
        },
    );
    let latency_per_sink_ms: Vec<Interval> = ir
        .sinks()
        .iter()
        .map(|s| {
            let si = s.idx();
            Interval::new(
                path[si].lo + cfg.external_io_ms + ingest.lo,
                path[si].hi + cfg.external_io_ms + ingest.hi,
            )
        })
        .collect();
    let latency_ms = latency_per_sink_ms.iter().copied().fold(
        Interval::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        |acc, iv| Interval::new(acc.lo.max(iv.lo), acc.hi.max(iv.hi)),
    );
    let throughput = Interval::new(offered * scale.lo, offered);

    BoundsReport {
        offered_rate: offered,
        utilization_target: target,
        utilization,
        backpressure_scale: scale,
        throughput,
        latency_ms,
        latency_per_sink_ms,
        pipeline_ms,
        per_op,
    }
}

/// Parallelism-independent per-operator work floors, the certificates the
/// branch-and-bound tuner ([`crate::lattice`]) prunes subtrees with.
///
/// For every operator the floor is `input_rate × srv_floor` — the
/// unthrottled input rate (rate propagation depends only on the plan and
/// the throttle, never on parallelism) times a service-demand lower bound
/// (`service_us` with an empty opposite window; service demand is monotone
/// in the opposite-window population and independent of the instance
/// rate). Serde/exchange work is dropped entirely (≥ 0). Both floors are
/// therefore sound against [`analyze_with`]'s *skew-free lower* endpoint
/// for **any** parallelism assignment and **any** placement/chaining the
/// deployment pass may choose:
///
/// * [`WorkFloors::op_util_floor`] — assigning degree `d` to op `i` puts
///   the hottest instance at ≥ `floor_i / (d · ghz_max · 1e6)`, so the
///   candidate's `utilization.lo` (a max over all ops and nodes) is at
///   least that, whatever the other ops get.
/// * [`WorkFloors::plan_util_floor`] — the max node utilization is at
///   least the capacity-weighted average `Σ floor_i / Σ (cores · ghz)`,
///   which no parallelism vector can change (total work is conserved).
#[derive(Clone, Debug)]
pub struct WorkFloors {
    /// Per-op `input_rate × srv_floor`, µs of 1 GHz work per second.
    pub per_op: Vec<f64>,
    /// Fastest clock in the cluster, GHz.
    pub max_ghz: f64,
    /// `Σ cores × ghz` over all nodes — aggregate compute capacity.
    pub capacity_ghz_cores: f64,
}

/// Derive the [`WorkFloors`] certificate state for one sealed plan.
/// Parallelism-independent: compute once per `tune` call, reuse across
/// every lattice subtree.
pub fn work_floors(
    pqp: &ParallelQueryPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    cfg: &BoundsConfig,
) -> WorkFloors {
    let plan = &pqp.plan;
    let in_schemas = ir.input_schemas();
    let out_schemas = ir.output_schemas();
    let rates_hi = propagate_with(pqp, ir, 1.0);
    let per_op = plan
        .ops()
        .iter()
        .map(|op| {
            let i = op.id.idx();
            // srv_floor: empty opposite window (joins), rate argument is
            // unused by the cost model — see `CostModel::service_us`.
            let srv_floor =
                cfg.cost
                    .service_us(&op.kind, &in_schemas[i], &out_schemas[i], 0.0, 0.0);
            rates_hi.input[i] * srv_floor
        })
        .collect();
    let max_ghz = cluster
        .nodes
        .iter()
        .map(|n| n.cpu_ghz)
        .fold(0.1f64, f64::max);
    let capacity_ghz_cores = cluster
        .nodes
        .iter()
        .map(|n| n.cores.max(1) as f64 * n.cpu_ghz)
        .sum::<f64>()
        .max(1e-9);
    WorkFloors {
        per_op,
        max_ghz,
        capacity_ghz_cores,
    }
}

impl WorkFloors {
    /// Lower bound on `utilization.lo` of **every** deployment that runs
    /// operator `i` with `degree` instances. `≥ 1.0` certifies the whole
    /// subtree infeasible ([`BoundsReport::infeasible`]).
    pub fn op_util_floor(&self, i: usize, degree: u32) -> f64 {
        self.per_op[i] / (f64::from(degree.max(1)) * self.max_ghz * 1e6)
    }

    /// Lower bound on `utilization.lo` of every deployment of the plan,
    /// for **any** parallelism vector. `≥ 1.0` certifies the entire
    /// lattice infeasible — pruning is then pointless, because
    /// [`prune_mask`] keeps all candidates when all are infeasible.
    pub fn plan_util_floor(&self) -> f64 {
        self.per_op.iter().sum::<f64>() / (self.capacity_ghz_cores * 1e6)
    }
}

/// Which candidates survive the bounds pruning pre-pass (`true` = keep).
///
/// Two sound rules:
///
/// 1. **Infeasibility** — a candidate whose utilization *lower* bound is
///    ≥ 1 collapses under backpressure on any executor; it can never be
///    the deployment anyone wants.
/// 2. **Interval dominance** — candidate `i` is discarded when some kept
///    candidate `j` is provably better on *both* metrics:
///    `j.latency.hi < i.latency.lo` and `j.throughput.lo ≥
///    i.throughput.hi`. Dominance via a strict latency ordering is
///    acyclic and transitive, so the pre-pruning reference set is safe.
///
/// Never prunes everything: when every candidate is infeasible the full
/// set is kept (the optimizer still has to pick the least-bad one), and
/// the kept candidate with the smallest latency upper bound can never be
/// dominated.
pub fn prune_mask(reports: &[BoundsReport]) -> Vec<bool> {
    let n = reports.len();
    let feasible: Vec<bool> = reports.iter().map(|r| !r.infeasible()).collect();
    if !feasible.iter().any(|&k| k) {
        return vec![true; n];
    }
    let mut keep = feasible.clone();
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        let dominated = (0..n).any(|j| {
            j != i
                && feasible[j]
                && reports[j].latency_ms.hi < reports[i].latency_ms.lo
                && reports[j].throughput.lo >= reports[i].throughput.hi
        });
        if dominated {
            keep[i] = false;
        }
    }
    debug_assert!(keep.iter().any(|&k| k), "pruning must keep a candidate");
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use zt_dspsim::cluster::ClusterType;
    use zt_dspsim::simulate_core;
    use zt_query::operators::SinkOp;
    use zt_query::{
        AggFunction, AggregateOp, DataType, FilterFunction, FilterOp, LogicalPlan, OperatorKind,
        SourceOp, TupleSchema, WindowPolicy, WindowSpec,
    };

    fn linear_plan(rate: f64) -> LogicalPlan {
        let mut plan = LogicalPlan::new("linear");
        let s = plan.add(OperatorKind::Source(SourceOp {
            event_rate: rate,
            schema: TupleSchema::uniform(DataType::Double, 3),
            key_cardinality: None,
        }));
        let f = plan.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Gt,
            literal_class: DataType::Double,
            selectivity: 0.5,
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
        ParallelQueryPlan::with_parallelism(linear_plan(rate), vec![p, p, p, p])
    }

    fn cluster() -> Cluster {
        Cluster::homogeneous(ClusterType::M510, 4, 10.0)
    }

    fn bounds_of(pqp: &ParallelQueryPlan, cluster: &Cluster, cfg: &BoundsConfig) -> BoundsReport {
        let ir = pqp.plan.validate().expect("test plan seals");
        analyze_with(pqp, &ir, cluster, cfg)
    }

    fn brackets_sim(pqp: &ParallelQueryPlan) {
        let report = bounds_of(pqp, &cluster(), &BoundsConfig::default());
        let m = simulate_core(pqp, &cluster(), &SimConfig::noiseless());
        assert!(report.is_wellformed(), "{report:?}");
        assert!(
            report.latency_ms.contains(m.latency_ms),
            "latency {} outside {:?}",
            m.latency_ms,
            report.latency_ms
        );
        assert!(
            report.throughput.contains(m.throughput),
            "throughput {} outside {:?}",
            m.throughput,
            report.throughput
        );
        assert!(report.utilization.contains(m.bottleneck_utilization));
        assert!(report.backpressure_scale.contains(m.backpressure_scale));
        for (op, b) in m.per_op.iter().zip(&report.per_op) {
            assert!(b.input_rate.contains(op.input_rate));
            assert!(b.output_rate.contains(op.output_rate));
            assert!(b.work_us.contains(op.work_us));
            assert!(b.utilization.contains(op.utilization));
            assert!(b.sojourn_ms.contains(op.sojourn_ms));
            assert!(b.residence_ms.contains(op.residence_ms));
        }
    }

    #[test]
    fn brackets_the_solver_across_load_levels() {
        for rate in [100.0, 10_000.0, 1_000_000.0, 50_000_000.0] {
            for p in [1u32, 4, 16] {
                brackets_sim(&pqp(rate, p));
            }
        }
    }

    #[test]
    fn exact_endpoints_against_the_solver() {
        // The skewed utilization endpoint and the derived throttle are
        // bitwise the solver's values (shared transfer functions).
        let q = pqp(5_000_000.0, 2);
        let report = bounds_of(&q, &cluster(), &BoundsConfig::default());
        let m = simulate_core(&q, &cluster(), &SimConfig::noiseless());
        assert_eq!(report.utilization.hi, m.bottleneck_utilization);
        assert_eq!(report.backpressure_scale.lo, m.backpressure_scale);
        assert_eq!(report.throughput.lo, m.throughput);
    }

    #[test]
    fn feasibility_classification() {
        let low = bounds_of(&pqp(100.0, 2), &cluster(), &BoundsConfig::default());
        assert!(low.definitely_feasible());
        assert!(!low.infeasible());
        let high = bounds_of(&pqp(50_000_000.0, 1), &cluster(), &BoundsConfig::default());
        assert!(high.infeasible());
        assert!(high.definitely_backpressured());
    }

    #[test]
    fn prune_mask_drops_infeasible_keeps_feasible() {
        let cfg = BoundsConfig::default();
        let reports = vec![
            bounds_of(&pqp(50_000_000.0, 1), &cluster(), &cfg), // infeasible
            bounds_of(&pqp(50_000_000.0, 16), &cluster(), &cfg),
            bounds_of(&pqp(100.0, 2), &cluster(), &cfg),
        ];
        let keep = prune_mask(&reports);
        assert!(!keep[0]);
        assert!(keep[2]);
    }

    #[test]
    fn prune_mask_never_empties_the_set() {
        let cfg = BoundsConfig::default();
        let reports = vec![
            bounds_of(&pqp(500_000_000.0, 1), &cluster(), &cfg),
            bounds_of(&pqp(500_000_000.0, 2), &cluster(), &cfg),
        ];
        assert!(reports.iter().all(BoundsReport::infeasible));
        assert_eq!(prune_mask(&reports), vec![true, true]);
    }

    #[test]
    fn single_sink_per_sink_bracket_equals_headline() {
        let q = pqp(10_000.0, 2);
        let report = bounds_of(&q, &cluster(), &BoundsConfig::default());
        assert_eq!(report.latency_per_sink_ms, vec![report.latency_ms]);
    }

    #[test]
    fn multi_sink_bounds_bracket_the_solver_per_sink() {
        let plan = zt_query::benchmarks::smart_grid_combined(5_000.0);
        let n = plan.num_ops();
        let q = ParallelQueryPlan::with_parallelism(plan, vec![2; n]);
        let report = bounds_of(&q, &cluster(), &BoundsConfig::default());
        let m = simulate_core(&q, &cluster(), &SimConfig::noiseless());
        assert!(report.is_wellformed(), "{report:?}");
        assert_eq!(report.latency_per_sink_ms.len(), 2);
        assert!(report.latency_ms.contains(m.latency_ms));
        assert!(report.throughput.contains(m.throughput));
        for (iv, &l) in report
            .latency_per_sink_ms
            .iter()
            .zip(&m.latency_per_sink_ms)
        {
            assert!(iv.contains(l), "per-sink latency {l} outside {iv:?}");
        }
    }

    #[test]
    fn work_floors_are_sound_against_analyze() {
        // For every (rate, parallelism vector) combination, the
        // parallelism-independent floors must sit at or below the skew-free
        // utilization lower endpoint the full interval analysis computes.
        let cfg = BoundsConfig::default();
        let cluster = cluster();
        for rate in [100.0, 50_000.0, 2_000_000.0, 50_000_000.0] {
            let plan = linear_plan(rate);
            let ir = plan.validate().unwrap();
            let probe = ParallelQueryPlan::new(plan.clone());
            let floors = work_floors(&probe, &ir, &cluster, &cfg);
            for parallelism in [vec![1, 1, 1, 1], vec![1, 4, 2, 1], vec![16, 16, 16, 16]] {
                let q = ParallelQueryPlan::with_parallelism(plan.clone(), parallelism.clone());
                let report = analyze_with(&q, &ir, &cluster, &cfg);
                for (i, &d) in parallelism.iter().enumerate() {
                    let floor = floors.op_util_floor(i, d);
                    assert!(
                        floor <= report.utilization.lo * (1.0 + 1e-9) + 1e-12,
                        "op {i} degree {d} rate {rate}: floor {floor} > util.lo {}",
                        report.utilization.lo
                    );
                }
                assert!(
                    floors.plan_util_floor() <= report.utilization.lo * (1.0 + 1e-9) + 1e-12,
                    "plan floor {} > util.lo {}",
                    floors.plan_util_floor(),
                    report.utilization.lo
                );
            }
        }
    }

    #[test]
    fn work_floor_certifies_infeasible_low_parallelism() {
        // At an absurd offered rate the floor alone must already prove a
        // degree-1 bottleneck infeasible (that is the signal the
        // branch-and-bound tuner prunes with).
        let cfg = BoundsConfig::default();
        let plan = linear_plan(50_000_000.0);
        let ir = plan.validate().unwrap();
        let probe = ParallelQueryPlan::new(plan.clone());
        let floors = work_floors(&probe, &ir, &cluster(), &cfg);
        // source op (index 0) at degree 1 is hopeless at 50M events/s
        assert!(floors.op_util_floor(0, 1) >= 1.0);
        // and the certificate agrees with the full analysis
        let q = ParallelQueryPlan::with_parallelism(plan.clone(), vec![1, 1, 1, 1]);
        assert!(analyze_with(&q, &ir, &cluster(), &cfg).infeasible());
    }

    #[test]
    fn interval_basics() {
        let a = Interval::new(1.0, 2.0);
        assert!(a.contains(1.0) && a.contains(2.0) && a.contains(1.5));
        assert!(!a.contains(0.5) && !a.contains(2.5));
        assert!(a.is_wellformed());
        assert!(!Interval { lo: 2.0, hi: 1.0 }.is_wellformed());
        assert!(!Interval {
            lo: f64::NAN,
            hi: 1.0
        }
        .is_wellformed());
        assert!(Interval::new(0.0, f64::INFINITY).is_wellformed());
        assert_eq!(a.hull(Interval::point(3.0)), Interval::new(1.0, 3.0));
        assert_eq!(a + a, Interval::new(2.0, 4.0));
        assert_eq!(a.scale(2.0), Interval::new(2.0, 4.0));
        assert_eq!(a.width(), 1.0);
    }
}
