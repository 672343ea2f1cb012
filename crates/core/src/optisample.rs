//! Parallelism-degree enumeration strategies for training-data collection
//! (Section IV of the paper).
//!
//! * [`OptiSampleConfig`] — Algorithm 1: walk the operator graph
//!   bottom-up, estimate selectivities (Definitions 4–6) and output rates
//!   (Definition 3), and set each operator's parallelism proportionally to
//!   its estimated input rate (Definitions 7–8): `P(ω) = sf · In_ER(ω)`,
//!   clamped to `1 ≤ P ≤ n_core`. The scaling factor is drawn per query
//!   from a log-uniform spread and the selectivity estimates carry
//!   lognormal noise — the paper deliberately uses *estimated* (imperfect)
//!   values to keep exploration in the training data.
//! * [`RandomConfig`] — the baseline used by prior work \[20\]: uniform
//!   random degrees, which produce many noisy plans (e.g. low parallelism
//!   upstream of high parallelism, causing backpressure).

use rand::Rng;
use serde::{Deserialize, Serialize};
use zt_dspsim::cluster::Cluster;
use zt_query::{LogicalPlan, OperatorKind};

/// Configuration of the OptiSample strategy.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct OptiSampleConfig {
    /// Base scaling factor `sf` (instances per tuple/s), calibrated to the
    /// backpressure point of the simulated operators (~50k tuples/s per
    /// instance keeps one instance just below saturation; see the paper's
    /// footnote 3).
    pub base_sf: f64,
    /// Per-query log-uniform spread of the scaling factor: a multiplier is
    /// drawn from `[1/spread, spread]` so the training data explores a
    /// band of over-/under-provisioning around the analytical optimum.
    pub sf_spread: f64,
    /// Lognormal σ of the selectivity estimation error (estimates are
    /// deliberately imperfect).
    pub estimate_noise: f64,
    /// Hard cap on any parallelism degree (Table III ends at XL < 128).
    pub max_parallelism: u32,
}

impl Default for OptiSampleConfig {
    fn default() -> Self {
        OptiSampleConfig {
            base_sf: 1.0 / 50_000.0,
            sf_spread: 6.0,
            estimate_noise: 0.3,
            max_parallelism: 128,
        }
    }
}

/// Configuration of the uniform-random baseline strategy.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RandomConfig {
    pub max_parallelism: u32,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            max_parallelism: 128,
        }
    }
}

/// A parallelism-degree enumeration strategy.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum EnumerationStrategy {
    OptiSample(OptiSampleConfig),
    Random(RandomConfig),
}

impl EnumerationStrategy {
    pub fn opti_sample() -> Self {
        EnumerationStrategy::OptiSample(OptiSampleConfig::default())
    }

    pub fn random() -> Self {
        EnumerationStrategy::Random(RandomConfig::default())
    }

    pub fn name(&self) -> &'static str {
        match self {
            EnumerationStrategy::OptiSample(_) => "OptiSample",
            EnumerationStrategy::Random(_) => "Random",
        }
    }

    /// Assign a parallelism degree to every operator of `plan` for a
    /// deployment on `cluster`.
    pub fn assign<R: Rng + ?Sized>(
        &self,
        plan: &LogicalPlan,
        cluster: &Cluster,
        rng: &mut R,
    ) -> Vec<u32> {
        match self {
            EnumerationStrategy::OptiSample(cfg) => opti_sample_assign(plan, cluster, cfg, rng),
            EnumerationStrategy::Random(cfg) => {
                let cap = cfg.max_parallelism.min(cluster.total_cores()).max(1);
                plan.ops().iter().map(|_| rng.gen_range(1..=cap)).collect()
            }
        }
    }

    /// Factored enumeration: `k` independent assignments for **one**
    /// `(plan, cluster)` template. Because `P(ω) = ⌈sf · In_ER(ω)⌉` is
    /// clamped to `[1, n_core]` and the per-query scaling factor only
    /// spreads log-uniformly, nearby draws frequently collapse to the
    /// *same* parallelism vector — exactly the repeated
    /// `(template, cluster, assignment)` tuples that
    /// [`zt_dspsim::simcache::SimCache`] memoizes during labeling.
    pub fn enumerate<R: Rng + ?Sized>(
        &self,
        plan: &LogicalPlan,
        cluster: &Cluster,
        k: usize,
        rng: &mut R,
    ) -> Vec<Vec<u32>> {
        (0..k).map(|_| self.assign(plan, cluster, rng)).collect()
    }
}

/// Estimated input rates per operator (Definition 3 applied with noisy
/// selectivity estimates). `noise_mult` perturbs each selectivity
/// estimate; pass 1.0-factors for exact estimates.
///
/// Walks the plan's edge list in [`LogicalPlan::topo_order`] (the sealed
/// IR's order) rather than sealing it: `tune` and `generate_sample` have
/// already sealed the plan once by the time they get here.
pub fn estimate_input_rates<R: Rng + ?Sized>(
    plan: &LogicalPlan,
    estimate_noise: f64,
    rng: &mut R,
) -> Vec<f64> {
    let order = plan
        .topo_order()
        .expect("estimate_input_rates() requires an acyclic plan");
    let n = plan.num_ops();
    let mut input = vec![0f64; n];
    let mut output = vec![0f64; n];
    for id in order {
        let i = id.idx();
        let in_rate: f64 = plan
            .edges()
            .iter()
            .filter(|&&(_, d)| d == id)
            .map(|&(u, _)| output[u.idx()])
            .sum();
        let noise = if estimate_noise > 0.0 {
            let u1: f64 = rng.gen_range(1e-9..1.0f64);
            let u2: f64 = rng.gen_range(0.0..1.0f64);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (estimate_noise * z).exp()
        } else {
            1.0
        };
        match &plan.op(id).kind {
            OperatorKind::Source(s) => {
                input[i] = s.event_rate;
                output[i] = s.event_rate;
            }
            kind => {
                input[i] = in_rate;
                // Out_ER(ω) = In_ER(ω) · ŝel(ω)  (Definition 3; estimates
                // use Definitions 4–6 with estimation noise).
                let est_sel = (kind.selectivity() * noise).clamp(0.0, 1.0);
                output[i] = in_rate * est_sel;
            }
        }
    }
    input
}

/// Algorithm 1 of the paper.
fn opti_sample_assign<R: Rng + ?Sized>(
    plan: &LogicalPlan,
    cluster: &Cluster,
    cfg: &OptiSampleConfig,
    rng: &mut R,
) -> Vec<u32> {
    // Per-query scaling factor (exploration band around base_sf).
    let spread = cfg.sf_spread.max(1.0);
    let mult = spread.powf(rng.gen_range(-1.0..1.0f64));
    let sf = cfg.base_sf * mult;
    let cap = cfg.max_parallelism.min(cluster.total_cores()).max(1);

    let input_rates = estimate_input_rates(plan, cfg.estimate_noise, rng);
    plan.ops()
        .iter()
        .map(|op| {
            // P(ω) = sf · In_ER(ω)  (Definitions 7 and 8), with the
            // constraints 1 ≤ P ≤ n_core.
            let p = (sf * input_rates[op.id.idx()]).ceil() as i64;
            (p.clamp(1, cap as i64)) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zt_dspsim::cluster::ClusterType;
    use zt_query::{QueryGenerator, QueryStructure};

    fn plan_with_rate(seed: u64) -> LogicalPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        QueryGenerator::seen().generate(QueryStructure::Linear, &mut rng)
    }

    fn cluster() -> Cluster {
        Cluster::homogeneous(ClusterType::M510, 4, 10.0) // 32 cores
    }

    #[test]
    fn assignments_respect_constraints() {
        let mut rng = StdRng::seed_from_u64(1);
        let cluster = cluster();
        for strategy in [
            EnumerationStrategy::opti_sample(),
            EnumerationStrategy::random(),
        ] {
            for seed in 0..30 {
                let plan = plan_with_rate(seed);
                let p = strategy.assign(&plan, &cluster, &mut rng);
                assert_eq!(p.len(), plan.num_ops());
                for &pi in &p {
                    assert!(pi >= 1, "{}: P < 1", strategy.name());
                    assert!(
                        pi <= cluster.total_cores(),
                        "{}: P {pi} exceeds cores",
                        strategy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn optisample_scales_with_event_rate() {
        // Average assigned parallelism must grow with the source rate.
        let cfg = OptiSampleConfig {
            estimate_noise: 0.0,
            sf_spread: 1.0,
            ..OptiSampleConfig::default()
        };
        let strategy = EnumerationStrategy::OptiSample(cfg);
        let cluster = cluster();
        let mut rng = StdRng::seed_from_u64(2);

        let mut avg_for = |rate: f64| {
            use zt_query::operators::*;
            use zt_query::{DataType, TupleSchema};
            let mut plan = LogicalPlan::new("t");
            let s = plan.add(OperatorKind::Source(SourceOp {
                event_rate: rate,
                schema: TupleSchema::uniform(DataType::Int, 2),
                key_cardinality: None,
            }));
            let f = plan.add(OperatorKind::Filter(FilterOp {
                function: FilterFunction::Gt,
                literal_class: DataType::Int,
                selectivity: 0.5,
            }));
            let k = plan.add(OperatorKind::Sink(SinkOp));
            plan.connect(s, f);
            plan.connect(f, k);
            let p = strategy.assign(&plan, &cluster, &mut rng);
            p.iter().sum::<u32>() as f64 / p.len() as f64
        };

        let low = avg_for(1_000.0);
        let high = avg_for(500_000.0);
        assert!(high > low, "high-rate avg {high} not above low-rate {low}");
    }

    #[test]
    fn optisample_downstream_parallelism_follows_selectivity() {
        // With a very selective filter, the downstream operator needs
        // less parallelism than the filter itself (Definition 8).
        use zt_query::operators::*;
        use zt_query::{DataType, TupleSchema};
        let mut plan = LogicalPlan::new("t");
        let s = plan.add(OperatorKind::Source(SourceOp {
            event_rate: 800_000.0,
            schema: TupleSchema::uniform(DataType::Int, 2),
            key_cardinality: None,
        }));
        let f = plan.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Eq,
            literal_class: DataType::Int,
            selectivity: 0.01,
        }));
        let f2 = plan.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Gt,
            literal_class: DataType::Int,
            selectivity: 0.5,
        }));
        let k = plan.add(OperatorKind::Sink(SinkOp));
        plan.connect(s, f);
        plan.connect(f, f2);
        plan.connect(f2, k);

        let cfg = OptiSampleConfig {
            estimate_noise: 0.0,
            sf_spread: 1.0,
            ..OptiSampleConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let p = EnumerationStrategy::OptiSample(cfg).assign(&plan, &cluster(), &mut rng);
        assert!(
            p[f2.idx()] < p[f.idx()],
            "downstream of selective filter should need less parallelism: {p:?}"
        );
    }

    #[test]
    fn estimated_rates_match_exact_propagation_without_noise() {
        let plan = plan_with_rate(7);
        let mut rng = StdRng::seed_from_u64(4);
        let rates = estimate_input_rates(&plan, 0.0, &mut rng);
        // source input = event rate; filter input = event rate
        let src_rate = plan
            .ops()
            .iter()
            .find_map(|o| match &o.kind {
                OperatorKind::Source(s) => Some(s.event_rate),
                _ => None,
            })
            .unwrap();
        assert_eq!(rates[0], src_rate);
        assert_eq!(rates[1], src_rate);
    }

    #[test]
    fn noise_perturbs_estimates() {
        let plan = plan_with_rate(8);
        let exact = estimate_input_rates(&plan, 0.0, &mut StdRng::seed_from_u64(5));
        let noisy = estimate_input_rates(&plan, 0.5, &mut StdRng::seed_from_u64(5));
        // downstream rates (after a selectivity) differ under noise
        assert_ne!(exact[2], noisy[2]);
    }

    #[test]
    fn factored_enumeration_recurs_on_assignments() {
        // Low input rates clamp most OptiSample draws to all-ones
        // parallelism, so a factored enumeration over one template must
        // revisit assignments — the recurrence the label cache exploits.
        let plan = plan_with_rate(1); // seen ranges, moderate rate
        let mut rng = StdRng::seed_from_u64(10);
        let strategy = EnumerationStrategy::opti_sample();
        let cands = strategy.enumerate(&plan, &cluster(), 64, &mut rng);
        assert_eq!(cands.len(), 64);
        let mut unique: Vec<&Vec<u32>> = Vec::new();
        for c in &cands {
            if !unique.contains(&c) {
                unique.push(c);
            }
        }
        assert!(
            unique.len() < cands.len(),
            "64 draws produced {} distinct assignments — no recurrence",
            unique.len()
        );
    }

    #[test]
    fn random_strategy_covers_the_range() {
        let mut rng = StdRng::seed_from_u64(6);
        let cluster = cluster();
        let strategy = EnumerationStrategy::random();
        let mut seen_low = false;
        let mut seen_high = false;
        for seed in 0..50 {
            let plan = plan_with_rate(seed);
            for p in strategy.assign(&plan, &cluster, &mut rng) {
                if p <= 4 {
                    seen_low = true;
                }
                if p >= 24 {
                    seen_high = true;
                }
            }
        }
        assert!(seen_low && seen_high, "random strategy not exploring");
    }
}
