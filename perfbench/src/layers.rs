//! The per-layer table of a traced run.
//!
//! Each layer is timed from outside, by calling that layer's public
//! functions on the inputs the workloads use. Every traced run measures
//! the whole table, so each metric reads the same way whichever workload
//! was traced; the three metrics the table marks "this workload" are
//! measured on the traced workload's own inputs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zt_core::bounds::{analyze_with, prune_mask, work_floors, BoundsConfig};
use zt_core::dataflow::analyze_plan;
use zt_core::dataset::generate_sample;
use zt_core::lattice::{branch_and_bound, ParallelismLattice};
use zt_core::optimizer::enumerate_candidates;
use zt_core::{
    generate_dataset_with, tune, CostEstimator, Dataset, EncodeContext, FeatureMask, GenPlan,
    GraphEncoding, ModelConfig, TargetNorm, TuneError, ZeroTuneModel,
};
use zt_dspsim::cluster::Cluster;
use zt_dspsim::ChainingMode;
use zt_nn::{Adam, Matrix, Optimizer, Tape};
use zt_query::generator::{QueryGenerator, QueryStructure};
use zt_query::{LogicalPlan, ParallelQueryPlan, PlanIr};
use zt_serve::cache::ResponseCache;
use zt_serve::{api, ServeConfig};

use crate::serve_mix::{self, Kind};
use crate::stats::Summary;
use crate::train_pipeline::{self, round_seed};
use crate::tune_lattice::{self, LINEAR, THREE_WAY, TWO_WAY};
use crate::{mix, nproc, Ctx, Metric, Outcome};

/// `(metric, unit, end-to-end metric it should move, workload)`.
pub const TABLE: &[(&str, &str, &str, &str)] = &[
    (
        "serve.http.healthz_rtt_us",
        "us",
        "serve_qps, every serve p50",
        "serve-mix",
    ),
    (
        "serve.api.parse_body_us",
        "us",
        "predict_hit/miss_p50_ms, serve_tune_p50_ms",
        "serve-mix",
    ),
    (
        "serve.api.parse_mb_per_s",
        "MB/s",
        "predict_hit/miss_p50_ms, serve_tune_p50_ms",
        "serve-mix",
    ),
    (
        "serve.cache.key_us",
        "us",
        "predict_hit_p50_ms",
        "serve-mix",
    ),
    (
        "serve.cache.key_bytes",
        "B",
        "predict_hit_p50_ms",
        "serve-mix",
    ),
    (
        "serve.cache.get_us",
        "us",
        "predict_hit_p50_ms",
        "serve-mix",
    ),
    (
        "serve.cache.insert_us",
        "us",
        "predict_miss_p50_ms",
        "serve-mix",
    ),
    ("serve.cache.hit_ratio", "ratio", "serve_qps", "serve-mix"),
    (
        "serve.batch.residual_us",
        "us",
        "predict_miss_p50_ms",
        "serve-mix",
    ),
    ("serve.requests_failed", "count", "serve_qps", "serve-mix"),
    ("serve.rejected_503", "count", "serve_qps", "serve-mix"),
    (
        "query.wire.deployment_us",
        "us",
        "predict_hit_p50_ms",
        "serve-mix",
    ),
    (
        "query.validate_us",
        "us",
        "tune_p50_ms, datagen_samples_per_s",
        "this workload",
    ),
    (
        "query.generate_us",
        "us",
        "tune_p50_ms, datagen_samples_per_s",
        "this workload",
    ),
    (
        "core.graph.encode_us",
        "us",
        "predict_hit_p50_ms, tune_p50_ms, datagen_samples_per_s",
        "this workload",
    ),
    (
        "core.optimizer.enumerate_us",
        "us",
        "tune_p50_ms",
        "tune-lattice",
    ),
    (
        "core.dataflow.analyze_us",
        "us",
        "tune_p50_ms",
        "tune-lattice",
    ),
    (
        "core.bounds.analyze_us",
        "us",
        "tune_plans_per_s",
        "tune-lattice",
    ),
    (
        "core.lattice.bnb_ms",
        "ms",
        "tune_plans_per_s",
        "tune-lattice",
    ),
    (
        "core.lattice.bnb_share_of_tune",
        "ratio",
        "tune_plans_per_s",
        "tune-lattice",
    ),
    (
        "core.lattice.size",
        "count",
        "tune_plans_per_s",
        "tune-lattice",
    ),
    (
        "core.lattice.leaves_analyzed",
        "count",
        "tune_plans_per_s",
        "tune-lattice",
    ),
    (
        "core.lattice.subtrees_pruned",
        "count",
        "tune_plans_per_s",
        "tune-lattice",
    ),
    (
        "core.lattice.analyzed_share",
        "ratio",
        "tune_plans_per_s",
        "tune-lattice",
    ),
    (
        "core.lattice.join_bnb_ms",
        "ms",
        "none timed (2-way joins)",
        "tune-lattice",
    ),
    (
        "core.lattice.join_analyzed_share",
        "ratio",
        "none timed (2-way joins)",
        "tune-lattice",
    ),
    (
        "tune.budget_exceeded",
        "count",
        "failed share",
        "tune-lattice",
    ),
    (
        "nn.predict_batch_us_per_graph",
        "us",
        "tune_p50_ms",
        "tune-lattice",
    ),
    (
        "core.datagen.sample_us",
        "us",
        "datagen_samples_per_s",
        "train-pipeline",
    ),
    (
        "core.datagen.worker_scaling",
        "ratio",
        "datagen_samples_per_s",
        "train-pipeline",
    ),
    (
        "dspsim.simulate_us",
        "us",
        "datagen_samples_per_s",
        "train-pipeline",
    ),
    (
        "dspsim.solves",
        "count",
        "datagen_samples_per_s",
        "train-pipeline",
    ),
    ("nn.predict_us", "us", "predict_miss_p50_ms", "serve-mix"),
    (
        "nn.forward_backward_ms",
        "ms",
        "train_epoch_s",
        "train-pipeline",
    ),
    ("nn.optim_step_us", "us", "train_epoch_s", "train-pipeline"),
    (
        "nn.matmul_flops_per_epoch",
        "flop",
        "train_epoch_s (computed from layer shapes)",
        "train-pipeline",
    ),
    (
        "nn.matmul_bytes_per_epoch",
        "B",
        "train_epoch_s (computed from layer shapes)",
        "train-pipeline",
    ),
];

/// Seconds the serve section drives the daemon to get its p50s.
const SERVE_BURST_S: f64 = 2.0;
/// 3-way-join plans tuned to count budget-exceeded calls.
const BUDGET_PROBES: u64 = 2;
/// The first linear plans of the timed tune loop, whose branch-and-bound
/// the table times and counts.
const BNB_LINEAR_PLANS: u64 = 200;
/// Of those, the plans whose every lattice point is bound-analyzed.
const BOUNDS_PLANS: usize = 16;
/// 2-way joins timed for the join branch-and-bound rows.
const BNB_JOIN_PLANS: u64 = 2;
/// Lattices up to this size are scored exhaustively by `tune` (its
/// small-lattice cutoff); the cross-check in [`search`] catches a change.
const SMALL_LATTICE: u64 = 32;

/// Per-call times of `f` over `items`, in microseconds.
fn time_us<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> Vec<f64> {
    items
        .into_iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Metrics collected so far, keyed by name.
struct Sheet {
    metrics: BTreeMap<&'static str, Metric>,
    problems: Vec<String>,
}

impl Sheet {
    fn median(&mut self, name: &'static str, samples: Vec<f64>) {
        match Summary::new(samples) {
            Ok(s) => self.put(Metric::at(name, unit_of(name), &s, 50.0)),
            Err(e) => self.problems.push(format!("{name}: {e}")),
        }
    }

    fn value(&mut self, name: &'static str, v: f64) {
        self.put(Metric::new(name, unit_of(name), v));
    }

    fn put(&mut self, m: Metric) {
        self.metrics.insert(m.name, m);
    }
}

fn unit_of(name: &str) -> &'static str {
    TABLE
        .iter()
        .find(|r| r.0 == name)
        .map(|r| r.1)
        .unwrap_or_else(|| panic!("{name} is not in the layer table"))
}

/// The three layers measured on the traced workload's own inputs.
#[derive(Default)]
struct OwnInputs {
    validate: Vec<f64>,
    generate: Vec<f64>,
    encode: Vec<f64>,
}

fn sealed_encode_us(plan: &LogicalPlan, ir: &PlanIr, pqp: &ParallelQueryPlan, cl: &Cluster) -> f64 {
    let mask = FeatureMask::all();
    let t = Instant::now();
    let ctx = EncodeContext::with_ir(plan, ir, cl, &mask);
    std::hint::black_box(ctx.encode_sealed(pqp, ir, cl, ChainingMode::Auto));
    us(t.elapsed())
}

fn generate_us(structures: &[QueryStructure], seed: u64, n: usize) -> Vec<f64> {
    let gen = QueryGenerator::seen();
    let mut rng = StdRng::seed_from_u64(seed);
    time_us(0..n, |i| {
        std::hint::black_box(gen.generate(structures[i % structures.len()], &mut rng));
    })
}

pub fn measure(ctx: &Ctx, workload: &str, problems: &mut Vec<String>) -> Vec<Metric> {
    let mut sheet = Sheet {
        metrics: BTreeMap::new(),
        problems: Vec::new(),
    };
    let own = [
        ("serve-mix", serve_layers(ctx, &mut sheet)),
        ("tune-lattice", tune_layers(ctx, &mut sheet)),
        ("train-pipeline", train_layers(ctx, &mut sheet)),
    ];
    if let Some((_, o)) = own.into_iter().find(|(w, _)| *w == workload) {
        sheet.median("query.validate_us", o.validate);
        sheet.median("query.generate_us", o.generate);
        sheet.median("core.graph.encode_us", o.encode);
    }
    problems.append(&mut sheet.problems);
    TABLE
        .iter()
        .map(|&(name, unit, _, _)| {
            sheet.metrics.remove(name).unwrap_or_else(|| {
                problems.push(format!("layer metric {name} was not measured"));
                Metric::new(name, unit, 0.0)
            })
        })
        .collect()
}

fn serve_layers(ctx: &Ctx, sheet: &mut Sheet) -> OwnInputs {
    let mut o = OwnInputs::default();
    let mut out = Outcome::default();
    let run = match serve_mix::drive(ctx, SERVE_BURST_S, &mut out) {
        Ok(r) => r,
        Err(e) => {
            sheet.problems.push(format!("serve layers: {e}"));
            return o;
        }
    };
    sheet.problems.extend(out.problems);
    let inputs = &run.inputs;

    sheet.median(
        "serve.http.healthz_rtt_us",
        time_us(0..300, |_| {
            let _ = crate::client::request(run.daemon.addr, "GET", "/healthz", "", None);
        }),
    );
    // Shut the daemon down so it does not compete with the in-process
    // layer timings below.
    drop(run.daemon);

    // The request path, layer by layer, on the workload's own requests.
    let (mut parse, mut deploy, mut key, mut key_bytes, mut predict) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut parsed_bytes, mut parse_s) = (0usize, 0.0f64);
    for i in 0..600u64 {
        let (_, body) = inputs.request(i);
        let t = Instant::now();
        let v = api::parse_body(body.as_bytes());
        let d = t.elapsed();
        parse.push(us(d));
        parsed_bytes += body.len();
        parse_s += d.as_secs_f64();
        let Ok(v) = v else {
            sheet.problems.push(format!("request {i} does not parse"));
            continue;
        };
        if inputs.kind(i) == Kind::Tune {
            continue;
        }
        let t = Instant::now();
        let Ok((pqp, ir)) = api::deployment(&v) else {
            sheet
                .problems
                .push(format!("request {i} is not a deployment"));
            continue;
        };
        deploy.push(us(t.elapsed()));
        o.encode
            .push(sealed_encode_us(&pqp.plan, &ir, &pqp, &inputs.cluster));
        let g = EncodeContext::with_ir(&pqp.plan, &ir, &inputs.cluster, &FeatureMask::all())
            .encode_sealed(&pqp, &ir, &inputs.cluster, ChainingMode::Auto);
        let t = Instant::now();
        let k = format!("v1|{}", serde_json::to_string(&g).expect("graphs render"));
        key.push(us(t.elapsed()));
        key_bytes.push(k.len() as f64);
        let t = Instant::now();
        std::hint::black_box(inputs.model.predict(&g));
        predict.push(us(t.elapsed()));
    }
    sheet.median("serve.api.parse_body_us", parse);
    sheet.value(
        "serve.api.parse_mb_per_s",
        parsed_bytes as f64 / parse_s / 1e6,
    );
    sheet.median("query.wire.deployment_us", deploy);
    sheet.median("serve.cache.key_us", key);
    sheet.median("serve.cache.key_bytes", key_bytes);
    sheet.median("nn.predict_us", predict);

    // The cache at the daemon's default capacity, filled to the occupancy
    // the drive left behind, with real keys.
    let key_of = |i: u64| {
        let pqp = inputs.deployment(Kind::Unique, i);
        let g = zt_core::encode(
            &pqp,
            &inputs.cluster,
            ChainingMode::Auto,
            &FeatureMask::all(),
        );
        format!("v1|{}", serde_json::to_string(&g).expect("graphs render"))
    };
    let cache = ResponseCache::new(ServeConfig::default().cache_capacity);
    let fill = run.cache_entries.max(64) as u64;
    let body = "{\"model_version\":1,\"latency_ms\":12.5,\"throughput\":1000.25}";
    for i in 0..fill {
        cache.insert(key_of(i), body.to_string());
    }
    let hot: Vec<String> = (fill - 64..fill).map(key_of).collect();
    sheet.median(
        "serve.cache.get_us",
        time_us((0..5).flat_map(|_| hot.iter()), |k| {
            std::hint::black_box(cache.get(k));
        }),
    );
    let fresh: Vec<String> = (fill..fill + 500).map(key_of).collect();
    let insert = time_us(fresh, |k| cache.insert(k, body.to_string()));
    let insert_p50 = Summary::new(insert.clone()).map(|s| s.median());
    sheet.median("serve.cache.insert_us", insert);

    let total = run.hits + run.misses;
    sheet.value(
        "serve.cache.hit_ratio",
        if total == 0 {
            0.0
        } else {
            run.hits as f64 / total as f64
        },
    );
    let predict_p50 = sheet.metrics.get("nn.predict_us").map(|m| m.value);
    match (&run.hit_ms, &run.miss_ms, predict_p50, insert_p50) {
        (Some(h), Some(m), Some(p), Ok(ins)) => sheet.value(
            "serve.batch.residual_us",
            (m.median() - h.median()) * 1e3 - p - ins,
        ),
        _ => sheet
            .problems
            .push("serve.batch.residual_us: missing inputs".into()),
    }
    sheet.value("serve.requests_failed", out.failed as f64);
    sheet.value("serve.rejected_503", run.rejected_503 as f64);

    for p in inputs.plans() {
        let t = Instant::now();
        let ir = p.validate();
        o.validate.push(us(t.elapsed()));
        std::hint::black_box(ir.is_ok());
    }
    o.generate = generate_us(&QueryStructure::seen(), mix(ctx.seed, 1), 300);
    o
}

/// The lattice `tune` searches for `plan`, key-cardinality cap included.
/// `tune_layers` checks its size against every tune outcome it times, so
/// a change to the capping in `tune` shows as a failed check.
fn lattice_of(plan: &LogicalPlan, candidates: &[Vec<u32>]) -> ParallelismLattice {
    let zt_core::SearchSpace::Lattice {
        max_degrees_per_op, ..
    } = zt_core::SearchSpace::lattice()
    else {
        unreachable!("lattice() is a lattice search")
    };
    let mut lattice = ParallelismLattice::from_candidates(candidates, max_degrees_per_op);
    for (i, op) in plan.ops().iter().enumerate() {
        let Some(cap) = op.kind.parallelism_cap() else {
            continue;
        };
        let degrees = &mut lattice.degrees[i];
        if let Some(&rep) = degrees.iter().find(|&&d| d >= cap) {
            degrees.retain(|&d| d < cap || d == rep);
        }
    }
    lattice
}

/// One plan's branch-and-bound, timed outside and inside `tune`.
struct Searched {
    plan: LogicalPlan,
    ir: PlanIr,
    /// Whether `tune` reached branch-and-bound; small or wholly
    /// infeasible lattices are scored exhaustively, and then only the
    /// outcome counts.
    via_bnb: bool,
    /// Analyzed leaves that `prune_mask` keeps: the candidates tune scores.
    survivors: Vec<Vec<u32>>,
    bnb_ms: f64,
    tune_ms: f64,
    outcome: zt_core::TuningOutcome,
}

/// Run `branch_and_bound` on `plan`'s lattice, then `tune` on the same
/// plan, and check that the two agree on the lattice size and the leaves
/// analyzed. `None` when `tune` fails.
fn search(
    model: &ZeroTuneModel,
    plan: &LogicalPlan,
    cluster: &Cluster,
    problems: &mut Vec<String>,
) -> Option<Searched> {
    let cfg = tune_lattice::lattice_config(true);
    let bcfg = BoundsConfig {
        chaining: cfg.chaining,
        ..BoundsConfig::default()
    };
    let budget = match zt_core::SearchSpace::lattice() {
        zt_core::SearchSpace::Lattice { visit_budget, .. } => visit_budget,
        zt_core::SearchSpace::Flat => unreachable!("lattice() is a lattice search"),
    };
    let ir = plan.validate().expect("generated plans are valid");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let lattice = lattice_of(plan, &enumerate_candidates(plan, cluster, &cfg, &mut rng));
    let probe = ParallelQueryPlan::new(plan.clone());
    let infeasible = work_floors(&probe, &ir, cluster, &bcfg).plan_util_floor() >= 1.0;
    let t = Instant::now();
    let found = branch_and_bound(plan, &ir, cluster, &bcfg, &lattice, budget);
    let bnb_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let outcome = tune(model, plan, cluster, &cfg);
    let tune_ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            problems.push(format!("tune failed on a branch-and-bound plan: {e}"));
            return None;
        }
    };
    if lattice.size() != outcome.search_space {
        problems.push(format!(
            "the benchmark's lattice has {} points, tune searched {}",
            lattice.size(),
            outcome.search_space
        ));
    }
    let via_bnb = lattice.size() > SMALL_LATTICE && !infeasible && found.feasible_found;
    let mut survivors = Vec::new();
    if via_bnb {
        let cut = found.stats.subtrees_pruned + found.stats.incumbent_cuts;
        if (found.stats.leaves_analyzed, cut)
            != (outcome.search_visited, outcome.search_subtrees_pruned)
        {
            problems.push(format!(
                "branch-and-bound analyzed {} leaves and cut {cut} subtrees, tune reports {} and {}",
                found.stats.leaves_analyzed, outcome.search_visited, outcome.search_subtrees_pruned
            ));
        }
        let (cands, reports): (Vec<_>, Vec<_>) = found.analyzed.into_iter().unzip();
        survivors = cands
            .into_iter()
            .zip(prune_mask(&reports))
            .filter_map(|(c, k)| k.then_some(c))
            .collect();
    }
    Some(Searched {
        plan: plan.clone(),
        ir,
        via_bnb,
        survivors,
        bnb_ms,
        tune_ms,
        outcome,
    })
}

fn tune_layers(ctx: &Ctx, sheet: &mut Sheet) -> OwnInputs {
    let mut o = OwnInputs::default();
    let cluster = zt_serve::default_cluster();
    let cfg = tune_lattice::lattice_config(true);
    let model = ZeroTuneModel::new(ModelConfig::default());
    let bcfg = BoundsConfig {
        chaining: cfg.chaining,
        ..BoundsConfig::default()
    };

    // The plans the timed tune loop starts with.
    let linear: Vec<LogicalPlan> = (0..BNB_LINEAR_PLANS)
        .map(|n| tune_lattice::plan(ctx.seed, LINEAR, n))
        .collect();
    let (mut enumerate, mut dataflow) = (Vec::new(), Vec::new());
    for p in &linear {
        let t = Instant::now();
        let ir = p.validate().expect("generated plans are valid");
        o.validate.push(us(t.elapsed()));
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        std::hint::black_box(enumerate_candidates(p, &cluster, &cfg, &mut rng));
        enumerate.push(us(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(analyze_plan(p, &ir));
        dataflow.push(us(t.elapsed()));
    }
    sheet.median("core.optimizer.enumerate_us", enumerate);
    sheet.median("core.dataflow.analyze_us", dataflow);
    o.generate = generate_us(&[QueryStructure::Linear], mix(ctx.seed, 2), 300);

    // Branch-and-bound on the timed linear plans. The lattice counts are
    // tune's own, summed over every plan; the timings cover the plans
    // that tune sends through branch-and-bound.
    let all: Vec<Searched> = linear
        .iter()
        .filter_map(|p| search(&model, p, &cluster, &mut sheet.problems))
        .collect();
    let (mut size, mut leaves, mut pruned) = (0u64, 0u64, 0u64);
    for s in &all {
        size += s.outcome.search_space;
        leaves += s.outcome.search_visited;
        pruned += s.outcome.search_subtrees_pruned;
    }
    let searched: Vec<&Searched> = all.iter().filter(|s| s.via_bnb).collect();
    if searched.is_empty() {
        sheet
            .problems
            .push("no linear plan reached branch-and-bound".into());
        return o;
    }
    sheet.median(
        "core.lattice.bnb_ms",
        searched.iter().map(|s| s.bnb_ms).collect(),
    );
    sheet.value(
        "core.lattice.bnb_share_of_tune",
        searched.iter().map(|s| s.bnb_ms).sum::<f64>()
            / searched.iter().map(|s| s.tune_ms).sum::<f64>(),
    );
    sheet.value("core.lattice.size", size as f64);
    sheet.value("core.lattice.leaves_analyzed", leaves as f64);
    sheet.value("core.lattice.subtrees_pruned", pruned as f64);
    sheet.value(
        "core.lattice.analyzed_share",
        leaves as f64 / size.max(1) as f64,
    );

    // Interval analysis of single lattice points, over whole lattices.
    let mut bounds = Vec::new();
    for s in searched.iter().take(BOUNDS_PLANS) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let lattice = lattice_of(
            &s.plan,
            &enumerate_candidates(&s.plan, &cluster, &cfg, &mut rng),
        );
        let mut probe = ParallelQueryPlan::new(s.plan.clone());
        bounds.extend(time_us(lattice.enumerate(), |pt| {
            probe.parallelism = pt;
            probe.reset_partitioning();
            let _ = std::hint::black_box(analyze_with(&probe, &s.ir, &cluster, &bcfg));
        }));
    }
    sheet.median("core.bounds.analyze_us", bounds);

    // Encode each plan's survivors as tune does, then score them in one
    // batch, as tune does.
    let (mut scored, mut batch_us) = (0usize, 0.0f64);
    for s in &searched {
        let ectx = EncodeContext::with_ir(&s.plan, &s.ir, &cluster, &cfg.mask);
        let mut pqp = ParallelQueryPlan::new(s.plan.clone());
        let mut graphs: Vec<GraphEncoding> = Vec::with_capacity(s.survivors.len());
        for c in &s.survivors {
            pqp.parallelism.clone_from(c);
            pqp.reset_partitioning();
            o.encode
                .push(sealed_encode_us(&s.plan, &s.ir, &pqp, &cluster));
            graphs.push(ectx.encode_sealed(&pqp, &s.ir, &cluster, cfg.chaining));
        }
        if graphs.len() != s.outcome.candidates_evaluated {
            sheet.problems.push(format!(
                "{} branch-and-bound survivors, tune scored {}",
                graphs.len(),
                s.outcome.candidates_evaluated
            ));
        }
        let t = Instant::now();
        std::hint::black_box(model.predict_batch(&graphs));
        batch_us += us(t.elapsed());
        scored += graphs.len();
    }
    sheet.value(
        "nn.predict_batch_us_per_graph",
        batch_us / scored.max(1) as f64,
    );

    // 2-way joins: 16,384-point lattices, too slow for the timed loop.
    let joins: Vec<Searched> = (0..BNB_JOIN_PLANS)
        .filter_map(|n| {
            let p = tune_lattice::plan(ctx.seed, TWO_WAY, n);
            search(&model, &p, &cluster, &mut sheet.problems)
        })
        .filter(|s| s.via_bnb)
        .collect();
    sheet.median(
        "core.lattice.join_bnb_ms",
        joins.iter().map(|s| s.bnb_ms).collect(),
    );
    let (space, visited) = joins.iter().fold((0, 0), |(a, b), s| {
        (a + s.outcome.search_space, b + s.outcome.search_visited)
    });
    sheet.value(
        "core.lattice.join_analyzed_share",
        visited as f64 / space.max(1) as f64,
    );

    // The baseline failed share: 3-way joins against the visit budget.
    let mut exceeded = 0u64;
    for n in 0..BUDGET_PROBES {
        let p = tune_lattice::plan(ctx.seed, THREE_WAY, n);
        if let Err(TuneError::SearchBudgetExceeded { .. }) = tune(&model, &p, &cluster, &cfg) {
            exceeded += 1;
        }
    }
    sheet.value("tune.budget_exceeded", exceeded as f64);
    o
}

/// Forward multiply-accumulates of one graph through the GNN, from the
/// layer shapes `ZeroTuneModel::new` builds (`h` = hidden width).
fn forward_macs(g: &GraphEncoding, h: usize) -> (f64, f64) {
    // (macs, f32 elements touched) of an MLP [a, b, c].
    let mlp = |a: usize, b: usize, c: usize| {
        let macs = a * b + b * c;
        let elems = (a + a * b + b) + (b + b * c + c);
        (macs as f64, elems as f64)
    };
    let mut total = (0.0, 0.0);
    let mut add = |(m, e): (f64, f64)| {
        total.0 += m;
        total.1 += e;
    };
    for node in &g.nodes {
        add(mlp(node.features.len(), h, h));
    }
    let distinct = |v: Vec<usize>| {
        let mut v = v;
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    let updates = distinct(g.physical.iter().map(|e| e.1).collect())
        + distinct(g.mapping.iter().map(|e| e.1).collect())
        + distinct(g.data_flow.iter().map(|e| e.1).collect());
    for _ in 0..updates {
        add(mlp(2 * h, h, h));
    }
    add(mlp(h, h, 1));
    add(mlp(2 * h, h, 1));
    total
}

fn train_layers(ctx: &Ctx, sheet: &mut Sheet) -> OwnInputs {
    let mut o = OwnInputs::default();
    let cfg = train_pipeline::gen_config();
    let structures = &cfg.structures;

    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 3));
    sheet.median(
        "core.datagen.sample_us",
        time_us(0..600, |i| {
            std::hint::black_box(generate_sample(
                &cfg,
                structures[i % structures.len()],
                &mut rng,
            ));
        }),
    );

    // generate_sample's steps, timed one by one.
    let gen = QueryGenerator::new(cfg.ranges.clone());
    let mut sim = Vec::new();
    for i in 0..400 {
        let t = Instant::now();
        let plan = gen.generate(structures[i % structures.len()], &mut rng);
        o.generate.push(us(t.elapsed()));
        let t = Instant::now();
        let ir = plan.validate().expect("generated plans are valid");
        o.validate.push(us(t.elapsed()));
        let n_workers = cfg.ranges.sample_num_workers(&mut rng);
        let cluster = Cluster::sample(
            &cfg.cluster_types,
            n_workers,
            &cfg.ranges.link_speeds_gbps,
            &mut rng,
        );
        let par = cfg.strategy.assign(&plan, &cluster, &mut rng);
        let pqp = ParallelQueryPlan::with_parallelism(plan, par);
        let t = Instant::now();
        std::hint::black_box(zt_dspsim::analytical::simulate(
            &pqp, &cluster, &cfg.sim, &mut rng,
        ));
        sim.push(us(t.elapsed()));
        o.encode
            .push(sealed_encode_us(&pqp.plan, &ir, &pqp, &cluster));
    }
    sheet.median("dspsim.simulate_us", sim);
    sheet.value(
        "dspsim.solves",
        train_pipeline::solves(&cfg, round_seed(ctx.seed, 0)) as f64,
    );

    // Single-worker baseline against nproc workers, alternating.
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for r in 0..3 {
        for (plan, rates) in [
            (GenPlan::serial(), &mut one),
            (GenPlan::serial().with_workers(nproc()), &mut many),
        ] {
            let t = Instant::now();
            let d = generate_dataset_with(&cfg, 1024, round_seed(ctx.seed, 100 + r), &plan);
            rates.push(d.len() as f64 / t.elapsed().as_secs_f64());
        }
    }
    match (Summary::new(one), Summary::new(many)) {
        (Ok(a), Ok(b)) => sheet.value("core.datagen.worker_scaling", b.median() / a.median()),
        _ => sheet
            .problems
            .push("core.datagen.worker_scaling: no rates".into()),
    }

    // The training step, piece by piece, on the workload's training set.
    let round0 = generate_dataset_with(
        &cfg,
        train_pipeline::GEN_SAMPLES,
        round_seed(ctx.seed, 0),
        &GenPlan::serial().with_workers(nproc()),
    );
    let data: Dataset = train_pipeline::training_set(&round0);
    let tcfg = train_pipeline::train_config();
    let mut model = ZeroTuneModel::new(ModelConfig::default());
    model.norm = TargetNorm::fit(data.labels());
    let mut opt = Adam::new(tcfg.lr);
    let (mut fb, mut step) = (Vec::new(), Vec::new());
    for batch in data.samples.chunks(tcfg.batch_size).take(24) {
        model.store.zero_grad();
        let t = Instant::now();
        for s in batch {
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &s.graph);
            let target = model.norm.normalize(s.latency_ms, s.throughput);
            let target = tape.leaf(Matrix::row(&target));
            let loss = tape.mse_loss(out, target);
            tape.backward(loss, &mut model.store);
        }
        fb.push(t.elapsed().as_secs_f64() * 1e3);
        model.store.scale_grads(1.0 / batch.len() as f32);
        let t = Instant::now();
        opt.step(&mut model.store);
        step.push(us(t.elapsed()));
    }
    sheet.median("nn.forward_backward_ms", fb);
    sheet.median("nn.optim_step_us", step);

    // One epoch: forward + two backward matmuls per training sample, one
    // forward per validation sample (the trainer holds out 10%).
    let h = model.config.hidden;
    let n_val = (data.len() as f64 * tcfg.val_fraction) as usize;
    let per_sample: Vec<(f64, f64)> = data
        .samples
        .iter()
        .map(|s| forward_macs(&s.graph, h))
        .collect();
    let mean =
        |f: fn(&(f64, f64)) -> f64| per_sample.iter().map(f).sum::<f64>() / per_sample.len() as f64;
    let passes = 3.0 * (data.len() - n_val) as f64 + n_val as f64;
    sheet.value("nn.matmul_flops_per_epoch", 2.0 * mean(|x| x.0) * passes);
    sheet.value("nn.matmul_bytes_per_epoch", 4.0 * mean(|x| x.1) * passes);
    o
}

/// Print the per-layer table with the end-to-end metric each row moves.
pub fn print_table(metrics: &[Metric]) {
    eprintln!(
        "{:<32} {:>16} {:<6} {:<16} moves",
        "layer metric", "value", "unit", "workload"
    );
    for (m, row) in metrics.iter().zip(TABLE) {
        eprintln!(
            "{:<32} {:>16.4} {:<6} {:<16} {}",
            m.name, m.value, m.unit, row.3, row.2
        );
    }
}
