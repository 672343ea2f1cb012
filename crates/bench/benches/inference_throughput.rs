//! Inference-throughput microbenches for the tapeless prediction path:
//!
//! * `tape_forward_single` — one prediction through the training tape
//!   (graph forward builds tape nodes, clones parameters into leaves).
//! * `tapeless_forward_single` — the same prediction through
//!   `CostEstimator::predict` (scratch-arena forward, no tape).
//! * `tapeless_predict_batch64` — 64 predictions through one
//!   `predict_batch` call (scoped-thread chunks).
//! * `candidate_scoring_reencode_tape` — the pre-refactor optimizer inner
//!   loop: full re-encode plus taped forward per candidate.
//! * `candidate_scoring_ctx_batched` — the current loop: one
//!   `EncodeContext`, per-candidate incremental encode, one batched
//!   prediction.
//!
//! After the criterion timings, a summary reports predictions/sec for
//! both candidate-scoring variants and the end-to-end speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zt_core::features::FeatureMask;
use zt_core::graph::{encode, EncodeContext};
use zt_core::model::{ModelConfig, ZeroTuneModel};
use zt_core::CostEstimator;
use zt_dspsim::cluster::{Cluster, ClusterType};
use zt_dspsim::ChainingMode;
use zt_nn::Tape;
use zt_query::{LogicalPlan, ParallelQueryPlan, QueryGenerator, QueryStructure};

fn fixture() -> (LogicalPlan, Cluster) {
    let mut rng = StdRng::seed_from_u64(7);
    let plan = QueryGenerator::seen().generate(QueryStructure::TwoWayJoin, &mut rng);
    let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
    (plan, cluster)
}

/// Parallelism assignments standing in for an optimizer candidate set.
fn candidates(plan: &LogicalPlan, n: usize) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(11);
    (0..n)
        .map(|_| {
            (0..plan.num_ops())
                .map(|_| 1 << rng.gen_range(0..5u32))
                .collect()
        })
        .collect()
}

/// One prediction the way the seed scored candidates: a fresh tape per
/// forward pass, denormalized at the end.
fn tape_predict(model: &ZeroTuneModel, graph: &zt_core::GraphEncoding) -> (f64, f64) {
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, graph);
    let v = tape.value(out);
    let d = model.norm.denormalize([v.data[0], v.data[1]]);
    (d.0, d.1)
}

fn score_reencode_tape(
    model: &ZeroTuneModel,
    plan: &LogicalPlan,
    cluster: &Cluster,
    cands: &[Vec<u32>],
) -> f64 {
    let mut best = f64::INFINITY;
    for cand in cands {
        let pqp = ParallelQueryPlan::with_parallelism(plan.clone(), cand.clone());
        let graph = encode(&pqp, cluster, ChainingMode::Auto, &FeatureMask::all());
        let (lat, _) = tape_predict(model, &graph);
        best = best.min(lat);
    }
    best
}

fn score_ctx_batched(
    model: &ZeroTuneModel,
    plan: &LogicalPlan,
    cluster: &Cluster,
    cands: &[Vec<u32>],
) -> f64 {
    let ir = plan.validate().expect("benchmark plan seals");
    let ctx = EncodeContext::with_ir(plan, &ir, cluster, &FeatureMask::all());
    let mut pqp = ParallelQueryPlan::new(plan.clone());
    let graphs: Vec<_> = cands
        .iter()
        .map(|cand| {
            pqp.parallelism.clone_from(cand);
            pqp.reset_partitioning();
            ctx.encode_sealed(&pqp, &ir, cluster, ChainingMode::Auto)
        })
        .collect();
    model
        .predict_batch(&graphs)
        .iter()
        .fold(f64::INFINITY, |b, p| b.min(p.latency_ms))
}

fn bench_single(c: &mut Criterion) {
    let (plan, cluster) = fixture();
    let n = plan.num_ops();
    let pqp = ParallelQueryPlan::with_parallelism(plan, vec![4; n]);
    let graph = encode(&pqp, &cluster, ChainingMode::Auto, &FeatureMask::all());
    let model = ZeroTuneModel::new(ModelConfig::default());
    c.bench_function("tape_forward_single", |b| {
        b.iter(|| tape_predict(&model, std::hint::black_box(&graph)));
    });
    c.bench_function("tapeless_forward_single", |b| {
        b.iter(|| model.predict(std::hint::black_box(&graph)));
    });
}

fn bench_batch(c: &mut Criterion) {
    let (plan, cluster) = fixture();
    let cands = candidates(&plan, 64);
    let ir = plan.validate().expect("benchmark plan seals");
    let ctx = EncodeContext::with_ir(&plan, &ir, &cluster, &FeatureMask::all());
    let mut pqp = ParallelQueryPlan::new(plan.clone());
    let graphs: Vec<_> = cands
        .iter()
        .map(|cand| {
            pqp.parallelism.clone_from(cand);
            pqp.reset_partitioning();
            ctx.encode_sealed(&pqp, &ir, &cluster, ChainingMode::Auto)
        })
        .collect();
    let model = ZeroTuneModel::new(ModelConfig::default());
    c.bench_function("tapeless_predict_batch64", |b| {
        b.iter(|| model.predict_batch(std::hint::black_box(&graphs)));
    });
}

fn bench_candidate_scoring(c: &mut Criterion) {
    let (plan, cluster) = fixture();
    let cands = candidates(&plan, 48);
    let model = ZeroTuneModel::new(ModelConfig::default());
    c.bench_function("candidate_scoring_reencode_tape", |b| {
        b.iter(|| score_reencode_tape(&model, &plan, &cluster, std::hint::black_box(&cands)));
    });
    c.bench_function("candidate_scoring_ctx_batched", |b| {
        b.iter(|| score_ctx_batched(&model, &plan, &cluster, std::hint::black_box(&cands)));
    });
}

/// Predictions/sec for both candidate-scoring variants, plus the speedup.
fn throughput_summary(_c: &mut Criterion) {
    let (plan, cluster) = fixture();
    let cands = candidates(&plan, 48);
    let model = ZeroTuneModel::new(ModelConfig::default());

    let time = |f: &dyn Fn() -> f64| {
        // warm-up, then time enough rounds to fill ~1s
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        let per_round = t0.elapsed().as_secs_f64();
        let rounds = ((1.0 / per_round.max(1e-9)) as usize).clamp(1, 10_000);
        let t1 = std::time::Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(f());
        }
        t1.elapsed().as_secs_f64() / rounds as f64
    };

    let old = time(&|| score_reencode_tape(&model, &plan, &cluster, &cands));
    let new = time(&|| score_ctx_batched(&model, &plan, &cluster, &cands));
    let n = cands.len() as f64;
    println!();
    println!(
        "candidate scoring, re-encode + tape:    {:>10.0} predictions/sec",
        n / old
    );
    println!(
        "candidate scoring, context + batched:   {:>10.0} predictions/sec",
        n / new
    );
    println!("speedup: {:.1}x", old / new);
}

criterion_group!(
    benches,
    bench_single,
    bench_batch,
    bench_candidate_scoring,
    throughput_summary
);
criterion_main!(benches);
