//! Optimizer bounds-pruning microbenches:
//!
//! * `tune_pruned_spike_2M` — `tune` with the interval-bounds pre-pass
//!   dropping provably infeasible / dominated candidates before model
//!   inference (the default path).
//! * `tune_exhaustive_spike_2M` — the same tuning run with `prune: false`,
//!   scoring the full candidate set.
//! * `bounds_analyze_spike` — one interval analysis in isolation: the
//!   per-candidate price of the pre-pass.
//! * `tune_lattice_bnb_spike_2M` / `tune_lattice_exhaustive_spike_2M` —
//!   the product-lattice search space explored by bounds-guided
//!   branch-and-bound versus scored exhaustively (`prune: false`); both
//!   return the identical winner by construction, the question is only
//!   how much of the lattice the walk can refuse to analyze.
//!
//! After the criterion timings, a summary reports the pruned fraction at
//! a sweep of offered rates — the pre-pass only pays off when candidates
//! are provably useless, which happens once the offered rate pushes
//! low-parallelism plans past their utilization ceiling.

use criterion::{criterion_group, criterion_main, Criterion};
use zt_core::bounds::{analyze_with, BoundsConfig};
use zt_core::model::{ModelConfig, ZeroTuneModel};
use zt_core::optimizer::{tune, OptimizerConfig, SearchSpace};
use zt_dspsim::cluster::{Cluster, ClusterType};
use zt_query::benchmarks::spike_detection;
use zt_query::ParallelQueryPlan;

const RATE: f64 = 2_000_000.0;

fn cluster() -> Cluster {
    Cluster::homogeneous(ClusterType::M510, 4, 10.0)
}

fn model() -> ZeroTuneModel {
    ZeroTuneModel::new(ModelConfig {
        hidden: 48,
        seed: 7,
    })
}

fn cfg(prune: bool) -> OptimizerConfig {
    OptimizerConfig {
        prune,
        strict: false,
        ..OptimizerConfig::default()
    }
}

fn bench_pruned(c: &mut Criterion) {
    let (m, cl, plan) = (model(), cluster(), spike_detection(RATE));
    c.bench_function("tune_pruned_spike_2M", |b| {
        b.iter(|| {
            let out = tune(&m, &plan, &cl, &cfg(true)).expect("valid plan");
            std::hint::black_box(out.candidates_evaluated)
        });
    });
}

fn bench_exhaustive(c: &mut Criterion) {
    let (m, cl, plan) = (model(), cluster(), spike_detection(RATE));
    c.bench_function("tune_exhaustive_spike_2M", |b| {
        b.iter(|| {
            let out = tune(&m, &plan, &cl, &cfg(false));
            std::hint::black_box(out.expect("valid plan").candidates_evaluated)
        });
    });
}

fn lattice_cfg(prune: bool) -> OptimizerConfig {
    OptimizerConfig {
        search: SearchSpace::lattice(),
        ..cfg(prune)
    }
}

fn bench_lattice_bnb(c: &mut Criterion) {
    let (m, cl, plan) = (model(), cluster(), spike_detection(RATE));
    c.bench_function("tune_lattice_bnb_spike_2M", |b| {
        b.iter(|| {
            let out = tune(&m, &plan, &cl, &lattice_cfg(true)).expect("valid plan");
            std::hint::black_box(out.search_visited)
        });
    });
}

fn bench_lattice_exhaustive(c: &mut Criterion) {
    let (m, cl, plan) = (model(), cluster(), spike_detection(RATE));
    c.bench_function("tune_lattice_exhaustive_spike_2M", |b| {
        b.iter(|| {
            let out = tune(&m, &plan, &cl, &lattice_cfg(false)).expect("valid plan");
            std::hint::black_box(out.search_visited)
        });
    });
}

fn bench_analyze(c: &mut Criterion) {
    let cl = cluster();
    let pqp = ParallelQueryPlan::with_parallelism(spike_detection(RATE), vec![4; 4]);
    let ir = pqp.plan.validate().expect("benchmark plan seals");
    let bcfg = BoundsConfig::default();
    c.bench_function("bounds_analyze_spike", |b| {
        b.iter(|| {
            let report = analyze_with(&pqp, &ir, &cl, &bcfg);
            std::hint::black_box(report.utilization.hi)
        });
    });
}

fn summary() {
    let (m, cl) = (model(), cluster());
    eprintln!("\npruned fraction vs offered rate (spike detection, 4x m510):");
    for rate in [10e3, 100e3, 500e3, 1e6, 2e6, 5e6] {
        let out = tune(&m, &spike_detection(rate), &cl, &cfg(true)).expect("valid plan");
        let total = out.candidates_evaluated + out.candidates_pruned;
        eprintln!(
            "  {:>9.0} ev/s: {:>3} of {:>3} candidates pruned ({:.0}%)",
            rate,
            out.candidates_pruned,
            total,
            100.0 * out.candidates_pruned as f64 / total as f64
        );
    }
}

fn benches(c: &mut Criterion) {
    bench_pruned(c);
    bench_exhaustive(c);
    bench_analyze(c);
    bench_lattice_bnb(c);
    bench_lattice_exhaustive(c);
    summary();
}

criterion_group!(tune_pruning, benches);
criterion_main!(tune_pruning);
