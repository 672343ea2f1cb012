//! The tune phase: in-process `zt_core::tune` over the parallelism
//! lattice (`SearchSpace::lattice()`, `strict: false`) called from one
//! thread, on the 4×m510 cluster.
//!
//! Plan `k` of the seeded sequence comes from `QueryGenerator::seen()`
//! with structures cycling linear, 2-way join, 3-way join. The roles:
//! * linear plans (`k ≡ 0 mod 3`) are the timed loop. Their lattices have
//!   64 or 256 points, past tune's small-lattice cutoff, so tune takes its
//!   branch-and-bound route; a run tunes thousands of them, and the first
//!   ones are checked against exhaustive scoring with `prune: false`. The
//!   traced run times their branch-and-bound, bounds and survivor scoring
//!   layer by layer;
//! * 2-way joins (`k ≡ 1`) search 16,384-point lattices in 0.1–1 s each,
//!   too few per run for a steady median; the traced run times their
//!   branch-and-bound in rows of their own (`core.lattice.join_*`);
//! * 3-way joins (`k ≡ 2`) exhaust the 100,000-leaf budget, so every call
//!   would be a failed operation; the traced run counts them in
//!   `tune.budget_exceeded`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zt_core::{tune, ModelConfig, OptimizerConfig, SearchSpace, TuneError, ZeroTuneModel};
use zt_dspsim::cluster::Cluster;
use zt_query::generator::{QueryGenerator, QueryStructure};
use zt_query::LogicalPlan;

use crate::stats::Summary;
use crate::{mix, secs, setup_metric, Ctx, Metric, Outcome, Slices};

pub const LINEAR: u64 = 0;
pub const TWO_WAY: u64 = 1;
pub const THREE_WAY: u64 = 2;
/// The first timed plans always run; the ledger counts them and the
/// exhaustive check re-tunes them.
const LEDGER_PLANS: u64 = 40;
const SETUP_REPS: usize = 15;
const EXHAUSTIVE_CHECK_MAX_POINTS: u64 = 256;

/// The `n`-th plan of structure `role` (one of [`LINEAR`], [`TWO_WAY`],
/// [`THREE_WAY`]) in the seeded cycling sequence.
pub fn plan(seed: u64, role: u64, n: u64) -> LogicalPlan {
    let k = 3 * n + role;
    let structure: QueryStructure = QueryStructure::seen()[(k % 3) as usize];
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x1A77_1CE5, k));
    QueryGenerator::seen().generate(structure, &mut rng)
}

pub fn lattice_config(prune: bool) -> OptimizerConfig {
    OptimizerConfig {
        search: SearchSpace::lattice(),
        strict: false,
        prune,
        dataflow_cap: true,
        ..OptimizerConfig::default()
    }
}

pub struct Tune {
    pub setup: Metric,
    seed: u64,
    model: ZeroTuneModel,
    cluster: Cluster,
    next: u64,
    /// `(slice, milliseconds)` per successful call.
    ms: Vec<(usize, f64)>,
    slices: usize,
    failed: u64,
    /// `[space, visited, subtrees pruned, evaluated, budget exceeded]`
    /// over the ledger plans.
    ledger: [u64; 5],
}

impl Tune {
    /// Set-up: load the model from its JSON form and seal the first plans.
    pub fn start(ctx: &Ctx) -> Tune {
        let model_json = ZeroTuneModel::new(ModelConfig::default()).to_json();
        let mut model = None;
        let setup = setup_metric(SETUP_REPS, || {
            let t = Instant::now();
            let m = ZeroTuneModel::from_json(&model_json).expect("model JSON round-trips");
            for n in 0..16 {
                let p = plan(ctx.seed, LINEAR, n);
                std::hint::black_box(p.validate().expect("generated plans are valid"));
            }
            let s = secs(t);
            model = Some(m);
            s
        });
        Tune {
            setup,
            seed: ctx.seed,
            model: model.expect("set-up ran"),
            cluster: zt_serve::default_cluster(),
            next: 0,
            ms: Vec::new(),
            slices: 0,
            failed: 0,
            ledger: [0; 5],
        }
    }

    /// Tune plans until `until` (and at least through the ledger plans).
    pub fn step(&mut self, ctx: &Ctx, until: Instant) {
        let cfg = lattice_config(true);
        let slice = self.slices;
        self.slices += 1;
        while self.next < LEDGER_PLANS || Instant::now() < until {
            let n = self.next;
            self.next += 1;
            let p = plan(self.seed, LINEAR, n);
            let t = Instant::now();
            let r = tune(&self.model, &p, &self.cluster, &cfg);
            let d = t.elapsed();
            ctx.spans.record("tune.call", d);
            let l = &mut self.ledger;
            match r {
                Ok(o) => {
                    self.ms.push((slice, d.as_secs_f64() * 1e3));
                    if n < LEDGER_PLANS {
                        l[0] += o.search_space;
                        l[1] += o.search_visited;
                        l[2] += o.search_subtrees_pruned;
                        l[3] += o.candidates_evaluated as u64;
                    }
                }
                Err(e) => {
                    self.failed += 1;
                    if n < LEDGER_PLANS {
                        l[4] += u64::from(matches!(e, TuneError::SearchBudgetExceeded { .. }));
                    }
                }
            }
        }
    }

    /// Checks and counts cover every call; timings come from the kept
    /// slices, each at its host-speed scale.
    pub fn finish(self, out: &mut Outcome, sl: &Slices) {
        out.attempted += self.next;
        out.failed += self.failed;
        out.check(self.failed == 0, || {
            format!("{} of {} tune calls failed", self.failed, self.next)
        });

        // Small lattices: branch-and-bound must pick the exhaustive winner.
        for n in 0..LEDGER_PLANS {
            let p = plan(self.seed, LINEAR, n);
            let fast = tune(&self.model, &p, &self.cluster, &lattice_config(true));
            let full = tune(&self.model, &p, &self.cluster, &lattice_config(false));
            match (fast, full) {
                (Ok(a), Ok(b)) => {
                    if a.search_space <= EXHAUSTIVE_CHECK_MAX_POINTS {
                        out.check(a.parallelism == b.parallelism, || {
                            format!(
                                "linear plan {n}: branch-and-bound chose {:?}, exhaustive {:?}",
                                a.parallelism, b.parallelism
                            )
                        });
                    }
                }
                (a, b) => out.problems.push(format!(
                    "linear plan {n} failed to tune: {:?} / {:?}",
                    a.err(),
                    b.err()
                )),
            }
        }
        let l = self.ledger;
        out.ledger.extend([
            ("tune.search_space", l[0]),
            ("tune.search_visited", l[1]),
            ("tune.subtrees_pruned", l[2]),
            ("tune.candidates_evaluated", l[3]),
            ("tune.budget_exceeded", l[4]),
        ]);

        let ms = self
            .ms
            .iter()
            .filter(|&&(slice, _)| sl.kept(slice))
            .map(|&(slice, ms)| ms * sl.scale(slice))
            .collect();
        match Summary::new(ms) {
            Ok(s) => {
                // Plans per second of tuning: the inverse of the mean call.
                out.metrics
                    .push(Metric::new("tune_plans_per_s", "1/s", 1e3 / s.mean()));
                out.metrics.push(Metric::at("tune_p50_ms", "ms", &s, 50.0));
            }
            Err(e) => out.problems.push(format!("no successful tune call: {e}")),
        }
    }
}
