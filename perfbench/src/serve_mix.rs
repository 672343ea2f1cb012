//! `serve-mix`: the release `zt-serve` daemon in its own process, driven
//! over loopback by `nproc` closed-loop clients (each sends its next
//! request only after the previous reply, like a tuning tool waiting for
//! each answer).
//!
//! Request `i` of the seeded sequence is a pure function of `(seed, i)`:
//! * 45% `/predict` on one of 64 hot deployments, warmed before timing,
//!   so far under the 4096-entry cache that every one is a hit;
//! * 45% `/predict` on a deployment no other request uses (a join plan
//!   from a 128-plan pool at a parallelism vector spelled by `i`), so each
//!   misses, and past ~4096 of them the LRU evicts on every insert;
//! * 10% flat-search `/tune` on a benchmark-family plan at an event rate
//!   unique to `i`.
//!
//! Every reply is checked after the loop against the offline computation
//! on the same seeded model: `/predict` bodies byte for byte, `/tune`
//! bodies including the chosen parallelism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zt_core::{
    encode, tune, CostEstimator, FeatureMask, ModelConfig, OptimizerConfig, ZeroTuneModel,
};
use zt_dspsim::cluster::Cluster;
use zt_dspsim::ChainingMode;
use zt_query::benchmarks::{smart_grid_global, smart_grid_local, spike_detection};
use zt_query::generator::{QueryGenerator, QueryStructure};
use zt_query::{LogicalPlan, ParallelQueryPlan};
use zt_serve::{default_cluster, HealthResponse, PredictResponse, TuneResponse};

use crate::client::{request, CacheTag, Daemon};
use crate::stats::Summary;
use crate::{mix, nproc, secs, setup_metric, Ctx, Metric, Outcome, Slices};

const HOT_KEYS: usize = 64;
const UNIQUE_POOL: usize = 128;
/// Requests `0..LEDGER_PREFIX` always run, and the ledger counts them.
const LEDGER_PREFIX: u64 = 1500;
const SETUP_BOOTS: usize = 9;
/// Fewest requests of a kind a slice needs for its percentiles to count.
const MIN_SLICE_SAMPLES: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hot(usize),
    Unique,
    Tune,
}

/// A plan with its sealed wire envelope.
pub struct Sealed {
    pub plan: LogicalPlan,
    pub env: String,
}

impl Sealed {
    fn new(plan: LogicalPlan) -> Self {
        let ir = plan.validate().expect("generated plans are valid");
        let env = ir.to_json(&plan).expect("valid plans serialize");
        Sealed { plan, env }
    }
}

/// The seeded request sequence and the offline model it is checked
/// against.
pub struct Inputs {
    pub seed: u64,
    pub model: ZeroTuneModel,
    pub cluster: Cluster,
    /// Plan and parallelism of each hot key.
    hot: Vec<(Sealed, Vec<u32>)>,
    pool: Vec<Sealed>,
}

fn predict_body(env: &str, par: &[u32]) -> String {
    let par: Vec<String> = par.iter().map(u32::to_string).collect();
    format!("{{\"plan\":{env},\"parallelism\":[{}]}}", par.join(","))
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let gen = QueryGenerator::seen();
        let structures = QueryStructure::seen();
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x5E57E));
        // Each hot key has a plan of its own, so the 64 keys are 64
        // distinct deployments and a seed's mix of plan sizes averages over
        // many plans.
        let hot = (0..HOT_KEYS)
            .map(|k| {
                let plan = gen.generate(structures[k % structures.len()], &mut rng);
                let par = (0..plan.num_ops())
                    .map(|_| rng.gen_range(1..=8u32))
                    .collect();
                (Sealed::new(plan), par)
            })
            .collect();
        // Joins have 7+ operators, so `i / UNIQUE_POOL` spelled in base 8
        // gives every request its own parallelism vector.
        let pool = (0..UNIQUE_POOL)
            .map(|i| {
                let s = if i % 2 == 0 {
                    QueryStructure::TwoWayJoin
                } else {
                    QueryStructure::ThreeWayJoin
                };
                Sealed::new(gen.generate(s, &mut rng))
            })
            .collect();
        Inputs {
            seed,
            model: ZeroTuneModel::new(ModelConfig::default()),
            cluster: default_cluster(),
            hot,
            pool,
        }
    }

    pub fn kind(&self, i: u64) -> Kind {
        let h = mix(self.seed, i);
        match h % 100 {
            0..=44 => Kind::Hot(((h >> 32) % HOT_KEYS as u64) as usize),
            45..=89 => Kind::Unique,
            _ => Kind::Tune,
        }
    }

    fn unique_deployment(&self, i: u64) -> (&Sealed, Vec<u32>) {
        let s = &self.pool[(i % UNIQUE_POOL as u64) as usize];
        let mut rest = i / UNIQUE_POOL as u64;
        let par = (0..s.plan.num_ops())
            .map(|_| {
                let d = (rest % 8) as u32 + 1;
                rest /= 8;
                d
            })
            .collect();
        (s, par)
    }

    fn tune_plan(&self, i: u64) -> LogicalPlan {
        let h = mix(self.seed ^ 0x7E57, i);
        let rate = 50.0 * (1 + h % 2000) as f64 + i as f64 * 1e-6;
        match i % 3 {
            0 => spike_detection(rate),
            1 => smart_grid_local(rate),
            _ => smart_grid_global(rate),
        }
    }

    /// `(path, body)` of request `i`.
    pub fn request(&self, i: u64) -> (&'static str, String) {
        match self.kind(i) {
            Kind::Hot(k) => ("/predict", self.hot_body(k)),
            Kind::Unique => {
                let (s, par) = self.unique_deployment(i);
                ("/predict", predict_body(&s.env, &par))
            }
            Kind::Tune => (
                "/tune",
                format!("{{\"plan\":{}}}", Sealed::new(self.tune_plan(i)).env),
            ),
        }
    }

    pub fn hot_body(&self, k: usize) -> String {
        let (s, par) = &self.hot[k];
        predict_body(&s.env, par)
    }

    /// The deployment behind a `/predict` request, as the daemon builds it.
    pub fn deployment(&self, kind: Kind, i: u64) -> ParallelQueryPlan {
        let (plan, par) = match kind {
            Kind::Hot(k) => {
                let (s, par) = &self.hot[k];
                (&s.plan, par.clone())
            }
            _ => {
                let (s, par) = self.unique_deployment(i);
                (&s.plan, par)
            }
        };
        ParallelQueryPlan::with_parallelism(plan.clone(), par)
    }

    /// Plans behind the `/predict` and `/tune` traffic, for layer timing.
    pub fn plans(&self) -> impl Iterator<Item = &LogicalPlan> {
        self.hot
            .iter()
            .map(|(s, _)| s)
            .chain(&self.pool)
            .map(|s| &s.plan)
    }

    fn expected_predict(&self, pqp: &ParallelQueryPlan, version: u64) -> String {
        let g = encode(pqp, &self.cluster, ChainingMode::Auto, &FeatureMask::all());
        let p = self.model.predict(&g);
        serde_json::to_string(&PredictResponse {
            model_version: version,
            latency_ms: p.latency_ms,
            throughput: p.throughput,
        })
        .expect("predict response renders")
    }

    fn expected_tune(&self, i: u64, version: u64) -> Result<String, String> {
        // The daemon's pinned tuning config for a request with no overrides.
        let cfg = OptimizerConfig {
            strict: false,
            prune: true,
            dataflow_cap: true,
            ..OptimizerConfig::default()
        };
        let outcome = tune(&self.model, &self.tune_plan(i), &self.cluster, &cfg)
            .map_err(|e| e.to_string())?;
        serde_json::to_string(&TuneResponse {
            model_version: version,
            outcome,
        })
        .map_err(|e| e.to_string())
    }
}

struct Rec {
    i: u64,
    /// The serve slice the request ran in.
    slice: usize,
    ms: f64,
    status: u16,
    cache: CacheTag,
    body: String,
}

/// The serve phase: a booted, warmed daemon and the replies so far.
pub struct Serve {
    pub inputs: Inputs,
    pub daemon: Daemon,
    pub setup: Metric,
    version: u64,
    next: AtomicU64,
    recs: Vec<Rec>,
    /// Wall seconds of each slice.
    slices: Vec<f64>,
}

/// What the serve phase measured; the daemon stays up for the layer table.
pub struct ServeRun {
    pub daemon: Daemon,
    pub inputs: Inputs,
    /// Per kept slice: its seconds and the milliseconds of its hit, miss
    /// and `/tune` requests, all at the slice's host-speed scale.
    pub by_slice: Vec<(f64, [Vec<f64>; 3])>,
    /// Every kept `/predict` hit's and miss's milliseconds.
    pub hit_ms: Option<Summary>,
    pub miss_ms: Option<Summary>,
    pub hits: u64,
    pub misses: u64,
    pub rejected_503: u64,
    pub cache_entries: usize,
}

fn health(d: &Daemon) -> Result<HealthResponse, String> {
    let r = request(d.addr, "GET", "/healthz", "", None).map_err(|e| format!("/healthz: {e}"))?;
    serde_json::from_str(&r.body).map_err(|e| format!("/healthz body: {e}"))
}

impl Serve {
    /// Boot the daemon (the set-up: spawn to first healthy reply, median
    /// of several boots; the last one serves) and warm the hot set.
    pub fn start(ctx: &Ctx, out: &mut Outcome) -> Result<Serve, String> {
        let inputs = Inputs::new(ctx.seed);
        let mut daemon = None;
        let mut boot_err = None;
        let setup = setup_metric(SETUP_BOOTS, || match Daemon::boot(&ctx.serve_bin) {
            Ok((d, s)) => {
                daemon = Some(d);
                s
            }
            Err(e) => {
                boot_err = Some(e);
                0.0
            }
        });
        if let Some(e) = boot_err {
            return Err(e);
        }
        let daemon = daemon.expect("at least one boot");
        let version = health(&daemon)?.model_version;

        // The first lookup of each hot key must miss.
        for k in 0..HOT_KEYS {
            let r = request(daemon.addr, "POST", "/predict", &inputs.hot_body(k), None)
                .map_err(|e| format!("warm-up /predict: {e}"))?;
            out.check(r.status == 200 && r.cache == CacheTag::Miss, || {
                format!(
                    "warm-up of hot key {k}: status {} cache {:?}",
                    r.status, r.cache
                )
            });
        }
        Ok(Serve {
            inputs,
            daemon,
            setup,
            version,
            next: AtomicU64::new(0),
            recs: Vec::new(),
            slices: Vec::new(),
        })
    }

    /// Run the closed loop until `until` (and at least through the ledger
    /// prefix).
    pub fn step(&mut self, ctx: &Ctx, until: Instant) {
        let started = Instant::now();
        let sink: Mutex<Vec<Rec>> = Mutex::new(Vec::new());
        let (inputs, addr, next) = (&self.inputs, self.daemon.addr, &self.next);
        let slice = self.slices.len();
        std::thread::scope(|s| {
            for _ in 0..nproc() {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= LEDGER_PREFIX && Instant::now() >= until {
                            break;
                        }
                        let (path, body) = inputs.request(i);
                        let t = Instant::now();
                        let reply = request(addr, "POST", path, &body, Some(&ctx.spans));
                        let ms = secs(t) * 1e3;
                        mine.push(match reply {
                            Ok(r) => Rec {
                                i,
                                slice,
                                ms,
                                status: r.status,
                                cache: r.cache,
                                body: r.body,
                            },
                            Err(e) => Rec {
                                i,
                                slice,
                                ms,
                                status: 0,
                                cache: CacheTag::Absent,
                                body: e.to_string(),
                            },
                        });
                    }
                    sink.lock().expect("record sink").extend(mine);
                });
            }
        });
        self.slices.push(secs(started));
        self.recs.extend(sink.into_inner().expect("record sink"));
    }

    /// Tally the replies, cross-check the daemon's counters and check
    /// every reply against the offline computation. Timings come from the
    /// kept slices, each at its host-speed scale; counts and checks cover
    /// every reply.
    pub fn finish(self, out: &mut Outcome, sl: &Slices) -> Result<ServeRun, String> {
        let Serve {
            inputs,
            daemon,
            version,
            mut recs,
            slices,
            ..
        } = self;
        let mut by_slice: Vec<(f64, [Vec<f64>; 3])> = slices
            .iter()
            .enumerate()
            .map(|(i, s)| (s * sl.scale(i), Default::default()))
            .collect();
        recs.sort_by_key(|r| r.i);
        let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
        let (mut hits, mut misses, mut rejected_503, mut failed) = (0u64, 0u64, 0u64, 0u64);
        let mut ledger = [0u64; 6];
        for r in &recs {
            out.attempted += 1;
            if r.status != 200 {
                failed += 1;
                rejected_503 += u64::from(r.status == 503);
                continue;
            }
            match r.cache {
                CacheTag::Hit => hits += 1,
                CacheTag::Miss => misses += 1,
                CacheTag::Absent => {}
            }
            let kind = inputs.kind(r.i);
            if sl.kept(r.slice) {
                let ms = r.ms * sl.scale(r.slice);
                let class = match kind {
                    Kind::Hot(_) => {
                        hit_ms.push(ms);
                        0
                    }
                    Kind::Unique => {
                        miss_ms.push(ms);
                        1
                    }
                    Kind::Tune => 2,
                };
                by_slice[r.slice].1[class].push(ms);
            }
            if r.i < LEDGER_PREFIX {
                ledger[0] += u64::from(r.cache == CacheTag::Hit);
                ledger[1] += u64::from(r.cache == CacheTag::Miss);
                if kind == Kind::Tune {
                    ledger[2] += 1;
                    if let Ok(t) = serde_json::from_str::<TuneResponse>(&r.body) {
                        ledger[3] += t.outcome.search_visited;
                        ledger[4] += t.outcome.candidates_evaluated as u64;
                        ledger[5] += t.outcome.candidates_pruned as u64;
                    }
                }
            }
        }
        out.failed += failed;
        out.ledger.extend([
            ("serve.cache_hits", ledger[0]),
            ("serve.cache_misses", ledger[1]),
            ("serve.tunes", ledger[2]),
            ("serve.tune.search_visited", ledger[3]),
            ("serve.tune.candidates_evaluated", ledger[4]),
            ("serve.tune.candidates_pruned", ledger[5]),
        ]);
        if failed > 0 {
            let first = recs.iter().find(|r| r.status != 200).map(|r| &r.body);
            out.problems.push(format!(
                "{failed} of {} requests failed; first: {first:?}",
                recs.len()
            ));
        }

        // The daemon's own counters must agree with the reply headers
        // (the warm-up added HOT_KEYS misses).
        let h = health(&daemon)?;
        out.check(
            h.cache_hits == hits && h.cache_misses == misses + HOT_KEYS as u64,
            || {
                format!(
                    "/healthz counts {} hits / {} misses, headers {hits} / {}",
                    h.cache_hits,
                    h.cache_misses,
                    misses + HOT_KEYS as u64
                )
            },
        );

        verify(&inputs, &recs, version, out);

        let by_slice = by_slice
            .into_iter()
            .enumerate()
            .filter_map(|(i, s)| sl.kept(i).then_some(s))
            .collect();
        Ok(ServeRun {
            daemon,
            by_slice,
            hit_ms: Summary::new(hit_ms).ok(),
            miss_ms: Summary::new(miss_ms).ok(),
            hits,
            misses,
            rejected_503,
            cache_entries: h.cache_entries,
            inputs,
        })
    }
}

/// Boot, run the loop for `seconds` and check it: the serve phase alone.
pub fn drive(ctx: &Ctx, seconds: f64, out: &mut Outcome) -> Result<ServeRun, String> {
    let mut serve = Serve::start(ctx, out)?;
    serve.step(ctx, Instant::now() + Duration::from_secs_f64(seconds));
    serve.finish(out, &Slices::default())
}

/// Check every successful reply against the offline computation, spread
/// over `nproc` threads.
fn verify(inputs: &Inputs, recs: &[Rec], version: u64, out: &mut Outcome) {
    let hot_expected: Vec<String> = (0..HOT_KEYS)
        .map(|k| inputs.expected_predict(&inputs.deployment(Kind::Hot(k), 0), version))
        .collect();
    let problems: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for part in recs.chunks(recs.len().div_ceil(nproc()).max(1)) {
            s.spawn(|| {
                let mut mine = Vec::new();
                for r in part.iter().filter(|r| r.status == 200) {
                    let kind = inputs.kind(r.i);
                    let (want_cache, expected) = match kind {
                        Kind::Hot(k) => (CacheTag::Hit, Ok(hot_expected[k].clone())),
                        Kind::Unique => (
                            CacheTag::Miss,
                            Ok(inputs.expected_predict(&inputs.deployment(kind, r.i), version)),
                        ),
                        Kind::Tune => (CacheTag::Absent, inputs.expected_tune(r.i, version)),
                    };
                    if r.cache != want_cache {
                        mine.push(format!(
                            "request {} ({kind:?}): cache header {:?}, expected {want_cache:?}",
                            r.i, r.cache
                        ));
                    }
                    match expected {
                        Ok(e) if e == r.body => {}
                        Ok(e) => mine.push(format!(
                            "request {} ({kind:?}): body {} differs from offline {e}",
                            r.i, r.body
                        )),
                        Err(e) => mine.push(format!("request {}: offline tune failed: {e}", r.i)),
                    }
                    if mine.len() > 5 {
                        break;
                    }
                }
                problems.lock().expect("problem sink").extend(mine);
            });
        }
    });
    out.problems
        .extend(problems.into_inner().expect("problem sink"));
}

impl ServeRun {
    /// The serve phase's end-to-end metrics: each is the median over the
    /// kept slices of that slice's figure, so a burst of contention in a
    /// few slices does not move it.
    pub fn metrics(&self, out: &mut Outcome) {
        let qps = self
            .by_slice
            .iter()
            .map(|(secs, kinds)| kinds.iter().map(Vec::len).sum::<usize>() as f64 / secs)
            .collect();
        match Summary::new(qps) {
            Ok(s) => out.metrics.push(Metric::at("serve_qps", "1/s", &s, 50.0)),
            Err(e) => out.problems.push(format!("serve_qps: {e}")),
        }
        for (class, p50, p90) in [
            (0, "predict_hit_p50_ms", "predict_hit_p90_ms"),
            (1, "predict_miss_p50_ms", "predict_miss_p90_ms"),
            (2, "serve_tune_p50_ms", "serve_tune_p90_ms"),
        ] {
            for (name, q) in [(p50, 50.0), (p90, 90.0)] {
                let per_slice = self
                    .by_slice
                    .iter()
                    .filter_map(|(_, kinds)| {
                        let ms = &kinds[class];
                        (ms.len() >= MIN_SLICE_SAMPLES)
                            .then(|| Summary::new(ms.clone()).ok().map(|s| s.percentile(q)))
                            .flatten()
                    })
                    .collect();
                match Summary::new(per_slice) {
                    Ok(s) => out.metrics.push(Metric::at(name, "ms", &s, 50.0)),
                    Err(e) => out
                        .problems
                        .push(format!("{name}: no slice with enough samples ({e})")),
                }
            }
        }
    }
}
