//! `zt-perfbench` — the ZeroTune workspace benchmark.
//!
//! ```text
//! zt-perfbench --workload serve-mix|tune-lattice|train-pipeline --seed N
//!              --seconds S --trace 0|1 --serve-bin PATH --state-dir DIR
//!              --source-id HEX
//! ```
//!
//! Normally launched through `perfbench/run.py`, which builds this binary
//! and the release `zt-serve` daemon from the checkout first and passes
//! `--source-id`, a digest of the sources both were built from: count
//! ledgers and untraced baselines are only compared within one source.
//!
//! * `--trace 0` runs the workload for `S` seconds with no tracing and
//!   reports its end-to-end metrics.
//! * `--trace 1` runs the workload's loop again with client-side spans,
//!   then times each layer from outside by calling that
//!   layer's public functions on the same inputs, and reports the
//!   per-layer table. The traced loop's end-to-end figures, compared with
//!   the untraced runs recorded in the state directory, are the tracing
//!   overhead.
//!
//! Every run checks the program's outputs, records a deterministic count
//! ledger (compared against earlier runs of the same seed and source) and
//! writes a run record. The last stdout line is the result object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//!
//! Seeds: development used seeds 1–50; seed 1009 is held out for later
//! claim checks.

mod calib;
mod client;
mod layers;
mod serve_mix;
mod stats;
mod train_pipeline;
mod tune_lattice;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Value;
use stats::Summary;

/// The seed kept out of benchmark development, for confirming claims.
pub const HELD_OUT_SEED: u64 = 1009;

/// One reported metric: a headline value plus, when it summarizes a
/// sample, the distribution it came from.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub dist: Option<Summary>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            dist: None,
        }
    }

    /// A metric read off a sample at percentile `q` (`[0, 100]` scale).
    pub fn at(name: &'static str, unit: &'static str, s: &Summary, q: f64) -> Self {
        Metric {
            name,
            unit,
            value: s.percentile(q),
            dist: Some(s.clone()),
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Deterministic counts over a fixed prefix of the workload.
    pub ledger: Vec<(&'static str, u64)>,
    /// Per phase, a row per slice.
    pub slices: Vec<(&'static str, Vec<SliceRow>)>,
}

/// A slice's interference share (see [`cpu_ticks`]), whether its timings
/// count, and its host-speed scale.
pub type SliceRow = (f64, bool, f64);

/// How a phase's slices count: whether a slice's timings are kept, and
/// the host-speed scale (see [`calib`]) its times are multiplied by.
/// A slice with no entry is kept at scale 1.
#[derive(Default)]
pub struct Slices {
    pub keep: Vec<bool>,
    pub scale: Vec<f64>,
}

impl Slices {
    pub fn kept(&self, i: usize) -> bool {
        self.keep.get(i).copied().unwrap_or(true)
    }

    pub fn scale(&self, i: usize) -> f64 {
        self.scale.get(i).copied().unwrap_or(1.0)
    }
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Client-side span recorder used by traced runs; a no-op otherwise.
pub struct Spans {
    on: bool,
    spans: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            spans: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn record(&self, name: &'static str, d: Duration) {
        if self.on {
            self.spans
                .lock()
                .expect("span recorder lock")
                .entry(name)
                .or_default()
                .push(d.as_secs_f64() * 1e6);
        }
    }

    fn to_value(&self) -> Value {
        let spans = self.spans.lock().expect("span recorder lock");
        Value::Map(
            spans
                .iter()
                .filter_map(|(k, v)| {
                    Summary::new(v.clone())
                        .ok()
                        .map(|s| (format!("{k}_us"), s.to_value()))
                })
                .collect(),
        )
    }
}

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    pub serve_bin: PathBuf,
    pub spans: Spans,
}

/// `nproc`: client threads, datagen workers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// splitmix64: decorrelated per-index streams from one seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median set-up time over `reps` repetitions of `f`; `f` returns its
/// own elapsed seconds so it can exclude teardown.
pub fn setup_metric(reps: usize, mut f: impl FnMut() -> f64) -> Metric {
    let times: Vec<f64> = (0..reps).map(|_| f()).collect();
    let s = Summary::new(times).expect("set-up times are finite");
    Metric::at("setup_s", "s", &s, 50.0)
}

const WORKLOADS: [&str; 3] = ["serve-mix", "tune-lattice", "train-pipeline"];

/// Nominal length of one slice of the schedule.
const SLICE_S: f64 = 1.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Serve,
    Tune,
    Train,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Serve => "serve",
            Phase::Tune => "tune",
            Phase::Train => "train",
        }
    }
}

/// Time slices of one run. Every run exercises all three phases, so every
/// end-to-end metric is measured on every workload; the workload's own
/// phase gets every other slice and the other two share the rest,
/// interleaved so that each metric samples the whole run. Where serve is
/// not the home phase it takes two of every three shared slices: its p90s
/// need thousands of requests, while the tune and train figures rest on
/// many short calls.
fn schedule(workload: &str, seconds: f64) -> Vec<Phase> {
    let (home, shared) = match workload {
        "serve-mix" => (Phase::Serve, vec![Phase::Tune, Phase::Train]),
        "tune-lattice" => (Phase::Tune, vec![Phase::Serve, Phase::Train, Phase::Serve]),
        _ => (Phase::Train, vec![Phase::Serve, Phase::Tune, Phase::Serve]),
    };
    let slices = ((seconds / SLICE_S).round() as usize).max(4);
    (0..slices)
        .map(|i| {
            if i % 2 == 0 {
                home
            } else {
                shared[(i / 2) % shared.len()]
            }
        })
        .collect()
}

fn run_workload(ctx: &Ctx, workload: &str) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is timed before any of the program runs, against a
    // calibration point taken first.
    let first = calib::measure();
    let mut serve = match serve_mix::Serve::start(ctx, &mut out) {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let mut tune = tune_lattice::Tune::start(ctx);
    let mut train = train_pipeline::Train::start(ctx);
    let setup = [&serve.setup, &tune.setup, &train.setup];
    let raw_setup: f64 = setup.iter().map(|m| m.value).sum();
    eprintln!(
        "set-up medians: daemon boot {:.4} s, tuner {:.4} s, trainer {:.4} s; host scale {:.3}",
        setup[0].value,
        setup[1].value,
        setup[2].value,
        calib::scale(first, first)
    );
    out.metrics.push(Metric::new(
        "setup_s",
        "s",
        raw_setup * calib::scale(first, first),
    ));

    let plan = schedule(workload, ctx.seconds);
    let slice = Duration::from_secs_f64(ctx.seconds / plan.len() as f64);
    // Per phase, each slice's interference share and scale, in the order
    // the phase ran them.
    let pids = [std::process::id(), serve.daemon.pid()];
    let mut interference: [Vec<f64>; 3] = Default::default();
    let mut scale: [Vec<f64>; 3] = Default::default();
    let mut before = calibrate(&serve.daemon, &mut out.problems);
    for phase in plan {
        let until = Instant::now() + slice;
        let ticks = cpu_ticks(&pids);
        match phase {
            Phase::Serve => serve.step(ctx, until),
            Phase::Tune => tune.step(ctx, until),
            Phase::Train => train.step(ctx, until),
        }
        interference[phase as usize].push(interference_share(ticks, cpu_ticks(&pids)));
        let after = calibrate(&serve.daemon, &mut out.problems);
        scale[phase as usize].push(calib::scale(before, after));
        before = after;
    }
    let [serve_slices, tune_slices, train_slices] =
        [Phase::Serve, Phase::Tune, Phase::Train].map(|p| Slices {
            keep: quiet_slices(&interference[p as usize]),
            scale: scale[p as usize].clone(),
        });
    out.slices = [
        (Phase::Serve, &serve_slices),
        (Phase::Tune, &tune_slices),
        (Phase::Train, &train_slices),
    ]
    .into_iter()
    .map(|(p, s)| {
        let i = p as usize;
        (
            p.name(),
            interference[i]
                .iter()
                .enumerate()
                .map(|(k, &share)| (share, s.kept(k), s.scale(k)))
                .collect(),
        )
    })
    .collect();

    match serve.finish(&mut out, &serve_slices) {
        Ok(run) => run.metrics(&mut out),
        Err(e) => out.problems.push(e),
    }
    tune.finish(&mut out, &tune_slices);
    train.finish(&mut out, &train_slices);
    out
}

/// One calibration point, taken with the daemon stopped.
fn calibrate(daemon: &client::Daemon, problems: &mut Vec<String>) -> f64 {
    if let Err(e) = daemon.pause(true) {
        problems.push(e);
    }
    let c = calib::measure();
    if let Err(e) = daemon.pause(false) {
        problems.push(e);
    }
    c
}

/// `(interference, total)` jiffies of all CPUs: interference is the time
/// the hypervisor gave to other guests (the steal column of `/proc/stat`)
/// plus the user and system time of every process but the benchmark's
/// own (`pids`). Zeros where the kernel does not report them.
fn cpu_ticks(pids: &[u32]) -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    let at = |i: usize| ticks.get(i).copied().unwrap_or(0);
    // user + nice + system + steal, less the benchmark's own user + system.
    let busy = at(0) + at(1) + at(2) + at(7);
    let own: u64 = pids.iter().map(|&p| process_ticks(p)).sum();
    (busy.saturating_sub(own), ticks.iter().sum())
}

/// User + system jiffies of process `pid`, all threads, from
/// `/proc/<pid>/stat`; 0 when it cannot be read.
fn process_ticks(pid: u32) -> u64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse().ok())
        .collect();
    f.iter().sum()
}

/// Share of CPU time taken by anything but the benchmark between two
/// [`cpu_ticks`] readings.
fn interference_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Interference share, above the least-disturbed slice's, that still
/// counts as quiet: about four of the 200 jiffies two CPUs give a
/// one-second slice.
const QUIET_SLACK: f64 = 0.02;

/// Marks the slices whose timings count: the half (rounded up) with the
/// least interference, ties keeping the earlier slice, and every other
/// slice within [`QUIET_SLACK`] of the least-disturbed one. On a shared
/// host other guests (the steal column of `/proc/stat`) and other
/// processes take CPU time in bursts, and a slice that lost its CPUs
/// measures the neighbours, not the program; on a quiet host every slice
/// counts. Counts and checks use every slice.
fn quiet_slices(share: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..share.len()).collect();
    order.sort_by(|&a, &b| share[a].total_cmp(&share[b]).then(a.cmp(&b)));
    let mut keep = vec![false; share.len()];
    let Some(&least) = order.first() else {
        return keep;
    };
    for (rank, &i) in order.iter().enumerate() {
        keep[i] = rank < share.len().div_ceil(2) || share[i] <= share[least] + QUIET_SLACK;
    }
    keep
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    state_dir: PathBuf,
    source_id: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(name.to_string(), value);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .map_err(|_| format!("--{k} must be a number"))
    };
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds = num("seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        serve_bin: PathBuf::from(get("serve-bin")?),
        state_dir: PathBuf::from(get("state-dir")?),
        source_id: get("source-id")?,
    })
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                if let Some(d) = &m.dist {
                    fields.push(("dist".to_string(), d.to_value()));
                }
                (m.name.to_string(), Value::Map(fields))
            })
            .collect(),
    )
}

fn read_json(path: &Path) -> Option<Value> {
    serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Compare this run's ledger with the one stored for the same workload,
/// seed and source; store it when there is none. Returns the counts that
/// differ.
fn check_ledger(args: &Args, ledger: &[(&'static str, u64)]) -> Result<Vec<String>, String> {
    let path = args.state_dir.join(format!(
        "ledger-{}-seed{}-{}.json",
        args.workload, args.seed, args.source_id
    ));
    let current = Value::Map(
        ledger
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
            .collect(),
    );
    let Some(stored) = read_json(&path) else {
        write_json(&path, &current)?;
        return Ok(Vec::new());
    };
    let mut diffs = Vec::new();
    for (k, v) in ledger {
        let was = stored.get(k).and_then(Value::as_f64);
        if was != Some(*v as f64) {
            diffs.push(format!(
                "ledger count {k}: {v} now, {was:?} in an earlier run"
            ));
        }
    }
    Ok(diffs)
}

/// Medians of the end-to-end metrics over the untraced runs recorded for
/// this workload and source.
fn untraced_medians(args: &Args) -> BTreeMap<String, f64> {
    let prefix = format!("e2e-{}-", args.workload);
    let suffix = format!("-{}.json", args.source_id);
    let mut per_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(&args.state_dir) else {
        return BTreeMap::new();
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if !(name.starts_with(&prefix) && name.ends_with(&suffix)) {
            continue;
        }
        if let Some(Value::Map(m)) = read_json(&entry.path()) {
            for (k, v) in m {
                if let Some(x) = v.as_f64() {
                    per_metric.entry(k).or_default().push(x);
                }
            }
        }
    }
    per_metric
        .into_iter()
        .filter_map(|(k, v)| Summary::new(v).ok().map(|s| (k, s.median())))
        .collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit, asked of git only when the checkout itself is
/// a repository (so git never searches the directories above it).
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn run(args: &Args) -> Result<(Outcome, Value), String> {
    std::fs::create_dir_all(&args.state_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.state_dir.display()))?;
    if !args.serve_bin.is_file() {
        return Err(format!(
            "no zt-serve binary at {}",
            args.serve_bin.display()
        ));
    }
    // A traced run repeats the untraced loop at full length, so their
    // end-to-end figures compare like for like.
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        serve_bin: args.serve_bin.clone(),
        spans: Spans::new(args.trace),
    };
    let mut out = run_workload(&ctx, &args.workload);
    out.problems.extend(check_ledger(args, &out.ledger)?);

    let mut record = vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), Value::Num(args.seed as f64)),
        (
            "held_out_seed".to_string(),
            Value::Num(HELD_OUT_SEED as f64),
        ),
        ("seconds".to_string(), Value::Num(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("nproc".to_string(), Value::Num(nproc() as f64)),
        ("cpu".to_string(), Value::Str(cpu_model())),
        (
            "kernels".to_string(),
            Value::Str(zt_nn::kernels::ACTIVE_KERNELS.to_string()),
        ),
        ("fma".to_string(), Value::Bool(cfg!(target_feature = "fma"))),
        ("git_commit".to_string(), Value::Str(git_commit())),
        ("source_id".to_string(), Value::Str(args.source_id.clone())),
        (
            "ledger".to_string(),
            Value::Map(
                out.ledger
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
                    .collect(),
            ),
        ),
    ];

    if args.trace {
        let untraced = untraced_medians(args);
        let mut overhead = Vec::new();
        eprintln!("tracing overhead (traced loop vs median of untraced runs of this source):");
        for m in &out.metrics {
            match untraced.get(m.name) {
                Some(&base) if base != 0.0 => {
                    let delta = (m.value - base) / base;
                    eprintln!(
                        "  {:<24} traced {:>12.4} {:<5} untraced {:>12.4}  delta {:+.1}%",
                        m.name,
                        m.value,
                        m.unit,
                        base,
                        delta * 100.0
                    );
                    overhead.push((m.name.to_string(), Value::Num(delta)));
                }
                _ => eprintln!("  {:<24} no untraced run recorded", m.name),
            }
        }
        record.push(("traced_e2e".to_string(), metrics_value(&out.metrics)));
        record.push(("trace_overhead".to_string(), Value::Map(overhead)));
        record.push(("spans".to_string(), ctx.spans.to_value()));
        out.metrics = layers::measure(&ctx, &args.workload, &mut out.problems);
        layers::print_table(&out.metrics);
    } else if out.problems.is_empty() {
        let e2e = Value::Map(
            out.metrics
                .iter()
                .map(|m| (m.name.to_string(), Value::Num(m.value)))
                .collect(),
        );
        write_json(
            &args.state_dir.join(format!(
                "e2e-{}-seed{}-{}.json",
                args.workload, args.seed, args.source_id
            )),
            &e2e,
        )?;
    }
    if !args.trace {
        for m in &out.metrics {
            eprintln!("  {:<24} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    // Every emitted report must be ordered and finite.
    for m in &mut out.metrics {
        if let Some(Err(e)) = m.dist.as_ref().map(Summary::check) {
            out.problems.push(format!("{}: {e}", m.name));
        }
        if !m.value.is_finite() {
            out.problems.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    record.push(("metrics".to_string(), metrics_value(&out.metrics)));
    record.push((
        "slices".to_string(),
        Value::Map(
            out.slices
                .iter()
                .map(|(phase, slices)| {
                    let rows = slices
                        .iter()
                        .map(|&(share, kept, scale)| {
                            Value::Map(vec![
                                ("interference".to_string(), Value::Num(share)),
                                ("kept".to_string(), Value::Bool(kept)),
                                ("scale".to_string(), Value::Num(scale)),
                            ])
                        })
                        .collect();
                    (phase.to_string(), Value::Seq(rows))
                })
                .collect(),
        ),
    ));
    record.push((
        "problems".to_string(),
        Value::Seq(out.problems.iter().cloned().map(Value::Str).collect()),
    ));
    let record = Value::Map(record);
    write_json(
        &args.state_dir.join(format!(
            "run-{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        )),
        &record,
    )?;
    Ok((out, record))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zt-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (out, record) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("zt-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let result = Value::Map(vec![
        ("correct".to_string(), Value::Bool(out.problems.is_empty())),
        ("attempted".to_string(), Value::Num(out.attempted as f64)),
        ("failed".to_string(), Value::Num(out.failed as f64)),
        (
            "metrics".to_string(),
            Value::Map(
                out.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Value::Map(vec![
                                ("value".to_string(), Value::Num(m.value)),
                                ("unit".to_string(), Value::Str(m.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!(
        "run-record: {}",
        serde_json::to_string(&record).expect("run record renders")
    );
    println!(
        "{}",
        serde_json::to_string(&result).expect("result renders")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_least_disturbed_half_and_every_quiet_slice() {
        assert_eq!(
            quiet_slices(&[0.3, 0.0, 0.2, 0.1, 0.2]),
            [false, true, true, true, false]
        );
        assert_eq!(
            quiet_slices(&[0.3, 0.0, 0.25, 0.28]),
            [false, true, true, false]
        );
        assert_eq!(
            quiet_slices(&[0.0, 0.01, 0.02, 0.05]),
            [true, true, true, false]
        );
        assert_eq!(quiet_slices(&[0.0; 4]), [true; 4]);
        assert!(quiet_slices(&[]).is_empty());
    }

    #[test]
    fn home_phase_gets_every_other_slice() {
        let shared = |w: &str, home: Phase| {
            let plan = schedule(w, 12.0);
            assert_eq!(plan.len(), 12);
            assert!(plan.iter().step_by(2).all(|&p| p == home));
            plan.iter()
                .skip(1)
                .step_by(2)
                .copied()
                .collect::<Vec<Phase>>()
        };
        use Phase::{Serve, Train, Tune};
        assert_eq!(
            shared("serve-mix", Serve),
            [Tune, Train, Tune, Train, Tune, Train]
        );
        assert_eq!(
            shared("tune-lattice", Tune),
            [Serve, Train, Serve, Serve, Train, Serve]
        );
        assert_eq!(
            shared("train-pipeline", Train),
            [Serve, Tune, Serve, Serve, Tune, Serve]
        );
    }
}
