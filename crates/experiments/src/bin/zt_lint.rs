//! `zt-lint` — run every static diagnostics pass and print a rustc-style
//! report.
//!
//! Usage: `cargo run --release -p zt-experiments --bin zt-lint -- [TARGETS]`
//!
//! Targets (combine freely; no arguments runs `--benchmarks
//! --gen-dataset 24` plus a fresh-model lint):
//!
//! * `--benchmarks` — lint the three benchmark queries (spike detection,
//!   local/global smart grid) as parallelism-1 deployments on a 4-node
//!   m510 cluster.
//! * `--gen-dataset N` — generate an N-sample seen-workload dataset
//!   (fixed seed) and lint its labels, encodings and batch statistics.
//! * `--plan FILE` — lint a serialized `ParallelQueryPlan` (or bare
//!   `LogicalPlan`) JSON file.
//! * `--dataset FILE` — lint a serialized `Dataset` JSON file.
//! * `--model FILE` — lint a serialized `ZeroTuneModel` JSON file; when a
//!   `--dataset` target is also given, additionally checks the model's
//!   target normalization against that dataset's labels.
//! * `--bounds` — additionally run the interval-bounds pass (ZT5xx) over
//!   every linted deployment: benchmark queries and `--plan`/`--results`
//!   files that deserialize as a `ParallelQueryPlan` get a provable
//!   lower/upper-bound report rendered next to their diagnostics.
//! * `--dataflow` — additionally run the monotone dataflow analyses over
//!   every linted deployment and render the per-edge fact table
//!   (rate/width brackets, key cardinality, distribution property, key
//!   classes). The ZT7xx findings themselves are part of the ordinary
//!   plan lint; this flag adds the underlying facts.
//! * `--certify` — additionally certify every linted model by interval
//!   bound propagation over its trained weights (ZT6xx): certified
//!   per-depth output brackets, dead/saturated units and per-feature
//!   sensitivity bounds are rendered next to the model's diagnostics;
//!   applies to the fresh-model target, `--model` and `--results` models.
//! * `--results[=DIR]` — sniff every `*.json` under DIR (default
//!   `results`) and lint whatever it deserializes as (plan, dataset or
//!   model); unrecognized artifacts are skipped with a note.
//! * `--fuzz N` — seeded random-plan smoke test: generate N plans across
//!   every `QueryStructure` (fixed per-plan seeds, so runs are
//!   reproducible), seal each through `validate()`, round-trip it
//!   through the `PlanIr::to_json` wire envelope (fingerprint must
//!   survive re-sealing — the zt-serve ZT109 check), lint it, derive its
//!   interval bounds and run the analytical simulator, checking the
//!   simulated point estimates land inside the provable brackets, that
//!   the dataflow rate facts are a fixpoint, and that the bounds
//!   module's unthrottled rates nest inside the dataflow brackets. Any
//!   error-severity finding or out-of-bracket estimate fails the run,
//!   except ZT503 (provably infeasible deployment), which is an expected
//!   verdict for random workloads pinned at parallelism 1.
//! * `--codes` — print the lint-code registry and exit.
//!
//! Exit status: 0 when no `Error`-severity findings were produced
//! (warnings are fine), 1 when at least one error was found, 2 on usage
//! errors.

use std::process::ExitCode;

use zt_core::diagnostics::{
    lint_bounds_report, lint_dataset, lint_model, lint_model_against, lint_plan, lint_pqp, Report,
    Severity, REGISTRY,
};
use zt_core::{generate_dataset, BoundsConfig, Dataset, GenConfig, ZeroTuneModel};
use zt_dspsim::cluster::{Cluster, ClusterType};
use zt_query::benchmarks;
use zt_query::{LogicalPlan, ParallelQueryPlan, PlanIr};

/// One lint target: a heading, the diagnostics found under it, and an
/// optional pre-rendered detail block (the bounds table).
struct Section {
    heading: String,
    report: Report,
    detail: Option<String>,
}

fn section(heading: impl Into<String>, report: Report) -> Section {
    Section {
        heading: heading.into(),
        report,
        detail: None,
    }
}

/// The reference cluster deployments are linted against (4× m510,
/// 10 Gbps — the benchmark setup of the paper's evaluation).
fn reference_cluster() -> Cluster {
    Cluster::homogeneous(ClusterType::M510, 4, 10.0)
}

/// Run the interval-bounds pass over one deployment: ZT5xx lints plus the
/// rendered per-operator interval table.
fn bounds_section(name: &str, pqp: &ParallelQueryPlan, ir: &PlanIr, cluster: &Cluster) -> Section {
    let report = zt_core::bounds::analyze_with(pqp, ir, cluster, &BoundsConfig::default());
    Section {
        heading: format!("bounds `{name}` (reference 4-node m510 cluster)"),
        report: Report::new(lint_bounds_report(&report)),
        detail: Some(zt_core::explain::explain_bounds(pqp, &report, None)),
    }
}

/// Certify one model by interval bound propagation: the ZT6xx findings
/// plus the rendered per-depth bracket table.
fn certify_section(name: &str, model: &ZeroTuneModel) -> Section {
    let (cert, report) = zt_core::certify_report(model);
    Section {
        heading: format!("certify `{name}` (interval bound propagation)"),
        report,
        detail: cert.as_ref().map(zt_core::explain_certificate),
    }
}

/// Render the per-edge dataflow fact table for one deployment. The ZT7xx
/// findings already appear in the deployment's ordinary lint section, so
/// this section carries only the underlying facts.
fn dataflow_section(name: &str, pqp: &ParallelQueryPlan, ir: &PlanIr) -> Section {
    let report = zt_core::dataflow::analyze_pqp(pqp, ir);
    Section {
        heading: format!("dataflow `{name}` (per-edge fixpoint facts)"),
        report: Report::default(),
        detail: Some(zt_core::explain::explain_dataflow(pqp, ir, &report)),
    }
}

/// The bounds and dataflow sections of one deployment, sealed once for
/// both against the reference cluster. A deployment that does not
/// validate gets neither: its ordinary lint section already reports why.
fn deployment_sections(
    name: &str,
    pqp: &ParallelQueryPlan,
    bounds: bool,
    dataflow: bool,
    sections: &mut Vec<Section>,
) {
    if !(bounds || dataflow) {
        return;
    }
    let Ok(ir) = pqp.validate() else {
        return;
    };
    if bounds {
        sections.push(bounds_section(name, pqp, &ir, &reference_cluster()));
    }
    if dataflow {
        sections.push(dataflow_section(name, pqp, &ir));
    }
}

fn lint_benchmarks(bounds: bool, dataflow: bool, sections: &mut Vec<Section>) {
    let cluster = reference_cluster();
    let queries: [(&str, LogicalPlan); 3] = [
        ("spike_detection", benchmarks::spike_detection(10_000.0)),
        ("smart_grid_local", benchmarks::smart_grid_local(10_000.0)),
        ("smart_grid_global", benchmarks::smart_grid_global(10_000.0)),
    ];
    for (name, plan) in queries {
        let pqp = ParallelQueryPlan::new(plan);
        let report = Report::new(lint_pqp(&pqp, Some(&cluster)));
        sections.push(section(format!("benchmark query `{name}`"), report));
        deployment_sections(name, &pqp, bounds, dataflow, sections);
    }
}

fn lint_generated(n: usize, sections: &mut Vec<Section>) {
    let data = generate_dataset(&GenConfig::seen(), n, 7);
    let report = Report::new(lint_dataset(&data));
    sections.push(section(
        format!("generated dataset ({n} samples, seed 7)"),
        report,
    ));
}

fn lint_fresh_model(certify: bool, sections: &mut Vec<Section>) {
    let model = ZeroTuneModel::new(zt_core::ModelConfig {
        hidden: 32,
        seed: 42,
    });
    let report = Report::new(lint_model(&model));
    sections.push(section(
        "freshly initialized model (hidden 32, seed 42)",
        report,
    ));
    if certify {
        sections.push(certify_section("fresh model", &model));
    }
}

fn read_json(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn lint_plan_file(
    path: &str,
    bounds: bool,
    dataflow: bool,
    sections: &mut Vec<Section>,
) -> Result<(), String> {
    let json = read_json(path)?;
    // A PQP file carries the parallel configuration; fall back to a bare
    // logical plan so both serializations are accepted.
    if let Ok(pqp) = serde_json::from_str::<ParallelQueryPlan>(&json) {
        sections.push(section(
            format!("parallel query plan `{path}`"),
            Report::new(lint_pqp(&pqp, None)),
        ));
        deployment_sections(path, &pqp, bounds, dataflow, sections);
        return Ok(());
    }
    let plan = serde_json::from_str::<LogicalPlan>(&json)
        .map_err(|e| format!("`{path}` is neither a ParallelQueryPlan nor a LogicalPlan: {e}"))?;
    sections.push(section(
        format!("logical plan `{path}`"),
        Report::new(lint_plan(&plan)),
    ));
    Ok(())
}

/// Sniff every `*.json` under `dir` and lint whatever each file
/// deserializes as. Experiment result files (and anything else
/// unrecognized) are skipped with a note; a missing directory is a note,
/// not an error, so CI can run this before any experiment has executed.
fn lint_results_dir(
    dir: &str,
    bounds: bool,
    certify: bool,
    dataflow: bool,
    sections: &mut Vec<Section>,
) {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            let mut s = section(format!("results directory `{dir}`"), Report::default());
            s.detail = Some(format!("skipped: cannot read directory ({e})\n"));
            sections.push(s);
            return;
        }
    };
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        let mut s = section(format!("results directory `{dir}`"), Report::default());
        s.detail = Some("skipped: no *.json files\n".to_string());
        sections.push(s);
        return;
    }
    for p in paths {
        let path = p.display().to_string();
        let Ok(json) = std::fs::read_to_string(&p) else {
            let mut s = section(format!("result `{path}`"), Report::default());
            s.detail = Some("skipped: unreadable\n".to_string());
            sections.push(s);
            continue;
        };
        if let Ok(pqp) = serde_json::from_str::<ParallelQueryPlan>(&json) {
            sections.push(section(
                format!("parallel query plan `{path}`"),
                Report::new(lint_pqp(&pqp, None)),
            ));
            deployment_sections(&path, &pqp, bounds, dataflow, sections);
        } else if let Ok(plan) = serde_json::from_str::<LogicalPlan>(&json) {
            sections.push(section(
                format!("logical plan `{path}`"),
                Report::new(lint_plan(&plan)),
            ));
        } else if let Ok(data) = serde_json::from_str::<Dataset>(&json) {
            sections.push(section(
                format!("dataset `{path}`"),
                Report::new(lint_dataset(&data)),
            ));
        } else if let Ok(model) = ZeroTuneModel::from_json(&json) {
            sections.push(section(
                format!("model `{path}`"),
                Report::new(lint_model(&model)),
            ));
            if certify {
                sections.push(certify_section(&path, &model));
            }
        } else {
            let mut s = section(format!("result `{path}`"), Report::default());
            s.detail = Some("skipped: not a lintable artifact (plan/dataset/model)\n".to_string());
            sections.push(s);
        }
    }
}

/// Seeded random-plan smoke test: generator → seal → lint → bounds →
/// simulate. Returns the number of plans that failed any stage; their
/// error diagnostics are collected into one section so the usual exit
/// logic sees them.
fn fuzz_smoke(n: usize, sections: &mut Vec<Section>) -> usize {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zt_dspsim::analytical::{simulate, SimConfig};
    use zt_query::{QueryGenerator, QueryStructure};

    let cluster = reference_cluster();
    let mut failed = 0usize;
    let mut lines = String::new();
    let mut findings = Vec::new();
    for i in 0..n {
        let structure = match i % 8 {
            0 => QueryStructure::Linear,
            1 => QueryStructure::TwoWayJoin,
            2 => QueryStructure::ThreeWayJoin,
            3 => QueryStructure::ChainedFilters(2 + (i % 3) as u8),
            4 => QueryStructure::NWayJoin(4 + (i % 3) as u8),
            5 => QueryStructure::SpikeDetection,
            6 => QueryStructure::SmartGridLocal,
            _ => QueryStructure::SmartGridGlobal,
        };
        let generator = if structure.is_seen() {
            QueryGenerator::seen()
        } else {
            QueryGenerator::unseen()
        };
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + i as u64);
        let plan = generator.generate(structure, &mut rng);
        let ir = match plan.validate() {
            Ok(ir) => ir,
            Err(e) => {
                failed += 1;
                lines.push_str(&format!("plan {i} ({structure:?}): seal failed: {e:?}\n"));
                continue;
            }
        };
        // Every sealed plan must survive the wire: envelope → re-seal →
        // identical fingerprint (the ZT109 integrity check zt-serve
        // applies to every request).
        match ir.to_json(&plan).and_then(|json| PlanIr::from_json(&json)) {
            Ok((_, ir2)) if ir2.fingerprint() == ir.fingerprint() => {}
            Ok((_, ir2)) => {
                failed += 1;
                lines.push_str(&format!(
                    "plan {i} ({structure:?}): wire fingerprint drift {:016x} -> {:016x}\n",
                    ir.fingerprint(),
                    ir2.fingerprint()
                ));
                continue;
            }
            Err(e) => {
                failed += 1;
                lines.push_str(&format!(
                    "plan {i} ({structure:?}): wire round-trip failed: {e}\n"
                ));
                continue;
            }
        }
        let pqp = ParallelQueryPlan::new(plan);
        let diags = lint_pqp(&pqp, Some(&cluster));
        let report = zt_core::bounds::analyze_with(&pqp, &ir, &cluster, &BoundsConfig::default());
        let bounds_diags = lint_bounds_report(&report);
        // Dataflow cross-check: the deployed rate facts must be a
        // fixpoint, sit inside the plan-level (parallelism-hulled)
        // brackets, and contain the bounds module's unthrottled rates.
        let df_ok = {
            use zt_core::dataflow::{is_fixpoint, solve, Domain, RateAnalysis};
            let hull = solve(&RateAnalysis { pqp: None }, &pqp.plan, &ir);
            let deployed_analysis = RateAnalysis { pqp: Some(&pqp) };
            let deployed = solve(&deployed_analysis, &pqp.plan, &ir);
            is_fixpoint(&deployed_analysis, &pqp.plan, &ir, &deployed)
                && deployed
                    .per_op
                    .iter()
                    .zip(&hull.per_op)
                    .all(|(p, h)| p.leq(h))
                && report
                    .per_op
                    .iter()
                    .zip(&hull.per_op)
                    .all(|(b, h)| h.rate.contains(b.output_rate.hi))
        };
        let mut sim_rng = StdRng::seed_from_u64(0xD1CE_0000 + i as u64);
        let m = simulate(&pqp, &cluster, &SimConfig::noiseless(), &mut sim_rng);
        let sim_ok = m.latency_ms.is_finite()
            && m.latency_ms > 0.0
            && m.throughput.is_finite()
            && m.throughput > 0.0
            && report.latency_ms.contains(m.latency_ms)
            && report.throughput.contains(m.throughput);
        // ZT503 (provably infeasible deployment) is an *expected* verdict
        // for random workloads deployed at parallelism 1 — the fuzz pass
        // checks pipeline health, not workload feasibility.
        let errors: Vec<_> = diags
            .into_iter()
            .chain(bounds_diags)
            .filter(|d| d.severity == Severity::Error && d.code != "ZT503")
            .collect();
        if !errors.is_empty() || !sim_ok || !df_ok {
            failed += 1;
            lines.push_str(&format!(
                "plan {i} ({structure:?}): {} error(s), sim_ok={sim_ok}, df_ok={df_ok} (latency {} ms in {:?}?)\n",
                errors.len(),
                m.latency_ms,
                report.latency_ms
            ));
            findings.extend(errors);
        }
    }
    if failed == 0 {
        lines.push_str(&format!(
            "all {n} generated plans sealed, linted clean, simulated inside their bounds, and \
             nested their dataflow brackets\n"
        ));
    }
    let mut s = section(
        format!("fuzz smoke ({n} seeded random plans)"),
        Report::new(findings),
    );
    s.detail = Some(lines);
    sections.push(s);
    failed
}

fn print_codes() {
    println!("zt-lint code registry ({} codes):", REGISTRY.len());
    for info in REGISTRY {
        println!(
            "  {} [{:>7}] {}",
            info.code,
            info.severity.label(),
            info.summary
        );
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: zt-lint [--benchmarks] [--gen-dataset N] [--plan FILE] [--dataset FILE] [--model FILE] [--bounds] [--certify] [--dataflow] [--results[=DIR]] [--fuzz N] [--codes]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sections: Vec<Section> = Vec::new();
    let mut model_file: Option<String> = None;
    let mut dataset_for_drift: Option<(String, Dataset)> = None;
    let fuzz_failures = std::cell::Cell::new(0usize);
    // Pre-scanned: `--bounds` modifies every plan target and `--certify`
    // every model target, regardless of argument order.
    let bounds = args.iter().any(|a| a == "--bounds");
    let certify = args.iter().any(|a| a == "--certify");
    let dataflow = args.iter().any(|a| a == "--dataflow");

    let run = |sections: &mut Vec<Section>,
               model_file: &mut Option<String>,
               dataset_for_drift: &mut Option<(String, Dataset)>|
     -> Result<(), String> {
        // No targets (only the pre-scanned modifier flags, or nothing at
        // all): run the default target set.
        if args
            .iter()
            .all(|a| a == "--bounds" || a == "--certify" || a == "--dataflow")
        {
            lint_benchmarks(bounds, dataflow, sections);
            lint_generated(24, sections);
            lint_fresh_model(certify, sections);
            return Ok(());
        }
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--benchmarks" => lint_benchmarks(bounds, dataflow, sections),
                "--bounds" | "--certify" | "--dataflow" => {} // pre-scanned above
                "--results" => lint_results_dir("results", bounds, certify, dataflow, sections),
                "--gen-dataset" => {
                    i += 1;
                    let n: usize = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--gen-dataset needs a sample count")?;
                    lint_generated(n, sections);
                }
                "--fuzz" => {
                    i += 1;
                    let n: usize = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--fuzz needs a plan count")?;
                    fuzz_failures.set(fuzz_failures.get() + fuzz_smoke(n, sections));
                }
                "--plan" => {
                    i += 1;
                    let path = args.get(i).ok_or("--plan needs a file")?;
                    lint_plan_file(path, bounds, dataflow, sections)?;
                }
                "--dataset" => {
                    i += 1;
                    let path = args.get(i).ok_or("--dataset needs a file")?;
                    let data: Dataset = serde_json::from_str(&read_json(path)?)
                        .map_err(|e| format!("`{path}` is not a Dataset: {e}"))?;
                    sections.push(section(
                        format!("dataset `{path}`"),
                        Report::new(lint_dataset(&data)),
                    ));
                    *dataset_for_drift = Some((path.clone(), data));
                }
                "--model" => {
                    i += 1;
                    let path = args.get(i).ok_or("--model needs a file")?;
                    *model_file = Some(path.clone());
                }
                "--codes" => {
                    print_codes();
                }
                other => {
                    if let Some(dir) = other.strip_prefix("--results=") {
                        lint_results_dir(dir, bounds, certify, dataflow, sections);
                    } else {
                        return Err(format!("unknown argument `{other}`"));
                    }
                }
            }
            i += 1;
        }
        Ok(())
    };

    if let Err(e) = run(&mut sections, &mut model_file, &mut dataset_for_drift) {
        eprintln!("zt-lint: {e}");
        return usage();
    }

    // Model lints run last so a `--dataset` given in any position can
    // feed the normalization-drift check.
    if let Some(path) = model_file {
        let result = read_json(&path).and_then(|json| {
            ZeroTuneModel::from_json(&json).map_err(|e| format!("`{path}` is not a model: {e}"))
        });
        match result {
            Ok(model) => {
                let diags = match &dataset_for_drift {
                    Some((_, data)) => lint_model_against(&model, data),
                    None => lint_model(&model),
                };
                sections.push(section(format!("model `{path}`"), Report::new(diags)));
                if certify {
                    sections.push(certify_section(&path, &model));
                }
            }
            Err(e) => {
                eprintln!("zt-lint: {e}");
                return usage();
            }
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for s in &sections {
        println!("── {} ──", s.heading);
        if s.report.is_clean() {
            println!("clean");
        } else {
            for d in &s.report.diagnostics {
                println!("{d}");
            }
        }
        if let Some(detail) = &s.detail {
            print!("{detail}");
        }
        println!("{}\n", s.report.summary());
        errors += s.report.count(Severity::Error);
        warnings += s.report.count(Severity::Warning);
    }
    println!(
        "zt-lint: {} target(s), {errors} error(s), {warnings} warning(s)",
        sections.len()
    );
    // Fuzz failures without an attributable diagnostic (e.g. an estimate
    // outside its bracket) still fail the run.
    errors += fuzz_failures.get().saturating_sub(
        sections
            .iter()
            .filter(|s| s.heading.starts_with("fuzz smoke"))
            .map(|s| s.report.count(Severity::Error))
            .sum(),
    );
    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
