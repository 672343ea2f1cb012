//! Prediction attribution by feature-group occlusion, and rendering of
//! provable-bounds reports.
//!
//! Complements the training-time ablation of Exp. 6 with two
//! *inference-time* tools: [`attribute`] occludes each transferable
//! feature group (parallelism-, operator- and resource-related) in turn
//! and measures the prediction delta — large deltas identify which group
//! drives a particular cost estimate; [`explain_bounds`] renders a
//! [`BoundsReport`](crate::bounds::BoundsReport) as a per-operator
//! interval table with the model's prediction placed next to the provable
//! brackets — useful when debugging surprising what-if predictions.

use crate::bounds::{BoundsReport, Interval};
use crate::estimator::{CostEstimator, CostPrediction};
use crate::features::{OP_COMMON_DIM, RESOURCE_DIM};
use crate::graph::{GraphEncoding, NodeKind};
use crate::model::ZeroTuneModel;

/// The attribution of one prediction to the three feature groups.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// Baseline prediction `(latency_ms, throughput)`.
    pub prediction: (f64, f64),
    /// |log-ratio| of the latency prediction when each group is occluded:
    /// `[parallelism, operator, resource]`.
    pub latency_impact: [f64; 3],
    /// Same for throughput.
    pub throughput_impact: [f64; 3],
}

impl Attribution {
    /// Index of the group with the largest latency impact
    /// (0 = parallelism, 1 = operator, 2 = resource).
    pub fn dominant_latency_group(&self) -> usize {
        self.latency_impact
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite impact"))
            .map(|(i, _)| i)
            .expect("three groups")
    }

    pub fn group_name(i: usize) -> &'static str {
        ["parallelism", "operator", "resource"][i]
    }
}

/// Occlude one feature group in a graph copy.
fn occlude(graph: &GraphEncoding, group: usize) -> GraphEncoding {
    let mut g = graph.clone();
    for node in &mut g.nodes {
        match (node.kind, group) {
            // parallelism block: first 5 entries of the operator common
            // block (degree + partitioning one-hot + grouping)
            (k, 0) if k != NodeKind::Resource => {
                for v in node.features.iter_mut().take(5) {
                    *v = 0.0;
                }
            }
            // operator/data block: the rest of the operator vector
            (k, 1) if k != NodeKind::Resource => {
                for v in node.features.iter_mut().skip(5) {
                    *v = 0.0;
                }
            }
            // resource features
            (NodeKind::Resource, 2) => {
                for v in node.features.iter_mut().take(RESOURCE_DIM) {
                    *v = 0.0;
                }
            }
            _ => {}
        }
    }
    let _ = OP_COMMON_DIM;
    g
}

/// Attribute a prediction to the three transferable-feature groups.
pub fn attribute(model: &ZeroTuneModel, graph: &GraphEncoding) -> Attribution {
    let base = model.predict(graph).pair();
    let mut latency_impact = [0f64; 3];
    let mut throughput_impact = [0f64; 3];
    for group in 0..3 {
        let (lat, tpt) = model.predict(&occlude(graph, group)).pair();
        latency_impact[group] = (lat.max(1e-9) / base.0.max(1e-9)).ln().abs();
        throughput_impact[group] = (tpt.max(1e-9) / base.1.max(1e-9)).ln().abs();
    }
    Attribution {
        prediction: base,
        latency_impact,
        throughput_impact,
    }
}

// --- Bounds rendering ----------------------------------------------------

/// Format one interval compactly, with engineering-style precision.
fn fmt_interval(iv: Interval) -> String {
    let f = |v: f64| -> String {
        if v.is_infinite() {
            "inf".to_string()
        } else if v == 0.0 {
            "0".to_string()
        } else if v.abs() >= 10_000.0 {
            format!("{v:.3e}")
        } else if v.abs() >= 1.0 {
            format!("{v:.2}")
        } else {
            format!("{v:.4}")
        }
    };
    format!("[{}, {}]", f(iv.lo), f(iv.hi))
}

/// Whether a point prediction sits inside the provable bracket, rendered
/// as a marker column.
fn containment_marker(iv: Interval, v: f64) -> &'static str {
    if iv.contains(v) {
        "ok"
    } else if v < iv.lo {
        "BELOW LOWER BOUND"
    } else {
        "ABOVE UPPER BOUND"
    }
}

/// Render a [`BoundsReport`] for `pqp` as a human-readable table: one row
/// per operator (rates, work, utilization, sojourn, residence intervals)
/// followed by the headline brackets, each compared against the model
/// prediction when one is supplied.
pub fn explain_bounds(
    pqp: &zt_query::ParallelQueryPlan,
    report: &BoundsReport,
    prediction: Option<&CostPrediction>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bounds: offered {:.0}/s · target utilization {:.2} · {}",
        report.offered_rate,
        report.utilization_target,
        if report.infeasible() {
            "PROVABLY INFEASIBLE"
        } else if report.definitely_feasible() {
            "provably feasible"
        } else if report.definitely_backpressured() {
            "backpressured (not collapsing)"
        } else {
            "feasibility depends on skew"
        }
    );
    let _ = writeln!(
        out,
        "{:<4} {:<12} {:>3} {:<22} {:<22} {:<18} {:<18} {:<20}",
        "op", "kind", "p", "input/s", "output/s", "util", "work µs", "sojourn ms"
    );
    for (op, b) in pqp.plan.ops().iter().zip(&report.per_op) {
        let _ = writeln!(
            out,
            "{:<4} {:<12} {:>3} {:<22} {:<22} {:<18} {:<18} {:<20}",
            op.id.idx(),
            op.kind.label(),
            pqp.parallelism_of(op.id),
            fmt_interval(b.input_rate),
            fmt_interval(b.output_rate),
            fmt_interval(b.utilization),
            fmt_interval(b.work_us),
            fmt_interval(b.sojourn_ms),
        );
    }
    let _ = writeln!(
        out,
        "headline: utilization {} · backpressure scale {} · pipeline {} ms",
        fmt_interval(report.utilization),
        fmt_interval(report.backpressure_scale),
        fmt_interval(report.pipeline_ms),
    );
    match prediction {
        Some(p) => {
            let _ = writeln!(
                out,
                "latency    ms: bounds {} · predicted {:.3} ({})",
                fmt_interval(report.latency_ms),
                p.latency_ms,
                containment_marker(report.latency_ms, p.latency_ms),
            );
            let _ = writeln!(
                out,
                "throughput /s: bounds {} · predicted {:.0} ({})",
                fmt_interval(report.throughput),
                p.throughput,
                containment_marker(report.throughput, p.throughput),
            );
        }
        None => {
            let _ = writeln!(
                out,
                "latency    ms: bounds {} · throughput /s: bounds {}",
                fmt_interval(report.latency_ms),
                fmt_interval(report.throughput),
            );
        }
    }
    out
}

// --- Dataflow rendering --------------------------------------------------

/// Render a [`DataflowReport`](crate::dataflow::DataflowReport) for a
/// deployment as a per-edge table: the partitioning strategy, the
/// propagated rate/width brackets (and the implied bytes/s), the
/// key-cardinality bound and distribution property, and the key classes
/// the stream carries. Rates are *unthrottled offered* load — compare
/// against [`explain_bounds`]'s throttled arrival rates to see where
/// backpressure bites.
pub fn explain_dataflow(
    pqp: &zt_query::ParallelQueryPlan,
    ir: &zt_query::PlanIr,
    report: &crate::dataflow::DataflowReport,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dataflow: {} ops · {} edges · single fixpoint pass over the sealed topo order",
        ir.num_ops(),
        ir.num_edges()
    );
    let _ = writeln!(
        out,
        "{:<4} {:<26} {:<9} {:<22} {:>7} {:<22} {:<8} {:<16} {:<14}",
        "edge", "route", "part", "rate/s", "width B", "bytes/s", "keys", "distribution", "classes"
    );
    for (e, &(u, d)) in pqp.plan.edges().iter().enumerate() {
        let rf = report.rates.edge(e);
        let kf = report.keys.edge(e);
        let bytes = Interval {
            lo: rf.rate.lo * rf.width.lo,
            hi: rf.rate.hi * rf.width.hi,
        };
        let keys = kf
            .cardinality
            .map_or_else(|| "unbounded".to_string(), |k| format!("≤{k:.0}"));
        let part = match pqp.partitioning[e] {
            zt_query::Partitioning::Forward => "forward",
            zt_query::Partitioning::Rebalance => "rebalance",
            zt_query::Partitioning::Hash => "hash",
        };
        let _ = writeln!(
            out,
            "{:<4} {:<26} {:<9} {:<22} {:>7} {:<22} {:<8} {:<16} {:<14}",
            e,
            format!(
                "{u} {} → {d} {}",
                pqp.plan.op(u).kind.label(),
                pqp.plan.op(d).kind.label()
            ),
            part,
            fmt_interval(rf.rate),
            format!("{:.0}", rf.width.hi),
            fmt_interval(bytes),
            keys,
            report.keys.edge(e).dist.to_string(),
            report.classes.edge(e).to_string(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_dataset, GenConfig};
    use crate::model::ModelConfig;
    use crate::train::{train, TrainConfig};

    fn trained_model() -> (ZeroTuneModel, crate::dataset::Dataset) {
        let data = generate_dataset(&GenConfig::seen(), 150, 81);
        let mut model = ZeroTuneModel::new(ModelConfig {
            hidden: 20,
            seed: 81,
        });
        train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 8,
                patience: 0,
                ..TrainConfig::default()
            },
        );
        (model, data)
    }

    #[test]
    fn occlusion_changes_predictions() {
        let (model, data) = trained_model();
        let a = attribute(&model, &data.samples[0].graph);
        assert!(a.prediction.0 > 0.0);
        // at least one group matters for each metric
        assert!(a.latency_impact.iter().any(|&v| v > 1e-4));
        assert!(a.throughput_impact.iter().any(|&v| v > 1e-4));
        let dom = a.dominant_latency_group();
        assert!(dom < 3);
        assert!(!Attribution::group_name(dom).is_empty());
    }

    #[test]
    fn occlusion_preserves_graph_shape() {
        let (_, data) = trained_model();
        let g = &data.samples[0].graph;
        for group in 0..3 {
            let o = occlude(g, group);
            assert_eq!(o.nodes.len(), g.nodes.len());
            for (a, b) in o.nodes.iter().zip(g.nodes.iter()) {
                assert_eq!(a.features.len(), b.features.len());
            }
        }
    }

    #[test]
    fn bounds_table_renders_every_operator_and_the_prediction() {
        use zt_dspsim::cluster::{Cluster, ClusterType};
        let plan = zt_query::benchmarks::spike_detection(10_000.0);
        let pqp = zt_query::ParallelQueryPlan::new(plan);
        let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
        let ir = pqp.plan.validate().expect("benchmark plan seals");
        let report = crate::bounds::analyze_with(
            &pqp,
            &ir,
            &cluster,
            &crate::bounds::BoundsConfig::default(),
        );
        let no_pred = explain_bounds(&pqp, &report, None);
        assert!(no_pred.contains("bounds:"));
        for op in pqp.plan.ops() {
            assert!(no_pred.contains(op.kind.label()));
        }
        let inside = CostPrediction {
            latency_ms: (report.latency_ms.lo + report.latency_ms.hi).min(1e12) / 2.0,
            throughput: report.throughput.lo,
        };
        assert!(explain_bounds(&pqp, &report, Some(&inside)).contains("(ok)"));
        let below = CostPrediction {
            latency_ms: report.latency_ms.lo / 10.0,
            throughput: report.throughput.hi * 10.0,
        };
        let rendered = explain_bounds(&pqp, &report, Some(&below));
        assert!(rendered.contains("BELOW LOWER BOUND"));
        assert!(rendered.contains("ABOVE UPPER BOUND"));
    }

    #[test]
    fn impacts_are_finite_and_nonnegative() {
        let (model, data) = trained_model();
        for s in data.samples.iter().take(5) {
            let a = attribute(&model, &s.graph);
            for v in a.latency_impact.iter().chain(a.throughput_impact.iter()) {
                assert!(v.is_finite() && *v >= 0.0);
            }
        }
    }
}
