//! Metrics of a run, and the one-line JSON result.

use crate::adapter::{Outcome, Pass};
use crate::run::{RunResult, Split};
use crate::stats::{median, quantile};
use crate::Workload;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Outcome ratios pooled over a set of passes, each instance counted once.
struct Pooled {
    success_ratio: f64,
    success_volume_ratio: f64,
    probes_per_payment: f64,
    fee_ratio_pct: f64,
}

impl Pooled {
    fn of<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> Pooled {
        let (mut attempted, mut succeeded, mut probes) = (0.0, 0.0, 0.0);
        let (mut volume, mut delivered, mut fees) = (0.0, 0.0, 0.0);
        for o in outcomes {
            attempted += o.attempted as f64;
            succeeded += o.succeeded as f64;
            probes += o.probe_messages as f64;
            volume += o.attempted_volume;
            delivered += o.success_volume;
            fees += o.fees;
        }
        Pooled {
            success_ratio: ratio(succeeded, attempted),
            success_volume_ratio: ratio(delivered, volume),
            probes_per_payment: ratio(probes, attempted),
            fee_ratio_pct: 100.0 * ratio(fees, delivered),
        }
    }
}

/// Host wall time of every `route()` call of `passes`, in ms.
fn route_ms(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.route_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect()
}

/// The end-to-end metrics, from the untraced passes. Timings pool every
/// pass; outcome ratios pool the run's distinct instances.
///
/// The median and the 99th percentile of `route()` time are left out:
/// on `mice_recurrent` the median falls between cheap successes and
/// costly failures and moved by a third from one seed to the next, and
/// the 99th percentile moved by a fifth. The traced run reports both.
pub fn end_to_end(result: &RunResult) -> Vec<Metric> {
    let distinct = result
        .timed
        .iter()
        .enumerate()
        .filter(|(i, p)| !result.timed[..*i].iter().any(|q| q.instance == p.instance))
        .map(|(_, p)| &p.outcome);
    let outcome = Pooled::of(distinct);
    let payments: f64 = result.timed.iter().map(|p| p.route_ns.len() as f64).sum();
    let runner_s: f64 = result.timed.iter().map(|p| p.runner_ns as f64 / 1e9).sum();
    let route_ms = route_ms(&result.timed);
    vec![
        metric("setup_s", median(&result.setup_s), "s"),
        metric(
            "payments_per_s",
            if runner_s > 0.0 {
                payments / runner_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric("route_ms_p95", quantile(&route_ms, 0.95), "ms"),
        metric("success_ratio", outcome.success_ratio, "ratio"),
        metric(
            "success_volume_ratio",
            outcome.success_volume_ratio,
            "ratio",
        ),
        metric("probes_per_payment", outcome.probes_per_payment, "count"),
        metric("fee_ratio_pct", outcome.fee_ratio_pct, "%"),
        metric("peak_rss_mb", result.peak_rss_mb, "MB"),
    ]
}

/// The median over `passes` of `f`.
fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The per-layer metrics, from the traced passes: medians over the
/// passes of each pass's value.
pub fn per_layer(workload: Workload, result: &RunResult) -> Vec<Metric> {
    let traced = &result.traced;
    let ms = |ns: f64| ns / 1e6;
    let split = |f: fn(&Split) -> f64| per_pass(traced, |p| f(&Split::of(workload, p)));
    let share = |f: fn(&Split) -> f64| {
        per_pass(traced, |p| {
            let s = Split::of(workload, p);
            s.share(f(&s))
        })
    };
    let instant = matches!(
        workload,
        Workload::MiceRecurrent | Workload::ElephantLightning
    );
    let des = workload == Workload::DesSpiderChurn;
    let proto = workload == Workload::TestbedLoopback;
    // A backend's metrics read zero on the workloads that bypass it.
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let outcome = traced
        .first()
        .map(|p| p.outcome.clone())
        .unwrap_or_default();
    let pooled = Pooled::of(std::iter::once(&outcome));
    let props = &result.props;
    let class_self = |p: &Pass, mice: bool| {
        let t = if mice { p.mice } else { p.elephant };
        (t.route_ns - t.backend_ns) as f64
    };
    let backend_ms = split(|s| s.backend_ns) / 1e6;
    let frames = outcome.proto.wire_frames as f64;
    let des_busy_s = (split(|s| s.backend_ns) + split(|s| s.runner_self_ns)) / 1e9;
    let traced_wall = per_pass(traced, |p| p.wall_ns as f64);
    let untraced_wall = per_pass(&result.timed, |p| p.wall_ns as f64);
    vec![
        metric("core.self_ms", ms(split(|s| s.core_ns)), "ms"),
        metric("core.share", share(|s| s.core_ns), "ratio"),
        metric(
            "core.mice.self_ms",
            ms(per_pass(traced, |p| class_self(p, true))),
            "ms",
        ),
        metric(
            "core.mice.share",
            per_pass(traced, |p| {
                Split::of(workload, p).share(class_self(p, true))
            }),
            "ratio",
        ),
        metric(
            "core.mice.calls",
            per_pass(traced, |p| p.mice.calls as f64),
            "count",
        ),
        metric(
            "core.mice.table_entries",
            outcome.table_entries as f64,
            "count",
        ),
        metric(
            "core.elephant.self_ms",
            ms(per_pass(traced, |p| class_self(p, false))),
            "ms",
        ),
        metric(
            "core.elephant.share",
            per_pass(traced, |p| {
                Split::of(workload, p).share(class_self(p, false))
            }),
            "ratio",
        ),
        metric(
            "core.elephant.calls",
            per_pass(traced, |p| p.elephant.calls as f64),
            "count",
        ),
        metric(
            "sim.network.probe_ms",
            only(instant, ms(per_pass(traced, |p| p.backend.probe_ns as f64))),
            "ms",
        ),
        metric(
            "sim.network.probe_calls",
            only(instant, per_pass(traced, |p| p.backend.probe_calls as f64)),
            "count",
        ),
        metric(
            "sim.network.session_ms",
            only(
                instant,
                ms(per_pass(traced, |p| p.backend.session_ns as f64)),
            ),
            "ms",
        ),
        metric(
            "sim.network.session_calls",
            only(
                instant,
                per_pass(traced, |p| p.backend.session_calls as f64),
            ),
            "count",
        ),
        metric(
            "sim.network.share",
            only(instant, share(|s| s.backend_ns)),
            "ratio",
        ),
        metric(
            "sim.parts.attempted",
            per_pass(traced, |p| p.backend.parts_attempted as f64),
            "count",
        ),
        metric(
            "sim.parts.committed",
            per_pass(traced, |p| p.backend.parts_committed as f64),
            "count",
        ),
        metric(
            "sim.parts.useful_ratio",
            per_pass(traced, |p| {
                let b = p.backend;
                if b.parts_attempted > 0 {
                    b.parts_committed as f64 / b.parts_attempted as f64
                } else {
                    0.0
                }
            }),
            "ratio",
        ),
        metric("sim.des.backend_ms", only(des, backend_ms), "ms"),
        metric(
            "sim.des.engine_self_ms",
            only(des, ms(split(|s| s.runner_self_ns))),
            "ms",
        ),
        metric(
            "sim.des.share",
            only(des, share(|s| s.backend_ns + s.runner_self_ns)),
            "ratio",
        ),
        metric("sim.des.events", outcome.des.events as f64, "count"),
        metric(
            "sim.des.engine_events_per_s",
            if des && des_busy_s > 0.0 {
                outcome.des.events as f64 / des_busy_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric(
            "sim.des.peak_backlog",
            outcome.des.peak_backlog as f64,
            "count",
        ),
        metric(
            "sim.des.max_node_utilization",
            outcome.des.max_node_utilization,
            "ratio",
        ),
        metric(
            "sim.des.queue_delay_ms_p95",
            outcome.des.queue_delay_ms_p95,
            "ms",
        ),
        metric(
            "sim.des.closed_channels",
            outcome.des.closed_channels as f64,
            "count",
        ),
        metric("sim.des.reprobes", outcome.des.reprobes as f64, "count"),
        metric("sim.des.latency_ms_p50", outcome.des.latency_ms_p50, "ms"),
        metric("sim.des.latency_ms_p99", outcome.des.latency_ms_p99, "ms"),
        metric("proto.backend_ms", only(proto, backend_ms), "ms"),
        metric("proto.share", only(proto, share(|s| s.backend_ns)), "ratio"),
        metric("proto.wire_frames", frames, "count"),
        metric(
            "proto.frames_per_payment",
            if props.payments > 0 {
                frames / props.payments as f64
            } else {
                0.0
            },
            "count",
        ),
        metric(
            "proto.us_per_frame",
            if frames > 0.0 {
                backend_ms * 1e3 / frames
            } else {
                0.0
            },
            "us",
        ),
        metric(
            "proto.queue_high_water",
            outcome.proto.queue_high_water as f64,
            "count",
        ),
        metric(
            "proto.commits_nacked",
            outcome.proto.commits_nacked as f64,
            "count",
        ),
        metric(
            "scenario.orchestration_ms",
            only(proto, ms(split(|s| s.runner_self_ns))),
            "ms",
        ),
        metric(
            "scenario.share",
            only(proto, share(|s| s.runner_self_ns)),
            "ratio",
        ),
        metric("outcome.success_ratio", pooled.success_ratio, "ratio"),
        metric(
            "outcome.success_volume_ratio",
            pooled.success_volume_ratio,
            "ratio",
        ),
        metric(
            "outcome.probes_per_payment",
            pooled.probes_per_payment,
            "count",
        ),
        metric("outcome.fee_ratio_pct", pooled.fee_ratio_pct, "%"),
        metric("workload.topology_ms", props.topology_ns as f64 / 1e6, "ms"),
        metric("workload.trace_ms", props.trace_ns as f64 / 1e6, "ms"),
        metric("workload.nodes", props.nodes as f64, "count"),
        metric("workload.edges", props.edges as f64, "count"),
        metric("workload.payments", props.payments as f64, "count"),
        metric("workload.instances", result.instances as f64, "count"),
        metric("workload.recurrent_share", props.recurrent_share, "ratio"),
        metric("workload.mice_share", props.mice_share, "ratio"),
        metric("trace.wall_ms", ms(traced_wall), "ms"),
        metric("trace.untraced_wall_ms", ms(untraced_wall), "ms"),
        metric(
            "trace.untraced_route_ms_p50",
            quantile(&route_ms(&result.timed), 0.5),
            "ms",
        ),
        metric(
            "trace.untraced_route_ms_p99",
            quantile(&route_ms(&result.timed), 0.99),
            "ms",
        ),
        metric(
            "trace.overhead",
            if untraced_wall > 0.0 {
                traced_wall / untraced_wall - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "trace.unattributed_ms",
            ms(split(|s| s.unattributed_ns)),
            "ms",
        ),
        metric(
            "trace.unattributed_share",
            share(|s| s.unattributed_ns),
            "ratio",
        ),
    ]
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`, as
/// one JSON object.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
