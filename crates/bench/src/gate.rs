//! The bench-regression gate: diffs regenerated bench results against
//! the committed `BENCH_e2e.json` / `BENCH_maxflow.json` /
//! `BENCH_churn.json` / `BENCH_testbed.json` trajectories.
//!
//! Two kinds of check:
//!
//! * **Regression deltas** — one generic diff for every bench. Each
//!   record type (defined once, in [`crate::record`]) declares its
//!   match key, a row label and a constant [`Metric`] table; records
//!   are matched on the key, and each metric of a matched pair is
//!   tabulated and gated by its declared direction and severity. A
//!   virtual (deterministic) metric that regresses by more than
//!   [`MAX_REGRESSION`] fails the gate: for the e2e bench delivered
//!   throughput down, completion latency up, or success ratio down. The
//!   max-flow bench's flow values must be **identical** (they are
//!   deterministic; any drift is a kernel bug). Wall-derived metrics
//!   (`events_per_sec`, max-flow ns per pair) only *warn* — CI runners
//!   are too noisy for a hard wall-time gate — and only when both sides
//!   are nonzero (zero means an artifact from before the field existed).
//! * **Physical suspicion** — result *shapes* that are numerically
//!   valid but physically implausible fail even when they diff
//!   cleanly against an equally suspicious baseline. The canonical
//!   case (and the regression that motivated this gate): identical
//!   completion-latency percentiles across a ≥[`FLAT_LOAD_SPREAD`]×
//!   offered-load spread. The pre-service-queue engine committed
//!   exactly that — bit-identical p50/p95/p99 at 50 and 400 pps —
//!   and nothing diffing the artifact would ever have objected. The
//!   churn bench carries the same kind of check: success must
//!   *strictly* degrade as the churn rate rises across ≥3 rates per
//!   scheme ([`gate_churn`]) — a flat curve means churn events are
//!   not actually reaching the engine. The max-flow bench hard-fails
//!   on within-run wall-time *ratios* (robust to runner speed, unlike
//!   absolute deltas): the fastest non-oracle kernel must beat
//!   Edmonds–Karp everywhere (>2× on the ≥1000-node lightning-scale
//!   topology, the ROADMAP win condition) and warm-start must beat a
//!   cold restart with identical total flow ([`gate_maxflow`]). The
//!   shape checks are the only bench-specific code here.
//!
//! The library half (this module) is pure string-in/report-out so the
//! gate itself is testable — `crates/bench/tests/gate.rs` replays the
//! flat PR-4 fixture and asserts the gate rejects it. The
//! `bench_gate` binary wraps it with file IO, a Markdown delta table
//! for `$GITHUB_STEP_SUMMARY`, and a process exit code.

use crate::record::{ChurnRecord, E2eRecord, MaxflowRecord, TestbedRecord};
use serde::Deserialize;

/// Maximum tolerated relative regression on matched metrics
/// (0.25 = 25%).
pub const MAX_REGRESSION: f64 = 0.25;

/// Minimum offered-load spread (max/min pps within one configuration)
/// above which identical latency percentiles are physically suspicious.
pub const FLAT_LOAD_SPREAD: f64 = 4.0;

/// Minimum ratio of Shortest Path's events/sec at the largest testbed
/// record to its rate at the smallest, both from one run. SP's router
/// compute is negligible, so the ratio isolates how the reactor's
/// per-frame cost grows with the cluster's socket count.
pub const MIN_REACTOR_SCALE: f64 = 0.5;

/// Which way a metric must not move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A drop beyond [`MAX_REGRESSION`] regresses.
    Higher,
    /// A rise beyond [`MAX_REGRESSION`] regresses.
    Lower,
    /// Any change regresses (deterministic values).
    Exact,
}

/// One column of a record's regression diff.
pub struct Metric<R> {
    /// Column header and the metric's name in findings.
    pub name: &'static str,
    /// Which way the metric must not move.
    pub better: Better,
    /// The finding a regression produces; `None` shows the metric in the
    /// delta table without gating it. A [`Severity::Warn`] metric is
    /// only compared when both sides are nonzero.
    pub severity: Option<Severity>,
    /// Reads the metric off a record.
    pub get: fn(&R) -> f64,
}

impl<R> Metric<R> {
    /// A metric declaration, for a [`Gated::METRICS`] table.
    pub const fn new(
        name: &'static str,
        better: Better,
        severity: Option<Severity>,
        get: fn(&R) -> f64,
    ) -> Self {
        Self {
            name,
            better,
            severity,
            get,
        }
    }
}

/// A bench record the generic regression diff can gate.
pub trait Gated: for<'de> Deserialize<'de> + 'static {
    /// The configuration committed and regenerated records are matched on.
    type Key: PartialEq;
    /// The diffed metrics, in delta-table column order.
    const METRICS: &'static [Metric<Self>];
    /// This record's configuration key.
    fn key(&self) -> Self::Key;
    /// The record's configuration for the delta table and findings.
    fn label(&self) -> String;
}

/// How bad one finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Gate fails (process exits nonzero).
    Fail,
    /// Reported but not fatal.
    Warn,
}

/// One gate finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Fail or warn.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

/// The gate's verdict: findings plus a Markdown delta table.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Everything noteworthy, fails first.
    pub findings: Vec<Finding>,
    /// A Markdown table of per-record deltas (for
    /// `$GITHUB_STEP_SUMMARY`).
    pub table: String,
}

impl GateReport {
    /// Whether the gate passes (no [`Severity::Fail`] findings).
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Fail)
    }

    fn fail(&mut self, message: String) {
        self.findings.push(Finding {
            severity: Severity::Fail,
            message,
        });
    }

    fn warn(&mut self, message: String) {
        self.findings.push(Finding {
            severity: Severity::Warn,
            message,
        });
    }
}

/// Relative change from `base` to `cand` (`+0.25` = 25% higher); zero
/// when the baseline is zero and the candidate is too.
fn rel_change(base: f64, cand: f64) -> f64 {
    if base == 0.0 {
        if cand == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cand - base) / base
    }
}

fn pct(x: f64) -> String {
    if x.is_infinite() {
        "new".into()
    } else {
        format!("{:+.1}%", x * 100.0)
    }
}

/// A metric value for the table and findings: whole above 1000,
/// otherwise at most three decimals with no trailing zeros.
fn num(x: f64) -> String {
    if x.abs() >= 1000.0 {
        return format!("{x:.0}");
    }
    let s = format!("{x:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// The finding, if any, for metric `m` moving from `b` to `c` on the
/// record labelled `label`.
fn regression<R>(m: &Metric<R>, label: &str, b: f64, c: f64) -> Option<Finding> {
    let severity = m.severity?;
    let d = rel_change(b, c);
    let regressed = match m.better {
        Better::Higher => d < -MAX_REGRESSION,
        Better::Lower => d > MAX_REGRESSION,
        Better::Exact => b != c,
    };
    if !regressed || (severity == Severity::Warn && (b == 0.0 || c == 0.0)) {
        return None;
    }
    let (name, b, c) = (m.name, num(b), num(c));
    let message = match (m.better, severity) {
        (Better::Exact, _) => format!(
            "{label}: {name} drifted {b} → {c} — the value is deterministic, \
             this is a correctness change"
        ),
        (_, Severity::Fail) => format!("{label}: {name} regressed {} ({b} → {c})", pct(d)),
        (_, Severity::Warn) => {
            let dir = if d < 0.0 { "down" } else { "up" };
            format!("{label}: {name} {dir} {} ({b} → {c}) — warn-only", pct(d))
        }
    };
    Some(Finding { severity, message })
}

/// The regression diff every gate shares: parses both files, matches
/// records on [`Gated::key`], tabulates and gates each declared metric,
/// warns on records present on one side only, fails when nothing
/// matches, then runs the bench's `shape` check on the candidate.
fn diff<R: Gated>(
    baseline: &str,
    candidate: &str,
    shape: fn(&[R], &mut GateReport),
) -> Result<GateReport, String> {
    let base: Vec<R> = serde_json::from_str(baseline).map_err(|e| format!("baseline: {e:?}"))?;
    let cand: Vec<R> = serde_json::from_str(candidate).map_err(|e| format!("candidate: {e:?}"))?;
    let mut report = GateReport::default();
    let headers: String = R::METRICS
        .iter()
        .map(|m| format!(" {} | Δ |", m.name))
        .collect();
    report.table = format!(
        "| configuration |{headers}\n|---|{}\n",
        "---|---|".repeat(R::METRICS.len())
    );
    let mut matched = 0usize;
    for c in &cand {
        let label = c.label();
        let Some(b) = base.iter().find(|b| b.key() == c.key()) else {
            report.warn(format!(
                "no committed baseline for {label} — new configuration?"
            ));
            continue;
        };
        matched += 1;
        report.table.push_str(&format!("| {label} |"));
        for m in R::METRICS {
            let (bv, cv) = ((m.get)(b), (m.get)(c));
            report.table.push_str(&format!(
                " {} → {} | {} |",
                num(bv),
                num(cv),
                pct(rel_change(bv, cv))
            ));
            report.findings.extend(regression(m, &label, bv, cv));
        }
        report.table.push('\n');
    }
    for b in &base {
        if !cand.iter().any(|c| c.key() == b.key()) {
            report.warn(format!(
                "committed record {} was not regenerated — lost coverage?",
                b.label()
            ));
        }
    }
    if matched == 0 && !base.is_empty() {
        report.fail(
            "no candidate record matches any committed record — \
             schema or configuration drift; regenerate the committed file"
                .into(),
        );
    }
    shape(&cand, &mut report);
    report
        .findings
        .sort_by_key(|f| if f.severity == Severity::Fail { 0 } else { 1 });
    Ok(report)
}

/// Gates a regenerated e2e bench (`candidate`) against the committed
/// one (`baseline`), both as JSON text: the [`E2eRecord`] metric diff,
/// then the flat-latency shape check.
pub fn gate_e2e(baseline: &str, candidate: &str) -> Result<GateReport, String> {
    diff(baseline, candidate, check_flat_latency)
}

/// `records` partitioned by `key`, in order of first appearance.
fn group_by<'a, R, K: PartialEq>(records: &'a [R], key: impl Fn(&'a R) -> K) -> Vec<Vec<&'a R>> {
    let mut groups: Vec<(K, Vec<&R>)> = Vec::new();
    for r in records {
        let k = key(r);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, members)) => members.push(r),
            None => groups.push((k, vec![r])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// The physical-suspicion check: within one (scheme, topology,
/// latency, service) configuration swept across a ≥4× offered-load
/// spread, *identical* p50/p95/p99 completion latencies mean latency
/// is not responding to load — the pre-service-queue engine's exact
/// failure mode.
fn check_flat_latency(records: &[E2eRecord], report: &mut GateReport) {
    let configs = group_by(records, |r| {
        (
            &r.scheme,
            r.nodes,
            r.payments,
            r.hop_latency_ms,
            r.service_time_ms,
        )
    });
    for members in configs {
        if members.len() < 2 {
            continue;
        }
        let min_pps = members
            .iter()
            .map(|r| r.offered_pps)
            .fold(f64::MAX, f64::min);
        let max_pps = members.iter().map(|r| r.offered_pps).fold(0.0, f64::max);
        if min_pps <= 0.0 || max_pps / min_pps < FLAT_LOAD_SPREAD {
            continue;
        }
        let first = members[0];
        let flat = members.iter().all(|r| {
            r.p50_latency_ms == first.p50_latency_ms
                && r.p95_latency_ms == first.p95_latency_ms
                && r.p99_latency_ms == first.p99_latency_ms
        });
        if flat {
            report.fail(format!(
                "physically suspicious: {} (nodes {}, service {}ms) reports identical \
                 p50/p95/p99 completion latency across a {:.0}× offered-load spread \
                 ({} → {} pps) — latency is not responding to load",
                first.scheme,
                first.nodes,
                first.service_time_ms,
                max_pps / min_pps,
                min_pps,
                max_pps
            ));
        }
    }
}

/// Gates a regenerated churn bench (`candidate`) against the committed
/// one (`baseline`), both as JSON text.
///
/// * **Regressions** — success ratio down >[`MAX_REGRESSION`] on a
///   matched (scheme, churn-rate) pair fails; p95 completion latency
///   only warns (latency tails under churn are legitimately sensitive
///   to re-probing behavior).
/// * **Shape** — within each (scheme, load, topology, delay)
///   configuration, the candidate must sweep **at least three** churn
///   rates and the success ratio must *strictly* decrease as the rate
///   rises. A flat or non-monotone curve fails as physically
///   suspicious: either churn events are not reaching the engine, or
///   the sweep no longer stresses it.
/// * **Zero-churn purity** — a `closes_per_sec = 0` record reporting
///   nonzero churn counters fails: the empty schedule must stay
///   bit-exact.
pub fn gate_churn(baseline: &str, candidate: &str) -> Result<GateReport, String> {
    diff(baseline, candidate, check_churn_shape)
}

/// The churn physical-suspicion check: each configuration must sweep
/// ≥3 churn rates and success must strictly fall as churn rises.
fn check_churn_shape(records: &[ChurnRecord], report: &mut GateReport) {
    let configs = group_by(records, |r| {
        let load = r.offered_pps.to_bits();
        (
            &r.scheme,
            r.nodes,
            r.payments,
            load,
            r.hop_latency_ms,
            r.service_time_ms,
        )
    });
    for mut members in configs {
        members.sort_by_key(|r| r.closes_per_sec.to_bits());
        if members.len() < 3 {
            report.fail(format!(
                "{} (nodes {}, {} pps): only {} churn rate(s) swept — \
                 the shape check needs at least 3",
                members[0].scheme,
                members[0].nodes,
                members[0].offered_pps,
                members.len()
            ));
            continue;
        }
        for w in members.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi.success_ratio >= lo.success_ratio {
                report.fail(format!(
                    "physically suspicious: {} success ratio does not strictly degrade \
                     with churn ({:.1}% @ {} closes/s vs {:.1}% @ {} closes/s) — \
                     churn is not reaching the engine or the sweep no longer stresses it",
                    hi.scheme,
                    lo.success_ratio * 100.0,
                    lo.closes_per_sec,
                    hi.success_ratio * 100.0,
                    hi.closes_per_sec
                ));
            }
        }
        for r in &members {
            if r.closes_per_sec == 0.0 && (r.closed_channels != 0 || r.stale_probe_failures != 0) {
                report.fail(format!(
                    "{}: zero-churn record reports churn activity \
                     ({} closed, {} stale probe failures) — the empty schedule must be exact",
                    r.scheme, r.closed_channels, r.stale_probe_failures
                ));
            }
        }
    }
}

/// Gates a regenerated testbed bench (`candidate`) against the
/// committed one (`baseline`), both as JSON text.
///
/// * **Regressions** — success ratio down >[`MAX_REGRESSION`] on a
///   matched (scheme, nodes, payments) pair fails; probe+commit
///   message growth beyond [`MAX_REGRESSION`] and wall-derived
///   `events_per_sec` drops only warn.
/// * **Conservation** — each candidate record must report
///   `wire_in == wire_out` (every frame sent was received at
///   quiescence) and `escrow_end == 0` (every commit settled). Either
///   violation fails regardless of how the diff looks.
/// * **Scale** — the candidate must include at least one ≥200-node
///   record: the single-process scale acceptance check must stay in
///   the committed trajectory. And where the SP records at the
///   smallest and largest node counts both report events/sec, the
///   largest must reach [`MIN_REACTOR_SCALE`]× the smallest's rate: a
///   within-run ratio, so unlike the absolute rate it can hard-fail.
/// * **Liveness** — a record with `success_ratio == 0` fails: a trace
///   that exercises no successes measures nothing.
pub fn gate_testbed(baseline: &str, candidate: &str) -> Result<GateReport, String> {
    diff(baseline, candidate, check_testbed_shape)
}

/// The testbed physical-suspicion checks: per-record wire conservation
/// and settled escrow, plus the ≥200-node scale record and the SP
/// reactor scale ratio.
fn check_testbed_shape(records: &[TestbedRecord], report: &mut GateReport) {
    for r in records {
        if r.wire_in != r.wire_out {
            report.fail(format!(
                "physically suspicious: {} @ {} nodes sent {} wire frames but received {} — \
                 frames were lost inside a fault-free cluster",
                r.scheme, r.nodes, r.wire_out, r.wire_in
            ));
        }
        if r.escrow_end != 0 {
            report.fail(format!(
                "physically suspicious: {} @ {} nodes ended with {} µ-units still escrowed — \
                 some commit was never confirmed or reversed",
                r.scheme, r.nodes, r.escrow_end
            ));
        }
        if r.success_ratio == 0.0 {
            report.fail(format!(
                "{} @ {} nodes: nothing succeeded — the trace exercises no settlement path",
                r.scheme, r.nodes
            ));
        }
    }
    if !records.is_empty() && !records.iter().any(|r| r.nodes >= 200) {
        report.fail(
            "no ≥200-node record in the candidate — the single-process scale \
             acceptance check is gone from the trajectory"
                .into(),
        );
    }
    let sp = || records.iter().filter(|r| r.scheme == "SP");
    if let (Some(small), Some(large)) = (sp().min_by_key(|r| r.nodes), sp().max_by_key(|r| r.nodes))
    {
        let ratio = large.events_per_sec / small.events_per_sec;
        if large.nodes > small.nodes
            && small.events_per_sec > 0.0
            && large.events_per_sec > 0.0
            && ratio < MIN_REACTOR_SCALE
        {
            report.fail(format!(
                "physically suspicious: SP @ {} nodes runs at {ratio:.2}× the events/sec of \
                 SP @ {} nodes (< {MIN_REACTOR_SCALE}×) — an O(sockets) reactor pass, \
                 not per-frame work, dominates the testbed",
                large.nodes, small.nodes
            ));
        }
    }
}

/// Gates a regenerated max-flow bench against the committed one, both
/// as JSON text. Flow values are hard-gated (they are deterministic);
/// wall-clock *deltas* against the baseline only warn. Within-run
/// wall-time ratios hard-fail on shape: the fastest non-oracle kernel
/// must beat the Edmonds–Karp oracle on every topology (by >2× on
/// ≥1000-node lightning-scale topologies), and where a warm-vs-cold
/// pair was recorded, `warm-start` must beat `cold-restart` and carry
/// an identical total flow.
pub fn gate_maxflow(baseline: &str, candidate: &str) -> Result<GateReport, String> {
    diff(baseline, candidate, check_maxflow_shape)
}

/// The max-flow shape checks on the candidate alone (they fail even
/// against itself): the kernels exist to beat the oracle, and
/// warm-start exists to beat a cold restart. Both are wall-time
/// *ratios within one run* on one machine, so unlike the absolute
/// deltas they are robust to CI hardware variance and can hard-fail.
fn check_maxflow_shape(cand: &[MaxflowRecord], report: &mut GateReport) {
    for recs in group_by(cand, |r| &r.topology) {
        let topo = &recs[0].topology;
        let oracle = recs.iter().find(|r| r.kernel == "edmonds-karp");
        let fastest = recs
            .iter()
            .filter(|r| {
                !matches!(
                    r.kernel.as_str(),
                    "edmonds-karp" | "warm-start" | "cold-restart"
                )
            })
            .min_by_key(|r| (r.mean_ns_per_pair, &r.kernel));
        if let (Some(o), Some(f)) = (oracle, fastest) {
            if f.mean_ns_per_pair >= o.mean_ns_per_pair {
                report.fail(format!(
                    "{topo}: fastest kernel {} ({} ns/pair) does not beat the \
                     Edmonds–Karp oracle ({} ns/pair) — the hot path has no \
                     reason to exist; see docs/maxflow.md",
                    f.kernel, f.mean_ns_per_pair, o.mean_ns_per_pair
                ));
            } else if topo.contains("lightning")
                && f.nodes >= 1000
                && f.mean_ns_per_pair.saturating_mul(2) > o.mean_ns_per_pair
            {
                report.fail(format!(
                    "{topo}: fastest kernel {} ({} ns/pair) beats the oracle \
                     ({} ns/pair) by less than 2× at lightning scale — the \
                     ROADMAP win condition regressed",
                    f.kernel, f.mean_ns_per_pair, o.mean_ns_per_pair
                ));
            }
        }
        let warm = recs.iter().find(|r| r.kernel == "warm-start");
        let cold = recs.iter().find(|r| r.kernel == "cold-restart");
        if let (Some(w), Some(c)) = (warm, cold) {
            if w.total_flow != c.total_flow {
                report.fail(format!(
                    "{topo}: warm-start total flow {} != cold-restart total flow {} \
                     — incremental re-solve is computing a different flow",
                    w.total_flow, c.total_flow
                ));
            }
            if w.mean_ns_per_pair >= c.mean_ns_per_pair {
                report.fail(format!(
                    "{topo}: warm-start ({} ns/batch) is not faster than a cold \
                     restart ({} ns/batch) — the incremental path has no reason \
                     to exist",
                    w.mean_ns_per_pair, c.mean_ns_per_pair
                ));
            }
        }
    }
}
