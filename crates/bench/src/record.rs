//! The four bench records, each defined once: its bin builds it and
//! writes it with [`crate::write_records`], and [`crate::gate`] parses
//! it back. Fields added after a file was first committed carry
//! `#[serde(default)]` so the gate still parses historical artifacts
//! (and its own regression-test fixtures).
//!
//! Each record also declares how the gate diffs it ([`Gated`]): the
//! configuration key committed and regenerated records are matched on,
//! the row label used in the delta table and findings, and one
//! [`Metric`] per diffed value with its direction and severity.

use crate::gate::Better::{Exact, Higher, Lower};
use crate::gate::Severity::{Fail, Warn};
use crate::gate::{Gated, Metric};
use serde::{Deserialize, Serialize};

/// One (scheme, offered-load) record of `BENCH_e2e.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct E2eRecord {
    /// Scheme label (`Flash`, `Spider`, …).
    pub scheme: String,
    /// Topology size.
    pub nodes: usize,
    /// Trace length.
    pub payments: usize,
    /// Offered load, payments per virtual second.
    pub offered_pps: f64,
    /// Per-hop propagation latency, ms.
    pub hop_latency_ms: u64,
    /// Per-node service time, ms (0 in pre-queue artifacts).
    #[serde(default)]
    pub service_time_ms: u64,
    /// Fraction of payments fully delivered.
    pub success_ratio: f64,
    /// Successful payments per virtual second.
    pub throughput_pps: f64,
    /// Completion-latency percentiles, virtual ms.
    pub p50_latency_ms: f64,
    /// p95 completion latency, virtual ms.
    pub p95_latency_ms: f64,
    /// p99 completion latency, virtual ms.
    pub p99_latency_ms: f64,
    /// Median per-message queueing delay, virtual ms.
    #[serde(default)]
    pub p50_queue_delay_ms: f64,
    /// p95 per-message queueing delay, virtual ms.
    #[serde(default)]
    pub p95_queue_delay_ms: f64,
    /// Peak concurrently in-flight payments.
    pub peak_in_flight: u64,
    /// Peak per-node message backlog.
    #[serde(default)]
    pub peak_backlog: u64,
    /// Busiest node's utilization in `[0, 1]`.
    #[serde(default)]
    pub max_node_utilization: f64,
    /// Settlement events processed.
    pub events: u64,
    /// Virtual makespan, ms.
    pub virtual_makespan_ms: f64,
    /// Wall-clock cost of the simulation, ns (not gated).
    pub wall_ns: u64,
    /// Engine events processed per wall-clock second — the hot-loop
    /// churn metric `des_hot_loop` tracks. Wall-derived, so drops
    /// beyond [`crate::gate::MAX_REGRESSION`] only *warn* (CI hardware
    /// varies).
    #[serde(default)]
    pub events_per_sec: f64,
}

impl Gated for E2eRecord {
    type Key = (String, usize, usize, u64, u64, u64);
    const METRICS: &'static [Metric<Self>] = &[
        Metric::new("delivered throughput (pps)", Higher, Some(Fail), |r| {
            r.throughput_pps
        }),
        Metric::new("p95 completion latency (ms)", Lower, Some(Fail), |r| {
            r.p95_latency_ms
        }),
        Metric::new("success ratio", Higher, Some(Fail), |r| r.success_ratio),
        Metric::new("engine events/sec", Higher, Some(Warn), |r| {
            r.events_per_sec
        }),
    ];

    fn key(&self) -> Self::Key {
        (
            self.scheme.clone(),
            self.nodes,
            self.payments,
            self.offered_pps.to_bits(),
            self.hop_latency_ms,
            self.service_time_ms,
        )
    }

    fn label(&self) -> String {
        format!(
            "{} @ {} pps (nodes {}, service {}ms)",
            self.scheme, self.offered_pps, self.nodes, self.service_time_ms
        )
    }
}

/// One record of `BENCH_churn.json`: one (scheme, churn-rate) point of
/// the success-under-churn trajectory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnRecord {
    /// Scheme label (`Flash`, `Spider`, …).
    pub scheme: String,
    /// Topology size.
    pub nodes: usize,
    /// Trace length.
    pub payments: usize,
    /// Offered load, payments per virtual second (fixed within a sweep).
    pub offered_pps: f64,
    /// Channel-close intensity — the sweep variable (crashes and
    /// drains ride along proportionally; see the churn figure module).
    pub closes_per_sec: f64,
    /// Per-hop propagation latency, ms.
    pub hop_latency_ms: u64,
    /// Per-node service time, ms.
    pub service_time_ms: u64,
    /// Fraction of payments fully delivered.
    pub success_ratio: f64,
    /// p95 completion latency, virtual ms.
    pub p95_latency_ms: f64,
    /// Channels closed by churn during the run.
    #[serde(default)]
    pub closed_channels: u64,
    /// Probes bounced off closed channels / crashed nodes.
    #[serde(default)]
    pub stale_probe_failures: u64,
    /// Threshold-triggered re-probes across all routers.
    #[serde(default)]
    pub reprobes_triggered: u64,
    /// Wall-clock cost of the simulation, ns (not gated).
    #[serde(default)]
    pub wall_ns: u64,
}

impl Gated for ChurnRecord {
    type Key = (String, usize, usize, u64, u64, u64, u64);
    // Latency tails under churn are legitimately sensitive to
    // re-probing, so p95 only warns; the counters are table-only.
    const METRICS: &'static [Metric<Self>] = &[
        Metric::new("success ratio", Higher, Some(Fail), |r| r.success_ratio),
        Metric::new("p95 completion latency (ms)", Lower, Some(Warn), |r| {
            r.p95_latency_ms
        }),
        Metric::new("closed channels", Lower, None, |r| r.closed_channels as f64),
        Metric::new("re-probes", Lower, None, |r| r.reprobes_triggered as f64),
    ];

    fn key(&self) -> Self::Key {
        (
            self.scheme.clone(),
            self.nodes,
            self.payments,
            self.offered_pps.to_bits(),
            self.closes_per_sec.to_bits(),
            self.hop_latency_ms,
            self.service_time_ms,
        )
    }

    fn label(&self) -> String {
        format!(
            "{} @ {} closes/s (nodes {}, {} pps)",
            self.scheme, self.closes_per_sec, self.nodes, self.offered_pps
        )
    }
}

/// One (topology, kernel) record of `BENCH_maxflow.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MaxflowRecord {
    /// Generator topology name.
    pub topology: String,
    /// Node count.
    pub nodes: usize,
    /// Directed edge count.
    pub directed_edges: usize,
    /// Kernel name (`edmonds-karp`, `dinic`, …).
    pub kernel: String,
    /// Source/sink pairs measured.
    pub pairs: usize,
    /// Timed iterations per pair.
    pub iters_per_pair: usize,
    /// Mean wall time per pair, ns (warn-only: CI hardware varies).
    pub mean_ns_per_pair: u64,
    /// Sum of flow values over the pairs (deterministic; hard-gated).
    pub total_flow: u64,
}

impl Gated for MaxflowRecord {
    type Key = (String, usize, usize, String, usize, usize);
    const METRICS: &'static [Metric<Self>] = &[
        Metric::new("total flow", Exact, Some(Fail), |r| r.total_flow as f64),
        Metric::new("mean wall time per pair (ns)", Lower, Some(Warn), |r| {
            r.mean_ns_per_pair as f64
        }),
    ];

    fn key(&self) -> Self::Key {
        (
            self.topology.clone(),
            self.nodes,
            self.directed_edges,
            self.kernel.clone(),
            self.pairs,
            self.iters_per_pair,
        )
    }

    fn label(&self) -> String {
        format!("{} / {}", self.topology, self.kernel)
    }
}

/// One record of `BENCH_testbed.json`: one (scheme, scale) scenario run
/// on the event-loop TCP cluster. Wall-derived fields
/// (`events_per_sec`, `wall_ns`) only warn against the baseline (only
/// the within-run SP scale ratio of `events_per_sec` can fail);
/// everything else is deterministic for a zero-fault scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TestbedRecord {
    /// Scheme label (`Flash`, `SP`, …).
    pub scheme: String,
    /// Hosted node count (the ≥200 record is the single-process scale
    /// acceptance check).
    pub nodes: usize,
    /// Trace length.
    pub payments: usize,
    /// Fraction of payments fully delivered.
    pub success_ratio: f64,
    /// Volume delivered, micro-units.
    #[serde(default)]
    pub success_volume_micros: u64,
    /// Fees charged, micro-units.
    #[serde(default)]
    pub fees_micros: u64,
    /// `PROBE` messages serviced cluster-wide.
    pub probe_messages: u64,
    /// `COMMIT` messages serviced cluster-wide.
    pub commit_messages: u64,
    /// Wire frames received cluster-wide.
    pub wire_in: u64,
    /// Wire frames sent cluster-wide.
    pub wire_out: u64,
    /// Micro-units still escrowed at the end of the run (must be 0:
    /// every commit was confirmed or reversed).
    #[serde(default)]
    pub escrow_end: u64,
    /// Largest per-connection frame-queue high-water mark.
    #[serde(default)]
    pub queue_high_water: u64,
    /// Wire frames received per wall second (warn-only: CI varies).
    #[serde(default)]
    pub events_per_sec: f64,
    /// Wall-clock cost of the run, ns (not gated).
    #[serde(default)]
    pub wall_ns: u64,
}

impl Gated for TestbedRecord {
    type Key = (String, usize, usize);
    const METRICS: &'static [Metric<Self>] = &[
        Metric::new("success ratio", Higher, Some(Fail), |r| r.success_ratio),
        Metric::new("probe+commit messages", Lower, Some(Warn), |r| {
            (r.probe_messages + r.commit_messages) as f64
        }),
        Metric::new("wire events/sec", Higher, Some(Warn), |r| r.events_per_sec),
    ];

    fn key(&self) -> Self::Key {
        (self.scheme.clone(), self.nodes, self.payments)
    }

    fn label(&self) -> String {
        format!(
            "{} @ {} nodes ({} payments)",
            self.scheme, self.nodes, self.payments
        )
    }
}
