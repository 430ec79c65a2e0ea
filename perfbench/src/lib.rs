//! End-to-end and per-layer benchmark of the Flash reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates a workload's inputs: a fixed topology and set of
//! payments, and several orders of them drawn from the seed. With
//! `--trace 0` it routes every order once and the first again, timed at
//! the payment boundary only, and reports the end-to-end metrics. With
//! `--trace 1` it routes the first order once with no wrapper at all (the
//! reference), then alternates untraced passes with traced ones, whose
//! backend calls are timed too, and reports the per-layer split. Either
//! way it checks every pass before reporting: funds conserved, wrapped
//! passes identical to the reference, and every pass over an order
//! identical to every other. The last line of standard output is a JSON
//! object; the exit code is non-zero when a check fails.
//!
//! The layers are measured from outside only, by timing calls at the
//! program's stable trait boundaries. All of those calls live in
//! [`adapter`].

#![forbid(unsafe_code)]

pub mod adapter;
pub mod report;
pub mod run;
pub mod stats;

/// The benchmark's workloads. Each stresses one layer and bypasses
/// another; `BENCHMARK.json` records which.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Flash on the instant simulator, 200-node testbed topology, a
    /// recurrent Ripple trace with 90% mice: the mice routing table.
    MiceRecurrent,
    /// Flash with every payment an elephant on the Lightning-scale
    /// topology with paper fees: Algorithm 1 and the fee LP.
    ElephantLightning,
    /// Spider on the discrete-event engine under Poisson load and
    /// channel churn: the DES backend.
    DesSpiderChurn,
    /// Spider on the event-loop testbed cluster, one payment at a time:
    /// the wire protocol.
    TestbedLoopback,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MiceRecurrent,
        Workload::ElephantLightning,
        Workload::DesSpiderChurn,
        Workload::TestbedLoopback,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MiceRecurrent => "mice_recurrent",
            Workload::ElephantLightning => "elephant_lightning",
            Workload::DesSpiderChurn => "des_spider_churn",
            Workload::TestbedLoopback => "testbed_loopback",
        }
    }

    /// Wall time budgeted per instance, seconds. On a 2-core x86-64 host
    /// one pass takes about 4.5 s on `mice_recurrent`, 2.2 s on
    /// `elephant_lightning`, 2.3 s on `des_spider_churn` and 7 s on
    /// `testbed_loopback`. The cost of `mice_recurrent` hangs on which
    /// channels starve first, so one order's wall time varies by 30%: it
    /// gets more instances than fit in `--seconds`, and its runs take
    /// about two and a half times as long. The simulator workloads vary
    /// least and get fewer.
    fn seconds_per_instance(self) -> f64 {
        match self {
            Workload::MiceRecurrent => 2.0,
            Workload::ElephantLightning => 2.5,
            Workload::DesSpiderChurn => 3.3,
            Workload::TestbedLoopback => 7.5,
        }
    }

    /// Traffic instances a run of `seconds` draws, at least one. Pooling
    /// the metrics over several independent draws keeps a run's figures
    /// close to those of a run with another seed. The count depends on
    /// `seconds` alone, never on the host, so the virtual metrics of a
    /// (seed, seconds) pair repeat exactly.
    pub fn instances(self, seconds: f64) -> usize {
        ((seconds / self.seconds_per_instance()).round() as usize).max(1)
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}
