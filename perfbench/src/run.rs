//! One benchmark run: set-up, passes, and the checks on their outputs.

use crate::adapter::{self, InputProps, Inputs, Mode, Pass};
use crate::Workload;
use pcn_proto::wall_now;

/// Set-up repeats at least this many times, so `setup_s` is a median.
const MIN_SETUPS: usize = 3;
/// Cheap set-ups repeat until this much time is spent on them...
const SETUP_BUDGET_S: f64 = 0.5;
/// ...but never more often than this.
const MAX_SETUPS: usize = 200;
/// Largest share of a traced pass's wall time the layers may leave
/// unattributed.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;

/// What one run asks for.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Wall time to spend on wrapped passes. It also sets how many
    /// traffic instances the run draws (see [`Workload::instances`]).
    pub seconds: f64,
    /// Whether to run traced passes and report the per-layer split.
    pub trace: bool,
}

/// Everything one run measured.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Properties of the generated inputs.
    pub props: InputProps,
    /// Traffic instances drawn.
    pub instances: usize,
    /// The reference pass of traced runs: stock router, stock runner, no
    /// wrapper, over instance 0.
    pub bare: Option<Pass>,
    /// Passes timed at the payment boundary only.
    pub timed: Vec<Pass>,
    /// Passes with every backend call timed as well.
    pub traced: Vec<Pass>,
    /// Peak resident set size of the process, MiB.
    pub peak_rss_mb: f64,
}

impl RunResult {
    /// Every pass, the reference first.
    pub fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.bare.iter().chain(&self.timed).chain(&self.traced)
    }
}

/// Runs one workload as configured.
///
/// An untraced run routes every instance once, then instance 0 again to
/// show that the outputs repeat. A traced run makes the bare reference
/// pass over instance 0, then alternates traced and untraced passes over
/// it for `seconds`, so drift in the host's speed hits both alike.
pub fn run(config: RunConfig) -> RunResult {
    let instances = config.workload.instances(config.seconds);
    let (inputs, setup_s) = set_up(config.workload, config.seed, instances);
    let mut result = RunResult {
        setup_s,
        props: inputs.props.clone(),
        instances,
        ..RunResult::default()
    };
    if config.trace {
        result.bare = Some(adapter::run_pass(&inputs, 0, Mode::Bare));
        let wall_measure = wall_now();
        let mut rounds = 0u32;
        loop {
            result
                .traced
                .push(adapter::run_pass(&inputs, 0, Mode::Traced));
            result
                .timed
                .push(adapter::run_pass(&inputs, 0, Mode::Timed));
            rounds += 1;
            let spent = wall_measure.elapsed().as_secs_f64();
            // Stop before a round that would overrun the budget.
            if spent + spent / f64::from(rounds) > config.seconds {
                break;
            }
        }
    } else {
        for i in (0..instances).chain([0]) {
            result
                .timed
                .push(adapter::run_pass(&inputs, i, Mode::Timed));
        }
    }
    result.peak_rss_mb = crate::stats::peak_rss_mb();
    result
}

/// Generates the inputs several times and keeps the last copy; returns
/// it with the wall time of every set-up.
fn set_up(workload: Workload, seed: u64, instances: usize) -> (Inputs, Vec<f64>) {
    let mut times = Vec::new();
    let wall_budget = wall_now();
    loop {
        let wall_setup = wall_now();
        let inputs = adapter::setup(workload, seed, instances);
        times.push(wall_setup.elapsed().as_secs_f64());
        let spent = wall_budget.elapsed().as_secs_f64();
        if times.len() >= MAX_SETUPS || (times.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S) {
            return (inputs, times);
        }
    }
}

/// A failed check: which pass (index into [`RunResult::passes`], `None`
/// for the whole run) and what broke.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// The pass that failed, or `None` when the run as a whole did.
    pub pass: Option<usize>,
    /// What broke.
    pub message: String,
}

/// The time split of one traced pass. Core self time, backend time and
/// engine or orchestration time partition the pass's wall time; the
/// remainder is unattributed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Split {
    /// Σ `route()` minus the backend time inside it.
    pub core_ns: f64,
    /// Σ backend calls made from inside `route()`.
    pub backend_ns: f64,
    /// Runner time outside `route()`: the DES engine's own loop, or the
    /// scenario's orchestration. Zero for the instant backend, whose
    /// runner is the benchmark's own loop.
    pub runner_self_ns: f64,
    /// Wall time no layer accounts for.
    pub unattributed_ns: f64,
    /// Wall time of the pass.
    pub wall_ns: f64,
}

impl Split {
    /// Splits a traced pass of `workload`.
    pub fn of(workload: Workload, pass: &Pass) -> Split {
        let route = (pass.mice.route_ns + pass.elephant.route_ns) as f64;
        let backend = (pass.mice.backend_ns + pass.elephant.backend_ns) as f64;
        let runner_self = match workload {
            Workload::MiceRecurrent | Workload::ElephantLightning => 0.0,
            Workload::DesSpiderChurn | Workload::TestbedLoopback => pass.runner_ns as f64 - route,
        };
        let core = route - backend;
        let wall = pass.wall_ns as f64;
        Split {
            core_ns: core,
            backend_ns: backend,
            runner_self_ns: runner_self,
            unattributed_ns: wall - core - backend - runner_self,
            wall_ns: wall,
        }
    }

    /// `ns` as a share of the pass's wall time.
    pub fn share(&self, ns: f64) -> f64 {
        if self.wall_ns > 0.0 {
            ns / self.wall_ns
        } else {
            0.0
        }
    }
}

/// Checks a run's outputs; an empty list means every check passed.
///
/// * Funds conservation: every pass's backend reported conserved funds
///   (and, where it has escrow, none left after the drain).
/// * Completeness: every pass attempted every payment of its instance.
/// * Wrapper transparency: the first wrapped pass of each kind over
///   instance 0 matches the bare reference pass exactly.
/// * Determinism: every wrapped pass matches the first wrapped pass over
///   the same instance, and at least one instance was routed twice.
/// * Partition: in every traced pass the layers' times are
///   non-negative and leave at most [`MAX_UNATTRIBUTED_SHARE`] of the
///   wall time unattributed.
pub fn verify(workload: Workload, result: &RunResult) -> Vec<Failure> {
    let mut failures = Vec::new();
    let mut fail = |pass: Option<usize>, message: String| {
        failures.push(Failure { pass, message });
    };
    let passes: Vec<&Pass> = result.passes().collect();
    for (i, pass) in passes.iter().enumerate() {
        if let Some(e) = &pass.conservation_error {
            fail(Some(i), format!("conservation: {e}"));
        }
        if pass.outcome.attempted != result.props.payments {
            fail(
                Some(i),
                format!(
                    "completeness: {} of {} payments attempted",
                    pass.outcome.attempted, result.props.payments
                ),
            );
        }
    }
    let first_wrapped = usize::from(result.bare.is_some());
    if let Some(bare) = &result.bare {
        for first in [result.timed.first(), result.traced.first()]
            .into_iter()
            .flatten()
        {
            if first.instance == bare.instance && first.outcome != bare.outcome {
                let i = passes.iter().position(|p| std::ptr::eq(*p, first));
                fail(
                    i,
                    format!(
                        "transparency: wrapped pass differs from the bare reference: {} vs {}",
                        first.outcome.fingerprint, bare.outcome.fingerprint
                    ),
                );
            }
        }
    }
    let mut repeated = false;
    for (i, pass) in passes.iter().enumerate().skip(first_wrapped) {
        let first = passes[first_wrapped..]
            .iter()
            .position(|p| p.instance == pass.instance)
            .map(|j| j + first_wrapped);
        match first {
            Some(j) if j < i => {
                repeated = true;
                if pass.outcome != passes[j].outcome {
                    fail(
                        Some(i),
                        format!(
                            "determinism: pass {i} differs from pass {j} over instance {}: {} vs {}",
                            pass.instance, pass.outcome.fingerprint, passes[j].outcome.fingerprint
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    if !repeated {
        fail(
            None,
            "determinism: no instance was routed twice by wrapped passes".to_string(),
        );
    }
    for (i, pass) in passes.iter().enumerate() {
        if !pass.traced {
            continue;
        }
        let split = Split::of(workload, pass);
        let parts = [
            ("core", split.core_ns),
            ("backend", split.backend_ns),
            ("runner", split.runner_self_ns),
            ("unattributed", split.unattributed_ns),
        ];
        for (name, ns) in parts {
            if ns < 0.0 {
                fail(
                    Some(i),
                    format!("partition: {name} time is negative ({ns} ns)"),
                );
            }
        }
        if split.share(split.unattributed_ns) > MAX_UNATTRIBUTED_SHARE {
            fail(
                Some(i),
                format!(
                    "partition: {:.1}% of the wall time is unattributed",
                    100.0 * split.share(split.unattributed_ns)
                ),
            );
        }
    }
    failures
}

/// Payments attempted across all passes, and payments of the passes
/// that failed a check (all of them when the run as a whole failed).
pub fn attempted_and_failed(result: &RunResult, failures: &[Failure]) -> (u64, u64) {
    let per_pass = result.props.payments;
    let count = result.passes().count() as u64;
    let attempted = per_pass * count;
    if failures.iter().any(|f| f.pass.is_none()) {
        return (attempted, attempted);
    }
    let mut failed_passes: Vec<usize> = failures.iter().filter_map(|f| f.pass).collect();
    failed_passes.sort_unstable();
    failed_passes.dedup();
    (attempted, per_pass * failed_passes.len() as u64)
}
