//! The benchmark's one door into the program.
//!
//! Every call into program code lives in this module, and each goes
//! through a surface that internal rework leaves alone:
//!
//! * input generation: `pcn_workload` topologies, fee tables, traces,
//!   arrivals and churn schedules (all counted as set-up);
//! * router constructors and the [`Router`] trait, wrapped by [`Timed`]
//!   to time `route()` per payment and per class;
//! * the [`PaymentNetwork`] / [`PaymentSession`] traits, wrapped by
//!   [`TracedNet`] / [`TracedSession`] to time `probe_path(s)`,
//!   `begin_payment`, `try_send_part(s)`, `commit` and `abort`;
//! * [`DesEngine::run`], `Scenario::run`, and the public reports
//!   (`Metrics`, `DesReport`, `ScenarioReport`,
//!   [`FlashRouter::routing_table_len`]).
//!
//! Path search, max-flow and the fee LP are never called from here: their
//! cost shows inside `route()`, as router self time.
//!
//! Everything this module hands back ([`Inputs`] aside) is plain data, so
//! the checks and the report never touch program types.

use crate::Workload;
use flash_core::classify::threshold_for_mice_fraction;
use flash_core::{FlashConfig, FlashRouter, SpiderRouter};
use pcn_graph::{DiGraph, Path};
use pcn_proto::{wall_now, SchemeKind};
use pcn_scenario::{Invariant, ScenarioBuilder, TopologySpec, WorkloadSpec};
use pcn_sim::{
    ChurnRate, ChurnSchedule, DesConfig, DesEngine, LatencyModel, Metrics, Network, PartFailure,
    PaymentNetwork, PaymentSession, ProbeReport, RouteOutcome, Router, ServiceModel, SimTime,
};
use pcn_types::{Amount, Payment, PaymentClass, TxId};
use pcn_workload::topology::assign_paper_fees;
use pcn_workload::{generate_trace, lightning_topology, testbed_topology, TraceConfig};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Nodes of the §5.2 Watts–Strogatz testbed topology every workload but
/// `elephant_lightning` runs on.
const TESTBED_NODES: usize = 200;
/// Per-direction channel balances of the testbed topology, whole units,
/// drawn from `[lo, hi)`.
const TESTBED_BALANCE: (u64, u64) = (1000, 1500);
/// Payments per pass of the two instant-backend workloads.
const INSTANT_PAYMENTS: usize = 1000;
/// Payments per pass of `des_spider_churn`.
const DES_PAYMENTS: usize = 20_000;
/// Poisson offered load of `des_spider_churn`, payments per virtual second.
const DES_RATE_PPS: f64 = 400.0;
/// Per-hop propagation latency of `des_spider_churn`.
const DES_HOP_MS: u64 = 25;
/// Per-node service time of `des_spider_churn`.
const DES_SERVICE_MS: u64 = 10;
/// Channel closes per virtual second in `des_spider_churn`.
const DES_CLOSES_PER_S: f64 = 10.0;
/// How long a closed channel stays closed in `des_spider_churn`.
const DES_DOWNTIME_MS: u64 = 500;
/// Payments per pass of `testbed_loopback` (closed loop, one client).
const TESTBED_PAYMENTS: usize = 200;
/// The paper's default mice share (§4.1).
const PAPER_MICE_FRACTION: f64 = 0.9;
/// Seed of every router's internal RNG: routing configuration, not input.
const ROUTER_SEED: u64 = 1;
/// Seed of the topologies and their fee tables. The topology is the fixed
/// environment, as the paper's crawled snapshots are.
const TOPOLOGY_SEED: u64 = 1;
/// Seed of each workload's payments. The payments are fixed too; the
/// run's seed draws their order, and on the DES their arrival times and
/// the churn.
const TRACE_SEED: u64 = 2;

/// Payments are reordered within consecutive windows of this many, so
/// every order keeps the trace's arrival structure: a sender's contacts
/// still grow as the trace goes on.
const ORDER_WINDOW: usize = 100;

/// Salts that give each generated input its own stream of a seed.
const FEE_SALT: u64 = 0xFEE5;
const ORDER_SALT: u64 = 0x0DE5;
const ARRIVAL_SALT: u64 = 0xA441;
const CHURN_SALT: u64 = 0xC4C4;

/// The generated inputs of one workload: one topology, one set of
/// payments, and several independent draws of traffic from them. The
/// program receives these and nothing else: the seed stops here.
pub struct Inputs {
    workload: Workload,
    net: Network,
    threshold: Amount,
    instances: Vec<Instance>,
    /// Properties of the inputs, measured while generating them.
    pub props: InputProps,
}

/// One draw of traffic: a pass routes exactly one instance.
struct Instance {
    trace: Vec<Payment>,
    arrivals: Vec<(SimTime, Payment)>,
    churn: ChurnSchedule,
}

/// Properties of the generated inputs, so claims that depend on them can
/// cite them.
#[derive(Clone, Debug, Default)]
pub struct InputProps {
    /// Nodes of the topology.
    pub nodes: u64,
    /// Directed edges of the topology.
    pub edges: u64,
    /// Payments per pass, i.e. per instance.
    pub payments: u64,
    /// Share of payments whose (sender, receiver) pair appeared earlier
    /// in the trace. The same in every instance: each is a reordering.
    pub recurrent_share: f64,
    /// Share of payments classified as mice.
    pub mice_share: f64,
    /// Wall time spent building the topology and its fee table.
    pub topology_ns: u64,
    /// Wall time spent generating the payments and the elephant
    /// threshold, and every instance's order, arrivals and churn schedule.
    pub trace_ns: u64,
}

/// Generates a workload's inputs: its fixed topology and payments, and
/// `instances` orders of the payments drawn from `seed`.
pub fn setup(workload: Workload, seed: u64, instances: usize) -> Inputs {
    let wall_topology = wall_now();
    let mut net = match workload {
        Workload::ElephantLightning => lightning_topology(TOPOLOGY_SEED),
        _ => testbed_topology(
            TESTBED_NODES,
            TESTBED_BALANCE.0,
            TESTBED_BALANCE.1,
            TOPOLOGY_SEED,
        ),
    };
    assign_paper_fees(&mut net, TOPOLOGY_SEED ^ FEE_SALT);
    let topology_ns = nanos(wall_topology);

    let wall_trace = wall_now();
    let (base, threshold) = base_trace(workload, net.graph());
    let instances: Vec<Instance> = (0..instances)
        .map(|i| instance(workload, net.graph(), &base, instance_seed(seed, i)))
        .collect();
    let trace_ns = nanos(wall_trace);

    let mut pairs = BTreeSet::new();
    let props = InputProps {
        nodes: net.graph().node_count() as u64,
        edges: net.graph().edge_count() as u64,
        payments: base.len() as u64,
        recurrent_share: share(&base, |p| !pairs.insert((p.sender.0, p.receiver.0))),
        mice_share: share(&base, |p| p.classify(threshold).is_mice()),
        topology_ns,
        trace_ns,
    };
    Inputs {
        workload,
        net,
        threshold,
        instances,
        props,
    }
}

fn share(trace: &[Payment], mut pred: impl FnMut(&Payment) -> bool) -> f64 {
    if trace.is_empty() {
        return 0.0;
    }
    trace.iter().filter(|p| pred(p)).count() as f64 / trace.len() as f64
}

/// The seed of instance `i` of a run seeded with `seed`. Hashing the
/// run's seed first keeps the instances of nearby seeds from sharing
/// shifted copies of one random stream.
fn instance_seed(seed: u64, i: usize) -> u64 {
    SplitMix64(seed).next().wrapping_add(i as u64)
}

/// The workload's payments: one fixed trace over `graph`, and the
/// elephant threshold its sizes give.
fn base_trace(workload: Workload, graph: &DiGraph) -> (Vec<Payment>, Amount) {
    let (config, mice_fraction) = match workload {
        Workload::MiceRecurrent => (
            TraceConfig::ripple(INSTANT_PAYMENTS, TRACE_SEED),
            PAPER_MICE_FRACTION,
        ),
        // The endpoint of the Figure 10 sweep: every payment an elephant.
        Workload::ElephantLightning => (TraceConfig::lightning(INSTANT_PAYMENTS, TRACE_SEED), 0.0),
        Workload::DesSpiderChurn => (
            TraceConfig::ripple(DES_PAYMENTS, TRACE_SEED),
            PAPER_MICE_FRACTION,
        ),
        Workload::TestbedLoopback => (
            TraceConfig::ripple(TESTBED_PAYMENTS, TRACE_SEED),
            PAPER_MICE_FRACTION,
        ),
    };
    let trace = generate_trace(graph, &config);
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, mice_fraction);
    (trace, threshold)
}

/// Draws one instance: the base trace in an order drawn from `seed`,
/// renumbered in arrival order, plus (on the DES) Poisson arrival times
/// and a churn schedule drawn from `seed`.
fn instance(workload: Workload, graph: &DiGraph, base: &[Payment], seed: u64) -> Instance {
    let mut order: Vec<usize> = (0..base.len()).collect();
    let mut rng = SplitMix64(seed ^ ORDER_SALT);
    for window in order.chunks_mut(ORDER_WINDOW) {
        for i in (1..window.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            window.swap(i, j);
        }
    }
    let trace: Vec<Payment> = order
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let p = &base[k];
            Payment::new(TxId(i as u64), p.sender, p.receiver, p.amount)
        })
        .collect();
    let (arrivals, churn) = if workload == Workload::DesSpiderChurn {
        let arrivals =
            pcn_workload::arrivals::poisson_workload(&trace, DES_RATE_PPS, seed ^ ARRIVAL_SALT);
        let horizon = arrivals.last().map(|&(t, _)| t).unwrap_or(SimTime::ZERO);
        let rate = ChurnRate::closes(DES_CLOSES_PER_S, SimTime::from_millis(DES_DOWNTIME_MS));
        let churn = pcn_workload::churn_schedule(graph, horizon, &rate, seed ^ CHURN_SALT);
        (arrivals, churn)
    } else {
        (Vec::new(), ChurnSchedule::none())
    };
    Instance {
        trace,
        arrivals,
        churn,
    }
}

/// SplitMix64: the benchmark's own small generator for drawing payment
/// orders.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How a pass drives the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The stock router on the stock runner: no wrapper at all. The
    /// reference for the transparency check.
    Bare,
    /// [`Timed`] around the router: one clock pair per payment. The
    /// end-to-end metrics come from these passes.
    Timed,
    /// [`Timed`] plus [`TracedNet`] around the backend: the per-layer
    /// split.
    Traced,
}

/// One pass of a workload: one instance's full trace through a fresh
/// network.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// The instance routed.
    pub instance: usize,
    /// How the pass drove the router.
    pub traced: bool,
    /// Wall time of the whole pass, network copy and checks included.
    pub wall_ns: u64,
    /// Wall time of the runner: the payment loop, `DesEngine::run`, or
    /// `Scenario::run` (cluster deploy and shutdown included).
    pub runner_ns: u64,
    /// Host wall time of each `route()` call (empty for a bare pass).
    pub route_ns: Vec<u64>,
    /// Router time on mice payments.
    pub mice: ClassTimes,
    /// Router time on elephant payments.
    pub elephant: ClassTimes,
    /// Backend calls made from inside `route()` (traced passes only).
    pub backend: BackendCounts,
    /// Virtual outcome of the pass.
    pub outcome: Outcome,
    /// What broke funds conservation, if anything did.
    pub conservation_error: Option<String>,
}

/// `route()` time of one payment class.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassTimes {
    /// `route()` calls.
    pub calls: u64,
    /// Σ `route()` wall time.
    pub route_ns: u64,
    /// Σ backend wall time inside those calls.
    pub backend_ns: u64,
}

/// Backend calls made by routers, as seen through [`TracedNet`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendCounts {
    /// Paths probed (`probe_path`, each path of `probe_paths`, and
    /// probes made inside a session).
    pub probe_calls: u64,
    /// Wall time spent probing.
    pub probe_ns: u64,
    /// Session calls: `begin_payment`, `try_send_part(s)`, `commit`,
    /// `abort`, session drops, `send_single_path` and
    /// `record_rejected_attempt`.
    pub session_calls: u64,
    /// Wall time spent in session calls.
    pub session_ns: u64,
    /// Non-zero parts offered to `try_send_part(s)` or `send_single_path`.
    pub parts_attempted: u64,
    /// Parts settled by a successful commit.
    pub parts_committed: u64,
}

impl BackendCounts {
    fn busy_ns(&self) -> u64 {
        self.probe_ns + self.session_ns
    }

    fn session(&mut self, wall_start: pcn_proto::WallInstant) {
        self.session_ns += nanos(wall_start);
        self.session_calls += 1;
    }

    fn probe(&mut self, wall_start: pcn_proto::WallInstant, paths: usize) {
        self.probe_ns += nanos(wall_start);
        self.probe_calls += paths as u64;
    }

    fn committed(&mut self, outcome: &RouteOutcome) {
        if let RouteOutcome::Success { paths_used, .. } = outcome {
            self.parts_committed += u64::from(*paths_used);
        }
    }
}

/// The virtual (host-independent) outcome of a pass. Two passes over the
/// same instance must agree on every field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Every virtual field of the backend's report, printed exactly: the
    /// determinism and transparency checks compare these.
    pub fingerprint: String,
    /// Payments attempted.
    pub attempted: u64,
    /// Payments delivered in full.
    pub succeeded: u64,
    /// Volume attempted, µunits.
    pub attempted_volume: f64,
    /// Volume delivered, µunits.
    pub success_volume: f64,
    /// Fees paid on delivered payments, µunits.
    pub fees: f64,
    /// Probe messages sent (one per hop probed).
    pub probe_messages: u64,
    /// Flash's routing-table entries at the end of the pass.
    pub table_entries: u64,
    /// Discrete-event facts (`des_spider_churn` only).
    pub des: DesFacts,
    /// Testbed facts (`testbed_loopback` only).
    pub proto: ProtoFacts,
}

/// Facts from a `DesReport`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DesFacts {
    /// Settlement events processed.
    pub events: u64,
    /// Highest backlog at any single node.
    pub peak_backlog: u64,
    /// The busiest node's utilization.
    pub max_node_utilization: f64,
    /// 95th-percentile per-message queueing delay, virtual ms.
    pub queue_delay_ms_p95: f64,
    /// Channels closed by churn.
    pub closed_channels: u64,
    /// Re-probes triggered by routers' staleness thresholds.
    pub reprobes: u64,
    /// Median completion latency, virtual ms.
    pub latency_ms_p50: f64,
    /// 99th-percentile completion latency, virtual ms.
    pub latency_ms_p99: f64,
}

/// Facts from a `ScenarioReport`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProtoFacts {
    /// Wire frames received across all nodes.
    pub wire_frames: u64,
    /// Deepest inbound queue at any node.
    pub queue_high_water: u64,
    /// Commits NACKed across all nodes.
    pub commits_nacked: u64,
}

/// Runs one pass over instance `instance` of `inputs`.
///
/// # Panics
/// Panics if `instance` is out of range.
pub fn run_pass(inputs: &Inputs, instance: usize, mode: Mode) -> Pass {
    let (net, threshold) = (&inputs.net, inputs.threshold);
    let inst = &inputs.instances[instance];
    let mut pass = match inputs.workload {
        Workload::MiceRecurrent | Workload::ElephantLightning => {
            instant_pass(net, threshold, inst, mode)
        }
        Workload::DesSpiderChurn => des_pass(net, threshold, inst, mode),
        Workload::TestbedLoopback => testbed_pass(net, inst, mode),
    };
    pass.instance = instance;
    pass
}

/// Flash on the instant simulator, driven payment by payment.
fn instant_pass(net: &Network, threshold: Amount, inst: &Instance, mode: Mode) -> Pass {
    let wall_pass = wall_now();
    let mut net = net.clone();
    let funds_before = net.total_funds();
    let mut router = FlashRouter::new(FlashConfig {
        elephant_threshold: threshold,
        seed: ROUTER_SEED,
        ..FlashConfig::default()
    });
    let rec = Rc::new(RefCell::new(Recorder::default()));
    let wall_runner = wall_now();
    if mode == Mode::Bare {
        for p in &inst.trace {
            router.route(&mut net, p, p.classify(threshold));
        }
    } else {
        let mut timed = Timed::new(router, mode == Mode::Traced, Rc::clone(&rec));
        for p in &inst.trace {
            timed.route(&mut net, p, p.classify(threshold));
        }
        router = timed.router;
    }
    let runner_ns = nanos(wall_runner);
    let metrics = net.metrics();
    let mut outcome = metrics_outcome(metrics, format!("{metrics:?}"));
    outcome.table_entries = router.routing_table_len() as u64;
    let funds_after = net.total_funds();
    let conservation = (funds_after != funds_before)
        .then(|| format!("instant funds {funds_before} -> {funds_after}"));
    rec.take()
        .into_pass(mode, wall_pass, runner_ns, outcome, conservation)
}

/// Spider on the discrete-event engine with churn.
fn des_pass(net: &Network, threshold: Amount, inst: &Instance, mode: Mode) -> Pass {
    let wall_pass = wall_now();
    let mut engine = DesEngine::new(
        net.clone(),
        DesConfig {
            latency: LatencyModel::constant_ms(DES_HOP_MS),
            service: ServiceModel::constant_ms(DES_SERVICE_MS),
            churn: inst.churn.clone(),
            ..DesConfig::default()
        },
    );
    let rec = Rc::new(RefCell::new(Recorder::default()));
    let wall_runner = wall_now();
    let report = if mode == Mode::Bare {
        engine.run(&mut SpiderRouter::new(), &inst.arrivals, threshold)
    } else {
        let mut timed = Timed::new(SpiderRouter::new(), mode == Mode::Traced, Rc::clone(&rec));
        engine.run(&mut timed, &inst.arrivals, threshold)
    };
    let runner_ns = nanos(wall_runner);
    let mut outcome = metrics_outcome(&report.metrics, format!("{report:?}"));
    outcome.des = DesFacts {
        events: report.events,
        peak_backlog: report.peak_backlog,
        max_node_utilization: report.max_node_utilization,
        queue_delay_ms_p95: report.queue_delay_ms(0.95),
        closed_channels: report.closed_channels,
        reprobes: report.reprobes_triggered,
        latency_ms_p50: report.latency_ms(0.5),
        latency_ms_p99: report.latency_ms(0.99),
    };
    let drained = engine.into_network();
    let (initial, now, escrow) = (
        drained.initial_total_micros(),
        drained.conserved_total_micros(),
        drained.escrow_micros(),
    );
    let conservation = (initial != now || escrow != 0).then(|| {
        format!("DES funds {initial} -> {now} µunits, {escrow} µunits left in escrow after drain")
    });
    rec.take()
        .into_pass(mode, wall_pass, runner_ns, outcome, conservation)
}

/// Spider on the `pcn-scenario` event-loop cluster: one client, one
/// payment at a time.
fn testbed_pass(net: &Network, inst: &Instance, mode: Mode) -> Pass {
    let wall_pass = wall_now();
    let graph: DiGraph = net.graph().clone();
    let edges: Vec<_> = graph.edges().map(|(e, _, _)| e).collect();
    let balances = edges.iter().map(|&e| net.balance(e)).collect();
    let fees = edges.iter().map(|&e| net.fee_policy(e)).collect();
    let attempted_volume: f64 = inst.trace.iter().map(|p| p.amount.micros() as f64).sum();
    let rec = Rc::new(RefCell::new(Recorder::default()));
    let mut builder = ScenarioBuilder::new(
        "testbed_loopback",
        TopologySpec::Explicit { graph, balances },
    )
    .workload(WorkloadSpec::Explicit(inst.trace.clone()))
    .scheme(SchemeKind::Spider)
    .seed(ROUTER_SEED)
    .mice_fraction(PAPER_MICE_FRACTION)
    .fees(fees)
    .expect(Invariant::FundsConserved)
    .expect(Invariant::MessagesConserved);
    if mode != Mode::Bare {
        let timed = Timed::new(SpiderRouter::new(), mode == Mode::Traced, Rc::clone(&rec));
        builder = builder.router(Box::new(timed));
    }
    let scenario = builder.build();
    let wall_runner = wall_now();
    let result = scenario.run();
    let runner_ns = nanos(wall_runner);
    let (outcome, conservation) = match result {
        Err(e) => (Outcome::default(), Some(format!("scenario failed: {e}"))),
        Ok(report) => {
            let escrow: u64 = report.telemetry.iter().map(|t| t.escrow_held).sum();
            let failed: Vec<String> = report
                .failed_invariants()
                .iter()
                .map(|i| format!("{} ({})", i.invariant, i.detail))
                .collect();
            let conservation = (!failed.is_empty() || escrow != 0).then(|| {
                format!(
                    "testbed invariants failed: [{}], {escrow} µunits left in escrow",
                    failed.join(", ")
                )
            });
            let outcome = Outcome {
                fingerprint: format!(
                    "attempted={} succeeded={} volume={} fees={} probes={} commits={} \
                     wire_out={} wire_in={} dropped={} outcomes={:?}",
                    report.attempted,
                    report.succeeded,
                    report.success_volume_micros,
                    report.fees_micros,
                    report.probe_messages,
                    report.commit_messages,
                    report.wire_out,
                    report.wire_in,
                    report.dropped_messages,
                    report.outcomes,
                ),
                attempted: report.attempted,
                succeeded: report.succeeded,
                attempted_volume,
                success_volume: report.success_volume_micros as f64,
                fees: report.fees_micros as f64,
                probe_messages: report.probe_messages,
                proto: ProtoFacts {
                    wire_frames: report.wire_in,
                    queue_high_water: report
                        .telemetry
                        .iter()
                        .map(|t| t.queue_high_water)
                        .max()
                        .unwrap_or(0),
                    commits_nacked: report.telemetry.iter().map(|t| t.commits_nacked).sum(),
                },
                ..Outcome::default()
            };
            (outcome, conservation)
        }
    };
    rec.take()
        .into_pass(mode, wall_pass, runner_ns, outcome, conservation)
}

fn metrics_outcome(m: &Metrics, fingerprint: String) -> Outcome {
    let total = m.total();
    Outcome {
        fingerprint,
        attempted: total.attempted,
        succeeded: total.succeeded,
        attempted_volume: total.attempted_volume.micros() as f64,
        success_volume: total.success_volume.micros() as f64,
        fees: m.fees_paid.micros() as f64,
        probe_messages: m.probe_messages,
        ..Outcome::default()
    }
}

fn nanos(wall_start: pcn_proto::WallInstant) -> u64 {
    u64::try_from(wall_start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What [`Timed`] and [`TracedNet`] record during one pass.
#[derive(Default)]
struct Recorder {
    route_ns: Vec<u64>,
    mice: ClassTimes,
    elephant: ClassTimes,
    backend: BackendCounts,
}

impl Recorder {
    fn into_pass(
        self,
        mode: Mode,
        wall_pass: pcn_proto::WallInstant,
        runner_ns: u64,
        outcome: Outcome,
        conservation_error: Option<String>,
    ) -> Pass {
        Pass {
            instance: 0,
            traced: mode == Mode::Traced,
            wall_ns: nanos(wall_pass),
            runner_ns,
            route_ns: self.route_ns,
            mice: self.mice,
            elephant: self.elephant,
            backend: self.backend,
            outcome,
            conservation_error,
        }
    }
}

/// A [`Router`] wrapper that times every `route()` call and, when
/// traced, hands the router a [`TracedNet`] instead of the backend.
pub struct Timed<R> {
    router: R,
    traced: bool,
    rec: Rc<RefCell<Recorder>>,
}

impl<R> Timed<R> {
    fn new(router: R, traced: bool, rec: Rc<RefCell<Recorder>>) -> Self {
        Timed {
            router,
            traced,
            rec,
        }
    }
}

impl<N, R> Router<N> for Timed<R>
where
    N: PaymentNetwork,
    R: Router<N> + for<'a> Router<TracedNet<'a, N>>,
{
    fn name(&self) -> &'static str {
        <R as Router<N>>::name(&self.router)
    }

    fn route(&mut self, net: &mut N, payment: &Payment, class: PaymentClass) -> RouteOutcome {
        let mut rec = self.rec.borrow_mut();
        let backend_before = rec.backend.busy_ns();
        let wall_route = wall_now();
        let outcome = if self.traced {
            let mut traced = TracedNet {
                inner: net,
                counts: &mut rec.backend,
            };
            self.router.route(&mut traced, payment, class)
        } else {
            self.router.route(net, payment, class)
        };
        let route_ns = nanos(wall_route);
        let backend_ns = rec.backend.busy_ns() - backend_before;
        rec.route_ns.push(route_ns);
        let times = if class.is_mice() {
            &mut rec.mice
        } else {
            &mut rec.elephant
        };
        times.calls += 1;
        times.route_ns += route_ns;
        times.backend_ns += backend_ns;
        outcome
    }

    fn on_topology_refresh(&mut self, net: &N) {
        <R as Router<N>>::on_topology_refresh(&mut self.router, net);
    }
}

/// A [`PaymentNetwork`] wrapper that times every backend call a router
/// makes and delegates it unchanged, overridable methods included, so
/// the backend's own semantics (batched probes, concurrent commits)
/// stay in force.
pub struct TracedNet<'a, N> {
    inner: &'a mut N,
    counts: &'a mut BackendCounts,
}

impl<'a, N: PaymentNetwork> PaymentNetwork for TracedNet<'a, N> {
    type Session<'s>
        = TracedSession<'s, N::Session<'s>>
    where
        Self: 's;

    fn graph(&self) -> &DiGraph {
        self.inner.graph()
    }

    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        let wall_start = wall_now();
        let report = self.inner.probe_path(path);
        self.counts.probe(wall_start, 1);
        report
    }

    fn probe_paths(&mut self, paths: &[Path]) -> Vec<Option<ProbeReport>> {
        let wall_start = wall_now();
        let reports = self.inner.probe_paths(paths);
        self.counts.probe(wall_start, paths.len());
        reports
    }

    fn begin_payment(&mut self, payment: &Payment, class: PaymentClass) -> Self::Session<'_> {
        let wall_start = wall_now();
        let session = self.inner.begin_payment(payment, class);
        self.counts.session(wall_start);
        TracedSession {
            inner: Some(session),
            counts: &mut *self.counts,
        }
    }

    fn send_single_path(
        &mut self,
        payment: &Payment,
        class: PaymentClass,
        path: &Path,
    ) -> RouteOutcome {
        let wall_start = wall_now();
        let outcome = self.inner.send_single_path(payment, class, path);
        self.counts.session(wall_start);
        self.counts.parts_attempted += u64::from(!payment.amount.is_zero());
        self.counts.committed(&outcome);
        outcome
    }

    fn record_rejected_attempt(&mut self, payment: &Payment, class: PaymentClass) {
        let wall_start = wall_now();
        self.inner.record_rejected_attempt(payment, class);
        self.counts.session(wall_start);
    }

    fn note_reprobe(&mut self) {
        self.inner.note_reprobe();
    }
}

/// The session half of [`TracedNet`]. The inner session is an `Option`
/// only so that `commit`, `abort` and drop can each time its end.
pub struct TracedSession<'s, S: PaymentSession> {
    inner: Option<S>,
    counts: &'s mut BackendCounts,
}

impl<S: PaymentSession> TracedSession<'_, S> {
    fn live(&self) -> &S {
        self.inner
            .as_ref()
            .expect("a session is live until commit, abort or drop")
    }

    fn live_mut(&mut self) -> &mut S {
        self.inner
            .as_mut()
            .expect("a session is live until commit, abort or drop")
    }
}

impl<S: PaymentSession> PaymentSession for TracedSession<'_, S> {
    fn try_send_part(&mut self, path: &Path, amount: Amount) -> Result<(), PartFailure> {
        let wall_start = wall_now();
        let result = self.live_mut().try_send_part(path, amount);
        self.counts.session(wall_start);
        self.counts.parts_attempted += u64::from(!amount.is_zero());
        result
    }

    fn try_send_parts(&mut self, parts: &[(Path, Amount)]) -> Result<(), PartFailure> {
        let wall_start = wall_now();
        let result = self.live_mut().try_send_parts(parts);
        self.counts.session(wall_start);
        self.counts.parts_attempted += parts.iter().filter(|(_, a)| !a.is_zero()).count() as u64;
        result
    }

    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        let wall_start = wall_now();
        let report = self.live_mut().probe_path(path);
        self.counts.probe(wall_start, 1);
        report
    }

    fn reserved(&self) -> Amount {
        self.live().reserved()
    }

    fn remaining(&self) -> Amount {
        self.live().remaining()
    }

    fn is_satisfied(&self) -> bool {
        self.live().is_satisfied()
    }

    fn commit(mut self) -> RouteOutcome {
        let session = self
            .inner
            .take()
            .expect("a session is live until commit, abort or drop");
        let wall_start = wall_now();
        let outcome = session.commit();
        self.counts.session(wall_start);
        self.counts.committed(&outcome);
        outcome
    }

    fn abort(mut self) {
        if let Some(session) = self.inner.take() {
            let wall_start = wall_now();
            session.abort();
            self.counts.session(wall_start);
        }
    }
}

impl<S: PaymentSession> Drop for TracedSession<'_, S> {
    fn drop(&mut self) {
        // A router may drop a session instead of aborting it; the
        // backend then aborts on drop, and that time is backend time too.
        if let Some(session) = self.inner.take() {
            let wall_start = wall_now();
            drop(session);
            self.counts.session(wall_start);
        }
    }
}
