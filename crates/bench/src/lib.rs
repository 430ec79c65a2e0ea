//! # flash-bench
//!
//! Shared fixtures for the Criterion benchmarks. Three bench targets:
//!
//! * `kernels` — algorithmic hot paths (BFS, Yen, the max-flow kernels
//!   — Edmonds–Karp, Dinic, flow decomposition — the simplex solver,
//!   Algorithm 1, waterfilling, the wire codec).
//! * `figures` — one representative cell per paper figure, so `cargo
//!   bench` regenerates a reduced-scale version of every experiment and
//!   its runtime budget is tracked over time.
//! * `ablations` — the design-choice ablations (random vs. fixed mice
//!   path order, lazy vs. exhaustive probing, max-flow vs.
//!   edge-disjoint vs. Yen path finding, LP vs. sequential fee splits),
//!   on scale-free graphs standing in for the crawled Ripple/Lightning
//!   topologies, which are not in the repository.
//!
//! Plus the binaries:
//!
//! * `maxflow_bench` — compares every `MaxFlowSolver` kernel on the
//!   Watts–Strogatz and Ripple/Lightning generator topologies,
//!   cross-checks their flow values, and writes `BENCH_maxflow.json`.
//! * `e2e_bench` — all five schemes through the discrete-event engine
//!   (propagation latency + per-node service queues) under Poisson
//!   load, writing `BENCH_e2e.json`.
//! * `churn_bench` — the success-under-churn trajectory, writing
//!   `BENCH_churn.json`.
//! * `testbed_bench` — scenario-driven runs on the event-loop TCP
//!   cluster (including the 200-node single-process scale point),
//!   writing `BENCH_testbed.json`.
//! * `bench_gate` — diffs the regenerated smoke benches against the
//!   committed files and fails CI on regressions or physically
//!   suspicious shapes (see [`gate`]).
//!
//! The committed `BENCH_*.json` files are the `--smoke` outputs (so
//! the gate always compares like with like on PR CI); the weekly
//! scheduled workflow regenerates the full-scale trajectory as
//! artifacts.
//!
//! Each record type is defined once, in [`record`], and declares per
//! metric how [`gate`] diffs it. The four record bins share one command
//! line ([`parse_args`], `[--smoke] [--out FILE]`) and one output
//! format ([`write_records`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod gate;
pub mod record;

use pcn_graph::generators;
use pcn_sim::Network;
use pcn_types::{Amount, NodeId, Payment, TxId};
use serde::Serialize;

/// A mid-size scale-free test network (uniform funds).
pub fn bench_network(nodes: usize, seed: u64) -> Network {
    let g = generators::scale_free_with_channels(nodes, nodes * 3, seed);
    Network::uniform(g, Amount::from_units(500))
}

/// A Watts–Strogatz network like the paper's testbed topologies.
pub fn bench_ws_network(nodes: usize, seed: u64) -> Network {
    let g = generators::watts_strogatz(nodes, 4, 0.3, seed);
    Network::uniform(g, Amount::from_units(1200))
}

/// A deterministic payment between two pseudo-random nodes.
pub fn bench_payment(net: &Network, amount_units: u64, seed: u64) -> Payment {
    let n = net.graph().node_count() as u32;
    let s = NodeId(seed as u32 % n);
    let mut t = NodeId((seed as u32 * 7 + n / 2) % n);
    if s == t {
        t = NodeId((t.0 + 1) % n);
    }
    Payment::new(TxId(seed), s, t, Amount::from_units(amount_units))
}

/// A record bin's parsed command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--smoke`: the reduced CI scale the committed files are made at.
    pub smoke: bool,
    /// `--out FILE`; `None` means the bin's default `BENCH_*.json`.
    pub out: Option<String>,
    /// `--help` / `-h` was given (later arguments are not parsed).
    pub help: bool,
}

/// Parses a record bin's arguments (program name excluded):
/// `[--smoke] [--out FILE] [--help]`.
///
/// # Errors
/// Names the offending argument: an unknown one, or `--out` with no
/// file after it.
pub fn parse_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(args.next().ok_or("--out needs a file")?.clone()),
            "--help" | "-h" => {
                parsed.help = true;
                break;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(parsed)
}

/// The process command line of the record bin `bin`, as `(smoke, out)`
/// with `out` defaulting to `default_out`. Prints usage and exits 0 on
/// `--help`, or prints the error and usage and exits 2 on a bad
/// argument.
pub fn bench_args(bin: &str, default_out: &str) -> (bool, String) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = format!("usage: {bin} [--smoke] [--out FILE]");
    match parse_args(&args) {
        Ok(BenchArgs { help: true, .. }) => {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        Ok(BenchArgs { smoke, out, .. }) => (smoke, out.unwrap_or_else(|| default_out.into())),
        Err(e) => {
            eprintln!("{e}\n{usage}");
            std::process::exit(2);
        }
    }
}

/// Writes `records` to `path` as a JSON array with one record per line:
/// diffable in review, still plain JSON.
///
/// # Errors
/// Propagates a serialization or file-write error.
pub fn write_records<R: Serialize>(path: &str, records: &[R]) -> std::io::Result<()> {
    let mut lines = Vec::with_capacity(records.len());
    for r in records {
        let json = serde_json::to_string(r).map_err(|e| std::io::Error::other(e.to_string()))?;
        lines.push(format!("  {json}"));
    }
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
}
