//! The committed bench trajectories and the bench-record writer, checked
//! without running a bench.
//!
//! * Each committed `BENCH_*.json` passes its own `bench_gate` against
//!   itself: every shape check (flat latency, churn monotonicity, testbed
//!   conservation and scale, max-flow oracle and warm/cold ratios) holds
//!   on the data the repository ships.
//! * One record of each type written with the bins' shared writer parses
//!   back to the identical record and matches itself in its gate.

use flash_bench::gate::{gate_churn, gate_e2e, gate_maxflow, gate_testbed, GateReport};
use flash_bench::record::{ChurnRecord, E2eRecord, MaxflowRecord, TestbedRecord};
use flash_bench::write_records;
use serde::{Deserialize, Serialize};

type Gate = fn(&str, &str) -> Result<GateReport, String>;

fn assert_clean(name: &str, report: &GateReport) {
    assert!(
        report.findings.is_empty(),
        "{name} does not gate cleanly against itself: {:#?}",
        report.findings
    );
}

#[test]
fn committed_bench_files_pass_their_own_gate() {
    let committed: [(&str, &str, Gate); 4] = [
        (
            "BENCH_e2e.json",
            include_str!("../BENCH_e2e.json"),
            gate_e2e,
        ),
        (
            "BENCH_churn.json",
            include_str!("../BENCH_churn.json"),
            gate_churn,
        ),
        (
            "BENCH_maxflow.json",
            include_str!("../BENCH_maxflow.json"),
            gate_maxflow,
        ),
        (
            "BENCH_testbed.json",
            include_str!("../BENCH_testbed.json"),
            gate_testbed,
        ),
    ];
    for (name, json, gate) in committed {
        let report = gate(json, json).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        assert_clean(name, &report);
        assert!(
            report.table.lines().count() > 2,
            "{name}: empty delta table"
        );
    }
}

/// Writes `records` with the shared writer, checks the file is one
/// record per line and parses back to `records`, then gates it against
/// itself.
fn round_trip<R>(file: &str, records: &[R], gate: Gate)
where
    R: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
{
    let path = format!("{}/{file}", env!("CARGO_TARGET_TMPDIR"));
    write_records(&path, records).expect("write records");
    let text = std::fs::read_to_string(&path).expect("read records back");
    assert!(
        text.starts_with("[\n  {") && text.ends_with("}\n]\n"),
        "{text}"
    );
    assert_eq!(text.lines().count(), records.len() + 2, "{text}");
    let back: Vec<R> = serde_json::from_str(&text).expect("written records parse");
    assert_eq!(back, records);
    let report = gate(&text, &text).expect("gate parses written records");
    assert_clean(file, &report);
    assert_eq!(report.table.lines().count(), records.len() + 2);
}

#[test]
fn written_records_parse_back_through_their_gate() {
    let e2e = E2eRecord {
        scheme: "Flash".into(),
        nodes: 60,
        payments: 200,
        offered_pps: 50.0,
        hop_latency_ms: 25,
        service_time_ms: 10,
        success_ratio: 0.77,
        throughput_pps: 16.322_259_136_212_622,
        p50_latency_ms: 557.056,
        p95_latency_ms: 2228.224,
        p99_latency_ms: 4456.448,
        p50_queue_delay_ms: 1.5,
        p95_queue_delay_ms: 20.25,
        peak_in_flight: 12,
        peak_backlog: 40,
        max_node_utilization: 0.375,
        events: 4321,
        virtual_makespan_ms: 9434.5,
        wall_ns: 48_000_000,
        events_per_sec: 89_322.1,
    };
    round_trip("e2e.json", &[e2e], gate_e2e);

    // The churn shape check needs a strictly degrading ≥3-rate sweep.
    let churn = |closes_per_sec: f64, success_ratio: f64, closed_channels: u64| ChurnRecord {
        scheme: "Spider".into(),
        nodes: 60,
        payments: 200,
        offered_pps: 100.0,
        closes_per_sec,
        hop_latency_ms: 25,
        service_time_ms: 10,
        success_ratio,
        p95_latency_ms: 1114.112,
        closed_channels,
        stale_probe_failures: closed_channels / 2,
        reprobes_triggered: closed_channels / 3,
        wall_ns: 7,
    };
    let sweep = [
        churn(0.0, 0.89, 0),
        churn(10.0, 0.8, 17),
        churn(40.0, 0.5, 58),
    ];
    round_trip("churn.json", &sweep, gate_churn);

    let maxflow = MaxflowRecord {
        topology: "watts_strogatz_100".into(),
        nodes: 100,
        directed_edges: 400,
        kernel: "push-relabel".into(),
        pairs: 4,
        iters_per_pair: 1,
        mean_ns_per_pair: 29_263,
        total_flow: 6_305_523,
    };
    round_trip("maxflow.json", &[maxflow], gate_maxflow);

    let testbed = TestbedRecord {
        scheme: "SP".into(),
        nodes: 200,
        payments: 60,
        success_ratio: 0.883_333_333_333_333_3,
        success_volume_micros: 1_820_596_439,
        fees_micros: 12,
        probe_messages: 3,
        commit_messages: 296,
        wire_in: 938,
        wire_out: 938,
        escrow_end: 0,
        queue_high_water: 1,
        events_per_sec: 3_157.046_089_833_665_5,
        wall_ns: 304_900_901,
    };
    round_trip("testbed.json", &[testbed], gate_testbed);
}
