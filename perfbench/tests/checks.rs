//! The output checks reject every kind of broken run, and pass sound
//! ones.

use perfbench::adapter::{ClassTimes, Outcome, Pass};
use perfbench::report::{end_to_end, json_line};
use perfbench::run::{attempted_and_failed, verify, Failure, RunResult};
use perfbench::Workload;

const PAYMENTS: u64 = 10;

fn outcome(fingerprint: &str) -> Outcome {
    Outcome {
        fingerprint: fingerprint.to_string(),
        attempted: PAYMENTS,
        succeeded: 5,
        attempted_volume: 1000.0,
        success_volume: 250.0,
        fees: 4.0,
        probe_messages: 30,
        ..Outcome::default()
    }
}

/// A pass over `instance` whose 10 payments took 1 ms of `route()` each,
/// 40% of it in the backend, inside a runner of 10.2 ms and a pass of
/// 10.3 ms.
fn pass(instance: usize, traced: bool) -> Pass {
    Pass {
        instance,
        traced,
        wall_ns: 10_300_000,
        runner_ns: 10_200_000,
        route_ns: vec![1_000_000; PAYMENTS as usize],
        mice: ClassTimes {
            calls: PAYMENTS,
            route_ns: 10_000_000,
            backend_ns: 4_000_000,
        },
        outcome: outcome(&format!("instance {instance}")),
        ..Pass::default()
    }
}

/// An untraced run: instances 0 and 1, then instance 0 again.
fn untraced_run() -> RunResult {
    let mut result = RunResult {
        setup_s: vec![0.2, 0.1, 0.3],
        instances: 2,
        timed: vec![pass(0, false), pass(1, false), pass(0, false)],
        peak_rss_mb: 12.0,
        ..RunResult::default()
    };
    result.props.payments = PAYMENTS;
    result
}

/// A traced run: the bare reference, then a traced and an untraced pass,
/// all over instance 0.
fn traced_run() -> RunResult {
    let mut bare = pass(0, false);
    bare.route_ns.clear();
    let mut result = RunResult {
        instances: 2,
        bare: Some(bare),
        timed: vec![pass(0, false)],
        traced: vec![pass(0, true)],
        ..RunResult::default()
    };
    result.props.payments = PAYMENTS;
    result
}

fn messages(failures: &[Failure]) -> Vec<&str> {
    failures.iter().map(|f| f.message.as_str()).collect()
}

#[test]
fn sound_runs_pass_every_check() {
    for workload in Workload::ALL {
        for run in [untraced_run(), traced_run()] {
            let failures = verify(workload, &run);
            assert!(failures.is_empty(), "{workload:?}: {failures:?}");
        }
    }
    assert_eq!(attempted_and_failed(&untraced_run(), &[]), (30, 0));
}

#[test]
fn lost_funds_are_rejected() {
    let mut run = untraced_run();
    run.timed[1].conservation_error = Some("funds 100 -> 99".to_string());
    let failures = verify(Workload::MiceRecurrent, &run);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert_eq!(failures[0].pass, Some(1));
    assert!(failures[0].message.starts_with("conservation"));
    assert_eq!(attempted_and_failed(&run, &failures), (30, PAYMENTS));
}

#[test]
fn a_skipped_payment_is_rejected() {
    let mut run = traced_run();
    run.traced[0].outcome.attempted = PAYMENTS - 1;
    let failures = verify(Workload::MiceRecurrent, &run);
    assert!(messages(&failures)
        .iter()
        .any(|m| m.starts_with("completeness")));
}

#[test]
fn a_wrapper_that_changes_routing_is_rejected() {
    // Both wrapped passes agree with each other but not with the bare
    // reference: the wrapper, not the program, changed the outcome.
    let mut run = traced_run();
    run.bare.as_mut().unwrap().outcome = outcome("bare");
    let failures = verify(Workload::DesSpiderChurn, &run);
    let transparency: Vec<_> = failures
        .iter()
        .filter(|f| f.message.starts_with("transparency"))
        .collect();
    assert_eq!(transparency.len(), 2, "{failures:?}");
    assert!(!messages(&failures)
        .iter()
        .any(|m| m.starts_with("determinism")));
}

#[test]
fn a_nondeterministic_pass_is_rejected() {
    let mut run = untraced_run();
    run.timed[2].outcome.succeeded = 6;
    let failures = verify(Workload::TestbedLoopback, &run);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert_eq!(failures[0].pass, Some(2));
    assert!(failures[0].message.starts_with("determinism"));
}

#[test]
fn a_run_that_never_repeats_an_instance_cannot_show_determinism() {
    let mut run = untraced_run();
    run.timed.truncate(2);
    let failures = verify(Workload::MiceRecurrent, &run);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert_eq!(failures[0].pass, None);
    assert_eq!(attempted_and_failed(&run, &failures), (20, 20));
}

#[test]
fn unattributed_wall_time_beyond_five_percent_is_rejected() {
    let mut run = traced_run();
    run.traced[0].wall_ns = 12_000_000;
    let failures = verify(Workload::MiceRecurrent, &run);
    assert!(
        messages(&failures)
            .iter()
            .any(|m| m.contains("unattributed")),
        "{failures:?}"
    );
}

#[test]
fn a_runner_shorter_than_its_routes_is_rejected() {
    // The DES engine cannot spend less time than the routes it drives.
    let mut run = traced_run();
    run.traced[0].runner_ns = 9_000_000;
    let failures = verify(Workload::DesSpiderChurn, &run);
    assert!(
        messages(&failures)
            .iter()
            .any(|m| m.contains("runner time is negative")),
        "{failures:?}"
    );
}

#[test]
fn the_result_line_carries_every_end_to_end_metric() {
    let run = untraced_run();
    let metrics = end_to_end(&run);
    let line = json_line(true, 30, 0, &metrics);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 30, \"failed\": 0, \"metrics\": {")
    );
    for m in &metrics {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
        assert!(m.value > 0.0, "{} must not read zero", m.name);
    }
    let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
    assert_eq!(value("route_ms_p95"), 1.0);
    assert_eq!(value("setup_s"), 0.2);
    assert_eq!(value("success_ratio"), 0.5);
    assert_eq!(value("probes_per_payment"), 3.0);
}
