//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see the library docs), prints every metric by
//! name and unit, then the JSON result line. Exits 1 when an output
//! check fails and 2 on a usage error.

use perfbench::report::{end_to_end, json_line, per_layer};
use perfbench::run::{attempted_and_failed, run, verify, RunConfig};
use perfbench::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <mice_recurrent|elephant_lightning|\
des_spider_churn|testbed_loopback> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(config);
    let failures = verify(config.workload, &result);
    let metrics = if config.trace {
        per_layer(config.workload, &result)
    } else {
        end_to_end(&result)
    };
    for (i, p) in result.passes().enumerate() {
        let mode = match (i, p.traced) {
            (0, _) if result.bare.is_some() => "bare",
            (_, true) => "traced",
            _ => "timed",
        };
        eprintln!(
            "pass {i:>2} {mode:<6} instance {:>2}: wall {:>9.1} ms, {}/{} delivered",
            p.instance,
            p.wall_ns as f64 / 1e6,
            p.outcome.succeeded,
            p.outcome.attempted
        );
    }
    for m in &metrics {
        println!("{:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &failures {
        eprintln!("check failed: {}", f.message);
    }
    let (attempted, failed) = attempted_and_failed(&result, &failures);
    println!(
        "{}",
        json_line(failures.is_empty(), attempted, failed, &metrics)
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
