//! The record bins' shared command line: `[--smoke] [--out FILE]`.

use flash_bench::{parse_args, BenchArgs};
use std::process::Command;

fn parse(args: &[&str]) -> Result<BenchArgs, String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    parse_args(&args)
}

#[test]
fn no_arguments_is_full_scale_to_the_default_file() {
    assert_eq!(parse(&[]), Ok(BenchArgs::default()));
}

#[test]
fn smoke_and_out_are_parsed_in_any_order() {
    let want = BenchArgs {
        smoke: true,
        out: Some("x.json".into()),
        help: false,
    };
    assert_eq!(parse(&["--smoke", "--out", "x.json"]), Ok(want.clone()));
    assert_eq!(parse(&["--out", "x.json", "--smoke"]), Ok(want));
}

#[test]
fn help_stops_parsing() {
    let parsed = parse(&["-h", "--bogus"]).expect("help wins over later arguments");
    assert!(parsed.help);
    assert!(parse(&["--help"]).expect("help parses").help);
}

#[test]
fn out_without_a_file_is_an_error() {
    let err = parse(&["--smoke", "--out"]).expect_err("bare --out must not parse");
    assert!(err.contains("--out needs a file"), "{err}");
}

#[test]
fn unknown_argument_is_an_error() {
    let err = parse(&["--fast"]).expect_err("unknown flag must not parse");
    assert!(err.contains("unknown argument: --fast"), "{err}");
}

#[test]
fn bins_exit_2_with_usage_on_a_bare_out() {
    // Each bin parses its arguments before doing any work, so this runs
    // no bench.
    for (bin, exe) in [
        ("e2e_bench", env!("CARGO_BIN_EXE_e2e_bench")),
        ("churn_bench", env!("CARGO_BIN_EXE_churn_bench")),
        ("maxflow_bench", env!("CARGO_BIN_EXE_maxflow_bench")),
        ("testbed_bench", env!("CARGO_BIN_EXE_testbed_bench")),
    ] {
        let out = Command::new(exe).arg("--out").output().expect("bin runs");
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--out needs a file"), "{bin}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {bin} [--smoke] [--out FILE]")),
            "{bin}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} did work before parsing");
    }
}
