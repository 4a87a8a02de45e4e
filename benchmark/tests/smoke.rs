//! Runs the built benchmark for a second on every workload, untraced and
//! traced, and checks the contract of its output: every metric of the
//! matching table printed exactly once, in order, with its unit; results
//! correct; the span file written. The block floor is waived with
//! `--allow-short`; nothing here looks at how fast anything was.

use podsbench::metrics::{self, Report, END_TO_END, PER_LAYER};
use podsbench::workloads::WORKLOADS;
use std::path::PathBuf;
use std::process::{Command, Output};

fn podsbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_podsbench"))
        .args(args)
        // Must be scrubbed by the benchmark, not obeyed.
        .env("PODS_SPECIALIZE", "0")
        .env("PODS_TRACE", "1")
        .output()
        .expect("the benchmark binary starts")
}

fn out_dir(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"))
}

fn run(workload: &str, trace: &str) -> (Report, String) {
    let out = out_dir(workload);
    let output = podsbench(&[
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--allow-short",
        "--out",
        out.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} trace {trace}: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let report = Report::parse(stdout.lines().last().unwrap())
        .unwrap_or_else(|| panic!("{workload}: the last line is not a result:\n{stdout}"));
    (report, stdout)
}

fn names_and_units(report: &Report) -> Vec<(&str, &str)> {
    report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), u.as_str()))
        .collect()
}

fn check_workload(workload: &str) {
    let (report, stdout) = run(workload, "0");
    assert!(
        report.correct && report.failed == 0 && report.attempted > 0,
        "{stdout}"
    );
    let table: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(
        names_and_units(&report),
        table,
        "{workload}: end-to-end names and units"
    );
    for (name, value, _) in &report.metrics {
        assert!(
            *value > 0.0,
            "{workload}: `{name}` must never be 0, is {value}"
        );
    }
    // The environment was scrubbed: the builder defaults are what ran.
    assert!(
        stdout.contains("lane nativeW: ") && stdout.contains("engine=native workers="),
        "{stdout}"
    );
    assert!(!stdout.contains("specialize=false"), "{stdout}");
    assert!(!stdout.contains("tracing=true"), "{stdout}");

    let (report, stdout) = run(workload, "1");
    assert!(report.correct && report.failed == 0, "{stdout}");
    let table: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(
        names_and_units(&report),
        table,
        "{workload}: per-layer names and units"
    );
    assert!(
        stdout.contains("lane traced: ") && stdout.contains("tracing=true"),
        "{stdout}"
    );
    for name in [
        "trace.events_per_job",
        "native.instances_per_job",
        "client.samples",
    ] {
        assert!(report.value(name).unwrap() > 0.0, "{workload}: {name}");
    }

    let spans = out_dir(workload).join(format!("spans-{workload}-5.json"));
    let spans = std::fs::read_to_string(&spans).unwrap_or_else(|e| panic!("{spans:?}: {e}"));
    for name in [
        "service.submit",
        "service.wait",
        "idlang.compile",
        "sp.specialize",
        "runtime.prepare_miss",
    ] {
        assert!(
            spans.contains(&format!("\"name\": \"{name}\"")),
            "{workload}: no {name} span"
        );
    }
    // The layer probes compile each source five times; only cold jobs also
    // compile inside the traced pieces.
    let sources = if workload == "cold_mix" { 8 } else { 1 };
    assert_eq!(
        spans.contains(&format!(
            "\"name\": \"pipeline.compile\", \"count\": {},",
            5 * sources
        )),
        workload != "cold_mix",
        "{workload}: only cold jobs compile inside a piece"
    );
}

#[test]
fn simple_solo_prints_every_metric() {
    check_workload("simple_solo");
}

#[test]
fn gather_wake_prints_every_metric() {
    check_workload("gather_wake");
}

#[test]
fn tiny_burst_prints_every_metric() {
    check_workload("tiny_burst");
}

#[test]
fn cold_mix_prints_every_metric() {
    check_workload("cold_mix");
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nonesuch"][..],
        &["--workload", "tiny_burst", "--trace", "2"],
        &["--workload", "tiny_burst", "--seconds", "0"],
        &["frobnicate"],
        &[],
    ] {
        let output = podsbench(args);
        assert!(!output.status.success(), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&output.stdout).contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
    // Too few blocks is a failed run unless the floor is waived.
    let output = podsbench(&["--workload", "tiny_burst", "--seconds", "0.1"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("a run needs 60"));
}

#[test]
fn benchmark_json_is_generated_from_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        metrics::manifest(&WORKLOADS),
        "regenerate with `podsbench manifest > BENCHMARK.json`"
    );
    let output = podsbench(&["manifest"]);
    assert_eq!(String::from_utf8(output.stdout).unwrap(), committed);
}
