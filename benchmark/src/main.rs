//! Command line of the benchmark; see `README.md` for the ways to run it.

use podsbench::harness::{self, Options};
use podsbench::metrics::{self, RUN_SECONDS};
use podsbench::selfcheck;
use podsbench::workloads::{self, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  podsbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--allow-short]
  podsbench selfcheck [--seconds S]
  podsbench manifest
workloads: simple_solo gather_wake tiny_burst cold_mix";

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    allow_short: bool,
    out_dir: PathBuf,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        allow_short: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args.peekable();
    if args.peek().is_some_and(|a| !a.starts_with("--")) {
        parsed.command = args.next();
    }
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                parsed.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be above 0 and at most 3600".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => parsed.out_dir = PathBuf::from(value()?),
            "--allow-short" => parsed.allow_short = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

fn real_main(started: Instant) -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    // No PODS_* variable may reconfigure a runtime behind the benchmark's
    // back; removed before any runtime (and so any other thread) exists.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("PODS_") {
            std::env::remove_var(&name);
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    match (args.command.as_deref(), args.workload.as_deref()) {
        (Some("manifest"), _) => {
            print!("{}", metrics::manifest(&WORKLOADS));
            Ok(true)
        }
        (Some("selfcheck"), _) => selfcheck::run(&exe, args.seconds),
        (Some(other), _) => Err(format!("unknown command `{other}`")),
        (None, Some("all")) => {
            let out = args.out_dir.to_string_lossy().into_owned();
            let mut extra = vec!["--out", out.as_str()];
            if args.allow_short {
                extra.push("--allow-short");
            }
            let mut correct = true;
            for (workload, _) in WORKLOADS {
                let (report, stdout) = selfcheck::run_child(
                    &exe,
                    workload,
                    args.seed,
                    args.seconds,
                    args.trace,
                    &extra,
                )?;
                print!("{stdout}");
                correct &= report.correct;
            }
            Ok(correct)
        }
        (None, Some(name)) => {
            let workload = workloads::build(name, args.seed)
                .ok_or_else(|| format!("unknown workload `{name}`"))?;
            let options = Options {
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                allow_short: args.allow_short,
                out_dir: args.out_dir,
            };
            let report = harness::run(&workload, &options, started)?;
            println!("{}", report.to_json_line());
            Ok(report.correct)
        }
        (None, None) => Err("no --workload given".into()),
    }
}

fn main() -> ExitCode {
    match real_main(Instant::now()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("podsbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
