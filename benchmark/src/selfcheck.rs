//! `selfcheck`: two full sets of untraced runs of the same code, compared
//! the way the driver compares a parent with a change. A benchmark that
//! cannot tell a commit from itself cannot tell it from another one.

use crate::metrics::{Report, END_TO_END};
use crate::stats::{median, Better};
use crate::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;

/// Runs of every workload in a set, as many as the driver makes.
const RUNS: usize = 10;

/// Runs one workload in a child process (peak memory is per process) and
/// parses the last line of its output.
///
/// # Errors
///
/// The child could not be started, failed, or printed no result.
pub fn run_child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    extra: &[&str],
) -> Result<(Report, String), String> {
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {}\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let report = stdout
        .lines()
        .last()
        .and_then(Report::parse)
        .ok_or_else(|| format!("{workload} seed {seed}: no result line in\n{stdout}"))?;
    Ok((report, stdout))
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the driver's spread is their distance over the median).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4, data.len() + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, data.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Runs the two sets and prints the table; `Ok(true)` when every metric of
/// every workload repeats within its bound.
///
/// # Errors
///
/// A run that failed or was incorrect.
pub fn run(exe: &Path, seconds: f64) -> Result<bool, String> {
    // sets[set][workload][metric] = one value per run.
    let empty = vec![vec![Vec::with_capacity(RUNS); END_TO_END.len()]; WORKLOADS.len()];
    let mut sets = [empty.clone(), empty];
    for (set, table) in sets.iter_mut().enumerate() {
        for run in 0..RUNS {
            for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
                let seed = (set * RUNS + run + 1) as u64;
                let (report, _) = run_child(exe, workload, seed, seconds, false, &[])?;
                if !report.correct {
                    return Err(format!("{workload} seed {seed}: incorrect results"));
                }
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let value = report
                        .value(metric.name)
                        .ok_or_else(|| format!("{workload}: no `{}`", metric.name))?;
                    table[w][m].push(value);
                }
                // Every run made is reported, so an outlier can be looked up.
                eprintln!(
                    "set {} run {}/{RUNS}: {workload} {}",
                    set + 1,
                    run + 1,
                    report.to_json_line()
                );
            }
        }
    }

    println!(
        "| workload | metric | median A | median B | B vs A | bound | spread A | spread B | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][w][m], &sets[1][w][m]);
            let (ma, mb) = (median(a), median(b));
            // Positive when the second set reads worse than the first.
            let worse = match metric.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let (sa, sb) = (spread(a), spread(b));
            // `setup_s` is not gated on its spread, only on its medians.
            let spread_ok = metric.name == "setup_s" || sa.max(sb) <= metric.bound;
            let ok = worse.abs() <= metric.bound && spread_ok;
            all_within &= ok;
            println!(
                "| {workload} | {} | {ma:.5} | {mb:.5} | {:+.2}% | {:.1}% | {:.2}% | {:.2}% | {} |",
                metric.name,
                worse * 100.0,
                metric.bound * 100.0,
                sa * 100.0,
                sb * 100.0,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
