//! The metric tables (names, units, directions, bounds), the result line the
//! driver reads, and `BENCHMARK.json` generated from the same tables.

use crate::stats::Better::{self, Higher, Lower};

/// The run length `BENCHMARK.json` asks the driver for, and the default of
/// `--seconds`.
pub const RUN_SECONDS: u64 = 30;

/// One end-to-end metric: printed by an untraced run and gated by `bound`.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit printed with every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, in the order they are printed.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    // The issue's `speedup_seq`, `lat_p50_rel` and `lat_p90_rel` (bound 0.10)
    // are not here: sets of ten runs of unchanged code on the host this was
    // written on spread by 3 to 14 % on them, so they cannot hold that bound
    // and are the per-layer `client.*` metrics of those names (README).
    e2e("async_rel", "ratio", Higher, 0.08),
    e2e("allocs_per_job", "count", Lower, 0.02),
    e2e("alloc_kib_per_job", "KiB", Lower, 0.03),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    // Simulated, not measured, time: it repeats exactly, so its unit is kept
    // apart from the wall-clock units.
    e2e("sim_us_8pe", "sim_us", Lower, 0.001),
    e2e("sim_speedup_8pe", "ratio", Higher, 0.001),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// One per-layer metric: printed by a traced run, gates nothing.
#[derive(Debug)]
pub struct Layer {
    /// Metric name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit printed with every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metrics and workloads a change to this number should
    /// move (written down before any optimisation is measured).
    pub moves: &'static str,
}

// `client.*` below stands for `client.speedup_seq`, `client.lat_p50_rel` and
// `client.lat_p90_rel`: the wall-clock ratios to the sequential oracle, which
// are reported but gate nothing.
const FRONT: &str =
    "setup_s, allocs_per_job, alloc_kib_per_job and client.* on cold_mix; flat on the warm workloads";
const EXEC: &str = "sim_us_8pe and client.* on simple_solo; flat on tiny_burst";
const SCHED: &str =
    "async_rel and client.* on gather_wake (most) and simple_solo; flat on cold_mix";
const ISTR: &str = "client.* on gather_wake (defer/wake) and simple_solo (hits)";
const MEM: &str = "peak_rss_mb and alloc_kib_per_job on every workload";
const SVC: &str = "client.* on tiny_burst; flat on simple_solo";
const SETUP: &str = "setup_s on every workload";
const SIM: &str = "sim_us_8pe, sim_speedup_8pe on every workload";
const SIM_HOST: &str =
    "none: a faster simulator must leave sim_us_8pe and sim_speedup_8pe unchanged";
const BASE: &str = "the denominator of client.*: if it moves, they move for that reason";
const TRACE: &str = "none while tracing is off; sizes the cost of turning it on";
const CONTEXT: &str = "none: context for a human reading the run";
const UNGATED: &str =
    "none: the wall-clock figure the paper's claim is about, too unsteady on a shared host to gate";

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer metrics, in the order they are printed.
pub const PER_LAYER: &[Layer] = &[
    layer("idlang.compile_us", "us", Lower, FRONT),
    layer("dataflow.build_us", "us", Lower, FRONT),
    layer("dataflow.analyze_us", "us", Lower, FRONT),
    layer("sp.translate_us", "us", Lower, FRONT),
    layer("partition.partition_us", "us", Lower, FRONT),
    layer("sp.chunk_us", "us", Lower, FRONT),
    layer("sp.specialize_us", "us", Lower, FRONT),
    layer("pipeline.compile_us", "us", Lower, FRONT),
    layer("runtime.prepare_miss_us", "us", Lower, FRONT),
    layer("runtime.prepare_hit_us", "us", Lower, FRONT),
    layer("sp.templates", "count", Lower, FRONT),
    layer("sp.instrs", "count", Lower, FRONT),
    layer("sp.super_ops_planned", "count", Higher, FRONT),
    layer("partition.distributed_loops", "count", Higher, FRONT),
    layer("partition.chunked_spawns", "count", Higher, FRONT),
    layer("exec.super_ops_per_job", "count", Lower, EXEC),
    layer("exec.chunk_iterations_per_job", "count", Higher, EXEC),
    layer("exec.ns_per_super_op", "ns", Lower, EXEC),
    layer("native.instances_per_job", "count", Lower, EXEC),
    layer("native.us_per_instance", "us", Lower, EXEC),
    layer("native.tasks_per_job", "count", Lower, SCHED),
    layer("native.parks_per_job", "count", Lower, SCHED),
    layer("native.steals_per_job", "count", Lower, SCHED),
    layer("native.wakeups_per_job", "count", Lower, SCHED),
    layer("native.wakeup_flushes_per_job", "count", Lower, SCHED),
    layer("native.arena_reuse_share", "ratio", Higher, SCHED),
    layer("native.w1_job_us", "us", Lower, SCHED),
    layer("native.speedup_w", "ratio", Higher, SCHED),
    layer("async.polls_per_job", "count", Lower, SCHED),
    layer("async.suspensions_per_job", "count", Lower, SCHED),
    layer("async.steals_per_job", "count", Lower, SCHED),
    layer("async.job_us", "us", Lower, SCHED),
    layer("istructure.write_ns", "ns", Lower, ISTR),
    layer("istructure.read_hit_ns", "ns", Lower, ISTR),
    layer("istructure.defer_wake_ns", "ns", Lower, ISTR),
    layer("istructure.allocate_ns", "ns", Lower, ISTR),
    layer("istructure.peak_bytes", "B", Lower, MEM),
    layer("istructure.arrays_per_job", "count", Lower, MEM),
    layer("service.submit_us", "us", Lower, SVC),
    layer("service.wait_us", "us", Lower, SVC),
    layer("service.empty_job_us", "us", Lower, SVC),
    layer("service.burst_drain_us", "us", Lower, SVC),
    layer("service.queue_depth_peak", "count", Lower, SVC),
    layer("runtime.build_us", "us", Lower, SETUP),
    layer("runtime.drop_us", "us", Lower, SETUP),
    layer("machine.sim_host_us", "us", Lower, SIM_HOST),
    layer("machine.events", "count", Lower, SIM),
    layer("machine.eu_utilization_8pe", "ratio", Higher, SIM),
    layer("baseline.seq_job_us", "us", Lower, BASE),
    layer("trace.overhead_ratio", "ratio", Lower, TRACE),
    layer("trace.events_per_job", "count", Lower, TRACE),
    layer("trace.dropped", "count", Lower, TRACE),
    layer("trace.queue_us", "us", Lower, TRACE),
    layer("trace.dispatch_us", "us", Lower, TRACE),
    layer("trace.run_us", "us", Lower, TRACE),
    layer("trace.blocked_us", "us", Lower, TRACE),
    layer("client.jobs_per_s", "1/s", Higher, CONTEXT),
    layer("client.job_p50_us", "us", Lower, CONTEXT),
    layer("client.job_p90_us", "us", Lower, CONTEXT),
    layer("client.speedup_seq", "ratio", Higher, UNGATED),
    layer("client.lat_p50_rel", "ratio", Lower, UNGATED),
    layer("client.lat_p90_rel", "ratio", Lower, UNGATED),
    layer("client.samples", "count", Higher, CONTEXT),
    layer("client.blocks", "count", Higher, CONTEXT),
    layer("client.workers", "count", Higher, CONTEXT),
    layer("client.nproc", "count", Higher, CONTEXT),
    layer("host.par_capacity", "ratio", Higher, CONTEXT),
    layer("host.noise", "ratio", Lower, CONTEXT),
];

/// Measured values in printing order; `set` fails on a name no table holds,
/// so a typo cannot silently drop a metric.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric `{name}`");
        assert!(self.get(name).is_none(), "metric `{name}` set twice");
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    let e = END_TO_END.iter().map(|m| (m.name, m.unit));
    let l = PER_LAYER.iter().map(|m| (m.name, m.unit));
    e.chain(l).find(|(n, _)| *n == name).map(|(_, u)| u)
}

/// The outcome of one run, as printed on the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every checked result matched the oracle and nothing failed.
    pub correct: bool,
    /// Jobs whose results were checked.
    pub attempted: u64,
    /// Jobs that returned an error or a result unlike the oracle's.
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// A report holding exactly the metrics of the table selected by
    /// `traced`, in table order.
    ///
    /// # Errors
    ///
    /// Names a metric of the table that `values` lacks or that is not a
    /// finite number.
    pub fn new(
        traced: bool,
        attempted: u64,
        failed: u64,
        values: &Values,
    ) -> Result<Report, String> {
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = values
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not a finite number: {value}"));
            }
            metrics.push((name.to_string(), value, unit.to_string()));
        }
        Ok(Report {
            correct: failed == 0 && attempted > 0,
            attempted,
            failed,
            metrics,
        })
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The one-line JSON object the driver reads.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a line written by [`Report::to_json_line`] (`selfcheck` and the
    /// smoke tests read the benchmark's own output with it; it is not a
    /// general JSON parser).
    pub fn parse(line: &str) -> Option<Report> {
        let mut rest = line.trim().strip_prefix("{\"correct\": ")?;
        let correct = if let Some(r) = rest.strip_prefix("true") {
            rest = r;
            true
        } else {
            rest = rest.strip_prefix("false")?;
            false
        };
        rest = rest.strip_prefix(", \"attempted\": ")?;
        let (attempted, r) = take_number(rest)?;
        rest = r.strip_prefix(", \"failed\": ")?;
        let (failed, r) = take_number(rest)?;
        rest = r.strip_prefix(", \"metrics\": {")?;
        let mut metrics = Vec::new();
        while !rest.starts_with('}') {
            rest = rest.strip_prefix(", ").unwrap_or(rest);
            rest = rest.strip_prefix('"')?;
            let (name, r) = rest.split_once("\": {\"value\": ")?;
            let (value, r) = take_number(r)?;
            let r = r.strip_prefix(", \"unit\": \"")?;
            let (unit, r) = r.split_once("\"}")?;
            metrics.push((name.to_string(), value, unit.to_string()));
            rest = r;
        }
        (rest == "}}").then_some(Report {
            correct,
            attempted: attempted as u64,
            failed: failed as u64,
            metrics,
        })
    }
}

fn take_number(s: &str) -> Option<(f64, &str)> {
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(s.len());
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// The text of `BENCHMARK.json`, generated from the tables above and the
/// workloads' `(name, why)` pairs so the file cannot drift from the program.
pub fn manifest(workloads: &[(&str, &str)]) -> String {
    let workloads: Vec<String> = workloads
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_round_trips() {
        let mut values = Values::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            values.set(m.name, 1.5 + i as f64 / 7.0);
        }
        let report = Report::new(false, 1234, 0, &values).unwrap();
        assert!(report.correct);
        let line = report.to_json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1234, \"failed\": 0, "));
        assert_eq!(Report::parse(&line).unwrap(), report);
        assert_eq!(report.value("async_rel"), Some(1.5 + 1.0 / 7.0));

        let failed = Report::new(false, 10, 1, &values).unwrap();
        assert!(!failed.correct);
        assert_eq!(Report::parse(&failed.to_json_line()).unwrap(), failed);
        assert!(Report::parse("{\"correct\": maybe}").is_none());
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let mut values = Values::default();
        values.set("setup_s", 0.3);
        assert!(Report::new(false, 1, 0, &values)
            .unwrap_err()
            .contains("async_rel"));
        let mut values = Values::default();
        for m in END_TO_END {
            values.set(m.name, f64::NAN);
        }
        assert!(Report::new(false, 1, 0, &values).is_err());
    }
}
