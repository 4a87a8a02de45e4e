//! The per-layer metrics of a traced run. Every number comes from outside a
//! layer: a timed call into one of its public functions, or a stats struct
//! the runtime returns today. Spans inside the program are a later change.

use crate::harness::{nproc, quiet, Bench, Measured, SimPass, NATIVE_W};
use crate::metrics::Values;
use crate::spans::SpanLog;
use crate::stats::{median, quiet_level, speedup, Better};
use crate::workloads::Workload;
use pods::{ArrayId, ArrayShape, JobHandle, Runtime, SharedArrayStore, Value};
use pods_istructure::Partitioning;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each front-end stage per source; the median is kept.
const STAGE_REPS: usize = 5;
/// Cells of the array the I-structure operations are timed on (32 x 32, one
/// SIMPLE n=32 matrix), and repetitions of each timing.
const CELLS: usize = 1024;
const CELL_REPS: usize = 9;
/// Repetitions of the empty job and of the burst, and the burst's size.
const EMPTY_REPS: usize = 200;
const BURST_REPS: usize = 15;
const BURST_JOBS: usize = 64;
/// Iterations of the spin kernel behind `host.par_capacity`.
const SPIN_ITERS: u64 = 20_000_000;

/// Times `f` under a span called `name`; returns its result and µs.
fn timed<T>(log: &mut SpanLog, name: &'static str, job: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let span = log.enter(name, job);
    let start = Instant::now();
    let result = f();
    let us = start.elapsed().as_secs_f64() * 1e6;
    log.exit(span);
    (result, us)
}

/// Times of the front-end stages: per metric, per source, one per repetition.
#[derive(Default)]
struct Stages(Vec<(&'static str, Vec<Vec<f64>>)>);

impl Stages {
    /// Times `f` as one repetition of stage `metric` on source `source`,
    /// under a span named like the metric without its `_us`.
    fn time<T>(
        &mut self,
        log: &mut SpanLog,
        metric: &'static str,
        source: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = metric.strip_suffix("_us").unwrap_or(metric);
        let (result, us) = timed(log, span, source as u64, f);
        let stage = match self.0.iter().position(|(m, _)| *m == metric) {
            Some(stage) => stage,
            None => {
                self.0.push((metric, Vec::new()));
                self.0.len() - 1
            }
        };
        let per_source = &mut self.0[stage].1;
        if per_source.len() <= source {
            per_source.resize(source + 1, Vec::new());
        }
        per_source[source].push(us);
        result
    }
}

/// Pushes every source through the front end one stage at a time, so that
/// each stage has a span of its own under one `frontend` parent, then
/// through `pods::compile` and `Runtime::prepare` (miss, then hit) whole.
/// Each metric is the mean over sources of the median of a stage's times.
fn front_end(
    workload: &Workload,
    runtime: &Runtime,
    log: &mut SpanLog,
    values: &mut Values,
) -> Result<(), String> {
    let mut stages = Stages::default();
    let config = runtime.options().partition;
    let (mut templates, mut instrs, mut super_ops, mut distributed, mut chunked) = (0, 0, 0, 0, 0);
    for (i, source) in workload.sources.iter().enumerate() {
        let fail = |e: &dyn std::fmt::Display| format!("{}: source {i}: {e}", workload.name);
        for rep in 0..STAGE_REPS {
            let parent = log.enter("frontend", i as u64);
            let hir = stages
                .time(log, "idlang.compile_us", i, || pods_idlang::compile(source))
                .map_err(|e| fail(&e))?;
            black_box(stages.time(log, "dataflow.build_us", i, || {
                pods_dataflow::build_program(&hir)
            }));
            let loops = stages.time(log, "dataflow.analyze_us", i, || {
                pods_dataflow::analyze_loops(&hir)
            });
            let mut sp = stages
                .time(log, "sp.translate_us", i, || pods_sp::translate(&hir))
                .map_err(|e| fail(&e))?;
            if rep == 0 {
                templates += sp.len();
                instrs += sp.total_instructions();
            }
            // The chunk transform is the last step of the partitioner; it is
            // also timed alone, on a copy the partitioner has not chunked.
            let mut unchunked = sp.clone();
            stages.time(log, "partition.partition_us", i, || {
                pods_partition::partition_with_chunk_boost(&mut sp, &loops, &config, 1)
            });
            let mut no_chunk = config;
            no_chunk.chunk = pods::ChunkPolicy::Fixed(1);
            pods_partition::partition(&mut unchunked, &loops, &no_chunk);
            stages.time(log, "sp.chunk_us", i, || {
                pods_sp::chunk_loop_spawns(&mut unchunked, config.chunk, 1)
            });
            stages.time(log, "sp.specialize_us", i, || {
                pods_sp::specialize_program(&mut sp)
            });
            black_box(sp);
            log.exit(parent);

            let compiled = stages
                .time(log, "pipeline.compile_us", i, || pods::compile(source))
                .map_err(|e| fail(&e))?;
            let pinned = stages.time(log, "runtime.prepare_miss_us", i, || {
                runtime.prepare(&compiled)
            });
            let again = stages.time(log, "runtime.prepare_hit_us", i, || {
                runtime.prepare(&compiled)
            });
            if !again.same_preparation(&pinned) {
                return Err(fail(&"a second prepare missed the cache"));
            }
            if rep == 0 {
                let report = pinned.partition_report();
                super_ops += report.super_ops;
                distributed += report.distributed_loops().count();
                chunked += report.chunked_spawns;
            }
        }
    }
    for (metric, per_source) in &stages.0 {
        let medians: f64 = per_source.iter().map(|reps| median(reps)).sum();
        values.set(metric, medians / per_source.len() as f64);
    }
    values.set("sp.templates", templates as f64);
    values.set("sp.instrs", instrs as f64);
    values.set("sp.super_ops_planned", super_ops as f64);
    values.set("partition.distributed_loops", distributed as f64);
    values.set("partition.chunked_spawns", chunked as f64);
    Ok(())
}

/// Direct calls on `SharedArrayStore` / `SharedArray`: ns per operation.
fn istructure(log: &mut SpanLog, values: &mut Values) -> Result<(), String> {
    let (mut allocate, mut write, mut hit, mut defer_wake) = (vec![], vec![], vec![], vec![]);
    let store: SharedArrayStore<u32> = SharedArrayStore::new();
    let err = |e: pods_istructure::IStructureError| format!("istructure probe: {e}");
    let per_cell = |us: f64| us * 1e3 / CELLS as f64;
    for rep in 0..CELL_REPS {
        let mut arrays = Vec::new();
        for k in 0..2 {
            let id = ArrayId(rep * 2 + k);
            let (made, us) = timed(log, "istructure.allocate", id.0 as u64, || {
                store.allocate(
                    id,
                    "probe",
                    ArrayShape::matrix(32, 32),
                    Partitioning::new(CELLS, 32, 1),
                )
            });
            made.map_err(err)?;
            allocate.push(us * 1e3);
            arrays.push(store.require(id).map_err(err)?);
        }
        let (written, read_first) = (&arrays[0], &arrays[1]);
        let (result, us) = timed(log, "istructure.write", 0, || {
            (0..CELLS).try_for_each(|i| written.write(i, Value::Int(i as i64)).map(drop))
        });
        result.map_err(err)?;
        write.push(per_cell(us));
        let (result, us) = timed(log, "istructure.read_hit", 0, || {
            (0..CELLS).try_for_each(|i| {
                written.read(i, 0).map(|r| {
                    black_box(r);
                })
            })
        });
        result.map_err(err)?;
        hit.push(per_cell(us));
        let (result, us) = timed(log, "istructure.defer_wake", 0, || {
            (0..CELLS).try_for_each(|i| read_first.read(i, i as u32).map(drop))?;
            (0..CELLS).try_for_each(|i| {
                read_first
                    .write(i, Value::Int(1))
                    .map(|woken| drop(black_box(woken)))
            })
        });
        result.map_err(err)?;
        defer_wake.push(per_cell(us));
    }
    values.set("istructure.write_ns", median(&write));
    values.set("istructure.read_hit_ns", median(&hit));
    values.set("istructure.defer_wake_ns", median(&defer_wake));
    values.set("istructure.allocate_ns", median(&allocate));
    Ok(())
}

/// The service with nothing behind it: a job that returns its argument,
/// alone and in a burst, on the `nativeW` runtime.
fn service(runtime: &Runtime, log: &mut SpanLog, values: &mut Values) -> Result<(), String> {
    let err = |e: pods::PodsError| format!("service probe: {e}");
    let empty = pods::compile("def main(n) { return n; }").map_err(err)?;
    let pinned = runtime.prepare(&empty);
    let args = [Value::Int(1)];
    let mut solo = Vec::with_capacity(EMPTY_REPS);
    for _ in 0..EMPTY_REPS {
        let (outcome, us) = timed(log, "service.empty_job", 0, || runtime.run(&pinned, &args));
        outcome.map_err(err)?;
        solo.push(us);
    }
    let mut burst = Vec::with_capacity(BURST_REPS);
    let mut handles = Vec::with_capacity(BURST_JOBS);
    for _ in 0..BURST_REPS {
        let (result, us) = timed(log, "service.burst_drain", 0, || {
            for _ in 0..BURST_JOBS {
                handles.push(runtime.submit(&pinned, &args));
            }
            handles
                .drain(..)
                .try_for_each(|h| h.and_then(JobHandle::wait).map(drop))
        });
        result.map_err(err)?;
        burst.push(us);
    }
    values.set("service.empty_job_us", median(&solo));
    values.set("service.burst_drain_us", median(&burst));
    Ok(())
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    x
}

/// Rate of a fixed spin kernel on two threads at once over its rate on one:
/// how much parallel capacity the host is giving this process right now.
fn par_capacity() -> f64 {
    let time = |threads: usize| {
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| black_box(spin(SPIN_ITERS)));
            }
        });
        start.elapsed().as_secs_f64()
    };
    let (one, two) = (0..3).fold((f64::MAX, f64::MAX), |(one, two), _| {
        (one.min(time(1)), two.min(time(2)))
    });
    2.0 * one / two
}

/// Fills `values` with every per-layer metric.
///
/// # Errors
///
/// A probe whose call into the layer failed.
pub fn measure(
    bench: &Bench,
    workload: &Workload,
    measured: &Measured,
    sim: &SimPass,
    (build_us, drop_us): (f64, f64),
    log: &mut SpanLog,
    values: &mut Values,
) -> Result<(), String> {
    let runtime = &bench
        .lanes
        .iter()
        .find(|lane| lane.id == NATIVE_W)
        .ok_or("no nativeW lane")?
        .runtime;
    // Read before the probes below add their own jobs to the service.
    let queue_depth_peak = runtime.metrics().queue_depth_peak;
    let submit_us = log.median_us("service.submit");
    let wait_us = log.median_us("service.wait");

    log.set_enabled(true);
    log.lift_cap();
    front_end(workload, runtime, log, values)?;

    let [seq, native1, native, coop, traced] = &measured.lanes;
    let (seq_us, w1_us, native_us) = (seq.quiet_us(), native1.quiet_us(), native.quiet_us());
    let n = &native.counters;
    let per_job = |total| n.per_job(total);
    let super_ops = per_job(n.super_ops);
    values.set("exec.super_ops_per_job", super_ops);
    values.set("exec.chunk_iterations_per_job", per_job(n.chunk_iterations));
    // All of a one-worker job's time over its super-op firings: an upper
    // bound on the cost of one firing, 0 for a program without super-ops.
    values.set(
        "exec.ns_per_super_op",
        if super_ops > 0.0 {
            w1_us * 1e3 / super_ops
        } else {
            0.0
        },
    );
    values.set("native.instances_per_job", per_job(n.instances));
    values.set("native.us_per_instance", w1_us / per_job(n.instances));
    values.set("native.tasks_per_job", per_job(n.tasks));
    values.set("native.parks_per_job", per_job(n.parks));
    values.set("native.steals_per_job", per_job(n.steals));
    values.set("native.wakeups_per_job", per_job(n.wakeups));
    values.set("native.wakeup_flushes_per_job", per_job(n.wakeup_flushes));
    values.set(
        "native.arena_reuse_share",
        n.arena_reuses as f64 / n.instances as f64,
    );
    values.set("native.w1_job_us", w1_us);
    values.set("native.speedup_w", speedup(w1_us, native_us));
    let a = &coop.counters;
    values.set("async.polls_per_job", a.per_job(a.polls));
    values.set("async.suspensions_per_job", a.per_job(a.suspensions));
    values.set("async.steals_per_job", a.per_job(a.steals));
    values.set("async.job_us", coop.quiet_us());

    istructure(log, values)?;
    values.set("istructure.peak_bytes", n.peak_bytes as f64);
    values.set("istructure.arrays_per_job", per_job(n.arrays));

    values.set("service.submit_us", submit_us);
    values.set("service.wait_us", wait_us);
    service(runtime, log, values)?;
    values.set("service.queue_depth_peak", queue_depth_peak as f64);
    values.set("runtime.build_us", build_us);
    values.set("runtime.drop_us", drop_us);
    log.set_enabled(false);

    values.set("machine.sim_host_us", sim.host_us);
    values.set("machine.events", sim.events as f64);
    values.set("machine.eu_utilization_8pe", sim.eu_utilization);
    values.set("baseline.seq_job_us", seq_us);

    let t = &traced.counters;
    let per_traced = |total: u64| total as f64 / t.traced_jobs.max(1) as f64;
    values.set("trace.overhead_ratio", traced.quiet_us() / native_us);
    values.set(
        "trace.events_per_job",
        measured.trace_events as f64 / t.jobs.max(1) as f64,
    );
    values.set("trace.dropped", measured.trace_dropped as f64);
    values.set("trace.queue_us", per_traced(t.queue_us));
    values.set("trace.dispatch_us", per_traced(t.dispatch_us));
    values.set("trace.run_us", per_traced(t.run_us));
    values.set("trace.blocked_us", per_traced(t.blocked_us));

    let jobs_per_s: Vec<f64> = native.us_per_job.iter().map(|us| 1e6 / us).collect();
    values.set(
        "client.jobs_per_s",
        quiet_level(&jobs_per_s, Better::Higher),
    );
    let (p50_us, p90_us) = (quiet(&native.p50_us), quiet(&native.p90_us));
    values.set("client.job_p50_us", p50_us);
    values.set("client.job_p90_us", p90_us);
    values.set("client.speedup_seq", speedup(seq_us, native_us));
    values.set("client.lat_p50_rel", p50_us / seq_us);
    values.set("client.lat_p90_rel", p90_us / seq_us);
    values.set("client.samples", n.jobs as f64);
    values.set("client.blocks", measured.blocks as f64);
    values.set("client.workers", runtime.workers() as f64);
    values.set("client.nproc", nproc() as f64);
    values.set("host.par_capacity", par_capacity());
    // 1 on a host that never interferes.
    values.set("host.noise", median(&seq.us_per_job) / seq_us);
    Ok(())
}
