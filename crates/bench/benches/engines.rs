//! Engine comparison: the `sim` vs the `native` engine's wall-clock on the
//! FILL and SIMPLE workloads at 1/2/4/8 workers, one fresh `pods::Runtime`
//! per run — plus the warm-path groups:
//!
//! * `runtime_reuse` — a persistent `pods::Runtime` (one warm worker pool
//!   across N back-to-back runs) vs N cold runtimes (a fresh pool spawned
//!   and joined per run);
//! * `prepared_reuse` — warm runs submitting a `PreparedProgram` handle
//!   (clone/partition/read-slot tables amortised to one `prepare`) vs warm
//!   runs on a cache-disabled runtime that re-prepares every submission
//!   (the pre-cache warm path);
//! * `delivery_batch` — warm runs with batched wake-up delivery (16
//!   wake-ups per scheduler transaction) vs unbatched (one transaction per
//!   wake-up) on a read-heavy gather, with the per-job wake-up/flush
//!   counters recorded alongside the timings (the lock-traffic reduction is
//!   core-count-independent, unlike the wall-clock);
//! * `async_vs_native` — the two pooled schedulers head to head on a
//!   suspension-heavy gather and a carried recurrence: parked-instance
//!   scheduling (native) vs futures-style task suspension (async), with
//!   each run's suspension/resumption/steal counters recorded so the
//!   scheduling overhead the paper's evaluation is about is visible even
//!   where a single-core host hides the wall-clock difference;
//! * `grain_size` — warm native runs of fill and gather at small sizes
//!   (n = 8 .. 64) sweeping the chunk grain (1, 2, 8, auto): the
//!   per-instance spawn/park overhead that grain-1 execution pays per
//!   inner iteration is paid once per chunk instead, with the measured
//!   instance counts recorded next to the wall-clock. Gather's producer
//!   loop has no eligible chunk site, so it doubles as the no-regression
//!   control;
//! * `specialization` — warm prepared runs with the prepare-time
//!   specialization pass on vs off (super-op dispatch vs the plain
//!   interpreter) on a compute-dense polynomial fill plus fill, gather,
//!   and recurrence, with the cold-prepare cost (which includes building
//!   the plans) and per-run super-op counts recorded alongside the
//!   wall-clock.
//!
//! Setting `PODS_CHUNK` (a grain size or `auto`) applies that chunk
//! policy to every non-grain group, so a CI smoke run can execute the
//! whole bench under a chunked configuration.
//!
//! Setting `PODS_BENCH_TRACE` (truthy) additionally re-runs the fill
//! workload on a traced runtime after the measurements and writes the
//! flight recorder's Chrome-trace export to `trace.json` next to the
//! snapshot — load it in `chrome://tracing` or Perfetto to see where a
//! bench run's time goes. The traced run is separate from the measured
//! configurations, so the numbers are never polluted by the recorder.
//!
//! Besides the Criterion timings, the bench writes a machine-readable
//! snapshot to `BENCH_engines.json` at the repository root (override with
//! the `PODS_BENCH_OUT` environment variable): per-configuration mean
//! wall-clock microseconds (reused from the shim's measurement loop) plus
//! the host parallelism, so runs on different
//! machines can be compared honestly. Note that the *sim* engine's
//! wall-clock is the cost of simulating N PEs (it grows with N), while the
//! *native* engine's wall-clock is real execution on N threads (it shrinks
//! with N up to the host's core count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pods::{ChunkPolicy, CompiledProgram, EngineKind, EngineStats, RunOptions, Runtime, Value};

/// A read-heavy gather with `k` split-phase probe calls: every probe
/// instance parks on an unwritten element, then the producer loop's writes
/// wake all of them from one task — the paper's token-routing-batch
/// scenario rendered as a workload. The sum is right-nested so no add needs
/// a return value until every probe is in flight (an intermediate
/// assignment would serialise the calls).
fn gather_source(k: usize) -> String {
    let mut expr = format!("probe(a, {})", k - 1);
    for i in (0..k - 1).rev() {
        expr = format!("probe(a, {i}) + ({expr})");
    }
    format!(
        "def main(n) {{\n    a = array(n);\n    for i = 0 to n - 1 {{ a[i] = i * 3; }}\n    \
         return {expr};\n}}\ndef probe(a, i) {{ return a[i] + 1; }}\n"
    )
}

/// A compute-dense fill: every element evaluates a degree-6 polynomial by
/// Horner's rule — a straight line of ~12 fusible ALU instructions per
/// store, whose only external inputs are the loop variable and the array
/// ref. This is the shape prepare-time specialization targets: the body
/// collapses into super-ops, so the warm path pays one firing check and
/// zero `Instr` matches where the interpreter pays ~13 of each.
fn poly_source() -> String {
    "def main(n) {
        a = array(n);
        for i = 0 to n - 1 {
            a[i] = (((((i * 3 + 1) * i + 7) * i + 11) * i + 13) * i + 17) * i + 19;
        }
        return a;
    }"
    .to_string()
}

/// A fine-grained fill: `n` rows of just two elements, so each spawned
/// row instance does almost no work and the per-instance overhead (spawn,
/// frame, scheduling) dominates at grain 1 — the scenario the chunk
/// transform exists for. The square `pods_workloads::FILL` hides the
/// effect behind its `n`-iteration row bodies.
fn fine_fill_source() -> String {
    "def main(n) {
        a = matrix(n, 2);
        for i = 0 to n - 1 { for j = 0 to 1 { a[i, j] = i * 3 + j; } }
        return a;
    }"
    .to_string()
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const ENGINES: [EngineKind; 2] = [EngineKind::Sim, EngineKind::Native];

/// One run on a runtime of its own, so a pooled engine spawns and joins its
/// workers inside the measurement.
fn cold_run(kind: EngineKind, program: &CompiledProgram, n: i64, opts: &RunOptions) {
    Runtime::builder(kind)
        .options(opts.clone())
        .build()
        .run(program, &[Value::Int(n)])
        .expect("bench run");
}

fn bench_engines(c: &mut Criterion) {
    let host_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // PODS_CHUNK sweeps every non-grain group under one chunk policy (the
    // grain_size group below sweeps grains itself and ignores this).
    let env_chunk: ChunkPolicy = std::env::var("PODS_CHUNK")
        .map(|s| s.parse().expect("PODS_CHUNK"))
        .unwrap_or(ChunkPolicy::Fixed(1));
    let mut rows = String::new();

    for (workload, source, n) in [
        ("fill", pods_workloads::FILL, 64i64),
        ("simple", pods_workloads::simple::SIMPLE, 16i64),
    ] {
        let program = pods::compile(source).expect("workload compiles");
        let mut group = c.benchmark_group(format!("{workload}_{n}"));
        for engine in ENGINES {
            for workers in WORKER_COUNTS {
                // The offline criterion shim exposes the measured mean, so
                // the snapshot reuses the bench measurement instead of
                // timing every configuration a second time.
                let mut mean_us = 0.0;
                group.bench_with_input(
                    BenchmarkId::new(engine.name(), workers),
                    &workers,
                    |b, &workers| {
                        let mut opts = RunOptions::with_pes(workers);
                        opts.partition.chunk = env_chunk;
                        b.iter(|| cold_run(engine, &program, n, &opts));
                        mean_us = b.mean_ns / 1e3;
                    },
                );
                if !rows.is_empty() {
                    rows.push_str(",\n");
                }
                rows.push_str(&format!(
                    "    {{\"workload\": \"{workload}\", \"n\": {n}, \"engine\": \"{engine}\", \
                     \"workers\": {workers}, \"mean_wall_us\": {mean_us:.1}}}"
                ));
            }
        }
        group.finish();
    }

    // runtime_reuse: N back-to-back native runs of one workload, warm
    // (one persistent Runtime, pool reused) vs cold (one fresh Runtime per
    // run, each spawning and joining its own pool). Reported per run so
    // the numbers are comparable with the engine points above.
    const REUSE_RUNS: usize = 8;
    let reuse_workers = host_parallelism.clamp(2, 4);
    let (workload, n) = ("fill", 48i64);
    let program = pods::compile(pods_workloads::FILL).expect("workload compiles");
    let mut group = c.benchmark_group(format!("runtime_reuse_{workload}_{n}"));
    for mode in ["warm-runtime", "cold-runtime"] {
        let mut mean_us = 0.0;
        group.bench_with_input(
            BenchmarkId::new(mode, reuse_workers),
            &reuse_workers,
            |b, &workers| {
                match mode {
                    "warm-runtime" => {
                        let runtime = Runtime::builder(EngineKind::Native)
                            .workers(workers)
                            .chunk_policy(env_chunk)
                            .build();
                        b.iter(|| {
                            for _ in 0..REUSE_RUNS {
                                runtime.run(&program, &[Value::Int(n)]).expect("bench run");
                            }
                        });
                    }
                    _ => {
                        let mut opts = RunOptions::with_pes(workers);
                        opts.partition.chunk = env_chunk;
                        b.iter(|| {
                            for _ in 0..REUSE_RUNS {
                                cold_run(EngineKind::Native, &program, n, &opts);
                            }
                        });
                    }
                }
                mean_us = b.mean_ns / 1e3 / REUSE_RUNS as f64;
            },
        );
        rows.push_str(&format!(
            ",\n    {{\"workload\": \"{workload}\", \"n\": {n}, \"engine\": \"{mode}\", \
             \"workers\": {reuse_workers}, \"mean_wall_us\": {mean_us:.1}}}"
        ));
    }
    group.finish();

    // prepared_reuse: N warm runs per iteration on one persistent runtime,
    // submitting a PreparedProgram handle (setup amortised to one
    // `prepare`) vs a cache-disabled runtime that re-clones, re-partitions,
    // and rebuilds read-slot tables on every submission — the warm path as
    // it was before the prepared-program cache. Small problem sizes keep
    // per-run setup visible next to execution, mirroring fine-grained
    // iterative jobs.
    const PREP_RUNS: usize = 8;
    for (workload, source, n) in [
        ("fill", pods_workloads::FILL, 8i64),
        ("simple", pods_workloads::simple::SIMPLE, 4),
    ] {
        let program = pods::compile(source).expect("workload compiles");
        let mut group = c.benchmark_group(format!("prepared_reuse_{workload}_{n}"));
        for mode in ["prepared-handle", "reprepare-every-run"] {
            let mut mean_us = 0.0;
            group.bench_with_input(
                BenchmarkId::new(mode, reuse_workers),
                &reuse_workers,
                |b, &workers| {
                    match mode {
                        "prepared-handle" => {
                            let runtime = Runtime::builder(EngineKind::Native)
                                .workers(workers)
                                .chunk_policy(env_chunk)
                                .build();
                            let prepared = runtime.prepare(&program);
                            b.iter(|| {
                                for _ in 0..PREP_RUNS {
                                    runtime.run(&prepared, &[Value::Int(n)]).expect("bench run");
                                }
                            });
                        }
                        _ => {
                            let runtime = Runtime::builder(EngineKind::Native)
                                .workers(workers)
                                .prepared_cache_capacity(0)
                                .chunk_policy(env_chunk)
                                .build();
                            b.iter(|| {
                                for _ in 0..PREP_RUNS {
                                    runtime.run(&program, &[Value::Int(n)]).expect("bench run");
                                }
                            });
                        }
                    }
                    mean_us = b.mean_ns / 1e3 / PREP_RUNS as f64;
                },
            );
            rows.push_str(&format!(
                ",\n    {{\"workload\": \"{workload}\", \"n\": {n}, \"engine\": \"{mode}\", \
                 \"workers\": {reuse_workers}, \"mean_wall_us\": {mean_us:.1}}}"
            ));
        }
        group.finish();
    }

    // delivery_batch: warm prepared runs of the read-heavy gather with
    // unbatched (1) vs batched (16) wake-up delivery. One worker keeps the
    // schedule deterministic (every probe defers before the producer runs).
    // Wall-clock is reported per run; the wake-up/flush counters from one
    // extra run are recorded too, because the scheduler-lock reduction they
    // show is independent of host core count and scheduler noise.
    {
        let (workload, n) = ("gather", 64i64);
        let batch_workers = 1usize;
        let program = pods::compile(&gather_source(n as usize)).expect("workload compiles");
        let mut group = c.benchmark_group(format!("delivery_batch_{workload}_{n}"));
        for batch in [1usize, 16] {
            let runtime = Runtime::builder(EngineKind::Native)
                .workers(batch_workers)
                .delivery_batch(batch)
                .chunk_policy(env_chunk)
                .build();
            let prepared = runtime.prepare(&program);
            let mut mean_us = 0.0;
            group.bench_with_input(
                BenchmarkId::new(format!("batch-{batch}"), batch_workers),
                &batch_workers,
                |b, _| {
                    b.iter(|| {
                        for _ in 0..PREP_RUNS {
                            runtime.run(&prepared, &[Value::Int(n)]).expect("bench run");
                        }
                    });
                    mean_us = b.mean_ns / 1e3 / PREP_RUNS as f64;
                },
            );
            let outcome = runtime.run(&prepared, &[Value::Int(n)]).expect("stats run");
            let EngineStats::Native { stats, .. } = outcome.stats else {
                panic!("native stats expected");
            };
            rows.push_str(&format!(
                ",\n    {{\"workload\": \"{workload}\", \"n\": {n}, \"engine\": \"batch-{batch}\", \
                 \"workers\": {batch_workers}, \"mean_wall_us\": {mean_us:.1}, \
                 \"wakeups\": {}, \"wakeup_flushes\": {}}}",
                stats.wakeups, stats.wakeup_flushes
            ));
        }
        group.finish();
    }

    // async_vs_native: same prepared warm path, two schedulers. The gather
    // workload is suspension-dominated (every probe defers once); the
    // recurrence chains suspensions serially. Suspension/resumption/steal
    // counters come from one extra run per configuration — they are
    // deterministic on one worker and nearly so on several, and unlike the
    // wall-clock they do not need a multi-core host to be meaningful.
    for (workload, source, n) in [
        ("gather", gather_source(64), 64i64),
        ("recurrence", pods_workloads::RECURRENCE.to_string(), 96),
    ] {
        let program = pods::compile(&source).expect("workload compiles");
        let mut group = c.benchmark_group(format!("async_vs_native_{workload}_{n}"));
        for kind in [EngineKind::Native, EngineKind::AsyncCoop] {
            let runtime = Runtime::builder(kind)
                .workers(reuse_workers)
                .chunk_policy(env_chunk)
                .build();
            let prepared = runtime.prepare(&program);
            let mut mean_us = 0.0;
            group.bench_with_input(
                BenchmarkId::new(kind.name(), reuse_workers),
                &reuse_workers,
                |b, _| {
                    b.iter(|| {
                        for _ in 0..PREP_RUNS {
                            runtime.run(&prepared, &[Value::Int(n)]).expect("bench run");
                        }
                    });
                    mean_us = b.mean_ns / 1e3 / PREP_RUNS as f64;
                },
            );
            let outcome = runtime.run(&prepared, &[Value::Int(n)]).expect("stats run");
            // Uniform counter extraction: for the native scheduler a
            // "suspension" is a park and every completed run resumes each
            // parked instance exactly once.
            let (suspensions, resumptions, steals) = match outcome.stats {
                EngineStats::Native { stats, .. } => (stats.parks, stats.parks, stats.steals),
                EngineStats::AsyncCoop { stats, .. } => {
                    (stats.suspensions, stats.resumptions, stats.steals)
                }
                other => panic!("pooled stats expected, got {other:?}"),
            };
            rows.push_str(&format!(
                ",\n    {{\"workload\": \"{workload}\", \"n\": {n}, \"engine\": \"{}\", \
                 \"workers\": {reuse_workers}, \"mean_wall_us\": {mean_us:.1}, \
                 \"suspensions\": {suspensions}, \"resumptions\": {resumptions}, \
                 \"steals\": {steals}}}",
                kind.name()
            ));
        }
        group.finish();
    }

    // grain_size: warm raw runs (the cached preparation is what auto-tuning
    // refines, so warm re-runs under `auto` execute at the tuned grain) of
    // fill and gather at small sizes, sweeping the chunk grain. The win to
    // look for: at grain 1 every inner iteration pays one instance spawn
    // plus its parks; a chunk of c iterations pays that once. Gather's
    // producer loop has no eligible chunk site — it is the control showing
    // the transform costs nothing where it cannot apply. Instance counts
    // from one extra run are recorded next to the wall-clock because the
    // overhead reduction they show is core-count-independent.
    for (workload, source, n) in [
        ("fill", fine_fill_source(), 8i64),
        ("fill", fine_fill_source(), 64),
        ("gather", gather_source(8), 8),
        ("gather", gather_source(64), 64),
    ] {
        let program = pods::compile(&source).expect("workload compiles");
        let mut group = c.benchmark_group(format!("grain_size_{workload}_{n}"));
        for chunk in [
            ChunkPolicy::Fixed(1),
            ChunkPolicy::Fixed(2),
            ChunkPolicy::Fixed(8),
            ChunkPolicy::Auto,
        ] {
            let runtime = Runtime::builder(EngineKind::Native)
                .workers(reuse_workers)
                .chunk_policy(chunk)
                .build();
            // Warm the cache (and, under auto, let the retune settle)
            // before measuring.
            for _ in 0..4 {
                runtime.run(&program, &[Value::Int(n)]).expect("warm-up");
            }
            let mut mean_us = 0.0;
            group.bench_with_input(
                BenchmarkId::new(format!("chunk-{chunk}"), reuse_workers),
                &reuse_workers,
                |b, _| {
                    b.iter(|| {
                        for _ in 0..PREP_RUNS {
                            runtime.run(&program, &[Value::Int(n)]).expect("bench run");
                        }
                    });
                    mean_us = b.mean_ns / 1e3 / PREP_RUNS as f64;
                },
            );
            let outcome = runtime.run(&program, &[Value::Int(n)]).expect("stats run");
            let EngineStats::Native { stats, .. } = outcome.stats else {
                panic!("native stats expected");
            };
            rows.push_str(&format!(
                ",\n    {{\"group\": \"grain_size\", \"workload\": \"{workload}\", \"n\": {n}, \
                 \"engine\": \"native\", \"workers\": {reuse_workers}, \"chunk\": \"{chunk}\", \
                 \"mean_wall_us\": {mean_us:.1}, \"instances\": {}, \
                 \"iterations_per_instance\": {:.2}, \"chunks_autotuned\": {}}}",
                stats.instances_spawned(),
                stats.iterations_per_instance(),
                stats.chunks_autotuned
            ));
        }
        group.finish();
    }

    // service_admission: the job-service layer under load. Two questions:
    // what does a submission cost when it has to flow through the bounded
    // admission queue and the dispatcher thread (vs the pre-service direct
    // pool hand-off, which no longer exists — so the control is the same
    // path with an idle queue), and what does deficit-round-robin fairness
    // cost over single-lane FIFO dispatch. Each iteration submits a burst
    // of jobs and drains it; reported per job.
    {
        const BURST: usize = 32;
        let (workload, n) = ("fill", 16i64);
        let program = pods::compile(pods_workloads::FILL).expect("workload compiles");
        let mut group = c.benchmark_group(format!("service_admission_{workload}_{n}"));
        for mode in ["unbounded", "bounded-64", "fifo-1client", "fair-2clients"] {
            let mut builder = Runtime::builder(EngineKind::Native)
                .workers(reuse_workers)
                .chunk_policy(env_chunk);
            builder = match mode {
                // Admission cost at a bound the burst never trips vs none.
                "unbounded" => builder,
                "bounded-64" => builder.admission_capacity(64),
                // Dispatch cost through one saturated slot: one FIFO lane
                // vs two weighted lanes served deficit-round-robin.
                "fifo-1client" => builder.dispatch_window(1),
                _ => builder
                    .dispatch_window(1)
                    .client_weight(pods::ClientId(1), 2)
                    .client_weight(pods::ClientId(2), 1),
            };
            let runtime = builder.build();
            let prepared = runtime.prepare(&program);
            let mut mean_us = 0.0;
            group.bench_with_input(
                BenchmarkId::new(mode, reuse_workers),
                &reuse_workers,
                |b, _| {
                    b.iter(|| {
                        let handles: Vec<_> = (0..BURST)
                            .map(|i| {
                                if mode == "fair-2clients" {
                                    runtime
                                        .submit_for(
                                            pods::ClientId(1 + (i % 2) as u64),
                                            &prepared,
                                            &[Value::Int(n)],
                                        )
                                        .expect("bench submit")
                                } else {
                                    runtime
                                        .submit(&prepared, &[Value::Int(n)])
                                        .expect("bench submit")
                                }
                            })
                            .collect();
                        for handle in handles {
                            handle.wait().expect("bench job");
                        }
                    });
                    mean_us = b.mean_ns / 1e3 / BURST as f64;
                },
            );
            let m = runtime.metrics();
            rows.push_str(&format!(
                ",\n    {{\"group\": \"service_admission\", \"workload\": \"{workload}\", \
                 \"n\": {n}, \"engine\": \"{mode}\", \"workers\": {reuse_workers}, \
                 \"mean_wall_us\": {mean_us:.1}, \"queue_depth_peak\": {}, \
                 \"p50_latency_us\": {:.1}, \"p99_latency_us\": {:.1}}}",
                m.queue_depth_peak, m.p50_latency_us, m.p99_latency_us
            ));
        }
        group.finish();
    }

    // tracing_overhead: the flight recorder's cost on the warm native path.
    // `off` is a runtime built without a recorder (the default); `on`
    // records every event into the bounded rings and drains them once per
    // iteration. The claim the group keeps honest: `off` is within noise of
    // the pre-recorder runtime (the hooks are one `Option` branch per
    // emission site), and even `on` stays cheap.
    {
        let (workload, n) = ("fill", 48i64);
        let program = pods::compile(pods_workloads::FILL).expect("workload compiles");
        let mut group = c.benchmark_group(format!("tracing_overhead_{workload}_{n}"));
        for mode in ["off", "on"] {
            let mut builder = Runtime::builder(EngineKind::Native)
                .workers(reuse_workers)
                .chunk_policy(env_chunk);
            if mode == "on" {
                builder = builder.trace(pods::TraceConfig::new());
            }
            let runtime = builder.build();
            let prepared = runtime.prepare(&program);
            let mut mean_us = 0.0;
            group.bench_with_input(
                BenchmarkId::new(mode, reuse_workers),
                &reuse_workers,
                |b, _| {
                    b.iter(|| {
                        for _ in 0..PREP_RUNS {
                            runtime.run(&prepared, &[Value::Int(n)]).expect("bench run");
                        }
                        // Drain so the rings never saturate into drop-oldest
                        // churn; an untraced runtime returns an empty trace.
                        runtime.take_trace();
                    });
                    mean_us = b.mean_ns / 1e3 / PREP_RUNS as f64;
                },
            );
            rows.push_str(&format!(
                ",\n    {{\"group\": \"tracing_overhead\", \"workload\": \"{workload}\", \
                 \"n\": {n}, \"engine\": \"trace-{mode}\", \"workers\": {reuse_workers}, \
                 \"mean_wall_us\": {mean_us:.1}}}"
            ));
        }
        group.finish();
    }

    // specialization: the prepare-time specialization pass A/B on the warm
    // native path. Poly is the showcase — a dozen fusible ALU ops per
    // element, so per-instruction dispatch (the thing super-ops remove)
    // dominates its runtime; fill's short store-heavy row bodies are
    // scheduling-bound and show a smaller win; the read-heavy gather is
    // split-phase-dominated (plans cover little, so it doubles as the
    // no-regression control); the carried recurrence sits between. The
    // cold `prepare` cost — which now includes building the plans — is
    // measured separately, and the super-op count from one extra run
    // shows how much of the warm path the plans actually covered.
    // Poly runs at a fixed grain of 16: chunked instances amortise the
    // per-instance spawn/park overhead, so what remains of its runtime is
    // instruction execution — the cost the pass removes. The other three
    // stay on the ambient policy (grain 1 unless PODS_CHUNK says
    // otherwise), measuring the pass under the default configuration.
    for (workload, source, n, chunk) in [
        ("poly", poly_source(), 256i64, ChunkPolicy::Fixed(16)),
        ("fill", pods_workloads::FILL.to_string(), 48, env_chunk),
        ("gather", gather_source(64), 64, env_chunk),
        (
            "recurrence",
            pods_workloads::RECURRENCE.to_string(),
            96,
            env_chunk,
        ),
    ] {
        let program = pods::compile(&source).expect("workload compiles");
        let mut group = c.benchmark_group(format!("specialization_{workload}_{n}"));
        for mode in ["interpreted", "specialized"] {
            let runtime = Runtime::builder(EngineKind::Native)
                .workers(reuse_workers)
                .chunk_policy(chunk)
                .specialize(mode == "specialized")
                .build();
            // Cold-prepare cost (clone + partition + read-slot tables, plus
            // the specialization pass when on), amortised over a few calls.
            const PREPARES: usize = 16;
            let prep_start = std::time::Instant::now();
            for _ in 0..PREPARES - 1 {
                std::hint::black_box(runtime.prepare(&program));
            }
            let prepared = runtime.prepare(&program);
            let prepare_us = prep_start.elapsed().as_secs_f64() * 1e6 / PREPARES as f64;
            let mut mean_us = 0.0;
            group.bench_with_input(
                BenchmarkId::new(mode, reuse_workers),
                &reuse_workers,
                |b, _| {
                    b.iter(|| {
                        for _ in 0..PREP_RUNS {
                            runtime.run(&prepared, &[Value::Int(n)]).expect("bench run");
                        }
                    });
                    mean_us = b.mean_ns / 1e3 / PREP_RUNS as f64;
                },
            );
            let outcome = runtime.run(&prepared, &[Value::Int(n)]).expect("stats run");
            let EngineStats::Native { stats, .. } = outcome.stats else {
                panic!("native stats expected");
            };
            rows.push_str(&format!(
                ",\n    {{\"group\": \"specialization\", \"workload\": \"{workload}\", \
                 \"n\": {n}, \"engine\": \"{mode}\", \"workers\": {reuse_workers}, \
                 \"mean_wall_us\": {mean_us:.1}, \"prepare_us\": {prepare_us:.1}, \
                 \"super_ops\": {}}}",
                stats.super_ops
            ));
        }
        group.finish();
    }

    let out = format!(
        "{{\n  \"bench\": \"engines\",\n  \"host_parallelism\": {host_parallelism},\n  \
         \"points\": [\n{rows}\n  ]\n}}\n"
    );
    let path = std::env::var("PODS_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_engines.json", env!("CARGO_MANIFEST_DIR")));
    if let Err(e) = std::fs::write(&path, &out) {
        // A missing snapshot must fail the bench run loudly (CI consumes
        // the file), not scroll past as a stderr note.
        panic!("could not write bench snapshot {path}: {e}");
    }
    println!("wrote {path}");

    // PODS_BENCH_TRACE=1: re-run one traced workload and drop a Chrome
    // trace next to the snapshot, so a bench run can be inspected in
    // Perfetto without touching the measured configurations above.
    if std::env::var("PODS_BENCH_TRACE").is_ok_and(|v| !v.is_empty() && v != "0") {
        let program = pods::compile(pods_workloads::FILL).expect("workload compiles");
        let runtime = Runtime::builder(EngineKind::Native)
            .workers(reuse_workers)
            .trace(pods::TraceConfig::new())
            .build();
        for _ in 0..4 {
            runtime.run(&program, &[Value::Int(48)]).expect("trace run");
        }
        let trace = runtime.take_trace();
        let trace_path = std::path::Path::new(&path)
            .with_file_name("trace.json")
            .display()
            .to_string();
        if let Err(e) = std::fs::write(&trace_path, trace.chrome_trace()) {
            panic!("could not write bench trace {trace_path}: {e}");
        }
        println!("wrote {trace_path} ({} events)", trace.len());
    }
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
