//! Integration tests of the persistent `pods::Runtime` API: pool reuse
//! across sequential runs, concurrent batched submission, many OS threads
//! sharing one runtime, job-scoped failures, and the amortisation win of a
//! warm pool over a fresh runtime per run.

use pods::{
    AsyncStats, ClientId, CompiledProgram, EngineKind, EngineOutcome, EngineStats, NativeStats,
    RunOptions, Runtime, Value, PREPARED_CACHE,
};
use std::collections::HashSet;
use std::time::Duration;

fn native_stats(outcome: &EngineOutcome) -> NativeStats {
    match &outcome.stats {
        EngineStats::Native { stats, .. } => *stats,
        other => panic!("expected native stats, got {other:?}"),
    }
}

fn async_stats(outcome: &EngineOutcome) -> AsyncStats {
    match &outcome.stats {
        EngineStats::AsyncCoop { stats, .. } => *stats,
        other => panic!("expected async stats, got {other:?}"),
    }
}

fn values_close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan())
}

/// Full-state agreement between one outcome and the sequential oracle.
fn assert_matches_oracle(label: &str, outcome: &EngineOutcome, oracle: &EngineOutcome) {
    match (&oracle.return_value, &outcome.return_value) {
        (Some(Value::ArrayRef(_)), Some(Value::ArrayRef(_))) => {
            let a = oracle.returned_array().expect("oracle returned array");
            let b = outcome.returned_array().expect("engine returned array");
            assert_eq!(a.name, b.name, "{label}: returned array identity");
        }
        (a, b) => assert_eq!(a, b, "{label}: return value"),
    }
    assert_eq!(
        oracle.arrays.len(),
        outcome.arrays.len(),
        "{label}: array count"
    );
    for expected in &oracle.arrays {
        let got = outcome
            .array(&expected.name)
            .unwrap_or_else(|| panic!("{label}: array `{}` missing", expected.name));
        assert_eq!(
            expected.shape, got.shape,
            "{label}: shape of `{}`",
            expected.name
        );
        let ev = expected.to_f64(f64::NAN);
        let gv = got.to_f64(f64::NAN);
        for (i, (a, b)) in ev.iter().zip(&gv).enumerate() {
            assert!(
                values_close(*a, *b),
                "{label}: `{}`[{i}] = {b}, oracle {a}",
                expected.name
            );
        }
    }
}

/// One run on a fresh native runtime of `workers` workers: a pool of its
/// own, spawned for this run and joined after it.
fn cold_native_run(program: &CompiledProgram, args: &[Value], workers: usize) -> EngineOutcome {
    Runtime::builder(EngineKind::Native)
        .options(RunOptions::with_pes(workers))
        .build()
        .run(program, args)
        .expect("cold run")
}

fn oracle_for(program: &CompiledProgram, args: &[Value]) -> EngineOutcome {
    Runtime::builder(EngineKind::Seq)
        .options(RunOptions::default())
        .build()
        .run(program, args)
        .expect("oracle run")
}

#[test]
fn two_sequential_runs_reuse_the_same_worker_pool() {
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
    let first = runtime.run(&program, &[Value::Int(16)]).unwrap();
    let second = runtime.run(&program, &[Value::Int(16)]).unwrap();
    let (s1, s2) = (native_stats(&first), native_stats(&second));
    // Same pool identity on both runs, and it is this runtime's pool.
    assert_eq!(
        s1.pool_id,
        runtime.pool_id().expect("native runtime owns a pool")
    );
    assert_eq!(s1.pool_id, s2.pool_id, "worker pool was not reused");
    assert_eq!(
        (s1.job_seq, s2.job_seq),
        (1, 2),
        "jobs must be sequenced on one pool"
    );

    // Cold runs, by contrast, get a fresh pool each time.
    let cold1 = cold_native_run(&program, &[Value::Int(16)], 2);
    let cold2 = cold_native_run(&program, &[Value::Int(16)], 2);
    let (c1, c2) = (native_stats(&cold1), native_stats(&cold2));
    assert_ne!(
        c1.pool_id, c2.pool_id,
        "cold runtimes must not share a pool"
    );
    assert_ne!(c1.pool_id, s1.pool_id);
    assert_eq!((c1.job_seq, c2.job_seq), (1, 1));
}

#[test]
fn concurrent_run_many_jobs_match_the_oracle() {
    // Heterogeneous batch: different programs and argument sets in flight
    // on one pool at once, each checked against the sequential oracle.
    let workloads: Vec<(&str, Vec<Value>)> = vec![
        (pods_workloads::FILL, vec![Value::Int(12)]),
        (pods_workloads::MATMUL, vec![Value::Int(5)]),
        (pods_workloads::STENCIL, vec![Value::Int(10)]),
        (pods_workloads::RECURRENCE, vec![Value::Int(32)]),
        (pods_workloads::FILL, vec![Value::Int(20)]),
    ];
    let programs: Vec<CompiledProgram> = workloads
        .iter()
        .map(|(src, _)| pods::compile(src).unwrap())
        .collect();
    let oracles: Vec<EngineOutcome> = programs
        .iter()
        .zip(&workloads)
        .map(|(p, (_, args))| oracle_for(p, args))
        .collect();

    let runtime = Runtime::builder(EngineKind::Native).workers(4).build();
    let jobs: Vec<(&CompiledProgram, &[Value])> = programs
        .iter()
        .zip(&workloads)
        .map(|(p, (_, args))| (p, args.as_slice()))
        .collect();
    let results = runtime.run_many(&jobs);
    assert_eq!(results.len(), oracles.len());
    let pool_id = runtime.pool_id().unwrap();
    for (i, (result, oracle)) in results.iter().zip(&oracles).enumerate() {
        let outcome = result
            .as_ref()
            .unwrap_or_else(|e| panic!("job {i} failed: {e}"));
        assert_matches_oracle(&format!("job {i}"), outcome, oracle);
        assert_eq!(
            native_stats(outcome).pool_id,
            pool_id,
            "job {i} ran off-pool"
        );
    }
}

#[test]
fn many_os_threads_share_one_runtime_concurrently() {
    // The stress test of the issue: many submitting threads, one shared
    // Runtime, every result identical to the sequential oracle.
    const THREADS: usize = 8;
    const RUNS_PER_THREAD: usize = 4;
    let fill = pods::compile(pods_workloads::FILL).unwrap();
    let recurrence = pods::compile(pods_workloads::RECURRENCE).unwrap();

    // Precompute one oracle per distinct (program, n) the threads will use.
    let fill_oracles: Vec<EngineOutcome> = (0..RUNS_PER_THREAD)
        .map(|k| oracle_for(&fill, &[Value::Int(8 + 2 * k as i64)]))
        .collect();
    let rec_oracles: Vec<EngineOutcome> = (0..RUNS_PER_THREAD)
        .map(|k| oracle_for(&recurrence, &[Value::Int(16 + 4 * k as i64)]))
        .collect();

    let runtime = Runtime::builder(EngineKind::Native).workers(4).build();
    let pool_id = runtime.pool_id().unwrap();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let runtime = &runtime;
            let (fill, recurrence) = (&fill, &recurrence);
            let (fill_oracles, rec_oracles) = (&fill_oracles, &rec_oracles);
            scope.spawn(move || {
                for k in 0..RUNS_PER_THREAD {
                    let (program, args, oracle) = if t % 2 == 0 {
                        (fill, vec![Value::Int(8 + 2 * k as i64)], &fill_oracles[k])
                    } else {
                        (
                            recurrence,
                            vec![Value::Int(16 + 4 * k as i64)],
                            &rec_oracles[k],
                        )
                    };
                    let outcome = runtime
                        .run(program, &args)
                        .unwrap_or_else(|e| panic!("thread {t} run {k} failed: {e}"));
                    assert_matches_oracle(&format!("thread {t} run {k}"), &outcome, oracle);
                    assert_eq!(native_stats(&outcome).pool_id, pool_id);
                }
            });
        }
    });
    // Every submission was sequenced on the one pool.
    let last = runtime.run(&fill, &[Value::Int(8)]).unwrap();
    assert_eq!(
        native_stats(&last).job_seq,
        (THREADS * RUNS_PER_THREAD) as u64 + 1
    );
}

#[test]
fn failures_are_job_scoped_and_do_not_poison_the_pool() {
    let deadlock = pods::compile("def main(n) { a = array(n); a[0] = 1; return a[1]; }").unwrap();
    let good = pods::compile(pods_workloads::FILL).unwrap();
    let oracle = oracle_for(&good, &[Value::Int(12)]);

    let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
    // Interleave failing and succeeding submissions.
    let bad_handle = runtime.submit(&deadlock, &[Value::Int(4)]).unwrap();
    let good_handle = runtime.submit(&good, &[Value::Int(12)]).unwrap();
    assert!(bad_handle.wait().is_err(), "deadlock must be reported");
    let outcome = good_handle.wait().unwrap();
    assert_matches_oracle("good job next to failing job", &outcome, &oracle);

    // The pool keeps serving after failures.
    for _ in 0..3 {
        assert!(runtime.run(&deadlock, &[Value::Int(4)]).is_err());
    }
    let after = runtime.run(&good, &[Value::Int(12)]).unwrap();
    assert_matches_oracle("after repeated failures", &after, &oracle);
}

#[test]
fn warm_runtime_amortises_pool_spawn_over_cold_runtimes() {
    // N back-to-back runs on one Runtime vs N runs on a fresh Runtime each.
    // What the warm path saves is counted, not clocked: every warm run
    // lands on the runtime's one pool and, after the first, reuses the
    // prepared program from the cache (the outcome shares the prepared
    // partition report); every cold run spawns a pool and prepares afresh. The times are
    // printed for context only.
    const RUNS: usize = 6;
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let args = [Value::Int(48)];
    let workers = 2;

    let runtime = Runtime::builder(EngineKind::Native)
        .workers(workers)
        .build();
    let start = std::time::Instant::now();
    let warm: Vec<EngineOutcome> = (0..RUNS)
        .map(|_| runtime.run(&program, &args).unwrap())
        .collect();
    let warm_us = start.elapsed().as_secs_f64() * 1e6;

    let start = std::time::Instant::now();
    let cold: Vec<EngineOutcome> = (0..RUNS)
        .map(|_| cold_native_run(&program, &args, workers))
        .collect();
    let cold_us = start.elapsed().as_secs_f64() * 1e6;
    eprintln!(
        "{RUNS} runs on {workers} workers: warm runtime {warm_us:.0} us, \
         cold runtimes {cold_us:.0} us ({:.2}x)",
        cold_us / warm_us
    );

    let pool_id = runtime.pool_id().expect("native runtime owns a pool");
    let first = warm[0].partition().expect("pooled outcome");
    for (i, outcome) in warm.iter().enumerate() {
        assert_eq!(native_stats(outcome).pool_id, pool_id, "warm run {i}");
        assert!(
            std::ptr::eq(outcome.partition().unwrap(), first),
            "warm run {i} missed the prepared cache"
        );
    }
    assert_eq!(runtime.prepared_cache_size(), 1);

    let cold_pools: HashSet<u64> = cold.iter().map(|o| native_stats(o).pool_id).collect();
    assert_eq!(
        cold_pools.len(),
        RUNS,
        "every cold runtime spawns its own pool"
    );
    assert!(!cold_pools.contains(&pool_id));
    for (i, outcome) in cold.iter().enumerate().skip(1) {
        assert!(
            !std::ptr::eq(outcome.partition().unwrap(), cold[0].partition().unwrap()),
            "cold run {i} shared a preparation"
        );
    }
}

#[test]
fn one_prepared_handle_serves_run_run_many_and_many_threads() {
    // The same PreparedProgram handle through every submission path — and
    // every result identical to the sequential oracle.
    let program = pods::compile(pods_workloads::STENCIL).unwrap();
    let oracle12 = oracle_for(&program, &[Value::Int(12)]);
    let oracle16 = oracle_for(&program, &[Value::Int(16)]);
    let runtime = Runtime::builder(EngineKind::Native).workers(4).build();
    let prepared = runtime.prepare(&program);

    // run
    let outcome = runtime.run(&prepared, &[Value::Int(12)]).unwrap();
    assert_matches_oracle("prepared run", &outcome, &oracle12);

    // run_many (homogeneous prepared batch)
    let a12: &[Value] = &[Value::Int(12)];
    let a16: &[Value] = &[Value::Int(16)];
    let results = runtime.run_many(&[(&prepared, a12), (&prepared, a16), (&prepared, a12)]);
    for (i, (result, oracle)) in results
        .iter()
        .zip([&oracle12, &oracle16, &oracle12])
        .enumerate()
    {
        let outcome = result
            .as_ref()
            .unwrap_or_else(|e| panic!("prepared run_many job {i} failed: {e}"));
        assert_matches_oracle(&format!("prepared run_many job {i}"), outcome, oracle);
    }

    // many OS threads sharing one handle and one runtime
    std::thread::scope(|scope| {
        for t in 0..6 {
            let (runtime, prepared) = (&runtime, &prepared);
            let (oracle12, oracle16) = (&oracle12, &oracle16);
            scope.spawn(move || {
                for k in 0..3 {
                    let (args, oracle) = if (t + k) % 2 == 0 {
                        (a12, oracle12)
                    } else {
                        (a16, oracle16)
                    };
                    let outcome = runtime.run(prepared, args).unwrap();
                    assert_matches_oracle(&format!("thread {t} run {k}"), &outcome, oracle);
                }
            });
        }
    });
}

#[test]
fn prepared_handles_cross_runtimes_with_different_worker_counts() {
    // Partitioning is machine-size-independent, so a handle prepared on a
    // 1-worker runtime runs on 2- and 4-worker runtimes (and on modelled
    // runtimes), matching the oracle everywhere.
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let oracle = oracle_for(&program, &[Value::Int(16)]);
    let one = Runtime::builder(EngineKind::Native).workers(1).build();
    let prepared = one.prepare(&program);
    for workers in [2, 4] {
        let other = Runtime::builder(EngineKind::Native)
            .workers(workers)
            .build();
        let outcome = other.run(&prepared, &[Value::Int(16)]).unwrap();
        assert_matches_oracle(
            &format!("prepared on 1, run on {workers}"),
            &outcome,
            &oracle,
        );
    }
    let sim = Runtime::builder(EngineKind::Sim).workers(2).build();
    let outcome = sim.run(&prepared, &[Value::Int(16)]).unwrap();
    assert_matches_oracle("prepared handle on a sim runtime", &outcome, &oracle);
}

#[test]
fn prepared_handles_reject_mismatched_partition_configs() {
    // A handle prepared under the default partition configuration must not
    // silently run on a runtime configured for another one — that would
    // execute a differently-rewritten program than the runtime promises.
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let default_rt = Runtime::builder(EngineKind::Native).workers(2).build();
    let prepared = default_rt.prepare(&program);
    assert_eq!(
        prepared.partition_config(),
        pods::PartitionConfig::default()
    );
    let chunked_rt = Runtime::builder(EngineKind::Native)
        .workers(2)
        .chunk_policy(pods::ChunkPolicy::Fixed(4))
        .build();
    let err = chunked_rt
        .run(&prepared, &[Value::Int(8)])
        .expect_err("mismatched partition config must be rejected");
    assert!(
        matches!(err, pods::PodsError::PreparedMismatch),
        "unexpected error: {err:?}"
    );
    assert!(
        err.to_string().contains("partition"),
        "error must explain the mismatch: {err}"
    );
    // The chunked runtime still runs the raw program (it prepares its
    // own), and the default runtime still accepts its own handle.
    assert!(chunked_rt.run(&program, &[Value::Int(8)]).is_ok());
    assert!(default_rt.run(&prepared, &[Value::Int(8)]).is_ok());

    // The rejection is uniform across engines: a modelled runtime with a
    // mismatched partitioner config refuses the handle just like the
    // native runtime does, instead of silently running its own rewrite.
    let sim_chunked = Runtime::builder(EngineKind::Sim)
        .workers(2)
        .chunk_policy(pods::ChunkPolicy::Fixed(4))
        .build();
    assert!(matches!(
        sim_chunked.run(&prepared, &[Value::Int(8)]),
        Err(pods::PodsError::PreparedMismatch)
    ));
}

#[test]
fn prepared_handles_reject_mismatched_chunk_grains() {
    // The chunk grain is part of the partitioning a handle was prepared
    // under: a handle chunked at grain 4 must not silently run on a
    // runtime that promises unchunked (or auto-tuned) instances, and vice
    // versa — the rewritten SP programs differ.
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let oracle = oracle_for(&program, &[Value::Int(16)]);
    let coarse = Runtime::builder(EngineKind::Native)
        .workers(2)
        .chunk_policy(pods::ChunkPolicy::Fixed(4))
        .build();
    let prepared = coarse.prepare(&program);

    let fine = Runtime::builder(EngineKind::Native).workers(2).build();
    let err = fine
        .run(&prepared, &[Value::Int(16)])
        .expect_err("mismatched chunk grain must be rejected");
    assert!(
        matches!(err, pods::PodsError::PreparedMismatch),
        "unexpected error: {err:?}"
    );
    assert!(
        err.to_string().contains("partition"),
        "error must explain the mismatch: {err}"
    );
    let auto = Runtime::builder(EngineKind::Native)
        .workers(2)
        .chunk_policy(pods::ChunkPolicy::Auto)
        .build();
    assert!(matches!(
        auto.run(&prepared, &[Value::Int(16)]),
        Err(pods::PodsError::PreparedMismatch)
    ));
    // The rejection is uniform across engines: a modelled runtime with a
    // mismatched grain refuses the handle just like the native runtime
    // does, instead of silently running its own rewrite, and still runs
    // the raw program, which it prepares itself.
    let sim_fine = Runtime::builder(EngineKind::Sim).workers(2).build();
    assert!(matches!(
        sim_fine.run(&prepared, &[Value::Int(16)]),
        Err(pods::PodsError::PreparedMismatch)
    ));
    assert!(sim_fine.run(&program, &[Value::Int(16)]).is_ok());

    // A *matching* grain is engine-portable: the same chunked handle runs
    // on native, sim, and async runtimes configured for grain 4, matching
    // the oracle everywhere.
    for kind in [EngineKind::Native, EngineKind::Sim, EngineKind::AsyncCoop] {
        let runtime = Runtime::builder(kind)
            .workers(2)
            .chunk_policy(pods::ChunkPolicy::Fixed(4))
            .build();
        let outcome = runtime.run(&prepared, &[Value::Int(16)]).unwrap();
        assert_matches_oracle(
            &format!("chunked handle on {}", kind.name()),
            &outcome,
            &oracle,
        );
    }
}

#[test]
fn auto_grain_runs_share_one_preparation() {
    // A preparation is a pure function of (program, configuration): under
    // ChunkPolicy::Auto on a pooled runtime, raw runs of a program and an
    // explicit prepare all resolve to one preparation, sized from the loop
    // body at prepare time, and every run spawns the same instances.
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let args = [Value::Int(64)];
    let oracle = oracle_for(&program, &args);
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .chunk_policy(pods::ChunkPolicy::Auto)
        .build();

    let pinned = runtime.prepare(&program);
    assert!(
        pinned.partition_report().chunked_spawns > 0,
        "fill's inner loop must be chunked"
    );
    assert!(pinned.partition_report().super_ops > 0, "and specialized");
    let instances: Vec<u64> = (0..3)
        .map(|run| {
            let outcome = runtime.run(&program, &args).unwrap();
            assert_matches_oracle(&format!("auto grain, raw run {run}"), &outcome, &oracle);
            let stats = native_stats(&outcome);
            assert!(stats.iterations_per_instance() > 1.0);
            assert!(stats.super_ops > 0);
            stats.instances
        })
        .collect();
    let again = runtime.prepare(&program);
    assert!(
        pinned.same_preparation(&again),
        "raw runs must leave the cached preparation as it was"
    );
    assert_eq!(runtime.prepared_cache_size(), 1);
    let prepared_run = native_stats(&runtime.run(&pinned, &args).unwrap()).instances;
    assert_eq!(
        instances, [prepared_run; 3],
        "every run of one preparation spawns the same instances"
    );
}

#[test]
fn specialization_is_part_of_prepared_identity() {
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let oracle = oracle_for(&program, &[Value::Int(16)]);
    let on = Runtime::builder(EngineKind::Native)
        .workers(2)
        .specialize(true)
        .build();
    let off = Runtime::builder(EngineKind::Native)
        .workers(2)
        .specialize(false)
        .build();

    let prepared_on = on.prepare(&program);
    assert!(prepared_on.partition_report().super_ops > 0);
    let prepared_off = off.prepare(&program);
    assert_eq!(prepared_off.partition_report().super_ops, 0);

    // Handles only run under the setting they were prepared with.
    assert!(matches!(
        off.run(&prepared_on, &[Value::Int(16)]),
        Err(pods::PodsError::PreparedMismatch)
    ));
    assert!(matches!(
        on.run(&prepared_off, &[Value::Int(16)]),
        Err(pods::PodsError::PreparedMismatch)
    ));

    // Under their own runtimes both match the oracle, and only the
    // specialized run dispatches super-ops.
    let out_on = on.run(&prepared_on, &[Value::Int(16)]).unwrap();
    assert_matches_oracle("specialized", &out_on, &oracle);
    assert!(native_stats(&out_on).super_ops > 0);
    let out_off = off.run(&prepared_off, &[Value::Int(16)]).unwrap();
    assert_matches_oracle("interpreted", &out_off, &oracle);
    assert_eq!(native_stats(&out_off).super_ops, 0);
}

#[test]
fn auto_grain_keeps_multi_worker_small_runs_competitive() {
    // The small-n scaling fix: at sizes where per-instance overhead used
    // to swamp the win of distribution, auto grain keeps a run competitive
    // by folding iterations into fewer instances than one worker spawns at
    // grain 1, on one worker and on four alike, and every run still
    // matches the oracle. Counted, not clocked, so it holds on any host;
    // the time a job takes is measured by the standing benchmark.
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let args = [Value::Int(24)];
    let oracle = oracle_for(&program, &args);

    let cold = |workers: usize, chunk: pods::ChunkPolicy| -> NativeStats {
        let outcome = Runtime::builder(EngineKind::Native)
            .workers(workers)
            .chunk_policy(chunk)
            .build()
            .run(&program, &args)
            .unwrap();
        assert_matches_oracle(
            &format!("{workers} workers, chunk {chunk}"),
            &outcome,
            &oracle,
        );
        let stats = native_stats(&outcome);
        assert_eq!(stats.workers, workers);
        stats
    };

    let fine = cold(1, pods::ChunkPolicy::Fixed(1));
    assert_eq!(fine.chunk_iterations, 0, "grain 1 runs unchunked");
    for workers in [1, 4] {
        let auto = cold(workers, pods::ChunkPolicy::Auto);
        assert!(
            auto.instances < fine.instances,
            "auto grain on {workers} workers: {} instances vs {} at grain 1",
            auto.instances,
            fine.instances
        );
        assert!(auto.iterations_per_instance() > 1.0);
    }
}

#[test]
fn raw_submissions_share_one_cached_preparation() {
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
    assert_eq!(runtime.prepared_cache_size(), 0);
    runtime.run(&program, &[Value::Int(8)]).unwrap();
    assert_eq!(
        runtime.prepared_cache_size(),
        1,
        "a raw run must seed the cache"
    );
    // Repeat runs and explicit prepares all resolve to the same preparation.
    let p1 = runtime.prepare(&program);
    runtime.run(&program, &[Value::Int(12)]).unwrap();
    let p2 = runtime.prepare(&program);
    assert!(p1.same_preparation(&p2), "cache hit must share the Arc");
    assert_eq!(p1.fingerprint(), p2.fingerprint());
    assert_eq!(p1.identity(), program.identity());
    assert_eq!(runtime.prepared_cache_size(), 1);
}

/// `count` distinct programs; program `k` returns `n + k`.
fn offset_programs(count: usize) -> Vec<CompiledProgram> {
    (0..count)
        .map(|k| pods::compile(&format!("def main(n) {{ return n + {k}; }}")).unwrap())
        .collect()
}

#[test]
fn prepared_cache_evicts_least_recently_used() {
    // One program more than the cache holds: the program touched last
    // before the overflow survives, the least recently used one is evicted.
    let programs = offset_programs(PREPARED_CACHE + 1);
    let runtime = Runtime::builder(EngineKind::Native).workers(1).build();
    let first = runtime.prepare(&programs[0]);
    let second = runtime.prepare(&programs[1]);
    for program in &programs[2..PREPARED_CACHE] {
        runtime.prepare(program);
    }
    // Touch program 0 so program 1 is the LRU victim when the last arrives.
    let hit = runtime.prepare(&programs[0]);
    assert!(first.same_preparation(&hit));
    runtime.prepare(&programs[PREPARED_CACHE]);
    assert_eq!(runtime.prepared_cache_size(), PREPARED_CACHE);
    let again = runtime.prepare(&programs[0]);
    assert!(
        first.same_preparation(&again),
        "recently-used entry must survive eviction"
    );
    assert!(
        !second.same_preparation(&runtime.prepare(&programs[1])),
        "the least recently used entry is evicted"
    );
    // And everything still runs correctly from whatever cache state.
    for (k, program) in programs.iter().enumerate() {
        let outcome = runtime.run(program, &[Value::Int(10)]).unwrap();
        assert_eq!(outcome.return_value, Some(Value::Int(10 + k as i64)));
    }
}

#[test]
fn capacity_one_cache_thrashes_correctly_and_evicted_handles_stay_valid() {
    // Cycling one program more than the cache holds under `run_many`
    // thrashes it (every submission re-prepares — the documented cost of
    // an undersized cache), every job still computes the right result,
    // the survivor is the most recently used program, and a handle whose
    // cache entry was evicted keeps running (no stale state).
    let programs = offset_programs(PREPARED_CACHE + 1);
    let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
    let first = runtime.prepare(&programs[0]);
    assert_eq!(runtime.prepared_cache_size(), 1);

    let args: &[Value] = &[Value::Int(10)];
    let jobs: Vec<(&CompiledProgram, &[Value])> = programs
        .iter()
        .chain(&programs)
        .map(|program| (program, args))
        .collect();
    let values: Vec<_> = runtime
        .run_many(&jobs)
        .into_iter()
        .map(|r| r.unwrap().return_value)
        .collect();
    let expected: Vec<_> = (0..2 * programs.len())
        .map(|i| Some(Value::Int(10 + (i % programs.len()) as i64)))
        .collect();
    assert_eq!(values, expected);
    assert_eq!(
        runtime.prepared_cache_size(),
        PREPARED_CACHE,
        "the cache never exceeds its capacity"
    );

    // Eviction order: the last program was submitted last, so it survived.
    // Preparing it is a cache hit (shared Arc); preparing program 0, the
    // least recently used, must rebuild.
    let last = &programs[PREPARED_CACHE];
    let pl1 = runtime.prepare(last);
    let pl2 = runtime.prepare(last);
    assert!(
        pl1.same_preparation(&pl2),
        "most recently used program must still be cached"
    );
    let first_again = runtime.prepare(&programs[0]);
    assert!(
        !first.same_preparation(&first_again),
        "program 0's cache entry was evicted, so preparing it again rebuilds"
    );
    // The evicted handle itself is untouched by eviction.
    assert_eq!(
        runtime.run(&first, &[Value::Int(5)]).unwrap().return_value,
        Some(Value::Int(5))
    );
}

#[test]
fn huge_delivery_batches_never_strand_parked_instances() {
    // A batch size far larger than any workload's wake-up count means the
    // cap alone never forces a flush — only the task-boundary flushes keep
    // consumers alive. If a boundary were missed, these runs would deadlock
    // (the differential suite covers batch sizes 1 and 16; this covers
    // "effectively unbounded").
    for (name, source, n) in [
        ("stencil", pods_workloads::STENCIL, 16i64),
        ("recurrence", pods_workloads::RECURRENCE, 48),
        ("matmul", pods_workloads::MATMUL, 5),
    ] {
        let program = pods::compile(source).unwrap();
        let oracle = oracle_for(&program, &[Value::Int(n)]);
        let runtime = Runtime::builder(EngineKind::Native)
            .workers(4)
            .delivery_batch(1 << 20)
            .build();
        let outcome = runtime
            .run(&program, &[Value::Int(n)])
            .unwrap_or_else(|e| panic!("{name} with huge batch failed: {e}"));
        assert_matches_oracle(&format!("{name} with huge batch"), &outcome, &oracle);
    }
}

#[test]
fn dropping_a_batching_runtime_cancels_outstanding_jobs_cleanly() {
    // Same drop semantics as the unbatched runtime: a deep backlog is cut
    // short, every waiter resolves (completed or cancelled), nothing hangs
    // on an unflushed delivery buffer.
    let program = pods::compile(pods_workloads::STENCIL).unwrap();
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .delivery_batch(64)
        .build();
    let args = [Value::Int(24)];
    let prepared = runtime.prepare(&program);
    let handles: Vec<_> = (0..16)
        .map(|_| runtime.submit(&prepared, &args).unwrap())
        .collect();
    drop(runtime);
    for (i, handle) in handles.into_iter().enumerate() {
        // Must resolve promptly — completed jobs return results, the rest
        // report cancellation. Either way, no waiter is stranded.
        match handle.wait() {
            Ok(outcome) => assert!(
                outcome.returned_array().unwrap().is_complete(),
                "job {i} completed with holes"
            ),
            Err(e) => assert!(
                e.to_string().contains("cancelled"),
                "job {i}: unexpected error {e}"
            ),
        }
    }
}

#[test]
fn async_runtime_reuses_one_executor_and_matches_oracle() {
    // The cooperative engine behind the same Runtime surface: sequential
    // runs share one executor (pool identity + job sequencing), every
    // result matches the oracle, and the scheduler counters balance.
    let program = pods::compile(pods_workloads::RECURRENCE).unwrap();
    let oracle = oracle_for(&program, &[Value::Int(32)]);
    let runtime = Runtime::builder(EngineKind::AsyncCoop).workers(4).build();
    let first = runtime.run(&program, &[Value::Int(32)]).unwrap();
    let second = runtime.run(&program, &[Value::Int(32)]).unwrap();
    assert_matches_oracle("async run 1", &first, &oracle);
    assert_matches_oracle("async run 2", &second, &oracle);
    let (s1, s2) = (async_stats(&first), async_stats(&second));
    assert_eq!(s1.pool_id, runtime.pool_id().expect("async runtime pool"));
    assert_eq!(s1.pool_id, s2.pool_id, "executor was not reused");
    assert_eq!((s1.job_seq, s2.job_seq), (1, 2));
    // On a completed run every suspension was resumed.
    for s in [s1, s2] {
        assert_eq!(s.suspensions, s.resumptions);
        assert!(s.polls >= s.instances + s.resumptions);
    }
    // Whether four workers suspend at all depends on the schedule (on two
    // cores they often run the instances in dependence order). One worker
    // must: it keeps running `main` until it blocks, and `main` reads
    // `src[0]` before the fill loop it spawned has run.
    let one = Runtime::builder(EngineKind::AsyncCoop).workers(1).build();
    let outcome = one.run(&program, &[Value::Int(32)]).unwrap();
    assert_matches_oracle("async run on one worker", &outcome, &oracle);
    let s = async_stats(&outcome);
    assert!(s.suspensions > 0, "recurrence must suspend instances");
    assert_eq!(s.suspensions, s.resumptions);
    assert!(s.polls >= s.instances + s.resumptions);
}

#[test]
fn huge_async_delivery_batches_never_strand_a_waker() {
    // Mirror of the native huge-batch no-strand test: a `delivery_batch`
    // far larger than any workload's outstanding waiter count means the
    // cap alone never forces a flush — only the task-boundary flushes keep
    // suspended tasks alive. A missed boundary would strand a waker in the
    // worker's buffer and deadlock these runs.
    for (name, source, n) in [
        ("stencil", pods_workloads::STENCIL, 16i64),
        ("recurrence", pods_workloads::RECURRENCE, 48),
        ("matmul", pods_workloads::MATMUL, 5),
    ] {
        let program = pods::compile(source).unwrap();
        let oracle = oracle_for(&program, &[Value::Int(n)]);
        let runtime = Runtime::builder(EngineKind::AsyncCoop)
            .workers(4)
            .delivery_batch(1 << 20)
            .build();
        let outcome = runtime
            .run(&program, &[Value::Int(n)])
            .unwrap_or_else(|e| panic!("async {name} with huge batch failed: {e}"));
        assert_matches_oracle(&format!("async {name} with huge batch"), &outcome, &oracle);
        let stats = async_stats(&outcome);
        assert_eq!(
            stats.suspensions, stats.resumptions,
            "async {name}: a waker was stranded"
        );
    }
}

#[test]
fn async_failures_are_job_scoped_and_deadlocks_are_detected() {
    // The async engine's exact deadlock detection plus job isolation: a
    // deadlocked job fails alone, the executor keeps serving, and the
    // deadlock error names the awaited slot.
    let deadlock = pods::compile("def main(n) { a = array(n); a[0] = 1; return a[1]; }").unwrap();
    let good = pods::compile(pods_workloads::FILL).unwrap();
    let oracle = oracle_for(&good, &[Value::Int(12)]);

    let runtime = Runtime::builder(EngineKind::AsyncCoop).workers(2).build();
    let bad_handle = runtime.submit(&deadlock, &[Value::Int(4)]).unwrap();
    let good_handle = runtime.submit(&good, &[Value::Int(12)]).unwrap();
    let err = bad_handle.wait().expect_err("deadlock must be reported");
    assert!(
        matches!(
            err,
            pods::PodsError::Simulation(pods::SimulationError::Deadlock { .. })
        ),
        "unexpected error: {err:?}"
    );
    assert!(
        err.to_string().contains("awaiting"),
        "deadlock must name the awaited slot: {err}"
    );
    let outcome = good_handle.wait().unwrap();
    assert_matches_oracle("good async job next to deadlocked job", &outcome, &oracle);

    for _ in 0..3 {
        assert!(runtime.run(&deadlock, &[Value::Int(4)]).is_err());
    }
    let after = runtime.run(&good, &[Value::Int(12)]).unwrap();
    assert_matches_oracle("async after repeated failures", &after, &oracle);
}

#[test]
fn dropping_an_async_runtime_cancels_outstanding_jobs() {
    // Drop-cancellation parity with the native pool: a deep backlog on the
    // cooperative executor is cut short, every waiter resolves (completed
    // or cancelled), nothing hangs on a suspended task or unflushed waker.
    let program = pods::compile(pods_workloads::STENCIL).unwrap();
    let runtime = Runtime::builder(EngineKind::AsyncCoop)
        .workers(2)
        .delivery_batch(64)
        .build();
    let args = [Value::Int(24)];
    let prepared = runtime.prepare(&program);
    let handles: Vec<_> = (0..16)
        .map(|_| runtime.submit(&prepared, &args).unwrap())
        .collect();
    drop(runtime);
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(outcome) => assert!(
                outcome.returned_array().unwrap().is_complete(),
                "async job {i} completed with holes"
            ),
            Err(e) => assert!(
                e.to_string().contains("cancelled"),
                "async job {i}: unexpected error {e}"
            ),
        }
    }
}

#[test]
fn dropping_a_runtime_cancels_nothing_already_collected() {
    // Handles waited before the drop see their results; the drop itself
    // must not hang even with completed jobs behind it.
    let program = pods::compile("def main(n) { return n * 2; }").unwrap();
    let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
    let handle = runtime.submit(&program, &[Value::Int(21)]).unwrap();
    assert_eq!(handle.wait().unwrap().return_value, Some(Value::Int(42)));
    drop(runtime);
}

#[test]
fn dropping_a_runtime_cancels_outstanding_jobs_instead_of_hanging() {
    // Submit a deep backlog and drop the runtime immediately: the drop must
    // return promptly (not run the whole backlog), every handle must
    // resolve (no hung waiters), and the backlog must not have been
    // silently executed to completion — the tail gets cancellation errors.
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
    let args = [Value::Int(64)];
    let handles: Vec<_> = (0..20)
        .map(|_| runtime.submit(&program, &args).unwrap())
        .collect();
    drop(runtime);
    let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    let cancelled = results.iter().filter(|r| r.is_err()).count();
    assert!(
        cancelled >= 1,
        "dropping with a 20-job backlog must cancel the tail, \
         but all jobs ran to completion"
    );
    for r in results.into_iter().flatten() {
        // Jobs that did complete before the teardown are intact.
        assert!(r.returned_array().unwrap().is_complete());
    }
}

#[test]
fn detached_handles_still_run_their_jobs_to_completion() {
    // Dropping a JobHandle without waiting must not cancel or leak the job:
    // it still executes, is counted in the metrics, and the pool keeps
    // serving afterwards.
    const JOBS: u64 = 8;
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
    let prepared = runtime.prepare(&program);
    for _ in 0..JOBS {
        let handle = runtime.submit(&prepared, &[Value::Int(24)]).unwrap();
        drop(handle); // detach: nobody will ever wait on this job
    }
    // Drain: completion is observable through the metrics alone.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let m = runtime.metrics();
        if m.completed + m.rejected + m.cancelled == m.submitted
            && m.queue_depth == 0
            && m.in_flight == 0
        {
            assert_eq!(m.submitted, JOBS);
            assert_eq!(m.completed, JOBS, "detached jobs must still complete");
            assert_eq!(m.rejected + m.cancelled, 0);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "detached jobs never drained: {m:?}"
        );
        std::thread::yield_now();
    }
    // The runtime is fully reusable after the detached burst.
    let outcome = runtime.run(&prepared, &[Value::Int(24)]).unwrap();
    assert!(outcome.returned_array().unwrap().is_complete());
    assert_eq!(runtime.metrics().completed, JOBS + 1);
}

#[test]
fn cancel_stops_a_queued_job_and_counts_it() {
    // A narrow dispatch window keeps the victim in the admission queue
    // behind a heavy blocker; cancelling it must resolve its waiter with a
    // cancellation error and count it as cancelled, never run it.
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .dispatch_window(1)
        .build();
    let prepared = runtime.prepare(&program);
    let blocker = runtime.submit(&prepared, &[Value::Int(2048)]).unwrap();
    let victim = runtime.submit(&prepared, &[Value::Int(2048)]).unwrap();
    victim.cancel();
    let err = victim.wait().expect_err("cancelled job must not succeed");
    assert!(
        err.to_string().contains("cancelled"),
        "unexpected error: {err}"
    );
    assert!(blocker.wait().is_ok(), "the blocker is unaffected");
    let m = runtime.metrics();
    assert_eq!(m.cancelled, 1);
    assert_eq!(m.completed, 1);
    assert_eq!(m.submitted, m.completed + m.rejected + m.cancelled);
}

#[test]
fn try_submit_rejects_at_capacity_with_queue_full() {
    // capacity 1 + window 1 + a heavy blocker: the first job dispatches,
    // the second fills the queue, and a zero-wait submission is rejected
    // immediately.
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let runtime = Runtime::builder(EngineKind::Native)
        .workers(2)
        .dispatch_window(1)
        .admission_capacity(1)
        .build();
    let prepared = runtime.prepare(&program);
    let blocker = runtime.submit(&prepared, &[Value::Int(2048)]).unwrap();
    let queued = runtime.submit(&prepared, &[Value::Int(16)]).unwrap();
    let err = runtime
        .submit_within(
            ClientId::ANONYMOUS,
            &prepared,
            &[Value::Int(16)],
            Duration::ZERO,
        )
        .expect_err("the queue is full");
    assert!(
        matches!(
            err,
            pods::PodsError::QueueFull {
                capacity: 1,
                depth: 1
            }
        ),
        "unexpected error: {err:?}"
    );
    // A bounded-wait submit times out against the same full queue.
    let err = runtime
        .submit_within(
            ClientId::ANONYMOUS,
            &prepared,
            &[Value::Int(16)],
            Duration::from_millis(10),
        )
        .expect_err("no slot frees within the timeout");
    assert!(matches!(err, pods::PodsError::QueueFull { .. }));
    assert!(blocker.wait().is_ok());
    assert!(queued.wait().is_ok());
    let m = runtime.metrics();
    assert_eq!(m.rejected, 2);
    assert_eq!(m.completed, 2);
    assert!(m.queue_depth_peak <= 1, "depth never exceeds capacity");
}

#[test]
fn store_stats_flow_from_jobs_into_engine_and_service_metrics() {
    // The I-structure store's live/peak counters surface per job (engine
    // stats) and as service-wide aggregates (Runtime::metrics).
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
    let outcome = runtime.run(&program, &[Value::Int(32)]).unwrap();
    let stats = native_stats(&outcome);
    assert!(stats.store.peak_arrays >= 1, "fill allocates an array");
    assert!(stats.store.peak_bytes > 0);
    assert_eq!(stats.store.live_arrays, stats.store.peak_arrays);
    let m = runtime.metrics();
    assert!(m.peak_live_arrays >= 1);
    assert!(m.peak_array_bytes > 0);
    assert!(m.arrays_allocated >= 1);
    assert!(m.p50_latency_us > 0.0, "completed jobs record latency");

    // Async parity: the same counters flow from the cooperative executor.
    let async_rt = Runtime::builder(EngineKind::AsyncCoop).workers(2).build();
    let outcome = async_rt.run(&program, &[Value::Int(32)]).unwrap();
    let stats = async_stats(&outcome);
    assert!(stats.store.peak_arrays >= 1);
    assert!(async_rt.metrics().peak_live_arrays >= 1);
}

#[test]
fn recycled_stores_serve_failed_cancelled_and_reshaped_jobs_like_new_ones() {
    // A pool keeps each finished job's I-structure store and reuses its
    // arrays for the next job. On one runtime per pooled engine, in order:
    // a job that fails mid-run with readers still parked, a job cancelled
    // while in flight, then SIMPLE at n = 16, 8, 16, so the array lengths
    // change between jobs. Every result must equal the oracle's, and every
    // job's store statistics must describe that job alone.
    let double_write = pods::compile(
        "def main(n) { a = array(n); b = array(n); \
         for i = 0 to n - 1 { a[0] = i; } \
         for i = 0 to n - 1 { b[i] = a[i] + 1; } return b; }",
    )
    .unwrap();
    let fill = pods::compile(pods_workloads::FILL).unwrap();
    let simple = pods::compile(pods_workloads::simple::SIMPLE).unwrap();
    let oracle_err = Runtime::builder(EngineKind::Seq)
        .options(RunOptions::default())
        .build()
        .run(&double_write, &[Value::Int(8)])
        .expect_err("the oracle rejects the double write");
    let violation = "single-assignment violation";
    assert!(oracle_err.to_string().contains(violation), "{oracle_err}");
    let simple_oracles: Vec<_> = [16, 8]
        .iter()
        .map(|&n| oracle_for(&simple, &[Value::Int(n)]))
        .collect();

    for kind in [EngineKind::Native, EngineKind::AsyncCoop] {
        let runtime = Runtime::builder(kind).workers(2).build();
        let err = runtime
            .run(&double_write, &[Value::Int(8)])
            .expect_err("the double write fails the job");
        assert!(
            matches!(
                err,
                pods::PodsError::Simulation(pods::SimulationError::Runtime(_))
            ) && err.to_string().contains(violation),
            "{kind}: {err}"
        );

        let args = [Value::Int(256)];
        let handle = runtime.submit(&fill, &args).unwrap();
        handle.cancel();
        match handle.wait() {
            Ok(outcome) => assert_matches_oracle(
                "job that beat its cancel",
                &outcome,
                &oracle_for(&fill, &args),
            ),
            Err(e) => assert!(e.to_string().contains("cancelled"), "{kind}: {e}"),
        }

        for n in [16, 8, 16] {
            let outcome = runtime.run(&simple, &[Value::Int(n)]).unwrap();
            let oracle = &simple_oracles[usize::from(n == 8)];
            assert_matches_oracle(&format!("{kind} SIMPLE n={n}"), &outcome, oracle);
            let store = match &outcome.stats {
                EngineStats::Native { stats, .. } => stats.store,
                EngineStats::AsyncCoop { stats, .. } => stats.store,
                other => panic!("pooled stats expected, got {other:?}"),
            };
            assert_eq!(
                (store.live_arrays, store.peak_arrays),
                (22, 22),
                "{kind} SIMPLE n={n}: one job's arrays"
            );
        }
    }
}
