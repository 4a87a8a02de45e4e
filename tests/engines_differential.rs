//! Differential tests of the execution layer: every `pods_workloads` kernel
//! runs through every registered engine, and all engines must agree on the
//! returned value and the contents of every allocated array (the sequential
//! interpreter acts as the oracle). This is the safety net that lets the
//! engines evolve independently: a scheduling bug in the native thread pool
//! or a protocol bug in the simulator shows up as a cross-engine diff.
//!
//! Runs go through the typed [`Runtime`] API (one runtime per engine kind
//! and machine size), which also exercises the persistent native pool on
//! every workload.

use pods::{ChunkPolicy, EngineKind, EngineStats, RunOptions, Runtime, Value};

/// The workload matrix: name, source, args, and a small machine-size sweep.
fn workloads() -> Vec<(&'static str, &'static str, Vec<Value>)> {
    vec![
        ("paper_example", pods_workloads::PAPER_EXAMPLE, vec![]),
        ("fill", pods_workloads::FILL, vec![Value::Int(12)]),
        ("matmul", pods_workloads::MATMUL, vec![Value::Int(6)]),
        ("stencil", pods_workloads::STENCIL, vec![Value::Int(12)]),
        (
            "recurrence",
            pods_workloads::RECURRENCE,
            vec![Value::Int(48)],
        ),
        (
            "simple",
            pods_workloads::simple::SIMPLE,
            vec![Value::Int(8)],
        ),
    ]
}

fn values_close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan())
}

/// The engines under differential test. By default every registered engine
/// is swept; setting `PODS_ENGINE` restricts the sweep to that one engine
/// (still checked against the sequential oracle), so CI can re-run the full
/// workload matrix focused on each pooled scheduler in turn:
/// `PODS_ENGINE=native cargo test --test engines_differential`.
fn engines_under_test() -> Vec<EngineKind> {
    match std::env::var("PODS_ENGINE") {
        Ok(name) => {
            let kind: EngineKind = name.parse().unwrap_or_else(|e| panic!("PODS_ENGINE: {e}"));
            vec![kind]
        }
        Err(_) => EngineKind::ALL.to_vec(),
    }
}

/// Runs one workload through every engine on several machine sizes and
/// checks full agreement with the sequential oracle.
fn assert_engines_agree(name: &str, source: &str, args: &[Value], pe_counts: &[usize]) {
    let program = pods::compile(source).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let oracle = Runtime::builder(EngineKind::Seq)
        .options(RunOptions::default())
        .build()
        .run(&program, args)
        .unwrap_or_else(|e| panic!("{name}: oracle run failed: {e}"));

    for kind in engines_under_test() {
        let engine = kind.name();
        // One runtime per (engine, machine size, delivery batch, grain,
        // specialization): the native pool / async executor is reused
        // across every workload size swept below. Both pooled engines also
        // run with unbatched (1) and batched (16) wake-up delivery — the
        // batching must be invisible to results — and every engine
        // additionally sweeps the chunk grain (1 = unchunked, a fixed 4,
        // and the auto-tuned grain) at the batched delivery, since chunking
        // must be equally invisible. Every configuration then runs both
        // with and without prepare-time specialization: super-op dispatch
        // must be just as invisible as batching and chunking.
        let batches: &[usize] = if kind.is_pooled() { &[1, 16] } else { &[16] };
        let mut configs: Vec<(usize, ChunkPolicy, bool)> = Vec::new();
        for spec in [true, false] {
            configs.extend(batches.iter().map(|&b| (b, ChunkPolicy::Fixed(1), spec)));
            configs.push((16, ChunkPolicy::Fixed(4), spec));
            configs.push((16, ChunkPolicy::Auto, spec));
        }
        for &pes in pe_counts {
            for &(batch, chunk, spec) in &configs {
                let runtime = Runtime::builder(kind)
                    .workers(pes)
                    .delivery_batch(batch)
                    .chunk_policy(chunk)
                    .specialize(spec)
                    .build();
                let outcome = runtime.run(&program, args).unwrap_or_else(|e| {
                    panic!(
                        "{name}: engine `{engine}` on {pes} PEs \
                         (batch {batch}, chunk {chunk}, specialize {spec}) failed: {e}"
                    )
                });

                // Return values agree. Array references are compared through
                // the arrays they denote (allocation *ids* legitimately differ
                // across engines: the simulator's split-phase allocations can
                // complete out of program order).
                let label = format!("{name}/{engine}/{pes}/batch{batch}/chunk{chunk}/spec{spec}");
                match (&oracle.return_value, &outcome.return_value) {
                    (Some(Value::ArrayRef(_)), Some(Value::ArrayRef(_))) => {
                        let a = oracle.returned_array().expect("oracle returned array");
                        let b = outcome.returned_array().expect("engine returned array");
                        assert_eq!(a.name, b.name, "{label}: returned array identity");
                    }
                    (Some(a), Some(b)) => {
                        if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
                            assert!(
                                values_close(x, y),
                                "{label}: return value {y} != oracle {x}"
                            );
                        } else {
                            assert_eq!(a, b, "{label}: return value mismatch");
                        }
                    }
                    (a, b) => assert_eq!(a, b, "{label}: return value presence"),
                }

                // Every array the oracle allocated exists (matched by source
                // name) with identical shape and element-wise identical
                // contents.
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
        }
    }
}

#[test]
fn paper_example_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(0);
    assert_engines_agree(name, src, &args, &[1, 2, 4]);
}

#[test]
fn fill_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(1);
    assert_engines_agree(name, src, &args, &[1, 2, 4]);
}

#[test]
fn matmul_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(2);
    assert_engines_agree(name, src, &args, &[1, 4]);
}

#[test]
fn stencil_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(3);
    assert_engines_agree(name, src, &args, &[1, 4]);
}

#[test]
fn recurrence_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(4);
    assert_engines_agree(name, src, &args, &[1, 4]);
}

#[test]
fn simple_agrees_across_all_engines() {
    let (name, src, args) = workloads().remove(5);
    assert_engines_agree(name, src, &args, &[1, 2, 4]);
}

/// A rank-5 array: one dimension more than the instruction core resolves
/// on the stack, so every access below takes the heap-spill path — through
/// the interpreter, the fused super-op store and the chunk driver alike.
/// `last` is the index of the store that `main`'s caller aims out of range.
const RANK5: &str = r#"
    def main(n, last) {
        t = tensor(2, 2, 2, 2, n);
        for i = 0 to 1 {
            for j = 0 to 1 {
                for k = 0 to n - 1 {
                    t[i, j, 0, 0, k] = i * 100 + j * 10 + k;
                    t[i, j, 0, 1, k] = t[i, j, 0, 0, k] + 0.5;
                    t[i, j, 1, 0, k] = k - i;
                }
            }
        }
        t[1, 0, 1, 1, last] = 7;
        return t[1, 1, 0, 1, n - 1] + t[0, 1, 1, 0, 0] + t[1, 0, 1, 1, last];
    }
"#;

#[test]
fn rank_above_the_inline_index_capacity_agrees_across_all_engines() {
    let args = [Value::Int(3), Value::Int(2)];
    assert_engines_agree("rank5", RANK5, &args, &[1, 2, 4]);
}

#[test]
fn out_of_bounds_above_the_inline_index_capacity_is_reported_alike() {
    // The same program with its last store one past the innermost extent.
    // Every engine running the SP program reports the core's canonical
    // diagnostic, byte for byte, spilled indices included; the oracle words
    // the same fault its own way.
    let program = pods::compile(RANK5).unwrap();
    let args = [Value::Int(3), Value::Int(3)];
    for kind in engines_under_test() {
        for spec in [true, false] {
            let runtime = Runtime::builder(kind).workers(2).specialize(spec).build();
            let err = runtime.run(&program, &args).unwrap_err().to_string();
            let expected = match kind {
                EngineKind::Seq => "index [1, 0, 1, 1, 3] out of bounds for `t`",
                _ => "index [1, 0, 1, 1, 3] out of bounds for 2x2x2x2x3 array `t`",
            };
            assert!(
                err.contains(expected),
                "{kind} (specialize {spec}): `{err}` lacks `{expected}`"
            );
        }
    }
}

#[test]
fn unknown_engine_names_are_rejected() {
    let err = "warp-drive".parse::<EngineKind>().unwrap_err();
    assert!(matches!(err, pods::PodsError::UnknownEngine { .. }));
    assert!(err.to_string().contains("native"));
}

#[test]
fn parallel_engines_agree_on_partitioning_decisions() {
    // The three engines that run the partitioned program (sim, native,
    // async) must report identical decisions for identical options.
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let reports: Vec<_> = EngineKind::ALL
        .into_iter()
        .map(|kind| {
            let runtime = Runtime::builder(kind)
                .options(RunOptions::with_pes(4))
                .build();
            runtime.run(&program, &[Value::Int(8)]).unwrap()
        })
        .filter_map(|outcome| Some(outcome.partition()?.loops.clone()))
        .collect();
    assert_eq!(reports.len(), 3);
    assert!(reports.iter().all(|loops| *loops == reports[0]));
}

#[test]
fn async_engine_agrees_on_prepared_and_raw_submissions() {
    // The acceptance bar for the cooperative engine: raw programs,
    // prepared handles, and handles prepared on a *native* runtime (the
    // JobSpec is engine-portable) all match the oracle, batched and
    // unbatched.
    let program = pods::compile(pods_workloads::STENCIL).unwrap();
    let args = [Value::Int(12)];
    let oracle = Runtime::builder(EngineKind::Seq)
        .options(RunOptions::default())
        .build()
        .run(&program, &args)
        .unwrap();
    let expected = oracle.returned_array().unwrap().to_f64(f64::NAN);
    for batch in [1usize, 16] {
        let runtime = Runtime::builder(EngineKind::AsyncCoop)
            .workers(4)
            .delivery_batch(batch)
            .build();
        let prepared = runtime.prepare(&program);
        let native_rt = Runtime::builder(EngineKind::Native).workers(2).build();
        let foreign = native_rt.prepare(&program);
        for (label, outcome) in [
            ("raw", runtime.run(&program, &args).unwrap()),
            ("prepared", runtime.run(&prepared, &args).unwrap()),
            ("native-prepared", runtime.run(&foreign, &args).unwrap()),
        ] {
            let got = outcome.returned_array().unwrap().to_f64(f64::NAN);
            for (i, (a, b)) in expected.iter().zip(&got).enumerate() {
                assert!(
                    values_close(*a, *b),
                    "async/{label}/batch{batch}: [{i}] = {b}, oracle {a}"
                );
            }
        }
    }
}

#[test]
fn native_engine_counts_hold_on_every_worker_count() {
    // What a multi-worker run must get right, counted rather than clocked
    // so it holds on a 1-core host and a 64-core host alike: every worker
    // count computes the oracle's values, each job reports the workers it
    // was given, a runtime's repeated runs land on its one pool in
    // sequence, and at a fixed grain the instances differ only by the
    // copies a distributed loop sends to the extra workers (fill runs its
    // one distributed spawn once per job). The wall-clock speed-up is
    // measured by the standing benchmark (`native.speedup_w`).
    let program = pods::compile(pods_workloads::FILL).unwrap();
    let args = [Value::Int(96)];
    let oracle = Runtime::builder(EngineKind::Seq)
        .build()
        .run(&program, &args)
        .unwrap()
        .returned_array()
        .unwrap()
        .to_f64(f64::NAN);

    let mut on_one_worker = None;
    for workers in [1, 2, 4] {
        let runtime = Runtime::builder(EngineKind::Native)
            .workers(workers)
            .build();
        let pool_id = runtime.pool_id().expect("native runtime owns a pool");
        for job_seq in 1..=3 {
            let outcome = runtime.run(&program, &args).unwrap();
            let got = outcome.returned_array().unwrap().to_f64(f64::NAN);
            assert_eq!(got, oracle, "{workers} workers, run {job_seq}: values");
            let stats = match outcome.stats {
                EngineStats::Native { stats, .. } => stats,
                other => panic!("expected native stats, got {other:?}"),
            };
            assert_eq!(stats.workers, workers);
            assert_eq!((stats.pool_id, stats.job_seq), (pool_id, job_seq));

            let copies = outcome.partition().unwrap().distributed_spawns as u64;
            assert_eq!(copies, 1, "fill distributes one loop");
            let base = *on_one_worker.get_or_insert(stats.instances);
            assert_eq!(
                stats.instances,
                base + (workers as u64 - 1) * copies,
                "{workers} workers, run {job_seq}: instances at grain 1"
            );
        }
    }
}
