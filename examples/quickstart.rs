//! Quickstart: compile a small declarative program, run it through the full
//! PODS pipeline on a 4-PE simulated machine, and inspect the results —
//! then run the same compiled program repeatedly on a persistent native
//! [`Runtime`] whose worker pool is reused across runs, and once more on
//! the cooperative async executor to see its suspension/resumption
//! counters next to the native scheduler's.
//!
//! Run with: `cargo run --example quickstart`

use pods::{compile, ChunkPolicy, EngineKind, EngineStats, Runtime, Value};

fn main() -> Result<(), pods::PodsError> {
    // The running example of §3 of the paper, slightly enlarged: fill a
    // matrix by calling a function for every element.
    let source = r#"
        def main(n) {
            a = matrix(n, n);
            for i = 0 to n - 1 {
                for j = 0 to n - 1 {
                    a[i, j] = cell(i, j, n);
                }
            }
            return a;
        }
        def cell(i, j, n) {
            return sqrt((i * n + j) * 1.0);
        }
    "#;

    let program = compile(source)?;
    println!(
        "compiled: {} SP templates, {} loops analysed",
        program.sp_program().len(),
        program.loops().len()
    );

    let simulator = Runtime::builder(EngineKind::Sim).workers(4).build();
    let outcome = simulator.run(&program, &[Value::Int(16)])?;
    let array = outcome.returned_array().expect("array result");
    println!(
        "ran on 4 PEs: {} of {} elements written, a[3,5] = {:?}",
        array.written(),
        array.values.len(),
        array.get(&[3, 5])
    );
    println!(
        "simulated time: {:.3} ms, EU utilization {:.1}%, {} messages",
        outcome.elapsed_us() / 1000.0,
        outcome.eu_utilization().expect("simulated") * 100.0,
        outcome
            .simulation_stats()
            .expect("simulated")
            .total_messages()
    );
    for loop_report in &outcome.partition().expect("partitioned").loops {
        println!("  loop {}: {:?}", loop_report.key, loop_report.decision);
    }

    // The same compiled program runs unchanged on real threads: a native
    // Runtime owns a persistent work-stealing pool, so back-to-back runs
    // (different problem sizes here) reuse the same worker threads. The
    // program is prepared once — the clone/partition/read-slot-table work
    // is paid here, and every run below is pure job submission.
    let runtime = Runtime::builder(EngineKind::Native).workers(4).build();
    let prepared = runtime.prepare(&program);
    println!("prepared: {prepared:?}");
    // Preparation also specialized the templates: straight-line runs are
    // now super-ops the warm path executes without re-interpreting, and
    // each engine's summary below counts how often they fired.
    let report = prepared.partition_report();
    println!(
        "specialized: {} of {} templates, {} super-ops, {} constants fused",
        report.specialized_templates,
        program.sp_program().len(),
        report.super_ops,
        report.fused_consts
    );
    for n in [8i64, 16, 24] {
        let native = runtime.run(&prepared, &[Value::Int(n)])?;
        let native_array = native.returned_array().expect("array result");
        let EngineStats::Native { stats, .. } = native.stats else {
            unreachable!("native runtime reports native stats");
        };
        println!(
            "native runtime (pool {} job {}): n={n}, {} of {} elements in {:.3} ms wall-clock",
            stats.pool_id,
            stats.job_seq,
            native_array.written(),
            native_array.values.len(),
            native.wall_us / 1000.0
        );
        println!("  {}", native.summary());
    }

    // With `PODS_TRACE=1` the runtime records every scheduling event into
    // per-worker ring buffers; export them as a Chrome/Perfetto trace.
    if runtime.tracing_enabled() {
        let trace = runtime.take_trace();
        let path = "trace.json";
        std::fs::write(path, trace.chrome_trace())
            .unwrap_or_else(|e| panic!("could not write {path}: {e}"));
        println!(
            "flight recorder: {} events ({} dropped) -> {path}",
            trace.events.len(),
            trace.dropped
        );
    }

    // Grain-size control: under `ChunkPolicy::Auto` the runtime picks a
    // chunk size from each template's body at prepare time (grouping that
    // many consecutive outer iterations into one SP instance), then
    // re-tunes the cached preparation from the first run's instance
    // counts — warm re-runs of the same program spawn fewer, coarser
    // instances. Visible on a fine-grained fill, where at grain 1 every
    // two-element row pays a full instance spawn.
    let fine = compile(
        "def main(n) {
             a = matrix(n, 2);
             for i = 0 to n - 1 { for j = 0 to 1 { a[i, j] = i * 3 + j; } }
             return a;
         }",
    )?;
    for (label, chunk) in [
        ("grain 1   ", ChunkPolicy::Fixed(1)),
        ("auto grain", ChunkPolicy::Auto),
    ] {
        let tuned = Runtime::builder(EngineKind::Native)
            .workers(4)
            .chunk_policy(chunk)
            .build();
        tuned.run(&fine, &[Value::Int(64)])?; // cold run; auto retunes the cache
        let outcome = tuned.run(&fine, &[Value::Int(64)])?;
        let EngineStats::Native { stats, .. } = outcome.stats else {
            unreachable!("native runtime reports native stats");
        };
        println!(
            "{label}: {} instances spawned, {:.1} iterations/instance, retuned {}x, {:.3} ms wall-clock",
            stats.instances_spawned(),
            stats.iterations_per_instance(),
            stats.chunks_autotuned,
            outcome.wall_us / 1000.0
        );
    }

    // The async cooperative engine runs the same prepared handle: instances
    // are futures-style state machines suspended/resumed by I-structure
    // wakers instead of a parked-instance registry. Its stats expose the
    // scheduler's work directly. (Select it in CLIs with PODS_ENGINE=async.)
    let coop = Runtime::builder(EngineKind::AsyncCoop).workers(4).build();
    let outcome = coop.run(&prepared, &[Value::Int(16)])?;
    let EngineStats::AsyncCoop { stats, .. } = outcome.stats else {
        unreachable!("async runtime reports async stats");
    };
    println!(
        "async runtime (pool {}): {} suspensions / {} resumptions, {:.3} ms wall-clock",
        stats.pool_id,
        stats.suspensions,
        stats.resumptions,
        outcome.wall_us / 1000.0
    );
    println!("  {}", outcome.summary());
    Ok(())
}
