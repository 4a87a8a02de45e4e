//! Cross-crate integration tests: the full pipeline (language front end,
//! dataflow analysis, SP translation, partitioning, machine simulation)
//! validated end to end against the independent sequential interpreter.

use pods::{CompiledProgram, EngineKind, EngineOutcome, RunOptions, Runtime, Value};
use pods_baseline::run_sequential;
use pods_machine::TimingModel;

/// Runs `program` on the machine simulator with `opts`.
fn simulate(program: &CompiledProgram, args: &[Value], opts: RunOptions) -> EngineOutcome {
    Runtime::builder(EngineKind::Sim)
        .options(opts)
        .build()
        .run(program, args)
        .unwrap_or_else(|e| panic!("simulation failed: {e}"))
}

/// Runs a workload through PODS on `pes` PEs and through the sequential
/// interpreter, and asserts that a named array matches element-wise.
fn assert_matches_reference(source: &str, args: &[Value], array: &str, pes: &[usize]) {
    let hir = pods_idlang::compile(source).expect("front end");
    let reference = run_sequential(&hir, args, &TimingModel::default()).expect("reference run");
    let expected = reference
        .array(array)
        .expect("reference array")
        .to_f64(f64::NAN);

    let program = pods::compile(source).expect("pipeline compile");
    for &p in pes {
        let outcome = simulate(&program, args, RunOptions::with_pes(p));
        let got = outcome
            .array(array)
            .unwrap_or_else(|| panic!("array `{array}` missing on {p} PEs"))
            .to_f64(f64::NAN);
        assert_eq!(expected.len(), got.len());
        for (i, (a, b)) in expected.iter().zip(&got).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan()),
                "element {i} differs on {p} PEs: reference {a}, PODS {b}"
            );
        }
    }
}

#[test]
fn paper_example_matches_reference_on_all_machine_sizes() {
    assert_matches_reference(pods_workloads::PAPER_EXAMPLE, &[], "a", &[1, 2, 4, 8]);
}

#[test]
fn fill_and_stencil_match_reference() {
    assert_matches_reference(pods_workloads::FILL, &[Value::Int(16)], "a", &[1, 4]);
    assert_matches_reference(
        pods_workloads::STENCIL,
        &[Value::Int(16)],
        "next",
        &[1, 4, 8],
    );
}

#[test]
fn recurrence_matches_reference_even_though_it_cannot_distribute() {
    assert_matches_reference(
        pods_workloads::RECURRENCE,
        &[Value::Int(64)],
        "acc",
        &[1, 4],
    );
}

#[test]
fn matmul_matches_reference() {
    assert_matches_reference(pods_workloads::MATMUL, &[Value::Int(8)], "c", &[1, 4]);
}

#[test]
fn simple_benchmark_matches_reference_across_machine_sizes() {
    // The full SIMPLE time step: init, velocity/position, hydrodynamics,
    // conduction sweeps, checksum. An 8x8 mesh keeps the test fast while
    // exercising every routine, every sweep direction, and remote traffic.
    assert_matches_reference(
        pods_workloads::simple::SIMPLE,
        &[Value::Int(8)],
        "thetan",
        &[1, 2, 4],
    );
}

#[test]
fn simple_speedup_appears_on_larger_meshes() {
    let program = pods::compile(pods_workloads::simple::SIMPLE).unwrap();
    let args = [Value::Int(16)];
    let sweep =
        |kind| pods::speedup_sweep(kind, &program, &args, &[1, 8], &RunOptions::default()).unwrap();
    let points = sweep(EngineKind::Sim);
    assert!(
        points[1].speedup > 1.2,
        "8 PEs should beat 1 PE on a 16x16 mesh, got {:.2}x",
        points[1].speedup
    );
    // A simulated point is exactly the simulated time of one run.
    for point in &points {
        let run = simulate(&program, &args, RunOptions::with_pes(point.pes));
        assert_eq!(
            point.elapsed_us,
            run.modelled_us.unwrap(),
            "{} PEs",
            point.pes
        );
        assert_eq!(point.eu_utilization, run.eu_utilization().unwrap());
    }

    // The same sweep on real threads: one point per worker count, against
    // the first point's wall clock.
    let points = sweep(EngineKind::Native);
    let pes: Vec<usize> = points.iter().map(|p| p.pes).collect();
    assert_eq!(pes, [1, 8]);
    assert_eq!(points[0].speedup, 1.0);
    assert!(points.iter().all(|p| p.elapsed_us > 0.0 && p.speedup > 0.0));
}

#[test]
fn simple_partitioning_decisions_follow_the_paper() {
    use pods::LoopDecision;
    let program = pods::compile(pods_workloads::simple::SIMPLE).unwrap();
    let outcome = simulate(&program, &[Value::Int(8)], RunOptions::with_pes(4));
    let report = outcome.partition().unwrap();

    // velocity_position and hydrodynamics outer loops distribute.
    for function in ["init_state", "velocity_position", "hydrodynamics"] {
        assert!(
            matches!(
                report.decision_for(function, 0),
                Some(LoopDecision::Distributed { .. })
            ),
            "{function} outer loop should be distributed: {:?}",
            report.decision_for(function, 0)
        );
    }
    // At least one conduction recurrence stays local to its row (carried).
    assert!(report
        .loops
        .iter()
        .filter(|l| l.key.function == "conduction")
        .any(|l| matches!(l.decision, LoopDecision::LocalUnderDistributed { .. })));
}

#[test]
fn single_pe_pods_is_within_a_small_factor_of_the_sequential_baseline() {
    // The §5.3.4 efficiency comparison: the paper measured roughly 2x.
    let source = pods_workloads::simple::SIMPLE;
    let hir = pods_idlang::compile(source).unwrap();
    let seq = run_sequential(&hir, &[Value::Int(16)], &TimingModel::default()).unwrap();
    let program = pods::compile(source).unwrap();
    let outcome = simulate(&program, &[Value::Int(16)], RunOptions::with_pes(1));
    let ratio = outcome.elapsed_us() / seq.elapsed_us;
    assert!(
        ratio > 1.0 && ratio < 4.0,
        "PODS 1-PE overhead ratio {ratio:.2} outside the plausible band"
    );
}

#[test]
fn execution_unit_dominates_the_other_functional_units() {
    // Figure 8's headline observation.
    use pods::Unit;
    let program = pods::compile(pods_workloads::simple::SIMPLE).unwrap();
    let outcome = simulate(&program, &[Value::Int(16)], RunOptions::with_pes(8));
    let stats = outcome.simulation_stats().unwrap();
    let eu = stats.utilization(Unit::Execution);
    for unit in [Unit::Matching, Unit::MemoryManager, Unit::ArrayManager] {
        assert!(
            eu > stats.utilization(unit),
            "EU ({eu:.3}) should dominate {unit}"
        );
    }
}

#[test]
fn pingali_rogers_model_trails_pods_at_scale_on_simple() {
    // Figure 10: PODS outperforms the static-compilation approach when the
    // problem is large enough. We check the qualitative relation on a
    // moderate mesh to keep test time reasonable.
    let source = pods_workloads::simple::SIMPLE;
    let hir = pods_idlang::compile(source).unwrap();
    let seq = run_sequential(&hir, &[Value::Int(16)], &TimingModel::default()).unwrap();
    let pr = pods_baseline::PrModel::default();
    let pr32 = pr.estimate(&seq, 32);
    // Both systems speed up; the exact ordering at small meshes is noisy, so
    // just require both to be sane and the PR model to saturate.
    let pr2 = pr.estimate(&seq, 2);
    assert!(pr2.speedup > 1.0);
    assert!(
        pr32.speedup / 32.0 < pr2.speedup / 2.0,
        "PR efficiency must fall"
    );
}

#[test]
fn ablation_disabling_the_page_cache_increases_remote_traffic() {
    let program = pods::compile(pods_workloads::STENCIL).unwrap();
    let mut with_cache = RunOptions::with_pes(8);
    with_cache.remote_page_cache = true;
    let mut without_cache = RunOptions::with_pes(8);
    without_cache.remote_page_cache = false;
    let a = simulate(&program, &[Value::Int(24)], with_cache);
    let b = simulate(&program, &[Value::Int(24)], without_cache);
    let remote_reads = |o: &EngineOutcome| o.simulation_stats().unwrap().total_remote_reads();
    assert!(
        remote_reads(&b) >= remote_reads(&a),
        "disabling the cache should not reduce remote reads"
    );
    assert!(b.array("next").unwrap().is_complete());
}

#[test]
fn run_options_and_reports_are_exposed_through_the_facade() {
    // Exercise the umbrella crate re-exports.
    let program = pods_repro::compile("def main() { return 1 + 1; }").unwrap();
    let outcome = pods_repro::Runtime::builder(pods_repro::EngineKind::Sim)
        .options(pods_repro::RunOptions::default())
        .build()
        .run(&program, &[])
        .unwrap();
    assert_eq!(outcome.return_value, Some(pods_repro::Value::Int(2)));
}

/// The benchmark's gather (`gather_wake`'s shape at 16 probes): a
/// right-nested sum of split-phase `probe` calls.
fn gather16_source() -> String {
    let mut expr = "probe(a, 15)".to_string();
    for i in (0..15).rev() {
        expr = format!("probe(a, {i}) + ({expr})");
    }
    format!(
        "def main(n) {{\n    a = array(n);\n    for i = 0 to n - 1 {{ a[i] = i * 3; }}\n    \
         return {expr};\n}}\ndef probe(a, i) {{ return a[i] + 1; }}\n"
    )
}

/// A degree-6 Horner polynomial per element: the shape prepare-time
/// specialization fuses into super-ops.
const POLY: &str = "def main(n) {
    a = array(n);
    for i = 0 to n - 1 {
        a[i] = (((((i * 3 + 1) * i + 7) * i + 11) * i + 13) * i + 17) * i + 19;
    }
    return a;
}";

#[test]
fn compiled_programs_share_their_stages() {
    let program = pods::compile(pods_workloads::simple::SIMPLE).unwrap();
    let copy = program.clone();
    assert!(std::ptr::eq(program.hir(), copy.hir()));
    assert!(std::ptr::eq(program.sp_program(), copy.sp_program()));
    assert!(std::ptr::eq(program.loops(), copy.loops()));
}

#[test]
fn cold_mix_programs_translate_and_partition_to_pinned_shapes() {
    // Templates, instructions, planned super-ops and distributed loops of
    // SIMPLE and the other programs the cold path compiles: a change to the
    // front end that means to move none of them (sharing or interning, say)
    // must leave every number here as it is.
    let gather = gather16_source();
    let cases: [(&str, &str, [usize; 4]); 8] = [
        ("FILL", pods_workloads::FILL, [3, 25, 8, 1]),
        ("MATMUL", pods_workloads::MATMUL, [6, 68, 22, 2]),
        ("STENCIL", pods_workloads::STENCIL, [8, 98, 34, 3]),
        ("RECURRENCE", pods_workloads::RECURRENCE, [3, 32, 10, 1]),
        ("GATHER16", &gather, [3, 47, 8, 1]),
        ("SIMPLE", pods_workloads::simple::SIMPLE, [29, 575, 151, 10]),
        (
            "PAPER_EXAMPLE",
            pods_workloads::PAPER_EXAMPLE,
            [4, 23, 7, 1],
        ),
        ("POLY", POLY, [2, 24, 4, 1]),
    ];
    let runtime = pods::Runtime::builder(pods::EngineKind::Native)
        .workers(1)
        .specialize(true)
        .build();
    for (name, source, want) in cases {
        let program = pods::compile(source).unwrap();
        let sp = program.sp_program();
        let prepared = runtime.prepare(&program);
        let report = prepared.partition_report();
        let got = [
            sp.len(),
            sp.total_instructions(),
            report.super_ops,
            report.distributed_loops().count(),
        ];
        assert_eq!(
            got, want,
            "{name}: [templates, instructions, super-ops, distributed loops]"
        );
    }
}
