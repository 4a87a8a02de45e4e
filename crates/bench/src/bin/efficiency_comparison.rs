//! §5.3.4 of the paper: efficiency of the parallel system on a single PE
//! compared with a conventional sequential execution of the same program
//! (the paper measured 1.72 s for PODS vs 0.9 s for compiled C on a 32x32
//! conduction problem, i.e. roughly a factor of two).
//!
//! Both runs go through the engine layer: the parallel system is the
//! engine named by `PODS_ENGINE` (default: the machine simulator) on one
//! PE, the conventional baseline is the sequential oracle engine. The two
//! sides are always compared on the same clock: modelled iPSC/2 time when
//! the selected engine models one, host wall-clock otherwise (the native
//! engine has no modelled clock, so comparing it against the oracle's
//! modelled 1988 microseconds would be meaningless).

use pods::{report, EngineKind};

fn main() {
    let n = 32;
    let engine = pods_bench::engine_kind();
    let program = pods_bench::compile_simple();
    let outcome = pods_bench::run_simple_on(engine, &program, n, 1);
    let seq = pods_bench::run_simple_on(EngineKind::Seq, &program, n, 1);

    let (clock, parallel_us, baseline_us) = match outcome.modelled_us {
        Some(us) => ("modelled time", us, seq.elapsed_us()),
        None => ("host wall-clock", outcome.wall_us, seq.wall_us),
    };

    println!("Efficiency comparison (SIMPLE {n}x{n}, one time step, engine {engine}, {clock})");
    println!(
        "{}",
        report::efficiency_comparison(
            &format!("PODS ({engine}) on 1 PE"),
            parallel_us,
            "sequential (conventional) baseline",
            baseline_us,
        )
    );
    println!();
    println!("paper: 1.72 s vs 0.9 s (~1.9x) for the 32x32 conduction problem;");
    println!("the parallel system should be within a small factor of the sequential code.");
}
