//! Figure 10 of the paper: speed-up of SIMPLE versus the number of PEs for
//! the three mesh sizes, with the Pingali & Rogers static-compilation
//! comparator for the 64x64 mesh and the linear-speedup reference.

use pods::{report, RunOptions, Value};
use pods_baseline::{run_sequential, PrModel};
use pods_machine::TimingModel;
use pods_workloads::simple::{PAPER_MESH_SIZES, PAPER_PE_COUNTS, PAPER_SPEEDUP_AT_32};

fn main() {
    let program = pods_bench::compile_simple();
    let pes = PAPER_PE_COUNTS;
    let sizes = PAPER_MESH_SIZES;
    // PODS_ENGINE=native reports real hardware-thread speed-up through the
    // same sweep code path; the default reports simulated-PE speed-up.
    let engine = pods_bench::engine_kind();

    for &n in &sizes {
        let points = pods::speedup_sweep(
            engine,
            &program,
            &[Value::Int(n as i64)],
            &pes,
            &RunOptions::default(),
        )
        .expect("sweep");
        println!(
            "{}",
            report::speedup_table(&format!("SIMPLE {n}x{n} (PODS, engine {engine})"), &points)
        );
    }

    // The P&R comparator on the largest mesh, derived from the sequential
    // profile of the same program (see pods-baseline::PrModel).
    if let Some(&n) = sizes.last() {
        let seq = run_sequential(
            program.hir(),
            program.loops(),
            &[Value::Int(n as i64)],
            &TimingModel::default(),
            0,
        )
        .expect("sequential profile");
        let model = PrModel::default();
        println!("SIMPLE {n}x{n} (Pingali & Rogers static-compilation model)");
        println!("{:>4} | {:>14} | {:>8}", "PEs", "elapsed (ms)", "speedup");
        for p in model.sweep(&seq, &pes) {
            println!(
                "{:>4} | {:>14.3} | {:>8.2}",
                p.pes,
                p.elapsed_us / 1000.0,
                p.speedup
            );
        }
        println!();
    }

    println!("linear reference: speedup = number of PEs");
    let paper: Vec<String> = PAPER_SPEEDUP_AT_32
        .iter()
        .map(|(n, speedup)| format!("{n}x{n} = {speedup}"))
        .collect();
    println!(
        "paper reference points at 32 PEs: {} (PODS)",
        paper.join(", ")
    );
}
