//! Runs the SIMPLE hydrodynamics benchmark (the paper's evaluation workload)
//! on a sweep of machine sizes and prints the speed-up curve — a scaled-down
//! interactive version of Figure 10.
//!
//! The sweep runs on a `Runtime` per machine size, so the same command
//! reports simulated-PE speed-up (`sim`, the default) or real
//! hardware-thread speed-up (`native`, `async`).
//!
//! Run with: `cargo run --release --example simple_speedup [mesh] [max_pes] [engine]`

use pods::{report, EngineKind, RunOptions, Value};

fn main() -> Result<(), pods::PodsError> {
    let args: Vec<String> = std::env::args().collect();
    let mesh: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let max_pes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    // Typed engine selection: an unknown name errors loudly up front.
    let engine: EngineKind = args.get(3).map(String::as_str).unwrap_or("sim").parse()?;

    let program = pods::compile(pods_workloads::simple::SIMPLE)?;
    let mut pe_counts = vec![1usize];
    while *pe_counts.last().unwrap() < max_pes {
        pe_counts.push(pe_counts.last().unwrap() * 2);
    }

    println!("SIMPLE {mesh}x{mesh}: one Lagrangian time step (velocity/position, hydrodynamics, conduction)");
    let points = pods::speedup_sweep(
        engine,
        &program,
        &[Value::Int(mesh as i64)],
        &pe_counts,
        &RunOptions::default(),
    )?;
    println!(
        "{}",
        report::speedup_table(&format!("speed-up versus PEs (engine: {engine})"), &points)
    );
    println!("paper reference at 32 PEs (sim): 8.1x (16x16), 12.4x (32x32), 18.9x (64x64)");
    Ok(())
}
