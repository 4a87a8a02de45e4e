//! Shows the intermediate artifacts of the PODS pipeline for the paper's
//! running example: the loop analysis, the disassembled Subcompact
//! Processes, and the partitioning decisions —
//! useful for understanding how a declarative program becomes distributed
//! iteration-level work.
//!
//! Run with: `cargo run --example inspect_pipeline`

use pods_partition::{partition, PartitionConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = pods_workloads::PAPER_EXAMPLE;
    println!("--- source ---\n{source}");

    let hir = pods_idlang::compile(source)?;
    let loops = pods_idlang::analyze_loops(&hir);
    println!("--- loop analysis ---");
    for info in &loops {
        println!(
            "  {}: var={} depth={} lcd={} target={:?}",
            info.key,
            info.var,
            info.depth,
            info.has_lcd,
            info.distribution_target().map(|t| (&t.array, t.var_dim))
        );
    }

    let mut program = pods_sp::translate(&hir)?;
    let report = partition(&mut program, &loops, &PartitionConfig::default());
    println!("--- partitioning ---");
    for l in &report.loops {
        println!("  {}: {:?}", l.key, l.decision);
    }
    println!("--- subcompact processes ---");
    for template in program.templates() {
        println!("{}", template.disassemble());
    }

    // Hand the same source to the top-level pipeline and execute it on a
    // native Runtime, closing the loop from artifacts to real threads.
    let compiled = pods::compile(source)?;
    let runtime = pods::Runtime::builder(pods::EngineKind::Native)
        .workers(2)
        .build();
    let outcome = runtime.run(&compiled, &[])?;
    println!("--- native runtime ---");
    println!(
        "ran on {} pooled workers in {:.3} ms wall-clock, return = {:?}",
        runtime.workers(),
        outcome.wall_us / 1000.0,
        outcome.return_value
    );
    Ok(())
}
