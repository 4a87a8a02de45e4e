//! The engine matrix: one program, four executors behind one typed enum.
//!
//! Builds a [`pods::Runtime`] per [`pods::EngineKind`], runs the FILL
//! workload through each, and prints what each engine measured — modelled
//! time for the machine simulator and the sequential interpreter,
//! wall-clock time for the native thread pool and the cooperative async
//! executor — together
//! with a correctness digest so the agreement is visible.
//!
//! Run with: `cargo run --release --example engines [n] [pes]`

use pods::{EngineKind, Runtime, Value};

fn main() -> Result<(), pods::PodsError> {
    let args: Vec<String> = std::env::args().collect();
    let n: i64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let pes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);

    let program = pods::compile(pods_workloads::FILL)?;
    println!("FILL {n}x{n} on {pes} PEs/workers, all engines:");
    println!(
        "{:>8} | {:>16} | {:>14} | {:>10} | a[1,2]",
        "engine", "modelled (ms)", "wall (ms)", "written"
    );
    for kind in EngineKind::ALL {
        let runtime = Runtime::builder(kind).workers(pes).build();
        let outcome = runtime.run(&program, &[Value::Int(n)])?;
        let array = outcome.returned_array().expect("FILL returns its array");
        println!(
            "{:>8} | {:>16} | {:>14.3} | {:>10} | {:?}",
            outcome.engine,
            outcome
                .modelled_us
                .map(|us| format!("{:.3}", us / 1000.0))
                .unwrap_or_else(|| "-".into()),
            outcome.wall_us / 1000.0,
            array.written(),
            array.get(&[1, 2])
        );
    }
    println!();
    for kind in EngineKind::ALL {
        println!("{:>8}: {}", kind.name(), kind.description());
    }
    Ok(())
}
