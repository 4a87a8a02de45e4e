//! Dense matrix multiply expressed in the declarative language, validated
//! against the sequential oracle engine, and timed on every execution
//! engine at one and eight PEs/workers.
//!
//! Run with: `cargo run --release --example matmul [n]`

use pods::{EngineKind, Runtime, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);

    let program = pods::compile(pods_workloads::MATMUL)?;

    // Reference run: the sequential oracle engine.
    let reference = Runtime::builder(EngineKind::Seq)
        .build()
        .run(&program, &[Value::Int(n)])?;
    let expected = reference.array("c").expect("c").to_f64(f64::NAN);

    for kind in [EngineKind::Sim, EngineKind::Native] {
        for pes in [1usize, 8] {
            let runtime = Runtime::builder(kind).workers(pes).build();
            let outcome = runtime.run(&program, &[Value::Int(n)])?;
            let c = outcome.array("c").expect("c");
            let got = c.to_f64(f64::NAN);
            let max_err = expected
                .iter()
                .zip(&got)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            let time = match outcome.modelled_us {
                Some(us) => format!("simulated {:.3} ms", us / 1000.0),
                None => format!("wall-clock {:.3} ms", outcome.wall_us / 1000.0),
            };
            println!(
                "{n}x{n} matmul, engine {kind} on {pes} PE(s): {time}, max |err| = {max_err:.3e}"
            );
            assert!(max_err < 1e-9, "results diverged from the reference");
        }
    }
    println!(
        "sequential baseline model: {:.3} ms",
        reference.modelled_us.unwrap_or_default() / 1000.0
    );
    Ok(())
}
