//! Shared helpers for the figure-regeneration binaries of the PODS
//! reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section over the paper's sweeps
//! ([`pods_workloads::simple::PAPER_MESH_SIZES`] and
//! [`pods_workloads::simple::PAPER_PE_COUNTS`]); `tests/paper_figures.rs`
//! at the workspace root holds their numbers as floors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pods::{CompiledProgram, EngineKind, EngineOutcome, Runtime, SimulationStats, Value};

/// Compiles the SIMPLE benchmark once.
///
/// # Panics
///
/// Panics if the bundled source fails to compile (a build-time invariant).
pub fn compile_simple() -> CompiledProgram {
    pods::compile(pods_workloads::simple::SIMPLE).expect("SIMPLE compiles")
}

/// Runs SIMPLE on the machine simulator at the given mesh size and PE count
/// with paper-default options, and returns the simulator's statistics.
///
/// # Panics
///
/// Panics if the simulation fails; the harness treats that as a fatal
/// reproduction error.
pub fn run_simple(program: &CompiledProgram, n: usize, pes: usize) -> SimulationStats {
    run_simple_on(EngineKind::Sim, program, n, pes)
        .simulation_stats()
        .expect("the simulator reports simulation statistics")
        .clone()
}

/// The engine the harness binaries should use, from the `PODS_ENGINE`
/// environment variable (default: the machine simulator). This lets every
/// figure binary re-run its experiment on the native thread-pool engine
/// (`PODS_ENGINE=native`) without code changes.
///
/// Parsing is centralised in [`pods::EngineKind::from_env`]; an unknown
/// value aborts loudly instead of silently falling back to the simulator.
///
/// # Panics
///
/// Panics when `PODS_ENGINE` is set to a name no engine answers to.
pub fn engine_kind() -> EngineKind {
    EngineKind::from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// Runs SIMPLE on engine `kind` with `pes` workers and paper-default
/// options.
///
/// # Panics
///
/// Panics if the run fails; the harness treats that as a fatal reproduction
/// error.
pub fn run_simple_on(
    kind: EngineKind,
    program: &CompiledProgram,
    n: usize,
    pes: usize,
) -> EngineOutcome {
    Runtime::builder(kind)
        .workers(pes)
        .build()
        .run(program, &[Value::Int(n as i64)])
        .unwrap_or_else(|e| panic!("SIMPLE {n}x{n} on {pes} PEs (engine {kind}) failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_compiles_and_runs_small() {
        let program = compile_simple();
        let outcome = run_simple_on(EngineKind::Sim, &program, 8, 2);
        assert!(outcome.array("s").unwrap().is_complete());
        assert!(run_simple(&program, 8, 2).elapsed_us > 0.0);
    }

    #[test]
    fn engine_selection_defaults_to_the_simulator() {
        if std::env::var("PODS_ENGINE").is_err() {
            assert_eq!(engine_kind(), EngineKind::Sim);
        }
        let program = compile_simple();
        let outcome = run_simple_on(EngineKind::Native, &program, 8, 2);
        assert!(outcome.array("s").unwrap().is_complete());
    }
}
