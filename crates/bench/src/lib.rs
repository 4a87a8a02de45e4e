//! Shared helpers for the figure-regeneration binaries and Criterion
//! benchmarks of the PODS reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section; see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pods::{CompiledProgram, EngineKind, EngineOutcome, Runtime, SimulationStats, Value};

/// Mesh sizes used by the SIMPLE experiments. Honours the
/// `PODS_MESH_SIZES` environment variable (comma-separated) so slow machines
/// can run reduced sweeps, and defaults to the paper's 16/32/64.
pub fn mesh_sizes() -> Vec<usize> {
    match std::env::var("PODS_MESH_SIZES") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .filter(|&n: &usize| n >= 4)
            .collect(),
        Err(_) => pods_workloads::simple::PAPER_MESH_SIZES.to_vec(),
    }
}

/// PE counts used by the sweeps (the paper's 1, 2, 4, 8, 16, 32).
pub fn pe_counts() -> Vec<usize> {
    match std::env::var("PODS_PE_COUNTS") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .filter(|&n: &usize| n >= 1)
            .collect(),
        Err(_) => pods_workloads::simple::PAPER_PE_COUNTS.to_vec(),
    }
}

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
    fn defaults_match_the_paper() {
        // The environment is not set during tests, so the defaults apply.
        if std::env::var("PODS_MESH_SIZES").is_err() {
            assert_eq!(mesh_sizes(), vec![16, 32, 64]);
        }
        if std::env::var("PODS_PE_COUNTS").is_err() {
            assert_eq!(pe_counts(), vec![1, 2, 4, 8, 16, 32]);
        }
    }

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
