//! The sequential-interpreter engine: the correctness oracle.

use super::{EngineKind, EngineOutcome, EngineStats};
use crate::error::PodsError;
use crate::pipeline::{CompiledProgram, RunOptions};
use pods_baseline::run_sequential;
use pods_istructure::{ArrayId, Value};
use pods_machine::{ArraySnapshot, SimulationError, TimingModel};
use std::time::Instant;

/// Executes the program with the control-driven sequential interpreter
/// ([`pods_baseline::run_sequential`]) — no SPs, no I-structure run-time,
/// just program order with the iPSC/2 cost model. The differential tests use
/// this engine as the oracle the parallel engines must agree with. The
/// interpreter profiles the nests of the loop analysis the program already
/// holds, so a job does not analyse the program again.
///
/// The interpreter runs within `opts.max_events` statements; exhausting
/// that budget reports the engines' shared event-limit error, so
/// `RunOptions::max_events` reports uniformly across `sim`, `native` and
/// `seq`.
pub(crate) fn run(
    program: &CompiledProgram,
    args: &[Value],
    opts: &RunOptions,
) -> Result<EngineOutcome, PodsError> {
    let start = Instant::now();
    let limit = opts.max_events;
    let run = run_sequential(
        program.hir(),
        program.loops(),
        args,
        &TimingModel::default(),
        limit,
    )
    .map_err(|err| {
        if err.is_step_limit() {
            PodsError::Simulation(SimulationError::EventLimitExceeded { limit })
        } else {
            PodsError::Baseline(err)
        }
    })?;
    let stats = EngineStats::Sequential {
        nests: run.nests.len(),
        serial_us: run.serial_us,
    };
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    let arrays = run
        .arrays
        .into_iter()
        .enumerate()
        .map(|(i, a)| ArraySnapshot {
            id: ArrayId(i),
            name: a.name,
            shape: a.shape,
            values: a.values,
        })
        .collect();
    Ok(EngineOutcome {
        engine: EngineKind::Seq.name(),
        return_value: run.return_value,
        arrays,
        modelled_us: Some(run.elapsed_us),
        wall_us,
        stats,
        diagnostics: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;
    use crate::runtime::Runtime;

    fn sequential(opts: RunOptions) -> Runtime {
        Runtime::builder(EngineKind::Seq).options(opts).build()
    }

    #[test]
    fn sequential_outcome_exposes_arrays_and_profile() {
        let program =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * 2; } return a; }")
                .unwrap();
        let outcome = sequential(RunOptions::default())
            .run(&program, &[Value::Int(6)])
            .unwrap();
        assert_eq!(
            outcome.returned_array().unwrap().get(&[5]),
            Some(Value::Int(10))
        );
        assert!(outcome.modelled_us.unwrap() > 0.0);
        assert!(matches!(
            outcome.stats,
            EngineStats::Sequential { nests: 1, .. }
        ));
        assert!(outcome.partition().is_none());
    }

    #[test]
    fn runtime_errors_surface_as_baseline_errors() {
        let program = compile("def main(n) { a = array(n); return a[0]; }").unwrap();
        let err = sequential(RunOptions::default())
            .run(&program, &[Value::Int(3)])
            .unwrap_err();
        assert!(matches!(err, PodsError::Baseline(_)), "{err}");
    }

    #[test]
    fn max_events_is_enforced_as_a_statement_budget() {
        let program =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i; } return a; }")
                .unwrap();
        let opts = RunOptions {
            max_events: 4,
            ..RunOptions::default()
        };
        let err = sequential(opts)
            .run(&program, &[Value::Int(64)])
            .unwrap_err();
        assert!(
            matches!(
                err,
                PodsError::Simulation(pods_machine::SimulationError::EventLimitExceeded {
                    limit: 4
                })
            ),
            "{err}"
        );
        // Unlimited by default.
        assert!(sequential(RunOptions::default())
            .run(&program, &[Value::Int(64)])
            .is_ok());
    }
}
