//! The discrete-event machine-simulator engine.

use super::{EngineKind, EngineOutcome, EngineStats};
use crate::error::PodsError;
use crate::pipeline::RunOptions;
use crate::runtime::PreparedProgram;
use crate::trace::{RecorderExecSink, TraceHandle};
use pods_istructure::Value;
use pods_machine::Simulation;
use std::time::Instant;

/// Executes the prepared program on the instruction-level iPSC/2
/// simulator ([`pods_machine::Simulation`]): the partitioned SP program and
/// its read-slot table are the ones every pooled job of the same
/// preparation runs, shared, not rebuilt. Reports *simulated* elapsed time
/// on `opts.num_pes` virtual PEs — the paper's own measurement methodology.
/// With a `trace` handle the shared exec core's events (suspensions,
/// deferred loads, chunk advances) are recorded on the lane of the
/// simulated PE that produced them, exactly as the pooled engines record
/// theirs.
pub(crate) fn run(
    prepared: &PreparedProgram,
    args: &[Value],
    opts: &RunOptions,
    trace: Option<TraceHandle>,
) -> Result<EngineOutcome, PodsError> {
    let start = Instant::now();
    let (program, read_slots, partition) = prepared.parts();
    let mut simulation = Simulation::new(program, read_slots, opts.machine_config());
    if let Some(handle) = trace {
        simulation = simulation.with_trace_sink(Box::new(RecorderExecSink { handle }));
    }
    let result = simulation.run(args)?;
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    Ok(EngineOutcome {
        engine: EngineKind::Sim.name(),
        return_value: result.return_value,
        arrays: result.arrays,
        modelled_us: Some(result.stats.elapsed_us),
        wall_us,
        stats: EngineStats::Simulated {
            stats: result.stats,
            partition,
        },
        diagnostics: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;
    use crate::runtime::Runtime;

    #[test]
    fn sim_outcome_carries_simulated_time_and_partition_report() {
        let program =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i + 1; } return a; }")
                .unwrap();
        let outcome = Runtime::builder(EngineKind::Sim)
            .workers(4)
            .build()
            .run(&program, &[Value::Int(8)])
            .unwrap();
        assert!(outcome.modelled_us.unwrap() > 0.0);
        assert!(outcome.wall_us > 0.0);
        assert!(outcome.eu_utilization().unwrap() > 0.0);
        let stats = outcome.simulation_stats().unwrap();
        assert_eq!(stats.elapsed_us, outcome.modelled_us.unwrap());
        assert_eq!(outcome.partition().unwrap().distributed_loops().count(), 1);
        let a = outcome.returned_array().unwrap();
        assert!(a.is_complete());
        assert_eq!(a.get(&[7]), Some(Value::Int(8)));
    }
}
