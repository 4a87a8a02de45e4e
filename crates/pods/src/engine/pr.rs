//! The Pingali & Rogers static-compilation estimator engine.

use super::seq::run_modelled;
use super::{EngineKind, EngineOutcome, EngineStats};
use crate::error::PodsError;
use crate::pipeline::{CompiledProgram, RunOptions};
use pods_baseline::PrModel;
use pods_istructure::Value;

/// Models the execution of the program under a statically-scheduled,
/// bulk-synchronous SPMD system (the "P&R" comparator of Figure 10). The
/// estimate is driven by a real sequential run, so the outcome carries the
/// oracle's arrays and return value together with the modelled parallel
/// time on `opts.num_pes` PEs.
pub(crate) fn run(
    program: &CompiledProgram,
    args: &[Value],
    opts: &RunOptions,
) -> Result<EngineOutcome, PodsError> {
    run_modelled(EngineKind::Pr, program, args, opts, |run| {
        let point = PrModel::default().estimate(run, opts.num_pes);
        (point.elapsed_us, EngineStats::Estimated { point })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;
    use crate::runtime::Runtime;

    #[test]
    fn estimate_speeds_up_parallel_loops() {
        let program = compile(
            r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { a[i, j] = sqrt(i * 1.0) + j; }
                }
                return a;
            }
            "#,
        )
        .unwrap();
        let estimate = |pes| {
            Runtime::builder(EngineKind::Pr)
                .workers(pes)
                .build()
                .run(&program, &[Value::Int(32)])
                .unwrap()
        };
        let (one, eight) = (estimate(1), estimate(8));
        assert!(eight.modelled_us.unwrap() < one.modelled_us.unwrap());
        assert!(matches!(
            eight.stats,
            EngineStats::Estimated { point } if point.speedup > 1.0
        ));
        // The estimate rides on a real sequential run, so arrays are real.
        assert!(eight.returned_array().unwrap().is_complete());
    }
}
