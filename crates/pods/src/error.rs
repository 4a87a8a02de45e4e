//! The unified error type of the top-level PODS library.

use pods_baseline::BaselineError;
use pods_idlang::CompileError;
use pods_machine::SimulationError;
use pods_sp::TranslateError;

/// Any error the PODS pipeline can produce, from parsing the declarative
/// source all the way to executing it on any engine.
#[derive(Debug, Clone, PartialEq)]
pub enum PodsError {
    /// The source program failed to compile (lexing, parsing, or semantic
    /// analysis).
    Compile(CompileError),
    /// The HIR could not be translated into Subcompact Processes.
    Translate(TranslateError),
    /// Execution failed (deadlock, run-time error, event/task limit) — on
    /// the machine simulator or the native thread-pool engine, which share
    /// the error vocabulary.
    Simulation(SimulationError),
    /// The sequential interpreter (or the cost model driven by it) failed.
    Baseline(BaselineError),
    /// No engine answers to the requested name.
    UnknownEngine {
        /// The name that failed to resolve.
        name: String,
    },
    /// A [`crate::PreparedProgram`] was submitted to a runtime whose
    /// partitioning configuration differs from the one it was prepared
    /// with (worker counts may differ freely — partitioning is
    /// machine-size-independent — but the partitioner switches must
    /// match).
    PreparedMismatch,
    /// The program has no `main` entry function.
    MissingEntry,
    /// The number of `main` arguments does not match the declaration.
    ArgumentMismatch {
        /// Parameters declared by `main`.
        expected: usize,
        /// Arguments supplied to the run.
        got: usize,
    },
    /// The runtime's bounded admission queue was full when the job arrived.
    ///
    /// Returned by `Runtime::try_submit` immediately and by
    /// `Runtime::submit_timeout` once the timeout elapses without a slot
    /// freeing up. Only runtimes built with a non-zero
    /// `RuntimeBuilder::admission_capacity` ever produce it. The rejected
    /// job never entered the queue; resubmit later or use the blocking
    /// `Runtime::submit` to wait for space.
    QueueFull {
        /// The configured admission capacity the queue was at.
        capacity: usize,
        /// Jobs queued (not yet dispatched to the pool) at rejection time.
        depth: usize,
    },
    /// The job outlived the deadline configured via
    /// `RuntimeBuilder::deadline` and was cancelled.
    ///
    /// A queued job past its deadline is cancelled before ever reaching the
    /// pool; a running job is stopped at its next instruction boundary via
    /// the same stop-flag machinery that drop-cancellation uses. Either way
    /// `JobHandle::wait` surfaces this variant instead of hanging.
    DeadlineExceeded {
        /// The deadline the job was admitted under.
        deadline: std::time::Duration,
        /// Where the job's time went (queue wait, dispatch, run, blocked),
        /// rendered from the flight recorder. `None` when tracing was off.
        breakdown: Option<String>,
    },
}

impl std::fmt::Display for PodsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PodsError::Compile(e) => write!(f, "{e}"),
            PodsError::Translate(e) => write!(f, "{e}"),
            PodsError::Simulation(e) => write!(f, "{e}"),
            PodsError::Baseline(e) => write!(f, "{e}"),
            PodsError::UnknownEngine { name } => {
                let kinds = crate::engine::EngineKind::ALL;
                let names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
                let aliases: Vec<_> = kinds
                    .iter()
                    .flat_map(|k| k.aliases()[1..].iter().copied())
                    .collect();
                write!(
                    f,
                    "unknown engine `{name}` (valid engines: {}; aliases: {})",
                    names.join(", "),
                    aliases.join(", "),
                )
            }
            PodsError::PreparedMismatch => write!(
                f,
                "prepared program does not match this runtime's partition \
                 configuration; call `Runtime::prepare` on this runtime (or \
                 pass the raw compiled program and let the runtime's cache \
                 prepare it)"
            ),
            PodsError::MissingEntry => write!(f, "program has no `main` function"),
            PodsError::ArgumentMismatch { expected, got } => write!(
                f,
                "`main` takes {expected} argument(s) but {got} were supplied"
            ),
            PodsError::QueueFull { capacity, depth } => write!(
                f,
                "admission queue is full: {depth} job(s) waiting at capacity \
                 {capacity}; retry later, use the blocking `submit`, or raise \
                 `RuntimeBuilder::admission_capacity`"
            ),
            PodsError::DeadlineExceeded {
                deadline,
                breakdown,
            } => {
                write!(
                    f,
                    "job cancelled: deadline of {deadline:?} exceeded before \
                     the job completed"
                )?;
                if let Some(b) = breakdown {
                    write!(f, " ({b})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PodsError {}

impl From<CompileError> for PodsError {
    fn from(value: CompileError) -> Self {
        PodsError::Compile(value)
    }
}

impl From<TranslateError> for PodsError {
    fn from(value: TranslateError) -> Self {
        PodsError::Translate(value)
    }
}

impl From<SimulationError> for PodsError {
    fn from(value: SimulationError) -> Self {
        PodsError::Simulation(value)
    }
}

impl From<BaselineError> for PodsError {
    fn from(value: BaselineError) -> Self {
        PodsError::Baseline(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<PodsError> = vec![
            PodsError::MissingEntry,
            PodsError::ArgumentMismatch {
                expected: 2,
                got: 1,
            },
            PodsError::Simulation(SimulationError::Runtime("boom".into())),
            PodsError::Baseline(BaselineError::Runtime("boom".into())),
            PodsError::UnknownEngine {
                name: "warp".into(),
            },
            PodsError::PreparedMismatch,
            PodsError::QueueFull {
                capacity: 8,
                depth: 8,
            },
            PodsError::DeadlineExceeded {
                deadline: std::time::Duration::from_millis(250),
                breakdown: None,
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn queue_full_display_round_trips_its_fields() {
        let e = PodsError::QueueFull {
            capacity: 32,
            depth: 17,
        };
        let msg = e.to_string();
        assert!(msg.contains("17"), "depth missing from: {msg}");
        assert!(msg.contains("32"), "capacity missing from: {msg}");
        assert!(msg.contains("admission queue"), "context missing: {msg}");
    }

    #[test]
    fn deadline_exceeded_display_round_trips_the_deadline() {
        let e = PodsError::DeadlineExceeded {
            deadline: std::time::Duration::from_millis(250),
            breakdown: None,
        };
        let msg = e.to_string();
        assert!(msg.contains("250ms"), "deadline missing from: {msg}");
        // Drop-cancellation tests and callers match on "cancelled".
        assert!(msg.contains("cancelled"), "cancel marker missing: {msg}");
    }

    #[test]
    fn deadline_exceeded_display_appends_the_breakdown() {
        let e = PodsError::DeadlineExceeded {
            deadline: std::time::Duration::from_millis(250),
            breakdown: Some("job 3: queue 10µs, dispatch 2µs".into()),
        };
        let msg = e.to_string();
        assert!(msg.contains("250ms"), "deadline missing from: {msg}");
        assert!(msg.contains("queue 10µs"), "breakdown missing: {msg}");
    }

    #[test]
    fn conversions_from_stage_errors() {
        let ce = pods_idlang::compile("def main() { return $; }").unwrap_err();
        let pe: PodsError = ce.into();
        assert!(matches!(pe, PodsError::Compile(_)));
    }
}
