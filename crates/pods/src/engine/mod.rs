//! The execution layer of PODS: four engines behind one [`EngineOutcome`].
//!
//! Every engine consumes the same [`CompiledProgram`] and
//! [`RunOptions`](crate::RunOptions) and produces the same
//! [`EngineOutcome`], so correctness can be cross-checked differentially
//! and speed-up sweeps can compare simulated PEs against real hardware
//! threads from one code path. A [`crate::Runtime`] is the one way to run
//! them: it runs the modelled engines on the calling thread and submits to
//! the pool of the pooled ones.
//!
//! The engines, by [`EngineKind`]:
//!
//! * [`EngineKind::Sim`] — the paper-faithful instruction-level simulator
//!   ([`pods_machine::Simulation`]); reports *simulated* time on N virtual
//!   PEs.
//! * [`EngineKind::Seq`] — the control-driven sequential interpreter
//!   (`pods_baseline::run_sequential`); the correctness oracle.
//! * [`EngineKind::Native`] — the partitioned SP program on a real
//!   work-stealing thread pool with a thread-safe I-structure store,
//!   reporting *wall-clock* time on N OS threads.
//! * [`EngineKind::AsyncCoop`] — the same partitioned program on the same
//!   pool, but instances are futures-style resumable state machines whose
//!   suspended reads register *wakers* with the I-structure store — the
//!   scheduling-overhead comparison the paper's evaluation is about.
//!
//! `EngineKind` parses every historical name and alias (`FromStr`):
//!
//! ```
//! use pods::{compile, EngineKind, Runtime, Value};
//!
//! let program = compile(
//!     "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * i; } return a; }",
//! )?;
//! for kind in EngineKind::ALL {
//!     let runtime = Runtime::builder(kind).workers(2).build();
//!     let outcome = runtime.run(&program, &[Value::Int(8)])?;
//!     assert_eq!(outcome.returned_array().unwrap().get(&[3]), Some(Value::Int(9)));
//! }
//! assert_eq!("threads".parse::<EngineKind>()?, EngineKind::Native);
//! # Ok::<(), pods::PodsError>(())
//! ```

mod async_coop;
mod native;
mod pool;
pub(crate) mod seq;
pub(crate) mod sim;

pub use async_coop::AsyncStats;
pub use native::NativeStats;
pub(crate) use pool::{
    build_read_slots, spare_snapshots, CancelKind, Failure, JobNotifier, JobSpec, PoolCanceller,
    Pooled, ReadSlots,
};

use crate::error::PodsError;
use crate::pipeline::CompiledProgram;
use pods_istructure::Value;
use pods_machine::{ArraySnapshot, SimulationStats, Unit};
use pods_partition::PartitionReport;
use std::sync::Arc;

/// Per-engine statistics attached to an [`EngineOutcome`].
#[derive(Debug, Clone)]
pub enum EngineStats {
    /// Machine-simulator statistics plus the partitioning decisions.
    Simulated {
        /// Per-unit utilizations, counters, elapsed simulated time.
        stats: SimulationStats,
        /// The partitioner's per-loop decisions, shared with the prepared
        /// program.
        partition: Arc<PartitionReport>,
    },
    /// Sequential-interpreter profile summary.
    Sequential {
        /// Number of top-level loop nests profiled.
        nests: usize,
        /// Modelled time spent outside any loop nest (microseconds).
        serial_us: f64,
    },
    /// Native thread-pool statistics plus the partitioning decisions.
    Native {
        /// Worker/instance/steal counters from the pool.
        stats: NativeStats,
        /// The partitioner's per-loop decisions, shared with the prepared
        /// program (a warm job copies no report).
        partition: Arc<PartitionReport>,
    },
    /// Cooperative-executor statistics plus the partitioning decisions.
    AsyncCoop {
        /// Poll/suspension/resumption/steal counters from the executor.
        stats: AsyncStats,
        /// The partitioner's per-loop decisions, shared with the prepared
        /// program (a warm job copies no report).
        partition: Arc<PartitionReport>,
    },
}

/// The uniform result of running a program on any engine.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Name of the engine that produced this outcome.
    pub engine: &'static str,
    /// The value returned by `main`, if any.
    pub return_value: Option<Value>,
    /// Final contents of every allocated array, in allocation order.
    pub arrays: Vec<ArraySnapshot>,
    /// Modelled/simulated elapsed time in microseconds, for engines that
    /// model time (`sim`, `seq`); `None` for the pooled engines, whose
    /// only honest clock is the wall.
    pub modelled_us: Option<f64>,
    /// Measured host wall-clock time of the run, in microseconds.
    pub wall_us: f64,
    /// Engine-specific statistics.
    pub stats: EngineStats,
    /// Per-job time breakdown from the flight recorder (queue wait vs
    /// dispatch vs run vs blocked time) — `Some` only when the runtime was
    /// built with tracing enabled and the recorder captured events for this
    /// job. See [`crate::trace`].
    pub diagnostics: Option<crate::trace::JobBreakdown>,
}

impl EngineOutcome {
    /// The elapsed time this engine is designed to report: modelled time
    /// when the engine models one, wall-clock time otherwise. This is the
    /// quantity speed-up sweeps compare.
    pub fn elapsed_us(&self) -> f64 {
        self.modelled_us.unwrap_or(self.wall_us)
    }

    /// The last-allocated array with the given source-level name.
    pub fn array(&self, name: &str) -> Option<&ArraySnapshot> {
        self.arrays.iter().rev().find(|a| a.name == name)
    }

    /// The array referenced by `main`'s return value, if it returned one.
    pub fn returned_array(&self) -> Option<&ArraySnapshot> {
        match self.return_value {
            Some(Value::ArrayRef(id)) => self.arrays.iter().find(|a| a.id == id),
            _ => None,
        }
    }

    /// The machine simulator's statistics, for engines that simulate the
    /// machine.
    pub fn simulation_stats(&self) -> Option<&SimulationStats> {
        match &self.stats {
            EngineStats::Simulated { stats, .. } => Some(stats),
            _ => None,
        }
    }

    /// Execution-Unit utilization, for engines that simulate the machine.
    pub fn eu_utilization(&self) -> Option<f64> {
        self.simulation_stats()
            .map(|stats| stats.utilization(Unit::Execution))
    }

    /// Effective grain — average loop iterations executed per spawned SP
    /// instance — for the engines that spawn real instances (native,
    /// async). `None` for the modelled engines, which have no instance
    /// pool to measure.
    pub fn iterations_per_instance(&self) -> Option<f64> {
        match &self.stats {
            EngineStats::Native { stats, .. } => Some(stats.iterations_per_instance()),
            EngineStats::AsyncCoop { stats, .. } => Some(stats.iterations_per_instance()),
            _ => None,
        }
    }

    /// The partition report, for engines that run the partitioned program.
    pub fn partition(&self) -> Option<&PartitionReport> {
        match &self.stats {
            EngineStats::Simulated { partition, .. } => Some(partition),
            EngineStats::Native { partition, .. } | EngineStats::AsyncCoop { partition, .. } => {
                Some(partition)
            }
            _ => None,
        }
    }

    /// A one-line human summary of this outcome's scheduler statistics
    /// ([`EngineStats::summary`]).
    pub fn summary(&self) -> String {
        self.stats.summary()
    }
}

impl EngineStats {
    /// A one-line human summary of the engine's counters, uniform across
    /// engines: the pooled engines defer to [`NativeStats`]/[`AsyncStats`]
    /// `Display`, the modelled engines report their headline numbers.
    pub fn summary(&self) -> String {
        match self {
            EngineStats::Simulated { stats, .. } => format!(
                "sim: {:.0}µs simulated, EU utilization {:.0}%",
                stats.elapsed_us,
                stats.utilization(Unit::Execution) * 100.0
            ),
            EngineStats::Sequential { nests, serial_us } => {
                format!("seq: {nests} loop nest(s), {serial_us:.0}µs serial")
            }
            EngineStats::Native { stats, .. } => stats.to_string(),
            EngineStats::AsyncCoop { stats, .. } => stats.to_string(),
        }
    }
}

/// The typed identity of an execution engine.
///
/// Parse a name (or alias) once into an `EngineKind`, then build a
/// [`crate::Runtime`] from it. Parsing is case-insensitive and accepts every
/// name the string-based API ever accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The instruction-level iPSC/2 machine simulator.
    Sim,
    /// The sequential oracle interpreter.
    Seq,
    /// The native work-stealing thread pool.
    Native,
    /// The cooperative futures-style executor.
    AsyncCoop,
}

impl EngineKind {
    /// All engine kinds, in canonical order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Sim,
        EngineKind::Seq,
        EngineKind::Native,
        EngineKind::AsyncCoop,
    ];

    /// The canonical short name (`"sim"`, `"seq"`, `"native"`, `"async"`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sim => "sim",
            EngineKind::Seq => "seq",
            EngineKind::Native => "native",
            EngineKind::AsyncCoop => "async",
        }
    }

    /// One-line human description of what the engine measures.
    pub fn description(self) -> &'static str {
        match self {
            EngineKind::Sim => {
                "instruction-level discrete-event simulator (simulated time on N virtual PEs)"
            }
            EngineKind::Seq => {
                "control-driven sequential interpreter (modelled time, correctness oracle)"
            }
            EngineKind::Native => {
                "work-stealing thread pool over the shared I-structure store \
                 (wall-clock time on N threads)"
            }
            EngineKind::AsyncCoop => {
                "cooperative executor: futures-style instance suspension with I-structure \
                 wakers (wall-clock time on N threads)"
            }
        }
    }

    /// Every accepted spelling of this kind, canonical name first.
    pub fn aliases(self) -> &'static [&'static str] {
        match self {
            EngineKind::Sim => &["sim", "simulator", "pods"],
            EngineKind::Seq => &["seq", "sequential", "baseline"],
            EngineKind::Native => &["native", "threads", "parallel"],
            EngineKind::AsyncCoop => &["async", "async-coop", "coop", "futures"],
        }
    }

    /// Whether runs of this kind execute on a persistent worker pool a
    /// [`crate::Runtime`] keeps warm (as opposed to the modelled engines,
    /// which run eagerly on the calling thread).
    pub fn is_pooled(self) -> bool {
        matches!(self, EngineKind::Native | EngineKind::AsyncCoop)
    }

    /// Spawns the persistent worker pool a [`crate::Runtime`] of this kind
    /// keeps warm; `None` for the modelled kinds.
    pub(crate) fn spawn_pool(self, workers: usize) -> Option<Arc<dyn Pooled>> {
        match self {
            EngineKind::Native => Some(Arc::new(pool::Pool::<native::Registry>::new(workers))),
            EngineKind::AsyncCoop => Some(Arc::new(pool::Pool::<async_coop::Wakers>::new(workers))),
            _ => None,
        }
    }

    /// Parses a name or alias, case-insensitively and without allocating.
    /// Returns `None` for unknown names ([`std::str::FromStr`] maps that to
    /// [`PodsError::UnknownEngine`]).
    pub fn parse(name: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|k| k.aliases().iter().any(|a| a.eq_ignore_ascii_case(name)))
    }

    /// The engine kind selected by the `PODS_ENGINE` environment variable
    /// (default: [`EngineKind::Sim`] when unset).
    ///
    /// This is the one place CLIs should read `PODS_ENGINE`, so that an
    /// unknown value fails loudly everywhere instead of silently falling
    /// back to a default.
    ///
    /// # Errors
    ///
    /// Returns [`PodsError::UnknownEngine`] when the variable is set to a
    /// name no engine answers to (or to non-UTF-8 bytes); the error message
    /// lists every valid engine name and alias, so a typo in `PODS_ENGINE`
    /// tells the user what would have worked.
    pub fn from_env() -> Result<EngineKind, PodsError> {
        EngineKind::from_env_value(std::env::var("PODS_ENGINE"))
    }

    /// The pure core of [`EngineKind::from_env`], split out so the
    /// name-resolution and error-message behaviour is unit-testable without
    /// mutating the process environment (which is unsound under the
    /// multi-threaded test harness).
    fn from_env_value(var: Result<String, std::env::VarError>) -> Result<EngineKind, PodsError> {
        match var {
            Ok(name) => name.parse(),
            Err(std::env::VarError::NotPresent) => Ok(EngineKind::Sim),
            Err(std::env::VarError::NotUnicode(raw)) => Err(PodsError::UnknownEngine {
                name: raw.to_string_lossy().into_owned(),
            }),
        }
    }
}

impl std::str::FromStr for EngineKind {
    type Err = PodsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EngineKind::parse(s).ok_or_else(|| PodsError::UnknownEngine {
            name: s.to_string(),
        })
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The error every job cut short by pool teardown reports (tests match on
/// "cancelled").
pub(crate) fn cancellation_error() -> pods_machine::SimulationError {
    pods_machine::SimulationError::Runtime(
        "job cancelled: its runtime was dropped before the job completed".into(),
    )
}

/// Argument validation, run on every submission before any engine sees the
/// job.
pub(crate) fn check_invocation(program: &CompiledProgram, args: &[Value]) -> Result<(), PodsError> {
    let Some(entry) = program.hir().entry() else {
        return Err(PodsError::MissingEntry);
    };
    if entry.params.len() != args.len() {
        return Err(PodsError::ArgumentMismatch {
            expected: entry.params.len(),
            got: args.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;
    use crate::runtime::Runtime;

    /// The canonical names, in [`EngineKind::ALL`] order.
    const NAMES: [&str; 4] = ["sim", "seq", "native", "async"];

    #[test]
    fn registry_resolves_names_and_aliases() {
        for (kind, name) in EngineKind::ALL.into_iter().zip(NAMES) {
            assert_eq!(EngineKind::parse(name), Some(kind));
            assert!(!kind.description().is_empty());
        }
        assert_eq!(EngineKind::parse("SIMULATOR"), Some(EngineKind::Sim));
        assert_eq!(EngineKind::parse("threads"), Some(EngineKind::Native));
        assert_eq!(EngineKind::parse("warp-drive"), None);
    }

    #[test]
    fn engine_kind_is_typed_and_static() {
        for (kind, name) in EngineKind::ALL.into_iter().zip(NAMES) {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.to_string(), name);
            assert_eq!(name.parse::<EngineKind>().unwrap(), kind);
            assert_eq!(kind.aliases()[0], name);
        }
        assert!(matches!(
            "warp-drive".parse::<EngineKind>(),
            Err(PodsError::UnknownEngine { name }) if name == "warp-drive"
        ));
    }

    #[test]
    fn unknown_engine_errors_list_every_valid_name_and_alias() {
        let err = "warp-drive".parse::<EngineKind>().unwrap_err();
        let message = err.to_string();
        assert!(message.contains("warp-drive"), "{message}");
        for kind in EngineKind::ALL {
            for alias in kind.aliases() {
                assert!(
                    message.contains(alias),
                    "error message must list `{alias}`: {message}"
                );
            }
        }
    }

    #[test]
    fn from_env_rejects_unknown_names_with_the_full_engine_list() {
        // `from_env` is the one place CLIs read PODS_ENGINE; a typo there
        // must name every accepted spelling. Tested through the pure core
        // (no process-environment mutation under the threaded harness).
        let err = EngineKind::from_env_value(Ok("hypercube".into())).unwrap_err();
        let message = err.to_string();
        assert!(
            matches!(err, PodsError::UnknownEngine { ref name } if name == "hypercube"),
            "{err:?}"
        );
        for name in NAMES {
            assert!(
                message.contains(name),
                "from_env error must list `{name}`: {message}"
            );
        }
        assert!(message.contains("threads"), "{message}");
        assert!(message.contains("simulator"), "{message}");

        // Default and alias resolution through the same core.
        assert_eq!(
            EngineKind::from_env_value(Err(std::env::VarError::NotPresent)).unwrap(),
            EngineKind::Sim
        );
        assert_eq!(
            EngineKind::from_env_value(Ok("THREADS".into())).unwrap(),
            EngineKind::Native
        );
    }

    #[test]
    fn every_engine_validates_invocations() {
        let program = compile("def main(n) { return n; }").unwrap();
        let no_main = compile("def helper(x) { return x; }").unwrap();
        for kind in EngineKind::ALL {
            let runtime = Runtime::builder(kind).workers(1).build();
            assert!(matches!(
                runtime.run(&program, &[]),
                Err(PodsError::ArgumentMismatch {
                    expected: 1,
                    got: 0
                })
            ));
            assert!(matches!(
                runtime.run(&no_main, &[]),
                Err(PodsError::MissingEntry)
            ));
        }
    }

    #[test]
    fn scalar_program_agrees_across_all_engines() {
        let program = compile("def main(n) { return n * 3 + 1; }").unwrap();
        for kind in EngineKind::ALL {
            let runtime = Runtime::builder(kind).workers(2).build();
            let outcome = runtime.run(&program, &[Value::Int(4)]).unwrap();
            assert_eq!(outcome.return_value, Some(Value::Int(13)), "{kind}");
            assert_eq!(outcome.engine, kind.name());
            assert!(outcome.elapsed_us() >= 0.0);
        }
    }
}
