//! The execution layer of PODS: one [`Engine`] abstraction, five engines.
//!
//! Historically the repository had three unrelated ways to execute a
//! compiled program — the discrete-event machine simulator, the sequential
//! baseline interpreter, and the Pingali & Rogers cost model — each with its
//! own entry point and result type, wired ad hoc through the pipeline. This
//! module unifies them behind a single trait (in the spirit of Timely
//! Dataflow's `execute` layer): every engine consumes the same
//! [`CompiledProgram`] and [`RunOptions`] and produces the same
//! [`EngineOutcome`], so correctness can be cross-checked differentially and
//! speed-up sweeps can compare simulated PEs against real hardware threads
//! from one code path.
//!
//! The engines:
//!
//! * [`SimEngine`] — the paper-faithful instruction-level simulator
//!   (`pods_machine::simulate`); reports *simulated* time on N virtual PEs.
//! * [`SequentialEngine`] — the control-driven sequential interpreter
//!   (`pods_baseline::run_sequential`); the correctness oracle.
//! * [`PrEstimateEngine`] — the static-compilation cost model
//!   (`pods_baseline::PrModel`) driven by a sequential profile.
//! * [`NativeParallelEngine`] — executes the partitioned SP program on a
//!   real work-stealing thread pool with a thread-safe I-structure store,
//!   reporting *wall-clock* time on N OS threads.
//! * [`AsyncCoopEngine`] — the same partitioned program on a cooperative
//!   executor: instances are futures-style resumable state machines,
//!   suspended reads register *wakers* with the I-structure store, and a
//!   per-worker run-queue scheduler with work stealing over tasks resumes
//!   them — the scheduling-overhead comparison the paper's evaluation is
//!   about.
//!
//! Engine selection is *typed*: [`EngineKind`] is the enum of the five
//! engines, parses every historical name and alias (`FromStr`), and maps to
//! a `&'static` engine instance without allocation. The preferred way to
//! execute programs is a [`crate::Runtime`] built from an `EngineKind`;
//! the example below drives the static registry directly:
//!
//! ```
//! use pods::{compile, EngineKind, RunOptions, Value};
//!
//! let program = compile(
//!     "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * i; } return a; }",
//! )?;
//! for kind in EngineKind::ALL {
//!     let outcome = kind
//!         .engine()
//!         .run(&program, &[Value::Int(8)], &RunOptions::with_pes(2))?;
//!     assert_eq!(outcome.returned_array().unwrap().get(&[3]), Some(Value::Int(9)));
//! }
//! assert_eq!("threads".parse::<EngineKind>()?, EngineKind::Native);
//! # Ok::<(), pods::PodsError>(())
//! ```

mod async_coop;
mod native;
mod pr;
mod seq;
mod sim;

pub(crate) use async_coop::{AsyncCanceller, AsyncJobHandle, AsyncPool};
pub use async_coop::{AsyncCoopEngine, AsyncStats};
pub(crate) use native::{
    build_read_slots, JobSpec, NativeCanceller, NativeJobHandle, NativePool, ReadSlots,
};
pub use native::{NativeParallelEngine, NativeStats};
pub use pr::PrEstimateEngine;
pub use seq::SequentialEngine;
pub use sim::SimEngine;

use crate::error::PodsError;
use crate::pipeline::{CompiledProgram, RunOptions};
use pods_baseline::PrPoint;
use pods_istructure::Value;
use pods_machine::{ArraySnapshot, SimulationStats, Unit};
use pods_partition::PartitionReport;
use std::sync::{Arc, LazyLock};

/// A uniform executor of compiled PODS programs.
///
/// Engines are stateless and cheap to construct; configuration that varies
/// per run (machine size, page size, partitioning switches) travels in
/// [`RunOptions`].
pub trait Engine: Send + Sync {
    /// Short stable name used for engine selection (`"sim"`, `"seq"`,
    /// `"pr"`, `"native"`).
    fn name(&self) -> &'static str;

    /// One-line human description of what the engine measures.
    fn description(&self) -> &'static str;

    /// Executes `program` with `args` under `opts`.
    ///
    /// # Errors
    ///
    /// Returns a [`PodsError`] for malformed invocations (missing `main`,
    /// argument-count mismatch) and for run-time failures (deadlock,
    /// single-assignment violations, out-of-bounds accesses).
    fn run(
        &self,
        program: &CompiledProgram,
        args: &[Value],
        opts: &RunOptions,
    ) -> Result<EngineOutcome, PodsError>;
}

/// Per-engine statistics attached to an [`EngineOutcome`].
#[derive(Debug, Clone)]
pub enum EngineStats {
    /// Machine-simulator statistics plus the partitioning decisions.
    Simulated {
        /// Per-unit utilizations, counters, elapsed simulated time.
        stats: SimulationStats,
        /// The partitioner's per-loop decisions.
        partition: PartitionReport,
    },
    /// Sequential-interpreter profile summary.
    Sequential {
        /// Number of top-level loop nests profiled.
        nests: usize,
        /// Modelled time spent outside any loop nest (microseconds).
        serial_us: f64,
    },
    /// The static-compilation model's estimate.
    Estimated {
        /// The modelled point (PEs, time, speed-up).
        point: PrPoint,
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

/// The uniform result of running a program on any [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Name of the engine that produced this outcome.
    pub engine: &'static str,
    /// The value returned by `main`, if any.
    pub return_value: Option<Value>,
    /// Final contents of every allocated array, in allocation order.
    pub arrays: Vec<ArraySnapshot>,
    /// Modelled/simulated elapsed time in microseconds, for engines that
    /// model time (`sim`, `seq`, `pr`); `None` for the native engine, whose
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

    /// Execution-Unit utilization, for engines that simulate the machine.
    pub fn eu_utilization(&self) -> Option<f64> {
        match &self.stats {
            EngineStats::Simulated { stats, .. } => Some(stats.utilization(Unit::Execution)),
            _ => None,
        }
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
            EngineStats::Estimated { point } => format!(
                "pr: {:.0}µs estimated on {} PE(s), speed-up {:.2}",
                point.elapsed_us, point.pes, point.speedup
            ),
            EngineStats::Native { stats, .. } => stats.to_string(),
            EngineStats::AsyncCoop { stats, .. } => stats.to_string(),
        }
    }
}

/// Names of all built-in engines, in canonical order.
pub const ENGINE_NAMES: [&str; 5] = ["sim", "seq", "pr", "native", "async"];

/// The typed identity of an execution engine.
///
/// This replaces stringly engine selection: parse a name (or alias) once
/// into an `EngineKind`, then build a [`crate::Runtime`] from it or fetch
/// the `&'static` engine instance with [`EngineKind::engine`]. Parsing is
/// case-insensitive and accepts every name the string-based API ever
/// accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The instruction-level iPSC/2 machine simulator ([`SimEngine`]).
    Sim,
    /// The sequential oracle interpreter ([`SequentialEngine`]).
    Seq,
    /// The Pingali & Rogers static-compilation cost model
    /// ([`PrEstimateEngine`]).
    Pr,
    /// The native work-stealing thread pool ([`NativeParallelEngine`]).
    Native,
    /// The cooperative futures-style executor ([`AsyncCoopEngine`]).
    AsyncCoop,
}

static SIM_ENGINE: SimEngine = SimEngine;
static SEQ_ENGINE: SequentialEngine = SequentialEngine;
static NATIVE_ENGINE: NativeParallelEngine = NativeParallelEngine;
static ASYNC_ENGINE: AsyncCoopEngine = AsyncCoopEngine;
static PR_ENGINE: LazyLock<PrEstimateEngine> = LazyLock::new(PrEstimateEngine::default);

impl EngineKind {
    /// All engine kinds, in canonical order (matching [`ENGINE_NAMES`]).
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Sim,
        EngineKind::Seq,
        EngineKind::Pr,
        EngineKind::Native,
        EngineKind::AsyncCoop,
    ];

    /// The canonical short name (`"sim"`, `"seq"`, `"pr"`, `"native"`,
    /// `"async"`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sim => "sim",
            EngineKind::Seq => "seq",
            EngineKind::Pr => "pr",
            EngineKind::Native => "native",
            EngineKind::AsyncCoop => "async",
        }
    }

    /// Every accepted spelling of this kind, canonical name first.
    pub fn aliases(self) -> &'static [&'static str] {
        match self {
            EngineKind::Sim => &["sim", "simulator", "pods"],
            EngineKind::Seq => &["seq", "sequential", "baseline"],
            EngineKind::Pr => &["pr", "estimate", "pingali-rogers"],
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

    /// Parses a name or alias, case-insensitively and without allocating.
    /// Returns `None` for unknown names ([`std::str::FromStr`] maps that to
    /// [`PodsError::UnknownEngine`]).
    pub fn parse(name: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|k| k.aliases().iter().any(|a| a.eq_ignore_ascii_case(name)))
    }

    /// The shared, statically-allocated engine instance of this kind.
    pub fn engine(self) -> &'static dyn Engine {
        match self {
            EngineKind::Sim => &SIM_ENGINE,
            EngineKind::Seq => &SEQ_ENGINE,
            EngineKind::Pr => &*PR_ENGINE,
            EngineKind::Native => &NATIVE_ENGINE,
            EngineKind::AsyncCoop => &ASYNC_ENGINE,
        }
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

/// Looks an engine up by name (case-insensitive; a few aliases accepted).
///
/// Allocation-free: backed by [`EngineKind::parse`] and the static engine
/// registry. Returns `None` for unknown names;
/// [`crate::pipeline::CompiledProgram::run_on`] converts that into
/// [`PodsError::UnknownEngine`].
pub fn engine_by_name(name: &str) -> Option<&'static dyn Engine> {
    Some(EngineKind::parse(name)?.engine())
}

/// Per-task memo of array directory lookups, shared by both pooled
/// engines (generic over the store's waiter tag type).
///
/// Going through the store's sharded directory (plus an `Arc` refcount
/// bump) for every element access costs two shared-cache-line touches;
/// loop instances touch the same few arrays thousands of times, so one
/// lookup per task execution amortises to nothing. The memo is owned by the
/// worker thread and *cleared* (keeping its capacity) after every task or
/// poll: array ids are per job, and a cleared memo holds no
/// `Arc<SharedArray>` past the job that allocated it.
#[derive(Debug)]
pub(crate) struct ArrayCache<T> {
    entries: Vec<(
        pods_istructure::ArrayId,
        std::sync::Arc<pods_istructure::SharedArray<T>>,
    )>,
}

impl<T> Default for ArrayCache<T> {
    fn default() -> Self {
        ArrayCache {
            entries: Vec::new(),
        }
    }
}

impl<T> ArrayCache<T> {
    pub(crate) fn get(
        &mut self,
        store: &pods_istructure::SharedArrayStore<T>,
        id: pods_istructure::ArrayId,
    ) -> Result<&pods_istructure::SharedArray<T>, String> {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == id) {
            return Ok(&self.entries[i].1);
        }
        let shared = store.require(id).map_err(|e| e.to_string())?;
        self.entries.push((id, shared));
        Ok(&self.entries.last().expect("just pushed").1)
    }

    /// Forgets every memoised array (a task/poll boundary), keeping the
    /// capacity.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Upper bound on recycled frames a worker keeps around, so a spike of tiny
/// instances cannot pin memory forever. Shared by both pooled engines.
const ARENA_MAX_FREE: usize = 256;

/// Per-worker free-list of instance frames (operand-slot vectors), shared
/// by both pooled engines. Loop bodies spawn one instance per iteration;
/// recycling the frame of every finished instance turns that allocator
/// traffic into a pop/push on a thread-local vector — and keeps the two
/// schedulers' allocator costs symmetric, so `async_vs_native` timings
/// measure scheduling, not allocation.
#[derive(Default)]
pub(crate) struct InstanceArena {
    free: Vec<Vec<Option<Value>>>,
}

impl InstanceArena {
    /// A frame of `num_slots` cleared slots with `args` copied into the
    /// parameter positions. Returns `true` when the frame was recycled.
    pub(crate) fn frame(&mut self, num_slots: usize, args: &[Value]) -> (Vec<Option<Value>>, bool) {
        let (mut slots, reused) = match self.free.pop() {
            Some(v) => (v, true),
            None => (Vec::with_capacity(num_slots), false),
        };
        slots.clear();
        slots.resize(num_slots, None);
        for (i, v) in args.iter().take(num_slots).enumerate() {
            slots[i] = Some(*v);
        }
        (slots, reused)
    }

    pub(crate) fn recycle(&mut self, slots: Vec<Option<Value>>) {
        if self.free.len() < ARENA_MAX_FREE {
            self.free.push(slots);
        }
    }
}

/// Per-job liveness accounting shared by both pooled engines. `live`
/// counts existing instances (queued, running, or parked/suspended);
/// `in_flight` counts queued-or-running tasks. When `in_flight` hits zero
/// with instances still live, no future delivery can wake them: the job is
/// deadlocked.
#[derive(Default)]
pub(crate) struct JobCounts {
    pub(crate) live: usize,
    pub(crate) in_flight: usize,
}

/// The error every job cut short by pool teardown reports (both pooled
/// engines use the same wording; tests match on "cancelled").
pub(crate) fn cancellation_error() -> pods_machine::SimulationError {
    pods_machine::SimulationError::Runtime(
        "job cancelled: its runtime was dropped before the job completed".into(),
    )
}

/// Shared argument validation used by every engine.
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

    #[test]
    fn registry_resolves_names_and_aliases() {
        for name in ENGINE_NAMES {
            let engine = engine_by_name(name).unwrap();
            assert_eq!(engine.name(), name);
            assert!(!engine.description().is_empty());
        }
        assert_eq!(engine_by_name("SIMULATOR").unwrap().name(), "sim");
        assert_eq!(engine_by_name("threads").unwrap().name(), "native");
        assert!(engine_by_name("warp-drive").is_none());
    }

    #[test]
    fn engine_kind_is_typed_and_static() {
        for (kind, name) in EngineKind::ALL.into_iter().zip(ENGINE_NAMES) {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.to_string(), name);
            assert_eq!(kind.engine().name(), name);
            assert_eq!(name.parse::<EngineKind>().unwrap(), kind);
            assert_eq!(kind.aliases()[0], name);
        }
        // The registry hands out the same static instance every time.
        let a = engine_by_name("sim").unwrap() as *const dyn Engine;
        let b = engine_by_name("simulator").unwrap() as *const dyn Engine;
        assert!(std::ptr::addr_eq(a, b));
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
        for name in ENGINE_NAMES {
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
        for name in ENGINE_NAMES {
            let engine = engine_by_name(name).unwrap();
            assert!(matches!(
                engine.run(&program, &[], &RunOptions::default()),
                Err(PodsError::ArgumentMismatch {
                    expected: 1,
                    got: 0
                })
            ));
            assert!(matches!(
                engine.run(&no_main, &[], &RunOptions::default()),
                Err(PodsError::MissingEntry)
            ));
        }
    }

    #[test]
    fn scalar_program_agrees_across_all_engines() {
        let program = compile("def main(n) { return n * 3 + 1; }").unwrap();
        for name in ENGINE_NAMES {
            let engine = engine_by_name(name).unwrap();
            let outcome = engine
                .run(&program, &[Value::Int(4)], &RunOptions::with_pes(2))
                .unwrap();
            assert_eq!(outcome.return_value, Some(Value::Int(13)), "{name}");
            assert_eq!(outcome.engine, engine.name());
            assert!(outcome.elapsed_us() >= 0.0);
        }
    }
}
