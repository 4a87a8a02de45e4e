//! PODS — a Process-Oriented Dataflow System.
//!
//! This crate is the top-level library of the reproduction of *Exploiting
//! Iteration-Level Parallelism in Dataflow Programs* (Bic, Roy, Nagel). It
//! wires together the full pipeline of the paper's Figure 3:
//!
//! 1. **`idlang` front end** — a small Id-Nouveau-like declarative,
//!    single-assignment language parsed straight to its HIR, and the loop
//!    analysis over that HIR: LCDs and distribution targets
//!    ([`pods_idlang`]),
//! 2. **the PODS Translator** — each function and loop level of the HIR
//!    becomes a Subcompact Process template ([`pods_sp`]),
//! 3. **the PODS Partitioner** — distributing allocate, `LD` operators, and
//!    Range Filters ([`pods_partition`]),
//! 4. **the machine simulator** — an instruction-level model of an
//!    iPSC/2-like distributed-memory multiprocessor with I-structure memory
//!    ([`pods_machine`], [`pods_istructure`]).
//!
//! # Quick start
//!
//! Compile once, then execute any number of times on a persistent
//! [`Runtime`] — the native runtime keeps one work-stealing worker pool
//! alive across runs, so per-run cost is a job submission, not a thread
//! spawn:
//!
//! ```
//! use pods::{compile, EngineKind, Runtime, Value};
//!
//! let program = compile(
//!     "def main(n) {
//!          a = matrix(n, n);
//!          for i = 0 to n - 1 {
//!              for j = 0 to n - 1 { a[i, j] = i * n + j; }
//!          }
//!          return a;
//!      }",
//! )?;
//! let runtime = Runtime::builder(EngineKind::Sim).workers(4).build();
//! let outcome = runtime.run(&program, &[Value::Int(8)])?;
//! assert!(outcome.returned_array().unwrap().is_complete());
//!
//! // Batched submission: many jobs share one native pool concurrently.
//! let native = Runtime::builder(EngineKind::Native).workers(2).build();
//! let args8: &[Value] = &[Value::Int(8)];
//! let args12: &[Value] = &[Value::Int(12)];
//! for outcome in native.run_many(&[(&program, args8), (&program, args12)]) {
//!     assert!(outcome?.returned_array().unwrap().is_complete());
//! }
//! # Ok::<(), pods::PodsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod error;
mod pipeline;
pub mod report;
mod runtime;
mod service;
pub mod trace;

pub use engine::{AsyncStats, EngineKind, EngineOutcome, EngineStats, NativeStats};
pub use error::PodsError;
pub use pipeline::{compile, speedup_sweep, CompiledProgram, RunOptions, SpeedupPoint};
pub use runtime::{JobHandle, PreparedProgram, ProgramSource, Runtime, RuntimeBuilder};
pub use service::{ClientId, ServiceMetrics};
pub use trace::{JobBreakdown, JobTrace, TraceConfig, TraceEvent, TraceEventKind};

// Re-export the pieces a downstream user needs to drive runs and interpret
// results without depending on every sub-crate explicitly.
pub use pods_baseline::{BaselineError, SequentialRun};
pub use pods_istructure::{ArrayId, ArrayShape, SharedArrayStore, StoreStats, Value};
pub use pods_machine::{
    ArraySnapshot, MachineConfig, SimulationError, SimulationResult, SimulationStats, TimingModel,
    Unit,
};
pub use pods_partition::{ChunkPolicy, LoopDecision, PartitionConfig, PartitionReport};
