//! Instruction-level simulator of the PODS target architecture.
//!
//! The paper evaluates PODS on a simulated Intel iPSC/2: a distributed-memory
//! MIMD machine whose PEs each contain an Execution Unit, Matching Unit,
//! Memory Manager, Array Manager, and Routing Unit (Figure 7), with the
//! timing constants of §5.1. This crate reproduces that simulator:
//!
//! * [`TimingModel`] / [`MachineConfig`] — the published timing constants and
//!   machine parameters (32-element pages, Dunigan message times, ...),
//! * [`Simulation`] / [`simulate`] — a discrete-event simulation that
//!   executes a partitioned [`pods_sp::SpProgram`] on `N` PEs, modelling
//!   split-phase array access, deferred reads, remote page caching, `LD`
//!   spawning, Range Filters, and blocking/re-activation of SP instances,
//! * [`SimulationResult`] / [`SimulationStats`] — final array contents, the
//!   entry SP's return value, per-unit utilizations and event counters (the
//!   raw material for the paper's Figures 8–10).
//!
//! # Example
//!
//! ```
//! use pods_machine::{simulate, MachineConfig};
//! use pods_istructure::Value;
//!
//! let hir = pods_idlang::compile(
//!     "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * i; } return a; }",
//! ).unwrap();
//! let loops = pods_dataflow::analyze_loops(&hir);
//! let mut program = pods_sp::translate(&hir).unwrap();
//! pods_partition::partition(&mut program, &loops, &Default::default());
//!
//! let result = simulate(&program, &[Value::Int(16)], &MachineConfig::with_pes(4)).unwrap();
//! assert!(result.returned_array().unwrap().is_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instance;
pub mod result;
pub mod sim;
pub mod stats;
pub mod timing;

// Scalar evaluation lives in the shared instruction core now
// (`pods_sp::exec`); re-exported here for the historical API surface.
pub use instance::{Instance, InstanceId, InstanceStatus, Waiter};
pub use pods_sp::exec::{eval_binary, eval_unary, EvalError};
pub use result::{ArraySnapshot, SimulationResult};
pub use sim::{simulate, simulate_with_sink, Simulation, SimulationError};
pub use stats::{MessageKind, PeStats, SimulationStats, Unit, UnitState};
pub use timing::{MachineConfig, TimingModel};
