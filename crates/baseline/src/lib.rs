//! Comparators for the PODS reproduction.
//!
//! Two baselines accompany the PODS simulator, mirroring the paper's
//! evaluation:
//!
//! * [`run_sequential`] — a control-driven sequential interpreter of the same
//!   `idlang` programs with an iPSC/2-style cost model but none of the PODS
//!   run-time machinery. It stands in for the "most efficient sequential
//!   version written in a conventional language" of the §5.3.4 efficiency
//!   comparison, doubles as a correctness reference for the machine
//!   simulator, and profiles every top-level loop nest of the loop analysis
//!   it is given. It resolves, then runs: one pass over the program binds
//!   every name to a frame slot and lays out every expression as postfix
//!   code, and the run then looks nothing up by name and copies no
//!   environment.
//! * [`PrModel`] — a bulk-synchronous, statically-scheduled SPMD cost model
//!   standing in for the Pingali & Rogers compiled-Id system (the "P&R"
//!   curve of Figure 10), driven by the sequential profile and the loop
//!   analysis.
//!
//! ```
//! use pods_baseline::{run_sequential, PrModel};
//! use pods_istructure::Value;
//! use pods_machine::TimingModel;
//!
//! let hir = pods_idlang::compile(pods_workloads::FILL).unwrap();
//! let loops = pods_idlang::analyze_loops(&hir);
//! let seq = run_sequential(&hir, &loops, &[Value::Int(16)], &TimingModel::default(), 0).unwrap();
//! let pr = PrModel::default().estimate(&seq, 8);
//! assert!(pr.speedup >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interp;
mod pr;

pub use interp::{run_sequential, BaselineArray, BaselineError, NestProfile, SequentialRun};
pub use pr::{PrModel, PrPoint};
