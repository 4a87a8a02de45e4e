//! Dataflow-graph IR and loop analysis for the PODS reproduction.
//!
//! This crate plays the role of the `.graph` stage of the paper's pipeline
//! (Figure 3): it turns the HIR produced by [`pods_idlang`] into per-code-block
//! dataflow graphs (one block per function body and per loop level, exactly
//! the granularity at which PODS later creates Subcompact Processes), and it
//! provides the loop-nest analysis — loop-carried-dependency detection and
//! distribution-target selection — that drives the PODS Partitioner.
//!
//! # Example
//!
//! ```
//! use pods_dataflow::{build_program, analyze_loops};
//!
//! let hir = pods_idlang::compile(
//!     "def main(n) { a = matrix(n, n);
//!        for i = 0 to n - 1 { for j = 0 to n - 1 { a[i, j] = i + j; } }
//!        return a; }",
//! )?;
//! let graph = build_program(&hir);
//! assert_eq!(graph.stats().loop_blocks, 2);
//!
//! let loops = analyze_loops(&hir);
//! assert!(loops[0].is_distributable());
//! # Ok::<(), pods_idlang::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod build;
pub mod dot;
pub mod graph;
pub mod op;

pub use analysis::{analyze_loops, find_loop, LoopInfo, LoopKey, WriteAccess};
pub use build::build_program;
pub use dot::to_dot;
pub use graph::{BlockId, BlockKind, CodeBlock, DataflowProgram, GraphStats, Node, NodeId};
pub use op::{Literal, Operator};
