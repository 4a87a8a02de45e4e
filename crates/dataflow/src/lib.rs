//! Dataflow graphs of the HIR, kept only for the standing benchmark.
//!
//! This crate plays the role of the `.graph` stage of the paper's pipeline
//! (Figure 3): it turns the HIR produced by [`pods_idlang`] into per-code-block
//! dataflow graphs, one block per function body and per loop level, exactly
//! the granularity at which PODS later creates Subcompact Processes. The
//! pipeline itself lowers the HIR straight to SP templates
//! (`pods_sp::translate`) and reads no graph; the standing benchmark
//! (`benchmark/`) still times this build (`dataflow.build_us`) and the loop
//! analysis (`dataflow.analyze_us`) under this crate's name. This crate and
//! its re-export of the analysis go when the benchmark retires that probe.
//!
//! # Example
//!
//! ```
//! use pods_dataflow::build_program;
//!
//! let hir = pods_idlang::compile(
//!     "def main(n) { a = matrix(n, n);
//!        for i = 0 to n - 1 { for j = 0 to n - 1 { a[i, j] = i + j; } }
//!        return a; }",
//! )?;
//! let graph = build_program(&hir);
//! assert_eq!(graph.stats().loop_blocks, 2);
//! # Ok::<(), pods_idlang::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod graph;
pub mod op;

pub use build::build_program;
pub use graph::{BlockId, BlockKind, CodeBlock, DataflowProgram, GraphStats, Node, NodeId};
pub use op::{Literal, Operator};
/// The loop analysis, which lives in [`pods_idlang`]; re-exported under the
/// name the benchmark's `dataflow.analyze_us` probe calls.
pub use pods_idlang::analyze_loops;
