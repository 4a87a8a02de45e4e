//! Subcompact Processes: the PODS Translator and SP program representation.
//!
//! The paper's central execution abstraction is the *Subcompact Process*
//! (SP): a sequential thread obtained from one dataflow code block, driven by
//! a program counter, which blocks when an operand it needs has not arrived
//! and is re-activated by the arrival of that operand (a dataflow / von
//! Neumann hybrid, §3). This crate defines:
//!
//! * the SP instruction set ([`Instr`], [`Operand`], [`SlotId`]),
//! * SP templates and programs ([`SpTemplate`], [`SpProgram`]), including the
//!   loop metadata the partitioner uses to insert Range Filters,
//! * the translator from the `idlang` HIR to SP templates ([`translate()`]),
//!   which makes each function and each loop-nest level a separate SP,
//! * the prepare-time specialization pass ([`specialize_program`]): operand
//!   fetches pre-resolved, straight-line runs collapsed into super-ops with
//!   one hoisted firing check, carried per template as a [`TemplatePlan`]
//!   that the shared driver executes directly, and
//! * the shared instruction-execution core ([`exec`]): the single audited
//!   implementation of SP semantics (operand coercion, the firing rule,
//!   split-phase loads, Range-Filter clamping), generic over a suspension
//!   strategy ([`exec::ExecCtx`]) and an I-structure access strategy
//!   ([`exec::ArrayOps`]) so every engine — the machine simulator, the
//!   native thread pool, the async cooperative executor — executes the
//!   *same* semantics and differs only in scheduling mechanics.
//!
//! # Example
//!
//! ```
//! let hir = pods_idlang::compile(
//!     "def main() { a = array(8); for i = 0 to 7 { a[i] = i * i; } return a; }",
//! ).unwrap();
//! let program = pods_sp::translate(&hir).unwrap();
//! assert_eq!(program.len(), 2);                 // main + the i-loop
//! assert!(program.validate().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod exec;
pub mod instr;
pub mod specialize;
pub mod template;
pub mod translate;

pub use chunk::{chunk_loop_spawns, ChunkPolicy, ChunkSummary};
pub use instr::{Instr, Operand, SlotId, SpId};
/// The identifier type of template, parameter and slot names.
pub use pods_idlang::Name;
pub use specialize::{specialize_program, SpecializeSummary, TemplatePlan};
pub use template::{ChunkMeta, LoopMeta, SpKind, SpProgram, SpTemplate};
pub use translate::{translate, TranslateError};
