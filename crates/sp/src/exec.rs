//! The shared SP instruction-execution core.
//!
//! Three schedulers execute SP instructions: the discrete-event machine
//! simulator (`pods-machine`), the native work-stealing thread pool, and the
//! async cooperative executor (both in the `pods` crate). Before this module
//! existed each of them carried its own hand-copied `match instr`
//! interpreter, and the differential test suite was the only thing keeping
//! the three copies from drifting apart — a rule change (or a rule *fix*)
//! had to be applied three times, identically, by hand.
//!
//! This module is the single audited implementation of the *semantics*:
//! operand coercion, the dataflow firing rule, arithmetic evaluation,
//! zero-dimension allocation rejection, split-phase load rules, Range-Filter
//! clamping, spawn argument marshalling, and return routing. Engines differ
//! only in *mechanics*, expressed through two small traits:
//!
//! * [`ArrayOps`] — how I-structure storage is reached. Every engine keeps
//!   its values in a [`pods_istructure::SharedArrayStore`]; the simulator
//!   also prices each access (local, cached page, or remote message).
//! * [`ExecCtx`] — the suspension strategy and everything else scheduler
//!   shaped: frame slots, the program counter, cost accounting (the
//!   simulator's timing model), spawning, and the stop signal. When the
//!   firing rule finds an operand absent, [`run_instance`] returns
//!   [`RunExit::Blocked`] and the engine decides what a suspension *is*:
//!   the simulator re-queues the instance on an event, the native pool
//!   parks it in a registry with a mailbox re-check, the async executor
//!   saves the frame in the task and registers a waker.
//!
//! # The unified rules
//!
//! Porting the three interpreters onto this core surfaced divergences;
//! the corrected rule for each is encoded here (and pinned by the
//! table-driven tests below) so it can never silently fork again:
//!
//! * **Split-phase loads** ([`Instr::ArrayLoad`]): issuing a load clears the
//!   destination slot's presence bit and the SP *keeps running* until the
//!   value is actually consumed (the firing rule of a later instruction
//!   blocks on the slot). The simulator always did this; the pooled engines
//!   used to suspend eagerly at the load itself. One consequence is shared
//!   deadlock reporting: the diagnosed pc is always the instruction whose
//!   operands are missing — the consumer — on every engine (previously the
//!   async engine patched its report to the issuing pc instead).
//! * **Range-Filter clamping** ([`Instr::RangeLo`] / [`Instr::RangeHi`]):
//!   the filter *partitions the source iteration range*; it must never
//!   truncate it. A PE whose responsibility touches the array's edge keeps
//!   the original bound, so out-of-range iterations still execute (exactly
//!   once, on the edge PE) and fault in the array access just as the
//!   sequential oracle faults. The old rule clamped to the edge, silently
//!   swallowing out-of-bounds iterations that the oracle reports as errors.
//!   On one PE the filter is now the identity, which is self-evidently the
//!   sequential semantics.
//! * **Branch coercion** ([`Instr::BranchIfFalse`]): numbers are truthy
//!   (non-zero) like the oracle's conditions, but branching on a value with
//!   no truth value (an array reference, unit) is a runtime error — it used
//!   to silently take the false edge.
//! * **Scalar evaluation** ([`eval_binary`] / [`eval_unary`]): integer
//!   arithmetic is uniformly wrapping. Division and remainder previously
//!   used the panicking operators, so `i64::MIN / -1` killed the executing
//!   worker thread (poisoning a whole pool) instead of producing a value;
//!   negation and absolute value overflowed the same way.

use crate::instr::{Instr, Operand, SlotId, SpId};
use crate::specialize::{Fetch, FusedOp, PlanOp, SuperOp, TemplatePlan};
use crate::template::{ChunkMeta, SpProgram};
use pods_idlang::{BinaryOp, UnaryOp};
use pods_istructure::{ArrayHeader, ArrayId, DimRange, PeId, Value};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Scalar evaluation (moved here from `pods-machine` so every interpreter —
// including the sequential oracle — shares one implementation).
// ---------------------------------------------------------------------------

/// An arithmetic evaluation error (reported as a runtime error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError(pub String);

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for EvalError {}

fn numeric(v: &Value, what: &str) -> Result<f64, EvalError> {
    v.as_f64()
        .ok_or_else(|| EvalError(format!("{what} is not numeric: {v}")))
}

/// Evaluates a binary operator.
///
/// Integer operands produce integer results for the arithmetic operators;
/// mixing an integer with a float promotes to float, mirroring conventional
/// numeric semantics. Comparison and logical operators produce booleans.
/// Integer arithmetic is uniformly *wrapping* — including division and
/// remainder, so `i64::MIN / -1` wraps instead of panicking (a panic inside
/// a worker thread would poison a whole execution pool).
///
/// # Errors
///
/// Returns an error for non-numeric operands where numbers are required,
/// and for integer division or remainder by zero.
pub fn eval_binary(op: BinaryOp, lhs: Value, rhs: Value) -> Result<Value, EvalError> {
    use BinaryOp::*;
    match op {
        And | Or => {
            let a = lhs
                .as_bool()
                .ok_or_else(|| EvalError(format!("left operand of `{op}` is not boolean")))?;
            let b = rhs
                .as_bool()
                .ok_or_else(|| EvalError(format!("right operand of `{op}` is not boolean")))?;
            Ok(Value::Bool(if op == And { a && b } else { a || b }))
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            let a = numeric(&lhs, "left comparison operand")?;
            let b = numeric(&rhs, "right comparison operand")?;
            let r = match op {
                Eq => a == b,
                Ne => a != b,
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            };
            Ok(Value::Bool(r))
        }
        Add | Sub | Mul | Div | Rem | Min | Max | Pow => match (lhs, rhs) {
            (Value::Int(a), Value::Int(b)) => match op {
                Add => Ok(Value::Int(a.wrapping_add(b))),
                Sub => Ok(Value::Int(a.wrapping_sub(b))),
                Mul => Ok(Value::Int(a.wrapping_mul(b))),
                Div => {
                    if b == 0 {
                        Err(EvalError("integer division by zero".into()))
                    } else {
                        // Wrapping, like the other arms: `i64::MIN / -1`
                        // must not panic the executing worker.
                        Ok(Value::Int(a.wrapping_div(b)))
                    }
                }
                Rem => {
                    if b == 0 {
                        Err(EvalError("integer remainder by zero".into()))
                    } else {
                        Ok(Value::Int(a.wrapping_rem(b)))
                    }
                }
                Min => Ok(Value::Int(a.min(b))),
                Max => Ok(Value::Int(a.max(b))),
                Pow => {
                    if (0..64).contains(&b) {
                        // Wrapping, like the add/sub/mul arms above: integer
                        // overflow must not panic in debug builds.
                        Ok(Value::Int(a.wrapping_pow(b as u32)))
                    } else {
                        Ok(Value::Float((a as f64).powf(b as f64)))
                    }
                }
                _ => unreachable!(),
            },
            (l, r) => {
                let a = numeric(&l, "left arithmetic operand")?;
                let b = numeric(&r, "right arithmetic operand")?;
                let v = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Rem => a % b,
                    Min => a.min(b),
                    Max => a.max(b),
                    Pow => a.powf(b),
                    _ => unreachable!(),
                };
                Ok(Value::Float(v))
            }
        },
    }
}

/// Evaluates a unary operator. Integer negation and absolute value wrap on
/// `i64::MIN` instead of panicking.
///
/// # Errors
///
/// Returns an error for non-numeric (or, for `Not`, non-boolean) operands.
pub fn eval_unary(op: UnaryOp, v: Value) -> Result<Value, EvalError> {
    use UnaryOp::*;
    match op {
        Not => Ok(Value::Bool(!v.as_bool().ok_or_else(|| {
            EvalError(format!("operand of `not` is not boolean: {v}"))
        })?)),
        Neg => match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            other => Ok(Value::Float(-numeric(&other, "operand of negation")?)),
        },
        Abs => match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            other => Ok(Value::Float(numeric(&other, "operand of abs")?.abs())),
        },
        Floor => Ok(Value::Int(numeric(&v, "operand of floor")?.floor() as i64)),
        Ceil => Ok(Value::Int(numeric(&v, "operand of ceil")?.ceil() as i64)),
        Sqrt => Ok(Value::Float(numeric(&v, "operand of sqrt")?.sqrt())),
        Exp => Ok(Value::Float(numeric(&v, "operand of exp")?.exp())),
        Ln => Ok(Value::Float(numeric(&v, "operand of ln")?.ln())),
        Sin => Ok(Value::Float(numeric(&v, "operand of sin")?.sin())),
        Cos => Ok(Value::Float(numeric(&v, "operand of cos")?.cos())),
    }
}

// ---------------------------------------------------------------------------
// Cost classes, read-slot tables, and shared helpers.
// ---------------------------------------------------------------------------

/// The abstract cost class of one executed instruction, reported to
/// [`ExecCtx::charge`] *before* the instruction's side effects run. The
/// simulator maps these onto its §5.1 timing table (so which instruction
/// belongs to which cost class is itself part of the shared semantics);
/// the native engines ignore them (the default `charge` is a no-op that
/// monomorphises away).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cost {
    /// A binary ALU operation; `float` when either operand is a float.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Charged at floating-point rates when set.
        float: bool,
    },
    /// A unary ALU operation; `float` when the operand is a float.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Charged at floating-point rates when set.
        float: bool,
    },
    /// A register-to-register move.
    Move,
    /// An unconditional or conditional jump.
    Control,
    /// Issuing an array allocation request to the Array Manager.
    ArrayAlloc,
    /// Issuing an element load or store.
    ArrayAccess,
    /// A Range-Filter header consultation.
    RangeFilter,
    /// Spawning child instances.
    Spawn,
    /// Terminating the SP.
    Return,
    /// The firing rule found an operand absent: the instance blocks.
    ContextSwitch,
}

/// Precomputed read-slot lists per `(template, pc)`: the firing-rule check
/// runs for every executed instruction, and rebuilding the list each time is
/// measurable across millions of instructions. Built once per (prepared)
/// program and shared by every execution.
///
/// One flat table for the whole program — the slots of every `(template,
/// pc)` in one vector, delimited by per-pc offsets — so building it makes
/// three allocator calls however many instructions the program has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSlots {
    /// Every instruction's read slots, template by template, pc by pc.
    slots: Vec<SlotId>,
    /// `slots[offsets[i]..offsets[i + 1]]` are the reads of the `i`-th
    /// instruction of the program (counted across templates).
    offsets: Vec<u32>,
    /// Template `t`'s instructions are `starts[t]..starts[t + 1]` of the
    /// instruction numbering `offsets` uses.
    starts: Vec<u32>,
}

impl ReadSlots {
    /// Builds the table for a sequence of templates' code, sizing every
    /// vector exactly up front.
    pub(crate) fn new<'a>(templates: impl Iterator<Item = &'a [Instr]> + Clone) -> Self {
        let (count, instrs) = templates.clone().fold((0, 0), |(count, instrs), code| {
            let reads: usize = code.iter().map(|i| i.reads().count()).sum();
            (count + reads, instrs + code.len())
        });
        let index = |n: usize| u32::try_from(n).expect("read-slot table exceeds u32 indices");
        let mut table = ReadSlots {
            slots: Vec::with_capacity(count),
            offsets: Vec::with_capacity(instrs + 1),
            starts: Vec::with_capacity(templates.clone().count() + 1),
        };
        table.offsets.push(0);
        table.starts.push(0);
        for code in templates {
            for instr in code {
                table.slots.extend(instr.reads());
                table.offsets.push(index(table.slots.len()));
            }
            table.starts.push(index(table.offsets.len() - 1));
        }
        table
    }

    /// Number of templates in the table.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Returns `true` when the table covers no template.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The read slots of one template, indexed by pc.
    ///
    /// # Panics
    ///
    /// Panics when `template` is out of range.
    pub fn template(&self, template: SpId) -> TemplateReads<'_> {
        let (lo, hi) = (
            self.starts[template.index()] as usize,
            self.starts[template.index() + 1] as usize,
        );
        TemplateReads {
            slots: &self.slots,
            offsets: &self.offsets[lo..=hi],
        }
    }
}

/// One template's view of a [`ReadSlots`] table: what [`run_instance`]
/// checks the firing rule against.
#[derive(Debug, Clone, Copy)]
pub struct TemplateReads<'a> {
    slots: &'a [SlotId],
    /// `code.len() + 1` offsets into `slots`.
    offsets: &'a [u32],
}

impl<'a> TemplateReads<'a> {
    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` when the template has no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slots the instruction at `pc` reads, each once, in operand order
    /// ([`Instr::reads`]).
    #[inline(always)]
    pub fn at(&self, pc: usize) -> &'a [SlotId] {
        &self.slots[self.offsets[pc] as usize..self.offsets[pc + 1] as usize]
    }
}

/// Builds the [`ReadSlots`] table for a (partitioned) SP program.
pub fn build_read_slots(program: &SpProgram) -> ReadSlots {
    ReadSlots::new(program.templates().iter().map(|t| t.code.as_slice()))
}

/// Row-major element offset of `idx` in the array described by `header`,
/// with the canonical out-of-bounds diagnostic shared by every engine.
///
/// # Errors
///
/// Returns the out-of-bounds message when any index lies outside the shape.
pub fn element_offset(header: &ArrayHeader, idx: &[i64]) -> Result<usize, String> {
    header.offset_of(idx).ok_or_else(|| {
        format!(
            "index {idx:?} out of bounds for {} array `{}`",
            header.shape(),
            header.name()
        )
    })
}

/// The Range-Filter bound rule (one semantics for every engine).
///
/// `default_v` is the source-level loop bound, `range` this PE's area of
/// responsibility for the filtered dimension, `extent` the dimension's full
/// extent, and `is_lo` selects the lower (`max`) or upper (`min`) filter.
///
/// The filter *partitions* the source iteration range across PEs — its
/// union over all PEs must be exactly the source range, never a truncation
/// of it. Interior responsibility edges clamp as in Figure 5; a PE whose
/// responsibility touches the edge of the array keeps the original bound,
/// so iterations outside the array (a program error) still execute — once,
/// on the edge PE — and fault in the array access exactly like the
/// sequential oracle. On a single PE the filter is the identity.
pub fn range_filter_bound(default_v: i64, range: &DimRange, extent: i64, is_lo: bool) -> i64 {
    if range.is_empty() {
        // A PE with no responsibility runs no iterations: clamping an empty
        // range yields lo > hi on this PE regardless of the defaults.
        return if is_lo {
            default_v.max(range.start)
        } else {
            default_v.min(range.end)
        };
    }
    if is_lo {
        if range.start == 0 {
            default_v
        } else {
            default_v.max(range.start)
        }
    } else if range.end == extent - 1 {
        default_v
    } else {
        default_v.min(range.end)
    }
}

// ---------------------------------------------------------------------------
// The two engine-facing traits.
// ---------------------------------------------------------------------------

/// What a split-phase element load produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Loaded {
    /// The element was present; the value is delivered into the destination
    /// slot immediately.
    Ready(Value),
    /// The element has not been written. The implementation has registered
    /// a waiter/waker for the destination slot; the core clears the slot's
    /// presence bit and the SP keeps running until the value is consumed.
    Deferred,
}

/// I-structure access as seen by the instruction core. Both the simulator
/// and the pooled engines keep their values in a
/// [`pods_istructure::SharedArrayStore`]; the simulator adds each PE's
/// residency (page cache, remote read/write messages, allocation
/// broadcasts) to decide what an access costs.
///
/// All methods take `&mut self` because implementations update statistics,
/// schedule events, or memoise directory lookups.
pub trait ArrayOps {
    /// Allocates an array and routes its [`Value::ArrayRef`] to `dst`. The
    /// core has already validated the dimensions (non-empty extents) and
    /// resolved them on its stack (up to rank four), and hands over the
    /// template's shared copy of the name, so an implementation that keeps
    /// neither need not allocate.
    /// Implementations choose the delivery mechanics: the pooled engines
    /// set the slot synchronously, the simulator clears it and delivers the
    /// reference asynchronously from the Array Manager.
    ///
    /// # Errors
    ///
    /// Returns a runtime-error message on allocation failure.
    fn alloc_array(
        &mut self,
        dst: SlotId,
        name: &Arc<str>,
        dims: &[usize],
        distributed: bool,
    ) -> Result<(), String>;

    /// Runs `f` against the header of array `id` (shape and responsibility
    /// lookups for offsets and Range Filters).
    ///
    /// # Errors
    ///
    /// Returns a runtime-error message when the array is unknown here.
    fn with_header<R>(
        &mut self,
        id: ArrayId,
        f: impl FnOnce(&ArrayHeader) -> R,
    ) -> Result<R, String>;

    /// Issues the split-phase read of element `offset`. On
    /// [`Loaded::Deferred`] the implementation must have registered a
    /// waiter that will eventually deliver the value into `dst` of the
    /// *current* instance.
    ///
    /// # Errors
    ///
    /// Returns a runtime-error message for invalid accesses.
    fn load_element(&mut self, id: ArrayId, offset: usize, dst: SlotId) -> Result<Loaded, String>;

    /// Writes element `offset`, re-activating (or buffering the wake-ups
    /// of) any deferred readers.
    ///
    /// # Errors
    ///
    /// Returns a runtime-error message for single-assignment violations and
    /// invalid accesses.
    fn store_element(&mut self, id: ArrayId, offset: usize, value: Value) -> Result<(), String>;
}

/// A trace event emitted by the shared execution core itself. These are the
/// events only the core can see — the *reason* an instance suspends (the pc
/// and slot the firing rule blocked on), the split-phase load that will
/// eventually resume it (array id + pc), and in-place chunk advances.
/// Scheduler-level events (spawns, steals, run spans) are emitted by the
/// engines directly; together the two layers form one flight-recorder
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEvent {
    /// The firing rule found `slot` absent at `pc`: the instance suspends
    /// until that operand arrives.
    Blocked {
        /// Program counter of the blocked (consuming) instruction.
        pc: usize,
        /// The absent operand slot.
        slot: SlotId,
    },
    /// A split-phase array read found no value: `array[...]` at `pc` was
    /// deferred and a waiter was registered.
    DeferredLoad {
        /// The array whose element was absent.
        array: ArrayId,
        /// Program counter of the deferring load.
        pc: usize,
    },
    /// The chunk driver advanced a chunked instance to its next outer
    /// iteration in place (no new instance was spawned).
    ChunkAdvanced,
}

/// A consumer of core-level trace events, threaded through
/// [`ExecCtx::trace_sink`]. Engines implement this on their execution
/// context (which knows the worker, job, and instance identity the core
/// does not) and forward into their flight recorder; the machine simulator
/// carries a boxed sink so simulated runs produce the same events.
pub trait TraceSink {
    /// Records one core event, attributed to virtual/physical PE `pe`.
    fn exec_event(&mut self, pe: usize, ev: ExecEvent);
}

/// The per-engine execution context: one SP instance's frame plus the
/// engine's scheduling hooks. [`execute_instr`] and [`run_instance`] drive
/// this trait; implementations add nothing semantic.
pub trait ExecCtx: ArrayOps {
    /// Current program counter of the instance.
    fn pc(&self) -> usize;

    /// Sets the program counter.
    fn set_pc(&mut self, pc: usize);

    /// The value of a frame slot, if its presence bit is set.
    fn slot(&self, slot: SlotId) -> Option<Value>;

    /// Writes a slot (sets the presence bit).
    fn set_slot(&mut self, slot: SlotId, value: Value);

    /// Clears a slot's presence bit.
    fn clear_slot(&mut self, slot: SlotId);

    /// The virtual PE this instance runs as (drives Range Filters and
    /// single-owner allocation placement).
    fn pe(&self) -> usize;

    /// Cost-accounting hook, called once per executed instruction before
    /// its side effects (and once per firing-rule block with
    /// [`Cost::ContextSwitch`]). Default: free.
    #[inline(always)]
    fn charge(&mut self, cost: Cost) {
        let _ = cost;
    }

    /// Polled between instructions; `true` aborts the run with
    /// [`RunExit::Stopped`] (job failed elsewhere, pool teardown, ...).
    #[inline(always)]
    fn should_stop(&self) -> bool {
        false
    }

    /// Spawns child instances of `target`. `args` are operands of the
    /// *current* frame (resolve them with [`ExecCtx::operand`]; they are
    /// passed unresolved so implementations can marshal into a reusable
    /// scratch buffer). For `distributed` spawns one child runs per PE and
    /// only the child on this instance's own PE carries `return_to`; the
    /// core has already cleared the return slot.
    ///
    /// # Errors
    ///
    /// Returns a runtime-error message on spawn failure.
    fn spawn(
        &mut self,
        target: SpId,
        args: &[Operand],
        distributed: bool,
        return_to: Option<SlotId>,
    ) -> Result<(), String>;

    /// Called by the chunk driver each time it advances the iteration
    /// cursor in place: one chunked outer iteration completed and the next
    /// begins without spawning a new instance. Default: no-op; the pooled
    /// engines count these to report the effective grain.
    #[inline(always)]
    fn chunk_advanced(&mut self) {}

    /// Called by the specialized driver each time a super-op fires (its
    /// hoisted firing check passed and the whole fused run executes).
    /// Default: no-op; the pooled engines count these to report how much of
    /// the warm path ran through pre-resolved plans.
    #[inline(always)]
    fn super_op_fired(&mut self) {}

    /// Flight-recorder hook: the sink core-level [`ExecEvent`]s are
    /// delivered to, or `None` when tracing is disabled. The default is a
    /// constant `None`, so for engines that never trace the event emission
    /// sites monomorphize to nothing — the same zero-cost-when-unused
    /// pattern as [`ExecCtx::charge`].
    #[inline(always)]
    fn trace_sink(&mut self) -> Option<&mut dyn TraceSink> {
        None
    }

    /// Resolves an operand against the frame. Absent slots read as
    /// [`Value::Unit`]; the firing rule makes that unobservable for slots
    /// an instruction declares in [`Instr::reads`].
    #[inline(always)]
    fn operand(&self, op: &Operand) -> Value {
        match op {
            Operand::Slot(s) => self.slot(*s).unwrap_or(Value::Unit),
            Operand::Int(v) => Value::Int(*v),
            Operand::Float(v) => Value::Float(*v),
            Operand::Bool(v) => Value::Bool(*v),
        }
    }
}

// ---------------------------------------------------------------------------
// The core interpreter.
// ---------------------------------------------------------------------------

/// What executing one instruction asks the driver loop to do next.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Advance to the next instruction.
    Next,
    /// Continue at the given program counter.
    Jump(usize),
    /// The SP terminated, optionally producing a return value.
    Finished(Option<Value>),
}

/// Why [`run_instance`] stopped executing.
#[derive(Debug, Clone, PartialEq)]
pub enum RunExit {
    /// The SP terminated: an explicit `Return` (carrying its value) or the
    /// program counter running past the end of the template (no value).
    Finished(Option<Value>),
    /// The firing rule found the given operand slot absent. The program
    /// counter addresses the blocked (consuming) instruction — on every
    /// engine, this is the pc deadlock diagnostics report. The engine
    /// suspends the instance its own way and re-enters `run_instance` when
    /// the slot arrives.
    Blocked(SlotId),
    /// [`ExecCtx::should_stop`] returned `true`; the engine abandons or
    /// fails the instance.
    Stopped,
}

fn expect_array(v: Value) -> Result<ArrayId, String> {
    v.as_array()
        .ok_or_else(|| format!("expected an array reference, found {v}"))
}

/// Ranks up to this many dimensions resolve their index and extent operands
/// on the stack; higher ranks spill to the heap, so the language has no
/// rank limit.
const INLINE_RANK: usize = 4;

/// Operands resolved by [`resolve_all`]: on the stack up to
/// [`INLINE_RANK`], on the heap above it.
enum Resolved<T> {
    Inline([T; INLINE_RANK], usize),
    Spilled(Vec<T>),
}

impl<T> std::ops::Deref for Resolved<T> {
    type Target = [T];

    #[inline(always)]
    fn deref(&self) -> &[T] {
        match self {
            Resolved::Inline(buf, len) => &buf[..*len],
            Resolved::Spilled(v) => v,
        }
    }
}

/// Resolves every operand of an instruction's index or extent list.
#[inline(always)]
fn resolve_all<I, T: Copy + Default>(items: &[I], resolve: impl Fn(&I) -> T) -> Resolved<T> {
    if items.len() <= INLINE_RANK {
        let mut buf = [T::default(); INLINE_RANK];
        for (slot, i) in buf.iter_mut().zip(items) {
            *slot = resolve(i);
        }
        Resolved::Inline(buf, items.len())
    } else {
        Resolved::Spilled(items.iter().map(resolve).collect())
    }
}

/// Resolves the index operands of an array access (non-integers read as
/// `-1`, which is out of bounds for every shape) and folds them into the
/// row-major element offset, with the canonical out-of-bounds diagnostic.
/// The one helper behind `ArrayLoad`, `ArrayStore` and the fused store:
/// every element access runs it, so the common ranks must not touch the
/// allocator.
fn resolve_offset<C: ExecCtx, I>(
    ctx: &mut C,
    id: ArrayId,
    indices: &[I],
    resolve: impl Fn(&C, &I) -> Value,
) -> Result<usize, String> {
    let idx = resolve_all(indices, |i| resolve(ctx, i).as_i64().unwrap_or(-1));
    ctx.with_header(id, |h| element_offset(h, &idx))?
}

/// Executes one instruction against the context. This is the single
/// implementation of SP instruction semantics shared by every engine; see
/// the module docs for the rules it pins down.
///
/// # Errors
///
/// Returns the runtime-error message ending the job (arithmetic errors,
/// invalid array accesses, single-assignment violations, non-boolean
/// branches, ...).
pub fn execute_instr<C: ExecCtx>(ctx: &mut C, instr: &Instr) -> Result<Step, String> {
    match instr {
        Instr::Binary { op, dst, lhs, rhs } => {
            let a = ctx.operand(lhs);
            let b = ctx.operand(rhs);
            ctx.charge(Cost::Binary {
                op: *op,
                float: a.is_float() || b.is_float(),
            });
            let v = eval_binary(*op, a, b).map_err(|e| e.to_string())?;
            ctx.set_slot(*dst, v);
            Ok(Step::Next)
        }
        Instr::Unary { op, dst, src } => {
            let a = ctx.operand(src);
            ctx.charge(Cost::Unary {
                op: *op,
                float: a.is_float(),
            });
            let v = eval_unary(*op, a).map_err(|e| e.to_string())?;
            ctx.set_slot(*dst, v);
            Ok(Step::Next)
        }
        Instr::Move { dst, src } => {
            let v = ctx.operand(src);
            ctx.charge(Cost::Move);
            ctx.set_slot(*dst, v);
            Ok(Step::Next)
        }
        Instr::Jump { target } => {
            ctx.charge(Cost::Control);
            Ok(Step::Jump(*target))
        }
        Instr::BranchIfFalse { cond, target } => {
            let c = ctx.operand(cond);
            ctx.charge(Cost::Control);
            // Numbers are truthy (non-zero), matching the oracle's
            // conditions; values with no truth value are a runtime error,
            // not a silent false edge.
            let c = c
                .as_bool()
                .ok_or_else(|| format!("branch on a non-boolean value {c}"))?;
            if c {
                Ok(Step::Next)
            } else {
                Ok(Step::Jump(*target))
            }
        }
        Instr::ArrayAlloc {
            dst,
            name,
            dims,
            distributed,
        } => {
            let extents = resolve_all(dims, |d| {
                ctx.operand(d).as_i64().unwrap_or(0).max(0) as usize
            });
            if extents.is_empty() || extents.contains(&0) {
                return Err(format!("array `{name}` allocated with a zero dimension"));
            }
            ctx.charge(Cost::ArrayAlloc);
            ctx.alloc_array(*dst, name, &extents, *distributed)?;
            Ok(Step::Next)
        }
        Instr::ArrayLoad {
            dst,
            array,
            indices,
        } => {
            let id = expect_array(ctx.operand(array))?;
            let offset = resolve_offset(ctx, id, indices, |c, i| c.operand(i))?;
            ctx.charge(Cost::ArrayAccess);
            match ctx.load_element(id, offset, *dst)? {
                Loaded::Ready(v) => ctx.set_slot(*dst, v),
                // Split-phase: clear the presence bit (so a stale value
                // from a previous iteration is never consumed) and keep
                // running; the firing rule of the consuming instruction
                // blocks when it actually needs the value.
                Loaded::Deferred => {
                    ctx.clear_slot(*dst);
                    let (pc, pe) = (ctx.pc(), ctx.pe());
                    if let Some(sink) = ctx.trace_sink() {
                        sink.exec_event(pe, ExecEvent::DeferredLoad { array: id, pc });
                    }
                }
            }
            Ok(Step::Next)
        }
        Instr::ArrayStore {
            array,
            indices,
            value,
        } => {
            let id = expect_array(ctx.operand(array))?;
            let v = ctx.operand(value);
            let offset = resolve_offset(ctx, id, indices, |c, i| c.operand(i))?;
            ctx.charge(Cost::ArrayAccess);
            ctx.store_element(id, offset, v)?;
            Ok(Step::Next)
        }
        Instr::Spawn {
            target,
            args,
            distributed,
            ret,
        } => {
            ctx.charge(Cost::Spawn);
            let return_to = *ret;
            if let Some(slot) = return_to {
                // The return slot is cleared at issue time (split-phase call):
                // the child's eventual return delivers into it.
                ctx.clear_slot(slot);
            }
            ctx.spawn(*target, args, *distributed, return_to)?;
            Ok(Step::Next)
        }
        Instr::RangeLo {
            dst,
            array,
            dim,
            default,
            outer,
        }
        | Instr::RangeHi {
            dst,
            array,
            dim,
            default,
            outer,
        } => {
            let is_lo = matches!(instr, Instr::RangeLo { .. });
            let array_v = ctx.operand(array);
            let default_v = ctx.operand(default).as_i64().unwrap_or(0);
            let outer_v = outer.as_ref().map(|o| ctx.operand(o).as_i64().unwrap_or(0));
            ctx.charge(Cost::RangeFilter);
            let Some(id) = array_v.as_array() else {
                return Err(format!("range filter on a non-array value {array_v}"));
            };
            let pe = PeId(ctx.pe());
            let dim = *dim;
            let value = ctx.with_header(id, |h| {
                let range = h.responsibility(pe, dim, outer_v);
                let extent = h.shape().dims().get(dim).copied().unwrap_or(1) as i64;
                range_filter_bound(default_v, &range, extent, is_lo)
            })?;
            ctx.set_slot(*dst, Value::Int(value));
            Ok(Step::Next)
        }
        Instr::Return { value } => {
            let v = value.as_ref().map(|op| ctx.operand(op));
            ctx.charge(Cost::Return);
            Ok(Step::Finished(v))
        }
    }
}

/// Advances a chunked instance to its next outer iteration in place, if
/// both the per-instance chunk budget and the loop limit allow.
///
/// This replicates the *parent's* loop circulation exactly: the cursor
/// steps by one (`Add` ascending / `Sub` descending) and continues only
/// while the parent's own continuation test (`Le` / `Ge` against the
/// effective limit the parent passed along) holds — same numeric promotion,
/// same error classes, so a chunked run executes precisely the iterations
/// the unchunked program would. On advance the scratch slots are cleared
/// (no stale presence bits leak between iterations) and the program counter
/// returns to the top of the template, re-running any Range-Filter prologue
/// against the updated outer index.
///
/// # Errors
///
/// Propagates evaluation errors from the replicated increment or test —
/// the same errors the parent's own loop instructions would raise.
fn advance_chunk<C: ExecCtx>(ctx: &mut C, meta: &ChunkMeta) -> Result<bool, String> {
    let taken = match ctx.slot(meta.taken) {
        Some(Value::Int(t)) => t,
        _ => 1,
    };
    if taken >= meta.chunk as i64 {
        return Ok(false);
    }
    let Some(cursor) = ctx.slot(meta.cursor) else {
        return Ok(false);
    };
    let Some(limit) = ctx.slot(meta.limit) else {
        return Ok(false);
    };
    let step = if meta.descending {
        BinaryOp::Sub
    } else {
        BinaryOp::Add
    };
    let next = eval_binary(step, cursor, Value::Int(1)).map_err(|e| e.to_string())?;
    let test = if meta.descending {
        BinaryOp::Ge
    } else {
        BinaryOp::Le
    };
    let cont = eval_binary(test, next, limit).map_err(|e| e.to_string())?;
    if cont != Value::Bool(true) {
        return Ok(false);
    }
    ctx.set_slot(meta.cursor, next);
    ctx.set_slot(meta.taken, Value::Int(taken + 1));
    for s in meta.first_scratch..meta.num_slots {
        ctx.clear_slot(SlotId(s));
    }
    ctx.set_pc(0);
    ctx.chunk_advanced();
    let pe = ctx.pe();
    if let Some(sink) = ctx.trace_sink() {
        sink.exec_event(pe, ExecEvent::ChunkAdvanced);
    }
    Ok(true)
}

/// Runs one SP instance until it terminates, blocks on an absent operand,
/// or the context's stop signal fires.
///
/// When the template carries a specialization `plan` (attached at prepare
/// time by [`crate::specialize::specialize_program`]) the instance executes
/// through the direct-threaded `run_specialized` driver: straight-line
/// runs fire as single super-ops with one hoisted firing check, and only
/// unspecializable instructions (split-phase loads, spawns, branches, RF
/// prologues) fall back to the interpreter. Without a plan the plain
/// interpreter loop runs every instruction, exactly as before.
///
/// For chunked templates (`chunk` is `Some`), a completed pass over the
/// code is not necessarily the end of the instance: the driver advances the
/// iteration cursor in place via [`ChunkMeta`] and re-runs from the top
/// until the chunk budget or the loop limit is exhausted.
///
/// # Errors
///
/// Propagates the first runtime-error message from [`execute_instr`].
pub fn run_instance<C: ExecCtx>(
    ctx: &mut C,
    code: &[Instr],
    read_slots: TemplateReads<'_>,
    chunk: Option<&ChunkMeta>,
    plan: Option<&TemplatePlan>,
) -> Result<RunExit, String> {
    match plan {
        Some(plan) => run_specialized(ctx, code, read_slots, chunk, plan),
        None => run_interpreted(ctx, code, read_slots, chunk),
    }
}

/// The plain interpreter loop: firing-rule check (against the precomputed
/// `read_slots` table for the instance's template), then [`execute_instr`],
/// then pc update.
fn run_interpreted<C: ExecCtx>(
    ctx: &mut C,
    code: &[Instr],
    read_slots: TemplateReads<'_>,
    chunk: Option<&ChunkMeta>,
) -> Result<RunExit, String> {
    loop {
        if ctx.should_stop() {
            return Ok(RunExit::Stopped);
        }
        let pc = ctx.pc();
        let Some(instr) = code.get(pc) else {
            if let Some(meta) = chunk {
                if advance_chunk(ctx, meta)? {
                    continue;
                }
            }
            return Ok(RunExit::Finished(None));
        };
        // Dataflow firing rule: every operand the instruction reads must be
        // present; otherwise the instance blocks on the first missing slot.
        if let Some(missing) = read_slots
            .at(pc)
            .iter()
            .copied()
            .find(|s| ctx.slot(*s).is_none())
        {
            ctx.charge(Cost::ContextSwitch);
            let pe = ctx.pe();
            if let Some(sink) = ctx.trace_sink() {
                sink.exec_event(pe, ExecEvent::Blocked { pc, slot: missing });
            }
            return Ok(RunExit::Blocked(missing));
        }
        match execute_instr(ctx, instr)? {
            Step::Next => ctx.set_pc(pc + 1),
            Step::Jump(target) => ctx.set_pc(target),
            Step::Finished(v) => {
                if v.is_none() {
                    if let Some(meta) = chunk {
                        if advance_chunk(ctx, meta)? {
                            continue;
                        }
                    }
                }
                return Ok(RunExit::Finished(v));
            }
        }
    }
}

/// Resolves one pre-computed fetch plan against the frame. Slot fetches
/// behind a passed firing check are always present; the [`Value::Unit`]
/// fallback mirrors [`ExecCtx::operand`] and is unobservable. `last` is the
/// value the previous fused op of the run produced, forwarded in a register
/// for [`Fetch::Prev`] operands — the producer also wrote it to its
/// destination slot, so the frame an engine (or a blocked resume) observes
/// is bit-identical to the interpreter's.
#[inline(always)]
fn fetch<C: ExecCtx>(ctx: &C, f: &Fetch, last: Value) -> Value {
    match f {
        Fetch::Slot(s) => ctx.slot(*s).unwrap_or(Value::Unit),
        Fetch::Const(v) => *v,
        Fetch::Prev => last,
    }
}

/// Executes one whole super-op body whose firing check already passed,
/// threading each op's produced value into the next for [`Fetch::Prev`]
/// register chaining. Kept out-of-line so the fused dispatch loop gets its
/// own optimization context, exactly like the standalone [`execute_instr`]
/// the interpreter loop calls into.
#[inline(never)]
fn execute_super<C: ExecCtx>(
    ctx: &mut C,
    plan: &TemplatePlan,
    sup: &SuperOp,
) -> Result<(), String> {
    let mut last = Value::Unit;
    for op in plan.fused(sup) {
        last = execute_fused(ctx, plan, op, last)?;
    }
    Ok(())
}

/// Executes one fused op from a super-op body and returns the value it
/// produced (for [`Fetch::Prev`] chaining; stores produce nothing). Charges
/// and side effects are identical to the corresponding [`execute_instr`]
/// arm — only the operand resolution (already done at prepare time)
/// differs.
#[inline(always)]
fn execute_fused<C: ExecCtx>(
    ctx: &mut C,
    plan: &TemplatePlan,
    op: &FusedOp,
    last: Value,
) -> Result<Value, String> {
    match op {
        FusedOp::Binary { op, dst, lhs, rhs } => {
            let a = fetch(ctx, lhs, last);
            let b = fetch(ctx, rhs, last);
            ctx.charge(Cost::Binary {
                op: *op,
                float: a.is_float() || b.is_float(),
            });
            let v = eval_binary(*op, a, b).map_err(|e| e.to_string())?;
            ctx.set_slot(*dst, v);
            Ok(v)
        }
        FusedOp::Unary { op, dst, src } => {
            let a = fetch(ctx, src, last);
            ctx.charge(Cost::Unary {
                op: *op,
                float: a.is_float(),
            });
            let v = eval_unary(*op, a).map_err(|e| e.to_string())?;
            ctx.set_slot(*dst, v);
            Ok(v)
        }
        FusedOp::Move { dst, src } => {
            let v = fetch(ctx, src, last);
            ctx.charge(Cost::Move);
            ctx.set_slot(*dst, v);
            Ok(v)
        }
        FusedOp::ArrayStore {
            array,
            indices,
            value,
        } => {
            let id = expect_array(fetch(ctx, array, last))?;
            let v = fetch(ctx, value, last);
            let offset = resolve_offset(ctx, id, plan.indices(*indices), |c, i| fetch(c, i, last))?;
            ctx.charge(Cost::ArrayAccess);
            ctx.store_element(id, offset, v)?;
            Ok(Value::Unit)
        }
    }
}

/// The direct-threaded specialized driver: walks the prepare-time plan,
/// firing whole straight-line runs as single super-ops and deferring to the
/// interpreter for everything the pass left as [`PlanOp::Interp`].
///
/// Super-op semantics are all-or-nothing: the hoisted firing list (every
/// slot the run reads that is not produced inside the run) is checked
/// *before any side effect*, so a blocked run left the frame untouched and
/// simply re-fires from its head pc on resume. The blocked *slot* reported
/// is identical to the interpreter's (instruction order, then operand
/// order); only the blocked *pc* differs — the run head instead of the
/// consuming instruction.
fn run_specialized<C: ExecCtx>(
    ctx: &mut C,
    code: &[Instr],
    read_slots: TemplateReads<'_>,
    chunk: Option<&ChunkMeta>,
    plan: &TemplatePlan,
) -> Result<RunExit, String> {
    loop {
        if ctx.should_stop() {
            return Ok(RunExit::Stopped);
        }
        let pc = ctx.pc();
        if pc >= code.len() {
            if let Some(meta) = chunk {
                if advance_chunk(ctx, meta)? {
                    continue;
                }
            }
            return Ok(RunExit::Finished(None));
        }
        if let Some(PlanOp::Super(sup)) = plan.ops.get(pc) {
            if let Some(missing) = plan
                .firing(sup)
                .iter()
                .copied()
                .find(|s| ctx.slot(*s).is_none())
            {
                ctx.charge(Cost::ContextSwitch);
                let pe = ctx.pe();
                if let Some(sink) = ctx.trace_sink() {
                    sink.exec_event(pe, ExecEvent::Blocked { pc, slot: missing });
                }
                return Ok(RunExit::Blocked(missing));
            }
            ctx.super_op_fired();
            execute_super(ctx, plan, sup)?;
            ctx.set_pc(pc + sup.ops.len());
            continue;
        }
        // Interpreter fallback for unspecializable instructions (and any
        // mid-run pc a resume could conceivably land on).
        if let Some(missing) = read_slots
            .at(pc)
            .iter()
            .copied()
            .find(|s| ctx.slot(*s).is_none())
        {
            ctx.charge(Cost::ContextSwitch);
            let pe = ctx.pe();
            if let Some(sink) = ctx.trace_sink() {
                sink.exec_event(pe, ExecEvent::Blocked { pc, slot: missing });
            }
            return Ok(RunExit::Blocked(missing));
        }
        match execute_instr(ctx, &code[pc])? {
            Step::Next => ctx.set_pc(pc + 1),
            Step::Jump(target) => ctx.set_pc(target),
            Step::Finished(v) => {
                if v.is_none() {
                    if let Some(meta) = chunk {
                        if advance_chunk(ctx, meta)? {
                            continue;
                        }
                    }
                }
                return Ok(RunExit::Finished(v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pods_istructure::{ArrayShape, Partitioning};

    /// A minimal in-memory engine: local single-store arrays, recorded
    /// spawns and deferred waiters, direct slot delivery. Everything the
    /// core needs and nothing scheduler-shaped — so each table case tests
    /// the semantics once, directly, instead of only end-to-end.
    struct TestCtx {
        pc: usize,
        slots: Vec<Option<Value>>,
        pe: usize,
        pes: usize,
        arrays: Vec<(ArrayHeader, Vec<Option<Value>>)>,
        /// Deferred waiters: (array, offset, dst).
        waiters: Vec<(ArrayId, usize, SlotId)>,
        /// Recorded spawns: (template, resolved args, pe, return slot).
        spawns: Vec<(SpId, Vec<Value>, usize, Option<SlotId>)>,
        costs: Vec<Cost>,
        stop: bool,
    }

    impl TestCtx {
        fn new(slots: usize) -> TestCtx {
            TestCtx {
                pc: 0,
                slots: vec![None; slots],
                pe: 0,
                pes: 1,
                arrays: Vec::new(),
                waiters: Vec::new(),
                spawns: Vec::new(),
                costs: Vec::new(),
                stop: false,
            }
        }

        fn with_pes(mut self, pe: usize, pes: usize) -> TestCtx {
            self.pe = pe;
            self.pes = pes;
            self
        }

        fn with_slot(mut self, slot: usize, v: Value) -> TestCtx {
            self.slots[slot] = Some(v);
            self
        }

        /// Allocates a test array directly and returns a ref to slot it in.
        fn with_array(mut self, slot: usize, dims: &[usize], page: usize) -> TestCtx {
            let shape = ArrayShape::from_dims(dims);
            let part = Partitioning::new(shape.len(), page, self.pes);
            let id = ArrayId(self.arrays.len());
            let len = shape.len();
            self.arrays
                .push((ArrayHeader::new(id, "t", shape, part), vec![None; len]));
            self.slots[slot] = Some(Value::ArrayRef(id));
            self
        }

        fn write_cell(&mut self, array: usize, offset: usize, v: Value) {
            self.arrays[array].1[offset] = Some(v);
        }
    }

    impl ArrayOps for TestCtx {
        fn alloc_array(
            &mut self,
            dst: SlotId,
            name: &Arc<str>,
            dims: &[usize],
            distributed: bool,
        ) -> Result<(), String> {
            let shape = ArrayShape::from_dims(dims);
            let part = if distributed {
                Partitioning::new(shape.len(), 8, self.pes)
            } else {
                Partitioning::single_owner(shape.len(), 8, self.pes, PeId(self.pe))
            };
            let id = ArrayId(self.arrays.len());
            let len = shape.len();
            self.arrays.push((
                ArrayHeader::new(id, name.clone(), shape, part),
                vec![None; len],
            ));
            self.set_slot(dst, Value::ArrayRef(id));
            Ok(())
        }

        fn with_header<R>(
            &mut self,
            id: ArrayId,
            f: impl FnOnce(&ArrayHeader) -> R,
        ) -> Result<R, String> {
            let (header, _) = self
                .arrays
                .get(id.index())
                .ok_or_else(|| format!("unknown array {id}"))?;
            Ok(f(header))
        }

        fn load_element(
            &mut self,
            id: ArrayId,
            offset: usize,
            dst: SlotId,
        ) -> Result<Loaded, String> {
            match self.arrays[id.index()].1[offset] {
                Some(v) => Ok(Loaded::Ready(v)),
                None => {
                    self.waiters.push((id, offset, dst));
                    Ok(Loaded::Deferred)
                }
            }
        }

        fn store_element(
            &mut self,
            id: ArrayId,
            offset: usize,
            value: Value,
        ) -> Result<(), String> {
            let cell = &mut self.arrays[id.index()].1[offset];
            if cell.is_some() {
                return Err(format!("single-assignment violation on {id}[{offset}]"));
            }
            *cell = Some(value);
            Ok(())
        }
    }

    impl ExecCtx for TestCtx {
        fn pc(&self) -> usize {
            self.pc
        }
        fn set_pc(&mut self, pc: usize) {
            self.pc = pc;
        }
        fn slot(&self, slot: SlotId) -> Option<Value> {
            self.slots.get(slot.index()).copied().flatten()
        }
        fn set_slot(&mut self, slot: SlotId, value: Value) {
            if slot.index() < self.slots.len() {
                self.slots[slot.index()] = Some(value);
            }
        }
        fn clear_slot(&mut self, slot: SlotId) {
            if slot.index() < self.slots.len() {
                self.slots[slot.index()] = None;
            }
        }
        fn pe(&self) -> usize {
            self.pe
        }
        fn charge(&mut self, cost: Cost) {
            self.costs.push(cost);
        }
        fn should_stop(&self) -> bool {
            self.stop
        }
        fn spawn(
            &mut self,
            target: SpId,
            args: &[Operand],
            distributed: bool,
            return_to: Option<SlotId>,
        ) -> Result<(), String> {
            let resolved: Vec<Value> = args.iter().map(|a| self.operand(a)).collect();
            if distributed {
                for q in 0..self.pes {
                    let r = if q == self.pe { return_to } else { None };
                    self.spawns.push((target, resolved.clone(), q, r));
                }
            } else {
                self.spawns.push((target, resolved, self.pe, return_to));
            }
            Ok(())
        }
    }

    fn s(i: usize) -> SlotId {
        SlotId(i)
    }
    fn slot_op(i: usize) -> Operand {
        Operand::Slot(SlotId(i))
    }

    /// One table case per `Instr` variant: the canonical success semantics.
    #[test]
    fn table_every_instr_variant_has_pinned_semantics() {
        struct Case {
            name: &'static str,
            ctx: fn() -> TestCtx,
            instr: fn() -> Instr,
            check: fn(&str, Step, TestCtx),
        }
        let table: Vec<Case> = vec![
            Case {
                name: "binary-int-add",
                ctx: || {
                    TestCtx::new(3)
                        .with_slot(0, Value::Int(2))
                        .with_slot(1, Value::Int(3))
                },
                instr: || Instr::Binary {
                    op: BinaryOp::Add,
                    dst: s(2),
                    lhs: slot_op(0),
                    rhs: slot_op(1),
                },
                check: |n, step, ctx| {
                    assert_eq!(step, Step::Next, "{n}");
                    assert_eq!(ctx.slot(s(2)), Some(Value::Int(5)), "{n}");
                    assert_eq!(
                        ctx.costs,
                        vec![Cost::Binary {
                            op: BinaryOp::Add,
                            float: false
                        }],
                        "{n}: int operands charge integer rates"
                    );
                },
            },
            Case {
                name: "binary-mixed-promotes-and-charges-float",
                ctx: || {
                    TestCtx::new(3)
                        .with_slot(0, Value::Int(2))
                        .with_slot(1, Value::Float(0.5))
                },
                instr: || Instr::Binary {
                    op: BinaryOp::Mul,
                    dst: s(2),
                    lhs: slot_op(0),
                    rhs: slot_op(1),
                },
                check: |n, _, ctx| {
                    assert_eq!(ctx.slot(s(2)), Some(Value::Float(1.0)), "{n}");
                    assert_eq!(
                        ctx.costs,
                        vec![Cost::Binary {
                            op: BinaryOp::Mul,
                            float: true
                        }],
                        "{n}"
                    );
                },
            },
            Case {
                name: "unary",
                ctx: || TestCtx::new(2).with_slot(0, Value::Int(-7)),
                instr: || Instr::Unary {
                    op: UnaryOp::Abs,
                    dst: s(1),
                    src: slot_op(0),
                },
                check: |n, _, ctx| assert_eq!(ctx.slot(s(1)), Some(Value::Int(7)), "{n}"),
            },
            Case {
                name: "move",
                ctx: || TestCtx::new(2),
                instr: || Instr::Move {
                    dst: s(1),
                    src: Operand::Float(2.5),
                },
                check: |n, _, ctx| assert_eq!(ctx.slot(s(1)), Some(Value::Float(2.5)), "{n}"),
            },
            Case {
                name: "jump",
                ctx: || TestCtx::new(1),
                instr: || Instr::Jump { target: 7 },
                check: |n, step, _| assert_eq!(step, Step::Jump(7), "{n}"),
            },
            Case {
                name: "branch-true-falls-through",
                ctx: || TestCtx::new(1).with_slot(0, Value::Bool(true)),
                instr: || Instr::BranchIfFalse {
                    cond: slot_op(0),
                    target: 9,
                },
                check: |n, step, _| assert_eq!(step, Step::Next, "{n}"),
            },
            Case {
                name: "branch-nonzero-number-is-truthy",
                ctx: || TestCtx::new(1).with_slot(0, Value::Int(-3)),
                instr: || Instr::BranchIfFalse {
                    cond: slot_op(0),
                    target: 9,
                },
                check: |n, step, _| assert_eq!(step, Step::Next, "{n}"),
            },
            Case {
                name: "branch-zero-takes-the-false-edge",
                ctx: || TestCtx::new(1).with_slot(0, Value::Float(0.0)),
                instr: || Instr::BranchIfFalse {
                    cond: slot_op(0),
                    target: 9,
                },
                check: |n, step, _| assert_eq!(step, Step::Jump(9), "{n}"),
            },
            Case {
                name: "array-alloc-sets-ref",
                ctx: || TestCtx::new(2).with_slot(0, Value::Int(6)),
                instr: || Instr::ArrayAlloc {
                    dst: s(1),
                    name: "a".into(),
                    dims: vec![slot_op(0), Operand::Int(2)],
                    distributed: true,
                },
                check: |n, _, ctx| {
                    assert_eq!(ctx.slot(s(1)), Some(Value::ArrayRef(ArrayId(0))), "{n}");
                    assert_eq!(ctx.arrays[0].0.shape().dims(), &[6, 2], "{n}");
                },
            },
            Case {
                name: "array-load-present-delivers-now",
                ctx: || {
                    let mut c = TestCtx::new(3).with_array(0, &[4], 8);
                    c.write_cell(0, 2, Value::Int(42));
                    c.slots[1] = Some(Value::Int(2));
                    c
                },
                instr: || Instr::ArrayLoad {
                    dst: s(2),
                    array: slot_op(0),
                    indices: vec![slot_op(1)],
                },
                check: |n, step, ctx| {
                    assert_eq!(step, Step::Next, "{n}");
                    assert_eq!(ctx.slot(s(2)), Some(Value::Int(42)), "{n}");
                    assert!(ctx.waiters.is_empty(), "{n}");
                },
            },
            Case {
                name: "array-load-deferred-is-split-phase",
                ctx: || {
                    // The destination holds a stale value from a previous
                    // iteration; issuing the load must clear it and the SP
                    // must keep running (Step::Next, not a suspension).
                    TestCtx::new(2)
                        .with_array(0, &[4], 8)
                        .with_slot(1, Value::Int(99))
                },
                instr: || Instr::ArrayLoad {
                    dst: s(1),
                    array: slot_op(0),
                    indices: vec![Operand::Int(3)],
                },
                check: |n, step, ctx| {
                    assert_eq!(step, Step::Next, "{n}: split-phase loads keep running");
                    assert_eq!(ctx.slot(s(1)), None, "{n}: presence bit cleared at issue");
                    assert_eq!(ctx.waiters, vec![(ArrayId(0), 3, s(1))], "{n}");
                },
            },
            Case {
                name: "array-store",
                ctx: || TestCtx::new(2).with_array(0, &[4], 8),
                instr: || Instr::ArrayStore {
                    array: slot_op(0),
                    indices: vec![Operand::Int(1)],
                    value: Operand::Int(5),
                },
                check: |n, _, ctx| assert_eq!(ctx.arrays[0].1[1], Some(Value::Int(5)), "{n}"),
            },
            Case {
                // One more dimension than the on-stack index buffer holds:
                // the indices spill to the heap and fold row-major alike.
                name: "array-store-above-the-inline-rank",
                ctx: || TestCtx::new(2).with_array(0, &[2, 2, 2, 2, 3], 8),
                instr: || Instr::ArrayStore {
                    array: slot_op(0),
                    indices: [1, 0, 1, 1, 2].map(Operand::Int).to_vec(),
                    value: Operand::Int(5),
                },
                check: |n, _, ctx| {
                    assert!(ctx.arrays[0].0.shape().dims().len() > INLINE_RANK, "{n}");
                    assert_eq!(ctx.arrays[0].1[35], Some(Value::Int(5)), "{n}");
                    assert_eq!(ctx.costs, vec![Cost::ArrayAccess], "{n}");
                },
            },
            Case {
                name: "spawn-clears-return-slot-at-issue",
                ctx: || {
                    TestCtx::new(2)
                        .with_slot(0, Value::Int(4))
                        .with_slot(1, Value::Int(9))
                },
                instr: || Instr::Spawn {
                    target: SpId(3),
                    args: vec![slot_op(0)],
                    distributed: false,
                    ret: Some(s(1)),
                },
                check: |n, _, ctx| {
                    assert_eq!(ctx.slot(s(1)), None, "{n}: call is split-phase");
                    assert_eq!(
                        ctx.spawns,
                        vec![(SpId(3), vec![Value::Int(4)], 0, Some(s(1)))],
                        "{n}"
                    );
                },
            },
            Case {
                name: "spawn-distributed-returns-only-to-own-pe",
                ctx: || TestCtx::new(2).with_pes(1, 3).with_slot(0, Value::Int(4)),
                instr: || Instr::Spawn {
                    target: SpId(2),
                    args: vec![slot_op(0)],
                    distributed: true,
                    ret: Some(s(1)),
                },
                check: |n, _, ctx| {
                    let rets: Vec<Option<SlotId>> =
                        ctx.spawns.iter().map(|(_, _, _, r)| *r).collect();
                    assert_eq!(rets, vec![None, Some(s(1)), None], "{n}");
                },
            },
            Case {
                name: "range-lo-clamps-interior-edge",
                // 2 PEs over 8 elements (page 4): PE1 owns rows 4..7, an
                // interior lower edge, so lo = max(default, 4).
                ctx: || TestCtx::new(2).with_pes(1, 2).with_array(0, &[8], 4),
                instr: || Instr::RangeLo {
                    dst: s(1),
                    array: slot_op(0),
                    dim: 0,
                    default: Operand::Int(0),
                    outer: None,
                },
                check: |n, _, ctx| assert_eq!(ctx.slot(s(1)), Some(Value::Int(4)), "{n}"),
            },
            Case {
                name: "range-hi-clamps-interior-edge",
                ctx: || TestCtx::new(2).with_pes(0, 2).with_array(0, &[8], 4),
                instr: || Instr::RangeHi {
                    dst: s(1),
                    array: slot_op(0),
                    dim: 0,
                    default: Operand::Int(7),
                    outer: None,
                },
                check: |n, _, ctx| assert_eq!(ctx.slot(s(1)), Some(Value::Int(3)), "{n}"),
            },
            Case {
                name: "range-filter-keeps-out-of-range-bounds-on-edge-pes",
                // The PE owning the array edge keeps the source bound, so
                // out-of-range iterations execute (and fault) exactly like
                // the sequential oracle instead of being silently dropped.
                ctx: || TestCtx::new(3).with_pes(0, 2).with_array(0, &[8], 4),
                instr: || Instr::RangeLo {
                    dst: s(1),
                    array: slot_op(0),
                    dim: 0,
                    default: Operand::Int(-2),
                    outer: None,
                },
                check: |n, _, ctx| {
                    assert_eq!(
                        ctx.slot(s(1)),
                        Some(Value::Int(-2)),
                        "{n}: PE0 owns row 0 and must keep the negative bound"
                    )
                },
            },
            Case {
                name: "range-filter-inner-dim-uses-outer-row",
                // 2 PEs over a 3x8 matrix with 4-element pages: PE0 owns
                // row 0 plus the first half of row 1 (cols 0..3).
                ctx: || {
                    TestCtx::new(3)
                        .with_pes(0, 2)
                        .with_array(0, &[3, 8], 4)
                        .with_slot(1, Value::Int(1))
                },
                instr: || Instr::RangeHi {
                    dst: s(2),
                    array: slot_op(0),
                    dim: 1,
                    default: Operand::Int(7),
                    outer: Some(slot_op(1)),
                },
                check: |n, _, ctx| assert_eq!(ctx.slot(s(2)), Some(Value::Int(3)), "{n}"),
            },
            Case {
                name: "range-filter-invalid-outer-row-lands-on-one-edge-pe",
                // Row 9 of a 3x8 matrix does not exist: its inner iteration
                // space is assigned whole to the PE owning the nearest
                // array edge (here PE1, owner of the last element), which
                // keeps the source bound so the invalid accesses execute
                // and fault like the oracle; every other PE gets nothing.
                ctx: || {
                    TestCtx::new(3)
                        .with_pes(1, 2)
                        .with_array(0, &[3, 8], 4)
                        .with_slot(1, Value::Int(9))
                },
                instr: || Instr::RangeHi {
                    dst: s(2),
                    array: slot_op(0),
                    dim: 1,
                    default: Operand::Int(7),
                    outer: Some(slot_op(1)),
                },
                check: |n, _, ctx| {
                    assert_eq!(
                        ctx.slot(s(2)),
                        Some(Value::Int(7)),
                        "{n}: the edge PE keeps the source bound"
                    )
                },
            },
            Case {
                name: "return-with-value",
                ctx: || TestCtx::new(1).with_slot(0, Value::Int(11)),
                instr: || Instr::Return {
                    value: Some(slot_op(0)),
                },
                check: |n, step, _| assert_eq!(step, Step::Finished(Some(Value::Int(11))), "{n}"),
            },
            Case {
                name: "return-without-value",
                ctx: || TestCtx::new(1),
                instr: || Instr::Return { value: None },
                check: |n, step, _| assert_eq!(step, Step::Finished(None), "{n}"),
            },
        ];
        for case in table {
            let mut ctx = (case.ctx)();
            let step = execute_instr(&mut ctx, &(case.instr)())
                .unwrap_or_else(|e| panic!("{}: unexpected error {e}", case.name));
            (case.check)(case.name, step, ctx);
        }
    }

    /// One table case per pinned *error* rule.
    #[test]
    fn table_error_rules_are_pinned() {
        struct Case {
            name: &'static str,
            ctx: fn() -> TestCtx,
            instr: fn() -> Instr,
            msg: &'static str,
        }
        let table: Vec<Case> = vec![
            Case {
                name: "division-by-zero",
                ctx: || TestCtx::new(1),
                instr: || Instr::Binary {
                    op: BinaryOp::Div,
                    dst: s(0),
                    lhs: Operand::Int(1),
                    rhs: Operand::Int(0),
                },
                msg: "division by zero",
            },
            Case {
                name: "branch-on-non-boolean",
                ctx: || TestCtx::new(1).with_array(0, &[2], 8),
                instr: || Instr::BranchIfFalse {
                    cond: slot_op(0),
                    target: 0,
                },
                msg: "non-boolean",
            },
            Case {
                name: "zero-dimension-alloc",
                ctx: || TestCtx::new(1),
                instr: || Instr::ArrayAlloc {
                    dst: s(0),
                    name: "z".into(),
                    dims: vec![Operand::Int(0)],
                    distributed: false,
                },
                msg: "zero dimension",
            },
            Case {
                name: "negative-dimension-alloc",
                ctx: || TestCtx::new(1),
                instr: || Instr::ArrayAlloc {
                    dst: s(0),
                    name: "z".into(),
                    dims: vec![Operand::Int(-3)],
                    distributed: false,
                },
                msg: "zero dimension",
            },
            Case {
                name: "load-out-of-bounds",
                ctx: || TestCtx::new(2).with_array(0, &[4], 8),
                instr: || Instr::ArrayLoad {
                    dst: s(1),
                    array: slot_op(0),
                    indices: vec![Operand::Int(9)],
                },
                msg: "index [9] out of bounds for 4 array `t`",
            },
            Case {
                name: "load-out-of-bounds-above-the-inline-rank",
                ctx: || TestCtx::new(2).with_array(0, &[2, 2, 2, 2, 3], 8),
                instr: || Instr::ArrayLoad {
                    dst: s(1),
                    array: slot_op(0),
                    indices: [1, 0, 1, 1, 3].map(Operand::Int).to_vec(),
                },
                msg: "index [1, 0, 1, 1, 3] out of bounds for 2x2x2x2x3 array `t`",
            },
            Case {
                name: "non-integer-index-coerces-to-out-of-bounds",
                ctx: || {
                    TestCtx::new(2)
                        .with_array(0, &[4], 8)
                        .with_slot(1, Value::Unit)
                },
                instr: || Instr::ArrayLoad {
                    dst: s(1),
                    array: slot_op(0),
                    indices: vec![slot_op(1)],
                },
                msg: "out of bounds",
            },
            Case {
                name: "store-single-assignment",
                ctx: || {
                    let mut c = TestCtx::new(1).with_array(0, &[4], 8);
                    c.write_cell(0, 1, Value::Int(1));
                    c
                },
                instr: || Instr::ArrayStore {
                    array: slot_op(0),
                    indices: vec![Operand::Int(1)],
                    value: Operand::Int(2),
                },
                msg: "single-assignment",
            },
            Case {
                name: "load-from-non-array",
                ctx: || TestCtx::new(2).with_slot(0, Value::Int(3)),
                instr: || Instr::ArrayLoad {
                    dst: s(1),
                    array: slot_op(0),
                    indices: vec![Operand::Int(0)],
                },
                msg: "expected an array reference",
            },
            Case {
                name: "range-filter-on-non-array",
                ctx: || TestCtx::new(2).with_slot(0, Value::Int(3)),
                instr: || Instr::RangeLo {
                    dst: s(1),
                    array: slot_op(0),
                    dim: 0,
                    default: Operand::Int(0),
                    outer: None,
                },
                msg: "range filter on a non-array value",
            },
        ];
        for case in table {
            let mut ctx = (case.ctx)();
            let err = execute_instr(&mut ctx, &(case.instr)())
                .expect_err(&format!("{}: expected an error", case.name));
            assert!(
                err.contains(case.msg),
                "{}: error `{err}` does not mention `{}`",
                case.name,
                case.msg
            );
        }
    }

    #[test]
    fn range_filter_is_identity_on_a_single_pe() {
        // One PE owns the whole dimension — both edges — so the filter
        // passes any source bound through unchanged, matching the
        // sequential oracle by construction.
        let shape = ArrayShape::new(vec![8]);
        let part = Partitioning::new(8, 4, 1);
        let h = ArrayHeader::new(ArrayId(0), "t", shape, part);
        let range = h.responsibility(PeId(0), 0, None);
        for bound in [-5i64, 0, 3, 7, 12] {
            assert_eq!(range_filter_bound(bound, &range, 8, true), bound);
            assert_eq!(range_filter_bound(bound, &range, 8, false), bound);
        }
    }

    #[test]
    fn range_filter_partitions_the_source_range_across_pes() {
        // Whatever the source range, the union of per-PE filtered ranges
        // must be exactly the source range (no truncation, no overlap).
        let pes = 3usize;
        let n = 10usize;
        let shape = ArrayShape::new(vec![n]);
        let part = Partitioning::new(n, 2, pes);
        let h = ArrayHeader::new(ArrayId(0), "t", shape, part);
        for (lo, hi) in [(0i64, 9i64), (-3, 4), (2, 13), (-2, 12), (3, 3)] {
            let mut covered = std::collections::HashMap::new();
            for pe in 0..pes {
                let range = h.responsibility(PeId(pe), 0, None);
                let flo = range_filter_bound(lo, &range, n as i64, true);
                let fhi = range_filter_bound(hi, &range, n as i64, false);
                for i in flo..=fhi {
                    *covered.entry(i).or_insert(0usize) += 1;
                }
            }
            for i in lo..=hi {
                assert_eq!(
                    covered.get(&i).copied().unwrap_or(0),
                    1,
                    "iteration {i} of source range {lo}..={hi} not covered exactly once"
                );
            }
            assert_eq!(
                covered.len(),
                (hi - lo + 1) as usize,
                "filtered ranges leaked outside the source range {lo}..={hi}"
            );
        }
    }

    #[test]
    fn run_instance_blocks_at_the_consuming_instruction() {
        // load (deferred, split-phase) → binary consuming the slot: the
        // driver must execute *past* the load and block at the consumer,
        // reporting the consumer's pc — the shared deadlock-diagnostic rule.
        let code = vec![
            Instr::ArrayLoad {
                dst: s(1),
                array: slot_op(0),
                indices: vec![Operand::Int(0)],
            },
            Instr::Move {
                dst: s(3),
                src: Operand::Int(1),
            },
            Instr::Binary {
                op: BinaryOp::Add,
                dst: s(2),
                lhs: slot_op(1),
                rhs: slot_op(3),
            },
        ];
        let table = ReadSlots::new(std::iter::once(code.as_slice()));
        let read_slots = table.template(SpId(0));
        let mut ctx = TestCtx::new(4).with_array(0, &[4], 8);
        let exit = run_instance(&mut ctx, &code, read_slots, None, None).unwrap();
        assert_eq!(exit, RunExit::Blocked(s(1)));
        assert_eq!(ctx.pc, 2, "blocked at the consumer, past the issued load");
        assert_eq!(ctx.waiters.len(), 1, "the load registered its waiter");
        assert!(
            ctx.costs.contains(&Cost::ContextSwitch),
            "blocking charges a context switch"
        );

        // Delivering the value and re-entering finishes the instance.
        ctx.set_slot(s(1), Value::Int(41));
        let exit = run_instance(&mut ctx, &code, read_slots, None, None).unwrap();
        assert_eq!(exit, RunExit::Finished(None));
        assert_eq!(ctx.slot(s(2)), Some(Value::Int(42)));
    }

    #[test]
    fn run_instance_honours_stop_and_end_of_code() {
        let code = vec![Instr::Move {
            dst: s(0),
            src: Operand::Int(1),
        }];
        let table = ReadSlots::new(std::iter::once(code.as_slice()));
        let read_slots = table.template(SpId(0));
        let mut ctx = TestCtx::new(1);
        ctx.stop = true;
        assert_eq!(
            run_instance(&mut ctx, &code, read_slots, None, None).unwrap(),
            RunExit::Stopped
        );
        ctx.stop = false;
        assert_eq!(
            run_instance(&mut ctx, &code, read_slots, None, None).unwrap(),
            RunExit::Finished(None),
            "running off the end finishes with no value"
        );
    }

    /// A hand-built chunked template: params are `a` (s0), the cursor
    /// (s1), and the chunk limit (s2); s3 is the driver-managed `taken`
    /// counter and s4 a scratch temp. The body stores `cursor * 10` into
    /// `a[cursor]` and returns.
    fn chunked_store_template() -> (Vec<Instr>, ChunkMeta) {
        let code = vec![
            Instr::Binary {
                op: BinaryOp::Mul,
                dst: s(4),
                lhs: slot_op(1),
                rhs: Operand::Int(10),
            },
            Instr::ArrayStore {
                array: slot_op(0),
                indices: vec![slot_op(1)],
                value: slot_op(4),
            },
            Instr::Return { value: None },
        ];
        let meta = ChunkMeta {
            cursor: s(1),
            limit: s(2),
            taken: s(3),
            first_scratch: 4,
            num_slots: 5,
            chunk: 3,
            descending: false,
        };
        (code, meta)
    }

    #[test]
    fn chunk_driver_runs_consecutive_iterations_in_one_instance() {
        let (code, meta) = chunked_store_template();
        let table = ReadSlots::new(std::iter::once(code.as_slice()));
        let read_slots = table.template(SpId(0));
        let mut ctx = TestCtx::new(5)
            .with_array(0, &[8], 8)
            .with_slot(1, Value::Int(2))
            .with_slot(2, Value::Int(7));
        let exit = run_instance(&mut ctx, &code, read_slots, Some(&meta), None).unwrap();
        assert_eq!(exit, RunExit::Finished(None));
        // Chunk budget 3 starting at cursor 2: iterations 2, 3, 4.
        for (i, cell) in ctx.arrays[0].1.iter().enumerate() {
            let expected = (2..=4).contains(&i).then(|| Value::Int(i as i64 * 10));
            assert_eq!(*cell, expected, "a[{i}]");
        }
        assert_eq!(ctx.slot(s(3)), Some(Value::Int(3)), "taken counter");
    }

    #[test]
    fn chunk_driver_stops_at_the_loop_limit() {
        let (code, meta) = chunked_store_template();
        let table = ReadSlots::new(std::iter::once(code.as_slice()));
        let read_slots = table.template(SpId(0));
        // Cursor 6, limit 7, budget 3: only iterations 6 and 7 run.
        let mut ctx = TestCtx::new(5)
            .with_array(0, &[8], 8)
            .with_slot(1, Value::Int(6))
            .with_slot(2, Value::Int(7));
        let exit = run_instance(&mut ctx, &code, read_slots, Some(&meta), None).unwrap();
        assert_eq!(exit, RunExit::Finished(None));
        assert_eq!(ctx.arrays[0].1[6], Some(Value::Int(60)));
        assert_eq!(ctx.arrays[0].1[7], Some(Value::Int(70)));
        assert_eq!(ctx.arrays[0].1[5], None);
    }

    #[test]
    fn chunk_driver_replicates_the_parent_test_on_float_limits() {
        // `for i = 0 to 2.5` runs i = 0, 1, 2 in the unchunked parent
        // (Int-vs-Float comparison promotes); the chunk driver must agree.
        let (code, mut meta) = chunked_store_template();
        meta.chunk = 10;
        let table = ReadSlots::new(std::iter::once(code.as_slice()));
        let read_slots = table.template(SpId(0));
        let mut ctx = TestCtx::new(5)
            .with_array(0, &[8], 8)
            .with_slot(1, Value::Int(0))
            .with_slot(2, Value::Float(2.5));
        let exit = run_instance(&mut ctx, &code, read_slots, Some(&meta), None).unwrap();
        assert_eq!(exit, RunExit::Finished(None));
        let written: Vec<usize> = ctx.arrays[0]
            .1
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.is_some().then_some(i))
            .collect();
        assert_eq!(written, vec![0, 1, 2]);
    }

    #[test]
    fn chunk_driver_descends_and_clears_scratch_between_iterations() {
        let (code, mut meta) = chunked_store_template();
        meta.descending = true;
        let table = ReadSlots::new(std::iter::once(code.as_slice()));
        let read_slots = table.template(SpId(0));
        // Cursor 5 descending to limit 4, budget 3: iterations 5 and 4.
        let mut ctx = TestCtx::new(5)
            .with_array(0, &[8], 8)
            .with_slot(1, Value::Int(5))
            .with_slot(2, Value::Int(4));
        let exit = run_instance(&mut ctx, &code, read_slots, Some(&meta), None).unwrap();
        assert_eq!(exit, RunExit::Finished(None));
        assert_eq!(ctx.arrays[0].1[5], Some(Value::Int(50)));
        assert_eq!(ctx.arrays[0].1[4], Some(Value::Int(40)));
        assert_eq!(ctx.arrays[0].1[3], None);
        // The scratch temp holds the *last* iteration's value — the clear
        // between iterations means each store read a freshly computed s4,
        // never a stale one (the distinct stored values above prove it).
        assert_eq!(ctx.slot(s(4)), Some(Value::Int(40)));
    }

    #[test]
    fn specialized_driver_agrees_with_the_interpreter() {
        // A straight-line ALU run with fused immediates: the specialized
        // driver must produce the same frame *and the same cost stream* as
        // the interpreter — charges are per fused op, not per super-op.
        let code = vec![
            Instr::Move {
                dst: s(2),
                src: Operand::Int(5),
            },
            Instr::Binary {
                op: BinaryOp::Add,
                dst: s(3),
                lhs: slot_op(0),
                rhs: slot_op(2),
            },
            Instr::Binary {
                op: BinaryOp::Mul,
                dst: s(4),
                lhs: slot_op(3),
                rhs: Operand::Int(2),
            },
            Instr::Return { value: None },
        ];
        let table = ReadSlots::new(std::iter::once(code.as_slice()));
        let read_slots = table.template(SpId(0));
        let (plan, _) = crate::specialize::build_plan(&code, &mut Vec::new());
        assert_eq!(plan.super_ops(), 1);

        let mut interp = TestCtx::new(5).with_slot(0, Value::Int(8));
        let exit = run_instance(&mut interp, &code, read_slots, None, None).unwrap();
        assert_eq!(exit, RunExit::Finished(None));

        let mut spec = TestCtx::new(5).with_slot(0, Value::Int(8));
        let exit = run_instance(&mut spec, &code, read_slots, None, Some(&plan)).unwrap();
        assert_eq!(exit, RunExit::Finished(None));

        assert_eq!(spec.slots, interp.slots);
        assert_eq!(spec.slot(s(4)), Some(Value::Int(26)));
        assert_eq!(spec.costs, interp.costs, "identical per-op charges");
    }

    #[test]
    fn blocked_super_op_leaves_the_frame_untouched_and_refires() {
        // The run writes s4, stores it into the single-assignment array,
        // then consumes the absent s1. All-or-nothing semantics: the
        // hoisted firing check blocks *before* the store happens, so the
        // resume can re-fire the whole run without a double-store fault.
        let code = vec![
            Instr::Move {
                dst: s(4),
                src: Operand::Int(7),
            },
            Instr::ArrayStore {
                array: slot_op(0),
                indices: vec![Operand::Int(0)],
                value: slot_op(4),
            },
            Instr::Binary {
                op: BinaryOp::Add,
                dst: s(5),
                lhs: slot_op(1),
                rhs: slot_op(4),
            },
            Instr::Return { value: None },
        ];
        let table = ReadSlots::new(std::iter::once(code.as_slice()));
        let read_slots = table.template(SpId(0));
        let (plan, _) = crate::specialize::build_plan(&code, &mut Vec::new());
        assert_eq!(plan.super_ops(), 1);

        let mut ctx = TestCtx::new(6).with_array(0, &[4], 8);
        let exit = run_instance(&mut ctx, &code, read_slots, None, Some(&plan)).unwrap();
        assert_eq!(exit, RunExit::Blocked(s(1)), "same blocked slot as interp");
        assert_eq!(ctx.pc, 0, "blocked at the run head, ready to re-fire");
        assert_eq!(ctx.slot(s(4)), None, "no partial side effects");
        assert_eq!(ctx.arrays[0].1[0], None, "the store did not happen");
        assert!(ctx.costs.contains(&Cost::ContextSwitch));

        // Delivering the operand re-fires the whole run: the store lands
        // exactly once (a replay would fault the single-assignment cell).
        ctx.set_slot(s(1), Value::Int(35));
        let exit = run_instance(&mut ctx, &code, read_slots, None, Some(&plan)).unwrap();
        assert_eq!(exit, RunExit::Finished(None));
        assert_eq!(ctx.arrays[0].1[0], Some(Value::Int(7)));
        assert_eq!(ctx.slot(s(5)), Some(Value::Int(42)));
    }

    #[test]
    fn specialized_driver_interoperates_with_the_chunk_driver() {
        // A chunked template whose whole body is one super-op: the chunk
        // driver resets pc to 0 between iterations, which re-enters the
        // super-op at its head — the plan and the chunk cursor compose.
        let (code, meta) = chunked_store_template();
        let table = ReadSlots::new(std::iter::once(code.as_slice()));
        let read_slots = table.template(SpId(0));
        let (plan, _) = crate::specialize::build_plan(&code, &mut Vec::new());
        assert_eq!(plan.super_ops(), 1);

        let mut ctx = TestCtx::new(5)
            .with_array(0, &[8], 8)
            .with_slot(1, Value::Int(2))
            .with_slot(2, Value::Int(7));
        let exit = run_instance(&mut ctx, &code, read_slots, Some(&meta), Some(&plan)).unwrap();
        assert_eq!(exit, RunExit::Finished(None));
        for (i, cell) in ctx.arrays[0].1.iter().enumerate() {
            let expected = (2..=4).contains(&i).then(|| Value::Int(i as i64 * 10));
            assert_eq!(*cell, expected, "a[{i}]");
        }
        assert_eq!(ctx.slot(s(3)), Some(Value::Int(3)), "taken counter");
    }

    #[test]
    fn wrapping_arithmetic_never_panics() {
        assert_eq!(
            eval_binary(BinaryOp::Div, Value::Int(i64::MIN), Value::Int(-1)).unwrap(),
            Value::Int(i64::MIN)
        );
        assert_eq!(
            eval_binary(BinaryOp::Rem, Value::Int(i64::MIN), Value::Int(-1)).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            eval_unary(UnaryOp::Neg, Value::Int(i64::MIN)).unwrap(),
            Value::Int(i64::MIN)
        );
        assert_eq!(
            eval_unary(UnaryOp::Abs, Value::Int(i64::MIN)).unwrap(),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn eval_smoke_matches_conventional_semantics() {
        assert_eq!(
            eval_binary(BinaryOp::Add, Value::Int(2), Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_binary(BinaryOp::Add, Value::Int(2), Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            eval_binary(BinaryOp::Pow, Value::Int(2), Value::Int(10)).unwrap(),
            Value::Int(1024)
        );
        assert!(eval_binary(BinaryOp::Div, Value::Int(1), Value::Int(0)).is_err());
        let v = eval_binary(BinaryOp::Div, Value::Float(1.0), Value::Float(0.0)).unwrap();
        assert!(matches!(v, Value::Float(x) if x.is_infinite()));
        assert_eq!(
            eval_binary(BinaryOp::Or, Value::Int(1), Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_unary(UnaryOp::Floor, Value::Float(2.7)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_unary(UnaryOp::Sqrt, Value::Int(9)).unwrap(),
            Value::Float(3.0)
        );
        assert!(eval_unary(UnaryOp::Sqrt, Value::Unit).is_err());
        let arr = Value::ArrayRef(ArrayId(0));
        assert!(eval_binary(BinaryOp::Add, arr, Value::Int(1)).is_err());
    }

    /// The per-instruction read list as the firing rule defines it, built
    /// the plain way (a vector, deduplicated by search): the reference the
    /// flat table is checked against.
    fn read_list(instr: &Instr) -> Vec<SlotId> {
        let operands: Vec<&Operand> = match instr {
            Instr::Binary { lhs, rhs, .. } => vec![lhs, rhs],
            Instr::Unary { src, .. } | Instr::Move { src, .. } => vec![src],
            Instr::BranchIfFalse { cond, .. } => vec![cond],
            Instr::Jump { .. } => vec![],
            Instr::ArrayAlloc { dims, .. } => dims.iter().collect(),
            Instr::ArrayLoad { array, indices, .. } => {
                std::iter::once(array).chain(indices).collect()
            }
            Instr::ArrayStore {
                array,
                indices,
                value,
            } => std::iter::once(array)
                .chain(indices)
                .chain(std::iter::once(value))
                .collect(),
            Instr::Spawn { args, .. } => args.iter().collect(),
            Instr::RangeLo {
                array,
                default,
                outer,
                ..
            }
            | Instr::RangeHi {
                array,
                default,
                outer,
                ..
            } => [array, default].into_iter().chain(outer).collect(),
            Instr::Return { value } => value.iter().collect(),
        };
        let mut out = Vec::new();
        for s in operands.into_iter().filter_map(Operand::slot) {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn build_read_slots_matches_per_instruction_lists() {
        // A loop, every workload program, and each of them chunked, so every
        // instruction kind the translator and the chunk transform emit is
        // covered; the partitioner's Range-Filter prologues are added by a
        // hand-built template (the partitioned workloads are checked where
        // the partitioner is available, in the `pods` crate).
        let sources = [
            "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i; } return a; }",
            pods_workloads::PAPER_EXAMPLE,
            pods_workloads::FILL,
            pods_workloads::MATMUL,
            pods_workloads::STENCIL,
            pods_workloads::RECURRENCE,
            pods_workloads::simple::SIMPLE,
        ];
        let mut programs = Vec::new();
        for source in sources {
            let program = crate::translate(&pods_idlang::compile(source).unwrap()).unwrap();
            let mut chunked = program.clone();
            crate::chunk_loop_spawns(&mut chunked, crate::ChunkPolicy::Auto, 1);
            programs.push(program);
            programs.push(chunked);
        }
        let prologue = [
            Instr::RangeLo {
                dst: s(3),
                array: slot_op(0),
                dim: 1,
                default: slot_op(1),
                outer: Some(slot_op(2)),
            },
            Instr::RangeHi {
                dst: s(4),
                array: slot_op(0),
                dim: 0,
                default: Operand::Int(7),
                outer: Some(slot_op(0)),
            },
        ];
        for program in &programs {
            let table = build_read_slots(program);
            assert_eq!(table.len(), program.len());
            for template in program.templates() {
                let reads = table.template(template.id);
                assert_eq!(reads.len(), template.code.len());
                for (pc, instr) in template.code.iter().enumerate() {
                    assert_eq!(reads.at(pc), read_list(instr), "{} pc {pc}", template.name);
                }
            }
        }
        let table = ReadSlots::new(std::iter::once(&prologue[..]));
        let reads = table.template(SpId(0));
        assert_eq!(reads.at(0), [s(0), s(1), s(2)]);
        assert_eq!(reads.at(1), [s(0)], "a repeated slot is listed once");
    }
}
