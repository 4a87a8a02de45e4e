//! A sequential, control-driven interpreter of the `idlang` HIR with a cost
//! model — the stand-in for the "most efficient sequential version (written
//! in a conventional language)" of §5.3.4 of the paper.
//!
//! The interpreter executes the program in ordinary program order with none
//! of the PODS machinery: no Subcompact Processes, no presence bits, no
//! split-phase accesses, no context switches, no Array Manager indirection.
//! Costs are charged from the same iPSC/2 instruction timing table the
//! simulator uses, plus simple address arithmetic for array accesses, so the
//! comparison against the 1-PE PODS run isolates the overhead of the
//! parallel run-time system exactly as the paper's efficiency comparison
//! does.
//!
//! Besides the §5.3.4 baseline, the interpreter plays two further roles:
//!
//! * it produces reference array contents used by the integration tests to
//!   validate the machine simulator end to end, and
//! * it profiles every top-level loop nest (time, element reads/writes),
//!   which the [`crate::pr`] module combines with the loop analysis to model
//!   the Pingali & Rogers static-compilation comparator of Figure 10.
//!
//! # Resolve, then run
//!
//! A run first makes one pass over the program's pooled HIR ([`Plan`]). It
//! gives every parameter, `let`, array and loop variable of a function a
//! slot in that function's frame; lays out every expression a statement
//! evaluates as postfix code ([`Op`]) that names each variable and array
//! by its slot and each callee by its index; and maps each loop ordinal of
//! a function to its top-level nest. Statements find their code and slot
//! in a table indexed by `StmtId`, which numbers the pool densely. The
//! interpreter then runs on one stack of frames and one stack of values:
//! a name is an index, an index tuple is read off the value stack into one
//! reused buffer, a nest profile is an entry of a `Vec`, and no
//! environment is ever copied. Costs are charged, and errors raised, in
//! the order a walk over the tree would charge and raise them.
//!
//! One slot per name per function is sound because the front end's checks
//! undo a loop body's or a branch's bindings after it: a name is never
//! bound while another binding of it is visible.

use pods_idlang::hir::{ExprId, List, StmtId};
use pods_idlang::{BinaryOp, HirExpr, HirProgram, HirStmt, LoopInfo, LoopKey, Name, UnaryOp};
use pods_istructure::{ArrayId, ArrayShape, Value};
use pods_machine::{eval_binary, eval_unary, TimingModel};

/// Errors produced by the sequential interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// A run-time failure of the interpreted program (missing `main`,
    /// reads of never-written elements, out-of-bounds accesses,
    /// single-assignment violations, …).
    Runtime(String),
    /// The statement budget of [`run_sequential`] was exhausted
    /// (carries the configured limit).
    StepLimit(u64),
}

impl BaselineError {
    /// The error raised when [`run_sequential`]'s statement budget
    /// is exhausted.
    pub fn step_limit(limit: u64) -> BaselineError {
        BaselineError::StepLimit(limit)
    }

    /// Whether this error is the statement-budget exhaustion of
    /// [`run_sequential`] (so callers can map it onto their own
    /// event-limit vocabulary).
    pub fn is_step_limit(&self) -> bool {
        matches!(self, BaselineError::StepLimit(_))
    }
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Runtime(msg) => write!(f, "baseline error: {msg}"),
            BaselineError::StepLimit(limit) => {
                write!(f, "baseline error: statement limit exceeded: {limit}")
            }
        }
    }
}

impl std::error::Error for BaselineError {}

/// Profile of one top-level loop nest, accumulated over every dynamic
/// execution of that nest.
#[derive(Debug, Clone, PartialEq)]
pub struct NestProfile {
    /// The outermost loop of the nest.
    pub key: LoopKey,
    /// Total time spent inside the nest (microseconds).
    pub time_us: f64,
    /// Array element reads performed inside the nest.
    pub element_reads: u64,
    /// Array element writes performed inside the nest.
    pub element_writes: u64,
    /// `true` when PODS would distribute this nest (no loop-carried
    /// dependency at the outermost level and a usable distribution target).
    pub parallelizable: bool,
}

/// A final array produced by the sequential run.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineArray {
    /// Source-level name, shared with the program's HIR.
    pub name: Name,
    /// Shape of the array.
    pub shape: ArrayShape,
    /// Element values (row-major); `None` if never written.
    pub values: Vec<Option<Value>>,
}

impl BaselineArray {
    /// The whole array as `f64`s, `default` substituted for unwritten
    /// elements.
    pub fn to_f64(&self, default: f64) -> Vec<f64> {
        self.values
            .iter()
            .map(|v| v.and_then(|v| v.as_f64()).unwrap_or(default))
            .collect()
    }
}

/// The result of a sequential baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialRun {
    /// Modelled sequential execution time in microseconds.
    pub elapsed_us: f64,
    /// The value returned by `main`.
    pub return_value: Option<Value>,
    /// Final array contents, in allocation order.
    pub arrays: Vec<BaselineArray>,
    /// Per-top-level-loop-nest profile.
    pub nests: Vec<NestProfile>,
    /// Time spent outside any loop nest (straight-line code and calls).
    pub serial_us: f64,
}

impl SequentialRun {
    /// Elapsed time in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_us / 1.0e6
    }

    /// The last-allocated array with the given name.
    pub fn array(&self, name: &str) -> Option<&BaselineArray> {
        self.arrays.iter().rev().find(|a| a.name == name)
    }
}

/// Runs `main` of the program sequentially with the given arguments.
///
/// `loops` is the program's loop analysis ([`pods_idlang::analyze_loops`]),
/// which marks the top-level nests the run profiles; a compiled program
/// already holds it. The run aborts with [`BaselineError::step_limit`]
/// after `max_steps` interpreted statements (0 = unlimited). This is the
/// sequential analogue of the simulator's event limit and the native
/// engine's task limit, so runaway programs are caught on every engine.
///
/// # Errors
///
/// Returns a [`BaselineError`] on missing `main`, argument mismatch, reads
/// of never-written elements, out-of-bounds accesses, single-assignment
/// violations, or an exhausted step budget.
pub fn run_sequential(
    hir: &HirProgram,
    loops: &[LoopInfo],
    args: &[Value],
    timing: &TimingModel,
    max_steps: u64,
) -> Result<SequentialRun, BaselineError> {
    let plan = Plan::new(hir, loops);
    let entry = plan
        .entry
        .ok_or_else(|| BaselineError::Runtime("program has no `main` function".into()))?;
    let params = hir.functions[entry].params.len();
    if params != args.len() {
        return Err(BaselineError::Runtime(format!(
            "`main` takes {params} argument(s), {} supplied",
            args.len()
        )));
    }
    let mut interp = Interp {
        hir,
        timing,
        entered: vec![false; plan.nests.len()],
        plan,
        arrays: Vec::new(),
        stack: args.iter().map(|&v| Some(v)).collect(),
        frame: Frame::default(),
        values: Vec::new(),
        indices: Vec::new(),
        nest_stack: Vec::new(),
        time: 0.0,
        depth: 0,
        steps: 0,
        max_steps,
    };
    let return_value = interp.call(entry, 0).map_err(|e| *e)?;

    let entered = interp.entered;
    let mut nests: Vec<NestProfile> = interp
        .plan
        .nests
        .into_iter()
        .zip(entered)
        .filter_map(|(nest, entered)| entered.then_some(nest))
        .collect();
    nests.sort_by(|a, b| (&a.key.function, a.key.ordinal).cmp(&(&b.key.function, b.key.ordinal)));
    let nest_time: f64 = nests.iter().map(|n| n.time_us).sum();
    Ok(SequentialRun {
        elapsed_us: interp.time,
        return_value,
        arrays: interp
            .arrays
            .into_iter()
            .map(|a| BaselineArray {
                name: a.name,
                shape: a.shape,
                values: a.values,
            })
            .collect(),
        nests,
        serial_us: (interp.time - nest_time).max(0.0),
    })
}

/// The deepest call nesting a run allows; `main` is at depth 0. A level
/// of recursion takes 2.0 KiB of stack in an unoptimised build when the
/// call sits in a `return` expression, and 4.9 KiB when it sits two loops
/// and an `if` deep (0.7 and 1.8 KiB optimised). So 256 levels of the
/// latter fit a 2 MiB thread with a third to spare, and a deeper recursion
/// ends in "call depth exceeded", not a stack overflow.
const MAX_CALL_DEPTH: usize = 256;

/// The marker of "none" in the plan's `u32` fields: no such function, no
/// nest.
const NONE: u32 = u32::MAX;

/// One step of an expression's code. An expression is laid out in
/// postfix order, its operands before its operator, so evaluating it is a
/// loop over a stack of values rather than a walk over its tree.
#[derive(Debug, Clone, Copy)]
enum Op {
    Int(i64),
    Float(f64),
    Bool(bool),
    /// Push the variable in frame slot `slot`; `expr` names it.
    Var {
        slot: u32,
        expr: ExprId,
    },
    /// Pop `rank` indices and push that element of the array in `slot`.
    Load {
        slot: u32,
        rank: u32,
        expr: ExprId,
    },
    Unary(UnaryOp),
    Binary(BinaryOp),
    /// Pop `args` arguments, call function `callee` ([`NONE`] when no
    /// function has the name) and push what it returns.
    Call {
        callee: u32,
        args: u32,
        expr: ExprId,
    },
    /// Pop a condition; go on at `else_at` when it is false.
    Branch {
        else_at: u32,
    },
    Jump {
        to: u32,
    },
    /// The end of one expression's code.
    End,
}

/// What the resolve pass records for a statement.
#[derive(Debug, Clone, Copy)]
struct StmtPlan {
    /// Where the code of its expressions starts: one expression after
    /// another, each to its `End`. A `Store`'s value and indices and a
    /// `Call`'s arguments are one run of code.
    code: u32,
    /// The frame slot a `Let`, an `Alloc` or a `For` binds or a `Store`
    /// writes, the callee of a `Call`, the loops in an `If`'s `then` arm.
    target: u32,
    /// The loops in an `If`'s `else` arm.
    else_loops: u32,
}

/// What the resolve pass records for a function.
#[derive(Debug, Default)]
struct FunctionPlan {
    /// Frame slots: the parameters first, in order, then every other name
    /// the body binds or reads.
    slots: usize,
    /// The nest of each loop ordinal that starts a top-level nest, [`NONE`]
    /// for the others.
    nests: Vec<u32>,
}

/// A program resolved for one run: every name bound to a frame slot,
/// every call to its callee, every expression to its code, every
/// top-level loop to its nest.
struct Plan {
    /// The index of `main`.
    entry: Option<usize>,
    functions: Vec<FunctionPlan>,
    /// Per statement, by id.
    stmts: Vec<StmtPlan>,
    /// The code of every expression a statement evaluates.
    code: Vec<Op>,
    /// One profile per top-level nest of the loop analysis, filled in as
    /// the run enters it.
    nests: Vec<NestProfile>,
}

/// `n` as one of a plan's `u32` fields. A plan holds a few entries per
/// node of the program, whose pools are indexed by `u32`.
fn plan_index(n: usize) -> u32 {
    u32::try_from(n).expect("a plan holds fewer than 2^32 entries")
}

/// The index of the function a call of `name` reaches: the first of that
/// name.
fn function_index(hir: &HirProgram, name: &str) -> Option<usize> {
    hir.functions.iter().position(|f| f.name == name)
}

impl Plan {
    fn new(hir: &HirProgram, loops: &[LoopInfo]) -> Plan {
        let [exprs, stmts, _] = hir.pool_lens();
        let mut plan = Plan {
            entry: function_index(hir, "main"),
            functions: hir
                .functions
                .iter()
                .map(|_| FunctionPlan::default())
                .collect(),
            stmts: vec![
                StmtPlan {
                    code: 0,
                    target: NONE,
                    else_loops: 0,
                };
                stmts
            ],
            code: Vec::with_capacity(exprs + stmts),
            nests: Vec::new(),
        };
        for info in loops.iter().filter(|info| info.depth == 0) {
            let Some(f) = function_index(hir, &info.key.function) else {
                continue;
            };
            let table = &mut plan.functions[f].nests;
            let ordinal = info.key.ordinal;
            if table.len() <= ordinal {
                table.resize(ordinal + 1, NONE);
            }
            if table[ordinal] == NONE {
                table[ordinal] = plan_index(plan.nests.len());
                plan.nests.push(NestProfile {
                    key: info.key.clone(),
                    time_us: 0.0,
                    element_reads: 0,
                    element_writes: 0,
                    parallelizable: info.is_distributable(),
                });
            }
        }
        let mut names = Vec::new();
        for (f, function) in hir.functions.iter().enumerate() {
            names.clear();
            names.extend(function.params.iter());
            let mut resolver = Resolver {
                hir,
                plan: &mut plan,
                names: &mut names,
                loops: 0,
            };
            resolver.block(function.body);
            plan.functions[f].slots = names.len();
        }
        plan
    }
}

/// The resolve pass over one function.
struct Resolver<'p, 'h> {
    hir: &'h HirProgram,
    plan: &'p mut Plan,
    /// The function's names, by slot. A repeated parameter keeps both
    /// slots and the body reads the later one, as the last binding of a
    /// name wins.
    names: &'p mut Vec<&'h Name>,
    /// Loops met so far, in preorder.
    loops: u32,
}

impl<'h> Resolver<'_, 'h> {
    fn slot(&mut self, name: &'h Name) -> u32 {
        let slot = match self.names.iter().rposition(|n| *n == name) {
            Some(slot) => slot,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        plan_index(slot)
    }

    fn callee(&self, name: &str) -> u32 {
        function_index(self.hir, name).map_or(NONE, plan_index)
    }

    fn here(&self) -> u32 {
        plan_index(self.plan.code.len())
    }

    fn emit(&mut self, op: Op) {
        self.plan.code.push(op);
    }

    fn block(&mut self, stmts: List<StmtId>) {
        for id in self.hir.stmts(stmts) {
            let mut plan = StmtPlan {
                code: self.here(),
                target: NONE,
                else_loops: 0,
            };
            match self.hir.stmt(id) {
                HirStmt::Let { name, value } => {
                    self.root(*value);
                    plan.target = self.slot(name);
                }
                HirStmt::Alloc { name, dims } => {
                    for d in self.hir.exprs(*dims) {
                        self.root(d);
                    }
                    plan.target = self.slot(name);
                }
                HirStmt::Store {
                    array,
                    indices,
                    value,
                } => {
                    self.expr(*value);
                    self.exprs(*indices);
                    self.emit(Op::End);
                    plan.target = self.slot(array);
                }
                HirStmt::For {
                    var,
                    from,
                    to,
                    body,
                    ..
                } => {
                    self.loops += 1;
                    self.root(*from);
                    self.root(*to);
                    plan.target = self.slot(var);
                    self.block(*body);
                }
                HirStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.root(*cond);
                    let before = self.loops;
                    self.block(*then_body);
                    let after_then = self.loops;
                    self.block(*else_body);
                    plan.target = after_then - before;
                    plan.else_loops = self.loops - after_then;
                }
                HirStmt::Return { value } => self.root(*value),
                HirStmt::Call { function, args } => {
                    self.exprs(*args);
                    self.emit(Op::End);
                    plan.target = self.callee(function);
                }
            }
            self.plan.stmts[id.index()] = plan;
        }
    }

    /// Lays out the code of a statement's expression `id`.
    fn root(&mut self, id: ExprId) {
        self.expr(id);
        self.emit(Op::End);
    }

    fn exprs(&mut self, exprs: List<ExprId>) {
        for id in self.hir.exprs(exprs) {
            self.expr(id);
        }
    }

    fn expr(&mut self, id: ExprId) {
        let op = match self.hir.expr(id) {
            HirExpr::Int(v) => Op::Int(*v),
            HirExpr::Float(v) => Op::Float(*v),
            HirExpr::Bool(v) => Op::Bool(*v),
            HirExpr::Var(name) => Op::Var {
                slot: self.slot(name),
                expr: id,
            },
            HirExpr::Load { array, indices } => {
                self.exprs(*indices);
                Op::Load {
                    slot: self.slot(array),
                    rank: indices.len() as u32,
                    expr: id,
                }
            }
            HirExpr::Unary { op, operand } => {
                self.expr(*operand);
                Op::Unary(*op)
            }
            HirExpr::Binary { op, lhs, rhs } => {
                self.expr(*lhs);
                self.expr(*rhs);
                Op::Binary(*op)
            }
            HirExpr::Call { function, args } => {
                self.exprs(*args);
                Op::Call {
                    callee: self.callee(function),
                    args: args.len() as u32,
                    expr: id,
                }
            }
            HirExpr::Select {
                cond,
                then_value,
                else_value,
            } => {
                self.expr(*cond);
                let branch = self.plan.code.len();
                self.emit(Op::Branch { else_at: NONE });
                self.expr(*then_value);
                let jump = self.plan.code.len();
                self.emit(Op::Jump { to: NONE });
                self.plan.code[branch] = Op::Branch {
                    else_at: self.here(),
                };
                self.expr(*else_value);
                self.plan.code[jump] = Op::Jump { to: self.here() };
                return;
            }
        };
        self.emit(op);
    }
}

/// The name expression `expr` reads or calls, for an error message: a
/// variable's, a loaded array's or a callee's.
#[cold]
fn name_of(hir: &HirProgram, expr: ExprId) -> &Name {
    match hir.expr(expr) {
        HirExpr::Var(name)
        | HirExpr::Load { array: name, .. }
        | HirExpr::Call { function: name, .. } => name,
        other => unreachable!("{other:?} names nothing"),
    }
}

struct ArrayState {
    name: Name,
    shape: ArrayShape,
    values: Vec<Option<Value>>,
}

/// The running function's place on the stack.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    /// The function's index.
    function: usize,
    /// Where its slots start on the stack.
    base: usize,
    /// The ordinal the next loop it enters takes. It counts loops as they
    /// are entered, as the oracle always has, rather than in program text:
    /// from the second iteration of a loop on, the loops in its body take
    /// the ordinals of the loops after it, so an inner loop can be profiled
    /// as a later nest and that nest not at all (ROADMAP finding 10). The
    /// Pingali & Rogers rows of Figure 10 are built on this count.
    ordinal: usize,
}

struct Interp<'a> {
    hir: &'a HirProgram,
    timing: &'a TimingModel,
    plan: Plan,
    arrays: Vec<ArrayState>,
    /// Every active function's slots, the running one's last; a slot is
    /// `None` until its name is bound.
    stack: Vec<Option<Value>>,
    frame: Frame,
    /// The values of the expressions being evaluated, innermost last.
    values: Vec<Value>,
    /// The index tuple of the access being made.
    indices: Vec<i64>,
    /// Which nests of the plan the run entered.
    entered: Vec<bool>,
    /// Top-level nests being executed (nest, entry time), innermost last.
    nest_stack: Vec<(usize, f64)>,
    time: f64,
    depth: usize,
    /// Statements interpreted so far (the unit the step budget counts).
    steps: u64,
    /// 0 = unlimited; otherwise abort once `steps` exceeds this budget.
    max_steps: u64,
}

enum Flow {
    Normal,
    Return(Value),
}

/// What an interpreter step returns. The error is boxed so that a value
/// or its error fits in two registers: errors are rare, and end the run.
type Step<T> = Result<T, Box<BaselineError>>;

impl Interp<'_> {
    fn charge(&mut self, us: f64) {
        self.time += us;
    }

    fn current_nest(&mut self) -> Option<&mut NestProfile> {
        let &(nest, _) = self.nest_stack.last()?;
        Some(&mut self.plan.nests[nest])
    }

    fn slot(&self, slot: u32) -> Option<Value> {
        self.stack[self.frame.base + slot as usize]
    }

    fn bind(&mut self, slot: u32, value: Option<Value>) {
        self.stack[self.frame.base + slot as usize] = value;
    }

    fn pop(&mut self) -> Value {
        self.values
            .pop()
            .expect("an operator's operands are on the stack")
    }

    /// Runs function `function` on the arguments on top of the stack, from
    /// `base` on.
    fn call(&mut self, function: usize, base: usize) -> Step<Option<Value>> {
        if self.depth > MAX_CALL_DEPTH {
            return Err(runtime(format_args!("call depth exceeded")));
        }
        self.depth += 1;
        let args = self.stack.len() - base;
        // Call overhead: argument moves plus the call/return pair.
        self.charge(2.0 * self.timing.context_switch + args as f64 * self.timing.memory_write);
        let f = &self.hir.functions[function];
        self.stack.truncate(base + args.min(f.params.len()));
        self.stack
            .resize(base + self.plan.functions[function].slots, None);
        let caller = std::mem::replace(
            &mut self.frame,
            Frame {
                function,
                base,
                ordinal: 0,
            },
        );
        let flow = self.exec_block(f.body)?;
        self.frame = caller;
        self.stack.truncate(base);
        self.depth -= 1;
        Ok(match flow {
            Flow::Return(v) => Some(v),
            Flow::Normal => None,
        })
    }

    /// Calls `callee` (from the plan; `name` is its name) on the top `args`
    /// values.
    fn call_site(&mut self, callee: u32, args: usize, name: &Name) -> Step<Option<Value>> {
        if callee == NONE {
            return Err(runtime(format_args!("unknown function `{name}`")));
        }
        let base = self.stack.len();
        let from = self.values.len() - args;
        self.stack.extend(self.values.drain(from..).map(Some));
        self.call(callee as usize, base)
    }

    fn exec_block(&mut self, stmts: List<StmtId>) -> Step<Flow> {
        for stmt in self.hir.stmts(stmts) {
            let flow = self.exec_stmt(stmt);
            if !matches!(flow, Ok(Flow::Normal)) {
                return flow;
            }
        }
        Ok(Flow::Normal)
    }

    /// Runs one statement. Each kind runs in a function of its own, so a
    /// recursion through this one keeps a small frame on the stack even in
    /// an unoptimised build.
    fn exec_stmt(&mut self, stmt: StmtId) -> Step<Flow> {
        self.steps += 1;
        if self.max_steps > 0 && self.steps > self.max_steps {
            return Err(Box::new(BaselineError::step_limit(self.max_steps)));
        }
        let hir = self.hir;
        let plan = self.plan.stmts[stmt.index()];
        match hir.stmt(stmt) {
            HirStmt::Let { .. } => self.exec_let(plan),
            HirStmt::Alloc { name, dims } => self.exec_alloc(plan, name, dims.len()),
            HirStmt::Store { array, indices, .. } => self.exec_store(plan, array, indices.len()),
            HirStmt::For {
                descending, body, ..
            } => self.exec_for(plan, *descending, *body),
            HirStmt::If {
                then_body,
                else_body,
                ..
            } => self.exec_if(plan, *then_body, *else_body),
            HirStmt::Return { .. } => self.value(plan.code).map(|(v, _)| Flow::Return(v)),
            HirStmt::Call { function, args } => self.exec_call(plan, function, args.len()),
        }
    }

    fn exec_let(&mut self, plan: StmtPlan) -> Step<Flow> {
        let (v, _) = self.value(plan.code)?;
        self.charge(self.timing.memory_write);
        self.bind(plan.target, Some(v));
        Ok(Flow::Normal)
    }

    fn exec_alloc(&mut self, plan: StmtPlan, name: &Name, rank: usize) -> Step<Flow> {
        let mut code = plan.code;
        let mut extents = Vec::with_capacity(rank);
        for _ in 0..rank {
            let (v, next) = self.value(code)?;
            code = next;
            let n = v
                .as_i64()
                .filter(|&n| n > 0)
                .ok_or_else(|| runtime(format_args!("bad dimension for `{name}`")))?;
            extents.push(n as usize);
        }
        let shape = ArrayShape::new(extents);
        // malloc-style allocation cost.
        self.charge(self.timing.array_allocate);
        let id = ArrayId(self.arrays.len());
        self.arrays.push(ArrayState {
            name: name.clone(),
            values: vec![None; shape.len()],
            shape,
        });
        self.bind(plan.target, Some(Value::ArrayRef(id)));
        Ok(Flow::Normal)
    }

    /// Stores the value under its `rank` indices.
    fn exec_store(&mut self, plan: StmtPlan, array: &Name, rank: usize) -> Step<Flow> {
        self.run(plan.code)?;
        let (id, offset) = self.element(plan.target, rank, || array)?;
        let v = self.pop();
        self.charge(self.timing.memory_write);
        if let Some(nest) = self.current_nest() {
            nest.element_writes += 1;
        }
        let cell = &mut self.arrays[id.index()].values[offset];
        if cell.is_some() {
            return Err(runtime(format_args!(
                "single-assignment violation on `{array}`"
            )));
        }
        *cell = Some(v);
        Ok(Flow::Normal)
    }

    fn exec_if(
        &mut self,
        plan: StmtPlan,
        then_body: List<StmtId>,
        else_body: List<StmtId>,
    ) -> Step<Flow> {
        let c = self
            .value(plan.code)?
            .0
            .as_bool()
            .ok_or_else(|| runtime(format_args!("non-boolean condition")))?;
        self.charge(self.timing.int_alu);
        // The then-arm's loops are numbered first, then the else-arm's,
        // whichever arm runs.
        let start = self.frame.ordinal;
        let else_start = start + plan.target as usize;
        self.frame.ordinal = if c { start } else { else_start };
        let flow = self.exec_block(if c { then_body } else { else_body })?;
        self.frame.ordinal = else_start + plan.else_loops as usize;
        Ok(flow)
    }

    fn exec_call(&mut self, plan: StmtPlan, callee: &Name, args: usize) -> Step<Flow> {
        self.run(plan.code)?;
        self.call_site(plan.target, args, callee)?;
        Ok(Flow::Normal)
    }

    fn exec_for(&mut self, plan: StmtPlan, descending: bool, body: List<StmtId>) -> Step<Flow> {
        let nest = self.enter_loop();
        let (from, to) = self.loop_bounds(plan.code)?;
        let mut i = from;
        loop {
            let done = if descending { i < to } else { i > to };
            // Loop control: compare, branch, increment.
            self.charge(3.0 * self.timing.int_alu);
            if done {
                break;
            }
            self.bind(plan.target, Some(Value::Int(i)));
            let flow = self.exec_block(body);
            if !matches!(flow, Ok(Flow::Normal)) {
                return flow;
            }
            i += if descending { -1 } else { 1 };
        }
        self.bind(plan.target, None);
        if nest {
            self.leave_nest();
        }
        Ok(Flow::Normal)
    }

    /// Numbers the loop being entered and, when it starts a top-level
    /// nest, enters the nest; returns whether it did.
    fn enter_loop(&mut self) -> bool {
        let ordinal = self.frame.ordinal;
        self.frame.ordinal += 1;
        let nests = &self.plan.functions[self.frame.function].nests;
        match nests.get(ordinal) {
            Some(&nest) if nest != NONE => {
                self.entered[nest as usize] = true;
                self.nest_stack.push((nest as usize, self.time));
                true
            }
            _ => false,
        }
    }

    /// Charges the innermost nest being executed the time since it was
    /// entered, and leaves it.
    fn leave_nest(&mut self) {
        if let Some((nest, start)) = self.nest_stack.pop() {
            self.plan.nests[nest].time_us += self.time - start;
        }
    }

    fn loop_bounds(&mut self, code: u32) -> Step<(i64, i64)> {
        let bound = |v: Value| {
            v.as_i64()
                .ok_or_else(|| runtime(format_args!("non-integer loop bound")))
        };
        let (from, code) = self.value(code)?;
        let from = bound(from)?;
        let to = bound(self.value(code)?.0)?;
        Ok((from, to))
    }

    /// Takes the top `rank` values as an access's indices and returns the
    /// array in `slot` and the element's offset in it; `array` names the
    /// array for an error.
    fn element<'n>(
        &mut self,
        slot: u32,
        rank: usize,
        array: impl Fn() -> &'n Name,
    ) -> Step<(ArrayId, usize)> {
        let from = self.values.len() - rank;
        self.indices.clear();
        for v in &self.values[from..] {
            self.indices.push(v.as_i64().unwrap_or(-1));
        }
        self.values.truncate(from);
        let id = match self.slot(slot) {
            Some(Value::ArrayRef(id)) => id,
            _ => return Err(runtime(format_args!("`{}` is not an array", array()))),
        };
        // Address arithmetic: one multiply and add per dimension.
        self.charge(rank as f64 * (self.timing.int_mul + self.timing.int_alu));
        let shape = &self.arrays[id.index()].shape;
        let offset = shape.offset_of(&self.indices).ok_or_else(|| {
            runtime(format_args!(
                "index {:?} out of bounds for `{}` ({shape})",
                self.indices,
                array()
            ))
        })?;
        Ok((id, offset))
    }

    /// Runs the expression code at `code` and returns its value and where
    /// the next expression's code starts.
    fn value(&mut self, code: u32) -> Step<(Value, u32)> {
        let next = self.run(code)?;
        Ok((self.pop(), next))
    }

    /// Runs the code at `code` to its `End`, leaving its values on the
    /// value stack, and returns where the next expression's code starts.
    /// Each operator runs in a function of its own, which keeps this one's
    /// frame small when a call recurses through it.
    fn run(&mut self, mut code: u32) -> Step<u32> {
        loop {
            let op = self.plan.code[code as usize];
            code += 1;
            let v = match op {
                Op::Int(v) => Value::Int(v),
                Op::Float(v) => Value::Float(v),
                Op::Bool(v) => Value::Bool(v),
                Op::Var { slot, expr } => self.var(slot, expr)?,
                Op::Load { slot, rank, expr } => self.load(slot, rank as usize, expr)?,
                Op::Unary(op) => self.unary(op)?,
                Op::Binary(op) => self.binary(op)?,
                Op::Call { callee, args, expr } => self.call_op(callee, args as usize, expr)?,
                Op::Branch { else_at } => {
                    if !self.branch()? {
                        code = else_at;
                    }
                    continue;
                }
                Op::Jump { to } => {
                    code = to;
                    continue;
                }
                Op::End => return Ok(code),
            };
            self.values.push(v);
        }
    }

    fn var(&self, slot: u32, expr: ExprId) -> Step<Value> {
        self.slot(slot).ok_or_else(|| {
            let name = name_of(self.hir, expr);
            runtime(format_args!("unknown variable `{name}`"))
        })
    }

    fn unary(&mut self, op: UnaryOp) -> Step<Value> {
        let v = self.pop();
        self.charge(
            self.timing
                .unary_op(op, v.is_float() || float_producing(op)),
        );
        eval_unary(op, v).map_err(|e| runtime(format_args!("{e}")))
    }

    fn binary(&mut self, op: BinaryOp) -> Step<Value> {
        let b = self.pop();
        let a = self.pop();
        self.charge(self.timing.binary_op(op, a.is_float() || b.is_float()));
        eval_binary(op, a, b).map_err(|e| runtime(format_args!("{e}")))
    }

    fn call_op(&mut self, callee: u32, args: usize, expr: ExprId) -> Step<Value> {
        let name = name_of(self.hir, expr);
        self.call_site(callee, args, name)?
            .ok_or_else(|| runtime(format_args!("`{name}` returned no value")))
    }

    /// Pops a condition and charges its test.
    fn branch(&mut self) -> Step<bool> {
        let c = self
            .pop()
            .as_bool()
            .ok_or_else(|| runtime(format_args!("non-boolean condition")))?;
        self.charge(self.timing.int_alu);
        Ok(c)
    }

    fn load(&mut self, slot: u32, rank: usize, expr: ExprId) -> Step<Value> {
        let hir = self.hir;
        let array = || name_of(hir, expr);
        let (id, offset) = self.element(slot, rank, array)?;
        self.charge(self.timing.memory_read);
        if let Some(nest) = self.current_nest() {
            nest.element_reads += 1;
        }
        self.arrays[id.index()].values[offset].ok_or_else(|| {
            runtime(format_args!(
                "element {offset} of `{}` read before being written",
                array()
            ))
        })
    }
}

/// A run-time error, built out of line so that formatting its message costs
/// the paths that do not fail nothing.
#[cold]
#[inline(never)]
fn runtime(message: std::fmt::Arguments) -> Box<BaselineError> {
    Box::new(BaselineError::Runtime(message.to_string()))
}

/// Whether a unary operator produces a float regardless of its operand type
/// (used only for cost estimation).
fn float_producing(op: UnaryOp) -> bool {
    matches!(
        op,
        UnaryOp::Sqrt | UnaryOp::Exp | UnaryOp::Ln | UnaryOp::Sin | UnaryOp::Cos
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pods_idlang::{analyze_loops, compile, BinaryOp};

    /// A check against the cost-free semantics: binary ops over ints never
    /// charge float times.
    fn int_op_cost(timing: &TimingModel) -> f64 {
        timing.binary_op(BinaryOp::Add, false)
    }

    fn run(src: &str, args: &[Value]) -> SequentialRun {
        run_bounded(&compile(src).unwrap(), args, 0).unwrap()
    }

    fn run_bounded(
        hir: &HirProgram,
        args: &[Value],
        max_steps: u64,
    ) -> Result<SequentialRun, BaselineError> {
        let loops = analyze_loops(hir);
        run_sequential(hir, &loops, args, &TimingModel::default(), max_steps)
    }

    #[test]
    fn scalar_arithmetic_and_calls() {
        let r = run(
            "def main(n) { x = twice(n) + 1; return x; } def twice(v) { return v * 2; }",
            &[Value::Int(10)],
        );
        assert_eq!(r.return_value, Some(Value::Int(21)));
        assert!(r.elapsed_us > 0.0);
    }

    #[test]
    fn loops_fill_arrays_and_profiles_are_recorded() {
        let r = run(
            r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { a[i, j] = i * n + j; }
                }
                return a;
            }
            "#,
            &[Value::Int(8)],
        );
        let a = r.array("a").unwrap();
        assert_eq!(a.values.iter().filter(|v| v.is_some()).count(), 64);
        assert_eq!(a.to_f64(-1.0)[10], 10.0);
        assert_eq!(r.nests.len(), 1);
        let nest = &r.nests[0];
        assert_eq!(nest.element_writes, 64);
        assert!(nest.parallelizable);
        assert!(nest.time_us > 0.0);
        assert!(r.serial_us >= 0.0);
    }

    #[test]
    fn conditionals_and_descending_loops() {
        let r = run(
            r#"
            def main(n) {
                a = array(n);
                for i = n - 1 downto 0 {
                    a[i] = if i % 2 == 0 then i else 0 - i;
                }
                return a[2];
            }
            "#,
            &[Value::Int(6)],
        );
        assert_eq!(r.return_value, Some(Value::Int(2)));
    }

    #[test]
    fn errors_are_reported() {
        let hir = compile("def main(n) { a = array(n); return a[0]; }").unwrap();
        let err = run_bounded(&hir, &[Value::Int(3)], 0).unwrap_err();
        assert!(err.to_string().contains("read before"));

        let hir = compile("def main(n) { a = array(n); a[0] = 1; a[0] = 2; return 0; }").unwrap();
        assert!(run_bounded(&hir, &[Value::Int(3)], 0).is_err());

        let hir = compile("def main(n) { return n; }").unwrap();
        assert!(run_bounded(&hir, &[], 0).is_err());
    }

    #[test]
    fn step_budget_aborts_runaway_runs() {
        let hir =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i; } return a; }")
                .unwrap();
        let err = run_bounded(&hir, &[Value::Int(100)], 5).unwrap_err();
        assert!(err.is_step_limit(), "{err}");
        assert_eq!(err, BaselineError::step_limit(5));
        // An unrelated error is not mistaken for the budget.
        let hir = compile("def main(n) { a = array(n); return a[0]; }").unwrap();
        let other = run_bounded(&hir, &[Value::Int(3)], 1000).unwrap_err();
        assert!(!other.is_step_limit());
        // Budget 0 means unlimited.
        let hir = compile("def main(n) { return n; }").unwrap();
        assert!(run_bounded(&hir, &[Value::Int(1)], 0).is_ok());
    }

    #[test]
    fn a_branch_binds_this_iterations_value() {
        let r = run(
            r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 {
                    if i == 0 { x = 10; } else { x = i; }
                    a[i] = x;
                }
                return a;
            }
            "#,
            &[Value::Int(4)],
        );
        assert_eq!(r.array("a").unwrap().to_f64(-1.0), [10.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn recurrence_nest_is_marked_serial() {
        let r = run(pods_workloads::RECURRENCE, &[Value::Int(32)]);
        assert_eq!(r.nests.len(), 2);
        assert!(r.nests[0].parallelizable);
        assert!(!r.nests[1].parallelizable);
    }

    #[test]
    fn float_ops_cost_more_than_int_ops() {
        let t = TimingModel::default();
        assert!(t.binary_op(BinaryOp::Add, true) > int_op_cost(&t));
    }
}
