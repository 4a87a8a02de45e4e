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

use pods_idlang::hir::walk;
use pods_idlang::{
    analyze_loops, find_loop, HirExpr, HirFunction, HirNode, HirProgram, HirStmt, LoopInfo,
    LoopKey, Name, UnaryOp,
};
use pods_istructure::{ArrayId, ArrayShape, Value};
use pods_machine::{eval_binary, eval_unary, TimingModel};
use std::collections::HashMap;

/// Errors produced by the sequential interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// A run-time failure of the interpreted program (missing `main`,
    /// reads of never-written elements, out-of-bounds accesses,
    /// single-assignment violations, …).
    Runtime(String),
    /// The statement budget of [`run_sequential_bounded`] was exhausted
    /// (carries the configured limit).
    StepLimit(u64),
}

impl BaselineError {
    /// The error raised when [`run_sequential_bounded`]'s statement budget
    /// is exhausted.
    pub fn step_limit(limit: u64) -> BaselineError {
        BaselineError::StepLimit(limit)
    }

    /// Whether this error is the statement-budget exhaustion of
    /// [`run_sequential_bounded`] (so callers can map it onto their own
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
/// # Errors
///
/// Returns a [`BaselineError`] on missing `main`, argument mismatch, reads
/// of never-written elements, out-of-bounds accesses, or single-assignment
/// violations.
pub fn run_sequential(
    hir: &HirProgram,
    args: &[Value],
    timing: &TimingModel,
) -> Result<SequentialRun, BaselineError> {
    run_sequential_bounded(hir, args, timing, 0)
}

/// [`run_sequential`] with a safety budget: the run aborts with
/// [`BaselineError::step_limit`] after `max_steps` interpreted statements
/// (0 = unlimited). This is the sequential analogue of the simulator's
/// event limit and the native engine's task limit, so runaway programs are
/// caught on every engine.
///
/// # Errors
///
/// Everything [`run_sequential`] reports, plus the step-limit error.
pub fn run_sequential_bounded(
    hir: &HirProgram,
    args: &[Value],
    timing: &TimingModel,
    max_steps: u64,
) -> Result<SequentialRun, BaselineError> {
    let loops = analyze_loops(hir);
    let mut interp = Interp {
        hir,
        timing,
        loops: &loops,
        arrays: Vec::new(),
        time: 0.0,
        nests: HashMap::new(),
        nest_stack: Vec::new(),
        serial_us: 0.0,
        depth: 0,
        steps: 0,
        max_steps,
    };
    let entry = hir
        .entry()
        .ok_or_else(|| BaselineError::Runtime("program has no `main` function".into()))?;
    if entry.params.len() != args.len() {
        return Err(BaselineError::Runtime(format!(
            "`main` takes {} argument(s), {} supplied",
            entry.params.len(),
            args.len()
        )));
    }
    let return_value = interp.call(entry, args.to_vec())?;

    let mut nests: Vec<NestProfile> = interp.nests.into_values().collect();
    nests.sort_by(|a, b| {
        (a.key.function.clone(), a.key.ordinal).cmp(&(b.key.function.clone(), b.key.ordinal))
    });
    let nest_time: f64 = nests.iter().map(|n| n.time_us).sum();
    interp.serial_us = (interp.time - nest_time).max(0.0);
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
        serial_us: interp.serial_us,
    })
}

struct ArrayState {
    name: Name,
    shape: ArrayShape,
    values: Vec<Option<Value>>,
}

struct Interp<'a> {
    hir: &'a HirProgram,
    timing: &'a TimingModel,
    loops: &'a [LoopInfo],
    arrays: Vec<ArrayState>,
    time: f64,
    nests: HashMap<(String, usize), NestProfile>,
    /// Stack of top-level nests currently being executed (function name,
    /// ordinal, entry time).
    nest_stack: Vec<(String, usize, f64)>,
    serial_us: f64,
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

impl<'a> Interp<'a> {
    fn charge(&mut self, us: f64) {
        self.time += us;
    }

    fn current_nest(&mut self) -> Option<&mut NestProfile> {
        let (function, ordinal, _) = self.nest_stack.last()?.clone();
        self.nests.get_mut(&(function, ordinal))
    }

    fn call(
        &mut self,
        function: &HirFunction,
        args: Vec<Value>,
    ) -> Result<Option<Value>, BaselineError> {
        if self.depth > 256 {
            return Err(BaselineError::Runtime("call depth exceeded".into()));
        }
        self.depth += 1;
        // Call overhead: argument moves plus the call/return pair.
        self.charge(
            2.0 * self.timing.context_switch + args.len() as f64 * self.timing.memory_write,
        );
        let mut env: HashMap<Name, Value> = HashMap::new();
        for (p, v) in function.params.iter().zip(args) {
            env.insert(p.clone(), v);
        }
        let flow = self.exec_block(&function.name, &function.body, &mut env)?;
        self.depth -= 1;
        Ok(match flow {
            Flow::Return(v) => Some(v),
            Flow::Normal => None,
        })
    }

    fn function(&self, name: &str) -> Result<&'a HirFunction, BaselineError> {
        self.hir
            .function(name)
            .ok_or_else(|| BaselineError::Runtime(format!("unknown function `{name}`")))
    }

    fn exec_block(
        &mut self,
        function: &str,
        stmts: &[HirStmt],
        env: &mut HashMap<Name, Value>,
    ) -> Result<Flow, BaselineError> {
        let mut loop_ordinal_iter = OrdinalTracker::at(0);
        for stmt in stmts {
            match self.exec_stmt(function, stmt, env, &mut loop_ordinal_iter)? {
                Flow::Normal => {}
                Flow::Return(v) => return Ok(Flow::Return(v)),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        function: &str,
        stmt: &HirStmt,
        env: &mut HashMap<Name, Value>,
        ordinals: &mut OrdinalTracker,
    ) -> Result<Flow, BaselineError> {
        self.steps += 1;
        if self.max_steps > 0 && self.steps > self.max_steps {
            return Err(BaselineError::step_limit(self.max_steps));
        }
        match stmt {
            HirStmt::Let { name, value } => {
                let v = self.eval(function, value, env)?;
                self.charge(self.timing.memory_write);
                env.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            HirStmt::Alloc { name, dims } => {
                let mut extents = Vec::new();
                for d in dims {
                    let v = self.eval(function, d, env)?;
                    let n = v.as_i64().filter(|&n| n > 0).ok_or_else(|| {
                        BaselineError::Runtime(format!("bad dimension for `{name}`"))
                    })?;
                    extents.push(n as usize);
                }
                let shape = ArrayShape::new(extents);
                // malloc-style allocation cost.
                self.charge(self.timing.array_allocate);
                let id = ArrayId(self.arrays.len());
                self.arrays.push(ArrayState {
                    name: name.clone(),
                    shape: shape.clone(),
                    values: vec![None; shape.len()],
                });
                env.insert(name.clone(), Value::ArrayRef(id));
                Ok(Flow::Normal)
            }
            HirStmt::Store {
                array,
                indices,
                value,
            } => {
                let v = self.eval(function, value, env)?;
                let offset = self.element_offset(function, array, indices, env)?;
                let id = self.array_id(array, env)?;
                self.charge(self.timing.memory_write);
                if let Some(nest) = self.current_nest() {
                    nest.element_writes += 1;
                }
                let cell = &mut self.arrays[id.index()].values[offset];
                if cell.is_some() {
                    return Err(BaselineError::Runtime(format!(
                        "single-assignment violation on `{array}`"
                    )));
                }
                *cell = Some(v);
                Ok(Flow::Normal)
            }
            HirStmt::For {
                var,
                from,
                to,
                descending,
                body,
            } => {
                let ordinal = ordinals.next_for_this_loop();
                let top_level = find_loop(self.loops, function, ordinal).filter(|l| l.depth == 0);
                if let Some(info) = top_level {
                    let parallelizable = info.is_distributable();
                    self.nests
                        .entry((function.to_string(), ordinal))
                        .or_insert_with(|| NestProfile {
                            key: LoopKey {
                                function: Name::from(function),
                                ordinal,
                            },
                            time_us: 0.0,
                            element_reads: 0,
                            element_writes: 0,
                            parallelizable,
                        });
                    self.nest_stack
                        .push((function.to_string(), ordinal, self.time));
                }

                let from_v = self
                    .eval(function, from, env)?
                    .as_i64()
                    .ok_or_else(|| BaselineError::Runtime("non-integer loop bound".into()))?;
                let to_v = self
                    .eval(function, to, env)?
                    .as_i64()
                    .ok_or_else(|| BaselineError::Runtime("non-integer loop bound".into()))?;
                let mut i = from_v;
                loop {
                    let done = if *descending { i < to_v } else { i > to_v };
                    // Loop control: compare, branch, increment.
                    self.charge(3.0 * self.timing.int_alu);
                    if done {
                        break;
                    }
                    env.insert(var.clone(), Value::Int(i));
                    let mut inner_ordinals = OrdinalTracker::at(ordinals.next_counter);
                    for stmt in body {
                        match self.exec_stmt(function, stmt, env, &mut inner_ordinals)? {
                            Flow::Normal => {}
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                        }
                    }
                    ordinals.next_counter = inner_ordinals.next_counter;
                    i += if *descending { -1 } else { 1 };
                }
                env.remove(var.as_str());

                if top_level.is_some() {
                    if let Some((f, o, start)) = self.nest_stack.pop() {
                        let elapsed = self.time - start;
                        if let Some(nest) = self.nests.get_mut(&(f, o)) {
                            nest.time_us += elapsed;
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            HirStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self
                    .eval(function, cond, env)?
                    .as_bool()
                    .ok_or_else(|| BaselineError::Runtime("non-boolean condition".into()))?;
                self.charge(self.timing.int_alu);
                // Preorder loop numbering: the then-branch loops come first,
                // then the else-branch loops, regardless of which branch is
                // taken.
                let then_start = ordinals.next_counter;
                let else_start = then_start + OrdinalTracker::count_loops(then_body);
                let after = else_start + OrdinalTracker::count_loops(else_body);
                let (body, start) = if c {
                    (then_body, then_start)
                } else {
                    (else_body, else_start)
                };
                let mut env2 = env.clone();
                let mut inner = OrdinalTracker::at(start);
                let mut flow = Flow::Normal;
                for stmt in body {
                    match self.exec_stmt(function, stmt, &mut env2, &mut inner)? {
                        Flow::Normal => {}
                        Flow::Return(v) => {
                            flow = Flow::Return(v);
                            break;
                        }
                    }
                }
                ordinals.next_counter = after;
                for (k, v) in env2 {
                    env.entry(k).or_insert(v);
                }
                Ok(flow)
            }
            HirStmt::Return { value } => {
                let v = self.eval(function, value, env)?;
                Ok(Flow::Return(v))
            }
            HirStmt::Call {
                function: callee,
                args,
            } => {
                let mut arg_values = Vec::new();
                for a in args {
                    arg_values.push(self.eval(function, a, env)?);
                }
                let f = self.function(callee)?;
                self.call(f, arg_values)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn array_id(&self, name: &str, env: &HashMap<Name, Value>) -> Result<ArrayId, BaselineError> {
        match env.get(name) {
            Some(Value::ArrayRef(id)) => Ok(*id),
            _ => Err(BaselineError::Runtime(format!("`{name}` is not an array"))),
        }
    }

    fn element_offset(
        &mut self,
        function: &str,
        array: &str,
        indices: &[HirExpr],
        env: &mut HashMap<Name, Value>,
    ) -> Result<usize, BaselineError> {
        let mut idx = Vec::new();
        for e in indices {
            let v = self.eval(function, e, env)?;
            idx.push(v.as_i64().unwrap_or(-1));
        }
        let id = self.array_id(array, env)?;
        // Address arithmetic: one multiply and add per dimension.
        self.charge(indices.len() as f64 * (self.timing.int_mul + self.timing.int_alu));
        self.arrays[id.index()]
            .shape
            .offset_of(&idx)
            .ok_or_else(|| {
                BaselineError::Runtime(format!(
                    "index {idx:?} out of bounds for `{array}` ({})",
                    self.arrays[id.index()].shape
                ))
            })
    }

    fn eval(
        &mut self,
        function: &str,
        expr: &HirExpr,
        env: &mut HashMap<Name, Value>,
    ) -> Result<Value, BaselineError> {
        Ok(match expr {
            HirExpr::Int(v) => Value::Int(*v),
            HirExpr::Float(v) => Value::Float(*v),
            HirExpr::Bool(v) => Value::Bool(*v),
            HirExpr::Var(name) => *env
                .get(name.as_str())
                .ok_or_else(|| BaselineError::Runtime(format!("unknown variable `{name}`")))?,
            HirExpr::Load { array, indices } => {
                let offset = self.element_offset(function, array, indices, env)?;
                let id = self.array_id(array, env)?;
                self.charge(self.timing.memory_read);
                if let Some(nest) = self.current_nest() {
                    nest.element_reads += 1;
                }
                self.arrays[id.index()].values[offset].ok_or_else(|| {
                    BaselineError::Runtime(format!(
                        "element {offset} of `{array}` read before being written"
                    ))
                })?
            }
            HirExpr::Unary { op, operand } => {
                let v = self.eval(function, operand, env)?;
                self.charge(
                    self.timing
                        .unary_op(*op, v.is_float() || float_producing(*op)),
                );
                eval_unary(*op, v).map_err(|e| BaselineError::Runtime(e.to_string()))?
            }
            HirExpr::Binary { op, lhs, rhs } => {
                let a = self.eval(function, lhs, env)?;
                let b = self.eval(function, rhs, env)?;
                self.charge(self.timing.binary_op(*op, a.is_float() || b.is_float()));
                eval_binary(*op, a, b).map_err(|e| BaselineError::Runtime(e.to_string()))?
            }
            HirExpr::Call {
                function: callee,
                args,
            } => {
                let mut arg_values = Vec::new();
                for a in args {
                    arg_values.push(self.eval(function, a, env)?);
                }
                let f = self.function(callee)?;
                self.call(f, arg_values)?.ok_or_else(|| {
                    BaselineError::Runtime(format!("`{callee}` returned no value"))
                })?
            }
            HirExpr::Select {
                cond,
                then_value,
                else_value,
            } => {
                let c = self
                    .eval(function, cond, env)?
                    .as_bool()
                    .ok_or_else(|| BaselineError::Runtime("non-boolean condition".into()))?;
                self.charge(self.timing.int_alu);
                if c {
                    self.eval(function, then_value, env)?
                } else {
                    self.eval(function, else_value, env)?
                }
            }
        })
    }
}

/// Whether a unary operator produces a float regardless of its operand type
/// (used only for cost estimation).
fn float_producing(op: UnaryOp) -> bool {
    matches!(
        op,
        UnaryOp::Sqrt | UnaryOp::Exp | UnaryOp::Ln | UnaryOp::Sin | UnaryOp::Cos
    )
}

/// Tracks preorder loop ordinals during interpretation so that profiles can
/// be matched with the static loop analysis (which numbers loops the same
/// way).
struct OrdinalTracker {
    next_counter: usize,
}

impl OrdinalTracker {
    fn at(counter: usize) -> Self {
        OrdinalTracker {
            next_counter: counter,
        }
    }

    fn next_for_this_loop(&mut self) -> usize {
        let o = self.next_counter;
        self.next_counter += 1;
        o
    }

    /// Number of loops (recursively) contained in a statement list,
    /// matching the preorder numbering of the loop analysis.
    fn count_loops(stmts: &[HirStmt]) -> usize {
        let mut loops = 0;
        walk(stmts, &mut |node| {
            loops += usize::from(matches!(node, HirNode::Stmt(HirStmt::For { .. })));
        });
        loops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pods_idlang::{compile, BinaryOp};

    /// A check against the cost-free semantics: binary ops over ints never
    /// charge float times.
    fn int_op_cost(timing: &TimingModel) -> f64 {
        timing.binary_op(BinaryOp::Add, false)
    }

    fn run(src: &str, args: &[Value]) -> SequentialRun {
        run_sequential(&compile(src).unwrap(), args, &TimingModel::default()).unwrap()
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
        let err = run_sequential(&hir, &[Value::Int(3)], &TimingModel::default()).unwrap_err();
        assert!(err.to_string().contains("read before"));

        let hir = compile("def main(n) { a = array(n); a[0] = 1; a[0] = 2; return 0; }").unwrap();
        assert!(run_sequential(&hir, &[Value::Int(3)], &TimingModel::default()).is_err());

        let hir = compile("def main(n) { return n; }").unwrap();
        assert!(run_sequential(&hir, &[], &TimingModel::default()).is_err());
    }

    #[test]
    fn step_budget_aborts_runaway_runs() {
        let hir =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i; } return a; }")
                .unwrap();
        let err = run_sequential_bounded(&hir, &[Value::Int(100)], &TimingModel::default(), 5)
            .unwrap_err();
        assert!(err.is_step_limit(), "{err}");
        assert_eq!(err, BaselineError::step_limit(5));
        // An unrelated error is not mistaken for the budget.
        let hir = compile("def main(n) { a = array(n); return a[0]; }").unwrap();
        let other = run_sequential_bounded(&hir, &[Value::Int(3)], &TimingModel::default(), 1000)
            .unwrap_err();
        assert!(!other.is_step_limit());
        // Budget 0 means unlimited.
        let hir = compile("def main(n) { return n; }").unwrap();
        assert!(run_sequential_bounded(&hir, &[Value::Int(1)], &TimingModel::default(), 0).is_ok());
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
