//! The PODS Translator: HIR → Subcompact Process templates.
//!
//! Following §3 of the paper, the translator makes *each function* and *each
//! loop-nest level* a separate SP. Within an SP, instructions are ordered
//! sequentially according to their data dependencies (the structured HIR
//! already provides such an order) and driven by a program counter; the
//! switch operators of the dataflow graph become conditional branches, and
//! the loop circulation subgraph (initial value, increment, `D` test) becomes
//! a counted-loop skeleton whose bounds the partitioner can later wrap in
//! Range Filters.

use crate::instr::{Instr, Operand, SlotId, SpId};
use crate::template::{LoopMeta, SpKind, SpProgram, SpTemplate};
use pods_idlang::hir::collect_free_vars_stmts;
use pods_idlang::{BinaryOp, HirExpr, HirFunction, HirProgram, HirStmt, Name};
use std::collections::HashMap;
use std::sync::Arc;

/// Errors produced by the translator.
///
/// Programs that [`pods_idlang::compile`] accepts never trigger these, but
/// the translator still validates its inputs so that hand-constructed HIR is
/// diagnosed cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslateError {
    /// A variable was referenced but never bound in the enclosing SP.
    UndefinedVariable {
        /// The variable name.
        name: String,
        /// The SP being compiled.
        context: String,
    },
    /// A called function does not exist in the program.
    UnknownFunction {
        /// The callee name.
        name: String,
    },
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::UndefinedVariable { name, context } => {
                write!(f, "variable `{name}` is not defined in SP `{context}`")
            }
            TranslateError::UnknownFunction { name } => {
                write!(f, "function `{name}` is not defined")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translates an HIR program into SP templates.
///
/// # Errors
///
/// Returns a [`TranslateError`] for undefined variables or unknown callees
/// (normally prevented by semantic analysis).
pub fn translate(hir: &HirProgram) -> Result<SpProgram, TranslateError> {
    let mut translator = Translator {
        templates: Vec::new(),
        functions: HashMap::with_capacity(hir.functions.len()),
        temps: Vec::new(),
        loop_names: Vec::new(),
        scratch: Vec::new(),
        operands: Vec::with_capacity(16),
        free: Vec::new(),
    };
    // Pass 1: reserve an SpId per function so calls can be resolved while
    // bodies are being generated.
    for function in &hir.functions {
        let id = SpId(translator.templates.len());
        translator.functions.insert(function.name.clone(), id);
        translator.templates.push(placeholder(id, &function.name));
    }
    // Pass 2: generate the bodies (loop templates are appended on the fly).
    for function in &hir.functions {
        translator.build_function(function)?;
    }
    let entry = translator.functions.get("main").copied().unwrap_or(SpId(0));
    Ok(SpProgram::new(
        translator.templates,
        translator.functions,
        entry,
    ))
}

fn placeholder(id: SpId, name: &Name) -> SpTemplate {
    SpTemplate {
        id,
        name: name.clone(),
        kind: SpKind::Function { name: name.clone() },
        params: Vec::new(),
        num_slots: 0,
        slot_names: Vec::new(),
        code: Vec::new(),
        loop_meta: None,
        chunk_meta: None,
        plan: None,
    }
}

struct Translator {
    templates: Vec<SpTemplate>,
    functions: HashMap<Name, SpId>,
    /// The names of temporaries: `temps[n]` is `%t{n}`, shared by every
    /// template that has an `n`-th temporary.
    temps: Vec<Name>,
    /// The names a loop over each variable adds, shared by every loop over
    /// the same variable.
    loop_names: Vec<LoopNames>,
    /// The working buffers of templates not open right now. A loop template
    /// is built while its parent is open, so each nesting depth takes one
    /// from here and gives it back, capacity kept, when it finishes.
    scratch: Vec<Scratch>,
    /// The operands of the lists being compiled, innermost last: a list
    /// waits here until it is complete and is then copied out once, sized
    /// exactly.
    operands: Vec<Operand>,
    /// The free variables of the loop statement being compiled. They are
    /// copied into the loop's parameters before its body is compiled, so
    /// one list serves every nesting depth.
    free: Vec<Name>,
}

/// The names a loop over `var` adds to its template: the two bound
/// parameters, the effective limit and the continuation flag.
#[derive(Clone)]
struct LoopNames {
    var: Name,
    init: Name,
    limit: Name,
    limit_eff: Name,
    cont: Name,
}

/// The working buffers of one open template.
struct Scratch {
    code: Vec<Instr>,
    slot_names: Vec<Name>,
    env: HashMap<Name, SlotId>,
}

impl Scratch {
    /// Buffers with room for a typical template, so that most templates
    /// never regrow them.
    fn new() -> Self {
        Scratch {
            code: Vec::with_capacity(32),
            slot_names: Vec::with_capacity(32),
            env: HashMap::with_capacity(32),
        }
    }
}

impl Translator {
    fn build_function(&mut self, function: &HirFunction) -> Result<(), TranslateError> {
        let id = self.functions[&function.name];
        let mut builder = TemplateBuilder::new(
            self,
            id,
            function.name.clone(),
            SpKind::Function {
                name: function.name.clone(),
            },
            function.params.clone(),
            function.name.clone(),
        );
        let mut counter = 0usize;
        builder.compile_stmts(&function.body, self, &mut counter)?;
        // A function that falls off the end returns no value.
        if !matches!(builder.scratch.code.last(), Some(Instr::Return { .. })) {
            builder.scratch.code.push(Instr::Return { value: None });
        }
        self.templates[id.index()] = builder.finish(self);
        Ok(())
    }

    /// The template of the function called `name`.
    fn function(&self, name: &Name) -> Result<SpId, TranslateError> {
        self.functions
            .get(name)
            .copied()
            .ok_or_else(|| TranslateError::UnknownFunction {
                name: name.to_string(),
            })
    }

    /// Takes the operands above `mark` off the operand stack as one list,
    /// allocated at its exact length.
    fn take_operands(&mut self, mark: usize) -> Arc<[Operand]> {
        let list = Arc::from(&self.operands[mark..]);
        self.operands.truncate(mark);
        list
    }

    /// The name of the `n`-th temporary of a template.
    fn temp_name(&mut self, n: usize) -> Name {
        while self.temps.len() <= n {
            let next = Name::from_fmt(format_args!("%t{}", self.temps.len()));
            self.temps.push(next);
        }
        self.temps[n].clone()
    }

    /// The names a loop over `var` adds, made on the first loop over it.
    fn loop_names(&mut self, var: &Name) -> LoopNames {
        if let Some(names) = self.loop_names.iter().find(|names| names.var == *var) {
            return names.clone();
        }
        let names = LoopNames {
            var: var.clone(),
            init: Name::from_fmt(format_args!("{var}__init")),
            limit: Name::from_fmt(format_args!("{var}__limit")),
            limit_eff: Name::from_fmt(format_args!("{var}__limit_eff")),
            cont: Name::from_fmt(format_args!("{var}__continue")),
        };
        self.loop_names.push(names.clone());
        names
    }

    /// Builds a loop-level template over `names.var` and returns its id.
    /// `params` are the two bounds and then the free variables.
    #[allow(clippy::too_many_arguments)]
    fn build_loop(
        &mut self,
        function: &Name,
        ordinal: usize,
        depth: usize,
        names: LoopNames,
        descending: bool,
        params: Vec<Name>,
        body: &[HirStmt],
        counter: &mut usize,
    ) -> Result<SpId, TranslateError> {
        let id = SpId(self.templates.len());
        let var = &names.var;
        let name = Name::from_fmt(format_args!("{function}.loop{ordinal}.{var}"));
        self.templates.push(placeholder(id, &name));

        let mut builder = TemplateBuilder::new(
            self,
            id,
            name,
            SpKind::Loop {
                function: function.clone(),
                ordinal,
                var: var.clone(),
                descending,
                depth,
            },
            params,
            function.clone(),
        );

        let init_param = builder.scratch.env[&names.init];
        let limit_param = builder.scratch.env[&names.limit];
        let index_slot = builder.alloc_slot(var.clone());
        builder.scratch.env.insert(var.clone(), index_slot);
        let limit_slot = builder.alloc_slot(names.limit_eff);
        let cont_slot = builder.alloc_slot(names.cont);

        // Index circulation skeleton (Figure 2 / Figure 5 of the paper).
        let code = &mut builder.scratch.code;
        code.push(Instr::Move {
            dst: index_slot,
            src: Operand::Slot(init_param),
        });
        code.push(Instr::Move {
            dst: limit_slot,
            src: Operand::Slot(limit_param),
        });
        let test_pc = code.len();
        code.push(Instr::Binary {
            op: if descending {
                BinaryOp::Ge
            } else {
                BinaryOp::Le
            },
            dst: cont_slot,
            lhs: Operand::Slot(index_slot),
            rhs: Operand::Slot(limit_slot),
        });
        let exit_branch_pc = code.len();
        code.push(Instr::BranchIfFalse {
            cond: Operand::Slot(cont_slot),
            target: usize::MAX, // patched below
        });

        builder.loop_meta = Some(LoopMeta {
            init_param_slot: init_param,
            limit_param_slot: limit_param,
            index_slot,
            limit_slot,
            init_instr: 0,
            limit_init_instr: 1,
            test_instr: test_pc,
        });

        builder.compile_stmts(body, self, counter)?;

        // Increment (or decrement) and loop back to the test.
        let code = &mut builder.scratch.code;
        code.push(Instr::Binary {
            op: if descending {
                BinaryOp::Sub
            } else {
                BinaryOp::Add
            },
            dst: index_slot,
            lhs: Operand::Slot(index_slot),
            rhs: Operand::Int(1),
        });
        code.push(Instr::Jump { target: test_pc });
        let end_pc = code.len();
        code.push(Instr::Return { value: None });
        if let Instr::BranchIfFalse { target, .. } = &mut code[exit_branch_pc] {
            *target = end_pc;
        }

        self.templates[id.index()] = builder.finish(self);
        Ok(id)
    }
}

struct TemplateBuilder {
    id: SpId,
    name: Name,
    kind: SpKind,
    params: Vec<Name>,
    scratch: Scratch,
    loop_meta: Option<LoopMeta>,
    /// The function this template belongs to (for loop ordinals).
    function: Name,
    temp_counter: usize,
}

impl TemplateBuilder {
    /// Opens a template on a set of working buffers taken from `translator`;
    /// the parameters take the first slots.
    fn new(
        translator: &mut Translator,
        id: SpId,
        name: Name,
        kind: SpKind,
        params: Vec<Name>,
        function: Name,
    ) -> Self {
        let mut builder = TemplateBuilder {
            id,
            name,
            kind,
            params: Vec::new(),
            scratch: translator.scratch.pop().unwrap_or_else(Scratch::new),
            loop_meta: None,
            function,
            temp_counter: 0,
        };
        for p in &params {
            let slot = builder.alloc_slot(p.clone());
            builder.scratch.env.insert(p.clone(), slot);
        }
        builder.params = params;
        builder
    }

    fn alloc_slot(&mut self, name: Name) -> SlotId {
        let id = SlotId(self.scratch.slot_names.len());
        self.scratch.slot_names.push(name);
        id
    }

    fn temp(&mut self, translator: &mut Translator) -> SlotId {
        let name = translator.temp_name(self.temp_counter);
        self.temp_counter += 1;
        self.alloc_slot(name)
    }

    fn lookup(&self, name: &str) -> Result<SlotId, TranslateError> {
        self.scratch
            .env
            .get(name)
            .copied()
            .ok_or_else(|| TranslateError::UndefinedVariable {
                name: name.to_string(),
                context: self.name.to_string(),
            })
    }

    /// Closes the template: its code and slot names move out sized exactly,
    /// and the working buffers go back to `translator`.
    fn finish(mut self, translator: &mut Translator) -> SpTemplate {
        let slot_names: Vec<Name> = self.scratch.slot_names.drain(..).collect();
        let code: Vec<Instr> = self.scratch.code.drain(..).collect();
        self.scratch.env.clear();
        translator.scratch.push(self.scratch);
        SpTemplate {
            id: self.id,
            name: self.name,
            kind: self.kind,
            params: self.params,
            num_slots: slot_names.len(),
            slot_names,
            code,
            loop_meta: self.loop_meta,
            chunk_meta: None,
            plan: None,
        }
    }

    /// Compiles `exprs` into one operand list, allocated once at its exact
    /// length.
    fn compile_list(
        &mut self,
        exprs: &[HirExpr],
        translator: &mut Translator,
    ) -> Result<Arc<[Operand]>, TranslateError> {
        let mark = translator.operands.len();
        for expr in exprs {
            let op = self.compile_expr(expr, translator)?;
            translator.operands.push(op);
        }
        Ok(translator.take_operands(mark))
    }

    fn compile_stmts(
        &mut self,
        stmts: &[HirStmt],
        translator: &mut Translator,
        counter: &mut usize,
    ) -> Result<(), TranslateError> {
        for stmt in stmts {
            self.compile_stmt(stmt, translator, counter)?;
        }
        Ok(())
    }

    fn compile_stmt(
        &mut self,
        stmt: &HirStmt,
        translator: &mut Translator,
        counter: &mut usize,
    ) -> Result<(), TranslateError> {
        match stmt {
            HirStmt::Let { name, value } => {
                let src = self.compile_expr(value, translator)?;
                let dst = match self.scratch.env.get(name) {
                    Some(slot) => *slot,
                    None => {
                        let slot = self.alloc_slot(name.clone());
                        self.scratch.env.insert(name.clone(), slot);
                        slot
                    }
                };
                self.scratch.code.push(Instr::Move { dst, src });
            }
            HirStmt::Alloc { name, dims } => {
                let dims = self.compile_list(dims, translator)?;
                let dst = self.alloc_slot(name.clone());
                self.scratch.env.insert(name.clone(), dst);
                self.scratch.code.push(Instr::ArrayAlloc {
                    dst,
                    name: name.as_arc().clone(),
                    dims,
                    distributed: false,
                });
            }
            HirStmt::Store {
                array,
                indices,
                value,
            } => {
                let array = Operand::Slot(self.lookup(array)?);
                let indices = self.compile_list(indices, translator)?;
                let value = self.compile_expr(value, translator)?;
                self.scratch.code.push(Instr::ArrayStore {
                    array,
                    indices,
                    value,
                });
            }
            HirStmt::For {
                var,
                from,
                to,
                descending,
                body,
            } => {
                let ordinal = *counter;
                *counter += 1;
                let depth = match &self.kind {
                    SpKind::Loop { depth, .. } => depth + 1,
                    SpKind::Function { .. } => 0,
                };
                let from_op = self.compile_expr(from, translator)?;
                let to_op = self.compile_expr(to, translator)?;
                let free = &mut translator.free;
                free.clear();
                collect_free_vars_stmts(body, free);
                free.retain(|name| name != var);
                // Arguments: bounds first, then the free variables in order,
                // as the child's parameters name them.
                let names = translator.loop_names(var);
                let mut params = Vec::with_capacity(2 + translator.free.len());
                params.extend([names.init.clone(), names.limit.clone()]);
                params.extend(translator.free.iter().cloned());
                let mark = translator.operands.len();
                translator.operands.extend([from_op, to_op]);
                for name in &translator.free {
                    translator.operands.push(Operand::Slot(self.lookup(name)?));
                }
                let args = translator.take_operands(mark);
                let child = translator.build_loop(
                    &self.function,
                    ordinal,
                    depth,
                    names,
                    *descending,
                    params,
                    body,
                    counter,
                )?;
                self.scratch.code.push(Instr::Spawn {
                    target: child,
                    args,
                    distributed: false,
                    ret: None,
                });
            }
            HirStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond_op = self.compile_expr(cond, translator)?;
                let branch_pc = self.scratch.code.len();
                self.scratch.code.push(Instr::BranchIfFalse {
                    cond: cond_op,
                    target: usize::MAX,
                });
                self.compile_stmts(then_body, translator, counter)?;
                let jump_pc = self.scratch.code.len();
                self.scratch.code.push(Instr::Jump { target: usize::MAX });
                let else_start = self.scratch.code.len();
                self.compile_stmts(else_body, translator, counter)?;
                self.patch_branch(branch_pc, else_start, jump_pc);
            }
            HirStmt::Return { value } => {
                let op = self.compile_expr(value, translator)?;
                self.scratch.code.push(Instr::Return { value: Some(op) });
            }
            HirStmt::Call { function, args } => {
                let target = translator.function(function)?;
                let args = self.compile_list(args, translator)?;
                self.scratch.code.push(Instr::Spawn {
                    target,
                    args,
                    distributed: false,
                    ret: None,
                });
            }
        }
        Ok(())
    }

    /// Points the branch at `branch_pc` to `else_start` and the jump at
    /// `jump_pc` past the end of the code so far.
    fn patch_branch(&mut self, branch_pc: usize, else_start: usize, jump_pc: usize) {
        let end = self.scratch.code.len();
        if let Instr::BranchIfFalse { target, .. } = &mut self.scratch.code[branch_pc] {
            *target = else_start;
        }
        if let Instr::Jump { target } = &mut self.scratch.code[jump_pc] {
            *target = end;
        }
    }

    fn compile_expr(
        &mut self,
        expr: &HirExpr,
        translator: &mut Translator,
    ) -> Result<Operand, TranslateError> {
        Ok(match expr {
            HirExpr::Int(v) => Operand::Int(*v),
            HirExpr::Float(v) => Operand::Float(*v),
            HirExpr::Bool(v) => Operand::Bool(*v),
            HirExpr::Var(name) => Operand::Slot(self.lookup(name)?),
            HirExpr::Load { array, indices } => {
                let array = Operand::Slot(self.lookup(array)?);
                let indices = self.compile_list(indices, translator)?;
                let dst = self.temp(translator);
                self.scratch.code.push(Instr::ArrayLoad {
                    dst,
                    array,
                    indices,
                });
                Operand::Slot(dst)
            }
            HirExpr::Unary { op, operand } => {
                let src = self.compile_expr(operand, translator)?;
                let dst = self.temp(translator);
                self.scratch.code.push(Instr::Unary { op: *op, dst, src });
                Operand::Slot(dst)
            }
            HirExpr::Binary { op, lhs, rhs } => {
                let l = self.compile_expr(lhs, translator)?;
                let r = self.compile_expr(rhs, translator)?;
                let dst = self.temp(translator);
                self.scratch.code.push(Instr::Binary {
                    op: *op,
                    dst,
                    lhs: l,
                    rhs: r,
                });
                Operand::Slot(dst)
            }
            HirExpr::Call { function, args } => {
                let target = translator.function(function)?;
                let args = self.compile_list(args, translator)?;
                let dst = self.temp(translator);
                self.scratch.code.push(Instr::Spawn {
                    target,
                    args,
                    distributed: false,
                    ret: Some(dst),
                });
                Operand::Slot(dst)
            }
            HirExpr::Select {
                cond,
                then_value,
                else_value,
            } => {
                let cond_op = self.compile_expr(cond, translator)?;
                let dst = self.temp(translator);
                let branch_pc = self.scratch.code.len();
                self.scratch.code.push(Instr::BranchIfFalse {
                    cond: cond_op,
                    target: usize::MAX,
                });
                let t = self.compile_expr(then_value, translator)?;
                self.scratch.code.push(Instr::Move { dst, src: t });
                let jump_pc = self.scratch.code.len();
                self.scratch.code.push(Instr::Jump { target: usize::MAX });
                let else_start = self.scratch.code.len();
                let e = self.compile_expr(else_value, translator)?;
                self.scratch.code.push(Instr::Move { dst, src: e });
                self.patch_branch(branch_pc, else_start, jump_pc);
                Operand::Slot(dst)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pods_idlang::compile;

    const PAPER_EXAMPLE: &str = r#"
        def main() {
            a = matrix(50, 10);
            for i = 0 to 49 {
                for j = 0 to 9 {
                    a[i, j] = f(i, j);
                }
            }
            return a;
        }
        def f(i, j) { return i * 10 + j; }
    "#;

    fn translate_src(src: &str) -> SpProgram {
        translate(&compile(src).unwrap()).unwrap()
    }

    #[test]
    fn paper_example_yields_four_sps() {
        let program = translate_src(PAPER_EXAMPLE);
        // main, f, i-loop, j-loop.
        assert_eq!(program.len(), 4);
        assert!(program.validate().is_empty(), "{:?}", program.validate());
        assert_eq!(program.entry(), program.function("main").unwrap());
        let main = program.template(program.entry());
        assert!(matches!(main.kind, SpKind::Function { .. }));
        // main allocates the array and spawns the i-loop.
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::ArrayAlloc { .. })));
        assert_eq!(
            main.code
                .iter()
                .filter(|i| matches!(i, Instr::Spawn { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn loop_templates_have_circulation_skeleton_and_meta() {
        let program = translate_src(PAPER_EXAMPLE);
        let i_loop = program.loop_template("main", 0).unwrap();
        assert!(i_loop.is_loop());
        let meta = i_loop.loop_meta.unwrap();
        assert!(matches!(i_loop.code[meta.init_instr], Instr::Move { .. }));
        assert!(matches!(
            i_loop.code[meta.test_instr],
            Instr::Binary {
                op: BinaryOp::Le,
                ..
            }
        ));
        // The i-loop spawns the j-loop once per iteration.
        assert_eq!(
            i_loop
                .code
                .iter()
                .filter(|i| matches!(i, Instr::Spawn { .. }))
                .count(),
            1
        );
        let j_loop = program.loop_template("main", 1).unwrap();
        // The j-loop calls f and stores into a.
        assert!(j_loop
            .code
            .iter()
            .any(|i| matches!(i, Instr::Spawn { ret: Some(_), .. })));
        assert!(j_loop
            .code
            .iter()
            .any(|i| matches!(i, Instr::ArrayStore { .. })));
    }

    #[test]
    fn loop_bounds_and_free_vars_become_parameters() {
        let program = translate_src(PAPER_EXAMPLE);
        let i_loop = program.loop_template("main", 0).unwrap();
        assert_eq!(i_loop.params[0], "i__init");
        assert_eq!(i_loop.params[1], "i__limit");
        assert!(i_loop.params.iter().any(|p| p == "a"));
        let j_loop = program.loop_template("main", 1).unwrap();
        assert!(j_loop.params.iter().any(|p| p == "a"));
        assert!(j_loop.params.iter().any(|p| p == "i"));
    }

    #[test]
    fn descending_loops_use_ge_and_subtract() {
        let program = translate_src(
            "def main(n, b) { a = array(n); for i = n - 1 downto 0 { a[i] = b[i]; } return a; }",
        );
        let t = program.loop_template("main", 0).unwrap();
        let meta = t.loop_meta.unwrap();
        assert!(matches!(
            t.code[meta.test_instr],
            Instr::Binary {
                op: BinaryOp::Ge,
                ..
            }
        ));
        assert!(t.code.iter().any(|i| matches!(
            i,
            Instr::Binary {
                op: BinaryOp::Sub,
                rhs: Operand::Int(1),
                ..
            }
        )));
    }

    #[test]
    fn conditionals_and_selects_backpatch_targets() {
        let program = translate_src(
            r#"
            def main(c) {
                y = if c > 0 then 1 else 2;
                if y == 1 { z = 10; } else { z = 20; }
                return z;
            }
        "#,
        );
        assert!(program.validate().is_empty(), "{:?}", program.validate());
        let main = program.template(program.entry());
        // No unpatched placeholder targets remain.
        for instr in &main.code {
            if let Instr::Jump { target } | Instr::BranchIfFalse { target, .. } = instr {
                assert!(*target <= main.code.len());
            }
        }
    }

    #[test]
    fn call_statements_spawn_without_return_slot() {
        let program = translate_src(
            r#"
            def main(n) {
                a = array(n);
                fill(a, n);
                return a;
            }
            def fill(arr, n) {
                for i = 0 to n - 1 { arr[i] = i; }
                return 0;
            }
        "#,
        );
        let main = program.template(program.entry());
        let spawns: Vec<&Instr> = main
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Spawn { .. }))
            .collect();
        assert_eq!(spawns.len(), 1);
        assert!(matches!(spawns[0], Instr::Spawn { ret: None, .. }));
        assert!(program.validate().is_empty());
    }

    #[test]
    fn loop_ordinals_match_analysis_numbering() {
        let src = r#"
            def main(n) {
                a = array(n);
                b = array(n);
                for i = 0 to n - 1 { a[i] = i; }
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { b[j] = i + j; }
                }
                return b;
            }
        "#;
        let hir = compile(src).unwrap();
        let program = translate(&hir).unwrap();
        let infos = pods_idlang::analyze_loops(&hir);
        for info in &infos {
            let t = program
                .loop_template(&info.key.function, info.key.ordinal)
                .unwrap_or_else(|| panic!("no template for {}", info.key));
            if let SpKind::Loop { var, .. } = &t.kind {
                assert_eq!(var, &info.var, "ordinal mismatch for {}", info.key);
            }
        }
    }

    #[test]
    fn undefined_names_are_reported() {
        // Hand-built HIR with an undefined variable (sema would reject the
        // source form, so construct the HIR directly).
        use pods_idlang::{HirFunction, HirProgram};
        let hir = HirProgram {
            functions: vec![HirFunction {
                name: "main".into(),
                params: vec![],
                body: vec![HirStmt::Return {
                    value: HirExpr::Var("ghost".into()),
                }],
            }],
        };
        assert!(matches!(
            translate(&hir),
            Err(TranslateError::UndefinedVariable { .. })
        ));
        let hir = HirProgram {
            functions: vec![HirFunction {
                name: "main".into(),
                params: vec![],
                body: vec![HirStmt::Call {
                    function: "nope".into(),
                    args: vec![],
                }],
            }],
        };
        assert!(matches!(
            translate(&hir),
            Err(TranslateError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn programs_without_main_use_first_function_as_entry() {
        let program = translate_src("def helper(x) { return x + 1; }");
        assert_eq!(program.entry(), SpId(0));
    }
}
