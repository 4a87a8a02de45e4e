//! Semantic analysis for `idlang`.
//!
//! The checks reflect the declarative, single-assignment nature of the
//! language (paper §2):
//!
//! * every variable must be defined before use,
//! * a scalar name may be bound at most once in a scope (single assignment),
//! * loop variables and parameters cannot be re-bound,
//! * array element writes must target allocated arrays (or array parameters)
//!   with the correct number of indices,
//! * called functions must exist with matching arity, and a built-in is
//!   called with its own arity.
//!
//! Note that *element-level* single assignment (writing the same array
//! element twice) is a run-time property enforced by the I-structure memory;
//! the static checks here only cover what is decidable from the program text.
//!
//! The checks walk the HIR the parser built, and find each diagnostic's
//! span in the [`Spans`] beside it, by the id of the node it reports.
//! Every function is checked against one scope table, which a loop body or
//! a branch changes and then undoes, so a check allocates per program, not
//! per scope.

use crate::error::CompileError;
use crate::hir::{
    is_builtin, ExprId, HirExpr, HirFunction, HirProgram, HirStmt, List, StmtId, BINARY_BUILTINS,
};
use crate::parser::Spans;
use crate::token::Span;
use std::collections::HashMap;

/// What a name refers to inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symbol {
    /// A function parameter (may carry a scalar or an array reference).
    Param,
    /// A scalar bound by a `let`.
    Scalar,
    /// An array allocated in this function, with its dimensionality.
    Array(usize),
    /// A loop index variable currently in scope.
    LoopVar,
}

/// Checks a parsed program against the spans the parser recorded beside
/// it; returns the list of all semantic errors found, in walk order.
///
/// An empty list means the program is valid.
pub(crate) fn analyze(program: &HirProgram, spans: &Spans) -> Vec<CompileError> {
    let mut errors = Vec::new();
    let mut signatures: HashMap<&str, usize> = HashMap::new();
    for (index, f) in program.functions.iter().enumerate() {
        let def = Some(spans.function(index));
        if signatures.insert(&f.name, f.params.len()).is_some() {
            errors.push(CompileError::sema(
                format!("function `{}` is defined more than once", f.name),
                def,
            ));
        }
        if is_builtin(&f.name) {
            errors.push(CompileError::sema(
                format!("function `{}` shadows a builtin", f.name),
                def,
            ));
        }
    }
    let mut checker = Checker {
        hir: program,
        spans,
        signatures: &signatures,
        errors: &mut errors,
        scope: HashMap::new(),
        log: Vec::new(),
        kept: Vec::new(),
    };
    for (index, f) in program.functions.iter().enumerate() {
        checker.check_function(f, spans.function(index));
    }
    errors
}

struct Checker<'a> {
    hir: &'a HirProgram,
    spans: &'a Spans,
    signatures: &'a HashMap<&'a str, usize>,
    errors: &'a mut Vec<CompileError>,
    /// The names visible at the point of the walk, borrowed from the HIR.
    scope: HashMap<&'a str, Symbol>,
    /// Every binding made in `scope` since the function's parameters, with
    /// the symbol it replaced: leaving a loop body or a branch undoes its
    /// bindings from here.
    log: Vec<(&'a str, Option<Symbol>)>,
    /// The bindings of the `then` arms of the open `if` statements,
    /// innermost last, set aside while their `else` arms are checked.
    kept: Vec<(&'a str, Symbol)>,
}

impl<'a> Checker<'a> {
    fn error(&mut self, message: String, span: Span) {
        self.errors.push(CompileError::sema(message, Some(span)));
    }

    fn check_function(&mut self, f: &'a HirFunction, def: Span) {
        self.scope.clear();
        self.log.clear();
        for p in &f.params {
            if self.scope.insert(p, Symbol::Param).is_some() {
                self.error(format!("parameter `{p}` of `{}` is repeated", f.name), def);
            }
        }
        self.check_block(f.body);
    }

    fn check_block(&mut self, stmts: List<StmtId>) {
        for id in self.hir.stmts(stmts) {
            self.check_stmt(id);
        }
    }

    /// Binds `name` to `sym`, noting the binding in the log.
    fn insert(&mut self, name: &'a str, sym: Symbol) {
        let replaced = self.scope.insert(name, sym);
        self.log.push((name, replaced));
    }

    /// Undoes the bindings logged since `mark`, latest first.
    fn undo_to(&mut self, mark: usize) {
        while self.log.len() > mark {
            let (name, replaced) = self.log.pop().expect("above the mark");
            match replaced {
                Some(sym) => self.scope.insert(name, sym),
                None => self.scope.remove(name),
            };
        }
    }

    fn bind(&mut self, name: &'a str, sym: Symbol, span: Span) {
        let message = match self.scope.get(name) {
            Some(Symbol::Param) => {
                format!("`{name}` re-binds a function parameter (single assignment)")
            }
            Some(Symbol::LoopVar) => {
                format!("`{name}` re-binds a loop index variable (single assignment)")
            }
            Some(_) => format!("`{name}` is bound more than once (single assignment)"),
            None => {
                self.insert(name, sym);
                return;
            }
        };
        self.error(message, span);
    }

    /// Checks that `array` names an array that takes `indices` indices;
    /// `access` is "read" or "written".
    fn check_indexing(&mut self, array: &str, indices: usize, access: &str, span: Span) {
        let message = match self.scope.get(array) {
            None => format!("array `{array}` is not defined"),
            Some(Symbol::Scalar) | Some(Symbol::LoopVar) => {
                format!("`{array}` is not an array and cannot be indexed")
            }
            Some(&Symbol::Array(ndims)) if ndims != indices => format!(
                "array `{array}` has {ndims} dimension(s) but is {access} with {indices} indices"
            ),
            // Arrays received as parameters have unknown rank; the run-time
            // bounds check covers them.
            Some(_) => return,
        };
        self.error(message, span);
    }

    /// Checks that `function` is defined and takes `args` arguments.
    fn check_call(&mut self, function: &str, args: usize, span: Span) {
        let message = match self.signatures.get(function) {
            None => format!("function `{function}` is not defined"),
            Some(&arity) if arity != args => {
                format!("function `{function}` takes {arity} argument(s), found {args}")
            }
            Some(_) => return,
        };
        self.error(message, span);
    }

    fn check_exprs(&mut self, exprs: List<ExprId>) {
        for id in self.hir.exprs(exprs) {
            self.check_expr(id);
        }
    }

    fn check_stmt(&mut self, id: StmtId) {
        let span = self.spans.stmt(id);
        match self.hir.stmt(id) {
            HirStmt::Let { name, value } => {
                self.check_expr(*value);
                self.bind(name, Symbol::Scalar, span);
            }
            HirStmt::Alloc { name, dims } => {
                self.check_exprs(*dims);
                self.bind(name, Symbol::Array(dims.len()), span);
            }
            HirStmt::Store {
                array,
                indices,
                value,
            } => {
                self.check_exprs(*indices);
                self.check_expr(*value);
                self.check_indexing(array, indices.len(), "written", span);
            }
            HirStmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                self.check_expr(*from);
                self.check_expr(*to);
                if self.scope.contains_key(var.as_str()) {
                    self.error(
                        format!("loop variable `{var}` shadows an existing binding"),
                        span,
                    );
                }
                let mark = self.log.len();
                self.insert(var, Symbol::LoopVar);
                self.check_block(*body);
                self.undo_to(mark);
            }
            HirStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.check_expr(*cond);
                let mark = self.log.len();
                self.check_block(*then_body);
                let kept = self.kept.len();
                for at in mark..self.log.len() {
                    let name = self.log[at].0;
                    self.kept.push((name, self.scope[name]));
                }
                self.undo_to(mark);
                self.check_block(*else_body);
                // Names bound in either branch become visible afterwards so
                // that `if c { z = 1; } else { z = 2; } return z;` works; a
                // name bound in both keeps the `then` arm's symbol.
                while self.kept.len() > kept {
                    let (name, sym) = self.kept.pop().expect("above the mark");
                    self.insert(name, sym);
                }
            }
            HirStmt::Return { value } => self.check_expr(*value),
            HirStmt::Call { function, args } => {
                self.check_exprs(*args);
                self.check_call(function, args.len(), span);
            }
        }
    }

    fn check_expr(&mut self, id: ExprId) {
        match self.hir.expr(id) {
            HirExpr::Int(..) | HirExpr::Float(..) | HirExpr::Bool(..) => {}
            HirExpr::Var(name) => {
                if !self.scope.contains_key(name.as_str()) {
                    let span = self.spans.expr(id);
                    self.error(format!("variable `{name}` is not defined"), span);
                }
            }
            HirExpr::Load { array, indices } => {
                self.check_exprs(*indices);
                let span = self.spans.expr(id);
                self.check_indexing(array, indices.len(), "read", span);
            }
            HirExpr::Unary { operand, .. } => self.check_expr(*operand),
            HirExpr::Binary { lhs, rhs, .. } => {
                self.check_expr(*lhs);
                self.check_expr(*rhs);
            }
            HirExpr::Call { function, args } => {
                self.check_exprs(*args);
                let span = self.spans.expr(id);
                if !is_builtin(function) {
                    self.check_call(function, args.len(), span);
                } else if BINARY_BUILTINS.iter().any(|(n, _)| n == function) {
                    // The parser made every call of a built-in with the
                    // right arity its operator.
                    let message = format!(
                        "builtin `{function}` takes 2 arguments, found {}",
                        args.len()
                    );
                    self.error(message, span);
                } else {
                    let message = format!(
                        "builtin `{function}` takes 1 argument, found {}",
                        args.len()
                    );
                    self.error(message, span);
                }
            }
            HirExpr::Select {
                cond,
                then_value,
                else_value,
            } => {
                self.check_expr(*cond);
                self.check_expr(*then_value);
                self.check_expr(*else_value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn errors_of(src: &str) -> Vec<String> {
        let (program, spans) = parse(src).unwrap();
        analyze(&program, &spans)
            .into_iter()
            .map(|e| e.message)
            .collect()
    }

    #[test]
    fn accepts_valid_programs() {
        let src = r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 {
                        a[i, j] = work(i, j);
                    }
                }
                return a;
            }
            def work(i, j) {
                s = i + j;
                return if s > 10 then sqrt(s) else s;
            }
        "#;
        assert!(errors_of(src).is_empty());
    }

    #[test]
    fn rejects_undefined_variables_and_functions() {
        let errs = errors_of("def main() { x = y + 1; return g(x); }");
        assert!(errs.iter().any(|m| m.contains("`y` is not defined")));
        assert!(errs.iter().any(|m| m.contains("`g` is not defined")));
    }

    #[test]
    fn rejects_double_binding() {
        let errs = errors_of("def main() { x = 1; x = 2; return x; }");
        assert!(errs.iter().any(|m| m.contains("bound more than once")));
    }

    #[test]
    fn rejects_rebinding_params_and_loop_vars() {
        let errs = errors_of("def main(n) { n = 2; return n; }");
        assert!(errs
            .iter()
            .any(|m| m.contains("re-binds a function parameter")));
        let errs = errors_of("def main() { for i = 0 to 3 { i = 5; } return 0; }");
        assert!(errs.iter().any(|m| m.contains("re-binds a loop index")));
        let errs = errors_of("def main(i) { for i = 0 to 3 { x = i; } return 0; }");
        assert!(errs
            .iter()
            .any(|m| m.contains("shadows an existing binding")));
    }

    #[test]
    fn branch_bindings_are_visible_after_the_if() {
        let src = "def main(c) { if c > 0 { z = 1; } else { z = 2; } return z; }";
        assert!(errors_of(src).is_empty());
    }

    #[test]
    fn rejects_indexing_mismatches() {
        let errs = errors_of("def main() { a = matrix(2, 2); a[1] = 0; return a[0, 0, 0]; }");
        assert!(errs.iter().any(|m| m.contains("written with 1 indices")));
        assert!(errs.iter().any(|m| m.contains("read with 3 indices")));
        let errs = errors_of("def main() { x = 1; x[0] = 2; return x; }");
        assert!(errs.iter().any(|m| m.contains("cannot be indexed")));
    }

    #[test]
    fn array_parameters_are_indexable() {
        let src = r#"
            def main() {
                a = array(8);
                fill(a, 8);
                return a;
            }
            def fill(a, n) {
                for i = 0 to n - 1 { a[i] = i; }
                return 0;
            }
        "#;
        assert!(errors_of(src).is_empty());
    }

    #[test]
    fn rejects_duplicate_and_builtin_function_names() {
        let errs = errors_of("def f() { return 1; } def f() { return 2; }");
        assert!(errs.iter().any(|m| m.contains("defined more than once")));
        let errs = errors_of("def sqrt(x) { return x; }");
        assert!(errs.iter().any(|m| m.contains("shadows a builtin")));
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let errs = errors_of("def main() { return f(1); } def f(a, b) { return a + b; }");
        assert!(errs.iter().any(|m| m.contains("takes 2 argument(s)")));
    }

    #[test]
    fn repeated_parameters_are_rejected() {
        let errs = errors_of("def f(a, a) { return a; }");
        assert!(errs.iter().any(|m| m.contains("repeated")));
    }
}
