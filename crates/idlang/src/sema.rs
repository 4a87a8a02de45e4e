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
//! * called functions must exist with matching arity (built-ins are checked
//!   during lowering).
//!
//! Note that *element-level* single assignment (writing the same array
//! element twice) is a run-time property enforced by the I-structure memory;
//! the static checks here only cover what is decidable from the program text.

use crate::ast::{Expr, FunctionDef, Program, Stmt};
use crate::error::CompileError;
use crate::hir::is_builtin;
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

/// Checks a parsed program; returns the list of all semantic errors found.
///
/// An empty list means the program is valid.
pub fn analyze(program: &Program) -> Vec<CompileError> {
    let mut errors = Vec::new();
    let mut signatures: HashMap<&str, usize> = HashMap::new();
    for f in &program.functions {
        if signatures.insert(&f.name, f.params.len()).is_some() {
            errors.push(CompileError::sema(
                format!("function `{}` is defined more than once", f.name),
                Some(f.span),
            ));
        }
        if is_builtin(&f.name) {
            errors.push(CompileError::sema(
                format!("function `{}` shadows a builtin", f.name),
                Some(f.span),
            ));
        }
    }
    for f in &program.functions {
        check_function(f, &signatures, &mut errors);
    }
    errors
}

/// Checks a parsed program and fails on the first error.
///
/// # Errors
///
/// Returns the first semantic error when the program is invalid.
pub fn check(program: &Program) -> Result<(), CompileError> {
    match analyze(program).into_iter().next() {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

/// The names visible at a point of a function body, borrowed from the AST.
type Scope<'a> = HashMap<&'a str, Symbol>;

struct Checker<'a> {
    signatures: &'a HashMap<&'a str, usize>,
    errors: &'a mut Vec<CompileError>,
}

fn check_function<'a>(
    f: &'a FunctionDef,
    signatures: &'a HashMap<&'a str, usize>,
    errors: &'a mut Vec<CompileError>,
) {
    let mut scope: Scope<'a> = HashMap::new();
    for p in &f.params {
        if scope.insert(p, Symbol::Param).is_some() {
            errors.push(CompileError::sema(
                format!("parameter `{p}` of `{}` is repeated", f.name),
                Some(f.span),
            ));
        }
    }
    let mut checker = Checker { signatures, errors };
    checker.check_block(&f.body, &mut scope);
}

impl<'a> Checker<'a> {
    fn check_block(&mut self, stmts: &'a [Stmt], scope: &mut Scope<'a>) {
        for stmt in stmts {
            self.check_stmt(stmt, scope);
        }
    }

    fn bind(&mut self, name: &'a str, sym: Symbol, span: Span, scope: &mut Scope<'a>) {
        match scope.get(name) {
            Some(Symbol::Param) => self.errors.push(CompileError::sema(
                format!("`{name}` re-binds a function parameter (single assignment)"),
                Some(span),
            )),
            Some(Symbol::LoopVar) => self.errors.push(CompileError::sema(
                format!("`{name}` re-binds a loop index variable (single assignment)"),
                Some(span),
            )),
            Some(_) => self.errors.push(CompileError::sema(
                format!("`{name}` is bound more than once (single assignment)"),
                Some(span),
            )),
            None => {
                scope.insert(name, sym);
            }
        }
    }

    fn check_stmt(&mut self, stmt: &'a Stmt, scope: &mut Scope<'a>) {
        match stmt {
            Stmt::Let { name, value, span } => {
                self.check_expr(value, scope);
                self.bind(name, Symbol::Scalar, *span, scope);
            }
            Stmt::Alloc { name, dims, span } => {
                for d in dims {
                    self.check_expr(d, scope);
                }
                self.bind(name, Symbol::Array(dims.len()), *span, scope);
            }
            Stmt::Store {
                array,
                indices,
                value,
                span,
            } => {
                for idx in indices {
                    self.check_expr(idx, scope);
                }
                self.check_expr(value, scope);
                match scope.get(array.as_str()) {
                    None => self.errors.push(CompileError::sema(
                        format!("array `{array}` is not defined"),
                        Some(*span),
                    )),
                    Some(Symbol::Scalar) | Some(Symbol::LoopVar) => {
                        self.errors.push(CompileError::sema(
                            format!("`{array}` is not an array and cannot be indexed"),
                            Some(*span),
                        ))
                    }
                    Some(Symbol::Array(ndims)) => {
                        if *ndims != indices.len() {
                            self.errors.push(CompileError::sema(
                                format!(
                                    "array `{array}` has {ndims} dimension(s) but is written with {} indices",
                                    indices.len()
                                ),
                                Some(*span),
                            ));
                        }
                    }
                    Some(Symbol::Param) => {
                        // Arrays received as parameters have unknown rank; the
                        // run-time bounds check covers them.
                    }
                }
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                span,
                ..
            } => {
                self.check_expr(from, scope);
                self.check_expr(to, scope);
                if scope.contains_key(var.as_str()) {
                    self.errors.push(CompileError::sema(
                        format!("loop variable `{var}` shadows an existing binding"),
                        Some(*span),
                    ));
                }
                let mut inner = scope.clone();
                inner.insert(var, Symbol::LoopVar);
                self.check_block(body, &mut inner);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                self.check_expr(cond, scope);
                let mut then_scope = scope.clone();
                self.check_block(then_body, &mut then_scope);
                let mut else_scope = scope.clone();
                self.check_block(else_body, &mut else_scope);
                // Names bound in either branch become visible afterwards so
                // that `if c { z = 1; } else { z = 2; } return z;` works.
                for (name, sym) in then_scope {
                    scope.entry(name).or_insert(sym);
                }
                for (name, sym) in else_scope {
                    scope.entry(name).or_insert(sym);
                }
            }
            Stmt::Return { value, .. } => self.check_expr(value, scope),
            Stmt::Call {
                function,
                args,
                span,
            } => {
                for a in args {
                    self.check_expr(a, scope);
                }
                match self.signatures.get(function.as_str()) {
                    None => self.errors.push(CompileError::sema(
                        format!("function `{function}` is not defined"),
                        Some(*span),
                    )),
                    Some(&arity) if arity != args.len() => {
                        self.errors.push(CompileError::sema(
                            format!(
                                "function `{function}` takes {arity} argument(s), found {}",
                                args.len()
                            ),
                            Some(*span),
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
    }

    fn check_expr(&mut self, expr: &Expr, scope: &Scope<'a>) {
        match expr {
            Expr::Int(..) | Expr::Float(..) | Expr::Bool(..) => {}
            Expr::Var(name, span) => {
                if !scope.contains_key(name.as_str()) {
                    self.errors.push(CompileError::sema(
                        format!("variable `{name}` is not defined"),
                        Some(*span),
                    ));
                }
            }
            Expr::Index {
                array,
                indices,
                span,
            } => {
                for idx in indices {
                    self.check_expr(idx, scope);
                }
                match scope.get(array.as_str()) {
                    None => self.errors.push(CompileError::sema(
                        format!("array `{array}` is not defined"),
                        Some(*span),
                    )),
                    Some(Symbol::Scalar) | Some(Symbol::LoopVar) => {
                        self.errors.push(CompileError::sema(
                            format!("`{array}` is not an array and cannot be indexed"),
                            Some(*span),
                        ))
                    }
                    Some(Symbol::Array(ndims)) if *ndims != indices.len() => {
                        self.errors.push(CompileError::sema(
                            format!(
                                "array `{array}` has {ndims} dimension(s) but is read with {} indices",
                                indices.len()
                            ),
                            Some(*span),
                        ));
                    }
                    _ => {}
                }
            }
            Expr::Unary { operand, .. } => self.check_expr(operand, scope),
            Expr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs, scope);
                self.check_expr(rhs, scope);
            }
            Expr::Call {
                function,
                args,
                span,
            } => {
                for a in args {
                    self.check_expr(a, scope);
                }
                if is_builtin(function) {
                    return;
                }
                match self.signatures.get(function.as_str()) {
                    None => self.errors.push(CompileError::sema(
                        format!("function `{function}` is not defined"),
                        Some(*span),
                    )),
                    Some(&arity) if arity != args.len() => {
                        self.errors.push(CompileError::sema(
                            format!(
                                "function `{function}` takes {arity} argument(s), found {}",
                                args.len()
                            ),
                            Some(*span),
                        ));
                    }
                    Some(_) => {}
                }
            }
            Expr::Select {
                cond,
                then_value,
                else_value,
                ..
            } => {
                self.check_expr(cond, scope);
                self.check_expr(then_value, scope);
                self.check_expr(else_value, scope);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn errors_of(src: &str) -> Vec<String> {
        analyze(&parse(src).unwrap())
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
        assert!(check(&parse(src).unwrap()).is_ok());
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
