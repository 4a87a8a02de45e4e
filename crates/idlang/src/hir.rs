//! The high-level intermediate representation (HIR) and the AST → HIR
//! lowering pass.
//!
//! The HIR is the structured, span-free program form consumed by the rest of
//! the PODS pipeline: the dataflow-graph builder, the SP translator, and the
//! baseline executors. Lowering desugars built-in math calls (`sqrt`, `min`,
//! `pow`, ...) into dedicated operators so that downstream consumers never
//! have to special-case callee names.

use crate::ast;
use crate::error::CompileError;
use crate::name::Name;

/// Binary operators available in the HIR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// Minimum of two values (also used by Range Filters).
    Min,
    /// Maximum of two values (also used by Range Filters).
    Max,
    /// Exponentiation (`pow(base, exponent)`).
    Pow,
}

impl BinaryOp {
    /// Returns `true` for comparison operators producing booleans.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// Returns `true` for logical operators over booleans.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }
}

impl std::fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "and",
            BinaryOp::Or => "or",
            BinaryOp::Min => "min",
            BinaryOp::Max => "max",
            BinaryOp::Pow => "pow",
        };
        write!(f, "{s}")
    }
}

/// Unary operators available in the HIR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Floor (largest integer not above the argument).
    Floor,
    /// Ceiling (smallest integer not below the argument).
    Ceil,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
}

impl std::fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UnaryOp::Neg => "neg",
            UnaryOp::Not => "not",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Abs => "abs",
            UnaryOp::Exp => "exp",
            UnaryOp::Ln => "ln",
            UnaryOp::Floor => "floor",
            UnaryOp::Ceil => "ceil",
            UnaryOp::Sin => "sin",
            UnaryOp::Cos => "cos",
        };
        write!(f, "{s}")
    }
}

/// Names of binary builtins recognised by the lowering pass.
pub const BINARY_BUILTINS: &[(&str, BinaryOp)] = &[
    ("min", BinaryOp::Min),
    ("max", BinaryOp::Max),
    ("pow", BinaryOp::Pow),
];

/// Names of unary builtins recognised by the lowering pass.
pub const UNARY_BUILTINS: &[(&str, UnaryOp)] = &[
    ("sqrt", UnaryOp::Sqrt),
    ("abs", UnaryOp::Abs),
    ("exp", UnaryOp::Exp),
    ("ln", UnaryOp::Ln),
    ("floor", UnaryOp::Floor),
    ("ceil", UnaryOp::Ceil),
    ("sin", UnaryOp::Sin),
    ("cos", UnaryOp::Cos),
];

/// Returns `true` when `name` is a built-in function name.
pub fn is_builtin(name: &str) -> bool {
    BINARY_BUILTINS.iter().any(|(n, _)| *n == name)
        || UNARY_BUILTINS.iter().any(|(n, _)| *n == name)
}

/// A lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct HirProgram {
    /// Lowered functions in source order.
    pub functions: Vec<HirFunction>,
}

impl HirProgram {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&HirFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The entry function (`main`) if present.
    pub fn entry(&self) -> Option<&HirFunction> {
        self.function("main")
    }
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct HirFunction {
    /// Function name.
    pub name: Name,
    /// Parameter names.
    pub params: Vec<Name>,
    /// Function body.
    pub body: Vec<HirStmt>,
}

/// A lowered statement.
#[derive(Debug, Clone, PartialEq)]
pub enum HirStmt {
    /// Scalar binding.
    Let {
        /// Bound name.
        name: Name,
        /// Bound value.
        value: HirExpr,
    },
    /// I-structure array allocation.
    Alloc {
        /// Array name.
        name: Name,
        /// Dimension extents.
        dims: Vec<HirExpr>,
    },
    /// I-structure element write.
    Store {
        /// Array name.
        array: Name,
        /// Element indices.
        indices: Vec<HirExpr>,
        /// Stored value.
        value: HirExpr,
    },
    /// Counted loop (inclusive bounds).
    For {
        /// Loop variable.
        var: Name,
        /// Initial index.
        from: HirExpr,
        /// Final index (inclusive).
        to: HirExpr,
        /// `true` for descending loops.
        descending: bool,
        /// Loop body.
        body: Vec<HirStmt>,
    },
    /// Conditional statement.
    If {
        /// Condition.
        cond: HirExpr,
        /// Statements when the condition holds.
        then_body: Vec<HirStmt>,
        /// Statements otherwise.
        else_body: Vec<HirStmt>,
    },
    /// Function result.
    Return {
        /// The returned value.
        value: HirExpr,
    },
    /// A user-function call executed for effect (its result is discarded).
    Call {
        /// Callee name.
        function: Name,
        /// Arguments.
        args: Vec<HirExpr>,
    },
}

/// A lowered expression.
#[derive(Debug, Clone, PartialEq)]
pub enum HirExpr {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// Variable reference.
    Var(Name),
    /// Array element read.
    Load {
        /// Array name.
        array: Name,
        /// Element indices.
        indices: Vec<HirExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<HirExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<HirExpr>,
        /// Right operand.
        rhs: Box<HirExpr>,
    },
    /// User-function call.
    Call {
        /// Callee name.
        function: Name,
        /// Arguments.
        args: Vec<HirExpr>,
    },
    /// Conditional expression.
    Select {
        /// Condition.
        cond: Box<HirExpr>,
        /// Value when the condition holds.
        then_value: Box<HirExpr>,
        /// Value otherwise.
        else_value: Box<HirExpr>,
    },
}

impl HirExpr {
    /// Collects the names of variables referenced by this expression.
    pub fn free_vars(&self, out: &mut Vec<Name>) {
        match self {
            HirExpr::Int(_) | HirExpr::Float(_) | HirExpr::Bool(_) => {}
            HirExpr::Var(name) => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            HirExpr::Load { array, indices } => {
                if !out.contains(array) {
                    out.push(array.clone());
                }
                for idx in indices {
                    idx.free_vars(out);
                }
            }
            HirExpr::Unary { operand, .. } => operand.free_vars(out),
            HirExpr::Binary { lhs, rhs, .. } => {
                lhs.free_vars(out);
                rhs.free_vars(out);
            }
            HirExpr::Call { args, .. } => {
                for a in args {
                    a.free_vars(out);
                }
            }
            HirExpr::Select {
                cond,
                then_value,
                else_value,
            } => {
                cond.free_vars(out);
                then_value.free_vars(out);
                else_value.free_vars(out);
            }
        }
    }
}

/// Lowers a parsed and semantically valid AST into the HIR.
///
/// # Errors
///
/// Returns an error when a built-in is called with the wrong number of
/// arguments (other semantic errors are caught earlier by
/// [`crate::sema::check`]).
pub fn lower(program: &ast::Program) -> Result<HirProgram, CompileError> {
    let functions = program
        .functions
        .iter()
        .map(lower_function)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(HirProgram { functions })
}

fn lower_function(f: &ast::FunctionDef) -> Result<HirFunction, CompileError> {
    Ok(HirFunction {
        name: f.name.clone(),
        params: f.params.clone(),
        body: lower_block(&f.body)?,
    })
}

fn lower_block(stmts: &[ast::Stmt]) -> Result<Vec<HirStmt>, CompileError> {
    stmts.iter().map(lower_stmt).collect()
}

fn lower_stmt(stmt: &ast::Stmt) -> Result<HirStmt, CompileError> {
    Ok(match stmt {
        ast::Stmt::Let { name, value, .. } => HirStmt::Let {
            name: name.clone(),
            value: lower_expr(value)?,
        },
        ast::Stmt::Alloc { name, dims, .. } => HirStmt::Alloc {
            name: name.clone(),
            dims: dims.iter().map(lower_expr).collect::<Result<_, _>>()?,
        },
        ast::Stmt::Store {
            array,
            indices,
            value,
            ..
        } => HirStmt::Store {
            array: array.clone(),
            indices: indices.iter().map(lower_expr).collect::<Result<_, _>>()?,
            value: lower_expr(value)?,
        },
        ast::Stmt::For {
            var,
            from,
            to,
            descending,
            body,
            ..
        } => HirStmt::For {
            var: var.clone(),
            from: lower_expr(from)?,
            to: lower_expr(to)?,
            descending: *descending,
            body: lower_block(body)?,
        },
        ast::Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => HirStmt::If {
            cond: lower_expr(cond)?,
            then_body: lower_block(then_body)?,
            else_body: lower_block(else_body)?,
        },
        ast::Stmt::Return { value, .. } => HirStmt::Return {
            value: lower_expr(value)?,
        },
        ast::Stmt::Call { function, args, .. } => HirStmt::Call {
            function: function.clone(),
            args: args.iter().map(lower_expr).collect::<Result<_, _>>()?,
        },
    })
}

fn lower_binop(op: ast::BinOp) -> BinaryOp {
    match op {
        ast::BinOp::Add => BinaryOp::Add,
        ast::BinOp::Sub => BinaryOp::Sub,
        ast::BinOp::Mul => BinaryOp::Mul,
        ast::BinOp::Div => BinaryOp::Div,
        ast::BinOp::Rem => BinaryOp::Rem,
        ast::BinOp::Eq => BinaryOp::Eq,
        ast::BinOp::Ne => BinaryOp::Ne,
        ast::BinOp::Lt => BinaryOp::Lt,
        ast::BinOp::Le => BinaryOp::Le,
        ast::BinOp::Gt => BinaryOp::Gt,
        ast::BinOp::Ge => BinaryOp::Ge,
        ast::BinOp::And => BinaryOp::And,
        ast::BinOp::Or => BinaryOp::Or,
    }
}

fn lower_expr(expr: &ast::Expr) -> Result<HirExpr, CompileError> {
    Ok(match expr {
        ast::Expr::Int(v, _) => HirExpr::Int(*v),
        ast::Expr::Float(v, _) => HirExpr::Float(*v),
        ast::Expr::Bool(v, _) => HirExpr::Bool(*v),
        ast::Expr::Var(name, _) => HirExpr::Var(name.clone()),
        ast::Expr::Index { array, indices, .. } => HirExpr::Load {
            array: array.clone(),
            indices: indices.iter().map(lower_expr).collect::<Result<_, _>>()?,
        },
        ast::Expr::Unary { op, operand, .. } => HirExpr::Unary {
            op: match op {
                ast::UnOp::Neg => UnaryOp::Neg,
                ast::UnOp::Not => UnaryOp::Not,
            },
            operand: Box::new(lower_expr(operand)?),
        },
        ast::Expr::Binary { op, lhs, rhs, .. } => HirExpr::Binary {
            op: lower_binop(*op),
            lhs: Box::new(lower_expr(lhs)?),
            rhs: Box::new(lower_expr(rhs)?),
        },
        ast::Expr::Call {
            function,
            args,
            span,
        } => {
            if let Some((_, op)) = UNARY_BUILTINS.iter().find(|(n, _)| n == function) {
                if args.len() != 1 {
                    return Err(CompileError::sema(
                        format!(
                            "builtin `{function}` takes 1 argument, found {}",
                            args.len()
                        ),
                        Some(*span),
                    ));
                }
                HirExpr::Unary {
                    op: *op,
                    operand: Box::new(lower_expr(&args[0])?),
                }
            } else if let Some((_, op)) = BINARY_BUILTINS.iter().find(|(n, _)| n == function) {
                if args.len() != 2 {
                    return Err(CompileError::sema(
                        format!(
                            "builtin `{function}` takes 2 arguments, found {}",
                            args.len()
                        ),
                        Some(*span),
                    ));
                }
                HirExpr::Binary {
                    op: *op,
                    lhs: Box::new(lower_expr(&args[0])?),
                    rhs: Box::new(lower_expr(&args[1])?),
                }
            } else {
                HirExpr::Call {
                    function: function.clone(),
                    args: args.iter().map(lower_expr).collect::<Result<_, _>>()?,
                }
            }
        }
        ast::Expr::Select {
            cond,
            then_value,
            else_value,
            ..
        } => HirExpr::Select {
            cond: Box::new(lower_expr(cond)?),
            then_value: Box::new(lower_expr(then_value)?),
            else_value: Box::new(lower_expr(else_value)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lower_src(src: &str) -> HirProgram {
        lower(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn builtins_become_operators() {
        let hir = lower_src("def main(x) { a = sqrt(x); b = min(x, 2); return pow(a, b); }");
        let body = &hir.function("main").unwrap().body;
        assert!(matches!(
            &body[0],
            HirStmt::Let {
                value: HirExpr::Unary {
                    op: UnaryOp::Sqrt,
                    ..
                },
                ..
            }
        ));
        assert!(matches!(
            &body[1],
            HirStmt::Let {
                value: HirExpr::Binary {
                    op: BinaryOp::Min,
                    ..
                },
                ..
            }
        ));
        assert!(matches!(
            &body[2],
            HirStmt::Return {
                value: HirExpr::Binary {
                    op: BinaryOp::Pow,
                    ..
                }
            }
        ));
    }

    #[test]
    fn builtin_arity_is_checked() {
        let ast = parse("def main(x) { return sqrt(x, x); }").unwrap();
        assert!(lower(&ast).is_err());
        let ast = parse("def main(x) { return min(x); }").unwrap();
        assert!(lower(&ast).is_err());
    }

    #[test]
    fn user_calls_are_preserved() {
        let hir = lower_src("def main(x) { return f(x, 1); } def f(a, b) { return a + b; }");
        assert!(matches!(
            &hir.function("main").unwrap().body[0],
            HirStmt::Return { value: HirExpr::Call { function, args } }
                if function == "f" && args.len() == 2
        ));
        assert!(hir.entry().is_some());
    }

    #[test]
    fn free_vars_are_collected_once() {
        let hir = lower_src("def main(a, i) { return a[i, i] + i; }");
        match &hir.function("main").unwrap().body[0] {
            HirStmt::Return { value } => {
                let mut vars = Vec::new();
                value.free_vars(&mut vars);
                assert_eq!(vars, vec!["a".to_string(), "i".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loops_and_stores_lower_structurally() {
        let hir =
            lower_src("def main() { a = array(4); for i = 0 to 3 { a[i] = i * 2; } return a; }");
        let body = &hir.function("main").unwrap().body;
        assert!(matches!(&body[0], HirStmt::Alloc { dims, .. } if dims.len() == 1));
        match &body[1] {
            HirStmt::For {
                body, descending, ..
            } => {
                assert!(!descending);
                assert!(matches!(&body[0], HirStmt::Store { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn operator_helpers() {
        assert!(BinaryOp::Lt.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
        assert!(BinaryOp::And.is_logical());
        assert!(is_builtin("sqrt"));
        assert!(is_builtin("max"));
        assert!(!is_builtin("f"));
        assert_eq!(BinaryOp::Add.to_string(), "+");
        assert_eq!(UnaryOp::Sqrt.to_string(), "sqrt");
    }
}
