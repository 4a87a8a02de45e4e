//! The high-level intermediate representation (HIR): the one syntax tree.
//!
//! The parser builds the HIR straight from the source text, and it is the
//! structured, span-free program form consumed by the rest of the PODS
//! pipeline: the semantic checks, the dataflow-graph builder, the SP
//! translator, and the baseline executors. The parser turns built-in math
//! calls (`sqrt`, `min`, `pow`, ...) into dedicated operators so that
//! downstream consumers never have to special-case callee names.

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

/// Names of binary builtins, which the parser turns into operators.
pub const BINARY_BUILTINS: &[(&str, BinaryOp)] = &[
    ("min", BinaryOp::Min),
    ("max", BinaryOp::Max),
    ("pow", BinaryOp::Pow),
];

/// Names of unary builtins, which the parser turns into operators.
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

/// A program.
#[derive(Debug, Clone, PartialEq)]
pub struct HirProgram {
    /// Functions in source order.
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

/// A function.
#[derive(Debug, Clone, PartialEq)]
pub struct HirFunction {
    /// Function name.
    pub name: Name,
    /// Parameter names.
    pub params: Vec<Name>,
    /// Function body.
    pub body: Vec<HirStmt>,
}

/// A statement.
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

/// An expression.
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
    /// Collects the names of variables referenced by this expression, each
    /// once, in order of first use.
    pub fn free_vars(&self, out: &mut Vec<Name>) {
        note_expr(self, &[], out);
    }
}

/// Collects the free variable names of a statement list: the variables it
/// references before defining them, each once, in order of first use.
///
/// One scratch list of the names defined so far serves the whole walk: a
/// loop body's definitions are dropped by truncating the list back to the
/// loop's mark, and an expression's variables are checked as they are met.
pub fn collect_free_vars_stmts(stmts: &[HirStmt], out: &mut Vec<Name>) {
    let mut defined = Vec::new();
    note_stmts(stmts, &mut defined, out);
}

/// Notes `name` as free unless it is defined or already noted.
fn note(name: &Name, defined: &[Name], out: &mut Vec<Name>) {
    if !defined.contains(name) && !out.contains(name) {
        out.push(name.clone());
    }
}

fn note_expr(expr: &HirExpr, defined: &[Name], out: &mut Vec<Name>) {
    match expr {
        HirExpr::Int(_) | HirExpr::Float(_) | HirExpr::Bool(_) => {}
        HirExpr::Var(name) => note(name, defined, out),
        HirExpr::Load { array, indices } => {
            note(array, defined, out);
            for idx in indices {
                note_expr(idx, defined, out);
            }
        }
        HirExpr::Unary { operand, .. } => note_expr(operand, defined, out),
        HirExpr::Binary { lhs, rhs, .. } => {
            note_expr(lhs, defined, out);
            note_expr(rhs, defined, out);
        }
        HirExpr::Call { args, .. } => {
            for a in args {
                note_expr(a, defined, out);
            }
        }
        HirExpr::Select {
            cond,
            then_value,
            else_value,
        } => {
            note_expr(cond, defined, out);
            note_expr(then_value, defined, out);
            note_expr(else_value, defined, out);
        }
    }
}

fn note_stmts(stmts: &[HirStmt], defined: &mut Vec<Name>, out: &mut Vec<Name>) {
    for stmt in stmts {
        match stmt {
            HirStmt::Let { name, value } => {
                note_expr(value, defined, out);
                defined.push(name.clone());
            }
            HirStmt::Alloc { name, dims } => {
                for d in dims {
                    note_expr(d, defined, out);
                }
                defined.push(name.clone());
            }
            HirStmt::Store {
                array,
                indices,
                value,
            } => {
                note(array, defined, out);
                for idx in indices {
                    note_expr(idx, defined, out);
                }
                note_expr(value, defined, out);
            }
            HirStmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                note_expr(from, defined, out);
                note_expr(to, defined, out);
                let mark = defined.len();
                defined.push(var.clone());
                note_stmts(body, defined, out);
                defined.truncate(mark);
            }
            HirStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                note_expr(cond, defined, out);
                let mark = defined.len();
                note_stmts(then_body, defined, out);
                let then_defined: Vec<Name> = defined.drain(mark..).collect();
                note_stmts(else_body, defined, out);
                // Names defined in both arms are defined afterwards.
                let mut kept = mark;
                for at in mark..defined.len() {
                    if then_defined.contains(&defined[at]) {
                        defined.swap(kept, at);
                        kept += 1;
                    }
                }
                defined.truncate(kept);
            }
            HirStmt::Return { value } => note_expr(value, defined, out),
            HirStmt::Call { args, .. } => {
                for a in args {
                    note_expr(a, defined, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_hir(src: &str) -> HirProgram {
        crate::parser::parse(src).unwrap().0
    }

    #[test]
    fn builtins_become_operators() {
        let hir = parse_hir("def main(x) { a = sqrt(x); b = min(x, 2); return pow(a, b); }");
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
        let message = |src| crate::compile(src).unwrap_err().message;
        assert_eq!(
            message("def main(x) { return sqrt(x, x); }"),
            "builtin `sqrt` takes 1 argument, found 2"
        );
        assert_eq!(
            message("def main(x) { return min(x); }"),
            "builtin `min` takes 2 arguments, found 1"
        );
    }

    #[test]
    fn user_calls_are_preserved() {
        let hir = parse_hir("def main(x) { return f(x, 1); } def f(a, b) { return a + b; }");
        assert!(matches!(
            &hir.function("main").unwrap().body[0],
            HirStmt::Return { value: HirExpr::Call { function, args } }
                if function == "f" && args.len() == 2
        ));
        assert!(hir.entry().is_some());
    }

    #[test]
    fn free_vars_are_collected_once() {
        let hir = parse_hir("def main(a, i) { return a[i, i] + i; }");
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
    fn free_vars_of_statements_respect_loop_and_branch_scopes() {
        let hir = parse_hir(
            "def main(n, a, b) {
                 for i = 0 to n { t = i; a[i] = t; }
                 for j = 0 to n { b[j] = t + i; }
                 if n > 0 { x = 1; y = 2; } else { y = 3; z = 4; }
                 return y + x + z + n;
             }",
        );
        let mut free = Vec::new();
        collect_free_vars_stmts(&hir.function("main").unwrap().body, &mut free);
        // `i` and `t` are defined only inside the first loop, `y` in both
        // arms of the branch, `x` and `z` in one arm each.
        assert_eq!(free, ["n", "a", "b", "t", "i", "x", "z"]);
    }

    #[test]
    fn loops_and_stores_lower_structurally() {
        let hir =
            parse_hir("def main() { a = array(4); for i = 0 to 3 { a[i] = i * 2; } return a; }");
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
