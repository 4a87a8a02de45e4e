//! Abstract syntax tree produced by the parser.
//!
//! The AST mirrors the surface syntax and carries source spans for error
//! reporting. Semantic analysis validates it and the lowering pass converts
//! it into the span-free [`crate::hir`] consumed by the rest of the pipeline.

use crate::name::Name;
use crate::token::Span;

/// A parsed program: a list of function definitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The function definitions in source order.
    pub functions: Vec<FunctionDef>,
}

impl Program {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// A function definition: `def name(params) { body }`.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// The function name.
    pub name: Name,
    /// Parameter names.
    pub params: Vec<Name>,
    /// The function body.
    pub body: Vec<Stmt>,
    /// Span of the `def` keyword and name.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Scalar binding: `x = expr;` or `let x = expr;`.
    Let {
        /// Bound name.
        name: Name,
        /// Bound value.
        value: Expr,
        /// Statement span.
        span: Span,
    },
    /// Array allocation: `a = array(n);`, `a = matrix(n, m);`,
    /// `a = tensor(n, m, k);` (`tensor` takes three or more extents).
    Alloc {
        /// Array name.
        name: Name,
        /// Dimension extents (one, two, or at least three expressions).
        dims: Vec<Expr>,
        /// Statement span.
        span: Span,
    },
    /// I-structure element write: `a[i, j] = expr;`.
    Store {
        /// Array name.
        array: Name,
        /// Element indices.
        indices: Vec<Expr>,
        /// Value to store.
        value: Expr,
        /// Statement span.
        span: Span,
    },
    /// Counted loop: `for i = lo to hi { ... }` (or `downto`).
    For {
        /// Loop index variable.
        var: Name,
        /// Initial index value.
        from: Expr,
        /// Final index value (inclusive).
        to: Expr,
        /// `true` for `downto` loops.
        descending: bool,
        /// Loop body.
        body: Vec<Stmt>,
        /// Statement span.
        span: Span,
    },
    /// Conditional statement: `if cond { ... } else { ... }`.
    If {
        /// Condition expression.
        cond: Expr,
        /// Statements executed when the condition holds.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise (possibly empty).
        else_body: Vec<Stmt>,
        /// Statement span.
        span: Span,
    },
    /// Function result: `return expr;`.
    Return {
        /// The returned value.
        value: Expr,
        /// Statement span.
        span: Span,
    },
    /// A function call executed for effect: `fill(a, n);`.
    Call {
        /// Callee name.
        function: Name,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Statement span.
        span: Span,
    },
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let { span, .. }
            | Stmt::Alloc { span, .. }
            | Stmt::Store { span, .. }
            | Stmt::For { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Call { span, .. } => *span,
        }
    }
}

/// Binary operators of the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

/// Unary operators of the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Floating-point literal.
    Float(f64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// Variable reference.
    Var(Name, Span),
    /// Array element read: `a[i, j]`.
    Index {
        /// Array name.
        array: Name,
        /// Element indices.
        indices: Vec<Expr>,
        /// Expression span.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        operand: Box<Expr>,
        /// Expression span.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Expression span.
        span: Span,
    },
    /// Function or builtin call: `f(a, b)`.
    Call {
        /// Callee name.
        function: Name,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Expression span.
        span: Span,
    },
    /// Conditional expression: `if c then a else b`.
    Select {
        /// Condition.
        cond: Box<Expr>,
        /// Value when the condition holds.
        then_value: Box<Expr>,
        /// Value otherwise.
        else_value: Box<Expr>,
        /// Expression span.
        span: Span,
    },
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, span)
            | Expr::Float(_, span)
            | Expr::Bool(_, span)
            | Expr::Var(_, span) => *span,
            Expr::Index { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Call { span, .. }
            | Expr::Select { span, .. } => *span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_reachable_for_all_nodes() {
        let s = Span::new(0, 1, 1);
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Int(1, s)),
            rhs: Box::new(Expr::Var("x".into(), s)),
            span: s,
        };
        assert_eq!(e.span(), s);
        let st = Stmt::Return {
            value: e,
            span: Span::new(2, 3, 4),
        };
        assert_eq!(st.span().line, 4);
    }

    #[test]
    fn program_function_lookup() {
        let p = Program {
            functions: vec![FunctionDef {
                name: "main".into(),
                params: vec![],
                body: vec![],
                span: Span::default(),
            }],
        };
        assert!(p.function("main").is_some());
        assert!(p.function("other").is_none());
    }
}
