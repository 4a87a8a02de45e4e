//! The high-level intermediate representation (HIR): the one syntax tree.
//!
//! The parser builds the HIR straight from the source text, and it is the
//! structured, span-free program form consumed by the rest of the PODS
//! pipeline: the semantic checks, the loop analysis, the SP translator, and
//! the baseline executors. The parser turns built-in math
//! calls (`sqrt`, `min`, `pow`, ...) into dedicated operators so that
//! downstream consumers never have to special-case callee names.
//!
//! The nodes live in pools the [`HirProgram`] owns: one of expressions, one
//! of statements, and one of the `u32` child ids of every list. A node
//! names a child by its [`ExprId`] or [`StmtId`], and a list of children
//! (a body, the indices of a `Load`, a call's arguments) is a [`List`], a
//! range of the id pool; [`HirProgram::expr`], [`HirProgram::stmt`],
//! [`HirProgram::exprs`] and [`HirProgram::stmts`] read them. The source
//! spans of the nodes are not here: the parser keeps them in tables
//! indexed by the same ids, which only the semantic checks read.

use crate::name::Name;
use std::fmt::Formatter;
use std::marker::PhantomData;

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

/// The id of an expression: its index in its program's expression pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(pub(crate) u32);

impl ExprId {
    /// The expression's index in its program's pool, for tables kept
    /// beside the program (the parser's spans).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The id of a statement: its index in its program's statement pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtId(pub(crate) u32);

impl StmtId {
    /// The statement's index in its program's pool, for tables kept
    /// beside the program (the parser's spans, the oracle's plan).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A list of child ids — the operands of a `Load` or a call, an
/// allocation's extents, a body — kept as `len` consecutive entries of its
/// program's id pool from `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct List<T> {
    start: u32,
    len: u32,
    kind: PhantomData<T>,
}

impl<T> List<T> {
    /// The empty list.
    pub const EMPTY: List<T> = List {
        start: 0,
        len: 0,
        kind: PhantomData,
    };

    /// The number of ids in the list.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` when the list has no ids.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The index a pool gives its next entry. Every node and list entry
/// takes at least one byte of source, and the parser takes no source of
/// 4 GiB or more, so the index fits.
fn next_index(len: usize) -> u32 {
    u32::try_from(len).expect("a pool holds fewer entries than its source has bytes")
}

/// A program: its functions, and the pools their nodes live in. Every
/// expression and statement of the program is an entry of one pool, a
/// node names its children by id, and every list of children is a range
/// of one pool of ids, so a program takes a few allocations per pool
/// rather than one per node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HirProgram {
    /// Functions in source order.
    pub functions: Vec<HirFunction>,
    exprs: Vec<HirExpr>,
    stmts: Vec<HirStmt>,
    /// The child ids of every list, list after list.
    ids: Vec<u32>,
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

    /// The expression `id`.
    pub fn expr(&self, id: ExprId) -> &HirExpr {
        &self.exprs[id.index()]
    }

    /// The statement `id`.
    pub fn stmt(&self, id: StmtId) -> &HirStmt {
        &self.stmts[id.index()]
    }

    /// The ids of an expression list, in order.
    pub fn exprs(&self, list: List<ExprId>) -> impl ExactSizeIterator<Item = ExprId> + Clone + '_ {
        self.ids[list.range()].iter().map(|&id| ExprId(id))
    }

    /// The ids of a statement list, in order.
    pub fn stmts(&self, list: List<StmtId>) -> impl ExactSizeIterator<Item = StmtId> + Clone + '_ {
        self.ids[list.range()].iter().map(|&id| StmtId(id))
    }

    /// Adds an expression to the pool and returns its id.
    pub fn add_expr(&mut self, expr: HirExpr) -> ExprId {
        let id = ExprId(next_index(self.exprs.len()));
        self.exprs.push(expr);
        id
    }

    /// Adds a statement to the pool and returns its id.
    pub fn add_stmt(&mut self, stmt: HirStmt) -> StmtId {
        let id = StmtId(next_index(self.stmts.len()));
        self.stmts.push(stmt);
        id
    }

    /// Adds a list of statement ids and returns it.
    pub fn add_stmts(&mut self, ids: impl IntoIterator<Item = StmtId>) -> List<StmtId> {
        self.add_list(ids.into_iter().map(|id| id.0))
    }

    /// Adds a list of raw ids (the parser's scratch stack holds both
    /// kinds) and returns it.
    pub(crate) fn add_list<T>(&mut self, ids: impl IntoIterator<Item = u32>) -> List<T> {
        let start = next_index(self.ids.len());
        self.ids.extend(ids);
        List {
            start,
            len: next_index(self.ids.len()) - start,
            kind: PhantomData,
        }
    }

    /// How many expressions, statements and list entries the pools hold.
    pub fn pool_lens(&self) -> [usize; 3] {
        [self.exprs.len(), self.stmts.len(), self.ids.len()]
    }

    /// Calls `visit` on expression `id` and on each of its
    /// sub-expressions, in preorder: a node before its operands, operands
    /// left to right.
    pub fn walk_expr<'a>(&'a self, id: ExprId, visit: &mut impl FnMut(&'a HirExpr)) {
        let expr = self.expr(id);
        visit(expr);
        match expr {
            HirExpr::Int(_) | HirExpr::Float(_) | HirExpr::Bool(_) | HirExpr::Var(_) => {}
            HirExpr::Load { indices: items, .. } | HirExpr::Call { args: items, .. } => {
                for item in self.exprs(*items) {
                    self.walk_expr(item, visit);
                }
            }
            HirExpr::Unary { operand, .. } => self.walk_expr(*operand, visit),
            HirExpr::Binary { lhs, rhs, .. } => {
                self.walk_expr(*lhs, visit);
                self.walk_expr(*rhs, visit);
            }
            HirExpr::Select {
                cond,
                then_value,
                else_value,
            } => {
                self.walk_expr(*cond, visit);
                self.walk_expr(*then_value, visit);
                self.walk_expr(*else_value, visit);
            }
        }
    }

    /// Calls `visit` on every statement of `stmts` and on every expression
    /// in them, nested statement lists included, in preorder: a statement,
    /// then its expressions in source order (each as
    /// [`HirProgram::walk_expr`] does), then the statements it contains.
    ///
    /// For walks that only look at nodes. A walk that carries scope (which
    /// names are defined where, as [`HirProgram::collect_free_vars`] does)
    /// recurses itself.
    pub fn walk<'a>(&'a self, stmts: List<StmtId>, visit: &mut impl FnMut(HirNode<'a>)) {
        for id in self.stmts(stmts) {
            let stmt = self.stmt(id);
            visit(HirNode::Stmt(stmt));
            let mut expr = |e: ExprId| self.walk_expr(e, &mut |e| visit(HirNode::Expr(e)));
            match stmt {
                HirStmt::Let { value, .. } | HirStmt::Return { value } => expr(*value),
                HirStmt::Alloc { dims: items, .. } | HirStmt::Call { args: items, .. } => {
                    self.exprs(*items).for_each(expr)
                }
                HirStmt::Store { indices, value, .. } => {
                    self.exprs(*indices).for_each(&mut expr);
                    expr(*value);
                }
                HirStmt::For { from, to, body, .. } => {
                    expr(*from);
                    expr(*to);
                    self.walk(*body, visit);
                }
                HirStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    expr(*cond);
                    self.walk(*then_body, visit);
                    self.walk(*else_body, visit);
                }
            }
        }
    }

    /// Collects the names of variables referenced by expression `id`, each
    /// once, in order of first use.
    pub fn free_vars(&self, id: ExprId, out: &mut Vec<Name>) {
        self.note_expr(id, &[], out);
    }

    /// Collects the free variable names of a statement list: the variables
    /// it references before defining them, each once, in order of first
    /// use.
    ///
    /// One scratch list of the names defined so far serves the whole walk:
    /// a loop body's definitions are dropped by truncating the list back to
    /// the loop's mark, and an expression's variables are checked as they
    /// are met.
    pub fn collect_free_vars(&self, stmts: List<StmtId>, out: &mut Vec<Name>) {
        let mut defined = Vec::new();
        self.note_stmts(stmts, &mut defined, out);
    }

    fn note_expr(&self, id: ExprId, defined: &[Name], out: &mut Vec<Name>) {
        self.walk_expr(id, &mut |e| {
            if let HirExpr::Var(name) | HirExpr::Load { array: name, .. } = e {
                note(name, defined, out);
            }
        });
    }

    fn note_stmts(&self, stmts: List<StmtId>, defined: &mut Vec<Name>, out: &mut Vec<Name>) {
        for id in self.stmts(stmts) {
            match self.stmt(id) {
                HirStmt::Let { name, value } => {
                    self.note_expr(*value, defined, out);
                    defined.push(name.clone());
                }
                HirStmt::Alloc { name, dims } => {
                    for d in self.exprs(*dims) {
                        self.note_expr(d, defined, out);
                    }
                    defined.push(name.clone());
                }
                HirStmt::Store {
                    array,
                    indices,
                    value,
                } => {
                    note(array, defined, out);
                    for idx in self.exprs(*indices) {
                        self.note_expr(idx, defined, out);
                    }
                    self.note_expr(*value, defined, out);
                }
                HirStmt::For {
                    var,
                    from,
                    to,
                    body,
                    ..
                } => {
                    self.note_expr(*from, defined, out);
                    self.note_expr(*to, defined, out);
                    let mark = defined.len();
                    defined.push(var.clone());
                    self.note_stmts(*body, defined, out);
                    defined.truncate(mark);
                }
                HirStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.note_expr(*cond, defined, out);
                    let mark = defined.len();
                    self.note_stmts(*then_body, defined, out);
                    let then_defined: Vec<Name> = defined.drain(mark..).collect();
                    self.note_stmts(*else_body, defined, out);
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
                HirStmt::Return { value } => self.note_expr(*value, defined, out),
                HirStmt::Call { args, .. } => {
                    for a in self.exprs(*args) {
                        self.note_expr(a, defined, out);
                    }
                }
            }
        }
    }
}

/// Notes `name` as free unless it is defined or already noted.
fn note(name: &Name, defined: &[Name], out: &mut Vec<Name>) {
    if !defined.contains(name) && !out.contains(name) {
        out.push(name.clone());
    }
}

/// Prints the program as `idlang` source that compiles back to the same
/// HIR: four-space indentation, one statement per line, parentheses only
/// where precedence needs them, built-in operators as the calls they were
/// written as.
impl std::fmt::Display for HirProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let printer = Printer { hir: self };
        for (index, function) in self.functions.iter().enumerate() {
            if index > 0 {
                writeln!(f)?;
            }
            write!(f, "def {}(", function.name)?;
            for (at, param) in function.params.iter().enumerate() {
                let comma = if at > 0 { ", " } else { "" };
                write!(f, "{comma}{param}")?;
            }
            writeln!(f, ") {{")?;
            printer.block(f, function.body, 1)?;
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

/// The binding strength of each level of the grammar, loosest first: a
/// node printed where a level above its own is expected is parenthesised.
const SELECT: u8 = 0;
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const COMPARISON: u8 = 4;
const ADDITIVE: u8 = 5;
const MULTIPLICATIVE: u8 = 6;
const NEGATION: u8 = 7;
const PRIMARY: u8 = 8;

/// The source printer behind [`HirProgram`]'s `Display`.
struct Printer<'a> {
    hir: &'a HirProgram,
}

impl Printer<'_> {
    fn block(&self, f: &mut Formatter<'_>, stmts: List<StmtId>, depth: usize) -> std::fmt::Result {
        let indent = depth * 4;
        for id in self.hir.stmts(stmts) {
            write!(f, "{:indent$}", "")?;
            match self.hir.stmt(id) {
                HirStmt::Let { name, value } => {
                    write!(f, "{name} = ")?;
                    self.expr(f, *value, SELECT)?;
                }
                HirStmt::Alloc { name, dims } => {
                    let callee = match dims.len() {
                        1 => "array",
                        2 => "matrix",
                        _ => "tensor",
                    };
                    write!(f, "{name} = {callee}")?;
                    self.list(f, "(", *dims, ")")?;
                }
                HirStmt::Store {
                    array,
                    indices,
                    value,
                } => {
                    write!(f, "{array}")?;
                    self.list(f, "[", *indices, "] = ")?;
                    self.expr(f, *value, SELECT)?;
                }
                HirStmt::For {
                    var,
                    from,
                    to,
                    descending,
                    body,
                } => {
                    write!(f, "for {var} = ")?;
                    self.expr(f, *from, SELECT)?;
                    write!(f, " {} ", if *descending { "downto" } else { "to" })?;
                    self.expr(f, *to, SELECT)?;
                    writeln!(f, " {{")?;
                    self.block(f, *body, depth + 1)?;
                    writeln!(f, "{:indent$}}}", "")?;
                    continue;
                }
                HirStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    write!(f, "if ")?;
                    self.expr(f, *cond, SELECT)?;
                    writeln!(f, " {{")?;
                    self.block(f, *then_body, depth + 1)?;
                    if !else_body.is_empty() {
                        writeln!(f, "{:indent$}}} else {{", "")?;
                        self.block(f, *else_body, depth + 1)?;
                    }
                    writeln!(f, "{:indent$}}}", "")?;
                    continue;
                }
                HirStmt::Return { value } => {
                    write!(f, "return ")?;
                    self.expr(f, *value, SELECT)?;
                }
                HirStmt::Call { function, args } => {
                    write!(f, "{function}")?;
                    self.list(f, "(", *args, ")")?;
                }
            }
            writeln!(f, ";")?;
        }
        Ok(())
    }

    fn list(
        &self,
        f: &mut Formatter<'_>,
        open: &str,
        items: List<ExprId>,
        close: &str,
    ) -> std::fmt::Result {
        write!(f, "{open}")?;
        for (at, item) in self.hir.exprs(items).enumerate() {
            if at > 0 {
                write!(f, ", ")?;
            }
            self.expr(f, item, SELECT)?;
        }
        write!(f, "{close}")
    }

    /// Prints expression `id` where the grammar expects an operand of
    /// strength `at`.
    fn expr(&self, f: &mut Formatter<'_>, id: ExprId, at: u8) -> std::fmt::Result {
        let expr = self.hir.expr(id);
        let own = match expr {
            HirExpr::Select { .. } => SELECT,
            HirExpr::Binary { op, .. } => match op {
                BinaryOp::Or => OR,
                BinaryOp::And => AND,
                op if op.is_comparison() => COMPARISON,
                BinaryOp::Add | BinaryOp::Sub => ADDITIVE,
                BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => MULTIPLICATIVE,
                _ => PRIMARY,
            },
            HirExpr::Unary {
                op: UnaryOp::Not, ..
            } => NOT,
            HirExpr::Unary {
                op: UnaryOp::Neg, ..
            } => NEGATION,
            _ => PRIMARY,
        };
        if own < at {
            write!(f, "(")?;
        }
        match expr {
            HirExpr::Int(value) => write!(f, "{value}")?,
            // `Debug` prints the shortest text that parses back to the same
            // value, always with a `.` or an exponent.
            HirExpr::Float(value) => write!(f, "{value:?}")?,
            HirExpr::Bool(value) => write!(f, "{value}")?,
            HirExpr::Var(name) => write!(f, "{name}")?,
            HirExpr::Load { array, indices } => {
                write!(f, "{array}")?;
                self.list(f, "[", *indices, "]")?;
            }
            HirExpr::Unary { op, operand } => {
                if own == PRIMARY {
                    write!(f, "{op}(")?;
                    self.expr(f, *operand, SELECT)?;
                    write!(f, ")")?;
                } else {
                    write!(f, "{}", if own == NOT { "not " } else { "-" })?;
                    self.expr(f, *operand, own)?;
                }
            }
            HirExpr::Binary { op, lhs, rhs } => {
                if own == PRIMARY {
                    write!(f, "{op}(")?;
                    self.expr(f, *lhs, SELECT)?;
                    write!(f, ", ")?;
                    self.expr(f, *rhs, SELECT)?;
                    write!(f, ")")?;
                } else {
                    // Left-associative, but a comparison takes no
                    // comparison operand on either side.
                    let left = if own == COMPARISON { own + 1 } else { own };
                    self.expr(f, *lhs, left)?;
                    write!(f, " {op} ")?;
                    self.expr(f, *rhs, own + 1)?;
                }
            }
            HirExpr::Call { function, args } => {
                write!(f, "{function}")?;
                self.list(f, "(", *args, ")")?;
            }
            HirExpr::Select {
                cond,
                then_value,
                else_value,
            } => {
                write!(f, "if ")?;
                self.expr(f, *cond, SELECT)?;
                write!(f, " then ")?;
                self.expr(f, *then_value, SELECT)?;
                write!(f, " else ")?;
                self.expr(f, *else_value, SELECT)?;
            }
        }
        if own < at {
            write!(f, ")")?;
        }
        Ok(())
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
    pub body: List<StmtId>,
}

/// A statement. Its sub-expressions and nested statements are ids into
/// the program's pools.
#[derive(Debug, Clone, PartialEq)]
pub enum HirStmt {
    /// Scalar binding.
    Let {
        /// Bound name.
        name: Name,
        /// Bound value.
        value: ExprId,
    },
    /// I-structure array allocation.
    Alloc {
        /// Array name.
        name: Name,
        /// Dimension extents.
        dims: List<ExprId>,
    },
    /// I-structure element write.
    Store {
        /// Array name.
        array: Name,
        /// Element indices.
        indices: List<ExprId>,
        /// Stored value.
        value: ExprId,
    },
    /// Counted loop (inclusive bounds).
    For {
        /// Loop variable.
        var: Name,
        /// Initial index.
        from: ExprId,
        /// Final index (inclusive).
        to: ExprId,
        /// `true` for descending loops.
        descending: bool,
        /// Loop body.
        body: List<StmtId>,
    },
    /// Conditional statement.
    If {
        /// Condition.
        cond: ExprId,
        /// Statements when the condition holds.
        then_body: List<StmtId>,
        /// Statements otherwise.
        else_body: List<StmtId>,
    },
    /// Function result.
    Return {
        /// The returned value.
        value: ExprId,
    },
    /// A user-function call executed for effect (its result is discarded).
    Call {
        /// Callee name.
        function: Name,
        /// Arguments.
        args: List<ExprId>,
    },
}

/// An expression. Its operands are ids into the program's pools.
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
        indices: List<ExprId>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: ExprId,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// User-function call.
    Call {
        /// Callee name.
        function: Name,
        /// Arguments.
        args: List<ExprId>,
    },
    /// Conditional expression.
    Select {
        /// Condition.
        cond: ExprId,
        /// Value when the condition holds.
        then_value: ExprId,
        /// Value otherwise.
        else_value: ExprId,
    },
}

/// A node [`HirProgram::walk`] meets: a statement or an expression.
#[derive(Debug, Clone, Copy)]
pub enum HirNode<'a> {
    /// A statement.
    Stmt(&'a HirStmt),
    /// An expression.
    Expr(&'a HirExpr),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_hir(src: &str) -> HirProgram {
        crate::parser::parse(src).unwrap().0
    }

    /// The statements of `list`.
    fn stmts(hir: &HirProgram, list: List<StmtId>) -> Vec<&HirStmt> {
        hir.stmts(list).map(|id| hir.stmt(id)).collect()
    }

    /// The statements of `main`'s body.
    fn main_body(hir: &HirProgram) -> Vec<&HirStmt> {
        stmts(hir, hir.function("main").unwrap().body)
    }

    /// The value a `let` or `return` statement computes.
    fn value<'a>(hir: &'a HirProgram, stmt: &HirStmt) -> &'a HirExpr {
        match stmt {
            HirStmt::Let { value, .. } | HirStmt::Return { value } => hir.expr(*value),
            other => panic!("no value in {other:?}"),
        }
    }

    #[test]
    fn nodes_fit_their_size_budget() {
        // The pools grow by doubling, so every byte of a node is paid for
        // about twice; the ids are `u32` so that a node stays this small.
        assert!(std::mem::size_of::<HirExpr>() <= 32);
        assert!(std::mem::size_of::<HirStmt>() <= 40);
        assert_eq!(std::mem::size_of::<List<ExprId>>(), 8);
    }

    #[test]
    fn builtins_become_operators() {
        let hir = parse_hir("def main(x) { a = sqrt(x); b = min(x, 2); return pow(a, b); }");
        let body = main_body(&hir);
        assert!(matches!(
            value(&hir, body[0]),
            HirExpr::Unary {
                op: UnaryOp::Sqrt,
                ..
            }
        ));
        assert!(matches!(
            value(&hir, body[1]),
            HirExpr::Binary {
                op: BinaryOp::Min,
                ..
            }
        ));
        assert!(matches!(
            value(&hir, body[2]),
            HirExpr::Binary {
                op: BinaryOp::Pow,
                ..
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
            value(&hir, main_body(&hir)[0]),
            HirExpr::Call { function, args } if function == "f" && args.len() == 2
        ));
        assert!(hir.entry().is_some());
    }

    #[test]
    fn children_come_before_their_parents_and_lists_are_ranges_of_one_pool() {
        let hir = parse_hir("def main(a, i) { x = a[i, i + 1]; return f(x, 2); }");
        assert_eq!(
            hir.pool_lens(),
            [8, 2, 6],
            "8 expressions, 2 statements, 3 lists"
        );
        let body = main_body(&hir);
        let HirExpr::Load { indices, .. } = value(&hir, body[0]) else {
            panic!("a load")
        };
        let ids: Vec<ExprId> = hir.exprs(*indices).collect();
        assert!(matches!(hir.expr(ids[0]), HirExpr::Var(name) if name == "i"));
        assert!(matches!(
            hir.expr(ids[1]),
            HirExpr::Binary {
                op: BinaryOp::Add,
                ..
            }
        ));
        assert!(ids[0].index() < ids[1].index());
    }

    #[test]
    fn programs_can_be_built_by_hand() {
        let mut hir = HirProgram::default();
        let n = hir.add_expr(HirExpr::Var("n".into()));
        let one = hir.add_expr(HirExpr::Int(1));
        let sum = hir.add_expr(HirExpr::Binary {
            op: BinaryOp::Add,
            lhs: n,
            rhs: one,
        });
        let ret = hir.add_stmt(HirStmt::Return { value: sum });
        let body = hir.add_stmts([ret]);
        hir.functions.push(HirFunction {
            name: "main".into(),
            params: vec!["n".into()],
            body,
        });
        assert_eq!(hir.to_string(), "def main(n) {\n    return n + 1;\n}\n");
        assert_eq!(crate::compile(&hir.to_string()).unwrap(), hir);
    }

    #[test]
    fn free_vars_are_collected_once() {
        let hir = parse_hir("def main(a, i) { return a[i, i] + i; }");
        let HirStmt::Return { value } = main_body(&hir)[0] else {
            panic!("a return")
        };
        let mut vars = Vec::new();
        hir.free_vars(*value, &mut vars);
        assert_eq!(vars, vec!["a".to_string(), "i".to_string()]);
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
        hir.collect_free_vars(hir.function("main").unwrap().body, &mut free);
        // `i` and `t` are defined only inside the first loop, `y` in both
        // arms of the branch, `x` and `z` in one arm each.
        assert_eq!(free, ["n", "a", "b", "t", "i", "x", "z"]);
    }

    #[test]
    fn walk_visits_each_statement_before_its_expressions_and_nested_statements() {
        let hir = parse_hir(
            "def main(n, a) {
                 for i = 0 to n { a[i] = f(i + 1); }
                 if n > 0 { g(n); }
                 return n;
             }",
        );
        let mut seen = Vec::new();
        hir.walk(hir.function("main").unwrap().body, &mut |node| {
            seen.push(match node {
                HirNode::Stmt(HirStmt::For { .. }) => "for".to_string(),
                HirNode::Stmt(HirStmt::Store { .. }) => "store".to_string(),
                HirNode::Stmt(HirStmt::If { .. }) => "if".to_string(),
                HirNode::Stmt(HirStmt::Call { .. }) => "call".to_string(),
                HirNode::Stmt(HirStmt::Return { .. }) => "return".to_string(),
                HirNode::Expr(HirExpr::Var(name)) => name.to_string(),
                HirNode::Expr(HirExpr::Int(value)) => value.to_string(),
                HirNode::Expr(HirExpr::Binary { op, .. }) => op.to_string(),
                HirNode::Expr(HirExpr::Call { function, .. }) => format!("{function}()"),
                other => panic!("unexpected {other:?}"),
            });
        });
        assert_eq!(
            seen,
            [
                "for", "0", "n", "store", "i", "f()", "+", "i", "1", "if", ">", "n", "0", "call",
                "n", "return", "n"
            ]
        );
    }

    #[test]
    fn loops_and_stores_lower_structurally() {
        let hir =
            parse_hir("def main() { a = array(4); for i = 0 to 3 { a[i] = i * 2; } return a; }");
        let body = main_body(&hir);
        assert!(matches!(body[0], HirStmt::Alloc { dims, .. } if dims.len() == 1));
        match body[1] {
            HirStmt::For {
                body, descending, ..
            } => {
                assert!(!descending);
                assert!(matches!(stmts(&hir, *body)[0], HirStmt::Store { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn printing_keeps_what_precedence_needs_and_compiles_back() {
        let src = "def main(a, b, n) {
    m = tensor(2, 2, n);
    x = (a + b) * -(a - b) - (a - (b - 1)) / 2.5e-7;
    y = not a > b and (a < b or a == b);
    z = if (if y then a else b) > 0 then sqrt(-a) else min(a, pow(b, 2)) + 1;
    for i = n downto 0 {
        m[0, 1, i] = f(i, a % 3);
        if i == 0 {
            g(m);
        } else {
            if z != 1 {
                w = 1;
            } else {
                w = --z;
            }
        }
    }
    return x + z;
}

def f(p, q) {
    return p * q;
}

def g(m) {
    return m[0, 0, 0];
}
";
        let hir = crate::compile(src).unwrap();
        assert_eq!(hir.to_string(), src);
        assert_eq!(crate::compile(&hir.to_string()).unwrap(), hir);
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
