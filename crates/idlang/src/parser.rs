//! Recursive-descent parser for `idlang`: source text straight to the HIR.
//!
//! The parser builds the [`HirProgram`] itself, turning a call of a
//! built-in of the right arity into its operator; a call of a built-in with
//! the wrong arity stays a [`HirExpr::Call`], which [`crate::sema`]
//! reports. A node goes into its program's pool once its children are
//! parsed, so children get lower ids than their parent. The ids of an
//! open list (a block's statements, a call's arguments, a `Load`'s
//! indices) wait on one scratch stack, shared by every open list, innermost
//! last, and are copied into the program's id pool when the list closes:
//! parsing allocates per pool, not per node. The HIR carries no spans:
//! they live beside it, in [`Spans`], indexed by the same ids.

use crate::error::CompileError;
use crate::hir::{
    BinaryOp, ExprId, HirExpr, HirFunction, HirProgram, HirStmt, List, StmtId, UnaryOp,
    BINARY_BUILTINS, UNARY_BUILTINS,
};
use crate::lexer::Lexer;
use crate::name::Name;
use crate::token::{Span, Token, TokenKind};

/// A source span as the span tables keep it, in twelve bytes; it is
/// widened to a [`Span`] only when a diagnostic reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedSpan {
    start: u32,
    end: u32,
    line: u32,
}

impl PackedSpan {
    fn new(span: Span) -> Self {
        let narrow =
            |offset: usize| u32::try_from(offset).expect("the parser takes sources under 4 GiB");
        PackedSpan {
            start: narrow(span.start),
            end: narrow(span.end),
            line: span.line,
        }
    }

    fn widen(self) -> Span {
        Span::new(self.start as usize, self.end as usize, self.line)
    }
}

/// The source spans of a parsed program, kept beside its HIR and indexed
/// like its pools: one per expression (by [`ExprId`]), one per statement
/// (by [`StmtId`]), and each function's `def` span (by its index).
#[derive(Debug, Default)]
pub(crate) struct Spans {
    functions: Vec<PackedSpan>,
    exprs: Vec<PackedSpan>,
    stmts: Vec<PackedSpan>,
}

impl Spans {
    /// Function `index`'s `def` span.
    pub(crate) fn function(&self, index: usize) -> Span {
        self.functions[index].widen()
    }

    /// The span of expression `id`.
    pub(crate) fn expr(&self, id: ExprId) -> Span {
        self.exprs[id.index()].widen()
    }

    /// The span of statement `id`.
    pub(crate) fn stmt(&self, id: StmtId) -> Span {
        self.stmts[id.index()].widen()
    }
}

/// Parses source text into the HIR and the spans beside it.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered. A lexical error
/// anywhere in the source wins over a syntax error before it, as if the
/// whole source were lexed first. A source of 4 GiB or more is rejected
/// before it is lexed, since its offsets and node ids would not fit the
/// `u32` fields that hold them.
pub(crate) fn parse(source: &str) -> Result<(HirProgram, Spans), CompileError> {
    if u32::try_from(source.len()).is_err() {
        return Err(CompileError::lex(
            format!("a source of {} bytes is over the 4 GiB limit", source.len()),
            Span::default(),
        ));
    }
    let mut parser = Parser::new(Lexer::new(source));
    let parsed = parser.program();
    // The parser stops at its first error: lex the rest, so that the first
    // lexical error of the source is the one reported.
    if let Some(Err(e)) = parser.lexer.find(Result::is_err) {
        return Err(e);
    }
    match parser.lex_error.take() {
        Some(e) => Err(e),
        None => parsed.map(|()| (parser.program, parser.spans)),
    }
}

/// A recursive-descent parser over a two-token window of the lexer's
/// stream: the grammar looks at most two tokens ahead.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token and the one after it.
    window: [Token; 2],
    /// The lexer's error, if it failed: the stream reads as ended from
    /// there, and [`parse`] reports this error.
    lex_error: Option<CompileError>,
    program: HirProgram,
    spans: Spans,
    /// The child ids of the lists being parsed, innermost last.
    open: Vec<u32>,
}

impl<'a> Parser<'a> {
    fn new(lexer: Lexer<'a>) -> Self {
        let eof = Token {
            kind: TokenKind::Eof,
            span: Span::default(),
        };
        let mut parser = Parser {
            lexer,
            window: [eof.clone(), eof],
            lex_error: None,
            program: HirProgram::default(),
            spans: Spans::default(),
            open: Vec::new(),
        };
        parser.window = [parser.pull(), parser.pull()];
        parser
    }

    /// The lexer's next token. Past the end of the stream, or after a
    /// lexical error, this is an `Eof` token.
    fn pull(&mut self) -> Token {
        match self.lexer.next() {
            Some(Ok(token)) => return token,
            Some(Err(e)) => self.lex_error = Some(e),
            None => {}
        }
        Token {
            kind: TokenKind::Eof,
            span: self.window[1].span,
        }
    }

    fn peek(&self) -> &Token {
        &self.window[0]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        &self.window[1].kind
    }

    fn bump(&mut self) -> Token {
        if self.window[0].kind == TokenKind::Eof {
            return self.window[0].clone();
        }
        let next = self.pull();
        let second = std::mem::replace(&mut self.window[1], next);
        std::mem::replace(&mut self.window[0], second)
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, CompileError> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(CompileError::parse(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek_kind().describe()
                ),
                self.peek().span,
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(Name, Span), CompileError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let span = self.bump().span;
                Ok((name, span))
            }
            other => Err(CompileError::parse(
                format!("expected identifier, found {}", other.describe()),
                self.peek().span,
            )),
        }
    }

    /// Adds an expression and its span.
    fn expr_node(&mut self, expr: HirExpr, span: Span) -> ExprId {
        self.spans.exprs.push(PackedSpan::new(span));
        self.program.add_expr(expr)
    }

    /// Adds a statement and its span.
    fn stmt_node(&mut self, stmt: HirStmt, span: Span) -> StmtId {
        self.spans.stmts.push(PackedSpan::new(span));
        self.program.add_stmt(stmt)
    }

    /// The span from the start of expression `first` to the end of `last`.
    fn covering(&self, first: ExprId, last: ExprId) -> Span {
        self.spans.expr(first).merge(self.spans.expr(last))
    }

    /// Takes the last argument off the scratch stack as an operand.
    fn pop_operand(&mut self) -> ExprId {
        ExprId(self.open.pop().expect("a parsed argument"))
    }

    /// Closes the list whose ids sit on the scratch stack above `mark`.
    fn close_list<T>(&mut self, mark: usize) -> List<T> {
        self.program.add_list(self.open.drain(mark..))
    }

    fn program(&mut self) -> Result<(), CompileError> {
        while !self.at(&TokenKind::Eof) {
            let function = self.function()?;
            self.program.functions.push(function);
        }
        Ok(())
    }

    fn function(&mut self) -> Result<HirFunction, CompileError> {
        let def = self.expect(TokenKind::Def)?;
        let (name, name_span) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let (p, _) = self.expect_ident()?;
                params.push(p);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let def = PackedSpan::new(def.span.merge(name_span));
        self.spans.functions.push(def);
        Ok(HirFunction { name, params, body })
    }

    fn block(&mut self) -> Result<List<StmtId>, CompileError> {
        self.expect(TokenKind::LBrace)?;
        let mark = self.open.len();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(CompileError::parse(
                    "unexpected end of input inside block (missing `}`)",
                    self.peek().span,
                ));
            }
            let stmt = self.statement()?;
            self.open.push(stmt.0);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(self.close_list(mark))
    }

    fn statement(&mut self) -> Result<StmtId, CompileError> {
        let (stmt, span) = match self.peek_kind().clone() {
            TokenKind::For => self.for_stmt()?,
            TokenKind::If => self.if_stmt()?,
            TokenKind::Return => {
                let start = self.bump().span;
                let value = self.expr()?;
                let end = self.expect(TokenKind::Semicolon)?.span;
                (HirStmt::Return { value }, start.merge(end))
            }
            TokenKind::Let => {
                self.bump();
                self.binding_stmt()?
            }
            TokenKind::Ident(_) => self.binding_stmt()?,
            other => {
                return Err(CompileError::parse(
                    format!("expected a statement, found {}", other.describe()),
                    self.peek().span,
                ))
            }
        };
        Ok(self.stmt_node(stmt, span))
    }

    /// Parses `name = expr;`, `name = array(...);`, `name[...] = expr;`, or a
    /// call-for-effect `name(args);`, with the statement's span.
    fn binding_stmt(&mut self) -> Result<(HirStmt, Span), CompileError> {
        let (name, start) = self.expect_ident()?;
        if self.at(&TokenKind::LParen) {
            let (mark, _) = self.list(TokenKind::LParen, TokenKind::RParen, true)?;
            let args = self.close_list(mark);
            let end = self.expect(TokenKind::Semicolon)?.span;
            let call = HirStmt::Call {
                function: name,
                args,
            };
            return Ok((call, start.merge(end)));
        }
        if self.at(&TokenKind::LBracket) {
            let (mark, _) = self.list(TokenKind::LBracket, TokenKind::RBracket, false)?;
            let indices = self.close_list(mark);
            self.expect(TokenKind::Assign)?;
            let value = self.expr()?;
            let end = self.expect(TokenKind::Semicolon)?.span;
            let store = HirStmt::Store {
                array: name,
                indices,
                value,
            };
            return Ok((store, start.merge(end)));
        }
        self.expect(TokenKind::Assign)?;
        // Array allocations are recognised syntactically by their callee name.
        if let TokenKind::Ident(callee) = self.peek_kind().clone() {
            if matches!(callee.as_str(), "array" | "matrix" | "tensor")
                && *self.peek2_kind() == TokenKind::LParen
            {
                self.bump(); // callee
                let (mark, _) = self.list(TokenKind::LParen, TokenKind::RParen, false)?;
                let dims = self.close_list::<ExprId>(mark);
                let end = self.expect(TokenKind::Semicolon)?.span;
                // `tensor` is the rank-3-and-up form: nothing after the
                // parser depends on a maximum rank.
                let (expected, arity_ok) = match callee.as_str() {
                    "array" => ("1", dims.len() == 1),
                    "matrix" => ("2", dims.len() == 2),
                    _ => ("3 or more", dims.len() >= 3),
                };
                if !arity_ok {
                    return Err(CompileError::parse(
                        format!(
                            "`{callee}` takes {expected} dimension argument(s), found {}",
                            dims.len()
                        ),
                        start,
                    ));
                }
                return Ok((HirStmt::Alloc { name, dims }, start.merge(end)));
            }
        }
        let value = self.expr()?;
        let end = self.expect(TokenKind::Semicolon)?.span;
        Ok((HirStmt::Let { name, value }, start.merge(end)))
    }

    /// Parses `open`, then expressions separated by commas, then `close`.
    /// The expressions' ids are left on the scratch stack above the
    /// returned mark, for the caller to close as a list or take as
    /// operands; the span returned is that of `close`.
    fn list(
        &mut self,
        open: TokenKind,
        close: TokenKind,
        may_be_empty: bool,
    ) -> Result<(usize, Span), CompileError> {
        self.expect(open)?;
        let mark = self.open.len();
        if !(may_be_empty && self.at(&close)) {
            loop {
                let item = self.expr()?;
                self.open.push(item.0);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(close)?.span;
        Ok((mark, end))
    }

    fn for_stmt(&mut self) -> Result<(HirStmt, Span), CompileError> {
        let start = self.expect(TokenKind::For)?.span;
        let (var, _) = self.expect_ident()?;
        self.expect(TokenKind::Assign)?;
        let from = self.expr()?;
        let descending = if self.eat(&TokenKind::To) {
            false
        } else if self.eat(&TokenKind::Downto) {
            true
        } else {
            return Err(CompileError::parse(
                format!(
                    "expected `to` or `downto`, found {}",
                    self.peek_kind().describe()
                ),
                self.peek().span,
            ));
        };
        let to = self.expr()?;
        let body = self.block()?;
        let stmt = HirStmt::For {
            var,
            from,
            to,
            descending,
            body,
        };
        Ok((stmt, start))
    }

    fn if_stmt(&mut self) -> Result<(HirStmt, Span), CompileError> {
        let start = self.expect(TokenKind::If)?.span;
        let cond = self.expr()?;
        let then_body = self.block()?;
        let else_body = if self.eat(&TokenKind::Else) {
            if self.at(&TokenKind::If) {
                // `else if` chains desugar into a nested if statement.
                let nested = self.statement()?;
                self.program.add_stmts([nested])
            } else {
                self.block()?
            }
        } else {
            List::EMPTY
        };
        let stmt = HirStmt::If {
            cond,
            then_body,
            else_body,
        };
        Ok((stmt, start))
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<ExprId, CompileError> {
        if self.at(&TokenKind::If) {
            // Conditional expression: `if c then a else b`.
            let start = self.bump().span;
            let cond = self.expr()?;
            self.expect(TokenKind::Then)?;
            let then_value = self.expr()?;
            self.expect(TokenKind::Else)?;
            let else_value = self.expr()?;
            let span = start.merge(self.spans.expr(else_value));
            let select = HirExpr::Select {
                cond,
                then_value,
                else_value,
            };
            return Ok(self.expr_node(select, span));
        }
        self.or_expr()
    }

    /// Adds `lhs op rhs`.
    fn binary(&mut self, op: BinaryOp, lhs: ExprId, rhs: ExprId) -> ExprId {
        let span = self.covering(lhs, rhs);
        self.expr_node(HirExpr::Binary { op, lhs, rhs }, span)
    }

    /// Adds `op operand`, the operator spanning `start`.
    fn unary(&mut self, op: UnaryOp, start: Span, operand: ExprId) -> ExprId {
        let span = start.merge(self.spans.expr(operand));
        self.expr_node(HirExpr::Unary { op, operand }, span)
    }

    fn or_expr(&mut self) -> Result<ExprId, CompileError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::Or) {
            let rhs = self.and_expr()?;
            lhs = self.binary(BinaryOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<ExprId, CompileError> {
        let mut lhs = self.not_expr()?;
        while self.eat(&TokenKind::And) {
            let rhs = self.not_expr()?;
            lhs = self.binary(BinaryOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<ExprId, CompileError> {
        if self.at(&TokenKind::Not) {
            let start = self.bump().span;
            let operand = self.not_expr()?;
            return Ok(self.unary(UnaryOp::Not, start, operand));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<ExprId, CompileError> {
        let lhs = self.additive()?;
        let op = match self.peek_kind() {
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::Ne => BinaryOp::Ne,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::Le => BinaryOp::Le,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::Ge => BinaryOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        Ok(self.binary(op, lhs, rhs))
    }

    fn additive(&mut self) -> Result<ExprId, CompileError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = self.binary(op, lhs, rhs);
        }
    }

    fn multiplicative(&mut self) -> Result<ExprId, CompileError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Rem,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = self.binary(op, lhs, rhs);
        }
    }

    fn unary_expr(&mut self) -> Result<ExprId, CompileError> {
        if self.at(&TokenKind::Minus) {
            let start = self.bump().span;
            let operand = self.unary_expr()?;
            return Ok(self.unary(UnaryOp::Neg, start, operand));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<ExprId, CompileError> {
        let token = self.bump();
        let literal = match token.kind {
            TokenKind::Int(v) => HirExpr::Int(v),
            TokenKind::Float(v) => HirExpr::Float(v),
            TokenKind::True => HirExpr::Bool(true),
            TokenKind::False => HirExpr::Bool(false),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                return Ok(e);
            }
            TokenKind::Ident(name) if self.at(&TokenKind::LParen) => {
                return self.call(name, token.span)
            }
            TokenKind::Ident(array) if self.at(&TokenKind::LBracket) => {
                let (mark, end) = self.list(TokenKind::LBracket, TokenKind::RBracket, false)?;
                let indices = self.close_list(mark);
                let load = HirExpr::Load { array, indices };
                return Ok(self.expr_node(load, token.span.merge(end)));
            }
            TokenKind::Ident(name) => HirExpr::Var(name),
            other => {
                return Err(CompileError::parse(
                    format!("expected an expression, found {}", other.describe()),
                    token.span,
                ))
            }
        };
        Ok(self.expr_node(literal, token.span))
    }

    /// Parses the arguments of a call of `function`, whose name spans
    /// `start`. A built-in of the right arity becomes its operator, its
    /// arguments the operands; anything else stays a call.
    fn call(&mut self, function: Name, start: Span) -> Result<ExprId, CompileError> {
        let unary_op = UNARY_BUILTINS.iter().find(|(n, _)| *n == function);
        let binary_op = BINARY_BUILTINS.iter().find(|(n, _)| *n == function);
        let (mark, end) = self.list(TokenKind::LParen, TokenKind::RParen, true)?;
        let call = match (unary_op, binary_op, self.open.len() - mark) {
            (Some(&(_, op)), _, 1) => HirExpr::Unary {
                op,
                operand: self.pop_operand(),
            },
            (_, Some(&(_, op)), 2) => {
                let rhs = self.pop_operand();
                HirExpr::Binary {
                    op,
                    lhs: self.pop_operand(),
                    rhs,
                }
            }
            // Anything else, a built-in of the wrong arity included: `sema`
            // reports that at this call's span.
            _ => HirExpr::Call {
                function,
                args: self.close_list(mark),
            },
        };
        Ok(self.expr_node(call, start.merge(end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> HirProgram {
        parse(src).unwrap().0
    }

    fn main_body(program: &HirProgram) -> Vec<&HirStmt> {
        let body = program.function("main").unwrap().body;
        program.stmts(body).map(|id| program.stmt(id)).collect()
    }

    /// The value a `let` or `return` statement computes.
    fn value<'a>(program: &'a HirProgram, stmt: &HirStmt) -> &'a HirExpr {
        match stmt {
            HirStmt::Let { value, .. } | HirStmt::Return { value } => program.expr(*value),
            other => panic!("no value in {other:?}"),
        }
    }

    #[test]
    fn parses_the_paper_example() {
        // The running example from §3 of the paper (zero-based here).
        let src = r#"
            def main() {
                a = matrix(50, 10);
                for i = 0 to 49 {
                    for j = 0 to 9 {
                        a[i, j] = f(i, j);
                    }
                }
                return a;
            }
            def f(i, j) {
                return i * 10 + j;
            }
        "#;
        let program = parse_ok(src);
        assert_eq!(program.functions.len(), 2);
        let main = main_body(&program);
        assert_eq!(main.len(), 3);
        assert!(matches!(main[0], HirStmt::Alloc { dims, .. } if dims.len() == 2));
        assert!(matches!(
            main[1],
            HirStmt::For {
                descending: false,
                ..
            }
        ));
    }

    #[test]
    fn records_a_span_per_node_indexed_by_its_id() {
        let src =
            "def main(a) {\n  x = -a[1] + f(a, 2) * 3;\n  return x;\n}\ndef f(p, q) { return p; }";
        let (program, spans) = parse(src).unwrap();
        let text = |span: Span| &src[span.start..span.end];
        assert_eq!(text(spans.function(0)), "def main");
        assert_eq!(text(spans.function(1)), "def f");
        let [exprs, stmts, _] = program.pool_lens();
        let exprs: Vec<&str> = (0..exprs as u32)
            .map(|id| text(spans.expr(ExprId(id))))
            .collect();
        assert_eq!(
            exprs,
            [
                "1",
                "a[1]",
                "-a[1]",
                "a",
                "2",
                "f(a, 2)",
                "3",
                "f(a, 2) * 3",
                "-a[1] + f(a, 2) * 3",
                "x",
                "p"
            ]
        );
        let stmts: Vec<&str> = (0..stmts as u32)
            .map(|id| text(spans.stmt(StmtId(id))))
            .collect();
        assert_eq!(
            stmts,
            ["x = -a[1] + f(a, 2) * 3;", "return x;", "return p;"]
        );
        assert_eq!(spans.stmt(StmtId(1)).line, 3);
    }

    #[test]
    fn packed_spans_are_twelve_bytes() {
        assert_eq!(std::mem::size_of::<PackedSpan>(), 12);
    }

    #[test]
    fn parses_descending_loops() {
        let p = parse_ok("def main() { for i = 9 downto 0 { x = i; } return 0; }");
        assert!(matches!(
            main_body(&p)[0],
            HirStmt::For {
                descending: true,
                ..
            }
        ));
    }

    #[test]
    fn operator_precedence_is_conventional() {
        let p = parse_ok("def main() { x = 1 + 2 * 3; return x; }");
        match value(&p, main_body(&p)[0]) {
            HirExpr::Binary {
                op: BinaryOp::Add,
                rhs,
                ..
            } => assert!(matches!(
                p.expr(*rhs),
                HirExpr::Binary {
                    op: BinaryOp::Mul,
                    ..
                }
            )),
            other => panic!("expected a sum, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_statement_and_expression() {
        let src = r#"
            def main(n) {
                y = if n > 0 then 1 else 2;
                if y == 1 {
                    z = 3;
                } else if y == 2 {
                    z = 4;
                } else {
                    z = 5;
                }
                return z;
            }
        "#;
        let p = parse_ok(src);
        let body = main_body(&p);
        assert!(matches!(value(&p, body[0]), HirExpr::Select { .. }));
        match body[1] {
            HirStmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                let nested = p.stmts(*else_body).next().unwrap();
                assert!(matches!(p.stmt(nested), HirStmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_logical_operators_and_unary() {
        let src = "def main(a, b) { x = not (a > 1) and b < 2 or a == b; y = -a; return x; }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn parses_tensor_allocations() {
        let p = parse_ok("def main() { t = tensor(2, 3, 4); t[0, 1, 2] = 5.0; return t; }");
        assert!(matches!(main_body(&p)[0], HirStmt::Alloc { dims, .. } if dims.len() == 3));
        let p =
            parse_ok("def main() { t = tensor(2, 2, 2, 2, 3); t[1, 0, 1, 1, 2] = 5; return t; }");
        assert!(matches!(main_body(&p)[0], HirStmt::Alloc { dims, .. } if dims.len() == 5));
    }

    #[test]
    fn rejects_wrong_allocation_arity() {
        assert!(parse("def main() { a = matrix(3); return a; }").is_err());
        assert!(parse("def main() { a = array(3, 4); return a; }").is_err());
        assert!(parse("def main() { a = tensor(3, 4); return a; }").is_err());
        assert!(parse("def main() { a = array(); return a; }").is_err());
    }

    #[test]
    fn rejects_missing_semicolon_and_brace() {
        assert!(parse("def main() { x = 1 return x; }").is_err());
        assert!(parse("def main() { x = 1;").is_err());
        assert!(parse("def main() { for i = 0 { } }").is_err());
    }

    #[test]
    fn call_with_no_arguments() {
        let p = parse_ok("def main() { x = g(); return x; } def g() { return 1; }");
        match value(&p, main_body(&p)[0]) {
            HirExpr::Call { args, .. } => assert!(args.is_empty()),
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn let_keyword_is_optional() {
        let a = parse_ok("def main() { let x = 1; return x; }");
        let b = parse_ok("def main() { x = 1; return x; }");
        assert_eq!(a, b);
    }

    #[test]
    fn builtin_calls_of_the_wrong_arity_stay_calls() {
        let p = parse_ok("def main(x) { a = sqrt(x); return min(x); }");
        let body = main_body(&p);
        assert!(matches!(
            value(&p, body[0]),
            HirExpr::Unary {
                op: UnaryOp::Sqrt,
                ..
            }
        ));
        assert!(matches!(
            value(&p, body[1]),
            HirExpr::Call { function, args } if function == "min" && args.len() == 1
        ));
    }
}
