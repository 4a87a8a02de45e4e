//! Recursive-descent parser for `idlang`: source text straight to the HIR.
//!
//! The parser builds the [`HirProgram`] itself, turning a call of a
//! built-in of the right arity into its operator; a call of a built-in with
//! the wrong arity stays a [`HirExpr::Call`], which [`crate::sema`]
//! reports. The HIR carries no spans: they live beside it, in [`Spans`].

use crate::error::CompileError;
use crate::hir::{
    BinaryOp, HirExpr, HirFunction, HirProgram, HirStmt, UnaryOp, BINARY_BUILTINS, UNARY_BUILTINS,
};
use crate::lexer::Lexer;
use crate::name::Name;
use crate::token::{Span, Token, TokenKind};

/// The source spans of a parsed program, kept beside its HIR: each
/// function's `def` span, and one span per statement and per `Var`, `Load`
/// and `Call` expression, in preorder — a node before its children, the
/// children in source order — which is the order [`crate::sema`] walks the
/// HIR in. Operator nodes have none, since no diagnostic points at one.
#[derive(Debug, Default)]
pub(crate) struct Spans {
    /// Per function, in source order: its `def` span and the end of its
    /// node spans in `nodes`.
    functions: Vec<(Span, usize)>,
    /// The node spans of every function, function after function.
    nodes: Vec<Span>,
}

impl Spans {
    /// Function `index`'s `def` span and its node spans in preorder.
    pub(crate) fn function(&self, index: usize) -> (Span, &[Span]) {
        let (def, end) = self.functions[index];
        let start = index.checked_sub(1).map_or(0, |i| self.functions[i].1);
        (def, &self.nodes[start..end])
    }
}

/// Parses source text into the HIR and the spans beside it.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered. A lexical error
/// anywhere in the source wins over a syntax error before it, as if the
/// whole source were lexed first.
pub(crate) fn parse(source: &str) -> Result<(HirProgram, Spans), CompileError> {
    let mut parser = Parser::new(Lexer::new(source));
    let parsed = parser.program();
    // The parser stops at its first error: lex the rest, so that the first
    // lexical error of the source is the one reported.
    if let Some(Err(e)) = parser.lexer.find(Result::is_err) {
        return Err(e);
    }
    match parser.lex_error.take() {
        Some(e) => Err(e),
        None => parsed.map(|program| (program, parser.spans)),
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
    spans: Spans,
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
            spans: Spans::default(),
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

    /// Reserves the span slot of a node whose span is known only once its
    /// children, whose spans follow it, are parsed.
    fn reserve_span(&mut self) -> usize {
        self.spans.nodes.push(Span::default());
        self.spans.nodes.len() - 1
    }

    fn program(&mut self) -> Result<HirProgram, CompileError> {
        let mut functions = Vec::new();
        while !self.at(&TokenKind::Eof) {
            functions.push(self.function()?);
        }
        Ok(HirProgram { functions })
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
        let end = self.spans.nodes.len();
        self.spans.functions.push((def.span.merge(name_span), end));
        Ok(HirFunction { name, params, body })
    }

    fn block(&mut self) -> Result<Vec<HirStmt>, CompileError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(CompileError::parse(
                    "unexpected end of input inside block (missing `}`)",
                    self.peek().span,
                ));
            }
            stmts.push(self.statement()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<HirStmt, CompileError> {
        let slot = self.reserve_span();
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
        self.spans.nodes[slot] = span;
        Ok(stmt)
    }

    /// Parses `name = expr;`, `name = array(...);`, `name[...] = expr;`, or a
    /// call-for-effect `name(args);`, with the statement's span.
    fn binding_stmt(&mut self) -> Result<(HirStmt, Span), CompileError> {
        let (name, start) = self.expect_ident()?;
        if self.at(&TokenKind::LParen) {
            let (args, _) = self.list(TokenKind::LParen, TokenKind::RParen, true)?;
            let end = self.expect(TokenKind::Semicolon)?.span;
            let call = HirStmt::Call {
                function: name,
                args,
            };
            return Ok((call, start.merge(end)));
        }
        if self.at(&TokenKind::LBracket) {
            let (indices, _) = self.list(TokenKind::LBracket, TokenKind::RBracket, false)?;
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
                let (dims, _) = self.list(TokenKind::LParen, TokenKind::RParen, false)?;
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

    /// Parses `open`, then expressions separated by commas, then `close`,
    /// returning the expressions and the span of `close`.
    fn list(
        &mut self,
        open: TokenKind,
        close: TokenKind,
        may_be_empty: bool,
    ) -> Result<(Vec<HirExpr>, Span), CompileError> {
        self.expect(open)?;
        let mut items = Vec::new();
        if !(may_be_empty && self.at(&close)) {
            loop {
                items.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(close)?.span;
        Ok((items, end))
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
                vec![self.statement()?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        let stmt = HirStmt::If {
            cond,
            then_body,
            else_body,
        };
        Ok((stmt, start))
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<HirExpr, CompileError> {
        if self.eat(&TokenKind::If) {
            // Conditional expression: `if c then a else b`.
            let cond = self.expr()?;
            self.expect(TokenKind::Then)?;
            let then_value = self.expr()?;
            self.expect(TokenKind::Else)?;
            let else_value = self.expr()?;
            return Ok(HirExpr::Select {
                cond: Box::new(cond),
                then_value: Box::new(then_value),
                else_value: Box::new(else_value),
            });
        }
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<HirExpr, CompileError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::Or) {
            lhs = binary(BinaryOp::Or, lhs, self.and_expr()?);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<HirExpr, CompileError> {
        let mut lhs = self.not_expr()?;
        while self.eat(&TokenKind::And) {
            lhs = binary(BinaryOp::And, lhs, self.not_expr()?);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<HirExpr, CompileError> {
        if self.eat(&TokenKind::Not) {
            return Ok(unary(UnaryOp::Not, self.not_expr()?));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<HirExpr, CompileError> {
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
        Ok(binary(op, lhs, self.additive()?))
    }

    fn additive(&mut self) -> Result<HirExpr, CompileError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            lhs = binary(op, lhs, self.multiplicative()?);
        }
    }

    fn multiplicative(&mut self) -> Result<HirExpr, CompileError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Rem,
                _ => return Ok(lhs),
            };
            self.bump();
            lhs = binary(op, lhs, self.unary()?);
        }
    }

    fn unary(&mut self) -> Result<HirExpr, CompileError> {
        if self.eat(&TokenKind::Minus) {
            return Ok(unary(UnaryOp::Neg, self.unary()?));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<HirExpr, CompileError> {
        let token = self.bump();
        match token.kind {
            TokenKind::Int(v) => Ok(HirExpr::Int(v)),
            TokenKind::Float(v) => Ok(HirExpr::Float(v)),
            TokenKind::True => Ok(HirExpr::Bool(true)),
            TokenKind::False => Ok(HirExpr::Bool(false)),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) if self.at(&TokenKind::LParen) => self.call(name, token.span),
            TokenKind::Ident(array) if self.at(&TokenKind::LBracket) => {
                let slot = self.reserve_span();
                let (indices, end) = self.list(TokenKind::LBracket, TokenKind::RBracket, false)?;
                self.spans.nodes[slot] = token.span.merge(end);
                Ok(HirExpr::Load { array, indices })
            }
            TokenKind::Ident(name) => {
                self.spans.nodes.push(token.span);
                Ok(HirExpr::Var(name))
            }
            other => Err(CompileError::parse(
                format!("expected an expression, found {}", other.describe()),
                token.span,
            )),
        }
    }

    /// Parses the arguments of a call of `function`, whose name spans
    /// `start`. A built-in of the right arity becomes its operator, which
    /// has no span; anything else stays a call.
    fn call(&mut self, function: Name, start: Span) -> Result<HirExpr, CompileError> {
        let unary_op = UNARY_BUILTINS.iter().find(|(n, _)| *n == function);
        let binary_op = BINARY_BUILTINS.iter().find(|(n, _)| *n == function);
        let builtin = unary_op.is_some() || binary_op.is_some();
        let slot = self.spans.nodes.len();
        if !builtin {
            self.reserve_span();
        }
        let (mut args, end) = self.list(TokenKind::LParen, TokenKind::RParen, true)?;
        match (unary_op, binary_op, args.len()) {
            (Some(&(_, op)), _, 1) => return Ok(unary(op, args.pop().expect("one argument"))),
            (_, Some(&(_, op)), 2) => {
                let rhs = args.pop().expect("two arguments");
                return Ok(binary(op, args.pop().expect("two arguments"), rhs));
            }
            _ => {}
        }
        let span = start.merge(end);
        if builtin {
            // A built-in of the wrong arity: `sema` reports it at this span.
            self.spans.nodes.insert(slot, span);
        } else {
            self.spans.nodes[slot] = span;
        }
        Ok(HirExpr::Call { function, args })
    }
}

fn unary(op: UnaryOp, operand: HirExpr) -> HirExpr {
    HirExpr::Unary {
        op,
        operand: Box::new(operand),
    }
}

fn binary(op: BinaryOp, lhs: HirExpr, rhs: HirExpr) -> HirExpr {
    HirExpr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> HirProgram {
        parse(src).unwrap().0
    }

    fn main_body(program: &HirProgram) -> &[HirStmt] {
        &program.function("main").unwrap().body
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
        assert!(matches!(&main[0], HirStmt::Alloc { dims, .. } if dims.len() == 2));
        assert!(matches!(
            &main[1],
            HirStmt::For {
                descending: false,
                ..
            }
        ));
    }

    #[test]
    fn records_a_span_per_statement_variable_load_and_call_in_preorder() {
        let src =
            "def main(a) {\n  x = -a[1] + f(a, 2) * 3;\n  return x;\n}\ndef f(p, q) { return p; }";
        let (_, spans) = parse(src).unwrap();
        let (def, nodes) = spans.function(0);
        assert_eq!((def.start, def.end), (0, 8));
        let text: Vec<&str> = nodes.iter().map(|s| &src[s.start..s.end]).collect();
        assert_eq!(
            text,
            [
                "x = -a[1] + f(a, 2) * 3;",
                "a[1]",
                "f(a, 2)",
                "a",
                "return x;",
                "x"
            ]
        );
        let (def, nodes) = spans.function(1);
        let text: Vec<&str> = nodes.iter().map(|s| &src[s.start..s.end]).collect();
        assert_eq!(
            (&src[def.start..def.end], text),
            ("def f", vec!["return p;", "p"])
        );
    }

    #[test]
    fn parses_descending_loops() {
        let p = parse_ok("def main() { for i = 9 downto 0 { x = i; } return 0; }");
        assert!(matches!(
            &main_body(&p)[0],
            HirStmt::For {
                descending: true,
                ..
            }
        ));
    }

    #[test]
    fn operator_precedence_is_conventional() {
        let p = parse_ok("def main() { x = 1 + 2 * 3; return x; }");
        match &main_body(&p)[0] {
            HirStmt::Let {
                value:
                    HirExpr::Binary {
                        op: BinaryOp::Add,
                        rhs,
                        ..
                    },
                ..
            } => assert!(matches!(
                **rhs,
                HirExpr::Binary {
                    op: BinaryOp::Mul,
                    ..
                }
            )),
            other => panic!("expected a let of a sum, got {other:?}"),
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
        assert!(matches!(
            &body[0],
            HirStmt::Let {
                value: HirExpr::Select { .. },
                ..
            }
        ));
        match &body[1] {
            HirStmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(&else_body[0], HirStmt::If { .. }));
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
        assert!(matches!(&main_body(&p)[0], HirStmt::Alloc { dims, .. } if dims.len() == 3));
        let p =
            parse_ok("def main() { t = tensor(2, 2, 2, 2, 3); t[1, 0, 1, 1, 2] = 5; return t; }");
        assert!(matches!(&main_body(&p)[0], HirStmt::Alloc { dims, .. } if dims.len() == 5));
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
        match &main_body(&p)[0] {
            HirStmt::Let {
                value: HirExpr::Call { args, .. },
                ..
            } => assert!(args.is_empty()),
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
        assert!(matches!(
            &main_body(&p)[0],
            HirStmt::Let {
                value: HirExpr::Unary {
                    op: UnaryOp::Sqrt,
                    ..
                },
                ..
            }
        ));
        assert!(matches!(
            &main_body(&p)[1],
            HirStmt::Return {
                value: HirExpr::Call { function, args }
            } if function == "min" && args.len() == 1
        ));
    }
}
