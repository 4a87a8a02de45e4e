//! Recursive-descent parser for `idlang`.

use crate::ast::{BinOp, Expr, FunctionDef, Program, Stmt, UnOp};
use crate::error::CompileError;
use crate::lexer::Lexer;
use crate::name::Name;
use crate::token::{Span, Token, TokenKind};

/// Parses source text into an AST [`Program`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered. A lexical error
/// anywhere in the source wins over a syntax error before it, as if the
/// whole source were lexed first.
pub fn parse(source: &str) -> Result<Program, CompileError> {
    let mut parser = Parser::new(Lexer::new(source));
    let parsed = parser.program();
    // The parser stops at its first error: lex the rest, so that the first
    // lexical error of the source is the one reported.
    if let Some(Err(e)) = parser.lexer.find(Result::is_err) {
        return Err(e);
    }
    match parser.lex_error.take() {
        Some(e) => Err(e),
        None => parsed,
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

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut functions = Vec::new();
        while !self.at(&TokenKind::Eof) {
            functions.push(self.function()?);
        }
        Ok(Program { functions })
    }

    fn function(&mut self) -> Result<FunctionDef, CompileError> {
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
        Ok(FunctionDef {
            name,
            params,
            body,
            span: def.span.merge(name_span),
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
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

    fn statement(&mut self) -> Result<Stmt, CompileError> {
        match self.peek_kind().clone() {
            TokenKind::For => self.for_stmt(),
            TokenKind::If => self.if_stmt(),
            TokenKind::Return => {
                let start = self.bump().span;
                let value = self.expr()?;
                let end = self.expect(TokenKind::Semicolon)?.span;
                Ok(Stmt::Return {
                    value,
                    span: start.merge(end),
                })
            }
            TokenKind::Let => {
                self.bump();
                self.binding_stmt()
            }
            TokenKind::Ident(_) => self.binding_stmt(),
            other => Err(CompileError::parse(
                format!("expected a statement, found {}", other.describe()),
                self.peek().span,
            )),
        }
    }

    /// Parses `name = expr;`, `name = array(...);`, `name[...] = expr;`, or a
    /// call-for-effect `name(args);`.
    fn binding_stmt(&mut self) -> Result<Stmt, CompileError> {
        let (name, start) = self.expect_ident()?;
        if self.at(&TokenKind::LParen) {
            self.bump();
            let mut args = Vec::new();
            if !self.at(&TokenKind::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
            let end = self.expect(TokenKind::Semicolon)?.span;
            return Ok(Stmt::Call {
                function: name,
                args,
                span: start.merge(end),
            });
        }
        if self.at(&TokenKind::LBracket) {
            self.bump();
            let mut indices = Vec::new();
            loop {
                indices.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RBracket)?;
            self.expect(TokenKind::Assign)?;
            let value = self.expr()?;
            let end = self.expect(TokenKind::Semicolon)?.span;
            return Ok(Stmt::Store {
                array: name,
                indices,
                value,
                span: start.merge(end),
            });
        }
        self.expect(TokenKind::Assign)?;
        // Array allocations are recognised syntactically by their callee name.
        if let TokenKind::Ident(callee) = self.peek_kind().clone() {
            if matches!(callee.as_str(), "array" | "matrix" | "tensor")
                && *self.peek2_kind() == TokenKind::LParen
            {
                self.bump(); // callee
                self.bump(); // (
                let mut dims = Vec::new();
                loop {
                    dims.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen)?;
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
                return Ok(Stmt::Alloc {
                    name,
                    dims,
                    span: start.merge(end),
                });
            }
        }
        let value = self.expr()?;
        let end = self.expect(TokenKind::Semicolon)?.span;
        Ok(Stmt::Let {
            name,
            value,
            span: start.merge(end),
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, CompileError> {
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
        Ok(Stmt::For {
            var,
            from,
            to,
            descending,
            body,
            span: start,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, CompileError> {
        let start = self.expect(TokenKind::If)?.span;
        let cond = self.expr()?;
        let then_body = self.block()?;
        let else_body = if self.eat(&TokenKind::Else) {
            if self.at(&TokenKind::If) {
                // `else if` chains desugar into a nested if statement.
                vec![self.if_stmt()?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            span: start,
        })
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        if self.at(&TokenKind::If) {
            // Conditional expression: `if c then a else b`.
            let start = self.bump().span;
            let cond = self.expr()?;
            self.expect(TokenKind::Then)?;
            let then_value = self.expr()?;
            self.expect(TokenKind::Else)?;
            let else_value = self.expr()?;
            let span = start.merge(else_value.span());
            return Ok(Expr::Select {
                cond: Box::new(cond),
                then_value: Box::new(then_value),
                else_value: Box::new(else_value),
                span,
            });
        }
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.and_expr()?;
        while self.at(&TokenKind::Or) {
            self.bump();
            let rhs = self.and_expr()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.not_expr()?;
        while self.at(&TokenKind::And) {
            self.bump();
            let rhs = self.not_expr()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, CompileError> {
        if self.at(&TokenKind::Not) {
            let start = self.bump().span;
            let operand = self.not_expr()?;
            let span = start.merge(operand.span());
            return Ok(Expr::Unary {
                op: UnOp::Not,
                operand: Box::new(operand),
                span,
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.additive()?;
        let op = match self.peek_kind() {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::Ne => Some(BinOp::Ne),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.additive()?;
            let span = lhs.span().merge(rhs.span());
            Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            })
        } else {
            Ok(lhs)
        }
    }

    fn additive(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        if self.at(&TokenKind::Minus) {
            let start = self.bump().span;
            let operand = self.unary()?;
            let span = start.merge(operand.span());
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(operand),
                span,
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let token = self.peek().clone();
        match token.kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, token.span))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::Float(v, token.span))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::Bool(true, token.span))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::Bool(false, token.span))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    Ok(Expr::Call {
                        function: name,
                        args,
                        span: token.span.merge(end),
                    })
                } else if self.at(&TokenKind::LBracket) {
                    self.bump();
                    let mut indices = Vec::new();
                    loop {
                        indices.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    let end = self.expect(TokenKind::RBracket)?.span;
                    Ok(Expr::Index {
                        array: name,
                        indices,
                        span: token.span.merge(end),
                    })
                } else {
                    Ok(Expr::Var(name, token.span))
                }
            }
            other => Err(CompileError::parse(
                format!("expected an expression, found {}", other.describe()),
                token.span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let program = parse(src).unwrap();
        assert_eq!(program.functions.len(), 2);
        let main = program.function("main").unwrap();
        assert_eq!(main.body.len(), 3);
        assert!(matches!(&main.body[0], Stmt::Alloc { dims, .. } if dims.len() == 2));
        assert!(matches!(
            &main.body[1],
            Stmt::For {
                descending: false,
                ..
            }
        ));
    }

    #[test]
    fn parses_descending_loops() {
        let src = "def main() { for i = 9 downto 0 { x = i; } return 0; }";
        let p = parse(src).unwrap();
        match &p.function("main").unwrap().body[0] {
            Stmt::For { descending, .. } => assert!(descending),
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence_is_conventional() {
        let src = "def main() { x = 1 + 2 * 3; return x; }";
        let p = parse(src).unwrap();
        match &p.function("main").unwrap().body[0] {
            Stmt::Let { value, .. } => match value {
                Expr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("expected +, got {other:?}"),
            },
            other => panic!("expected let, got {other:?}"),
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
        let p = parse(src).unwrap();
        let body = &p.function("main").unwrap().body;
        assert!(matches!(
            &body[0],
            Stmt::Let {
                value: Expr::Select { .. },
                ..
            }
        ));
        match &body[1] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(&else_body[0], Stmt::If { .. }));
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
        let src = "def main() { t = tensor(2, 3, 4); t[0, 1, 2] = 5.0; return t; }";
        let p = parse(src).unwrap();
        assert!(
            matches!(&p.function("main").unwrap().body[0], Stmt::Alloc { dims, .. } if dims.len() == 3)
        );
        let src = "def main() { t = tensor(2, 2, 2, 2, 3); t[1, 0, 1, 1, 2] = 5; return t; }";
        let p = parse(src).unwrap();
        assert!(
            matches!(&p.function("main").unwrap().body[0], Stmt::Alloc { dims, .. } if dims.len() == 5)
        );
    }

    #[test]
    fn rejects_wrong_allocation_arity() {
        assert!(parse("def main() { a = matrix(3); return a; }").is_err());
        assert!(parse("def main() { a = array(3, 4); return a; }").is_err());
        assert!(parse("def main() { a = tensor(3, 4); return a; }").is_err());
    }

    #[test]
    fn rejects_missing_semicolon_and_brace() {
        assert!(parse("def main() { x = 1 return x; }").is_err());
        assert!(parse("def main() { x = 1;").is_err());
        assert!(parse("def main() { for i = 0 { } }").is_err());
    }

    #[test]
    fn call_with_no_arguments() {
        let p = parse("def main() { x = g(); return x; } def g() { return 1; }").unwrap();
        match &p.function("main").unwrap().body[0] {
            Stmt::Let {
                value: Expr::Call { args, .. },
                ..
            } => assert!(args.is_empty()),
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn let_keyword_is_optional() {
        let a = parse("def main() { let x = 1; return x; }").unwrap();
        let b = parse("def main() { x = 1; return x; }").unwrap();
        // Same structure apart from spans.
        assert_eq!(a.functions.len(), b.functions.len());
        assert!(
            matches!(&a.function("main").unwrap().body[0], Stmt::Let { name, .. } if name == "x")
        );
    }
}
