//! Hand-written lexer for `idlang`.

use crate::error::CompileError;
use crate::name::Interner;
use crate::token::{Span, Token, TokenKind};

/// Converts source text into a vector of tokens terminated by [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns a [`CompileError`] on unknown characters or malformed numeric
/// literals.
pub fn tokenize(source: &str) -> Result<Vec<Token>, CompileError> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
    /// One shared [`crate::Name`] per distinct identifier of the source.
    names: Interner,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            tokens: Vec::new(),
            names: Interner::default(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if let Some(b'\n') = c {
            self.line += 1;
        }
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start, self.pos, line),
        });
    }

    fn run(mut self) -> Result<Vec<Token>, CompileError> {
        while let Some(c) = self.peek() {
            let start = self.pos;
            let line = self.line;
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'#' => {
                    // Comment to end of line.
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                b'(' => self.single(TokenKind::LParen),
                b')' => self.single(TokenKind::RParen),
                b'{' => self.single(TokenKind::LBrace),
                b'}' => self.single(TokenKind::RBrace),
                b'[' => self.single(TokenKind::LBracket),
                b']' => self.single(TokenKind::RBracket),
                b',' => self.single(TokenKind::Comma),
                b';' => self.single(TokenKind::Semicolon),
                b'+' => self.single(TokenKind::Plus),
                b'-' => self.single(TokenKind::Minus),
                b'*' => self.single(TokenKind::Star),
                b'/' => self.single(TokenKind::Slash),
                b'%' => self.single(TokenKind::Percent),
                b'=' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        self.push(TokenKind::Eq, start, line);
                    } else {
                        self.push(TokenKind::Assign, start, line);
                    }
                }
                b'!' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        self.push(TokenKind::Ne, start, line);
                    } else {
                        return Err(CompileError::lex(
                            "expected `!=`, found lone `!` (use `not` for negation)",
                            Span::new(start, self.pos, line),
                        ));
                    }
                }
                b'<' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        self.push(TokenKind::Le, start, line);
                    } else {
                        self.push(TokenKind::Lt, start, line);
                    }
                }
                b'>' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        self.push(TokenKind::Ge, start, line);
                    } else {
                        self.push(TokenKind::Gt, start, line);
                    }
                }
                b'0'..=b'9' => self.number(start, line)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(start, line),
                other => {
                    return Err(CompileError::lex(
                        format!("unexpected character `{}`", other as char),
                        Span::new(start, start + 1, line),
                    ));
                }
            }
        }
        let end = self.pos;
        let line = self.line;
        self.push(TokenKind::Eof, end, line);
        Ok(self.tokens)
    }

    fn single(&mut self, kind: TokenKind) {
        let start = self.pos;
        let line = self.line;
        self.bump();
        self.push(kind, start, line);
    }

    fn number(&mut self, start: usize, line: u32) -> Result<(), CompileError> {
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' if !is_float && self.peek2().is_some_and(|d| d.is_ascii_digit()) => {
                    is_float = true;
                    self.bump();
                }
                b'e' | b'E' => {
                    is_float = true;
                    self.bump();
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        let span = Span::new(start, self.pos, line);
        if is_float {
            let value: f64 = text.parse().map_err(|_| {
                CompileError::lex(format!("malformed float literal `{text}`"), span)
            })?;
            self.push(TokenKind::Float(value), start, line);
        } else {
            let value: i64 = text.parse().map_err(|_| {
                CompileError::lex(format!("malformed integer literal `{text}`"), span)
            })?;
            self.push(TokenKind::Int(value), start, line);
        }
        Ok(())
    }

    fn ident(&mut self, start: usize, line: u32) {
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii ident");
        let kind = match text {
            "def" => TokenKind::Def,
            "for" => TokenKind::For,
            "to" => TokenKind::To,
            "downto" => TokenKind::Downto,
            "if" => TokenKind::If,
            "then" => TokenKind::Then,
            "else" => TokenKind::Else,
            "return" => TokenKind::Return,
            "let" => TokenKind::Let,
            "true" => TokenKind::True,
            "false" => TokenKind::False,
            "and" => TokenKind::And,
            "or" => TokenKind::Or,
            "not" => TokenKind::Not,
            _ => TokenKind::Ident(self.names.intern(text)),
        };
        self.push(kind, start, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_assignment() {
        assert_eq!(
            kinds("x = 42;"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Int(42),
                TokenKind::Semicolon,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_floats_and_exponents() {
        assert_eq!(
            kinds("1.5 2e3 7.25e-2"),
            vec![
                TokenKind::Float(1.5),
                TokenKind::Float(2000.0),
                TokenKind::Float(0.0725),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn keywords_are_distinguished_from_identifiers() {
        assert_eq!(
            kinds("for fortress downto down"),
            vec![
                TokenKind::For,
                TokenKind::Ident("fortress".into()),
                TokenKind::Downto,
                TokenKind::Ident("down".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a # this is a comment\nb"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("< <= > >= == !="),
            vec![
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn tracks_line_numbers() {
        let tokens = tokenize("a\nb\n  c").unwrap();
        assert_eq!(tokens[0].span.line, 1);
        assert_eq!(tokens[1].span.line, 2);
        assert_eq!(tokens[2].span.line, 3);
    }

    #[test]
    fn rejects_unknown_characters() {
        assert!(tokenize("a @ b").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn member_access_dot_without_digit_is_not_a_float() {
        // `1.x` lexes as Int(1) then an error on `.`? We treat a dot not
        // followed by a digit as an unknown character.
        assert!(tokenize("1.x").is_err());
    }
}
