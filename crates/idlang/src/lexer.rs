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
    Lexer::new(source).collect()
}

/// The token stream of one source text: an iterator that yields each token
/// as it is lexed, ends with one [`TokenKind::Eof`] token, and stops after
/// the first error it yields.
pub(crate) struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    /// Set once the `Eof` token or an error has been yielded.
    done: bool,
    /// One shared [`crate::Name`] per distinct identifier of the source.
    names: Interner,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(source: &'a str) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            done: false,
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

    fn token(&self, kind: TokenKind, start: usize, line: u32) -> Token {
        Token {
            kind,
            span: Span::new(start, self.pos, line),
        }
    }

    /// Lexes the next token, skipping whitespace and comments; `Eof` at the
    /// end of the source.
    fn lex(&mut self) -> Result<Token, CompileError> {
        while let Some(c) = self.peek() {
            let start = self.pos;
            let line = self.line;
            let kind = match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                    continue;
                }
                b'#' => {
                    // Comment to end of line.
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                    continue;
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
                b'=' => self.with_eq(TokenKind::Eq, TokenKind::Assign),
                b'!' => {
                    self.bump();
                    if self.peek() != Some(b'=') {
                        return Err(CompileError::lex(
                            "expected `!=`, found lone `!` (use `not` for negation)",
                            Span::new(start, self.pos, line),
                        ));
                    }
                    self.bump();
                    TokenKind::Ne
                }
                b'<' => self.with_eq(TokenKind::Le, TokenKind::Lt),
                b'>' => self.with_eq(TokenKind::Ge, TokenKind::Gt),
                b'0'..=b'9' => self.number(start, line)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(start),
                other => {
                    return Err(CompileError::lex(
                        format!("unexpected character `{}`", other as char),
                        Span::new(start, start + 1, line),
                    ));
                }
            };
            return Ok(self.token(kind, start, line));
        }
        Ok(self.token(TokenKind::Eof, self.pos, self.line))
    }

    fn single(&mut self, kind: TokenKind) -> TokenKind {
        self.bump();
        kind
    }

    /// A one-character operator, or its two-character form ending in `=`.
    fn with_eq(&mut self, with: TokenKind, without: TokenKind) -> TokenKind {
        self.bump();
        if self.peek() == Some(b'=') {
            self.bump();
            with
        } else {
            without
        }
    }

    fn number(&mut self, start: usize, line: u32) -> Result<TokenKind, CompileError> {
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
            Ok(TokenKind::Float(value))
        } else {
            let value: i64 = text.parse().map_err(|_| {
                CompileError::lex(format!("malformed integer literal `{text}`"), span)
            })?;
            Ok(TokenKind::Int(value))
        }
    }

    fn ident(&mut self, start: usize) -> TokenKind {
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii ident");
        match text {
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
        }
    }
}

impl Iterator for Lexer<'_> {
    type Item = Result<Token, CompileError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let token = self.lex();
        self.done = !matches!(&token, Ok(t) if t.kind != TokenKind::Eof);
        Some(token)
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
