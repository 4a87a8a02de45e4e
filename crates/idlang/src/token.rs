//! Tokens and source spans for the `idlang` front end.

use crate::name::Name;

/// A half-open byte range into the source text, used for error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line number of the first character.
    pub line: u32,
}

impl Span {
    /// Creates a new span.
    pub fn new(start: usize, end: usize, line: u32) -> Self {
        Span { start, end, line }
    }

    /// Merges two spans into one covering both.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
        }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}", self.line)
    }
}

/// The kinds of tokens produced by the lexer.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier or keyword candidate.
    Ident(Name),
    /// An integer literal.
    Int(i64),
    /// A floating-point literal.
    Float(f64),
    /// `def`
    Def,
    /// `for`
    For,
    /// `to`
    To,
    /// `downto`
    Downto,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `return`
    Return,
    /// `let`
    Let,
    /// `true`
    True,
    /// `false`
    False,
    /// `and`
    And,
    /// `or`
    Or,
    /// `not`
    Not,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `=`
    Assign,
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
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short human-readable description used in parse errors.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(name) => format!("identifier `{name}`"),
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Float(v) => format!("float `{v}`"),
            TokenKind::Def => "`def`".into(),
            TokenKind::For => "`for`".into(),
            TokenKind::To => "`to`".into(),
            TokenKind::Downto => "`downto`".into(),
            TokenKind::If => "`if`".into(),
            TokenKind::Then => "`then`".into(),
            TokenKind::Else => "`else`".into(),
            TokenKind::Return => "`return`".into(),
            TokenKind::Let => "`let`".into(),
            TokenKind::True => "`true`".into(),
            TokenKind::False => "`false`".into(),
            TokenKind::And => "`and`".into(),
            TokenKind::Or => "`or`".into(),
            TokenKind::Not => "`not`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::LBracket => "`[`".into(),
            TokenKind::RBracket => "`]`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Semicolon => "`;`".into(),
            TokenKind::Assign => "`=`".into(),
            TokenKind::Eq => "`==`".into(),
            TokenKind::Ne => "`!=`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Slash => "`/`".into(),
            TokenKind::Percent => "`%`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind (and literal payload if any).
    pub kind: TokenKind,
    /// Where the token occurred in the source.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(0, 4, 1);
        let b = Span::new(10, 12, 3);
        let m = a.merge(b);
        assert_eq!(m.start, 0);
        assert_eq!(m.end, 12);
        assert_eq!(m.line, 1);
        assert_eq!(m.to_string(), "line 1");
    }

    #[test]
    fn describe_is_nonempty_for_all_kinds() {
        let kinds = vec![
            TokenKind::Ident("x".into()),
            TokenKind::Int(1),
            TokenKind::Float(1.5),
            TokenKind::Def,
            TokenKind::Eof,
            TokenKind::Le,
        ];
        for k in kinds {
            assert!(!k.describe().is_empty());
        }
    }
}
