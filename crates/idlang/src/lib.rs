//! `idlang` — a small Id-Nouveau-like declarative language front end.
//!
//! The PODS paper compiles Id Nouveau programs into dataflow graphs with the
//! MIT compiler. This crate stands in for that front end: it parses a small
//! declarative, single-assignment language featuring exactly the constructs
//! the paper's workloads need — nested counted loops (ascending and
//! descending), I-structure arrays of one to three dimensions, conditionals,
//! function calls, and floating-point math — straight into a structured
//! HIR consumed by the dataflow-graph builder and the SP translator. The
//! HIR is the one syntax tree: the semantic checks run over it too, with
//! the source spans of their diagnostics kept beside it.
//!
//! # Syntax overview
//!
//! ```text
//! def main(n) {
//!     a = matrix(n, n);              # I-structure allocation
//!     for i = 0 to n - 1 {           # ascending counted loop
//!         for j = 0 to n - 1 {
//!             a[i, j] = f(i, j);     # single-assignment element write
//!         }
//!     }
//!     return a;
//! }
//! def f(i, j) { return sqrt(i * 10 + j); }
//! ```
//!
//! Scalars obey single assignment; array elements obey single assignment at
//! run time (enforced by the I-structure memory). Comments run from `#` to
//! the end of the line.
//!
//! # Example
//!
//! ```
//! use pods_idlang::compile;
//!
//! let hir = compile("def main(n) { return n * 2; }")?;
//! assert_eq!(hir.functions.len(), 1);
//! assert_eq!(hir.entry().unwrap().params, vec!["n".to_string()]);
//! # Ok::<(), pods_idlang::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hir;
pub mod lexer;
pub mod name;
mod parser;
mod sema;
pub mod token;

pub use error::{CompileError, ErrorPhase};
pub use hir::{BinaryOp, HirExpr, HirFunction, HirProgram, HirStmt, UnaryOp};
pub use name::Name;

/// Compiles source text to the HIR: lex, parse, and semantic checks.
///
/// # Errors
///
/// Returns the first error from any phase: the first of
/// [`compile_with_diagnostics`]' errors.
///
/// # Example
///
/// ```
/// let hir = pods_idlang::compile("def main() { return 42; }")?;
/// assert!(hir.entry().is_some());
/// # Ok::<(), pods_idlang::CompileError>(())
/// ```
pub fn compile(source: &str) -> Result<hir::HirProgram, CompileError> {
    compile_with_diagnostics(source).map_err(|mut errors| errors.swap_remove(0))
}

/// Parses and checks source text, returning *all* diagnostics instead of just
/// the first (useful for tooling and tests).
///
/// The result is `Ok(hir)` when there are no errors, otherwise `Err(errors)`.
pub fn compile_with_diagnostics(source: &str) -> Result<hir::HirProgram, Vec<CompileError>> {
    let (program, spans) = parser::parse(source).map_err(|e| vec![e])?;
    let errors = sema::analyze(&program, &spans);
    if !errors.is_empty() {
        return Err(errors);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_pipeline_succeeds_on_valid_source() {
        let hir = compile("def main() { a = array(3); a[0] = 1.5; return a; }").unwrap();
        assert_eq!(hir.functions.len(), 1);
    }

    #[test]
    fn compile_pipeline_reports_errors_from_each_phase() {
        assert_eq!(
            compile("def main() { x = $; }").unwrap_err().phase,
            ErrorPhase::Lex
        );
        assert_eq!(
            compile("def main() { x = ; }").unwrap_err().phase,
            ErrorPhase::Parse
        );
        // The parser pulls tokens from the lexer and stops at its first
        // error, but a lexical error later in the source still wins.
        let err = compile("def main() { x = ; }\ndef f() { y = $; }").unwrap_err();
        assert_eq!(
            (err.phase, err.span.map(|s| s.line)),
            (ErrorPhase::Lex, Some(2))
        );
        assert_eq!(
            compile("def main() { return y; }").unwrap_err().phase,
            ErrorPhase::Sema
        );
    }

    #[test]
    fn diagnostics_collects_multiple_errors() {
        let errs = compile_with_diagnostics("def main() { x = y; z = w; return q; }").unwrap_err();
        assert_eq!(errs.len(), 3);
    }
}
