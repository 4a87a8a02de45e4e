//! Every diagnostic of the front end, pinned: for one program per lexer,
//! parser and semantic error message, the phase, message and span of each
//! error `compile_with_diagnostics` reports, in order, and that `compile`
//! reports the first of them.

use pods_idlang::ErrorPhase::{self, Lex, Parse, Sema};
use pods_idlang::{compile, compile_with_diagnostics};

/// `(phase, message, span.start, span.end, span.line)`.
type Diagnostic = (ErrorPhase, &'static str, usize, usize, u32);

#[rustfmt::skip]
const CASES: &[(&str, &[Diagnostic])] = &[
    ("def main() { x = $; }", &[(Lex, "unexpected character `$`", 17, 18, 1)]),
    ("def main(a, b) {\n    x = a ! b;\n}",
     &[(Lex, "expected `!=`, found lone `!` (use `not` for negation)", 27, 28, 2)]),
    ("def main() { x = 1e; }", &[(Lex, "malformed float literal `1e`", 17, 19, 1)]),
    ("def main() { x = 99999999999999999999; }",
     &[(Lex, "malformed integer literal `99999999999999999999`", 17, 37, 1)]),
    ("def main() { x = 1 return x; }", &[(Parse, "expected `;`, found `return`", 19, 25, 1)]),
    ("def 1() { return 0; }", &[(Parse, "expected identifier, found integer `1`", 4, 5, 1)]),
    ("def main() {\n    x = 1;",
     &[(Parse, "unexpected end of input inside block (missing `}`)", 23, 23, 2)]),
    ("def main() { 5; }", &[(Parse, "expected a statement, found integer `5`", 13, 14, 1)]),
    ("def main() {\n    a = matrix(3);\n    return a;\n}",
     &[(Parse, "`matrix` takes 2 dimension argument(s), found 1", 17, 18, 2)]),
    ("def main() { for i = 0 { } }", &[(Parse, "expected `to` or `downto`, found `{`", 23, 24, 1)]),
    ("def main() { x = ; }", &[(Parse, "expected an expression, found `;`", 17, 18, 1)]),
    ("def main() { x = ; }\ndef f() { y = $; }", &[(Lex, "unexpected character `$`", 35, 36, 2)]),
    ("def f() { return 1; }\ndef f() { return 2; }",
     &[(Sema, "function `f` is defined more than once", 22, 27, 2)]),
    ("def sqrt(x) { return x; }", &[(Sema, "function `sqrt` shadows a builtin", 0, 8, 1)]),
    ("def f(a, a) { return a; }", &[(Sema, "parameter `a` of `f` is repeated", 0, 5, 1)]),
    ("def main(n) {\n    n = 2;\n    return n;\n}",
     &[(Sema, "`n` re-binds a function parameter (single assignment)", 18, 24, 2)]),
    ("def main() {\n    for i = 0 to 3 {\n        i = 5;\n    }\n    return 0;\n}",
     &[(Sema, "`i` re-binds a loop index variable (single assignment)", 42, 48, 3)]),
    ("def main() { x = 1; x = 2; return x; }",
     &[(Sema, "`x` is bound more than once (single assignment)", 20, 26, 1)]),
    ("def main() { b[0] = 1; return 0; }", &[(Sema, "array `b` is not defined", 13, 22, 1)]),
    ("def main() { return b[0]; }", &[(Sema, "array `b` is not defined", 20, 24, 1)]),
    ("def main() { x = 1; x[0] = 2; return x; }",
     &[(Sema, "`x` is not an array and cannot be indexed", 20, 29, 1)]),
    ("def main() { for i = 0 to 3 { y = i[0]; } return 0; }",
     &[(Sema, "`i` is not an array and cannot be indexed", 34, 38, 1)]),
    ("def main() { a = matrix(2, 2); a[1] = 0; return a; }",
     &[(Sema, "array `a` has 2 dimension(s) but is written with 1 indices", 31, 40, 1)]),
    ("def main() { a = array(2); return a[0, 0]; }",
     &[(Sema, "array `a` has 1 dimension(s) but is read with 2 indices", 34, 41, 1)]),
    ("def main(i) {\n    for i = 0 to 3 { x = i; }\n    return 0;\n}",
     &[(Sema, "loop variable `i` shadows an existing binding", 18, 21, 2)]),
    ("def main() { g(1); return 0; }", &[(Sema, "function `g` is not defined", 13, 18, 1)]),
    ("def main() { return 1 + g(1); }", &[(Sema, "function `g` is not defined", 24, 28, 1)]),
    ("def main() { f(1); return 0; }\ndef f(a, b) { return a; }",
     &[(Sema, "function `f` takes 2 argument(s), found 1", 13, 18, 1)]),
    ("def main() { return f(1); }\ndef f(a, b) { return a; }",
     &[(Sema, "function `f` takes 2 argument(s), found 1", 20, 24, 1)]),
    ("def main() { return y; }", &[(Sema, "variable `y` is not defined", 20, 21, 1)]),
    ("def main(x) {\n    return 2 * sqrt(x, x);\n}",
     &[(Sema, "builtin `sqrt` takes 1 argument, found 2", 29, 39, 2)]),
    ("def main(x) { return min(x) + 1; }",
     &[(Sema, "builtin `min` takes 2 arguments, found 1", 21, 27, 1)]),
    ("def main(x) { sqrt(x); return x; }", &[(Sema, "function `sqrt` is not defined", 14, 22, 1)]),
    ("def main() { x = y; z = w; return q; }", &[
        (Sema, "variable `y` is not defined", 17, 18, 1),
        (Sema, "variable `w` is not defined", 24, 25, 1),
        (Sema, "variable `q` is not defined", 34, 35, 1),
    ]),
    // A built-in arity error is a semantic error like any other, listed in
    // walk order beside the program's other errors.
    ("def main(x) { y = sqrt(x, x); return z; }", &[
        (Sema, "builtin `sqrt` takes 1 argument, found 2", 18, 28, 1),
        (Sema, "variable `z` is not defined", 37, 38, 1),
    ]),
];

#[test]
fn every_diagnostic_keeps_its_phase_message_and_span() {
    let mut mismatches = Vec::new();
    for &(source, pinned) in CASES {
        let errors = compile_with_diagnostics(source).expect_err("the program is rejected");
        let got: Vec<_> = errors
            .iter()
            .map(|e| {
                let span = e.span.expect("every diagnostic has a span");
                (e.phase, e.message.as_str(), span.start, span.end, span.line)
            })
            .collect();
        if got != pinned {
            mismatches.push(format!(
                "{source:?}:\n  got    {got:?}\n  pinned {pinned:?}"
            ));
        }
        assert_eq!(
            compile(source).expect_err("the program is rejected"),
            errors[0],
            "{source:?}: compile reports the first diagnostic"
        );
    }
    assert!(
        mismatches.is_empty(),
        "the diagnostics changed:\n{}",
        mismatches.join("\n")
    );
}
