//! Architecture guards: rules about where code may live, checked over the
//! source tree with `std::fs` only, so `cargo test` enforces them.
//!
//! Each guard is a function from source files to the lines that break its
//! rule, a test that runs it over the tree, and a self-test that plants a
//! violation in a string fixture and expects the guard to fire.

use std::path::Path;

/// The directories the guards read, relative to the repository root.
const SOURCE_DIRS: [&str; 4] = ["crates", "src", "examples", "tests"];

/// A source file: its path relative to the repository root, with `/`
/// separators, and its text.
struct SourceFile {
    path: String,
    text: String,
}

/// Every file under `dir`, relative to the repository root, whose path
/// `keep` accepts, outside `target` and `.git` directories. `dir` may also
/// name a single file.
fn files_under(dir: &str, keep: &dyn Fn(&Path) -> bool) -> Vec<SourceFile> {
    fn walk(root: &Path, path: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<SourceFile>) {
        if path.is_dir() {
            if path.ends_with("target") || path.ends_with(".git") {
                return;
            }
            let entries =
                std::fs::read_dir(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for entry in entries {
                walk(root, &entry.expect("directory entry").path(), keep, out);
            }
        } else if keep(path) {
            let relative = path.strip_prefix(root).expect("under the root");
            let parts: Vec<_> = relative.iter().map(|p| p.to_string_lossy()).collect();
            let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push(SourceFile {
                path: parts.join("/"),
                text: String::from_utf8_lossy(&bytes).into_owned(),
            });
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(root, &root.join(dir), keep, &mut files);
    files
}

/// Every `.rs` file under [`SOURCE_DIRS`].
fn source_files() -> Vec<SourceFile> {
    let is_rust = |path: &Path| path.extension().is_some_and(|ext| ext == "rs");
    SOURCE_DIRS
        .iter()
        .flat_map(|dir| files_under(dir, &is_rust))
        .collect()
}

/// `true` for the characters of an identifier.
fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `true` for the characters of the POSIX `[[:space:]]` class.
fn is_space(c: char) -> bool {
    c.is_ascii_whitespace() || c == '\x0b'
}

/// The byte offsets at which `word` occurs in `line` as a whole identifier.
fn word_starts<'a>(line: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    line.match_indices(word).filter_map(move |(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        (!before.is_some_and(is_ident) && !after.is_some_and(is_ident)).then_some(at)
    })
}

/// `true` when `word` occurs in `line` as a whole identifier.
fn contains_word(line: &str, word: &str) -> bool {
    word_starts(line, word).next().is_some()
}

/// `true` when `rest` is whitespace, then `word` ending a word: the rule
/// `\s+WORD\b`.
fn spaced_word(rest: &str, word: &str) -> bool {
    let operand = rest.trim_start_matches(is_space);
    operand.len() < rest.len()
        && operand
            .strip_prefix(word)
            .is_some_and(|after| !after.starts_with(is_ident))
}

/// `true` when `name` occurs as a whole identifier at or after byte `from`
/// of `line`, followed by whitespace and `for`: the rule `\bNAME\s+for\b`.
fn implemented_after(line: &str, from: usize, name: &str) -> bool {
    word_starts(line, name)
        .filter(|at| *at >= from)
        .any(|at| spaced_word(&line[at + name.len()..], "for"))
}

/// The `path:line:text` of every line of `files` for which `breaks` holds.
fn lines_in<'a>(
    files: impl IntoIterator<Item = &'a SourceFile>,
    breaks: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut found = Vec::new();
    for file in files {
        for (n, line) in file.text.lines().enumerate() {
            if breaks(line) {
                found.push(format!("{}:{}:{line}", file.path, n + 1));
            }
        }
    }
    found
}

/// The `path:line:text` of every line outside `allowed` (a path prefix;
/// empty when no path is exempt) for which `breaks` holds.
fn lines_where(files: &[SourceFile], allowed: &str, breaks: impl Fn(&str) -> bool) -> Vec<String> {
    let exempt = |f: &&SourceFile| !allowed.is_empty() && f.path.starts_with(allowed);
    lines_in(files.iter().filter(|f| !exempt(f)), breaks)
}

/// The `path:line:text` of every line under `scope` (a path prefix) for
/// which `breaks` holds.
fn lines_under(files: &[SourceFile], scope: &str, breaks: impl Fn(&str) -> bool) -> Vec<String> {
    lines_in(files.iter().filter(|f| f.path.starts_with(scope)), breaks)
}

/// The `path:line:text` of every line outside `allowed` (a path prefix, as
/// for [`lines_where`]) that names one of `words` as a whole identifier.
fn lines_naming(files: &[SourceFile], words: &[String], allowed: &str) -> Vec<String> {
    lines_where(files, allowed, |line| {
        words.iter().any(|w| contains_word(line, w))
    })
}

/// The super-op dispatch loop and fused-op execution. Spelled in pieces so
/// that this file does not name them itself.
fn dispatch_names() -> [String; 2] {
    [
        ["run_", "specialized"].concat(),
        ["execute_", "fused"].concat(),
    ]
}

/// The super-op dispatch guard. The super-op dispatch loop and fused-op
/// execution live only in `crates/sp/`: an engine walking plans itself
/// would fork the all-or-nothing super-op semantics the differential
/// suites pin. Returns the failure message, or `None` when the rule holds.
fn super_op_dispatch_guard(files: &[SourceFile]) -> Option<String> {
    let names = dispatch_names();
    let found = lines_naming(files, &names, "crates/sp/src/");
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "Specialized dispatch ({}/{}) referenced outside crates/sp/src/:\n{}\n\
         Plan execution must go through pods_sp::exec::run_instance.",
        names[0],
        names[1],
        found.join("\n")
    ))
}

#[test]
fn super_op_dispatch_lives_only_in_the_sp_crate() {
    let files = source_files();
    assert!(
        files.iter().any(|f| f.path == "crates/sp/src/exec.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = super_op_dispatch_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn super_op_dispatch_guard_fires_on_a_planted_violation() {
    let [run, fused] = dispatch_names();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let planted = [
        file(
            "crates/sp/src/exec.rs",
            format!("fn {run}() {{ {fused}(); }}"),
        ),
        file(
            "crates/pods/src/engine/pool.rs",
            format!("use pods_sp::exec;\nfn walk() {{ exec::{run}(ctx); }}"),
        ),
        file("tests/runtime.rs", format!("let {fused}_count = 0;")),
    ];
    let message = super_op_dispatch_guard(&planted).expect("the guard fires");
    assert!(
        message.contains(&format!(
            "crates/pods/src/engine/pool.rs:2:fn walk() {{ exec::{run}(ctx); }}"
        )),
        "{message}"
    );
    assert!(
        !message.contains("crates/sp/src/exec.rs:"),
        "crates/sp/src/ may name them: {message}"
    );
    assert!(
        !message.contains("tests/runtime.rs"),
        "only whole identifiers count: {message}"
    );
    assert!(super_op_dispatch_guard(&planted[..1]).is_none());
}

/// The keyword an instruction dispatch starts with. Spelled in pieces so
/// that this file does not break the rule itself.
fn match_keyword() -> String {
    ["mat", "ch"].concat()
}

/// `true` when `line` dispatches on an instruction: `match`, whitespace,
/// an optional `&` or `*`, then `instr` or `instruction` ending a word —
/// the rule `match\s+[&*]?instr(uction)?\b`.
fn dispatches_on_instr(line: &str) -> bool {
    line.match_indices(match_keyword().as_str())
        .any(|(at, keyword)| {
            let rest = &line[at + keyword.len()..];
            let operand = rest.trim_start_matches(is_space);
            if operand.len() == rest.len() {
                return false;
            }
            let operand = operand.strip_prefix(['&', '*']).unwrap_or(operand);
            ["instruction", "instr"].iter().any(|word| {
                operand
                    .strip_prefix(word)
                    .is_some_and(|after| !after.starts_with(is_ident))
            })
        })
}

/// The single-interpreter guard. The SP instruction semantics live in
/// exactly one place, `crates/sp/src/exec.rs`: a dispatch on an
/// instruction anywhere else means a second interpreter, with hand-copied
/// semantics, has started.
fn single_interpreter_guard(files: &[SourceFile]) -> Option<String> {
    let found = lines_where(files, "crates/sp/src/", dispatches_on_instr);
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "Per-instruction '{} instr' interpreter loop found outside crates/sp/src/:\n{}\n\
         Execute instructions through pods_sp::exec (ExecCtx/ArrayOps) instead.",
        match_keyword(),
        found.join("\n")
    ))
}

#[test]
fn instructions_are_interpreted_only_in_the_sp_crate() {
    let files = source_files();
    assert!(
        files.iter().any(|f| f.path == "crates/sp/src/exec.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = single_interpreter_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn single_interpreter_guard_fires_on_a_planted_violation() {
    let keyword = match_keyword();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let planted = [
        file("crates/sp/src/exec.rs", format!("{keyword} instr {{")),
        file(
            "crates/machine/src/sim.rs",
            format!("fn step() {{\n    {keyword}  &instruction {{"),
        ),
        file(
            "crates/pods/src/engine/pool.rs",
            format!("{keyword}\t*instr.kind {{"),
        ),
        file(
            "tests/runtime.rs",
            format!("{keyword} instrs {{}}\n{keyword} instruct {{}}\n{keyword}instr {{}}"),
        ),
    ];
    let message = single_interpreter_guard(&planted).expect("the guard fires");
    assert!(
        message.contains(&format!(
            "crates/machine/src/sim.rs:2:    {keyword}  &instruction {{"
        )),
        "{message}"
    );
    assert!(
        message.contains(&format!(
            "crates/pods/src/engine/pool.rs:1:{keyword}\t*instr.kind {{"
        )),
        "{message}"
    );
    assert!(
        !message.contains("crates/sp/src/exec.rs:"),
        "crates/sp/src/ may dispatch: {message}"
    );
    assert!(
        !message.contains("tests/runtime.rs"),
        "only `instr` or `instruction` after whitespace counts: {message}"
    );
    assert!(single_interpreter_guard(&planted[..1]).is_none());
}

/// The chunk driver: the cursor-advance and scratch-reset loop that runs a
/// chunked instance's iterations. Spelled in pieces so that this file does
/// not name it itself.
fn chunk_driver_name() -> String {
    ["advance", "_chunk"].concat()
}

/// The chunk-driver guard. The chunk driver lives only in `crates/sp/`: an
/// engine reimplementing it would fork the chunk semantics the fuzz suite
/// pins.
fn chunk_driver_guard(files: &[SourceFile]) -> Option<String> {
    let name = chunk_driver_name();
    let found = lines_naming(files, std::slice::from_ref(&name), "crates/sp/src/");
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "Chunk driver ({name}) referenced outside crates/sp/src/:\n{}\n\
         Chunked iteration must go through pods_sp::exec::run_instance.",
        found.join("\n")
    ))
}

#[test]
fn the_chunk_driver_lives_only_in_the_sp_crate() {
    let files = source_files();
    assert!(
        files.iter().any(|f| f.path == "crates/sp/src/exec.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = chunk_driver_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn chunk_driver_guard_fires_on_a_planted_violation() {
    let name = chunk_driver_name();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let planted = [
        file("crates/sp/src/exec.rs", format!("fn {name}() {{}}")),
        file(
            "crates/pods/src/engine/pool.rs",
            format!("use pods_sp::exec;\nexec::{name}(frame);"),
        ),
        file("examples/engines.rs", format!("let {name}s = 0;")),
    ];
    let message = chunk_driver_guard(&planted).expect("the guard fires");
    assert!(
        message.contains(&format!(
            "crates/pods/src/engine/pool.rs:2:exec::{name}(frame);"
        )),
        "{message}"
    );
    assert!(
        !message.contains("crates/sp/src/exec.rs:"),
        "crates/sp/src/ may name it: {message}"
    );
    assert!(
        !message.contains("examples/engines.rs"),
        "only whole identifiers count: {message}"
    );
    assert!(chunk_driver_guard(&planted[..1]).is_none());
}

/// `true` when `line` declares an enum whose name says it is a kind of
/// statement or expression: a second syntax tree beside the HIR.
fn declares_syntax_enum(line: &str) -> bool {
    line.split_whitespace()
        .skip_while(|word| *word != "enum")
        .nth(1)
        .map(|name| name.trim_end_matches(|c: char| !is_ident(c)))
        .is_some_and(|name| {
            !matches!(name, "HirStmt" | "HirExpr")
                && ["Stmt", "Statement", "Expr", "Expression"]
                    .iter()
                    .any(|kind| name.contains(kind))
        })
}

/// `true` when `line` defines `lower` or a `lower_` helper: a lowering pass
/// from a second syntax tree.
fn defines_lowering(line: &str) -> bool {
    line.match_indices("fn lower").any(|(at, found)| {
        let after = line[at + found.len()..].chars().next();
        !after.is_some_and(|c| is_ident(c) && c != '_')
    })
}

/// The one-syntax-tree guard. The parser builds the HIR itself, so under
/// `crates/idlang/src/` the only statement enum is `HirStmt`, the only
/// expression enum is `HirExpr`, and nothing lowers one tree into another:
/// a second tree would have every later change made twice.
fn one_syntax_tree_guard(files: &[SourceFile]) -> Option<String> {
    let found = lines_under(files, "crates/idlang/src/", |line| {
        declares_syntax_enum(line) || defines_lowering(line)
    });
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "A second syntax tree or a lowering pass under crates/idlang/src/:\n{}\n\
         Parse straight into the HIR's pools of HirStmt/HirExpr, and keep spans in tables \
         indexed by node id.",
        found.join("\n")
    ))
}

#[test]
fn the_front_end_has_one_syntax_tree() {
    let files = source_files();
    assert!(
        files.iter().any(|f| f.path == "crates/idlang/src/hir.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = one_syntax_tree_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn one_syntax_tree_guard_fires_on_a_planted_violation() {
    let file = |path: &str, text: &str| SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    };
    let planted = [
        file(
            "crates/idlang/src/hir.rs",
            "pub enum HirStmt {\npub enum HirExpr {\nfn lowercase() {}",
        ),
        file(
            "crates/idlang/src/ast.rs",
            "pub enum Stmt {\n#[derive(Debug)] pub enum Expr<'a> {\nenum ExpressionKind {}",
        ),
        file(
            "crates/idlang/src/parser.rs",
            "pub fn lower(p: &Program) {}\n    fn lower_expr(e: &Expr) {}",
        ),
        file("crates/sp/src/translate.rs", "enum Stmt {}\nfn lower() {}"),
    ];
    let message = one_syntax_tree_guard(&planted).expect("the guard fires");
    for line in [
        "crates/idlang/src/ast.rs:1:pub enum Stmt {",
        "crates/idlang/src/ast.rs:2:#[derive(Debug)] pub enum Expr<'a> {",
        "crates/idlang/src/ast.rs:3:enum ExpressionKind {}",
        "crates/idlang/src/parser.rs:1:pub fn lower(p: &Program) {}",
        "crates/idlang/src/parser.rs:2:    fn lower_expr(e: &Expr) {}",
    ] {
        assert!(message.contains(line), "{line} in {message}");
    }
    assert!(
        !message.contains("crates/idlang/src/hir.rs"),
        "HirStmt and HirExpr are the tree, and `lowercase` lowers nothing: {message}"
    );
    assert!(
        !message.contains("crates/sp/"),
        "only crates/idlang/src/ is the front end: {message}"
    );
    assert!(one_syntax_tree_guard(&planted[..1]).is_none());
}

/// The HIR node types, whose children are ids into the program's pools.
const HIR_NODES: [&str; 3] = ["HirExpr", "HirStmt", "HirFunction"];

/// The `line number:text` of every line inside the declaration of a HIR
/// node type in `text` (from its `enum`/`struct` line to the brace that
/// closes it) that holds a `Box`, or a `Vec` of nodes.
fn boxed_or_listed_children(text: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut depth = 0usize;
    for (n, line) in text.lines().enumerate() {
        let declares = HIR_NODES.iter().any(|node| {
            ["enum", "struct"].iter().any(|kind| {
                word_starts(line, kind).any(|at| spaced_word(&line[at + kind.len()..], node))
            })
        });
        if depth == 0 && !declares {
            continue;
        }
        let holds_nodes = line.match_indices("Vec<").any(|(at, _)| {
            HIR_NODES
                .iter()
                .any(|node| contains_word(&line[at..], node))
        });
        if line.contains("Box<") || holds_nodes {
            found.push(format!("{}:{line}", n + 1));
        }
        depth += line.matches('{').count();
        depth = depth.saturating_sub(line.matches('}').count());
    }
    found
}

/// The pooled-HIR guard. Every expression and statement of a program lives
/// in one of its pools and names its children by id, so no HIR node type
/// in `crates/idlang/src/hir.rs` holds a `Box` or a `Vec` of nodes: a
/// pointer tree would allocate per node again.
fn pooled_hir_guard(files: &[SourceFile]) -> Option<String> {
    let found: Vec<String> = files
        .iter()
        .filter(|f| f.path == "crates/idlang/src/hir.rs")
        .flat_map(|f| {
            boxed_or_listed_children(&f.text)
                .into_iter()
                .map(move |line| format!("{}:{line}", f.path))
        })
        .collect();
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "A HIR node holds a Box or a Vec of nodes:\n{}\n\
         Name children by ExprId/StmtId and lists by List ranges of the program's pools.",
        found.join("\n")
    ))
}

#[test]
fn hir_nodes_live_in_the_programs_pools() {
    let files = source_files();
    assert!(
        files.iter().any(|f| f.path == "crates/idlang/src/hir.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = pooled_hir_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn pooled_hir_guard_fires_on_a_planted_violation() {
    let file = |path: &str, text: &str| SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    };
    let planted = [
        file(
            "crates/idlang/src/hir.rs",
            "pub struct HirProgram {\n    pub functions: Vec<HirFunction>,\n    \
             exprs: Vec<HirExpr>,\n}\n\
             pub enum HirExpr {\n    Unary {\n        operand: Box<HirExpr>,\n    },\n\
                 Var(Name),\n}\n\
             pub struct HirFunction {\n    pub params: Vec<Name>,\n    \
             pub body: Vec<HirStmt>,\n}\n\
             pub enum HirStmtKind {\n    Call { args: Vec<HirExpr> },\n}\n\
             fn helper() -> Box<HirExpr> {}",
        ),
        file(
            "crates/idlang/src/parser.rs",
            "pub enum HirExpr {\n    Unary(Box<HirExpr>),\n}",
        ),
    ];
    let message = pooled_hir_guard(&planted).expect("the guard fires");
    for line in [
        "crates/idlang/src/hir.rs:7:        operand: Box<HirExpr>,",
        "crates/idlang/src/hir.rs:13:    pub body: Vec<HirStmt>,",
    ] {
        assert!(message.contains(line), "{line} in {message}");
    }
    for line in [":2:", ":3:", ":12:", ":16:", ":18:"] {
        assert!(
            !message.contains(&format!("hir.rs{line}")),
            "the program's pools, a list of names, a type that is not a node and code \
             outside the node types may hold them: {message}"
        );
    }
    assert!(
        !message.contains("crates/idlang/src/parser.rs"),
        "only hir.rs declares the HIR: {message}"
    );
    assert!(pooled_hir_guard(&planted[1..]).is_none());
}

/// The names of a second I-structure value store. Spelled in pieces so
/// that this file does not name them itself.
fn second_store_names() -> [String; 4] {
    [
        ["Array", "Memory"].concat(),
        ["Local", "ArrayStore"].concat(),
        ["Page", "Cache"].concat(),
        ["Page", "Copy"].concat(),
    ]
}

/// The one-I-structure-store guard. Every engine keeps array values once,
/// in `SharedArrayStore`; the simulator's PEs keep only their residency
/// (`crates/machine/src/residency.rs`), which prices an access. A per-PE
/// value store or a page cache that copies values means a second
/// I-structure implementation came back.
fn one_store_guard(files: &[SourceFile]) -> Option<String> {
    let found = lines_naming(files, &second_store_names(), "");
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "A second I-structure store beside SharedArrayStore:\n{}\n\
         Keep values in the one store; track per-PE pages in the residency model.",
        found.join("\n")
    ))
}

#[test]
fn array_values_live_in_one_store() {
    let files = source_files();
    assert!(
        files
            .iter()
            .any(|f| f.path == "crates/machine/src/residency.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = one_store_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn one_store_guard_fires_on_a_planted_violation() {
    let [memory, local, cache, copy] = second_store_names();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let planted = [
        file(
            "crates/machine/src/residency.rs",
            format!("// {cache}d pages\nlet {copy}_count = 0;"),
        ),
        file(
            "crates/machine/src/sim.rs",
            format!("struct Pe {{\n    memory: {memory},\n}}"),
        ),
        file("tests/sim_protocol.rs", format!("use pods::{local};")),
        file(
            "examples/engines.rs",
            format!("let c: {cache} = {copy}::new();"),
        ),
    ];
    let message = one_store_guard(&planted).expect("the guard fires");
    for line in [
        format!("crates/machine/src/sim.rs:2:    memory: {memory},"),
        format!("tests/sim_protocol.rs:1:use pods::{local};"),
        format!("examples/engines.rs:1:let c: {cache} = {copy}::new();"),
    ] {
        assert!(message.contains(&line), "{line} in {message}");
    }
    assert!(
        !message.contains("residency.rs"),
        "only whole identifiers count: {message}"
    );
    assert!(one_store_guard(&planted[..1]).is_none());
}

/// The retired engines snapshot. Spelled in pieces so that this file does
/// not name it itself.
fn engines_snapshot_name() -> String {
    ["BENCH_", "engines"].concat()
}

/// The one-benchmark guard. Performance is measured in one place, the
/// standing benchmark in `benchmark/` (declared in `BENCHMARK.json`); the
/// figure binaries in `crates/bench` only regenerate the paper's figures. A
/// `[[bench]]` target or a `criterion` dependency in any `Cargo.toml`, or
/// a reference to the retired engines snapshot in the sources, CI or
/// README, means a second benchmark stack came back.
fn one_benchmark_guard(manifests: &[SourceFile], texts: &[SourceFile]) -> Option<String> {
    let mut found = lines_where(manifests, "", |line| {
        line.starts_with("[[bench]]") || contains_word(line, "criterion")
    });
    let snapshot = engines_snapshot_name();
    found.extend(lines_where(texts, "", |line| line.contains(&snapshot)));
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "A second benchmark beside benchmark/:\n{}\n\
         Add a metric to the standing benchmark or a count to a test instead.",
        found.join("\n")
    ))
}

#[test]
fn performance_is_measured_by_one_benchmark() {
    let manifests = files_under(".", &|path| path.ends_with("Cargo.toml"));
    assert!(
        manifests.iter().any(|f| f.path == "benchmark/Cargo.toml"),
        "the guard reads every manifest"
    );
    let texts: Vec<SourceFile> = ["crates", "src", "tests", "examples", ".github", "README.md"]
        .iter()
        .flat_map(|dir| files_under(dir, &|_| true))
        .collect();
    assert!(
        texts.iter().any(|f| f.path == "README.md"),
        "the guard reads the README"
    );
    if let Some(message) = one_benchmark_guard(&manifests, &texts) {
        panic!("{message}");
    }
}

#[test]
fn one_benchmark_guard_fires_on_a_planted_violation() {
    let snapshot = engines_snapshot_name();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let manifests = [
        file(
            "crates/bench/Cargo.toml",
            "[[bin]]\nname = \"fig10\"\n[[bench]]\nname = \"engines\"".to_string(),
        ),
        file(
            "Cargo.toml",
            "[dev-dependencies]\ncriterion = \"0.5\"\ncriterion_shim = { path = \"x\" }"
                .to_string(),
        ),
    ];
    let texts = [
        file(".github/workflows/ci.yml", format!("cat {snapshot}.json")),
        file("README.md", "The engines snapshot is gone.".to_string()),
    ];
    let message = one_benchmark_guard(&manifests, &texts).expect("the guard fires");
    for line in [
        "crates/bench/Cargo.toml:3:[[bench]]".to_string(),
        "Cargo.toml:2:criterion = \"0.5\"".to_string(),
        format!(".github/workflows/ci.yml:1:cat {snapshot}.json"),
    ] {
        assert!(message.contains(&line), "{line} in {message}");
    }
    assert!(
        !message.contains("criterion_shim") && !message.contains("README.md"),
        "only whole words and the snapshot's name count: {message}"
    );
    assert!(one_benchmark_guard(&manifests[..0], &texts[1..]).is_none());
}

/// The two traits an SP execution context implements. Spelled in pieces so
/// that this file does not name them itself.
fn exec_trait_names() -> [String; 2] {
    [["Exec", "Ctx"].concat(), ["Array", "Ops"].concat()]
}

/// `true` when `line` starts, after whitespace, with an `impl` of `name`
/// for a type: the rule `^\s*impl\b.*\bNAME\s+for\b`.
fn implements_at_line_start(line: &str, name: &str) -> bool {
    let body = line.trim_start_matches(is_space);
    let from = line.len() - body.len() + "impl".len();
    body.strip_prefix("impl")
        .is_some_and(|after| !after.starts_with(is_ident))
        && implemented_after(line, from, name)
}

/// The one-pooled-scheduler guard. Both parallel engines run on the one
/// pool in `crates/pods/src/engine/pool.rs`, generic over the suspension
/// strategy: a second execution context under `crates/pods/src/` means a
/// mirrored scheduler started again.
fn one_pooled_scheduler_guard(files: &[SourceFile]) -> Option<String> {
    exec_trait_names().into_iter().find_map(|name| {
        let found = lines_under(files, "crates/pods/src/", |line| {
            implements_at_line_start(line, &name)
        });
        (found.len() > 1).then(|| {
            format!(
                "More than one 'impl {name} for' under crates/pods/src/:\n{}\n\
                 Vary the suspension strategy (engine::pool::Suspension), not the pool.",
                found.join("\n")
            )
        })
    })
}

#[test]
fn both_parallel_engines_run_on_one_pooled_scheduler() {
    let files = source_files();
    assert!(
        files
            .iter()
            .any(|f| f.path == "crates/pods/src/engine/pool.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = one_pooled_scheduler_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn one_pooled_scheduler_guard_fires_on_a_planted_violation() {
    let [ctx, ops] = exec_trait_names();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let pool = file(
        "crates/pods/src/engine/pool.rs",
        format!("impl<S: Suspension> {ops} for Ctx<'_, S> {{}}\nimpl<S> {ctx} for Ctx<S> {{}}"),
    );
    let planted = [
        file(
            "crates/pods/src/engine/native.rs",
            format!("\timpl {ctx}\tfor Frame {{}}\n// impl {ctx} for Doc {{}}"),
        ),
        file(
            "crates/pods/src/engine/async_coop/task.rs",
            format!("impl My{ctx} for Task {{}}\nimpl {ctx} fork {{}}\nimpls {ctx} for T {{}}"),
        ),
        file("crates/sp/src/exec.rs", format!("impl {ctx} for Test {{}}")),
    ];
    let mut tree = vec![pool];
    tree.extend(planted);
    let message = one_pooled_scheduler_guard(&tree).expect("the guard fires");
    assert!(
        message.contains(&format!("'impl {ctx} for'"))
            && message.contains(&format!(
                "crates/pods/src/engine/native.rs:1:\timpl {ctx}\tfor"
            ))
            && message.contains(&format!("crates/pods/src/engine/pool.rs:2:impl<S> {ctx}")),
        "{message}"
    );
    for ignored in ["native.rs:2:", "task.rs", "crates/sp/"] {
        assert!(
            !message.contains(ignored),
            "a comment, a longer name, `fork`, `impls` or crates/sp/ is no second context: \
             {message}"
        );
    }
    assert!(one_pooled_scheduler_guard(&tree[..1]).is_none());
}

/// The I-structure store type. Spelled in pieces so that this file does not
/// name it itself.
fn store_name() -> String {
    ["Shared", "ArrayStore"].concat()
}

/// `true` when `line` creates a store: the rule
/// `SharedArrayStore(::<[^>]*>)?::(new|default)\b`.
fn creates_store(line: &str) -> bool {
    let name = store_name();
    line.match_indices(name.as_str()).any(|(at, _)| {
        let rest = &line[at + name.len()..];
        let rest = match rest.strip_prefix("::<") {
            Some(generic) => match generic.split_once('>') {
                Some((_, after)) => after,
                None => return false,
            },
            None => rest,
        };
        rest.strip_prefix("::").is_some_and(|call| {
            ["new", "default"].iter().any(|f| {
                call.strip_prefix(f)
                    .is_some_and(|after| !after.starts_with(is_ident))
            })
        })
    })
}

/// The one-store-recycler guard. A pool hands each finished job's
/// I-structure store, cleared, to its next job; the one place that creates
/// a store is the pool's recycling path (`Shared::job_state` in
/// `engine/pool.rs`). Another store creation under
/// `crates/pods/src/engine/` means a per-job store, and its per-array
/// allocations, came back.
fn one_store_recycler_guard(files: &[SourceFile]) -> Option<String> {
    let found = lines_under(files, "crates/pods/src/engine", creates_store);
    let outside = found
        .iter()
        .any(|line| !line.starts_with("crates/pods/src/engine/pool.rs:"));
    if !outside && found.len() <= 1 {
        return None;
    }
    Some(format!(
        "{} created outside the pool's recycling path:\n{}\n\
         Take the job's store from the pool's spares (Shared::job_state) instead.",
        store_name(),
        found.join("\n")
    ))
}

#[test]
fn jobs_take_their_store_from_one_recycler() {
    let files = source_files();
    assert!(
        files
            .iter()
            .any(|f| f.path == "crates/pods/src/engine/pool.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = one_store_recycler_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn one_store_recycler_guard_fires_on_a_planted_violation() {
    let store = store_name();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let recycler = || {
        file(
            "crates/pods/src/engine/pool.rs",
            format!("spare.unwrap_or_else(|| ({store}::new(), S::JobState::default()))"),
        )
    };
    let planted = [
        recycler(),
        file(
            "crates/pods/src/engine/native.rs",
            format!("let s = {store}::<Value>::default();\nlet t = {store}::newer();"),
        ),
        file("crates/pods/src/runtime.rs", format!("{store}::new()")),
    ];
    let message = one_store_recycler_guard(&planted).expect("the guard fires");
    assert!(
        message.contains(&format!(
            "crates/pods/src/engine/native.rs:1:let s = {store}::<Value>::default();"
        )),
        "{message}"
    );
    assert!(
        !message.contains("newer") && !message.contains("runtime.rs"),
        "only new/default calls under crates/pods/src/engine/ count: {message}"
    );
    let second = file(
        "crates/pods/src/engine/pool.rs",
        format!("let a = {store}::new();\nlet b = {store}::default();"),
    );
    assert!(
        one_store_recycler_guard(&[second]).is_some(),
        "a second store in pool.rs counts too"
    );
    let runtime = file("crates/pods/src/runtime.rs", format!("{store}::new()"));
    assert!(one_store_recycler_guard(&[recycler(), runtime]).is_none());
}

/// The engine trait, the per-call entry point and a pool's type path, which
/// a second way to run a program would bring back. Spelled in pieces so
/// that this file does not name them itself.
fn entry_path_names() -> [String; 3] {
    [
        ["Eng", "ine"].concat(),
        ["run", "_on"].concat(),
        ["Pool", "::<"].concat(),
    ]
}

/// `true` when `line` implements the engine trait or defines the per-call
/// entry point: the rule `\bimpl\b.*\bEngine\s+for\b|\bfn\s+run_on\b`.
fn second_entry_path(line: &str) -> bool {
    let [engine, run_on, _] = entry_path_names();
    word_starts(line, "impl").any(|at| implemented_after(line, at + "impl".len(), &engine))
        || word_starts(line, "fn").any(|at| spaced_word(&line[at + "fn".len()..], &run_on))
}

/// `true` when `line` spawns a pool: the rule `Pool::<[^>]*>::new\(`.
fn spawns_pool(line: &str) -> bool {
    let [_, _, pool] = entry_path_names();
    line.match_indices(pool.as_str()).any(|(at, _)| {
        line[at + pool.len()..]
            .split_once('>')
            .is_some_and(|(_, after)| after.starts_with("::new("))
    })
}

/// The line numbers strictly inside `EngineKind::spawn_pool` in `text`:
/// after its `fn spawn_pool(` line and before the first later line that is
/// exactly `    }`.
fn spawn_pool_body(text: &str) -> Option<(usize, usize)> {
    let lines: Vec<&str> = text.lines().collect();
    let start = lines.iter().position(|l| l.contains("fn spawn_pool("))? + 1;
    let end = start + 1 + lines[start..].iter().position(|l| *l == "    }")?;
    Some((start, end))
}

/// The one-front-door guard. Every run goes through `pods::Runtime`: the
/// modelled engines are plain functions it calls, and a pooled engine's
/// pool is spawned once, by `EngineKind::spawn_pool` (`engine/mod.rs`), and
/// kept warm by the runtime. An engine-trait impl or a per-call entry point
/// under `crates/` means a second entry path came back; a pool spawned
/// elsewhere under `crates/pods/src/` (the `#[cfg(test)]` cases of
/// `engine/pool.rs` excepted) means a transient per-call pool did.
fn one_front_door_guard(files: &[SourceFile]) -> Option<String> {
    let found = lines_under(files, "crates", second_entry_path);
    if !found.is_empty() {
        return Some(format!(
            "A second entry path beside pods::Runtime:\n{}\n\
             Run programs through Runtime::builder(kind)...build().run(..).",
            found.join("\n")
        ));
    }
    let text_of = |path: &str| files.iter().find(|f| f.path == path).map(|f| &f.text);
    let spawn = text_of("crates/pods/src/engine/mod.rs").and_then(|text| spawn_pool_body(text));
    let tests = text_of("crates/pods/src/engine/pool.rs")
        .and_then(|text| text.lines().position(|l| l.starts_with("#[cfg(test)]")))
        .map(|at| at + 1);
    let outside: Vec<String> = lines_under(files, "crates/pods/src", spawns_pool)
        .into_iter()
        .filter(|found| {
            let mut parts = found.splitn(3, ':');
            let (path, n) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            let n: usize = n.parse().expect("a line number");
            let in_spawn = path == "crates/pods/src/engine/mod.rs"
                && spawn.is_some_and(|(start, end)| n > start && n < end);
            let in_tests = path == "crates/pods/src/engine/pool.rs" && tests.is_some_and(|t| n > t);
            !in_spawn && !in_tests
        })
        .collect();
    if spawn.is_some() && outside.is_empty() {
        return None;
    }
    let found = if outside.is_empty() {
        "no EngineKind::spawn_pool found in crates/pods/src/engine/mod.rs".to_string()
    } else {
        outside.join("\n")
    };
    Some(format!(
        "Worker pool spawned outside EngineKind::spawn_pool:\n{found}\n\
         Submit to a Runtime, which keeps its one pool warm."
    ))
}

#[test]
fn every_run_goes_through_one_front_door() {
    let files = source_files();
    assert!(
        files
            .iter()
            .any(|f| f.path == "crates/pods/src/engine/mod.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = one_front_door_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn one_front_door_guard_fires_on_a_planted_violation() {
    let [engine, run_on, pool] = entry_path_names();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let engine_mod = || {
        file(
            "crates/pods/src/engine/mod.rs",
            format!(
                "impl EngineKind {{\n    fn spawn_pool(self) {{\n        \
                 {pool}native::Registry>::new(workers)\n    }}\n}}"
            ),
        )
    };
    let pool_rs = || {
        file(
            "crates/pods/src/engine/pool.rs",
            format!("fn job() {{}}\n#[cfg(test)]\nmod cases {{ {pool}S>::new(4); }}"),
        )
    };
    let tree = [engine_mod(), pool_rs()];
    assert!(one_front_door_guard(&tree).is_none());

    let entry = file(
        "crates/baseline/src/lib.rs",
        format!(
            "impl<'a> {engine}  for Seq {{}}\npub fn  {run_on}(x: u8) {{}}\n\
             impl My{engine} for Seq {{}}\nfn {run_on}ce() {{}}"
        ),
    );
    let message = one_front_door_guard(&[engine_mod(), pool_rs(), entry]).expect("the guard fires");
    for line in [
        format!("crates/baseline/src/lib.rs:1:impl<'a> {engine}  for Seq {{}}"),
        format!("crates/baseline/src/lib.rs:2:pub fn  {run_on}(x: u8) {{}}"),
    ] {
        assert!(message.contains(&line), "{line} in {message}");
    }
    assert!(
        !message.contains("lib.rs:3:") && !message.contains("lib.rs:4:"),
        "only whole names count: {message}"
    );

    let transient = file(
        "crates/pods/src/runtime.rs",
        format!("let p = {pool}S>::new(1);"),
    );
    let message =
        one_front_door_guard(&[engine_mod(), pool_rs(), transient]).expect("the guard fires");
    assert!(
        message.contains(&format!(
            "crates/pods/src/runtime.rs:1:let p = {pool}S>::new(1);"
        )) && !message.contains("engine/mod.rs:")
            && !message.contains("engine/pool.rs:"),
        "{message}"
    );
    let message = one_front_door_guard(&[pool_rs()]).expect("the guard fires");
    assert!(
        message.contains("no EngineKind::spawn_pool found"),
        "{message}"
    );
}

/// The dataflow-graph crate, as a manifest and as Rust code names it.
/// Spelled in pieces so that this file does not name it itself.
fn graph_crate_names() -> [String; 2] {
    [
        ["pods", "-dataflow"].concat(),
        ["pods", "_dataflow"].concat(),
    ]
}

/// The graph-belongs-to-the-benchmark guard. The pipeline lowers the HIR
/// straight to SP templates and takes the loop analysis from `pods_idlang`;
/// the dataflow graph is built only by the standing benchmark's probe. A
/// workspace manifest outside `crates/dataflow` that lists the graph crate,
/// or Rust code outside it that names the crate, means the graph came back
/// into the pipeline.
fn graph_is_the_benchmarks_guard(
    manifests: &[SourceFile],
    sources: &[SourceFile],
) -> Option<String> {
    let [package, library] = graph_crate_names();
    let mut found = lines_where(manifests, "crates/dataflow/", |line| {
        contains_word(line, &package)
    });
    found.extend(lines_where(sources, "crates/dataflow/", |line| {
        contains_word(line, &library)
    }));
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "The dataflow graph is the benchmark's alone, but {package} is used here:\n{}\n\
         The pipeline lowers the HIR straight to SP templates; \
         take the loop analysis from pods_idlang.",
        found.join("\n")
    ))
}

#[test]
fn the_dataflow_graph_is_the_benchmarks_alone() {
    let is_manifest = |path: &Path| path.ends_with("Cargo.toml");
    let manifests: Vec<SourceFile> = ["Cargo.toml", "crates"]
        .iter()
        .flat_map(|dir| files_under(dir, &is_manifest))
        .collect();
    assert!(
        manifests.iter().any(|f| f.path == "crates/pods/Cargo.toml"),
        "the guard reads the workspace's manifests"
    );
    if let Some(message) = graph_is_the_benchmarks_guard(&manifests, &source_files()) {
        panic!("{message}");
    }
}

#[test]
fn graph_guard_fires_on_a_planted_violation() {
    let [package, library] = graph_crate_names();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let manifests = [
        file(
            "crates/dataflow/Cargo.toml",
            format!("[package]\nname = \"{package}\""),
        ),
        file(
            "crates/pods/Cargo.toml",
            format!("[dependencies]\n{package} = {{ workspace = true }}"),
        ),
        file(
            "Cargo.toml",
            format!("members = [\"crates/dataflow\"]\n{package}s = 1"),
        ),
    ];
    let sources = [
        file("crates/dataflow/src/lib.rs", format!("//! {library}")),
        file(
            "examples/inspect_pipeline.rs",
            format!("let graph = {library}::build_program(&hir);"),
        ),
        file("tests/integration.rs", format!("use {library}x;")),
    ];
    let message = graph_is_the_benchmarks_guard(&manifests, &sources).expect("the guard fires");
    for line in [
        format!("crates/pods/Cargo.toml:2:{package} = {{ workspace = true }}"),
        format!("examples/inspect_pipeline.rs:1:let graph = {library}::build_program(&hir);"),
    ] {
        assert!(message.contains(&line), "{line} in {message}");
    }
    assert!(
        !message.contains("crates/dataflow/")
            && !message.contains("\nCargo.toml:")
            && !message.contains("tests/integration.rs"),
        "crates/dataflow/ may name itself, and only whole names count: {message}"
    );
    assert!(graph_is_the_benchmarks_guard(&manifests[..1], &sources[..1]).is_none());
}

/// The environment variables the code may read: `PODS_ENGINE` picks the
/// engine of the figure binaries and the pooled test suites, and
/// `PODS_SOAK_SCALE` lengthens the service soak.
const READABLE_VARIABLES: [&str; 2] = ["PODS_ENGINE", "PODS_SOAK_SCALE"];

/// `std::env`'s two variable readers. Spelled in pieces so that this file
/// does not name them itself.
fn variable_reader_names() -> [String; 2] {
    [["env::", "var"].concat(), ["env::", "var_os"].concat()]
}

/// `true` when `line` names a variable reader other than in a call that
/// reads one of [`READABLE_VARIABLES`]: a call of another variable, or an
/// import that would let a call go unseen.
fn reads_another_variable(line: &str) -> bool {
    let allowed = READABLE_VARIABLES
        .iter()
        .any(|name| line.contains(&format!("\"{name}\"")));
    variable_reader_names().iter().any(|reader| {
        word_starts(line, reader)
            .any(|at| !allowed || !line[at + reader.len()..].trim_start().starts_with('('))
    })
}

/// The environment-variable guard. Every setting of the runtime has one
/// way to be set, through `RuntimeBuilder`; an environment variable that
/// changes a default changes it under every test and binary at once. The
/// only variables read are [`READABLE_VARIABLES`], each in a call that
/// names it. Returns the failure message, or `None` when the rule holds.
fn environment_guard(files: &[SourceFile]) -> Option<String> {
    let found = lines_where(files, "", reads_another_variable);
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "Environment read of a variable other than {}:\n{}\n\
         Configure a runtime through RuntimeBuilder instead.",
        READABLE_VARIABLES.join(" or "),
        found.join("\n")
    ))
}

#[test]
fn only_two_environment_variables_are_read() {
    let files = source_files();
    assert!(
        files
            .iter()
            .any(|f| f.path == "crates/pods/src/engine/mod.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = environment_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn environment_guard_fires_on_a_planted_violation() {
    let [var, var_os] = variable_reader_names();
    let trace = ["PODS_", "TRACE"].concat();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let planted = [
        file(
            "crates/pods/src/engine/mod.rs",
            format!("EngineKind::from_env_value(std::{var}(\"PODS_ENGINE\"))"),
        ),
        file(
            "tests/service_soak.rs",
            format!("std::{var} (\"PODS_SOAK_SCALE\")\nlet e: std::env::VarError;"),
        ),
        file(
            "crates/pods/src/trace/recorder.rs",
            format!("let v = std::{var}(\"{trace}\").ok()?;"),
        ),
        file(
            "examples/quickstart.rs",
            format!("let v = std::{var_os}(\"PODS_ENGINE_{trace}\");"),
        ),
        file("src/lib.rs", format!("use std::{var};")),
    ];
    let message = environment_guard(&planted).expect("the guard fires");
    for line in [
        format!("crates/pods/src/trace/recorder.rs:1:let v = std::{var}(\"{trace}\").ok()?;"),
        format!("examples/quickstart.rs:1:let v = std::{var_os}(\"PODS_ENGINE_{trace}\");"),
        format!("src/lib.rs:1:use std::{var};"),
    ] {
        assert!(message.contains(&line), "{line} in {message}");
    }
    assert!(
        !message.contains("engine/mod.rs") && !message.contains("service_soak.rs"),
        "reads of the two allowed variables pass: {message}"
    );
    assert!(environment_guard(&planted[..2]).is_none());
}

/// The `path:line:text` of every line under `scope` (a path prefix) that a
/// non-test build compiles, for which `breaks` holds. A file's test code
/// comes last: its non-test lines are those before its first
/// `#[cfg(test)]` at column 0.
fn non_test_lines_under(
    files: &[SourceFile],
    scope: &str,
    breaks: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut found = Vec::new();
    for file in files.iter().filter(|f| f.path.starts_with(scope)) {
        let lines = file.text.lines().enumerate();
        for (n, line) in lines.take_while(|(_, l)| !l.starts_with("#[cfg(test)]")) {
            if breaks(line) {
                found.push(format!("{}:{}:{line}", file.path, n + 1));
            }
        }
    }
    found
}

/// A thread yield and a reference-count read: what a spin-wait for a job
/// to be let go of is made of. Spelled in pieces so that this file does
/// not name them itself.
fn spin_wait_names() -> [String; 2] {
    [["yield", "_now"].concat(), ["strong", "_count"].concat()]
}

/// The one-completion-point guard. A pooled job ends in its `Drop`, when
/// its last task lets go of it, and only then tells its waiter, so nothing
/// under `crates/pods/src/` waits for a job by spinning on its reference
/// count or yielding until it changes. Either, outside tests, means a
/// second way to learn that a job ended came back.
fn one_completion_point_guard(files: &[SourceFile]) -> Option<String> {
    let names = spin_wait_names();
    let found = non_test_lines_under(files, "crates/pods/src/", |line| {
        names.iter().any(|name| contains_word(line, name))
    });
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "A spin-wait on a job under crates/pods/src/:\n{}\n\
         A job's end reaches its waiter through the job's notifier; wait on that.",
        found.join("\n")
    ))
}

#[test]
fn a_job_ends_in_one_place_and_nothing_spins_for_it() {
    let files = source_files();
    assert!(
        files
            .iter()
            .any(|f| f.path == "crates/pods/src/engine/pool.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = one_completion_point_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn one_completion_point_guard_fires_on_a_planted_violation() {
    let [yield_now, strong_count] = spin_wait_names();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let planted = [
        file(
            "crates/pods/src/engine/pool.rs",
            format!(
                "while Arc::{strong_count}(&self.job) > 1 {{\n    std::thread::{yield_now}();\n}}\n\
                 #[cfg(test)]\nmod cases {{ std::thread::{yield_now}(); }}"
            ),
        ),
        file(
            "crates/pods/src/service/mod.rs",
            format!("let n = my_{strong_count}(x);\nthread::{yield_now}();"),
        ),
        file("tests/runtime.rs", format!("std::thread::{yield_now}();")),
    ];
    let message = one_completion_point_guard(&planted).expect("the guard fires");
    for line in [
        format!("crates/pods/src/engine/pool.rs:1:while Arc::{strong_count}(&self.job) > 1 {{"),
        format!("crates/pods/src/engine/pool.rs:2:    std::thread::{yield_now}();"),
        format!("crates/pods/src/service/mod.rs:2:thread::{yield_now}();"),
    ] {
        assert!(message.contains(&line), "{line} in {message}");
    }
    assert!(
        !message.contains("pool.rs:5:")
            && !message.contains("mod.rs:1:")
            && !message.contains("tests/runtime.rs"),
        "test code, other names and files outside crates/pods/src/ pass: {message}"
    );
    assert!(one_completion_point_guard(&planted[2..]).is_none());
}

/// The scheduler's task runner and the unwind boundary around it. Spelled
/// in pieces so that this file does not name them itself.
fn unwind_boundary_names() -> [String; 2] {
    [["run", "_task"].concat(), ["catch", "_unwind"].concat()]
}

/// The unwind-boundary guard. A pool worker runs every task inside
/// `std::panic::catch_unwind`, so a panicking instance fails its job
/// instead of killing the worker and hanging the job's waiter. Every call
/// of the task runner under `crates/pods/src/engine/` outside tests must
/// sit on the line of a `catch_unwind(`, or on the line after it (where
/// rustfmt puts a closure body), and there must be one.
fn unwind_boundary_guard(files: &[SourceFile]) -> Option<String> {
    let [run_task, catch_unwind] = unwind_boundary_names();
    let (call, boundary) = (format!("{run_task}("), format!("{catch_unwind}("));
    let definition = format!("fn {run_task}");
    let mut calls = 0;
    let mut outside = Vec::new();
    for file in files
        .iter()
        .filter(|f| f.path.starts_with("crates/pods/src/engine/"))
    {
        let mut previous = "";
        for (n, line) in file.text.lines().enumerate() {
            if line.starts_with("#[cfg(test)]") {
                break;
            }
            if line.contains(&call) && !line.contains(&definition) {
                calls += 1;
                if !line.contains(&boundary) && !previous.contains(&boundary) {
                    outside.push(format!("{}:{}:{line}", file.path, n + 1));
                }
            }
            previous = line;
        }
    }
    if calls > 0 && outside.is_empty() {
        return None;
    }
    let found = if calls == 0 {
        format!("no call of {run_task} found under crates/pods/src/engine/")
    } else {
        outside.join("\n")
    };
    Some(format!(
        "A task run outside the worker's unwind boundary:\n{found}\n\
         Call it inside `panic::{catch_unwind}(AssertUnwindSafe(|| ..))`."
    ))
}

#[test]
fn pool_workers_run_tasks_inside_the_unwind_boundary() {
    let files = source_files();
    assert!(
        files
            .iter()
            .any(|f| f.path == "crates/pods/src/engine/pool.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = unwind_boundary_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn unwind_boundary_guard_fires_on_a_planted_violation() {
    let [run_task, catch_unwind] = unwind_boundary_names();
    let file = |path: &str, text: String| SourceFile {
        path: path.to_string(),
        text,
    };
    let pool = |body: &str| {
        file(
            "crates/pods/src/engine/pool.rs",
            format!(
                "fn {run_task}(&self) {{}}\n{body}\n\
                 #[cfg(test)]\nmod cases {{ fn t() {{ pool.{run_task}(job); }} }}"
            ),
        )
    };
    let guarded =
        format!("let ran = panic::{catch_unwind}(AssertUnwindSafe(|| self.{run_task}(&job)));");
    assert!(unwind_boundary_guard(&[pool(&guarded)]).is_none());
    let wrapped = format!(
        "let ran = panic::{catch_unwind}(AssertUnwindSafe(|| {{\n    self.{run_task}(&job)\n}}));"
    );
    assert!(unwind_boundary_guard(&[pool(&wrapped)]).is_none());

    let bare = pool(&format!("self.{run_task}(&entry.job, task, w, &mut ctx);"));
    let message = unwind_boundary_guard(&[bare]).expect("the guard fires");
    assert!(
        message.contains(&format!(
            "crates/pods/src/engine/pool.rs:2:self.{run_task}(&entry.job, task, w, &mut ctx);"
        )) && !message.contains("pool.rs:1:")
            && !message.contains("pool.rs:4:"),
        "{message}"
    );
    let elsewhere = file(
        "crates/pods/src/engine/native.rs",
        format!("fn step() {{ self.{run_task}(a); }}"),
    );
    let message = unwind_boundary_guard(&[pool(&guarded), elsewhere]).expect("the guard fires");
    assert!(message.contains("native.rs:1:"), "{message}");
    let message = unwind_boundary_guard(&[pool("")]).expect("a missing call fires too");
    assert!(message.contains("no call"), "{message}");
}

/// `true` when `line` copies an environment: a `.clone()` of a receiver
/// whose name starts with `env` (`env`, `env2`, `self.env`, ...).
fn clones_an_environment(line: &str) -> bool {
    line.match_indices(".clone()").any(|(at, _)| {
        let receiver = line[..at].trim_end_matches(is_ident);
        line[receiver.len()..at].starts_with("env")
    })
}

/// The oracle-resolution guard. The sequential oracle
/// (`crates/baseline/src/interp.rs`) gives every name a frame slot before
/// it runs and never copies an environment. A `HashMap` in its non-test
/// lines means names are hashed at run time again; a `.clone()` of an
/// `env…` means an environment is copied per branch again.
fn oracle_resolution_guard(files: &[SourceFile]) -> Option<String> {
    let found = non_test_lines_under(files, "crates/baseline/src/interp.rs", |line| {
        contains_word(line, "HashMap") || clones_an_environment(line)
    });
    if found.is_empty() {
        return None;
    }
    Some(format!(
        "The oracle looks names up or copies an environment as it runs:\n{}\n\
         Resolve the name to a frame slot in its plan instead.",
        found.join("\n")
    ))
}

#[test]
fn the_oracle_resolves_names_before_it_runs() {
    let files = source_files();
    assert!(
        files
            .iter()
            .any(|f| f.path == "crates/baseline/src/interp.rs"),
        "the guard reads the source tree"
    );
    if let Some(message) = oracle_resolution_guard(&files) {
        panic!("{message}");
    }
}

#[test]
fn oracle_resolution_guard_fires_on_a_planted_violation() {
    let file = |path: &str, text: &str| SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    };
    let planted = [
        file(
            "crates/baseline/src/interp.rs",
            "use std::collections::HashMap;\n\
             let mut env2 = env.clone();\n\
             name: name.clone(),\n\
             let scope = self.env_of(f).clone();\n\
             #[cfg(test)]\n\
             mod tests { let m: HashMap<u32, u32> = HashMap::new(); let e = env.clone(); }",
        ),
        file(
            "crates/baseline/src/pr.rs",
            "use std::collections::HashMap;\nlet e = env.clone();",
        ),
    ];
    let message = oracle_resolution_guard(&planted).expect("the guard fires");
    for line in [
        "crates/baseline/src/interp.rs:1:use std::collections::HashMap;",
        "crates/baseline/src/interp.rs:2:let mut env2 = env.clone();",
    ] {
        assert!(message.contains(line), "{line} in {message}");
    }
    assert!(
        !message.contains("interp.rs:3:")
            && !message.contains("interp.rs:4:")
            && !message.contains("interp.rs:6:")
            && !message.contains("pr.rs"),
        "other clones, test code and other files pass: {message}"
    );
    assert!(oracle_resolution_guard(&planted[1..]).is_none());
}
