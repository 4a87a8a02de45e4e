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

/// Every `.rs` file under [`SOURCE_DIRS`].
fn source_files() -> Vec<SourceFile> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) {
        let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let relative = path.strip_prefix(root).expect("under the root");
                let parts: Vec<_> = relative.iter().map(|p| p.to_string_lossy()).collect();
                out.push(SourceFile {
                    path: parts.join("/"),
                    text: std::fs::read_to_string(&path)
                        .unwrap_or_else(|e| panic!("{}: {e}", path.display())),
                });
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        walk(root, &root.join(dir), &mut files);
    }
    files
}

/// `true` for the characters of an identifier.
fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `true` when `word` occurs in `line` as a whole identifier.
fn contains_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// The `path:line:text` of every line outside `allowed` (a path prefix)
/// for which `breaks` holds.
fn lines_where(files: &[SourceFile], allowed: &str, breaks: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for file in files.iter().filter(|f| !f.path.starts_with(allowed)) {
        for (n, line) in file.text.lines().enumerate() {
            if breaks(line) {
                found.push(format!("{}:{}:{line}", file.path, n + 1));
            }
        }
    }
    found
}

/// The `path:line:text` of every line outside `allowed` (a path prefix)
/// that names one of `words` as a whole identifier.
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
    let is_space = |c: char| c.is_ascii_whitespace() || c == '\x0b';
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
