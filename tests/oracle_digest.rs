//! The sequential oracle's outputs, pinned.
//!
//! `pods_baseline::run_sequential` is the spec every engine is checked
//! against, and its modelled time and loop-nest profiles feed the
//! efficiency comparison and the Pingali & Rogers rows of Figure 10. This
//! suite pins, for the six workload programs and a 128-probe gather:
//!
//! - the bits of `elapsed_us` and `serial_us`;
//! - every `NestProfile`, as a digest of its `Debug` text (which prints
//!   each `f64` exactly) and their number;
//! - the return value and a digest of every array (name, shape, values);
//!
//! and, for a table of failing programs, the exact `BaselineError` text.
//! A change to *how* the oracle runs must leave every entry as it is; a
//! change to *what* it computes must say so here.

use pods_baseline::{run_sequential, BaselineError, SequentialRun};
use pods_istructure::Value;
use pods_machine::TimingModel;

/// FNV-1a 64 over bytes.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn text(&mut self, text: &str) {
        for byte in text.bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }
}

fn digest(texts: impl IntoIterator<Item = String>) -> u64 {
    let mut fnv = Fnv(Fnv::OFFSET);
    for text in texts {
        fnv.text(&text);
    }
    fnv.0
}

/// Compiles `source` and runs it on the oracle within `max_steps`
/// statements (0 = unlimited).
fn run(source: &str, args: &[Value], max_steps: u64) -> Result<SequentialRun, BaselineError> {
    let hir = pods_idlang::compile(source).expect("compiles");
    let loops = pods_idlang::analyze_loops(&hir);
    run_sequential(&hir, &loops, args, &TimingModel::default(), max_steps)
}

/// What a successful run is pinned by.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pin {
    elapsed_bits: u64,
    serial_bits: u64,
    nests: usize,
    nests_digest: u64,
    return_value: &'static str,
    arrays: usize,
    arrays_digest: u64,
}

/// The pin of `run`, with the return value's `Debug` text in `returned`.
fn pin_of(run: &SequentialRun, returned: &mut String) -> Pin {
    *returned = format!("{:?}", run.return_value);
    Pin {
        elapsed_bits: run.elapsed_us.to_bits(),
        serial_bits: run.serial_us.to_bits(),
        nests: run.nests.len(),
        nests_digest: digest(run.nests.iter().map(|n| format!("{n:?}"))),
        return_value: "",
        arrays: run.arrays.len(),
        arrays_digest: digest(
            run.arrays
                .iter()
                .map(|a| format!("{} {} {:?}", a.name, a.shape, a.values)),
        ),
    }
}

/// A gather with one `probe` call per element, the sum right-nested (the
/// benchmark's `gather_wake` program).
fn gather_source(probes: usize) -> String {
    let mut expr = format!("probe(a, {})", probes - 1);
    for i in (0..probes - 1).rev() {
        expr = format!("probe(a, {i}) + ({expr})");
    }
    format!(
        "def main(n) {{\n    a = array(n);\n    for i = 0 to n - 1 {{ a[i] = i * 3; }}\n    \
         return {expr};\n}}\ndef probe(a, i) {{ return a[i] + 1; }}\n"
    )
}

/// `(program, argument, pin)`; `None` runs `main()` without arguments.
#[rustfmt::skip]
const PINS: [(&str, Option<i64>, Pin); 7] = [
    ("PAPER_EXAMPLE", None, Pin { elapsed_bits: 0x40ae050c49ba5ea9, serial_bits: 0x4059a7ef9db22d00, nests: 1, nests_digest: 0xc28d0e25516db6e6, return_value: "Some(ArrayRef(ArrayId(0)))", arrays: 1, arrays_digest: 0x1f369783b204c9b3 }),
    ("FILL", Some(12), Pin { elapsed_bits: 0x40b8c46e978d4fb5, serial_bits: 0x4059c189374bc6c0, nests: 1, nests_digest: 0x116671d1e29ddbb4, return_value: "Some(ArrayRef(ArrayId(0)))", arrays: 1, arrays_digest: 0x856175c689a6d583 }),
    ("MATMUL", Some(6), Pin { elapsed_bits: 0x40bb26178d4fdf29, serial_bits: 0x40b7b0af1a9fbe6a, nests: 2, nests_digest: 0x33ba9e4c6aadd0c4, return_value: "Some(ArrayRef(ArrayId(3)))", arrays: 4, arrays_digest: 0x44e5c53583fefa41 }),
    ("STENCIL", Some(10), Pin { elapsed_bits: 0x40acce0000000053, serial_bits: 0x40a5b5000000006f, nests: 4, nests_digest: 0x06469aec0d2cb77c, return_value: "Some(ArrayRef(ArrayId(1)))", arrays: 2, arrays_digest: 0x030c3d134dde984c }),
    ("RECURRENCE", Some(40), Pin { elapsed_bits: 0x4098bfe76c8b4374, serial_bits: 0x4069ae147ae147a8, nests: 2, nests_digest: 0xad23a4f24869a9b8, return_value: "Some(ArrayRef(ArrayId(1)))", arrays: 2, arrays_digest: 0xa07427bad9fcb9a1 }),
    ("SIMPLE", Some(16), Pin { elapsed_bits: 0x411895964fdf3a12, serial_bits: 0x40e814b5eb8546f0, nests: 12, nests_digest: 0x28122ada4208e9be, return_value: "Some(ArrayRef(ArrayId(21)))", arrays: 22, arrays_digest: 0x86fed487a973fdcb }),
    ("GATHER128", Some(128), Pin { elapsed_bits: 0x40916b78d4fdf33c, serial_bits: 0x4087f028f5c28e82, nests: 1, nests_digest: 0x499debd452a5bfee, return_value: "Some(Int(24512))", arrays: 1, arrays_digest: 0xc6c32bffbf4d0156 }),
];

#[test]
fn oracle_runs_of_the_workloads_match_their_pins() {
    // The gather's 128-deep sum needs more stack than a debug test thread
    // has to parse.
    let mismatches = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let gather = gather_source(128);
            let mut mismatches = Vec::new();
            for (name, arg, expected) in PINS {
                let source = match name {
                    "PAPER_EXAMPLE" => pods_workloads::PAPER_EXAMPLE,
                    "FILL" => pods_workloads::FILL,
                    "MATMUL" => pods_workloads::MATMUL,
                    "STENCIL" => pods_workloads::STENCIL,
                    "RECURRENCE" => pods_workloads::RECURRENCE,
                    "SIMPLE" => pods_workloads::simple::SIMPLE,
                    _ => &gather,
                };
                let args: Vec<Value> = arg.into_iter().map(Value::Int).collect();
                let outcome = run(source, &args, 0)
                    .unwrap_or_else(|e| panic!("{name}: the oracle failed: {e}"));
                let mut returned = String::new();
                let actual = pin_of(&outcome, &mut returned);
                let expected_without_return = Pin {
                    return_value: "",
                    ..expected
                };
                if actual != expected_without_return || returned != expected.return_value {
                    mismatches.push(format!(
                        "    (\"{name}\", {arg:?}, Pin {{ elapsed_bits: {:#018x}, serial_bits: \
                         {:#018x}, nests: {}, nests_digest: {:#018x}, return_value: {returned:?}, \
                         arrays: {}, arrays_digest: {:#018x} }}),",
                        actual.elapsed_bits,
                        actual.serial_bits,
                        actual.nests,
                        actual.nests_digest,
                        actual.arrays,
                        actual.arrays_digest,
                    ));
                }
            }
            mismatches
        })
        .expect("spawn")
        .join()
        .expect("the pin runs");
    assert!(
        mismatches.is_empty(),
        "oracle runs differ from their pins; the runs read:\n{}",
        mismatches.join("\n")
    );
}

/// `(what, source, argument, statement budget, the error's text)`.
#[rustfmt::skip]
const FAILURES: [(&str, &str, Option<Value>, u64, &str); 16] = [
    ("read before write", "def main(n) { a = array(n); return a[1]; }", Some(Value::Int(3)), 0,
     "baseline error: element 1 of `a` read before being written"),
    ("out of bounds", "def main(n) { a = matrix(n, n); a[1, n] = 1; return a; }", Some(Value::Int(3)), 0,
     "baseline error: index [1, 3] out of bounds for `a` (3x3)"),
    ("an array as an index", "def main(n) { a = array(n); a[a] = 1; return a; }", Some(Value::Int(3)), 0,
     "baseline error: index [-1] out of bounds for `a` (3)"),
    ("the stored value before the indices", "def main(n) { a = array(n); a[n] = a[0]; return a; }", Some(Value::Int(3)), 0,
     "baseline error: element 0 of `a` read before being written"),
    ("single-assignment violation", "def main(n) { a = array(n); a[0] = 1; a[0] = 2; return a; }", Some(Value::Int(3)), 0,
     "baseline error: single-assignment violation on `a`"),
    ("bad dimension", "def main(n) { a = matrix(n, n - 4); return a; }", Some(Value::Int(3)), 0,
     "baseline error: bad dimension for `a`"),
    ("main arity", "def main(n, m) { return n + m; }", Some(Value::Int(3)), 0,
     "baseline error: `main` takes 2 argument(s), 1 supplied"),
    ("no main", "def f(n) { return n; }", Some(Value::Int(3)), 0,
     "baseline error: program has no `main` function"),
    ("step limit", "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i; } return a; }", Some(Value::Int(100)), 5,
     "baseline error: statement limit exceeded: 5"),
    ("non-boolean condition", "def main(n) { a = array(n); return if a then 1 else 2; }", Some(Value::Int(3)), 0,
     "baseline error: non-boolean condition"),
    ("non-integer loop bound", "def main(n) { a = array(n); for i = 0 to a { a[i] = i; } return a; }", Some(Value::Int(3)), 0,
     "baseline error: non-integer loop bound"),
    ("a branch's binding read when the other branch ran", "def main(c) { if c > 0 { z = 1; } else { y = 2; } return z; }", Some(Value::Int(0)), 0,
     "baseline error: unknown variable `z`"),
    ("a scalar parameter indexed", "def main(n) { return g(n); } def g(a) { return a[0]; }", Some(Value::Int(3)), 0,
     "baseline error: `a` is not an array"),
    ("an array parameter indexed past its rank", "def main(n) { a = array(n); g(a); return a; } def g(a) { a[0, 1] = 1; return 0; }", Some(Value::Int(3)), 0,
     "baseline error: index [0, 1] out of bounds for `a` (3)"),
    ("a call that returns nothing", "def main(n) { return f(n) + 1; } def f(n) { a = array(n); }", Some(Value::Int(3)), 0,
     "baseline error: `f` returned no value"),
    ("an operand of the wrong type", "def main(n) { a = array(n); return a + 1; }", Some(Value::Int(3)), 0,
     "baseline error: left arithmetic operand is not numeric: array#0"),
];

#[test]
fn oracle_errors_match_their_pinned_text() {
    let mut mismatches = Vec::new();
    for (what, source, arg, max_steps, expected) in FAILURES {
        let args: Vec<Value> = arg.into_iter().collect();
        let actual = match run(source, &args, max_steps) {
            Ok(outcome) => format!("no error: returned {:?}", outcome.return_value),
            Err(e) => e.to_string(),
        };
        if actual != expected {
            mismatches.push(format!("{what}: {actual:?}, pinned {expected:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
