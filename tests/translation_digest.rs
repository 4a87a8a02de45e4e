//! The front end's and the translator's output, pinned as text digests.
//!
//! Each workload program is translated, partitioned with the default
//! options, and partitioned with auto-sized chunks, and every template's
//! name, parameters, slot names, loop and chunk metadata and disassembly
//! are folded into one FNV-1a digest per program and stage. A fourth digest
//! per program is that of its HIR printed as source (`HirProgram`'s
//! `Display`), the front end's output, and a fifth that of the `Debug` text
//! of its loop analysis (`analyze_loops`), which decides what the
//! partitioner distributes. A change to how the front end, the translator
//! or the partitioner builds its output (buffers, sharing, interning, how
//! the HIR stores its nodes) must leave every digest as it is; a change to
//! what they build must say so here. The text is the `Debug`/`Display`
//! rendering, so it does not depend on how an operand list is stored.
//!
//! The printed HIR must also compile back to the same HIR, for every
//! program the standing benchmark's `cold_mix` compiles.

use pods::{compile, ChunkPolicy, RunOptions};
use pods_sp::SpProgram;

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

/// The digest of every template of `program`, in template order.
fn digest(program: &SpProgram) -> u64 {
    let mut fnv = Fnv(Fnv::OFFSET);
    for t in program.templates() {
        fnv.text(&t.name);
        fnv.text(&format!("{:?}", t.params));
        fnv.text(&format!("{:?}", t.slot_names));
        fnv.text(&format!("{:?}", t.loop_meta));
        fnv.text(&format!("{:?}", t.chunk_meta));
        fnv.text(&t.disassemble());
    }
    fnv.0
}

/// The digest of `source`'s HIR printed as source.
fn hir_digest(source: &str) -> u64 {
    let hir = pods_idlang::compile(source).expect("compiles");
    let mut fnv = Fnv(Fnv::OFFSET);
    fnv.text(&hir.to_string());
    fnv.0
}

/// The digest of the `Debug` text of `source`'s loop analysis.
fn loops_digest(source: &str) -> u64 {
    let hir = pods_idlang::compile(source).expect("compiles");
    let mut fnv = Fnv(Fnv::OFFSET);
    fnv.text(&format!("{:?}", pods_idlang::analyze_loops(&hir)));
    fnv.0
}

/// `(program, [translated, partitioned, partitioned with auto chunks, HIR,
/// loop analysis])`.
#[rustfmt::skip]
const DIGESTS: [(&str, [u64; 5]); 6] = [
    ("PAPER_EXAMPLE", [0xfd3998b8c59dc627, 0x4fc368469828570a, 0x4811ab7d0aa68ad4, 0x67d2c55939bf4060, 0x368bf093f2abebe5]),
    ("FILL", [0xf9c38425f4ee04c4, 0x8cc54c58b26b9446, 0x24d568687ba66277, 0x095ea575b14a1c48, 0x368bf093f2abebe5]),
    ("MATMUL", [0x8f245302aa501851, 0xda8bfcd34bae70a2, 0x82fa5d9457149f28, 0x903d2a5dff219c78, 0x2829fc96e600753e]),
    ("STENCIL", [0xe61b18068201dbf8, 0xcac80d92d648a91e, 0x248cd33f78e7df5c, 0xaa6f7a9d79c5c3f3, 0x23c25093c3563da8]),
    ("RECURRENCE", [0xfcd12da775e89412, 0xf859b6883458329e, 0xf859b6883458329e, 0x049207098a90fccd, 0x714baa4eabb5c9b7]),
    ("SIMPLE", [0xadc3934735c5ebc8, 0xacc6337d685be4fa, 0x3665ecae31708f16, 0x7d253be4ae48ac8d, 0x90cd778cbbcaeed5]),
];

#[test]
fn translated_and_partitioned_templates_match_their_pinned_digests() {
    let sources = [
        pods_workloads::PAPER_EXAMPLE,
        pods_workloads::FILL,
        pods_workloads::MATMUL,
        pods_workloads::STENCIL,
        pods_workloads::RECURRENCE,
        pods_workloads::simple::SIMPLE,
    ];
    let mut chunked = RunOptions::default();
    chunked.partition.chunk = ChunkPolicy::Auto;
    let mut mismatches = Vec::new();
    for ((name, pinned), source) in DIGESTS.into_iter().zip(sources) {
        let program = compile(source).expect("compiles");
        let got = [
            digest(program.sp_program()),
            digest(&program.partitioned(&RunOptions::default()).0),
            digest(&program.partitioned(&chunked).0),
            hir_digest(source),
            loops_digest(source),
        ];
        eprintln!(
            "(\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
            got[0], got[1], got[2], got[3], got[4]
        );
        if got != pinned {
            mismatches.push(format!("{name}: {got:#018x?}, pinned {pinned:#018x?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "the translation changed:\n{}",
        mismatches.join("\n")
    );
}

/// A gather of `probes` split-phase `probe` calls, the sum right-nested
/// (the benchmark's `gather_source` over probes `0..probes`).
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

/// A compute-dense fill (degree-6 Horner polynomial per element), the
/// benchmark's `POLY`.
const POLY: &str = "def main(n) {
    a = array(n);
    for i = 0 to n - 1 {
        a[i] = (((((i * 3 + 1) * i + 7) * i + 11) * i + 13) * i + 17) * i + 19;
    }
    return a;
}";

#[test]
fn printed_hir_compiles_back_to_the_same_hir() {
    let sources = [
        pods_workloads::PAPER_EXAMPLE.to_string(),
        pods_workloads::FILL.to_string(),
        pods_workloads::MATMUL.to_string(),
        pods_workloads::STENCIL.to_string(),
        pods_workloads::RECURRENCE.to_string(),
        pods_workloads::simple::SIMPLE.to_string(),
        gather_source(16),
        POLY.to_string(),
    ];
    for source in &sources {
        let hir = pods_idlang::compile(source).expect("compiles");
        let printed = hir.to_string();
        let again = pods_idlang::compile(&printed)
            .unwrap_or_else(|e| panic!("the printed HIR does not compile: {e}\n{printed}"));
        assert_eq!(
            again, hir,
            "the printed HIR compiles to another HIR:\n{printed}"
        );
        assert_eq!(again.to_string(), printed, "printing is a fixed point");
    }
}
