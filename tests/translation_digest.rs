//! The front end's and the translator's output, pinned as text digests.
//!
//! Each workload program is translated, partitioned with the default
//! options, and partitioned with auto-sized chunks, and every template's
//! name, parameters, slot names, loop and chunk metadata and disassembly
//! are folded into one FNV-1a digest per program and stage; a fourth digest per program is that of the `Debug`
//! text of its HIR, the front end's output. A change to how the front end,
//! the translator or the partitioner builds its output (buffers, sharing,
//! interning) must leave every digest as it is; a change to what they
//! build must say so here. The text is the `Debug`/`Display` rendering, so
//! it does not depend on how an operand list is stored.

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

/// The digest of the `Debug` text of `source`'s HIR.
fn hir_digest(source: &str) -> u64 {
    let hir = pods_idlang::compile(source).expect("compiles");
    let mut fnv = Fnv(Fnv::OFFSET);
    fnv.text(&format!("{hir:?}"));
    fnv.0
}

/// `(program, [translated, partitioned, partitioned with auto chunks, HIR])`.
#[rustfmt::skip]
const DIGESTS: [(&str, [u64; 4]); 6] = [
    ("PAPER_EXAMPLE", [0xfd3998b8c59dc627, 0x4fc368469828570a, 0x4811ab7d0aa68ad4, 0x0c92d24e6fd170c7]),
    ("FILL", [0xf9c38425f4ee04c4, 0x8cc54c58b26b9446, 0x24d568687ba66277, 0xa76178b6019fe137]),
    ("MATMUL", [0x8f245302aa501851, 0xda8bfcd34bae70a2, 0x82fa5d9457149f28, 0x4c4e8f8becefc3f2]),
    ("STENCIL", [0xe61b18068201dbf8, 0xcac80d92d648a91e, 0x248cd33f78e7df5c, 0x6fc3602bfdfe2055]),
    ("RECURRENCE", [0xfcd12da775e89412, 0xf859b6883458329e, 0xf859b6883458329e, 0x1300f14078e75bbd]),
    ("SIMPLE", [0xadc3934735c5ebc8, 0xacc6337d685be4fa, 0x3665ecae31708f16, 0x044cb8a32bd05f69]),
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
        ];
        eprintln!(
            "(\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
            got[0], got[1], got[2], got[3]
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
