//! The simulator's remote-read protocol: each PE keeps at most one
//! outstanding request per remote page (the in-flight table), the owner's
//! deferral notice keeps the reads queued behind a deferred request live, and
//! the simulator agrees with the sequential oracle across machine sizes, page
//! sizes and the page cache on and off.

use pods::{CompiledProgram, EngineKind, EngineOutcome, PodsError, RunOptions, Runtime, Value};
use pods_baseline::{run_sequential, SequentialRun};
use pods_machine::{MessageKind, SimulationStats, TimingModel};

/// Runs `program` on the machine simulator with `opts`.
fn simulate(
    program: &CompiledProgram,
    args: &[Value],
    opts: RunOptions,
) -> Result<EngineOutcome, PodsError> {
    Runtime::builder(EngineKind::Sim)
        .options(opts)
        .build()
        .run(program, args)
}

fn options(pes: usize, page_size: usize, cache: bool) -> RunOptions {
    RunOptions {
        page_size,
        remote_page_cache: cache,
        ..RunOptions::with_pes(pes)
    }
}

fn oracle(source: &str, args: &[Value]) -> SequentialRun {
    let hir = pods_idlang::compile(source).expect("front end");
    let loops = pods_idlang::analyze_loops(&hir);
    run_sequential(&hir, &loops, args, &TimingModel::default(), 0).expect("oracle run")
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan())
}

/// Asserts that a simulated run returned what the oracle returned and left
/// every array the oracle allocated with the same contents.
fn assert_matches(label: &str, expected: &SequentialRun, got: &EngineOutcome) {
    match (&expected.return_value, &got.return_value) {
        (Some(Value::ArrayRef(_)), Some(Value::ArrayRef(_))) => {}
        (Some(a), Some(b)) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => assert!(close(x, y), "{label}: returned {y}, oracle {x}"),
            _ => assert_eq!(a, b, "{label}: return value"),
        },
        (a, b) => assert_eq!(a, b, "{label}: return value presence"),
    }
    assert_eq!(
        expected.arrays.len(),
        got.arrays.len(),
        "{label}: array count"
    );
    for array in &expected.arrays {
        let mine = got
            .array(&array.name)
            .unwrap_or_else(|| panic!("{label}: array `{}` missing", array.name));
        let (ev, gv) = (array.to_f64(f64::NAN), mine.to_f64(f64::NAN));
        assert_eq!(ev.len(), gv.len(), "{label}: length of `{}`", array.name);
        for (i, (a, b)) in ev.iter().zip(&gv).enumerate() {
            assert!(
                close(*a, *b),
                "{label}: `{}`[{i}] = {b}, oracle {a}",
                array.name
            );
        }
    }
}

/// `main` fills `a` (64 elements, so on 2 PEs with 32-element pages PE1
/// owns page 1), then spends ~1.9 ms of EU time on a chain of square roots
/// before reading two elements of PE1's page back to back. By then PE1 has
/// written them, so the first read's request is answered with the page and
/// the second read, issued before that reply arrives, joins the request.
fn two_reads_of_one_page() -> String {
    let mut chain = "2.0".to_string();
    for _ in 0..100 {
        chain = format!("sqrt({chain})");
    }
    format!(
        "def main(n) {{
            a = array(n);
            for i = 0 to n - 1 {{ a[i] = i * 2; }}
            k = {chain};
            return a[n - 1] + a[n - 2] + k * 0.0;
        }}"
    )
}

#[test]
fn two_reads_of_one_remote_page_send_one_request_and_one_reply() {
    let source = two_reads_of_one_page();
    let program = pods::compile(&source).expect("compile");
    let args = [Value::Int(64)];
    let expected = oracle(&source, &args);
    for (cache, requests) in [(true, 1), (false, 2)] {
        let got = simulate(&program, &args, options(2, 32, cache)).expect("simulation");
        assert_matches(&format!("cache {cache}"), &expected, &got);
        let stats = got.simulation_stats().unwrap();
        assert_eq!(stats.total_remote_reads(), 2, "cache {cache}");
        assert_eq!(
            stats.total_messages_of(MessageKind::ReadRequest),
            requests,
            "cache {cache}: read requests"
        );
        assert_eq!(
            stats.total_messages_of(MessageKind::PageReply),
            requests,
            "cache {cache}: page replies"
        );
        assert_eq!(stats.total_messages_of(MessageKind::ReadDeferred), 0);
        assert_eq!(stats.total(|p| p.in_flight_misses), 2 - requests);
    }
}

/// Without the owner's deferral notice, reads queued behind a request the
/// owner deferred waited for a page that never came: MATMUL and SIMPLE
/// deadlocked on some machine sizes.
#[test]
fn reads_queued_behind_a_deferred_request_are_reissued() {
    let mut notices = 0;
    for (source, sizes) in [
        (pods_workloads::MATMUL, [4, 8]),
        (pods_workloads::simple::SIMPLE, [8, 16]),
    ] {
        let program = pods::compile(source).expect("compile");
        for n in sizes {
            let args = [Value::Int(n)];
            let expected = oracle(source, &args);
            for pes in [2, 8, 32] {
                let label = format!("n={n} on {pes} PEs");
                let got = simulate(&program, &args, RunOptions::with_pes(pes))
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_matches(&label, &expected, &got);
                let stats = got.simulation_stats().unwrap();
                notices += stats.total_messages_of(MessageKind::ReadDeferred);
            }
        }
    }
    assert!(notices > 0, "the sweep never deferred a page request");
}

/// With the page cache off there is no in-flight table and no deferral
/// notice: every miss sends its own request, and simulated time and message
/// count are those of the protocol before the table existed.
#[test]
fn page_cache_off_keeps_one_request_per_miss() {
    let program = pods::compile(pods_workloads::simple::SIMPLE).expect("compile");
    let got = simulate(&program, &[Value::Int(8)], options(4, 32, false)).expect("simulation");
    let stats = got.simulation_stats().unwrap();
    assert_eq!(stats.elapsed_us, 152_109.859_999_998_76);
    assert_eq!(stats.total_messages(), 665);
    assert_eq!(stats.total_remote_reads(), 248);
    assert_eq!(
        stats.total_messages_of(MessageKind::ReadRequest),
        stats.total_remote_reads()
    );
    assert_eq!(stats.total(|p| p.cold_misses), stats.total_remote_reads());
    assert_eq!(stats.total_messages_of(MessageKind::ReadDeferred), 0);
}

/// A gather of split-phase `probe` calls in the given order, each reading
/// one element of `a` as the producer loop writes it. The sum is
/// right-nested, so every probe is in flight before any add needs a value.
fn gather(probes: impl Iterator<Item = usize>) -> String {
    let calls: Vec<String> = probes.map(|i| format!("probe(a, {i})")).collect();
    let sum = calls
        .iter()
        .rev()
        .fold(String::new(), |acc, call| match acc.is_empty() {
            true => call.clone(),
            false => format!("{call} + ({acc})"),
        });
    format!(
        "def main(n) {{
            a = array(n);
            for i = 0 to n - 1 {{ a[i] = i * 3; }}
            return {sum};
        }}
        def probe(a, i) {{ return a[i] + 1; }}"
    )
}

/// FNV-1a 64 over little-endian words: a dependency-free fingerprint of a
/// run's simulated timing.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds in the numbers that pin a run's timing: simulated time, event
    /// count, and each PE's unit busy times and messages by kind.
    fn stats(&mut self, stats: &SimulationStats) {
        self.word(stats.elapsed_us.to_bits());
        self.word(stats.events_processed);
        for pe in &stats.per_pe {
            for busy in pe.unit_busy {
                self.word(busy.to_bits());
            }
            for &sent in &pe.messages_by_kind {
                self.word(sent);
            }
        }
    }
}

/// Each workload's fingerprint of all 60 configurations of the sweep below,
/// in sweep order. Any change to simulated timing changes one of them.
const SWEEP_DIGESTS: [(&str, u64); 8] = [
    ("paper_example", 0x3c84_b839_7b5d_ac89),
    ("fill", 0x784b_8fac_8e65_2829),
    ("matmul", 0x9bbe_f6d3_aba4_e683),
    ("stencil", 0xb624_f7da_adce_3eb4),
    ("recurrence", 0x40ec_1870_c597_364d),
    ("simple", 0xc5c0_864b_ddbd_4e6f),
    ("gather", 0xca6d_483b_49ea_0b98),
    ("gather_reversed", 0x5f61_4591_0e8a_8929),
];

#[test]
fn simulator_matches_the_oracle_across_machine_and_page_sizes() {
    let workloads: Vec<(&str, String, Vec<Value>)> = vec![
        (
            "paper_example",
            pods_workloads::PAPER_EXAMPLE.into(),
            vec![],
        ),
        ("fill", pods_workloads::FILL.into(), vec![Value::Int(8)]),
        ("matmul", pods_workloads::MATMUL.into(), vec![Value::Int(4)]),
        (
            "stencil",
            pods_workloads::STENCIL.into(),
            vec![Value::Int(8)],
        ),
        (
            "recurrence",
            pods_workloads::RECURRENCE.into(),
            vec![Value::Int(24)],
        ),
        (
            "simple",
            pods_workloads::simple::SIMPLE.into(),
            vec![Value::Int(8)],
        ),
        ("gather", gather(0..16), vec![Value::Int(16)]),
        (
            "gather_reversed",
            gather((0..16).rev()),
            vec![Value::Int(16)],
        ),
    ];
    let mut digests = Vec::new();
    for (name, source, args) in &workloads {
        let program: CompiledProgram = pods::compile(source).expect("compile");
        let expected = oracle(source, args);
        let mut digest = Fnv(Fnv::OFFSET);
        for pes in [2, 3, 5, 8, 16, 32] {
            for page in [1, 2, 4, 32, 256] {
                for cache in [true, false] {
                    let label = format!("{name} on {pes} PEs, page {page}, cache {cache}");
                    let got = simulate(&program, args, options(pes, page, cache))
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_matches(&label, &expected, &got);
                    digest.stats(got.simulation_stats().unwrap());
                }
            }
        }
        digests.push((*name, digest.0));
    }
    for ((name, got), (pinned_name, pinned)) in digests.iter().zip(SWEEP_DIGESTS) {
        assert_eq!(*name, pinned_name);
        assert_eq!(
            *got, pinned,
            "{name}: simulated timing changed (digest {got:#018x}, pinned {pinned:#018x})"
        );
    }
}
