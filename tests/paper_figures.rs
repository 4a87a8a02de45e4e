//! Ratchet on the paper's Figures 8 and 10: simulated SIMPLE speed-ups may
//! not fall below the floors recorded here, and the qualitative claims that
//! already hold (the Execution Unit is the busiest unit; PODS beats the
//! Pingali & Rogers static-compilation model at 32 PEs) may not regress.
//!
//! The simulator is deterministic, so every figure here is exact on any
//! host. A change that improves a point raises its floor (three decimals,
//! rounded down). The paper's values at 32 PEs are 8.1 / 12.4 / 18.9
//! (16×16 / 32×32 / 64×64); see the README's "Remote reads and Figure 10".

use pods::{EngineKind, Runtime, Value};
use pods_baseline::{run_sequential, PrModel};
use pods_machine::{MessageKind, SimulationStats, TimingModel, Unit};
use pods_workloads::simple::PAPER_PE_COUNTS;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Simulated SIMPLE runs, keyed by `(mesh, pes)`, shared by every test in
/// this file so each configuration runs once.
fn runs() -> &'static HashMap<(usize, usize), SimulationStats> {
    static RUNS: OnceLock<HashMap<(usize, usize), SimulationStats>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let program = pods::compile(pods_workloads::simple::SIMPLE).expect("SIMPLE compiles");
        let configs = PAPER_PE_COUNTS
            .iter()
            .flat_map(|&p| [(16, p), (64, p)])
            .chain([(32, 1), (32, 2), (32, 32)]);
        configs
            .map(|(n, pes)| {
                let outcome = Runtime::builder(EngineKind::Sim)
                    .workers(pes)
                    .build()
                    .run(&program, &[Value::Int(n as i64)])
                    .unwrap_or_else(|e| panic!("SIMPLE {n}x{n} on {pes} PEs: {e}"));
                ((n, pes), outcome.simulation_stats().unwrap().clone())
            })
            .collect()
    })
}

fn speedup(n: usize, pes: usize) -> f64 {
    runs()[&(n, 1)].elapsed_us / runs()[&(n, pes)].elapsed_us
}

#[test]
fn simulated_speedups_stay_at_or_above_their_floors() {
    // (mesh, PEs, floor)
    let floors = [
        (64, 2, 1.939),
        (64, 4, 3.390),
        (64, 8, 5.786),
        (64, 16, 8.521),
        (64, 32, 10.225),
        (32, 32, 4.287),
        (16, 32, 2.058),
    ];
    let mut failures = Vec::new();
    for (n, pes, floor) in floors {
        let got = speedup(n, pes);
        if got < floor {
            failures.push(format!(
                "SIMPLE {n}x{n} on {pes} PEs: {got:.4} < floor {floor}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn execution_unit_is_busier_than_routing_unit_at_every_machine_size() {
    for pes in PAPER_PE_COUNTS {
        let stats = &runs()[&(16, pes)];
        let (eu, ru) = (
            stats.utilization(Unit::Execution),
            stats.utilization(Unit::Routing),
        );
        assert!(
            eu >= ru,
            "SIMPLE 16x16 on {pes} PEs: EU {:.1}% < RU {:.1}%",
            eu * 100.0,
            ru * 100.0
        );
    }
}

#[test]
fn pods_beats_pingali_rogers_on_64x64_at_32_pes() {
    let hir = pods_idlang::compile(pods_workloads::simple::SIMPLE).expect("compile");
    let seq = run_sequential(&hir, &[Value::Int(64)], &TimingModel::default()).expect("profile");
    let pr = PrModel::default().estimate(&seq, 32).speedup;
    let pods = speedup(64, 32);
    assert!(pods >= pr, "PODS {pods:.3} < Pingali & Rogers {pr:.3}");
}

/// The remote-read counters of SIMPLE 32×32 on 2 PEs, exactly: how the
/// misses split by class and what page traffic they cause. Before the
/// in-flight table, every one of the 1,646 misses sent its own request
/// (cold 164, in flight 1,462, stale copy 20).
#[test]
fn simple_32x32_on_2_pes_remote_read_counters_are_pinned() {
    let stats = &runs()[&(32, 2)];
    let counters = [
        ("misses", stats.total_remote_reads()),
        ("cold", stats.total(|p| p.cold_misses)),
        ("in flight", stats.total(|p| p.in_flight_misses)),
        ("stale", stats.total(|p| p.stale_misses)),
        (
            "read requests",
            stats.total_messages_of(MessageKind::ReadRequest),
        ),
        (
            "page replies",
            stats.total_messages_of(MessageKind::PageReply),
        ),
        (
            "deferral notices",
            stats.total_messages_of(MessageKind::ReadDeferred),
        ),
    ];
    let expected = [
        ("misses", 1_449),
        ("cold", 164),
        ("in flight", 1_284),
        ("stale", 1),
        ("read requests", 182),
        ("page replies", 164),
        ("deferral notices", 18),
    ];
    assert_eq!(counters, expected);
    assert_eq!(
        stats.total_remote_reads(),
        stats.total(|p| p.cold_misses + p.in_flight_misses + p.stale_misses),
        "every miss has exactly one class"
    );
    // One request per cold or stale miss, plus one per re-issued follower;
    // each request is answered by a page or a deferral notice.
    assert_eq!(
        stats.total_messages_of(MessageKind::ReadRequest),
        stats.total_messages_of(MessageKind::PageReply)
            + stats.total_messages_of(MessageKind::ReadDeferred)
    );
}
