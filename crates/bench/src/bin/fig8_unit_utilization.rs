//! Figure 8 of the paper: average utilization of each functional unit
//! (EU, MU, MM, AM, RU) for SIMPLE 16x16 as the number of PEs grows, followed
//! by the remote-read counters and the Routing-Unit time per message kind
//! that explain the RU column.

use pods::report;
use pods_machine::{MessageKind, SimulationStats};

fn main() {
    let program = pods_bench::compile_simple();
    let n = 16;
    let runs: Vec<(usize, SimulationStats)> = pods_bench::pe_counts()
        .into_iter()
        .map(|pes| (pes, pods_bench::run_simple(&program, n, pes).result.stats))
        .collect();

    println!("Figure 8: functional-unit utilization, SIMPLE {n}x{n}");
    println!("{}", report::utilization_header());
    for (pes, stats) in &runs {
        println!("{}", report::utilization_row(*pes, stats));
    }
    println!();
    println!("paper shape: the Execution Unit dominates every other unit at all machine sizes,");
    println!("so no specialised hardware support is needed for the supporting units.");
    println!();

    println!("remote-read misses by class, and the page traffic they cause");
    println!(
        "{:>4} | {:>7} | {:>7} | {:>9} | {:>7} | {:>8} | {:>10} | {:>8}",
        "PEs", "misses", "cold", "in-flight", "stale", "read req", "page reply", "deferred"
    );
    for (pes, stats) in &runs {
        println!(
            "{:>4} | {:>7} | {:>7} | {:>9} | {:>7} | {:>8} | {:>10} | {:>8}",
            pes,
            stats.total_remote_reads(),
            stats.total(|p| p.cold_misses),
            stats.total(|p| p.in_flight_misses),
            stats.total(|p| p.stale_misses),
            stats.total_messages_of(MessageKind::ReadRequest),
            stats.total_messages_of(MessageKind::PageReply),
            stats.total_messages_of(MessageKind::ReadDeferred),
        );
    }
    println!();

    println!("Routing-Unit busy time by message kind (ms, summed over PEs)");
    let mut header = format!("{:>4}", "PEs");
    for kind in MessageKind::ALL {
        header.push_str(&format!(" | {:>10}", kind.label()));
    }
    println!("{header}");
    for (pes, stats) in &runs {
        let mut row = format!("{pes:>4}");
        for kind in MessageKind::ALL {
            row.push_str(&format!(" | {:>10.3}", stats.route_busy_of(kind) / 1000.0));
        }
        println!("{row}");
    }
}
