//! Figure 9 of the paper: Execution-Unit utilization for SIMPLE at 16x16,
//! 32x32, and 64x64 as the number of PEs grows.

use pods::Unit;
use pods_workloads::simple::{PAPER_MESH_SIZES, PAPER_PE_COUNTS};

fn main() {
    let program = pods_bench::compile_simple();
    let sizes = PAPER_MESH_SIZES;
    let pes = PAPER_PE_COUNTS;
    println!("Figure 9: Execution-Unit utilization for SIMPLE");
    print!("{:>5}", "PEs");
    for n in &sizes {
        print!(" | {:>9}", format!("{n}x{n}"));
    }
    println!();
    let mut rows = vec![vec![0.0f64; sizes.len()]; pes.len()];
    for (col, &n) in sizes.iter().enumerate() {
        for (row, &p) in pes.iter().enumerate() {
            rows[row][col] = pods_bench::run_simple(&program, n, p).utilization(Unit::Execution);
        }
    }
    for (row, &p) in pes.iter().enumerate() {
        print!("{p:>5}");
        for util in &rows[row] {
            print!(" | {:>8.1}%", util * 100.0);
        }
        println!();
    }
    println!();
    println!("paper shape: utilization falls as PEs are added and rises with the problem size.");
}
