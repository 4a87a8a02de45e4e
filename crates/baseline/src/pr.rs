//! A Pingali & Rogers–style static-compilation comparator (the "P&R" curve
//! of Figure 10).
//!
//! The paper compares PODS against the approach of Pingali and Rogers
//! [PIN90, ROG89]: compile Id into C, schedule processes statically onto the
//! nodes, and execute in a completely control-driven manner. Reimplementing
//! that compiler is out of scope; instead this module models its execution
//! time with a bulk-synchronous SPMD cost model driven by measurements of
//! the *same* program taken by the sequential interpreter:
//!
//! * every top-level loop nest that PODS' analysis finds parallelizable is
//!   divided evenly over the PEs (static block scheduling of the iteration
//!   space),
//! * nests with loop-carried dependencies run serially on one PE,
//! * each parallel nest pays a boundary-exchange communication cost: the
//!   fraction of its element reads that falls on another PE's block under a
//!   row-block distribution is charged one (batched) token per element —
//!   the static system has no I-structure page cache, so there is no page
//!   amortisation — plus a barrier (log₂ P rounds of small messages) at the
//!   end of the nest, reflecting its lock-step, control-driven execution,
//! * straight-line code between nests stays serial.
//!
//! The model deliberately gives the static approach its best case on large
//! parallel nests (perfect load balance, no scheduling overhead inside a
//! nest), which is also how it behaves in the paper: competitive below 16
//! PEs on the large mesh, falling behind PODS as the machine grows.

use crate::interp::SequentialRun;
use pods_machine::TimingModel;

/// One point of the modelled P&R execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Number of PEs.
    pub pes: usize,
    /// Modelled elapsed time in microseconds.
    pub elapsed_us: f64,
    /// Speed-up relative to the sequential run the model was derived from.
    pub speedup: f64,
}

/// Parameters of the static-compilation model.
#[derive(Debug, Clone, PartialEq)]
pub struct PrModel {
    /// Timing constants (message costs).
    pub timing: TimingModel,
    /// Fraction of a parallel nest's element reads that cross a block
    /// boundary per PE pair (2 halo rows of an `n x n` block distribution
    /// is roughly `2 / (n / P)` of the reads; the model uses the measured
    /// read counts, so this factor only encodes the halo width).
    pub halo_rows: f64,
}

impl Default for PrModel {
    fn default() -> Self {
        PrModel {
            timing: TimingModel::default(),
            halo_rows: 2.0,
        }
    }
}

impl PrModel {
    /// Models the execution of the profiled program on `pes` PEs.
    pub fn estimate(&self, seq: &SequentialRun, pes: usize) -> PrPoint {
        let pes = pes.max(1);
        let mut total = seq.serial_us;
        for nest in &seq.nests {
            if nest.parallelizable && pes > 1 {
                let compute = nest.time_us / pes as f64;
                // Approximate the block height from the write count (the
                // iteration space of the nest): an n x n nest writes ~n^2
                // elements, so a block holds ~n/P rows of ~n elements.
                let n = (nest.element_writes.max(1) as f64).sqrt();
                let rows_per_pe = (n / pes as f64).max(1.0);
                let remote_fraction = (self.halo_rows / rows_per_pe).min(1.0);
                let remote_elements = nest.element_reads as f64 * remote_fraction / pes as f64;
                let comm = remote_elements * self.timing.token_route;
                let barrier = (pes as f64).log2().ceil() * self.timing.small_message;
                total += compute + comm + barrier;
            } else {
                total += nest.time_us;
            }
        }
        PrPoint {
            pes,
            elapsed_us: total,
            speedup: if total > 0.0 {
                seq.elapsed_us / total
            } else {
                0.0
            },
        }
    }

    /// Models a whole sweep of PE counts.
    pub fn sweep(&self, seq: &SequentialRun, pe_counts: &[usize]) -> Vec<PrPoint> {
        pe_counts.iter().map(|&p| self.estimate(seq, p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_sequential;
    use pods_istructure::Value;

    fn profile(src: &str, n: i64) -> SequentialRun {
        let hir = pods_idlang::compile(src).unwrap();
        let loops = pods_idlang::analyze_loops(&hir);
        run_sequential(&hir, &loops, &[Value::Int(n)], &TimingModel::default(), 0).unwrap()
    }

    #[test]
    fn parallel_nests_speed_up_and_serial_nests_do_not() {
        let model = PrModel::default();
        let fill = profile(pods_workloads::FILL, 64);
        let p1 = model.estimate(&fill, 1);
        let p8 = model.estimate(&fill, 8);
        assert!(p8.elapsed_us < p1.elapsed_us);
        assert!(p8.speedup > 3.0, "got {}", p8.speedup);

        let rec = profile(pods_workloads::RECURRENCE, 512);
        let r8 = model.estimate(&rec, 8);
        assert!(
            r8.speedup < 2.0,
            "a recurrence should barely speed up, got {}",
            r8.speedup
        );
    }

    #[test]
    fn speedup_saturates_as_communication_grows() {
        let model = PrModel::default();
        let fill = profile(pods_workloads::FILL, 32);
        let sweep = model.sweep(&fill, &[1, 2, 4, 8, 16, 32]);
        assert_eq!(sweep.len(), 6);
        // Efficiency (speedup per PE) must decline with machine size.
        let eff_small = sweep[1].speedup / 2.0;
        let eff_large = sweep[5].speedup / 32.0;
        assert!(eff_large < eff_small);
    }
}
