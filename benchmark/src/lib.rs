//! The standing benchmark of the PODS reproduction.
//!
//! A run drives one workload from one closed-loop generator thread through
//! *blocks* of *pieces* — the native engine on `W` workers, the async engine
//! on `W` workers (a traced run adds the sequential oracle, the native
//! engine on one worker and on a traced runtime) — in mirrored order on
//! alternate blocks. Every timing ratio is a ratio of *quiet levels* (the
//! fast-side quartile across blocks) taken from the same blocks, because on
//! a shared host absolute times move by tens of percent between runs of the
//! same code while such ratios move by a few. Counts (allocations per job,
//! simulated time) are exact. See `README.md` beside this crate for the
//! protocol and the metric tables.

pub mod alloc;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod selfcheck;
pub mod spans;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
