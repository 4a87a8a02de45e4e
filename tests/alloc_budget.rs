//! The allocation budget of a warm job, fenced with an exact count.
//!
//! A warm job on a pooled engine may call the allocator **per job** (job
//! record, I-structure store, result snapshots), **per array** (cells,
//! header, directory entry) and **per arena miss** (a frame or task handle
//! no worker had spare) — never per instruction, per element access, per
//! task execution or poll, per deferred read or per wake-up flush. A grep
//! cannot guard that; a count can. This binary installs its own counting
//! allocator (an integration test is its own process, so nothing else is
//! affected) and runs pinned programs on one worker, where the schedule —
//! and therefore the count — is deterministic.

use pods::{compile, EngineKind, EngineOutcome, EngineStats, PreparedProgram, Runtime, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every call that can obtain
/// memory (`alloc`, `alloc_zeroed`, `realloc`) from any thread.
struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// What one warm job cost and did.
struct Warm {
    allocs: u64,
    super_ops: u64,
    instances: u64,
    arrays: u64,
}

/// Runs `pinned(n)` a few times to fill the arenas and scratch buffers,
/// then once more between two readings of the counter: submit, execution on
/// the worker thread, wait and the outcome's snapshots, all of it.
fn warm_job(runtime: &Runtime, pinned: &PreparedProgram, n: i64) -> Warm {
    let run = || -> EngineOutcome {
        runtime
            .submit(pinned, &[Value::Int(n)])
            .expect("admitted")
            .wait()
            .expect("job succeeds")
    };
    for _ in 0..4 {
        run();
    }
    let before = CALLS.load(Ordering::SeqCst);
    let outcome = run();
    let allocs = CALLS.load(Ordering::SeqCst) - before;
    let (super_ops, instances, arrays) = match &outcome.stats {
        EngineStats::Native { stats, .. } => {
            (stats.super_ops, stats.instances, stats.store.peak_arrays)
        }
        EngineStats::AsyncCoop { stats, .. } => {
            (stats.super_ops, stats.instances, stats.store.peak_arrays)
        }
        other => panic!("pooled stats expected, got {other:?}"),
    };
    Warm {
        allocs,
        super_ops,
        instances,
        arrays: arrays as u64,
    }
}

/// One test, so nothing else in this process allocates while it counts.
#[test]
fn a_warm_job_allocates_per_job_per_array_and_per_arena_miss_only() {
    let simple = compile(pods_workloads::simple::SIMPLE).expect("SIMPLE compiles");
    let fill = compile(pods_workloads::FILL).expect("FILL compiles");
    for kind in [EngineKind::Native, EngineKind::AsyncCoop] {
        let runtime = Runtime::builder(kind).workers(1).build();

        // SIMPLE n=16: 16k super-op firings over 22 arrays. Before the
        // warm path was made allocation-free this job made 19,982
        // allocator calls; what is left is seven per array (four to build
        // it, three to snapshot it) plus the job's own records.
        let pinned = runtime.prepare(&simple);
        let job = warm_job(&runtime, &pinned, 16);
        eprintln!(
            "{kind}: SIMPLE n=16: {} allocs, {} super-ops, {} instances, {} arrays",
            job.allocs, job.super_ops, job.instances, job.arrays
        );
        assert!(job.super_ops > 10_000, "{kind}: SIMPLE ran specialized");
        assert!(
            job.allocs <= 300,
            "{kind}: a warm SIMPLE n=16 job made {} allocator calls (budget 300)",
            job.allocs
        );
        let per_super_op = job.allocs as f64 / job.super_ops as f64;
        assert!(
            per_super_op < 0.02,
            "{kind}: {per_super_op:.4} allocations per executed super-op"
        );

        // FILL at n=64 and n=512 stores 4,096 and 262,144 elements into
        // one array. The only thing that may differ is how many frames the
        // bigger job finds no spare for — bounded by its extra instances,
        // and nowhere near its extra element accesses.
        let pinned = runtime.prepare(&fill);
        let small = warm_job(&runtime, &pinned, 64);
        let large = warm_job(&runtime, &pinned, 512);
        eprintln!(
            "{kind}: FILL n=64: {} allocs, {} instances; n=512: {} allocs, {} instances",
            small.allocs, small.instances, large.allocs, large.instances
        );
        assert_eq!((small.arrays, large.arrays), (1, 1), "{kind}");
        assert!(
            small.allocs <= 40,
            "{kind}: FILL n=64 made {}",
            small.allocs
        );
        let extra_instances = large.instances - small.instances;
        assert!(
            large.allocs <= small.allocs + 2 * extra_instances + 8,
            "{kind}: FILL n=512 made {} allocator calls, n=64 made {} \
             ({extra_instances} more instances)",
            large.allocs,
            small.allocs
        );
    }
}
