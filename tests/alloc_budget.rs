//! The allocation budgets of the cold path and of a warm job, fenced with
//! exact counts.
//!
//! The cold path — `compile`, then a prepare miss — may call the allocator
//! **per distinct name** of the source (the lexer interns each identifier
//! once; every later stage copies pointers to it; the translator makes each
//! temporary's and each loop variable's derived names once), **per
//! template** (its name, parameter and slot tables, code, and its plan's op
//! table and pools) and **per program** (the read-slot table, one flat
//! table for all templates). Compile allocates once **per operand list**
//! (`dims`, `indices`, `args`), at its exact length; a prepare miss shares
//! those lists with the compiled program and allocates nothing per
//! instruction — not for a copied instruction, a super-op, a firing list or
//! a read-slot list — and nothing per *use* of a name. The parser pulls
//! its tokens from the lexer, two at a time, and builds the HIR itself,
//! with the spans of its diagnostics in a table beside it, so neither a
//! token vector nor a second syntax tree is built: the front end calls the
//! allocator at most twice per heap block of the HIR.
//! A prepare hit and a clone of a compiled program make no call at all:
//! the compiled stages sit behind one shared pointer, and the dataflow
//! graph is built only when asked for.
//!
//! A warm job on a pooled engine may call the allocator **per job** (its
//! ticket, its job record, the outcome's vector of snapshots and one values
//! vector per array; a job that waits in the admission queue also copies
//! its arguments), **per array** only when the pool's previous job left no
//! spare array with the capacity for it (a reused array — record, header
//! and cells — makes no allocator call) and **per arena miss** (a frame or
//! task handle no worker had spare) — never per instruction, per element
//! access, per task execution or poll, per deferred read or per wake-up
//! flush. A grep cannot guard that; a count can. This binary installs its own counting
//! allocator (an integration test is its own process, so nothing else is
//! affected) and runs pinned programs on one worker, where the schedule —
//! and therefore the count — is deterministic, and a gather on two workers,
//! where work migrates between workers and the count is fenced by a
//! percentile.

use pods::{compile, EngineKind, EngineOutcome, EngineStats, PreparedProgram, Runtime, Value};
use pods_idlang::hir::walk;
use pods_idlang::lexer::tokenize;
use pods_idlang::token::TokenKind;
use pods_idlang::{HirExpr, HirNode, HirProgram, HirStmt};
use pods_sp::Instr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
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
/// then once more, counted (see [`counted_job`]).
fn warm_job(runtime: &Runtime, pinned: &PreparedProgram, n: i64) -> Warm {
    for _ in 0..4 {
        counted_job(runtime, pinned, n);
    }
    counted_job(runtime, pinned, n)
}

/// Runs `pinned(n)` once between two readings of the counter: submit,
/// execution on the worker threads, wait and the outcome's snapshots, all
/// of it.
fn counted_job(runtime: &Runtime, pinned: &PreparedProgram, n: i64) -> Warm {
    let before = CALLS.load(Ordering::SeqCst);
    let outcome: EngineOutcome = runtime
        .submit(pinned, &[Value::Int(n)])
        .expect("admitted")
        .wait()
        .expect("job succeeds");
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

/// A gather with one split-phase `probe` call per probe: every probe
/// instance parks on an unwritten element, then the producer loop's writes
/// wake them. The sum is right-nested so no add needs a return value until
/// every probe is in flight (the benchmark's `gather_wake` program).
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

/// A FILL-like program that allocates `arrays` vectors of length `n` and
/// returns the first.
fn arrays_source(arrays: usize) -> String {
    let names: Vec<String> = (0..arrays).map(|k| format!("a{k}")).collect();
    let allocs: String = names
        .iter()
        .map(|a| format!("    {a} = array(n);\n"))
        .collect();
    let stores: String = names.iter().map(|a| format!(" {a}[i] = i;")).collect();
    format!("def main(n) {{\n{allocs}    for i = 0 to n - 1 {{{stores} }}\n    return a0;\n}}\n")
}

/// The heap blocks of `program`: each `Box` and each non-empty `Vec`.
fn hir_blocks(program: &HirProgram) -> u64 {
    fn list<T>(items: &[T]) -> u64 {
        u64::from(!items.is_empty())
    }
    let mut blocks = list(&program.functions);
    for f in &program.functions {
        blocks += list(&f.params) + list(&f.body);
        walk(&f.body, &mut |node| {
            blocks += match node {
                HirNode::Stmt(
                    HirStmt::Alloc { dims: items, .. }
                    | HirStmt::Call { args: items, .. }
                    | HirStmt::Store { indices: items, .. },
                ) => list(items),
                HirNode::Stmt(HirStmt::For { body, .. }) => list(body),
                HirNode::Stmt(HirStmt::If {
                    then_body,
                    else_body,
                    ..
                }) => list(then_body) + list(else_body),
                HirNode::Expr(
                    HirExpr::Load { indices: items, .. } | HirExpr::Call { args: items, .. },
                ) => list(items),
                HirNode::Expr(HirExpr::Unary { .. }) => 1,
                HirNode::Expr(HirExpr::Binary { .. }) => 2,
                HirNode::Expr(HirExpr::Select { .. }) => 3,
                HirNode::Stmt(_) | HirNode::Expr(_) => 0,
            }
        });
    }
    blocks
}

/// The number of distinct identifiers in `source`.
fn distinct_identifiers(source: &str) -> u64 {
    let tokens = tokenize(source).expect("lexes");
    let names: HashSet<&str> = tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Ident(name) => Some(name.as_str()),
            _ => None,
        })
        .collect();
    names.len() as u64
}

/// Allocator calls made by `f`, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.load(Ordering::SeqCst);
    let result = f();
    (CALLS.load(Ordering::SeqCst) - before, result)
}

/// One test, so nothing else in this process allocates while it counts.
#[test]
fn a_warm_job_allocates_per_job_per_array_and_per_arena_miss_only() {
    // The cold path on an idle runtime, on this one thread: compile, a
    // prepare miss, a prepare hit and a clone, each counted exactly. Each
    // budget is the measured count plus ~5 %. While every stage copied its
    // identifiers as owned strings, the compiled program was cloned deep
    // into the prepared one and the dataflow graph was built eagerly,
    // SIMPLE took 10,257 calls to compile, 6,712 to prepare and 3,530 to
    // clone; FILL took 343, 285 and 136. While a prepare miss built one
    // read-slot vector per instruction and a plan kept two growing vectors
    // per super-op, SIMPLE took 2,808 and 1,925, FILL 136 and 104. While
    // the translator grew fresh buffers per template and a prepare miss
    // copied every operand list, SIMPLE took 2,797 and 456, FILL 131 and
    // 43. While the parser built a syntax tree that a lowering pass copied
    // into the HIR, SIMPLE took 1,910 to compile and FILL 98. Now SIMPLE
    // takes 1,299 and 240, FILL 85 and 36, and both make 0 to hit or clone.
    let runtime = Runtime::builder(EngineKind::Native).workers(1).build();
    compile(pods_workloads::FILL).expect("FILL compiles");
    for (name, source, compile_budget, miss_budget) in [
        ("SIMPLE", pods_workloads::simple::SIMPLE, 1360, 252),
        ("FILL", pods_workloads::FILL, 89, 37),
    ] {
        let (compiled, program) = counted(|| compile(source).expect("compiles"));
        let (missed, pinned) = counted(|| runtime.prepare(&program));
        let (hit, again) = counted(|| runtime.prepare(&program));
        let (cloned, copy) = counted(|| program.clone());
        eprintln!(
            "{name}: compile {compiled} allocs, prepare miss {missed}, hit {hit}, clone {cloned}"
        );
        assert!(again.same_preparation(&pinned) && copy.identity() == program.identity());
        assert_eq!(
            (hit, cloned),
            (0, 0),
            "{name}: a prepare hit and a clone are free"
        );
        assert!(
            compiled <= compile_budget,
            "{name}: compile made {compiled} allocator calls (budget {compile_budget})"
        );
        assert!(
            missed <= miss_budget,
            "{name}: a prepare miss made {missed} allocator calls (budget {miss_budget})"
        );
    }

    let programs = [
        ("PAPER_EXAMPLE", pods_workloads::PAPER_EXAMPLE),
        ("FILL", pods_workloads::FILL),
        ("MATMUL", pods_workloads::MATMUL),
        ("STENCIL", pods_workloads::STENCIL),
        ("RECURRENCE", pods_workloads::RECURRENCE),
        ("SIMPLE", pods_workloads::simple::SIMPLE),
    ];

    // The front end of every workload program, per heap block of the HIR
    // it returns (each `Box` and each non-empty `Vec`), once the calls for
    // its distinct identifiers are set aside: the parser builds the HIR
    // itself, so a block costs its own call, the regrowth of a list as it
    // is parsed, and a share of the span table and the semantic checks'
    // scopes. While the parser built a syntax tree of its own that a
    // lowering pass then rebuilt as the HIR, it was 2.20 (SIMPLE) to 2.54
    // (PAPER_EXAMPLE).
    for (name, source) in programs {
        let identifiers = distinct_identifiers(source);
        let (calls, hir) = counted(|| pods_idlang::compile(source).expect("compiles"));
        let blocks = hir_blocks(&hir);
        let per_block = (calls - identifiers) as f64 / blocks as f64;
        eprintln!(
            "{name}: front end {calls} allocs for {identifiers} identifiers, {blocks} HIR blocks"
        );
        assert!(
            per_block <= 2.0,
            "{name}: the front end made {calls} allocator calls for {identifiers} identifiers \
             and {blocks} HIR blocks ({per_block:.2} per block, budget 2.0)"
        );
    }

    // The translation of every workload program, per template, once the
    // one call per operand list is set aside: 8.97 (SIMPLE) to 13.3 (FILL)
    // calls, the template's name, parameter and slot tables and code, the
    // names of its temporaries and loop variable the first time they are
    // met, and the translator's working buffers, which every template at
    // the same nesting depth reuses. While each template grew buffers of
    // its own and every list was collected, then copied, it was 17.25
    // (PAPER_EXAMPLE) to 39.6 (SIMPLE).
    for (name, source) in programs {
        let hir = pods_idlang::compile(source).expect("compiles");
        let (calls, sp) = counted(|| pods_sp::translate(&hir).expect("translates"));
        let lists = sp
            .templates()
            .iter()
            .flat_map(|t| &t.code)
            .filter(|i| {
                matches!(
                    i,
                    Instr::ArrayAlloc { .. }
                        | Instr::ArrayLoad { .. }
                        | Instr::ArrayStore { .. }
                        | Instr::Spawn { .. }
                )
            })
            .count() as u64;
        let templates = sp.len();
        let per_template = (calls - lists) as f64 / templates as f64;
        eprintln!(
            "{name}: translate {calls} allocs for {lists} operand lists, {templates} templates"
        );
        assert!(
            per_template <= 14.0,
            "{name}: translating made {calls} allocator calls for {lists} operand lists and \
             {templates} templates ({per_template:.2} per template, budget 14.0)"
        );
    }

    // A prepare miss of every workload program, per template of the
    // program: 8.2 (SIMPLE) to 12.7 (RECURRENCE) calls — the copy of each
    // template's tables the prepared program starts from, its plan, and
    // the Range-Filter slots and prologue of a distributed loop. While the
    // copy also copied every operand list it was 11.8 to 17.0, and while a
    // prepare miss allocated per instruction 24.5 to 66.3 (SIMPLE: 1,924
    // calls for 29 templates).
    for (name, source) in programs {
        let program = compile(source).expect("compiles");
        let templates = program.sp_program().len();
        let (missed, _) = counted(|| runtime.prepare(&program));
        let per_template = missed as f64 / templates as f64;
        eprintln!("{name}: prepare miss {missed} allocs for {templates} templates");
        assert!(
            per_template <= 13.3,
            "{name}: a prepare miss made {missed} allocator calls for {templates} templates \
             ({per_template:.2} per template, budget 13.3)"
        );
    }
    drop(runtime);

    let simple = compile(pods_workloads::simple::SIMPLE).expect("SIMPLE compiles");
    let fill = compile(pods_workloads::FILL).expect("FILL compiles");
    for kind in [EngineKind::Native, EngineKind::AsyncCoop] {
        let runtime = Runtime::builder(kind).workers(1).build();

        // SIMPLE n=16: 16k super-op firings over 22 arrays. Before the
        // warm path was made allocation-free this job made 19,982
        // allocator calls, 212 (native) while each job built its own store
        // and 71–74 while a snapshot copied each array's name and the
        // service boxed a completion hook and copied the arguments; what is
        // left is one call per array to snapshot its values, the job's own
        // records and the frames the arenas are still growing: 43–44.
        let pinned = runtime.prepare(&simple);
        let job = warm_job(&runtime, &pinned, 16);
        eprintln!(
            "{kind}: SIMPLE n=16: {} allocs, {} super-ops, {} instances, {} arrays",
            job.allocs, job.super_ops, job.instances, job.arrays
        );
        assert!(job.super_ops > 10_000, "{kind}: SIMPLE ran specialized");
        assert!(
            job.allocs <= 46,
            "{kind}: a warm SIMPLE n=16 job made {} allocator calls (budget 46)",
            job.allocs
        );
        let per_super_op = job.allocs as f64 / job.super_ops as f64;
        assert!(
            per_super_op < 0.02,
            "{kind}: {per_super_op:.4} allocations per executed super-op"
        );

        // FILL at n=64 and n=512 stores 4,096 and 262,144 elements into
        // one array. n=64 makes 4 calls on either engine — the ticket, the
        // job record, the snapshot vector and the array's values (16 before
        // stores were recycled, 7 before snapshots shared the array's name
        // and the ticket became the completion hook). The only thing that
        // may differ is how many frames the bigger job finds no spare for —
        // bounded by its extra instances, and nowhere near its extra
        // element accesses.
        let pinned = runtime.prepare(&fill);
        let small = warm_job(&runtime, &pinned, 64);
        let large = warm_job(&runtime, &pinned, 512);
        eprintln!(
            "{kind}: FILL n=64: {} allocs, {} instances; n=512: {} allocs, {} instances",
            small.allocs, small.instances, large.allocs, large.instances
        );
        assert_eq!((small.arrays, large.arrays), (1, 1), "{kind}");
        assert!(
            small.allocs <= 4,
            "{kind}: FILL n=64 made {} allocator calls (budget 4)",
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

        // A job's floor is its ticket, its job record, its snapshot vector
        // and one values vector per array: an array costs its snapshot's
        // values and nothing else — no copy of its name, no regrowth of the
        // snapshot vector.
        let floors: Vec<u64> = (1..=4)
            .map(|arrays| {
                let program = compile(&arrays_source(arrays)).expect("compiles");
                let pinned = runtime.prepare(&program);
                warm_job(&runtime, &pinned, 8).allocs
            })
            .collect();
        eprintln!("{kind}: 1 to 4 arrays: {floors:?} allocator calls per job");
        assert_eq!(
            floors,
            [4, 5, 6, 7],
            "{kind}: a job of k arrays makes 3 + k allocator calls"
        );
    }

    // FILL rotating through n = 6..10, as the benchmark's `tiny_burst`
    // does, on a runtime of its own. The first pass grows the spare array
    // to 100 cells; from then on a smaller mesh takes that spare and
    // resizes its cells within their capacity, so every job after the
    // first pass makes the one-array floor of 4 calls. A spare matched only
    // by its exact length was rebuilt on every job of the rotation —
    // record, cells and segment table, three more calls.
    for kind in [EngineKind::Native, EngineKind::AsyncCoop] {
        let runtime = Runtime::builder(kind).workers(1).build();
        let pinned = runtime.prepare(&fill);
        let mut counts = Vec::new();
        for pass in 0..4 {
            for n in 6..=10 {
                let job = counted_job(&runtime, &pinned, n);
                assert_eq!(job.arrays, 1, "{kind}");
                if pass > 0 {
                    counts.push(job.allocs);
                }
            }
        }
        eprintln!("{kind}: FILL n=6..10 rotated three times: {counts:?} allocator calls");
        assert!(
            counts.iter().all(|&allocs| allocs == 4),
            "{kind}: a rotated FILL job must reuse its spare array whatever its n: {counts:?}"
        );
    }

    // Bursts of 16 FILL jobs (n=8) on one worker, submitted together as
    // the benchmark's `tiny_burst` submits them: all but the first few wait
    // in the admission queue, which copies their arguments. After one
    // warm-up round every copy goes into an argument vector an earlier
    // queued job left spare, so a burst makes 4 calls per job (ticket, job
    // record, snapshot vector, values) plus 5 per burst, however many of
    // its jobs queued. While each queued job copied its arguments into a
    // vector of its own, a burst made one call more per queued job: 84, as
    // 15 of the 16 jobs queued. A round may pay more than the floor once:
    // when more of its jobs queue than ever before (new spare vectors, a
    // longer queue), or when the dispatcher submits a job before the
    // previous job's worker has let go of its store, so that the job
    // builds a store of its own. So the floor is read as the least of five
    // rounds.
    for kind in [EngineKind::Native, EngineKind::AsyncCoop] {
        let runtime = Runtime::builder(kind).workers(1).build();
        let pinned = runtime.prepare(&fill);
        let burst = || {
            counted(|| {
                let handles: Vec<_> = (0..16)
                    .map(|_| runtime.submit(&pinned, &[Value::Int(8)]).expect("admitted"))
                    .collect();
                for handle in handles {
                    handle.wait().expect("job succeeds");
                }
            })
            .0
        };
        burst();
        let rounds: Vec<u64> = (0..5).map(|_| burst()).collect();
        eprintln!(
            "{kind}: 16-job bursts on one worker after a warm-up round: {rounds:?} allocator calls"
        );
        assert_eq!(
            rounds.iter().min(),
            Some(&69),
            "{kind}: a queued job's arguments must reuse a spare vector: {rounds:?}"
        );
    }

    // The gather on two workers: a thief finishes probes the other worker
    // spawned, so frames (and task handles) are recycled on the worker that
    // did not spawn them. A spawner whose arena ran dry takes half of a
    // sibling's spares instead of allocating; without that, per-job counts
    // were bimodal (~24 or ~150 calls, q75 147 native and 218 async). With
    // the store recycled too, the p90 was 11–15 on either engine. With the
    // native mailboxes kept across jobs, and a snapshot, a ticket and a job
    // record that make one call each, it is 6–7 on the native engine. The
    // async engine still regrows a busy task's delivery buffer on every
    // job (a task handle releases it when it retires): 7–12.
    // The 128-deep sum recurses deeper than a test thread's stack allows in
    // a debug build, so it compiles on a thread of its own.
    let gather = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| compile(&gather_source(128)).expect("gather compiles"))
        .expect("spawn compiler thread")
        .join()
        .expect("compiler thread");
    for kind in [EngineKind::Native, EngineKind::AsyncCoop] {
        let runtime = Runtime::builder(kind).workers(2).build();
        let pinned = runtime.prepare(&gather);
        warm_job(&runtime, &pinned, 128);
        let mut allocs: Vec<u64> = (0..200)
            .map(|_| counted_job(&runtime, &pinned, 128).allocs)
            .collect();
        allocs.sort_unstable();
        let p90 = allocs[allocs.len() * 9 / 10];
        eprintln!(
            "{kind}: gather of 128 probes on 2 workers: allocator calls per job \
             median {}, p90 {p90}, max {}",
            allocs[allocs.len() / 2],
            allocs[allocs.len() - 1]
        );
        let budget = match kind {
            EngineKind::Native => 7,
            _ => 12,
        };
        assert!(
            p90 <= budget,
            "{kind}: p90 of a warm 2-worker gather is {p90} allocator calls (budget {budget})"
        );
    }
}
