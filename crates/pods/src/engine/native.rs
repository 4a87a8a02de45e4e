//! The native multi-threaded parallel engine.
//!
//! Where [`super::SimEngine`] *models* iteration-level parallelism on
//! simulated PEs, this engine *runs* it: the partitioned SP program executes
//! on a pool of real OS threads (one "virtual PE" per worker), iteration
//! instances are spawned per the partitioner's distribution decisions
//! (distributing allocate, `LD`, Range Filters), and instances synchronise
//! through the thread-safe I-structure store
//! ([`pods_istructure::SharedArrayStore`]) — write-once cells whose deferred
//! readers are re-activated by the eventual write, exactly the paper's
//! presence-bit protocol lifted onto threads.
//!
//! Scheduling mirrors the paper's blocked/ready instance model rather than
//! blocking OS threads: when an instance needs an operand that has not
//! arrived (an unwritten array element or an outstanding function return),
//! the *instance* is parked and the worker thread moves on to other work.
//! The write (or return) that produces the operand delivers it into the
//! parked frame and re-enqueues the instance. This makes the engine
//! deadlock-free under any scheduling order a correct program allows, and
//! lets it detect true deadlocks exactly: when no task of a job is queued or
//! running but instances remain parked, no future delivery can happen.
//!
//! The pool is work-stealing: each worker owns a deque, pushes the instances
//! it spawns or wakes locally (loop bodies stay near their Range-Filtered
//! parent), and steals from siblings when idle — `std` threads, mutexes and
//! condvars only, no unsafe code.
//!
//! # Pool lifecycle vs per-job state
//!
//! The paper's speed-ups depend on amortising spawn/steal overhead, so the
//! pool is split into two layers:
//!
//! * [`NativePool`] owns the *long-lived* machinery: the worker threads,
//!   their deques, and the shared condvar. A pool outlives any single
//!   program execution; [`crate::Runtime`] keeps one alive across calls.
//! * [`Job`] owns everything scoped to *one* program execution: the SP
//!   program, its I-structure store, the parked-instance registry and
//!   mailbox, liveness counters (for per-job deadlock detection), the
//!   first-error slot, and the result. Tasks carry an `Arc<Job>`, so any
//!   number of jobs can be in flight on one pool without cross-talk.
//!
//! The one-shot [`NativeParallelEngine`] (the `Engine`-trait cold path)
//! simply creates a transient pool, submits one job, waits, and tears the
//! pool down — [`crate::Runtime::run`] is the amortised path.
//!
//! # Warm-path cost model
//!
//! Three further overheads are amortised so that a warm run pays only for
//! job execution, not job setup (the paper batches token routing — ~20
//! tokens per message — for exactly this reason):
//!
//! * **Shared program state** ([`JobSpec`]): the partitioned SP program and
//!   the per-template read-slot tables travel as `Arc`s, built once by
//!   [`crate::Runtime::prepare`] (or its internal cache) and shared by every
//!   job — warm submissions skip the clone/partition/table-build entirely.
//! * **Batched wake-up delivery**: a writer that fills many I-structure
//!   elements in one task accumulates the `(waiter, value)` wake-ups in a
//!   per-worker buffer ([`pods_istructure::SharedArray::write_into`]
//!   appends straight into it) and flushes them in a single scheduler-lock transaction, instead of
//!   one lock round trip per deferred reader. The buffer is bounded by the
//!   job's `delivery_batch` and force-flushed at every task boundary (park,
//!   finish, error), so deadlock detection observes exactly the same
//!   liveness it would unbatched and no parked instance can be stranded
//!   behind an unflushed buffer.
//! * **Per-worker instance arenas**: finished instances return their frame
//!   (the operand-slot vector) to a free-list owned by the worker thread;
//!   fine-grained loops that spawn an instance per iteration recycle frames
//!   instead of hammering the allocator.
//!
//! ## The allocation budget
//!
//! With those in place a warm job's steady state is allocation-free. The
//! allocator may be called
//!
//! * **per job** — the [`Job`] record, its store's directory (one map per
//!   shard that holds an array) and allocation-order list, the parked
//!   registry and mailbox as they grow, the entry frame, and the outcome's
//!   result snapshots (name, shape and values of every array);
//! * **per array** — four calls: the extents, the partitioning's segment
//!   table, the shared array record, and its cells (the name is the
//!   allocating instruction's `Arc<str>`);
//! * **per arena miss** — a frame (on the async engine, also a task handle)
//!   no free-list of the spawning worker had spare, or had only too small:
//!   work migrates between workers, so a job finds some frames on the
//!   wrong one —
//!
//! and **never** per instruction, per element access (index operands
//! resolve on the stack, the first deferred reader of a cell is held
//! inline), per task execution (the directory memo belongs to the worker
//! and is cleared, not rebuilt), per deferred read or per wake-up flush
//! (the woken instances pass through a worker-owned scratch vector).
//! `tests/alloc_budget.rs` fences this with an exact count on both pooled
//! engines. On the standing benchmark (`benchmark/`, `allocs_per_job`, two
//! workers) the budget reads, before → after it was enforced:
//!
//! | workload | allocator calls per job | KiB requested per job |
//! |---|---|---|
//! | `simple_solo` (SIMPLE n=32, 67,746 super-op firings, 22 arrays) | 83,644 → 323 | 2,785 → 1,222 |
//! | `gather_wake` (130 instances, 128 deferred reads) | 531 → 101 | 42.0 → 22.1 |
//! | `tiny_burst` (FILL n=6..10) | 100 → 18 | 7.6 → 5.8 |
//! | `cold_mix` (compiles every job; the front end is the bulk) | 4,101 → 3,167 | 379 → 335 |

use super::{
    cancellation_error, check_invocation, Engine, EngineOutcome, EngineStats, InstanceArena,
    JobCounts,
};
use crate::error::PodsError;
use crate::pipeline::{CompiledProgram, RunOptions};
use crate::trace::{TraceEventKind, TraceHandle};
use pods_istructure::{
    ArrayHeader, ArrayId, Partitioning, PeId, SharedArrayStore, SharedReadResult, StoreStats, Value,
};
use pods_machine::{ArraySnapshot, InstanceId, SimulationError};
use pods_partition::PartitionReport;
use pods_sp::exec::{self, ArrayOps, ExecCtx, ExecEvent, Loaded, RunExit, TraceSink};
use pods_sp::{Operand, SlotId, SpId, SpProgram};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Re-exports of the shared core's read-slot machinery under the names the
/// rest of the `pods` crate historically used.
pub(crate) use pods_sp::exec::{build_read_slots, ReadSlots};

/// Executes the partitioned SP program on a real work-stealing thread pool
/// with `opts.num_pes` workers. Reports wall-clock time — the only honest
/// clock for native execution.
///
/// This is the *cold* path: every `run` spins up a fresh pool and tears it
/// down afterwards. To reuse one pool across many runs (amortising thread
/// spawn and warm-up, the whole point of iteration-level parallelism), use
/// [`crate::Runtime`] with [`crate::EngineKind::Native`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeParallelEngine;

/// Counters reported by the native thread pool for one job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Number of worker threads in the pool that ran the job.
    pub workers: usize,
    /// SP instances created over the run.
    pub instances: u64,
    /// Task executions, counting each resume of a parked instance.
    pub tasks: u64,
    /// Times an instance was parked waiting for an operand.
    pub parks: u64,
    /// Tasks obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Process-unique identity of the worker pool that executed the job.
    /// Two runs on the same [`crate::Runtime`] report the same `pool_id`
    /// (the worker threads were reused); two cold
    /// [`CompiledProgram::run_on`] calls report different ones.
    pub pool_id: u64,
    /// 1-based sequence number of this job on its pool. A reused pool
    /// reports 1, 2, 3, … across successive submissions.
    pub job_seq: u64,
    /// Wake-up values delivered: one per `(waiter, value)` pair a write
    /// re-activated or mailed to its target instance, *plus* one per
    /// function-return value routed back to a calling instance (returns
    /// travel through the same delivery path).
    pub wakeups: u64,
    /// Scheduler-lock transactions spent delivering those wake-ups. Equals
    /// `wakeups` when every delivery travels alone; batched delivery
    /// coalesces up to `delivery_batch` wake-ups per transaction, so this
    /// drops well below `wakeups` on read-heavy workloads.
    pub wakeup_flushes: u64,
    /// Instances whose frame was recycled from a worker's arena free-list
    /// instead of freshly allocated.
    pub arena_reuses: u64,
    /// Extra loop iterations absorbed by chunked instances: each time the
    /// chunk driver advanced an instance to its next iteration in place
    /// (instead of a fresh spawn) this grows by one. `0` when the program
    /// ran unchunked.
    pub chunk_iterations: u64,
    /// Super-op firings: each time the specialized driver passed a hoisted
    /// firing check and executed a whole fused run as one dispatch. `0`
    /// when the program ran without a specialization plan
    /// (`PODS_SPECIALIZE=0` or [`crate::RuntimeBuilder::specialize`]).
    pub super_ops: u64,
    /// Chunk-size retunes applied by [`crate::Runtime`]'s adaptive grain
    /// control before this job ran (0 on the first run of a program and
    /// whenever the chunk policy is fixed).
    pub chunks_autotuned: u64,
    /// Allocation counters of this job's I-structure store (live/peak
    /// arrays and approximate bytes).
    pub store: StoreStats,
}

impl NativeStats {
    /// SP instances actually created over the run (alias of `instances`,
    /// named for symmetry with [`Self::iterations_per_instance`]).
    pub fn instances_spawned(&self) -> u64 {
        self.instances
    }

    /// Effective grain: average loop iterations executed per spawned
    /// instance. `1.0` for an unchunked run (every iteration was its own
    /// instance); grows toward the chunk size as chunking takes hold.
    pub fn iterations_per_instance(&self) -> f64 {
        if self.instances == 0 {
            return 0.0;
        }
        (self.instances + self.chunk_iterations) as f64 / self.instances as f64
    }
}

impl std::fmt::Display for NativeStats {
    /// One-line human summary, shared by the examples and the slow-job
    /// diagnostics (see [`super::EngineStats::summary`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "native: {} worker(s), {} instances ({:.1} iter/instance), {} tasks, \
             {} super-ops, {} parks, {} steals, {} wakeups in {} flushes, peak {} arrays",
            self.workers,
            self.instances,
            self.iterations_per_instance(),
            self.tasks,
            self.super_ops,
            self.parks,
            self.steals,
            self.wakeups,
            self.wakeup_flushes,
            self.store.peak_arrays,
        )
    }
}

/// `(instance, slot)` continuation tag: where a produced value must go.
type NativeWaiter = (InstanceId, SlotId);

/// The run-time frame of one native SP instance.
#[derive(Debug)]
struct NInstance {
    id: InstanceId,
    template: SpId,
    /// The virtual PE this instance runs as (drives Range Filters).
    pe: usize,
    pc: usize,
    slots: Vec<Option<Value>>,
    return_to: Option<NativeWaiter>,
}

impl NInstance {
    fn slot(&self, slot: SlotId) -> Option<Value> {
        self.slots.get(slot.index()).copied().flatten()
    }

    fn is_present(&self, slot: SlotId) -> bool {
        self.slot(slot).is_some()
    }

    fn set_slot(&mut self, slot: SlotId, value: Value) {
        if slot.index() < self.slots.len() {
            self.slots[slot.index()] = Some(value);
        }
    }

    fn clear_slot(&mut self, slot: SlotId) {
        if slot.index() < self.slots.len() {
            self.slots[slot.index()] = None;
        }
    }
}

/// An instance parked on a missing operand.
struct Blocked {
    inst: NInstance,
    slot: SlotId,
}

/// The worker's memo of array directory lookups (see
/// [`crate::engine::ArrayCache`], shared with the async engine).
type ArrayCache = crate::engine::ArrayCache<NativeWaiter>;

/// Everything program-shaped a job needs, in `Arc`-shared form so warm
/// submissions of the same prepared program pay zero setup: the partitioned
/// SP program, its read-slot tables, the partition report (for the
/// outcome), and the per-job execution knobs. Consumed by both pooled
/// schedulers — the native thread pool and the async cooperative executor —
/// so one [`crate::PreparedProgram`] handle serves either engine.
pub(crate) struct JobSpec {
    pub program: Arc<SpProgram>,
    pub read_slots: Arc<ReadSlots>,
    pub partition: Arc<PartitionReport>,
    pub page_size: usize,
    /// 0 = unlimited; otherwise abort after this many task executions.
    pub max_tasks: u64,
    /// Max wake-ups buffered per worker before a forced flush (>= 1; 1
    /// flushes after every write, i.e. unbatched delivery).
    pub delivery_batch: usize,
    /// How many times adaptive grain control re-partitioned this program
    /// with a larger chunk before this submission (reported in the stats;
    /// 0 for cold runs and fixed chunk policies).
    pub chunks_autotuned: u64,
    /// Completion hook: fired exactly once when the job finishes (success,
    /// failure, or cancellation), with the final allocation statistics of
    /// the job's I-structure store. Installed by the `Runtime`'s service
    /// layer to drive its metrics and dispatch window; `None` on the cold
    /// `Engine`-trait path.
    pub on_done: Option<JobNotifier>,
    /// Flight-recorder handle: when present, the scheduler and the exec
    /// core emit trace events for this job (see [`crate::trace`]). `None`
    /// (tracing disabled) costs one branch per would-be event.
    pub trace: Option<TraceHandle>,
}

/// The completion callback a [`JobSpec`] can carry (see
/// [`JobSpec::on_done`]). Shared by both pooled schedulers.
pub(crate) type JobNotifier = Arc<dyn Fn(StoreStats) + Send + Sync>;

impl JobSpec {
    /// The cold-path constructor: partitions the program and builds the
    /// read-slot tables for this one submission (the `Engine`-trait path and
    /// the native tests; [`crate::Runtime`] amortises this via
    /// [`crate::PreparedProgram`]).
    pub(crate) fn from_options(program: &CompiledProgram, opts: &RunOptions) -> JobSpec {
        let (partitioned, partition) = program.partitioned(opts);
        let read_slots = build_read_slots(&partitioned);
        JobSpec {
            program: Arc::new(partitioned),
            read_slots: Arc::new(read_slots),
            partition: Arc::new(partition),
            page_size: opts.page_size,
            max_tasks: opts.max_events,
            delivery_batch: opts.delivery_batch.max(1),
            chunks_autotuned: 0,
            on_done: None,
            trace: None,
        }
    }
}

/// State owned by one worker thread and reused across every task it runs:
/// the instance arena, the wake-up delivery buffer, the scratch vectors for
/// woken instances and spawn arguments, and the array directory memo. All
/// of them exist to keep per-iteration allocations and lock acquisitions
/// off the warm path.
#[derive(Default)]
struct WorkerCtx {
    arena: InstanceArena,
    /// Buffered wake-ups of the job currently executing. Invariant: empty
    /// between tasks — every exit path of `run_instance` flushes (on
    /// progress) or clears (when the job is already failing) the buffer, so
    /// deliveries can never leak into another job.
    delivery: Vec<(NativeWaiter, Value)>,
    /// The instances one `flush` re-activates, between leaving the blocked
    /// registry and entering the deque. Empty outside `flush`.
    woken: Vec<NInstance>,
    spawn_args: Vec<Value>,
    /// Directory memo of the task being executed. Array ids are per job, so
    /// the worker loop clears it after every task — which also means no
    /// `Arc<SharedArray>` outlives its job on an idle worker.
    cache: ArrayCache,
}

/// Parked-instance registry plus the mailbox for values that arrive while
/// their target instance is queued or running.
#[derive(Default)]
struct Sched {
    blocked: HashMap<InstanceId, Blocked>,
    mailbox: HashMap<InstanceId, Vec<(SlotId, Value)>>,
}

/// Everything scoped to one submitted program execution. Tasks reference
/// their job through an `Arc`, so concurrent jobs on one pool have fully
/// disjoint instance namespaces, I-structure stores, schedulers, deadlock
/// detection, and error/result slots.
struct Job {
    /// 1-based submission sequence number on the owning pool.
    seq: u64,
    /// Identity of the owning pool (for reuse assertions / stats).
    pool_id: u64,
    program: Arc<SpProgram>,
    /// Shared read-slot tables (see [`ReadSlots`]); built once per prepared
    /// program, not per job.
    read_slots: Arc<ReadSlots>,
    store: SharedArrayStore<NativeWaiter>,
    sched: Mutex<Sched>,
    counts: Mutex<JobCounts>,
    /// Set on first error (or cancellation): workers abandon this job's
    /// tasks instead of running them.
    stop: AtomicBool,
    error: Mutex<Option<SimulationError>>,
    result: Mutex<Option<Value>>,
    done: Mutex<bool>,
    done_cv: Condvar,
    entry: InstanceId,
    /// Virtual-PE count for partitioning decisions (= pool worker count).
    workers: usize,
    page_size: usize,
    /// 0 = unlimited; otherwise abort after this many task executions
    /// (the native analogue of the simulator's event limit).
    max_tasks: u64,
    /// Max wake-ups buffered per worker before a forced flush (1 =
    /// unbatched).
    delivery_batch: usize,
    /// Adaptive-grain retunes applied before this job (see [`JobSpec`]).
    chunks_autotuned: u64,
    /// Completion hook (see [`JobSpec::on_done`]); fired exactly once, by
    /// whichever of normal completion / failure / cancellation wins.
    on_done: Option<JobNotifier>,
    /// Flight-recorder handle (see [`JobSpec::trace`]).
    trace: Option<TraceHandle>,
    /// First-wins claim on the terminal transition, separate from `done` so
    /// the hook can run *before* `done` is published (waiters must never
    /// observe a finished job whose hook has not fired yet).
    finished: AtomicBool,
    next_instance: AtomicU64,
    next_array: AtomicUsize,
    tasks: AtomicU64,
    parks: AtomicU64,
    steals: AtomicU64,
    wakeups: AtomicU64,
    wakeup_flushes: AtomicU64,
    arena_reuses: AtomicU64,
    chunk_iterations: AtomicU64,
    super_ops: AtomicU64,
}

impl Job {
    /// Records the error and stops the job (not the pool). A no-op if the
    /// job already finished: the first of normal completion / failure /
    /// cancellation wins, so a cancel racing a finished job can neither
    /// clobber its result nor re-fire the completion hook.
    fn fail(&self, err: SimulationError) {
        self.stop.store(true, Ordering::SeqCst);
        self.finish(Some(err));
    }

    /// Marks the job finished and wakes every `wait`er.
    fn complete(&self) {
        self.finish(None);
    }

    /// The single completion point: flips `done` exactly once, records the
    /// error (if any) while still holding the `done` lock (so `wait`, which
    /// reads the error only after observing `done`, sees it), then — with
    /// no locks held — wakes waiters and fires the `on_done` hook.
    fn finish(&self, err: Option<SimulationError>) {
        // First caller wins; a cancel racing normal completion is dropped.
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(e) = err {
            *self.error.lock().expect("error poisoned") = Some(e);
        }
        // The hook runs before `done` is published: once a waiter observes
        // completion, the service metrics already include this job. No
        // locks are held here, so the hook may take the service locks.
        if let Some(hook) = &self.on_done {
            hook(self.store.stats());
        }
        *self.done.lock().expect("done poisoned") = true;
        self.done_cv.notify_all();
    }

    fn is_done(&self) -> bool {
        *self.done.lock().expect("done poisoned")
    }

    fn stats(&self) -> NativeStats {
        NativeStats {
            workers: self.workers,
            instances: self.next_instance.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            pool_id: self.pool_id,
            job_seq: self.seq,
            wakeups: self.wakeups.load(Ordering::Relaxed),
            wakeup_flushes: self.wakeup_flushes.load(Ordering::Relaxed),
            arena_reuses: self.arena_reuses.load(Ordering::Relaxed),
            chunk_iterations: self.chunk_iterations.load(Ordering::Relaxed),
            super_ops: self.super_ops.load(Ordering::Relaxed),
            chunks_autotuned: self.chunks_autotuned,
            store: self.store.stats(),
        }
    }
}

/// A runnable unit on the pool: one instance of one job.
struct Task {
    job: Arc<Job>,
    inst: NInstance,
}

/// Pool-wide scheduling state shared by the workers and submitters.
struct PoolCoord {
    /// Queued tasks across all deques (the condvar predicate for idle
    /// workers).
    ready: isize,
    /// Set only when the pool itself is being torn down.
    shutdown: bool,
}

/// Process-unique pool identities, so tests (and users) can assert that two
/// runs really shared one set of worker threads. Shared with the async
/// cooperative executor: no two pools of either kind ever report the same
/// id.
pub(crate) static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

struct PoolShared {
    id: u64,
    workers: usize,
    queues: Vec<Mutex<VecDeque<Task>>>,
    coord: Mutex<PoolCoord>,
    cv: Condvar,
    jobs_submitted: AtomicU64,
    /// Cheap teardown flag checked on the workers' hot paths (between
    /// tasks and between instructions), so dropping the pool aborts
    /// in-flight jobs at the next instruction boundary instead of running
    /// every queued task to completion first.
    stop: AtomicBool,
}

impl PoolShared {
    fn lock_coord(&self) -> std::sync::MutexGuard<'_, PoolCoord> {
        self.coord.lock().expect("coord poisoned")
    }

    /// No queued or running task of the job remains but instances are still
    /// parked: nothing can ever deliver their operands.
    fn report_deadlock(&self, job: &Job) {
        let sched = job.sched.lock().expect("sched poisoned");
        let stuck = sched.blocked.len();
        let detail = sched
            .blocked
            .values()
            .next()
            .map(|b| {
                let template = job.program.template(b.inst.template);
                format!(
                    "inst{} of {} parked at pc {} on {}",
                    b.inst.id.0, template.name, b.inst.pc, b.slot
                )
            })
            .unwrap_or_default();
        drop(sched);
        job.fail(SimulationError::Deadlock {
            stuck_instances: stuck.max(1),
            detail,
        });
    }

    /// Makes a task runnable on worker `w`'s deque. `new` marks a freshly
    /// created instance (as opposed to a woken one).
    fn enqueue(&self, w: usize, job: &Arc<Job>, inst: NInstance, new: bool) {
        {
            let mut c = job.counts.lock().expect("counts poisoned");
            if new {
                c.live += 1;
            }
            c.in_flight += 1;
        }
        self.lock_coord().ready += 1;
        self.queues[w]
            .lock()
            .expect("queue poisoned")
            .push_back(Task {
                job: Arc::clone(job),
                inst,
            });
        self.cv.notify_one();
    }

    #[allow(clippy::too_many_arguments)] // hot path: a params struct would be built per spawn
    fn spawn_instance(
        &self,
        w: usize,
        job: &Arc<Job>,
        template_id: SpId,
        args: &[Value],
        pe: usize,
        return_to: Option<NativeWaiter>,
        arena: &mut InstanceArena,
    ) {
        let id = InstanceId(job.next_instance.fetch_add(1, Ordering::Relaxed));
        let num_slots = job.program.template(template_id).num_slots;
        let (slots, reused) = arena.frame(num_slots, args);
        if reused {
            job.arena_reuses.fetch_add(1, Ordering::Relaxed);
        }
        let inst = NInstance {
            id,
            template: template_id,
            pe,
            pc: 0,
            slots,
            return_to,
        };
        if let Some(t) = &job.trace {
            t.emit(w as u32, id.0, TraceEventKind::InstanceSpawned);
        }
        self.enqueue(w, job, inst, true);
    }

    /// Pops the next task: own deque first (LIFO end for locality), then
    /// steal from siblings (FIFO end, taking the oldest work).
    fn pop_task(&self, w: usize) -> Option<Task> {
        let own = self.queues[w].lock().expect("queue poisoned").pop_back();
        let task = own.or_else(|| {
            (1..self.workers).find_map(|i| {
                let victim = (w + i) % self.workers;
                let stolen = self.queues[victim]
                    .lock()
                    .expect("queue poisoned")
                    .pop_front();
                if let Some(t) = &stolen {
                    t.job.steals.fetch_add(1, Ordering::Relaxed);
                    if let Some(tr) = &t.job.trace {
                        tr.emit(
                            w as u32,
                            t.inst.id.0,
                            TraceEventKind::Steal {
                                from: victim as u32,
                            },
                        );
                    }
                }
                stolen
            })
        });
        if task.is_some() {
            self.lock_coord().ready -= 1;
        }
        task
    }

    /// Delivers every buffered wake-up of `buf` in one scheduler
    /// transaction: one `sched` lock to fill slots / route mailboxes, one
    /// `counts` + `coord` + deque lock to enqueue everything that woke.
    /// Called when the buffer reaches the job's `delivery_batch` and at
    /// every task boundary (park, finish), so batching changes *when* locks
    /// are taken, never *whether* a wake-up happens before the liveness
    /// counters can observe the task as idle.
    fn flush(&self, w: usize, job: &Arc<Job>, worker: &mut WorkerCtx) {
        let (buf, to_wake) = (&mut worker.delivery, &mut worker.woken);
        if buf.is_empty() {
            return;
        }
        job.wakeups.fetch_add(buf.len() as u64, Ordering::Relaxed);
        job.wakeup_flushes.fetch_add(1, Ordering::Relaxed);
        {
            let mut sched = job.sched.lock().expect("sched poisoned");
            for (waiter, value) in buf.drain(..) {
                let (target, slot) = waiter;
                if let Some(b) = sched.blocked.get_mut(&target) {
                    b.inst.set_slot(slot, value);
                    if b.slot == slot {
                        let woken = sched.blocked.remove(&target).expect("checked above");
                        to_wake.push(woken.inst);
                    }
                } else {
                    sched.mailbox.entry(target).or_default().push((slot, value));
                }
            }
        }
        if to_wake.is_empty() {
            return;
        }
        let woken = to_wake.len();
        {
            let mut c = job.counts.lock().expect("counts poisoned");
            c.in_flight += woken;
        }
        self.lock_coord().ready += woken as isize;
        {
            let mut q = self.queues[w].lock().expect("queue poisoned");
            for inst in to_wake.drain(..) {
                if let Some(t) = &job.trace {
                    t.emit(w as u32, inst.id.0, TraceEventKind::Resumed);
                }
                q.push_back(Task {
                    job: Arc::clone(job),
                    inst,
                });
            }
        }
        if woken == 1 {
            self.cv.notify_one();
        } else {
            self.cv.notify_all();
        }
    }

    /// Parks `inst` waiting on `slot`, unless a mailbox delivery already
    /// filled it — in that case the instance is handed back for the worker
    /// to keep running.
    fn park(&self, job: &Arc<Job>, mut inst: NInstance, slot: SlotId) -> Option<NInstance> {
        let mut sched = job.sched.lock().expect("sched poisoned");
        if let Some(msgs) = sched.mailbox.remove(&inst.id) {
            for (s, v) in msgs {
                inst.set_slot(s, v);
            }
        }
        if inst.is_present(slot) {
            return Some(inst);
        }
        sched.blocked.insert(inst.id, Blocked { inst, slot });
        drop(sched);
        job.parks.fetch_add(1, Ordering::Relaxed);
        let mut c = job.counts.lock().expect("counts poisoned");
        c.in_flight -= 1;
        let deadlocked = c.in_flight == 0 && c.live > 0 && !job.stop.load(Ordering::Relaxed);
        drop(c);
        if deadlocked {
            self.report_deadlock(job);
        }
        None
    }

    /// Terminates an instance, routing its return value through the
    /// delivery buffer and flushing it (a task boundary) before the
    /// liveness counters give up this task's `in_flight` slot.
    fn finish(
        &self,
        w: usize,
        job: &Arc<Job>,
        inst: NInstance,
        value: Option<Value>,
        worker: &mut WorkerCtx,
    ) {
        if inst.id == job.entry {
            *job.result.lock().expect("result poisoned") = value;
        } else if let (Some(ret), Some(v)) = (inst.return_to, value) {
            worker.delivery.push((ret, v));
        }
        self.flush(w, job, worker);
        let mut c = job.counts.lock().expect("counts poisoned");
        c.in_flight -= 1;
        c.live -= 1;
        let all_done = c.live == 0;
        let deadlocked = !all_done && c.in_flight == 0 && !job.stop.load(Ordering::Relaxed);
        drop(c);
        if all_done {
            job.complete();
        } else if deadlocked {
            self.report_deadlock(job);
        }
    }

    /// Accounting for a task abandoned because its job errored out.
    fn abandon(&self, job: &Job) {
        let mut c = job.counts.lock().expect("counts poisoned");
        c.in_flight -= 1;
        c.live -= 1;
    }

    /// Runs one instance until it finishes, parks, or its job stops. The
    /// instruction semantics live in the shared core
    /// ([`pods_sp::exec::run_instance`]); this method supplies the native
    /// suspension strategy — park in the job's blocked registry with a
    /// mailbox re-check, resume in place when the mailbox already held the
    /// awaited value.
    ///
    /// Delivery-buffer discipline: `ctx.delivery` is empty on entry and on
    /// every return. Progress exits (park, finish) *flush* — buffered
    /// wake-ups must be enqueued before this task's `in_flight` count is
    /// given up, or deadlock detection could observe a false idle. Failure
    /// exits (job error, cancellation) *clear* — the job is already failing
    /// and its waiters are released by `fail`, but the buffer must not leak
    /// into the next task, which may belong to another job.
    fn run_instance(&self, job: &Arc<Job>, mut inst: NInstance, w: usize, ctx: &mut WorkerCtx) {
        debug_assert!(ctx.delivery.is_empty(), "delivery buffer leaked a task");
        let executed = job.tasks.fetch_add(1, Ordering::Relaxed) + 1;
        if job.max_tasks > 0 && executed > job.max_tasks {
            job.fail(SimulationError::EventLimitExceeded {
                limit: job.max_tasks,
            });
            self.abandon(job);
            ctx.arena.recycle(std::mem::take(&mut inst.slots));
            return;
        }
        let program = Arc::clone(&job.program);
        let template = program.template(inst.template);
        let slot_table = &job.read_slots[inst.template.index()];
        if let Some(t) = &job.trace {
            t.emit(w as u32, inst.id.0, TraceEventKind::RunBegin);
        }
        loop {
            let exit = {
                let mut cx = NativeCtx {
                    pool: self,
                    job,
                    inst: &mut inst,
                    w,
                    worker: ctx,
                    super_ops: 0,
                };
                exec::run_instance(
                    &mut cx,
                    &template.code,
                    slot_table,
                    template.chunk_meta.as_ref(),
                    template.plan.as_ref(),
                )
            };
            match exit {
                Ok(RunExit::Finished(v)) => {
                    if let Some(t) = &job.trace {
                        t.emit(w as u32, inst.id.0, TraceEventKind::RunEnd);
                    }
                    let frame = std::mem::take(&mut inst.slots);
                    self.finish(w, job, inst, v, ctx);
                    ctx.arena.recycle(frame);
                    return;
                }
                Ok(RunExit::Blocked(slot)) => {
                    if let Some(t) = &job.trace {
                        t.emit(w as u32, inst.id.0, TraceEventKind::RunEnd);
                    }
                    self.flush(w, job, ctx);
                    match self.park(job, inst, slot) {
                        Some(resumed) => {
                            if let Some(t) = &job.trace {
                                t.emit(w as u32, resumed.id.0, TraceEventKind::RunBegin);
                            }
                            inst = resumed;
                        }
                        None => return,
                    }
                }
                Ok(RunExit::Stopped) => {
                    if let Some(t) = &job.trace {
                        t.emit(w as u32, inst.id.0, TraceEventKind::RunEnd);
                    }
                    if !job.stop.load(Ordering::Relaxed) {
                        // The pool is being torn down: cut the job short so
                        // its waiter gets a cancellation error instead of
                        // hanging. (Otherwise the job itself already
                        // failed and this task is simply abandoned.)
                        job.fail(cancellation_error());
                    }
                    self.abandon(job);
                    ctx.delivery.clear();
                    ctx.arena.recycle(std::mem::take(&mut inst.slots));
                    return;
                }
                Err(msg) => {
                    if let Some(t) = &job.trace {
                        t.emit(w as u32, inst.id.0, TraceEventKind::RunEnd);
                    }
                    job.fail(SimulationError::Runtime(msg));
                    self.abandon(job);
                    ctx.delivery.clear();
                    ctx.arena.recycle(std::mem::take(&mut inst.slots));
                    return;
                }
            }
        }
    }

    fn worker(&self, w: usize) {
        let mut ctx = WorkerCtx::default();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                // Leave queued tasks in place: `Drop` drains them and fails
                // their jobs with the cancellation error.
                return;
            }
            if let Some(task) = self.pop_task(w) {
                self.run_instance(&task.job, task.inst, w, &mut ctx);
                ctx.cache.clear();
                continue;
            }
            let c = self.lock_coord();
            if c.shutdown {
                return;
            }
            if c.ready <= 0 {
                // Untimed wait is lost-wakeup-safe: `ready` is incremented
                // under this same mutex before the task is pushed, and the
                // notify fires after the push — so either this check sees
                // ready > 0, or the enqueuer's notify lands after the wait
                // has atomically released the lock. A persistent pool must
                // not poll: idle runtimes should cost nothing.
                let _unused = self.cv.wait(c).expect("coord poisoned");
            }
        }
    }
}

/// The native engine's execution context for the shared instruction core
/// (`pods_sp::exec`): one task execution of one instance. The semantics
/// live in the core; this adapter supplies the native *mechanics* — the
/// process-wide [`SharedArrayStore`] (with the worker's directory memo and
/// batched wake-up delivery), the worker-local spawn scratch and frame
/// arena, and the job/pool stop flags. Costs are free (`charge` keeps its
/// no-op default): the native engine's only honest clock is the wall.
struct NativeCtx<'a> {
    pool: &'a PoolShared,
    job: &'a Arc<Job>,
    inst: &'a mut NInstance,
    w: usize,
    worker: &'a mut WorkerCtx,
    /// Super-op firings this run segment, flushed to the job counter on
    /// drop — one atomic per segment instead of one per firing, which is
    /// too hot a path for a shared cache line.
    super_ops: u64,
}

impl Drop for NativeCtx<'_> {
    fn drop(&mut self) {
        if self.super_ops > 0 {
            self.job
                .super_ops
                .fetch_add(self.super_ops, Ordering::Relaxed);
        }
    }
}

impl ArrayOps for NativeCtx<'_> {
    fn alloc_array(
        &mut self,
        dst: SlotId,
        name: &Arc<str>,
        dims: Vec<usize>,
        distributed: bool,
    ) -> Result<(), String> {
        let id = ArrayId(self.job.next_array.fetch_add(1, Ordering::Relaxed));
        let total: usize = dims.iter().product();
        let partitioning = if distributed {
            Partitioning::new(total, self.job.page_size, self.job.workers)
        } else {
            Partitioning::single_owner(
                total,
                self.job.page_size,
                self.job.workers,
                PeId(self.inst.pe),
            )
        };
        self.job
            .store
            .allocate(
                id,
                Arc::clone(name),
                pods_istructure::ArrayShape::new(dims),
                partitioning,
            )
            .map_err(|e| e.to_string())?;
        self.inst.set_slot(dst, Value::ArrayRef(id));
        Ok(())
    }

    fn with_header<R>(
        &mut self,
        id: ArrayId,
        f: impl FnOnce(&ArrayHeader) -> R,
    ) -> Result<R, String> {
        let shared = self.worker.cache.get(&self.job.store, id)?;
        Ok(f(shared.header()))
    }

    fn load_element(&mut self, id: ArrayId, offset: usize, dst: SlotId) -> Result<Loaded, String> {
        let shared = self.worker.cache.get(&self.job.store, id)?;
        match shared
            .read(offset, (self.inst.id, dst))
            .map_err(|e| e.to_string())?
        {
            SharedReadResult::Present(v) => Ok(Loaded::Ready(v)),
            // The producing write will deliver into `dst` through the
            // scheduler (mailbox or parked-frame fill); split-phase, so the
            // core keeps the instance running until the value is consumed.
            SharedReadResult::Deferred => Ok(Loaded::Deferred),
        }
    }

    fn store_element(&mut self, id: ArrayId, offset: usize, value: Value) -> Result<(), String> {
        // Wake-ups land in the worker's delivery buffer; they are flushed
        // in one scheduler transaction when the buffer fills (or at the
        // next task boundary).
        let shared = self.worker.cache.get(&self.job.store, id)?;
        shared
            .write_into(offset, value, &mut self.worker.delivery)
            .map_err(|e| e.to_string())?;
        if self.worker.delivery.len() >= self.job.delivery_batch {
            self.pool.flush(self.w, self.job, self.worker);
        }
        Ok(())
    }
}

impl ExecCtx for NativeCtx<'_> {
    #[inline(always)]
    fn pc(&self) -> usize {
        self.inst.pc
    }

    #[inline(always)]
    fn set_pc(&mut self, pc: usize) {
        self.inst.pc = pc;
    }

    #[inline(always)]
    fn slot(&self, slot: SlotId) -> Option<Value> {
        self.inst.slot(slot)
    }

    #[inline(always)]
    fn set_slot(&mut self, slot: SlotId, value: Value) {
        self.inst.set_slot(slot, value);
    }

    #[inline(always)]
    fn clear_slot(&mut self, slot: SlotId) {
        self.inst.clear_slot(slot);
    }

    #[inline(always)]
    fn pe(&self) -> usize {
        self.inst.pe
    }

    #[inline(always)]
    fn should_stop(&self) -> bool {
        self.job.stop.load(Ordering::Relaxed) || self.pool.stop.load(Ordering::Relaxed)
    }

    #[inline(always)]
    fn chunk_advanced(&mut self) {
        self.job.chunk_iterations.fetch_add(1, Ordering::Relaxed);
    }

    #[inline(always)]
    fn super_op_fired(&mut self) {
        self.super_ops += 1;
    }

    fn spawn(
        &mut self,
        target: SpId,
        args: &[Operand],
        distributed: bool,
        return_to: Option<SlotId>,
    ) -> Result<(), String> {
        // Marshal arguments into the worker's scratch vector (no per-spawn
        // allocation, and distributed spawns reuse one slice instead of
        // cloning per PE).
        let mut buf = std::mem::take(&mut self.worker.spawn_args);
        buf.clear();
        buf.extend(args.iter().map(|a| self.operand(a)));
        let ret = return_to.map(|slot| (self.inst.id, slot));
        if distributed {
            for q in 0..self.job.workers {
                let ret_here = if q == self.inst.pe { ret } else { None };
                self.pool.spawn_instance(
                    self.w,
                    self.job,
                    target,
                    &buf,
                    q,
                    ret_here,
                    &mut self.worker.arena,
                );
            }
        } else {
            self.pool.spawn_instance(
                self.w,
                self.job,
                target,
                &buf,
                self.inst.pe,
                ret,
                &mut self.worker.arena,
            );
        }
        self.worker.spawn_args = buf;
        Ok(())
    }

    #[inline(always)]
    fn trace_sink(&mut self) -> Option<&mut dyn TraceSink> {
        if self.job.trace.is_some() {
            Some(self)
        } else {
            None
        }
    }
}

impl TraceSink for NativeCtx<'_> {
    fn exec_event(&mut self, _pe: usize, ev: ExecEvent) {
        if let Some(t) = &self.job.trace {
            t.emit(self.w as u32, self.inst.id.0, TraceEventKind::from_exec(ev));
        }
    }
}

/// A persistent work-stealing worker pool: `workers` OS threads that stay
/// parked between jobs and execute any number of submitted jobs, serially
/// or concurrently. Dropping the pool joins the threads; outstanding jobs —
/// queued or in flight — are cut short (at the next instruction boundary)
/// and fail with a cancellation error rather than hanging their waiters.
pub(crate) struct NativePool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl NativePool {
    /// Spawns a pool of `workers` threads (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            workers,
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            coord: Mutex::new(PoolCoord {
                ready: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            jobs_submitted: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let threads = (0..workers)
            .map(|w| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pods-native-{}-{w}", shared.id))
                    .spawn(move || s.worker(w))
                    .expect("spawn native worker")
            })
            .collect();
        NativePool { shared, threads }
    }

    /// Process-unique identity of this pool.
    pub(crate) fn id(&self) -> u64 {
        self.shared.id
    }

    /// Submits one prepared program for execution and returns a handle to
    /// wait on. The program state in the [`JobSpec`] is `Arc`-shared, so a
    /// warm submission allocates only per-job state (store, scheduler,
    /// counters) — no program clone, no re-partition, no read-slot rebuild.
    /// The entry instance is placed on a rotating home worker so that
    /// concurrent jobs spread across the pool.
    pub(crate) fn submit(&self, spec: JobSpec, args: &[Value]) -> NativeJobHandle {
        let started = Instant::now();
        let seq = self.shared.jobs_submitted.fetch_add(1, Ordering::Relaxed) + 1;
        let JobSpec {
            program,
            read_slots,
            partition,
            page_size,
            max_tasks,
            delivery_batch,
            chunks_autotuned,
            on_done,
            trace,
        } = spec;
        if let Some(t) = &trace {
            t.emit(t.service_lane(), 0, TraceEventKind::JobStarted);
        }
        let entry_template = program.entry();
        let job = Arc::new(Job {
            seq,
            pool_id: self.shared.id,
            program,
            read_slots,
            store: SharedArrayStore::new(),
            sched: Mutex::new(Sched::default()),
            counts: Mutex::new(JobCounts::default()),
            stop: AtomicBool::new(false),
            error: Mutex::new(None),
            result: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            entry: InstanceId(0),
            workers: self.shared.workers,
            page_size,
            max_tasks,
            delivery_batch: delivery_batch.max(1),
            chunks_autotuned,
            on_done,
            trace,
            finished: AtomicBool::new(false),
            next_instance: AtomicU64::new(0),
            next_array: AtomicUsize::new(0),
            tasks: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            wakeup_flushes: AtomicU64::new(0),
            arena_reuses: AtomicU64::new(0),
            chunk_iterations: AtomicU64::new(0),
            super_ops: AtomicU64::new(0),
        });
        let home = (seq as usize - 1) % self.shared.workers;
        // Submission happens off the worker threads, so the entry frame
        // comes from a throwaway arena (one allocation per job).
        let mut arena = InstanceArena::default();
        self.shared
            .spawn_instance(home, &job, entry_template, args, 0, None, &mut arena);
        NativeJobHandle {
            job,
            partition,
            started,
        }
    }
}

impl Drop for NativePool {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            self.shared.lock_coord().shutdown = true;
        }
        self.shared.cv.notify_all();
        for t in self.threads.drain(..) {
            t.join().expect("native worker panicked");
        }
        // Jobs still queued when the pool dies would otherwise hang their
        // waiters; fail them loudly instead.
        for q in &self.shared.queues {
            for task in q.lock().expect("queue poisoned").drain(..) {
                task.job.fail(cancellation_error());
            }
        }
    }
}

/// A handle to one submitted native job. `wait` blocks until the job
/// completes and assembles the uniform [`EngineOutcome`].
pub(crate) struct NativeJobHandle {
    job: Arc<Job>,
    partition: Arc<PartitionReport>,
    started: Instant,
}

impl NativeJobHandle {
    /// Whether the job has already completed (successfully or not).
    pub(crate) fn is_done(&self) -> bool {
        self.job.is_done()
    }

    /// A detachable cancel token for this job, usable while (or after)
    /// `wait` consumes the handle.
    pub(crate) fn canceller(&self) -> NativeCanceller {
        NativeCanceller {
            job: Arc::clone(&self.job),
        }
    }

    /// Blocks until the job completes and returns its outcome.
    pub(crate) fn wait(self) -> Result<EngineOutcome, PodsError> {
        let mut done = self.job.done.lock().expect("done poisoned");
        while !*done {
            done = self.job.done_cv.wait(done).expect("done poisoned");
        }
        drop(done);
        if let Some(err) = self.job.error.lock().expect("error poisoned").take() {
            return Err(err.into());
        }
        let wall_us = self.started.elapsed().as_secs_f64() * 1e6;
        let arrays = self
            .job
            .store
            .snapshots()
            .into_iter()
            .map(|(id, name, shape, values)| ArraySnapshot {
                id,
                name,
                shape,
                values,
            })
            .collect();
        let return_value = self.job.result.lock().expect("result poisoned").take();
        Ok(EngineOutcome {
            engine: "native",
            return_value,
            arrays,
            modelled_us: None,
            wall_us,
            stats: EngineStats::Native {
                stats: self.job.stats(),
                partition: self.partition,
            },
            diagnostics: None,
        })
    }
}

/// Cancel token for one native job: stops the job at its next instruction
/// boundary with the supplied error, through the same stop-flag path that
/// pool teardown uses. A no-op if the job already finished.
#[derive(Clone)]
pub(crate) struct NativeCanceller {
    job: Arc<Job>,
}

impl NativeCanceller {
    /// Whether the job has already completed (successfully or not).
    pub(crate) fn is_done(&self) -> bool {
        self.job.is_done()
    }

    /// Stops the job with `err` unless it already finished.
    pub(crate) fn cancel(&self, err: SimulationError) {
        self.job.fail(err);
    }
}

impl Engine for NativeParallelEngine {
    fn name(&self) -> &'static str {
        "native"
    }

    fn description(&self) -> &'static str {
        "work-stealing thread pool over the shared I-structure store (wall-clock time on N threads)"
    }

    fn run(
        &self,
        program: &CompiledProgram,
        args: &[Value],
        opts: &RunOptions,
    ) -> Result<EngineOutcome, PodsError> {
        check_invocation(program, args)?;
        let start = Instant::now();
        let pool = NativePool::new(opts.num_pes.max(1));
        let handle = pool.submit(JobSpec::from_options(program, opts), args);
        let mut outcome = handle.wait()?;
        // The cold path owns the pool, so its wall-clock honestly includes
        // pool spawn and teardown-free run time measured from entry.
        outcome.wall_us = start.elapsed().as_secs_f64() * 1e6;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;

    fn run_native(src: &str, args: &[Value], workers: usize) -> EngineOutcome {
        let program = compile(src).unwrap();
        NativeParallelEngine
            .run(&program, args, &RunOptions::with_pes(workers))
            .unwrap()
    }

    #[test]
    fn scalar_and_function_calls() {
        let outcome = run_native(
            "def main(n) { x = double(n); return x + 1; } def double(v) { return v * 2; }",
            &[Value::Int(10)],
            2,
        );
        assert_eq!(outcome.return_value, Some(Value::Int(21)));
        assert!(matches!(
            outcome.stats,
            EngineStats::Native { stats, .. } if stats.workers == 2 && stats.instances >= 2
        ));
    }

    #[test]
    fn distributed_fill_is_complete_on_any_worker_count() {
        let src = r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { a[i, j] = i * n + j; }
                }
                return a;
            }
        "#;
        let reference = run_native(src, &[Value::Int(8)], 1);
        let expected = reference.returned_array().unwrap().to_f64(-1.0);
        for workers in [2, 4, 8] {
            let outcome = run_native(src, &[Value::Int(8)], workers);
            let a = outcome.returned_array().unwrap();
            assert!(a.is_complete(), "incomplete on {workers} workers");
            assert_eq!(
                a.to_f64(-1.0),
                expected,
                "wrong values on {workers} workers"
            );
        }
    }

    #[test]
    fn consumers_park_until_producers_write() {
        let src = r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 { a[i] = i * 2; }
                s = a[n - 1] + a[0];
                return s;
            }
        "#;
        let outcome = run_native(src, &[Value::Int(10)], 4);
        assert_eq!(outcome.return_value, Some(Value::Int(18)));
    }

    #[test]
    fn carried_recurrence_is_computed_correctly() {
        let src = r#"
            def main(n) {
                src = array(n);
                for i = 0 to n - 1 { src[i] = i * 1.0; }
                acc = array(n);
                acc[0] = src[0];
                for i = 1 to n - 1 { acc[i] = acc[i - 1] + src[i]; }
                return acc;
            }
        "#;
        let outcome = run_native(src, &[Value::Int(16)], 4);
        let acc = outcome.returned_array().unwrap();
        assert!(acc.is_complete());
        assert_eq!(acc.get(&[15]), Some(Value::Float(120.0)));
    }

    #[test]
    fn single_assignment_violation_is_a_runtime_error() {
        let program =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[0] = i; } return 0; }")
                .unwrap();
        let err = NativeParallelEngine
            .run(&program, &[Value::Int(4)], &RunOptions::with_pes(1))
            .unwrap_err();
        assert!(
            matches!(err, PodsError::Simulation(SimulationError::Runtime(_))),
            "{err}"
        );
    }

    #[test]
    fn reading_a_never_written_element_is_detected_as_deadlock() {
        let program = compile("def main(n) { a = array(n); a[0] = 1; return a[1]; }").unwrap();
        for workers in [1, 4] {
            let err = NativeParallelEngine
                .run(&program, &[Value::Int(4)], &RunOptions::with_pes(workers))
                .unwrap_err();
            assert!(
                matches!(err, PodsError::Simulation(SimulationError::Deadlock { .. })),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn task_limit_aborts_runaway_runs() {
        let program = compile(
            "def main(n) { a = matrix(n, n); for i = 0 to n - 1 { for j = 0 to n - 1 { a[i, j] = i + j; } } return a; }",
        )
        .unwrap();
        let mut opts = RunOptions::with_pes(2);
        opts.max_events = 3;
        let err = NativeParallelEngine
            .run(&program, &[Value::Int(8)], &opts)
            .unwrap_err();
        assert!(matches!(
            err,
            PodsError::Simulation(SimulationError::EventLimitExceeded { limit: 3 })
        ));
    }

    #[test]
    fn out_of_bounds_store_is_reported() {
        let program = compile("def main(n) { a = array(n); a[n + 5] = 1; return 0; }").unwrap();
        let err = NativeParallelEngine
            .run(&program, &[Value::Int(4)], &RunOptions::with_pes(2))
            .unwrap_err();
        assert!(matches!(
            err,
            PodsError::Simulation(SimulationError::Runtime(_))
        ));
    }

    #[test]
    fn one_pool_runs_many_jobs_with_disjoint_state() {
        // Submit several jobs of different programs to one pool before
        // waiting on any of them: per-job stores/schedulers must not
        // cross-talk, and job sequence numbers must be distinct.
        let fill =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * 3; } return a; }")
                .unwrap();
        let scalar = compile("def main(n) { return n * 7; }").unwrap();
        let pool = NativePool::new(4);
        let opts = RunOptions::with_pes(4);
        let mut handles = Vec::new();
        for k in 0..6i64 {
            let (program, args) = if k % 2 == 0 {
                (&fill, vec![Value::Int(8 + k)])
            } else {
                (&scalar, vec![Value::Int(k)])
            };
            handles.push((k, pool.submit(JobSpec::from_options(program, &opts), &args)));
        }
        let mut seqs = Vec::new();
        for (k, handle) in handles {
            let outcome = handle.wait().unwrap();
            if k % 2 == 0 {
                let a = outcome.returned_array().unwrap();
                assert!(a.is_complete(), "job {k} incomplete");
                assert_eq!(a.get(&[2]), Some(Value::Int(6)), "job {k}");
            } else {
                assert_eq!(outcome.return_value, Some(Value::Int(k * 7)), "job {k}");
            }
            let EngineStats::Native { stats, .. } = outcome.stats else {
                panic!("native stats expected");
            };
            assert_eq!(stats.pool_id, pool.id());
            seqs.push(stats.job_seq);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn a_failing_job_does_not_poison_the_pool() {
        let bad = compile("def main(n) { a = array(n); a[0] = 1; return a[1]; }").unwrap();
        let good = compile("def main(n) { return n + 1; }").unwrap();
        let pool = NativePool::new(2);
        let opts = RunOptions::with_pes(2);
        let bad_handle = pool.submit(JobSpec::from_options(&bad, &opts), &[Value::Int(4)]);
        let good_handle = pool.submit(JobSpec::from_options(&good, &opts), &[Value::Int(4)]);
        assert!(bad_handle.wait().is_err());
        assert_eq!(
            good_handle.wait().unwrap().return_value,
            Some(Value::Int(5))
        );
        // And the pool still accepts new work after a failure.
        let again = pool.submit(JobSpec::from_options(&good, &opts), &[Value::Int(9)]);
        assert_eq!(again.wait().unwrap().return_value, Some(Value::Int(10)));
    }

    fn native_stats_for(program: &CompiledProgram, n: i64, batch: usize) -> NativeStats {
        let mut opts = RunOptions::with_pes(1);
        opts.delivery_batch = batch;
        let outcome = NativeParallelEngine
            .run(program, &[Value::Int(n)], &opts)
            .unwrap();
        match outcome.stats {
            EngineStats::Native { stats, .. } => stats,
            other => panic!("expected native stats, got {other:?}"),
        }
    }

    #[test]
    fn batched_delivery_coalesces_scheduler_transactions() {
        // Sixteen split-phase probe calls park on unwritten elements, then
        // one producer-loop task writes all of them. The producer is
        // spawned *first*, so on one worker's LIFO deque the probes run
        // (and defer) before it: its writes then deliver 16 wake-ups from
        // a single task. Unbatched (batch = 1) that is one scheduler
        // transaction per write; batch = 16 coalesces them into one. The
        // right-nested sum keeps all 16 spawns split-phase (no Move needs a
        // return value until every probe is in flight).
        let src = r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 { a[i] = i * 3; }
                return probe(a, 0) + (probe(a, 1) + (probe(a, 2) + (probe(a, 3)
                     + (probe(a, 4) + (probe(a, 5) + (probe(a, 6) + (probe(a, 7)
                     + (probe(a, 8) + (probe(a, 9) + (probe(a, 10) + (probe(a, 11)
                     + (probe(a, 12) + (probe(a, 13) + (probe(a, 14) + probe(a, 15)
                     ))))))))))))));
            }
            def probe(a, i) { return a[i] + 1; }
        "#;
        let program = compile(src).unwrap();
        let expected = (0..16).map(|i| i * 3 + 1).sum::<i64>();
        let check = |batch: usize| {
            let mut opts = RunOptions::with_pes(1);
            opts.delivery_batch = batch;
            let outcome = NativeParallelEngine
                .run(&program, &[Value::Int(16)], &opts)
                .unwrap();
            assert_eq!(
                outcome.return_value,
                Some(Value::Int(expected)),
                "batch={batch}"
            );
        };
        check(1);
        check(16);
        let unbatched = native_stats_for(&program, 16, 1);
        let batched = native_stats_for(&program, 16, 16);
        assert_eq!(
            unbatched.wakeups, batched.wakeups,
            "batching must not change how many wake-ups are delivered"
        );
        assert!(
            unbatched.wakeups >= 32,
            "expected 16 deferred reads + 16 returns, got {}",
            unbatched.wakeups
        );
        // Both modes pay one forced flush per probe return (a task
        // boundary); the contrast is the producer's 16 array wake-ups — 16
        // transactions unbatched, 1 batched.
        assert!(
            batched.wakeup_flushes + 8 <= unbatched.wakeup_flushes,
            "batch=16 should need fewer scheduler transactions: \
             {} vs {}",
            batched.wakeup_flushes,
            unbatched.wakeup_flushes
        );
    }

    #[test]
    fn worker_arena_recycles_instance_frames() {
        // One probe instance per iteration, sequentially: spawn, run,
        // finish, spawn the next. After the first frame is recycled every
        // later spawn reuses it, so reuse grows with n.
        let src = r#"
            def main(n) {
                a = array(n);
                s = array(n);
                for i = 0 to n - 1 { a[i] = i * 3; }
                for i = 0 to n - 1 { s[i] = probe(a, i); }
                return s;
            }
            def probe(a, i) { return a[i] + 1; }
        "#;
        let program = compile(src).unwrap();
        let stats = native_stats_for(&program, 64, 16);
        assert!(
            stats.arena_reuses > 32,
            "expected recycled instance frames, got {} (instances {})",
            stats.arena_reuses,
            stats.instances
        );
    }
}
