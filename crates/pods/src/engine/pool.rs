//! The pooled scheduler both parallel engines run on: one work-stealing
//! worker pool, generic over how a blocked SP instance waits.
//!
//! Where the simulator ([`super::sim`]) *models* iteration-level parallelism
//! on simulated PEs, a [`Pool`] *runs* it: the partitioned SP program executes
//! on real OS threads (one "virtual PE" per worker), iteration instances are
//! spawned per the partitioner's distribution decisions (distributing
//! allocate, `LD`, Range Filters), and instances synchronise through the
//! thread-safe I-structure store ([`pods_istructure::SharedArrayStore`]) —
//! write-once cells whose deferred readers are re-activated by the eventual
//! write, the paper's presence-bit protocol lifted onto threads.
//!
//! An instance that needs an operand that has not arrived (an unwritten
//! array element or an outstanding function return) is *suspended* and the
//! worker thread moves on; the write or return that produces the operand
//! delivers it and re-queues the instance. That makes the pool deadlock-free
//! under any schedule a correct program allows, and lets it detect true
//! deadlocks exactly: when no task of a job is queued or running but
//! instances remain suspended, no future delivery can happen.
//!
//! How an instance is suspended and found again is the one varying point,
//! the [`Suspension`] trait, with two implementations:
//!
//! * [`super::native::Registry`] parks the instance in a job-wide registry
//!   and buffers early values in a mailbox (the native engine);
//! * [`super::async_coop::Wakers`] keeps the frame in a shared task handle
//!   and registers the handle itself with the store as a waker (the async
//!   engine).
//!
//! Everything else is written once, here: per-worker deques with stealing,
//! idle workers on one condvar, per-job liveness with exact deadlock
//! detection, the delivery buffer, first-wins failure, one completion point
//! (the job's `Drop`), teardown cancellation, the unwind boundary, trace
//! events, the task limit, and the instance arenas. The per-task path is
//! monomorphised per strategy; type erasure happens only at the per-job
//! boundary ([`Pooled`], [`PoolCanceller`], [`JobNotifier`]).
//!
//! # Pool lifecycle vs per-job state
//!
//! The paper's speed-ups depend on amortising spawn/steal overhead, so the
//! pool is split into two layers:
//!
//! * [`Pool`] owns the *long-lived* machinery: the worker threads, their
//!   deques and arenas, and the shared condvar. A pool outlives any single
//!   program execution; [`crate::Runtime`] keeps one alive across calls.
//! * `Job` owns everything scoped to *one* program execution: the SP
//!   program, its I-structure store, the strategy's suspension state,
//!   liveness counters, the first-error slot, and the result. Queue entries
//!   carry an `Arc<Job>`, so any number of jobs can be in flight on one pool
//!   without cross-talk.
//!
//! # Warm-path cost model
//!
//! Four further overheads are amortised so that a warm run pays only for
//! job execution, not job setup (the paper batches token routing — ~20
//! tokens per message — for exactly this reason):
//!
//! * **Shared program state** ([`JobSpec`]): the partitioned SP program and
//!   its read-slot table travel as `Arc`s, built once by
//!   [`crate::Runtime::prepare`] (or its internal cache) and shared by every
//!   job.
//! * **Batched wake-up delivery**: a writer that fills many I-structure
//!   elements in one task accumulates the `(waiter, value)` wake-ups in a
//!   per-worker buffer ([`pods_istructure::SharedArray::write_into`]
//!   appends straight into it) and delivers them in one transaction instead
//!   of one per deferred reader. The buffer is bounded by the job's
//!   `delivery_batch` and force-flushed at every task boundary (suspend,
//!   finish), so deadlock detection observes exactly the liveness it would
//!   unbatched and no suspended instance is stranded behind an unflushed
//!   buffer.
//! * **Per-worker instance arenas**: a finished instance returns its frame
//!   (and, on the async engine, its task handle) to the free-list of the
//!   worker that finished it. Work migrates: a thief finishes what another
//!   worker spawned, so a worker whose frame free-list runs dry takes half
//!   of a sibling's frames, and the task handles kept with them, before it
//!   allocates.
//! * **Recycled job-scoped state**: job-scoped state is cleared, not
//!   dropped. When a job's last `Arc` goes, its `Drop` empties the store
//!   ([`SharedArrayStore::recycle`]) and the suspension state
//!   ([`Suspension::clear`]) and hands both back to the pool, the way the
//!   paper's Memory Manager serves frames from a free list (§5.1). The next
//!   submission takes them: the directory maps, the allocation order and
//!   the native registry and mailboxes keep their capacity, and every array
//!   of the previous job is a spare that an allocation with no more cells
//!   than its capacity reuses whole — record, header storage and cells. A
//!   pool creates a store only when none is spare, so it holds no more than
//!   it ever had jobs alive at once, each with one job's arrays, until the
//!   pool is dropped. The `Drop` hands the pair back before it tells anyone
//!   that the job ended, so whoever that wakes finds it spare.
//!
//! # One completion point
//!
//! A job's queued and running tasks each hold its `Arc`, and nothing else
//! holds one for long (a [`PoolCanceller`] is weak), so the job ends when
//! its last task lets go of it: its `Drop` reads the statistics, snapshots
//! the arrays if every instance finished, recycles the store and the
//! suspension state, and only then hands the end to the job's
//! [`JobNotifier`]. The end is the first cause recorded (an error, the
//! task limit, a panic, a cancellation), else a deadlock if instances are
//! still suspended with no task left to wake them, else the outcome. A
//! panic inside a task is caught in the worker loop and recorded as the
//! job's error; the worker keeps serving.
//!
//! ## The allocation budget
//!
//! With those in place a warm job allocates only its own record and its
//! result. The allocator may be called
//!
//! * **per job** — the service's ticket, the job record, the outcome's
//!   vector of snapshots (sized once) and one values vector per array (a
//!   snapshot's name shares the array's `Arc<str>`, a shape of rank up to
//!   four is inline, and the ticket itself is the completion hook). The
//!   waiter makes the snapshots, copying the vectors the job's end filled,
//!   which go back to the spares. A job that waits in the admission queue
//!   also copies its arguments, into a vector an earlier queued job left
//!   spare once the service has one;
//! * **per array** — only when no spare array the store's previous job left
//!   has the cell capacity for it: then three calls, the partitioning's
//!   segment table, the shared array record and its cells, plus the extents
//!   above rank four (the name is the allocating instruction's `Arc<str>`).
//!   A reused array makes none, whatever its new length;
//! * **per new store** — the directory maps, the allocation order and the
//!   suspension state (the native registry, and the mailboxes, which are
//!   kept, emptied, across jobs) as they first grow, until they have the
//!   capacity the pool's jobs need; likewise the spare snapshot vectors;
//! * **per arena miss** — a frame that neither the spawning worker nor any
//!   sibling had spare, or a spare frame too small for the template reusing
//!   it; on the async engine also a task handle the spawning worker had
//!   none of (a handle still referenced when its instance finished is not
//!   kept, so the workers hold fewer spare handles than frames) —
//!
//! and **never** per instruction, per element access (index operands
//! resolve on the stack, the first deferred reader of a cell is held
//! inline), per task execution (the directory memo belongs to the worker
//! and is cleared, not rebuilt), per deferred read or per wake-up flush
//! (the woken instances pass through a worker-owned scratch vector).
//! `tests/alloc_budget.rs` fences this with exact counts on one worker and
//! a 90th percentile on two.
//!
//! A job that is not warm first pays the cold path: `compile` and a prepare
//! miss. Preparing allocates per program (the read-slot table is one flat
//! table of every template's per-pc reads), per template (its code and its
//! plan: the op table and the pools of firing lists, fused ops and store
//! indices, sized before the pass runs) and per instruction only for the
//! copied operand lists of the compiled program; no super-op, firing list
//! or read-slot list is an allocation of its own. On the standing benchmark (`benchmark/`, two
//! workers, 15-second runs on a 2-vCPU host) the budget reads, from before
//! it was enforced, to after, to the one pool with sibling refill, to
//! recycled stores, to a job that allocates only its record and its result
//! (shared snapshot names, spares fitted by capacity, kept mailboxes, the
//! ticket as the hook), to a cold path that allocates per template (and
//! queued jobs' arguments in spare vectors):
//!
//! | workload | allocator calls per job | KiB requested per job |
//! |---|---|---|
//! | `simple_solo` (SIMPLE n=32, 67,746 super-op firings, 22 arrays) | 83,644 → 321 → 193 → 53 → 26.6 | 2,785 → 1,219 → 1,120 → 344 → 341 |
//! | `gather_wake` (130 instances, 128 deferred reads) | 531 → 76–110 → 23 → 12 → 4.0 | 42.0 → 23.0 → 11.7 → 7.1 → 3.8 |
//! | `tiny_burst` (FILL n=6..10) | 100 → 18.4 → 16.4 → 9.8 → 5.2 → 4.4 | 7.6 → 5.8 → 5.5 → 5.1 → 2.9 → 2.9 |
//! | `cold_mix` (compiles every job; the front end is the bulk) | 4,101 → 3,167 → 3,163 → 3,145 → 968 → 682 | 379 → 335 → 332 → 328 → 220 → 139 |
//!
//! (`cold_mix` read 977 calls and 222 KiB just before the fifth step: the
//! front end had meanwhile stopped copying identifier text. Its last step is
//! the cold path's: a prepare miss per template, not per instruction, and a
//! parser that pulls its tokens from the lexer instead of a token vector.)

use super::{EngineOutcome, EngineStats};
use crate::trace::{TraceEventKind, TraceHandle};
use pods_istructure::{
    ArrayHeader, ArrayId, PartitionSpec, PeId, SharedArray, SharedArrayStore, SharedReadResult,
    StoreStats, Value,
};
use pods_machine::{ArraySnapshot, InstanceId, SimulationError};
use pods_partition::PartitionReport;
use pods_sp::exec::{self, ArrayOps, ExecCtx, ExecEvent, Loaded, RunExit, TraceSink};
use pods_sp::{Operand, SlotId, SpId, SpProgram};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, LockResult, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

pub(crate) use pods_sp::exec::{build_read_slots, ReadSlots};

/// The scheduler's one lock-poison policy: a lock (or condvar wait) whose
/// holder panicked is a bug in the scheduler, so it panics again, naming the
/// lock. Every mutex of the pool and of both strategies goes through here.
pub(crate) fn locked<G>(result: LockResult<G>, name: &str) -> G {
    result.unwrap_or_else(|_| panic!("{name} poisoned"))
}

/// The operand slots and program counter of one SP instance.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    pub(crate) pc: usize,
    pub(crate) slots: Vec<Option<Value>>,
}

impl Frame {
    pub(crate) fn slot(&self, slot: SlotId) -> Option<Value> {
        self.slots.get(slot.index()).copied().flatten()
    }

    pub(crate) fn is_present(&self, slot: SlotId) -> bool {
        self.slot(slot).is_some()
    }

    pub(crate) fn set_slot(&mut self, slot: SlotId, value: Value) {
        if let Some(s) = self.slots.get_mut(slot.index()) {
            *s = Some(value);
        }
    }

    fn clear_slot(&mut self, slot: SlotId) {
        if let Some(s) = self.slots.get_mut(slot.index()) {
            *s = None;
        }
    }
}

/// An SP instance checked out for execution: its identity, its frame, and
/// whatever else the strategy keeps with a running instance (`shell`).
pub(crate) struct Instance<S: Suspension> {
    pub(crate) id: InstanceId,
    pub(crate) template: SpId,
    /// The virtual PE this instance runs as (drives Range Filters).
    pub(crate) pe: usize,
    pub(crate) frame: Frame,
    pub(crate) shell: S::Shell,
}

/// How a blocked instance waits and is found again — the one thing the two
/// parallel engines do differently. The pool calls these at fixed points:
/// spawn (`new_task`), pop (`check_out`), a deferred read or a spawn with a
/// return slot (`waiter`), a delivery flush (`deliver`), a firing-rule miss
/// (`try_suspend`), a terminal exit (`retire`, `return_to`, `into_spare`),
/// a detected deadlock (`deadlock`) and a dropped job (`clear`).
pub(crate) trait Suspension: Sized + Send + Sync + 'static {
    /// The continuation tag registered with the I-structure store and used
    /// to route return values: where a produced value must go.
    type Waiter: Send + 'static;
    /// An instance that is not running, as it sits in a run queue.
    type Task: Send + 'static;
    /// What a running instance keeps besides its identity and frame.
    type Shell;
    /// Per-job suspension state.
    type JobState: Default + Send + Sync + 'static;
    /// A per-instance allocation, besides the frame, that workers recycle.
    type Spare: Send + 'static;
    /// Engine name: the outcome's `engine` and the worker threads' names.
    const NAME: &'static str;

    /// A queued instance over a ready frame, reusing `spare` if given.
    fn new_task(
        id: InstanceId,
        template: SpId,
        pe: usize,
        frame: Frame,
        return_to: Option<Self::Waiter>,
        spare: Option<Self::Spare>,
    ) -> Self::Task;

    /// The instance id of a queued task (for trace events).
    fn task_id(task: &Self::Task) -> InstanceId;

    /// Takes a popped task's frame out for execution.
    fn check_out(task: Self::Task) -> Instance<Self>;

    /// The waiter tag that delivers into `slot` of the running `inst`.
    fn waiter(inst: &Instance<Self>, slot: SlotId) -> Self::Waiter;

    /// Delivers every buffered wake-up (draining `wakeups`) and pushes each
    /// suspended instance whose awaited slot arrived onto `woken`. Exactly
    /// once per wake-up: a value for an instance that is queued or running
    /// is kept for it, never dropped and never re-queued twice.
    fn deliver(
        state: &Self::JobState,
        wakeups: &mut Vec<(Self::Waiter, Value)>,
        woken: &mut Vec<Self::Task>,
    );

    /// Suspends `inst` awaiting `slot`, unless a delivery that raced the
    /// firing-rule miss already filled it: then the instance comes back and
    /// keeps running.
    fn try_suspend(
        state: &Self::JobState,
        inst: Instance<Self>,
        slot: SlotId,
    ) -> Option<Instance<Self>>;

    /// Marks a finished or abandoned instance so late deliveries to it are
    /// dropped.
    fn retire(inst: &Instance<Self>);

    /// Where a finishing instance's return value goes.
    fn return_to(inst: &Instance<Self>) -> Option<Self::Waiter>;

    /// The shell of a retired instance, if the worker may reuse it.
    fn into_spare(shell: Self::Shell) -> Option<Self::Spare>;

    /// `(stuck instances, detail)` for a deadlocked job; `live` is the
    /// job's count of instances not yet finished. Runs in the job's `Drop`,
    /// which owns the state, so it takes no lock and must not panic.
    fn deadlock(state: &mut Self::JobState, program: &SpProgram, live: usize) -> (usize, String);

    /// Empties a dropped job's suspension state in place, for the pool's
    /// next job: whatever a failed job left suspended is dropped, and
    /// containers keep their capacity. Runs in a `Drop`, so it must not
    /// panic: `false` if a panic poisoned the state, which is then not
    /// reused.
    fn clear(state: &mut Self::JobState) -> bool;

    /// The engine's public statistics for one job.
    fn stats(counters: PoolStats, partition: Arc<PartitionReport>) -> EngineStats;
}

/// Everything program-shaped a job needs, in `Arc`-shared form so warm
/// submissions of the same prepared program pay zero setup: the partitioned
/// SP program, its read-slot table, the partition report (for the
/// outcome), and the per-job execution knobs. One [`crate::PreparedProgram`]
/// serves either strategy.
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
    /// Told the job's end, once. The `Runtime`'s service layer installs
    /// the job's ticket here, which books the end and wakes the waiter.
    pub on_done: Arc<dyn JobNotifier>,
    /// Flight-recorder handle: when present, the scheduler and the exec
    /// core emit trace events for this job (see [`crate::trace`]). `None`
    /// (tracing disabled) costs one branch per would-be event.
    pub trace: Option<TraceHandle>,
}

/// What a [`JobSpec`] carries to hear of its job's end (see
/// [`JobSpec::on_done`]). The submitter's own record of the job implements
/// it, so a job is submitted with a hook without allocating one.
pub(crate) trait JobNotifier: Send + Sync {
    /// The job ended: its outcome, or why it stopped short, with the final
    /// allocation statistics of its I-structure store. Called once, by the
    /// job's `Drop`, after the store is back in the pool's spares, on the
    /// thread that let go of the job last, with no pool lock held.
    fn job_ended(&self, end: Result<EngineOutcome, Failure>, store: StoreStats);
}

/// Why a job was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CancelKind {
    /// The job outlived `RunOptions::deadline`.
    Deadline,
    /// `JobHandle::cancel` was called.
    User,
    /// Its runtime was dropped before the job ended.
    Shutdown,
}

/// Why a job stopped short: the first cause recorded for it.
#[derive(Debug)]
pub(crate) enum Failure {
    /// The job failed by itself: a runtime error, the task limit, a panic
    /// or a deadlock.
    Error(SimulationError),
    /// The job was cancelled.
    Cancelled(CancelKind),
}

/// One job's counters, read out once at `wait`; each strategy names them
/// in its own public stats type.
pub(crate) struct PoolStats {
    pub workers: usize,
    pub instances: u64,
    /// Task executions (polls), counting each resume.
    pub tasks: u64,
    /// Suspensions (parks).
    pub parks: u64,
    /// Suspended instances re-queued by a delivery.
    pub resumptions: u64,
    pub steals: u64,
    pub pool_id: u64,
    pub job_seq: u64,
    pub wakeups: u64,
    pub wakeup_flushes: u64,
    pub arena_reuses: u64,
    pub chunk_iterations: u64,
    pub super_ops: u64,
    pub store: StoreStats,
}

/// Per-task memo of array directory lookups.
///
/// Going through the store's sharded directory (plus an `Arc` refcount
/// bump) for every element access costs two shared-cache-line touches;
/// loop instances touch the same few arrays thousands of times, so one
/// lookup per task execution amortises to nothing. The memo is owned by the
/// worker thread and *cleared* (keeping its capacity) after every task:
/// array ids are per job, and a cleared memo holds no `Arc<SharedArray>`
/// past the job that allocated it.
struct ArrayCache<T> {
    entries: Vec<(ArrayId, Arc<SharedArray<T>>)>,
}

impl<T> ArrayCache<T> {
    fn get(&mut self, store: &SharedArrayStore<T>, id: ArrayId) -> Result<&SharedArray<T>, String> {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == id) {
            return Ok(&self.entries[i].1);
        }
        let shared = store.require(id).map_err(|e| e.to_string())?;
        self.entries.push((id, shared));
        Ok(&self.entries.last().expect("just pushed").1)
    }
}

/// Upper bound on recycled frames (and on recycled spares) a worker keeps,
/// so a spike of tiny instances cannot pin memory forever.
const ARENA_MAX_FREE: usize = 256;

/// One worker's free-lists: frames (operand-slot vectors) and the
/// strategy's spares. Loop bodies spawn one instance per iteration;
/// recycling turns that allocator traffic into a pop and a push.
struct Arena<P> {
    frames: Vec<Vec<Option<Value>>>,
    spares: Vec<P>,
}

impl<P> Default for Arena<P> {
    fn default() -> Self {
        Arena {
            frames: Vec::new(),
            spares: Vec::new(),
        }
    }
}

impl<P> Arena<P> {
    /// Moves the newer half (rounded up) of this arena's frames and spares
    /// into `to`.
    fn give_half(&mut self, to: &mut Arena<P>) {
        to.frames.extend(self.frames.drain(self.frames.len() / 2..));
        to.spares.extend(self.spares.drain(self.spares.len() / 2..));
    }

    fn recycle(&mut self, frame: Vec<Option<Value>>, spare: Option<P>) {
        if self.frames.len() < ARENA_MAX_FREE {
            self.frames.push(frame);
        }
        if let Some(s) = spare.filter(|_| self.spares.len() < ARENA_MAX_FREE) {
            self.spares.push(s);
        }
    }
}

/// The entry instance's id (the first instance every job spawns).
const ENTRY: InstanceId = InstanceId(0);

/// Everything scoped to one submitted program execution. Queue entries
/// reference their job through an `Arc`, so concurrent jobs on one pool have
/// fully disjoint instance namespaces, stores, suspension state, deadlock
/// detection, and error/result slots. The store and the suspension state
/// are the pool's: a job takes a spare pair at submission and its `Drop`
/// hands the pair back, cleared.
struct Job<S: Suspension> {
    /// 1-based submission sequence number on the owning pool.
    seq: u64,
    pool: Arc<Shared<S>>,
    program: Arc<SpProgram>,
    read_slots: Arc<ReadSlots>,
    partition: Arc<PartitionReport>,
    started: Instant,
    /// The pool's store and suspension state, lent to this job until its
    /// `Drop` takes them back (`None` only there). Boxed, so the job record
    /// stays small and the pair moves as one pointer.
    scoped: Option<Box<JobScoped<S>>>,
    /// Instances not yet finished: queued, running or suspended. (Queued
    /// and running *tasks* are counted by the job's `Arc`: each holds one.)
    live: AtomicUsize,
    /// Set with the first cause: workers abandon this job's tasks instead
    /// of running them.
    stop: AtomicBool,
    /// The first recorded reason the job stops short (see [`Job::fail`]).
    cause: Mutex<Option<Failure>>,
    result: Mutex<Option<Value>>,
    page_size: usize,
    /// 0 = unlimited; otherwise abort after this many task executions
    /// (the analogue of the simulator's event limit).
    max_tasks: u64,
    delivery_batch: usize,
    on_done: Arc<dyn JobNotifier>,
    trace: Option<TraceHandle>,
    next_instance: AtomicU64,
    next_array: AtomicUsize,
    tasks: AtomicU64,
    parks: AtomicU64,
    resumptions: AtomicU64,
    steals: AtomicU64,
    wakeups: AtomicU64,
    wakeup_flushes: AtomicU64,
    arena_reuses: AtomicU64,
    chunk_iterations: AtomicU64,
    super_ops: AtomicU64,
}

impl<S: Suspension> Job<S> {
    fn store(&self) -> &SharedArrayStore<S::Waiter> {
        &self.scoped().store
    }

    fn sched(&self) -> &S::JobState {
        &self.scoped().sched
    }

    fn scoped(&self) -> &JobScoped<S> {
        self.scoped
            .as_deref()
            .expect("a job holds its state until it drops")
    }

    /// Records `failure` as the job's end and stops it, unless it already
    /// has one or every instance already finished: the first cause wins,
    /// and a cancel that comes after the job completed leaves it completed.
    fn fail(&self, failure: Failure) {
        let mut cause = locked(self.cause.lock(), "cause");
        if cause.is_none() && self.live.load(Ordering::SeqCst) > 0 {
            *cause = Some(failure);
            self.stop.store(true, Ordering::SeqCst);
        }
    }

    fn emit(&self, w: usize, inst: InstanceId, kind: TraceEventKind) {
        if let Some(t) = &self.trace {
            t.emit(w as u32, inst.0, kind);
        }
    }

    fn stats(&self, store: StoreStats) -> PoolStats {
        let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
        PoolStats {
            workers: self.pool.workers,
            instances: n(&self.next_instance),
            tasks: n(&self.tasks),
            parks: n(&self.parks),
            resumptions: n(&self.resumptions),
            steals: n(&self.steals),
            pool_id: self.pool.id,
            job_seq: self.seq,
            wakeups: n(&self.wakeups),
            wakeup_flushes: n(&self.wakeup_flushes),
            arena_reuses: n(&self.arena_reuses),
            chunk_iterations: n(&self.chunk_iterations),
            super_ops: n(&self.super_ops),
            store,
        }
    }
}

impl<S: Suspension> Drop for Job<S> {
    /// The one place a job ends (see the module docs). It runs once the
    /// last `Arc<Job>` is gone, so no task of the job is queued or running,
    /// and the workers' directory memos, cleared after every task, hold
    /// none of its arrays. In order: the statistics, the snapshot of a job
    /// whose instances all finished, the store and suspension state back to
    /// the pool, and only then the end to the notifier. A drop must not
    /// panic, so it takes no lock, and state that a panic may have torn is
    /// dropped instead of recycled.
    fn drop(&mut self) {
        let Some(mut scoped) = self.scoped.take() else {
            return;
        };
        let store = scoped.store.stats();
        let stats = self.stats(store);
        let panicking = std::thread::panicking();
        let live = *self.live.get_mut();
        let cause = self.cause.get_mut().unwrap_or_else(PoisonError::into_inner);
        let end = match cause.take() {
            Some(failure) => Err(failure),
            None if panicking => Err(Failure::Error(SimulationError::Runtime(
                "job abandoned by a panicking thread".into(),
            ))),
            None if live > 0 => {
                let (stuck, detail) = S::deadlock(&mut scoped.sched, &self.program, live);
                Err(Failure::Error(SimulationError::Deadlock {
                    stuck_instances: stuck.max(1),
                    detail,
                }))
            }
            None => Ok(EngineOutcome {
                engine: S::NAME,
                return_value: self.result.get_mut().ok().and_then(Option::take),
                arrays: snapshot(&scoped.store),
                modelled_us: None,
                wall_us: self.started.elapsed().as_secs_f64() * 1e6,
                stats: S::stats(stats, Arc::clone(&self.partition)),
                diagnostics: None,
            }),
        };
        if !panicking && scoped.store.recycle() && S::clear(&mut scoped.sched) {
            if let Ok(mut spares) = self.pool.spare_state.lock() {
                spares.push(scoped);
            }
        }
        self.on_done.job_ended(end, store);
    }
}

/// A runnable unit on the pool: one task of one job.
struct Entry<S: Suspension> {
    job: Arc<Job<S>>,
    task: S::Task,
}

/// Pool-wide scheduling state shared by the workers and submitters.
struct Coord {
    /// Queued tasks across all deques (the condvar predicate for idle
    /// workers).
    ready: isize,
    /// Set only when the pool itself is being torn down.
    shutdown: bool,
}

/// Process-unique pool identities, so tests (and users) can assert that two
/// runs really shared one set of worker threads.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// State owned by one worker thread and reused across every task it runs:
/// the delivery buffer, the scratch vectors for woken instances, spawn
/// arguments and arena refills, and the array directory memo. All of them
/// exist to keep per-iteration allocations off the warm path.
struct WorkerCtx<S: Suspension> {
    /// Buffered wake-ups of the job currently executing. Invariant: empty
    /// between tasks — every exit of `run_task` flushes (on progress) or
    /// clears (when the job is already failing) the buffer, so deliveries
    /// can never leak into another job.
    delivery: Vec<(S::Waiter, Value)>,
    /// The instances one `flush` re-activates on their way to the deque.
    /// Empty outside `flush`.
    woken: Vec<S::Task>,
    spawn_args: Vec<Value>,
    /// Spares taken from a sibling's arena on their way into this worker's.
    /// Empty outside `take_frame`.
    refill: Arena<S::Spare>,
    /// Directory memo of the task being executed, cleared after every task.
    cache: ArrayCache<S::Waiter>,
}

impl<S: Suspension> Default for WorkerCtx<S> {
    fn default() -> Self {
        WorkerCtx {
            delivery: Vec::new(),
            woken: Vec::new(),
            spawn_args: Vec::new(),
            refill: Arena::default(),
            cache: ArrayCache {
                entries: Vec::new(),
            },
        }
    }
}

/// A job's I-structure store and suspension state: what a pool recycles.
struct JobScoped<S: Suspension> {
    store: SharedArrayStore<S::Waiter>,
    sched: S::JobState,
}

struct Shared<S: Suspension> {
    id: u64,
    /// Virtual-PE count for partitioning decisions.
    workers: usize,
    queues: Vec<Mutex<VecDeque<Entry<S>>>>,
    /// One arena per worker, behind a lock so a worker whose free-list ran
    /// dry can take from a sibling's. Lock order: no thread ever holds two
    /// arena locks at once.
    arenas: Vec<Mutex<Arena<S::Spare>>>,
    /// Finished jobs' stores and suspension states, cleared, for the next
    /// submissions. A pair is created only when none is spare, so the pool
    /// holds no more pairs than it ever had jobs alive at once (bounded by
    /// the service's dispatch window), each with one job's arrays.
    spare_state: Mutex<Vec<Box<JobScoped<S>>>>,
    coord: Mutex<Coord>,
    cv: Condvar,
    jobs_submitted: AtomicU64,
    /// Cheap teardown flag checked on the workers' hot paths (between
    /// tasks and between instructions), so dropping the pool aborts
    /// in-flight jobs at the next instruction boundary instead of running
    /// every queued task to completion first.
    stop: AtomicBool,
}

impl<S: Suspension> Shared<S> {
    fn lock_coord(&self) -> std::sync::MutexGuard<'_, Coord> {
        locked(self.coord.lock(), "coord")
    }

    /// A store and suspension state for a new job: a finished job's, or new
    /// ones if none is spare. The one place the pool creates a store.
    fn job_state(&self) -> Box<JobScoped<S>> {
        let spare = locked(self.spare_state.lock(), "spare state").pop();
        spare.unwrap_or_else(|| {
            let (store, sched) = (SharedArrayStore::new(), S::JobState::default());
            Box::new(JobScoped { store, sched })
        })
    }

    /// A spare frame and spare for worker `w`: from its own arena, else
    /// from the first sibling that has frames to give (half of them, so the
    /// worker that finishes what this one spawns cannot hoard them), else
    /// `None` and the caller allocates. Spares travel only with frames: a
    /// worker that still has frames but no spare allocates the spare, since
    /// scanning siblings whenever spares run dry would scan on every spawn
    /// of a strategy that has none.
    ///
    /// Returning each frame to the arena of the worker that spawned it
    /// instead (no scan, no halving) was measured and rejected: one worker
    /// spawns most of a SIMPLE job's 422 instances, its arena stops at
    /// `ARENA_MAX_FREE`, and the returns past the cap are dropped while the
    /// sibling's arena sits empty (`simple_solo` `allocs_per_job` 258 vs 193
    /// here; equal at a cap of 1024; `gather_wake` 23 on both).
    fn take_frame(
        &self,
        w: usize,
        refill: &mut Arena<S::Spare>,
    ) -> (Option<Vec<Option<Value>>>, Option<S::Spare>) {
        {
            let mut own = locked(self.arenas[w].lock(), "arena");
            if let Some(frame) = own.frames.pop() {
                return (Some(frame), own.spares.pop());
            }
        }
        for i in 1..self.workers {
            let mut sibling = locked(self.arenas[(w + i) % self.workers].lock(), "arena");
            if !sibling.frames.is_empty() {
                sibling.give_half(refill);
                break;
            }
        }
        let taken = (refill.frames.pop(), refill.spares.pop());
        if !refill.frames.is_empty() || !refill.spares.is_empty() {
            let mut own = locked(self.arenas[w].lock(), "arena");
            own.frames.append(&mut refill.frames);
            own.spares.append(&mut refill.spares);
        }
        taken
    }

    /// Returns a terminated instance's frame and reusable shell to worker
    /// `w`'s arena.
    fn recycle(&self, w: usize, inst: Instance<S>) {
        let spare = S::into_spare(inst.shell);
        locked(self.arenas[w].lock(), "arena").recycle(inst.frame.slots, spare);
    }

    /// Makes a task runnable on worker `w`'s deque.
    fn enqueue(&self, w: usize, entry: Entry<S>) {
        self.lock_coord().ready += 1;
        locked(self.queues[w].lock(), "queue").push_back(entry);
        self.cv.notify_one();
    }

    /// A new instance of `template` over `args`, counted live, for the
    /// caller to enqueue.
    #[allow(clippy::too_many_arguments)] // hot path: a params struct would be built per spawn
    fn new_task(
        &self,
        w: usize,
        job: &Job<S>,
        template: SpId,
        args: &[Value],
        pe: usize,
        return_to: Option<S::Waiter>,
        refill: &mut Arena<S::Spare>,
    ) -> S::Task {
        let id = InstanceId(job.next_instance.fetch_add(1, Ordering::Relaxed));
        let num_slots = job.program.template(template).num_slots;
        let (frame, spare) = self.take_frame(w, refill);
        let mut slots = match frame {
            Some(v) => {
                job.arena_reuses.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => Vec::with_capacity(num_slots),
        };
        slots.clear();
        slots.resize(num_slots, None);
        for (s, v) in slots.iter_mut().zip(args) {
            *s = Some(*v);
        }
        let frame = Frame { pc: 0, slots };
        let task = S::new_task(id, template, pe, frame, return_to, spare);
        job.emit(w, id, TraceEventKind::InstanceSpawned);
        job.live.fetch_add(1, Ordering::SeqCst);
        task
    }

    /// Pops the next task: own deque first (LIFO end for locality), then
    /// steal from siblings (FIFO end, taking the oldest work).
    fn pop(&self, w: usize) -> Option<Entry<S>> {
        let own = locked(self.queues[w].lock(), "queue").pop_back();
        let entry = own.or_else(|| {
            (1..self.workers).find_map(|i| {
                let victim = (w + i) % self.workers;
                let stolen = locked(self.queues[victim].lock(), "queue").pop_front();
                if let Some(e) = &stolen {
                    e.job.steals.fetch_add(1, Ordering::Relaxed);
                    let from = victim as u32;
                    e.job
                        .emit(w, S::task_id(&e.task), TraceEventKind::Steal { from });
                }
                stolen
            })
        });
        if entry.is_some() {
            self.lock_coord().ready -= 1;
        }
        entry
    }

    /// Delivers every buffered wake-up in one transaction and enqueues
    /// everything that woke with one `coord` + deque lock. Called when the
    /// buffer reaches the job's `delivery_batch` and at every task boundary
    /// (suspend, finish), so batching changes *when* locks are taken, never
    /// *whether* a woken task holds the job before this task lets go of it.
    fn flush(&self, w: usize, job: &Arc<Job<S>>, worker: &mut WorkerCtx<S>) {
        if worker.delivery.is_empty() {
            return;
        }
        let delivered = worker.delivery.len() as u64;
        job.wakeups.fetch_add(delivered, Ordering::Relaxed);
        job.wakeup_flushes.fetch_add(1, Ordering::Relaxed);
        S::deliver(job.sched(), &mut worker.delivery, &mut worker.woken);
        let woken = worker.woken.len();
        if woken == 0 {
            return;
        }
        job.resumptions.fetch_add(woken as u64, Ordering::Relaxed);
        self.lock_coord().ready += woken as isize;
        {
            let mut q = locked(self.queues[w].lock(), "queue");
            for task in worker.woken.drain(..) {
                job.emit(w, S::task_id(&task), TraceEventKind::Resumed);
                q.push_back(Entry {
                    job: Arc::clone(job),
                    task,
                });
            }
        }
        if woken == 1 {
            self.cv.notify_one();
        } else {
            self.cv.notify_all();
        }
    }

    /// Terminates an instance, routing its return value through the
    /// delivery buffer and flushing it (a task boundary).
    fn finish(
        &self,
        w: usize,
        job: &Arc<Job<S>>,
        inst: Instance<S>,
        value: Option<Value>,
        worker: &mut WorkerCtx<S>,
    ) {
        S::retire(&inst);
        if inst.id == ENTRY {
            *locked(job.result.lock(), "result") = value;
        } else if let (Some(ret), Some(v)) = (S::return_to(&inst), value) {
            worker.delivery.push((ret, v));
        }
        self.flush(w, job, worker);
        job.live.fetch_sub(1, Ordering::SeqCst);
        self.recycle(w, inst);
    }

    /// Drops a task of a job that is already failing (error, cancellation,
    /// task limit): the failure released the waiters, the buffered
    /// wake-ups must not leak into the next task.
    fn abandon(&self, w: usize, job: &Job<S>, inst: Instance<S>, worker: &mut WorkerCtx<S>) {
        S::retire(&inst);
        worker.delivery.clear();
        job.live.fetch_sub(1, Ordering::SeqCst);
        self.recycle(w, inst);
    }

    /// Runs one task until its instance finishes, suspends, or its job
    /// stops. The instruction semantics live in the shared core
    /// ([`pods_sp::exec::run_instance`]); a firing-rule miss suspends
    /// through the strategy, and a suspension that a racing delivery
    /// already satisfied resumes in place.
    ///
    /// Delivery-buffer discipline: `ctx.delivery` is empty on entry and on
    /// every return. Progress exits (suspend, finish) *flush* — buffered
    /// wake-ups must be enqueued before this task lets go of the job, or
    /// its `Drop` could see a false deadlock. Failure exits *clear* (see
    /// [`Self::abandon`]).
    fn run_task(&self, job: &Arc<Job<S>>, task: S::Task, w: usize, ctx: &mut WorkerCtx<S>) {
        debug_assert!(ctx.delivery.is_empty(), "delivery buffer leaked a task");
        let mut inst = S::check_out(task);
        let executed = job.tasks.fetch_add(1, Ordering::Relaxed) + 1;
        if job.max_tasks > 0 && executed > job.max_tasks {
            job.fail(Failure::Error(SimulationError::EventLimitExceeded {
                limit: job.max_tasks,
            }));
            self.abandon(w, job, inst, ctx);
            return;
        }
        let program = Arc::clone(&job.program);
        let template = program.template(inst.template);
        #[cfg(test)]
        cases::fault_point(&template.name);
        let slot_table = job.read_slots.template(inst.template);
        job.emit(w, inst.id, TraceEventKind::RunBegin);
        loop {
            let exit = {
                let mut cx = Ctx {
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
            job.emit(w, inst.id, TraceEventKind::RunEnd);
            match exit {
                Ok(RunExit::Finished(v)) => return self.finish(w, job, inst, v, ctx),
                Ok(RunExit::Blocked(slot)) => {
                    self.flush(w, job, ctx);
                    let id = inst.id;
                    match S::try_suspend(job.sched(), inst, slot) {
                        Some(resumed) => {
                            job.emit(w, id, TraceEventKind::RunBegin);
                            inst = resumed;
                        }
                        None => {
                            job.parks.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
                Ok(RunExit::Stopped) => {
                    // Either the job already failed, and this is a no-op, or
                    // the pool is being torn down: cut the job short so its
                    // waiter gets a cancellation error instead of hanging.
                    job.fail(Failure::Cancelled(CancelKind::Shutdown));
                    return self.abandon(w, job, inst, ctx);
                }
                Err(msg) => {
                    job.fail(Failure::Error(SimulationError::Runtime(msg)));
                    return self.abandon(w, job, inst, ctx);
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
            if let Some(Entry { job, task }) = self.pop(w) {
                // The unwind boundary: a panic inside a task fails its job,
                // not this worker. The half-run task's buffered wake-ups
                // must not reach the next task.
                let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                    self.run_task(&job, task, w, &mut ctx)
                }));
                if let Err(payload) = ran {
                    ctx.delivery.clear();
                    ctx.woken.clear();
                    let msg = format!("instance panicked: {}", panic_message(&*payload));
                    job.fail(Failure::Error(SimulationError::Runtime(msg)));
                }
                // Before `job` (perhaps the job's last reference) drops: the
                // memo is the only holder of a job's arrays outside its
                // store. Kept, it would stop the store's recycle from
                // reusing them, and hand a stale array to the next job,
                // whose array ids start again at 0.
                ctx.cache.entries.clear();
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
                let _unused = locked(self.cv.wait(c), "coord");
            }
        }
    }
}

/// The execution context for the shared instruction core
/// (`pods_sp::exec`): one task execution of one instance. The semantics
/// live in the core; this adapter supplies the pool's mechanics — the job's
/// [`SharedArrayStore`] (with the worker's directory memo and batched
/// wake-up delivery), the worker-local spawn scratch, and the job/pool stop
/// flags. Costs are free (`charge` keeps its no-op default): a pool's only
/// honest clock is the wall.
struct Ctx<'a, S: Suspension> {
    pool: &'a Shared<S>,
    job: &'a Arc<Job<S>>,
    inst: &'a mut Instance<S>,
    w: usize,
    worker: &'a mut WorkerCtx<S>,
    /// Super-op firings this run segment, flushed to the job counter on
    /// drop — one atomic per segment instead of one per firing, which is
    /// too hot a path for a shared cache line.
    super_ops: u64,
}

impl<S: Suspension> Drop for Ctx<'_, S> {
    fn drop(&mut self) {
        if self.super_ops > 0 {
            self.job
                .super_ops
                .fetch_add(self.super_ops, Ordering::Relaxed);
        }
    }
}

impl<S: Suspension> ArrayOps for Ctx<'_, S> {
    fn alloc_array(
        &mut self,
        dst: SlotId,
        name: &Arc<str>,
        dims: &[usize],
        distributed: bool,
    ) -> Result<(), String> {
        let job = self.job;
        let id = ArrayId(job.next_array.fetch_add(1, Ordering::Relaxed));
        let partitioning = PartitionSpec {
            page_size: job.page_size,
            num_pes: self.pool.workers,
            owner: (!distributed).then_some(PeId(self.inst.pe)),
        };
        job.store()
            .allocate_dims(id, name, dims, partitioning)
            .map_err(|e| e.to_string())?;
        self.inst.frame.set_slot(dst, Value::ArrayRef(id));
        Ok(())
    }

    fn with_header<R>(
        &mut self,
        id: ArrayId,
        f: impl FnOnce(&ArrayHeader) -> R,
    ) -> Result<R, String> {
        let shared = self.worker.cache.get(self.job.store(), id)?;
        Ok(f(shared.header()))
    }

    fn load_element(&mut self, id: ArrayId, offset: usize, dst: SlotId) -> Result<Loaded, String> {
        let shared = self.worker.cache.get(self.job.store(), id)?;
        match shared
            .read(offset, S::waiter(self.inst, dst))
            .map_err(|e| e.to_string())?
        {
            SharedReadResult::Present(v) => Ok(Loaded::Ready(v)),
            // The producing write will deliver into `dst` through the
            // strategy; split-phase, so the core keeps the instance running
            // until the value is consumed.
            SharedReadResult::Deferred => Ok(Loaded::Deferred),
        }
    }

    fn store_element(&mut self, id: ArrayId, offset: usize, value: Value) -> Result<(), String> {
        // Wake-ups land in the worker's delivery buffer; they are flushed
        // when the buffer fills or at the next task boundary.
        let shared = self.worker.cache.get(self.job.store(), id)?;
        shared
            .write_into(offset, value, &mut self.worker.delivery)
            .map_err(|e| e.to_string())?;
        if self.worker.delivery.len() >= self.job.delivery_batch {
            self.pool.flush(self.w, self.job, self.worker);
        }
        Ok(())
    }
}

impl<S: Suspension> ExecCtx for Ctx<'_, S> {
    #[inline(always)]
    fn pc(&self) -> usize {
        self.inst.frame.pc
    }

    #[inline(always)]
    fn set_pc(&mut self, pc: usize) {
        self.inst.frame.pc = pc;
    }

    #[inline(always)]
    fn slot(&self, slot: SlotId) -> Option<Value> {
        self.inst.frame.slot(slot)
    }

    #[inline(always)]
    fn set_slot(&mut self, slot: SlotId, value: Value) {
        self.inst.frame.set_slot(slot, value);
    }

    #[inline(always)]
    fn clear_slot(&mut self, slot: SlotId) {
        self.inst.frame.clear_slot(slot);
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
        let here = self.inst.pe;
        // A distributed spawn creates one instance per PE; only the one on
        // the spawner's own PE returns a value.
        let pes = if distributed {
            0..self.pool.workers
        } else {
            here..here + 1
        };
        for pe in pes {
            let ret = return_to
                .filter(|_| pe == here)
                .map(|slot| S::waiter(self.inst, slot));
            let refill = &mut self.worker.refill;
            let task = self
                .pool
                .new_task(self.w, self.job, target, &buf, pe, ret, refill);
            let job = Arc::clone(self.job);
            self.pool.enqueue(self.w, Entry { job, task });
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

impl<S: Suspension> TraceSink for Ctx<'_, S> {
    fn exec_event(&mut self, _pe: usize, ev: ExecEvent) {
        self.job
            .emit(self.w, self.inst.id, TraceEventKind::from_exec(ev));
    }
}

/// A persistent work-stealing worker pool: `workers` OS threads that stay
/// parked between jobs and execute any number of submitted jobs, serially
/// or concurrently. Dropping the pool joins the threads; outstanding jobs —
/// queued or in flight — are cut short (at the next instruction boundary)
/// and fail with a cancellation error rather than hanging their waiters.
pub(crate) struct Pool<S: Suspension> {
    shared: Arc<Shared<S>>,
    threads: Vec<JoinHandle<()>>,
}

impl<S: Suspension> Pool<S> {
    /// Spawns a pool of `workers` threads (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            workers,
            queues: (0..workers).map(|_| Mutex::default()).collect(),
            arenas: (0..workers).map(|_| Mutex::default()).collect(),
            spare_state: Mutex::default(),
            coord: Mutex::new(Coord {
                ready: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            jobs_submitted: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        // Returns once every worker runs: a thread allocates as it starts,
        // and one that starts late would do so in the middle of a job.
        let started = Arc::new(Barrier::new(workers + 1));
        let threads = (0..workers)
            .map(|w| {
                let (s, started) = (Arc::clone(&shared), Arc::clone(&started));
                std::thread::Builder::new()
                    .name(format!("pods-{}-{}-{w}", S::NAME, shared.id))
                    .spawn(move || {
                        started.wait();
                        s.worker(w)
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        started.wait();
        Pool { shared, threads }
    }
}

impl<S: Suspension> Drop for Pool<S> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.lock_coord().shutdown = true;
        self.shared.cv.notify_all();
        for t in self.threads.drain(..) {
            t.join().expect("pool worker panicked");
        }
        // Jobs still queued when the pool dies would otherwise hang their
        // waiters; fail them loudly instead. The entries leave the deque
        // first: the last of a job's entries ends it, and its notifier
        // takes the service's state lock.
        for q in &self.shared.queues {
            let entries = std::mem::take(&mut *locked(q.lock(), "queue"));
            for entry in entries {
                entry.job.fail(Failure::Cancelled(CancelKind::Shutdown));
            }
        }
    }
}

/// A pool of either strategy, as the runtime and the service hold it.
pub(crate) trait Pooled: Send + Sync {
    /// Process-unique identity of this pool.
    fn id(&self) -> u64;

    /// Submits one prepared program for execution; its end goes to the
    /// spec's notifier. The program state in the [`JobSpec`] is
    /// `Arc`-shared and the store and suspension state are a finished
    /// job's, so a warm submission allocates only the job record. The entry
    /// instance is placed on a rotating home worker so that concurrent jobs
    /// spread across the pool. Only the entry's queue entry holds the job,
    /// so the caller can never be the one that ends it.
    fn submit(&self, spec: JobSpec, args: &[Value]) -> PoolCanceller;
}

impl<S: Suspension> Pooled for Pool<S> {
    fn id(&self) -> u64 {
        self.shared.id
    }

    fn submit(&self, spec: JobSpec, args: &[Value]) -> PoolCanceller {
        let started = Instant::now();
        let shared = &self.shared;
        let seq = shared.jobs_submitted.fetch_add(1, Ordering::Relaxed) + 1;
        let JobSpec {
            program,
            read_slots,
            partition,
            page_size,
            max_tasks,
            delivery_batch,
            on_done,
            trace,
        } = spec;
        if let Some(t) = &trace {
            t.emit(t.service_lane(), 0, TraceEventKind::JobStarted);
        }
        let entry_template = program.entry();
        let job = Arc::new(Job::<S> {
            seq,
            pool: Arc::clone(shared),
            program,
            read_slots,
            partition,
            started,
            scoped: Some(shared.job_state()),
            live: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            cause: Mutex::new(None),
            result: Mutex::new(None),
            page_size,
            max_tasks,
            delivery_batch: delivery_batch.max(1),
            on_done,
            trace,
            next_instance: AtomicU64::new(0),
            next_array: AtomicUsize::new(0),
            tasks: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            resumptions: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            wakeup_flushes: AtomicU64::new(0),
            arena_reuses: AtomicU64::new(0),
            chunk_iterations: AtomicU64::new(0),
            super_ops: AtomicU64::new(0),
        });
        let home = (seq as usize - 1) % shared.workers;
        // The entry frame comes from the home worker's arena (or a
        // sibling's); an empty scratch arena costs nothing to create.
        let mut refill = Arena::default();
        let task = shared.new_task(home, &job, entry_template, args, 0, None, &mut refill);
        let canceller = PoolCanceller {
            job: Arc::downgrade(&job) as Weak<dyn JobControl>,
        };
        shared.enqueue(home, Entry { job, task });
        canceller
    }
}

/// The vectors of outcomes whose waiters copied them, emptied, for later
/// jobs' ends to fill: one set for the whole process, since runtimes come
/// and go while their outcomes' sizes repeat. A job's end allocates only
/// what no spare can hold, on the worker that ends it, and its waiter
/// copies the outcome on its own thread. So the outcomes a caller holds
/// live in the caller's allocations, and a worker's allocator arena keeps
/// at most the spares it made, not one copy of every outcome it finished.
static SPARE_SNAPSHOTS: Mutex<SnapshotSpares> = Mutex::new(SnapshotSpares {
    lists: Vec::new(),
    values: Vec::new(),
});

struct SnapshotSpares {
    lists: Vec<Vec<ArraySnapshot>>,
    values: Vec<Vec<Option<Value>>>,
}

/// The most vectors of either kind kept spare, each as large as the
/// largest it held: more than a burst of jobs ends before its waiters take
/// them.
const SPARE_SNAPSHOTS_MAX: usize = 256;

/// Takes the spare with the least capacity of at least `len`, if any.
fn best_fit<T>(spares: &mut Vec<Vec<T>>, len: usize) -> Option<Vec<T>> {
    let fits = spares
        .iter()
        .enumerate()
        .filter(|(_, v)| v.capacity() >= len);
    let (i, _) = fits.min_by_key(|(_, v)| v.capacity())?;
    Some(spares.swap_remove(i))
}

/// The arrays of a completed job, in allocation order, snapshotted into
/// spare vectors that fit (see [`SPARE_SNAPSHOTS`]). Runs in a job's
/// `Drop`, so a poisoned spare set is passed over, not a panic.
fn snapshot<W>(store: &SharedArrayStore<W>) -> Vec<ArraySnapshot> {
    let spares = || SPARE_SNAPSHOTS.lock().ok();
    let count = store.num_arrays();
    let list = spares().and_then(|mut s| best_fit(&mut s.lists, count));
    let mut arrays = list.unwrap_or_default();
    store.for_each_array(|a| {
        let values = spares().and_then(|mut s| best_fit(&mut s.values, a.len()));
        let mut values = values.unwrap_or_default();
        a.snapshot_into(&mut values);
        arrays.push(ArraySnapshot::from_header(a.header(), values));
    });
    arrays
}

/// Takes back the vectors of a completed job's outcome once its waiter has
/// copied them (see [`SPARE_SNAPSHOTS`]).
pub(crate) fn spare_snapshots(mut arrays: Vec<ArraySnapshot>) {
    let mut spares = locked(SPARE_SNAPSHOTS.lock(), "spare snapshots");
    for mut snap in arrays.drain(..) {
        if spares.values.len() < SPARE_SNAPSHOTS_MAX {
            snap.values.clear();
            spares.values.push(snap.values);
        }
    }
    if spares.lists.len() < SPARE_SNAPSHOTS_MAX {
        spares.lists.push(arrays);
    }
}

/// The text of a caught panic's payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(msg) => msg,
        None => payload
            .downcast_ref::<String>()
            .map_or("(no message)", String::as_str),
    }
}

/// A job of either strategy, behind the per-job boundary.
trait JobControl: Send + Sync {
    fn cancel(&self, kind: CancelKind);
}

impl<S: Suspension> JobControl for Job<S> {
    fn cancel(&self, kind: CancelKind) {
        self.fail(Failure::Cancelled(kind));
    }
}

/// Cancel token for one job. It holds the job weakly, so it keeps neither
/// the job nor its store alive, and a job that has ended cannot be reached
/// through it.
#[derive(Clone)]
pub(crate) struct PoolCanceller {
    job: Weak<dyn JobControl>,
}

impl PoolCanceller {
    /// Stops the job at its next instruction boundary, with `kind` as its
    /// end, unless it already has an end (see [`Job::fail`]). If the job's
    /// last task lets go of it meanwhile, the job ends on this thread, so
    /// call this with no service lock held.
    pub(crate) fn cancel(&self, kind: CancelKind) {
        if let Some(job) = self.job.upgrade() {
            job.cancel(kind);
        }
    }
}

/// Declares, in a strategy's test module, one `#[test]` per `test => case`
/// pair: each case body is written once, in [`cases`], and runs on both
/// strategies under the name that engine's test always had.
#[cfg(test)]
macro_rules! pool_cases {
    ($strategy:ty: $($test:ident => $case:ident),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                $crate::engine::pool::cases::$case::<$strategy>();
            }
        )*
    };
}
#[cfg(test)]
pub(crate) use pool_cases;

/// The behaviour both strategies share, one function per case, generic over
/// the strategy.
#[cfg(test)]
pub(crate) mod cases {
    use super::*;
    use crate::engine::cancellation_error;
    use crate::error::PodsError;
    use crate::pipeline::{compile, CompiledProgram, RunOptions};
    use std::time::Duration;

    /// Functions of this name panic when an instance of them starts, in
    /// test builds: the fault the unwind boundary must contain.
    const FAULT: &str = "planted_panic";

    pub(crate) fn fault_point(template: &str) {
        if template == FAULT {
            panic!("planted fault in {template}");
        }
    }

    /// How long a test waits for a job's end before it fails instead of
    /// hanging.
    const WAIT_LIMIT: Duration = Duration::from_secs(60);

    /// Holds one job's end until the test takes it, as the service's
    /// ticket does.
    #[derive(Default)]
    struct Ended {
        end: Mutex<Option<Result<EngineOutcome, PodsError>>>,
        cv: Condvar,
    }

    impl JobNotifier for Ended {
        fn job_ended(&self, end: Result<EngineOutcome, Failure>, _store: StoreStats) {
            let end = end.map_err(|failure| match failure {
                Failure::Error(err) => err.into(),
                Failure::Cancelled(_) => cancellation_error().into(),
            });
            *locked(self.end.lock(), "end") = Some(end);
            self.cv.notify_all();
        }
    }

    impl Ended {
        /// The job's end, once it has ended: `Err` if it did not within
        /// [`WAIT_LIMIT`].
        fn wait(&self) -> Result<Result<EngineOutcome, PodsError>, String> {
            let end = locked(self.end.lock(), "end");
            let (mut end, _) = locked(
                self.cv
                    .wait_timeout_while(end, WAIT_LIMIT, |end| end.is_none()),
                "end",
            );
            end.take()
                .ok_or_else(|| format!("the job did not end within {WAIT_LIMIT:?}"))
        }
    }

    /// Submits `program` to `pool` (partitioning it and building its
    /// read-slot table, which a `Runtime` shares through its prepared
    /// programs) and returns where its end will land.
    fn submit<S: Suspension>(
        pool: &Pool<S>,
        program: &CompiledProgram,
        opts: &RunOptions,
        n: i64,
    ) -> Arc<Ended> {
        let (partitioned, partition) = program.partitioned(opts);
        let read_slots = build_read_slots(&partitioned);
        let ended = Arc::new(Ended::default());
        let spec = JobSpec {
            program: Arc::new(partitioned),
            read_slots: Arc::new(read_slots),
            partition: Arc::new(partition),
            page_size: opts.page_size,
            max_tasks: opts.max_events,
            delivery_batch: opts.delivery_batch,
            on_done: Arc::clone(&ended) as Arc<dyn JobNotifier>,
            trace: None,
        };
        pool.submit(spec, &[Value::Int(n)]);
        ended
    }

    /// Submits and waits for the end, which must come within
    /// [`WAIT_LIMIT`].
    fn end_of<S: Suspension>(
        pool: &Pool<S>,
        program: &CompiledProgram,
        opts: &RunOptions,
        n: i64,
    ) -> Result<EngineOutcome, PodsError> {
        submit(pool, program, opts, n).wait().unwrap()
    }

    /// One job on a pool of its own, `opts.num_pes` workers.
    fn run<S: Suspension>(
        src: &str,
        n: i64,
        opts: &RunOptions,
    ) -> Result<EngineOutcome, PodsError> {
        end_of(
            &Pool::<S>::new(opts.num_pes),
            &compile(src).unwrap(),
            opts,
            n,
        )
    }

    /// The stores a pool holds spare.
    fn spares<S: Suspension>(pool: &Pool<S>) -> usize {
        locked(pool.shared.spare_state.lock(), "spare state").len()
    }

    fn run_ok<S: Suspension>(src: &str, n: i64, workers: usize) -> EngineOutcome {
        run::<S>(src, n, &RunOptions::with_pes(workers)).unwrap()
    }

    /// The counters the two public stats types share.
    pub(crate) struct Seen {
        pub workers: usize,
        pub instances: u64,
        pub tasks: u64,
        pub pool_id: u64,
        pub job_seq: u64,
        pub wakeups: u64,
        pub wakeup_flushes: u64,
        pub arena_reuses: u64,
    }

    pub(crate) fn seen(outcome: &EngineOutcome) -> Seen {
        match &outcome.stats {
            EngineStats::Native { stats: s, .. } => Seen {
                workers: s.workers,
                instances: s.instances,
                tasks: s.tasks,
                pool_id: s.pool_id,
                job_seq: s.job_seq,
                wakeups: s.wakeups,
                wakeup_flushes: s.wakeup_flushes,
                arena_reuses: s.arena_reuses,
            },
            EngineStats::AsyncCoop { stats: s, .. } => Seen {
                workers: s.workers,
                instances: s.instances,
                tasks: s.polls,
                pool_id: s.pool_id,
                job_seq: s.job_seq,
                wakeups: s.wakeups,
                wakeup_flushes: s.wakeup_flushes,
                arena_reuses: s.arena_reuses,
            },
            other => panic!("pool stats expected, got {other:?}"),
        }
    }

    pub(crate) fn scalar_and_function_calls<S: Suspension>() {
        let outcome = run_ok::<S>(
            "def main(n) { x = double(n); return x + 1; } def double(v) { return v * 2; }",
            10,
            2,
        );
        assert_eq!(outcome.return_value, Some(Value::Int(21)));
        assert_eq!(outcome.engine, S::NAME);
        let s = seen(&outcome);
        assert_eq!(s.workers, 2);
        assert!(s.instances >= 2);
        assert!(s.tasks >= s.instances);
    }

    pub(crate) fn distributed_fill_is_complete_on_any_worker_count<S: Suspension>() {
        let src = r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { a[i, j] = i * n + j; }
                }
                return a;
            }
        "#;
        let reference = run_ok::<S>(src, 8, 1);
        let expected = reference.returned_array().unwrap().to_f64(-1.0);
        for workers in [2, 4, 8] {
            let outcome = run_ok::<S>(src, 8, workers);
            let a = outcome.returned_array().unwrap();
            assert!(a.is_complete(), "incomplete on {workers} workers");
            assert_eq!(
                a.to_f64(-1.0),
                expected,
                "wrong values on {workers} workers"
            );
        }
    }

    /// A consumer reads elements before (or while) the producer loop writes
    /// them, so it suspends until the writes deliver.
    pub(crate) fn consumers_wait_for_producers<S: Suspension>() -> EngineOutcome {
        let src = r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 { a[i] = i * 2; }
                s = a[n - 1] + a[0];
                return s;
            }
        "#;
        let outcome = run_ok::<S>(src, 10, 4);
        assert_eq!(outcome.return_value, Some(Value::Int(18)));
        outcome
    }

    pub(crate) fn carried_recurrence_is_computed_correctly<S: Suspension>() {
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
        let outcome = run_ok::<S>(src, 16, 4);
        let acc = outcome.returned_array().unwrap();
        assert!(acc.is_complete());
        assert_eq!(acc.get(&[15]), Some(Value::Float(120.0)));
    }

    pub(crate) fn single_assignment_violation_is_a_runtime_error<S: Suspension>() {
        let src = "def main(n) { a = array(n); for i = 0 to n - 1 { a[0] = i; } return 0; }";
        let err = run::<S>(src, 4, &RunOptions::with_pes(1)).unwrap_err();
        assert!(
            matches!(err, PodsError::Simulation(SimulationError::Runtime(_))),
            "{err}"
        );
    }

    /// Three instances wait on values nothing will produce: `main` on the
    /// probes' returns, each probe on an element nobody writes. Returns the
    /// deadlock detail of several runs on 1 and 4 workers.
    pub(crate) fn reading_a_never_written_element_is_a_deadlock<S: Suspension>() -> Vec<String> {
        let src = "def main(n) { a = array(n); return probe(a, 1) + probe(a, 2); } \
                   def probe(a, i) { return a[i]; }";
        let mut details = Vec::new();
        for workers in [1, 4, 1, 4, 4, 4] {
            let err = run::<S>(src, 4, &RunOptions::with_pes(workers)).unwrap_err();
            let PodsError::Simulation(SimulationError::Deadlock {
                stuck_instances,
                detail,
            }) = err
            else {
                panic!("workers={workers}: expected a deadlock, got {err}");
            };
            assert_eq!(stuck_instances, 3, "workers={workers}: {detail}");
            details.push(detail);
        }
        details
    }

    pub(crate) fn task_limit_aborts_runaway_runs<S: Suspension>() {
        let src = "def main(n) { a = matrix(n, n); for i = 0 to n - 1 { \
                   for j = 0 to n - 1 { a[i, j] = i + j; } } return a; }";
        let mut opts = RunOptions::with_pes(2);
        opts.max_events = 3;
        let err = run::<S>(src, 8, &opts).unwrap_err();
        assert!(matches!(
            err,
            PodsError::Simulation(SimulationError::EventLimitExceeded { limit: 3 })
        ));
    }

    pub(crate) fn out_of_bounds_store_is_reported<S: Suspension>() {
        let src = "def main(n) { a = array(n); a[n + 5] = 1; return 0; }";
        let err = run::<S>(src, 4, &RunOptions::with_pes(2)).unwrap_err();
        assert!(matches!(
            err,
            PodsError::Simulation(SimulationError::Runtime(_))
        ));
    }

    /// Several jobs of different programs on one pool, all submitted before
    /// any is awaited: per-job stores and suspension state must not
    /// cross-talk, and job sequence numbers must be distinct.
    pub(crate) fn one_pool_runs_many_jobs_with_disjoint_state<S: Suspension>() {
        let fill =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * 3; } return a; }")
                .unwrap();
        let scalar = compile("def main(n) { return n * 7; }").unwrap();
        let pool = Pool::<S>::new(4);
        let opts = RunOptions::with_pes(4);
        let mut handles = Vec::new();
        for k in 0..6i64 {
            let (program, n) = if k % 2 == 0 {
                (&fill, 8 + k)
            } else {
                (&scalar, k)
            };
            handles.push((k, submit(&pool, program, &opts, n)));
        }
        let mut seqs = Vec::new();
        for (k, handle) in handles {
            let outcome = handle.wait().unwrap().unwrap();
            if k % 2 == 0 {
                let a = outcome.returned_array().unwrap();
                assert!(a.is_complete(), "job {k} incomplete");
                assert_eq!(a.get(&[2]), Some(Value::Int(6)), "job {k}");
            } else {
                assert_eq!(outcome.return_value, Some(Value::Int(k * 7)), "job {k}");
            }
            let s = seen(&outcome);
            assert_eq!(s.pool_id, pool.id());
            seqs.push(s.job_seq);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
    }

    pub(crate) fn a_failing_job_does_not_poison_the_pool<S: Suspension>() {
        let bad = compile("def main(n) { a = array(n); a[0] = 1; return a[1]; }").unwrap();
        let good = compile("def main(n) { return n + 1; }").unwrap();
        let pool = Pool::<S>::new(2);
        let opts = RunOptions::with_pes(2);
        let bad_handle = submit(&pool, &bad, &opts, 4);
        let good_handle = submit(&pool, &good, &opts, 4);
        assert!(bad_handle.wait().unwrap().is_err());
        assert_eq!(
            good_handle.wait().unwrap().unwrap().return_value,
            Some(Value::Int(5))
        );
        // And the pool still accepts new work after a failure.
        assert_eq!(
            end_of(&pool, &good, &opts, 9).unwrap().return_value,
            Some(Value::Int(10))
        );
    }

    /// A job ends only after its store is back: whoever its end wakes
    /// finds the store spare, whether the job completed or failed.
    pub(crate) fn a_job_ends_after_its_store_is_back<S: Suspension>() {
        let good = compile("def main(n) { a = array(n); a[0] = n; return a; }").unwrap();
        let bad = compile("def main(n) { a = array(n); a[0] = 1; a[0] = 2; return a; }").unwrap();
        for workers in [1, 2] {
            let pool = Pool::<S>::new(workers);
            let opts = RunOptions::with_pes(workers);
            for round in 0..20 {
                let (program, ok) = if round % 2 == 0 {
                    (&good, true)
                } else {
                    (&bad, false)
                };
                let end = end_of(&pool, program, &opts, 4);
                assert_eq!(end.is_ok(), ok, "{workers} workers, round {round}");
                assert_eq!(spares(&pool), 1, "{workers} workers, round {round}");
            }
        }
    }

    /// A task that panics fails its job, not its worker: on one worker and
    /// on two, the waiter gets the panic as a runtime error, the next job on
    /// the same pool succeeds, and dropping the pool does not panic.
    pub(crate) fn a_panicking_instance_fails_only_its_job<S: Suspension>() {
        let faulty = compile(&format!(
            "def main(n) {{ a = array(n); for i = 0 to n - 1 {{ a[i] = i; }} \
             return {FAULT}(a, n) + a[0]; }} def {FAULT}(a, n) {{ return a[n - 1]; }}"
        ))
        .unwrap();
        let good = compile("def main(n) { return n + 1; }").unwrap();
        for workers in [1, 2] {
            let pool = Pool::<S>::new(workers);
            let opts = RunOptions::with_pes(workers);
            for round in 0..3 {
                let err = submit(&pool, &faulty, &opts, 16)
                    .wait()
                    .unwrap_or_else(|hung| panic!("{workers} workers: {hung}"))
                    .unwrap_err();
                assert!(
                    matches!(&err, PodsError::Simulation(SimulationError::Runtime(msg))
                        if msg == &format!("instance panicked: planted fault in {FAULT}")),
                    "{workers} workers, round {round}: {err}"
                );
                assert_eq!(
                    end_of(&pool, &good, &opts, 4).unwrap().return_value,
                    Some(Value::Int(5)),
                    "{workers} workers, round {round}"
                );
            }
            let dropped = std::thread::spawn(move || drop(pool)).join();
            assert!(
                dropped.is_ok(),
                "{workers} workers: dropping the pool panicked"
            );
        }
    }

    /// Sixteen split-phase probe calls suspend on unwritten elements, then
    /// one producer-loop task writes all of them. The producer is spawned
    /// *first*, so on one worker's LIFO deque the probes run (and defer)
    /// before it: its writes then deliver 16 wake-ups from a single task.
    /// Unbatched (batch = 1) that is one delivery transaction per write;
    /// batch = 16 coalesces them into one. The right-nested sum keeps all 16
    /// spawns split-phase (no Move needs a return value until every probe is
    /// in flight).
    pub(crate) fn batched_delivery_coalesces_flushes<S: Suspension>() {
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
        let expected = (0..16).map(|i| i * 3 + 1).sum::<i64>();
        let stats_for = |batch: usize| {
            let mut opts = RunOptions::with_pes(1);
            opts.delivery_batch = batch;
            let outcome = run::<S>(src, 16, &opts).unwrap();
            assert_eq!(
                outcome.return_value,
                Some(Value::Int(expected)),
                "batch={batch}"
            );
            seen(&outcome)
        };
        let unbatched = stats_for(1);
        let batched = stats_for(16);
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
            "batch=16 should need fewer delivery transactions: {} vs {}",
            batched.wakeup_flushes,
            unbatched.wakeup_flushes
        );
    }

    /// One probe instance per iteration, sequentially: spawn, run, finish,
    /// spawn the next. After the first frame is recycled every later spawn
    /// reuses it, so reuse grows with n.
    pub(crate) fn worker_arena_recycles_frames<S: Suspension>() {
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
        let mut opts = RunOptions::with_pes(1);
        opts.delivery_batch = 16;
        let s = seen(&run::<S>(src, 64, &opts).unwrap());
        assert!(
            s.arena_reuses > 32,
            "expected recycled frames, got {} (instances {})",
            s.arena_reuses,
            s.instances
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dry_arena_takes_half_of_a_siblings_spares() {
        let mut sibling = Arena::<u8>::default();
        for i in 0..5u8 {
            sibling.recycle(vec![None; usize::from(i)], Some(i));
        }
        let mut dry = Arena::default();
        sibling.give_half(&mut dry);
        assert_eq!((sibling.frames.len(), sibling.spares), (2, vec![0, 1]));
        assert_eq!((dry.frames.len(), dry.spares), (3, vec![2, 3, 4]));
    }

    #[test]
    fn a_poisoned_lock_panics_with_its_name() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        let err = std::panic::catch_unwind(|| *locked(m.lock(), "coord")).unwrap_err();
        assert_eq!(err.downcast_ref::<String>().unwrap(), "coord poisoned");
    }
}
