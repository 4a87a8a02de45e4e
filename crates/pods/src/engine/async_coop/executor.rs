//! The cooperative executor: per-worker run queues, work stealing over
//! *tasks*, and per-job state mirroring the native engine's `Job` model.
//!
//! The worker threads here are dumb pollers: pop a task, check its frame
//! out, run SP instructions through the shared core
//! (`pods_sp::exec::run_instance`) until the task finishes or the firing
//! rule blocks on an absent slot (the task suspends), then pop the next
//! task. All blocking state lives in the tasks themselves (see
//! [`super::task`]): there is no blocked-instance registry and no mailbox
//! map, so delivering a value locks only the receiving task. The
//! job-global liveness counters (for deadlock detection) and the
//! executor's ready count are still shared locks, but they are taken once
//! per *flush* and per woken batch, not once per delivered value.
//!
//! Per-job state is the same model the native engine uses — one I-structure
//! store, `live`/`in_flight` liveness counts, first-error slot, result
//! slot, done condvar, drop-cancellation via a pool-wide stop flag — so the
//! two schedulers are directly comparable: any difference in their stats is
//! scheduling overhead, not protocol difference.

use super::task::{AsyncWaiter, Frame, TaskHandle};
use super::AsyncStats;
use crate::engine::native::{JobNotifier, JobSpec, NEXT_POOL_ID};
use crate::engine::{
    cancellation_error, EngineOutcome, EngineStats, InstanceArena, JobCounts, ReadSlots,
    ARENA_MAX_FREE,
};
use crate::error::PodsError;
use crate::trace::{TraceEventKind, TraceHandle};
use pods_istructure::{
    ArrayHeader, ArrayId, Partitioning, PeId, SharedArrayStore, SharedReadResult, Value,
};
use pods_machine::{ArraySnapshot, InstanceId, SimulationError};
use pods_partition::PartitionReport;
use pods_sp::exec::{self, ArrayOps, ExecCtx, ExecEvent, Loaded, RunExit, TraceSink};
use pods_sp::{Operand, SlotId, SpId, SpProgram};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// The worker's memo of array directory lookups (see
/// [`crate::engine::ArrayCache`], shared with the native engine).
type ArrayCache = crate::engine::ArrayCache<AsyncWaiter>;

/// State owned by one worker thread and reused across every poll: the
/// waker delivery buffer, the shared frame arena plus a free-list of task
/// handles, the scratch vectors for woken tasks and spawn arguments, and
/// the array directory memo (mirroring the native engine's `WorkerCtx`).
/// Invariant: `delivery` is empty between polls.
#[derive(Default)]
struct WorkerCtx {
    delivery: Vec<(AsyncWaiter, Value)>,
    /// The tasks one `flush` re-activates, between their wakers firing and
    /// entering the run queue. Empty outside `flush`.
    woken: Vec<Arc<TaskHandle>>,
    arena: InstanceArena,
    /// Retired task handles nothing else references, reset and reused by
    /// the next spawn: the handle is this engine's one per-instance
    /// allocation the frame arena does not cover.
    handles: Vec<Arc<TaskHandle>>,
    spawn_args: Vec<Value>,
    /// Directory memo of the poll in progress. Array ids are per job, so
    /// the worker loop clears it after every poll — which also means no
    /// `Arc<SharedArray>` outlives its job on an idle worker.
    cache: ArrayCache,
}

impl WorkerCtx {
    /// Keeps a finished task's handle for reuse if this was its last
    /// reference (no unfired waker, no child still holding it as its
    /// return target); otherwise the handle is simply dropped.
    fn recycle_handle(&mut self, mut task: Arc<TaskHandle>) {
        if self.handles.len() < ARENA_MAX_FREE {
            if let Some(handle) = Arc::get_mut(&mut task) {
                // Let go of the parent now, so it can be recycled in turn.
                handle.return_to = None;
                self.handles.push(task);
            }
        }
    }
}

/// A note about the most recent suspension, kept for deadlock diagnostics
/// (the async engine has no blocked registry to walk, so it remembers the
/// last suspension instead).
#[derive(Clone, Copy)]
struct SuspendInfo {
    inst: InstanceId,
    template: SpId,
    pc: usize,
    slot: SlotId,
}

/// Everything scoped to one submitted program execution on the cooperative
/// executor. Tasks do not point back at their job; the run-queue entries
/// carry the job `Arc`, so a failed job's suspended tasks are released as
/// soon as its store (holding their wakers) is dropped.
pub(crate) struct AsyncJob {
    seq: u64,
    pool_id: u64,
    program: Arc<SpProgram>,
    read_slots: Arc<ReadSlots>,
    store: SharedArrayStore<AsyncWaiter>,
    counts: Mutex<JobCounts>,
    last_suspend: Mutex<Option<SuspendInfo>>,
    stop: AtomicBool,
    error: Mutex<Option<SimulationError>>,
    result: Mutex<Option<Value>>,
    done: Mutex<bool>,
    done_cv: Condvar,
    entry: InstanceId,
    workers: usize,
    page_size: usize,
    /// 0 = unlimited; otherwise abort after this many polls (the async
    /// analogue of the simulator's event limit and the native task limit).
    max_polls: u64,
    delivery_batch: usize,
    next_instance: AtomicU64,
    next_array: AtomicUsize,
    polls: AtomicU64,
    suspensions: AtomicU64,
    resumptions: AtomicU64,
    steals: AtomicU64,
    wakeups: AtomicU64,
    wakeup_flushes: AtomicU64,
    arena_reuses: AtomicU64,
    chunk_iterations: AtomicU64,
    super_ops: AtomicU64,
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
}

impl AsyncJob {
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

    /// The single completion point (mirrors the native pool's `Job::finish`):
    /// claims the terminal transition exactly once, records the error,
    /// fires the `on_done` hook, and only then publishes `done` and wakes
    /// every `wait`er — so a waiter never observes a finished job whose
    /// metrics have not landed yet.
    fn finish(&self, err: Option<SimulationError>) {
        // First caller wins; a cancel racing normal completion is dropped.
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(e) = err {
            *self.error.lock().expect("error poisoned") = Some(e);
        }
        // No locks are held here, so the hook may take the service locks.
        if let Some(hook) = &self.on_done {
            hook(self.store.stats());
        }
        *self.done.lock().expect("done poisoned") = true;
        self.done_cv.notify_all();
    }

    fn is_done(&self) -> bool {
        *self.done.lock().expect("done poisoned")
    }

    fn stats(&self) -> AsyncStats {
        AsyncStats {
            workers: self.workers,
            instances: self.next_instance.load(Ordering::Relaxed),
            polls: self.polls.load(Ordering::Relaxed),
            suspensions: self.suspensions.load(Ordering::Relaxed),
            resumptions: self.resumptions.load(Ordering::Relaxed),
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

/// A runnable unit on the executor: one task of one job.
struct RunEntry {
    job: Arc<AsyncJob>,
    task: Arc<TaskHandle>,
}

/// Executor-wide scheduling state.
struct Coord {
    /// Queued entries across all run queues (the condvar predicate).
    ready: isize,
    /// Set only when the executor itself is being torn down.
    shutdown: bool,
}

struct ExecShared {
    id: u64,
    workers: usize,
    queues: Vec<Mutex<VecDeque<RunEntry>>>,
    coord: Mutex<Coord>,
    cv: Condvar,
    jobs_submitted: AtomicU64,
    /// Cheap teardown flag checked between instructions, so dropping the
    /// pool aborts in-flight jobs at the next instruction boundary.
    stop: AtomicBool,
}

impl ExecShared {
    fn lock_coord(&self) -> std::sync::MutexGuard<'_, Coord> {
        self.coord.lock().expect("coord poisoned")
    }

    /// No queued or running task of the job remains but tasks are still
    /// suspended: nothing can ever deliver their operands.
    fn report_deadlock(&self, job: &AsyncJob) {
        let stuck = job.counts.lock().expect("counts poisoned").live;
        let detail = job
            .last_suspend
            .lock()
            .expect("last_suspend poisoned")
            .map(|s| {
                format!(
                    "inst{} of {} suspended at pc {} awaiting {}",
                    s.inst.0,
                    job.program.template(s.template).name,
                    s.pc,
                    s.slot
                )
            })
            .unwrap_or_default();
        job.fail(SimulationError::Deadlock {
            stuck_instances: stuck.max(1),
            detail,
        });
    }

    /// Makes a task runnable on worker `w`'s queue. `new` marks a freshly
    /// created task (as opposed to a resumed one).
    fn enqueue(&self, w: usize, job: &Arc<AsyncJob>, task: Arc<TaskHandle>, new: bool) {
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
            .push_back(RunEntry {
                job: Arc::clone(job),
                task,
            });
        self.cv.notify_one();
    }

    #[allow(clippy::too_many_arguments)] // hot path: a params struct would be built per spawn
    fn spawn_task(
        &self,
        w: usize,
        job: &Arc<AsyncJob>,
        template_id: SpId,
        args: &[Value],
        pe: usize,
        return_to: Option<(Arc<TaskHandle>, SlotId)>,
        worker: &mut WorkerCtx,
    ) {
        let id = InstanceId(job.next_instance.fetch_add(1, Ordering::Relaxed));
        let num_slots = job.program.template(template_id).num_slots;
        let (slots, reused) = worker.arena.frame(num_slots, args);
        if reused {
            job.arena_reuses.fetch_add(1, Ordering::Relaxed);
        }
        let task = match worker.handles.pop() {
            Some(mut task) => {
                Arc::get_mut(&mut task)
                    .expect("a recycled handle has no other owner")
                    .reset(id, template_id, pe, slots, return_to);
                task
            }
            None => Arc::new(TaskHandle::new(id, template_id, pe, slots, return_to)),
        };
        if let Some(t) = &job.trace {
            t.emit(w as u32, id.0, TraceEventKind::InstanceSpawned);
        }
        self.enqueue(w, job, task, true);
    }

    /// Pops the next entry: own queue first (LIFO end for locality), then
    /// steal from siblings (FIFO end, taking the oldest work).
    fn pop_entry(&self, w: usize) -> Option<RunEntry> {
        let own = self.queues[w].lock().expect("queue poisoned").pop_back();
        let entry = own.or_else(|| {
            (1..self.workers).find_map(|i| {
                let victim = (w + i) % self.workers;
                let stolen = self.queues[victim]
                    .lock()
                    .expect("queue poisoned")
                    .pop_front();
                if let Some(e) = &stolen {
                    e.job.steals.fetch_add(1, Ordering::Relaxed);
                    if let Some(tr) = &e.job.trace {
                        tr.emit(
                            w as u32,
                            e.task.id.0,
                            TraceEventKind::Steal {
                                from: victim as u32,
                            },
                        );
                    }
                }
                stolen
            })
        });
        if entry.is_some() {
            self.lock_coord().ready -= 1;
        }
        entry
    }

    /// Delivers every buffered wake-up straight into its target task — one
    /// per-task lock each, no scheduler-wide transaction — and re-queues
    /// the tasks whose awaited slot arrived. Called when the buffer reaches
    /// the job's `delivery_batch` and at every task boundary (suspend,
    /// finish), so batching changes *when* deliveries happen, never whether
    /// a wake lands before the liveness counters could observe a false
    /// idle.
    fn flush(&self, w: usize, job: &Arc<AsyncJob>, worker: &mut WorkerCtx) {
        let (buf, to_wake) = (&mut worker.delivery, &mut worker.woken);
        if buf.is_empty() {
            return;
        }
        job.wakeups.fetch_add(buf.len() as u64, Ordering::Relaxed);
        job.wakeup_flushes.fetch_add(1, Ordering::Relaxed);
        for (waiter, value) in buf.drain(..) {
            if waiter.task.deliver(waiter.slot, value) {
                to_wake.push(waiter.task);
            }
        }
        if to_wake.is_empty() {
            return;
        }
        let woken = to_wake.len();
        job.resumptions.fetch_add(woken as u64, Ordering::Relaxed);
        {
            let mut c = job.counts.lock().expect("counts poisoned");
            c.in_flight += woken;
        }
        self.lock_coord().ready += woken as isize;
        {
            let mut q = self.queues[w].lock().expect("queue poisoned");
            for task in to_wake.drain(..) {
                if let Some(t) = &job.trace {
                    t.emit(w as u32, task.id.0, TraceEventKind::Resumed);
                }
                q.push_back(RunEntry {
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

    /// Suspends `task` on `slot` unless a racing delivery already filled it
    /// (then the frame comes straight back and the poll continues). The
    /// frame's pc addresses the blocked (consuming) instruction — the
    /// shared core only blocks at the firing rule, never mid-instruction —
    /// so deadlock diagnostics point at the instruction that is actually
    /// waiting, on every engine.
    fn suspend(
        &self,
        job: &Arc<AsyncJob>,
        task: &Arc<TaskHandle>,
        frame: Frame,
        slot: SlotId,
    ) -> Option<Frame> {
        let info = SuspendInfo {
            inst: task.id,
            template: task.template,
            pc: frame.pc,
            slot,
        };
        if let Some(still_running) = task.try_suspend(frame, slot) {
            return Some(still_running);
        }
        *job.last_suspend.lock().expect("last_suspend poisoned") = Some(info);
        job.suspensions.fetch_add(1, Ordering::Relaxed);
        let mut c = job.counts.lock().expect("counts poisoned");
        c.in_flight -= 1;
        let deadlocked = c.in_flight == 0 && c.live > 0 && !job.stop.load(Ordering::Relaxed);
        drop(c);
        if deadlocked {
            self.report_deadlock(job);
        }
        None
    }

    /// Terminates a task, routing its return value through the delivery
    /// buffer and flushing it (a task boundary) before the liveness
    /// counters give up this task's `in_flight` slot.
    fn finish(
        &self,
        w: usize,
        job: &Arc<AsyncJob>,
        task: &Arc<TaskHandle>,
        value: Option<Value>,
        worker: &mut WorkerCtx,
    ) {
        task.retire();
        if task.id == job.entry {
            *job.result.lock().expect("result poisoned") = value;
        } else if let (Some((parent, slot)), Some(v)) = (task.return_to.as_ref(), value) {
            worker.delivery.push((
                AsyncWaiter {
                    task: Arc::clone(parent),
                    slot: *slot,
                },
                v,
            ));
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
    fn abandon(&self, job: &AsyncJob, task: &TaskHandle) {
        task.retire();
        let mut c = job.counts.lock().expect("counts poisoned");
        c.in_flight -= 1;
        c.live -= 1;
    }

    /// Polls one task: runs its instance until it finishes, suspends, or
    /// its job stops. The instruction semantics live in the shared core
    /// ([`pods_sp::exec::run_instance`]); this method supplies the
    /// cooperative suspension strategy — `try_suspend` saves the frame in
    /// the task (re-checking for a wake that raced the suspension) and the
    /// I-structure wakers re-queue it.
    ///
    /// `ctx.delivery` is empty on entry and on every return — progress
    /// exits flush, failure exits clear (the job is already failing and
    /// the buffer must not leak into another job's poll). Frames the
    /// worker still holds at a terminal exit (finish, error, stop) are
    /// recycled into its arena — and a finished task's handle with it, when
    /// the run-queue entry consumed here was its last reference; a
    /// suspension hands the frame back to the task instead.
    fn poll(&self, job: &Arc<AsyncJob>, owned: Arc<TaskHandle>, w: usize, ctx: &mut WorkerCtx) {
        let task = &owned;
        debug_assert!(ctx.delivery.is_empty(), "delivery buffer leaked a poll");
        let executed = job.polls.fetch_add(1, Ordering::Relaxed) + 1;
        if job.max_polls > 0 && executed > job.max_polls {
            job.fail(SimulationError::EventLimitExceeded {
                limit: job.max_polls,
            });
            self.abandon(job, task);
            return;
        }
        let mut frame = task.begin_poll();
        let program = Arc::clone(&job.program);
        let template = program.template(task.template);
        let slot_table = &job.read_slots[task.template.index()];
        if let Some(t) = &job.trace {
            t.emit(w as u32, task.id.0, TraceEventKind::RunBegin);
        }
        loop {
            let exit = {
                let mut cx = AsyncCtx {
                    pool: self,
                    job,
                    task,
                    frame: &mut frame,
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
                        t.emit(w as u32, task.id.0, TraceEventKind::RunEnd);
                    }
                    self.finish(w, job, task, v, ctx);
                    ctx.arena.recycle(std::mem::take(&mut frame.slots));
                    ctx.recycle_handle(owned);
                    return;
                }
                Ok(RunExit::Blocked(slot)) => {
                    if let Some(t) = &job.trace {
                        t.emit(w as u32, task.id.0, TraceEventKind::RunEnd);
                    }
                    self.flush(w, job, ctx);
                    match self.suspend(job, task, frame, slot) {
                        Some(resumed) => {
                            if let Some(t) = &job.trace {
                                t.emit(w as u32, task.id.0, TraceEventKind::RunBegin);
                            }
                            frame = resumed;
                        }
                        None => return,
                    }
                }
                Ok(RunExit::Stopped) => {
                    if let Some(t) = &job.trace {
                        t.emit(w as u32, task.id.0, TraceEventKind::RunEnd);
                    }
                    if !job.stop.load(Ordering::Relaxed) {
                        // The pool is being torn down: cut the job short so
                        // its waiter gets a cancellation error instead of
                        // hanging. (Otherwise the job already failed and
                        // this task is simply abandoned.)
                        job.fail(cancellation_error());
                    }
                    self.abandon(job, task);
                    ctx.delivery.clear();
                    ctx.arena.recycle(std::mem::take(&mut frame.slots));
                    return;
                }
                Err(msg) => {
                    if let Some(t) = &job.trace {
                        t.emit(w as u32, task.id.0, TraceEventKind::RunEnd);
                    }
                    job.fail(SimulationError::Runtime(msg));
                    self.abandon(job, task);
                    ctx.delivery.clear();
                    ctx.arena.recycle(std::mem::take(&mut frame.slots));
                    return;
                }
            }
        }
    }

    fn worker(&self, w: usize) {
        let mut ctx = WorkerCtx::default();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                // Leave queued entries in place: `Drop` drains them and
                // fails their jobs with the cancellation error.
                return;
            }
            if let Some(entry) = self.pop_entry(w) {
                self.poll(&entry.job, entry.task, w, &mut ctx);
                ctx.cache.clear();
                continue;
            }
            let c = self.lock_coord();
            if c.shutdown {
                return;
            }
            if c.ready <= 0 {
                // Untimed wait is lost-wakeup-safe: `ready` is incremented
                // under this mutex before any push, and the notify fires
                // after the push.
                let _unused = self.cv.wait(c).expect("coord poisoned");
            }
        }
    }
}

/// The async engine's execution context for the shared instruction core
/// (`pods_sp::exec`): one poll of one task. The semantics live in the
/// core; this adapter supplies the cooperative *mechanics* — the shared
/// store reached through waker tags (an `Arc` of the task plus the slot),
/// the worker-local spawn scratch and frame arena, and the job/pool stop
/// flags. Costs are free (`charge` keeps its no-op default).
struct AsyncCtx<'a> {
    pool: &'a ExecShared,
    job: &'a Arc<AsyncJob>,
    task: &'a Arc<TaskHandle>,
    frame: &'a mut Frame,
    w: usize,
    worker: &'a mut WorkerCtx,
    /// Super-op firings this poll segment, flushed to the job counter on
    /// drop — one atomic per segment instead of one per firing, which is
    /// too hot a path for a shared cache line.
    super_ops: u64,
}

impl Drop for AsyncCtx<'_> {
    fn drop(&mut self) {
        if self.super_ops > 0 {
            self.job
                .super_ops
                .fetch_add(self.super_ops, Ordering::Relaxed);
        }
    }
}

impl ArrayOps for AsyncCtx<'_> {
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
                PeId(self.task.pe),
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
        self.frame.set_slot(dst, Value::ArrayRef(id));
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
        let waker = AsyncWaiter {
            task: Arc::clone(self.task),
            slot: dst,
        };
        match shared.read(offset, waker).map_err(|e| e.to_string())? {
            SharedReadResult::Present(v) => Ok(Loaded::Ready(v)),
            // The producing write will wake the task through the registered
            // waker; split-phase, so the core keeps the task running until
            // the value is consumed.
            SharedReadResult::Deferred => Ok(Loaded::Deferred),
        }
    }

    fn store_element(&mut self, id: ArrayId, offset: usize, value: Value) -> Result<(), String> {
        // Wakers land in the worker's delivery buffer; they fire when the
        // buffer fills or at the next task boundary.
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

impl ExecCtx for AsyncCtx<'_> {
    #[inline(always)]
    fn pc(&self) -> usize {
        self.frame.pc
    }

    #[inline(always)]
    fn set_pc(&mut self, pc: usize) {
        self.frame.pc = pc;
    }

    #[inline(always)]
    fn slot(&self, slot: SlotId) -> Option<Value> {
        self.frame.slot(slot)
    }

    #[inline(always)]
    fn set_slot(&mut self, slot: SlotId, value: Value) {
        self.frame.set_slot(slot, value);
    }

    #[inline(always)]
    fn clear_slot(&mut self, slot: SlotId) {
        self.frame.clear_slot(slot);
    }

    #[inline(always)]
    fn pe(&self) -> usize {
        self.task.pe
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
        // allocation; distributed spawns reuse one slice).
        let mut buf = std::mem::take(&mut self.worker.spawn_args);
        buf.clear();
        buf.extend(args.iter().map(|a| self.operand(a)));
        let ret = return_to.map(|slot| (Arc::clone(self.task), slot));
        if distributed {
            for q in 0..self.job.workers {
                let ret_here = if q == self.task.pe { ret.clone() } else { None };
                self.pool
                    .spawn_task(self.w, self.job, target, &buf, q, ret_here, self.worker);
            }
        } else {
            self.pool.spawn_task(
                self.w,
                self.job,
                target,
                &buf,
                self.task.pe,
                ret,
                self.worker,
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

impl TraceSink for AsyncCtx<'_> {
    fn exec_event(&mut self, _pe: usize, ev: ExecEvent) {
        if let Some(t) = &self.job.trace {
            t.emit(self.w as u32, self.task.id.0, TraceEventKind::from_exec(ev));
        }
    }
}

/// A persistent cooperative executor: `workers` OS threads polling tasks
/// from per-worker run queues with work stealing. Dropping the pool joins
/// the threads; outstanding jobs — queued or in flight — are cut short at
/// the next instruction boundary and fail with a cancellation error.
pub(crate) struct AsyncPool {
    shared: Arc<ExecShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl AsyncPool {
    /// Spawns an executor of `workers` threads (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(ExecShared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            workers,
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            coord: Mutex::new(Coord {
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
                    .name(format!("pods-async-{}-{w}", shared.id))
                    .spawn(move || s.worker(w))
                    .expect("spawn async worker")
            })
            .collect();
        AsyncPool { shared, threads }
    }

    /// Process-unique identity of this pool.
    pub(crate) fn id(&self) -> u64 {
        self.shared.id
    }

    /// Submits one prepared program for execution and returns a handle to
    /// wait on. The [`JobSpec`] is the same `Arc`-shared program state the
    /// native pool consumes, so prepared handles are engine-portable and a
    /// warm submission allocates only per-job state. The entry task is
    /// placed on a rotating home worker so concurrent jobs spread across
    /// the pool.
    pub(crate) fn submit(&self, spec: JobSpec, args: &[Value]) -> AsyncJobHandle {
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
        let job = Arc::new(AsyncJob {
            seq,
            pool_id: self.shared.id,
            program,
            read_slots,
            store: SharedArrayStore::new(),
            counts: Mutex::new(JobCounts::default()),
            last_suspend: Mutex::new(None),
            stop: AtomicBool::new(false),
            error: Mutex::new(None),
            result: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            entry: InstanceId(0),
            workers: self.shared.workers,
            page_size,
            max_polls: max_tasks,
            delivery_batch: delivery_batch.max(1),
            next_instance: AtomicU64::new(0),
            next_array: AtomicUsize::new(0),
            polls: AtomicU64::new(0),
            suspensions: AtomicU64::new(0),
            resumptions: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            wakeup_flushes: AtomicU64::new(0),
            arena_reuses: AtomicU64::new(0),
            chunk_iterations: AtomicU64::new(0),
            super_ops: AtomicU64::new(0),
            chunks_autotuned,
            on_done,
            trace,
            finished: AtomicBool::new(false),
        });
        let home = (seq as usize - 1) % self.shared.workers;
        // Submission happens off the worker threads, so the entry frame and
        // handle come from a throwaway worker context (two allocations per
        // job; empty scratch vectors cost nothing).
        let mut scratch = WorkerCtx::default();
        self.shared
            .spawn_task(home, &job, entry_template, args, 0, None, &mut scratch);
        AsyncJobHandle {
            job,
            partition,
            started,
        }
    }
}

impl Drop for AsyncPool {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            self.shared.lock_coord().shutdown = true;
        }
        self.shared.cv.notify_all();
        for t in self.threads.drain(..) {
            t.join().expect("async worker panicked");
        }
        // Jobs still queued when the pool dies would otherwise hang their
        // waiters; fail them loudly instead.
        for q in &self.shared.queues {
            for entry in q.lock().expect("queue poisoned").drain(..) {
                entry.job.fail(cancellation_error());
            }
        }
    }
}

/// A handle to one submitted cooperative job. `wait` blocks until the job
/// completes and assembles the uniform [`EngineOutcome`].
pub(crate) struct AsyncJobHandle {
    job: Arc<AsyncJob>,
    partition: Arc<PartitionReport>,
    started: Instant,
}

impl AsyncJobHandle {
    /// Whether the job has already completed (successfully or not).
    pub(crate) fn is_done(&self) -> bool {
        self.job.is_done()
    }

    /// A detachable cancel token for this job, usable while (or after)
    /// `wait` consumes the handle.
    pub(crate) fn canceller(&self) -> AsyncCanceller {
        AsyncCanceller {
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
            engine: "async",
            return_value,
            arrays,
            modelled_us: None,
            wall_us,
            stats: EngineStats::AsyncCoop {
                stats: self.job.stats(),
                partition: self.partition,
            },
            diagnostics: None,
        })
    }
}

/// Cancel token for one cooperative job: stops the job at its next
/// instruction boundary with the supplied error, through the same stop-flag
/// path that pool teardown uses. A no-op if the job already finished.
#[derive(Clone)]
pub(crate) struct AsyncCanceller {
    job: Arc<AsyncJob>,
}

impl AsyncCanceller {
    /// Whether the job has already completed (successfully or not).
    pub(crate) fn is_done(&self) -> bool {
        self.job.is_done()
    }

    /// Stops the job with `err` unless it already finished.
    pub(crate) fn cancel(&self, err: SimulationError) {
        self.job.fail(err);
    }
}
