//! The cooperative (async, futures-style) parallel engine: the
//! [`super::pool`] scheduler with the *task-owned frame + waker* suspension
//! strategy.
//!
//! The native engine ([`super::native`]) parks a blocked
//! instance in a job-wide registry, so every park, wake and mailbox
//! delivery takes one job-wide lock. This engine keeps each SP instance's
//! suspension state in the instance itself, the way async runtimes do: an
//! instance is a resumable task ([`task::TaskHandle`]) that owns its saved
//! frame, and the waiter tag a deferred I-structure read registers *is* the
//! waker — an `Arc` of the task plus the destination slot. The write that
//! fills the element delivers the value by locking only that one task and
//! re-queues it if its awaited slot arrived. There is no registry and no
//! mailbox: value *delivery* locks only the receiving task. (Re-queuing a
//! woken task still touches the pool's liveness and ready-count locks.)
//!
//! Everything else — the pool, the per-job model, the knobs, the execution
//! semantics — is the one implementation in [`super::pool`], so any
//! difference between the two engines' numbers is the suspension strategy.

mod task;

use super::pool::{locked, Frame, Instance, PoolStats, Suspension};
use super::EngineStats;
use pods_istructure::{StoreStats, Value};
use pods_machine::InstanceId;
use pods_partition::PartitionReport;
use pods_sp::{SlotId, SpId, SpProgram};
use std::sync::{Arc, Mutex};
use task::{AsyncWaiter, TaskHandle};

/// Counters reported by the cooperative executor for one job. The shape
/// mirrors [`super::NativeStats`] (pool identity, job sequencing, wake-up
/// delivery) with the scheduler-specific trio the comparison is about:
/// `suspensions`, `resumptions`, and `steals`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncStats {
    /// Number of worker threads in the executor that ran the job.
    pub workers: usize,
    /// SP instances (tasks) created over the run.
    pub instances: u64,
    /// Task polls, counting each resume of a suspended instance (the
    /// async analogue of [`super::NativeStats::tasks`]).
    pub polls: u64,
    /// Times an instance returned `Pending` and saved its frame (the
    /// async analogue of [`super::NativeStats::parks`]).
    pub suspensions: u64,
    /// Suspended instances re-queued because a waker delivered their
    /// awaited slot. Equals `suspensions` on every run that completes.
    pub resumptions: u64,
    /// Tasks obtained by stealing from another worker's run queue.
    pub steals: u64,
    /// Process-unique identity of the executor that ran the job (shared
    /// id space with native pools — no two pools of either kind collide).
    pub pool_id: u64,
    /// 1-based sequence number of this job on its executor.
    pub job_seq: u64,
    /// Waker deliveries: one per `(waker, value)` pair a write
    /// re-activated, plus one per function-return value (returns travel
    /// through the same delivery path).
    pub wakeups: u64,
    /// Delivery-buffer flushes that performed those deliveries; batching
    /// coalesces up to `delivery_batch` wakeups per flush.
    pub wakeup_flushes: u64,
    /// Tasks whose frame vector was recycled from a worker's arena
    /// free-list instead of freshly allocated (the async analogue of
    /// [`super::NativeStats::arena_reuses`], so the two schedulers pay
    /// comparable allocator traffic).
    pub arena_reuses: u64,
    /// Extra loop iterations absorbed by chunked instances (the async
    /// analogue of [`super::NativeStats::chunk_iterations`]): grows by one
    /// each time the chunk driver advanced a task to its next iteration in
    /// place instead of spawning a fresh task.
    pub chunk_iterations: u64,
    /// Super-op firings (the async analogue of
    /// [`super::NativeStats::super_ops`]): whole fused runs executed in one
    /// dispatch by the specialized driver.
    pub super_ops: u64,
    /// Chunk-size retunes applied by [`crate::Runtime`]'s adaptive grain
    /// control before this job ran (0 on first runs and fixed policies).
    pub chunks_autotuned: u64,
    /// Allocation counters of this job's I-structure store (live/peak
    /// arrays and approximate bytes).
    pub store: StoreStats,
}

impl AsyncStats {
    /// SP instances (tasks) actually created over the run (alias of
    /// `instances`, named for symmetry with
    /// [`Self::iterations_per_instance`]).
    pub fn instances_spawned(&self) -> u64 {
        self.instances
    }

    /// Effective grain: average loop iterations executed per spawned task.
    /// `1.0` for an unchunked run; grows toward the chunk size as chunking
    /// takes hold.
    pub fn iterations_per_instance(&self) -> f64 {
        if self.instances == 0 {
            return 0.0;
        }
        (self.instances + self.chunk_iterations) as f64 / self.instances as f64
    }
}

impl std::fmt::Display for AsyncStats {
    /// One-line human summary, shared by the examples and the slow-job
    /// diagnostics (see [`super::EngineStats::summary`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "async: {} worker(s), {} instances ({:.1} iter/instance), {} polls, \
             {} super-ops, {} suspensions, {} steals, {} wakeups in {} flushes, peak {} arrays",
            self.workers,
            self.instances,
            self.iterations_per_instance(),
            self.polls,
            self.super_ops,
            self.suspensions,
            self.steals,
            self.wakeups,
            self.wakeup_flushes,
            self.store.peak_arrays,
        )
    }
}

/// The most recent suspension, kept for deadlock diagnostics (there is no
/// registry of suspended tasks to walk).
#[derive(Clone, Copy)]
pub(crate) struct SuspendInfo {
    inst: InstanceId,
    template: SpId,
    pc: usize,
    slot: SlotId,
}

/// The cooperative suspension strategy: the task owns its frame and the
/// store holds the task itself as the waker. Tasks do not point back at
/// their job, so a failed job's suspended tasks are released as soon as its
/// store (holding their wakers) is dropped.
pub(crate) struct Wakers;

impl Suspension for Wakers {
    type Waiter = AsyncWaiter;
    type Task = Arc<TaskHandle>;
    type Shell = Arc<TaskHandle>;
    type JobState = Mutex<Option<SuspendInfo>>;
    /// Retired task handles nothing else references: the one per-instance
    /// allocation the frame arena does not cover.
    type Spare = Arc<TaskHandle>;
    const NAME: &'static str = "async";

    fn new_task(
        id: InstanceId,
        template: SpId,
        pe: usize,
        frame: Frame,
        return_to: Option<AsyncWaiter>,
        spare: Option<Arc<TaskHandle>>,
    ) -> Arc<TaskHandle> {
        match spare {
            Some(mut task) => {
                Arc::get_mut(&mut task)
                    .expect("a recycled handle has no other owner")
                    .reset(id, template, pe, frame, return_to);
                task
            }
            None => Arc::new(TaskHandle::new(id, template, pe, frame, return_to)),
        }
    }

    fn task_id(task: &Arc<TaskHandle>) -> InstanceId {
        task.id
    }

    fn check_out(task: Arc<TaskHandle>) -> Instance<Wakers> {
        Instance {
            id: task.id,
            template: task.template,
            pe: task.pe,
            frame: task.begin_poll(),
            shell: task,
        }
    }

    fn waiter(inst: &Instance<Wakers>, slot: SlotId) -> AsyncWaiter {
        AsyncWaiter {
            task: Arc::clone(&inst.shell),
            slot,
        }
    }

    fn deliver(
        _state: &Mutex<Option<SuspendInfo>>,
        wakeups: &mut Vec<(AsyncWaiter, Value)>,
        woken: &mut Vec<Arc<TaskHandle>>,
    ) {
        for (waiter, value) in wakeups.drain(..) {
            if waiter.task.deliver(waiter.slot, value) {
                woken.push(waiter.task);
            }
        }
    }

    /// The frame's pc addresses the blocked (consuming) instruction — the
    /// shared core only blocks at the firing rule — so the deadlock detail
    /// points at the instruction that is actually waiting.
    fn try_suspend(
        last: &Mutex<Option<SuspendInfo>>,
        inst: Instance<Wakers>,
        slot: SlotId,
    ) -> Option<Instance<Wakers>> {
        let Instance {
            id,
            template,
            pe,
            frame,
            shell,
        } = inst;
        let pc = frame.pc;
        match shell.try_suspend(frame, slot) {
            Some(frame) => Some(Instance {
                id,
                template,
                pe,
                frame,
                shell,
            }),
            None => {
                let info = SuspendInfo {
                    inst: id,
                    template,
                    pc,
                    slot,
                };
                *locked(last.lock(), "last_suspend") = Some(info);
                None
            }
        }
    }

    fn retire(inst: &Instance<Wakers>) {
        inst.shell.retire();
    }

    fn return_to(inst: &Instance<Wakers>) -> Option<AsyncWaiter> {
        inst.shell.return_to.clone()
    }

    /// Keeps a finished task's handle only if this was its last reference
    /// (no unfired waker, no child still holding it as its return target).
    fn into_spare(mut shell: Arc<TaskHandle>) -> Option<Arc<TaskHandle>> {
        // Let go of the parent now, so it can be recycled in turn.
        Arc::get_mut(&mut shell)?.return_to = None;
        Some(shell)
    }

    fn deadlock(
        last: &Mutex<Option<SuspendInfo>>,
        program: &SpProgram,
        live: usize,
    ) -> (usize, String) {
        let detail = locked(last.lock(), "last_suspend")
            .map(|s| {
                format!(
                    "inst{} of {} suspended at pc {} awaiting {}",
                    s.inst.0,
                    program.template(s.template).name,
                    s.pc,
                    s.slot
                )
            })
            .unwrap_or_default();
        (live, detail)
    }

    fn clear(last: &mut Mutex<Option<SuspendInfo>>) -> bool {
        last.get_mut().map(|last| *last = None).is_ok()
    }

    fn stats(c: PoolStats, partition: Arc<PartitionReport>) -> EngineStats {
        let stats = AsyncStats {
            workers: c.workers,
            instances: c.instances,
            polls: c.tasks,
            suspensions: c.parks,
            resumptions: c.resumptions,
            steals: c.steals,
            pool_id: c.pool_id,
            job_seq: c.job_seq,
            wakeups: c.wakeups,
            wakeup_flushes: c.wakeup_flushes,
            arena_reuses: c.arena_reuses,
            chunk_iterations: c.chunk_iterations,
            super_ops: c.super_ops,
            chunks_autotuned: c.chunks_autotuned,
            store: c.store,
        };
        EngineStats::AsyncCoop { stats, partition }
    }
}

#[cfg(test)]
mod tests {
    use super::Wakers;
    use crate::engine::pool::{cases, pool_cases};
    use crate::engine::EngineStats;

    pool_cases!(Wakers:
        scalar_and_function_calls => scalar_and_function_calls,
        distributed_fill_is_complete_on_any_worker_count
            => distributed_fill_is_complete_on_any_worker_count,
        carried_recurrence_is_computed_correctly => carried_recurrence_is_computed_correctly,
        single_assignment_violation_is_a_runtime_error
            => single_assignment_violation_is_a_runtime_error,
        poll_limit_aborts_runaway_runs => task_limit_aborts_runaway_runs,
        out_of_bounds_store_is_reported => out_of_bounds_store_is_reported,
        one_executor_runs_many_jobs_with_disjoint_state
            => one_pool_runs_many_jobs_with_disjoint_state,
        a_failing_job_does_not_poison_the_executor => a_failing_job_does_not_poison_the_pool,
        batched_waker_delivery_coalesces_flushes_without_changing_wakeups
            => batched_delivery_coalesces_flushes,
        worker_arena_recycles_task_frames => worker_arena_recycles_frames,
    );

    #[test]
    fn consumers_suspend_until_producers_write_and_counters_balance() {
        let outcome = cases::consumers_wait_for_producers::<Wakers>();
        let EngineStats::AsyncCoop { stats, .. } = outcome.stats else {
            panic!("async stats expected");
        };
        // Every suspension of a completed run was resumed by a waker.
        assert_eq!(stats.suspensions, stats.resumptions);
        assert!(stats.polls >= stats.instances + stats.resumptions);
    }

    #[test]
    fn reading_a_never_written_element_is_detected_as_deadlock() {
        for detail in cases::reading_a_never_written_element_is_a_deadlock::<Wakers>() {
            assert!(
                detail.contains("awaiting"),
                "deadlock detail must name the awaited slot: {detail}"
            );
        }
    }
}
