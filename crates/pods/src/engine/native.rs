//! The native parallel engine: the [`super::pool`] scheduler with the
//! *registry + mailbox* suspension strategy.
//!
//! Scheduling mirrors the paper's blocked/ready instance model: an instance
//! that needs an operand that has not arrived is parked in its job's blocked
//! registry, keyed by instance id, and the worker moves on. A write (or
//! return) that produces the operand looks the target up in the registry,
//! fills the parked frame and re-queues it once the awaited slot is
//! present. A value whose target is queued or running waits in the job's
//! mailbox and is drained into the frame when the instance next tries to
//! park, which closes the race between a firing-rule miss and the write.
//! Every delivery therefore takes the job-wide registry lock; the async
//! engine ([`super::async_coop`]) replaces exactly this with per-task
//! wakers.

use super::pool::{locked, Frame, Instance, PoolStats, Suspension};
use super::EngineStats;
use pods_istructure::{StoreStats, Value};
use pods_machine::InstanceId;
use pods_partition::PartitionReport;
use pods_sp::{SlotId, SpId, SpProgram};
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::{Arc, Mutex, PoisonError};

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
    /// (the worker threads were reused); runs on two runtimes report
    /// different ones.
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
    /// ([`crate::RuntimeBuilder::specialize`]`(false)`).
    pub super_ops: u64,
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

/// The native suspension strategy: a job-wide registry of parked instances
/// plus a mailbox for values that arrive while their target is queued or
/// running.
pub(crate) struct Registry;

/// An instance parked on a missing operand.
pub(crate) struct Blocked {
    inst: Instance<Registry>,
    slot: SlotId,
}

/// One instance's undelivered values, in arrival order.
type Mail = Vec<(SlotId, Value)>;

/// Parked-instance registry plus the mailbox.
#[derive(Default)]
pub(crate) struct Sched {
    blocked: HashMap<InstanceId, Blocked>,
    mailbox: HashMap<InstanceId, Mail>,
    /// Emptied mailboxes of the pool's earlier jobs, each keeping its
    /// capacity: an instance that first gets mail takes one, so the returns
    /// that reach a busy caller do not regrow a buffer on every job. There
    /// are never more than the most mailboxes one job had at once.
    spare_mail: Vec<Mail>,
}

impl Suspension for Registry {
    type Waiter = NativeWaiter;
    type Task = Instance<Registry>;
    type Shell = Option<NativeWaiter>;
    type JobState = Mutex<Sched>;
    type Spare = Infallible;
    const NAME: &'static str = "native";

    fn new_task(
        id: InstanceId,
        template: SpId,
        pe: usize,
        frame: Frame,
        return_to: Option<NativeWaiter>,
        _spare: Option<Infallible>,
    ) -> Instance<Registry> {
        Instance {
            id,
            template,
            pe,
            frame,
            shell: return_to,
        }
    }

    fn task_id(task: &Instance<Registry>) -> InstanceId {
        task.id
    }

    fn check_out(task: Instance<Registry>) -> Instance<Registry> {
        task
    }

    fn waiter(inst: &Instance<Registry>, slot: SlotId) -> NativeWaiter {
        (inst.id, slot)
    }

    fn deliver(
        sched: &Mutex<Sched>,
        wakeups: &mut Vec<(NativeWaiter, Value)>,
        woken: &mut Vec<Instance<Registry>>,
    ) {
        let mut sched = locked(sched.lock(), "sched");
        let Sched {
            blocked,
            mailbox,
            spare_mail,
        } = &mut *sched;
        for ((target, slot), value) in wakeups.drain(..) {
            if let Some(b) = blocked.get_mut(&target) {
                b.inst.frame.set_slot(slot, value);
                if b.slot == slot {
                    let b = blocked.remove(&target).expect("checked above");
                    woken.push(b.inst);
                }
            } else {
                mailbox
                    .entry(target)
                    .or_insert_with(|| spare_mail.pop().unwrap_or_default())
                    .push((slot, value));
            }
        }
    }

    fn try_suspend(
        sched: &Mutex<Sched>,
        mut inst: Instance<Registry>,
        slot: SlotId,
    ) -> Option<Instance<Registry>> {
        let mut sched = locked(sched.lock(), "sched");
        // Drained in place: a busy instance (the entry collecting many
        // returns) parks again and again, and keeps its mailbox's capacity.
        if let Some(msgs) = sched.mailbox.get_mut(&inst.id) {
            for (s, v) in msgs.drain(..) {
                inst.frame.set_slot(s, v);
            }
        }
        if inst.frame.is_present(slot) {
            return Some(inst);
        }
        sched.blocked.insert(inst.id, Blocked { inst, slot });
        None
    }

    fn retire(_inst: &Instance<Registry>) {}

    fn return_to(inst: &Instance<Registry>) -> Option<NativeWaiter> {
        inst.shell
    }

    fn into_spare(_shell: Option<NativeWaiter>) -> Option<Infallible> {
        None
    }

    /// Names the parked instance with the lowest id, so one deadlocked
    /// program reports the same detail on every run.
    fn deadlock(sched: &mut Mutex<Sched>, program: &SpProgram, _live: usize) -> (usize, String) {
        let sched = sched.get_mut().unwrap_or_else(PoisonError::into_inner);
        let detail = sched
            .blocked
            .values()
            .min_by_key(|b| b.inst.id.0)
            .map(|b| {
                format!(
                    "inst{} of {} parked at pc {} on {}",
                    b.inst.id.0,
                    program.template(b.inst.template).name,
                    b.inst.frame.pc,
                    b.slot
                )
            })
            .unwrap_or_default();
        (sched.blocked.len(), detail)
    }

    /// The registry and the mailbox keep their capacity, which a SIMPLE
    /// job would otherwise regrow, rehashing, several times over, and each
    /// instance's mail buffer is kept, emptied, for the next job's.
    fn clear(sched: &mut Mutex<Sched>) -> bool {
        let Ok(sched) = sched.get_mut() else {
            return false;
        };
        sched.blocked.clear();
        sched
            .spare_mail
            .extend(sched.mailbox.drain().map(|(_, mut mail)| {
                mail.clear();
                mail
            }));
        true
    }

    fn stats(c: PoolStats, partition: Arc<PartitionReport>) -> EngineStats {
        let stats = NativeStats {
            workers: c.workers,
            instances: c.instances,
            tasks: c.tasks,
            parks: c.parks,
            steals: c.steals,
            pool_id: c.pool_id,
            job_seq: c.job_seq,
            wakeups: c.wakeups,
            wakeup_flushes: c.wakeup_flushes,
            arena_reuses: c.arena_reuses,
            chunk_iterations: c.chunk_iterations,
            super_ops: c.super_ops,
            store: c.store,
        };
        EngineStats::Native { stats, partition }
    }
}

#[cfg(test)]
mod tests {
    use super::Registry;
    use crate::engine::pool::{cases, pool_cases};

    pool_cases!(Registry:
        scalar_and_function_calls => scalar_and_function_calls,
        distributed_fill_is_complete_on_any_worker_count
            => distributed_fill_is_complete_on_any_worker_count,
        consumers_park_until_producers_write => consumers_wait_for_producers,
        carried_recurrence_is_computed_correctly => carried_recurrence_is_computed_correctly,
        single_assignment_violation_is_a_runtime_error
            => single_assignment_violation_is_a_runtime_error,
        task_limit_aborts_runaway_runs => task_limit_aborts_runaway_runs,
        out_of_bounds_store_is_reported => out_of_bounds_store_is_reported,
        one_pool_runs_many_jobs_with_disjoint_state => one_pool_runs_many_jobs_with_disjoint_state,
        a_failing_job_does_not_poison_the_pool => a_failing_job_does_not_poison_the_pool,
        batched_delivery_coalesces_scheduler_transactions => batched_delivery_coalesces_flushes,
        worker_arena_recycles_instance_frames => worker_arena_recycles_frames,
        a_job_ends_after_its_store_is_back => a_job_ends_after_its_store_is_back,
        a_panicking_instance_fails_only_its_job => a_panicking_instance_fails_only_its_job,
    );

    #[test]
    fn reading_a_never_written_element_is_detected_as_deadlock() {
        // The registry names its lowest parked id, `main`, on every run.
        for detail in cases::reading_a_never_written_element_is_a_deadlock::<Registry>() {
            assert_eq!(detail, "inst0 of main parked at pc 3 on s2");
        }
    }
}
