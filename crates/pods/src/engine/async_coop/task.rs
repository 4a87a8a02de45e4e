//! The resumable SP instance: a futures-style task with a waker protocol.
//!
//! Where the native engine registers a parked instance in a *job-global*
//! blocked registry (one scheduler mutex, one mailbox map), a cooperative
//! task carries its whole suspension state in itself: the saved frame, the
//! slot it awaits, and a small per-task mutex. The waiter tag registered
//! with the I-structure store *is* the waker — an `Arc` of the task plus
//! the destination slot — so a write re-activates a suspended instance by
//! locking only that one task, never a central scheduler structure. This is
//! exactly the `Waker` half of Rust's `Future` contract, specialised to SP
//! instances: `deliver` is `wake_by_ref`, `try_suspend` is returning
//! `Poll::Pending` after re-checking for a wake that raced the suspension.

use pods_istructure::Value;
use pods_machine::InstanceId;
use pods_sp::{SlotId, SpId};
use std::sync::{Arc, Mutex};

/// The waiter tag the async engine registers with the shared I-structure
/// store: a waker. When the producing write lands, the store hands this tag
/// back and the writer delivers the value straight into the task.
pub(crate) struct AsyncWaiter {
    /// The task awaiting the value.
    pub task: Arc<TaskHandle>,
    /// The frame slot the value is destined for.
    pub slot: SlotId,
}

/// The saved execution state of a suspended (or queued) task: everything a
/// worker needs to resume the SP instance where it left off.
#[derive(Debug)]
pub(crate) struct Frame {
    pub pc: usize,
    pub slots: Vec<Option<Value>>,
}

impl Frame {
    pub(crate) fn slot(&self, slot: SlotId) -> Option<Value> {
        self.slots.get(slot.index()).copied().flatten()
    }

    pub(crate) fn is_present(&self, slot: SlotId) -> bool {
        self.slot(slot).is_some()
    }

    pub(crate) fn set_slot(&mut self, slot: SlotId, value: Value) {
        if slot.index() < self.slots.len() {
            self.slots[slot.index()] = Some(value);
        }
    }

    pub(crate) fn clear_slot(&mut self, slot: SlotId) {
        if slot.index() < self.slots.len() {
            self.slots[slot.index()] = None;
        }
    }
}

/// Where a task is in its lifecycle. Transitions:
/// `Queued → Running → {Queued (yield via wake), Suspended, Done}`,
/// `Suspended → Queued` (a waker delivered the awaited slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// In some worker's run queue, frame saved in the task.
    Queued,
    /// A worker holds the frame and is executing instructions.
    Running,
    /// Waiting for the given slot; frame saved in the task.
    Suspended(SlotId),
    /// Finished, errored, or abandoned; the frame is gone.
    Done,
}

/// The mutable core of a task, behind the per-task mutex.
#[derive(Debug)]
struct TaskCore {
    /// The saved frame; `None` exactly while a worker is running the task.
    frame: Option<Frame>,
    phase: Phase,
    /// Values that arrived while the frame was checked out (the per-task
    /// analogue of the native engine's job-global mailbox). Drained into
    /// the frame at resume and at suspension, so a wake that races the
    /// suspension is never lost.
    pending: Vec<(SlotId, Value)>,
}

/// One cooperative SP instance. Shared as `Arc<TaskHandle>`: the run queue,
/// the store's deferred-reader queues (as wakers), and child tasks (for
/// return routing) all hold references; the task owns no reference to its
/// job or pool, so dropping a job's store releases every task suspended on
/// it with no reference cycle.
pub(crate) struct TaskHandle {
    pub id: InstanceId,
    pub template: SpId,
    /// The virtual PE this instance runs as (drives Range Filters).
    pub pe: usize,
    /// Waker for the function-return value, if this is a call.
    pub return_to: Option<(Arc<TaskHandle>, SlotId)>,
    core: Mutex<TaskCore>,
}

impl TaskHandle {
    /// A fresh task, queued, over a ready-made frame vector (arguments
    /// already in the parameter slots — the executor builds frames through
    /// its per-worker arena so finished frames are recycled).
    pub(crate) fn new(
        id: InstanceId,
        template: SpId,
        pe: usize,
        slots: Vec<Option<Value>>,
        return_to: Option<(Arc<TaskHandle>, SlotId)>,
    ) -> TaskHandle {
        TaskHandle {
            id,
            template,
            pe,
            return_to,
            core: Mutex::new(TaskCore {
                frame: Some(Frame { pc: 0, slots }),
                phase: Phase::Queued,
                pending: Vec::new(),
            }),
        }
    }

    /// Turns a retired handle into a fresh queued task, exactly as
    /// [`TaskHandle::new`] would have built it — `&mut self` proves no
    /// waker, queue entry or child still refers to the old instance.
    pub(crate) fn reset(
        &mut self,
        id: InstanceId,
        template: SpId,
        pe: usize,
        slots: Vec<Option<Value>>,
        return_to: Option<(Arc<TaskHandle>, SlotId)>,
    ) {
        (self.id, self.template, self.pe, self.return_to) = (id, template, pe, return_to);
        let core = self.core.get_mut().expect("task core poisoned");
        debug_assert_eq!(core.phase, Phase::Done, "only retired tasks are reused");
        core.frame = Some(Frame { pc: 0, slots });
        core.phase = Phase::Queued;
        debug_assert!(
            core.pending.is_empty(),
            "retire releases pending deliveries"
        );
    }

    /// Checks the frame out for execution: drains pending deliveries into
    /// it and marks the task running. Called by the worker that popped the
    /// task off a run queue.
    pub(crate) fn begin_poll(&self) -> Frame {
        let mut core = self.core.lock().expect("task core poisoned");
        let mut frame = core.frame.take().expect("queued task owns its frame");
        for (slot, value) in core.pending.drain(..) {
            frame.set_slot(slot, value);
        }
        core.phase = Phase::Running;
        frame
    }

    /// Delivers a value into the task (the wake path). Returns `true` when
    /// the delivery re-activated a suspension — the caller must then put
    /// the task back on a run queue. Deliveries to a running task are
    /// buffered in `pending` (the frame is checked out); deliveries to a
    /// queued or suspended task land directly in the saved frame.
    pub(crate) fn deliver(&self, slot: SlotId, value: Value) -> bool {
        let mut core = self.core.lock().expect("task core poisoned");
        match core.phase {
            Phase::Running => {
                core.pending.push((slot, value));
                false
            }
            Phase::Queued => {
                if let Some(frame) = core.frame.as_mut() {
                    frame.set_slot(slot, value);
                }
                false
            }
            Phase::Suspended(awaited) => {
                let frame = core.frame.as_mut().expect("suspended task owns its frame");
                frame.set_slot(slot, value);
                if frame.is_present(awaited) {
                    core.phase = Phase::Queued;
                    true
                } else {
                    false
                }
            }
            Phase::Done => false,
        }
    }

    /// Attempts to suspend the running task on `awaited`. Pending
    /// deliveries are drained first; if one of them filled the awaited slot
    /// the frame is handed straight back (`Some`) and the task keeps
    /// running — the cooperative analogue of the native engine's
    /// park-then-mailbox re-check, closing the race where the producing
    /// write lands between the firing-rule miss and the suspension.
    pub(crate) fn try_suspend(&self, mut frame: Frame, awaited: SlotId) -> Option<Frame> {
        let mut core = self.core.lock().expect("task core poisoned");
        for (slot, value) in core.pending.drain(..) {
            frame.set_slot(slot, value);
        }
        if frame.is_present(awaited) {
            return Some(frame);
        }
        core.frame = Some(frame);
        core.phase = Phase::Suspended(awaited);
        None
    }

    /// Marks the task finished (successfully or abandoned); its frame is
    /// dropped by the caller and late deliveries become no-ops.
    pub(crate) fn retire(&self) {
        let mut core = self.core.lock().expect("task core poisoned");
        core.phase = Phase::Done;
        // Released, not cleared: a recycled handle must not carry a busy
        // parent's delivery buffer into the worker's free-list.
        core.pending = Vec::new();
        core.frame = None;
    }
}

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("id", &self.id)
            .field("template", &self.template)
            .field("pe", &self.pe)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Arc<TaskHandle> {
        let mut slots = vec![None; 4];
        slots[0] = Some(Value::Int(1));
        Arc::new(TaskHandle::new(InstanceId(7), SpId(0), 0, slots, None))
    }

    #[test]
    fn frames_carry_args_and_presence_bits() {
        let t = task();
        let frame = t.begin_poll();
        assert_eq!(frame.slot(SlotId(0)), Some(Value::Int(1)));
        assert!(!frame.is_present(SlotId(1)));
        assert_eq!(frame.pc, 0);
    }

    #[test]
    fn delivery_to_a_suspension_wakes_exactly_once() {
        let t = task();
        let frame = t.begin_poll();
        assert!(t.try_suspend(frame, SlotId(2)).is_none());
        // A delivery to a different slot fills the frame but does not wake.
        assert!(!t.deliver(SlotId(3), Value::Int(30)));
        // The awaited slot wakes — once.
        assert!(t.deliver(SlotId(2), Value::Int(20)));
        assert!(!t.deliver(SlotId(1), Value::Int(10)));
        let frame = t.begin_poll();
        assert_eq!(frame.slot(SlotId(1)), Some(Value::Int(10)));
        assert_eq!(frame.slot(SlotId(2)), Some(Value::Int(20)));
        assert_eq!(frame.slot(SlotId(3)), Some(Value::Int(30)));
    }

    #[test]
    fn a_wake_racing_the_suspension_is_not_lost() {
        let t = task();
        let frame = t.begin_poll();
        // The value arrives while the task is still running (frame checked
        // out): it lands in `pending` …
        assert!(!t.deliver(SlotId(2), Value::Int(9)));
        // … and the suspension attempt finds it and keeps the task running.
        let frame = t.try_suspend(frame, SlotId(2)).expect("must keep running");
        assert_eq!(frame.slot(SlotId(2)), Some(Value::Int(9)));
    }

    #[test]
    fn a_retired_handle_resets_into_a_fresh_task() {
        let mut t = task();
        let _frame = t.begin_poll();
        // A delivery buffered while running is dropped with the old
        // incarnation, not replayed into the next one.
        assert!(!t.deliver(SlotId(1), Value::Int(10)));
        t.retire();
        let parent = task();
        let handle = Arc::get_mut(&mut t).expect("no waker or child holds the task");
        handle.reset(
            InstanceId(8),
            SpId(3),
            1,
            vec![Some(Value::Int(2)), None],
            Some((Arc::clone(&parent), SlotId(3))),
        );
        assert_eq!((t.id, t.template, t.pe), (InstanceId(8), SpId(3), 1));
        assert!(t.return_to.is_some());
        // Queued over the new frame: deliveries land in it directly.
        assert!(!t.deliver(SlotId(1), Value::Int(20)));
        let frame = t.begin_poll();
        assert_eq!(frame.pc, 0);
        assert_eq!(frame.slots, vec![Some(Value::Int(2)), Some(Value::Int(20))]);
    }

    #[test]
    fn retired_tasks_ignore_late_deliveries() {
        let t = task();
        let _frame = t.begin_poll();
        t.retire();
        assert!(!t.deliver(SlotId(0), Value::Int(5)));
    }
}
