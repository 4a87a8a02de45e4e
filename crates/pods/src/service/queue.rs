//! Admission tickets: the lifecycle of one submitted job from admission
//! through dispatch to completion or cancellation.
//!
//! A [`Ticket`] is the service-side identity of a job. It moves through
//! exactly one of two paths:
//!
//! * `Queued → Dispatched` — the dispatcher handed the job to the pool; the
//!   pool handle is parked inside the ticket for the (single) waiter to
//!   claim.
//! * `Queued → Cancelled` — the job was cancelled before dispatch (explicit
//!   cancel, deadline, or runtime shutdown) and carries the error its
//!   waiter receives.
//!
//! Cancellation *after* dispatch does not transition the ticket: the pool
//! job itself is stopped (via its canceller) and the waiter observes the
//! failure through the claimed pool handle, with [`Ticket::cancel_kind`]
//! recording why so the error can be mapped (e.g. to
//! [`PodsError::DeadlineExceeded`]).

use super::fairness::ClientId;
use super::ServiceInner;
use crate::engine::PoolHandle;
use crate::error::PodsError;
use crate::runtime::PreparedProgram;
use pods_istructure::Value;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Why the service cancelled a job. Recorded first-wins: a deadline and an
/// explicit cancel racing each other report whichever landed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CancelKind {
    /// The job outlived `RunOptions::deadline`.
    Deadline,
    /// `JobHandle::cancel` was called.
    User,
    /// The runtime was dropped while the job was still pending.
    Shutdown,
}

/// An admitted job waiting in the fair queue: its ticket plus everything
/// the dispatcher needs to submit it to the pool.
pub(crate) struct QueuedJob {
    pub(crate) ticket: Arc<Ticket>,
    pub(crate) prepared: PreparedProgram,
    pub(crate) args: Vec<Value>,
}

enum TicketState {
    /// Waiting in the admission queue.
    Queued,
    /// Handed to the pool. The handle is claimed (once) by the waiting
    /// `JobHandle::wait`; `None` after the claim.
    Dispatched { handle: Option<PoolHandle> },
    /// Cancelled before ever reaching the pool.
    Cancelled(PodsError),
}

/// The service-side state of one submitted job (see module docs).
pub(crate) struct Ticket {
    /// The client this job is attributed to.
    pub(crate) client: ClientId,
    /// When the job was admitted (the latency clock).
    pub(crate) submitted: Instant,
    /// Absolute deadline (`submitted + RunOptions::deadline`), if any.
    pub(crate) deadline: Option<Instant>,
    /// The configured deadline duration (for error reporting).
    pub(crate) deadline_dur: Option<Duration>,
    state: Mutex<TicketState>,
    /// Signalled on every state transition out of `Queued`.
    cv: Condvar,
    /// `CancelKind` as a first-wins atomic (0 = not cancelled).
    cancel_kind: AtomicU8,
    /// Flight-recorder job id (0 when tracing is disabled), used to tag
    /// lifecycle events and to look up the job's breakdown on wait.
    pub(crate) trace_job: u64,
    /// The service that admitted the job. The ticket is its job's
    /// completion hook, and tells the service through this reference; it
    /// is weak because the service's queue and in-flight list hold tickets.
    pub(crate) service: Weak<ServiceInner>,
}

impl Ticket {
    pub(crate) fn new(
        client: ClientId,
        deadline_dur: Option<Duration>,
        trace_job: u64,
        service: Weak<ServiceInner>,
    ) -> Ticket {
        let submitted = Instant::now();
        Ticket {
            client,
            submitted,
            deadline: deadline_dur.map(|d| submitted + d),
            deadline_dur,
            state: Mutex::new(TicketState::Queued),
            cv: Condvar::new(),
            cancel_kind: AtomicU8::new(0),
            trace_job,
            service,
        }
    }

    /// Records why the service cancelled this job. First call wins.
    pub(crate) fn set_cancel_kind(&self, kind: CancelKind) {
        let v = match kind {
            CancelKind::Deadline => 1,
            CancelKind::User => 2,
            CancelKind::Shutdown => 3,
        };
        let _ = self
            .cancel_kind
            .compare_exchange(0, v, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// The recorded cancellation cause, if any.
    pub(crate) fn cancel_kind(&self) -> Option<CancelKind> {
        match self.cancel_kind.load(Ordering::SeqCst) {
            1 => Some(CancelKind::Deadline),
            2 => Some(CancelKind::User),
            3 => Some(CancelKind::Shutdown),
            _ => None,
        }
    }

    /// `Queued → Dispatched`. Called by the dispatcher under the service
    /// state lock, so it cannot race a pre-dispatch cancellation.
    pub(crate) fn dispatched(&self, handle: PoolHandle) {
        let mut st = self.state.lock().expect("ticket poisoned");
        debug_assert!(matches!(*st, TicketState::Queued));
        *st = TicketState::Dispatched {
            handle: Some(handle),
        };
        drop(st);
        self.cv.notify_all();
    }

    /// `Queued → Cancelled`. A no-op once dispatched (post-dispatch
    /// cancellation goes through the pool job's canceller instead).
    pub(crate) fn cancelled(&self, err: PodsError) {
        let mut st = self.state.lock().expect("ticket poisoned");
        if matches!(*st, TicketState::Queued) {
            *st = TicketState::Cancelled(err);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Blocks until the job leaves the queue, then yields the pool handle
    /// (exactly once) or the pre-dispatch cancellation error.
    pub(crate) fn claim(&self) -> Result<PoolHandle, PodsError> {
        let mut st = self.state.lock().expect("ticket poisoned");
        loop {
            match &mut *st {
                TicketState::Queued => st = self.cv.wait(st).expect("ticket poisoned"),
                TicketState::Dispatched { handle } => {
                    return Ok(handle.take().expect("pool handle already claimed"));
                }
                TicketState::Cancelled(err) => return Err(err.clone()),
            }
        }
    }

    /// Whether the job has reached a terminal state (`JobHandle::is_done`).
    pub(crate) fn is_done(&self) -> bool {
        match &*self.state.lock().expect("ticket poisoned") {
            TicketState::Queued => false,
            TicketState::Dispatched { handle: Some(h) } => h.is_done(),
            TicketState::Dispatched { handle: None } => true,
            TicketState::Cancelled(_) => true,
        }
    }
}
