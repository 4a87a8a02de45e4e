//! Admission tickets: the lifecycle of one submitted job, from admission
//! through dispatch to its end.
//!
//! A [`Ticket`] is the service-side identity of a job and the one state
//! machine of its life:
//!
//! * `Queued → Dispatched` — the dispatcher hands the job to the pool;
//! * `Dispatched → Ended` — the pool job ends, and tells its ticket (the
//!   job's [`crate::engine::JobNotifier`]);
//! * `Queued → Ended` — the job is cancelled before dispatch (explicit
//!   cancel, deadline, or runtime shutdown).
//!
//! Each transition leaves only the state it expects, so a job ends once and
//! the first end wins. The end carries its cause, a cancel's kind included,
//! and entering `Ended` is the one place the service books a job.

use super::fairness::ClientId;
use super::ServiceInner;
use crate::engine::{spare_snapshots, EngineOutcome, Failure};
use crate::error::PodsError;
use crate::runtime::PreparedProgram;
use pods_istructure::{StoreStats, Value};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// An admitted job waiting in the fair queue: its ticket plus everything
/// the dispatcher needs to submit it to the pool.
pub(crate) struct QueuedJob {
    pub(crate) ticket: Arc<Ticket>,
    pub(crate) prepared: PreparedProgram,
    pub(crate) args: Vec<Value>,
}

// Inline, a job's end lives in its ticket's allocation; boxed, it would
// cost one more allocator call per job.
#[allow(clippy::large_enum_variant)]
enum TicketState {
    /// Waiting in the admission queue.
    Queued,
    /// Handed to the pool.
    Dispatched,
    /// The job's end, until its (single) waiter takes it.
    Ended(Option<Result<EngineOutcome, PodsError>>),
}

/// The service-side state of one submitted job (see module docs).
pub(crate) struct Ticket {
    /// The client this job is attributed to.
    pub(crate) client: ClientId,
    /// When the job was admitted (the latency clock).
    pub(crate) submitted: Instant,
    /// Absolute deadline (`submitted + RunOptions::deadline`), if any.
    pub(crate) deadline: Option<Instant>,
    state: Mutex<TicketState>,
    /// Signalled when the job ends.
    cv: Condvar,
    /// Flight-recorder job id (0 when tracing is disabled), used to tag
    /// lifecycle events and to look up the job's breakdown at its end.
    pub(crate) trace_job: u64,
    /// The service that admitted the job. The ticket is its job's
    /// completion hook, and tells the service through this reference; it
    /// is weak because the service's queue and in-flight list hold tickets.
    pub(crate) service: Weak<ServiceInner>,
}

impl Ticket {
    pub(crate) fn new(
        client: ClientId,
        deadline: Option<Duration>,
        trace_job: u64,
        service: Weak<ServiceInner>,
    ) -> Ticket {
        let submitted = Instant::now();
        Ticket {
            client,
            submitted,
            deadline: deadline.map(|d| submitted + d),
            state: Mutex::new(TicketState::Queued),
            cv: Condvar::new(),
            trace_job,
            service,
        }
    }

    fn state(&self) -> MutexGuard<'_, TicketState> {
        self.state.lock().expect("ticket poisoned")
    }

    /// `Queued → Dispatched`. The dispatcher calls it under the service
    /// state lock before it submits the job, so the job's end always finds
    /// the ticket dispatched.
    pub(crate) fn dispatched(&self) {
        let mut st = self.state();
        if matches!(*st, TicketState::Queued) {
            *st = TicketState::Dispatched;
        }
    }

    /// `Queued | Dispatched → Ended`, unless the job already ended. Books
    /// the end with `service` while it holds the ticket, so a waiter never
    /// sees an end that the metrics do not count yet, then wakes the
    /// waiter. `store` is the finished job's store statistics (`None` for
    /// a job that never reached the pool).
    pub(crate) fn end(
        &self,
        service: &ServiceInner,
        end: Result<EngineOutcome, Failure>,
        store: Option<StoreStats>,
    ) {
        let mut st = self.state();
        if matches!(*st, TicketState::Ended(_)) {
            return;
        }
        *st = TicketState::Ended(Some(service.book(self, end, store)));
        drop(st);
        self.cv.notify_all();
    }

    /// Blocks until the job ends, then takes its end (exactly once). A
    /// completed job's arrays are copied on this thread, and the snapshot
    /// vector its end filled goes back to the spares (see
    /// [`crate::engine::spare_snapshots`]).
    pub(crate) fn wait(&self) -> Result<EngineOutcome, PodsError> {
        let mut st = self.state();
        let mut outcome = loop {
            if let TicketState::Ended(end) = &mut *st {
                break end.take().expect("a job's end is taken once")?;
            }
            st = self.cv.wait(st).expect("ticket poisoned");
        };
        drop(st);
        let arrays = outcome.arrays.clone();
        spare_snapshots(std::mem::replace(&mut outcome.arrays, arrays));
        Ok(outcome)
    }

    /// Whether the job has ended (`JobHandle::is_done`).
    pub(crate) fn is_done(&self) -> bool {
        matches!(*self.state(), TicketState::Ended(_))
    }
}
