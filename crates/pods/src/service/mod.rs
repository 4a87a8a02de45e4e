//! The job-service subsystem: bounded admission, backpressure, per-client
//! fairness, deadlines, and aggregate metrics for pooled runtimes.
//!
//! This layer sits between the public [`crate::Runtime`] API and the worker
//! pool of a pooled engine (native or async).
//! Job arrival is treated as an unbounded stream, not a batch: submissions
//! are admitted into a bounded queue ([`crate::PodsError::QueueFull`] /
//! blocking backpressure at capacity), a dispatcher thread drains the queue
//! into the pool deficit-round-robin across clients (so one client's burst
//! cannot starve the rest), a deadline watchdog cancels jobs that outlive
//! `RunOptions::deadline`, and every transition feeds the
//! [`ServiceMetrics`] snapshot.
//!
//! # Anatomy
//!
//! * [`fairness`] — [`ClientId`], client weights, and the deficit-round-
//!   robin [`fairness::FairQueue`].
//! * [`queue`] — the per-job [`queue::Ticket`] state machine (queued →
//!   dispatched/cancelled) that `JobHandle` waits on.
//! * [`metrics`] — the atomic [`metrics::MetricsRegistry`] and the public
//!   [`ServiceMetrics`] snapshot.
//! * This module — [`JobService`]: the dispatcher thread, the admission
//!   paths, cancellation, and shutdown.
//!
//! # Concurrency notes
//!
//! The service state lock nests *outside* pool and ticket locks: the
//! dispatcher submits to the pool and transitions tickets while holding it.
//! A job's completion hook is its ticket ([`JobNotifier`]); fired by a pool
//! worker with no pool locks held, it takes metrics locks and then the
//! state lock. Cancellation of an in-flight job re-enters the completion
//! hook, so cancellers are always invoked with the state lock released.

pub(crate) mod fairness;
pub(crate) mod metrics;
pub(crate) mod queue;

pub use fairness::ClientId;
pub use metrics::ServiceMetrics;

use crate::engine::{cancellation_error, JobNotifier, PoolCanceller, Pooled};
use crate::error::PodsError;
use crate::pipeline::RunOptions;
use crate::runtime::PreparedProgram;
use crate::trace::{TraceEventKind, TraceHandle, TraceRecorder};
use fairness::FairQueue;
use metrics::MetricsRegistry;
use pods_istructure::{StoreStats, Value};
use pods_machine::SimulationError;
use queue::{CancelKind, QueuedJob, Ticket};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread;
use std::time::Instant;

/// The error injected into a pool job stopped by `JobHandle::cancel`.
fn user_cancel_error() -> SimulationError {
    SimulationError::Runtime("job cancelled: JobHandle::cancel was called".into())
}

/// The error injected into a pool job stopped by the deadline watchdog
/// (mapped to [`PodsError::DeadlineExceeded`] at `wait`).
fn deadline_cancel_error() -> SimulationError {
    SimulationError::Runtime("job cancelled: deadline exceeded".into())
}

/// How a submission behaves when the admission queue is full.
pub(crate) enum Admission {
    /// `submit`: block until a slot frees (unbounded wait).
    Wait,
    /// `try_submit`: reject immediately with `QueueFull`.
    Try,
    /// `submit_timeout`: block until the given instant, then reject.
    Until(Instant),
}

/// A job dispatched to the pool and not yet finished.
struct InFlight {
    ticket: Arc<Ticket>,
    canceller: PoolCanceller,
}

/// State guarded by the service lock.
struct ServiceState {
    queue: FairQueue,
    in_flight: Vec<InFlight>,
    /// Emptied argument vectors of dispatched jobs, for the next jobs that
    /// queue. A vector is made only when none is spare, that is when every
    /// one made so far is queued, so there are never more than the most
    /// jobs ever queued at once.
    spare_args: Vec<Vec<Value>>,
    shutdown: bool,
}

/// The shared core of the service (see module docs).
pub(crate) struct ServiceInner {
    /// The worker pool, held weakly: the `Runtime` owns the strong
    /// reference, so dropping the runtime tears the pool down even while
    /// job handles (which hold `Arc<ServiceInner>`) are alive.
    pool: Weak<dyn Pooled>,
    opts: RunOptions,
    /// Admission queue capacity (0 = unbounded).
    capacity: usize,
    /// Maximum jobs dispatched to the pool at once.
    window: usize,
    state: Mutex<ServiceState>,
    /// Wakes the dispatcher: new work, a freed pool slot, or shutdown.
    work_cv: Condvar,
    /// Wakes submitters blocked on a full admission queue.
    slot_cv: Condvar,
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// The runtime's flight recorder, when tracing is enabled. Job-lifecycle
    /// events land on the recorder's service lane; per-job handles travel to
    /// the pool inside the job spec.
    pub(crate) trace: Option<Arc<TraceRecorder>>,
}

impl ServiceInner {
    /// Records one job-lifecycle event on the service lane. A no-op when
    /// tracing is disabled (`job` 0 means the ticket predates the recorder).
    fn trace_job_event(&self, job: u64, kind: TraceEventKind) {
        if job == 0 {
            return;
        }
        if let Some(rec) = &self.trace {
            rec.emit(rec.service_lane(), job, 0, kind);
        }
    }

    /// Resolves a job that never reached the pool as cancelled. The service
    /// books the cancellation before it wakes the waiter, so a `wait()` that
    /// returns always reads metrics that already count its job.
    fn cancel_undispatched(&self, ticket: &Ticket, kind: CancelKind, err: PodsError) {
        ticket.set_cancel_kind(kind);
        self.metrics.note_cancelled();
        ticket.cancelled(err);
    }

    /// Admits one job under the given admission mode. Returns its ticket,
    /// or `QueueFull` if the job was rejected (already counted). Only a job
    /// that waits in the queue copies its arguments, into a spare vector
    /// when there is one.
    pub(crate) fn submit(
        self: &Arc<Self>,
        client: ClientId,
        prepared: PreparedProgram,
        args: &[Value],
        mode: Admission,
    ) -> Result<Arc<Ticket>, PodsError> {
        self.metrics.note_submitted();
        let trace_job = self.trace.as_ref().map_or(0, |rec| rec.next_job_id());
        let service = Arc::downgrade(self);
        let ticket = Arc::new(Ticket::new(client, self.opts.deadline, trace_job, service));
        self.trace_job_event(trace_job, TraceEventKind::JobAdmitted);
        let mut st = self.state.lock().expect("service state poisoned");
        loop {
            if st.shutdown {
                // Unreachable through the public API (shutdown needs `&mut
                // Runtime`), but terminal rather than hanging if reached.
                self.cancel_undispatched(
                    &ticket,
                    CancelKind::Shutdown,
                    cancellation_error().into(),
                );
                return Ok(ticket);
            }
            if st.queue.is_empty() && st.in_flight.len() < self.window {
                // Fast path: an idle slot and no queue to be fair against —
                // dispatch inline, keeping the warm path at pool-submit cost.
                self.dispatch_locked(&mut st, Arc::clone(&ticket), &prepared, args);
                drop(st);
                if self.opts.deadline.is_some() {
                    // Re-arm the dispatcher's deadline watchdog.
                    self.work_cv.notify_all();
                }
                return Ok(ticket);
            }
            if self.capacity == 0 || st.queue.len() < self.capacity {
                let mut queued_args = st.spare_args.pop().unwrap_or_default();
                queued_args.extend_from_slice(args);
                st.queue.push(QueuedJob {
                    ticket: Arc::clone(&ticket),
                    prepared,
                    args: queued_args,
                });
                self.metrics.set_depth(st.queue.len());
                drop(st);
                self.work_cv.notify_all();
                return Ok(ticket);
            }
            let depth = st.queue.len();
            match mode {
                Admission::Try => {
                    self.metrics.note_rejected();
                    return Err(PodsError::QueueFull {
                        capacity: self.capacity,
                        depth,
                    });
                }
                Admission::Wait => {
                    st = self.slot_cv.wait(st).expect("service state poisoned");
                }
                Admission::Until(limit) => {
                    let now = Instant::now();
                    if now >= limit {
                        self.metrics.note_rejected();
                        return Err(PodsError::QueueFull {
                            capacity: self.capacity,
                            depth,
                        });
                    }
                    st = self
                        .slot_cv
                        .wait_timeout(st, limit - now)
                        .expect("service state poisoned")
                        .0;
                }
            }
        }
    }

    /// Submits one admitted job to the pool, with its ticket as the
    /// completion hook. Caller holds the state lock.
    fn dispatch_locked(
        &self,
        st: &mut ServiceState,
        ticket: Arc<Ticket>,
        prepared: &PreparedProgram,
        args: &[Value],
    ) {
        let Some(pool) = self.pool.upgrade() else {
            // The runtime is tearing down; terminal, like shutdown.
            self.cancel_undispatched(&ticket, CancelKind::Shutdown, cancellation_error().into());
            return;
        };
        let mut spec = prepared.job_spec(&self.opts);
        spec.on_done = Some(Arc::clone(&ticket) as Arc<dyn JobNotifier>);
        if let Some(rec) = &self.trace {
            if ticket.trace_job != 0 {
                spec.trace = Some(TraceHandle {
                    rec: Arc::clone(rec),
                    job: ticket.trace_job,
                });
                self.trace_job_event(ticket.trace_job, TraceEventKind::JobDispatched);
            }
        }
        let handle = pool.submit(spec, args);
        let canceller = handle.canceller();
        ticket.dispatched(handle);
        st.in_flight.push(InFlight { ticket, canceller });
        self.metrics.set_in_flight(st.in_flight.len());
    }

    /// Books a dispatched job's end, for its ticket's [`JobNotifier`] hook.
    /// A job counts as cancelled only if it failed with a cancellation
    /// recorded: one the watchdog or `JobHandle::cancel` marked but that
    /// finished first returns `Ok` from `wait`, and counts as completed.
    fn job_finished(&self, ticket: &Ticket, failed: bool, store: StoreStats) {
        if failed && ticket.cancel_kind().is_some() {
            self.metrics.note_cancelled();
        } else {
            self.trace_job_event(ticket.trace_job, TraceEventKind::JobFinished);
            self.metrics
                .note_completed(ticket.client, ticket.submitted.elapsed());
        }
        self.metrics.absorb_store(store);
        let mut st = self.state.lock().expect("service state poisoned");
        st.in_flight
            .retain(|e| !std::ptr::eq(Arc::as_ptr(&e.ticket), ticket));
        self.metrics.set_in_flight(st.in_flight.len());
        drop(st);
        self.work_cv.notify_all();
    }

    /// `JobHandle::cancel`: cancels a queued job outright, or stops a
    /// dispatched one at its next instruction boundary. A no-op for jobs
    /// that already finished.
    pub(crate) fn cancel(&self, ticket: &Arc<Ticket>) {
        let mut st = self.state.lock().expect("service state poisoned");
        let removed = st.queue.purge(|qj| Arc::ptr_eq(&qj.ticket, ticket));
        if !removed.is_empty() {
            self.metrics.set_depth(st.queue.len());
            self.trace_job_event(ticket.trace_job, TraceEventKind::JobCancelled);
            self.cancel_undispatched(ticket, CancelKind::User, user_cancel_error().into());
            drop(st);
            self.slot_cv.notify_all();
            return;
        }
        let canceller = st
            .in_flight
            .iter()
            .find(|e| Arc::ptr_eq(&e.ticket, ticket))
            .map(|e| e.canceller.clone());
        drop(st);
        if let Some(c) = canceller {
            if !c.is_done() {
                ticket.set_cancel_kind(CancelKind::User);
                self.trace_job_event(ticket.trace_job, TraceEventKind::JobCancelled);
                c.cancel(user_cancel_error());
            }
        }
    }

    /// Renders the flight-recorder breakdown for one job (for error
    /// messages); `None` when tracing is off or nothing was recorded.
    pub(crate) fn job_breakdown(&self, trace_job: u64) -> Option<String> {
        if trace_job == 0 {
            return None;
        }
        let rec = self.trace.as_ref()?;
        Some(rec.peek().breakdown(trace_job)?.to_string())
    }
}

/// A job's ticket is its completion hook: a pool worker calls it exactly
/// once per dispatched job, with no pool locks held, and it books the job
/// with the service that admitted it (if that service is still alive).
impl JobNotifier for Ticket {
    fn job_finished(&self, failed: bool, store: StoreStats) {
        if let Some(service) = self.service.upgrade() {
            service.job_finished(self, failed, store);
        }
    }
}

/// The earlier of two optional instants (`Option::min` would treat `None`
/// as earliest).
fn earlier(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// The dispatcher thread: drains the fair queue into the pool up to the
/// dispatch window and enforces deadlines. Sleeps on `work_cv` (bounded by
/// the earliest pending deadline) when there is nothing to do.
fn dispatcher_loop(inner: Arc<ServiceInner>) {
    let mut st = inner.state.lock().expect("service state poisoned");
    loop {
        if st.shutdown {
            return;
        }

        // Deadline watchdog: cancel expired queued jobs in place, collect
        // cancellers for expired in-flight jobs, and find the next wake-up.
        let mut next_deadline: Option<Instant> = None;
        let mut overdue: Vec<PoolCanceller> = Vec::new();
        if inner.opts.deadline.is_some() {
            let now = Instant::now();
            let expired = st
                .queue
                .purge(|qj| qj.ticket.deadline.is_some_and(|d| d <= now));
            if !expired.is_empty() {
                inner.metrics.set_depth(st.queue.len());
                for qj in &expired {
                    inner.trace_job_event(qj.ticket.trace_job, TraceEventKind::JobDeadline);
                    let err = PodsError::DeadlineExceeded {
                        deadline: qj.ticket.deadline_dur.unwrap_or_default(),
                        breakdown: inner.job_breakdown(qj.ticket.trace_job),
                    };
                    inner.cancel_undispatched(&qj.ticket, CancelKind::Deadline, err);
                }
                inner.slot_cv.notify_all();
            }
            for entry in &st.in_flight {
                match entry.ticket.deadline {
                    Some(d) if d <= now => {
                        if entry.ticket.cancel_kind().is_none() && !entry.canceller.is_done() {
                            entry.ticket.set_cancel_kind(CancelKind::Deadline);
                            inner.trace_job_event(
                                entry.ticket.trace_job,
                                TraceEventKind::JobDeadline,
                            );
                            overdue.push(entry.canceller.clone());
                        }
                    }
                    d => next_deadline = earlier(next_deadline, d),
                }
            }
            next_deadline = earlier(next_deadline, st.queue.min_deadline());
        }

        // Dispatch up to the window, deficit-round-robin across clients.
        let mut dispatched = false;
        while st.in_flight.len() < inner.window {
            match st.queue.pop() {
                Some(mut qj) => {
                    inner.dispatch_locked(&mut st, qj.ticket, &qj.prepared, &qj.args);
                    qj.args.clear();
                    st.spare_args.push(qj.args);
                    dispatched = true;
                }
                None => break,
            }
        }
        if dispatched {
            inner.metrics.set_depth(st.queue.len());
            inner.slot_cv.notify_all();
        }

        // Stop overdue jobs with the lock released: cancellation re-enters
        // the completion hook, which takes the state lock.
        if !overdue.is_empty() {
            drop(st);
            for c in overdue {
                c.cancel(deadline_cancel_error());
            }
            st = inner.state.lock().expect("service state poisoned");
            continue;
        }

        st = match next_deadline {
            Some(d) => {
                let now = Instant::now();
                if d <= now {
                    continue;
                }
                inner
                    .work_cv
                    .wait_timeout(st, d - now)
                    .expect("service state poisoned")
                    .0
            }
            None => inner.work_cv.wait(st).expect("service state poisoned"),
        };
    }
}

/// The service owned by a pooled [`crate::Runtime`]: shared state plus the
/// dispatcher thread.
pub(crate) struct JobService {
    pub(crate) inner: Arc<ServiceInner>,
    dispatcher: Option<thread::JoinHandle<()>>,
}

impl JobService {
    /// Spawns the dispatcher and returns the running service.
    pub(crate) fn start(
        pool: Weak<dyn Pooled>,
        opts: RunOptions,
        capacity: usize,
        window: usize,
        weights: HashMap<ClientId, u32>,
        metrics: Arc<MetricsRegistry>,
        trace: Option<Arc<TraceRecorder>>,
    ) -> JobService {
        let inner = Arc::new(ServiceInner {
            pool,
            opts,
            capacity,
            window: window.max(1),
            state: Mutex::new(ServiceState {
                queue: FairQueue::new(weights),
                in_flight: Vec::new(),
                spare_args: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            slot_cv: Condvar::new(),
            metrics,
            trace,
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("pods-dispatcher".into())
                .spawn(move || dispatcher_loop(inner))
                .expect("failed to spawn service dispatcher")
        };
        JobService {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    /// Clean drain-on-drop, called from `Runtime::drop` *before* the pool
    /// is dropped: cancels everything still queued (their waiters get a
    /// cancellation error, not a hang), pre-marks in-flight jobs as
    /// shutdown-cancelled (the pool's own drop stops them), and joins the
    /// dispatcher.
    pub(crate) fn shutdown(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("service state poisoned");
            st.shutdown = true;
            let drained = st.queue.purge(|_| true);
            self.inner.metrics.set_depth(0);
            for qj in &drained {
                self.inner
                    .trace_job_event(qj.ticket.trace_job, TraceEventKind::JobCancelled);
                self.inner.cancel_undispatched(
                    &qj.ticket,
                    CancelKind::Shutdown,
                    cancellation_error().into(),
                );
            }
            for entry in &st.in_flight {
                if !entry.canceller.is_done() {
                    entry.ticket.set_cancel_kind(CancelKind::Shutdown);
                }
            }
        }
        self.inner.work_cv.notify_all();
        self.inner.slot_cv.notify_all();
        if let Some(t) = self.dispatcher.take() {
            t.join().expect("service dispatcher panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JobSpec, PoolHandle};

    /// Stands in for a pool: these tests drive the completion hook alone.
    struct NoPool;

    impl Pooled for NoPool {
        fn id(&self) -> u64 {
            0
        }

        fn submit(&self, _spec: JobSpec, _args: &[Value]) -> PoolHandle {
            unreachable!("no job is dispatched")
        }
    }

    fn idle_service() -> Arc<ServiceInner> {
        Arc::new(ServiceInner {
            pool: Weak::<NoPool>::new(),
            opts: RunOptions::default(),
            capacity: 0,
            window: 1,
            state: Mutex::new(ServiceState {
                queue: FairQueue::new(HashMap::new()),
                in_flight: Vec::new(),
                spare_args: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            slot_cv: Condvar::new(),
            metrics: Arc::new(MetricsRegistry::new(0)),
            trace: None,
        })
    }

    #[test]
    fn a_job_counts_as_cancelled_only_if_it_failed_with_a_cancel_recorded() {
        let service = idle_service();
        let finish = |kind: Option<CancelKind>, failed: bool| {
            let ticket = Ticket::new(ClientId(1), None, 0, Arc::downgrade(&service));
            if let Some(kind) = kind {
                ticket.set_cancel_kind(kind);
            }
            ticket.job_finished(failed, StoreStats::default());
            let m = service.metrics.snapshot();
            (m.completed, m.cancelled)
        };
        // Marked overdue by the watchdog, but the job won the race: `wait`
        // returns `Ok`, so it is a completed job.
        assert_eq!(finish(Some(CancelKind::Deadline), false), (1, 0));
        // Stopped by the cancellation.
        assert_eq!(finish(Some(CancelKind::Deadline), true), (1, 1));
        assert_eq!(finish(Some(CancelKind::User), true), (1, 2));
        // Failed on its own (a runtime error): finished, not cancelled.
        assert_eq!(finish(None, true), (2, 2));
        assert_eq!(finish(None, false), (3, 2));
    }

    #[test]
    fn a_ticket_outliving_its_service_books_nothing() {
        let service = idle_service();
        let ticket = Ticket::new(ClientId(1), None, 0, Arc::downgrade(&service));
        let metrics = Arc::clone(&service.metrics);
        drop(service);
        ticket.job_finished(false, StoreStats::default());
        assert_eq!(metrics.snapshot().completed, 0);
    }
}
