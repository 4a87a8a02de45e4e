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
//!   dispatched → ended, or queued → ended) that `JobHandle` waits on.
//! * [`metrics`] — the atomic [`metrics::MetricsRegistry`] and the public
//!   [`ServiceMetrics`] snapshot.
//! * This module — [`JobService`]: the dispatcher thread, the admission
//!   paths, cancellation, and shutdown.
//!
//! # Concurrency notes
//!
//! The service state lock nests *outside* pool and ticket locks: the
//! dispatcher submits to the pool and transitions tickets while holding it.
//! A dispatched job ends in its `Drop`, on whichever thread lets go of it
//! last, which calls its ticket ([`JobNotifier`]) with no pool lock held;
//! the ticket frees the job's dispatch slot under the state lock, then
//! ends. The dispatcher keeps only a weak canceller, so it never holds a
//! job, and cancellers, which may end a job, run with the state lock
//! released.

pub(crate) mod fairness;
pub(crate) mod metrics;
pub(crate) mod queue;

pub use fairness::ClientId;
pub use metrics::ServiceMetrics;

use crate::engine::{
    cancellation_error, CancelKind, EngineOutcome, Failure, JobNotifier, PoolCanceller, Pooled,
};
use crate::error::PodsError;
use crate::pipeline::RunOptions;
use crate::runtime::PreparedProgram;
use crate::trace::{JobBreakdown, TraceEventKind, TraceHandle, TraceRecorder};
use fairness::FairQueue;
use metrics::MetricsRegistry;
use pods_istructure::{StoreStats, Value};
use pods_machine::SimulationError;
use queue::{QueuedJob, Ticket};
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Condvar, Mutex, Weak};
use std::thread;
use std::time::Instant;

/// The error a job stopped by `JobHandle::cancel` reports.
fn user_cancel_error() -> SimulationError {
    SimulationError::Runtime("job cancelled: JobHandle::cancel was called".into())
}

/// A job dispatched to the pool and not yet ended.
struct InFlight {
    ticket: Arc<Ticket>,
    canceller: PoolCanceller,
    /// The ticket's deadline, until the watchdog stops the job for it.
    deadline: Option<Instant>,
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

    /// Admits one job. While the admission queue is full the submitter
    /// waits for a slot until `until` (`None`: without bound), then the job
    /// is rejected. Returns its ticket, or `QueueFull` if the job was
    /// rejected (already counted). Only a job that waits in the queue
    /// copies its arguments, into a spare vector when there is one.
    pub(crate) fn submit(
        self: &Arc<Self>,
        client: ClientId,
        prepared: PreparedProgram,
        args: &[Value],
        until: Option<Instant>,
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
                ticket.end(self, Err(Failure::Cancelled(CancelKind::Shutdown)), None);
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
            st = match until {
                None => self.slot_cv.wait(st).expect("service state poisoned"),
                Some(limit) => {
                    let now = Instant::now();
                    if now >= limit {
                        self.metrics.note_rejected();
                        return Err(PodsError::QueueFull {
                            capacity: self.capacity,
                            depth: st.queue.len(),
                        });
                    }
                    self.slot_cv
                        .wait_timeout(st, limit - now)
                        .expect("service state poisoned")
                        .0
                }
            };
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
            ticket.end(self, Err(Failure::Cancelled(CancelKind::Shutdown)), None);
            return;
        };
        let hook = Arc::clone(&ticket) as Arc<dyn JobNotifier>;
        let mut spec = prepared.job_spec(&self.opts, hook);
        if let Some(rec) = &self.trace {
            if ticket.trace_job != 0 {
                spec.trace = Some(TraceHandle {
                    rec: Arc::clone(rec),
                    job: ticket.trace_job,
                });
                self.trace_job_event(ticket.trace_job, TraceEventKind::JobDispatched);
            }
        }
        ticket.dispatched();
        let canceller = pool.submit(spec, args);
        st.in_flight.push(InFlight {
            deadline: ticket.deadline,
            ticket,
            canceller,
        });
        self.metrics.set_in_flight(st.in_flight.len());
    }

    /// A dispatched job's end, from its ticket's [`JobNotifier`] hook: frees
    /// the job's dispatch slot, then ends the ticket. The job's store is
    /// already back in the pool's spares, so neither the dispatcher nor the
    /// waiter, both woken here, can build a store of its own.
    fn job_ended(&self, ticket: &Ticket, end: Result<EngineOutcome, Failure>, store: StoreStats) {
        let mut st = self.state.lock().expect("service state poisoned");
        st.in_flight
            .retain(|e| !std::ptr::eq(Arc::as_ptr(&e.ticket), ticket));
        self.metrics.set_in_flight(st.in_flight.len());
        drop(st);
        self.work_cv.notify_all();
        ticket.end(self, end, Some(store));
    }

    /// Books a job's end and makes it what the job's waiter gets. Called by
    /// the ticket as it enters `Ended`, and nowhere else. A job counts as
    /// cancelled if a cancel was its first cause; one that failed by itself
    /// counts as completed, as one that succeeded does.
    fn book(
        &self,
        ticket: &Ticket,
        end: Result<EngineOutcome, Failure>,
        store: Option<StoreStats>,
    ) -> Result<EngineOutcome, PodsError> {
        if let Some(store) = store {
            self.metrics.absorb_store(store);
        }
        let finished = || {
            self.trace_job_event(ticket.trace_job, TraceEventKind::JobFinished);
            self.metrics
                .note_completed(ticket.client, ticket.submitted.elapsed());
        };
        match end {
            Ok(mut outcome) => {
                finished();
                outcome.diagnostics = self.breakdown(ticket.trace_job);
                Ok(outcome)
            }
            // A deadlock's detail gains the flight-recorder breakdown,
            // pointing at where the time went.
            Err(Failure::Error(SimulationError::Deadlock {
                stuck_instances,
                detail,
            })) => {
                finished();
                let detail = match self.breakdown(ticket.trace_job) {
                    Some(b) => format!("{detail}; {b}"),
                    None => detail,
                };
                Err(SimulationError::Deadlock {
                    stuck_instances,
                    detail,
                }
                .into())
            }
            Err(Failure::Error(err)) => {
                finished();
                Err(err.into())
            }
            Err(Failure::Cancelled(kind)) => {
                self.metrics.note_cancelled();
                Err(match kind {
                    CancelKind::Deadline => PodsError::DeadlineExceeded {
                        deadline: self.opts.deadline.unwrap_or_default(),
                        breakdown: self.breakdown(ticket.trace_job).map(|b| b.to_string()),
                    },
                    CancelKind::User => user_cancel_error().into(),
                    CancelKind::Shutdown => cancellation_error().into(),
                })
            }
        }
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
            ticket.end(self, Err(Failure::Cancelled(CancelKind::User)), None);
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
            self.trace_job_event(ticket.trace_job, TraceEventKind::JobCancelled);
            c.cancel(CancelKind::User);
        }
    }

    /// The flight-recorder breakdown for one job; `None` when tracing is
    /// off or nothing was recorded.
    fn breakdown(&self, trace_job: u64) -> Option<JobBreakdown> {
        if trace_job == 0 {
            return None;
        }
        self.trace.as_ref()?.peek().breakdown(trace_job)
    }
}

/// A job's ticket is its completion hook: the job's `Drop` calls it exactly
/// once, with no pool lock held, and it ends the job with the service that
/// admitted it. A ticket whose service is gone has no waiter left (a
/// `JobHandle` keeps its service alive), so it books nothing.
impl JobNotifier for Ticket {
    fn job_ended(&self, end: Result<EngineOutcome, Failure>, store: StoreStats) {
        if let Some(service) = self.service.upgrade() {
            service.job_ended(self, end, store);
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
                    let cancelled = Err(Failure::Cancelled(CancelKind::Deadline));
                    qj.ticket.end(&inner, cancelled, None);
                }
                inner.slot_cv.notify_all();
            }
            for entry in &mut st.in_flight {
                match entry.deadline {
                    Some(d) if d <= now => {
                        entry.deadline = None;
                        let trace_job = entry.ticket.trace_job;
                        inner.trace_job_event(trace_job, TraceEventKind::JobDeadline);
                        overdue.push(entry.canceller.clone());
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

        // Stop overdue jobs with the lock released: a cancel may end the
        // job, whose ticket takes the state lock.
        if !overdue.is_empty() {
            drop(st);
            for c in overdue {
                c.cancel(CancelKind::Deadline);
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
        // Returns once the dispatcher runs, as `Pool::new` does for its
        // workers: a thread that starts late allocates in a job's midst.
        let started = Arc::new(Barrier::new(2));
        let dispatcher = {
            let (inner, started) = (Arc::clone(&inner), Arc::clone(&started));
            thread::Builder::new()
                .name("pods-dispatcher".into())
                .spawn(move || {
                    started.wait();
                    dispatcher_loop(inner)
                })
                .expect("failed to spawn service dispatcher")
        };
        started.wait();
        JobService {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    /// Clean drain-on-drop, called from `Runtime::drop` *before* the pool
    /// is dropped: cancels everything still queued (their waiters get a
    /// cancellation error, not a hang) and joins the dispatcher. The pool's
    /// own drop stops the in-flight jobs.
    pub(crate) fn shutdown(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("service state poisoned");
            st.shutdown = true;
            let drained = st.queue.purge(|_| true);
            self.inner.metrics.set_depth(0);
            for qj in &drained {
                let (ticket, inner) = (&qj.ticket, &self.inner);
                inner.trace_job_event(ticket.trace_job, TraceEventKind::JobCancelled);
                ticket.end(inner, Err(Failure::Cancelled(CancelKind::Shutdown)), None);
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
    use crate::engine::{EngineStats, JobSpec};

    /// Stands in for a pool: these tests drive the completion hook alone.
    struct NoPool;

    impl Pooled for NoPool {
        fn id(&self) -> u64 {
            0
        }

        fn submit(&self, _spec: JobSpec, _args: &[Value]) -> PoolCanceller {
            unreachable!("no job is dispatched")
        }
    }

    fn idle_service(deadline: Option<std::time::Duration>) -> Arc<ServiceInner> {
        Arc::new(ServiceInner {
            pool: Weak::<NoPool>::new(),
            opts: RunOptions {
                deadline,
                ..RunOptions::default()
            },
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

    /// A cause a job can end for.
    #[derive(Debug, Clone, Copy)]
    enum Cause {
        Completed,
        RuntimeError,
        Cancelled(CancelKind),
    }

    impl Cause {
        fn end(self) -> Result<EngineOutcome, Failure> {
            match self {
                Cause::Completed => Ok(EngineOutcome {
                    engine: "native",
                    return_value: Some(Value::Int(1)),
                    arrays: Vec::new(),
                    modelled_us: None,
                    wall_us: 0.0,
                    stats: EngineStats::Sequential {
                        nests: 0,
                        serial_us: 0.0,
                    },
                    diagnostics: None,
                }),
                Cause::RuntimeError => Err(Failure::Error(SimulationError::Runtime("boom".into()))),
                Cause::Cancelled(kind) => Err(Failure::Cancelled(kind)),
            }
        }
    }

    /// What `wait` returns, by class.
    fn class(end: &Result<EngineOutcome, PodsError>) -> &'static str {
        match end {
            Ok(_) => "ok",
            Err(PodsError::DeadlineExceeded { .. }) => "deadline",
            Err(e) if e.to_string().contains("JobHandle::cancel") => "cancelled by handle",
            Err(e) if e.to_string().contains("runtime was dropped") => "cancelled by shutdown",
            Err(_) => "failed",
        }
    }

    /// The ticket's terminal transition: whatever ends a job first is its
    /// end, and books it once; a later cause changes neither what `wait`
    /// returns nor the counts. A job counts as cancelled only if a cancel
    /// came first.
    #[test]
    fn a_job_counts_as_cancelled_only_if_a_cancel_came_first() {
        use CancelKind::{Deadline, Shutdown, User};
        use Cause::{Cancelled, Completed, RuntimeError};
        let table = [
            // A cancel that loses to completion: `Ok`, completed.
            (Completed, Some(Cancelled(User)), "ok", (1, 0)),
            (Completed, Some(Cancelled(Deadline)), "ok", (1, 0)),
            // Between two cancels, the first wins.
            (
                Cancelled(Deadline),
                Some(Cancelled(User)),
                "deadline",
                (0, 1),
            ),
            (
                Cancelled(User),
                Some(Cancelled(Deadline)),
                "cancelled by handle",
                (0, 1),
            ),
            (
                Cancelled(Shutdown),
                Some(Completed),
                "cancelled by shutdown",
                (0, 1),
            ),
            // A runtime error followed by a cancel: failed, not cancelled.
            (RuntimeError, Some(Cancelled(Deadline)), "failed", (1, 0)),
            (RuntimeError, Some(Cancelled(User)), "failed", (1, 0)),
            (Completed, None, "ok", (1, 0)),
            (RuntimeError, None, "failed", (1, 0)),
        ];
        for (first, later, wait_class, counts) in table {
            let service = idle_service(Some(std::time::Duration::from_millis(5)));
            let ticket = Ticket::new(ClientId(1), None, 0, Arc::downgrade(&service));
            ticket.dispatched();
            ticket.job_ended(first.end(), StoreStats::default());
            if let Some(later) = later {
                ticket.job_ended(later.end(), StoreStats::default());
            }
            let row = format!("{first:?} then {later:?}");
            assert!(ticket.is_done(), "{row}");
            assert_eq!(class(&ticket.wait()), wait_class, "{row}");
            let m = service.metrics.snapshot();
            assert_eq!((m.completed, m.cancelled), counts, "{row}");
        }
    }

    #[test]
    fn a_ticket_outliving_its_service_books_nothing() {
        let service = idle_service(None);
        let ticket = Ticket::new(ClientId(1), None, 0, Arc::downgrade(&service));
        let metrics = Arc::clone(&service.metrics);
        drop(service);
        ticket.job_ended(Cause::Completed.end(), StoreStats::default());
        assert_eq!(metrics.snapshot().completed, 0);
    }
}
