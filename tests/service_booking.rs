//! The job service books every job before it wakes the job's waiter:
//! a `JobHandle::wait` that returns always reads `Runtime::metrics` that
//! already count its job, whichever path resolved it (completion, deadline
//! expiry in the queue or in flight, cancellation by handle).
//!
//! Kept apart from `service_soak` so its 100 short-lived runtimes do not
//! compete for the host's cores with the soak's fairness sampling.

use pods::{EngineKind, PodsError, Runtime, Value};
use std::time::Duration;

/// Asserts that the service has booked the `done`-th job (in submission
/// order) by the time its waiter returns: it counts the job, and its queue
/// depth holds at most the `later` jobs submitted after it.
fn assert_booked(runtime: &Runtime, done: u64, later: usize, what: &str) -> pods::ServiceMetrics {
    let m = runtime.metrics();
    assert!(
        m.completed + m.cancelled >= done && m.queue_depth <= later,
        "{what}: wait() returned before the service booked job {done}: {m:?}"
    );
    m
}

#[test]
fn queued_cancellations_are_booked_before_their_waiters_wake() {
    // Jobs parked behind a blocker in the one dispatch slot leave the queue
    // by deadline (the dispatcher resolves them) or by handle (the caller
    // does). Right after each `wait()` returns, `metrics()` must already
    // count that job; after the last one the queue is empty and the books
    // balance.
    let queued = 8;
    let program =
        pods::compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i; } return a; }")
            .unwrap();
    let blocker = pods::compile(
        "def main(n) {
             a = matrix(n, n);
             for i = 0 to n - 1 {
                 for j = 0 to n - 1 { a[i, j] = i * n + j; }
             }
             return a;
         }",
    )
    .unwrap();
    for (engine, round) in [EngineKind::Native, EngineKind::AsyncCoop]
        .into_iter()
        .flat_map(|engine| (0..50).map(move |round| (engine, round)))
    {
        // Expired by deadline: the blocker outlives it, so the queued jobs
        // either expire in the queue or, dispatched late, in flight.
        let runtime = Runtime::builder(engine)
            .workers(1)
            .dispatch_window(1)
            .deadline(Duration::from_millis(2))
            .build();
        let prepared = runtime.prepare(&program);
        let mut handles = vec![runtime.submit(&blocker, &[Value::Int(400)]).unwrap()];
        handles.extend((0..queued).map(|_| runtime.submit(&prepared, &[Value::Int(8)]).unwrap()));
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.wait() {
                Ok(_) | Err(PodsError::DeadlineExceeded { .. }) => {}
                Err(e) => panic!("{engine:?} round {round}, job {i}: {e}"),
            }
            assert_booked(&runtime, i as u64 + 1, queued - i, "deadline");
        }
        let m = runtime.metrics();
        assert!(
            m.cancelled >= 1,
            "{engine:?} round {round}: the blocker must expire: {m:?}"
        );
        assert_eq!(m.queue_depth, 0, "{engine:?} round {round}: {m:?}");
        assert_eq!(m.submitted, m.completed + m.rejected + m.cancelled);

        // Cancelled by handle while still queued.
        let runtime = Runtime::builder(engine)
            .workers(1)
            .dispatch_window(1)
            .build();
        let prepared = runtime.prepare(&program);
        let first = runtime.submit(&blocker, &[Value::Int(48)]).unwrap();
        let handles: Vec<_> = (0..queued)
            .map(|_| runtime.submit(&prepared, &[Value::Int(8)]).unwrap())
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            handle.cancel();
            match handle.wait() {
                Ok(_) | Err(PodsError::Simulation(_)) => {}
                Err(e) => panic!("{engine:?} round {round}, queued job {i}: {e}"),
            }
            assert_booked(&runtime, i as u64 + 1, queued - i - 1, "cancel");
        }
        assert!(first.wait().is_ok());
        let m = assert_booked(&runtime, queued as u64 + 1, 0, "blocker");
        assert_eq!(m.queue_depth, 0, "{engine:?} round {round}: {m:?}");
        assert_eq!(m.submitted, m.completed + m.rejected + m.cancelled);
    }
}
