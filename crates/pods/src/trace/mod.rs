//! The flight recorder: low-overhead, per-worker event tracing across
//! every layer of the runtime.
//!
//! Tracing is **off by default** and costs ~nothing while off: the exec
//! core's [`pods_sp::exec::ExecCtx::trace_sink`] hook defaults to a
//! constant `None` (monomorphized away for engines that never trace), and
//! the pooled engines guard every emission site with one branch on an
//! `Option` carried by the job. Enable it with
//! [`crate::RuntimeBuilder::trace`], whose [`TraceConfig`] sets the
//! per-worker ring size; the standing benchmark's `trace.overhead_ratio`
//! measures what a traced runtime costs over an untraced one.
//!
//! # Anatomy
//!
//! * [`events`](self) — [`TraceEvent`] / [`TraceEventKind`]: the closed
//!   event vocabulary, spanning the service (job lifecycle), the pooled
//!   schedulers (spawns, run spans, steals, resumptions), and the shared
//!   exec core (suspension pc + slot, deferred loads with array id, chunk
//!   advances) — the machine simulator emits the same core events through
//!   the same [`pods_sp::exec::TraceSink`] hook.
//! * `recorder` — [`TraceConfig`] and the bounded per-lane rings
//!   (drop-oldest, exact drop counting).
//! * `chrome` — [`JobTrace::chrome_trace`], the Chrome/Perfetto
//!   `trace_event` JSON serializer.
//! * `diag` — [`JobBreakdown`], the slow-job diagnostic attached to pooled
//!   outcomes and deadline/deadlock errors.
//!
//! ```
//! use pods::{compile, EngineKind, Runtime, TraceConfig, Value};
//!
//! let program = compile(
//!     "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i; } return a; }",
//! )?;
//! let runtime = Runtime::builder(EngineKind::Native)
//!     .workers(2)
//!     .trace(TraceConfig::new())
//!     .build();
//! runtime.run(&program, &[Value::Int(32)])?;
//! let trace = runtime.take_trace();
//! assert!(!trace.is_empty());
//! let json = trace.chrome_trace(); // load this in Perfetto / chrome://tracing
//! assert!(json.starts_with("{\"traceEvents\":"));
//! # Ok::<(), pods::PodsError>(())
//! ```

mod chrome;
mod diag;
mod events;
mod recorder;

pub use diag::JobBreakdown;
pub use events::{TraceEvent, TraceEventKind};
pub use recorder::TraceConfig;
pub(crate) use recorder::{RecorderExecSink, TraceHandle, TraceRecorder};

/// Every event a runtime's flight recorder captured, merged across lanes
/// into one time-ordered stream. Produced by [`crate::Runtime::take_trace`]
/// (which drains the recorder — a second call returns only newer events).
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// The events, ordered by timestamp (lane index as tie-break).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow since the last drain. Non-zero means
    /// the stream shows the most recent window, not the whole run.
    pub dropped: u64,
    /// Number of lanes (worker count + 1 service lane).
    pub lanes: usize,
}

impl JobTrace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events (tracing disabled, or nothing ran
    /// since the last drain).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace as Chrome/Perfetto `trace_event` JSON: one lane
    /// per worker (plus a service lane), `B`/`E` spans for instance runs,
    /// instants for spawns, steals, suspensions, deferred loads, and job
    /// lifecycle. Load the string (saved as a `.json` file) in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        chrome::render(self)
    }

    /// The per-job time breakdown for `job` (trace-job ids are assigned at
    /// admission, starting from 1), or `None` when no event of that job was
    /// recorded.
    pub fn breakdown(&self, job: u64) -> Option<JobBreakdown> {
        diag::breakdown(self, job)
    }
}
