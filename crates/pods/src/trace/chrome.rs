//! Chrome/Perfetto `trace_event` JSON serialization of a [`JobTrace`].
//!
//! The output is the stable "JSON object format" both `chrome://tracing`
//! and Perfetto load: a `traceEvents` array of metadata records (process
//! and per-lane thread names), `"B"`/`"E"` duration events for instance
//! runs (one lane per worker, so spans nest correctly — a worker executes
//! one task at a time), and `"i"` instant events for everything punctual
//! (spawns, steals, suspensions, deferred loads, resumptions, chunk
//! advances, job lifecycle). Timestamps are microseconds, which is the
//! unit the format defines. Serialized by hand — the workspace carries no
//! JSON dependency, and the vocabulary is closed (fixed ASCII names, no
//! escaping needed).

use super::events::TraceEventKind;
use super::JobTrace;
use std::fmt::Write;

/// Renders `trace` as Chrome-trace JSON (see module docs).
pub(crate) fn render(trace: &JobTrace) -> String {
    let mut out = String::with_capacity(64 + trace.events.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"pods\"}}",
    );
    for lane in 0..trace.lanes {
        let name = if lane + 1 == trace.lanes {
            "service".to_string()
        } else {
            format!("worker {lane}")
        };
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    // Per-lane span depth: a ring that overflowed may have dropped a span's
    // opening `RunBegin`; skipping the orphaned `RunEnd` keeps the B/E
    // stream balanced for the viewer.
    let mut depth = vec![0u32; trace.lanes];
    for e in &trace.events {
        let (t, lane, job, inst) = (e.t_us, e.lane, e.job, e.instance);
        match e.kind {
            TraceEventKind::RunBegin => {
                depth[lane as usize] += 1;
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"instance {inst}\",\"cat\":\"run\",\"ph\":\"B\",\"pid\":1,\"tid\":{lane},\"ts\":{t},\"args\":{{\"job\":{job},\"instance\":{inst}}}}}"
                );
            }
            TraceEventKind::RunEnd => {
                if depth[lane as usize] == 0 {
                    continue;
                }
                depth[lane as usize] -= 1;
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"instance {inst}\",\"cat\":\"run\",\"ph\":\"E\",\"pid\":1,\"tid\":{lane},\"ts\":{t}}}"
                );
            }
            kind => {
                let name = kind.name();
                let cat = match kind {
                    TraceEventKind::Suspended { .. }
                    | TraceEventKind::DeferredLoad { .. }
                    | TraceEventKind::ChunkAdvanced => "core",
                    TraceEventKind::JobAdmitted
                    | TraceEventKind::JobDispatched
                    | TraceEventKind::JobStarted
                    | TraceEventKind::JobFinished
                    | TraceEventKind::JobCancelled
                    | TraceEventKind::JobDeadline => "job",
                    _ => "sched",
                };
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{lane},\"ts\":{t},\"args\":{{\"job\":{job},\"instance\":{inst}"
                );
                match kind {
                    TraceEventKind::Suspended { pc, slot } => {
                        let _ = write!(out, ",\"pc\":{pc},\"slot\":{slot}");
                    }
                    TraceEventKind::DeferredLoad { array, pc } => {
                        let _ = write!(out, ",\"array\":{array},\"pc\":{pc}");
                    }
                    TraceEventKind::Steal { from } => {
                        let _ = write!(out, ",\"from\":{from}");
                    }
                    _ => {}
                }
                out.push_str("}}");
            }
        }
    }
    let dropped = trace.dropped;
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"droppedEvents\":{dropped}}}}}"
    );
    out
}
