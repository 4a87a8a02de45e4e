//! The benchmark's own spans around calls into the layers: name, start,
//! end, parent and job id, kept in memory and written when the run ends.
//! Only the generator thread records, so the log needs no lock.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans the traced pieces may record; later ones are only counted, so a
/// long traced run writes a file of bounded size. The layer probes, which
/// run after the blocks and record under a thousand spans, are not capped
/// ([`SpanLog::lift_cap`]): the file always has the stage self times.
const MAX_PIECE_SPANS: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, `NONE` at top level.
    parent: u32,
    job: u64,
}

const NONE: u32 = u32::MAX;

/// An open span; pass it back to [`SpanLog::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(u32);

/// The span log of one run. A disabled log records nothing and never reads
/// the clock, so untraced pieces run the same code without the cost.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cap: usize,
    dropped: u64,
}

/// Count, total and self time of every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, µs.
    pub total_us: f64,
    /// The same minus the time covered by their child spans, µs.
    pub self_us: f64,
    /// Median duration, µs.
    pub median_us: f64,
}

impl SpanLog {
    /// A log that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cap: MAX_PIECE_SPANS,
            dropped: 0,
        }
    }

    /// Stops or resumes recording; pieces that must not be perturbed run
    /// with the log paused.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Lets every later span in; called once the traced pieces are done.
    pub fn lift_cap(&mut self) {
        self.cap = usize::MAX;
    }

    /// Spans the cap kept out of the log.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u64) -> SpanId {
        if !self.enabled {
            return SpanId(NONE);
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NONE),
            job,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Per-name totals; self time is a span's duration minus its children's.
    pub fn summary(&self) -> Vec<NameSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        let mut durations: Vec<Vec<f64>> = Vec::new();
        let mut self_us: Vec<f64> = Vec::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let i = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                durations.push(Vec::new());
                self_us.push(0.0);
                names.len() - 1
            });
            let dur = s.end_ns - s.start_ns;
            durations[i].push(dur as f64 / 1e3);
            self_us[i] += dur.saturating_sub(*children) as f64 / 1e3;
        }
        names
            .into_iter()
            .zip(durations)
            .zip(self_us)
            .map(|((name, d), self_us)| NameSummary {
                name,
                count: d.len() as u64,
                total_us: d.iter().sum(),
                self_us,
                median_us: crate::stats::median(&d),
            })
            .collect()
    }

    /// Median duration (µs) of the spans called `name`, 0 when there is none.
    pub fn median_us(&self, name: &str) -> f64 {
        self.summary()
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.median_us)
    }

    /// The whole log as one JSON document: the per-name summary, then every
    /// span as `[name index, start ns, end ns, parent index or -1, job id]`.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let summary = self.summary();
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"dropped\": {}, \"names\": [",
            self.dropped
        );
        for (i, s) in summary.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"count\": {}, \"total_us\": {}, \"self_us\": {}, \
                 \"median_us\": {}}}",
                s.name, s.count, s.total_us, s.self_us, s.median_us
            );
        }
        out.push_str("],\n\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let name = summary
                .iter()
                .position(|n| n.name == s.name)
                .expect("summary covers every name");
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n[{name},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.job
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new(true);
        let job = log.enter("job", 7);
        let a = log.enter("submit", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.exit(a);
        let b = log.enter("wait", 7);
        std::thread::sleep(std::time::Duration::from_millis(3));
        log.exit(b);
        log.exit(job);
        let summary = log.summary();
        let get = |n: &str| summary.iter().find(|s| s.name == n).unwrap().clone();
        let (job, submit, wait) = (get("job"), get("submit"), get("wait"));
        assert_eq!((job.count, submit.count, wait.count), (1, 1, 1));
        assert!(submit.total_us >= 2000.0 && wait.total_us >= 3000.0);
        assert_eq!(submit.self_us, submit.total_us);
        let covered = submit.total_us + wait.total_us;
        assert!((job.self_us - (job.total_us - covered)).abs() < 1e-6);
        assert!(job.self_us < 1000.0, "self time excludes the children");
        let json = log.to_json("w", 1);
        assert!(
            json.contains("\"dropped\": 0") && json.contains("\n[1,"),
            "{json}"
        );
        assert!(json.contains(",0,7]"), "children name their parent: {json}");
    }

    #[test]
    fn the_cap_counts_what_it_drops_and_can_be_lifted() {
        let mut log = SpanLog::new(true);
        log.cap = 2;
        for job in 0..3 {
            let id = log.enter("piece", job);
            log.exit(id);
        }
        assert_eq!((log.summary()[0].count, log.dropped()), (2, 1));
        log.lift_cap();
        let id = log.enter("probe", 0);
        log.exit(id);
        assert_eq!((log.summary()[1].count, log.dropped()), (1, 1));
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let id = log.enter("job", 1);
        log.exit(id);
        assert!(log.summary().is_empty());
        assert_eq!(log.median_us("job"), 0.0);
    }
}
