//! Aggregate service metrics: relaxed-atomic counters, a fixed-bucket
//! latency histogram, and the public [`ServiceMetrics`] snapshot.
//!
//! Everything on the job hot path is a relaxed atomic increment; the only
//! lock is around the per-client completion map, taken once per completed
//! job (never per instruction). Latency is recorded into power-of-two
//! microsecond buckets, so percentiles cost no per-job allocation and no
//! sorted reservoir.

use super::fairness::ClientId;
use pods_istructure::StoreStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of histogram buckets: bucket `i` counts jobs whose latency in
/// microseconds lies in `[2^(i-1), 2^i)` (bucket 0 is sub-microsecond), so
/// 40 buckets span sub-µs to ~6 days.
const BUCKETS: usize = 40;

/// Fixed-bucket log2 latency histogram.
struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of every recorded sample in µs (for the Prometheus `_sum`).
    sum_us: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    fn record(&self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Cumulative `(upper_bound_us, count_at_or_below)` pairs, one per
    /// bucket (bucket `i`'s upper bound is `2^i` µs).
    fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut seen = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                seen += b.load(Ordering::Relaxed);
                ((1u64 << i) as f64, seen)
            })
            .collect()
    }

    /// The upper bound (in µs) of the bucket containing the `q`-quantile
    /// sample, or 0 when nothing was recorded.
    fn percentile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << i) as f64;
            }
        }
        (1u64 << (BUCKETS - 1)) as f64
    }
}

/// The service's live counters. Shared (`Arc`) between the runtime, the
/// dispatcher, and every job's completion hook.
pub(crate) struct MetricsRegistry {
    started: Instant,
    capacity: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    depth: AtomicUsize,
    depth_peak: AtomicUsize,
    in_flight: AtomicUsize,
    latency: Histogram,
    peak_live_arrays: AtomicUsize,
    peak_array_bytes: AtomicUsize,
    arrays_allocated: AtomicU64,
    per_client: Mutex<HashMap<ClientId, u64>>,
}

impl MetricsRegistry {
    pub(crate) fn new(capacity: usize) -> MetricsRegistry {
        MetricsRegistry {
            started: Instant::now(),
            capacity,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            depth_peak: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            latency: Histogram::new(),
            peak_live_arrays: AtomicUsize::new(0),
            peak_array_bytes: AtomicUsize::new(0),
            arrays_allocated: AtomicU64::new(0),
            per_client: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_completed(&self, client: ClientId, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency
            .record(latency.as_micros().min(u64::MAX as u128) as u64);
        *self
            .per_client
            .lock()
            .expect("metrics poisoned")
            .entry(client)
            .or_insert(0) += 1;
    }

    pub(crate) fn set_depth(&self, depth: usize) {
        self.depth.store(depth, Ordering::Relaxed);
        self.depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn set_in_flight(&self, n: usize) {
        self.in_flight.store(n, Ordering::Relaxed);
    }

    /// Folds one finished job's I-structure store counters into the
    /// service-wide aggregates.
    pub(crate) fn absorb_store(&self, store: StoreStats) {
        self.peak_live_arrays
            .fetch_max(store.peak_arrays, Ordering::Relaxed);
        self.peak_array_bytes
            .fetch_max(store.peak_bytes, Ordering::Relaxed);
        self.arrays_allocated
            .fetch_add(store.peak_arrays as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ServiceMetrics {
        let mut completed_by_client: Vec<(ClientId, u64)> = self
            .per_client
            .lock()
            .expect("metrics poisoned")
            .iter()
            .map(|(c, n)| (*c, *n))
            .collect();
        completed_by_client.sort_unstable_by_key(|(c, _)| *c);
        let completed = self.completed.load(Ordering::Relaxed);
        let uptime = self.started.elapsed().as_secs_f64();
        ServiceMetrics {
            admission_capacity: self.capacity,
            queue_depth: self.depth.load(Ordering::Relaxed),
            queue_depth_peak: self.depth_peak.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            jobs_per_sec: if uptime > 0.0 {
                completed as f64 / uptime
            } else {
                0.0
            },
            p50_latency_us: self.latency.percentile(0.50),
            p99_latency_us: self.latency.percentile(0.99),
            latency_buckets: self.latency.cumulative(),
            latency_sum_us: self.latency.sum_us.load(Ordering::Relaxed),
            peak_live_arrays: self.peak_live_arrays.load(Ordering::Relaxed),
            peak_array_bytes: self.peak_array_bytes.load(Ordering::Relaxed),
            arrays_allocated: self.arrays_allocated.load(Ordering::Relaxed),
            completed_by_client,
        }
    }
}

/// A point-in-time snapshot of a runtime's service counters, from
/// `Runtime::metrics()`.
///
/// Counting invariant: every submission ends up in exactly one of
/// `completed`, `rejected`, or `cancelled`, so once a runtime has drained
/// (no queued or in-flight jobs), `submitted == completed + rejected +
/// cancelled`.
///
/// On modelled-engine runtimes (`sim`/`seq`) jobs run eagerly inside
/// `submit`, so `submitted`/`completed`/latency are still meaningful but
/// the queue, fairness, and deadline fields stay at their defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// The configured admission capacity (0 = unbounded).
    pub admission_capacity: usize,
    /// Jobs currently admitted but not yet dispatched to the pool.
    pub queue_depth: usize,
    /// High-water mark of `queue_depth` over the runtime's lifetime.
    pub queue_depth_peak: usize,
    /// Jobs currently executing (dispatched, not yet finished).
    pub in_flight: usize,
    /// Submission attempts, including rejected ones.
    pub submitted: u64,
    /// Jobs that ran to completion (successfully or with a job error).
    pub completed: u64,
    /// Submissions rejected with `PodsError::QueueFull`.
    pub rejected: u64,
    /// Jobs cancelled before or during execution (deadline, explicit
    /// cancel, or runtime shutdown).
    pub cancelled: u64,
    /// Completed jobs per second of runtime uptime.
    pub jobs_per_sec: f64,
    /// Median job latency (submission to completion) in microseconds,
    /// reported as the upper bound of its power-of-two histogram bucket.
    pub p50_latency_us: f64,
    /// 99th-percentile job latency in microseconds (bucket upper bound).
    pub p99_latency_us: f64,
    /// The full latency histogram as cumulative `(upper_bound_us, count)`
    /// pairs, one per power-of-two bucket (ascending bounds; the last
    /// count equals `completed`). Feeds [`ServiceMetrics::render_prometheus`].
    pub latency_buckets: Vec<(f64, u64)>,
    /// Sum of all completed-job latencies in microseconds.
    pub latency_sum_us: u64,
    /// Largest number of I-structure arrays any single job held live.
    pub peak_live_arrays: usize,
    /// Largest approximate I-structure byte footprint of any single job.
    pub peak_array_bytes: usize,
    /// Total I-structure arrays allocated across all finished jobs.
    pub arrays_allocated: u64,
    /// Completed-job counts per client, sorted by client id (only clients
    /// with at least one completion appear).
    pub completed_by_client: Vec<(ClientId, u64)>,
}

impl ServiceMetrics {
    /// Completed jobs attributed to `client` (0 if it never completed one).
    pub fn completed_for(&self, client: ClientId) -> u64 {
        self.completed_by_client
            .iter()
            .find(|(c, _)| *c == client)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters for the submission lifecycle, gauges for
    /// queue/pool occupancy, the job-latency histogram in seconds, and
    /// per-client completion counters. Serve the string from a `/metrics`
    /// endpoint or write it to a textfile-collector path.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let mut metric = |name: &str, help: &str, kind: &str, value: String| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        };
        metric(
            "pods_jobs_submitted_total",
            "Submission attempts, including rejected ones.",
            "counter",
            self.submitted.to_string(),
        );
        metric(
            "pods_jobs_completed_total",
            "Jobs that ran to completion.",
            "counter",
            self.completed.to_string(),
        );
        metric(
            "pods_jobs_rejected_total",
            "Submissions rejected because the admission queue was full.",
            "counter",
            self.rejected.to_string(),
        );
        metric(
            "pods_jobs_cancelled_total",
            "Jobs cancelled by deadline, explicit cancel, or shutdown.",
            "counter",
            self.cancelled.to_string(),
        );
        metric(
            "pods_admission_capacity",
            "Configured admission-queue capacity (0 = unbounded).",
            "gauge",
            self.admission_capacity.to_string(),
        );
        metric(
            "pods_queue_depth",
            "Jobs admitted but not yet dispatched to the pool.",
            "gauge",
            self.queue_depth.to_string(),
        );
        metric(
            "pods_queue_depth_peak",
            "High-water mark of the admission-queue depth.",
            "gauge",
            self.queue_depth_peak.to_string(),
        );
        metric(
            "pods_jobs_in_flight",
            "Jobs currently executing on the pool.",
            "gauge",
            self.in_flight.to_string(),
        );
        metric(
            "pods_peak_live_arrays",
            "Largest number of I-structure arrays any single job held live.",
            "gauge",
            self.peak_live_arrays.to_string(),
        );
        metric(
            "pods_peak_array_bytes",
            "Largest approximate I-structure byte footprint of any job.",
            "gauge",
            self.peak_array_bytes.to_string(),
        );
        metric(
            "pods_arrays_allocated_total",
            "I-structure arrays allocated across all finished jobs.",
            "counter",
            self.arrays_allocated.to_string(),
        );
        let _ = writeln!(
            out,
            "# HELP pods_job_latency_seconds Job latency from admission to completion."
        );
        let _ = writeln!(out, "# TYPE pods_job_latency_seconds histogram");
        for (bound_us, count) in &self.latency_buckets {
            let _ = writeln!(
                out,
                "pods_job_latency_seconds_bucket{{le=\"{}\"}} {count}",
                bound_us / 1e6
            );
        }
        let total = self.latency_buckets.last().map_or(0, |(_, n)| *n);
        let _ = writeln!(
            out,
            "pods_job_latency_seconds_bucket{{le=\"+Inf\"}} {total}"
        );
        let _ = writeln!(
            out,
            "pods_job_latency_seconds_sum {}",
            self.latency_sum_us as f64 / 1e6
        );
        let _ = writeln!(out, "pods_job_latency_seconds_count {total}");
        if !self.completed_by_client.is_empty() {
            let _ = writeln!(
                out,
                "# HELP pods_jobs_completed_by_client_total Completed jobs per client."
            );
            let _ = writeln!(out, "# TYPE pods_jobs_completed_by_client_total counter");
            for (client, n) in &self.completed_by_client {
                let _ = writeln!(
                    out,
                    "pods_jobs_completed_by_client_total{{client=\"{}\"}} {n}",
                    client.0
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_recorded_latencies() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0.0, "empty histogram reports zero");
        // 99 fast jobs at ~3µs, one slow at ~1000µs.
        for _ in 0..99 {
            h.record(3);
        }
        h.record(1000);
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        assert!(
            (4.0..=8.0).contains(&p50),
            "p50 should land in the 3µs bucket's bound, got {p50}"
        );
        assert!(p99 <= p50 * 8.0, "p99 {p99} should still be fast");
        assert!(
            h.percentile(1.0) >= 1024.0,
            "max percentile must see the slow job"
        );
    }

    #[test]
    fn counting_invariant_holds_in_snapshot() {
        let m = MetricsRegistry::new(4);
        for _ in 0..5 {
            m.note_submitted();
        }
        m.note_rejected();
        m.note_cancelled();
        m.note_completed(ClientId(7), Duration::from_micros(10));
        m.note_completed(ClientId(7), Duration::from_micros(20));
        m.note_completed(ClientId(9), Duration::from_micros(30));
        let snap = m.snapshot();
        assert_eq!(snap.admission_capacity, 4);
        assert_eq!(snap.submitted, 5);
        assert_eq!(
            snap.submitted,
            snap.completed + snap.rejected + snap.cancelled
        );
        assert_eq!(snap.completed_for(ClientId(7)), 2);
        assert_eq!(snap.completed_for(ClientId(9)), 1);
        assert_eq!(snap.completed_for(ClientId(1)), 0);
        assert!(snap.jobs_per_sec > 0.0);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let m = MetricsRegistry::new(4);
        for _ in 0..3 {
            m.note_submitted();
        }
        m.note_completed(ClientId(7), Duration::from_micros(10));
        m.note_completed(ClientId(9), Duration::from_micros(2000));
        m.note_rejected();
        let text = m.snapshot().render_prometheus();

        // Every line is a comment or a `name{labels} value` sample whose
        // value parses as a number.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(name.starts_with("pods_"), "unprefixed metric: {line}");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
        }
        // Counters carry TYPE metadata and the lifecycle totals are there.
        for needle in [
            "# TYPE pods_jobs_submitted_total counter",
            "pods_jobs_submitted_total 3",
            "pods_jobs_completed_total 2",
            "pods_jobs_rejected_total 1",
            "# TYPE pods_job_latency_seconds histogram",
            "pods_job_latency_seconds_count 2",
            "pods_jobs_completed_by_client_total{client=\"7\"} 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // Histogram buckets are cumulative with ascending bounds and the
        // +Inf bucket equals the count.
        let mut last_bound = f64::MIN;
        let mut last_count = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("pods_job_latency_seconds_bucket{le=\""))
        {
            let rest = &line["pods_job_latency_seconds_bucket{le=\"".len()..];
            let (bound, count) = rest.split_once("\"} ").unwrap();
            let count: u64 = count.parse().unwrap();
            assert!(count >= last_count, "non-cumulative bucket: {line}");
            last_count = count;
            if bound == "+Inf" {
                assert_eq!(count, 2, "+Inf bucket must equal the count");
            } else {
                let bound: f64 = bound.parse().unwrap();
                assert!(bound > last_bound, "non-ascending le: {line}");
                last_bound = bound;
            }
        }
        assert_eq!(last_count, 2);
    }

    #[test]
    fn depth_peak_is_monotonic() {
        let m = MetricsRegistry::new(8);
        m.set_depth(3);
        m.set_depth(7);
        m.set_depth(2);
        let snap = m.snapshot();
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.queue_depth_peak, 7);
    }
}
