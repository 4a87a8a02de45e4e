//! The long-lived execution context of PODS: [`Runtime`], built by
//! [`RuntimeBuilder`].
//!
//! The paper's thesis is that iteration-level parallelism pays off when
//! spawn overhead is amortised. A `Runtime` is the one way to run a
//! program, and it separates program construction from execution the way
//! Timely Dataflow's `execute` layer does: build it once, then `run` any
//! number of compiled programs (or argument sets) against the *same*
//! persistent worker pool.
//!
//! * [`Runtime::run`] — one program, blocking, on the warm pool.
//! * [`Runtime::submit`] / [`JobHandle::wait`] — asynchronous submission;
//!   many jobs can be in flight on one pool at once, each with fully
//!   isolated per-job state (instance queues, I-structure store, deadlock
//!   detection).
//! * [`Runtime::run_many`] — batch form: submit everything, then collect.
//!
//! `Runtime` is `Sync`: share `&Runtime` across OS threads and submit from
//! all of them concurrently.
//!
//! # The warm path: prepared programs
//!
//! Submitting a raw [`CompiledProgram`] still has to clone its SP program,
//! run the partitioner over it, and build its read-slot table (one flat
//! table for every template). All three are pure functions of `(program,
//! partition config)`, so the runtime amortises them: [`Runtime::prepare`]
//! produces an `Arc`-shared, immutable [`PreparedProgram`], and
//! `run`/`submit`/`run_many` accept either form. Raw programs are
//! auto-prepared through a small LRU cache keyed by the program's interned
//! identity, so even callers that never touch `prepare` pay the setup once
//! per program, not once per run.
//!
//! ```
//! use pods::{compile, EngineKind, Runtime, Value};
//!
//! let program = compile(
//!     "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * i; } return a; }",
//! )?;
//! let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
//! // Prepare once; every subsequent run pays only job submission.
//! let prepared = runtime.prepare(&program);
//! for n in [4, 8, 16] {
//!     let outcome = runtime.run(&prepared, &[Value::Int(n)])?;
//!     assert!(outcome.returned_array().unwrap().is_complete());
//! }
//! // Raw programs work too — the runtime's LRU cache makes repeat runs
//! // just as warm.
//! let outcome = runtime.run(&program, &[Value::Int(6)])?;
//! assert!(outcome.returned_array().unwrap().is_complete());
//! # Ok::<(), pods::PodsError>(())
//! ```
//!
//! A `PreparedProgram` is a pure function of the program and the runtime's
//! configuration: once made, it never changes. It is also
//! machine-size-independent (Range Filters compute per-worker
//! responsibility at run time), so one handle serves runtimes with
//! different worker counts; only the partitioner configuration must match
//! the preparing runtime's.

use crate::engine::{
    build_read_slots, check_invocation, seq, sim, EngineKind, EngineOutcome, JobNotifier, JobSpec,
    Pooled, ReadSlots,
};
use crate::error::PodsError;
use crate::pipeline::{CompiledProgram, RunOptions};
use crate::service::metrics::MetricsRegistry;
use crate::service::queue::Ticket;
use crate::service::{ClientId, JobService, ServiceInner, ServiceMetrics};
use crate::trace::{JobTrace, TraceConfig, TraceEventKind, TraceHandle, TraceRecorder};
use pods_istructure::Value;
use pods_partition::{ChunkPolicy, PartitionConfig, PartitionReport};
use pods_sp::SpProgram;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configures and builds a [`Runtime`].
///
/// The builder absorbs everything that used to travel in an ad-hoc
/// [`RunOptions`] value: engine kind, worker/PE count, page size, the
/// remote-page cache switch, partitioner configuration, and the task/event
/// safety limit.
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    kind: EngineKind,
    opts: RunOptions,
    admission_capacity: usize,
    dispatch_window: Option<usize>,
    client_weights: HashMap<ClientId, u32>,
    trace: Option<TraceConfig>,
}

/// Capacity of a runtime's prepared-program LRU cache, in programs: how
/// many raw [`CompiledProgram`]s stay prepared for warm resubmission.
pub const PREPARED_CACHE: usize = 16;

impl RuntimeBuilder {
    /// Starts a builder for the given engine kind. Workers default to the
    /// host's available parallelism; everything else defaults to the
    /// paper's values ([`RunOptions::default`]).
    pub fn new(kind: EngineKind) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        RuntimeBuilder {
            kind,
            opts: RunOptions::with_pes(workers),
            admission_capacity: 0,
            dispatch_window: None,
            client_weights: HashMap::new(),
            trace: None,
        }
    }

    /// Number of worker threads (native, async) or simulated PEs (sim). Clamped
    /// to at least one.
    pub fn workers(mut self, workers: usize) -> Self {
        self.opts.num_pes = workers.max(1);
        self
    }

    /// Array page size in elements (paper default: 32).
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.opts.page_size = page_size.max(1);
        self
    }

    /// Enables or disables the software cache for remote pages (sim only).
    pub fn remote_page_cache(mut self, enabled: bool) -> Self {
        self.opts.remote_page_cache = enabled;
        self
    }

    /// Grain-size control policy (default `Fixed(1)`, the untouched
    /// fine-grained program). [`ChunkPolicy::Fixed`]`(n)` groups `n`
    /// consecutive inner-loop iterations into one SP instance (`Fixed(0)`
    /// is clamped to `Fixed(1)`); [`ChunkPolicy::Auto`] sizes each chunk
    /// from the loop body at prepare time. The chunk policy is part of the
    /// partitioner configuration, so prepared handles only run on runtimes
    /// with a matching policy.
    pub fn chunk_policy(mut self, policy: ChunkPolicy) -> Self {
        self.opts.partition.chunk = match policy {
            ChunkPolicy::Fixed(n) => ChunkPolicy::Fixed(n.max(1)),
            ChunkPolicy::Auto => ChunkPolicy::Auto,
        };
        self
    }

    /// Safety limit on simulation events / native task executions /
    /// interpreted statements (0 = unlimited). See
    /// [`RunOptions::max_events`] for what each engine counts.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.opts.max_events = max_events;
        self
    }

    /// Native engine: how many I-structure wake-ups a worker buffers before
    /// delivering them in one scheduler transaction (default 16, the order
    /// of the paper's ~20-token routing batches; clamped to at least 1,
    /// which is unbatched delivery). See [`RunOptions::delivery_batch`].
    pub fn delivery_batch(mut self, batch: usize) -> Self {
        self.opts.delivery_batch = batch.max(1);
        self
    }

    /// Enables or disables the prepare-time specialization pass (default
    /// on). Specialization pre-resolves operand fetches and fuses
    /// straight-line runs into super-ops at prepare time; disabling it
    /// keeps every instruction on the plain interpreter loop — useful for
    /// debugging and A/B benching. Part of prepared identity: a handle
    /// prepared with one setting will not run on a runtime with the other.
    pub fn specialize(mut self, enabled: bool) -> Self {
        self.opts.specialize = enabled;
        self
    }

    /// Bounds the admission queue of the pooled runtimes at `jobs` queued
    /// submissions (default `0` = unbounded). At capacity,
    /// [`Runtime::submit_within`] blocks up to its wait (rejecting with
    /// [`PodsError::QueueFull`] at once for a zero wait), and plain
    /// [`Runtime::submit`] blocks until a slot frees — bounded admission is
    /// how a shared runtime pushes back on producers instead of buffering
    /// without limit. Modelled engines run jobs eagerly and never queue.
    pub fn admission_capacity(mut self, jobs: usize) -> Self {
        self.admission_capacity = jobs;
        self
    }

    /// Maximum jobs dispatched to the worker pool concurrently (clamped to
    /// at least 1; default = the worker count). Jobs beyond the window wait
    /// in the admission queue, where per-client fairness is enforced — a
    /// narrower window trades pool concurrency for stricter fairness and
    /// lower per-job interference.
    pub fn dispatch_window(mut self, jobs: usize) -> Self {
        self.dispatch_window = Some(jobs.max(1));
        self
    }

    /// Default deadline for every job submitted to this runtime (pooled
    /// engines only). Shorthand for setting [`RunOptions::deadline`]; see
    /// there for the exact semantics.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Sets a client's fair-share weight (default 1, clamped to at least
    /// 1): when the admission queue holds jobs from several clients, the
    /// dispatcher serves them deficit-round-robin, `weight` jobs per visit,
    /// so a weight-2 client receives ~2x the dispatch rate of a weight-1
    /// client while both have work queued. Tag submissions with
    /// [`Runtime::submit_for`] or [`Runtime::submit_within`] to attribute
    /// them to a client.
    pub fn client_weight(mut self, client: ClientId, weight: u32) -> Self {
        self.client_weights.insert(client, weight.max(1));
        self
    }

    /// Enables the flight recorder: every layer of the runtime (service,
    /// pooled schedulers, the shared exec core — and the machine simulator,
    /// through the same hook) records timestamped events into bounded
    /// per-worker rings, drained with [`Runtime::take_trace`]. Off by
    /// default. See [`crate::trace`].
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Replaces the whole option block at once (for callers that already
    /// hold a [`RunOptions`]).
    pub fn options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Builds the runtime. For the pooled kinds ([`EngineKind::Native`],
    /// [`EngineKind::AsyncCoop`]) this spawns the persistent worker pool
    /// immediately, so the first `run` is already warm.
    pub fn build(self) -> Runtime {
        let pool = self.kind.spawn_pool(self.opts.num_pes);
        let metrics = Arc::new(MetricsRegistry::new(self.admission_capacity));
        let window = self.dispatch_window.unwrap_or(self.opts.num_pes).max(1);
        let trace = self
            .trace
            .map(|cfg| Arc::new(TraceRecorder::new(self.opts.num_pes, cfg.buffer_size)));
        let service = pool.as_ref().map(|pool| {
            JobService::start(
                Arc::downgrade(pool),
                self.opts.clone(),
                self.admission_capacity,
                window,
                self.client_weights,
                Arc::clone(&metrics),
                trace.clone(),
            )
        });
        Runtime {
            kind: self.kind,
            opts: self.opts,
            pool,
            prepared: Mutex::new(Vec::new()),
            metrics,
            service,
            trace,
        }
    }
}

/// A persistent, typed execution context.
///
/// For [`EngineKind::Native`] the runtime owns a work-stealing worker pool
/// that stays alive across `run` calls — per-run cost is one job
/// submission, not a pool spawn. For the modelled engines (`sim`, `seq`)
/// the runtime runs the engine on the calling thread (those engines are
/// single-threaded models with no pool to keep warm).
///
/// Dropping the runtime joins the worker threads; outstanding jobs —
/// queued or in flight — are cut short at the next instruction boundary
/// and fail with a cancellation error rather than hanging their waiters.
pub struct Runtime {
    kind: EngineKind,
    opts: RunOptions,
    /// The strong owner of the worker pool (`None` for the modelled
    /// engines, which run eagerly on the calling thread). The job service
    /// holds only a `Weak` reference: job handles keep the service alive,
    /// and dropping the runtime must still tear the pool down.
    pool: Option<Arc<dyn Pooled>>,
    /// LRU cache of auto-prepared programs, most recently used last, keyed
    /// by [`CompiledProgram::identity`].
    prepared: Mutex<Vec<PreparedProgram>>,
    /// Service counters; shared with the dispatcher and completion hooks.
    metrics: Arc<MetricsRegistry>,
    /// The admission/fairness/deadline layer — `Some` exactly for the
    /// pooled engine kinds.
    service: Option<JobService>,
    /// The flight recorder — `Some` when the runtime was built with
    /// [`RuntimeBuilder::trace`].
    trace: Option<Arc<TraceRecorder>>,
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Drain the service first (cancels queued jobs, joins the
        // dispatcher); the pool itself is torn down when `pool` — the
        // only strong reference — drops with the remaining fields.
        if let Some(service) = &mut self.service {
            service.shutdown();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("kind", &self.kind)
            .field("workers", &self.opts.num_pes)
            .field("pool_id", &self.pool_id())
            .field("prepared_cached", &self.prepared_cache_size())
            .finish()
    }
}

impl Runtime {
    /// Starts a [`RuntimeBuilder`] for the given kind; `build()` it at once
    /// for the defaults (workers = available parallelism, paper-default
    /// options).
    pub fn builder(kind: EngineKind) -> RuntimeBuilder {
        RuntimeBuilder::new(kind)
    }

    /// The engine kind this runtime executes on.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The effective run options.
    pub fn options(&self) -> &RunOptions {
        &self.opts
    }

    /// Number of workers (native threads or simulated PEs).
    pub fn workers(&self) -> usize {
        self.opts.num_pes
    }

    /// Process-unique identity of the worker pool (native) or cooperative
    /// executor (async), if this runtime owns one — compare against
    /// [`crate::NativeStats::pool_id`] / [`crate::AsyncStats::pool_id`] to
    /// verify reuse.
    pub fn pool_id(&self) -> Option<u64> {
        self.pool.as_ref().map(|pool| pool.id())
    }

    /// Number of programs currently held by the auto-prepare LRU cache.
    pub fn prepared_cache_size(&self) -> usize {
        self.prepared.lock().expect("prepared cache poisoned").len()
    }

    /// Prepares a program for repeated execution on this runtime: clones
    /// the SP program, partitions it under this runtime's configuration,
    /// and builds its read-slot table — once. The returned handle is
    /// `Arc`-shared and immutable; cloning it is two reference bumps, and
    /// submitting it skips every per-run setup step.
    ///
    /// Raw-program submissions consult the same LRU cache this method
    /// feeds, so `prepare` is about *control* (pin a program's prepared
    /// state for as long as you hold the handle, share it across runtimes)
    /// rather than a requirement for warm runs.
    ///
    /// The handle is valid on any runtime whose partitioner configuration
    /// equals this one's — worker counts may differ, because partitioning
    /// is machine-size-independent (Range Filters resolve per-worker
    /// responsibility at run time). Submitting it to a runtime with a
    /// *different* partitioner configuration fails with
    /// [`PodsError::PreparedMismatch`].
    pub fn prepare(&self, program: &CompiledProgram) -> PreparedProgram {
        let identity = program.identity();
        let mut cache = self.prepared.lock().expect("prepared cache poisoned");
        if let Some(hit) = touch(&mut cache, identity) {
            return hit;
        }
        // Build outside the lock: preparation clones and partitions the
        // program, and concurrent submitters of *other* programs should not
        // serialise behind it. A racing prepare of the same program is
        // resolved at insert time (first one in wins).
        drop(cache);
        let fresh = self.prepare_uncached(program);
        let mut cache = self.prepared.lock().expect("prepared cache poisoned");
        if let Some(hit) = touch(&mut cache, identity) {
            return hit;
        }
        if cache.len() >= PREPARED_CACHE {
            cache.remove(0);
        }
        cache.push(fresh.clone());
        fresh
    }

    fn prepare_uncached(&self, program: &CompiledProgram) -> PreparedProgram {
        let (sp, partition) = program.partitioned(&self.opts);
        let read_slots = build_read_slots(&sp);
        let sp = Arc::new(sp);
        PreparedProgram {
            inner: Arc::new(PreparedInner {
                identity: program.identity(),
                fingerprint: sp.fingerprint(),
                partition_cfg: self.opts.partition,
                specialize: self.opts.specialize,
                source: program.clone(),
                sp,
                read_slots: Arc::new(read_slots),
                partition: Arc::new(partition),
            }),
        }
    }

    /// Runs one program to completion on this runtime (blocking). Accepts a
    /// raw `&CompiledProgram` (auto-prepared through the LRU cache) or a
    /// [`PreparedProgram`] handle.
    ///
    /// # Errors
    ///
    /// Returns a [`PodsError`] for malformed invocations and run-time
    /// failures, exactly like the underlying engine.
    pub fn run<P: ProgramSource>(
        &self,
        program: P,
        args: &[Value],
    ) -> Result<EngineOutcome, PodsError> {
        self.submit(program, args)?.wait()
    }

    /// Submits one program for execution and returns a [`JobHandle`].
    /// Accepts a raw `&CompiledProgram` or a [`PreparedProgram`] handle.
    ///
    /// On the pooled runtimes (native thread pool or async cooperative
    /// executor) the job executes asynchronously on the shared pool:
    /// submit many jobs before waiting on any of them and they run
    /// concurrently, each with isolated per-job state. On the modelled
    /// engines the job runs eagerly on the calling thread (they are
    /// single-threaded models; there is no pool to hand them to) and the
    /// handle is immediately ready.
    ///
    /// # Errors
    ///
    /// Returns [`PodsError::MissingEntry`] / [`PodsError::ArgumentMismatch`]
    /// for malformed invocations and [`PodsError::PreparedMismatch`] for a
    /// prepared program whose partitioner configuration differs from this
    /// runtime's; run-time failures surface at [`JobHandle::wait`].
    ///
    /// With a bounded [`RuntimeBuilder::admission_capacity`], `submit`
    /// blocks while the admission queue is full; see
    /// [`Runtime::submit_within`] for the bounded-wait form.
    pub fn submit<P: ProgramSource>(
        &self,
        program: P,
        args: &[Value],
    ) -> Result<JobHandle, PodsError> {
        self.submit_inner(ClientId::ANONYMOUS, program, args, None)
    }

    /// [`Runtime::submit`], attributing the job to `client` for per-client
    /// fair scheduling and metrics (see [`RuntimeBuilder::client_weight`]).
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::submit`].
    pub fn submit_for<P: ProgramSource>(
        &self,
        client: ClientId,
        program: P,
        args: &[Value],
    ) -> Result<JobHandle, PodsError> {
        self.submit_inner(client, program, args, None)
    }

    /// Bounded-wait submission: [`Runtime::submit_for`], but while the
    /// admission queue is at capacity it blocks at most `wait` for a slot
    /// before rejecting the job. `Duration::ZERO` fails fast: a full queue
    /// rejects at once.
    ///
    /// # Errors
    ///
    /// [`PodsError::QueueFull`] when no slot freed within `wait` (the
    /// rejection is counted in [`ServiceMetrics::rejected`]), plus
    /// everything [`Runtime::submit`] returns.
    pub fn submit_within<P: ProgramSource>(
        &self,
        client: ClientId,
        program: P,
        args: &[Value],
        wait: Duration,
    ) -> Result<JobHandle, PodsError> {
        // A wait too long to express as an instant waits without bound.
        let until = Instant::now().checked_add(wait);
        self.submit_inner(client, program, args, until)
    }

    /// A point-in-time snapshot of this runtime's service counters: queue
    /// depth and peak, submitted/completed/rejected/cancelled totals,
    /// throughput, latency percentiles, per-client completions, and
    /// I-structure store peaks. Cheap (atomic loads plus one small map
    /// copy) — safe to poll.
    pub fn metrics(&self) -> ServiceMetrics {
        self.metrics.snapshot()
    }

    /// Drains the flight recorder: every event recorded since the last call
    /// (or since the runtime was built), merged across lanes into one
    /// time-ordered [`JobTrace`]. Serialize it with
    /// [`JobTrace::chrome_trace`] for `chrome://tracing` / Perfetto, or
    /// inspect per-job timing with [`JobTrace::breakdown`]. Returns an
    /// empty trace when the runtime was built without
    /// [`RuntimeBuilder::trace`].
    pub fn take_trace(&self) -> JobTrace {
        match &self.trace {
            Some(rec) => rec.drain(),
            None => JobTrace::default(),
        }
    }

    /// Whether this runtime's flight recorder is enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    fn submit_inner<P: ProgramSource>(
        &self,
        client: ClientId,
        program: P,
        args: &[Value],
        until: Option<Instant>,
    ) -> Result<JobHandle, PodsError> {
        check_invocation(program.compiled(), args)?;
        program.check_compatible(self)?;
        if let Some(service) = &self.service {
            let prepared = program.prepared(self)?;
            let ticket = service.inner.submit(client, prepared, args, until)?;
            return Ok(JobHandle {
                inner: JobInner::Service {
                    svc: Arc::clone(&service.inner),
                    ticket,
                },
            });
        }
        // Modelled engines run eagerly on the calling thread (they are
        // single-threaded models; there is no pool to queue against), so
        // the job is complete — and counted — before `submit` returns.
        self.metrics.note_submitted();
        let started = Instant::now();
        let trace_job = self.trace.as_ref().map(|rec| {
            let job = rec.next_job_id();
            let lane = rec.service_lane();
            rec.emit(lane, job, 0, TraceEventKind::JobAdmitted);
            rec.emit(lane, job, 0, TraceEventKind::JobDispatched);
            (Arc::clone(rec), job)
        });
        let (compiled, opts) = (program.compiled(), &self.opts);
        let mut outcome = match self.kind {
            // The simulator reaches the shared exec core too, so a traced
            // run records the same core events as the pooled engines.
            EngineKind::Sim => {
                let trace = trace_job.as_ref().map(|(rec, job)| TraceHandle {
                    rec: Arc::clone(rec),
                    job: *job,
                });
                sim::run(&program.prepared(self)?, args, opts, trace)
            }
            EngineKind::Seq => seq::run(compiled, args, opts),
            EngineKind::Native | EngineKind::AsyncCoop => {
                unreachable!("pooled kinds submit through their service")
            }
        };
        if let Some((rec, job)) = &trace_job {
            rec.emit(rec.service_lane(), *job, 0, TraceEventKind::JobFinished);
            if let Ok(ok) = &mut outcome {
                ok.diagnostics = rec.peek().breakdown(*job);
            }
        }
        self.metrics.note_completed(client, started.elapsed());
        Ok(JobHandle {
            inner: JobInner::Ready(Box::new(outcome)),
        })
    }

    /// Runs a batch of jobs — `(program, args)` pairs — and returns their
    /// outcomes in submission order. On the native runtime all jobs are
    /// submitted before any is waited on, so they execute concurrently on
    /// the shared pool. The program may be raw or prepared (one type per
    /// batch; prepare everything for mixed batches).
    pub fn run_many<P: ProgramSource>(
        &self,
        jobs: &[(P, &[Value])],
    ) -> Vec<Result<EngineOutcome, PodsError>> {
        let handles: Vec<Result<JobHandle, PodsError>> = jobs
            .iter()
            .map(|(program, args)| self.submit(*program, args))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.and_then(JobHandle::wait))
            .collect()
    }
}

/// Moves the cached preparation of the program `identity` names to the
/// most-recently-used end of `cache` and returns it.
fn touch(cache: &mut Vec<PreparedProgram>, identity: u64) -> Option<PreparedProgram> {
    let i = cache.iter().position(|p| p.inner.identity == identity)?;
    let hit = cache.remove(i);
    cache.push(hit.clone());
    Some(hit)
}

/// An immutable, `Arc`-shared program prepared for execution: the cloned
/// and partitioned SP program, its read-slot table, and the partition
/// report, ready for any number of submissions. Produced by
/// [`Runtime::prepare`]; accepted anywhere a raw [`CompiledProgram`] is
/// (`run`, `submit`, `run_many`). Cloning shares the underlying state.
///
/// The handle is machine-size-independent — it runs on any runtime with
/// the same partitioner configuration, regardless of worker count.
#[derive(Clone)]
pub struct PreparedProgram {
    inner: Arc<PreparedInner>,
}

struct PreparedInner {
    /// The source program's interned identity (cache key).
    identity: u64,
    /// Structural fingerprint of the partitioned SP program.
    fingerprint: u64,
    /// The partitioner configuration the program was prepared under.
    partition_cfg: PartitionConfig,
    /// Whether the prepare-time specialization pass ran (part of prepared
    /// identity: plans alter the warm path, so a handle only runs on
    /// runtimes with the same setting).
    specialize: bool,
    /// The compiled program this was prepared from, retained so the same
    /// handle also runs on a `seq` runtime (which interprets the HIR) and so
    /// invocations can be validated. A clone of a compiled
    /// program shares its stages.
    source: CompiledProgram,
    sp: Arc<SpProgram>,
    read_slots: Arc<ReadSlots>,
    partition: Arc<PartitionReport>,
}

impl PreparedProgram {
    /// The identity of the compiled program this was prepared from
    /// (matches [`CompiledProgram::identity`]).
    pub fn identity(&self) -> u64 {
        self.inner.identity
    }

    /// Structural fingerprint of the partitioned SP program
    /// ([`pods_sp::SpProgram::fingerprint`]): equal for any two
    /// preparations of the same program under the same partitioner
    /// configuration.
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint
    }

    /// The partitioner's per-loop decisions for this preparation.
    pub fn partition_report(&self) -> &PartitionReport {
        &self.inner.partition
    }

    /// The partitioner configuration this program was prepared under; a
    /// runtime accepts the handle iff its configuration equals this.
    pub fn partition_config(&self) -> PartitionConfig {
        self.inner.partition_cfg
    }

    /// Whether two handles share one underlying preparation (`Arc`
    /// identity) — `true` exactly when one was cloned from the other,
    /// e.g. by a cache hit.
    pub fn same_preparation(&self, other: &PreparedProgram) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The partitioned program, its read-slot table and its partition
    /// report, shared: what the simulator runs.
    pub(crate) fn parts(&self) -> (Arc<SpProgram>, Arc<ReadSlots>, Arc<PartitionReport>) {
        let inner = &self.inner;
        (
            Arc::clone(&inner.sp),
            Arc::clone(&inner.read_slots),
            Arc::clone(&inner.partition),
        )
    }

    /// The per-job spec handed to the pooled backends, with `on_done` as
    /// its completion hook: `Arc` bumps only, no program work and no copy
    /// of the partition report.
    pub(crate) fn job_spec(&self, opts: &RunOptions, on_done: Arc<dyn JobNotifier>) -> JobSpec {
        JobSpec {
            program: Arc::clone(&self.inner.sp),
            read_slots: Arc::clone(&self.inner.read_slots),
            partition: Arc::clone(&self.inner.partition),
            page_size: opts.page_size,
            max_tasks: opts.max_events,
            delivery_batch: opts.delivery_batch.max(1),
            on_done,
            trace: None,
        }
    }
}

impl std::fmt::Debug for PreparedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedProgram")
            .field("identity", &self.inner.identity)
            .field(
                "fingerprint",
                &format_args!("{:#018x}", self.inner.fingerprint),
            )
            .field("templates", &self.inner.sp.len())
            .finish()
    }
}

mod sealed {
    /// Seals [`super::ProgramSource`]: the set of submittable program forms
    /// is a closed part of the API.
    pub trait Sealed {}
    impl Sealed for &crate::pipeline::CompiledProgram {}
    impl Sealed for &super::PreparedProgram {}
}

/// A program in a form [`Runtime::run`]/[`Runtime::submit`]/
/// [`Runtime::run_many`] accept: a raw `&`[`CompiledProgram`] (prepared on
/// demand through the runtime's LRU cache) or a `&`[`PreparedProgram`]
/// (already prepared; submission is pure `Arc` sharing). Sealed — these two
/// forms are the whole set.
pub trait ProgramSource: sealed::Sealed + Copy {
    /// The compiled program behind this source (for invocation checks and
    /// the modelled engines).
    #[doc(hidden)]
    fn compiled(&self) -> &CompiledProgram;

    /// Validates this source against `runtime`'s configuration. Checked on
    /// every submission path — native *and* modelled — so a mismatched
    /// prepared handle is rejected uniformly, not only where its prepared
    /// partitioning would actually be executed.
    ///
    /// # Errors
    ///
    /// [`PodsError::PreparedMismatch`] when an already-prepared program was
    /// built under a different partitioner configuration than `runtime`'s.
    #[doc(hidden)]
    fn check_compatible(&self, runtime: &Runtime) -> Result<(), PodsError>;

    /// The prepared form for `runtime`'s native pool.
    ///
    /// # Errors
    ///
    /// Same as [`ProgramSource::check_compatible`].
    #[doc(hidden)]
    fn prepared(&self, runtime: &Runtime) -> Result<PreparedProgram, PodsError>;
}

impl ProgramSource for &CompiledProgram {
    fn compiled(&self) -> &CompiledProgram {
        self
    }

    fn check_compatible(&self, _runtime: &Runtime) -> Result<(), PodsError> {
        Ok(())
    }

    fn prepared(&self, runtime: &Runtime) -> Result<PreparedProgram, PodsError> {
        Ok(runtime.prepare(self))
    }
}

impl ProgramSource for &PreparedProgram {
    fn compiled(&self) -> &CompiledProgram {
        &self.inner.source
    }

    fn check_compatible(&self, runtime: &Runtime) -> Result<(), PodsError> {
        if self.inner.partition_cfg != runtime.opts.partition
            || self.inner.specialize != runtime.opts.specialize
        {
            return Err(PodsError::PreparedMismatch);
        }
        Ok(())
    }

    fn prepared(&self, runtime: &Runtime) -> Result<PreparedProgram, PodsError> {
        self.check_compatible(runtime)?;
        Ok((*self).clone())
    }
}

/// What a submitted job resolves to.
enum JobInner {
    /// The outcome is already available (modelled engines run eagerly).
    Ready(Box<Result<EngineOutcome, PodsError>>),
    /// A job admitted to a pooled runtime's service: its ticket tracks it
    /// from the admission queue through dispatch to completion.
    Service {
        svc: Arc<ServiceInner>,
        ticket: Arc<Ticket>,
    },
}

/// A handle to one submitted job on a [`Runtime`].
///
/// The handle is detachable: dropping it without calling [`wait`] does
/// **not** cancel the job — it still runs to completion (or its deadline)
/// and is counted in [`ServiceMetrics`]; only its outcome is discarded.
/// Use [`JobHandle::cancel`] to actually stop a job.
///
/// [`wait`]: JobHandle::wait
pub struct JobHandle {
    inner: JobInner,
}

impl JobHandle {
    /// Whether the job has already completed (successfully or not).
    /// `wait` will not block once this returns `true`.
    pub fn is_done(&self) -> bool {
        match &self.inner {
            JobInner::Ready(_) => true,
            JobInner::Service { ticket, .. } => ticket.is_done(),
        }
    }

    /// Requests cancellation of the job. A job still in the admission
    /// queue is cancelled outright (it never reaches the pool); a job
    /// already executing is stopped at its next instruction boundary. A
    /// job that already finished is unaffected. In both cancelled cases
    /// [`JobHandle::wait`] reports a cancellation error and the job counts
    /// toward [`ServiceMetrics::cancelled`].
    ///
    /// A no-op on modelled runtimes, whose jobs complete inside `submit`.
    pub fn cancel(&self) {
        if let JobInner::Service { svc, ticket } = &self.inner {
            svc.cancel(ticket);
        }
    }

    /// Blocks until the job completes and returns its outcome.
    ///
    /// # Errors
    ///
    /// Returns whatever the engine reported for this job — errors are
    /// job-scoped and never poison the pool or other jobs. A job cut short
    /// by [`RunOptions::deadline`] reports
    /// [`PodsError::DeadlineExceeded`]; one stopped by
    /// [`JobHandle::cancel`] or a runtime drop reports a cancellation
    /// error.
    pub fn wait(self) -> Result<EngineOutcome, PodsError> {
        match self.inner {
            JobInner::Ready(outcome) => *outcome,
            JobInner::Service { ticket, .. } => ticket.wait(),
        }
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineStats;
    use crate::pipeline::compile;

    fn native_stats(outcome: &EngineOutcome) -> crate::engine::NativeStats {
        match &outcome.stats {
            EngineStats::Native { stats, .. } => *stats,
            other => panic!("expected native stats, got {other:?}"),
        }
    }

    #[test]
    fn builder_configures_all_knobs() {
        let runtime = Runtime::builder(EngineKind::Sim)
            .workers(3)
            .page_size(16)
            .remote_page_cache(false)
            .max_events(10_000)
            .build();
        assert_eq!(runtime.kind(), EngineKind::Sim);
        assert_eq!(runtime.workers(), 3);
        assert_eq!(runtime.options().page_size, 16);
        assert!(!runtime.options().remote_page_cache);
        assert_eq!(runtime.options().max_events, 10_000);
        assert_eq!(runtime.pool_id(), None);
        assert!(format!("{runtime:?}").contains("Sim"));
    }

    #[test]
    fn sequential_runs_share_one_pool() {
        let program =
            compile("def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i + 1; } return a; }")
                .unwrap();
        let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
        let first = runtime.run(&program, &[Value::Int(8)]).unwrap();
        let second = runtime.run(&program, &[Value::Int(12)]).unwrap();
        let (s1, s2) = (native_stats(&first), native_stats(&second));
        assert_eq!(s1.pool_id, runtime.pool_id().unwrap());
        assert_eq!(s1.pool_id, s2.pool_id, "pool was not reused");
        assert_eq!(s1.job_seq, 1);
        assert_eq!(s2.job_seq, 2);
        assert!(second.returned_array().unwrap().is_complete());
    }

    #[test]
    fn modelled_engines_run_through_the_runtime_too() {
        let program = compile("def main(n) { return n * 3; }").unwrap();
        for kind in [EngineKind::Sim, EngineKind::Seq] {
            let runtime = Runtime::builder(kind).workers(2).build();
            let handle = runtime.submit(&program, &[Value::Int(5)]).unwrap();
            assert!(handle.is_done(), "{kind}: modelled jobs are eager");
            let outcome = handle.wait().unwrap();
            assert_eq!(outcome.return_value, Some(Value::Int(15)), "{kind}");
            assert_eq!(outcome.engine, kind.name());
        }
    }

    #[test]
    fn run_many_executes_batches_with_mixed_outcomes() {
        let good = compile("def main(n) { return n + 1; }").unwrap();
        let bad = compile("def main(n) { a = array(n); a[0] = 1; return a[1]; }").unwrap();
        let runtime = Runtime::builder(EngineKind::Native).workers(2).build();
        let args3: &[Value] = &[Value::Int(3)];
        let args9: &[Value] = &[Value::Int(9)];
        let results = runtime.run_many(&[(&good, args3), (&bad, args3), (&good, args9)]);
        assert_eq!(results.len(), 3);
        assert_eq!(
            results[0].as_ref().unwrap().return_value,
            Some(Value::Int(4))
        );
        assert!(results[1].is_err(), "deadlock job must fail alone");
        assert_eq!(
            results[2].as_ref().unwrap().return_value,
            Some(Value::Int(10))
        );
    }

    #[test]
    fn invocation_errors_surface_at_submit() {
        let program = compile("def main(n) { return n; }").unwrap();
        let runtime = Runtime::builder(EngineKind::Native).build();
        assert!(matches!(
            runtime.submit(&program, &[]),
            Err(PodsError::ArgumentMismatch {
                expected: 1,
                got: 0
            })
        ));
    }
}
