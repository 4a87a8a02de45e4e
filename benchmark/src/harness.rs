//! One run of one workload: set-up, blocks of pieces, the exact-count passes
//! and the metrics derived from them.

use crate::alloc::AllocSnapshot;
use crate::layers;
use crate::metrics::{Report, Values, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::{block_order, median, percentile_in_place, quiet_level, speedup, Better};
use crate::workloads::{self, Job, Workload};
use pods::{
    CompiledProgram, EngineKind, EngineOutcome, EngineStats, JobHandle, PodsError, PreparedProgram,
    Runtime, TraceConfig, Value,
};
use std::path::PathBuf;
use std::time::Instant;

/// A run with fewer blocks has too few samples for a quiet level and fails.
pub const MIN_BLOCKS: usize = 60;
/// A run is this many epochs; each begins with a whole set-up, so `setup_s`
/// is sampled across the run like every other time, and the pooled lanes are
/// measured on several incarnations of their thread pools.
const EPOCHS: usize = 12;
/// How often the warm-up inside a set-up runs every distinct job on every
/// lane (checked against the oracle like any other job). The distinct jobs,
/// not the seed's order of them, so set-up does the same work under any seed.
const WARM_PASSES: usize = 2;
/// PEs of the simulated machine behind `sim_us_8pe`.
const SIM_PES: usize = 8;
/// The simulated pass always runs the inputs of this seed: simulated time
/// depends on the order of `gather_wake`'s probes (by 0.3 %), and a count
/// that is to repeat exactly must not see the seed.
const SIM_SEED: u64 = 0;

/// The lanes. A block of an untraced run visits the two that the gated
/// metrics use; a traced run visits all five.
pub const SEQ: usize = 0;
pub const NATIVE1: usize = 1;
pub const NATIVE_W: usize = 2;
pub const ASYNC_W: usize = 3;
pub const TRACED: usize = 4;
const LANE_NAMES: [&str; 5] = ["seq", "native1", "nativeW", "asyncW", "traced"];
const UNTRACED_LANES: [usize; 2] = [NATIVE_W, ASYNC_W];
const TRACED_LANES: [usize; 5] = [SEQ, NATIVE1, NATIVE_W, ASYNC_W, TRACED];

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Seconds from the start of the run until the last block begins.
    pub seconds: f64,
    /// Traced run: all five lanes, spans, per-layer metrics.
    pub trace: bool,
    /// Waives the block floor (smoke tests run for a second).
    pub allow_short: bool,
    /// Where the span file goes.
    pub out_dir: PathBuf,
}

/// Worker count of the `W` runtimes: the host's parallelism held to 2..=4.
pub fn pool_workers(nproc: usize) -> usize {
    nproc.clamp(2, 4)
}

/// The host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One runtime of a block and the programs pinned on it.
pub struct Lane {
    /// Which lane (`SEQ` .. `TRACED`).
    pub id: usize,
    /// The runtime.
    pub runtime: Runtime,
    /// One handle per source; empty where jobs start from `programs`
    /// (the sequential reference) or from source text (cold pieces).
    prepared: Vec<PreparedProgram>,
}

/// Everything one repetition of the set-up produces.
pub struct Bench {
    /// The compiled sources.
    pub programs: Vec<CompiledProgram>,
    /// The lanes a block visits, in forward order.
    pub lanes: Vec<Lane>,
    /// The oracle's outcome for every distinct job.
    pub expected: Vec<EngineOutcome>,
    /// Time to build the `nativeW` runtime, µs.
    build_us: f64,
}

/// Jobs checked against the oracle, and those that did not match.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs whose outcome was checked.
    pub attempted: u64,
    /// Jobs that failed or disagreed with the oracle.
    pub failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Counts one job: an error, or any difference from the oracle, fails.
    /// `what` names the job in the failure message.
    pub fn check(
        &mut self,
        what: impl FnOnce() -> String,
        expected: &EngineOutcome,
        got: &Result<EngineOutcome, PodsError>,
    ) -> bool {
        self.attempted += 1;
        match got {
            Ok(outcome) => match difference(expected, outcome) {
                None => return true,
                Some(diff) => self.fail(format!("{}: {diff}", what())),
            },
            Err(e) => self.fail(format!("{}: {e}", what())),
        }
        false
    }
}

/// Bit-wise equality, except that array references are equal when both are
/// references (allocation ids legitimately differ between engines; the
/// arrays they name are compared by name).
fn same_value(a: Option<Value>, b: Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::Float(x)), Some(Value::Float(y))) => x.to_bits() == y.to_bits(),
        (Some(Value::ArrayRef(_)), Some(Value::ArrayRef(_))) => true,
        _ => a == b,
    }
}

/// The first difference between an outcome and the oracle's, if any.
fn difference(expected: &EngineOutcome, got: &EngineOutcome) -> Option<String> {
    if !same_value(expected.return_value, got.return_value) {
        return Some(format!(
            "returned {:?}, oracle {:?}",
            got.return_value, expected.return_value
        ));
    }
    fn returned(outcome: &EngineOutcome) -> Option<&str> {
        outcome.returned_array().map(|a| a.name.as_str())
    }
    if returned(expected) != returned(got) {
        return Some("returned another array than the oracle".into());
    }
    if expected.arrays.len() != got.arrays.len() {
        return Some(format!(
            "{} arrays, oracle {}",
            got.arrays.len(),
            expected.arrays.len()
        ));
    }
    for want in &expected.arrays {
        let Some(have) = got.array(&want.name) else {
            return Some(format!("array `{}` missing", want.name));
        };
        if want.shape != have.shape || want.values.len() != have.values.len() {
            return Some(format!("array `{}` has another shape", want.name));
        }
        let same = |(a, b): (&Option<Value>, &Option<Value>)| same_value(*a, *b);
        if let Some(i) = want.values.iter().zip(&have.values).position(|p| !same(p)) {
            return Some(format!(
                "`{}`[{i}] = {:?}, oracle {:?}",
                want.name, have.values[i], want.values[i]
            ));
        }
    }
    None
}

/// Buffers a piece fills while the clock runs, allocated before it starts.
struct Scratch {
    handles: Vec<Result<JobHandle, PodsError>>,
    outcomes: Vec<Result<EngineOutcome, PodsError>>,
    latencies_us: Vec<f64>,
}

impl Scratch {
    fn for_piece(jobs: usize, round: usize) -> Scratch {
        Scratch {
            handles: Vec::with_capacity(round),
            outcomes: Vec::with_capacity(jobs),
            latencies_us: Vec::with_capacity(jobs),
        }
    }
}

/// Runs `jobs` — whole rounds of the workload — on one lane and returns the
/// wall time in µs and what the whole process allocated meanwhile. Outcomes
/// and per-job latencies are left in `scratch`; a job's latency runs from
/// the start of its round to its `wait` returning.
fn run_rounds(
    bench: &Bench,
    lane: &Lane,
    workload: &Workload,
    jobs: &[Job],
    scratch: &mut Scratch,
    log: &mut SpanLog,
    first_job: u64,
) -> (f64, AllocSnapshot) {
    let Lane {
        id,
        runtime,
        prepared,
    } = lane;
    let cold = workload.cold && *id != SEQ;
    scratch.outcomes.clear();
    scratch.latencies_us.clear();
    let mut next = first_job;
    let before = AllocSnapshot::now();
    let start = Instant::now();
    for round in jobs.chunks(workload.round) {
        let round_start = Instant::now();
        let round_id = next;
        let round_span = log.enter("round", round_id);
        for job in round {
            let distinct = &workload.distinct[job.distinct];
            let args = &distinct.args;
            let handle = if cold {
                let span = log.enter("pipeline.compile", next);
                let compiled = pods::compile(&workload.sources[distinct.program]);
                log.exit(span);
                compiled.and_then(|compiled| {
                    let span = log.enter("runtime.prepare", next);
                    let pinned = runtime.prepare(&compiled);
                    log.exit(span);
                    let span = log.enter("service.submit", next);
                    let handle = runtime.submit_for(job.client, &pinned, args);
                    log.exit(span);
                    handle
                })
            } else {
                let span = log.enter("service.submit", next);
                let handle = match prepared.get(distinct.program) {
                    Some(pinned) => runtime.submit_for(job.client, pinned, args),
                    None => runtime.submit_for(job.client, &bench.programs[distinct.program], args),
                };
                log.exit(span);
                handle
            };
            scratch.handles.push(handle);
            next += 1;
        }
        for (i, handle) in scratch.handles.drain(..).enumerate() {
            let span = log.enter("service.wait", round_id + i as u64);
            let outcome = handle.and_then(JobHandle::wait);
            log.exit(span);
            scratch
                .latencies_us
                .push(round_start.elapsed().as_secs_f64() * 1e6);
            scratch.outcomes.push(outcome);
        }
        log.exit(round_span);
    }
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    (wall_us, AllocSnapshot::now().since(before))
}

/// Checks the outcomes `run_rounds` left in `scratch` against the oracle
/// and hands every matching one to `matched`.
fn check_rounds(
    bench: &Bench,
    lane: usize,
    jobs: &[Job],
    workload: &Workload,
    scratch: &Scratch,
    tally: &mut Tally,
    mut matched: impl FnMut(&EngineOutcome),
) {
    for (job, outcome) in jobs.iter().zip(&scratch.outcomes) {
        let what = || format!("{} on {}", workload.name, LANE_NAMES[lane]);
        if tally.check(what, &bench.expected[job.distinct], outcome) {
            matched(outcome.as_ref().expect("checked outcomes are Ok"));
        }
    }
}

/// The whole set-up: compile every source, build the runtimes, pin the
/// programs, compute the oracle's result of every distinct job, and run a
/// checked warm-up of `WARM_PASSES` passes over them on every lane.
pub fn set_up(
    workload: &Workload,
    workers: usize,
    trace: bool,
    tally: &mut Tally,
) -> Result<Bench, String> {
    let programs = workload
        .sources
        .iter()
        .map(|source| pods::compile(source))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{}: {e}", workload.name))?;

    // Builder defaults plus engine and workers, nothing else, so two commits
    // are measured under the same configuration.
    let ids: &[usize] = if trace {
        &TRACED_LANES
    } else {
        &UNTRACED_LANES
    };
    let mut build_us = 0.0;
    let mut lanes = Vec::with_capacity(ids.len());
    for &id in ids {
        let start = Instant::now();
        let runtime = match id {
            SEQ => Runtime::builder(EngineKind::Seq).workers(1).build(),
            NATIVE1 => Runtime::builder(EngineKind::Native).workers(1).build(),
            NATIVE_W => Runtime::builder(EngineKind::Native)
                .workers(workers)
                .build(),
            ASYNC_W => Runtime::builder(EngineKind::AsyncCoop)
                .workers(workers)
                .build(),
            _ => Runtime::builder(EngineKind::Native)
                .workers(workers)
                .trace(TraceConfig::new())
                .build(),
        };
        if id == NATIVE_W {
            build_us = start.elapsed().as_secs_f64() * 1e6;
        }
        let prepared = if id == SEQ || workload.cold {
            Vec::new()
        } else {
            programs.iter().map(|p| runtime.prepare(p)).collect()
        };
        lanes.push(Lane {
            id,
            runtime,
            prepared,
        });
    }

    let oracle = Runtime::builder(EngineKind::Seq).workers(1).build();
    let mut expected = Vec::with_capacity(workload.distinct.len());
    for distinct in &workload.distinct {
        let outcome = oracle
            .run(&programs[distinct.program], &distinct.args)
            .map_err(|e| format!("{}: the oracle failed: {e}", workload.name))?;
        expected.push(outcome);
    }

    let bench = Bench {
        programs,
        lanes,
        expected,
        build_us,
    };
    let warm_up: Vec<Job> = (0..WARM_PASSES * workload.distinct.len())
        .map(|i| Job {
            distinct: i % workload.distinct.len(),
            client: pods::ClientId::ANONYMOUS,
        })
        .collect();
    let mut scratch = Scratch::for_piece(warm_up.len(), workload.round);
    let mut log = SpanLog::new(false);
    for lane in &bench.lanes {
        run_rounds(&bench, lane, workload, &warm_up, &mut scratch, &mut log, 0);
        check_rounds(&bench, lane.id, &warm_up, workload, &scratch, tally, |_| {});
        // Warm-up events must not count as a traced piece's.
        lane.runtime.take_trace();
    }
    Ok(bench)
}

/// Drops a set-up's products and returns how long the `nativeW` runtime
/// took to drop (it joins its workers), µs.
fn tear_down(bench: Bench) -> f64 {
    let mut drop_us = 0.0;
    for lane in bench.lanes {
        let id = lane.id;
        let start = Instant::now();
        drop(lane);
        if id == NATIVE_W {
            drop_us = start.elapsed().as_secs_f64() * 1e6;
        }
    }
    drop_us
}

/// Scheduler and store counters of the jobs a lane ran, summed from the
/// stats structs the runtime returns with every outcome.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Jobs folded in.
    pub jobs: u64,
    pub instances: u64,
    pub tasks: u64,
    pub parks: u64,
    pub steals: u64,
    pub wakeups: u64,
    pub wakeup_flushes: u64,
    pub arena_reuses: u64,
    pub chunk_iterations: u64,
    pub super_ops: u64,
    pub polls: u64,
    pub suspensions: u64,
    /// Sum over jobs of the arrays their store held at its peak.
    pub arrays: u64,
    /// Largest per-job store, bytes.
    pub peak_bytes: u64,
    /// Jobs that carried a flight-recorder breakdown, and its sums.
    pub traced_jobs: u64,
    pub queue_us: u64,
    pub dispatch_us: u64,
    pub run_us: u64,
    pub blocked_us: u64,
}

impl Counters {
    fn fold(&mut self, outcome: &EngineOutcome) {
        self.jobs += 1;
        let store = match &outcome.stats {
            EngineStats::Native { stats, .. } => {
                self.instances += stats.instances;
                self.tasks += stats.tasks;
                self.parks += stats.parks;
                self.steals += stats.steals;
                self.wakeups += stats.wakeups;
                self.wakeup_flushes += stats.wakeup_flushes;
                self.arena_reuses += stats.arena_reuses;
                self.chunk_iterations += stats.chunk_iterations;
                self.super_ops += stats.super_ops;
                stats.store
            }
            EngineStats::AsyncCoop { stats, .. } => {
                self.instances += stats.instances;
                self.polls += stats.polls;
                self.suspensions += stats.suspensions;
                self.steals += stats.steals;
                stats.store
            }
            _ => return,
        };
        self.arrays += store.peak_arrays as u64;
        self.peak_bytes = self.peak_bytes.max(store.peak_bytes as u64);
        if let Some(b) = &outcome.diagnostics {
            self.traced_jobs += 1;
            self.queue_us += b.queue_us;
            self.dispatch_us += b.dispatch_us;
            self.run_us += b.run_us;
            self.blocked_us += b.blocked_us;
        }
    }

    /// `total / jobs`, 0 before any job.
    pub fn per_job(&self, total: u64) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            total as f64 / self.jobs as f64
        }
    }
}

/// The quiet level of one of a lane's series (all are lower-is-better).
pub fn quiet(series: &[f64]) -> f64 {
    quiet_level(series, Better::Lower)
}

/// One value per block for each quantity a lane is measured by; the latency
/// percentiles have one per mirrored pair of blocks, so that `simple_solo`,
/// whose jobs take 10 ms, gets the twenty samples a p90 needs from two
/// pieces of ten and a block stays short.
#[derive(Debug, Default, Clone)]
pub struct LaneSeries {
    /// Piece wall time / jobs, µs.
    pub us_per_job: Vec<f64>,
    /// Median job latency over the two pieces of a pair of blocks, µs.
    pub p50_us: Vec<f64>,
    /// 90th-percentile job latency over the same two pieces, µs.
    pub p90_us: Vec<f64>,
    /// Latencies of the first piece of a pair, until the second has run.
    pair_latencies_us: Vec<f64>,
    /// Allocation calls of the whole process during the piece / jobs.
    pub allocs_per_job: Vec<f64>,
    /// KiB requested during the piece / jobs.
    pub kib_per_job: Vec<f64>,
    /// Counters summed over every job of every block.
    pub counters: Counters,
}

impl LaneSeries {
    /// The quiet level of the lane's µs per job.
    pub fn quiet_us(&self) -> f64 {
        quiet(&self.us_per_job)
    }
}

/// What the blocks of a run measured.
pub struct Measured {
    /// One series per lane, indexed by `SEQ` .. `TRACED`; a lane the run
    /// does not visit stays empty.
    pub lanes: [LaneSeries; 5],
    /// Blocks completed.
    pub blocks: usize,
    /// Jobs run so far (span job ids continue across pieces).
    next_job: u64,
    /// Flight-recorder events drained from the traced runtime, and lost.
    pub trace_events: u64,
    pub trace_dropped: u64,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            lanes: Default::default(),
            blocks: 0,
            next_job: 0,
            trace_events: 0,
            trace_dropped: 0,
        }
    }
}

/// Runs blocks on `bench` until `deadline`, and two at least (one of each
/// order), appending to `measured`.
fn run_blocks(
    bench: &Bench,
    workload: &Workload,
    deadline: Instant,
    measured: &mut Measured,
    tally: &mut Tally,
    log: &mut SpanLog,
) {
    let mut scratch = Scratch::for_piece(workload.jobs.len(), workload.round);
    let first_block = measured.blocks;
    while measured.blocks < first_block + 2 || Instant::now() < deadline {
        let closes_pair = measured.blocks % 2 == 1;
        for position in block_order(measured.blocks, bench.lanes.len()) {
            let lane = &bench.lanes[position];
            let jobs = &workload.jobs[..workload.lane_jobs[lane.id]];
            log.set_enabled(lane.id == TRACED);
            let (wall_us, allocs) = run_rounds(
                bench,
                lane,
                workload,
                jobs,
                &mut scratch,
                log,
                measured.next_job,
            );
            log.set_enabled(false);
            measured.next_job += jobs.len() as u64;
            // The clock has stopped: check, then summarise.
            let series = &mut measured.lanes[lane.id];
            check_rounds(bench, lane.id, jobs, workload, &scratch, tally, |outcome| {
                series.counters.fold(outcome);
            });
            let jobs = jobs.len() as f64;
            series.us_per_job.push(wall_us / jobs);
            series
                .pair_latencies_us
                .extend_from_slice(&scratch.latencies_us);
            if closes_pair {
                let pair = &mut series.pair_latencies_us;
                series.p50_us.push(percentile_in_place(pair, 50.0));
                series.p90_us.push(percentile_in_place(pair, 90.0));
                pair.clear();
            }
            series.allocs_per_job.push(allocs.calls as f64 / jobs);
            series.kib_per_job.push(allocs.bytes as f64 / 1024.0 / jobs);
            if lane.id == TRACED {
                // Drained every piece so the rings never overflow from age.
                let trace = lane.runtime.take_trace();
                measured.trace_events += trace.len() as u64 + trace.dropped;
                measured.trace_dropped += trace.dropped;
            }
        }
        measured.blocks += 1;
    }
}

/// Simulated time of the piece's jobs on the machine simulator.
pub struct SimPass {
    /// Mean simulated µs per job at `SIM_PES` PEs and at one PE.
    pub us_per_job: f64,
    pub us_per_job_1pe: f64,
    /// Host time the `SIM_PES` pass took, µs.
    pub host_us: f64,
    /// Simulation events of the `SIM_PES` pass.
    pub events: u64,
    /// Execution-unit utilization at `SIM_PES` PEs, weighted by simulated time.
    pub eu_utilization: f64,
}

/// Runs every distinct job of the `SIM_SEED` inputs once on the simulator at
/// 8 PEs and at 1 PE, checks it against the oracle, and weights it by how
/// often a `nativeW` piece holds it. Simulated time is a count: it repeats
/// exactly, on any host.
fn sim_pass(name: &str, tally: &mut Tally) -> Result<SimPass, String> {
    let workload = workloads::build(name, SIM_SEED).ok_or("unknown workload")?;
    let piece = &workload.jobs[..workload.lane_jobs[NATIVE_W]];
    let oracle = Runtime::builder(EngineKind::Seq).workers(1).build();
    let simulators = [SIM_PES, 1].map(|pes| Runtime::builder(EngineKind::Sim).workers(pes).build());
    let mut pass = SimPass {
        us_per_job: 0.0,
        us_per_job_1pe: 0.0,
        host_us: 0.0,
        events: 0,
        eu_utilization: 0.0,
    };
    for (i, distinct) in workload.distinct.iter().enumerate() {
        let fail = |e: PodsError| format!("{name}: simulated pass: {e}");
        let program = pods::compile(&workload.sources[distinct.program]).map_err(fail)?;
        let expected = oracle.run(&program, &distinct.args).map_err(fail)?;
        let count = piece.iter().filter(|j| j.distinct == i).count() as f64;
        for simulator in &simulators {
            let pes = simulator.workers();
            let outcome = simulator.run(&program, &distinct.args);
            if !tally.check(|| format!("{name} on sim/{pes}"), &expected, &outcome) {
                continue;
            }
            let outcome = outcome.expect("checked outcomes are Ok");
            let simulated = outcome.modelled_us.unwrap_or(0.0) * count;
            if pes == 1 {
                pass.us_per_job_1pe += simulated;
                continue;
            }
            pass.us_per_job += simulated;
            pass.host_us += outcome.wall_us;
            pass.eu_utilization += outcome.eu_utilization().unwrap_or(0.0) * simulated;
            if let EngineStats::Simulated { stats, .. } = &outcome.stats {
                pass.events += stats.events_processed;
            }
        }
    }
    pass.eu_utilization /= pass.us_per_job;
    pass.us_per_job /= piece.len() as f64;
    pass.us_per_job_1pe /= piece.len() as f64;
    Ok(pass)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The revision in `.git` of the working directory, if it is a repository
/// (the driver's checkout is not).
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        rev => rev.chars().take(12).collect(),
    }
}

/// Prints the configuration every lane resolved to.
fn print_config(bench: &Bench, workload: &Workload, options: &Options) {
    println!(
        "# podsbench workload={} seed={} seconds={} trace={} nproc={} git={}",
        workload.name,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        nproc(),
        git_revision()
    );
    println!(
        "# {EPOCHS} epochs (set-up, then blocks); rounds of {} job(s), {}",
        workload.round,
        if workload.cold {
            "cold (compile, prepare, run)"
        } else {
            "warm (pinned prepared programs)"
        }
    );
    for lane in &bench.lanes {
        let rt = &lane.runtime;
        let opts = rt.options();
        println!(
            "# lane {}: {} jobs a piece; engine={} workers={} chunk={} specialize={} \
             delivery_batch={} tracing={}",
            LANE_NAMES[lane.id],
            workload.lane_jobs[lane.id],
            rt.kind(),
            rt.workers(),
            opts.partition.chunk,
            opts.specialize,
            opts.delivery_batch,
            rt.tracing_enabled()
        );
    }
}

/// Runs `workload` as `options` ask, prints the human-readable lines, and
/// returns the report whose JSON form is the last line of the output.
///
/// # Errors
///
/// A set-up that cannot be built, too few blocks, or a metric that is not a
/// finite number.
pub fn run(workload: &Workload, options: &Options, started: Instant) -> Result<Report, String> {
    let workers = pool_workers(nproc());
    let mut tally = Tally::default();
    let mut log = SpanLog::new(false);
    let mut measured = Measured::new();
    let (mut setup_s, mut build_us, mut drop_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut bench: Option<Bench> = None;
    for epoch in 1..=EPOCHS {
        if let Some(previous) = bench.take() {
            drop_us.push(tear_down(previous));
        }
        let start = Instant::now();
        let products = set_up(workload, workers, options.trace, &mut tally)?;
        setup_s.push(start.elapsed().as_secs_f64());
        build_us.push(products.build_us);
        if epoch == 1 {
            print_config(&products, workload, options);
        }
        let share = options.seconds * epoch as f64 / EPOCHS as f64;
        let deadline = started + std::time::Duration::from_secs_f64(share);
        run_blocks(
            &products,
            workload,
            deadline,
            &mut measured,
            &mut tally,
            &mut log,
        );
        bench = Some(products);
    }
    let bench = bench.expect("EPOCHS is at least one");
    if measured.blocks < MIN_BLOCKS && !options.allow_short {
        return Err(format!(
            "{} blocks in {} s; a run needs {MIN_BLOCKS}",
            measured.blocks, options.seconds
        ));
    }
    let sim = sim_pass(workload.name, &mut tally)?;

    let lanes = &measured.lanes;
    let mut values = Values::default();
    if options.trace {
        layers::measure(
            &bench,
            workload,
            &measured,
            &sim,
            (median(&build_us), median(&drop_us)),
            &mut log,
            &mut values,
        )?;
        std::fs::create_dir_all(&options.out_dir)
            .map_err(|e| format!("{}: {e}", options.out_dir.display()))?;
        let path = options
            .out_dir
            .join(format!("spans-{}-{}.json", workload.name, options.seed));
        std::fs::write(&path, log.to_json(workload.name, options.seed))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
        if log.dropped() > 0 {
            println!(
                "# warning: the span file lacks {} spans of the last traced pieces",
                log.dropped()
            );
        }
    } else {
        let native = &lanes[NATIVE_W];
        values.set("setup_s", quiet(&setup_s));
        values.set(
            "async_rel",
            speedup(native.quiet_us(), lanes[ASYNC_W].quiet_us()),
        );
        // Contended scheduling (steals, frames built off the owner's arena)
        // only ever adds allocations, so these take the quiet level too.
        values.set("allocs_per_job", quiet(&native.allocs_per_job));
        values.set("alloc_kib_per_job", quiet(&native.kib_per_job));
        values.set("peak_rss_mb", peak_rss_mib()?);
        values.set("sim_us_8pe", sim.us_per_job);
        values.set("sim_speedup_8pe", sim.us_per_job_1pe / sim.us_per_job);
    }

    println!(
        "# {} blocks; per lane quiet level / median us per job:{}",
        measured.blocks,
        bench
            .lanes
            .iter()
            .map(|lane| {
                let series = &lanes[lane.id];
                format!(
                    " {} {:.1}/{:.1}",
                    LANE_NAMES[lane.id],
                    series.quiet_us(),
                    median(&series.us_per_job)
                )
            })
            .collect::<String>()
    );
    if let Some(failure) = &tally.first_failure {
        println!("# first failure: {failure}");
    }
    let report = Report::new(options.trace, tally.attempted, tally.failed, &values)?;
    for (name, value, unit) in &report.metrics {
        match PER_LAYER.iter().find(|layer| layer.name == name) {
            Some(layer) => println!("{name:<32} {value:>16.6} {unit:<6} moves {}", layer.moves),
            None => println!("{name:<32} {value:>16.6} {unit}"),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn workers_are_the_host_parallelism_held_between_two_and_four() {
        assert_eq!(pool_workers(1), 2);
        assert_eq!(pool_workers(2), 2);
        assert_eq!(pool_workers(3), 3);
        assert_eq!(pool_workers(64), 4);
    }

    #[test]
    fn a_wrong_result_counts_as_failed() {
        let program = pods::compile("def main(n) { return n * 0.5; }").unwrap();
        let oracle = Runtime::builder(EngineKind::Seq).build();
        let expected = oracle.run(&program, &[Value::Int(3)]).unwrap();
        let mut tally = Tally::default();
        let what = |name: &'static str| move || name.to_string();
        assert!(tally.check(
            what("same"),
            &expected,
            &oracle.run(&program, &[Value::Int(3)])
        ));
        assert!(!tally.check(
            what("other"),
            &expected,
            &oracle.run(&program, &[Value::Int(5)])
        ));
        assert!(!tally.check(what("error"), &expected, &oracle.run(&program, &[])));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.first_failure.unwrap().starts_with("other: returned"));
    }

    #[test]
    fn array_contents_are_compared_bit_wise() {
        let a = pods::compile("def main(n) { a = array(n); a[0] = 0.0; return a; }").unwrap();
        let b = pods::compile("def main(n) { a = array(n); a[0] = -0.0; return a; }").unwrap();
        let oracle = Runtime::builder(EngineKind::Seq).build();
        let args = [Value::Int(1)];
        let expected = oracle.run(&a, &args).unwrap();
        assert!(difference(&expected, &oracle.run(&a, &args).unwrap()).is_none());
        let diff = difference(&expected, &oracle.run(&b, &args).unwrap()).unwrap();
        assert!(diff.contains("`a`[0]"), "{diff}");
    }

    #[test]
    fn every_engine_agrees_with_the_oracle_on_every_workload() {
        for (name, _) in workloads::WORKLOADS {
            let workload = workloads::build(name, 11).unwrap();
            let mut tally = Tally::default();
            let bench = set_up(&workload, 2, true, &mut tally).unwrap();
            assert_eq!(bench.lanes.len(), 5);
            sim_pass(name, &mut tally).unwrap();
            assert_eq!(tally.failed, 0, "{name}: {:?}", tally.first_failure);
            assert_eq!(
                tally.attempted as usize,
                (5 * WARM_PASSES + 2) * workload.distinct.len()
            );
        }
    }
}
