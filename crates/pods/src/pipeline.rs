//! The end-to-end PODS pipeline: source → HIR → SP templates → partitioned
//! SPs (paper Figure 3). Execution is the [`Runtime`]'s.

use crate::engine::EngineKind;
use crate::error::PodsError;
use crate::runtime::Runtime;
use pods_idlang::{analyze_loops, HirProgram, LoopInfo};
use pods_istructure::Value;
use pods_machine::MachineConfig;
use pods_partition::{copy_for_partition, partition, PartitionConfig, PartitionReport};
use pods_sp::{translate, SpProgram};
use std::sync::Arc;

/// Options controlling a PODS run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Number of processing elements.
    pub num_pes: usize,
    /// Array page size in elements (paper default: 32).
    pub page_size: usize,
    /// Enable the software cache for remote pages.
    pub remote_page_cache: bool,
    /// Partitioner configuration: the chunk grain.
    pub partition: PartitionConfig,
    /// Safety limit on run-time work (0 = unlimited). Every engine
    /// enforces it against its own unit of progress: `sim` counts
    /// simulation events, `native` counts task executions, and `seq` counts
    /// interpreted statements. Exhaustion is always reported as
    /// [`pods_machine::SimulationError::EventLimitExceeded`].
    pub max_events: u64,
    /// Native engine only: maximum number of I-structure wake-ups a worker
    /// buffers before delivering them in one scheduler transaction
    /// (mirroring the paper's ~20-token routing batches). `1` delivers
    /// after every write (unbatched); values are clamped to at least 1.
    /// Buffers are always force-flushed at task boundaries, so batching
    /// never delays a wake-up past the point where the scheduler could
    /// mistake the job for idle. Ignored by the modelled engines.
    pub delivery_batch: usize,
    /// Pooled engines only: wall-clock budget per job, measured from
    /// submission. A job still queued when its deadline passes is cancelled
    /// before dispatch; a running job is stopped at its next instruction
    /// boundary. Either way `JobHandle::wait` reports
    /// [`PodsError::DeadlineExceeded`]. `None` (the default) means no
    /// deadline. The modelled engines run eagerly inside `submit` and
    /// ignore it.
    pub deadline: Option<std::time::Duration>,
    /// Run the prepare-time specialization pass
    /// ([`pods_sp::specialize_program`]) when partitioning: operand fetches
    /// pre-resolved, straight-line runs fused into super-ops the driver
    /// executes directly. On by default;
    /// [`crate::RuntimeBuilder::specialize`] sets it per runtime. The `seq`
    /// engine interprets the HIR and ignores it.
    pub specialize: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            num_pes: 1,
            page_size: 32,
            remote_page_cache: true,
            partition: PartitionConfig::default(),
            max_events: 0,
            delivery_batch: 16,
            deadline: None,
            specialize: true,
        }
    }
}

impl RunOptions {
    /// Options for a machine with `num_pes` PEs and paper defaults otherwise.
    pub fn with_pes(num_pes: usize) -> Self {
        RunOptions {
            num_pes: num_pes.max(1),
            ..RunOptions::default()
        }
    }

    /// The corresponding machine configuration.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            num_pes: self.num_pes,
            page_size: self.page_size,
            remote_page_cache: self.remote_page_cache,
            timing: Default::default(),
            max_events: self.max_events,
        }
    }
}

/// A compiled PODS program, ready to be partitioned and run on any machine
/// size.
///
/// The program is compiled once and afterwards only referenced: it is a
/// handle to stages shared behind one `Arc`, so a clone (the one every
/// prepared program keeps of its source, say) copies a pointer.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    stages: Arc<Stages>,
}

/// The pipeline stages behind a [`CompiledProgram`].
#[derive(Debug)]
struct Stages {
    /// Process-unique identity assigned at [`compile`] time; clones share
    /// it (their pipeline stages are identical by construction). This is
    /// the interning key for [`crate::Runtime`]'s prepared-program cache.
    identity: u64,
    hir: HirProgram,
    loops: Vec<LoopInfo>,
    sp: SpProgram,
}

/// Source of [`CompiledProgram::identity`] values.
static NEXT_PROGRAM_IDENTITY: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl CompiledProgram {
    /// The program's process-unique identity (shared by clones). Two
    /// programs compiled separately — even from identical source — get
    /// distinct identities; use [`pods_sp::SpProgram::fingerprint`] for
    /// structural comparison.
    pub fn identity(&self) -> u64 {
        self.stages.identity
    }

    /// The HIR.
    pub fn hir(&self) -> &HirProgram {
        &self.stages.hir
    }

    /// The loop-nest analysis (LCDs, distribution targets).
    pub fn loops(&self) -> &[LoopInfo] {
        &self.stages.loops
    }

    /// The untransformed SP program (before partitioning).
    pub fn sp_program(&self) -> &SpProgram {
        &self.stages.sp
    }

    /// Number of parameters of `main`.
    pub fn main_arity(&self) -> Option<usize> {
        self.hir().entry().map(|f| f.params.len())
    }

    /// Partitions the SP program for the given options and returns it
    /// together with the partition report.
    pub fn partitioned(&self, options: &RunOptions) -> (SpProgram, PartitionReport) {
        let mut program = copy_for_partition(&self.stages.sp);
        let mut report = partition(&mut program, &self.stages.loops, &options.partition);
        if options.specialize {
            // Specialization runs after partitioning so the plans cover the
            // partitioned code exactly (RF prologues, chunked bodies). Every
            // prepare path — explicit or cached auto-prepare — funnels
            // through here, so a plan is never stale.
            let summary = pods_sp::specialize_program(&mut program);
            report.specialized_templates = summary.specialized_templates;
            report.fused_consts = summary.fused_consts;
            report.super_ops = summary.super_ops;
        }
        (program, report)
    }
}

/// Compiles `source` through the front half of the pipeline (compile, loop
/// analysis, SP translation).
///
/// # Errors
///
/// Returns a [`PodsError`] describing the first failing stage.
pub fn compile(source: &str) -> Result<CompiledProgram, PodsError> {
    let hir = pods_idlang::compile(source)?;
    let loops = analyze_loops(&hir);
    let sp = translate(&hir)?;
    Ok(CompiledProgram {
        stages: Arc::new(Stages {
            identity: NEXT_PROGRAM_IDENTITY.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            hir,
            loops,
            sp,
        }),
    })
}

/// A measured point of a speed-up curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Number of PEs.
    pub pes: usize,
    /// Elapsed time in microseconds, on the engine's preferred clock.
    pub elapsed_us: f64,
    /// Speed-up relative to the single-PE run of the same sweep.
    pub speedup: f64,
    /// Average Execution-Unit utilization.
    pub eu_utilization: f64,
}

/// Runs the program once per PE count on engine `kind` and reports each
/// point's elapsed time, its speed-up relative to the first (usually
/// single-PE) configuration, and EU utilization — the measurements behind
/// Figures 9 and 10 of the paper. Each point compares the engine's preferred
/// clock ([`crate::EngineOutcome::elapsed_us`]): modelled time on `sim` and
/// `seq`, wall-clock time on the pooled engines. Each point builds its
/// [`Runtime`] before the run, so a pooled point times execution, not the
/// spawn of its workers.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn speedup_sweep(
    kind: EngineKind,
    program: &CompiledProgram,
    args: &[Value],
    pe_counts: &[usize],
    base_options: &RunOptions,
) -> Result<Vec<SpeedupPoint>, PodsError> {
    let mut points = Vec::new();
    let mut base_time = None;
    for &pes in pe_counts {
        let options = RunOptions {
            num_pes: pes,
            ..base_options.clone()
        };
        let runtime = Runtime::builder(kind).options(options).build();
        let outcome = runtime.run(program, args)?;
        let elapsed = outcome.elapsed_us();
        let base = *base_time.get_or_insert(elapsed);
        points.push(SpeedupPoint {
            pes,
            elapsed_us: elapsed,
            speedup: if elapsed > 0.0 { base / elapsed } else { 0.0 },
            eu_utilization: outcome.eu_utilization().unwrap_or(0.0),
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MATRIX_FILL: &str = r#"
        def main(n) {
            a = matrix(n, n);
            for i = 0 to n - 1 {
                for j = 0 to n - 1 {
                    a[i, j] = i * n + j;
                }
            }
            return a;
        }
    "#;

    #[test]
    fn compile_exposes_all_pipeline_stages() {
        let program = compile(MATRIX_FILL).unwrap();
        assert_eq!(program.main_arity(), Some(1));
        assert_eq!(program.loops().len(), 2);
        assert_eq!(program.sp_program().len(), 3);
    }

    fn simulator(pes: usize) -> Runtime {
        Runtime::builder(EngineKind::Sim).workers(pes).build()
    }

    #[test]
    fn run_produces_complete_results() {
        let program = compile(MATRIX_FILL).unwrap();
        let outcome = simulator(4).run(&program, &[Value::Int(8)]).unwrap();
        let array = outcome.returned_array().unwrap();
        assert!(array.is_complete());
        assert_eq!(outcome.partition().unwrap().distributed_loops().count(), 1);
        assert!(outcome.elapsed_us() > 0.0);
        assert!(outcome.simulation_stats().unwrap().elapsed_seconds() > 0.0);
    }

    #[test]
    fn argument_and_entry_validation() {
        let program = compile(MATRIX_FILL).unwrap();
        assert!(matches!(
            simulator(1).run(&program, &[]),
            Err(PodsError::ArgumentMismatch {
                expected: 1,
                got: 0
            })
        ));
        let no_main = compile("def helper(x) { return x; }").unwrap();
        assert!(matches!(
            simulator(1).run(&no_main, &[]),
            Err(PodsError::MissingEntry)
        ));
    }

    #[test]
    fn speedup_sweep_is_monotone_for_parallel_work() {
        let program = compile(MATRIX_FILL).unwrap();
        let points = speedup_sweep(
            EngineKind::Sim,
            &program,
            &[Value::Int(16)],
            &[1, 2, 4],
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        assert!((points[0].speedup - 1.0).abs() < 1e-9);
        assert!(points[2].speedup > points[0].speedup);
        assert!(points[2].eu_utilization > 0.0);
    }

    #[test]
    fn read_slot_tables_match_every_partitioned_workload() {
        // The flat table a prepare builds, over every workload partitioned
        // at the default configuration (Range-Filter prologues included),
        // lists each instruction's reads at its (template, pc).
        let mut range_filters = 0;
        for source in [
            pods_workloads::PAPER_EXAMPLE,
            pods_workloads::FILL,
            pods_workloads::MATMUL,
            pods_workloads::STENCIL,
            pods_workloads::RECURRENCE,
            pods_workloads::simple::SIMPLE,
        ] {
            let (sp, _) = compile(source).unwrap().partitioned(&RunOptions::default());
            let table = pods_sp::exec::build_read_slots(&sp);
            assert_eq!(table.len(), sp.len());
            for template in sp.templates() {
                let reads = table.template(template.id);
                assert_eq!(reads.len(), template.code.len());
                for (pc, instr) in template.code.iter().enumerate() {
                    let expected: Vec<_> = instr.reads().collect();
                    assert_eq!(reads.at(pc), expected, "{} pc {pc}", template.name);
                    range_filters += usize::from(matches!(
                        instr,
                        pods_sp::Instr::RangeLo { .. } | pods_sp::Instr::RangeHi { .. }
                    ));
                }
            }
        }
        assert!(range_filters > 0, "the partitioner inserted Range Filters");
    }

    #[test]
    fn partitioning_attaches_specialization_plans() {
        let program = compile(MATRIX_FILL).unwrap();
        let on = RunOptions {
            specialize: true,
            ..RunOptions::with_pes(2)
        };
        let (sp, report) = program.partitioned(&on);
        assert!(report.specialized_templates > 0);
        assert!(report.super_ops > 0);
        assert!(sp.templates().iter().all(|t| t.plan.is_some()));

        let off = RunOptions {
            specialize: false,
            ..RunOptions::with_pes(2)
        };
        let (sp, report) = program.partitioned(&off);
        assert_eq!((report.specialized_templates, report.super_ops), (0, 0));
        assert!(sp.templates().iter().all(|t| t.plan.is_none()));
        assert_ne!(
            program.partitioned(&on).0.fingerprint(),
            sp.fingerprint(),
            "specialization is part of structural identity"
        );
    }
}
