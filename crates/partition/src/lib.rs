//! The PODS Partitioner: distributing allocate, `LD`, and Range Filters.
//!
//! This crate implements §4 of the paper. Given the SP templates produced by
//! the translator and the loop analysis of `pods_idlang::analyze_loops`, it
//! rewrites the program so that execution follows the data distribution
//! (*Data-Distributed Execution*):
//!
//! 1. every array allocation becomes a **distributing allocate** (the array
//!    is spread row-major, page by page, over all PEs and every PE builds the
//!    same header),
//! 2. for every loop nest, the **for-loop distribution algorithm** of §4.2.4
//!    selects the outermost level without a loop-carried dependency; the `L`
//!    operator that enters that level becomes a **distributing `LD`**, so an
//!    instance of the level is spawned on every PE, and
//! 3. a **Range Filter** is inserted into the distributed level: the loop
//!    bounds are replaced by `max(init, start_of_responsibility)` /
//!    `min(limit, end_of_responsibility)` computed from the header of the
//!    array the loop writes (Figure 5). Under the first-element-ownership
//!    rule the resulting index subranges are disjoint across PEs, and only
//!    one RF is used per nest regardless of nesting depth (§4.2.3).
//!
//! # Example
//!
//! ```
//! use pods_partition::{partition, PartitionConfig};
//!
//! let hir = pods_idlang::compile(
//!     "def main(n) { a = matrix(n, n);
//!        for i = 0 to n - 1 { for j = 0 to n - 1 { a[i, j] = i + j; } }
//!        return a; }",
//! ).unwrap();
//! let loops = pods_idlang::analyze_loops(&hir);
//! let mut program = pods_sp::translate(&hir).unwrap();
//! let report = partition(&mut program, &loops, &PartitionConfig::default());
//! assert_eq!(report.distributed_loops().count(), 1); // the i-loop
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pods_idlang::{LoopInfo, LoopKey};
use pods_sp::{
    chunk_loop_spawns, Instr, LoopMeta, Name, Operand, SlotId, SpId, SpKind, SpProgram, SpTemplate,
};

pub use pods_sp::{ChunkPolicy, ChunkSummary};

/// Configuration of the partitioning pass. Distribution always follows
/// the paper; only the grain is configurable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PartitionConfig {
    /// Grain-size control: group this many consecutive inner-loop
    /// iterations into one SP instance (see
    /// [`pods_sp::chunk_loop_spawns`]). `Fixed(1)` — the default — leaves
    /// the program untouched; `Auto` sizes the chunk from the loop body.
    /// Applied after distribution, so Range-Filter responsibility
    /// partitioning stays exact under chunking.
    pub chunk: ChunkPolicy,
}

/// Why a loop level was or was not distributed.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopDecision {
    /// The level was distributed: `LD` inserted in the parent and a Range
    /// Filter wired to the given array/dimension.
    Distributed {
        /// The array whose header drives the Range Filter.
        array: Name,
        /// The filtered dimension of the index space.
        dim: usize,
    },
    /// The level has a loop-carried dependency; it stays centralized and the
    /// algorithm descends into its children (§4.2.3).
    CentralizedLcd,
    /// The level's written arrays escape into a function call, so the
    /// analysis cannot prove independence; it stays centralized.
    CentralizedEscape,
    /// The level writes no array indexed by its own variable, so there is no
    /// header to drive a Range Filter; it stays centralized.
    NoDistributionTarget,
    /// The level is nested inside a distributed level and therefore runs
    /// locally on whichever PE executes its parent iteration.
    LocalUnderDistributed {
        /// Ordinal of the distributed ancestor.
        ancestor: usize,
    },
}

/// One entry of the partition report.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// Which loop the entry describes.
    pub key: LoopKey,
    /// The decision taken for that loop.
    pub decision: LoopDecision,
}

/// The result of running the partitioner: one decision per loop plus counts
/// of rewritten instructions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartitionReport {
    /// Per-loop decisions.
    pub loops: Vec<LoopReport>,
    /// Number of `ArrayAlloc` instructions converted to distributing form.
    pub distributed_allocations: usize,
    /// Number of `Spawn` instructions converted to `LD`.
    pub distributed_spawns: usize,
    /// Number of Range Filters inserted.
    pub range_filters: usize,
    /// Number of loop spawn sites rewritten by grain-size control.
    pub chunked_spawns: usize,
    /// The largest chunk size applied (0 when nothing was chunked).
    pub chunk_size: usize,
    /// Number of templates the specialization pass gave at least one
    /// super-op (0 when specialization is disabled).
    pub specialized_templates: usize,
    /// Number of immediate operands fused in place by specialization.
    pub fused_consts: usize,
    /// Total super-ops across all template plans.
    pub super_ops: usize,
}

impl PartitionReport {
    /// Iterates over the loops that were distributed.
    pub fn distributed_loops(&self) -> impl Iterator<Item = &LoopReport> {
        self.loops
            .iter()
            .filter(|l| matches!(l.decision, LoopDecision::Distributed { .. }))
    }

    /// Finds the decision for a given loop.
    pub fn decision_for(&self, function: &str, ordinal: usize) -> Option<&LoopDecision> {
        self.loops
            .iter()
            .find(|l| l.key.function == function && l.key.ordinal == ordinal)
            .map(|l| &l.decision)
    }
}

/// The slots a Range Filter adds to a distributed loop's template: the
/// filtered lower and upper bounds.
pub const RANGE_FILTER_SLOTS: usize = 2;

/// The instructions a Range Filter adds to a distributed loop's template:
/// its two-instruction prologue.
pub const RANGE_FILTER_INSTRS: usize = 2;

/// A copy of `program` for [`partition`] to rewrite: every loop template
/// has room for a Range Filter's slots and prologue, so distributing a
/// loop regrows neither its slot names nor its code.
pub fn copy_for_partition(program: &SpProgram) -> SpProgram {
    program.clone_with_loop_room(RANGE_FILTER_SLOTS, RANGE_FILTER_INSTRS)
}

/// Runs the partitioner over an SP program, rewriting it in place.
pub fn partition(
    program: &mut SpProgram,
    loops: &[LoopInfo],
    config: &PartitionConfig,
) -> PartitionReport {
    partition_with_chunk_boost(program, loops, config, 1)
}

/// [`partition`] with a multiplier applied to auto-sized chunks (no effect
/// on `Fixed` policies). [`partition`] passes 1, and so does the only other
/// caller, the standing benchmark's front-end probe
/// (`benchmark/src/layers.rs`); this function and its `boost` go when that
/// probe does.
pub fn partition_with_chunk_boost(
    program: &mut SpProgram,
    loops: &[LoopInfo],
    config: &PartitionConfig,
    boost: usize,
) -> PartitionReport {
    let mut report = partition_unchunked(program, loops);
    // Chunking runs after distribution so the chunk driver circulates the
    // Range-Filtered (per-PE) bounds, never the raw ones.
    let summary = chunk_loop_spawns(program, config.chunk, boost.max(1));
    report.chunked_spawns = summary.sites;
    report.chunk_size = if summary.sites == 0 {
        0
    } else {
        summary.max_chunk
    };
    report
}

/// The distribution passes (§4 of the paper), without grain-size control.
fn partition_unchunked(program: &mut SpProgram, loops: &[LoopInfo]) -> PartitionReport {
    let mut report = PartitionReport {
        loops: Vec::with_capacity(loops.len()),
        ..PartitionReport::default()
    };

    for template in program.templates_mut() {
        for instr in &mut template.code {
            if let Instr::ArrayAlloc { distributed, .. } = instr {
                if !*distributed {
                    *distributed = true;
                    report.distributed_allocations += 1;
                }
            }
        }
    }

    // Walk each function's loop forest: distribute the outermost level that
    // qualifies; below a distributed level everything stays local; above it
    // (LCD levels) everything stays centralized.
    let decisions = decide(loops);
    for (info, decision) in loops.iter().zip(decisions.iter()) {
        let mut decision = decision.clone();
        if let LoopDecision::Distributed { array, dim } = &decision {
            let applied = apply_distribution(program, loops, info, array, *dim, &mut report);
            if !applied {
                // The template cannot be filtered safely (e.g. the written
                // array does not flow into the loop as a parameter); leave
                // the loop local rather than risk duplicated iterations.
                decision = LoopDecision::NoDistributionTarget;
            }
        }
        report.loops.push(LoopReport {
            key: info.key.clone(),
            decision,
        });
    }
    report
}

/// Chooses a decision for every loop (in the same order as `loops`).
fn decide(loops: &[LoopInfo]) -> Vec<LoopDecision> {
    let mut decisions: Vec<Option<LoopDecision>> = vec![None; loops.len()];
    // Process loops grouped by function, from outermost depth inwards, so a
    // parent's decision exists before its children are examined.
    let mut order: Vec<usize> = (0..loops.len()).collect();
    order.sort_by_key(|&i| {
        (
            loops[i].key.function.clone(),
            loops[i].depth,
            loops[i].key.ordinal,
        )
    });
    for idx in order {
        let info = &loops[idx];
        // If an ancestor was distributed, this level stays local.
        if let Some(ancestor) = distributed_ancestor(loops, &decisions, info) {
            decisions[idx] = Some(LoopDecision::LocalUnderDistributed { ancestor });
            continue;
        }
        let decision = if info.has_lcd {
            LoopDecision::CentralizedLcd
        } else if info.escapes_to_call {
            LoopDecision::CentralizedEscape
        } else {
            match info.distribution_target() {
                // Filtering an inner dimension requires the enclosing loop's
                // index (Figure 5); without an enclosing loop the subranges
                // could not be made disjoint, so the level stays local.
                Some(target)
                    if target.var_dim == Some(0)
                        || (target.var_dim == Some(1) && info.parent.is_some()) =>
                {
                    LoopDecision::Distributed {
                        array: target.array.clone(),
                        dim: target.var_dim.expect("distribution target has a dim"),
                    }
                }
                _ => LoopDecision::NoDistributionTarget,
            }
        };
        decisions[idx] = Some(decision);
    }
    decisions.into_iter().map(|d| d.expect("decided")).collect()
}

/// Finds the ordinal of a distributed ancestor of `info`, if any.
fn distributed_ancestor(
    loops: &[LoopInfo],
    decisions: &[Option<LoopDecision>],
    info: &LoopInfo,
) -> Option<usize> {
    let mut parent = info.parent;
    while let Some(ordinal) = parent {
        let (idx, parent_info) = loops
            .iter()
            .enumerate()
            .find(|(_, l)| l.key.function == info.key.function && l.key.ordinal == ordinal)?;
        match decisions[idx] {
            Some(LoopDecision::Distributed { .. })
            | Some(LoopDecision::LocalUnderDistributed { .. }) => {
                return Some(ordinal);
            }
            _ => {}
        }
        parent = parent_info.parent;
    }
    None
}

/// Applies the rewriting for one distributed loop: `L` → `LD` in the parent
/// and a Range Filter prologue in the loop's own template. Returns `false`
/// (leaving the program untouched) when the loop cannot be filtered safely.
fn apply_distribution(
    program: &mut SpProgram,
    loops: &[LoopInfo],
    info: &LoopInfo,
    array: &str,
    dim: usize,
    report: &mut PartitionReport,
) -> bool {
    let Some(loop_template_id) = program
        .loop_template(&info.key.function, info.key.ordinal)
        .map(|t| t.id)
    else {
        return false;
    };

    let parent_var = info.parent.and_then(|ordinal| {
        loops
            .iter()
            .find(|l| l.key.function == info.key.function && l.key.ordinal == ordinal)
            .map(|l| l.var.clone())
    });

    // Capability check before touching anything: the written array must be a
    // parameter of the loop template (it is not when, say, it is written
    // through a call), and an inner-dimension filter needs the enclosing
    // index as a parameter too. Replicating the loop without a working Range
    // Filter would duplicate iterations.
    let template = &program.templates()[loop_template_id.index()];
    let (Some(meta), Some(array_slot)) = (template.loop_meta, template.param_slot(array)) else {
        return false;
    };
    let outer = match parent_var.as_deref().and_then(|v| template.param_slot(v)) {
        _ if dim == 0 => None,
        Some(slot) => Some(Operand::Slot(slot)),
        None => return false,
    };

    // 1. Convert the parent's Spawn of this loop into the LD form.
    if let Some(parent_id) = parent_template_id(program, info) {
        let parent = &mut program.templates_mut()[parent_id.index()];
        for instr in &mut parent.code {
            if let Instr::Spawn {
                target,
                distributed,
                ..
            } = instr
            {
                if *target == loop_template_id && !*distributed {
                    *distributed = true;
                    report.distributed_spawns += 1;
                }
            }
        }
    }

    // 2. Insert the Range Filter into the loop template.
    let template = &mut program.templates_mut()[loop_template_id.index()];
    insert_range_filter(template, meta, array_slot, dim, outer, info.descending);
    report.range_filters += 1;
    true
}

/// The template containing the `Spawn` of the given loop: the parent loop's
/// template, or the function body template for outermost loops.
fn parent_template_id(program: &SpProgram, info: &LoopInfo) -> Option<SpId> {
    match info.parent {
        Some(parent_ordinal) => program
            .loop_template(&info.key.function, parent_ordinal)
            .map(|t| t.id),
        None => program.function(&info.key.function),
    }
}

/// Rewrites a loop template so that its bounds pass through Range-Filter
/// operators consulting the header of the array in `array_slot`, narrowed
/// by the enclosing index in `outer` for an inner dimension.
fn insert_range_filter(
    template: &mut SpTemplate,
    meta: LoopMeta,
    array_slot: SlotId,
    dim: usize,
    outer: Option<Operand>,
    descending: bool,
) {
    let base = slot_base_name(template);
    let rf_lo = template.add_slot(Name::from_fmt(format_args!("{base}__rf_lo")));
    let rf_hi = template.add_slot(Name::from_fmt(format_args!("{base}__rf_hi")));

    // Ascending loops: index starts at max(init, range_start) and runs to
    // min(limit, range_end). Descending loops swap the roles (§4.2.2).
    let (init_rf, limit_rf) = if descending {
        (
            Instr::RangeHi {
                dst: rf_lo,
                array: Operand::Slot(array_slot),
                dim,
                default: Operand::Slot(meta.init_param_slot),
                outer,
            },
            Instr::RangeLo {
                dst: rf_hi,
                array: Operand::Slot(array_slot),
                dim,
                default: Operand::Slot(meta.limit_param_slot),
                outer,
            },
        )
    } else {
        (
            Instr::RangeLo {
                dst: rf_lo,
                array: Operand::Slot(array_slot),
                dim,
                default: Operand::Slot(meta.init_param_slot),
                outer,
            },
            Instr::RangeHi {
                dst: rf_hi,
                array: Operand::Slot(array_slot),
                dim,
                default: Operand::Slot(meta.limit_param_slot),
                outer,
            },
        )
    };
    template.insert_prologue([init_rf, limit_rf]);

    // Re-read the (shifted) metadata and point the initialisation moves at
    // the filtered bounds.
    let meta: LoopMeta = template.loop_meta.expect("meta survives prologue");
    if let Instr::Move { src, .. } = &mut template.code[meta.init_instr] {
        *src = Operand::Slot(rf_lo);
    }
    if let Instr::Move { src, .. } = &mut template.code[meta.limit_init_instr] {
        *src = Operand::Slot(rf_hi);
    }
}

fn slot_base_name(template: &SpTemplate) -> Name {
    match &template.kind {
        SpKind::Loop { var, .. } => var.clone(),
        SpKind::Function { name } => name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pods_idlang::analyze_loops;
    use pods_sp::translate;

    const PAPER_EXAMPLE: &str = r#"
        def main() {
            a = matrix(64, 64);
            for i = 0 to 63 {
                for j = 0 to 63 {
                    a[i, j] = i * 64 + j;
                }
            }
            return a;
        }
    "#;

    fn partitioned(src: &str, config: &PartitionConfig) -> (SpProgram, PartitionReport) {
        let hir = pods_idlang::compile(src).unwrap();
        let loops = analyze_loops(&hir);
        let mut program = translate(&hir).unwrap();
        let report = partition(&mut program, &loops, config);
        (program, report)
    }

    #[test]
    fn outer_parallel_loop_is_distributed_with_a_range_filter() {
        let (program, report) = partitioned(PAPER_EXAMPLE, &PartitionConfig::default());
        assert!(program.validate().is_empty(), "{:?}", program.validate());
        assert_eq!(report.distributed_spawns, 1);
        assert_eq!(report.range_filters, 1);
        assert!(report.distributed_allocations >= 1);
        assert!(matches!(
            report.decision_for("main", 0),
            Some(LoopDecision::Distributed { dim: 0, .. })
        ));
        assert!(matches!(
            report.decision_for("main", 1),
            Some(LoopDecision::LocalUnderDistributed { ancestor: 0 })
        ));

        // The main template's spawn of the i-loop is now an LD.
        let main = program.template(program.entry());
        assert!(main.code.iter().any(|i| matches!(
            i,
            Instr::Spawn {
                distributed: true,
                ..
            }
        )));
        // The i-loop starts with the Range-Filter bound operators.
        let i_loop = program.loop_template("main", 0).unwrap();
        assert!(matches!(i_loop.code[0], Instr::RangeLo { dim: 0, .. }));
        assert!(matches!(i_loop.code[1], Instr::RangeHi { dim: 0, .. }));
        // The j-loop is untouched (no RF, spawned locally).
        let j_loop = program.loop_template("main", 1).unwrap();
        assert!(!j_loop
            .code
            .iter()
            .any(|i| matches!(i, Instr::RangeLo { .. } | Instr::RangeHi { .. })));
    }

    #[test]
    fn the_partition_copy_has_room_for_every_range_filter() {
        for src in [PAPER_EXAMPLE, pods_workloads::simple::SIMPLE] {
            let hir = pods_idlang::compile(src).unwrap();
            let loops = analyze_loops(&hir);
            let translated = translate(&hir).unwrap();
            let mut program = copy_for_partition(&translated);
            assert_eq!(program, translated, "the copy is a copy");
            let room = |p: &SpProgram| -> Vec<(usize, usize)> {
                p.templates()
                    .iter()
                    .map(|t| (t.slot_names.capacity(), t.code.capacity()))
                    .collect()
            };
            let before = room(&program);
            let report = partition_unchunked(&mut program, &loops);
            assert!(report.range_filters > 0);
            assert_eq!(room(&program), before, "no Range Filter regrew a template");
        }
    }

    #[test]
    fn lcd_level_stays_centralized_and_inner_level_distributes() {
        let src = r#"
            def main(n, b) {
                a = matrix(n, n);
                for j = 0 to n - 1 { a[0, j] = b[0, j]; }
                for i = 1 to n - 1 {
                    for j = 0 to n - 1 {
                        a[i, j] = a[i - 1, j] + b[i, j];
                    }
                }
                return a;
            }
        "#;
        let (program, report) = partitioned(src, &PartitionConfig::default());
        assert!(program.validate().is_empty());
        // Loop 1 is the i-sweep with the LCD, loop 2 the inner j-loop.
        assert!(matches!(
            report.decision_for("main", 1),
            Some(LoopDecision::CentralizedLcd)
        ));
        assert!(matches!(
            report.decision_for("main", 2),
            Some(LoopDecision::Distributed { dim: 1, .. })
        ));
        // The inner loop's RF filters dimension 1 and receives the outer
        // index.
        let inner = program.loop_template("main", 2).unwrap();
        assert!(matches!(
            inner.code[0],
            Instr::RangeLo {
                dim: 1,
                outer: Some(_),
                ..
            }
        ));
        // The LD is inside the i-loop template (the parent), not in main.
        let i_loop = program.loop_template("main", 1).unwrap();
        assert!(i_loop.code.iter().any(|i| matches!(
            i,
            Instr::Spawn {
                distributed: true,
                ..
            }
        )));
    }

    #[test]
    fn descending_distributed_loop_swaps_the_filter_operators() {
        let src = r#"
            def main(n, b) {
                a = array(n);
                for i = n - 1 downto 0 { a[i] = b[i] * 2.0; }
                return a;
            }
        "#;
        let (program, report) = partitioned(src, &PartitionConfig::default());
        assert_eq!(report.range_filters, 1);
        let t = program.loop_template("main", 0).unwrap();
        // For a descending loop the initial bound goes through RangeHi (min)
        // and the final bound through RangeLo (max).
        assert!(matches!(t.code[0], Instr::RangeHi { .. }));
        assert!(matches!(t.code[1], Instr::RangeLo { .. }));
        assert!(program.validate().is_empty());
    }

    #[test]
    fn a_carried_sweep_stays_centralized() {
        let src = r#"
            def main(n, b) {
                a = array(n);
                a[0] = b[0];
                for i = 1 to n - 1 { a[i] = a[i - 1] + b[i]; }
                return a;
            }
        "#;
        let (_, report) = partitioned(src, &PartitionConfig::default());
        assert!(matches!(
            report.decision_for("main", 0),
            Some(LoopDecision::CentralizedLcd)
        ));
    }

    #[test]
    fn loops_without_array_writes_are_not_distributed() {
        let src = r#"
            def main(n) {
                total = 0;
                for i = 0 to n - 1 { t = i * 2; }
                return total;
            }
        "#;
        let (_, report) = partitioned(src, &PartitionConfig::default());
        assert!(matches!(
            report.decision_for("main", 0),
            Some(LoopDecision::NoDistributionTarget)
        ));
    }

    #[test]
    fn escaping_arrays_keep_the_loop_centralized() {
        let src = r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 { a[i] = i; note(a, i); }
                return a;
            }
            def note(arr, i) { return arr[i]; }
        "#;
        let (_, report) = partitioned(src, &PartitionConfig::default());
        assert!(matches!(
            report.decision_for("main", 0),
            Some(LoopDecision::CentralizedEscape)
        ));
    }

    #[test]
    fn chunking_composes_with_distribution() {
        // Default (chunk = Fixed(1)) must leave the program byte-identical.
        let (unchunked, baseline) = partitioned(PAPER_EXAMPLE, &PartitionConfig::default());
        assert_eq!(baseline.chunked_spawns, 0);
        assert_eq!(baseline.chunk_size, 0);

        // A fixed chunk rewrites the nest's inner spawn site on top of the
        // usual distribution decisions.
        let config = PartitionConfig {
            chunk: ChunkPolicy::Fixed(4),
        };
        let (program, report) = partitioned(PAPER_EXAMPLE, &config);
        assert!(program.validate().is_empty(), "{:?}", program.validate());
        assert_eq!(report.chunked_spawns, 1);
        assert_eq!(report.chunk_size, 4);
        assert_eq!(report.distributed_spawns, baseline.distributed_spawns);
        assert_eq!(report.range_filters, baseline.range_filters);
        assert_ne!(program.fingerprint(), unchunked.fingerprint());
        // The chunk driver lives in the *inner* (j) template.
        let j_loop = program.loop_template("main", 1).unwrap();
        assert!(j_loop.chunk_meta.is_some());
    }

    #[test]
    fn chunk_boost_coarsens_auto_grain_without_touching_fixed() {
        let auto = PartitionConfig {
            chunk: ChunkPolicy::Auto,
        };
        let hir = pods_idlang::compile(PAPER_EXAMPLE).unwrap();
        let loops = analyze_loops(&hir);
        let mut base = translate(&hir).unwrap();
        let base_report = partition_with_chunk_boost(&mut base, &loops, &auto, 1);
        let mut boosted = translate(&hir).unwrap();
        let boosted_report = partition_with_chunk_boost(&mut boosted, &loops, &auto, 2);
        assert!(base_report.chunk_size >= 1);
        assert_eq!(boosted_report.chunk_size, base_report.chunk_size * 2);

        let fixed = PartitionConfig {
            chunk: ChunkPolicy::Fixed(4),
        };
        let mut fixed_boosted = translate(&hir).unwrap();
        let fixed_report = partition_with_chunk_boost(&mut fixed_boosted, &loops, &fixed, 8);
        assert_eq!(fixed_report.chunk_size, 4, "boost must not scale Fixed");
    }

    #[test]
    fn report_helpers() {
        let (_, report) = partitioned(PAPER_EXAMPLE, &PartitionConfig::default());
        assert_eq!(report.distributed_loops().count(), 1);
        assert!(report.decision_for("main", 99).is_none());
    }
}
