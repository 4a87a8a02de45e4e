//! Prepare-time specialization of SP templates.
//!
//! The shared driver loop in [`crate::exec`] pays a per-instruction tax on
//! every warm run: match on the [`Instr`] variant, re-resolve each operand
//! (slot vs immediate), and re-run the firing-rule scan — all work whose
//! outcome is fixed once the template's code is fixed. This pass runs once,
//! at prepare time, and compiles each template into a [`TemplatePlan`] the
//! driver executes instead of re-interpreting `Instr`:
//!
//! * **Operand fetch plans** ([`Fetch`]): slot/immediate resolution is done
//!   here, once; immediates are converted to runtime [`Value`]s and fused in
//!   place, so the warm path never touches [`crate::instr::Operand`] again.
//!   Within a run, an operand that reads the slot the previous fused op just
//!   wrote becomes [`Fetch::Prev`] — the driver forwards the value in a
//!   register instead of round-tripping it through the frame.
//! * **Super-ops** ([`SuperOp`]): maximal straight-line runs of fusible
//!   instructions (ALU ops, moves, element stores) collapse into a single
//!   plan op with one hoisted firing-rule list for the whole run — slots a
//!   run reads before writing them locally. One presence scan replaces one
//!   scan per instruction. Runs are width-bounded (`MAX_FIRING` external
//!   reads): an all-or-nothing run must not make a wide join wait for its
//!   last operand before doing any work.
//! * **Interpreter fallback** ([`PlanOp::Interp`]): everything with
//!   scheduler-visible or split-phase behaviour — jumps and branches, array
//!   allocation, split-phase loads, spawns, Range-Filter prologues, returns
//!   — keeps its exact current semantics by executing through
//!   [`crate::exec::execute_instr`], unchanged.
//!
//! The plan preserves the interpreter's observable semantics: a super-op
//! fires all-or-nothing (the hoisted check runs *before* any side effect,
//! so a blocked run can safely re-fire from its head after the missing
//! operand arrives — no element store or slot write happens twice), each
//! fused instruction charges the same [`crate::exec::Cost`] class the
//! interpreter charges, and the blocked *slot* reported to the engine is
//! the one the per-instruction firing rule would have found (the hoisted
//! list is ordered instruction-by-instruction, operand order within each).
//! The only visible difference is the program counter a blocked super-op
//! reports: the head of the run rather than the consuming instruction
//! inside it, which is where execution will resume.
//!
//! Runs never extend across a jump target: every pc reachable by a jump,
//! branch, chunk re-entry (pc 0), or fall-through from an interpreter op is
//! the head of a plan op, so the driver can always dispatch on `ops[pc]`.
//!
//! A plan is a handful of flat vectors per template, never one per
//! instruction: the super-ops' firing lists, their fused ops and the element
//! stores' index fetches each live in one pool of the [`TemplatePlan`],
//! sized before the pass runs, and a [`SuperOp`] holds [`PoolRange`]s into
//! them.

use crate::instr::{Instr, Operand, SlotId};
use crate::template::{SpProgram, SpTemplate};
use pods_idlang::{BinaryOp, UnaryOp};
use pods_istructure::Value;

/// A pre-resolved operand fetch: the slot/immediate decision is made at
/// prepare time instead of per execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Fetch {
    /// Read a frame slot. Absent slots read as [`Value::Unit`], exactly as
    /// [`crate::exec::ExecCtx::operand`] reads them; the firing list makes
    /// that unobservable for slots the run declares it reads.
    Slot(SlotId),
    /// An immediate, converted to its runtime value once, here.
    Const(Value),
    /// The value produced by the immediately preceding fused op of the same
    /// super-op — register chaining past the frame. The producer still
    /// writes its destination slot (frames stay bit-identical to the
    /// interpreter's), but the consumer skips the load: on ALU chains this
    /// removes the store-to-load round-trip the interpreter pays per
    /// instruction. Only emitted when the previous op's destination slot is
    /// exactly the slot this operand reads.
    Prev,
}

/// One fused instruction of a super-op: the specializable subset of
/// [`Instr`] with operands pre-resolved into [`Fetch`] plans.
#[derive(Debug, Clone, PartialEq)]
pub enum FusedOp {
    /// `dst <- op(lhs, rhs)`.
    Binary {
        /// The ALU operation.
        op: BinaryOp,
        /// Destination slot.
        dst: SlotId,
        /// Left operand fetch.
        lhs: Fetch,
        /// Right operand fetch.
        rhs: Fetch,
    },
    /// `dst <- op(src)`.
    Unary {
        /// The ALU operation.
        op: UnaryOp,
        /// Destination slot.
        dst: SlotId,
        /// Operand fetch.
        src: Fetch,
    },
    /// `dst <- src`.
    Move {
        /// Destination slot.
        dst: SlotId,
        /// Source fetch.
        src: Fetch,
    },
    /// I-structure element write.
    ArrayStore {
        /// The array reference fetch.
        array: Fetch,
        /// Element index fetches (zero-based), in the plan's index pool
        /// ([`TemplatePlan::indices`]).
        indices: PoolRange,
        /// The value fetch.
        value: Fetch,
    },
}

/// A contiguous range of one of a [`TemplatePlan`]'s pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRange {
    start: u32,
    end: u32,
}

impl PoolRange {
    fn new(start: usize, end: usize) -> Self {
        let index = |n: usize| u32::try_from(n).expect("plan pool exceeds u32 indices");
        PoolRange {
            start: index(start),
            end: index(end),
        }
    }

    /// Number of pool entries in the range.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Returns `true` when the range is empty.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    #[inline(always)]
    fn of<T>(self, pool: &[T]) -> &[T] {
        &pool[self.start as usize..self.end as usize]
    }
}

/// A maximal straight-line run of fused instructions, executed with one
/// firing-rule check for the whole run. Both fields index pools of the
/// owning [`TemplatePlan`] ([`TemplatePlan::firing`],
/// [`TemplatePlan::fused`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperOp {
    /// Slots that must be present before the run fires: the union of the
    /// run's read slots minus slots a strictly earlier fused instruction of
    /// the same run writes, in instruction-then-operand order — so the
    /// first missing entry is the slot the per-instruction firing rule
    /// would have blocked on.
    pub firing: PoolRange,
    /// The fused instructions, in original code order.
    pub ops: PoolRange,
}

/// What the specialized driver does at one program counter.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// The head of a fused run: check `firing` once, then execute every
    /// fused op, then continue at `pc + ops.len()`.
    Super(SuperOp),
    /// Execute `code[pc]` through the interpreter
    /// ([`crate::exec::execute_instr`]), with its own firing-rule check —
    /// split-phase instructions, control flow, Range Filters, and the
    /// interior of a run (unreachable, but safe) all take this path.
    Interp,
}

/// The pre-resolved execution plan of one template: one [`PlanOp`] per
/// instruction, indexed by program counter (`ops.len() == code.len()`),
/// and the pools its super-ops index.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplatePlan {
    /// The plan ops, indexed by pc.
    pub ops: Vec<PlanOp>,
    /// Every super-op's firing list, run after run.
    firing: Vec<SlotId>,
    /// Every super-op's fused ops, run after run.
    fused: Vec<FusedOp>,
    /// Every fused element store's index fetches, store after store.
    indices: Vec<Fetch>,
}

impl TemplatePlan {
    /// The firing list of `sup`.
    #[inline(always)]
    pub fn firing(&self, sup: &SuperOp) -> &[SlotId] {
        sup.firing.of(&self.firing)
    }

    /// The fused ops of `sup`, in code order.
    #[inline(always)]
    pub fn fused(&self, sup: &SuperOp) -> &[FusedOp] {
        sup.ops.of(&self.fused)
    }

    /// The index fetches of a fused element store.
    #[inline(always)]
    pub fn indices(&self, range: PoolRange) -> &[Fetch] {
        range.of(&self.indices)
    }

    /// Number of super-ops (fused runs) in the plan.
    pub fn super_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, PlanOp::Super(_)))
            .count()
    }

    /// Feeds the plan's shape into a structural hash: the `(pc, run
    /// length)` of every super-op. The plan is a pure function of the code,
    /// so this is enough to distinguish a specialized program from an
    /// unspecialized one in [`SpProgram::fingerprint`].
    pub fn hash_shape<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        for (pc, op) in self.ops.iter().enumerate() {
            if let PlanOp::Super(s) = op {
                pc.hash(state);
                s.ops.len().hash(state);
            }
        }
    }
}

/// Counts reported by [`specialize_program`], merged into the partition
/// report by the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecializeSummary {
    /// Templates whose plan contains at least one super-op.
    pub specialized_templates: usize,
    /// Immediate operands converted to runtime values at prepare time.
    pub fused_consts: usize,
    /// Total super-ops (fused straight-line runs) across all templates.
    pub super_ops: usize,
}

/// `true` for instructions a super-op may absorb: synchronous, side-effect
/// complete, and control-linear. Everything split-phase
/// ([`Instr::is_split_phase`]), control flow, and the Range-Filter
/// prologues stay on the interpreter path.
fn fusible(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Binary { .. } | Instr::Unary { .. } | Instr::Move { .. } | Instr::ArrayStore { .. }
    )
}

fn resolve(op: &Operand, prev_dst: Option<SlotId>, consts: &mut usize) -> Fetch {
    match op {
        Operand::Slot(s) if Some(*s) == prev_dst => Fetch::Prev,
        Operand::Slot(s) => Fetch::Slot(*s),
        Operand::Int(v) => {
            *consts += 1;
            Fetch::Const(Value::Int(*v))
        }
        Operand::Float(v) => {
            *consts += 1;
            Fetch::Const(Value::Float(*v))
        }
        Operand::Bool(v) => {
            *consts += 1;
            Fetch::Const(Value::Bool(*v))
        }
    }
}

/// Fuses one instruction, appending an element store's index fetches to the
/// `indices` pool.
fn fuse(
    instr: &Instr,
    prev_dst: Option<SlotId>,
    consts: &mut usize,
    pool: &mut Vec<Fetch>,
) -> FusedOp {
    match instr {
        Instr::Binary { op, dst, lhs, rhs } => FusedOp::Binary {
            op: *op,
            dst: *dst,
            lhs: resolve(lhs, prev_dst, consts),
            rhs: resolve(rhs, prev_dst, consts),
        },
        Instr::Unary { op, dst, src } => FusedOp::Unary {
            op: *op,
            dst: *dst,
            src: resolve(src, prev_dst, consts),
        },
        Instr::Move { dst, src } => FusedOp::Move {
            dst: *dst,
            src: resolve(src, prev_dst, consts),
        },
        Instr::ArrayStore {
            array,
            indices,
            value,
        } => {
            let start = pool.len();
            pool.extend(indices.iter().map(|i| resolve(i, prev_dst, consts)));
            FusedOp::ArrayStore {
                array: resolve(array, prev_dst, consts),
                indices: PoolRange::new(start, pool.len()),
                value: resolve(value, prev_dst, consts),
            }
        }
        _ => unreachable!("fuse() is only called on fusible instructions"),
    }
}

/// Upper bound on a super-op's hoisted firing list. A run fires
/// all-or-nothing, so every external read it absorbs widens the wait: a
/// 64-way reduction fused whole would re-scan all 64 slots on every resume
/// and execute nothing until the *last* operand arrives — O(n²) presence
/// checks and no incremental progress, measurably slower than the
/// interpreter on gather-style joins. Capping the list splits wide joins
/// into bounded sub-runs (each fires as soon as its few inputs are ready
/// and advances the pc), while compute-dense straight lines — whose
/// external reads are a handful of loop variables — still fuse whole.
const MAX_FIRING: usize = 8;

/// `true` when `slot` joins a run's firing list as this instruction's read:
/// no earlier instruction of the run (`run`) writes it and the list does not
/// hold it yet.
fn is_fresh(slot: SlotId, run: &[Instr], firing: &[SlotId]) -> bool {
    !run.iter().any(|i| i.written_slot() == Some(slot)) && !firing.contains(&slot)
}

/// Builds the plan for one instruction sequence. Returns the plan and the
/// number of immediates fused into it. `is_target` is scratch space, shared
/// by the templates of a program.
pub(crate) fn build_plan(code: &[Instr], is_target: &mut Vec<bool>) -> (TemplatePlan, usize) {
    // Every jump target must stay a plan-op head: a run absorbing one would
    // make the target unreachable by indexed dispatch. The same pass sizes
    // the pools: every fusible instruction is fused once, with all of its
    // store indices, and adds at most its reads to a firing list.
    is_target.clear();
    is_target.resize(code.len() + 1, false);
    let (mut fusible_count, mut reads, mut store_indices) = (0, 0, 0);
    for instr in code {
        match instr {
            Instr::Jump { target } | Instr::BranchIfFalse { target, .. } => {
                if let Some(t) = is_target.get_mut(*target) {
                    *t = true;
                }
            }
            Instr::ArrayStore { indices, .. } => store_indices += indices.len(),
            _ => {}
        }
        if fusible(instr) {
            fusible_count += 1;
            reads += instr.reads().count();
        }
    }

    let mut consts = 0usize;
    let mut plan = TemplatePlan {
        ops: Vec::with_capacity(code.len()),
        firing: Vec::with_capacity(reads),
        fused: Vec::with_capacity(fusible_count),
        indices: Vec::with_capacity(store_indices),
    };
    let mut pc = 0;
    while pc < code.len() {
        if !fusible(&code[pc]) {
            plan.ops.push(PlanOp::Interp);
            pc += 1;
            continue;
        }
        let start = pc;
        let (firing_start, fused_start) = (plan.firing.len(), plan.fused.len());
        let mut prev_dst: Option<SlotId> = None;
        let mut end = start;
        while end < code.len() && fusible(&code[end]) && (end == start || !is_target[end]) {
            let instr = &code[end];
            let run = &code[start..end];
            let firing = &plan.firing[firing_start..];
            let fresh = instr.reads().filter(|s| is_fresh(*s, run, firing)).count();
            // A run's firing list is bounded: absorbing this instruction
            // must not push it past MAX_FIRING (the head instruction always
            // joins — a one-op run can't be subdivided further).
            if end > start && firing.len() + fresh > MAX_FIRING {
                break;
            }
            for s in instr.reads() {
                if is_fresh(s, run, &plan.firing[firing_start..]) {
                    plan.firing.push(s);
                }
            }
            let op = fuse(instr, prev_dst, &mut consts, &mut plan.indices);
            plan.fused.push(op);
            prev_dst = instr.written_slot();
            end += 1;
        }
        plan.ops.push(PlanOp::Super(SuperOp {
            firing: PoolRange::new(firing_start, plan.firing.len()),
            ops: PoolRange::new(fused_start, plan.fused.len()),
        }));
        // Interior pcs of the run are unreachable (no jump lands there and
        // the run is executed whole); give them interpreter entries so even
        // an unexpected resume stays semantically correct.
        plan.ops
            .extend(std::iter::repeat_with(|| PlanOp::Interp).take(end - start - 1));
        pc = end;
    }
    (plan, consts)
}

/// Specializes every template of a (partitioned) program in place,
/// attaching a [`TemplatePlan`] to each. Run once at prepare time, after
/// partitioning and chunking — the plan is built from the final instruction
/// stream, so Range-Filter prologues and chunk rewrites are already in it.
pub fn specialize_program(program: &mut SpProgram) -> SpecializeSummary {
    let mut summary = SpecializeSummary::default();
    let longest = program.templates().iter().map(SpTemplate::len).max();
    let mut is_target = Vec::with_capacity(longest.unwrap_or(0) + 1);
    for t in program.templates_mut() {
        let (plan, consts) = build_plan(&t.code, &mut is_target);
        let supers = plan.super_ops();
        if supers > 0 {
            summary.specialized_templates += 1;
        }
        summary.fused_consts += consts;
        summary.super_ops += supers;
        t.plan = Some(plan);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::slot;

    fn plan_of(code: Vec<Instr>) -> TemplatePlan {
        build_plan(&code, &mut Vec::new()).0
    }

    #[test]
    fn straight_line_alu_runs_collapse_into_one_super_op() {
        // t0 = a + b; t1 = t0 * 2; store a[i] = t1 — one run, one firing
        // list, immediates fused.
        let code = vec![
            Instr::Binary {
                op: BinaryOp::Add,
                dst: SlotId(3),
                lhs: slot(0),
                rhs: slot(1),
            },
            Instr::Binary {
                op: BinaryOp::Mul,
                dst: SlotId(4),
                lhs: slot(3),
                rhs: Operand::Int(2),
            },
            Instr::ArrayStore {
                array: slot(2),
                indices: [slot(0)].into(),
                value: slot(4),
            },
        ];
        let (plan, consts) = build_plan(&code, &mut Vec::new());
        assert_eq!(plan.ops.len(), 3);
        assert_eq!(plan.super_ops(), 1);
        assert_eq!(consts, 1, "the literal 2 is fused");
        let PlanOp::Super(s) = &plan.ops[0] else {
            panic!("run head must be a super-op");
        };
        assert_eq!(s.ops.len(), 3);
        // s3 and s4 are written before they are read; s0, s1, s2 must be
        // present at fire time — in interpreter discovery order.
        assert_eq!(plan.firing(s), [SlotId(0), SlotId(1), SlotId(2)]);
        assert!(matches!(plan.ops[1], PlanOp::Interp));
        assert!(matches!(plan.ops[2], PlanOp::Interp));
    }

    #[test]
    fn jump_targets_break_runs() {
        // pc 2 is a branch target: the Move at pc 1 cannot be fused past
        // it, so the plan keeps pc 2 as a separate head.
        let code = vec![
            Instr::BranchIfFalse {
                cond: slot(0),
                target: 2,
            },
            Instr::Move {
                dst: SlotId(1),
                src: Operand::Int(1),
            },
            Instr::Move {
                dst: SlotId(2),
                src: Operand::Int(9),
            },
            Instr::Return { value: None },
        ];
        let plan = plan_of(code);
        assert!(matches!(plan.ops[0], PlanOp::Interp), "branch interprets");
        let PlanOp::Super(a) = &plan.ops[1] else {
            panic!("pc 1 heads a run")
        };
        assert_eq!(a.ops.len(), 1, "run must stop at the jump target");
        let PlanOp::Super(b) = &plan.ops[2] else {
            panic!("the jump target heads its own run")
        };
        assert_eq!(b.ops.len(), 1);
        assert!(matches!(plan.ops[3], PlanOp::Interp), "return interprets");
    }

    #[test]
    fn split_phase_instructions_stay_on_the_interpreter_path() {
        let code = vec![
            Instr::ArrayAlloc {
                dst: SlotId(0),
                name: "a".into(),
                dims: [Operand::Int(4)].into(),
                distributed: true,
            },
            Instr::ArrayLoad {
                dst: SlotId(1),
                array: slot(0),
                indices: [Operand::Int(0)].into(),
            },
            Instr::Spawn {
                target: crate::instr::SpId(1),
                args: [].into(),
                distributed: false,
                ret: Some(SlotId(2)),
            },
            Instr::RangeLo {
                dst: SlotId(3),
                array: slot(0),
                dim: 0,
                default: Operand::Int(0),
                outer: None,
            },
        ];
        let plan = plan_of(code);
        assert_eq!(plan.super_ops(), 0);
        assert!(plan.ops.iter().all(|o| matches!(o, PlanOp::Interp)));
    }

    #[test]
    fn locally_written_slots_are_hoisted_out_of_the_firing_list() {
        // s1 <- s0 + 1; s2 <- s1 * s1: s1 is produced inside the run, so
        // only s0 gates firing.
        let code = vec![
            Instr::Binary {
                op: BinaryOp::Add,
                dst: SlotId(1),
                lhs: slot(0),
                rhs: Operand::Int(1),
            },
            Instr::Binary {
                op: BinaryOp::Mul,
                dst: SlotId(2),
                lhs: slot(1),
                rhs: slot(1),
            },
        ];
        let plan = plan_of(code);
        let PlanOp::Super(s) = &plan.ops[0] else {
            panic!("expected a super-op")
        };
        assert_eq!(plan.firing(s), [SlotId(0)]);
    }

    #[test]
    fn chained_operands_become_prev_fetches() {
        // s1 <- s0 + 1; s2 <- s1 * s1; store a[s3] = s2: each op consumes
        // what the one before it just produced, so those reads chain
        // through the register instead of the frame. Reads of anything
        // *older* than the immediately preceding op stay slot fetches.
        let code = vec![
            Instr::Binary {
                op: BinaryOp::Add,
                dst: SlotId(1),
                lhs: slot(0),
                rhs: Operand::Int(1),
            },
            Instr::Binary {
                op: BinaryOp::Mul,
                dst: SlotId(2),
                lhs: slot(1),
                rhs: slot(1),
            },
            Instr::ArrayStore {
                array: slot(4),
                indices: [slot(3)].into(),
                value: slot(2),
            },
            Instr::Move {
                dst: SlotId(5),
                src: slot(2),
            },
        ];
        let plan = plan_of(code);
        let PlanOp::Super(s) = &plan.ops[0] else {
            panic!("expected a super-op")
        };
        let fused = plan.fused(s);
        assert_eq!(
            fused[1],
            FusedOp::Binary {
                op: BinaryOp::Mul,
                dst: SlotId(2),
                lhs: Fetch::Prev,
                rhs: Fetch::Prev,
            },
            "both reads of the just-written s1 chain"
        );
        let FusedOp::ArrayStore { value, .. } = &fused[2] else {
            panic!("expected the store")
        };
        assert_eq!(*value, Fetch::Prev, "the stored value chains from the Mul");
        let FusedOp::Move { src, .. } = &fused[3] else {
            panic!("expected the move")
        };
        assert_eq!(
            *src,
            Fetch::Slot(SlotId(2)),
            "a store produces nothing, so the read after it goes to the frame"
        );
    }

    #[test]
    fn wide_joins_split_into_firing_bounded_sub_runs() {
        // A 24-way reduction: acc <- acc + s_k for fresh external slots
        // s_k. Fused whole it would hoist 24 slots into one firing list;
        // the cap must split it so each sub-run waits on at most
        // MAX_FIRING inputs and the pc advances between sub-runs.
        let mut code = vec![Instr::Move {
            dst: SlotId(0),
            src: Operand::Int(0),
        }];
        for k in 1..=24u32 {
            code.push(Instr::Binary {
                op: BinaryOp::Add,
                dst: SlotId(0),
                lhs: slot(0),
                rhs: slot(k as usize),
            });
        }
        let plan = plan_of(code);
        assert!(plan.super_ops() > 1, "the chain must split");
        let mut covered = 0;
        for op in &plan.ops {
            if let PlanOp::Super(s) = op {
                assert!(
                    s.firing.len() <= MAX_FIRING,
                    "firing list exceeds the cap: {:?}",
                    plan.firing(s)
                );
                covered += s.ops.len();
            }
        }
        assert_eq!(covered, 25, "every instruction still lives in some run");
    }

    #[test]
    fn pools_are_sized_before_the_pass_and_never_grow() {
        // Every fusible instruction of SIMPLE lands in the fused-op pool
        // once, with its store indices, and the pools were allocated at
        // their final size (a growth reallocation would leave spare
        // capacity behind in the exact-sized pools).
        let hir = pods_idlang::compile(pods_workloads::simple::SIMPLE).unwrap();
        let program = crate::translate(&hir).unwrap();
        let mut scratch = Vec::new();
        for t in program.templates() {
            let (plan, _) = build_plan(&t.code, &mut scratch);
            let fusible_count = t.code.iter().filter(|i| fusible(i)).count();
            assert_eq!(plan.ops.len(), t.code.len());
            assert_eq!(plan.ops.capacity(), t.code.len(), "{}", t.name);
            assert_eq!(plan.fused.len(), fusible_count, "{}", t.name);
            assert_eq!(plan.fused.capacity(), fusible_count, "{}", t.name);
            assert_eq!(plan.indices.len(), plan.indices.capacity(), "{}", t.name);
            assert!(plan.firing.len() <= plan.firing.capacity());
            for (pc, op) in plan.ops.iter().enumerate() {
                let PlanOp::Super(sup) = op else { continue };
                let run = &t.code[pc..pc + sup.ops.len()];
                for (instr, fused) in run.iter().zip(plan.fused(sup)) {
                    if let (
                        Instr::ArrayStore { indices, .. },
                        FusedOp::ArrayStore { indices: range, .. },
                    ) = (instr, fused)
                    {
                        assert_eq!(plan.indices(*range).len(), indices.len());
                    }
                }
            }
        }
    }

    #[test]
    fn specialize_program_attaches_plans_and_counts() {
        let hir = pods_idlang::compile(
            "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * 3 + 1; } return a; }",
        )
        .unwrap();
        let mut program = crate::translate(&hir).unwrap();
        assert!(program.templates().iter().all(|t| t.plan.is_none()));
        let before = program.fingerprint();
        let summary = specialize_program(&mut program);
        assert!(summary.specialized_templates >= 1);
        assert!(summary.super_ops >= 1);
        assert!(summary.fused_consts >= 2, "the literals 3 and 1 fuse");
        for t in program.templates() {
            let plan = t.plan.as_ref().expect("every template gets a plan");
            assert_eq!(plan.ops.len(), t.code.len());
        }
        assert_ne!(
            before,
            program.fingerprint(),
            "specialization is part of structural identity"
        );
    }
}
