//! The instruction set of Subcompact Processes.
//!
//! A Subcompact Process (SP) is a sequential, program-counter-driven code
//! segment obtained from one dataflow code block (paper §3). Instructions
//! read *operands* — either immediates or operand slots of the SP instance's
//! frame — and write results back into slots. Every slot has a presence bit;
//! an instruction that needs an absent slot blocks the SP, and the arrival of
//! the missing token (an array value, a function result) re-activates it.
//! Array accesses are split-phase: the load is issued and the SP keeps
//! running until the value is actually consumed.

use pods_idlang::{BinaryOp, UnaryOp};
use std::sync::Arc;

/// Identifier of an operand slot within an SP frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub usize);

impl SlotId {
    /// Numeric index of the slot.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for SlotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of an SP template within an [`crate::SpProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpId(pub usize);

impl SpId {
    /// Numeric index of the template.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for SpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SP{}", self.0)
    }
}

/// An instruction operand: an immediate constant or a frame slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A frame slot (must be present for the instruction to execute).
    Slot(SlotId),
    /// An immediate integer.
    Int(i64),
    /// An immediate float.
    Float(f64),
    /// An immediate boolean.
    Bool(bool),
}

impl std::hash::Hash for Operand {
    /// Structural hash used by [`crate::SpProgram::fingerprint`].
    /// Hand-written because `f64` has no `Hash`; float immediates hash by
    /// bit pattern. Note this is *stricter* than the derived `PartialEq`:
    /// `0.0` and `-0.0` compare equal but hash differently, and NaNs with
    /// one payload compare unequal but hash equally — so this type must not
    /// be used as a hash-map key. For fingerprinting that skew is harmless:
    /// identical translations produce bit-identical immediates, and a
    /// spurious fingerprint difference can at worst miss a cache, never
    /// alias two different programs.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Operand::Slot(s) => s.hash(state),
            Operand::Int(v) => v.hash(state),
            Operand::Float(v) => v.to_bits().hash(state),
            Operand::Bool(v) => v.hash(state),
        }
    }
}

impl Operand {
    /// The slot read by this operand, if any.
    pub fn slot(&self) -> Option<SlotId> {
        match self {
            Operand::Slot(s) => Some(*s),
            _ => None,
        }
    }
}

impl From<SlotId> for Operand {
    fn from(value: SlotId) -> Self {
        Operand::Slot(value)
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Slot(s) => write!(f, "{s}"),
            Operand::Int(v) => write!(f, "{v}"),
            Operand::Float(v) => write!(f, "{v}"),
            Operand::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One instruction of an SP template.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Instr {
    /// `dst <- op(lhs, rhs)`.
    Binary {
        /// The ALU operation.
        op: BinaryOp,
        /// Destination slot.
        dst: SlotId,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst <- op(src)`.
    Unary {
        /// The ALU operation.
        op: UnaryOp,
        /// Destination slot.
        dst: SlotId,
        /// Operand.
        src: Operand,
    },
    /// `dst <- src`.
    Move {
        /// Destination slot.
        dst: SlotId,
        /// Source operand.
        src: Operand,
    },
    /// Continue at `target` when `cond` is false, otherwise fall through.
    /// This is the sequential rendering of the dataflow switch operator.
    BranchIfFalse {
        /// The predicate operand.
        cond: Operand,
        /// Jump target (program-counter value) when the predicate is false.
        target: usize,
    },
    /// Unconditional jump (loop back edge or joining conditional arms).
    Jump {
        /// Jump target (program-counter value).
        target: usize,
    },
    /// Allocate an I-structure array. The array reference is produced
    /// asynchronously by the Array Manager and delivered into `dst`; the SP
    /// keeps executing until it actually needs `dst` (§4.1).
    ArrayAlloc {
        /// Slot that will receive the array reference.
        dst: SlotId,
        /// Source-level array name (diagnostics and headers). Shared, so
        /// every array the instruction allocates reuses the one copy.
        name: Arc<str>,
        /// Dimension extents.
        dims: Vec<Operand>,
        /// `true` once the partitioner converted this into the distributing
        /// allocate operator.
        distributed: bool,
    },
    /// Split-phase I-structure element read: issue the request and continue;
    /// the value is delivered into `dst` later. Issuing clears `dst`'s
    /// presence bit so a stale value from a previous iteration is never
    /// consumed.
    ArrayLoad {
        /// Slot that will receive the element value.
        dst: SlotId,
        /// The array reference operand.
        array: Operand,
        /// Element indices (zero-based).
        indices: Vec<Operand>,
    },
    /// I-structure element write.
    ArrayStore {
        /// The array reference operand.
        array: Operand,
        /// Element indices (zero-based).
        indices: Vec<Operand>,
        /// The value to store.
        value: Operand,
    },
    /// Spawn a child SP instance (the `L` operator) or, after partitioning,
    /// replicate it on every PE (the `LD` operator).
    Spawn {
        /// The template to instantiate.
        target: SpId,
        /// Argument operands copied into the child's parameter slots.
        args: Vec<Operand>,
        /// `true` for the distributing `LD` form.
        distributed: bool,
        /// Slot of *this* frame that receives the child's return value, for
        /// function calls. Loop spawns carry `None`.
        ret: Option<SlotId>,
    },
    /// Range-Filter lower bound: `dst <- max(default, start of this PE's
    /// responsibility range)` for the given array and dimension (Figure 5).
    RangeLo {
        /// Destination slot.
        dst: SlotId,
        /// The array whose header is consulted.
        array: Operand,
        /// The dimension of the index space being filtered.
        dim: usize,
        /// The original loop bound.
        default: Operand,
        /// The enclosing loop index, needed when `dim > 0`.
        outer: Option<Operand>,
    },
    /// Range-Filter upper bound: `dst <- min(default, end of this PE's
    /// responsibility range)`.
    RangeHi {
        /// Destination slot.
        dst: SlotId,
        /// The array whose header is consulted.
        array: Operand,
        /// The dimension of the index space being filtered.
        dim: usize,
        /// The original loop bound.
        default: Operand,
        /// The enclosing loop index, needed when `dim > 0`.
        outer: Option<Operand>,
    },
    /// Terminate the SP and (for function bodies) send the result token back
    /// to the parent instance.
    Return {
        /// The returned value, if the SP produces one.
        value: Option<Operand>,
    },
}

impl Instr {
    /// The slots this instruction *reads* (and therefore needs present).
    pub fn read_slots(&self) -> Vec<SlotId> {
        let mut out = Vec::new();
        let mut push = |op: &Operand| {
            if let Some(s) = op.slot() {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        };
        match self {
            Instr::Binary { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
            Instr::Unary { src, .. } => push(src),
            Instr::Move { src, .. } => push(src),
            Instr::BranchIfFalse { cond, .. } => push(cond),
            Instr::Jump { .. } => {}
            Instr::ArrayAlloc { dims, .. } => {
                for d in dims {
                    push(d);
                }
            }
            Instr::ArrayLoad { array, indices, .. } => {
                push(array);
                for i in indices {
                    push(i);
                }
            }
            Instr::ArrayStore {
                array,
                indices,
                value,
            } => {
                push(array);
                for i in indices {
                    push(i);
                }
                push(value);
            }
            Instr::Spawn { args, .. } => {
                for a in args {
                    push(a);
                }
            }
            Instr::RangeLo {
                array,
                default,
                outer,
                ..
            }
            | Instr::RangeHi {
                array,
                default,
                outer,
                ..
            } => {
                push(array);
                push(default);
                if let Some(o) = outer {
                    push(o);
                }
            }
            Instr::Return { value } => {
                if let Some(v) = value {
                    push(v);
                }
            }
        }
        out
    }

    /// The slot this instruction writes, if any.
    pub fn written_slot(&self) -> Option<SlotId> {
        match self {
            Instr::Binary { dst, .. }
            | Instr::Unary { dst, .. }
            | Instr::Move { dst, .. }
            | Instr::ArrayAlloc { dst, .. }
            | Instr::ArrayLoad { dst, .. }
            | Instr::RangeLo { dst, .. }
            | Instr::RangeHi { dst, .. } => Some(*dst),
            Instr::Spawn { ret, .. } => *ret,
            _ => None,
        }
    }

    /// Rewrites jump targets with the provided function (used when the
    /// partitioner inserts prologue instructions).
    pub fn shift_targets(&mut self, f: impl Fn(usize) -> usize) {
        match self {
            Instr::BranchIfFalse { target, .. } | Instr::Jump { target } => {
                *target = f(*target);
            }
            _ => {}
        }
    }

    /// Rewrites every slot reference — destinations, operands, and return
    /// slots — with the provided function. Used by the chunking transform
    /// when it inserts slots into the middle of a frame layout.
    pub fn map_slots(&mut self, f: impl Fn(SlotId) -> SlotId) {
        let map_op = |op: &mut Operand| {
            if let Operand::Slot(s) = op {
                *s = f(*s);
            }
        };
        match self {
            Instr::Binary { dst, lhs, rhs, .. } => {
                *dst = f(*dst);
                map_op(lhs);
                map_op(rhs);
            }
            Instr::Unary { dst, src, .. } => {
                *dst = f(*dst);
                map_op(src);
            }
            Instr::Move { dst, src } => {
                *dst = f(*dst);
                map_op(src);
            }
            Instr::BranchIfFalse { cond, .. } => map_op(cond),
            Instr::Jump { .. } => {}
            Instr::ArrayAlloc { dst, dims, .. } => {
                *dst = f(*dst);
                for d in dims {
                    map_op(d);
                }
            }
            Instr::ArrayLoad {
                dst,
                array,
                indices,
            } => {
                *dst = f(*dst);
                map_op(array);
                for i in indices {
                    map_op(i);
                }
            }
            Instr::ArrayStore {
                array,
                indices,
                value,
            } => {
                map_op(array);
                for i in indices {
                    map_op(i);
                }
                map_op(value);
            }
            Instr::Spawn { args, ret, .. } => {
                for a in args {
                    map_op(a);
                }
                if let Some(r) = ret {
                    *r = f(*r);
                }
            }
            Instr::RangeLo {
                dst,
                array,
                default,
                outer,
                ..
            }
            | Instr::RangeHi {
                dst,
                array,
                default,
                outer,
                ..
            } => {
                *dst = f(*dst);
                map_op(array);
                map_op(default);
                if let Some(o) = outer {
                    map_op(o);
                }
            }
            Instr::Return { value } => {
                if let Some(v) = value {
                    map_op(v);
                }
            }
        }
    }

    /// `true` for instructions that complete asynchronously (split-phase).
    pub fn is_split_phase(&self) -> bool {
        matches!(
            self,
            Instr::ArrayAlloc { .. } | Instr::ArrayLoad { .. } | Instr::Spawn { ret: Some(_), .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pods_idlang::BinaryOp;

    #[test]
    fn read_and_written_slots_are_reported() {
        let i = Instr::Binary {
            op: BinaryOp::Add,
            dst: SlotId(2),
            lhs: Operand::Slot(SlotId(0)),
            rhs: Operand::Int(1),
        };
        assert_eq!(i.read_slots(), vec![SlotId(0)]);
        assert_eq!(i.written_slot(), Some(SlotId(2)));

        let store = Instr::ArrayStore {
            array: Operand::Slot(SlotId(0)),
            indices: vec![Operand::Slot(SlotId(1)), Operand::Slot(SlotId(1))],
            value: Operand::Slot(SlotId(3)),
        };
        assert_eq!(store.read_slots(), vec![SlotId(0), SlotId(1), SlotId(3)]);
        assert_eq!(store.written_slot(), None);
    }

    #[test]
    fn split_phase_classification() {
        assert!(Instr::ArrayLoad {
            dst: SlotId(0),
            array: Operand::Slot(SlotId(1)),
            indices: vec![]
        }
        .is_split_phase());
        assert!(!Instr::Jump { target: 3 }.is_split_phase());
        assert!(Instr::Spawn {
            target: SpId(1),
            args: vec![],
            distributed: false,
            ret: Some(SlotId(4))
        }
        .is_split_phase());
        assert!(!Instr::Spawn {
            target: SpId(1),
            args: vec![],
            distributed: false,
            ret: None
        }
        .is_split_phase());
    }

    #[test]
    fn shift_targets_only_affects_jumps() {
        let mut j = Instr::Jump { target: 5 };
        j.shift_targets(|t| t + 2);
        assert_eq!(j, Instr::Jump { target: 7 });
        let mut b = Instr::BranchIfFalse {
            cond: Operand::Bool(true),
            target: 1,
        };
        b.shift_targets(|t| t + 2);
        assert!(matches!(b, Instr::BranchIfFalse { target: 3, .. }));
        let mut m = Instr::Move {
            dst: SlotId(0),
            src: Operand::Int(1),
        };
        let before = m.clone();
        m.shift_targets(|t| t + 2);
        assert_eq!(m, before);
    }

    #[test]
    fn map_slots_rewrites_every_slot_reference() {
        let bump = |s: SlotId| SlotId(s.0 + 10);
        let mut b = Instr::Binary {
            op: BinaryOp::Add,
            dst: SlotId(0),
            lhs: Operand::Slot(SlotId(1)),
            rhs: Operand::Int(3),
        };
        b.map_slots(bump);
        assert_eq!(
            b,
            Instr::Binary {
                op: BinaryOp::Add,
                dst: SlotId(10),
                lhs: Operand::Slot(SlotId(11)),
                rhs: Operand::Int(3),
            }
        );
        let mut sp = Instr::Spawn {
            target: SpId(1),
            args: vec![Operand::Slot(SlotId(2)), Operand::Bool(true)],
            distributed: true,
            ret: Some(SlotId(5)),
        };
        sp.map_slots(bump);
        assert_eq!(
            sp,
            Instr::Spawn {
                target: SpId(1),
                args: vec![Operand::Slot(SlotId(12)), Operand::Bool(true)],
                distributed: true,
                ret: Some(SlotId(15)),
            }
        );
        let mut rl = Instr::RangeLo {
            dst: SlotId(0),
            array: Operand::Slot(SlotId(1)),
            dim: 1,
            default: Operand::Slot(SlotId(2)),
            outer: Some(Operand::Slot(SlotId(3))),
        };
        rl.map_slots(bump);
        assert_eq!(rl.written_slot(), Some(SlotId(10)));
        assert_eq!(rl.read_slots(), vec![SlotId(11), SlotId(12), SlotId(13)]);
    }

    #[test]
    fn display_impls() {
        assert_eq!(SlotId(3).to_string(), "s3");
        assert_eq!(SpId(2).to_string(), "SP2");
        assert_eq!(Operand::Slot(SlotId(1)).to_string(), "s1");
        assert_eq!(Operand::Int(7).to_string(), "7");
        assert_eq!(Operand::from(SlotId(4)), Operand::Slot(SlotId(4)));
    }
}
