//! Dataflow-graph operators.
//!
//! The operator set mirrors the graphs produced for Id programs in the paper
//! (Figure 2): arithmetic/logic operators, the loop machinery (`L`, `LD`,
//! switch, increment, `D`), I-structure array operators, and the Range-Filter
//! bound operators inserted by the partitioner (Figure 5).

use pods_idlang::{BinaryOp, Name, UnaryOp};

/// A literal constant embedded in the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Literal {
    /// Integer constant.
    Int(i64),
    /// Floating-point constant.
    Float(f64),
    /// Boolean constant.
    Bool(bool),
}

impl std::fmt::Display for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => write!(f, "{v}"),
            Literal::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// A dataflow operator (one node of a code-block graph).
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// A value imported into the code block from its parent scope (a formal
    /// parameter of the block).
    Param {
        /// Name of the imported value.
        name: Name,
    },
    /// A literal constant.
    Constant(Literal),
    /// A binary ALU operation.
    Binary(BinaryOp),
    /// A unary ALU operation.
    Unary(UnaryOp),
    /// The switch operator: routes its data input according to a predicate
    /// (used for conditionals and the loop back edge).
    Switch,
    /// The merge operator joining the two arms of a conditional.
    Merge,
    /// The index-increment operator of a loop's circulation subgraph.
    Increment,
    /// The `D` operator delimiting loop iterations (termination test).
    LoopTest,
    /// The `L` operator: enters a child code block, creating a new context
    /// and transmitting the listed values into it.
    LoopEntry {
        /// The child block entered by this operator.
        target: super::graph::BlockId,
        /// `true` once the partitioner has converted this `L` into the
        /// distributing `LD` operator that spawns the child on every PE.
        distributed: bool,
    },
    /// Allocation of an I-structure array.
    ArrayAllocate {
        /// Source-level array name.
        name: Name,
        /// Number of dimensions.
        ndims: usize,
        /// `true` once the partitioner has converted this into the
        /// distributing allocate operator.
        distributed: bool,
    },
    /// An I-structure element read (split-phase).
    ArrayRead,
    /// An I-structure element write.
    ArrayWrite,
    /// The Range-Filter lower-bound operator `max(init, start_range)`.
    RangeLo,
    /// The Range-Filter upper-bound operator `min(limit, end_range)`.
    RangeHi,
    /// A user-function application (spawns the callee's body block).
    Apply {
        /// Callee function name.
        function: Name,
    },
    /// The value returned from a code block to its parent.
    Return,
}

impl Operator {
    /// A short human-readable label of the operator.
    pub fn label(&self) -> String {
        match self {
            Operator::Param { name } => format!("param {name}"),
            Operator::Constant(lit) => format!("const {lit}"),
            Operator::Binary(op) => format!("{op}"),
            Operator::Unary(op) => format!("{op}"),
            Operator::Switch => "switch".into(),
            Operator::Merge => "merge".into(),
            Operator::Increment => "+1".into(),
            Operator::LoopTest => "D".into(),
            Operator::LoopEntry {
                target,
                distributed,
            } => {
                if *distributed {
                    format!("LD -> block{}", target.index())
                } else {
                    format!("L -> block{}", target.index())
                }
            }
            Operator::ArrayAllocate {
                name, distributed, ..
            } => {
                if *distributed {
                    format!("alloc-dist {name}")
                } else {
                    format!("alloc {name}")
                }
            }
            Operator::ArrayRead => "i-fetch".into(),
            Operator::ArrayWrite => "i-store".into(),
            Operator::RangeLo => "range-lo".into(),
            Operator::RangeHi => "range-hi".into(),
            Operator::Apply { function } => format!("apply {function}"),
            Operator::Return => "return".into(),
        }
    }

    /// Returns `true` for operators that interact with the I-structure
    /// memory (used by graph statistics).
    pub fn touches_arrays(&self) -> bool {
        matches!(
            self,
            Operator::ArrayAllocate { .. } | Operator::ArrayRead | Operator::ArrayWrite
        )
    }

    /// Returns `true` for the loop-entry operators (`L` / `LD`).
    pub fn is_loop_entry(&self) -> bool {
        matches!(self, Operator::LoopEntry { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BlockId;

    #[test]
    fn labels_are_nonempty_and_distinguish_distribution() {
        let l = Operator::LoopEntry {
            target: BlockId(2),
            distributed: false,
        };
        let ld = Operator::LoopEntry {
            target: BlockId(2),
            distributed: true,
        };
        assert!(l.label().starts_with("L "));
        assert!(ld.label().starts_with("LD "));
        assert!(Operator::ArrayRead.touches_arrays());
        assert!(!Operator::Switch.touches_arrays());
        assert!(l.is_loop_entry());
        assert!(!Operator::Return.is_loop_entry());
        assert_eq!(Literal::Int(3).to_string(), "3");
    }
}
