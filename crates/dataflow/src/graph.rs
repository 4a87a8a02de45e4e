//! The dataflow-graph intermediate representation.
//!
//! A program is a collection of *code blocks* (paper §3): one block for every
//! function body and one for every loop-nest level. Each block is a directed
//! acyclic graph of [`Operator`] nodes; arcs are recorded as each node's list
//! of input nodes. Loop circulation (switch / increment / `D`) is represented
//! inside the loop's own block, and the `L` / `LD` operators connect a parent
//! block to its children, exactly as in Figure 2 of the paper.

use crate::op::Operator;
use pods_idlang::Name;
use std::collections::HashMap;

/// Identifier of a code block within a [`DataflowProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

impl BlockId {
    /// Numeric index of the block.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a node within its code block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Numeric index of the node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a code block corresponds to in the source program.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockKind {
    /// The body of a user function.
    FunctionBody {
        /// Function name.
        function: Name,
    },
    /// One level of a loop nest.
    LoopLevel {
        /// The loop index variable.
        var: Name,
        /// `true` for `downto` loops.
        descending: bool,
        /// Nesting depth within the enclosing function (0 = outermost loop).
        depth: usize,
        /// Ordinal of this loop within its function, in preorder. Used to
        /// correlate graph blocks with SP templates and loop analyses.
        ordinal: usize,
    },
}

/// One node of a code-block graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node's identifier within its block.
    pub id: NodeId,
    /// The operator performed by the node.
    pub op: Operator,
    /// The nodes whose outputs feed this node, in operand order.
    pub inputs: Vec<NodeId>,
}

/// A code block: one scope of the dataflow program.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeBlock {
    /// The block identifier.
    pub id: BlockId,
    /// Human-readable name (function name or `function.loop_var`).
    pub name: Name,
    /// What the block corresponds to.
    pub kind: BlockKind,
    /// The parent block, if any (function bodies have no parent).
    pub parent: Option<BlockId>,
    /// The nodes of the block in creation order (a valid topological order).
    pub nodes: Vec<Node>,
}

impl CodeBlock {
    /// Number of nodes in the block.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the block has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns the node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Verifies that the block is a DAG in which every arc points backwards
    /// (each node only consumes already-defined nodes) and returns a
    /// topological order (the creation order).
    ///
    /// Returns `None` when an arc points forward, which would indicate a
    /// builder bug.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        for node in &self.nodes {
            for input in &node.inputs {
                if input.index() >= node.id.index() {
                    return None;
                }
            }
        }
        Some(self.nodes.iter().map(|n| n.id).collect())
    }

    /// Iterates over the loop-entry (`L` / `LD`) nodes of this block together
    /// with their target blocks.
    pub fn loop_entries(&self) -> impl Iterator<Item = (&Node, BlockId)> {
        self.nodes.iter().filter_map(|n| match n.op {
            Operator::LoopEntry { target, .. } => Some((n, target)),
            _ => None,
        })
    }

    /// Counts the nodes for which `pred` holds.
    pub fn count_ops(&self, pred: impl Fn(&Operator) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(&n.op)).count()
    }
}

/// Aggregate statistics over a dataflow program, reported by the example
/// binaries and used in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphStats {
    /// Total number of code blocks.
    pub blocks: usize,
    /// Number of loop-level blocks.
    pub loop_blocks: usize,
    /// Total number of operator nodes.
    pub nodes: usize,
    /// Number of array-touching nodes (allocate, read, write).
    pub array_ops: usize,
    /// Number of `L`/`LD` operators.
    pub loop_entries: usize,
}

/// A complete dataflow program: all code blocks plus the mapping from
/// function names to their body blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowProgram {
    blocks: Vec<CodeBlock>,
    functions: HashMap<Name, BlockId>,
}

impl DataflowProgram {
    /// Creates an empty program (used by the builder).
    pub(crate) fn new() -> Self {
        DataflowProgram {
            blocks: Vec::new(),
            functions: HashMap::new(),
        }
    }

    /// Adds a block and returns its identifier.
    pub(crate) fn add_block(
        &mut self,
        name: Name,
        kind: BlockKind,
        parent: Option<BlockId>,
    ) -> BlockId {
        let id = BlockId(self.blocks.len());
        if let BlockKind::FunctionBody { function } = &kind {
            self.functions.insert(function.clone(), id);
        }
        self.blocks.push(CodeBlock {
            id,
            name,
            kind,
            parent,
            nodes: Vec::new(),
        });
        id
    }

    /// Appends a node to a block and returns its identifier.
    pub(crate) fn add_node(&mut self, block: BlockId, op: Operator, inputs: Vec<NodeId>) -> NodeId {
        let b = &mut self.blocks[block.index()];
        let id = NodeId(b.nodes.len());
        b.nodes.push(Node { id, op, inputs });
        id
    }

    /// All blocks in creation order.
    pub fn blocks(&self) -> &[CodeBlock] {
        &self.blocks
    }

    /// The block with the given identifier.
    pub fn block(&self, id: BlockId) -> &CodeBlock {
        &self.blocks[id.index()]
    }

    /// The body block of a function, if it exists.
    pub fn function_block(&self, name: &str) -> Option<&CodeBlock> {
        self.functions.get(name).map(|id| self.block(*id))
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Aggregate statistics over the whole program.
    pub fn stats(&self) -> GraphStats {
        let mut stats = GraphStats {
            blocks: self.blocks.len(),
            ..GraphStats::default()
        };
        for block in &self.blocks {
            if matches!(block.kind, BlockKind::LoopLevel { .. }) {
                stats.loop_blocks += 1;
            }
            stats.nodes += block.len();
            stats.array_ops += block.count_ops(|op| op.touches_arrays());
            stats.loop_entries += block.count_ops(|op| op.is_loop_entry());
        }
        stats
    }

    /// The child blocks of a block (targets of its `L`/`LD` operators), in
    /// operator order.
    pub fn children_of(&self, id: BlockId) -> Vec<BlockId> {
        self.block(id)
            .loop_entries()
            .map(|(_, target)| target)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Literal;

    #[test]
    fn build_and_query_a_tiny_program() {
        let mut p = DataflowProgram::new();
        let root = p.add_block(
            "main".into(),
            BlockKind::FunctionBody {
                function: "main".into(),
            },
            None,
        );
        let child = p.add_block(
            "main.i".into(),
            BlockKind::LoopLevel {
                var: "i".into(),
                descending: false,
                depth: 0,
                ordinal: 0,
            },
            Some(root),
        );
        let c0 = p.add_node(root, Operator::Constant(Literal::Int(0)), vec![]);
        let c9 = p.add_node(root, Operator::Constant(Literal::Int(9)), vec![]);
        p.add_node(
            root,
            Operator::LoopEntry {
                target: child,
                distributed: false,
            },
            vec![c0, c9],
        );

        assert_eq!(p.num_blocks(), 2);
        assert!(p.function_block("main").is_some());
        assert!(p.function_block("other").is_none());
        assert_eq!(p.children_of(root), vec![child]);
        assert_eq!(p.block(root).topological_order().unwrap().len(), 3);
        let stats = p.stats();
        assert_eq!(stats.blocks, 2);
        assert_eq!(stats.loop_blocks, 1);
        assert_eq!(stats.nodes, 3);
        assert_eq!(stats.loop_entries, 1);
    }

    #[test]
    fn forward_arcs_are_detected() {
        let block = CodeBlock {
            id: BlockId(0),
            name: "broken".into(),
            kind: BlockKind::FunctionBody {
                function: "broken".into(),
            },
            parent: None,
            nodes: vec![Node {
                id: NodeId(0),
                op: Operator::Return,
                inputs: vec![NodeId(1)],
            }],
        };
        assert_eq!(block.topological_order(), None);
    }
}
