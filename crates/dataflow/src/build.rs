//! Builds dataflow graphs from the HIR.
//!
//! Every function body becomes one code block, every loop level another, so
//! that "each code block, when invoked, becomes a separate SP" (paper §3).
//! Conditionals remain inside their enclosing block as switch/merge nodes.
//!
//! The graphs are faithful to the *structure* the paper works with: they
//! capture data dependencies between operators and the nesting of loop
//! levels. The operational semantics (program counters, blocking) live in the
//! SP translation; the standing benchmark times this build as a probe of the
//! graph stage the SP translator skips.

use crate::graph::{BlockId, BlockKind, DataflowProgram, NodeId};
use crate::op::{Literal, Operator};
use pods_idlang::hir::collect_free_vars_stmts;
use pods_idlang::{HirExpr, HirFunction, HirProgram, HirStmt, Name};
use std::collections::HashMap;

/// Builds the dataflow graph of an entire HIR program.
pub fn build_program(hir: &HirProgram) -> DataflowProgram {
    let mut program = DataflowProgram::new();
    for function in &hir.functions {
        build_function(&mut program, function);
    }
    program
}

/// Builds the dataflow graph of a single function (exposed for tests and
/// tooling that work on fragments).
pub fn build_function(program: &mut DataflowProgram, function: &HirFunction) -> BlockId {
    let block = program.add_block(
        function.name.clone(),
        BlockKind::FunctionBody {
            function: function.name.clone(),
        },
        None,
    );
    let mut builder = BlockBuilder {
        program,
        block,
        env: HashMap::new(),
        function: function.name.clone(),
        loop_counter: 0,
        depth: 0,
    };
    for param in &function.params {
        let node = builder.program.add_node(
            block,
            Operator::Param {
                name: param.clone(),
            },
            vec![],
        );
        builder.env.insert(param.clone(), node);
    }
    builder.build_stmts(&function.body);
    block
}

struct BlockBuilder<'a> {
    program: &'a mut DataflowProgram,
    block: BlockId,
    /// Mapping from visible variable names to the node producing them.
    env: HashMap<Name, NodeId>,
    function: Name,
    /// Preorder loop counter within the enclosing function (shared across
    /// nesting levels so every loop gets a unique ordinal).
    loop_counter: usize,
    depth: usize,
}

impl BlockBuilder<'_> {
    fn add(&mut self, op: Operator, inputs: Vec<NodeId>) -> NodeId {
        self.program.add_node(self.block, op, inputs)
    }

    /// Returns the node holding the value of `name`, creating a `Param` node
    /// when the name is imported from an enclosing scope.
    fn lookup(&mut self, name: &Name) -> NodeId {
        if let Some(&node) = self.env.get(name) {
            return node;
        }
        let node = self.add(Operator::Param { name: name.clone() }, vec![]);
        self.env.insert(name.clone(), node);
        node
    }

    fn build_stmts(&mut self, stmts: &[HirStmt]) {
        for stmt in stmts {
            self.build_stmt(stmt);
        }
    }

    fn build_stmt(&mut self, stmt: &HirStmt) {
        match stmt {
            HirStmt::Let { name, value } => {
                let node = self.build_expr(value);
                self.env.insert(name.clone(), node);
            }
            HirStmt::Alloc { name, dims } => {
                let dim_nodes: Vec<NodeId> = dims.iter().map(|d| self.build_expr(d)).collect();
                let node = self.add(
                    Operator::ArrayAllocate {
                        name: name.clone(),
                        ndims: dims.len(),
                        distributed: false,
                    },
                    dim_nodes,
                );
                self.env.insert(name.clone(), node);
            }
            HirStmt::Store {
                array,
                indices,
                value,
            } => {
                let array_node = self.lookup(array);
                let mut inputs = vec![array_node];
                for idx in indices {
                    let n = self.build_expr(idx);
                    inputs.push(n);
                }
                let v = self.build_expr(value);
                inputs.push(v);
                self.add(Operator::ArrayWrite, inputs);
            }
            HirStmt::For {
                var,
                from,
                to,
                descending,
                body,
            } => {
                self.build_loop(var, from, to, *descending, body);
            }
            HirStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond_node = self.build_expr(cond);
                let switch = self.add(Operator::Switch, vec![cond_node]);
                // Build both arms in the same block. Values bound in the arms
                // are merged so later statements observe a single definition.
                let saved = self.env.clone();
                self.build_stmts(then_body);
                let then_env = std::mem::replace(&mut self.env, saved.clone());
                self.build_stmts(else_body);
                let else_env = std::mem::replace(&mut self.env, saved.clone());
                let mut merged = saved;
                for (name, then_node) in &then_env {
                    match else_env.get(name) {
                        Some(else_node) if else_node != then_node => {
                            let merge =
                                self.add(Operator::Merge, vec![switch, *then_node, *else_node]);
                            merged.insert(name.clone(), merge);
                        }
                        _ => {
                            merged.insert(name.clone(), *then_node);
                        }
                    }
                }
                for (name, else_node) in else_env {
                    merged.entry(name).or_insert(else_node);
                }
                self.env = merged;
            }
            HirStmt::Return { value } => {
                let v = self.build_expr(value);
                self.add(Operator::Return, vec![v]);
            }
            HirStmt::Call { function, args } => {
                let arg_nodes: Vec<NodeId> = args.iter().map(|a| self.build_expr(a)).collect();
                self.add(
                    Operator::Apply {
                        function: function.clone(),
                    },
                    arg_nodes,
                );
            }
        }
    }

    fn build_loop(
        &mut self,
        var: &Name,
        from: &HirExpr,
        to: &HirExpr,
        descending: bool,
        body: &[HirStmt],
    ) {
        let ordinal = self.loop_counter;
        self.loop_counter += 1;

        // The bounds are evaluated in the parent block and passed to the
        // child through the L operator.
        let from_node = self.build_expr(from);
        let to_node = self.build_expr(to);

        // Free variables of the body (other than the loop variable) are also
        // routed through the L operator.
        let mut free = Vec::new();
        collect_free_vars_stmts(body, &mut free);
        free.retain(|name| name != var);

        let child = self.program.add_block(
            format!("{}.{}", self.function, var).into(),
            BlockKind::LoopLevel {
                var: var.clone(),
                descending,
                depth: self.depth,
                ordinal,
            },
            Some(self.block),
        );

        let mut entry_inputs = vec![from_node, to_node];
        for name in &free {
            let node = self.lookup(name);
            entry_inputs.push(node);
        }
        self.add(
            Operator::LoopEntry {
                target: child,
                distributed: false,
            },
            entry_inputs,
        );

        // Build the child block: the index-circulation subgraph of Figure 2
        // (params for the bounds and imports, increment, D, switch) plus the
        // body of the loop.
        let mut child_env = HashMap::new();
        let from_param = self.program.add_node(
            child,
            Operator::Param {
                name: format!("{var}__init").into(),
            },
            vec![],
        );
        let to_param = self.program.add_node(
            child,
            Operator::Param {
                name: format!("{var}__limit").into(),
            },
            vec![],
        );
        for name in &free {
            let node = self
                .program
                .add_node(child, Operator::Param { name: name.clone() }, vec![]);
            child_env.insert(name.clone(), node);
        }
        // Index circulation: increment feeds the D (termination) test which
        // feeds the switch producing the per-iteration index value.
        let incr = self
            .program
            .add_node(child, Operator::Increment, vec![from_param]);
        let test = self
            .program
            .add_node(child, Operator::LoopTest, vec![incr, to_param]);
        let index = self
            .program
            .add_node(child, Operator::Switch, vec![test, from_param]);
        child_env.insert(var.clone(), index);

        let loop_count = self.loop_counter;
        let mut child_builder = BlockBuilder {
            program: self.program,
            block: child,
            env: child_env,
            function: self.function.clone(),
            loop_counter: loop_count,
            depth: self.depth + 1,
        };
        child_builder.build_stmts(body);
        self.loop_counter = child_builder.loop_counter;
    }

    fn build_expr(&mut self, expr: &HirExpr) -> NodeId {
        match expr {
            HirExpr::Int(v) => self.add(Operator::Constant(Literal::Int(*v)), vec![]),
            HirExpr::Float(v) => self.add(Operator::Constant(Literal::Float(*v)), vec![]),
            HirExpr::Bool(v) => self.add(Operator::Constant(Literal::Bool(*v)), vec![]),
            HirExpr::Var(name) => self.lookup(name),
            HirExpr::Load { array, indices } => {
                let array_node = self.lookup(array);
                let mut inputs = vec![array_node];
                for idx in indices {
                    let n = self.build_expr(idx);
                    inputs.push(n);
                }
                self.add(Operator::ArrayRead, inputs)
            }
            HirExpr::Unary { op, operand } => {
                let o = self.build_expr(operand);
                self.add(Operator::Unary(*op), vec![o])
            }
            HirExpr::Binary { op, lhs, rhs } => {
                let l = self.build_expr(lhs);
                let r = self.build_expr(rhs);
                self.add(Operator::Binary(*op), vec![l, r])
            }
            HirExpr::Call { function, args } => {
                let arg_nodes: Vec<NodeId> = args.iter().map(|a| self.build_expr(a)).collect();
                self.add(
                    Operator::Apply {
                        function: function.clone(),
                    },
                    arg_nodes,
                )
            }
            HirExpr::Select {
                cond,
                then_value,
                else_value,
            } => {
                let c = self.build_expr(cond);
                let switch = self.add(Operator::Switch, vec![c]);
                let t = self.build_expr(then_value);
                let e = self.build_expr(else_value);
                self.add(Operator::Merge, vec![switch, t, e])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BlockKind;
    use pods_idlang::compile;

    const PAPER_EXAMPLE: &str = r#"
        def main() {
            a = matrix(50, 10);
            for i = 0 to 49 {
                for j = 0 to 9 {
                    a[i, j] = f(i, j);
                }
            }
            return a;
        }
        def f(i, j) { return i * 10 + j; }
    "#;

    #[test]
    fn paper_example_produces_three_scopes_for_main() {
        let hir = compile(PAPER_EXAMPLE).unwrap();
        let graph = build_program(&hir);
        // main body, i-loop, j-loop, plus the body of f.
        assert_eq!(graph.num_blocks(), 4);
        let main = graph.function_block("main").unwrap();
        assert!(matches!(main.kind, BlockKind::FunctionBody { .. }));
        let children = graph.children_of(main.id);
        assert_eq!(children.len(), 1, "main enters the i-loop");
        let i_loop = graph.block(children[0]);
        match &i_loop.kind {
            BlockKind::LoopLevel { var, depth, .. } => {
                assert_eq!(var, "i");
                assert_eq!(*depth, 0);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        let grandchildren = graph.children_of(i_loop.id);
        assert_eq!(grandchildren.len(), 1, "the i-loop enters the j-loop");
        let j_loop = graph.block(grandchildren[0]);
        assert!(j_loop.count_ops(|op| matches!(op, Operator::ArrayWrite)) == 1);
        assert!(j_loop.count_ops(|op| matches!(op, Operator::Apply { .. })) == 1);
    }

    #[test]
    fn all_blocks_are_topologically_ordered() {
        let hir = compile(PAPER_EXAMPLE).unwrap();
        let graph = build_program(&hir);
        for block in graph.blocks() {
            assert!(
                block.topological_order().is_some(),
                "block {} has a forward arc",
                block.name
            );
        }
    }

    #[test]
    fn loop_ordinals_are_unique_per_function() {
        let src = r#"
            def main(n) {
                a = array(n);
                b = array(n);
                for i = 0 to n - 1 { a[i] = i; }
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { b[j] = j + i; }
                }
                return b;
            }
        "#;
        let hir = compile(src).unwrap();
        let graph = build_program(&hir);
        let mut ordinals: Vec<usize> = graph
            .blocks()
            .iter()
            .filter_map(|b| match &b.kind {
                BlockKind::LoopLevel { ordinal, .. } => Some(*ordinal),
                _ => None,
            })
            .collect();
        ordinals.sort_unstable();
        assert_eq!(ordinals, vec![0, 1, 2]);
    }

    #[test]
    fn conditionals_produce_switch_and_merge() {
        let src = "def main(c) { if c > 0 { z = 1; } else { z = 2; } return z; }";
        let hir = compile(src).unwrap();
        let graph = build_program(&hir);
        let main = graph.function_block("main").unwrap();
        assert!(main.count_ops(|op| matches!(op, Operator::Switch)) >= 1);
        assert!(main.count_ops(|op| matches!(op, Operator::Merge)) >= 1);
    }

    #[test]
    fn free_variable_collection_skips_bound_names() {
        let src = "def main(n, a) { for i = 0 to n - 1 { t = i * 2; a[i] = t + n; } return a; }";
        let hir = compile(src).unwrap();
        match &hir.function("main").unwrap().body[0] {
            HirStmt::For { body, .. } => {
                let mut free = Vec::new();
                collect_free_vars_stmts(body, &mut free);
                assert!(free.iter().any(|v| v == "a"));
                assert!(free.iter().any(|v| v == "n"));
                assert!(!free.iter().any(|v| v == "t"), "t is bound in the body");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_count_array_operations() {
        let hir = compile(PAPER_EXAMPLE).unwrap();
        let graph = build_program(&hir);
        let stats = graph.stats();
        assert_eq!(stats.blocks, 4);
        assert_eq!(stats.loop_blocks, 2);
        assert_eq!(stats.loop_entries, 2);
        assert!(stats.array_ops >= 2, "allocate + write at least");
        assert!(stats.nodes > 10);
    }
}
