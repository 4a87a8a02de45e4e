//! Loop-nest analysis: loop-carried dependencies and distribution targets.
//!
//! The PODS partitioner needs to know, for every loop level, (a) whether the
//! level exhibits a loop-carried dependency (LCD) and (b) which array the
//! level writes, so the Range Filter can be wired to that array's header
//! (paper §4.2.3–4.2.4). The paper notes that LCD detection in a declarative
//! single-assignment language is easy because the only possible dependency is
//! a flow dependency — and also that it is merely a *heuristic*: a missed
//! dependency cannot affect correctness, only performance, because the
//! I-structure memory still synchronises every read with its write.

use crate::hir::{ExprId, HirExpr, HirNode, HirProgram, HirStmt, List, StmtId};
use crate::name::Name;

/// Identifies a loop level across the compilation pipeline: the enclosing
/// function plus the loop's preorder ordinal within that function.
///
/// The SP translator and the partitioner number loops the same way, so a
/// `LoopKey` ties the SP template of a loop level to its analysis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopKey {
    /// Name of the function containing the loop.
    pub function: Name,
    /// Preorder ordinal of the loop within the function.
    pub ordinal: usize,
}

impl std::fmt::Display for LoopKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.function, self.ordinal)
    }
}

/// A write access found inside a loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteAccess {
    /// Name of the written array.
    pub array: Name,
    /// Dimension position whose index expression is exactly the loop
    /// variable, when there is one.
    pub var_dim: Option<usize>,
}

/// Analysis result for one loop level.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// The loop's identity.
    pub key: LoopKey,
    /// The loop index variable.
    pub var: Name,
    /// Nesting depth within the function (0 = outermost loop).
    pub depth: usize,
    /// `true` for descending (`downto`) loops.
    pub descending: bool,
    /// Ordinal of the directly enclosing loop, when nested.
    pub parent: Option<usize>,
    /// Arrays written anywhere inside this loop level (including nested
    /// levels), with the dimension indexed by this loop's variable.
    pub writes: Vec<WriteAccess>,
    /// `true` when a loop-carried dependency was detected at this level.
    pub has_lcd: bool,
    /// `true` when an array written in the body is also passed to a function
    /// call inside the body (treated conservatively as an LCD).
    pub escapes_to_call: bool,
}

impl LoopInfo {
    /// The distribution target: the first array written in the body whose
    /// write is indexed by this loop's variable. The Range Filter of a
    /// distributed instance of the loop consults this array's header.
    pub fn distribution_target(&self) -> Option<&WriteAccess> {
        self.writes.iter().find(|w| w.var_dim.is_some())
    }

    /// Whether the PODS distribution algorithm (§4.2.4) would mark this loop
    /// level for distribution: no LCD, no escaping writes, and a usable
    /// distribution target.
    pub fn is_distributable(&self) -> bool {
        !self.has_lcd && !self.escapes_to_call && self.distribution_target().is_some()
    }
}

/// Analyses every loop of an HIR program, in preorder per function.
pub fn analyze_loops(hir: &HirProgram) -> Vec<LoopInfo> {
    let mut out = Vec::new();
    for function in &hir.functions {
        let mut counter = 0usize;
        analyze_block(
            hir,
            &function.name,
            function.body,
            None,
            0,
            &mut counter,
            &mut out,
        );
    }
    out
}

/// Looks up the analysis of a specific loop.
pub fn find_loop<'a>(
    infos: &'a [LoopInfo],
    function: &str,
    ordinal: usize,
) -> Option<&'a LoopInfo> {
    infos
        .iter()
        .find(|info| info.key.function == function && info.key.ordinal == ordinal)
}

fn analyze_block(
    hir: &HirProgram,
    function: &Name,
    stmts: List<StmtId>,
    parent: Option<usize>,
    depth: usize,
    counter: &mut usize,
    out: &mut Vec<LoopInfo>,
) {
    for id in hir.stmts(stmts) {
        match hir.stmt(id) {
            HirStmt::For {
                var,
                descending,
                body,
                ..
            } => {
                let ordinal = *counter;
                *counter += 1;

                let mut writes = Vec::new();
                collect_writes(hir, *body, var, &mut writes);
                let has_lcd = detect_lcd(hir, *body, var, &writes);
                let escapes_to_call = detect_escape(hir, *body, &writes);

                out.push(LoopInfo {
                    key: LoopKey {
                        function: function.clone(),
                        ordinal,
                    },
                    var: var.clone(),
                    depth,
                    descending: *descending,
                    parent,
                    writes,
                    has_lcd,
                    escapes_to_call,
                });

                analyze_block(hir, function, *body, Some(ordinal), depth + 1, counter, out);
            }
            HirStmt::If {
                then_body,
                else_body,
                ..
            } => {
                analyze_block(hir, function, *then_body, parent, depth, counter, out);
                analyze_block(hir, function, *else_body, parent, depth, counter, out);
            }
            _ => {}
        }
    }
}

/// `true` when expression `id` is exactly the variable `var`.
fn is_var(hir: &HirProgram, id: ExprId, var: &str) -> bool {
    matches!(hir.expr(id), HirExpr::Var(name) if name == var)
}

/// Collects every array written in `stmts` (recursively) together with the
/// dimension indexed by `var`, if any.
fn collect_writes(hir: &HirProgram, stmts: List<StmtId>, var: &str, out: &mut Vec<WriteAccess>) {
    hir.walk(stmts, &mut |node| {
        let HirNode::Stmt(HirStmt::Store { array, indices, .. }) = node else {
            return;
        };
        let var_dim = hir.exprs(*indices).position(|idx| is_var(hir, idx, var));
        if let Some(existing) = out.iter_mut().find(|w| &w.array == array) {
            if existing.var_dim.is_none() {
                existing.var_dim = var_dim;
            }
        } else {
            out.push(WriteAccess {
                array: array.clone(),
                var_dim,
            });
        }
    });
}

/// Detects a loop-carried (flow) dependency for the loop over `var`: some
/// array is written at `var` along dimension `p` and read along dimension `p`
/// with an index expression that is not exactly `var` (e.g. `var - 1`, a
/// constant, or another variable).
fn detect_lcd(hir: &HirProgram, stmts: List<StmtId>, var: &str, writes: &[WriteAccess]) -> bool {
    writes.iter().any(|write| {
        let Some(dim) = write.var_dim else {
            // The loop variable does not index this array's writes; every
            // iteration writes the same region, which the run-time
            // single-assignment check will flag. It is not an iteration
            // ordering constraint, so it is ignored here.
            return false;
        };
        let mut lcd = false;
        hir.walk(stmts, &mut |node| {
            if let HirNode::Expr(HirExpr::Load { array, indices }) = node {
                let at_var = hir
                    .exprs(*indices)
                    .nth(dim)
                    .is_some_and(|idx| is_var(hir, idx, var));
                lcd |= array == &write.array && !at_var;
            }
        });
        lcd
    })
}

/// Detects whether an array written in the loop body is also passed to a
/// user-function call inside the body.
fn detect_escape(hir: &HirProgram, stmts: List<StmtId>, writes: &[WriteAccess]) -> bool {
    let written = |arg: ExprId| match hir.expr(arg) {
        HirExpr::Var(name) => writes.iter().any(|w| &w.array == name),
        _ => false,
    };
    let mut escapes = false;
    hir.walk(stmts, &mut |node| {
        if let HirNode::Stmt(HirStmt::Call { args, .. })
        | HirNode::Expr(HirExpr::Call { args, .. }) = node
        {
            escapes |= hir.exprs(*args).any(written);
        }
    });
    escapes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn analyze(src: &str) -> Vec<LoopInfo> {
        analyze_loops(&compile(src).unwrap())
    }

    #[test]
    fn parallel_nested_loop_has_no_lcd() {
        let infos = analyze(
            r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 {
                        a[i, j] = i + j;
                    }
                }
                return a;
            }
        "#,
        );
        assert_eq!(infos.len(), 2);
        let outer = &infos[0];
        assert_eq!(outer.var, "i");
        assert!(!outer.has_lcd);
        assert!(outer.is_distributable());
        assert_eq!(outer.distribution_target().unwrap().array, "a");
        assert_eq!(outer.distribution_target().unwrap().var_dim, Some(0));
        let inner = &infos[1];
        assert_eq!(inner.var, "j");
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.distribution_target().unwrap().var_dim, Some(1));
    }

    #[test]
    fn recurrence_is_detected_as_lcd() {
        let infos = analyze(
            r#"
            def main(n, src) {
                a = array(n);
                a[0] = src[0];
                for i = 1 to n - 1 {
                    a[i] = a[i - 1] + src[i];
                }
                return a;
            }
        "#,
        );
        assert_eq!(infos.len(), 1);
        assert!(infos[0].has_lcd);
        assert!(!infos[0].is_distributable());
    }

    #[test]
    fn descending_sweep_reading_the_next_element_is_an_lcd() {
        let infos = analyze(
            r#"
            def main(n, b) {
                a = array(n);
                a[n - 1] = b[n - 1];
                for i = n - 2 downto 0 {
                    a[i] = a[i + 1] * 0.5 + b[i];
                }
                return a;
            }
        "#,
        );
        assert!(infos[0].descending);
        assert!(infos[0].has_lcd);
    }

    #[test]
    fn reading_a_different_array_is_not_an_lcd() {
        // velocity_position-style loop: writes one array, reads neighbours of
        // *other* arrays.
        let infos = analyze(
            r#"
            def main(n, u, v) {
                x = matrix(n, n);
                for i = 1 to n - 2 {
                    for j = 1 to n - 2 {
                        x[i, j] = u[i - 1, j] + v[i, j + 1];
                    }
                }
                return x;
            }
        "#,
        );
        assert!(!infos[0].has_lcd);
        assert!(!infos[1].has_lcd);
        assert!(infos[0].is_distributable());
    }

    #[test]
    fn outer_lcd_with_parallel_inner_level() {
        // Row-sweep: each row depends on the previous row, but the columns
        // within a row are independent — the classic conduction pattern. The
        // outer (i) level has the LCD, the inner (j) level does not.
        let infos = analyze(
            r#"
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
        "#,
        );
        assert_eq!(infos.len(), 3);
        let sweep_outer = &infos[1];
        assert_eq!(sweep_outer.var, "i");
        assert!(sweep_outer.has_lcd);
        let sweep_inner = &infos[2];
        assert_eq!(sweep_inner.var, "j");
        assert!(!sweep_inner.has_lcd, "columns are independent");
        assert!(sweep_inner.is_distributable());
    }

    #[test]
    fn arrays_passed_to_calls_are_conservative() {
        let infos = analyze(
            r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 {
                    a[i] = i;
                    touch(a, i);
                }
                return a;
            }
            def touch(arr, i) { return arr[i]; }
        "#,
        );
        assert!(infos[0].escapes_to_call);
        assert!(!infos[0].is_distributable());
    }

    #[test]
    fn loop_keys_follow_preorder_and_lookup_works() {
        let infos = analyze(
            r#"
            def main(n) {
                a = array(n);
                b = array(n);
                for i = 0 to n - 1 { a[i] = i; }
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { b[j] = i + j; }
                }
                return b;
            }
            def helper(n) {
                c = array(n);
                for k = 0 to n - 1 { c[k] = k; }
                return c;
            }
        "#,
        );
        assert_eq!(infos.len(), 4);
        assert_eq!(
            infos[0].key,
            LoopKey {
                function: "main".into(),
                ordinal: 0
            }
        );
        assert_eq!(infos[1].key.ordinal, 1);
        assert_eq!(infos[2].key.ordinal, 2);
        assert_eq!(infos[2].parent, Some(1));
        assert_eq!(infos[3].key.function, "helper");
        assert_eq!(infos[3].key.ordinal, 0);
        assert!(find_loop(&infos, "helper", 0).is_some());
        assert!(find_loop(&infos, "helper", 1).is_none());
        assert_eq!(infos[0].key.to_string(), "main#0");
    }

    #[test]
    fn loops_inside_conditionals_are_analyzed() {
        let infos = analyze(
            r#"
            def main(n, flag) {
                a = array(n);
                if flag > 0 {
                    for i = 0 to n - 1 { a[i] = i; }
                } else {
                    for i = 0 to n - 1 { a[i] = 0 - i; }
                }
                return a;
            }
        "#,
        );
        assert_eq!(infos.len(), 2);
        assert!(infos.iter().all(|i| !i.has_lcd));
    }
}
