//! Benchmark workloads for the PODS reproduction, written in `idlang`.
//!
//! The centrepiece is a structurally faithful version of **SIMPLE**, the
//! Lawrence Livermore hydrodynamics / heat-conduction benchmark the paper
//! evaluates (§5.2): three major routines over an `n x n` Lagrangian mesh —
//! `velocity_position` (fully parallel), `hydrodynamics` (one large nested
//! loop), and `conduction` (forward and backward sweeps whose loop-carried
//! dependencies make iteration-level parallelism hard) — plus initialisation
//! and boundary code. Physical fidelity is not the point; what matters for
//! the reproduction is the loop-nest structure, the sweep directions, the
//! neighbour access patterns, and the floating-point operation mix, which
//! are preserved.
//!
//! The crate also provides smaller workloads used by the examples, tests,
//! and micro-benchmarks: dense matrix multiply, a 2-D stencil relaxation,
//! the paper's §3 running example, and a trivially parallel "fill" kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod simple;

/// The running example from §3 of the paper: fill a `50 x 10` matrix by
/// calling a function for every element.
pub const PAPER_EXAMPLE: &str = r#"
def main() {
    a = matrix(50, 10);
    for i = 0 to 49 {
        for j = 0 to 9 {
            a[i, j] = f(i, j);
        }
    }
    return a;
}
def f(i, j) {
    return i * 10 + j;
}
"#;

/// Embarrassingly parallel fill of an `n x n` matrix (used by quick tests
/// and as the simplest possible scaling workload).
pub const FILL: &str = r#"
def main(n) {
    a = matrix(n, n);
    for i = 0 to n - 1 {
        for j = 0 to n - 1 {
            a[i, j] = sqrt(i * 1.0) + j * 0.5;
        }
    }
    return a;
}
"#;

/// Dense matrix multiply `c = a * b` on `n x n` matrices.
///
/// The inner-product reduction is expressed with a prefix-sum I-structure
/// (`partial`), the idiomatic single-assignment rendering of an
/// accumulation: the `k` level carries a dependency and stays local, while
/// the `i` level distributes over the PEs.
pub const MATMUL: &str = r#"
def main(n) {
    a = matrix(n, n);
    b = matrix(n, n);
    for i = 0 to n - 1 {
        for j = 0 to n - 1 {
            a[i, j] = (i + 2 * j) * 0.25;
            b[i, j] = (i - j) * 0.5;
        }
    }
    partial = tensor(n, n, n + 1);
    c = matrix(n, n);
    for i = 0 to n - 1 {
        for j = 0 to n - 1 {
            partial[i, j, 0] = 0.0;
            for k = 0 to n - 1 {
                partial[i, j, k + 1] = partial[i, j, k] + a[i, k] * b[k, j];
            }
            c[i, j] = partial[i, j, n];
        }
    }
    return c;
}
"#;

/// One Jacobi-style relaxation step of a 2-D five-point stencil: `next`
/// averages the four neighbours of `grid`. Fully parallel, neighbour reads
/// cross PE boundaries at segment edges.
pub const STENCIL: &str = r#"
def main(n) {
    grid = matrix(n, n);
    for i = 0 to n - 1 {
        for j = 0 to n - 1 {
            grid[i, j] = if i == 0 or j == 0 or i == n - 1 or j == n - 1
                         then 100.0 else 0.0;
        }
    }
    next = matrix(n, n);
    for i = 1 to n - 2 {
        for j = 1 to n - 2 {
            next[i, j] = (grid[i - 1, j] + grid[i + 1, j]
                        + grid[i, j - 1] + grid[i, j + 1]) * 0.25;
        }
    }
    for i = 1 to n - 2 {
        next[i, 0] = grid[i, 0];
        next[i, n - 1] = grid[i, n - 1];
    }
    for j = 0 to n - 1 {
        edge_rows(grid, next, j, n);
    }
    return next;
}
def edge_rows(grid, next, j, n) {
    next[0, j] = grid[0, j];
    next[n - 1, j] = grid[n - 1, j];
    return 0;
}
"#;

/// A first-order linear recurrence (prefix computation). The single loop
/// carries a dependency, so PODS keeps it centralized.
pub const RECURRENCE: &str = r#"
def main(n) {
    src = array(n);
    for i = 0 to n - 1 { src[i] = i * 0.5 + 1.0; }
    acc = array(n);
    acc[0] = src[0];
    for i = 1 to n - 1 {
        acc[i] = acc[i - 1] * 0.99 + src[i];
    }
    return acc;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use pods_idlang::compile;

    #[test]
    fn all_workloads_compile() {
        for (name, src) in [
            ("paper", PAPER_EXAMPLE),
            ("fill", FILL),
            ("matmul", MATMUL),
            ("stencil", STENCIL),
            ("recurrence", RECURRENCE),
            ("simple", simple::SIMPLE),
        ] {
            compile(src).unwrap_or_else(|e| panic!("workload `{name}` failed to compile: {e}"));
        }
    }

    #[test]
    fn paper_example_has_one_loop_nest_of_depth_two() {
        let hir = compile(PAPER_EXAMPLE).unwrap();
        let loops = pods_dataflow::analyze_loops(&hir);
        assert_eq!(loops.len(), 2);
        assert!(loops.iter().all(|l| !l.has_lcd));
    }

    #[test]
    fn matmul_reduction_is_carried_and_outer_loop_is_parallel() {
        let hir = compile(MATMUL).unwrap();
        let loops = pods_dataflow::analyze_loops(&hir);
        // init(i, j) and compute(i, j, k).
        assert_eq!(loops.len(), 5);
        let compute_outer = &loops[2];
        assert_eq!(compute_outer.var, "i");
        assert!(!compute_outer.has_lcd);
        assert!(compute_outer.is_distributable());
    }

    #[test]
    fn recurrence_loop_is_detected_as_carried() {
        let hir = compile(RECURRENCE).unwrap();
        let loops = pods_dataflow::analyze_loops(&hir);
        assert_eq!(loops.len(), 2);
        assert!(!loops[0].has_lcd, "the fill loop is parallel");
        assert!(loops[1].has_lcd, "the prefix loop carries a dependency");
    }
}
