//! The SIMPLE hydrodynamics / heat-conduction benchmark (paper §5.2).
//!
//! SIMPLE (Crowley et al., LLNL UCID-17715) simulates the behaviour of a
//! fluid in a sphere with a Lagrangian formulation. The paper's evaluation
//! runs an Id version of SIMPLE on 16x16, 32x32, and 64x64 meshes. This is a
//! structurally faithful `idlang` rendering of one time step:
//!
//! * `init_state` — mesh and state initialisation (parallel),
//! * `velocity_position` — acceleration from pressure/viscosity gradients,
//!   velocity and position update; no loop-carried dependencies, "runs in
//!   parallel very well",
//! * `hydrodynamics` — cell geometry, density, artificial viscosity, energy
//!   and pressure update; "basically one big nested loop",
//! * `conduction` — heat conduction via a forward (ascending) and a backward
//!   (descending) row sweep in which every element is recalculated twice from
//!   its neighbours; the sweeps carry dependencies across rows, which is what
//!   makes iteration-level parallelism challenging (the columns within a row
//!   remain independent and are what PODS distributes),
//! * boundary routines and a per-row checksum.
//!
//! The physics constants are simplified, but the loop nesting, sweep
//! directions, array access patterns (neighbour reads, row recurrences), and
//! floating-point operation mix follow the original routine structure.

/// The SIMPLE benchmark source. `main(n)` runs one time step on an `n x n`
/// mesh and returns a per-row checksum vector.
pub const SIMPLE: &str = r#"
# SIMPLE: Lagrangian hydrodynamics + heat conduction, one time step.

def main(n) {
    # State at the beginning of the step.
    x = matrix(n, n);
    y = matrix(n, n);
    u = matrix(n, n);
    v = matrix(n, n);
    rho = matrix(n, n);
    e = matrix(n, n);
    p = matrix(n, n);
    q = matrix(n, n);
    theta = matrix(n, n);
    init_state(x, y, u, v, rho, e, p, q, theta, n);

    # Phase 1: velocity and position update.
    un = matrix(n, n);
    vn = matrix(n, n);
    xn = matrix(n, n);
    yn = matrix(n, n);
    velocity_position(u, v, x, y, p, q, un, vn, xn, yn, n);

    # Phase 2: hydrodynamics (density, viscosity, energy, pressure).
    rhon = matrix(n, n);
    qn = matrix(n, n);
    pn = matrix(n, n);
    en = matrix(n, n);
    hydrodynamics(rho, e, p, un, vn, xn, yn, rhon, qn, pn, en, n);

    # Phase 3: heat conduction (forward + backward sweeps).
    theta_half = matrix(n, n);
    thetan = matrix(n, n);
    conduction(theta, en, rhon, theta_half, thetan, n);

    # Per-row checksum so callers can validate the run cheaply.
    s = array(n);
    checksum(thetan, pn, un, s, n);
    return s;
}

def init_state(x, y, u, v, rho, e, p, q, theta, n) {
    for i = 0 to n - 1 {
        for j = 0 to n - 1 {
            # Polar-ish Lagrangian mesh: radius grows with i, angle with j.
            r = 1.0 + i * 0.05;
            ang = j * 0.01;
            x[i, j] = r * cos(ang);
            y[i, j] = r * sin(ang);
            u[i, j] = 0.0;
            v[i, j] = 0.0;
            rho[i, j] = 1.4 + 0.01 * i;
            e[i, j] = 1.0 + 0.005 * (i + j);
            p[i, j] = 0.4 * rho[i, j] * e[i, j];
            q[i, j] = 0.0;
            theta[i, j] = 300.0 + sqrt(e[i, j]) * 10.0 + 0.5 * j;
        }
    }
    return 0;
}

# Phase 1: accelerations from pressure/viscosity gradients, then velocity and
# position integration. Interior cells only; boundaries copy the old state.
def velocity_position(u, v, x, y, p, q, un, vn, xn, yn, n) {
    dt = 0.01;
    for i = 1 to n - 2 {
        for j = 1 to n - 2 {
            # Pressure + viscosity gradients across the cell corners, scaled
            # by the local cell geometry (finite-difference Lagrangian form).
            dxj = x[i, j + 1] - x[i, j - 1];
            dyj = y[i, j + 1] - y[i, j - 1];
            dxi = x[i + 1, j] - x[i - 1, j];
            dyi = y[i + 1, j] - y[i - 1, j];
            metric = sqrt(dxj * dxj + dyj * dyj) * sqrt(dxi * dxi + dyi * dyi) + 0.0001;
            # Corner-area weights of the Lagrangian control volume.
            w1 = sqrt(abs(dxj * dyi - dxi * dyj) + 0.0001);
            w2 = pow(metric, 0.5);
            gradp_x = (p[i, j + 1] - p[i, j - 1] + q[i, j + 1] - q[i, j - 1]) * 0.5 * w1 / w2;
            gradp_y = (p[i + 1, j] - p[i - 1, j] + q[i + 1, j] - q[i - 1, j]) * 0.5 * w1 / w2;
            ax = 0.0 - gradp_x / metric;
            ay = 0.0 - gradp_y / metric;
            un[i, j] = u[i, j] + dt * ax;
            vn[i, j] = v[i, j] + dt * ay;
            xn[i, j] = x[i, j] + dt * un[i, j];
            yn[i, j] = y[i, j] + dt * vn[i, j];
        }
    }
    boundary_copy(u, un, n);
    boundary_copy(v, vn, n);
    boundary_copy(x, xn, n);
    boundary_copy(y, yn, n);
    return 0;
}

# Copies the boundary frame of `old` into `new`.
def boundary_copy(old, new, n) {
    for i = 1 to n - 2 {
        new[i, 0] = old[i, 0];
        new[i, n - 1] = old[i, n - 1];
    }
    for j = 0 to n - 1 {
        copy_row_edges(old, new, j, n);
    }
    return 0;
}

def copy_row_edges(old, new, j, n) {
    new[0, j] = old[0, j];
    new[n - 1, j] = old[n - 1, j];
    return 0;
}

# Phase 2: one large nested loop updating density, artificial viscosity,
# energy, and pressure from the new geometry.
def hydrodynamics(rho, e, p, un, vn, xn, yn, rhon, qn, pn, en, n) {
    gamma = 1.4;
    dt = 0.01;
    for i = 1 to n - 2 {
        for j = 1 to n - 2 {
            # Cell area from the new corner coordinates (cross product),
            # density from mass conservation, artificial viscosity from the
            # compression rate, energy from the work term, and pressure from
            # a gamma-law equation of state with a sound-speed term.
            area = abs((xn[i, j + 1] - xn[i, j - 1]) * (yn[i + 1, j] - yn[i - 1, j])
                     - (xn[i + 1, j] - xn[i - 1, j]) * (yn[i, j + 1] - yn[i, j - 1])) * 0.25
                 + 1.0;
            rhon[i, j] = rho[i, j] * (2.0 - area) + 0.001;
            du = un[i, j + 1] - un[i, j - 1];
            dv = vn[i + 1, j] - vn[i - 1, j];
            cmpr = du + dv;
            # Sound speed and artificial viscosity (von Neumann-Richtmyer
            # form with a linear term).
            csound = sqrt(gamma * abs(p[i, j]) / rhon[i, j]);
            qn[i, j] = if cmpr < 0.0
                       then 0.5 * rhon[i, j] * (cmpr * cmpr + csound * abs(cmpr))
                       else 0.0;
            # Two-step energy update (predict with the old pressure, correct
            # with the gamma-law equation-of-state pressure of the
            # prediction), as in the original iterative energy solve.
            epred = e[i, j] - (p[i, j] + qn[i, j]) * cmpr * dt / rhon[i, j];
            ppred = (gamma - 1.0) * pow(rhon[i, j], gamma) * epred
                  / pow(abs(rho[i, j]) + 0.001, gamma - 1.0);
            en[i, j] = e[i, j] - (0.5 * (p[i, j] + ppred) + qn[i, j]) * cmpr * dt / rhon[i, j];
            pn[i, j] = (gamma - 1.0) * rhon[i, j] * en[i, j]
                     + 0.01 * sqrt(abs(en[i, j]) + 1.0);
        }
    }
    hydro_boundary(rho, e, p, rhon, qn, pn, en, n);
    return 0;
}

# Boundary cells keep the old state (and zero viscosity).
def hydro_boundary(rho, e, p, rhon, qn, pn, en, n) {
    for i = 1 to n - 2 {
        rhon[i, 0] = rho[i, 0];
        rhon[i, n - 1] = rho[i, n - 1];
        qn[i, 0] = 0.0;
        qn[i, n - 1] = 0.0;
        en[i, 0] = e[i, 0];
        en[i, n - 1] = e[i, n - 1];
        pn[i, 0] = p[i, 0];
        pn[i, n - 1] = p[i, n - 1];
    }
    for j = 0 to n - 1 {
        hydro_row_edges(rho, e, p, rhon, qn, pn, en, j, n);
    }
    return 0;
}

def hydro_row_edges(rho, e, p, rhon, qn, pn, en, j, n) {
    rhon[0, j] = rho[0, j];
    rhon[n - 1, j] = rho[n - 1, j];
    qn[0, j] = 0.0;
    qn[n - 1, j] = 0.0;
    en[0, j] = e[0, j];
    en[n - 1, j] = e[n - 1, j];
    pn[0, j] = p[0, j];
    pn[n - 1, j] = p[n - 1, j];
    return 0;
}

# Phase 3: heat conduction. Two ADI-style sweep phases in which every
# element is recalculated twice, based on its neighbours:
#
#   1. a forward sweep *along each row* (ascending recurrence in j): rows are
#      independent, so PODS distributes them; the recurrence within a row is
#      the loop-carried dependency and stays local to the owning PE;
#   2. a backward sweep *along each column* (descending recurrence in i).
#      To keep the recurrence local under the row-major distribution, the
#      intermediate field is first transposed (a fully parallel but
#      communication-heavy redistribution), swept row-wise on the transposed
#      array, and transposed back.
#
# The conductivity coefficients depend non-linearly on energy and density
# (sqrt terms), as in the original SIMPLE conduction routine.
def conduction(theta, en, rhon, theta_half, thetan, n) {
    # Forward sweep along rows: theta_half[i, j] <- f(theta, theta_half[i, j-1]).
    # The conductivity follows the classical kappa ~ theta^(5/2) law.
    for i = 0 to n - 1 {
        theta_half[i, 0] = theta[i, 0];
        for j = 1 to n - 1 {
            kappa = 0.001 * pow(abs(theta[i, j]) * 0.01, 2.5) / (abs(en[i, j]) + 1.0);
            cc = 0.2 + kappa;
            theta_half[i, j] = (theta[i, j] + cc * theta_half[i, j - 1]) / (1.0 + cc);
        }
    }

    # Redistribute: transpose the intermediate temperature field.
    ttrans = matrix(n, n);
    for i = 0 to n - 1 {
        for j = 0 to n - 1 {
            ttrans[i, j] = theta_half[j, i];
        }
    }

    # Backward sweep along the original columns = along the rows of the
    # transposed field (descending recurrence).
    tswept = matrix(n, n);
    for i = 0 to n - 1 {
        tswept[i, n - 1] = ttrans[i, n - 1];
        for j = n - 2 downto 0 {
            kappa2 = 0.001 * pow(abs(ttrans[i, j]) * 0.01, 2.5);
            cd = 0.2 + kappa2 / (sqrt(abs(rhon[j, i])) + 1.0);
            tswept[i, j] = (ttrans[i, j] + cd * tswept[i, j + 1]) / (1.0 + cd);
        }
    }

    # Transpose back into the final temperature field.
    for i = 0 to n - 1 {
        for j = 0 to n - 1 {
            thetan[i, j] = tswept[j, i];
        }
    }
    return 0;
}

# A cheap per-row signature of the final state.
def checksum(thetan, pn, un, s, n) {
    for i = 0 to n - 1 {
        s[i] = thetan[i, 0] + thetan[i, n - 1] + pn[i, 1] + un[i, 1];
    }
    return 0;
}
"#;

/// The mesh sizes evaluated in the paper (Figures 9 and 10).
pub const PAPER_MESH_SIZES: [usize; 3] = [16, 32, 64];

/// The PE counts evaluated in the paper (Figures 8-10).
pub const PAPER_PE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The speed-ups reported by the paper at 32 PEs for each mesh size, printed
/// by the `fig10_speedup` binary beside the measured sweep.
pub const PAPER_SPEEDUP_AT_32: [(usize, f64); 3] = [(16, 8.1), (32, 12.4), (64, 18.9)];

#[cfg(test)]
mod tests {
    use super::*;
    use pods_idlang::compile;

    #[test]
    fn simple_compiles_and_has_the_expected_routine_set() {
        let hir = compile(SIMPLE).unwrap();
        for routine in [
            "main",
            "init_state",
            "velocity_position",
            "hydrodynamics",
            "conduction",
            "boundary_copy",
            "checksum",
        ] {
            assert!(hir.function(routine).is_some(), "missing routine {routine}");
        }
    }

    #[test]
    fn conduction_recurrences_are_carried_but_row_level_is_parallel() {
        let hir = compile(SIMPLE).unwrap();
        let loops = pods_idlang::analyze_loops(&hir);
        let conduction: Vec<_> = loops
            .iter()
            .filter(|l| l.key.function == "conduction")
            .collect();
        // forward (i, j), transpose (i, j), backward (i, j), transpose (i, j).
        assert_eq!(conduction.len(), 8);
        // Every outer (row) level is parallel and distributable.
        for outer in conduction.iter().filter(|l| l.depth == 0) {
            assert!(
                !outer.has_lcd,
                "row level of {} should be parallel",
                outer.key
            );
            assert!(outer.is_distributable());
        }
        // The in-row sweep recurrences (ascending and descending) are
        // loop-carried; the transpose inner loops are not.
        let carried: Vec<_> = conduction.iter().filter(|l| l.has_lcd).collect();
        assert_eq!(carried.len(), 2, "one forward and one backward recurrence");
        assert!(carried.iter().any(|l| l.descending));
        assert!(carried.iter().any(|l| !l.descending));
    }

    #[test]
    fn velocity_position_and_hydrodynamics_are_parallel() {
        let hir = compile(SIMPLE).unwrap();
        let loops = pods_idlang::analyze_loops(&hir);
        for routine in ["velocity_position", "hydrodynamics", "init_state"] {
            let outer = loops
                .iter()
                .find(|l| l.key.function == routine && l.depth == 0 && l.var == "i")
                .unwrap_or_else(|| panic!("no outer loop in {routine}"));
            assert!(!outer.has_lcd, "{routine} outer loop should be parallel");
            assert!(
                outer.is_distributable(),
                "{routine} outer loop should be distributable"
            );
        }
    }

    #[test]
    fn paper_reference_constants() {
        assert_eq!(PAPER_MESH_SIZES, [16, 32, 64]);
        assert_eq!(PAPER_PE_COUNTS.len(), 6);
        assert_eq!(PAPER_SPEEDUP_AT_32[2], (64, 18.9));
    }
}
