"""Every entry of both assembled Jacobians against derivatives of the
residual, on a small 3D grid with flow and in-bounds iterates: open on two
sides with injection, water leaving through some boundary faces and
entering through others, and closed (no boundary faces, the pressure pin in
the first row, no injection).

The micp Jacobian is checked against central differences. Their pressure
step is a tenth of the smallest face potential difference, boundary faces
included, so no face changes its upwind direction between the two
evaluations. The co2 Jacobian is checked against the complex step of its
residual (Squire & Trapp 1998), which is exact to round-off and changes no
upwind direction.
"""

import numpy as np
import pytest

from micpsim.co2 import TwoPhaseState, TwoPhaseSystem, _eval_twophase, _jacobian_twophase
from micpsim.grid import DomainSpec, ReservoirSpec, build_domain
from micpsim.micp import (
    IP,
    NVAR,
    MicpState,
    MicpSystem,
    _eval_system,
    _jacobian_system,
    make_initial_state,
)
from micpsim.params import KineticParams, RockLaw, TwoPhaseParams
from micpsim.schedule import WellControl

ROCK = RockLaw()
P0 = 1.0e7
DT = 600.0


# (outflow sides, injection rate) of the box
BOXES = pytest.mark.parametrize("sides, rate", [(("x+", "y-"), 1e-5), ((), 0.0)],
                                ids=["open", "closed"])


def box(sides):
    domain = DomainSpec(nx=3, ny=2, nz=2, dx=1.0, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=2.0, caprock_height=0.0, well_x=0.5,
                        outflow_sides=sides)
    return build_domain(domain, None, res, ROCK)


def perturbed_pressure(grid, rng, rho):
    """Hydrostatic against P0 with a ramp down along x, the y- row below P0."""
    x, y, z = grid.centers.T
    hydro = P0 - rho * grid.gravity_accel * z
    return (hydro + 5e3 * (3.0 - x) - 2e4 * (y < 1.0)
            + rng.normal(0.0, 1e3, grid.n_active))


def potential_differences(sys, p, rho_w, rho):
    """Each face's potential difference of a phase of density rho, the
    ghosts beyond the boundary holding water at P0 - rho_w g z."""
    p_all = sys.with_ghosts(p, P0 - rho_w * sys.g * sys.z[sys.n:])
    dpot = sys.face_potential_differences(p_all, rho)
    boundary = dpot[sys.boundary]
    if not sys.closed:  # the ghosts' upwind paths are checked too
        assert np.any(boundary > 0.0) and np.any(boundary < 0.0), boundary
    return dpot


def assert_entries_match(sys, evaluate, jacobian, x, steps):
    """Each entry of jacobian(x, aux) within 1e-6 of central differences of
    the residual, (residual, aux) being evaluate(x).

    The Jacobian is read in natural order (``sys.in_natural_order``).

    Entry (i, j) may differ from the difference quotient by 1e-6 of itself
    plus the quotient's rounding error, eps * sum_k |J_ik x_k| / h_j (row i
    of the residual sums terms of about that size, each rounded), and by
    no more than 1e-6 of the largest entry of its column.
    """
    J = sys.in_natural_order(jacobian(x, evaluate(x)[1])).toarray()
    rounding = np.finfo(float).eps * (np.abs(J) @ np.abs(x))
    for col, h in enumerate(steps):
        hi, lo = x.copy(), x.copy()
        hi[col] += h
        lo[col] -= h
        fd = (evaluate(hi)[0] - evaluate(lo)[0]) / (2.0 * h)
        scale = np.max(np.abs(J[:, col]))
        assert scale > 0.0, col
        bound = np.minimum(1e-6 * np.abs(J[:, col]) + rounding / h, 1e-6 * scale)
        rows = np.flatnonzero(np.abs(J[:, col] - fd) > bound)
        assert rows.size == 0, (col, rows)


@BOXES
def test_micp_jacobian_matches_central_differences(sides, rate):
    # k_str = 0 removes the shear coupling the Newton matrix leaves out
    params = KineticParams(k_str=0.0)
    grid = box(sides)
    n = grid.n_active
    rng = np.random.default_rng(7)
    sys = MicpSystem(grid, params, ROCK)
    p = perturbed_pressure(grid, rng, params.rho_w)
    old = make_initial_state(grid, params)
    old.c_u[:] = 40.0
    old.phi_b[:] = 0.01
    x = MicpState(p=p, c_m=rng.uniform(2e-3, 1e-2, n), c_o=rng.uniform(5e-3, 3e-2, n),
                  c_u=rng.uniform(10.0, 60.0, n), phi_b=rng.uniform(5e-3, 2e-2, n),
                  phi_c=rng.uniform(5e-3, 3e-2, n)).to_vector()
    control = WellControl(rate=rate, c_m=0.01, c_u=30.0)
    dpot = potential_differences(sys, p, params.rho_w, params.rho_w)
    steps = 1e-5 * np.abs(x)
    steps[IP::NVAR] = 0.1 * np.min(np.abs(dpot))
    assert_entries_match(
        sys, lambda y: _eval_system(sys, y, old, DT, control),
        lambda y, aux: _jacobian_system(sys, y, DT, aux), x, steps)


def assert_entries_match_complex_step(sys, evaluate, jacobian, x):
    """Each entry of jacobian(x, aux) within 1e-12 of its column's largest
    entry of Im r(x + i h e_j) / h with h = 1e-30, r being evaluate's
    residual and aux evaluate(x)'s.

    The Jacobian is read in natural order (``sys.in_natural_order``).
    """
    J = sys.in_natural_order(jacobian(x, evaluate(x)[1])).toarray()
    h = 1e-30
    for col in range(x.size):
        step = x.astype(complex)
        step[col] += 1j * h
        cs = evaluate(step)[0].imag / h
        scale = np.max(np.abs(J[:, col]))
        assert scale > 0.0, col
        rows = np.flatnonzero(np.abs(J[:, col] - cs) > 1e-12 * scale)
        assert rows.size == 0, (col, rows)


@BOXES
@pytest.mark.filterwarnings("error")
def test_co2_jacobian_matches_complex_step(sides, rate):
    params = TwoPhaseParams()
    grid = box(sides)
    n = grid.n_active
    rng = np.random.default_rng(11)
    sys = TwoPhaseSystem(grid, grid.perm0 * rng.uniform(0.5, 2.0, n), params)
    p = perturbed_pressure(grid, rng, params.rho_w)
    s = rng.uniform(0.05, 0.95, n)
    old = TwoPhaseState(p=p.copy(), s=0.9 * s)
    x = TwoPhaseState(p=p, s=s).to_vector()
    for rho in (params.rho_w, params.rho_co2):
        potential_differences(sys, p, params.rho_w, rho)  # both ghost upwind paths
    assert_entries_match_complex_step(
        sys, lambda y: _eval_twophase(sys, y, old, DT, rate),
        lambda y, aux: _jacobian_twophase(sys, y, DT, aux), x)
