"""Both solvers against exact solutions on a line.

- Darcy pressure (micp): steady flow from the well on ex1's line to its
  open end, against the series-resistance solution of the same TPFA
  half-cell distances, over ex1's doubled-K zone.
- Conservative tracer (micp): urea does not react without biofilm, so its
  mass is what was injected, and its c_inj / 2 contour sits at the
  plug-flow front Q t / (phi A).
- Buckley-Leverett (co2): linear relative permeabilities, no gravity and
  no capillary pressure make the displacement a rarefaction,
  s(xi) = (sqrt(M / xi) - 1) / (M - 1) for xi = x phi A / (Q t) in
  [1 / M, M], M = mu_w / mu_co2 (Buckley & Leverett 1942, Trans. AIME
  146:107). The upwind scheme converges to it at order 0.6-0.8 in dx.
"""

import numpy as np
import pytest

from micpsim.co2 import simulate_co2
from micpsim.config import preset
from micpsim.grid import DomainSpec, ReservoirSpec, build_domain
from micpsim.micp import MicpSystem, make_initial_state, simulate_micp, solve_timestep
from micpsim.params import KineticParams, RockLaw, TwoPhaseParams
from micpsim.schedule import Period, Schedule, SlugType, WellControl
from micpsim.stepping import SolverSettings

PARAMS = KineticParams()
Q_EX1 = 2.31e-5  # m^3/s, ex1's rate


def ex1_grid():
    cfg = preset("ex1")
    return build_domain(cfg.domain, cfg.leak, cfg.reservoir, cfg.rock)


def test_darcy_pressure_matches_series_resistance():
    grid = ex1_grid()
    assert np.unique(grid.perm0).size == 2  # the leak zone doubles K
    sys = MicpSystem(grid, PARAMS, RockLaw())
    new, rep = solve_timestep(sys, make_initial_state(grid, PARAMS), 600.0,
                              WellControl(rate=Q_EX1, c_u=10.0),
                              SolverSettings(newton_rel_tol=1e-10))
    assert rep.converged
    # all of Q crosses every face from the well (cell 0) to the open x+ end:
    # half of cell i's d/K, then all of every cell beyond it, to the ghost
    dx = grid.centers[1, 0] - grid.centers[0, 0]
    area = grid.face_area[0]
    half = 0.5 * dx / grid.perm0
    beyond = np.concatenate((np.cumsum(2.0 * half[::-1])[::-1][1:], [0.0]))
    p_end = grid.reservoir.p_bdry - PARAMS.rho_w * grid.gravity_accel * grid.centers[-1, 2]
    exact = p_end + Q_EX1 * PARAMS.mu_w / area * (half + beyond)
    drop = exact[0] - p_end
    assert np.max(np.abs(new.p - exact)) <= 1e-12 * drop


def test_urea_tracer_conserved_and_front_at_plug_flow():
    grid = ex1_grid()
    t, c_inj = 50 * 3600.0, 10.0
    schedule = Schedule(periods=(Period(t, Q_EX1, 0.0, 0.0, c_inj, SlugType.CEMENTATION),))
    rep = simulate_micp(grid, schedule, PARAMS, RockLaw(),
                        SolverSettings(dt_init=150.0, dt_max=150.0))
    urea = rep.species["u"]
    assert urea.reacted == 0.0
    assert urea.produced < 1e-12 * urea.injected  # upwind diffusion's far tail
    assert urea.final == pytest.approx(Q_EX1 * t * c_inj, rel=1e-12)
    c, x = rep.state.c_u, grid.centers[:, 0]
    i = np.flatnonzero(c < 0.5 * c_inj)[0]  # first cell past the front
    front = x[i - 1] + (c[i - 1] - 0.5 * c_inj) / (c[i - 1] - c[i]) * (x[i] - x[i - 1])
    plug = Q_EX1 * t / (RockLaw().phi0 * grid.face_area[0])
    assert abs(front - plug) < x[1] - x[0]


def test_buckley_leverett_l1_error_falls_with_dx():
    tp, rock = TwoPhaseParams(), RockLaw()
    q, t, length = 1e-5, 10 * 86400.0, 100.0
    M = tp.mu_w / tp.mu_co2
    errors = []
    for n in (50, 100, 200):
        dx = length / n
        domain = DomainSpec(nx=n, ny=1, nz=1, dx=dx, dy=1.0, dz=1.0, gz=0.0)
        reservoir = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0, well_x=dx / 2)
        grid = build_domain(domain, None, reservoir, rock)
        rep = simulate_co2(grid, grid.perm0, q, t, SolverSettings(dt_max=3600.0), tp)
        xi = np.clip(grid.centers[:, 0] * rock.phi0 / (q * t), 1.0 / M, M)  # A = 1
        exact = (np.sqrt(M / xi) - 1.0) / (M - 1.0)
        errors.append(float(np.sum(np.abs(rep.state.s - exact))) * dx)
    assert all(coarse >= 1.5 * fine for coarse, fine in zip(errors, errors[1:])), errors
    assert errors[-1] < 0.6, errors
