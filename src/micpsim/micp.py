"""Fully implicit solver for coupled water flow, solute transport and
immobile-phase growth on a structured grid.

Per active cell the unknowns are (p_w, c_m, c_o, c_u, phi_b, phi_c), the
fields of :class:`MicpState` in Newton order
(:class:`micpsim.stepping.CellState`). One backward-Euler step solves the
coupled residual

    water:    (phi^{n+1} - phi^n) V/dt + sum_f F_w - q V             = 0
    solute x: ((c_x phi)^{n+1} - (c_x phi)^n) V/dt + sum_f c_up F_w
              - c_inj q V - R_x V                                    = 0
    immobile: rho_x (phi_x^{n+1} - phi_x^n) V/dt - R_x V             = 0

with TPFA face fluxes F_w = T/mu_w (Phi_a - Phi_b), Phi = p + rho_w g z,
first-order upwinding of the solutes, and every nonlinearity (porosity,
permeability, reactions, upwind directions) evaluated at n+1. T and
Phi_a - Phi_b come from the code the CO2 solver uses too
(:func:`micpsim.grid.transmissibilities` of each iterate's K,
:meth:`micpsim.stepping.AssemblyData.face_potential_differences`).

Reactions and permeability are defined for physical arguments only
(c_x >= 0, phi_b, phi_c in [0, phi0], phi in [0, phi0]). Newton iterates
may leave those bounds, so each such quantity is evaluated at the clipped
argument and extended linearly beyond it, f(clip) + f'(clip) (x - clip).
Within the bounds nothing changes; across them the residual is
continuously differentiable, so Newton converges from out-of-bounds
iterates instead of creeping along a flat clipped residual.

Each iterate is evaluated in two passes: :func:`_eval_system` gives the
residual and an aux of its diagnostics and of the work the Jacobian
reads, and :func:`_jacobian_system` builds the Newton matrix from that
aux, only for an iterate that :func:`micpsim.stepping.newton` factors.

Newton uses an analytic Jacobian, with the rates' complex-step partials
(:func:`micpsim.kinetics._rate_jacobian`), and with K and dK/dphi from one
complex-step call of the permeability law at the clipped porosity
(:func:`micpsim.kinetics._permeability`). Two couplings are dropped from
it, not from the residual, so the converged state is fully implicit: the
dependence of the shear norm on pressure and its dependence on phi_b and
phi_c through K. Apart from those, the columns of out-of-bounds variables
are exact, and the columns of the in-bounds variables of the same cell
omit only the second-order cross terms f''(clip) (x - clip) of the
extension. Only the 25 entries of a cell block and the 15 of a face
block that can be nonzero are gathered (:attr:`MicpSystem.cell_pattern`).

Each Newton matrix is built in one order of the unknowns, computed once
per system: SuperLU's COLAMD (Davis, Gilbert, Larimore & Ng 2004) of the
pattern of every entry of the 6x6 derivative blocks
(:attr:`micpsim.stepping.AssemblyData.order`). SuperLU factors each
matrix in that order (``permc_spec="NATURAL"``, supernode relaxation
off) through :class:`micpsim.stepping.OrderedLU`, as the CO2 solver does
with its own order. Against a fresh COLAMD of each matrix's
nonzero pattern (on a 2-core x86 box), this cuts factor time by about
40% on ex1 and on the desk ex3 phase I, with the same steps and
iterations, and the wall time of the first 15 h of the published ex3
treatment by more than half.

A constant-pressure production boundary face is a face of the grid's
list (:class:`micpsim.grid.Grid`) with a half-cell transmissibility to a
ghost cell at its cell's height that holds water at rest, p_bdry -
rho_w g z with the reservoir's datum p_bdry
(:func:`micpsim.grid.hydrostatic_pressure`), and no solutes, so inflow
from the boundary carries zero concentrations and outflow carries
resident ones; past the assembly only the outflow ledger tells it apart.
A grid with no boundary faces gets the water equation of cell 0
replaced by a pressure pin at cell 0's pressure in that column, which
turns a shut-in single cell into the plain backward-Euler form of the
batch reaction ODEs; a well rate on it raises DomainError.

A :class:`MicpSystem` holds the assembly data of one (grid, params,
rock), both parameter sets checked: a run builds one, and
:func:`solve_timestep`, :func:`assemble_residual` and
:func:`shear_norm_field` take it. One simulation advances one state;
separate instances share nothing but the immutable grid and parameter
objects and may run in parallel. Assembly is single-threaded and
deterministic: identical inputs produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .errors import DomainError, InvariantError
from .grid import Grid, hydrostatic_pressure, transmissibilities
from .kinetics import CellChemState, _permeability, _rate_jacobian, _rates, permeability
from .params import KineticParams, RockLaw
from .schedule import Schedule, WellControl, control_at
from .stepping import (
    AssemblyData,
    CellState,
    MarchReport,
    OrderedLU,
    OutputHooks,
    SolverSettings,
    march,
    newton,
)

# unknown ordering within one cell
IP, IM, IO, IU, IB, IC = range(6)
NVAR = 6

SPECIES = ("m", "o", "u")
_CONC_FLOOR = {"m": 1e-3, "o": 1e-3, "u": 1e-1}  # kg/m^3, convergence scales


@dataclass
class MicpState(CellState):
    """Struct-of-arrays state over the active cells, fields in the order IP..IC."""

    p: np.ndarray
    c_m: np.ndarray
    c_o: np.ndarray
    c_u: np.ndarray
    phi_b: np.ndarray
    phi_c: np.ndarray


def make_initial_state(grid: Grid, params: KineticParams) -> MicpState:
    """Water-filled reservoir in hydrostatic equilibrium with the boundary."""
    return MicpState(hydrostatic_pressure(grid, params.rho_w),
                     *np.zeros((NVAR - 1, grid.n_active)))


def porosity_field(grid: Grid, state: MicpState) -> np.ndarray:
    return grid.poro0 - state.phi_b - state.phi_c


def permeability_field(grid: Grid, rock: RockLaw, state: MicpState) -> np.ndarray:
    phi = np.clip(porosity_field(grid, state), 0.0, grid.poro0)
    return permeability(rock, phi, K0=grid.perm0)


class MicpSystem(AssemblyData):
    """Precomputed immutable assembly data for one (grid, params, rock).

    Raises DomainError if ``params`` or ``rock`` fails its validation.
    """

    # entries of the derivative blocks that can be nonzero, the rows of the
    # equations by the unknowns p m o u b c: a face's fluxes depend on p and,
    # through K, on phi_b and phi_c, its solute fluxes on the upwind
    # concentration; a cell adds its storage and the rates' dependences
    cell_pattern = np.array([list(r) for r in (
        "100011", "111011", "111011", "100111", "011111", "000111")]) == "1"
    face_pattern = np.array([list(r) for r in (
        "100011", "110011", "101011", "100111", "000000", "000000")]) == "1"
    permc_spec = "COLAMD"  # of every entry of the blocks (AssemblyData.order)

    def __init__(self, grid: Grid, params: KineticParams, rock: RockLaw):
        params.validate()
        rock.validate()
        super().__init__(grid, params.rho_w, NVAR)
        self.params = params
        self.rock = rock
        self.phi0 = grid.poro0
        self.K0 = grid.perm0
        # each face's area in the column of its axis, outward-signed on the
        # boundary, and inf in the other two: flux / axis_area puts a face's
        # Darcy velocity in its axis's column and zero in the others
        self.axis_area = np.full((self.fa.size, 3), np.inf)
        self.axis_area[np.arange(self.fa.size), grid.face_axis] = (
            grid.face_sign * grid.face_area)

    def factor(self, J) -> OrderedLU:
        """LU of the Newton matrix J, built in the system's factor order."""
        return OrderedLU(splu, J, self.order)

    def check_state(self, state: MicpState):
        """Refuse also negative solutes and phi_b + phi_c above phi0."""
        super().check_state(state)
        try:
            CellChemState(state.c_m, state.c_o, state.c_u, state.phi_b,
                          state.phi_c).validate(self.rock)
        except InvariantError as err:
            raise DomainError(f"state: {err}") from None

    def conc_scales(self, state: MicpState, controls) -> dict[str, float]:
        scales = {}
        for name in SPECIES:
            inj = max((getattr(c, f"c_{name}") for c in controls), default=0.0)
            resident = float(np.max(getattr(state, f"c_{name}"), initial=0.0))
            scales[name] = max(inj, resident, _CONC_FLOOR[name])
        return scales


def _eval_system(sys: MicpSystem, x, old: MicpState, dt, control: WellControl):
    """Residual at x, and the aux of flux/rate diagnostics and Jacobian inputs.

    Rates and permeability are evaluated at the clipped (physical)
    arguments and extended linearly beyond them, f(clip) + f'(clip) (x -
    clip), so that the Jacobian's out-of-bounds columns are the exact
    derivatives of this residual (:func:`_jacobian_system`).
    """
    n = sys.n
    grid = sys.grid
    p, m, o, u, b, c = x.reshape(n, NVAR).T  # views, in the order IP..IC

    V = sys.V
    mu_w = sys.params.mu_w

    phi = sys.phi0 - b - c
    phi_old = sys.phi0 - old.phi_b - old.phi_c
    phi_k = np.clip(phi, 0.0, sys.phi0)
    K_k = _permeability(sys.rock, phi_k + 1e-30j, sys.K0)  # complex step
    dK = K_k.imag / 1e-30
    K = K_k.real + dK * (phi - phi_k)

    # face fluxes; a ghost holds water at rest
    T = transmissibilities(grid, K)
    p_all = sys.with_ghosts(p, sys.p_ghost)
    dpot = sys.face_potential_differences(p_all, sys.params.rho_w)
    F = T / mu_w * dpot
    upw = np.where(F >= 0.0, sys.fa, sys.fb)

    # cell-average Darcy velocity v: per axis, half the sum of the velocities
    # of the cell's faces on that axis (face_sums subtracts a face's b side,
    # hence -face_vel) -> shear norm ||grad p - rho g|| = |v| mu / K
    face_vel = F[:, None] / sys.axis_area
    half_v = 0.5 * sys.face_sums(face_vel, -face_vel)
    v2 = half_v[:, 0] ** 2 + half_v[:, 1] ** 2 + half_v[:, 2] ** 2
    shear = np.sqrt(v2) * mu_w / K

    # reactions at the clipped (physical) state, extended linearly beyond it
    bcl = np.clip(b, 0.0, sys.phi0)
    clipped = np.array((*np.maximum((m, o, u), 0.0), bcl, np.clip(c, 0.0, sys.phi0 - bcl)))
    rates = np.array(_rates(*clipped, shear, sys.params, sys.rock))
    past_clip = np.array((m, o, u, b, c)) - clipped
    jac = None
    if np.any(past_clip):
        jac = _rate_jacobian(*clipped, shear, sys.params, sys.rock)
        for v in np.flatnonzero(np.any(past_clip, axis=1)):
            rates += jac[:, :, v].T * past_clip[v]
    R_m, R_o, R_u, R_b, R_c = rates

    q = sys.well_source(control.rate)  # volumetric source, m^3/s per cell

    # face flux vectors w F, w = (1, c_up, 0, 0): water F and solute c_up F
    solutes = ((IM, m, old.c_m, control.c_m, R_m), (IO, o, old.c_o, control.c_o, R_o),
               (IU, u, old.c_u, control.c_u, R_u))
    w = np.zeros((F.size, NVAR))
    w[:, IP] = 1.0
    for ivar, cv, *_ in solutes:
        w[:, ivar] = sys.with_ghosts(cv, 0.0)[upw]
    flux = w * F[:, None]
    div = sys.face_sums(flux, flux)

    resid = np.zeros(NVAR * n)
    resid[IP::NVAR] = (phi - phi_old) * V / dt + div[:, IP] - q
    for ivar, cv, cv_old, c_inj, R in solutes:
        resid[ivar::NVAR] = ((cv * phi - cv_old * phi_old) * V / dt
                             + div[:, ivar] - c_inj * q - R * V)
    resid[IB::NVAR] = sys.params.rho_b * (b - old.phi_b) * V / dt - R_b * V
    resid[IC::NVAR] = sys.params.rho_c * (c - old.phi_c) * V / dt - R_c * V

    pin_scale = sys.pin_pressure(resid, p[0], sys.phi0, dt)

    return resid, {
        "F": F, "flux": flux, "shear": shear, "K": K,
        "rates": {"m": R_m, "o": R_o, "u": R_u, "b": R_b, "c": R_c},
        # what the Jacobian pass reads; the rate Jacobian if already taken
        "phi": phi, "T": T, "dK": dK, "dpot": dpot, "w": w, "pin_scale": pin_scale,
        "clipped": clipped, "rate_jac": jac}


def _jacobian_system(sys: MicpSystem, x, dt, aux):
    """Newton matrix at x, in the system's factor order.

    ``aux`` is :func:`_eval_system`'s at x, which holds what the residual
    already computed; the rate Jacobian is taken here unless the residual
    took it.
    """
    n = sys.n
    V = sys.V
    mu_w = sys.params.mu_w
    phi, T, F, dpot, w = aux["phi"], aux["T"], aux["F"], aux["dpot"], aux["w"]

    # storage and reaction derivatives of each cell
    cell = np.zeros((n, NVAR, NVAR))
    cell[:, IP, IB] = cell[:, IP, IC] = -V / dt
    for ivar in (IM, IO, IU):
        cell[:, ivar, ivar] = phi * V / dt
        cell[:, ivar, IB] = cell[:, ivar, IC] = -x[ivar::NVAR] * V / dt
    cell[:, IB, IB] = sys.params.rho_b * V / dt
    cell[:, IC, IC] = sys.params.rho_c * V / dt
    jac = aux["rate_jac"]
    if jac is None:
        jac = _rate_jacobian(*aux["clipped"], aux["shear"], sys.params, sys.rock)
    cell[:, IM:, IM:] -= jac * V[:, None, None]  # rates and unknowns both run IM..IC

    # flux derivatives: w (x) dF/dx, plus F on the upwind cell's own
    # concentration; dT/dK of a ghost (K = 1, d = 0) is 0
    K_all = sys.with_ghosts(aux["K"], 1.0)
    dK_all = sys.with_ghosts(aux["dK"], 0.0)
    dF_da = np.zeros((F.size, NVAR))
    dF_db = np.zeros((F.size, NVAR))
    dF_da[:, IP] = T / mu_w
    dF_db[:, IP] = -T / mu_w
    for dF, side, cells in ((dF_da, 0, sys.fa), (dF_db, 1, sys.fb)):
        dT_dK = T * T * sys.grid.face_d[:, side] / (sys.grid.face_area * K_all[cells] ** 2)
        dF[:, IB] = dF[:, IC] = dpot / mu_w * dT_dK * (-dK_all[cells])
    face_a = w[:, :, None] * dF_da[:, None, :]
    face_b = w[:, :, None] * dF_db[:, None, :]
    up_is_a = F >= 0.0
    for ivar in (IM, IO, IU):
        face_a[:, ivar, ivar] += np.where(up_is_a, F, 0.0)
        face_b[:, ivar, ivar] += np.where(up_is_a, 0.0, F)

    return sys.jacobian(cell, face_a, face_b, aux["pin_scale"])


def _error_scales(sys: MicpSystem, dt, conc_scales) -> np.ndarray:
    base = sys.V * sys.phi0 / dt  # on a closed domain's pin row: |p0 - p_pin| / 1e5 Pa
    return MicpState(base, *(base * conc_scales[name] for name in SPECIES),
                     base * sys.params.rho_b, base * sys.params.rho_c).to_vector()


def assemble_residual(sys: MicpSystem, state_new: MicpState, state_old: MicpState,
                      dt: float, control: WellControl):
    """Public assembly: residual vector and sparse Jacobian at state_new.

    The Jacobian has unknown v of cell i in row and column 6 i + v, as
    the residual.
    """
    if not dt > 0.0:
        raise DomainError("dt must be > 0")
    x = state_new.to_vector()
    resid, aux = _eval_system(sys, x, state_old, dt, control)
    return resid, sys.in_natural_order(_jacobian_system(sys, x, dt, aux))


def shear_norm_field(sys: MicpSystem, state: MicpState) -> np.ndarray:
    """||grad p_w - rho_w g|| per cell, from reconstructed Darcy velocities."""
    _, aux = _eval_system(sys, state.to_vector(), state, 1.0, WellControl())
    return aux["shear"]


def solve_timestep(sys: MicpSystem, state_old: MicpState, dt: float,
                   control: WellControl, settings: SolverSettings,
                   conc_scales: dict | None = None):
    """One backward-Euler step via Newton; returns (state_new, Newton's result).

    On Newton failure state_new is state_old and ``converged`` is False;
    the caller decides whether to cut dt and retry. A converged state is
    the result's ``x`` with solutes clamped to >= 0 and phi_b, phi_c to
    [0, phi0] with phi_b + phi_c <= phi0. ``conc_scales`` defaults to
    ``sys.conc_scales`` of state_old and control.
    """
    if not dt > 0.0:
        raise DomainError("dt must be > 0")
    settings.validate()
    if conc_scales is None:
        conc_scales = sys.conc_scales(state_old, [control])
    res, _ = newton(
        lambda x: _eval_system(sys, x, state_old, dt, control),
        lambda x, aux: _jacobian_system(sys, x, dt, aux),
        state_old.to_vector(), _error_scales(sys, dt, conc_scales), settings,
        sys.factor,
        # keep volume-fraction updates physically small per iteration
        damped=(slice(IB, None, NVAR), slice(IC, None, NVAR)),
        max_step=0.5 * float(np.min(sys.phi0)))
    if not res.converged:
        return state_old, res
    state = MicpState.from_vector(res.x)
    for conc in (state.c_m, state.c_o, state.c_u):
        conc[conc < 0.0] = 0.0
    np.clip(state.phi_b, 0.0, sys.phi0, out=state.phi_b)
    np.clip(state.phi_c, 0.0, sys.phi0, out=state.phi_c)
    state.phi_c -= np.maximum(state.phi_b + state.phi_c - sys.phi0, 0.0)
    return state, res


@dataclass
class SpeciesLedger:
    injected: float = 0.0
    produced: float = 0.0
    reacted: float = 0.0
    initial_mass: float = 0.0
    final_mass: float = 0.0

    @property
    def closure_error(self) -> float:
        return (self.final_mass - self.initial_mass
                - self.injected + self.produced - self.reacted)

    @property
    def relative_closure_error(self) -> float:
        scale = max(abs(self.injected), abs(self.initial_mass),
                    abs(self.final_mass), abs(self.reacted), 1e-30)
        return abs(self.closure_error) / scale


@dataclass(kw_only=True)
class RunReport(MarchReport):
    """The treatment's run report with its species ledgers and clamped mass."""

    species: dict
    clamped: dict
    water_injected: float

    def min_perm_ratio(self, grid: Grid, rock: RockLaw) -> float:
        """min over leak cells of K/K0 (over all cells when no leak)."""
        K = permeability_field(grid, rock, self.state)
        cells = grid.leak_cells
        if cells.size == 0:
            cells = np.arange(grid.n_active)
        return float(np.min(K[cells] / grid.perm0[cells]))


def _solute_mass(sys: MicpSystem, state: MicpState) -> dict[str, float]:
    phi = sys.phi0 - state.phi_b - state.phi_c
    return {name: float(np.sum(getattr(state, f"c_{name}") * phi * sys.V))
            for name in SPECIES}


def simulate_micp(grid: Grid, schedule: Schedule, params: KineticParams,
                  rock: RockLaw, settings: SolverSettings,
                  sinks: OutputHooks | None = None,
                  initial_state: MicpState | None = None) -> RunReport:
    """Advance the coupled system across every schedule period.

    Adaptive stepping never crosses a period boundary; on Newton failure
    the step is retried with dt * dt_cut until dt_min, then a
    ConvergenceError carrying the last good state is raised. An
    ``initial_state`` refused by :meth:`MicpSystem.check_state` raises
    DomainError before the first step.
    """
    sys = MicpSystem(grid, params, rock)
    state = (initial_state.copy() if initial_state is not None
             else make_initial_state(grid, params))
    sys.check_state(state)
    sys.check_injection(max((p.rate for p in schedule.periods), default=0.0))
    controls = [control_at(schedule, p.end_time) for p in schedule.periods]
    conc_scales = sys.conc_scales(state, controls)

    ledgers = {name: SpeciesLedger(**{"initial_mass": m})
               for name, m in _solute_mass(sys, state).items()}
    clamped = {k: 0.0 for k in ("m", "o", "u", "b", "c")}
    water_in = 0.0

    def step(st, dt, control, _guess, _carry):  # no predictor, no carried LU
        return solve_timestep(sys, st, dt, control, settings, conc_scales)

    def accept(t, dt, st, res, control):
        """Book the step from Newton's iterate res.x and the clamped state st."""
        nonlocal water_in
        it, aux = MicpState.from_vector(res.x), res.aux  # the iterate, unclamped
        phi_conv = np.maximum(sys.phi0 - it.phi_b - it.phi_c, 0.0)
        for name, ivar in zip(SPECIES, (IM, IO, IU)):
            conc = getattr(it, f"c_{name}")
            neg = conc < 0.0
            clamped[name] += float(np.sum(-conc[neg] * phi_conv[neg] * sys.V[neg]))
            outflow = float(np.sum(aux["flux"][sys.boundary, ivar]))
            ledgers[name].injected += getattr(control, f"c_{name}") * control.rate * dt
            ledgers[name].produced += outflow * dt
            ledgers[name].reacted += float(np.sum(aux["rates"][name] * sys.V)) * dt
        for name, rho in (("b", sys.params.rho_b), ("c", sys.params.rho_c)):
            moved = np.abs(getattr(it, f"phi_{name}") - getattr(st, f"phi_{name}"))
            clamped[name] += float(np.sum(moved * sys.V) * rho)
        water_in += control.rate * dt
        return {"max_phi_c": float(st.phi_c.max(initial=0.0)),
                "max_phi_b": float(st.phi_b.max(initial=0.0))}

    intervals = [(p.end_time, c) for p, c in zip(schedule.periods, controls)]
    run = march(state, intervals, settings, step, accept, sinks)
    final_mass = _solute_mass(sys, run.state)
    for name in SPECIES:
        ledgers[name].final_mass = final_mass[name]
    return RunReport(**vars(run), species=ledgers, clamped=clamped,
                     water_injected=water_in)
