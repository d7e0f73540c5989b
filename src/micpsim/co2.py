"""Immiscible two-phase CO2/water solver for leakage assessment.

Runs on a frozen porosity/permeability field (the state the sealing
treatment left behind, or the untreated rock). Per cell the unknowns are
(p, s) with s the CO2 saturation; relative permeabilities are linear
(k_r = s_alpha), capillary pressure is zero so both phases share one
pressure. Each phase is upwinded by the sign of its own potential
difference, which keeps saturations in [0, 1] and lets gravity segregate
the phases. The discretization follows the reactive solver: TPFA,
backward Euler, analytic Jacobian, constant-pressure hydrostatic
boundary (pure water beyond the boundary), pressure pin on closed
domains. Newton, Jacobian assembly and adaptive stepping are the shared
machinery of :mod:`micpsim.stepping`.

Each Newton matrix is built in one order of the unknowns that the
system computes when it assembles its first Jacobian: SuperLU's
minimum-degree order (``MMD_AT_PLUS_A``) of the pattern of every entry
of the 2x2 derivative blocks
(:meth:`micpsim.stepping.AssemblyData.fill_order`). SuperLU factors it
in that order (``permc_spec="NATURAL"``,
:class:`micpsim.stepping.OrderedLU`) with its default pivot threshold;
on the published ex3 grid COLAMD of the same pattern fills about 50%
more. Supernode relaxation is off (``relax=1``): relaxed supernodes only
pad the factors with explicit zeros, and in this order that adds fill
(on the published ex3 grid peak fill 1.63M against 1.54M).

From the second step on, Newton starts not from the old state but from
the linear predictor through the last two states of the run, x +
(dt/dt_prev)(x - x_prev) with s clipped to [0, 1] (Gresho, Lee & Sani
1980), dt being the step tried, after a cut the retry's. On the
published ex3 grid this takes the 52 steps from 164 to 124 Newton
iterations.

A run also carries the Newton factorization from step to step: the
system keeps the last factorization of each converged step, and the
next step updates with it, building no Jacobian, as long as every update
cuts the scaled residual norm by at least the factor
``stepping._CONTRACTION`` (0.1). At the first update that falls short,
the step factors a fresh Jacobian and keeps that one under the same rule
(:func:`micpsim.stepping.newton`). A failed step carries nothing on, so
its retry starts afresh. The Newton iterations a run reports include
the updates made with a kept factorization, and dt grows on the count of
factorizations, not of iterations (:func:`micpsim.stepping.march`). On
the published ex3 grid the same 52 steps take 26 factorizations and 285
Newton iterations (at most 10 in a step); keeping only the carried
factorization took 46 and 253, carrying nothing 124 and 124.

The headline diagnostic is the normalized leakage flux: the upward CO2
volumetric flux through a horizontal plane restricted to leak-tagged
cells, divided by the injection rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import splu

from .errors import DomainError, GeometryError
from .grid import (
    Grid,
    Region,
    boundary_transmissibilities,
    interior_transmissibilities,
)
from .params import TwoPhaseParams
from .schedule import DEFAULT_BOUNDARY_PRESSURE
from .stepping import (
    AssemblyData,
    OrderedLU,
    OutputHooks,
    SolverSettings,
    jacobian_wanted,
    march,
    newton,
)

JP, JS = 0, 1
NV2 = 2


@dataclass
class TwoPhaseState:
    p: np.ndarray  # Pa (shared by both phases)
    s: np.ndarray  # CO2 saturation

    def copy(self) -> "TwoPhaseState":
        return TwoPhaseState(self.p.copy(), self.s.copy())


def make_initial_twophase_state(grid: Grid, params: TwoPhaseParams,
                                p_datum: float) -> TwoPhaseState:
    """Fully water-saturated, hydrostatic against the boundary datum."""
    p = p_datum - params.rho_w * grid.gravity_accel * grid.centers[:, 2]
    return TwoPhaseState(p=p, s=np.zeros(grid.n_active))


class _TwoPhaseSystem(AssemblyData):
    def __init__(self, grid: Grid, perm_field, poro_field, params: TwoPhaseParams):
        perm = np.asarray(perm_field, dtype=float)
        poro = np.asarray(poro_field, dtype=float)
        if perm.shape != (grid.n_active,) or poro.shape != (grid.n_active,):
            raise DomainError("perm/poro fields must have one value per active cell")
        if np.any(perm <= 0.0) or np.any(poro <= 0.0):
            raise DomainError("perm and poro must be > 0 in active cells")
        super().__init__(grid)
        self.params = params
        self.phi = poro
        self.T = interior_transmissibilities(grid, perm)
        self.Tb = boundary_transmissibilities(grid, perm)
        self.lu = None  # factorization a converged step hands to the next

    @cached_property
    def order(self) -> np.ndarray:
        """Factor order of the unknowns: MMD of the 2x2-block pattern, once."""
        return self.fill_order(NV2, "MMD_AT_PLUS_A")

    def take_lu(self):
        """The carried factorization, which the system stops holding.

        Newton then holds the only reference and can free it before it
        assembles a Jacobian.
        """
        lu, self.lu = self.lu, None
        return lu

    def factor(self, J) -> OrderedLU:
        """LU of the Newton matrix J, built in the system's factor order."""
        return OrderedLU(splu, J, self.order)


def _eval_twophase(sys, x, old: TwoPhaseState, dt, rate, p_bdry,
                   want_jacobian=True):
    pr = sys.params
    n = sys.n
    p = x[JP::NV2]
    s = x[JS::NV2]
    se = np.clip(s, 0.0, 1.0)
    V = sys.V

    dw = (p[sys.fa] - p[sys.fb]) - pr.rho_w * sys.g * sys.f_dz
    dc = (p[sys.fa] - p[sys.fb]) - pr.rho_co2 * sys.g * sys.f_dz
    up_w = np.where(dw >= 0.0, sys.fa, sys.fb)
    up_c = np.where(dc >= 0.0, sys.fa, sys.fb)
    lam_w = (1.0 - se[up_w]) / pr.mu_w
    lam_c = se[up_c] / pr.mu_co2
    Fw = sys.T * lam_w * dw
    Fc = sys.T * lam_c * dc

    # ghost water column: p_ghost(z) = p_bdry - rho_w g z
    bdw = p[sys.bc] + pr.rho_w * sys.g * sys.z[sys.bc] - p_bdry
    bdc = (p[sys.bc] + pr.rho_co2 * sys.g * sys.z[sys.bc]
           - (p_bdry - (pr.rho_w - pr.rho_co2) * sys.g * sys.b_z))
    out_w = bdw >= 0.0
    out_c = bdc >= 0.0
    blam_w = np.where(out_w, (1.0 - se[sys.bc]) / pr.mu_w, 1.0 / pr.mu_w)
    blam_c = np.where(out_c, se[sys.bc] / pr.mu_co2, 0.0)
    Fbw = sys.Tb * blam_w * bdw
    Fbc = sys.Tb * blam_c * bdc

    q_c = sys.well_source(rate)

    fluxes = np.stack((Fw, Fc), axis=1)  # one column per equation: JP water, JS CO2
    div = sys.face_sums(fluxes, fluxes, np.stack((Fbw, Fbc), axis=1))
    resid = np.zeros(NV2 * n)
    resid[JP::NV2] = -sys.phi * (s - old.s) * V / dt + div[:, JP]
    resid[JS::NV2] = sys.phi * (s - old.s) * V / dt + div[:, JS] - q_c

    pin_scale = sys.pin_pressure(resid, p[0], p_bdry, sys.phi, dt)

    aux = {"Fc": Fc, "Fw": Fw, "Fbc": Fbc, "Fbw": Fbw}
    if not jacobian_wanted(want_jacobian, resid):
        return resid, None, aux

    cell = np.zeros((n, NV2, NV2))
    cell[:, JP, JS] = -sys.phi * V / dt
    cell[:, JS, JS] = sys.phi * V / dt

    in_bounds = (s >= 0.0) & (s <= 1.0)
    face_a = np.zeros((Fw.size, NV2, NV2))
    face_b = np.zeros((Fw.size, NV2, NV2))
    for row, T_lam, dpot, upwind, dlam in (
            (JP, sys.T * lam_w, dw, up_w, -1.0 / pr.mu_w),
            (JS, sys.T * lam_c, dc, up_c, 1.0 / pr.mu_co2)):
        face_a[:, row, JP] = T_lam
        face_b[:, row, JP] = -T_lam
        dF_ds = sys.T * np.where(in_bounds[upwind], dlam, 0.0) * dpot
        face_a[:, row, JS] = np.where(dpot >= 0.0, dF_ds, 0.0)
        face_b[:, row, JS] = np.where(dpot >= 0.0, 0.0, dF_ds)

    sb_in = in_bounds[sys.bc]
    bface = np.zeros((Fbw.size, NV2, NV2))
    bface[:, JP, JP] = sys.Tb * blam_w
    bface[:, JS, JP] = sys.Tb * blam_c
    bface[:, JP, JS] = np.where(out_w & sb_in, -sys.Tb / pr.mu_w * bdw, 0.0)
    bface[:, JS, JS] = np.where(out_c & sb_in, sys.Tb / pr.mu_co2 * bdc, 0.0)

    return resid, sys.jacobian(cell, face_a, face_b, bface, pin_scale), aux


def solve_twophase_step(grid: Grid, perm_field, state_old: TwoPhaseState,
                        dt: float, rate: float, settings: SolverSettings,
                        params: TwoPhaseParams,
                        p_bdry: float = DEFAULT_BOUNDARY_PRESSURE,
                        poro_field=None, guess: TwoPhaseState | None = None,
                        _sys=None):
    """One implicit step; returns (state_new, report namedtuple-ish dict).

    Newton starts from ``guess``, or from ``state_old`` when it is None.
    ``_sys``, the system of a run, carries a factorization from step to
    step: Newton takes the one the last converged step left in
    ``_sys.lu`` (:func:`micpsim.stepping.newton`), and a converged step
    leaves there the last one it used. A failed step leaves None.
    """
    if not dt > 0.0:
        raise DomainError("dt must be > 0")
    sys = _sys if _sys is not None else _TwoPhaseSystem(
        grid, perm_field, grid.poro0 if poro_field is None else poro_field, params)
    escale = np.repeat(sys.phi * sys.V / dt, NV2)  # pin row: |p_0 - p_bdry| / 1e5 Pa

    start = state_old if guess is None else guess
    x = np.empty(NV2 * sys.n)
    x[JP::NV2] = start.p
    x[JS::NV2] = start.s
    res = newton(
        lambda x, want: _eval_twophase(sys, x, state_old, dt, rate, p_bdry, want),
        x, escale, settings, sys.factor, damped=(slice(JS, None, NV2),), max_step=0.5,
        lu=sys.take_lu())
    s = res.x[JS::NV2]
    if not res.converged or np.any(s < -1e-6) or np.any(s > 1.0 + 1e-6):
        return state_old, _StepReport(False, res.iterations, res.resid_norm,
                                      res.factorizations)
    sys.lu = res.lu
    state = TwoPhaseState(p=res.x[JP::NV2].copy(), s=np.clip(s, 0.0, 1.0))
    co2_out = float(np.sum(np.maximum(res.aux["Fbc"], 0.0))) * dt
    return state, _StepReport(True, res.iterations, res.resid_norm,
                              res.factorizations, co2_out)


@dataclass
class _StepReport:
    converged: bool
    iterations: int
    resid_norm: float
    factorizations: int
    co2_out: float = 0.0


def _extrapolate(prev: TwoPhaseState, last: TwoPhaseState, ratio: float) -> TwoPhaseState:
    """Linear predictor last + ratio (last - prev), saturation clipped to [0, 1]."""
    return TwoPhaseState(p=last.p + ratio * (last.p - prev.p),
                         s=np.clip(last.s + ratio * (last.s - prev.s), 0.0, 1.0))


def co2_face_fluxes(grid: Grid, perm_field, state: TwoPhaseState,
                    params: TwoPhaseParams) -> np.ndarray:
    """CO2 volumetric flux (m^3/s) on every interior face, oriented a->b."""
    return _co2_fluxes(grid, slice(None), interior_transmissibilities(grid, perm_field),
                       state, params)


def _co2_fluxes(grid: Grid, faces, T, state: TwoPhaseState,
                params: TwoPhaseParams) -> np.ndarray:
    """CO2 flux on the interior faces ``faces``, whose transmissibilities are T."""
    fa = grid.iface_cells[faces, 0]
    fb = grid.iface_cells[faces, 1]
    dz = grid.centers[fb, 2] - grid.centers[fa, 2]
    dc = (state.p[fa] - state.p[fb]) - params.rho_co2 * grid.gravity_accel * dz
    up_c = np.where(dc >= 0.0, fa, fb)
    lam_c = np.clip(state.s, 0.0, 1.0)[up_c] / params.mu_co2
    return T * lam_c * dc


def leakage_flux(grid: Grid, state: TwoPhaseState, plane_z: float,
                 normalize_by: float, perm_field, params: TwoPhaseParams,
                 _plane=None) -> float:
    """Upward CO2 flux through plane_z inside the leak footprint, normalized.

    Sums the positive (upward) CO2 volumetric flux over the vertical faces
    the plane cuts whose upper or lower cell is leak-tagged, and divides by
    ``normalize_by`` (conventionally the CO2 injection rate). ``_plane``
    is the :func:`_leak_plane` of plane_z and perm_field, which a run
    computes once.
    """
    if not normalize_by > 0.0:
        raise DomainError("normalize_by must be > 0")
    if _plane is None:
        _plane = _leak_plane(grid, plane_z, interior_transmissibilities(grid, perm_field))
    Fc = _co2_fluxes(grid, *_plane, state, params)
    return float(np.sum(np.maximum(Fc, 0.0))) / normalize_by


def _leak_plane(grid: Grid, plane_z: float, T) -> tuple[np.ndarray, np.ndarray]:
    """Leak-tagged faces cut by plane_z and their transmissibilities, from all T."""
    if not 0.0 < plane_z < grid.domain.lz:
        raise GeometryError(f"plane z = {plane_z} m outside the domain")
    fa = grid.iface_cells[:, 0]
    fb = grid.iface_cells[:, 1]
    face_z = 0.5 * (grid.centers[fa, 2] + grid.centers[fb, 2])
    on_plane = (grid.iface_axis == 2) & (np.abs(face_z - plane_z) < 1e-6 * grid.domain.dz)
    leak_touch = (grid.region[fa] == Region.LEAK) | (grid.region[fb] == Region.LEAK)
    faces = np.flatnonzero(on_plane & leak_touch)
    if faces.size == 0:
        raise GeometryError(
            f"plane z = {plane_z} m does not cut any leak-tagged face; "
            "pick a layer interface crossed by the leak")
    return faces, T[faces]


@dataclass
class Co2Report:
    series: list  # (t, normalized upward leak flux)
    final_state: TwoPhaseState
    injected_volume: float
    produced_volume: float
    in_place_volume: float
    steps: int
    newton_iterations: int
    factorizations: int  # over the accepted steps, like newton_iterations
    dt_failures: int
    wall_time: float

    @property
    def volume_closure_error(self) -> float:
        scale = max(self.injected_volume, self.in_place_volume, 1e-30)
        return abs(self.injected_volume - self.produced_volume
                   - self.in_place_volume) / scale

    @property
    def peak_flux(self) -> float:
        return max((v for _, v in self.series), default=0.0)


def simulate_co2(grid: Grid, perm_field, rate: float, duration: float,
                 settings: SolverSettings, params: TwoPhaseParams,
                 plane_z: float | None = None,
                 p_bdry: float = DEFAULT_BOUNDARY_PRESSURE,
                 poro_field=None, initial_state: TwoPhaseState | None = None,
                 sinks: OutputHooks | None = None) -> Co2Report:
    """Inject CO2 at the well for ``duration`` and track the leak flux.

    ``plane_z`` defaults to the lower-aquifer/caprock interface. Returns
    the (t, normalized flux) series sampled at every accepted step.
    """
    t_start = time.perf_counter()
    poro = grid.poro0 if poro_field is None else np.asarray(poro_field, dtype=float)
    sys = _TwoPhaseSystem(grid, perm_field, poro, params)
    if sys.closed and rate > 0.0:
        raise DomainError("cannot inject into a domain with no open boundary")
    plane_given = plane_z is not None
    if plane_z is None:
        plane_z = grid.reservoir.aquifer_height
    plane = None
    if grid.leak_cells.size > 0:
        try:
            plane = _leak_plane(grid, plane_z, sys.T)
        except GeometryError:
            if plane_given:
                raise
            # no vertical leak faces (e.g. a horizontal 1D layout):
            # run the assessment without the leak-flux series

    state = (initial_state.copy() if initial_state is not None
             else make_initial_twophase_state(grid, params, p_bdry))
    series: list[tuple[float, float]] = []
    produced = 0.0
    # the last two states of the run and the step between them
    prev, last, dt_last = None, state, 0.0

    def step(st, dt, rate):
        guess = None if prev is None else _extrapolate(prev, last, dt / dt_last)
        return solve_twophase_step(grid, perm_field, st, dt, rate, settings,
                                   params, p_bdry, poro, guess=guess, _sys=sys)

    def accept(t, dt, st, rep, rate):
        nonlocal produced, prev, last, dt_last
        prev, last, dt_last = last, st, dt
        produced += rep.co2_out
        info = {"max_s": float(st.s.max(initial=0.0))}
        if plane is not None:
            flux = leakage_flux(grid, st, plane_z, rate if rate > 0.0 else 1.0,
                                perm_field, params, _plane=plane)
            series.append((t, flux))
            info["leak_flux"] = flux
        return info

    run = march(state, [(duration, rate)], settings, step, accept, sinks)
    in_place = float(np.sum(poro * run.state.s * grid.volumes))
    return Co2Report(series=series, final_state=run.state,
                     injected_volume=rate * run.t, produced_volume=produced,
                     in_place_volume=in_place, steps=run.steps,
                     newton_iterations=run.newton_iterations,
                     factorizations=run.factorizations, dt_failures=run.dt_failures,
                     wall_time=time.perf_counter() - t_start)
