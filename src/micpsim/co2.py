"""Immiscible two-phase CO2/water solver for leakage assessment.

Runs on a frozen porosity/permeability field (the state the sealing
treatment left behind, or the untreated rock). Per cell the unknowns are
(p, s) with s the CO2 saturation; relative permeabilities are linear
(k_r = s_alpha), capillary pressure is zero so both phases share one
pressure. Each phase is upwinded by the sign of its own potential
difference, which keeps saturations in [0, 1] and lets gravity segregate
the phases. The discretization follows the reactive solver: TPFA,
backward Euler, analytic Jacobian, constant-pressure hydrostatic
boundary faces to ghost cells that hold the water column at rest beyond
them (p_bdry - rho_w g z with the reservoir's datum p_bdry, s = 0;
:func:`micpsim.grid.hydrostatic_pressure`), pressure pin of a closed
domain at cell 0's pressure in that column. Newton,
Jacobian assembly and adaptive stepping are the shared machinery of
:mod:`micpsim.stepping`; the transmissibilities and potential
differences are the reactive solver's too (:func:`micpsim.grid.transmissibilities`,
:meth:`micpsim.stepping.AssemblyData.face_potential_differences`). :func:`_phase_flux`
upwinds a phase's flux on every face, once per evaluation.
As in the reactive solver, each iterate is evaluated in two passes:
:func:`_eval_twophase` gives the residual and an aux that holds each
phase's upwinded T lambda, potential differences and upwind cells, and
:func:`_jacobian_twophase` builds the Newton matrix from it, only for an
iterate that Newton factors.

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

:func:`micpsim.stepping.march` keeps what passes from step to step.
Newton starts from the linear predictor x + (dt/dt_prev)(x - x_prev)
through the run's last two states, s clipped to [0, 1] (:func:`_extrapolate`;
Gresho, Lee & Sani 1980), and updates with the factorization the last
step ended with while each update cuts the scaled residual norm 10-fold
(:func:`micpsim.stepping.newton`). A failed step carries nothing on. On
the published ex3 grid the 52 steps take 285 Newton iterations and 26
factorizations; the predictor alone took 124 and 124, neither 164 and 164.

The headline diagnostic is the normalized leakage flux: the upward CO2
volumetric flux through a horizontal plane restricted to leak-tagged
cells, divided by the injection rate: :func:`leakage_flux` sums the
accepted step's own CO2 face flux over the :func:`leak_plane`'s faces. A
:class:`TwoPhaseSystem` holds one checked K/phi field: a run builds one,
and :func:`solve_twophase_step` takes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import splu

from .errors import DomainError, GeometryError
from .grid import Grid, Region, hydrostatic_pressure, transmissibilities
from .params import TwoPhaseParams
from .stepping import (
    AssemblyData,
    Carry,
    MarchReport,
    OrderedLU,
    OutputHooks,
    SolverSettings,
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


def make_initial_twophase_state(grid: Grid, params: TwoPhaseParams) -> TwoPhaseState:
    """Fully water-saturated, hydrostatic against the boundary datum."""
    return TwoPhaseState(p=hydrostatic_pressure(grid, params.rho_w),
                         s=np.zeros(grid.n_active))


class TwoPhaseSystem(AssemblyData):
    """Assembly data of one checked K/phi field; phi defaults to ``grid.poro0``.

    Raises DomainError if ``params`` fails its validation.
    """

    def __init__(self, grid: Grid, perm_field, params: TwoPhaseParams,
                 poro_field=None):
        perm = np.asarray(perm_field, dtype=float)
        poro = np.asarray(grid.poro0 if poro_field is None else poro_field, dtype=float)
        if perm.shape != (grid.n_active,) or poro.shape != (grid.n_active,):
            raise DomainError("perm/poro fields must have one value per active cell")
        for name, field in (("perm", perm), ("poro", poro)):
            if not np.all(np.isfinite(field) & (field > 0.0)):  # NaN fails too
                raise DomainError(f"{name} must be finite and > 0 in active cells")
        params.validate()
        super().__init__(grid, params.rho_w)
        self.params = params
        self.phi = poro
        self.T = transmissibilities(grid, perm)

    @cached_property
    def order(self) -> np.ndarray:
        """Factor order of the unknowns: MMD of the 2x2-block pattern, once."""
        return self.fill_order(NV2, "MMD_AT_PLUS_A")

    def factor(self, J) -> OrderedLU:
        """LU of the Newton matrix J, built in the system's factor order."""
        return OrderedLU(splu, J, self.order)


def _phase_flux(sys, dpot, sat, mu):
    """Upwinded flux T lambda(s_up) dpot of one phase on every face.

    ``dpot`` is the phase's potential difference on each face, ``sat`` its
    saturation in every cell and ghost; the mobility sat / mu is taken
    from the face's cell a where dpot >= 0, else from its cell b. Returns
    (flux, T lambda, upwind cell) of each face.
    """
    up = np.where(dpot >= 0.0, sys.fa, sys.fb)
    T_lam = sys.T * (sat[up] / mu)
    return T_lam * dpot, T_lam, up


def _eval_twophase(sys, x, old: TwoPhaseState, dt, rate):
    """Residual at x, and the aux of the CO2 flux and the Jacobian's inputs."""
    pr = sys.params
    n = sys.n
    p = x[JP::NV2]
    s = x[JS::NV2]
    V = sys.V

    # beyond the boundary a water column at rest
    p_all = sys.with_ghosts(p, sys.p_ghost)
    se = np.clip(sys.with_ghosts(s, 0.0), 0.0, 1.0)
    dw = sys.face_potential_differences(p_all, pr.rho_w)
    dc = sys.face_potential_differences(p_all, pr.rho_co2)
    Fw, T_lam_w, up_w = _phase_flux(sys, dw, 1.0 - se, pr.mu_w)
    Fc, T_lam_c, up_c = _phase_flux(sys, dc, se, pr.mu_co2)

    q_c = sys.well_source(rate)

    fluxes = np.stack((Fw, Fc), axis=1)  # one column per equation: JP water, JS CO2
    div = sys.face_sums(fluxes, fluxes)
    resid = np.zeros(NV2 * n, dtype=x.dtype)
    resid[JP::NV2] = -sys.phi * (s - old.s) * V / dt + div[:, JP]
    resid[JS::NV2] = sys.phi * (s - old.s) * V / dt + div[:, JS] - q_c

    pin_scale = sys.pin_pressure(resid, p[0], sys.phi, dt)

    # each phase's T lambda, potential differences and upwind cells, in
    # equation order, for the Jacobian pass
    upwinded = ((T_lam_w, dw, up_w), (T_lam_c, dc, up_c))
    return resid, {"Fc": Fc, "upwinded": upwinded, "pin_scale": pin_scale}


def _jacobian_twophase(sys, x, dt, aux):
    """Newton matrix at x from :func:`_eval_twophase`'s aux there, in factor order."""
    pr = sys.params
    cell = np.zeros((sys.n, NV2, NV2))
    cell[:, JP, JS] = -sys.phi * sys.V / dt
    cell[:, JS, JS] = sys.phi * sys.V / dt

    s_all = sys.with_ghosts(x[JS::NV2], 0.0)
    in_bounds = (s_all >= 0.0) & (s_all <= 1.0)
    face_a = np.zeros((sys.fa.size, NV2, NV2))
    face_b = np.zeros((sys.fa.size, NV2, NV2))
    for row, (T_lam, dpot, upwind), dlam in zip(
            (JP, JS), aux["upwinded"], (-1.0 / pr.mu_w, 1.0 / pr.mu_co2)):
        face_a[:, row, JP] = T_lam
        face_b[:, row, JP] = -T_lam
        dF_ds = sys.T * np.where(in_bounds[upwind], dlam, 0.0) * dpot
        face_a[:, row, JS] = np.where(dpot >= 0.0, dF_ds, 0.0)
        face_b[:, row, JS] = np.where(dpot >= 0.0, 0.0, dF_ds)

    return sys.jacobian(cell, face_a, face_b, aux["pin_scale"])


def solve_twophase_step(sys: TwoPhaseSystem, state_old: TwoPhaseState,
                        dt: float, rate: float, settings: SolverSettings,
                        guess: TwoPhaseState | None = None,
                        carry: Carry | None = None):
    """One implicit step of ``sys``; returns (state_new, Newton's result).

    A step that fails, or converges outside the saturation bounds, returns
    state_old and ``converged`` False. Newton starts from ``guess``
    (``state_old`` if None) with the factorization it takes out of
    ``carry``, where it leaves its last one.
    """
    if not dt > 0.0:
        raise DomainError("dt must be > 0")
    settings.validate()
    escale = np.repeat(sys.phi * sys.V / dt, NV2)  # pin row: |p_0 - p_pin| / 1e5 Pa

    start = state_old if guess is None else guess
    x = np.empty(NV2 * sys.n)
    x[JP::NV2] = start.p
    x[JS::NV2] = start.s
    carry = carry or Carry()
    res, carry.lu = newton(
        lambda x: _eval_twophase(sys, x, state_old, dt, rate),
        lambda x, aux: _jacobian_twophase(sys, x, dt, aux),
        x, escale, settings, sys.factor, damped=(slice(JS, None, NV2),), max_step=0.5,
        lu=carry.take())
    s = res.x[JS::NV2]
    if not res.converged or np.any(s < -1e-6) or np.any(s > 1.0 + 1e-6):
        return state_old, res._replace(converged=False)
    return TwoPhaseState(p=res.x[JP::NV2].copy(), s=np.clip(s, 0.0, 1.0)), res


def _extrapolate(prev: TwoPhaseState, last: TwoPhaseState, ratio: float) -> TwoPhaseState:
    """Linear predictor last + ratio (last - prev), saturation clipped to [0, 1]."""
    return TwoPhaseState(p=last.p + ratio * (last.p - prev.p),
                         s=np.clip(last.s + ratio * (last.s - prev.s), 0.0, 1.0))


def leakage_flux(plane, Fc, normalize_by: float) -> float:
    """Upward CO2 flux through a :func:`leak_plane`, normalized.

    Sums the positive (upward) part of the CO2 face flux ``Fc`` (the aux
    ``"Fc"`` of :func:`_eval_twophase`) over the plane's faces and divides
    by ``normalize_by`` (conventionally the CO2 injection rate).
    """
    if not normalize_by > 0.0:
        raise DomainError("normalize_by must be > 0")
    return float(np.sum(np.maximum(Fc[plane], 0.0))) / normalize_by


def leak_plane(sys: TwoPhaseSystem, plane_z: float) -> np.ndarray:
    """The faces of :func:`leakage_flux`'s plane at height plane_z: the
    indices of the vertical faces it cuts that have a leak-tagged cell."""
    grid = sys.grid
    if not 0.0 < plane_z < grid.domain.lz:
        raise GeometryError(f"plane z = {plane_z} m outside the domain")
    fa, fb = grid.face_cells[sys.interior].T
    face_z = 0.5 * (sys.z[fa] + sys.z[fb])
    vertical = grid.face_axis[sys.interior] == 2
    on_plane = vertical & (np.abs(face_z - plane_z) < 1e-6 * grid.domain.dz)
    leak_touch = (grid.region[fa] == Region.LEAK) | (grid.region[fb] == Region.LEAK)
    faces = np.flatnonzero(on_plane & leak_touch)
    if faces.size == 0:
        raise GeometryError(
            f"plane z = {plane_z} m does not cut any leak-tagged face; "
            "pick a layer interface crossed by the leak")
    return faces


@dataclass(kw_only=True)
class Co2Report(MarchReport):
    """The assessment's run report with its leak-flux series and volume balance."""

    series: list  # (t, normalized upward leak flux)
    injected_volume: float
    produced_volume: float
    in_place_volume: float  # at the end
    initial_volume: float  # in place at the start

    @property
    def volume_closure_error(self) -> float:
        scale = max(self.injected_volume, self.in_place_volume, self.initial_volume, 1e-30)
        return abs(self.injected_volume - self.produced_volume
                   - (self.in_place_volume - self.initial_volume)) / scale

    @property
    def peak_flux(self) -> float:
        return max((v for _, v in self.series), default=0.0)


def simulate_co2(grid: Grid, perm_field, rate: float, duration: float,
                 settings: SolverSettings, params: TwoPhaseParams,
                 plane_z: float | None = None, poro_field=None,
                 initial_state: TwoPhaseState | None = None,
                 sinks: OutputHooks | None = None) -> Co2Report:
    """Inject CO2 at the well for ``duration`` and track the leak flux.

    ``plane_z`` defaults to the lower-aquifer/caprock interface. Returns
    the (t, normalized flux) series sampled at every accepted step. A
    given plane that cuts no leak-tagged face raises GeometryError; the
    default one leaves the series empty there. An ``initial_state`` with
    an array that is not one finite value per active cell raises
    DomainError before the first step.
    """
    sys = TwoPhaseSystem(grid, perm_field, params, poro_field)
    sys.check_injection(rate)
    plane_given = plane_z is not None
    if plane_z is None:
        plane_z = grid.reservoir.aquifer_height
    plane = None
    if plane_given or grid.leak_cells.size > 0:
        try:
            plane = leak_plane(sys, plane_z)
        except GeometryError:
            if plane_given:
                raise
            # no vertical leak faces (e.g. a horizontal 1D layout):
            # run the assessment without the leak-flux series

    state = (initial_state.copy() if initial_state is not None
             else make_initial_twophase_state(grid, params))
    sys.check_state(state)
    series: list[tuple[float, float]] = []
    produced = 0.0

    def step(st, dt, rate, guess, carry):
        return solve_twophase_step(sys, st, dt, rate, settings, guess, carry)

    def accept(t, dt, st, rep, rate):
        nonlocal produced
        Fc = rep.aux["Fc"]  # the step's CO2 flux on every face
        produced += float(np.sum(np.maximum(Fc[sys.boundary], 0.0))) * dt
        info = {"max_s": float(st.s.max(initial=0.0))}
        if plane is not None:
            flux = leakage_flux(plane, Fc, rate if rate > 0.0 else 1.0)
            series.append((t, flux))
            info["leak_flux"] = flux
        return info

    initial = float(np.sum(sys.phi * state.s * sys.V))
    run = march(state, [(duration, rate)], settings, step, accept, sinks, _extrapolate)
    in_place = float(np.sum(sys.phi * run.state.s * sys.V))
    return Co2Report(**vars(run), series=series, injected_volume=rate * run.t,
                     produced_volume=produced, in_place_volume=in_place,
                     initial_volume=initial)
