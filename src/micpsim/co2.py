"""Immiscible two-phase CO2/water solver for leakage assessment.

Runs on a frozen porosity/permeability field (the state the sealing
treatment left behind, or the untreated rock). Per cell the unknowns are
(p, s) with s the CO2 saturation, the fields of :class:`TwoPhaseState`
in Newton order (:class:`micpsim.stepping.CellState`); relative
permeabilities are linear (k_r = s_alpha), capillary pressure is zero so
both phases share one pressure. Each phase is upwinded by the sign of
its own potential difference, which keeps saturations in [0, 1] and lets
gravity segregate the phases. The discretization follows the reactive
solver: TPFA, backward Euler, analytic Jacobian, constant-pressure
hydrostatic boundary faces to ghost cells that hold the water column at
rest beyond them (p_bdry - rho_w g z with the reservoir's datum p_bdry,
s = 0; :func:`micpsim.grid.hydrostatic_pressure`), pressure pin of a
closed domain at cell 0's pressure in that column. What each equation
conserves, the water and the CO2 volume phi (1 - s) and phi s per bulk
volume, is written once (:meth:`TwoPhaseSystem.accumulation`): the storage
term, its block of the Newton matrix, the exact complex-step derivative,
and the volume ledger's amounts in place all read it
(:meth:`micpsim.stepping.AssemblyData.storage`,
:meth:`micpsim.stepping.AssemblyData.storage_jacobian`,
:meth:`micpsim.stepping.AssemblyData.in_place`). Newton, Jacobian
assembly and adaptive stepping are the shared machinery of
:mod:`micpsim.stepping`; the transmissibilities and potential
differences are the reactive solver's too
(:func:`micpsim.grid.transmissibilities`,
:meth:`micpsim.stepping.AssemblyData.face_potential_differences`).
:func:`_phase_flux` upwinds a phase's flux on every face, once per
evaluation. As in the reactive solver, each iterate is evaluated in two
passes: :func:`_eval_twophase` gives the residual and an aux that holds
each phase's upwinded T lambda, potential differences and upwind cells,
and :func:`_jacobian_twophase` builds the Newton matrix from it, only
for an iterate that Newton factors.

Each Newton matrix is built in one order of the unknowns, computed once
per system: SuperLU's minimum-degree order (``MMD_AT_PLUS_A``) of the
pattern of the 2x2 derivative blocks
(:attr:`micpsim.stepping.AssemblyData.order`). SuperLU factors it
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

import numpy as np
from scipy.sparse.linalg import splu

from .errors import DomainError, GeometryError
from .grid import Grid, Region, hydrostatic_pressure, transmissibilities
from .params import TwoPhaseParams
from .stepping import (
    AssemblyData,
    Carry,
    CellState,
    Ledger,
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
class TwoPhaseState(CellState):
    p: np.ndarray  # Pa (shared by both phases), unknown JP
    s: np.ndarray  # CO2 saturation, unknown JS


def make_initial_twophase_state(grid: Grid, params: TwoPhaseParams) -> TwoPhaseState:
    """Fully water-saturated, hydrostatic against the boundary datum."""
    return TwoPhaseState(p=hydrostatic_pressure(grid, params.rho_w),
                         s=np.zeros(grid.n_active))


class TwoPhaseSystem(AssemblyData):
    """Assembly data of one checked K/phi field; phi defaults to ``grid.poro0``.

    Raises DomainError if ``params`` fails its validation.
    """

    permc_spec = "MMD_AT_PLUS_A"  # of every entry of the 2x2 blocks (AssemblyData.order)

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
        super().__init__(grid, params.rho_w, NV2)
        self.params = params
        self.phi = poro
        self.T = transmissibilities(grid, perm)

    def factor(self, J) -> OrderedLU:
        """LU of the Newton matrix J, built in the system's factor order."""
        return OrderedLU(splu, J, self.order)

    def accumulation(self, unknowns):
        """(phi (1 - s), phi s): the water and the CO2 volume per bulk volume
        (:meth:`micpsim.stepping.AssemblyData.accumulation`)."""
        _, s = unknowns
        return np.array((self.phi * (1.0 - s), self.phi * s))

    def check_state(self, state: TwoPhaseState):
        """Refuse also a saturation outside [0, 1]."""
        super().check_state(state)
        if not np.all((np.asarray(state.s) >= 0.0) & (np.asarray(state.s) <= 1.0)):
            raise DomainError("state s must lie in [0, 1]")


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
    p, s = x.reshape(sys.n, NV2).T  # views, in the order JP, JS

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
    resid = (sys.storage(x, old, dt) + div).ravel()
    resid[JS::NV2] -= q_c

    pin_scale = sys.pin_pressure(resid, p[0], sys.phi, dt)

    # each phase's T lambda, potential differences and upwind cells, in
    # equation order, for the Jacobian pass
    upwinded = ((T_lam_w, dw, up_w), (T_lam_c, dc, up_c))
    return resid, {"Fc": Fc, "upwinded": upwinded, "pin_scale": pin_scale}


def _jacobian_twophase(sys, x, dt, aux):
    """Newton matrix at x from :func:`_eval_twophase`'s aux there, in factor order."""
    pr = sys.params
    cell = sys.storage_jacobian(x, dt)

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
    if not 0.0 < dt < np.inf:  # NaN fails too
        raise DomainError("dt must be > 0 and finite")
    settings.validate()
    escale = np.repeat(sys.phi * sys.V / dt, NV2)  # pin row: |p_0 - p_pin| / 1e5 Pa

    x = (state_old if guess is None else guess).to_vector()
    carry = carry or Carry()
    res, carry.lu = newton(
        lambda x: _eval_twophase(sys, x, state_old, dt, rate),
        lambda x, aux: _jacobian_twophase(sys, x, dt, aux),
        x, escale, settings, sys.factor, damped=(slice(JS, None, NV2),), max_step=0.5,
        lu=carry.take())
    state = TwoPhaseState.from_vector(res.x)
    if not res.converged or np.any(state.s < -1e-6) or np.any(state.s > 1.0 + 1e-6):
        return state_old, res._replace(converged=False)
    np.clip(state.s, 0.0, 1.0, out=state.s)
    return state, res


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
    """The assessment's run report with its leak-flux series and the
    :class:`Ledger` of the CO2 volume, in m^3 (``reacted`` = 0)."""

    series: list  # (t, normalized upward leak flux)
    volume: Ledger

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
    default one leaves the series empty there. An ``initial_state``
    refused by :meth:`TwoPhaseSystem.check_state`, or a negative or
    non-finite ``rate``, raises DomainError before the first step.
    """
    sys = TwoPhaseSystem(grid, perm_field, params, poro_field)
    if not 0.0 <= rate < np.inf:  # NaN fails too
        raise DomainError(f"injection period (0, {duration}] s: the well rate "
                          "must be >= 0 and finite")
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

    run = march(state, [(duration, rate)], settings, step, accept, sinks, _extrapolate)
    volume = Ledger(injected=rate * run.t, produced=produced,
                    initial=float(sys.in_place(state)[JS]),
                    final=float(sys.in_place(run.state)[JS]))
    return Co2Report(**vars(run), series=series, volume=volume)
