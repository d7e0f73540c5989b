"""Implicit time stepping shared by the reactive and the two-phase solvers.

The solvers supply only their physics, as callables: the residual pass
(residual and aux at an iterate), the Jacobian pass (the Newton matrix
from that aux), the finish of a converged step, and the booking of an
accepted one. This module owns the rest, the decision when to build and
factor a Jacobian among it (:func:`newton`): the layout of a state's
unknowns in the Newton vector (:class:`CellState`), the grid data both
assemblies read (:class:`AssemblyData`) with the grid's one face list
of interior faces and of open boundary faces to ghost cells, the
potential differences across them
(:meth:`AssemblyData.face_potential_differences`; the transmissibilities
are :func:`micpsim.grid.transmissibilities`), the well source and the
closed-domain pressure pin (:meth:`AssemblyData.well_source`,
:meth:`AssemblyData.pin_pressure`), the face sums and the scatter of the
block entries a system declares it can make nonzero into the Newton matrix
(:meth:`AssemblyData.face_sums`, :meth:`AssemblyData.jacobian`) in the
system's factor order, the LU of such a matrix (:class:`OrderedLU`), the
Newton loop (:func:`newton`) and adaptive stepping with snapshots and
diagnostics (:func:`march`), which alone keeps what passes from step to
step: the predictor's last two states and the carried factorization.
:func:`march` returns the run report (:class:`MarchReport`) that both
solvers' reports extend with their own results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spilu

from .errors import ConvergenceError, DomainError
from .grid import hydrostatic_pressure

_EPS = 1e-9  # relative slack on interval ends
_GROW_COOLDOWN = 3  # accepted steps without dt growth after a dt cut
_GROW_FACTORIZATIONS = 5  # grow dt after a step converged with at most this many LUs
_CONTRACTION = 0.1  # a carried solve keeps an LU while updates cut the norm this much
_SINGULAR = "Factor is exactly singular"  # SuperLU's RuntimeError at a zero pivot


@dataclass
class SolverSettings:
    newton_rel_tol: float = 1e-6
    newton_max_iter: int = 15
    dt_init: float = 600.0  # s
    dt_min: float = 1e-2  # s
    dt_max: float = 7200.0  # s
    dt_grow: float = 2.0
    dt_cut: float = 0.5

    def validate(self) -> None:
        """Raise one DomainError that names every condition the settings fail."""
        failed = [message for holds, message in (
            (0.0 < self.dt_min <= self.dt_init <= self.dt_max,
             "need 0 < dt_min <= dt_init <= dt_max"),
            (self.newton_rel_tol > 0.0, "newton_rel_tol must be > 0"),
            (self.newton_max_iter >= 1, "newton_max_iter must be >= 1"),
            (0.0 < self.dt_cut < 1.0, "need 0 < dt_cut < 1"),
            (self.dt_grow >= 1.0, "need dt_grow >= 1"),
            *((math.isfinite(value), f"{name} must be finite")
              for name, value in vars(self).items()),
        ) if not holds]
        if failed:
            raise DomainError("; ".join(failed))


@dataclass
class OutputHooks:
    """Optional sinks invoked during a run."""

    snapshot_cadence: float = 0.0  # s of simulated time; 0 takes none
    on_snapshot: object = None  # fn(t, state)
    on_diagnostics: object = None  # fn(t, dict), once per accepted step


@dataclass
class CellState:
    """A solver's state: one array over the active cells per unknown.

    A solver's state class declares its unknowns as its fields, in Newton
    order: field v of cell i is entry nvar * i + v of the Newton vector,
    nvar being the number of fields.
    """

    def copy(self):
        return type(self)(*(getattr(self, f.name).copy() for f in fields(self)))

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=float).T.ravel()

    @classmethod
    def from_vector(cls, x: np.ndarray):
        nvar = len(fields(cls))
        return cls(*(x[v::nvar].copy() for v in range(nvar)))


class AssemblyData:
    """Grid arrays read by every residual assembly of ``nvar`` unknowns per cell.

    The faces are the grid's one list (:class:`micpsim.grid.Grid`),
    interior faces first: open boundary face k joins its cell (a) to
    ghost cell n + k (b), at the cell's height, which holds the state
    beyond the boundary that each solver gives it (:meth:`with_ghosts`).
    Sums drop the ghosts' rows.

    ``p_ghost`` and ``p_pin`` are read from the column of water of
    density ``rho_w`` at rest (:func:`micpsim.grid.hydrostatic_pressure`):
    the ghosts' pressures, and cell 0's, where a closed domain is pinned.

    A system declares its layout beside its physics: ``cell_pattern`` and
    ``face_pattern``, boolean nvar x nvar, are the entries of a cell and
    of a face block that can be nonzero, the only ones :meth:`jacobian`
    gathers, and ``permc_spec`` is the SuperLU ordering of :attr:`order`.
    None, as here, gathers every entry and keeps the natural order.
    """

    permc_spec = cell_pattern = face_pattern = None

    def __init__(self, grid, rho_w, nvar):
        self.grid = grid
        self.nvar = nvar
        column = hydrostatic_pressure(grid, rho_w)  # water at rest
        self.p_ghost, self.p_pin = column[grid.bface_cell], column[0]
        self.n = grid.n_active
        self.V = grid.volumes
        self.g = grid.gravity_accel
        self.interior = slice(None, grid.n_ifaces)
        self.boundary = slice(grid.n_ifaces, None)
        self.n_ghosts = grid.bface_cell.size
        self.closed = self.n_ghosts == 0  # no pressure level: pin cell 0
        # contiguous copies: every evaluation indexes cell arrays with them
        self.fa = grid.face_cells[:, 0].copy()
        self.fb = grid.face_cells[:, 1].copy()
        self.z = self.with_ghosts(grid.centers[:, 2], grid.centers[grid.bface_cell, 2])
        self.f_dz = self.z[self.fb] - self.z[self.fa]
        self.well = grid.well_cells
        self.well_frac = grid.volumes[self.well] / grid.well_volume
        # cell-by-face 0/1 matrices of the face sums, without the ghosts' rows
        faces = np.arange(self.fa.size)
        inner = faces[self.interior]
        self._incidence = tuple(
            sparse.csr_matrix((np.ones(cols.size), (cells, cols)), shape=(self.n, faces.size))
            for cells, cols in ((self.fa, faces), (self.fb[inner], inner)))

    def with_ghosts(self, values, ghost):
        """Cell values followed by ``ghost``'s, a scalar or one per ghost."""
        out = np.empty((self.n + self.n_ghosts, *np.shape(values)[1:]),
                       np.result_type(values, ghost))
        out[:self.n], out[self.n:] = values, ghost
        return out

    def check_state(self, state):
        """Refuse a state unless each of its arrays is one finite value per cell."""
        for name, values in vars(state).items():
            values = np.asarray(values)
            if values.shape != (self.n,) or not np.all(np.isfinite(values)):
                raise DomainError(
                    f"state {name} must hold one finite value per active cell")

    def check_injection(self, rate):
        """Refuse a well rate on a closed domain: its pin replaces a water equation."""
        if self.closed and rate != 0.0:
            raise DomainError("a domain with no open boundary takes no well rate")

    def well_source(self, rate):
        """Per-cell injection, rate split over the well cells by volume."""
        self.check_injection(rate)
        q = np.zeros(self.n)
        if rate != 0.0:
            q[self.well] = rate * self.well_frac
        return q

    def face_potential_differences(self, p, rho):
        """(p_a - p_b) - rho g (z_b - z_a) on every face.

        The potential difference that drives a phase of density rho from
        each face's cell a to its cell b. ``p`` holds the ghosts' pressures
        too (:meth:`with_ghosts`).
        """
        return (p[self.fa] - p[self.fb]) - rho * self.g * self.f_dz

    def pin_pressure(self, resid, p0, phi, dt):
        """On a closed domain, replace equation 0 of cell 0 by the pressure pin.

        The pin residual is (p0 - p_pin) * pin_scale with pin_scale =
        V_0 phi_0 / (dt 1e5 Pa), the storage scale of cell 0 per bar, so
        that water at rest stays at rest. Returns pin_scale for
        :meth:`jacobian`, or None on an open domain.
        """
        if not self.closed:
            return None
        pin_scale = self.V[0] * phi[0] / (dt * 1e5)
        resid[0] = (p0 - self.p_pin) * pin_scale
        return pin_scale

    def face_sums(self, on_a, on_b):
        """Per-cell sums of face terms, a face's flux leaving a and entering b.

        Face f adds on_a[f] to its cell a and subtracts on_b[f] from its
        cell b unless b is a ghost. Arrays of shape (faces, ...) give an
        array of shape (cells, ...). Each sum adds its faces in face
        order, as ``np.bincount`` would.
        """
        inc_a, inc_b = self._incidence
        tail = on_a.shape[1:]
        k = math.prod(tail)
        total = inc_a @ on_a.reshape(-1, k) - inc_b @ on_b.reshape(-1, k)
        return total.reshape((self.n, *tail))

    def jacobian(self, cell, face_a, face_b, pin_scale=None):
        """Newton matrix in the factor order, from derivative blocks.

        Unknown v of cell i is nvar * i + v in natural order, and row and
        column k of the matrix is unknown ``self.order[k]``.
        ``cell`` (cells, nvar, nvar) holds the derivatives of each cell's
        residual apart from its face fluxes. Face f carries a flux vector
        out of its cell a into its cell b; ``face_a[f]`` and ``face_b[f]``
        are its derivatives by the unknowns of a and of b. A ghost has no
        unknowns, so the pair blocks are those of the interior faces.
        Only the entries of ``cell_pattern`` and ``face_pattern`` are read,
        and those that are exactly zero are not stored, so LU sees only the
        numerically nonzero pattern. ``pin_scale`` replaces the row of
        unknown 0 by the pressure pin of a closed domain (:meth:`pin_pressure`).
        """
        gather, indices, indptr, pin_row, pin_diag = self._structure
        blocks = np.concatenate((cell + self.face_sums(face_a, face_b),
                                 face_b[self.interior], -face_a[self.interior]))
        data = blocks.ravel()[gather]
        if pin_scale is not None:
            data[pin_row] = 0.0
            data[pin_diag] = pin_scale
        size = self.nvar * self.n
        J = sparse.csc_matrix((data, indices.copy(), indptr.copy()), shape=(size, size))
        J.eliminate_zeros()
        return J

    def in_natural_order(self, J):
        """A matrix of :meth:`jacobian` with unknown k in row and column k."""
        if self.order is None:
            return J
        rank = np.argsort(self.order)
        return J[rank][:, rank]

    @cached_property
    def _structure(self):
        """The declared patterns' :meth:`_block_structure`, and the pin row's entries."""
        gather, indices, indptr = self._block_structure(
            self.order, self.cell_pattern, self.face_pattern)
        pin = 0 if self.order is None else int(np.flatnonzero(self.order == 0)[0])
        pin_row = np.flatnonzero(indices == pin)
        pin_diag = pin_row[np.searchsorted(pin_row, indptr[pin])]
        return gather, indices, indptr, pin_row, pin_diag

    def _block_structure(self, order=None, cell_pattern=None, face_pattern=None):
        """CSC structure of the block entries that :meth:`jacobian` fills.

        Blocks are cell i at (i, i), then interior face f at (a, b) and at
        (b, a); the entries of each are those of its pattern (every entry
        if None); unknown ``order[k]`` (natural order if None) goes to row
        and column k. Returns (gather, indices, indptr): the CSC entry k
        is entry gather[k] of the flattened blocks, in row indices[k]. No
        two blocks share a position.
        """
        nvar = self.nvar
        cells = np.arange(self.n)
        fa, fb = self.fa[self.interior], self.fb[self.interior]
        brow = np.concatenate((cells, fa, fb))
        bcol = np.concatenate((cells, fb, fa))
        var = np.arange(nvar)
        row = (nvar * brow[:, None, None] + var[:, None]).repeat(nvar, axis=2).ravel()
        col = (nvar * bcol[:, None, None] + var).repeat(nvar, axis=1).ravel()
        entries = np.flatnonzero(np.concatenate([
            np.broadcast_to(True if pattern is None else pattern, (count, nvar, nvar))
            for pattern, count in ((cell_pattern, self.n), (face_pattern, 2 * fa.size))]))
        row, col = row[entries], col[entries]
        if order is not None:
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            row, col = rank[row], rank[col]
        sort = np.lexsort((row, col))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=nvar * self.n))))
        itype = np.int32 if row.size < 2**31 else np.int64
        return entries[sort].astype(itype), row[sort].astype(itype), indptr.astype(itype)

    @cached_property
    def order(self):
        """The unknowns in the order the system factors them, computed once.

        Row and column k of a Newton matrix is unknown order[k]; None keeps
        the natural order. It is SuperLU's ``permc_spec`` order of every
        entry of every block, not of the declared patterns: ordered from
        micp's patterns, ex1 fills 9,548 entries, not 8,862, and the desk
        ex3 phase I fills 1% less but factors no faster. SuperLU
        orders it inside an incomplete LU that may not outgrow the pattern
        (fill_factor=1): on the published ex3 grid a full LU of the
        6x6-block pattern fills 26.8M entries. Each column's diagonal
        dominates it, so no pivot is zero.
        """
        if self.permc_spec is None:
            return None
        _, indices, indptr = self._block_structure()
        size = self.nvar * self.n
        col = np.repeat(np.arange(size), np.diff(indptr))
        data = np.where(indices == col, float(size), 1.0)
        pattern = sparse.csc_matrix((data, indices, indptr), shape=(size, size))
        ilu = spilu(pattern, permc_spec=self.permc_spec, drop_tol=1.0, fill_factor=1.0)
        return np.argsort(ilu.perm_c)


class OrderedLU:
    """SuperLU factors of a Newton matrix built in its system's factor order.

    ``J`` comes from :meth:`AssemblyData.jacobian` already in the order
    ``order`` (:attr:`AssemblyData.order`), so SuperLU factors it in
    that order (``permc_spec = "NATURAL"``) with its default pivoting;
    :meth:`solve` takes and returns natural order. ``relax=1`` turns off
    supernode relaxation, which only pads the factors with explicit zeros;
    keep relax <= panel_size (relax=40 with panel_size=5 crashed SuperLU).
    ``splu`` is the solver module's own ``scipy.sparse.linalg.splu``,
    looked up there at each call, so that each solver's factorizations can
    be wrapped and counted apart (``bench/child.py``).
    """

    def __init__(self, splu, J, order):
        self.lu = splu(J, permc_spec="NATURAL", relax=1, panel_size=5)
        self.order = order

    def solve(self, b):
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x


class NewtonResult(NamedTuple):
    converged: bool
    x: np.ndarray  # last iterate
    iterations: int
    resid_norm: float
    aux: dict  # diagnostics of the evaluation at x
    factorizations: int  # calls of ``factor``


def newton(evaluate, jacobian, x, escale, settings: SolverSettings, factor,
           damped=(), max_step=np.inf, lu=None) -> tuple[NewtonResult, object]:
    """Solve evaluate(x) = 0 from the initial iterate x.

    Each iterate is evaluated once: ``evaluate(x)`` returns (residual,
    aux). Newton takes the scaled norm max |residual / escale| and decides
    from it alone whether to linearize there; only then does it call
    ``jacobian(x, aux)``, with the aux of that evaluation, and factor the
    matrix it returns with ``factor(J)``, the aux dropped first (a zero
    pivot reports an empty one). So the Jacobian is built only for
    an iterate that the factorization's ``solve`` is applied to, never for
    the converged one.
    Convergence is a norm < newton_rel_tol; a NaN norm,
    reaching newton_max_iter or an exactly singular Jacobian (SuperLU's
    zero pivot) fails. An update whose largest entry in the slices
    ``damped`` exceeds ``max_step`` is scaled down to ``max_step``.

    ``lu`` is a factorization carried over from an earlier solve, as
    implicit integrators reuse their iteration matrix (Hairer & Wanner,
    Solving ODEs II, IV.8; Brown, Hindmarsh & Petzold 1994). Newton
    updates with it and builds no Jacobian as long as each update cuts
    the residual norm to at most _CONTRACTION times its previous value.
    At the first iterate where an update falls short it drops the
    factorization, before the Jacobian is built, factors a fresh
    Jacobian there and keeps that one under the same rule. Without
    ``lu`` nothing is reused: a fresh Jacobian is factored at every
    iterate, so ``factorizations == iterations``. Updates made with a
    kept factorization count as iterations, toward newton_max_iter too.

    Returns (result, lu): the result is the step's report in
    :func:`march`, and ``lu``, the last factorization used, is kept out of
    it, so that a kept report does not hold it while the next step factors.
    """
    tol = settings.newton_rel_tol
    iters = factorizations = 0
    reuse = lu is not None
    rnorm = np.inf  # scaled norm of the previous iterate
    while True:
        resid, aux = evaluate(x)
        last, rnorm = rnorm, float(np.max(np.abs(resid / escale)))
        if rnorm < tol:
            return NewtonResult(True, x, iters, rnorm, aux, factorizations), lu
        if iters >= settings.newton_max_iter or not np.isfinite(rnorm):
            return NewtonResult(False, x, iters, rnorm, aux, factorizations), lu
        if not (reuse and rnorm <= _CONTRACTION * last):
            lu = None  # free the old factorization before the Jacobian is built
            factorizations += 1
            J, aux = jacobian(x, aux), {}  # nor does the aux live on while it factors
            try:
                lu = factor(J)
            except RuntimeError as err:  # SuperLU's zero pivot fails the step
                if str(err) != _SINGULAR:
                    raise
                return NewtonResult(False, x, iters, rnorm, aux, factorizations), None
            del J
        delta = lu.solve(-resid)
        dmax = max((np.max(np.abs(delta[s]), initial=0.0) for s in damped),
                   default=0.0)
        if dmax > max_step:
            delta *= max_step / dmax
        x = x + delta
        iters += 1


class Carry:
    """Holder of the factorization one accepted step hands to the next.

    :meth:`take` empties it, so that :func:`newton` holds the only reference.
    """

    lu = None

    def take(self):
        lu, self.lu = self.lu, None
        return lu


@dataclass
class MarchReport:
    """A run's final state and time, the work of its accepted steps, its dt cuts."""

    state: object
    t: float = 0.0
    steps: int = 0
    newton_iterations: int = 0
    factorizations: int = 0
    dt_failures: int = 0
    wall_time: float = 0.0  # s from entering march to its return


def march(state, intervals, settings: SolverSettings, step, accept,
          sinks: OutputHooks | None = None, predict=None) -> MarchReport:
    """Advance ``state`` from t = 0 across consecutive intervals.

    ``intervals`` lists (t_end, ctx) pairs, ctx being the interval's well
    control or rate; an end before 0 or before the previous end raises
    DomainError before the first step (equal ends are empty intervals).
    Each interval starts at dt_init and ends exactly on t_end.

    ``step(state, dt, ctx, guess, carry)`` returns (new_state, report), the
    report being the step's :class:`NewtonResult`. Newton starts from
    ``guess``: once a step is accepted ``predict(prev, state, dt / dt_prev)``,
    prev being the accepted state before ``state`` and dt_prev the step
    between them, else None. ``carry`` (:class:`Carry`) holds the
    factorization the last accepted step ended with; the step takes it and
    puts back its last one. A failed step's is dropped and the step retried
    with dt * dt_cut; below dt_min a ConvergenceError carries the last good
    state.

    dt grows by dt_grow after a step that converged with at most
    _GROW_FACTORIZATIONS factorizations (not iterations, so that cheap updates
    with a kept factorization do not hold dt back), except in the first steps
    after a cut. The run counts the iterations and factorizations of accepted
    steps. ``accept(t, dt, state, report, ctx)`` books an accepted step and
    returns the solver's entries of its diagnostics record, which follow dt,
    newton_iterations, residual and factorizations. Snapshots are taken at
    t = 0, at the cadence and at the end, each time once; a cadence of 0
    takes none in between, and a negative or NaN one raises DomainError.
    A step that crosses several cadence marks takes one snapshot.
    """
    start = time.perf_counter()
    settings.validate()
    sinks = sinks or OutputHooks()
    cadence = sinks.snapshot_cadence
    if not cadence >= 0.0:  # NaN fails too
        raise DomainError("snapshot_cadence must be >= 0")
    intervals = list(intervals)
    ends = [0.0] + [t_end for t_end, _ in intervals]
    if not all(b >= a for a, b in zip(ends, ends[1:])):  # NaN fails too
        raise DomainError(f"interval ends must not decrease from t = 0: {ends[1:]}")
    run = MarchReport(state)
    prev = dt_prev = None  # the accepted state before run.state, the dt between
    carry = Carry()
    if sinks.on_snapshot:
        sinks.on_snapshot(run.t, state)
    snapped = run.t  # time of the last snapshot
    next_snap = cadence  # the first cadence mark after snapped
    cooldown = 0
    for t_end, ctx in intervals:
        dt_cur = settings.dt_init
        while t_end - run.t > _EPS * max(1.0, t_end):
            dt = min(dt_cur, t_end - run.t)
            guess = (None if predict is None or prev is None
                     else predict(prev, run.state, dt / dt_prev))
            new_state, rep = step(run.state, dt, ctx, guess, carry)
            if not rep.converged:
                carry.lu = None
                run.dt_failures += 1
                cooldown = _GROW_COOLDOWN  # hold dt, avoid cut/grow cycles
                dt_cur = dt * settings.dt_cut
                if dt_cur < settings.dt_min:
                    raise ConvergenceError(
                        f"Newton failed at t = {run.t:.6g} s with dt below dt_min",
                        last_good_state=run.state, last_good_time=run.t)
                continue
            prev, dt_prev = run.state, dt
            run.state = new_state
            run.t += dt
            run.steps += 1
            run.newton_iterations += rep.iterations
            run.factorizations += rep.factorizations
            extra = accept(run.t, dt, new_state, rep, ctx)
            if cooldown > 0:
                cooldown -= 1
            elif rep.factorizations <= _GROW_FACTORIZATIONS:
                dt_cur = min(dt_cur * settings.dt_grow, settings.dt_max)
            if sinks.on_diagnostics:
                sinks.on_diagnostics(run.t, {
                    "dt": dt, "newton_iterations": rep.iterations,
                    "residual": rep.resid_norm, "factorizations": rep.factorizations,
                    **extra})
            if cadence and sinks.on_snapshot and run.t >= next_snap - _EPS:
                sinks.on_snapshot(run.t, run.state)
                snapped = run.t
                gone = run.t + _EPS - next_snap  # by fmod: gone / cadence may overflow
                next_snap += cadence + (gone - math.fmod(gone, cadence))
        run.t = t_end
    if sinks.on_snapshot and run.t - snapped > _EPS * max(1.0, run.t):
        sinks.on_snapshot(run.t, run.state)
    run.wall_time = time.perf_counter() - start
    return run
