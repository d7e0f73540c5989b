"""Implicit time stepping shared by the reactive and the two-phase solvers.

The solvers supply only their physics, as callables: residual and
Jacobian evaluation, the finish of a converged step, and the booking of
an accepted one. This module owns the rest: the grid data both
assemblies read (:class:`AssemblyData`), the well source and the
closed-domain pressure pin (:meth:`AssemblyData.well_source`,
:meth:`AssemblyData.pin_pressure`), the sums of face fluxes into cells
and the scatter of derivative blocks into the Newton matrix
(:meth:`AssemblyData.face_sums`, :meth:`AssemblyData.jacobian`) in the
system's factor order, the LU of such a matrix (:class:`OrderedLU`), the
Newton loop (:func:`newton`) and adaptive stepping with snapshots and
diagnostics (:func:`march`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spilu

from .errors import ConvergenceError, DomainError

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
        ) if not holds]
        if failed:
            raise DomainError("; ".join(failed))


@dataclass
class OutputHooks:
    """Optional sinks invoked during a run."""

    snapshot_cadence: float | None = None  # s of simulated time
    on_snapshot: object = None  # fn(t, state)
    on_diagnostics: object = None  # fn(t, dict), once per accepted step


class AssemblyData:
    """Grid arrays read by every residual assembly.

    ``order`` lists the unknowns in the order their system factors them:
    row and column k of a Newton matrix is unknown order[k]. None, as
    here, keeps the natural order; each solver's system computes its own
    once, with :meth:`fill_order` and its own SuperLU ordering.
    """

    order = None

    def __init__(self, grid):
        self.n = grid.n_active
        self.V = grid.volumes
        self.z = grid.centers[:, 2]
        self.g = grid.gravity_accel
        self.fa = grid.iface_cells[:, 0]
        self.fb = grid.iface_cells[:, 1]
        self.f_dz = self.z[self.fb] - self.z[self.fa]
        self.bc = grid.bface_cell
        self.b_z = grid.bface_z
        self.closed = self.bc.size == 0  # no pressure level: pin cell 0
        self.well = grid.well_cells
        self.well_frac = grid.volumes[self.well] / grid.well_volume
        # cell-by-face 0/1 matrices of the face sums
        self._incidence = tuple(
            sparse.csr_matrix((np.ones(cells.size), (cells, np.arange(cells.size))),
                              shape=(self.n, cells.size))
            for cells in (self.fa, self.fb, self.bc))
        self._structure = {}  # nvar -> _block_structure in self.order, pin entries

    def well_source(self, rate):
        """Per-cell injection, rate split over the well cells by volume."""
        q = np.zeros(self.n)
        if rate != 0.0:
            q[self.well] = rate * self.well_frac
        return q

    def pin_pressure(self, resid, p0, p_bdry, phi, dt):
        """On a closed domain, replace equation 0 of cell 0 by the pressure pin.

        The pin residual is (p0 - p_bdry) * pin_scale with pin_scale =
        V_0 phi_0 / (dt 1e5 Pa), the storage scale of cell 0 per bar.
        Returns pin_scale for :meth:`jacobian`, or None on an open domain.
        """
        if not self.closed:
            return None
        pin_scale = self.V[0] * phi[0] / (dt * 1e5)
        resid[0] = (p0 - p_bdry) * pin_scale
        return pin_scale

    def face_sums(self, on_a, on_b, on_bc):
        """Per-cell sums of face terms, a face's flux leaving a and entering b.

        Interior face f adds on_a[f] to its cell a and subtracts on_b[f]
        from its cell b; boundary face k adds on_bc[k] to its cell. Arrays
        of shape (faces, ...) give an array of shape (cells, ...). Each
        sum adds its faces in face order, as ``np.bincount`` would.
        """
        inc_a, inc_b, inc_bc = self._incidence
        tail = on_a.shape[1:]
        k = math.prod(tail)

        def sums(inc, on):
            return inc @ on.reshape(on.shape[0], k)

        total = sums(inc_a, on_a) - sums(inc_b, on_b) + sums(inc_bc, on_bc)
        return total.reshape((self.n, *tail))

    def jacobian(self, cell, face_a, face_b, bface, pin_scale=None):
        """Newton matrix in the factor order, from derivative blocks.

        Unknown v of cell i is nvar * i + v in natural order, and row and
        column k of the matrix is unknown ``self.order[k]``.
        ``cell`` (cells, nvar, nvar) holds the derivatives of each cell's
        residual apart from its face fluxes. Interior face f carries a flux
        vector out of its cell a into its cell b; ``face_a[f]`` and
        ``face_b[f]`` are its derivatives by the unknowns of a and of b.
        ``bface[k]`` is the derivative of boundary face k's outflow by the
        unknowns of its cell. Entries that are exactly zero are not stored,
        so LU sees only the numerically nonzero pattern. ``pin_scale``
        replaces the row of unknown 0 by the pressure pin of a closed
        domain (:meth:`pin_pressure`).
        """
        nvar = cell.shape[1]
        if nvar not in self._structure:
            gather, indices, indptr = self._block_structure(nvar, self.order)
            pin = 0 if self.order is None else int(np.flatnonzero(self.order == 0)[0])
            pin_row = np.flatnonzero(indices == pin)
            pin_diag = pin_row[np.searchsorted(pin_row, indptr[pin])]
            self._structure[nvar] = gather, indices, indptr, pin_row, pin_diag
        gather, indices, indptr, pin_row, pin_diag = self._structure[nvar]
        blocks = np.concatenate((cell + self.face_sums(face_a, face_b, bface),
                                 face_b, -face_a))
        data = blocks.ravel()[gather]
        if pin_scale is not None:
            data[pin_row] = 0.0
            data[pin_diag] = pin_scale
        size = nvar * self.n
        J = sparse.csc_matrix((data, indices.copy(), indptr.copy()), shape=(size, size))
        J.eliminate_zeros()
        return J

    def in_natural_order(self, J):
        """A matrix of :meth:`jacobian` with unknown k in row and column k."""
        if self.order is None:
            return J
        rank = np.argsort(self.order)
        return J[rank][:, rank]

    def _block_structure(self, nvar, order=None):
        """CSC structure of every entry of every block that :meth:`jacobian` fills.

        Blocks are cell i at (i, i), then interior face f at (a, b) and at
        (b, a); unknown ``order[k]`` (natural order if None) goes to row
        and column k. Returns (gather, indices, indptr): the CSC entry k
        is entry gather[k] of the flattened blocks, in row indices[k]. No
        two blocks share a position.
        """
        cells = np.arange(self.n)
        brow = np.concatenate((cells, self.fa, self.fb))
        bcol = np.concatenate((cells, self.fb, self.fa))
        var = np.arange(nvar)
        row = (nvar * brow[:, None, None] + var[:, None]).repeat(nvar, axis=2).ravel()
        col = (nvar * bcol[:, None, None] + var).repeat(nvar, axis=1).ravel()
        if order is not None:
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            row, col = rank[row], rank[col]
        gather = np.lexsort((row, col))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=nvar * self.n))))
        itype = np.int32 if row.size < 2**31 else np.int64
        return gather.astype(itype), row[gather].astype(itype), indptr.astype(itype)

    def fill_order(self, nvar, permc_spec):
        """SuperLU's ``permc_spec`` order of the unknowns for the block pattern.

        The pattern holds every entry of every nvar x nvar derivative block,
        so every matrix the system can build. SuperLU orders it inside an
        incomplete LU whose factors may not outgrow the pattern
        (fill_factor=1), so the pattern is never factored in full: on the
        published ex3 grid a full LU of the 6x6-block pattern fills 26.8M
        entries. Each column's diagonal dominates it, so no pivot is zero.
        """
        _, indices, indptr = self._block_structure(nvar)
        size = nvar * self.n
        col = np.repeat(np.arange(size), np.diff(indptr))
        data = np.where(indices == col, float(size), 1.0)
        pattern = sparse.csc_matrix((data, indices, indptr), shape=(size, size))
        ilu = spilu(pattern, permc_spec=permc_spec, drop_tol=1.0, fill_factor=1.0)
        return np.argsort(ilu.perm_c)


class OrderedLU:
    """SuperLU factors of a Newton matrix built in its system's factor order.

    ``J`` comes from :meth:`AssemblyData.jacobian` already in the order
    ``order`` (:meth:`AssemblyData.fill_order`), so SuperLU factors it in
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
    lu: object  # last factorization Newton updated with
    factorizations: int  # calls of ``factor``


def newton(evaluate, x, escale, settings: SolverSettings, factor,
           damped=(), max_step=np.inf, lu=None) -> NewtonResult:
    """Solve evaluate(x) = 0 from the initial iterate x.

    ``evaluate(x, want_jacobian)`` returns (residual, J or None, aux) and
    builds J only if ``want_jacobian(residual)``, that is, only for an
    iterate that ``factor(J).solve`` will be applied to; the scaled norm
    ``want_jacobian`` takes of the residual is the one Newton uses.
    Convergence is max |residual / escale| < newton_rel_tol; a NaN norm,
    reaching newton_max_iter or an exactly singular Jacobian (SuperLU's
    zero pivot) fails. An update whose largest entry in the slices
    ``damped`` exceeds ``max_step`` is scaled down to ``max_step``.

    ``lu`` is a factorization carried over from an earlier solve, as
    implicit integrators reuse their iteration matrix (Hairer & Wanner,
    Solving ODEs II, IV.8; Brown, Hindmarsh & Petzold 1994). Newton
    updates with it and builds no Jacobian as long as each update cuts
    the residual norm to at most _CONTRACTION times its previous value.
    At the first iterate where an update falls short it drops the
    factorization, before the Jacobian is assembled, factors a fresh
    Jacobian there and keeps that one under the same rule. Without
    ``lu`` nothing is reused: a fresh Jacobian is factored at every
    iterate, so ``factorizations == iterations``. Updates made with a
    kept factorization count as iterations, toward newton_max_iter too.
    The result carries the last factorization used and the number of
    ``factor`` calls.
    """
    tol = settings.newton_rel_tol
    iters = factorizations = 0
    reuse = lu is not None
    rnorm = np.inf
    seen = None  # (residual, norm) of the evaluation under way, from will_factor

    def norm(resid):
        return float(np.max(np.abs(resid / escale)))

    def will_factor(resid):
        nonlocal lu, seen
        new = norm(resid)
        seen = resid, new
        if not (np.isfinite(new) and new >= tol and iters < settings.newton_max_iter):
            return False
        if reuse and new <= _CONTRACTION * rnorm:
            return False
        lu = None  # free the old factorization before the Jacobian is built
        return True

    def evaluated(x):
        """evaluate(x, will_factor) and the scaled norm, taken once."""
        nonlocal seen
        seen = None
        resid, J, aux = evaluate(x, will_factor)
        if seen is None or seen[0] is not resid:  # want_jacobian not asked of it
            seen = resid, norm(resid)
        return resid, J, aux, seen[1]

    resid, J, aux, rnorm = evaluated(x)
    while not rnorm < tol:  # a NaN norm fails the step, it never converges
        if iters >= settings.newton_max_iter or not np.isfinite(rnorm):
            return NewtonResult(False, x, iters, rnorm, aux, lu, factorizations)
        if J is not None:
            factorizations += 1
            try:
                lu = factor(J)
            except RuntimeError as err:  # SuperLU's zero pivot fails the step
                if str(err) != _SINGULAR:
                    raise
                return NewtonResult(False, x, iters, rnorm, aux, None, factorizations)
            J = None  # not kept through the next assembly
        delta = lu.solve(-resid)
        dmax = max((np.max(np.abs(delta[s]), initial=0.0) for s in damped),
                   default=0.0)
        if dmax > max_step:
            delta *= max_step / dmax
        x = x + delta
        iters += 1
        resid, J, aux, rnorm = evaluated(x)
    return NewtonResult(True, x, iters, rnorm, aux, lu, factorizations)


def jacobian_wanted(want_jacobian, resid) -> bool:
    """Resolve an evaluator's ``want_jacobian``: a bool or fn(residual)."""
    return want_jacobian(resid) if callable(want_jacobian) else bool(want_jacobian)


@dataclass
class MarchReport:
    state: object
    t: float = 0.0
    steps: int = 0
    newton_iterations: int = 0
    factorizations: int = 0
    dt_failures: int = 0


def march(state, intervals, settings: SolverSettings, step, accept,
          sinks: OutputHooks | None = None) -> MarchReport:
    """Advance ``state`` from t = 0 across consecutive intervals.

    ``intervals`` lists (t_end, ctx) pairs, ctx being the interval's well
    control or rate. ``step(state, dt, ctx)`` returns (new_state, report)
    with ``converged``, ``iterations``, ``factorizations`` and
    ``resid_norm``. Each interval starts at dt_init and ends exactly on
    t_end. A failed step is retried with dt * dt_cut, and below dt_min a
    ConvergenceError carries the last good state. dt grows by dt_grow
    after a step that converged with at most _GROW_FACTORIZATIONS
    factorizations, except in the first steps after a cut: the count of
    factorizations, not of iterations, so that cheap updates with a kept
    factorization do not hold dt back. A solve that factors at every
    iterate has as many factorizations as iterations. The run counts the
    iterations and factorizations of accepted steps. ``accept(t, dt,
    state, report, ctx)`` books an accepted step and returns the solver's
    entries of its diagnostics record, which follow dt, newton_iterations,
    residual and factorizations. Snapshots are taken at t = 0, at the
    cadence and at the end, each time once; a cadence of None or 0 takes
    none in between, and a negative one raises DomainError.
    """
    settings.validate()
    sinks = sinks or OutputHooks()
    if (sinks.snapshot_cadence or 0.0) < 0.0:
        raise DomainError("snapshot_cadence must be >= 0")
    run = MarchReport(state)
    if sinks.on_snapshot:
        sinks.on_snapshot(run.t, state)
    snapped = run.t  # time of the last snapshot
    next_snap = sinks.snapshot_cadence or None
    cooldown = 0
    for t_end, ctx in intervals:
        dt_cur = min(settings.dt_init, settings.dt_max)
        while t_end - run.t > _EPS * max(1.0, t_end):
            dt = min(dt_cur, t_end - run.t)
            new_state, rep = step(run.state, dt, ctx)
            if not rep.converged:
                run.dt_failures += 1
                cooldown = _GROW_COOLDOWN  # hold dt, avoid cut/grow cycles
                dt_cur = dt * settings.dt_cut
                if dt_cur < settings.dt_min:
                    raise ConvergenceError(
                        f"Newton failed at t = {run.t:.6g} s with dt below dt_min",
                        last_good_state=run.state, last_good_time=run.t)
                continue
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
            if next_snap is not None and sinks.on_snapshot and run.t >= next_snap - _EPS:
                sinks.on_snapshot(run.t, run.state)
                snapped = run.t
                while next_snap <= run.t + _EPS:
                    next_snap += sinks.snapshot_cadence
        run.t = t_end
    if sinks.on_snapshot and run.t - snapped > _EPS * max(1.0, run.t):
        sinks.on_snapshot(run.t, run.state)
    return run
