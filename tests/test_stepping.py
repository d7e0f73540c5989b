import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from micpsim.errors import ConvergenceError
from micpsim.grid import DomainSpec, ReservoirSpec, build_domain
from micpsim.params import RockLaw
from micpsim.stepping import AssemblyData, OutputHooks, SolverSettings, march, newton


def _quadratic(target):
    """x_i^2 = target_i, one unknown per cell, diagonal Jacobian."""

    def evaluate(x, want_jacobian):
        resid = x * x - target
        if not want_jacobian(resid):
            return resid, None, {"x": x}
        return resid, sparse.diags(2.0 * x, format="csc"), {"x": x}

    return evaluate


class TestNewton:
    def test_converges_without_jacobian_at_the_root(self):
        factored = []

        def factor(J):
            factored.append(J)
            return splu(J)

        evaluate = _quadratic(np.array([4.0, 9.0]))
        res = newton(evaluate, np.array([1.0, 1.0]), np.ones(2),
                     SolverSettings(newton_rel_tol=1e-12), factor)
        assert res.converged
        assert res.x == pytest.approx([2.0, 3.0], rel=1e-12)
        assert len(factored) == res.iterations

    def test_nan_norm_fails(self):
        res = newton(_quadratic(np.array([4.0])), np.array([np.nan]), np.ones(1),
                     SolverSettings(), splu)
        assert not res.converged and res.iterations == 0

    def test_iteration_cap_fails(self):
        res = newton(_quadratic(np.array([4.0])), np.array([100.0]), np.ones(1),
                     SolverSettings(newton_max_iter=2), splu)
        assert not res.converged and res.iterations == 2

    def test_damping_bounds_the_damped_components(self):
        # the first Newton update of x^2 = 4 from x = 1 is +1.5
        evaluate = _quadratic(np.array([4.0, 4.0]))
        res = newton(evaluate, np.array([1.0, 1.0]), np.ones(2),
                     SolverSettings(newton_max_iter=1), splu,
                     damped=(slice(1, None, 2),), max_step=0.5)
        assert res.x == pytest.approx([1.5, 1.5])


class _LU:
    """A factorization that can be watched for being freed."""

    def __init__(self, J):
        self.lu = splu(J)

    def solve(self, b):
        return self.lu.solve(b)


class TestCarriedFactorization:
    TARGET = np.array([4.0, 9.0])
    ROOT_JACOBIAN = sparse.diags([4.0, 6.0], format="csc")  # 2 x at x = (2, 3)
    START = np.array([2.2, 3.3])
    SETTINGS = SolverSettings(newton_rel_tol=1e-12)

    def test_root_factorization_needs_no_factor_call(self):
        factored = []
        carried = splu(self.ROOT_JACOBIAN)
        res = newton(_quadratic(self.TARGET), self.START, np.ones(2), self.SETTINGS,
                     lambda J: factored.append(J) or splu(J), lu=carried)
        assert res.converged
        assert res.x == pytest.approx([2.0, 3.0], rel=1e-12)
        assert res.iterations > 0
        assert factored == [] and res.factorizations == 0
        assert res.lu is carried

    def test_poor_factorization_dropped_after_one_update(self):
        built = []  # Jacobians built, with whether the carried LU was alive
        evaluate = _quadratic(self.TARGET)

        def watched(x, want_jacobian):
            resid, J, aux = evaluate(x, want_jacobian)
            if J is not None:
                built.append(alive() is not None)
            return resid, J, aux

        def carried():  # updates 10x too short; newton holds the only reference
            nonlocal alive
            lu = _LU(10.0 * self.ROOT_JACOBIAN)
            alive = weakref.ref(lu)
            return lu

        alive = None
        gc.disable()
        try:
            res = newton(watched, self.START, np.ones(2), self.SETTINGS, _LU,
                         lu=carried())
        finally:
            gc.enable()
        assert res.converged
        assert res.x == pytest.approx([2.0, 3.0], rel=1e-12)
        assert built == [False] * (res.iterations - 1)  # freed before the first
        assert res.factorizations == res.iterations - 1 > 0
        assert res.lu is not None and alive() is None


def _line(sides):
    """Three cells in a row: faces (0, 1) and (1, 2), boundary faces on ``sides``."""
    domain = DomainSpec(nx=3, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0, well_x=0.5,
                        outflow_sides=sides)
    return AssemblyData(build_domain(domain, None, res, RockLaw()))


class TestBlockJacobian:
    CELL = np.array([[[1.0, 0.0], [0.0, 2.0]]] * 3)
    FACE_A = np.array([[[10.0, 0.0], [0.0, 0.0]], [[20.0, 0.0], [0.0, 0.5]]])
    FACE_B = np.array([[[0.0, 3.0], [0.0, 0.0]], [[0.0, 0.0], [4.0, 0.0]]])

    @staticmethod
    def block(J, row_cell, col_cell):
        return J[2 * row_cell:2 * row_cell + 2, 2 * col_cell:2 * col_cell + 2]

    def test_faces_scatter_out_of_a_into_b(self):
        data = _line(("x+",))
        assert data.fa.tolist() == [0, 1] and data.fb.tolist() == [1, 2]
        assert data.bc.tolist() == [2]
        bface = np.array([[[0.0, 0.0], [0.0, 7.0]]])
        J = data.jacobian(self.CELL, self.FACE_A, self.FACE_B, bface).toarray()
        # flux leaves a: + face_a at (a, a), + face_b at (a, b)
        assert self.block(J, 0, 0).tolist() == [[11.0, 0.0], [0.0, 2.0]]
        assert self.block(J, 0, 1).tolist() == [[0.0, 3.0], [0.0, 0.0]]
        # and enters b: - face_a at (b, a), - face_b at (b, b)
        assert self.block(J, 1, 0).tolist() == [[-10.0, 0.0], [0.0, 0.0]]
        assert self.block(J, 1, 1).tolist() == [[21.0, -3.0], [0.0, 2.5]]
        assert self.block(J, 1, 2).tolist() == [[0.0, 0.0], [4.0, 0.0]]
        assert self.block(J, 2, 1).tolist() == [[-20.0, 0.0], [0.0, -0.5]]
        assert self.block(J, 2, 2).tolist() == [[1.0, 0.0], [-4.0, 9.0]]
        assert not J[0:2, 4:6].any() and not J[4:6, 0:2].any()

    def test_exact_zeros_not_stored(self):
        data = _line(("x+",))
        cell = self.CELL.copy()
        cell[0, 0, 0] = -10.0  # cancels face_a of face 0 exactly
        J = data.jacobian(cell, self.FACE_A, self.FACE_B, np.zeros((1, 2, 2)))
        assert J.nnz == np.count_nonzero(J.toarray()) == 12
        assert J[0, 0] == 0.0

    def test_pin_replaces_row_zero(self):
        data = _line(())
        assert data.closed
        J = data.jacobian(self.CELL, self.FACE_A, self.FACE_B, np.zeros((0, 2, 2)))
        pinned = data.jacobian(self.CELL, self.FACE_A, self.FACE_B,
                               np.zeros((0, 2, 2)), pin_scale=7.0)
        assert pinned.toarray()[0].tolist() == [7.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert np.array_equal(pinned.toarray()[1:], J.toarray()[1:])
        assert pinned.nnz == J.nnz - 1

    def test_face_sums_keep_trailing_axes(self):
        data = _line(("x+",))
        sums = data.face_sums(np.array([1.0, 2.0]), np.array([4.0, 8.0]), np.array([16.0]))
        assert sums.tolist() == [1.0, -2.0, 8.0]
        blocks = data.face_sums(self.FACE_A, self.FACE_B, np.zeros((1, 2, 2)))
        assert blocks.shape == (3, 2, 2)
        assert blocks[1].tolist() == [[20.0, -3.0], [0.0, 0.5]]


def _scripted_step(fails_at=()):
    """Step that adds dt to the state; fails at the listed call numbers."""
    calls = []

    def step(state, dt, ctx):
        calls.append(dt)
        ok = len(calls) not in fails_at
        rep = SimpleNamespace(converged=ok, iterations=1, resid_norm=0.0)
        return (state + dt if ok else state), rep

    return step, calls


class TestMarch:
    SETTINGS = SolverSettings(dt_init=1.0, dt_min=0.1, dt_max=8.0)

    def test_lands_on_every_interval_end(self):
        step, calls = _scripted_step()
        ends = []
        run = march(0.0, [(5.0, "a"), (12.5, "b")], self.SETTINGS, step,
                    lambda t, dt, s, rep, ctx: ends.append((t, ctx)) or {})
        assert run.t == 12.5 and run.state == pytest.approx(12.5)
        assert calls == [1.0, 2.0, 2.0, 1.0, 2.0, 4.0, 0.5]
        assert (5.0, "a") in ends and ends[-1] == (12.5, "b")
        assert run.steps == len(calls) and run.dt_failures == 0

    def test_cut_then_hold_dt_for_three_steps(self):
        step, calls = _scripted_step(fails_at=(2,))
        run = march(0.0, [(100.0, None)], self.SETTINGS, step,
                    lambda *args: {})
        assert calls[:7] == [1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0]
        assert run.dt_failures == 1

    def test_failure_below_dt_min_carries_last_good_state(self):
        step, _ = _scripted_step(fails_at=range(2, 100))
        with pytest.raises(ConvergenceError) as exc_info:
            march(0.0, [(100.0, None)], self.SETTINGS, step, lambda *args: {})
        assert exc_info.value.last_good_state == 1.0
        assert exc_info.value.last_good_time == 1.0

    def test_snapshots_and_diagnostics(self):
        step, calls = _scripted_step()
        snaps, diags = [], []
        hooks = OutputHooks(snapshot_cadence=4.0,
                            on_snapshot=lambda t, s: snaps.append(t),
                            on_diagnostics=lambda t, d: diags.append(d))
        march(0.0, [(10.0, None)], self.SETTINGS, step,
              lambda t, dt, s, rep, ctx: {"state": s}, hooks)
        assert snaps == [0.0, 7.0, 10.0]
        assert [d["dt"] for d in diags] == calls
        assert diags[-1]["state"] == pytest.approx(10.0)
