from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from micpsim.errors import ConvergenceError
from micpsim.stepping import OutputHooks, SolverSettings, TripletMatrix, march, newton


def _quadratic(target):
    """x_i^2 = target_i, one unknown per cell, diagonal Jacobian."""

    def evaluate(x, want_jacobian):
        resid = x * x - target
        if not want_jacobian(resid):
            return resid, None, {"x": x}
        J = TripletMatrix(1)
        J.add(np.arange(x.size), 0, np.arange(x.size), 0, 2.0 * x)
        return resid, J.tocsc(x.size), {"x": x}

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


class TestTripletMatrix:
    @staticmethod
    def _matrix(pin_scale=None):
        m = TripletMatrix(2)
        m.add([0, 0, 1], 0, [0, 1, 1], 1, [1.0, 2.0, 3.0])
        m.add([0], 1, [0], 1, [4.0])
        m.add([0], 1, [0], 1, [5.0])
        return m.tocsc(2, pin_scale).toarray()

    def test_duplicates_summed_and_pin_replaces_row_zero(self):
        J = self._matrix()
        assert J[0, 1] == 1.0 and J[0, 3] == 2.0 and J[2, 3] == 3.0
        assert J[1, 1] == 9.0
        pinned = self._matrix(pin_scale=7.0)
        assert list(pinned[0]) == [7.0, 0.0, 0.0, 0.0]
        assert np.array_equal(pinned[1:], J[1:])


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
        assert snaps == [0.0, 7.0, 10.0, 10.0]
        assert [d["dt"] for d in diags] == calls
        assert diags[-1]["state"] == pytest.approx(10.0)
