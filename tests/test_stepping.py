import gc
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from micpsim import co2, micp
from micpsim.errors import ConvergenceError, DomainError
from micpsim.grid import DomainSpec, ReservoirSpec, build_domain
from micpsim.params import KineticParams, RockLaw, TwoPhaseParams
from micpsim.schedule import WellControl
from micpsim.stepping import (
    _CONTRACTION,
    AssemblyData,
    OutputHooks,
    SolverSettings,
    march,
    newton,
)


def _quadratic(target):
    """x_i^2 = target_i, one unknown per cell, diagonal Jacobian: (evaluate, jacobian)."""

    def evaluate(x):
        return x * x - target, {"x": x}

    def jacobian(x, aux):
        return sparse.diags(2.0 * x, format="csc")

    return evaluate, jacobian


class _CountedScale:
    """Error scales that count the residual norms taken with them."""

    __array_ufunc__ = None  # so that resid / scale calls __rtruediv__

    def __init__(self, values):
        self.values = values
        self.norms = 0

    def __rtruediv__(self, resid):
        self.norms += 1
        return resid / self.values


class TestNewton:
    def test_converges_without_jacobian_at_the_root(self):
        factored = []

        def factor(J):
            factored.append(J)
            return splu(J)

        res, _ = newton(*_quadratic(np.array([4.0, 9.0])), np.array([1.0, 1.0]),
                        np.ones(2), SolverSettings(newton_rel_tol=1e-12), factor)
        assert res.converged
        assert res.x == pytest.approx([2.0, 3.0], rel=1e-12)
        assert len(factored) == res.iterations

    def test_aux_freed_before_factoring(self):
        class Aux(dict):  # a dict that a weak reference can track
            pass

        evaluate, jacobian = _quadratic(np.array([4.0, 9.0]))
        auxes = []

        def tracked(x):
            resid, aux = evaluate(x)
            aux = Aux(aux)
            auxes.append(weakref.ref(aux))
            return resid, aux

        def factor(J):
            assert auxes[-1]() is None  # the factored iterate's aux is gone
            return splu(J)

        gc.disable()
        try:
            res, _ = newton(tracked, jacobian, np.array([1.0, 1.0]), np.ones(2),
                            SolverSettings(newton_rel_tol=1e-12), factor)
        finally:
            gc.enable()
        assert res.converged and res.factorizations == res.iterations > 1
        assert type(res.aux) is Aux and auxes[-1]() is res.aux  # the root's own

    def test_one_norm_per_evaluation(self):
        evaluated = []
        evaluate, jacobian = _quadratic(np.array([4.0, 9.0]))
        escale = _CountedScale(np.ones(2))
        res, _ = newton(lambda x: evaluated.append(x) or evaluate(x), jacobian,
                        np.array([1.0, 1.0]), escale,
                        SolverSettings(newton_rel_tol=1e-12), splu,
                        lu=splu(sparse.diags([4.0, 6.0], format="csc")))
        assert res.converged and res.iterations > 1
        assert len(evaluated) == res.iterations + 1  # each iterate once
        assert escale.norms == len(evaluated)

    def test_nan_norm_fails(self):
        res, _ = newton(*_quadratic(np.array([4.0])), np.array([np.nan]), np.ones(1),
                        SolverSettings(), splu)
        assert not res.converged and res.iterations == 0

    def test_iteration_cap_fails(self):
        res, _ = newton(*_quadratic(np.array([4.0])), np.array([100.0]), np.ones(1),
                        SolverSettings(newton_max_iter=2), splu)
        assert not res.converged and res.iterations == 2

    def test_damping_bounds_the_damped_components(self):
        # the first Newton update of x^2 = 4 from x = 1 is +1.5
        res, _ = newton(*_quadratic(np.array([4.0, 4.0])), np.array([1.0, 1.0]), np.ones(2),
                        SolverSettings(newton_max_iter=1), splu,
                        damped=(slice(1, None, 2),), max_step=0.5)
        assert res.x == pytest.approx([1.5, 1.5])


def _singular():
    """x_0 + x_1 = 1 and x_0 + x_1 = 2, a singular 2 x 2 toy system: (evaluate, jacobian)."""

    def evaluate(x):
        return np.array([x[0] + x[1] - 1.0, x[0] + x[1] - 2.0]), {}

    def jacobian(x, aux):
        return sparse.csc_matrix(np.ones((2, 2)))

    return evaluate, jacobian


class TestSingularJacobian:
    def test_zero_pivot_fails_the_solve(self):
        evaluate, jacobian = _singular()
        res, lu = newton(lambda x: (evaluate(x)[0], {"x": x}), jacobian, np.zeros(2),
                         np.ones(2), SolverSettings(), splu)
        assert not res.converged
        assert res.iterations == 0 and res.factorizations == 1
        assert lu is None and res.resid_norm == 2.0
        assert res.aux == {}  # dropped before the factorization

    def test_other_factor_errors_propagate(self):
        def broken(J):
            raise RuntimeError("out of memory")

        with pytest.raises(RuntimeError, match="out of memory"):
            newton(*_singular(), np.zeros(2), np.ones(2), SolverSettings(), broken)

    def test_cuts_dt_then_raises_below_dt_min(self):
        settings = SolverSettings(dt_init=1.0, dt_min=0.1, dt_max=8.0)
        tried = []

        def step(state, dt, ctx, guess, carry):
            tried.append(dt)
            res, _ = newton(*_singular(), state, np.ones(2), settings, splu)
            return state, res

        with pytest.raises(ConvergenceError) as exc_info:
            march(np.zeros(2), [(10.0, None)], settings, step, lambda *args: {})
        assert tried == [1.0, 0.5, 0.25, 0.125]
        assert exc_info.value.last_good_time == 0.0


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
    FAR = np.array([8.0, 12.0])
    SETTINGS = SolverSettings(newton_rel_tol=1e-12)

    def test_root_factorization_needs_no_factor_call(self):
        factored = []
        carried = splu(self.ROOT_JACOBIAN)
        res, lu = newton(*_quadratic(self.TARGET), self.START, np.ones(2), self.SETTINGS,
                         lambda J: factored.append(J) or splu(J), lu=carried)
        assert res.converged
        assert res.x == pytest.approx([2.0, 3.0], rel=1e-12)
        assert res.iterations > 0
        assert factored == [] and res.factorizations == 0
        assert lu is carried

    def test_poor_factorization_dropped_after_one_update(self):
        built = []  # Jacobians built, with whether the carried LU was alive
        evaluate, jacobian = _quadratic(self.TARGET)

        def watched(x, aux):
            built.append(alive() is not None)
            return jacobian(x, aux)

        def carried():  # updates 10x too short; newton holds the only reference
            nonlocal alive
            lu = _LU(10.0 * self.ROOT_JACOBIAN)
            alive = weakref.ref(lu)
            return lu

        alive = None
        gc.disable()
        try:
            res, lu = newton(evaluate, watched, self.START, np.ones(2), self.SETTINGS,
                             _LU, lu=carried())
        finally:
            gc.enable()
        assert res.converged
        assert res.x == pytest.approx([2.0, 3.0], rel=1e-12)
        assert built and not any(built)  # freed before the first
        assert res.factorizations == len(built) > 0
        assert lu is not None and alive() is None

    def test_fresh_factorization_kept_while_it_contracts(self):
        solves = []  # updates made with each factorization, the carried one first
        refs = []  # weak references to the factorizations, in the same order
        trace = []  # per iterate: scaled norm, Jacobian built, factorizations alive

        class Counted(_LU):
            def __init__(self, J):
                super().__init__(J)
                self.index = len(solves)
                solves.append(0)
                refs.append(weakref.ref(self))

            def solve(self, b):
                solves[self.index] += 1
                return super().solve(b)

        evaluate, jacobian = _quadratic(self.TARGET)

        def watched_evaluate(x):
            resid, aux = evaluate(x)
            trace.append((float(np.max(np.abs(resid))), False, None))
            return resid, aux

        def watched_jacobian(x, aux):
            trace[-1] = (trace[-1][0], True,
                         [i for i, ref in enumerate(refs) if ref() is not None])
            return jacobian(x, aux)

        gc.disable()
        try:
            res, _ = newton(watched_evaluate, watched_jacobian, self.FAR, np.ones(2),
                            self.SETTINGS, Counted, lu=Counted(10.0 * self.ROOT_JACOBIAN))
        finally:
            gc.enable()
        assert res.converged
        assert res.x == pytest.approx([2.0, 3.0], rel=1e-12)
        assert res.factorizations == len(solves) - 1 == sum(b for _, b, _ in trace)
        assert sum(solves) == res.iterations
        assert solves[0] == 1  # the carried one falls short at once
        assert max(solves[1:-1]) > 1  # a fresh one kept, then dropped
        assert not trace[0][1]
        for (before, _, _), (now, built, alive) in zip(trace, trace[1:-1]):
            assert built == (now > _CONTRACTION * before)
            if built:  # the factorization in use is freed before the build
                assert alive == []

    def test_solve_without_lu_factors_at_every_iterate(self):
        res, _ = newton(*_quadratic(self.TARGET), self.FAR, np.ones(2), self.SETTINGS,
                        splu)
        assert res.converged
        assert res.factorizations == res.iterations > 1


def _line(sides):
    """Three cells in a row: faces (0, 1) and (1, 2), then boundary faces on ``sides``."""
    domain = DomainSpec(nx=3, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0, well_x=0.5,
                        outflow_sides=sides)
    return AssemblyData(build_domain(domain, None, res, RockLaw()), KineticParams().rho_w)


class TestBlockJacobian:
    CELL = np.array([[[1.0, 0.0], [0.0, 2.0]]] * 3)
    FACE_A = np.array([[[10.0, 0.0], [0.0, 0.0]], [[20.0, 0.0], [0.0, 0.5]]])
    FACE_B = np.array([[[0.0, 3.0], [0.0, 0.0]], [[0.0, 0.0], [4.0, 0.0]]])

    @staticmethod
    def block(J, row_cell, col_cell):
        return J[2 * row_cell:2 * row_cell + 2, 2 * col_cell:2 * col_cell + 2]

    @classmethod
    def with_boundary(cls, on_a, on_b):
        """FACE_A and FACE_B followed by the x+ boundary face's blocks."""
        return (np.concatenate((cls.FACE_A, [on_a])), np.concatenate((cls.FACE_B, [on_b])))

    def test_faces_scatter_out_of_a_into_b(self):
        data = _line(("x+",))
        # the boundary face joins cell 2 to ghost 3
        assert data.fa.tolist() == [0, 1, 2] and data.fb.tolist() == [1, 2, 3]
        # the ghost has no unknowns: its side's block reaches no entry
        faces = self.with_boundary([[0.0, 0.0], [0.0, 7.0]], np.full((2, 2), 5.0))
        J = data.jacobian(self.CELL, *faces).toarray()
        assert J.shape == (6, 6)
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
        J = data.jacobian(cell, *self.with_boundary(np.zeros((2, 2)), np.zeros((2, 2))))
        assert J.nnz == np.count_nonzero(J.toarray()) == 12
        assert J[0, 0] == 0.0

    def test_pin_replaces_row_zero(self):
        data = _line(())
        assert data.closed and data.fa.size == 2
        J = data.jacobian(self.CELL, self.FACE_A, self.FACE_B)
        pinned = data.jacobian(self.CELL, self.FACE_A, self.FACE_B, pin_scale=7.0)
        assert pinned.toarray()[0].tolist() == [7.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert np.array_equal(pinned.toarray()[1:], J.toarray()[1:])
        assert pinned.nnz == J.nnz - 1

    def test_face_sums_keep_trailing_axes(self):
        data = _line(("x+",))
        # the boundary face adds 16 to cell 2; the ghost's 32 is dropped
        sums = data.face_sums(np.array([1.0, 2.0, 16.0]), np.array([4.0, 8.0, 32.0]))
        assert sums.tolist() == [1.0, -2.0, 8.0]
        blocks = data.face_sums(*self.with_boundary(np.zeros((2, 2)), np.ones((2, 2))))
        assert blocks.shape == (3, 2, 2)
        assert blocks[1].tolist() == [[20.0, -3.0], [0.0, 0.5]]
        assert blocks[2].tolist() == [[0.0, 0.0], [-4.0, 0.0]]


def _box(sides):
    """3 x 2 x 2 cells, 20 interior faces, boundary faces on ``sides``."""
    domain = DomainSpec(nx=3, ny=2, nz=2, dx=1.0, dy=1.0, dz=0.5)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0, well_x=0.5,
                        outflow_sides=sides)
    return AssemblyData(build_domain(domain, None, res, RockLaw()), KineticParams().rho_w)


def _cells_a(grid):
    """Cell a of each face, from the grid's own list: interior, then boundary faces."""
    return grid.face_cells[:, 0]


def _reference_face_sums(data, on_a, on_b):
    """face_sums by one bincount per side, from the grid's own face arrays."""
    grid = data.grid
    interior = grid.n_ifaces

    def sums(cells, weights):
        tail = weights.shape[1:]
        k = int(np.prod(tail))
        idx = (cells[:, None] * k + np.arange(k)).ravel()
        return np.bincount(idx, weights=weights.ravel(),
                           minlength=data.n * k).reshape((data.n, *tail))

    return (sums(_cells_a(grid), on_a)
            - sums(grid.face_cells[:interior, 1], on_b[:interior]))


def _reference_jacobian(data, cell, face_a, face_b, pin_scale=None):
    """jacobian by COO triplets of the nonzero block entries, summed into CSC."""
    grid = data.grid
    n, nvar, interior = data.n, cell.shape[1], grid.n_ifaces
    cells = np.arange(n)
    fa, fb = grid.face_cells[:interior].T
    blocks = np.concatenate((cell + _reference_face_sums(data, face_a, face_b),
                             face_b[:interior], -face_a[:interior]))
    brow = np.concatenate((cells, fa, fb))
    bcol = np.concatenate((cells, fb, fa))
    if pin_scale is not None:
        blocks[brow == 0, 0, :] = 0.0
        blocks[0, 0, 0] = pin_scale
    k, i, j = np.nonzero(blocks)
    size = nvar * n
    return sparse.coo_matrix((blocks[k, i, j], (nvar * brow[k] + i, nvar * bcol[k] + j)),
                             shape=(size, size)).tocsc()


def _bits(a):
    return a.dtype, a.view(np.uint8).tobytes()


class TestAssemblyOracle:
    """face_sums and jacobian against the bincount and COO assembly, bit for bit."""

    @staticmethod
    def blocks(data, nvar, seed):
        rng = np.random.default_rng(seed)

        def sparse_normal(count):  # about half the entries exactly zero
            shape = (count, nvar, nvar)
            return rng.standard_normal(shape) * (rng.random(shape) < 0.5)

        faces = _cells_a(data.grid).size
        cell = sparse_normal(data.n)
        face_a = sparse_normal(faces)
        face_b = sparse_normal(faces)
        face_b[2, 1, 0] = -0.0  # an off-diagonal entry not stored, as an exact zero
        face_b[3, 0, 1] = np.nan
        face_b[data.grid.n_ifaces:] = np.nan  # a ghost's side reaches no entry
        # cell 1's (0, 0) entry cancels its face sums exactly
        face_a[_cells_a(data.grid) == 1, 0, 0] += 1.0
        flux = _reference_face_sums(data, face_a, face_b)[1, 0, 0]
        assert flux != 0.0
        cell[1, 0, 0] = -flux
        return cell, face_a, face_b

    @pytest.mark.parametrize("sides", [("x+", "y-"), ()])
    @pytest.mark.parametrize("nvar", [2, 6])
    @pytest.mark.parametrize("pin_scale", [None, 7.0])
    def test_jacobian_matches_coo_reference(self, sides, nvar, pin_scale):
        data = _box(sides)
        assert data.grid.n_ifaces == 20 and data.closed == (sides == ())
        assert data.fa.size == _cells_a(data.grid).size == (30 if sides else 20)
        for seed in range(3):
            blocks = self.blocks(data, nvar, seed)
            J = data.jacobian(*blocks, pin_scale=pin_scale)
            ref = _reference_jacobian(data, *blocks, pin_scale=pin_scale)
            assert J.shape == ref.shape and J.format == "csc"
            for name in ("data", "indices", "indptr"):
                assert _bits(getattr(J, name)) == _bits(getattr(ref, name)), name
            assert np.isnan(J.data).sum() == 2  # the NaN's two blocks
            assert J[nvar, nvar] == 0.0
            assert J.nnz == np.count_nonzero(J.toarray())  # no zero stored

    @pytest.mark.parametrize("sides", [("x+", "y-"), ()])
    @pytest.mark.parametrize("pin_scale", [None, 7.0])
    def test_jacobian_in_factor_order_is_the_permuted_reference(self, sides, pin_scale):
        data = _box(sides)
        nvar = 6
        data.order = np.random.default_rng(4).permutation(nvar * data.n)
        assert data.order[0] != 0  # the pin row is not row 0
        blocks = self.blocks(data, nvar, 0)
        J = data.jacobian(*blocks, pin_scale=pin_scale)
        ref = _reference_jacobian(data, *blocks, pin_scale=pin_scale)
        permuted = ref[data.order][:, data.order]
        permuted.sort_indices()
        for name in ("data", "indices", "indptr"):
            assert _bits(getattr(J, name)) == _bits(getattr(permuted, name)), name
        natural = data.in_natural_order(J)
        assert np.array_equal(natural.toarray(), ref.toarray(), equal_nan=True)

    @pytest.mark.parametrize("sides", [("x+", "y-"), ()])
    def test_face_sums_match_bincount(self, sides):
        data = _box(sides)
        rng = np.random.default_rng(1)
        faces = _cells_a(data.grid).size
        for tail in ((), (2,), (6, 6)):
            on = [rng.standard_normal((faces, *tail)) for _ in range(2)]
            on[0][0] = np.nan
            on[1][data.grid.n_ifaces:] = np.nan  # the ghosts' rows are dropped
            got = data.face_sums(*on)
            assert _bits(got) == _bits(_reference_face_sums(data, *on))
            assert got.shape == (data.n, *tail)


def _micp_newton_matrix(grid, rng):
    """micp's system on grid and a Newton matrix of it, in natural order."""
    sys = micp.MicpSystem(grid, KineticParams(), RockLaw())
    state = micp.make_initial_state(grid, sys.params)
    for name, top in (("c_m", 0.01), ("c_o", 0.04), ("c_u", 60.0),
                      ("phi_b", 0.005), ("phi_c", 0.01)):
        getattr(state, name)[:] = rng.uniform(0.0, top, grid.n_active)
    control = WellControl(rate=1e-4, c_m=0.01, c_o=0.04, c_u=30.0)
    x = state.to_vector()
    J = micp._jacobian_system(sys, x, 600.0,
                              micp._eval_system(sys, x, state, 600.0, control)[1])
    return sys, sys.in_natural_order(J)


def _co2_newton_matrix(grid, rng):
    """co2's system on grid and a Newton matrix of it, in natural order."""
    sys = co2.TwoPhaseSystem(grid, grid.perm0, TwoPhaseParams())
    state = co2.make_initial_twophase_state(grid, sys.params)
    state.s[:] = rng.uniform(0.0, 1.0, grid.n_active)
    x = np.column_stack((state.p, state.s)).ravel()
    J = co2._jacobian_twophase(sys, x, 3600.0,
                               co2._eval_twophase(sys, x, state, 3600.0, 1e-4)[1])
    return sys, sys.in_natural_order(J)


class TestFillOrder:
    """Each solver's SuperLU ordering of its block pattern, through one helper."""

    @pytest.mark.parametrize("nvar, permc_spec, newton_matrix, bound", [
        (6, "COLAMD", _micp_newton_matrix, 1.0),
        (2, "MMD_AT_PLUS_A", _co2_newton_matrix, 0.75),
    ], ids=["micp", "co2"])
    def test_permutation_with_less_fill_than_the_natural_order(
            self, nvar, permc_spec, newton_matrix, bound):
        domain = DomainSpec(nx=40, ny=1, nz=40, dx=1.0, dy=1.0, dz=1.0)
        reservoir = ReservoirSpec(aquifer_height=40.0, caprock_height=0.0,
                                  well_x=0.5)
        grid = build_domain(domain, None, reservoir, RockLaw())
        order = AssemblyData(grid, KineticParams().rho_w).fill_order(nvar, permc_spec)
        assert np.array_equal(np.sort(order), np.arange(nvar * grid.n_active))
        sys, J = newton_matrix(grid, np.random.default_rng(0))
        assert np.array_equal(sys.order, order)

        def fill(perm):
            return splu(J[perm][:, perm], permc_spec="NATURAL").nnz

        assert fill(order) < bound * fill(np.arange(J.shape[0]))


def _scripted_step(fails_at=(), iterations=1, factorizations=1):
    """Step that adds dt to the state; fails at the listed call numbers.

    ``handed`` gets, per call, the guess and the carried factorization the
    call was given. Each call leaves its own "factorization", its call
    number, in the carry, as a solver's step does whether it converged or
    not.
    """
    calls, handed = [], []

    def step(state, dt, ctx, guess, carry):
        calls.append(dt)
        handed.append((guess, carry.take()))
        carry.lu = len(calls)
        ok = len(calls) not in fails_at
        rep = SimpleNamespace(converged=ok, iterations=iterations,
                              factorizations=factorizations, resid_norm=0.0)
        return (state + dt if ok else state), rep

    return step, calls, handed


class TestMarch:
    SETTINGS = SolverSettings(dt_init=1.0, dt_min=0.1, dt_max=8.0)

    def test_lands_on_every_interval_end(self):
        step, calls, _ = _scripted_step()
        ends = []
        run = march(0.0, [(5.0, "a"), (12.5, "b")], self.SETTINGS, step,
                    lambda t, dt, s, rep, ctx: ends.append((t, ctx)) or {})
        assert run.t == 12.5 and run.state == pytest.approx(12.5)
        assert calls == [1.0, 2.0, 2.0, 1.0, 2.0, 4.0, 0.5]
        assert (5.0, "a") in ends and ends[-1] == (12.5, "b")
        assert run.steps == len(calls) and run.dt_failures == 0

    def test_wall_time_spans_the_run(self):
        step, calls, _ = _scripted_step()
        start = time.perf_counter()
        run = march(0.0, [(5.0, None)], self.SETTINGS, step, lambda *args: {})
        span = time.perf_counter() - start
        assert run.steps == len(calls) >= 1
        assert 0.0 < run.wall_time <= span

    def test_cut_then_hold_dt_for_three_steps(self):
        step, calls, _ = _scripted_step(fails_at=(2,))
        run = march(0.0, [(100.0, None)], self.SETTINGS, step,
                    lambda *args: {})
        assert calls[:7] == [1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0]
        assert run.dt_failures == 1

    @pytest.mark.parametrize("factorizations, grows", [(5, True), (6, False)])
    def test_dt_grows_on_factorizations_not_iterations(self, factorizations, grows):
        step, calls, _ = _scripted_step(iterations=12, factorizations=factorizations)
        diags = []
        run = march(0.0, [(7.0, None)], self.SETTINGS, step, lambda *args: {"x": 0},
                    OutputHooks(on_diagnostics=lambda t, d: diags.append(d)))
        assert calls == ([1.0, 2.0, 4.0] if grows else [1.0] * 7)
        assert run.newton_iterations == 12 * len(calls)
        assert run.factorizations == factorizations * len(calls)
        assert list(diags[0]) == ["dt", "newton_iterations", "residual", "factorizations", "x"]
        assert diags[0]["factorizations"] == factorizations

    def test_failure_below_dt_min_carries_last_good_state(self):
        step, _, _ = _scripted_step(fails_at=range(2, 100))
        with pytest.raises(ConvergenceError) as exc_info:
            march(0.0, [(100.0, None)], self.SETTINGS, step, lambda *args: {})
        assert exc_info.value.last_good_state == 1.0
        assert exc_info.value.last_good_time == 1.0

    @pytest.mark.parametrize("intervals", [
        [(-3600.0, None)], [(10.0, "a"), (5.0, "b")], [(float("nan"), None)],
    ], ids=["before_zero", "decreasing", "nan"])
    def test_time_running_backwards_rejected_before_a_step(self, intervals):
        def step(state, dt, ctx, guess, carry):
            raise AssertionError("march stepped on intervals that run backwards")

        with pytest.raises(DomainError, match="interval ends"):
            march(0.0, intervals, self.SETTINGS, step, lambda *args: {})

    def test_equal_ends_are_empty_intervals(self):
        step, calls, _ = _scripted_step()
        run = march(0.0, [(0.0, "a"), (3.0, "b"), (3.0, "c")], self.SETTINGS, step,
                    lambda *args: {})
        assert run.t == 3.0 and calls == [1.0, 2.0]

    @pytest.mark.parametrize("cadence", [-5.0, float("nan")], ids=["negative", "nan"])
    def test_bad_snapshot_cadence_rejected_before_a_step(self, cadence):
        def step(state, dt, ctx, guess, carry):
            raise AssertionError(f"march stepped with snapshot cadence {cadence}")

        hooks = OutputHooks(snapshot_cadence=cadence, on_snapshot=lambda t, s: None)
        with pytest.raises(DomainError, match="snapshot_cadence"):
            march(0.0, [(10.0, None)], self.SETTINGS, step, lambda *args: {}, hooks)

    @pytest.mark.parametrize("cadence", [1e-20, 1e-310])
    def test_tiny_cadence_snaps_once_per_accepted_step(self, cadence):
        step, calls, _ = _scripted_step()
        snaps = []
        hooks = OutputHooks(snapshot_cadence=cadence, on_snapshot=lambda t, s: snaps.append(t))
        run = march(0.0, [(3600.0, None)], SolverSettings(), step, lambda *args: {},
                    hooks)
        assert calls == [600.0, 1200.0, 1800.0]
        assert snaps == [0.0, 600.0, 1800.0, 3600.0] and run.steps == 3

    def test_snapshots_and_diagnostics(self):
        step, calls, _ = _scripted_step()
        snaps, diags = [], []
        hooks = OutputHooks(snapshot_cadence=4.0,
                            on_snapshot=lambda t, s: snaps.append(t),
                            on_diagnostics=lambda t, d: diags.append(d))
        march(0.0, [(10.0, None)], self.SETTINGS, step,
              lambda t, dt, s, rep, ctx: {"state": s}, hooks)
        assert snaps == [0.0, 7.0, 10.0]
        assert [d["dt"] for d in diags] == calls
        assert diags[-1]["state"] == pytest.approx(10.0)

    def test_failed_step_retry_gets_no_carried_factorization(self):
        step, calls, handed = _scripted_step(fails_at=(3,))
        march(0.0, [(7.0, None)], self.SETTINGS, step, lambda *args: {})
        assert calls == [1.0, 2.0, 4.0, 2.0, 2.0]
        assert [lu for _, lu in handed] == [None, 1, 2, None, 4]

    def test_retry_guess_from_last_two_accepted_states_at_retry_dt(self):
        step, calls, handed = _scripted_step(fails_at=(3,))
        march(0.0, [(7.0, None)], self.SETTINGS, step, lambda *args: {},
              predict=lambda prev, last, ratio: (prev, last, ratio))
        assert calls[:4] == [1.0, 2.0, 4.0, 2.0]
        assert [guess for guess, _ in handed[:4]] == [
            None, (0.0, 1.0, 2.0), (1.0, 3.0, 2.0), (1.0, 3.0, 1.0)]

    def test_no_predict_gives_no_guess(self):
        step, calls, handed = _scripted_step(fails_at=(2, 4))
        march(0.0, [(7.0, None)], self.SETTINGS, step, lambda *args: {})
        assert len(calls) > 4
        assert all(guess is None for guess, _ in handed)


def _micp_step(settings, sides=("x+",), rate=1e-5):
    """One 600 s micp step with well rate ``rate`` (m^3/s) in _line(sides)."""
    grid = _line(sides).grid
    params = KineticParams()
    state = micp.make_initial_state(grid, params)
    return micp.solve_timestep(micp.MicpSystem(grid, params, RockLaw()), state, 600.0,
                               WellControl(rate=rate), settings)


def _co2_step(settings, sides=("x+",), rate=1e-5):
    """One 600 s co2 step with well rate ``rate`` (m^3/s) in _line(sides)."""
    grid = _line(sides).grid
    state = co2.make_initial_twophase_state(grid, TwoPhaseParams())
    return co2.solve_twophase_step(co2.TwoPhaseSystem(grid, grid.perm0, TwoPhaseParams()),
                                   state, 600.0, rate, settings)


class TestStepSettings:
    @pytest.mark.parametrize("step", [_micp_step, _co2_step], ids=["micp", "co2"])
    @pytest.mark.parametrize("bad, message", [
        ({"newton_max_iter": 0}, "newton_max_iter"),
        ({"newton_rel_tol": -1.0}, "newton_rel_tol"),
        ({"dt_min": 1000.0}, "dt_min <= dt_init"),
        # an infinite tolerance accepts every step without an iteration
        ({"newton_rel_tol": np.inf}, "newton_rel_tol must be finite"),
        ({"dt_max": np.inf}, "dt_max must be finite"),
    ], ids=["max_iter_0", "negative_tol", "dt_min_above_dt_init", "infinite_tol",
            "infinite_dt_max"])
    def test_invalid_settings_raise(self, step, bad, message):
        with pytest.raises(DomainError, match=message):
            step(SolverSettings(**bad))


def _closed_column():
    """A closed column of four 1 m cells: no open boundary, no well rate."""
    domain = DomainSpec(nx=1, ny=1, nz=4, dx=1.0, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=4.0, caprock_height=0.0, well_x=0.5,
                        outflow_sides=())
    return build_domain(domain, None, res, RockLaw())


class TestClosedDomain:
    @pytest.mark.parametrize("solver", ["micp", "co2"])
    def test_water_column_at_rest_stays_at_rest(self, solver):
        # the pin holds cell 0 at its own pressure in the water column at
        # rest, not at the datum p_bdry of z = 0, half a cell below it
        grid = _closed_column()
        if solver == "micp":
            state = micp.make_initial_state(grid, KineticParams())
            new, rep = micp.solve_timestep(
                micp.MicpSystem(grid, KineticParams(), RockLaw()), state, 600.0,
                WellControl(), SolverSettings())
        else:
            state = co2.make_initial_twophase_state(grid, TwoPhaseParams())
            new, rep = co2.solve_twophase_step(
                co2.TwoPhaseSystem(grid, grid.perm0, TwoPhaseParams()), state, 600.0,
                0.0, SolverSettings())
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(new.p, state.p)


class TestStepWell:
    @pytest.mark.parametrize("step", [_micp_step, _co2_step], ids=["micp", "co2"])
    def test_injection_into_closed_domain_raises(self, step):
        # the pressure pin takes the place of the well cell's water equation
        assert step(SolverSettings())[1].converged
        with pytest.raises(DomainError, match="no open boundary"):
            step(SolverSettings(), sides=())

    @pytest.mark.parametrize("step", [_micp_step, _co2_step], ids=["micp", "co2"])
    def test_withdrawal_from_closed_domain_raises(self, step):
        # with no open boundary nothing can replace the withdrawn fluid
        with pytest.raises(DomainError, match="no open boundary"):
            step(SolverSettings(), sides=(), rate=-1e-5)
